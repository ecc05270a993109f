//! The socket fleet hub: the platform side of remote node peers.
//!
//! [`Hub::start`] moves a [`TransportListener`] onto an acceptor thread.
//! Each inbound link must introduce itself with a *hello* frame —
//! an update frame for round 0 from `node` with no parameters (round 0 is
//! never a real round, so the frame is unambiguous on the existing wire
//! protocol) — after which the hub splits the link into a reader thread
//! (frames flow into one merged inbound channel, exactly like the
//! in-process uplink) and a writer thread fed by a bounded outbound
//! queue of `mailbox_cap` frames: `try_send`, drop-on-full, so a slow
//! or dead peer costs dropped frames and a degraded round, never a
//! blocked event loop.
//!
//! A peer that reconnects (same hello node id) replaces its slot: the
//! old link is closed, the new one takes over, and the per-node
//! counters keep accumulating. Counters measure *physical* bytes —
//! encoded frame plus the 4-byte length prefix — in both directions.
//!
//! While a joined peer is *between* connections (its link died, its
//! replacement has not arrived), the latest broadcast is **parked** in
//! the slot and flushed the moment the reconnect lands — so a node
//! that bounces mid-round still receives that round's global and the
//! round completes instead of degrading. A writer whose link dies
//! mid-send re-parks the newest undelivered frame for the same reason.
//! Slots are generation-counted: a dying reader only clears the queue
//! of the connection it belongs to, never a replacement that already
//! took the slot.
//!
//! Parking alone cannot close every loss window: a broadcast can be
//! queued — or even *written*, into the kernel buffer of a socket the
//! peer already abandoned — before the hub learns the link is dead.
//! Reconnects that land with nothing parked are therefore flagged, and
//! the platform drains the flags ([`Hub::take_rejoined`]) while
//! collecting to retransmit the current round on the fresh connection.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fml_sim::{curve_trailer_len, logical_frame_len, FramePool, MessageView, LENGTH_PREFIX_LEN};

use crate::report::NodeIo;
use crate::transport::{Transport, TransportError, TransportListener};

/// Accept-loop tick: how often the acceptor rechecks the stop flag.
const ACCEPT_TICK: Duration = Duration::from_millis(20);

/// How often `await_join` rechecks the joined count.
const JOIN_POLL: Duration = Duration::from_millis(5);

/// How long a freshly accepted link gets to send its hello frame.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Cumulative per-node counters, shared with the reader/writer threads
/// and surviving reconnects. All counts are physical (prefix included).
#[derive(Default)]
struct PeerCounters {
    /// Broadcast frames actually written to the peer.
    frames_to: AtomicUsize,
    /// Physical bytes written to the peer.
    bytes_to: AtomicUsize,
    /// Update frames read from the peer.
    frames_from: AtomicUsize,
    /// Physical bytes read from the peer.
    bytes_from: AtomicUsize,
    /// Logical bytes of the updates read: what each update frame would
    /// have cost as a dense tag-2 frame (the compression-ratio
    /// denominator). Non-update frames contribute nothing.
    bytes_from_logical: AtomicUsize,
    /// Bytes of the curve-terms trailers among the updates read,
    /// counted in both byte counters above.
    trailer_bytes_from: AtomicUsize,
}

/// One node's slot in the fleet table.
struct SlotState {
    /// Bounded outbound queue into the writer thread; `None` until the
    /// peer joins (and after shutdown).
    tx: Option<SyncSender<Bytes>>,
    /// Latest broadcast held while no live connection exists; flushed
    /// into the fresh queue when the peer reconnects.
    parked: Option<Bytes>,
    /// Bumped on every install; a dying reader clears `tx` only while
    /// its own generation still owns the slot.
    generation: u64,
    /// Set when a reconnect lands with nothing parked: a broadcast may
    /// have been in flight on the dying link (written into a socket the
    /// peer had already abandoned), so the platform should consider
    /// retransmitting the current round. Drained by
    /// [`Hub::take_rejoined`].
    rejoined: bool,
    counters: Arc<PeerCounters>,
    reconnects: u64,
    ever_joined: bool,
}

impl SlotState {
    fn empty() -> Self {
        SlotState {
            tx: None,
            parked: None,
            generation: 0,
            rejoined: false,
            counters: Arc::new(PeerCounters::default()),
            reconnects: 0,
            ever_joined: false,
        }
    }
}

/// State shared between the platform thread and the acceptor.
struct HubShared {
    slots: Mutex<Vec<SlotState>>,
    /// Reader/writer thread handles, joined at shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    stop: AtomicBool,
    /// Distinct nodes that have joined at least once.
    joined: AtomicUsize,
    mailbox_cap: usize,
    io_timeout: Duration,
}

/// The platform's handle on a socket fleet. Broadcast with
/// [`try_send`](Hub::try_send); the merged inbound frame stream comes
/// from the receiver [`Hub::start`] returned.
pub(crate) struct Hub {
    shared: Arc<HubShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Hub {
    /// Starts accepting peers on `listener`. Returns the hub handle and
    /// the merged node→platform frame stream.
    pub(crate) fn start(
        listener: Box<dyn TransportListener>,
        n: usize,
        mailbox_cap: usize,
        io_timeout: Duration,
    ) -> (Hub, Receiver<Bytes>) {
        assert!(n > 0, "hub needs at least one expected peer");
        assert!(mailbox_cap > 0, "outbound queue capacity must be at least 1");
        let shared = Arc::new(HubShared {
            slots: Mutex::new((0..n).map(|_| SlotState::empty()).collect()),
            threads: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            joined: AtomicUsize::new(0),
            mailbox_cap,
            io_timeout,
        });
        let (in_tx, in_rx) = channel::<Bytes>();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, n, &shared, &in_tx))
        };
        (
            Hub {
                shared,
                acceptor: Some(acceptor),
            },
            in_rx,
        )
    }

    /// Blocks until all expected peers have joined at least once, or
    /// the timeout expires. Returns how many have joined.
    pub(crate) fn await_join(&self, timeout: Duration) -> usize {
        let n = {
            let slots = self.shared.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.len()
        };
        let deadline = Instant::now() + timeout;
        loop {
            let joined = self.shared.joined.load(Ordering::Acquire);
            if joined >= n || Instant::now() >= deadline {
                return joined;
            }
            std::thread::sleep(JOIN_POLL);
        }
    }

    /// Best-effort broadcast of one frame to `node`: queued for the
    /// writer thread, or dropped when the peer never joined or its
    /// queue is full — except that a *joined* peer currently between
    /// connections gets the frame parked for delivery on reconnect (still
    /// counted delivered; the round degrades later if the peer never
    /// returns).
    pub(crate) fn try_send(&self, node: usize, frame: Bytes) -> bool {
        let mut slots = self.shared.slots.lock().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = slots.get_mut(node) else {
            return false;
        };
        if let Some(tx) = slot.tx.as_ref() {
            match tx.try_send(frame) {
                Ok(()) => return true,
                Err(TrySendError::Full(_)) => return false,
                Err(TrySendError::Disconnected(frame)) => {
                    // The writer died underneath us: treat it like a
                    // link between connections and park the frame.
                    slot.tx = None;
                    slot.parked = Some(frame);
                    return true;
                }
            }
        }
        if slot.ever_joined && !self.shared.stop.load(Ordering::Acquire) {
            slot.parked = Some(frame);
            return true;
        }
        false
    }

    /// Returns (and clears) the nodes that reconnected since the last
    /// call without a parked frame waiting for them. Such a peer may
    /// have missed a broadcast entirely — the frame can be written into
    /// a socket the peer already abandoned (the first write after the
    /// peer's FIN succeeds into the kernel buffer and is never read) —
    /// so the platform retransmits the current round to them while it
    /// is still collecting.
    pub(crate) fn take_rejoined(&self) -> Vec<usize> {
        let mut slots = self.shared.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots
            .iter_mut()
            .enumerate()
            .filter_map(|(node, slot)| std::mem::take(&mut slot.rejoined).then_some(node))
            .collect()
    }

    /// Stops accepting, closes every link (peers observe EOF), joins all
    /// threads, and returns the per-node counters.
    pub(crate) fn shutdown(mut self) -> Vec<NodeIo> {
        self.shared.stop.store(true, Ordering::Release);
        // The acceptor first: once it is gone no new peer can be
        // installed, so dropping the outbound queues below reaches
        // every writer that will ever exist.
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Drop the outbound queues: writers drain, close their links
        // (waking blocked readers and peers with EOF), and exit.
        {
            let mut slots = self.shared.slots.lock().unwrap_or_else(|e| e.into_inner());
            for slot in slots.iter_mut() {
                slot.tx = None;
            }
        }
        let handles = {
            let mut threads = self.shared.threads.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *threads)
        };
        for h in handles {
            let _ = h.join();
        }
        let slots = self.shared.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots
            .iter()
            .enumerate()
            .map(|(node, slot)| NodeIo {
                node,
                // Hub-side view: frames written to the peer are what it
                // received, and vice versa.
                frames_received: slot.counters.frames_to.load(Ordering::Acquire) as u64,
                bytes_received: slot.counters.bytes_to.load(Ordering::Acquire) as u64,
                frames_sent: slot.counters.frames_from.load(Ordering::Acquire) as u64,
                bytes_sent: slot.counters.bytes_from.load(Ordering::Acquire) as u64,
                bytes_sent_logical: slot.counters.bytes_from_logical.load(Ordering::Acquire)
                    as u64,
                trailer_bytes_sent: slot.counters.trailer_bytes_from.load(Ordering::Acquire)
                    as u64,
                reconnects: slot.reconnects,
                // Node-side only: the platform counts what *it* cannot
                // decode in `RuntimeReport::decode_errors`.
                decode_errors: 0,
            })
            .collect()
    }
}

/// Accepts, reads hellos, and installs peers until told to stop.
fn accept_loop(
    mut listener: Box<dyn TransportListener>,
    n: usize,
    shared: &Arc<HubShared>,
    in_tx: &Sender<Bytes>,
) {
    while !shared.stop.load(Ordering::Acquire) {
        let link = match listener.accept(ACCEPT_TICK) {
            Ok(link) => link,
            Err(TransportError::Timeout) => continue,
            Err(_) => break,
        };
        if let Some((node, link)) = read_hello(link, n) {
            install_peer(node, link, shared, in_tx);
        }
    }
}

/// Waits for the hello frame and validates the claimed node id. Returns
/// `None` (dropping the link) on anything malformed.
fn read_hello(mut link: Box<dyn Transport>, n: usize) -> Option<(usize, Box<dyn Transport>)> {
    let frame = match link.recv_frame(HELLO_TIMEOUT) {
        Ok(frame) => frame,
        Err(_) => {
            link.close();
            return None;
        }
    };
    // The peer is not identified yet: look at the header in place and
    // never materialize whatever payload it chose to send.
    match MessageView::parse(&frame) {
        Ok(hello) if hello.is_update() && hello.round() == 0 && (hello.node() as usize) < n => {
            Some((hello.node() as usize, link))
        }
        _ => {
            link.close();
            None
        }
    }
}

/// Splits `link` into writer + reader threads and installs (or
/// replaces, on reconnect) the node's slot.
fn install_peer(
    node: usize,
    link: Box<dyn Transport>,
    shared: &Arc<HubShared>,
    in_tx: &Sender<Bytes>,
) {
    let writer_link = match link.try_clone() {
        Ok(w) => w,
        Err(_) => {
            let mut link = link;
            link.close();
            return;
        }
    };
    let (out_tx, out_rx) = sync_channel::<Bytes>(shared.mailbox_cap);
    let (counters, generation) = {
        let mut slots = shared.slots.lock().unwrap_or_else(|e| e.into_inner());
        let slot = &mut slots[node];
        if slot.ever_joined {
            slot.reconnects += 1;
            // Nothing parked means any broadcast since the old link
            // died was queued into it — possibly lost in flight. Let
            // the platform retransmit. (A parked frame is flushed
            // below, so that path needs no retransmission.)
            slot.rejoined = slot.parked.is_none();
        } else {
            slot.ever_joined = true;
            shared.joined.fetch_add(1, Ordering::AcqRel);
        }
        slot.generation += 1;
        // A broadcast parked while the peer was away goes out first —
        // the fresh queue is empty and the capacity is ≥ 1, so this
        // cannot fail Full.
        if let Some(parked) = slot.parked.take() {
            let _ = out_tx.try_send(parked);
        }
        // Replacing the queue drops the old writer's receiver end: the
        // old writer exits and closes the stale link.
        slot.tx = Some(out_tx);
        (Arc::clone(&slot.counters), slot.generation)
    };

    let writer = {
        let counters = Arc::clone(&counters);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            writer_loop(writer_link, node, generation, &out_rx, &counters, &shared)
        })
    };
    let reader = {
        let counters = Arc::clone(&counters);
        let in_tx = in_tx.clone();
        let shared = Arc::clone(shared);
        std::thread::spawn(move || reader_loop(link, node, generation, &in_tx, &counters, &shared))
    };
    let mut threads = shared.threads.lock().unwrap_or_else(|e| e.into_inner());
    threads.push(writer);
    threads.push(reader);
}

/// Drains the bounded outbound queue onto the link. Any send error is
/// fatal (a stream transport closes itself on a failed write: a
/// timed-out partial write desynchronizes the stream); the failed
/// frame — and anything still queued behind it — is re-parked so a
/// reconnect, not a timeout, decides the round.
/// Exiting closes the link so the peer and the paired reader both
/// observe EOF.
fn writer_loop(
    mut link: Box<dyn Transport>,
    node: usize,
    generation: u64,
    out_rx: &Receiver<Bytes>,
    counters: &PeerCounters,
    shared: &HubShared,
) {
    let pool = FramePool::global().handle();
    while let Ok(frame) = out_rx.recv() {
        if link.send_frame(&frame).is_err() {
            repark_undelivered(node, generation, frame, out_rx, shared);
            break;
        }
        counters.frames_to.fetch_add(1, Ordering::AcqRel);
        counters
            .bytes_to
            .fetch_add(frame.len() + LENGTH_PREFIX_LEN, Ordering::AcqRel);
        // A broadcast is one encode shared across every peer's queue;
        // the last writer to finish with it recycles the storage.
        pool.recycle(frame);
    }
    link.close();
}

/// Salvages the newest frame a dying writer could not deliver: the
/// queue behind the failed write is drained (only the latest broadcast
/// matters) and the survivor goes back to the slot — parked if this
/// writer's generation still owns it, forwarded into the replacement
/// queue if a reconnect already took over.
fn repark_undelivered(
    node: usize,
    generation: u64,
    failed: Bytes,
    out_rx: &Receiver<Bytes>,
    shared: &HubShared,
) {
    let newest = out_rx.try_iter().last().unwrap_or(failed);
    if shared.stop.load(Ordering::Acquire) {
        return;
    }
    let mut slots = shared.slots.lock().unwrap_or_else(|e| e.into_inner());
    let slot = &mut slots[node];
    if slot.generation == generation {
        slot.tx = None;
        slot.parked = Some(newest);
    } else if let Some(tx) = slot.tx.as_ref() {
        if let Err(TrySendError::Disconnected(frame)) = tx.try_send(newest) {
            slot.parked = Some(frame);
        }
    } else {
        slot.parked = Some(newest);
    }
}

/// Forwards every inbound frame onto the merged platform channel until
/// the link dies or the hub stops. On a link death (not a hub stop) it
/// clears the slot's outbound queue — if its generation still owns the
/// slot — so subsequent broadcasts park for the reconnect instead of
/// queueing into the stale writer.
fn reader_loop(
    mut link: Box<dyn Transport>,
    node: usize,
    generation: u64,
    in_tx: &Sender<Bytes>,
    counters: &PeerCounters,
    shared: &HubShared,
) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        match link.recv_frame(shared.io_timeout) {
            Ok(frame) => {
                counters.frames_from.fetch_add(1, Ordering::AcqRel);
                counters
                    .bytes_from
                    .fetch_add(frame.len() + LENGTH_PREFIX_LEN, Ordering::AcqRel);
                if let Some(logical) = logical_frame_len(&frame) {
                    counters
                        .bytes_from_logical
                        .fetch_add(logical + LENGTH_PREFIX_LEN, Ordering::AcqRel);
                }
                counters
                    .trailer_bytes_from
                    .fetch_add(curve_trailer_len(&frame), Ordering::AcqRel);
                if in_tx.send(frame).is_err() {
                    break;
                }
            }
            Err(TransportError::Timeout) => continue,
            Err(_) => break,
        }
    }
    link.close();
    if !shared.stop.load(Ordering::Acquire) {
        let mut slots = shared.slots.lock().unwrap_or_else(|e| e.into_inner());
        let slot = &mut slots[node];
        if slot.generation == generation {
            // Dropping the sender ends the paired writer too.
            slot.tx = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{TcpTransport, TcpTransportListener};
    use fml_sim::message::{encode_global_into, encode_update_into};
    use fml_sim::MessageView;

    fn global(round: u32, params: &[f64]) -> Bytes {
        let mut buf = bytes::BytesMut::new();
        encode_global_into(round, params, &mut buf);
        buf.freeze()
    }

    fn update(round: u32, node: u32, params: &[f64]) -> Bytes {
        let mut buf = bytes::BytesMut::new();
        encode_update_into(round, node, params, &mut buf);
        buf.freeze()
    }

    fn hello(node: u32) -> Bytes {
        update(0, node, &[])
    }

    fn start_tcp(n: usize) -> (Hub, Receiver<Bytes>, String) {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = crate::transport::TransportListener::local_addr(&listener);
        let (hub, rx) = Hub::start(Box::new(listener), n, 2, Duration::from_millis(200));
        (hub, rx, addr)
    }

    #[test]
    fn peers_join_frames_flow_and_counters_are_physical() {
        let (hub, in_rx, addr) = start_tcp(2);
        let mut peers: Vec<TcpTransport> = (0..2u32)
            .map(|node| {
                let mut t = TcpTransport::connect(&addr).unwrap();
                t.send_frame(&hello(node)).unwrap();
                t
            })
            .collect();
        assert_eq!(hub.await_join(Duration::from_secs(5)), 2);

        let broadcast = global(1, &[1.0, 2.0]);
        assert!(hub.try_send(0, broadcast.clone()));
        assert!(hub.try_send(1, broadcast.clone()));
        assert!(!hub.try_send(2, broadcast.clone()), "unknown node drops");

        for (i, peer) in peers.iter_mut().enumerate() {
            let got = peer.recv_frame(Duration::from_secs(5)).unwrap();
            assert_eq!(got, broadcast, "peer {i}");
            peer.send_frame(&update(1, i as u32, &[0.5])).unwrap();
        }
        let up0 = in_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let up1 = in_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(MessageView::parse(&up0).is_ok() && MessageView::parse(&up1).is_ok());

        let io = hub.shutdown();
        assert_eq!(io.len(), 2);
        for n in &io {
            assert_eq!(n.frames_received, 1, "one broadcast written");
            assert_eq!(n.frames_sent, 1, "one update read");
            assert_eq!(
                n.bytes_received,
                (broadcast.len() + LENGTH_PREFIX_LEN) as u64,
                "physical bytes include the prefix"
            );
            assert_eq!(n.reconnects, 0);
        }
        // Shutdown closed the links: peers observe EOF.
        for peer in &mut peers {
            assert_eq!(
                peer.recv_frame(Duration::from_secs(5)),
                Err(TransportError::Closed)
            );
        }
    }

    #[test]
    fn reconnect_replaces_the_slot_and_is_counted() {
        let (hub, _in_rx, addr) = start_tcp(1);
        let mut first = TcpTransport::connect(&addr).unwrap();
        first.send_frame(&hello(0)).unwrap();
        assert_eq!(hub.await_join(Duration::from_secs(5)), 1);
        first.close();

        let mut second = TcpTransport::connect(&addr).unwrap();
        second.send_frame(&hello(0)).unwrap();
        // The replacement is installed asynchronously; wait for the
        // reconnect to land by polling a broadcast through.
        let frame = global(1, &[3.0]);
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            let _ = hub.try_send(0, frame.clone());
            match second.recv_frame(Duration::from_millis(50)) {
                Ok(f) => break f,
                Err(TransportError::Timeout) if Instant::now() < deadline => continue,
                Err(e) => panic!("reconnected peer never saw a frame: {e}"),
            }
        };
        assert_eq!(got, frame);
        let io = hub.shutdown();
        assert_eq!(io[0].reconnects, 1);
    }

    #[test]
    fn parked_broadcast_is_flushed_on_reconnect() {
        let (hub, _in_rx, addr) = start_tcp(1);
        let mut first = TcpTransport::connect(&addr).unwrap();
        first.send_frame(&hello(0)).unwrap();
        assert_eq!(hub.await_join(Duration::from_secs(5)), 1);
        first.close();
        // Give the reader a moment to observe EOF and clear the slot.
        std::thread::sleep(Duration::from_millis(500));

        let frame = global(2, &[4.0, 5.0]);
        assert!(
            hub.try_send(0, frame.clone()),
            "a joined-but-away peer parks the frame"
        );

        let mut second = TcpTransport::connect(&addr).unwrap();
        second.send_frame(&hello(0)).unwrap();
        // No further try_send: the parked frame alone must arrive.
        let got = second.recv_frame(Duration::from_secs(5)).unwrap();
        assert_eq!(got, frame);
        assert!(
            hub.take_rejoined().is_empty(),
            "a reconnect that flushed a parked frame needs no retransmit"
        );
        let io = hub.shutdown();
        assert_eq!(io[0].reconnects, 1);
    }

    #[test]
    fn rejoin_without_parked_frame_is_flagged_for_retransmission() {
        let (hub, _in_rx, addr) = start_tcp(1);
        let mut first = TcpTransport::connect(&addr).unwrap();
        first.send_frame(&hello(0)).unwrap();
        assert_eq!(hub.await_join(Duration::from_secs(5)), 1);
        assert!(hub.take_rejoined().is_empty(), "first join is not a rejoin");
        first.close();

        let mut second = TcpTransport::connect(&addr).unwrap();
        second.send_frame(&hello(0)).unwrap();
        // The replacement installs asynchronously; poll the flag.
        let deadline = Instant::now() + Duration::from_secs(5);
        let rejoined = loop {
            let r = hub.take_rejoined();
            if !r.is_empty() || Instant::now() >= deadline {
                break r;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(rejoined, vec![0], "nothing was parked, so flag the rejoin");
        assert!(hub.take_rejoined().is_empty(), "the flag drains on read");
        second.close();
        hub.shutdown();
    }

    #[test]
    fn bad_hello_is_dropped_without_joining() {
        let (hub, _in_rx, addr) = start_tcp(1);
        // Node 7 of a 1-node fleet, a hello for a real round, and a
        // broadcast posing as a hello: each rejected, link closed.
        for bad in [hello(7), update(1, 0, &[]), global(0, &[])] {
            let mut bogus = TcpTransport::connect(&addr).unwrap();
            bogus.send_frame(&bad).unwrap();
            assert_eq!(
                bogus.recv_frame(Duration::from_secs(5)),
                Err(TransportError::Closed),
                "{bad:?}"
            );
        }
        assert_eq!(hub.await_join(Duration::from_millis(100)), 0);
        hub.shutdown();
    }
}
