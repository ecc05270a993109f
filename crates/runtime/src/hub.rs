//! The socket fleet hub: the platform side of remote node peers.
//!
//! [`Hub::start`] runs the [link layer](crate::link) on a
//! [`TransportListener`]: one acceptor, one thread per link, at most
//! `n` links waiting for their first frame at once (the fleet's size:
//! no more peers than that ever have a hello to send), and
//! [`FIRST_FRAME_TIMEOUT`] to send it. That first frame is the
//! link's *hello* — an update frame for round 0 from `node` with no
//! parameters (round 0 is never a real round, so the frame is
//! unambiguous on the existing wire protocol). The link's thread checks
//! the hello and then serves as the peer's reader (frames flow into one
//! merged inbound channel, exactly like the in-process uplink), so a
//! link that connects and stays silent holds up no other peer's join,
//! and a burst of silent connections cannot lock a real peer out. A
//! writer thread on a clone of the link, registered with the same
//! layer, is fed by a bounded outbound queue of `mailbox_cap` frames:
//! `try_send`, drop-on-full, so a slow or dead peer costs dropped
//! frames and a degraded round, never a blocked event loop.
//!
//! A peer that reconnects (same hello node id) replaces its slot: the
//! old link is closed, the new one takes over, and the per-node
//! counters keep accumulating. Counters measure *physical* bytes —
//! encoded frame plus the 4-byte length prefix — in both directions.
//!
//! **Redelivery.** Each slot keeps the last broadcast `try_send`
//! accepted for it, and every reconnect queues that frame first on the
//! new link, until the platform [retracts](Hub::retract) it at the
//! round's end. One rule covers every way a bouncing peer can miss the
//! open round's global: it was away when the broadcast was sent, its
//! writer died mid-send, or the frame was written into the kernel
//! buffer of a socket the peer had already abandoned (the first write
//! after the peer's FIN succeeds and is never read). A peer that
//! bounces after it replied gets the round again, and the platform
//! counts its second reply as undelivered. Slots are generation-counted:
//! a dying reader only clears the queue of the connection it belongs
//! to, never a replacement that already took the slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bytes::Bytes;
use fml_sim::{curve_trailer_len, logical_frame_len, FramePool, MessageView, LENGTH_PREFIX_LEN};

use crate::link::{self, LinkSet, Links, FIRST_FRAME_TIMEOUT};
use crate::lock;
use crate::report::NodeIo;
use crate::transport::{Transport, TransportError, TransportListener};

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
#[derive(Default)]
struct SlotState {
    /// Bounded outbound queue into the writer thread; `None` until the
    /// peer joins, while it is between connections, and after shutdown.
    tx: Option<SyncSender<Bytes>>,
    /// The open round's broadcast as `try_send` accepted it for this
    /// node: queued first on every reconnect until
    /// [`Hub::retract`] clears it.
    last: Option<Bytes>,
    /// Bumped on every install; a dying reader clears `tx` only while
    /// its own generation still owns the slot.
    generation: u64,
    counters: Arc<PeerCounters>,
    reconnects: u64,
    ever_joined: bool,
}

/// State shared between the platform thread and the link threads.
struct HubShared {
    slots: Mutex<Vec<SlotState>>,
    /// Signalled under `slots` when a node joins for the first time.
    joined_cv: Condvar,
    /// The fleet's size.
    n: usize,
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
    links: Links,
}

impl Hub {
    /// Starts accepting peers on `listener`, reading each link with
    /// `io_timeout`, floored at 1 ms: a zero read timeout returns at
    /// once and would spin the readers. Returns the hub handle and the
    /// merged node→platform frame stream.
    pub(crate) fn start(
        listener: Box<dyn TransportListener>,
        n: usize,
        mailbox_cap: usize,
        io_timeout: Duration,
    ) -> (Hub, Receiver<Bytes>) {
        assert!(n > 0, "hub needs at least one expected peer");
        assert!(mailbox_cap > 0, "outbound queue capacity must be at least 1");
        let shared = Arc::new(HubShared {
            slots: Mutex::new((0..n).map(|_| SlotState::default()).collect()),
            joined_cv: Condvar::new(),
            n,
            joined: AtomicUsize::new(0),
            mailbox_cap,
            io_timeout: io_timeout.max(Duration::from_millis(1)),
        });
        let (in_tx, in_rx) = channel::<Bytes>();
        let peers = Arc::clone(&shared);
        let serve =
            move |links: &LinkSet, link, hello| serve_link(links, link, hello, &peers, &in_tx);
        let links = link::start(listener, n, FIRST_FRAME_TIMEOUT, serve);
        (Hub { shared, links }, in_rx)
    }

    /// Blocks until all expected peers have joined at least once, or
    /// the timeout expires. Returns how many have joined.
    pub(crate) fn await_join(&self, timeout: Duration) -> usize {
        let shared = &self.shared;
        let short = |_: &mut Vec<SlotState>| shared.joined.load(Ordering::Acquire) < shared.n;
        let slots = lock(&shared.slots);
        let _ = shared.joined_cv.wait_timeout_while(slots, timeout, short);
        shared.joined.load(Ordering::Acquire)
    }

    /// Best-effort broadcast of one frame to `node`: queued for the
    /// writer thread, or dropped when the peer never joined or its
    /// queue is full. A *joined* peer between connections accepts it
    /// too, for its reconnect to replay (still counted delivered; the
    /// round degrades later if the peer never returns). An accepted
    /// frame becomes the slot's `last`.
    pub(crate) fn try_send(&self, node: usize, frame: Bytes) -> bool {
        let mut slots = lock(&self.shared.slots);
        let Some(slot) = slots.get_mut(node) else {
            return false;
        };
        let accepted = match slot.tx.as_ref().map(|tx| tx.try_send(frame.clone())) {
            Some(Ok(())) => true,
            Some(Err(TrySendError::Full(_))) => false,
            // No writer, or one that died underneath us: the peer is
            // between connections if it ever joined.
            Some(Err(TrySendError::Disconnected(_))) | None => {
                slot.tx = None;
                slot.ever_joined
            }
        };
        if accepted {
            slot.last = Some(frame);
        }
        accepted
    }

    /// Ends the round's broadcast: no reconnect replays it from now on.
    /// The driver still holds the frame, so dropping the slots' copies
    /// leaves its recycle to whichever handle goes last.
    pub(crate) fn retract(&self) {
        for slot in lock(&self.shared.slots).iter_mut() {
            slot.last = None;
        }
    }

    /// Stops accepting, closes every link (peers observe EOF), joins all
    /// threads, and returns the per-node counters.
    pub(crate) fn shutdown(self) -> Vec<NodeIo> {
        // Once the acceptor is gone, drop the outbound queues: writers
        // drain, close their links (waking blocked readers and peers
        // with EOF), and exit. An install checks the stop flag under
        // this lock, so none lands after it.
        self.links.shutdown(|| {
            for slot in lock(&self.shared.slots).iter_mut() {
                slot.tx = None;
            }
        });
        lock(&self.shared.slots)
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

/// A link's handler: checks its hello's claimed node id, installs the
/// peer, then serves as the peer's reader for as long as the link
/// lives. A malformed hello closes the link.
fn serve_link(
    links: &LinkSet,
    mut link: Box<dyn Transport>,
    hello: Bytes,
    shared: &HubShared,
    in_tx: &Sender<Bytes>,
) {
    // The peer is not identified yet: look at the header in place and
    // never materialize whatever payload it chose to send.
    let node = match MessageView::parse(&hello) {
        Ok(h) if h.is_update() && h.round() == 0 && (h.node() as usize) < shared.n => h.node(),
        _ => return link.close(),
    } as usize;
    FramePool::global().recycle(hello);
    let Some((generation, counters)) = install_peer(node, link.as_ref(), links, shared) else {
        return link.close();
    };
    reader_loop(link, node, generation, in_tx, &counters, links, shared);
}

/// Installs (or replaces, on reconnect) the node's slot with a writer
/// thread on a clone of `link`, and returns the slot's generation and
/// counters for the reader. `None` when the hub is stopping or the
/// link cannot be cloned.
fn install_peer(
    node: usize,
    link: &dyn Transport,
    links: &LinkSet,
    shared: &HubShared,
) -> Option<(u64, Arc<PeerCounters>)> {
    let writer_link = link.try_clone().ok()?;
    let (out_tx, out_rx) = sync_channel::<Bytes>(shared.mailbox_cap);
    let (generation, counters) = {
        let mut slots = lock(&shared.slots);
        if links.stopping() {
            return None;
        }
        let slot = &mut slots[node];
        if slot.ever_joined {
            slot.reconnects += 1;
        } else {
            slot.ever_joined = true;
            shared.joined.fetch_add(1, Ordering::AcqRel);
            shared.joined_cv.notify_all();
        }
        slot.generation += 1;
        // The open round's broadcast goes out first, whether the peer
        // was away when it was sent or lost it on the link that died.
        // The fresh queue is empty and its capacity is ≥ 1, so this
        // cannot fail Full.
        if let Some(last) = &slot.last {
            let _ = out_tx.try_send(last.clone());
        }
        // Replacing the queue drops the old writer's receiver end: the
        // old writer exits and closes the stale link.
        slot.tx = Some(out_tx);
        (slot.generation, Arc::clone(&slot.counters))
    };

    let writer_counters = Arc::clone(&counters);
    links.spawn(move || writer_loop(writer_link, &out_rx, &writer_counters));
    Some((generation, counters))
}

/// Drains the bounded outbound queue onto the link until the queue is
/// dropped or a send fails (a stream transport closes itself on a
/// failed write: a timed-out partial write desynchronizes the stream).
/// A frame that never reached the peer is still its slot's `last`,
/// which the reconnect replays. Exiting closes the link so the peer and
/// the paired reader both observe EOF.
fn writer_loop(mut link: Box<dyn Transport>, out_rx: &Receiver<Bytes>, counters: &PeerCounters) {
    let pool = FramePool::global().handle();
    while let Ok(frame) = out_rx.recv() {
        if link.send_frame(&frame).is_err() {
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

/// Forwards every inbound frame onto the merged platform channel until
/// the link dies or the hub stops. On a link death (not a hub stop) it
/// clears the slot's outbound queue — if its generation still owns the
/// slot — so subsequent broadcasts wait in `last` for the reconnect
/// instead of queueing into the stale writer.
fn reader_loop(
    mut link: Box<dyn Transport>,
    node: usize,
    generation: u64,
    in_tx: &Sender<Bytes>,
    counters: &PeerCounters,
    links: &LinkSet,
    shared: &HubShared,
) {
    while !links.stopping() {
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
            Err(TransportError::Timeout) => {}
            Err(_) => break,
        }
    }
    link.close();
    if !links.stopping() {
        let slot = &mut lock(&shared.slots)[node];
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
    use std::time::Instant;

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
        let io = hub.shutdown();
        assert_eq!(io[0].reconnects, 1);
    }

    /// A frame written into a socket the peer then abandons unread is
    /// lost with no error on the hub's side; the reconnect replays it.
    #[test]
    fn broadcast_lost_in_flight_is_replayed_on_reconnect() {
        let (hub, _in_rx, addr) = start_tcp(1);
        let mut first = TcpTransport::connect(&addr).unwrap();
        first.send_frame(&hello(0)).unwrap();
        assert_eq!(hub.await_join(Duration::from_secs(5)), 1);
        let frame = global(3, &[6.0]);
        assert!(hub.try_send(0, frame.clone()));
        // Let the writer put the frame on the wire, then leave unread.
        std::thread::sleep(Duration::from_millis(200));
        first.close();

        let mut second = TcpTransport::connect(&addr).unwrap();
        second.send_frame(&hello(0)).unwrap();
        // No further try_send: the replay alone must arrive.
        let got = second.recv_frame(Duration::from_secs(5)).unwrap();
        assert_eq!(got, frame);
        let io = hub.shutdown();
        assert_eq!(io[0].reconnects, 1);
    }

    #[test]
    fn retracted_broadcast_is_not_replayed() {
        let (hub, _in_rx, addr) = start_tcp(1);
        let mut first = TcpTransport::connect(&addr).unwrap();
        first.send_frame(&hello(0)).unwrap();
        assert_eq!(hub.await_join(Duration::from_secs(5)), 1);
        let frame = global(4, &[7.0]);
        assert!(hub.try_send(0, frame.clone()));
        assert_eq!(first.recv_frame(Duration::from_secs(5)).unwrap(), frame);
        hub.retract();
        first.close();

        let mut second = TcpTransport::connect(&addr).unwrap();
        second.send_frame(&hello(0)).unwrap();
        assert_eq!(
            second.recv_frame(Duration::from_millis(500)),
            Err(TransportError::Timeout)
        );
        // Shutdown drains the writer's queue before closing: a replay
        // queued at the reconnect would arrive here ahead of the EOF.
        let io = hub.shutdown();
        assert_eq!(io[0].reconnects, 1);
        assert_eq!(
            second.recv_frame(Duration::from_secs(5)),
            Err(TransportError::Closed)
        );
    }

    /// A link that connects and never says hello holds up no other
    /// peer's join, and shutdown does not wait out its hello timeout.
    #[test]
    fn silent_link_does_not_stall_other_joins() {
        let (hub, _in_rx, addr) = start_tcp(1);
        let _silent = TcpTransport::connect(&addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let mut peer = TcpTransport::connect(&addr).unwrap();
        peer.send_frame(&hello(0)).unwrap();
        assert_eq!(hub.await_join(Duration::from_secs(2)), 1);
        let started = Instant::now();
        hub.shutdown();
        assert!(
            started.elapsed() < FIRST_FRAME_TIMEOUT / 2,
            "{:?}",
            started.elapsed()
        );
    }

    /// A peer that reconnects over and over leaves the thread registry
    /// bounded: each registration joins the link threads that have
    /// ended.
    #[test]
    fn reconnects_do_not_grow_the_thread_registry() {
        const RECONNECTS: u64 = 20;
        let (hub, _in_rx, addr) = start_tcp(1);
        let reconnects = || hub.shared.slots.lock().unwrap()[0].reconnects;
        for bounce in 0..=RECONNECTS {
            let mut peer = TcpTransport::connect(&addr).unwrap();
            peer.send_frame(&hello(0)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while hub.shared.joined.load(Ordering::Acquire) == 0 || reconnects() < bounce {
                assert!(Instant::now() < deadline, "bounce {bounce} never installed");
                std::thread::sleep(Duration::from_millis(5));
            }
            peer.close();
            // The reader sees the EOF and clears the slot's queue, which
            // ends the writer too.
            while hub.shared.slots.lock().unwrap()[0].tx.is_some() {
                assert!(Instant::now() < deadline, "bounce {bounce} never cleared");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let registered = hub.links.registered();
        // One reader and one writer a link: 42 if ended threads stayed.
        assert!(registered <= 6, "{registered} thread handles kept");
        assert_eq!(hub.shutdown()[0].reconnects, RECONNECTS);
    }

    /// At most `n` links await their hello at once: a burst of silent
    /// connections closes the oldest of them at once, keeps the thread
    /// registry bounded, and a real peer still joins behind it.
    #[test]
    fn silent_links_beyond_the_fleet_size_are_closed() {
        const SILENT: usize = 12;
        let (hub, _in_rx, addr) = start_tcp(2);
        let started = Instant::now();
        let mut silent: Vec<TcpTransport> = (0..SILENT)
            .map(|_| TcpTransport::connect(&addr).unwrap())
            .collect();
        for (i, link) in silent[..SILENT - 2].iter_mut().enumerate() {
            assert_eq!(
                link.recv_frame(Duration::from_secs(5)),
                Err(TransportError::Closed),
                "silent link {i}"
            );
        }
        let elapsed = started.elapsed();
        assert!(elapsed < FIRST_FRAME_TIMEOUT / 2, "{elapsed:?}");
        assert!(hub.links.waiting() <= 2);
        let mut peer = TcpTransport::connect(&addr).unwrap();
        peer.send_frame(&hello(1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while hub.shared.joined.load(Ordering::Acquire) == 0 {
            assert!(Instant::now() < deadline, "the peer never joined");
            std::thread::sleep(Duration::from_millis(5));
        }
        let registered = hub.links.registered();
        // The peer's reader and writer, and the links not yet joined.
        assert!(registered <= 6, "{registered} thread handles kept");
        hub.shutdown();
    }

    /// Links that came and went after a slow greeter do not close it:
    /// with `n = 2` no more than two links ever await a hello here, so
    /// the cap has no reason to.
    #[test]
    fn a_slow_greeter_within_the_cap_still_joins() {
        let (hub, _in_rx, addr) = start_tcp(2);
        let mut slow = TcpTransport::connect(&addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut first = TcpTransport::connect(&addr).unwrap();
        first.send_frame(&hello(1)).unwrap();
        while hub.shared.joined.load(Ordering::Acquire) == 0 {
            assert!(Instant::now() < deadline, "node 1 never joined");
            std::thread::sleep(Duration::from_millis(5));
        }
        first.close();
        let mut second = TcpTransport::connect(&addr).unwrap();
        second.send_frame(&hello(1)).unwrap();
        while hub.shared.slots.lock().unwrap()[1].reconnects == 0 {
            assert!(Instant::now() < deadline, "node 1 never reconnected");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Slow: it speaks some ticks after the reconnect.
        std::thread::sleep(Duration::from_millis(200));
        slow.send_frame(&hello(0)).unwrap();
        assert_eq!(hub.await_join(Duration::from_secs(2)), 2);
        hub.shutdown();
    }

    #[test]
    fn a_zero_io_timeout_is_floored_at_a_millisecond() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let (hub, _in_rx) = Hub::start(Box::new(listener), 1, 2, Duration::ZERO);
        assert_eq!(hub.shared.io_timeout, Duration::from_millis(1));
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
