//! The link layer under both network faces of the platform: the hub's
//! node peers ([`crate::hub`]) and the adaptation service's clients
//! ([`crate::serving`]).
//!
//! [`start`] moves a [`TransportListener`] onto an acceptor thread and
//! gives every accepted link a thread of its own. That thread waits for
//! the link's first frame, then hands the link and the frame to the
//! plane's handler, which runs on it for as long as the link lives. Two
//! bounds hold until the first frame arrives, and none after it:
//!
//! * a link has one first-frame deadline ([`FIRST_FRAME_TIMEOUT`] in
//!   both planes) to send it, or it is closed;
//! * at most `cap` links wait for it at once. A link accepted while
//!   `cap` already wait closes the one that has waited longest, within
//!   a [`TICK`]. A burst of silent connections so holds about `cap`
//!   threads and still cannot lock a real peer out, and a slow link is
//!   closed only when a newer one needs its place. The hub's cap is its
//!   fleet size, serving's its queue depth (each module says why).
//!
//! The first frame only has to *arrive*: the handler judges it (the hub
//! closes a link whose hello is malformed, serving counts an
//! undecodable request and keeps the link).
//!
//! Every thread the layer or a handler spawns ([`LinkSet::spawn`]) goes
//! into one registry, which joins the threads that have ended whenever
//! it registers a new one, so a peer that keeps reconnecting does not
//! grow it. [`Links::shutdown`] sets the stop flag, joins the acceptor,
//! runs the plane's hook, and joins every registered thread. Each of
//! them checks the flag ([`LinkSet::stopping`]) between reads of
//! bounded length (a [`TICK`], or the hub's read timeout) or ends once
//! the hook lets it, so shutdown takes bounded time.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::lock;
use crate::transport::{Transport, TransportError, TransportListener};

/// How often the acceptor, a link waiting for its first frame, and a
/// handler idle on its link recheck the stop flag.
pub(crate) const TICK: Duration = Duration::from_millis(20);

/// How long a freshly accepted link gets to send its first frame.
pub(crate) const FIRST_FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// A plane's handler, run on a link's thread once its first frame has
/// arrived, with the link and that frame.
type Handler = dyn Fn(&LinkSet, Box<dyn Transport>, Bytes) + Send + Sync;

/// What the acceptor, the link threads and the handlers share.
pub(crate) struct LinkSet {
    handler: Box<Handler>,
    /// Set first at shutdown: every registered thread winds down.
    stop: AtomicBool,
    /// Handles of the threads that may still run, joined at shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// The accept numbers of the links still waiting for their first
    /// frame: the first is the one that has waited longest.
    waiting: Mutex<BTreeSet<u64>>,
}

impl LinkSet {
    /// Whether shutdown has begun.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Runs `body` on a thread of its own and registers it for shutdown
    /// to join, first joining the threads that have ended (which
    /// returns at once), so a peer that keeps reconnecting does not grow
    /// the registry.
    pub(crate) fn spawn(&self, body: impl FnOnce() + Send + 'static) {
        let thread = std::thread::spawn(body);
        let mut threads = lock(&self.threads);
        for ended in threads.extract_if(.., |t| t.is_finished()) {
            let _ = ended.join();
        }
        threads.push(thread);
    }
}

/// A running link layer: the acceptor and every registered thread.
pub(crate) struct Links {
    set: Arc<LinkSet>,
    acceptor: JoinHandle<()>,
}

impl Links {
    /// Stops accepting, joins the acceptor, runs `before_join` (once the
    /// acceptor is gone every link's thread is registered), and joins
    /// every registered thread, including those registered meanwhile.
    pub(crate) fn shutdown(self, before_join: impl FnOnce()) {
        self.set.stop.store(true, Ordering::Release);
        let _ = self.acceptor.join();
        before_join();
        let registered = || lock(&self.set.threads).pop();
        while let Some(thread) = registered() {
            let _ = thread.join();
        }
    }
}

/// Starts accepting links on `listener`. Each one that sends a frame
/// within `first_frame` is handed, with that frame, to `handler` on the
/// link's own thread; at most `cap` (at least 1) wait for theirs at once.
pub(crate) fn start(
    mut listener: Box<dyn TransportListener>,
    cap: usize,
    first_frame: Duration,
    handler: impl Fn(&LinkSet, Box<dyn Transport>, Bytes) + Send + Sync + 'static,
) -> Links {
    let set = Arc::new(LinkSet {
        handler: Box::new(handler),
        stop: AtomicBool::new(false),
        threads: Mutex::new(Vec::new()),
        waiting: Mutex::new(BTreeSet::new()),
    });
    let shared = Arc::clone(&set);
    let acceptor = std::thread::spawn(move || {
        for number in 0.. {
            let link = match listener.accept(TICK) {
                _ if shared.stopping() => break,
                Ok(link) => link,
                Err(e) if e.is_fatal() => break,
                Err(_) => continue,
            };
            let mut waiting = lock(&shared.waiting);
            if waiting.len() >= cap.max(1) {
                // The oldest waiting link sees this within a tick.
                waiting.pop_first();
            }
            waiting.insert(number);
            drop(waiting);
            let deadline = Instant::now() + first_frame;
            let link_set = Arc::clone(&shared);
            shared.spawn(move || greet(&link_set, link, number, deadline));
        }
    });
    Links { set, acceptor }
}

/// A link's own thread: waits for its first frame, giving up at the
/// deadline, at shutdown or once the cap closed it (the link accepted
/// `number`-th), then runs the handler on it.
fn greet(set: &LinkSet, mut link: Box<dyn Transport>, number: u64, deadline: Instant) {
    let waiting =
        || Instant::now() < deadline && !set.stopping() && lock(&set.waiting).contains(&number);
    let first = loop {
        match link.recv_frame(TICK) {
            Ok(frame) => break Some(frame),
            // A timed-out read keeps what part of the frame it has.
            Err(TransportError::Timeout) if waiting() => {}
            Err(_) => break None,
        }
    };
    lock(&set.waiting).remove(&number);
    match first {
        Some(frame) => (set.handler)(set, link, frame),
        None => link.close(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use std::sync::mpsc::{channel, Receiver, Sender};

    impl Links {
        /// Thread handles the registry keeps.
        pub(crate) fn registered(&self) -> usize {
            lock(&self.set.threads).len()
        }

        /// Links waiting for their first frame.
        pub(crate) fn waiting(&self) -> usize {
            lock(&self.set.waiting).len()
        }
    }

    /// Accepts exactly the channel links handed to it.
    struct Handed(Receiver<Box<dyn Transport>>);

    impl TransportListener for Handed {
        fn accept(&mut self, timeout: Duration) -> Result<Box<dyn Transport>, TransportError> {
            self.0
                .recv_timeout(timeout)
                .map_err(|_| TransportError::Timeout)
        }

        fn local_addr(&self) -> String {
            "handed".into()
        }

        fn kind(&self) -> &'static str {
            "channel"
        }
    }

    const DEADLINE: Duration = Duration::from_millis(100);

    /// Echoes every frame after the first until the link dies or the
    /// layer stops.
    fn echo(set: &LinkSet, mut link: Box<dyn Transport>, _first: Bytes) {
        while !set.stopping() {
            match link.recv_frame(TICK) {
                Ok(frame) => {
                    let _ = link.send(frame);
                }
                Err(e) if e.is_fatal() => return,
                Err(_) => {}
            }
        }
    }

    fn start_echo(cap: usize) -> (Links, Sender<Box<dyn Transport>>) {
        let (accept_tx, accept_rx) = channel();
        (
            start(Box::new(Handed(accept_rx)), cap, DEADLINE, echo),
            accept_tx,
        )
    }

    fn connect(accept_tx: &Sender<Box<dyn Transport>>) -> ChannelTransport {
        let (server_end, client_end) = ChannelTransport::pair(4);
        accept_tx.send(Box::new(server_end)).unwrap();
        client_end
    }

    fn frame(byte: u8) -> Bytes {
        Bytes::from(vec![byte; 3])
    }

    #[test]
    fn a_link_that_sent_its_first_frame_outlives_the_deadline() {
        let (links, accept_tx) = start_echo(1);
        let mut client = connect(&accept_tx);
        client.send_frame(&frame(1)).unwrap();
        std::thread::sleep(3 * DEADLINE);
        client.send_frame(&frame(2)).unwrap();
        assert_eq!(client.recv_frame(Duration::from_secs(5)), Ok(frame(2)));
        links.shutdown(|| {});
    }

    #[test]
    fn a_silent_link_is_closed_at_the_deadline() {
        let (links, accept_tx) = start_echo(1);
        let started = Instant::now();
        let mut silent = connect(&accept_tx);
        assert_eq!(
            silent.recv_frame(Duration::from_secs(5)),
            Err(TransportError::Closed)
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed >= DEADLINE && elapsed < FIRST_FRAME_TIMEOUT / 2,
            "{elapsed:?}"
        );
        assert_eq!(links.waiting(), 0);
        links.shutdown(|| {});
    }

    /// The cap closes the oldest waiting link when a new one arrives,
    /// and only then: a link that sent its first frame frees its place.
    #[test]
    fn the_cap_closes_the_oldest_waiting_link_only() {
        let (accept_tx, accept_rx) = channel();
        let links = start(Box::new(Handed(accept_rx)), 1, FIRST_FRAME_TIMEOUT, echo);
        let mut slow = connect(&accept_tx);
        let mut quick = connect(&accept_tx);
        assert_eq!(
            slow.recv_frame(Duration::from_secs(5)),
            Err(TransportError::Closed)
        );
        quick.send_frame(&frame(1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while links.waiting() > 0 {
            assert!(Instant::now() < deadline, "the first frame never landed");
            std::thread::sleep(TICK);
        }
        let mut late = connect(&accept_tx);
        late.send_frame(&frame(2)).unwrap();
        late.send_frame(&frame(3)).unwrap();
        assert_eq!(late.recv_frame(Duration::from_secs(5)), Ok(frame(3)));
        quick.send_frame(&frame(4)).unwrap();
        assert_eq!(quick.recv_frame(Duration::from_secs(5)), Ok(frame(4)));
        links.shutdown(|| {});
    }
}
