//! The transport seam: how one platform⇄node link moves encoded frames.
//!
//! The platform event loop and the node actors are written against
//! [`Transport`] — *send a frame, receive a frame under a deadline* —
//! and against [`TransportListener`] for the accept side of the
//! lifecycle. Three implementations exist:
//!
//! * [`ChannelTransport`] — an in-process link: a bounded `sync_channel`
//!   toward the node (best-effort `try_send`, a full queue drops the
//!   frame) and an unbounded channel back. It stands in for a socket
//!   wherever one link is driven in process; the in-process fleet of
//!   [`crate::Runtime::run`] needs no links at all, since it is posted
//!   each round once;
//! * [`TcpTransport`] — length-prefixed frames (see
//!   [`fml_sim::framing`]) over a `TcpStream`, with per-call read
//!   deadlines and a fixed write deadline;
//! * [`UnixTransport`] — the same framing over a Unix domain socket.
//!
//! The stream transports share one hardened read path: bytes are fed
//! into a [`fml_sim::FrameBuffer`], so arbitrary kernel-level splits
//! and coalescing of frames are invisible, and a garbage length prefix
//! poisons the link ([`TransportError::Corrupt`]) instead of allocating.
//!
//! [`FaultyTransport`] decorates any of the three with seeded
//! drop/delay/corrupt/disconnect injection at the seam, for end-to-end
//! recovery testing.

mod channel;
mod faulty;
mod stream;

pub use channel::ChannelTransport;
pub use faulty::{FaultyTransport, LinkFaultPlan, LinkFaultStats};
pub use stream::{
    TcpTransport, TcpTransportListener, UnixTransport, UnixTransportListener, CONNECT_ATTEMPTS,
    CONNECT_BASE_DELAY,
};

use std::time::Duration;

use bytes::Bytes;

/// Errors a transport can report. Every variant is a *condition*, not a
/// panic: callers degrade (skip a round, drop a peer) and keep going.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// No frame arrived (or the write did not complete) before the
    /// deadline. Retryable on receive only: buffered partial frames are
    /// kept, so the link is still usable. A stream transport whose
    /// *write* timed out may have torn a frame and has closed itself.
    Timeout,
    /// A best-effort send was dropped because the peer's bounded
    /// mailbox is full. The link is still usable; the frame is gone.
    Full,
    /// The peer is gone (disconnected channel, EOF, reset, or this end
    /// was closed). The link is dead.
    Closed,
    /// The byte stream violated the framing protocol (garbage length
    /// prefix). The link is desynchronized and dead.
    Corrupt(String),
    /// Any other I/O failure, with the OS error text.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "transport deadline expired"),
            TransportError::Full => write!(f, "peer mailbox full, frame dropped"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Corrupt(why) => write!(f, "frame stream corrupt: {why}"),
            TransportError::Io(why) => write!(f, "transport I/O error: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// Whether the link can still carry frames after this error.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            TransportError::Closed | TransportError::Corrupt(_) | TransportError::Io(_)
        )
    }
}

/// One end of a reliable, framed, bidirectional platform⇄node link.
///
/// # Contract
///
/// * [`send`](Transport::send) never blocks unboundedly: it either
///   completes within the transport's write deadline, drops the frame
///   ([`TransportError::Full`]), or reports the link dead. It takes the
///   frame by value, so a sender that keeps no copy leaves the receiver
///   the only handle, and the receiver's
///   [`FramePool::recycle`](fml_sim::FramePool::recycle) gets the
///   buffer back.
///   [`send_frame`](Transport::send_frame) is the same for a sender that
///   keeps its copy.
/// * [`recv_frame`](Transport::recv_frame) blocks for at most `timeout`
///   and returns [`TransportError::Timeout`] when nothing arrived —
///   buffered partial frames are retained across calls, so a slow
///   sender costs timeouts, never data.
/// * [`close`](Transport::close) is idempotent; after it, both
///   directions fail with [`TransportError::Closed`] (for socket
///   transports the peer observes EOF).
/// * [`try_clone`](Transport::try_clone) yields a second handle to the
///   same link so one thread can read while another writes. Exactly one
///   handle may receive: the receive-side buffer is per-handle, and two
///   concurrent readers would tear frames apart.
pub trait Transport: Send {
    /// Sends one encoded frame, taking the caller's handle.
    ///
    /// # Errors
    ///
    /// [`TransportError::Full`] when a best-effort bounded send dropped
    /// the frame, [`TransportError::Timeout`] when the write deadline
    /// expired, [`TransportError::Closed`]/[`TransportError::Io`] when
    /// the link is dead. A socket transport closes itself on any failed
    /// write, `Timeout` included: every later call returns `Closed`.
    fn send(&mut self, frame: Bytes) -> Result<(), TransportError>;

    /// [`send`](Self::send) of a clone, for a caller that keeps `frame`.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send).
    fn send_frame(&mut self, frame: &Bytes) -> Result<(), TransportError> {
        self.send(frame.clone())
    }

    /// Receives the next whole frame, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when no complete frame arrived in
    /// time, [`TransportError::Closed`] on EOF/disconnect,
    /// [`TransportError::Corrupt`] on a framing violation.
    fn recv_frame(&mut self, timeout: Duration) -> Result<Bytes, TransportError>;

    /// Second handle to the same link, for read/write thread splits.
    ///
    /// # Errors
    ///
    /// Any I/O error from duplicating the underlying descriptor.
    fn try_clone(&self) -> Result<Box<dyn Transport>, TransportError>;

    /// Shuts the link down (idempotent). Socket transports shut down
    /// both directions, so clones of this link die with it.
    fn close(&mut self);

    /// Transport family name: `"channel"`, `"tcp"`, or `"uds"`.
    fn kind(&self) -> &'static str;
}

/// The accept side of a transport's lifecycle: the platform listens,
/// node peers connect.
pub trait TransportListener: Send {
    /// Accepts the next inbound link, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when nothing connected in time, or
    /// an I/O error from the accept itself.
    fn accept(&mut self, timeout: Duration) -> Result<Box<dyn Transport>, TransportError>;

    /// The address peers should connect to (e.g. `127.0.0.1:41234` or a
    /// socket path) — useful when binding to an ephemeral port.
    fn local_addr(&self) -> String;

    /// Transport family name: `"channel"`, `"tcp"`, or `"uds"`.
    fn kind(&self) -> &'static str;
}

/// Maps an I/O error onto the transport taxonomy.
pub(crate) fn io_error(e: &std::io::Error) -> TransportError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::Timeout,
        ErrorKind::BrokenPipe
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::NotConnected
        | ErrorKind::UnexpectedEof => TransportError::Closed,
        _ => TransportError::Io(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_fatality() {
        assert!(!TransportError::Timeout.is_fatal());
        assert!(!TransportError::Full.is_fatal());
        assert!(TransportError::Closed.is_fatal());
        assert!(TransportError::Corrupt("x".into()).is_fatal());
        assert!(TransportError::Io("x".into()).is_fatal());
        for e in [
            TransportError::Timeout,
            TransportError::Full,
            TransportError::Closed,
            TransportError::Corrupt("bad prefix".into()),
            TransportError::Io("pipe".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_mapping() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            io_error(&Error::new(ErrorKind::WouldBlock, "w")),
            TransportError::Timeout
        );
        assert_eq!(
            io_error(&Error::new(ErrorKind::BrokenPipe, "p")),
            TransportError::Closed
        );
        assert!(matches!(
            io_error(&Error::new(ErrorKind::PermissionDenied, "p")),
            TransportError::Io(_)
        ));
    }
}
