//! Socket transports: length-prefixed [`fml_sim::message`] frames over
//! `TcpStream` / `UnixStream`, shared through one generic, hardened
//! implementation.
//!
//! Reads go through [`fml_sim::FrameBuffer`], so partial reads,
//! 1-byte dribbles, and coalesced frames all reassemble correctly, and
//! a garbage length prefix kills the link instead of allocating.
//! Deadlines map onto the socket's native read/write timeouts; the
//! overall receive deadline is enforced across however many partial
//! reads it takes.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fml_sim::framing::{prefix_frame_into, FrameBuffer};
use fml_sim::FramePool;

use super::{io_error, Transport, TransportError};

/// Default connect retry budget for [`connect_with_backoff`] callers —
/// with [`CONNECT_BASE_DELAY`] doubling per attempt (capped at 1s) this
/// is roughly five seconds of patience, enough for a platform process
/// started in parallel with its nodes.
pub const CONNECT_ATTEMPTS: u32 = 10;

/// First retry delay for connect backoff; doubles per attempt.
pub const CONNECT_BASE_DELAY: Duration = Duration::from_millis(50);

/// Bound on one `send_frame` call for socket transports.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Read chunk size; large enough that a softmax-model frame arrives in
/// one read, small enough to live on the struct without ceremony.
const SCRATCH_LEN: usize = 16 * 1024;

mod sealed {
    /// Seals [`super::FramedStream`]: only the socket types this module
    /// wires up can implement it.
    pub trait Sealed {}
    impl Sealed for std::net::TcpStream {}
    impl Sealed for std::os::unix::net::UnixStream {}
}

/// The socket operations the generic framed transport needs beyond
/// `Read + Write`; implemented for `TcpStream` and `UnixStream` only
/// (the trait is sealed).
pub trait FramedStream: Read + Write + Send + Sized + sealed::Sealed {
    /// Transport family name for reports and errors.
    const KIND: &'static str;
    /// Sets the socket read timeout (never called with zero).
    fn read_timeout_set(&self, t: Duration) -> std::io::Result<()>;
    /// Sets the socket write timeout (never called with zero).
    fn write_timeout_set(&self, t: Duration) -> std::io::Result<()>;
    /// Shuts down both directions, waking any blocked peer and clone.
    fn shutdown_both(&self) -> std::io::Result<()>;
    /// Duplicates the descriptor for a read/write thread split.
    fn clone_stream(&self) -> std::io::Result<Self>;
}

/// Both streams have the same inherent methods under the same names.
macro_rules! framed_stream {
    ($($stream:ty => $kind:literal),*) => {$(
        impl FramedStream for $stream {
            const KIND: &'static str = $kind;
            fn read_timeout_set(&self, t: Duration) -> std::io::Result<()> {
                self.set_read_timeout(Some(t))
            }
            fn write_timeout_set(&self, t: Duration) -> std::io::Result<()> {
                self.set_write_timeout(Some(t))
            }
            fn shutdown_both(&self) -> std::io::Result<()> {
                self.shutdown(std::net::Shutdown::Both)
            }
            fn clone_stream(&self) -> std::io::Result<Self> {
                self.try_clone()
            }
        }
    )*};
}

framed_stream!(TcpStream => "tcp", UnixStream => "uds");

/// A framed transport over one blocking socket.
pub struct StreamTransport<S: FramedStream> {
    stream: S,
    buf: FrameBuffer,
    scratch: Vec<u8>,
    /// Reused `[prefix][frame]` staging buffer: steady-state sends
    /// never allocate.
    write_scratch: Vec<u8>,
    /// Received frames borrow their storage from here and are recycled
    /// by their consumers.
    pool: FramePool,
    closed: bool,
}

/// TCP flavour of the socket transport.
pub type TcpTransport = StreamTransport<TcpStream>;

/// Unix-domain-socket flavour of the socket transport.
pub type UnixTransport = StreamTransport<UnixStream>;

impl<S: FramedStream> std::fmt::Debug for StreamTransport<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamTransport")
            .field("kind", &S::KIND)
            .field("closed", &self.closed)
            .finish()
    }
}

impl<S: FramedStream> StreamTransport<S> {
    /// Wraps a connected socket, bounding every later write by
    /// [`WRITE_TIMEOUT`]. The timeout is a socket option, so the
    /// descriptors [`Transport::try_clone`] duplicates share it.
    fn from_stream(stream: S) -> Result<Self, TransportError> {
        stream
            .write_timeout_set(WRITE_TIMEOUT)
            .map_err(|e| io_error(&e))?;
        Ok(StreamTransport {
            stream,
            buf: FrameBuffer::new(),
            scratch: vec![0u8; SCRATCH_LEN],
            write_scratch: Vec::new(),
            pool: FramePool::global().handle(),
            closed: false,
        })
    }
}

impl<S: FramedStream + 'static> Transport for StreamTransport<S> {
    fn send(&mut self, frame: Bytes) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        prefix_frame_into(&frame, &mut self.write_scratch);
        // The bytes are copied out: a caller that kept no handle gets
        // the buffer back into the pool for its next encode.
        self.pool.recycle(frame);
        let written = self
            .stream
            .write_all(&self.write_scratch)
            .and_then(|()| self.stream.flush());
        if let Err(e) = written {
            // A prefix of `[len][frame]` may already be on the wire: the
            // next frame would be read as the tail of this one. The
            // stream is desynchronized, so the link dies with the write.
            self.close();
            return Err(io_error(&e));
        }
        Ok(())
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Bytes, TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.buf.next_frame_pooled(&self.pool) {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(e) => return Err(TransportError::Corrupt(e.to_string())),
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            // Socket timeouts must be nonzero; clamp the remainder up.
            let remaining = (deadline - now).max(Duration::from_millis(1));
            self.stream
                .read_timeout_set(remaining)
                .map_err(|e| io_error(&e))?;
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(k) => self.buf.extend(&self.scratch[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // WouldBlock/TimedOut: loop back and let the deadline
                // check decide (a partial frame may still complete if
                // the caller retries with a fresh timeout).
                Err(e) if matches!(io_error(&e), TransportError::Timeout) => {}
                Err(e) => return Err(io_error(&e)),
            }
        }
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, TransportError> {
        let stream = self.stream.clone_stream().map_err(|e| io_error(&e))?;
        Ok(Box::new(StreamTransport {
            closed: self.closed,
            ..Self::from_stream(stream)?
        }))
    }

    fn close(&mut self) {
        if !self.closed {
            // Best effort: the peer (and any clone) observes EOF.
            let _ = self.stream.shutdown_both();
            self.closed = true;
        }
    }

    fn kind(&self) -> &'static str {
        S::KIND
    }
}

/// Retries `connect` with doubling backoff (capped at one second per
/// wait) so node processes may start before their platform listens.
fn backoff_loop<T>(
    attempts: u32,
    base: Duration,
    mut connect: impl FnMut() -> std::io::Result<T>,
) -> Result<T, TransportError> {
    assert!(attempts > 0, "need at least one connect attempt");
    let mut delay = base;
    let mut last = None;
    for attempt in 0..attempts {
        match connect() {
            Ok(t) => return Ok(t),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < attempts {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_secs(1));
        }
    }
    Err(TransportError::Io(format!(
        "connect failed after {attempts} attempts: {}",
        last.map_or_else(|| "unknown".into(), |e| e.to_string())
    )))
}

impl TcpTransport {
    /// Connects to a TCP platform at `addr` (e.g. `127.0.0.1:41234`).
    ///
    /// # Errors
    ///
    /// Any connection error, mapped onto [`TransportError`].
    pub fn connect(addr: &str) -> Result<Self, TransportError> {
        Self::connect_with_backoff(addr, 1, CONNECT_BASE_DELAY)
    }

    /// Connects with `attempts` tries and doubling backoff, so a node
    /// started before its platform converges instead of dying.
    ///
    /// # Errors
    ///
    /// The last connection error once the retry budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics when `attempts` is zero.
    pub fn connect_with_backoff(
        addr: &str,
        attempts: u32,
        base: Duration,
    ) -> Result<Self, TransportError> {
        let stream = backoff_loop(attempts, base, || TcpStream::connect(addr))?;
        stream.set_nodelay(true).map_err(|e| io_error(&e))?;
        Self::from_stream(stream)
    }
}

impl UnixTransport {
    /// Connects to a Unix-domain-socket platform at `path` with
    /// `attempts` tries and doubling backoff.
    ///
    /// # Errors
    ///
    /// The last connection error once the retry budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics when `attempts` is zero.
    pub fn connect_with_backoff(
        path: &str,
        attempts: u32,
        base: Duration,
    ) -> Result<Self, TransportError> {
        let stream = backoff_loop(attempts, base, || UnixStream::connect(path))?;
        Self::from_stream(stream)
    }
}

/// Accept loop granularity: nonblocking accepts are polled at this
/// period until the caller's deadline expires.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Polls a nonblocking listener's `accept` every [`ACCEPT_POLL`] until
/// it yields a connection or `timeout` runs out. The stream comes back
/// as accepted — still nonblocking.
fn accept_until<S, A>(
    timeout: Duration,
    mut accept: impl FnMut() -> std::io::Result<(S, A)>,
) -> Result<S, TransportError> {
    let deadline = Instant::now() + timeout;
    loop {
        match accept() {
            Ok((stream, _)) => return Ok(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(TransportError::Timeout);
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(&e)),
        }
    }
}

/// TCP accept side. Bind with an explicit port, or port `0` for an
/// ephemeral one (read it back from [`local_addr`]).
///
/// [`local_addr`]: super::TransportListener::local_addr
pub struct TcpTransportListener {
    inner: TcpListener,
    addr: String,
}

impl TcpTransportListener {
    /// Binds and starts listening on `addr`.
    ///
    /// # Errors
    ///
    /// Any bind error, mapped onto [`TransportError`].
    pub fn bind(addr: &str) -> Result<Self, TransportError> {
        let inner = TcpListener::bind(addr).map_err(|e| io_error(&e))?;
        inner.set_nonblocking(true).map_err(|e| io_error(&e))?;
        let addr = inner
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string());
        Ok(TcpTransportListener { inner, addr })
    }
}

impl super::TransportListener for TcpTransportListener {
    fn accept(&mut self, timeout: Duration) -> Result<Box<dyn Transport>, TransportError> {
        let stream = accept_until(timeout, || self.inner.accept())?;
        stream.set_nonblocking(false).map_err(|e| io_error(&e))?;
        stream.set_nodelay(true).map_err(|e| io_error(&e))?;
        Ok(Box::new(TcpTransport::from_stream(stream)?))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

/// Unix-domain-socket accept side. Binding removes a stale socket file
/// at the path; dropping the listener removes the file again, so a
/// clean shutdown leaves nothing on disk.
pub struct UnixTransportListener {
    inner: UnixListener,
    path: PathBuf,
}

impl UnixTransportListener {
    /// Binds and starts listening on the socket file at `path`,
    /// replacing a stale socket left by a previous run.
    ///
    /// # Errors
    ///
    /// Any bind error, mapped onto [`TransportError`].
    pub fn bind(path: &str) -> Result<Self, TransportError> {
        let path = PathBuf::from(path);
        // A previous unclean shutdown leaves the socket file behind and
        // would make bind fail with AddrInUse.
        let _ = std::fs::remove_file(&path);
        let inner = UnixListener::bind(&path).map_err(|e| io_error(&e))?;
        inner.set_nonblocking(true).map_err(|e| io_error(&e))?;
        Ok(UnixTransportListener { inner, path })
    }
}

impl Drop for UnixTransportListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl super::TransportListener for UnixTransportListener {
    fn accept(&mut self, timeout: Duration) -> Result<Box<dyn Transport>, TransportError> {
        let stream = accept_until(timeout, || self.inner.accept())?;
        stream.set_nonblocking(false).map_err(|e| io_error(&e))?;
        Ok(Box::new(UnixTransport::from_stream(stream)?))
    }

    fn local_addr(&self) -> String {
        self.path.display().to_string()
    }

    fn kind(&self) -> &'static str {
        "uds"
    }
}

#[cfg(test)]
mod tests {
    use super::super::TransportListener;
    use super::*;

    fn frame(tag: u8) -> Bytes {
        Bytes::copy_from_slice(&[tag; 24])
    }

    fn tcp_pair() -> (Box<dyn Transport>, TcpTransport) {
        let mut listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let client = TcpTransport::connect(&addr).unwrap();
        let server = listener.accept(Duration::from_secs(5)).unwrap();
        (server, client)
    }

    fn uds_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("fml-transport-test-{}-{tag}.sock", std::process::id()))
            .display()
            .to_string()
    }

    #[test]
    fn tcp_roundtrip_and_timeout() {
        let (mut server, mut client) = tcp_pair();
        client.send_frame(&frame(7)).unwrap();
        assert_eq!(server.recv_frame(Duration::from_secs(5)).unwrap(), frame(7));
        server.send_frame(&frame(8)).unwrap();
        assert_eq!(client.recv_frame(Duration::from_secs(5)).unwrap(), frame(8));
        let t0 = Instant::now();
        assert_eq!(
            client.recv_frame(Duration::from_millis(60)),
            Err(TransportError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(55));
        assert_eq!(client.kind(), "tcp");
    }

    #[test]
    fn uds_roundtrip_and_file_cleanup() {
        let path = uds_path("roundtrip");
        {
            let mut listener = UnixTransportListener::bind(&path).unwrap();
            let mut client =
                UnixTransport::connect_with_backoff(&path, 1, CONNECT_BASE_DELAY).unwrap();
            let mut server = listener.accept(Duration::from_secs(5)).unwrap();
            client.send_frame(&frame(1)).unwrap();
            assert_eq!(server.recv_frame(Duration::from_secs(5)).unwrap(), frame(1));
            assert_eq!(server.kind(), "uds");
        }
        assert!(
            !std::path::Path::new(&path).exists(),
            "socket file must be removed on listener drop"
        );
    }

    #[test]
    fn failed_write_closes_the_link_instead_of_tearing_the_stream() {
        let path = uds_path("torn-write");
        let mut listener = UnixTransportListener::bind(&path).unwrap();
        let mut client = UnixTransport::connect_with_backoff(&path, 1, CONNECT_BASE_DELAY).unwrap();
        let mut server = listener.accept(Duration::from_secs(5)).unwrap();
        // The peer does not read: the socket buffer fills and a write
        // times out with a prefix of `[len][frame]` already on the wire.
        let big = |tag: usize| Bytes::from(vec![tag as u8; 64 << 10]);
        let mut sent = 0;
        let first_error = loop {
            match client.send_frame(&big(sent)) {
                Ok(()) => sent += 1,
                Err(e) => break e,
            }
            assert!(sent < 1024, "64 KiB frames must overrun an unread socket");
        };
        assert_eq!(first_error, TransportError::Timeout);
        // The peer wakes up and makes room; writing on now would splice
        // the next frame into the torn one.
        let recv = |t: &mut Box<dyn Transport>| t.recv_frame(Duration::from_secs(5));
        assert!(recv(&mut server).unwrap() == big(0), "frame 0 differs");
        assert_eq!(
            client.send_frame(&big(sent + 1)),
            Err(TransportError::Closed)
        );
        // The peer sees every whole frame, byte for byte, then EOF: never
        // `Corrupt`, never a mis-framed payload.
        for tag in 1..sent {
            assert!(
                recv(&mut server).unwrap() == big(tag),
                "frame {tag} differs"
            );
        }
        let tail = recv(&mut server).map(|f| f.len());
        assert_eq!(tail, Err(TransportError::Closed));
    }

    #[test]
    fn close_propagates_as_eof() {
        let (mut server, mut client) = tcp_pair();
        client.close();
        assert_eq!(
            server.recv_frame(Duration::from_secs(5)),
            Err(TransportError::Closed)
        );
        assert_eq!(client.send_frame(&frame(0)), Err(TransportError::Closed));
        client.close(); // idempotent
    }

    #[test]
    fn garbage_prefix_poisons_the_link() {
        let mut listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let mut server = listener.accept(Duration::from_secs(5)).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        match server.recv_frame(Duration::from_secs(5)) {
            Err(TransportError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn dribbled_bytes_reassemble() {
        let mut listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let mut server = listener.accept(Duration::from_secs(5)).unwrap();
        let payload = frame(5);
        let mut wire = Vec::new();
        prefix_frame_into(&payload, &mut wire);
        let handle = std::thread::spawn(move || {
            for b in wire {
                raw.write_all(&[b]).unwrap();
                raw.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            raw
        });
        assert_eq!(
            server.recv_frame(Duration::from_secs(10)).unwrap(),
            payload
        );
        drop(handle.join().unwrap());
    }

    #[test]
    fn clone_split_allows_concurrent_read_write() {
        let (server, mut client) = tcp_pair();
        let mut reader = server;
        let mut writer = reader.try_clone().unwrap();
        let echo =
            std::thread::spawn(move || reader.recv_frame(Duration::from_secs(5)).unwrap());
        writer.send_frame(&frame(3)).unwrap();
        client.send_frame(&frame(4)).unwrap();
        assert_eq!(client.recv_frame(Duration::from_secs(5)).unwrap(), frame(3));
        assert_eq!(echo.join().unwrap(), frame(4));
    }

    #[test]
    fn backoff_eventually_gives_up() {
        // Port 1 on localhost: connection refused immediately.
        let t0 = Instant::now();
        let err = TcpTransport::connect_with_backoff(
            "127.0.0.1:1",
            3,
            Duration::from_millis(10),
        )
        .unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        // Two backoff sleeps (10ms + 20ms) must have happened.
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn backoff_recovers_when_listener_appears_late() {
        // Reserve an ephemeral port, drop the listener, then rebind it
        // after a delay while a client retries with backoff.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let addr2 = addr.clone();
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            let mut listener = TcpTransportListener::bind(&addr2).unwrap();
            listener.accept(Duration::from_secs(5)).unwrap()
        });
        let client =
            TcpTransport::connect_with_backoff(&addr, CONNECT_ATTEMPTS, CONNECT_BASE_DELAY);
        assert!(client.is_ok(), "{:?}", client.err());
        drop(server.join().unwrap());
    }
}
