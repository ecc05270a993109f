//! Length-prefixed stream framing for the wire protocol.
//!
//! Wire frames ([`crate::message`]) are self-delimiting only when the
//! caller already knows where one frame ends — true on a channel that
//! moves whole buffers, false on a byte stream (TCP, a Unix socket)
//! where the kernel may split one frame across many reads or coalesce
//! several frames into one. This module supplies the stream layer:
//!
//! ```text
//! [ len: u32 LE ][ frame: len bytes ]  [ len ][ frame ]  …
//! ```
//!
//! where `frame` is one encoded wire frame.
//! [`FrameBuffer`] is the hardened incremental decoder: feed it byte
//! chunks of *any* shape (1-byte dribble, jumbo coalesce, mid-prefix
//! truncation) and pop whole frames out; a length prefix larger than
//! [`MAX_FRAME_LEN`] is a protocol violation ([`FrameError::Oversized`])
//! rather than an allocation — a peer lying about its payload size must
//! never make the receiver reserve memory it hasn't already seen.

use bytes::{BufMut, Bytes};

use crate::pool::FramePool;

/// Bytes of the length prefix in front of every frame on a stream.
pub const LENGTH_PREFIX_LEN: usize = 4;

/// Largest frame a stream peer may announce (64 MiB — comfortably above
/// any model this workspace trains, far below an allocation attack).
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Fatal framing errors. After one of these the stream is desynchronized
/// and the only safe recovery is to drop the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The length prefix announces a frame larger than [`MAX_FRAME_LEN`]
    /// — a garbage prefix or a hostile peer.
    Oversized {
        /// The announced frame length.
        len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes the length prefix plus the frame into `out`, reusing its
/// capacity (the buffer is cleared first): a stream writer keeps one
/// scratch buffer per connection and pays zero allocations per send at
/// steady state. The [`MAX_FRAME_LEN`] guard is shared with the receive
/// side's oversized-prefix poisoning check, so nothing a healthy encoder
/// emits can ever poison a peer.
///
/// # Panics
///
/// Panics when `frame` exceeds [`MAX_FRAME_LEN`] — an encoder bug, not
/// a runtime condition (the largest legal payload is bounded by the
/// model size).
pub fn prefix_frame_into(frame: &[u8], out: &mut Vec<u8>) {
    assert!(
        frame.len() <= MAX_FRAME_LEN,
        "frame of {} bytes exceeds MAX_FRAME_LEN",
        frame.len()
    );
    out.clear();
    out.reserve(LENGTH_PREFIX_LEN + frame.len());
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
}

/// Incremental length-prefixed frame extractor.
///
/// Feed arbitrary byte chunks with [`extend`](FrameBuffer::extend); pop
/// complete frames with
/// [`next_frame_pooled`](FrameBuffer::next_frame_pooled).
/// Partial prefixes and partial payloads simply stay buffered until the
/// missing bytes arrive, so any split or coalescing the transport
/// applies is invisible to the caller.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so popping a frame is
    /// O(frame) amortized rather than O(everything buffered).
    start: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends a chunk of stream bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame, if one is buffered, into storage
    /// acquired from `pool` — the receive-side half of the
    /// zero-allocation steady state. Consumers hand the frame back via
    /// [`FramePool::recycle`] once they are done with it.
    ///
    /// Returns `Ok(None)` when the buffered bytes end mid-prefix or
    /// mid-frame (truncation is not an error at this layer — more bytes
    /// may still arrive).
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the next length prefix announces
    /// more than [`MAX_FRAME_LEN`] bytes. The buffer is poisoned from
    /// that point on: the same error is returned on every later call,
    /// because a desynchronized stream has no frame boundaries left.
    pub fn next_frame_pooled(&mut self, pool: &FramePool) -> Result<Option<Bytes>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < LENGTH_PREFIX_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            avail[..LENGTH_PREFIX_LEN]
                .try_into()
                .expect("prefix length checked above"),
        ) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len });
        }
        if avail.len() < LENGTH_PREFIX_LEN + len {
            return Ok(None);
        }
        let payload = &avail[LENGTH_PREFIX_LEN..LENGTH_PREFIX_LEN + len];
        let mut frame = pool.acquire(len);
        frame.put_slice(payload);
        let frame = frame.freeze();
        self.start += LENGTH_PREFIX_LEN + len;
        self.compact();
        Ok(Some(frame))
    }

    /// Reclaims the consumed prefix once it dominates the buffer.
    fn compact(&mut self) {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u32) -> Bytes {
        let mut buf = bytes::BytesMut::new();
        crate::message::encode_global_into(round, &[1.5, -2.5, 0.25], &mut buf);
        buf.freeze()
    }

    fn prefix_frame(frame: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        prefix_frame_into(frame, &mut out);
        out
    }

    /// Bytes buffered but not yet returned as a frame.
    fn pending(fb: &FrameBuffer) -> usize {
        fb.buf.len() - fb.start
    }

    #[test]
    fn whole_frame_roundtrips() {
        let frame = sample(3);
        let mut fb = FrameBuffer::new();
        let pool = FramePool::new();
        fb.extend(&prefix_frame(&frame));
        assert_eq!(fb.next_frame_pooled(&pool).unwrap().unwrap(), frame);
        assert_eq!(fb.next_frame_pooled(&pool).unwrap(), None);
        assert_eq!(pending(&fb), 0);
    }

    #[test]
    fn one_byte_dribble_roundtrips() {
        let frame = sample(9);
        let wire = prefix_frame(&frame);
        let mut fb = FrameBuffer::new();
        let pool = FramePool::new();
        for (i, &b) in wire.iter().enumerate() {
            fb.extend(&[b]);
            let got = fb.next_frame_pooled(&pool).unwrap();
            if i + 1 < wire.len() {
                assert_eq!(got, None, "no frame before byte {}", wire.len());
            } else {
                assert_eq!(got.unwrap(), frame);
            }
        }
    }

    #[test]
    fn coalesced_frames_split_apart() {
        let frames: Vec<Bytes> = (0..4).map(sample).collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&prefix_frame(f));
        }
        let mut fb = FrameBuffer::new();
        let pool = FramePool::new();
        fb.extend(&wire);
        for f in &frames {
            assert_eq!(&fb.next_frame_pooled(&pool).unwrap().unwrap(), f);
        }
        assert_eq!(fb.next_frame_pooled(&pool).unwrap(), None);
    }

    #[test]
    fn truncated_payload_waits_for_more() {
        let frame = sample(1);
        let wire = prefix_frame(&frame);
        let mut fb = FrameBuffer::new();
        let pool = FramePool::new();
        fb.extend(&wire[..wire.len() - 1]);
        assert_eq!(fb.next_frame_pooled(&pool).unwrap(), None);
        fb.extend(&wire[wire.len() - 1..]);
        assert_eq!(fb.next_frame_pooled(&pool).unwrap().unwrap(), frame);
    }

    #[test]
    fn oversized_prefix_is_fatal_without_allocating() {
        let mut fb = FrameBuffer::new();
        let pool = FramePool::new();
        fb.extend(&u32::MAX.to_le_bytes());
        let err = fb.next_frame_pooled(&pool).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                len: u32::MAX as usize
            }
        );
        // Poisoned: the same violation keeps being reported.
        assert!(fb.next_frame_pooled(&pool).is_err());
        assert!(err.to_string().contains("bound"));
    }

    #[test]
    fn empty_frame_is_legal() {
        let mut fb = FrameBuffer::new();
        let pool = FramePool::new();
        fb.extend(&prefix_frame(&[]));
        assert_eq!(fb.next_frame_pooled(&pool).unwrap().unwrap().len(), 0);
    }

    #[test]
    #[should_panic(expected = "MAX_FRAME_LEN")]
    fn prefixing_an_oversized_frame_panics() {
        let _ = prefix_frame(&vec![0u8; MAX_FRAME_LEN + 1]);
    }

    #[test]
    fn prefix_frame_into_reuses_scratch() {
        let frame = sample(4);
        let mut scratch = Vec::with_capacity(LENGTH_PREFIX_LEN + frame.len());
        let ptr = scratch.as_ptr();
        for _ in 0..8 {
            prefix_frame_into(&frame, &mut scratch);
            assert_eq!(
                scratch[..LENGTH_PREFIX_LEN],
                (frame.len() as u32).to_le_bytes()
            );
            assert_eq!(scratch[LENGTH_PREFIX_LEN..], frame[..]);
            assert!(std::ptr::eq(ptr, scratch.as_ptr()), "no reallocation");
        }
    }

    #[test]
    fn pooled_frames_recycle_storage() {
        let frame = sample(5);
        let pool = FramePool::new();
        let mut fb = FrameBuffer::new();
        for _ in 0..16 {
            fb.extend(&prefix_frame(&frame));
            let got = fb.next_frame_pooled(&pool).unwrap().unwrap();
            assert_eq!(got, frame);
            pool.recycle(got);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 1, "one allocation, then steady-state reuse");
        assert_eq!(s.hits, 15);
    }

    #[test]
    fn compaction_keeps_pending_consistent() {
        let frame = sample(2);
        let wire = prefix_frame(&frame);
        let mut fb = FrameBuffer::new();
        let pool = FramePool::new();
        for _ in 0..64 {
            fb.extend(&wire);
            assert_eq!(fb.next_frame_pooled(&pool).unwrap().unwrap(), frame);
            assert_eq!(pending(&fb), 0);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A stream of valid frames and oversized prefixes, cut into
        /// chunks at arbitrary boundaries and popped through the product
        /// path (`next_frame_pooled`, as `StreamTransport::recv_frame`
        /// does): exactly the valid frames before the first oversized
        /// prefix come out, then the poison is sticky.
        #[test]
        fn prop_frame_buffer_is_total_on_chunked_scripts(
            script in proptest::collection::vec((any::<bool>(), 0usize..=512, any::<u8>()), 1..9),
            cuts in proptest::collection::vec(prop_oneof![Just(1usize), 1usize..700], 1..24),
        ) {
            let mut stream = Vec::new();
            let mut expected = Vec::new();
            let mut bad_len = None;
            for &(valid, len, fill) in &script {
                if valid {
                    let payload: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    stream.extend_from_slice(&prefix_frame(&payload));
                    if bad_len.is_none() {
                        expected.push(payload);
                    }
                } else {
                    // Both ends of the illegal range.
                    let announced = if fill % 2 == 0 {
                        MAX_FRAME_LEN + 1 + len
                    } else {
                        u32::MAX as usize - len
                    };
                    stream.extend_from_slice(&(announced as u32).to_le_bytes());
                    bad_len.get_or_insert(announced);
                }
            }

            let pool = FramePool::new();
            let mut fb = FrameBuffer::new();
            let mut out: Vec<Bytes> = Vec::new();
            let (mut fed, mut returned) = (0usize, 0usize);
            let mut poison = None;
            let mut rest = &stream[..];
            let mut cuts = cuts.iter().cycle();
            while !rest.is_empty() {
                let cut = *cuts.next().expect("cuts is non-empty");
                let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                rest = tail;
                fb.extend(chunk);
                fed += chunk.len();
                loop {
                    let buffered = pending(&fb);
                    let popped = fb.next_frame_pooled(&pool);
                    prop_assert!(pending(&fb) <= fed - returned);
                    if let Some(first) = &poison {
                        prop_assert_eq!(&popped, first, "poison must be sticky");
                        break;
                    }
                    match popped {
                        Ok(Some(frame)) => {
                            // The pool is asked for `len` bytes only once
                            // the whole frame is already buffered.
                            prop_assert!(LENGTH_PREFIX_LEN + frame.len() <= buffered);
                            returned += LENGTH_PREFIX_LEN + frame.len();
                            out.push(frame);
                        }
                        Ok(None) => break,
                        Err(_) => {
                            poison = Some(popped);
                            break;
                        }
                    }
                }
            }
            prop_assert_eq!(out.len(), expected.len());
            for (got, want) in out.iter().zip(&expected) {
                prop_assert_eq!(&got[..], &want[..]);
            }
            prop_assert_eq!(poison, bad_len.map(|len| Err(FrameError::Oversized { len })));
            if bad_len.is_none() {
                prop_assert_eq!(pending(&fb), 0);
            }
        }
    }
}
