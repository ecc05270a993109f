//! Pooled frame buffers: recycle encode/receive storage across rounds.
//!
//! Every hop of the platform⇄node loop used to allocate — one
//! `BytesMut` per encode, one `Bytes` copy per
//! `FrameBuffer::next_frame`. At fleet scale (10k nodes × rounds ×
//! 2 hops) that heap traffic dominates the runtime's cost.
//! [`FramePool`] turns both into buffer reuse: one free-list of
//! [`BytesMut`] that encode paths [`acquire`](FramePool::acquire) from
//! and receive paths return to via [`recycle`](FramePool::recycle),
//! which reclaims a frozen [`Bytes`] when it holds the last handle (so
//! even the single-encode broadcast frame comes back once every link
//! has dropped its clone).
//!
//! The pool is best-effort: the list is one `Mutex<Vec<BytesMut>>`
//! every handle shares, and an empty list allocates. It never holds
//! more buffers than it allocated (its misses), so it sizes itself to
//! the most frames ever live at once — one broadcast plus one reply a
//! node on a fleet — with no constant to tune, and a buffer born
//! outside the pool is dropped once the list is at that bound. A run
//! [`warm`](FramePool::warm)s it to that size before its first round,
//! so its misses do not depend on how scheduling lets frames pile up. Stats
//! (hits, misses, returns, high-water mark) are atomic counters, cheap
//! enough to leave on in production and precise enough for the `perf/`
//! series to report the steady-state hit rate and misses per round
//! (`sim.pool.*`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bytes::{Bytes, BytesMut};

use crate::message::CURVE_TERMS_LEN;

/// Snapshot of a pool's counters (see [`FramePool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquisitions served from the free-list (no allocation).
    pub hits: usize,
    /// Acquisitions that had to allocate a fresh buffer.
    pub misses: usize,
    /// Buffers returned to the free-list.
    pub returns: usize,
    /// Most buffers ever resident in the free-list at once: never more
    /// than `misses` (or one, before the first miss).
    pub high_water: usize,
}

impl PoolStats {
    /// Fraction of acquisitions served without allocating, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct PoolInner {
    buffers: Mutex<Vec<BytesMut>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    returns: AtomicUsize,
    high_water: AtomicUsize,
}

/// A free-list of [`BytesMut`] frame buffers.
///
/// Cloning is cheap (`Arc`); clones share the list and the counters.
/// All methods are best-effort: an empty list allocates, a list
/// holding as many buffers as the pool allocated drops — the pool never
/// blocks beyond one mutex lock.
#[derive(Debug, Clone, Default)]
pub struct FramePool {
    inner: Arc<PoolInner>,
}

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// The process-wide shared pool. Components that are not handed a
    /// pool explicitly (transports, the stream hub) default to this
    /// one, so buffers released by one subsystem serve another.
    pub fn global() -> &'static FramePool {
        static GLOBAL: OnceLock<FramePool> = OnceLock::new();
        GLOBAL.get_or_init(FramePool::new)
    }

    /// Another handle on the same pool: same list, same counters.
    pub fn handle(&self) -> FramePool {
        self.clone()
    }

    /// Takes a cleared buffer with at least `capacity` bytes reserved,
    /// and room beyond them for a
    /// [curve-terms trailer](crate::message::put_curve_terms), reusing
    /// pooled storage when available. So one born for any frame of a
    /// model's size — a broadcast, a received reply, an adaptation
    /// response — can later carry that model's update with its trailer
    /// without a reallocation.
    pub fn acquire(&self, capacity: usize) -> BytesMut {
        let mut buffers = self.inner.buffers.lock().expect("frame pool poisoned");
        let pooled = buffers.pop();
        drop(buffers);
        match pooled {
            Some(mut buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf.reserve(capacity + CURVE_TERMS_LEN);
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                BytesMut::with_capacity(capacity + CURVE_TERMS_LEN)
            }
        }
    }

    /// Makes room for `count` frames of up to `capacity` bytes to be live
    /// at once without an allocation: takes that many buffers, freezes
    /// each — so each carries the refcount block its next freeze refills
    /// — then recycles them. A run calls it before its first round, so
    /// the pool reaches the fleet's size there instead of whenever
    /// scheduling first lets that many frames pile up.
    pub fn warm(&self, count: usize, capacity: usize) {
        let held: Vec<Bytes> = (0..count)
            .map(|_| self.acquire(capacity).freeze())
            .collect();
        for frame in held {
            self.recycle(frame);
        }
    }

    /// Returns a mutable buffer to the free-list, unless the list
    /// already holds as many buffers as the pool has allocated (at least
    /// one): then `buf` was born elsewhere and is dropped.
    pub fn release(&self, buf: BytesMut) {
        let mut buffers = self.inner.buffers.lock().expect("frame pool poisoned");
        if buffers.len() >= self.inner.misses.load(Ordering::Relaxed).max(1) {
            return;
        }
        buffers.push(buf);
        let resident = buffers.len();
        drop(buffers);
        self.inner.returns.fetch_add(1, Ordering::Relaxed);
        self.inner.high_water.fetch_max(resident, Ordering::Relaxed);
    }

    /// Reclaims a frozen frame's storage if `frame` is the last handle
    /// on it; shared or oversubscribed frames are simply dropped. This
    /// is how broadcast frames come home: the platform encodes once,
    /// every link clones the refcount, and whichever side drops the
    /// final handle recycles the allocation for the next round.
    pub fn recycle(&self, frame: Bytes) {
        if let Ok(buf) = frame.try_into_mut() {
            self.release(buf);
        }
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            returns: self.inner.returns.load(Ordering::Relaxed),
            high_water: self.inner.high_water.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_reuses_storage() {
        let pool = FramePool::new();
        let mut buf = pool.acquire(256);
        use bytes::BufMut;
        buf.put_slice(&[7; 100]);
        pool.release(buf);
        let again = pool.acquire(64);
        assert!(again.is_empty(), "acquired buffers are cleared");
        assert!(again.capacity() >= 256, "capacity survives the pool");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
        assert_eq!(s.high_water, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A warmed pool serves that many live frames without a miss, each
    /// with room for a frame of the warmed size plus a curve-terms
    /// trailer.
    #[test]
    fn a_warmed_pool_serves_its_count_without_a_miss() {
        let pool = FramePool::new();
        pool.warm(3, 100);
        let live: Vec<BytesMut> = (0..3).map(|_| pool.acquire(100)).collect();
        assert!(live.iter().all(|b| b.capacity() >= 100 + CURVE_TERMS_LEN));
        let s = pool.stats();
        assert_eq!((s.misses, s.hits, s.returns), (3, 3, 3));
        for buf in live {
            pool.release(buf);
        }
        pool.warm(3, 100);
        // Warming a warm pool allocates nothing.
        assert_eq!(pool.stats().misses, 3);
    }

    #[test]
    fn recycle_reclaims_unique_frames_only() {
        let pool = FramePool::new();
        let frame = pool.acquire(64).freeze();
        let clone = frame.clone();
        pool.recycle(frame); // still shared → dropped, not pooled
        assert_eq!(pool.stats().returns, 0);
        pool.recycle(clone); // last handle → reclaimed
        assert_eq!(pool.stats().returns, 1);
        assert_eq!(pool.stats().hits + pool.stats().misses, 1);
        let reused = pool.acquire(1);
        assert!(reused.capacity() >= 64);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn steady_state_round_trips_are_hits() {
        // The contract `sim.pool.hit_rate` reports on: after warm-up, every
        // encode acquires from the pool and every receive returns to it,
        // so the allocator is never touched.
        let pool = FramePool::new();
        let warm = pool.acquire(1024);
        pool.release(warm);
        for _ in 0..100 {
            let buf = pool.acquire(1024);
            pool.recycle(buf.freeze());
        }
        let s = pool.stats();
        assert_eq!(s.misses, 1, "only the warm-up allocation misses");
        assert_eq!(s.hits, 100);
        assert_eq!(s.high_water, 1);
    }

    #[test]
    fn handles_share_one_list() {
        // What one handle releases, any other handle — or the pool it
        // came from — acquires.
        let pool = FramePool::new();
        let h1 = pool.handle();
        let h2 = h1.handle();
        h1.release(BytesMut::with_capacity(32));
        assert_eq!(pool.stats().returns, 1);
        assert!(h2.acquire(1).capacity() >= 32);
        assert_eq!(pool.stats().hits, 1);
        h2.release(BytesMut::with_capacity(48));
        assert!(pool.acquire(1).capacity() >= 48);
        assert_eq!((h1.stats().hits, h1.stats().misses), (2, 0));
    }

    #[test]
    fn pool_holds_no_more_than_it_allocated() {
        // 300 frames live at once — more than any fixed cap the pool
        // once had — all come back, and a foreign buffer past them is
        // dropped.
        let pool = FramePool::new();
        let held: Vec<_> = (0..300).map(|_| pool.acquire(8)).collect();
        assert_eq!(pool.stats().misses, 300);
        for (i, buf) in held.into_iter().enumerate() {
            pool.handle().release(buf);
            assert_eq!(pool.stats().returns, i + 1);
        }
        pool.release(BytesMut::with_capacity(8));
        let s = pool.stats();
        assert_eq!((s.returns, s.high_water), (300, 300), "{s:?}");
    }

    #[test]
    fn resident_count_survives_two_threads() {
        // `high_water` is the list's own length, read under its lock: a
        // release racing an acquire can neither wrap it nor push it
        // past the buffers the pool allocated.
        let pool = FramePool::new();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (pool, start) = (pool.handle(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..2_000 {
                        let a = pool.acquire(16);
                        if i % 3 == 0 {
                            pool.release(BytesMut::with_capacity(16));
                        }
                        pool.release(a);
                    }
                });
            }
        });
        let s = pool.stats();
        assert!((1..=s.misses).contains(&s.high_water), "{s:?}");
        assert!(s.hits <= s.returns, "every hit was once returned: {s:?}");
        assert_eq!(s.hits + s.misses, 4_000);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = FramePool::global();
        let b = FramePool::global();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }
}
