//! Pooled frame buffers: recycle encode/receive storage across rounds.
//!
//! Every hop of the platform⇄node loop used to allocate — one
//! `BytesMut` per `Message::encode`, one `Bytes` copy per
//! `FrameBuffer::next_frame`. At fleet scale (10k nodes × rounds ×
//! 2 hops) that heap traffic dominates the runtime's cost.
//! [`FramePool`] turns both into buffer reuse: a sharded free-list of
//! [`BytesMut`] that encode paths [`acquire`](FramePool::acquire) from
//! and receive paths return to via [`recycle`](FramePool::recycle),
//! which reclaims a frozen [`Bytes`] when it holds the last handle (so
//! even the single-encode broadcast frame comes back once every link
//! has dropped its clone).
//!
//! The pool is best-effort and lock-light: each shard is a small
//! `Mutex<Vec<BytesMut>>`, a handle picks its shard once (round-robin
//! at clone/creation), and a full shard simply drops the returned
//! buffer. Stats (hits, misses, returns, high-water mark) are atomic
//! counters, cheap enough to leave on in production and precise enough
//! for the `perf/` series to report the steady-state hit rate and
//! misses per round (`sim.pool.*`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bytes::{Bytes, BytesMut};

/// Shards in a pool: enough that 16 worker threads rarely collide on a
/// shard mutex, few enough that idle pools stay tiny.
const SHARDS: usize = 8;

/// Buffers retained per shard. Beyond this, returned buffers are simply
/// dropped — the pool bounds memory, it does not grow without limit.
const PER_SHARD_CAP: usize = 64;

/// Snapshot of a pool's counters (see [`FramePool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquisitions served from the free-list (no allocation).
    pub hits: usize,
    /// Acquisitions that had to allocate a fresh buffer.
    pub misses: usize,
    /// Buffers returned to the free-list.
    pub returns: usize,
    /// Most buffers ever resident in the free-lists at once.
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
    shards: [Mutex<Vec<BytesMut>>; SHARDS],
    hits: AtomicUsize,
    misses: AtomicUsize,
    returns: AtomicUsize,
    resident: AtomicUsize,
    high_water: AtomicUsize,
}

/// A sharded free-list of [`BytesMut`] frame buffers.
///
/// Cloning is cheap (`Arc`); clones share the free-lists and counters
/// but start on the next shard round-robin, so per-thread handles
/// mostly stay off each other's mutex. All methods are best-effort:
/// an empty shard allocates, a full shard drops — the pool never
/// blocks beyond one uncontended mutex lock.
#[derive(Debug, Clone)]
pub struct FramePool {
    inner: Arc<PoolInner>,
    shard: usize,
}

impl Default for FramePool {
    fn default() -> Self {
        FramePool::new()
    }
}

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        FramePool {
            inner: Arc::new(PoolInner::default()),
            shard: 0,
        }
    }

    /// The process-wide shared pool. Components that are not handed a
    /// pool explicitly (transports, the stream hub) default to this
    /// one, so buffers released by one subsystem serve another.
    pub fn global() -> &'static FramePool {
        static GLOBAL: OnceLock<FramePool> = OnceLock::new();
        GLOBAL.get_or_init(FramePool::new)
    }

    /// A handle on the same pool pinned to the next shard (round-robin)
    /// — give one to each worker thread to keep shard mutexes
    /// uncontended.
    pub fn handle(&self) -> FramePool {
        FramePool {
            inner: Arc::clone(&self.inner),
            shard: (self.shard + 1) % SHARDS,
        }
    }

    /// Takes a cleared buffer with at least `capacity` bytes reserved,
    /// reusing pooled storage when available.
    pub fn acquire(&self, capacity: usize) -> BytesMut {
        let pooled = self.inner.shards[self.shard]
            .lock()
            .expect("frame pool shard poisoned")
            .pop();
        match pooled {
            Some(mut buf) => {
                self.inner.resident.fetch_sub(1, Ordering::Relaxed);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                BytesMut::with_capacity(capacity)
            }
        }
    }

    /// Returns a mutable buffer to the free-list (dropped if the shard
    /// is full).
    pub fn release(&self, buf: BytesMut) {
        let mut shard = self.inner.shards[self.shard]
            .lock()
            .expect("frame pool shard poisoned");
        if shard.len() >= PER_SHARD_CAP {
            return;
        }
        shard.push(buf);
        // Counted before the shard unlocks: an `acquire` that pops this
        // buffer must find it in `resident`, or its decrement wraps.
        let resident = self.inner.resident.fetch_add(1, Ordering::Relaxed) + 1;
        drop(shard);
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
    fn handles_share_state_but_spread_shards() {
        let pool = FramePool::new();
        let h1 = pool.handle();
        let h2 = h1.handle();
        assert_ne!(pool.shard, h1.shard);
        assert_ne!(h1.shard, h2.shard);
        h1.release(BytesMut::with_capacity(32));
        // Different shard, same pool: stats are shared even though the
        // buffer itself sits in h1's shard.
        assert_eq!(pool.stats().returns, 1);
        assert_eq!(h2.stats().returns, 1);
    }

    #[test]
    fn full_shard_drops_excess_buffers() {
        let pool = FramePool::new();
        for _ in 0..(PER_SHARD_CAP + 10) {
            pool.release(BytesMut::with_capacity(8));
        }
        assert_eq!(pool.stats().returns, PER_SHARD_CAP);
        assert_eq!(pool.stats().high_water, PER_SHARD_CAP);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = FramePool::global();
        let b = FramePool::global();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }
}
