//! Deterministic fan-out of per-node work across OS threads.
//!
//! Every federated trainer in this crate — and the systems simulator in
//! `fml-sim` — has the same hot loop shape: an embarrassingly parallel
//! map over the participating nodes (local updates), followed by a
//! fixed-order aggregation at the platform. This module centralises the
//! fan-out so all of them share one implementation with one contract:
//!
//! * results come back **in item order**, regardless of thread count or
//!   scheduling, so a seeded run is bitwise identical at `threads = 1`
//!   and `threads = 64`;
//! * the per-item closure must not touch shared mutable state (enforced
//!   by `Fn + Sync`); RNG draws that feed the items must happen *before*
//!   the fan-out;
//! * `threads` is clamped to the item count, and a single-thread (or
//!   single-item) call runs inline on the caller's stack — no spawn
//!   overhead for the degenerate cases.
//!
//! Built on [`std::thread::scope`], so borrowed inputs (model, tasks,
//! start parameters) flow into workers without `Arc` or cloning.

use std::num::NonZeroUsize;

/// Maps `f` over `items` using up to `threads` OS threads, returning the
/// results in item order, with per-worker state: each worker builds one
/// `S` with `init` and hands it to `f` for every item of its chunk, so
/// scratch buffers are paid for once per worker, not once per item.
/// `f` receives `(state, index, &item)` — the index is the position in
/// `items`, which callers use to look up per-node state prepared before
/// the fan-out. The state must not carry results from one item to the next — the
/// output has to stay independent of how items fall into chunks.
///
/// Work is split into `ceil(len / workers)` contiguous chunks, one
/// worker thread per chunk; each worker produces its chunk's results in
/// order and the chunks are concatenated in order, so the output is
/// independent of scheduling. A worker panic propagates to the caller.
pub fn map_ordered_with<T, S, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let run = |base: usize, chunk_items: &[T]| {
        let mut state = init();
        chunk_items
            .iter()
            .enumerate()
            .map(|(j, t)| f(&mut state, base + j, t))
            .collect::<Vec<R>>()
    };
    let workers = threads.min(items.len()).max(1);
    if workers == 1 {
        return run(0, items);
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, chunk_items)| {
                let run = &run;
                scope.spawn(move || run(c * chunk, chunk_items))
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("parallel worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// The default worker count for a federation of `nodes` nodes: the
/// host's available parallelism, capped at the node count (extra threads
/// would only idle) and always at least 1.
pub fn default_threads(nodes: usize) -> usize {
    let host = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    host.min(nodes.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The stateless fan-out.
    fn map_ordered<T: Sync, R: Send>(
        threads: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        map_ordered_with(threads, items, || (), |(), i, t| f(i, t))
    }

    #[test]
    fn preserves_item_order_at_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let reference: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = map_ordered(threads, &items, |_, &x| x * x);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn passes_global_item_index() {
        let items = vec!["a"; 23];
        let got = map_ordered(4, &items, |i, _| i);
        assert_eq!(got, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_ordered(4, &empty, |_, &x| x).is_empty());
        assert_eq!(map_ordered(4, &[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn actually_fans_out_across_threads() {
        // With more items than threads every worker must run; count the
        // distinct workers by spawning with threads = 4 over 16 items and
        // recording a side-effect per call (Sync closure, atomic only).
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let got = map_ordered(4, &items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 16);
        assert_eq!(got, items);
    }

    #[test]
    fn per_worker_state_is_built_once_per_chunk() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        for (threads, expect_inits) in [(1, 1), (3, 3), (64, 10)] {
            inits.store(0, Ordering::Relaxed);
            let got = map_ordered_with(
                threads,
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |seen, i, &x| {
                    *seen += 1;
                    (i, x, *seen)
                },
            );
            assert_eq!(
                inits.load(Ordering::Relaxed),
                expect_inits,
                "threads={threads}"
            );
            let chunk = items.len().div_ceil(expect_inits);
            for (i, &(idx, x, seen)) in got.iter().enumerate() {
                assert_eq!((idx, x, seen), (i, i, i % chunk + 1), "threads={threads}");
            }
        }
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        assert_eq!(default_threads(0), 1);
        assert_eq!(default_threads(1), 1);
        let many = default_threads(1 << 20);
        assert!(many >= 1);
        assert!(many <= 1 << 20);
        assert!(default_threads(2) <= 2);
    }
}
