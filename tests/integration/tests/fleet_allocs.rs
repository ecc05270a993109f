//! A run over the in-process fleet costs the same allocations at any
//! fleet size.
//!
//! This binary holds one test and a process-wide counting
//! `#[global_allocator]`, so the worker threads and the run's set-up are
//! counted too, not only the platform thread. Nothing a run keeps per
//! node may be allocated per node: the updates the platform decodes
//! share one arena, the uplink is a bounded channel allocated once, and
//! the health report's labels are static.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

use fml_core::{FedMl, FedMlConfig};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::{Runtime, RuntimeConfig};
use rand::SeedableRng;

/// Allocation requests made by every thread of the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus the process's request count.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic
// that owns no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Rounds of each measured run.
const ROUNDS: usize = 6;
/// What a 320-node run may allocate beyond a 40-node one: a buffer
/// that grows by doubling may take a step or two more on the larger
/// fleet. One allocation a node would be 280 more.
const SLACK: u64 = 4;

/// Allocations of one barrier FedML run of [`ROUNDS`] rounds on two
/// workers over `nodes` nodes, set-up and shutdown included; the data,
/// model and trainer are built before counting starts.
fn run_allocs(nodes: usize) -> u64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let fed = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(nodes)
        .with_dim(6)
        .with_classes(3)
        .generate(&mut rng);
    let tasks = fml_core::SourceTask::from_nodes(fed.nodes(), 5, &mut rng);
    let model = SoftmaxRegression::new(6, 3).with_l2(1e-3);
    let theta = model.init_params(&mut rng);
    let fedml = FedMl::new(
        FedMlConfig::new(0.05, 0.04)
            .with_rounds(ROUNDS)
            .with_local_steps(1),
    );
    let runtime = Runtime::new(RuntimeConfig::barrier(7).with_threads(2));
    let before = ALLOCS.load(Relaxed);
    let out = runtime.run(&fedml, &model, &tasks, &theta);
    let allocs = ALLOCS.load(Relaxed) - before;
    let report = &out.report;
    assert_eq!(report.undelivered, 0, "{nodes} nodes");
    assert_eq!(report.degraded_rounds, 0, "{nodes} nodes");
    assert!(
        report
            .per_node
            .iter()
            .all(|io| io.frames_received == ROUNDS as u64 && io.frames_sent == ROUNDS as u64),
        "{nodes} nodes: every node steps every round"
    );
    allocs
}

/// A run at 320 nodes allocates at most [`SLACK`] more than one at 40:
/// nothing the platform, the workers or the report keep is allocated
/// once a node.
#[test]
fn a_fleet_run_allocates_the_same_at_any_fleet_size() {
    // The process-wide frame pool keeps what the largest fleet needs.
    run_allocs(320);
    let (small, large) = (run_allocs(40), run_allocs(320));
    assert!(
        large <= small + SLACK,
        "allocations per run of {ROUNDS} rounds: {small} at 40 nodes, {large} at 320"
    );
}
