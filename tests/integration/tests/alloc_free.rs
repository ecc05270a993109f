//! The steady-state training step touches no allocator.
//!
//! This binary installs a counting `#[global_allocator]` whose counters
//! are per thread — the harness runs every test on a thread of its own,
//! so neither it nor a sibling test can pollute a measurement. Besides
//! the call count it records the largest single request, which is what
//! the framing check at the bottom needs.
//!
//! What is held: after one warm-up call a node, `LocalStepper::local_update_into`
//! performs **zero** allocations for every wire-capable algorithm on both
//! workspace-backed model families; the curve evaluation costs the same
//! number of allocations over 64 tasks as over 8 (and none on a held
//! scratch); and the allocating `local_update` wrapper returns the same
//! bits as the kernel it wraps. The second-order softmax step keeps its
//! class probabilities on the workspace's tape: a support set larger than
//! any before grows it once, and the curve keeps none.
//!
//! The frame path holds the same line: once warm, a pooled frame's
//! acquire → encode → freeze → clone → recycle cycle allocates nothing,
//! however many frames are live at once; a node's round over a link
//! whose far end recycles each reply the moment it arrives allocates
//! nothing either; and a platform round, async or barrier, costs the
//! same number of allocations at 320 nodes as at 40.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Duration;

use bytes::Bytes;
use fml_core::{
    FedAvg, FedAvgConfig, FedMl, FedMlConfig, FedProx, FedProxConfig, LocalStepper,
    MetaGradientMode, Reptile, ReptileConfig, Scratch, SourceTask,
};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Activation, MlpBuilder, Model, SoftmaxRegression};
use fml_runtime::{
    AsyncPolicy, Runtime, RuntimeConfig, RuntimeReport, Transport, TransportError, VirtualClock,
};
use fml_sim::framing::{FrameBuffer, FrameError, MAX_FRAME_LEN};
use fml_sim::message::{encode_global_into, encode_update_into, encoded_frame_len};
use fml_sim::FramePool;
use rand::SeedableRng;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator plus this thread's request count and largest
/// request size.
struct Counting;

fn note(size: usize) {
    // `try_with`: a request made while the thread's locals are being
    // torn down is simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are `const`-
// initialised `Cell`s that own no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Held by the tests that run frames through the process-wide
/// [`FramePool::global`]: one of them popping the buffers another
/// recycled would show up as the other's allocations.
static GLOBAL_POOL: Mutex<()> = Mutex::new(());

/// `(allocation requests, largest request in bytes)` this thread made
/// while `f` ran.
fn allocs_during(f: impl FnOnce()) -> (u64, usize) {
    LARGEST.with(|c| c.set(0));
    let before = ALLOCS.with(Cell::get);
    f();
    (ALLOCS.with(Cell::get) - before, LARGEST.with(Cell::get))
}

const DIM: usize = 6;
const CLASSES: usize = 3;
const T0: usize = 3;

fn tasks(nodes: usize) -> Vec<SourceTask> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let fed = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(nodes)
        .with_dim(DIM)
        .with_classes(CLASSES)
        .generate(&mut rng);
    SourceTask::from_nodes_deterministic(fed.nodes(), 4)
}

/// `task` with its query set appended to its support set: a support
/// batch larger than the synthetic split's `k = 4`.
fn grown(task: &SourceTask) -> SourceTask {
    let mut task = task.clone();
    task.split.train = task.split.train.concat(&task.split.test);
    task
}

fn models() -> Vec<Box<dyn Model>> {
    vec![
        Box::new(SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3)),
        Box::new(
            MlpBuilder::new(DIM, CLASSES)
                .hidden(&[8])
                .activation(Activation::Tanh)
                .build()
                .unwrap(),
        ),
    ]
}

fn steppers() -> Vec<(&'static str, Box<dyn LocalStepper>)> {
    let fedml = |mode| FedMl::new(FedMlConfig::new(0.05, 0.04).with_mode(mode));
    vec![
        (
            "FedML",
            Box::new(fedml(MetaGradientMode::FullSecondOrder)) as Box<dyn LocalStepper>,
        ),
        ("FOMAML", Box::new(fedml(MetaGradientMode::FirstOrder))),
        ("FedAvg", Box::new(FedAvg::new(FedAvgConfig::new(0.05)))),
        (
            "FedProx",
            Box::new(FedProx::new(FedProxConfig::new(0.05, 0.1))),
        ),
        (
            "Reptile",
            Box::new(Reptile::new(ReptileConfig::new(0.05, 0.5))),
        ),
    ]
}

#[test]
fn steady_state_local_update_allocates_nothing() {
    let tasks = tasks(4);
    for model in models() {
        let model = model.as_ref();
        let theta = model.init_params(&mut rand::rngs::StdRng::seed_from_u64(3));
        for (name, stepper) in steppers() {
            let at = format!("{name} on {model:?}");
            let mut scratch = Scratch::for_model(model);
            let mut out = Vec::new();
            // Warm-up, one call a node: sizes `out` and grows the
            // baselines' concatenated batch to the largest node (the
            // synthetic federation's node sizes differ).
            for task in &tasks {
                stepper.local_update_into(model, task, &theta, T0, &mut scratch, &mut out);
            }
            for task in &tasks {
                let (allocs, _) = allocs_during(|| {
                    stepper.local_update_into(model, task, &theta, T0, &mut scratch, &mut out);
                });
                assert_eq!(allocs, 0, "{at}, node {}", task.id);
                // The allocating wrapper is the same arithmetic.
                let wrapped = stepper.local_update(model, task, &theta, T0);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&wrapped), bits(&out), "{at}, node {}", task.id);
            }
        }
    }

    // FedML second order on softmax, warmed up on the `k = 4` supports,
    // then on supports that grow: the first grown step resizes the tape
    // (one request, however many samples it adds), and from then on no
    // step allocates, the small supports included.
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
    let theta = model.init_params(&mut rand::rngs::StdRng::seed_from_u64(3));
    let (_, fedml) = &steppers()[0];
    let mut scratch = Scratch::for_model(&model);
    let mut out = Vec::new();
    for task in &tasks {
        fedml.local_update_into(&model, task, &theta, T0, &mut scratch, &mut out);
    }
    let grown: Vec<SourceTask> = tasks.iter().map(grown).collect();
    let largest = grown.iter().max_by_key(|t| t.split.train.len()).unwrap();
    let (allocs, _) = allocs_during(|| {
        fedml.local_update_into(&model, largest, &theta, T0, &mut scratch, &mut out);
    });
    assert_eq!(allocs, 1, "the tape grows once, to the largest support");
    for task in tasks.iter().chain(&grown) {
        let (allocs, _) = allocs_during(|| {
            fedml.local_update_into(&model, task, &theta, T0, &mut scratch, &mut out);
        });
        assert_eq!(
            allocs, 0,
            "FedML on softmax, grown supports, node {}",
            task.id
        );
    }
}

#[test]
fn curve_evaluation_is_constant_in_task_count() {
    let tasks = tasks(64);
    for model in models() {
        let model = model.as_ref();
        let theta = model.init_params(&mut rand::rngs::StdRng::seed_from_u64(5));
        for (name, stepper) in steppers() {
            let at = format!("{name} on {model:?}");
            let eval = |n: usize| {
                let mut losses = (0.0, 0.0);
                let (allocs, _) =
                    allocs_during(|| losses = stepper.eval_losses(model, &tasks[..n], &theta));
                assert!(losses.0.is_finite() && losses.1.is_finite(), "{at}");
                allocs
            };
            assert_eq!(eval(8), eval(64), "{at}: O(1) in tasks, not O(tasks)");

            // On a held scratch — how the platform, the lockstep loop and
            // the simulator evaluate — there is nothing left to allocate.
            let mut scratch = Scratch::for_model(model);
            let mut held = (0.0, 0.0);
            let (allocs, _) = allocs_during(|| {
                held = stepper.eval_losses_with(model, &tasks, &theta, &mut scratch);
            });
            assert_eq!(allocs, 0, "{at}");
            assert_eq!(held, stepper.eval_losses(model, &tasks, &theta), "{at}");
            // The curve's support loss is `weighted_train_loss`'s, bit for
            // bit, though it comes from the inner step's gradient pass.
            let train = fml_core::weighted_train_loss(model, &tasks, &theta);
            assert_eq!(held.1.to_bits(), train.to_bits(), "{at}");
        }
    }

    // The curve keeps no tape: on a scratch that has taken second-order
    // softmax steps on the `k = 4` supports, evaluating supports that
    // grow allocates nothing.
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
    let theta = model.init_params(&mut rand::rngs::StdRng::seed_from_u64(5));
    let (_, fedml) = &steppers()[0];
    let mut scratch = Scratch::for_model(&model);
    let mut out = Vec::new();
    fedml.local_update_into(&model, &tasks[0], &theta, T0, &mut scratch, &mut out);
    let grown: Vec<SourceTask> = tasks.iter().map(grown).collect();
    let mut held = (0.0, 0.0);
    let (allocs, _) = allocs_during(|| {
        held = fedml.eval_losses_with(&model, &grown, &theta, &mut scratch);
    });
    assert_eq!(allocs, 0, "FedML curve on softmax, grown supports");
    assert_eq!(held, fedml.eval_losses(&model, &grown, &theta));
}

/// ROADMAP aim 3(b), second half: a peer lying about its payload size
/// never makes the receiver reserve memory it has not seen. The frame
/// buffer must not ask the allocator for the `len` it was told — not
/// for a prefix beyond `MAX_FRAME_LEN`, and not for a legal one whose
/// bytes have not arrived.
#[test]
fn frame_buffer_never_reserves_the_announced_length() {
    let pool = FramePool::new();
    for announced in [MAX_FRAME_LEN + 1, u32::MAX as usize] {
        let mut buf = FrameBuffer::new();
        let mut result = Ok(None);
        let (_, largest) = allocs_during(|| {
            buf.extend(&(announced as u32).to_le_bytes());
            buf.extend(&[0xAB; 64]);
            result = buf.next_frame_pooled(&pool);
        });
        assert_eq!(result, Err(FrameError::Oversized { len: announced }));
        assert!(
            largest <= MAX_FRAME_LEN,
            "an oversized prefix ({announced}) made a {largest}-byte request"
        );
        assert!(largest < 4096, "and in fact nothing near it: {largest}");
    }

    // A legal 1 MiB announcement with 64 bytes behind it: no frame yet,
    // and no megabyte reserved on the peer's word.
    let announced = 1usize << 20;
    let mut buf = FrameBuffer::new();
    let (_, largest) = allocs_during(|| {
        buf.extend(&(announced as u32).to_le_bytes());
        buf.extend(&[0xCD; 64]);
        assert_eq!(buf.next_frame_pooled(&pool), Ok(None));
    });
    assert!(
        largest < 4096,
        "reserved {largest} bytes for an unseen frame"
    );
}

/// The pooled frame cycle, as the fleet runs it: every live frame is
/// acquired, encoded, frozen, cloned for a link that drops it, and
/// recycled by its last holder. With 300 frames live at once the free
/// list must keep all of them, and after one warm-up cycle the second
/// makes no allocation: no pool miss, and no refcount block behind a
/// frozen frame.
#[test]
fn pooled_frame_cycle_allocates_nothing_once_warm() {
    const LIVE: usize = 300;
    let pool = FramePool::new();
    let params = [0.25; 105];
    let mut frames: Vec<Bytes> = Vec::with_capacity(LIVE);
    let mut cycle = || {
        for node in 0..LIVE {
            let mut buf = pool.acquire(encoded_frame_len(params.len()));
            encode_update_into(1, node as u32, &params, &mut buf);
            let frame = buf.freeze();
            drop(frame.clone());
            frames.push(frame);
        }
        for frame in frames.drain(..) {
            pool.recycle(frame);
        }
    };
    cycle();
    let (allocs, _) = allocs_during(&mut cycle);
    assert_eq!(allocs, 0, "a warm frame cycle allocates nothing");
    let s = pool.stats();
    assert_eq!(
        (s.misses, s.hits, s.returns),
        (LIVE, LIVE, 2 * LIVE),
        "{s:?}"
    );
}

/// `Runtime::run` drives the platform core on the calling thread, so
/// this thread's counter sees exactly the platform side of a run. This
/// is its cost per round under `cfg` at `nodes` nodes,
/// `(allocs(2R) − allocs(R)) / R`, so set-up cancels out; `ran` checks
/// each run's report.
fn platform_allocs_per_round(
    cfg: &RuntimeConfig,
    nodes: usize,
    ran: impl Fn(&RuntimeReport) -> bool,
) -> f64 {
    const R: usize = 6;
    let tasks = tasks(nodes);
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
    let theta = model.init_params(&mut rand::rngs::StdRng::seed_from_u64(7));
    let run = |rounds: usize| {
        let fedml = FedMl::new(
            FedMlConfig::new(0.05, 0.04)
                .with_rounds(rounds)
                .with_local_steps(T0),
        );
        let runtime = Runtime::new(cfg.clone());
        let mut ok = false;
        let (allocs, _) = allocs_during(|| {
            ok = ran(&runtime.run(&fedml, &model, &tasks, &theta).report);
        });
        assert!(ok, "{nodes} nodes, {rounds} rounds: {cfg:?}");
        allocs as f64
    };
    // Warm the shared frame pool to this fleet before measuring.
    run(R);
    (run(2 * R) - run(R)) / R as f64
}

/// An async platform round may not grow with the fleet: an accepted
/// update is held in a reused row, not a fresh copy.
#[test]
fn async_platform_round_is_constant_in_fleet_size() {
    let _pool = GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RuntimeConfig::async_mode(7, AsyncPolicy::default())
        .with_clock(VirtualClock::new(5).with_base_delay(0.1).with_jitter(2.5))
        .with_threads(1);
    // Something must have been folded.
    let per_round = |nodes| platform_allocs_per_round(&cfg, nodes, |r| r.accepted_updates() > 0);
    let (small, large) = (per_round(40), per_round(320));
    assert!(
        large <= small + 16.0,
        "allocations per async round: {small} at 40 nodes, {large} at 320"
    );
}

/// Nor may a barrier round: the broadcast is posted to the in-process
/// fleet once, with its target list in a buffer reused across rounds,
/// so reaching 320 nodes costs the platform what reaching 40 does.
#[test]
fn barrier_platform_round_is_constant_in_fleet_size() {
    let _pool = GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RuntimeConfig::barrier(7).with_threads(1);
    // Every node reached, every round.
    let per_round = |nodes| {
        platform_allocs_per_round(&cfg, nodes, |r| {
            r.per_node
                .iter()
                .all(|io| io.frames_received == io.frames_sent)
                && r.undelivered == 0
        })
    };
    let (small, large) = (per_round(40), per_round(320));
    assert!(
        large <= small,
        "allocations per barrier round: {small} at 40 nodes, {large} at 320"
    );
}

/// The platform end of a link whose node end runs on this same thread:
/// `recv_frame` hands the node the next round's broadcast, encoded into
/// a buffer of the process-wide pool, and `send` recycles each reply the
/// moment it arrives — as a platform already waiting on its uplink does.
struct PromptPlatform {
    pool: FramePool,
    global: Vec<f64>,
    rounds: u32,
    sent: u32,
    /// This thread's allocation count as each broadcast went out.
    allocs: Vec<u64>,
}

impl Transport for PromptPlatform {
    fn send(&mut self, frame: Bytes) -> Result<(), TransportError> {
        self.pool.recycle(frame);
        Ok(())
    }

    fn recv_frame(&mut self, _timeout: Duration) -> Result<Bytes, TransportError> {
        if self.sent == self.rounds {
            return Err(TransportError::Closed);
        }
        self.allocs.push(ALLOCS.with(Cell::get));
        self.sent += 1;
        let mut buf = self.pool.acquire(encoded_frame_len(self.global.len()));
        encode_global_into(self.sent, &self.global, &mut buf);
        Ok(buf.freeze())
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, TransportError> {
        Err(TransportError::Closed)
    }

    fn close(&mut self) {}

    fn kind(&self) -> &'static str {
        "prompt"
    }
}

/// A node's round — receive the broadcast, step, encode the reply with
/// its curve terms, send — over a link that recycles the reply as soon
/// as it is sent: once warm, no round allocates. A sender that kept its
/// own handle on the reply until after the send would leave the
/// receiver a shared frame, lose the buffer from the pool, and allocate
/// a fresh one every round.
#[test]
fn a_node_round_allocates_nothing_when_its_reply_is_recycled_on_arrival() {
    let _pool = GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner());
    const ROUNDS: u32 = 16;
    const WARM: usize = 5;
    let tasks = tasks(3);
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
    let fedml = FedMl::new(FedMlConfig::new(0.05, 0.04).with_local_steps(T0));
    let mut link = PromptPlatform {
        pool: FramePool::global().handle(),
        global: model.init_params(&mut rand::rngs::StdRng::seed_from_u64(5)),
        rounds: ROUNDS,
        sent: 0,
        allocs: Vec::with_capacity(ROUNDS as usize),
    };
    let io = Runtime::new(RuntimeConfig::barrier(3)).run_node(&fedml, &model, &tasks, 1, &mut link);
    assert_eq!(
        (io.frames_received, io.frames_sent),
        (ROUNDS as u64, ROUNDS as u64)
    );
    // The first rounds warm the step's scratch and the pool: the few
    // buffers that take turns as broadcast and reply (the hello's among
    // them) each grow once to a reply's size. Every later round starts
    // where the one before it left the allocator.
    let per_round: Vec<u64> = link
        .allocs
        .windows(2)
        .skip(WARM)
        .map(|w| w[1] - w[0])
        .collect();
    assert_eq!(per_round, vec![0; ROUNDS as usize - 1 - WARM]);
}
