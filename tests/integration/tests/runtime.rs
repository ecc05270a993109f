//! Cross-crate tests for the `fml-runtime` actor runtime.
//!
//! The barrier mode's contract is the strongest one in the workspace: a
//! thread-per-node run over encoded wire frames must be **bitwise**
//! indistinguishable from the in-process `train_from` oracle — exact
//! parameter bits and the exact recorded curve. Async mode trades that
//! equivalence for liveness; its contracts are the staleness bound, crash
//! tolerance, and thread-count determinism, all checked here as
//! properties over seeds.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use fml_core::{
    FaultPlan, FedAvg, FedAvgConfig, FedMl, FedMlConfig, LocalStepper, Reptile, ReptileConfig,
    Scratch, SourceTask,
};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::{param_hash, AsyncPolicy, Runtime, RuntimeConfig, VirtualClock};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 6;
const DIM: usize = 5;
const CLASSES: usize = 3;

fn fixture(seed: u64) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    fixture_of(NODES, seed)
}

fn fixture_of(nodes: usize, seed: u64) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let fed = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(nodes)
        .with_dim(DIM)
        .with_classes(CLASSES)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes(fed.nodes(), 5, &mut rng);
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

fn fedml(rounds: usize) -> FedMl {
    FedMl::new(
        FedMlConfig::new(0.05, 0.05)
            .with_rounds(rounds)
            .with_local_steps(2),
    )
}

fn fedavg(rounds: usize) -> FedAvg {
    FedAvg::new(
        FedAvgConfig::new(0.05)
            .with_rounds(rounds)
            .with_local_steps(2),
    )
}

#[test]
fn barrier_matches_fedml_train_from_bitwise() {
    let (model, tasks, theta0) = fixture(11);
    let trainer = fedml(4);
    let reference = trainer.train_from(&model, &tasks, &theta0);
    let out = Runtime::new(RuntimeConfig::barrier(1)).run(&trainer, &model, &tasks, &theta0);
    assert_eq!(out.train.params, reference.params, "params must be bitwise equal");
    assert_eq!(out.train.history, reference.history, "curve must be bitwise equal");
    assert_eq!(out.train.comm_rounds, reference.comm_rounds);
    assert_eq!(out.train.local_iterations, reference.local_iterations);
}

#[test]
fn barrier_matches_fedavg_train_from_bitwise() {
    let (model, tasks, theta0) = fixture(12);
    let trainer = fedavg(4);
    let reference = trainer.train_from(&model, &tasks, &theta0);
    let out = Runtime::new(RuntimeConfig::barrier(1)).run(&trainer, &model, &tasks, &theta0);
    assert_eq!(out.train.params, reference.params, "params must be bitwise equal");
    assert_eq!(out.train.history, reference.history, "curve must be bitwise equal");
    assert_eq!(out.train.comm_rounds, reference.comm_rounds);
}

#[test]
fn barrier_with_reptile_matches_train_from_to_rounding() {
    // `LocalStepper::combine` carries Reptile's outer interpolation, so
    // the barrier loop can drive it. Rounding, not bitwise: the fast
    // path re-aggregates the global as the lockstep trainers do, and
    // `Reptile::train_from` does not.
    let (model, tasks, theta0) = fixture(14);
    let trainer = Reptile::new(
        ReptileConfig::new(0.05, 0.5)
            .with_inner_steps(2)
            .with_rounds(4),
    );
    let reference = trainer.train_from(&model, &tasks, &theta0);
    let out = Runtime::new(RuntimeConfig::barrier(1)).run(&trainer, &model, &tasks, &theta0);
    assert_eq!(out.train.history.len(), reference.history.len());
    assert_eq!(out.train.comm_rounds, reference.comm_rounds);
    assert_ne!(out.train.params, theta0, "the global must have moved");
    for (got, want) in out.train.params.iter().zip(&reference.params) {
        assert!((got - want).abs() <= 1e-12, "{got} vs {want}");
    }
    for (got, want) in out.train.history.iter().zip(&reference.history) {
        assert!((got.meta_loss - want.meta_loss).abs() <= 1e-12);
    }
}

#[test]
fn barrier_equivalence_holds_across_thread_counts() {
    let (model, tasks, theta0) = fixture(13);
    let trainer = fedml(3);
    let reference = trainer.train_from(&model, &tasks, &theta0);
    for threads in [1, 2, 4] {
        let cfg = RuntimeConfig::barrier(7).with_threads(threads);
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(out.train.params, reference.params, "{threads} threads");
        assert_eq!(out.train.history, reference.history, "{threads} threads");
    }
}

#[test]
fn every_frame_crosses_the_wire_encoded() {
    let (model, tasks, theta0) = fixture(14);
    let trainer = fedml(3);
    let out = Runtime::new(RuntimeConfig::barrier(1)).run(&trainer, &model, &tasks, &theta0);
    // One broadcast down and one update up per node per round, every one
    // of them an encoded frame whose bytes the report accounts for.
    let frame_len = fml_sim::message::encoded_frame_len(theta0.len()) as u64;
    for io in &out.report.per_node {
        assert_eq!(io.frames_sent, 3);
        assert_eq!(io.frames_received, 3);
        assert_eq!(io.bytes_received, 3 * frame_len);
    }
    assert_eq!(out.report.decode_errors, 0);
    assert_eq!(out.report.undelivered, 0);
    // Broadcast drops are accounted per round: one bucket per round,
    // all empty in a benign run.
    assert_eq!(out.report.broadcast_drops, vec![0, 0, 0]);
}

#[test]
fn quorum_loss_without_recovery_budget_freezes_the_global() {
    // Three of four nodes die from round 3: 1 reporter < the required 2,
    // and with no recovery budget the platform may not roll back and
    // exclude — it must degrade each round in place, carrying the
    // round-2 global, and never wait on a node the plan killed.
    const TIMEOUT_MS: u64 = 10_000;
    let (model, tasks, theta0) = fixture_of(4, 16);
    let plan = FaultPlan::new(0)
        .with_crash_from(0, 3)
        .with_crash_from(1, 3)
        .with_crash_from(2, 3);
    let cfg = RuntimeConfig {
        recv_timeout_ms: TIMEOUT_MS,
        ..RuntimeConfig::barrier(1).with_faults(plan)
    };
    let run =
        |cfg: RuntimeConfig, rounds| Runtime::new(cfg).run(&fedml(rounds), &model, &tasks, &theta0);

    let started = std::time::Instant::now();
    let out = run(cfg.clone().with_max_recoveries(0), 6);
    assert!(
        started.elapsed() < std::time::Duration::from_millis(TIMEOUT_MS),
        "a degraded round must not wait out the receive timeout"
    );

    let history = &out.train.history;
    assert_eq!(history.len(), 6);
    for r in &history[..2] {
        assert!(r.aggregated && !r.degraded, "{r:?}");
        assert_eq!(r.reporters, 4);
    }
    for r in &history[2..] {
        assert!(!r.aggregated && r.degraded, "{r:?}");
        assert_eq!(r.reporters, 1);
        assert_eq!(r.meta_loss.to_bits(), history[1].meta_loss.to_bits());
    }
    assert_eq!(out.train.comm_rounds, 2);
    assert_eq!(out.report.rollbacks, 0);
    assert_eq!(out.report.excluded_nodes, Vec::<usize>::new());
    for io in &out.report.per_node[..3] {
        assert_eq!(
            io.frames_received, 2,
            "node {} is dark from round 3",
            io.node
        );
    }
    assert_eq!(out.report.per_node[3].frames_received, 6);

    // The frozen global is the round-2 global.
    let two = run(cfg.clone().with_max_recoveries(0), 2);
    assert_eq!(out.train.params, two.train.params);
    assert_eq!(two.train.history[..], history[..2]);

    // `without_recovery` is the same zero budget.
    let off = run(cfg.without_recovery(), 6);
    assert_eq!(param_hash(&off.train.params), param_hash(&out.train.params));
    assert_eq!(off.train.history, out.train.history);
}

#[test]
fn async_crash_plan_terminates_with_degraded_rounds() {
    let (model, tasks, theta0) = fixture(15);
    let trainer = fedml(4);
    let cfg = RuntimeConfig {
        recv_timeout_ms: 5_000,
        ..RuntimeConfig::async_mode(3, AsyncPolicy::default())
            .with_faults(FaultPlan::new(9).with_crash_from(0, 1).with_crash_from(1, 2))
    };
    let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
    assert_eq!(out.train.comm_rounds, 4, "run must complete all rounds");
    assert!(out.report.degraded_rounds > 0, "crashes must degrade rounds");
    assert!(out.train.params.iter().all(|x| x.is_finite()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The staleness histogram never has a bucket past `max_staleness`,
    /// no matter the seed, bound, or jitter.
    #[test]
    fn prop_async_staleness_bound_is_never_exceeded(
        seed in 0u64..1000,
        max_staleness in 0usize..4,
        jitter in 0.0f64..4.0,
    ) {
        let (model, tasks, theta0) = fixture(seed ^ 0xA5);
        let trainer = fedml(5);
        let policy = AsyncPolicy::default().with_max_staleness(max_staleness);
        let cfg = RuntimeConfig::async_mode(seed, policy)
            .with_clock(VirtualClock::new(seed).with_base_delay(0.1).with_jitter(jitter));
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        prop_assert!(
            out.report.staleness_hist.len() <= max_staleness + 1,
            "bucket past the bound: {:?}", out.report.staleness_hist
        );
        prop_assert!(
            out.report.max_applied_staleness().is_none_or(|s| s <= max_staleness)
        );
        // Every round gets a broadcast-drop bucket, and whatever was
        // dropped at broadcast time is part of the undelivered total.
        prop_assert_eq!(out.report.broadcast_drops.len(), 5);
        let dropped: u64 = out.report.broadcast_drops.iter().sum();
        prop_assert!(
            dropped <= out.report.undelivered,
            "broadcast drops {} exceed undelivered {}",
            dropped, out.report.undelivered
        );
        prop_assert!(out.train.params.iter().all(|x| x.is_finite()));
    }

    /// Async runs under a crash plan always terminate — the platform never
    /// waits on a node the plan killed — and count the loss as degradation.
    #[test]
    fn prop_async_crashes_degrade_but_never_hang(
        seed in 0u64..1000,
        victim in 0usize..NODES,
        from_round in 1usize..3,
    ) {
        let (model, tasks, theta0) = fixture(seed ^ 0x5A);
        let trainer = fedml(3);
        let cfg = RuntimeConfig {
            recv_timeout_ms: 5_000,
            ..RuntimeConfig::async_mode(seed, AsyncPolicy::default())
                .with_faults(FaultPlan::new(seed).with_crash_from(victim, from_round))
        };
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        prop_assert_eq!(out.train.comm_rounds, 3);
        prop_assert!(out.report.degraded_rounds > 0);
        prop_assert!(out.train.params.iter().all(|x| x.is_finite()));
    }

    /// Virtual time, not OS scheduling, orders async aggregation: one
    /// worker thread and four produce bitwise identical results.
    #[test]
    fn prop_async_is_deterministic_across_thread_counts(
        seed in 0u64..1000,
        jitter in 0.0f64..3.0,
    ) {
        let (model, tasks, theta0) = fixture(seed ^ 0xC3);
        let trainer = fedml(4);
        let base = RuntimeConfig::async_mode(seed, AsyncPolicy::default())
            .with_clock(VirtualClock::new(seed).with_base_delay(0.1).with_jitter(jitter));
        let one = Runtime::new(base.clone().with_threads(1))
            .run(&trainer, &model, &tasks, &theta0);
        let four = Runtime::new(base.with_threads(4))
            .run(&trainer, &model, &tasks, &theta0);
        prop_assert_eq!(one.train.params, four.train.params);
        prop_assert_eq!(one.report.staleness_hist, four.report.staleness_hist);
        prop_assert_eq!(one.report.rejected_stale, four.report.rejected_stale);
        prop_assert_eq!(one.report.accepted_updates(), four.report.accepted_updates());
    }
}

#[test]
fn stepper_trait_exposes_training_shape() {
    let trainer = fedml(4);
    let stepper: &dyn LocalStepper = &trainer;
    assert_eq!(stepper.algorithm(), "FedML");
    assert_eq!(stepper.rounds(), 4);
    assert_eq!(stepper.local_steps(), 2);
}

/// `FedMl`, except that the curve evaluation of every round but the last
/// refuses to return until some node has entered the *next* round's
/// `advance` — which can only happen if the platform broadcasts round
/// `r + 1` before it evaluates round `r`. A platform that evaluates
/// between the aggregate and the next broadcast waits out the guard and
/// trips `stalled`.
struct EvalWaitsForNextRound {
    inner: FedMl,
    nodes: usize,
    /// `(advance calls entered, evaluations started)`; the runtime calls
    /// `advance` once a node a round, so call `c` belongs to round
    /// `c / nodes + 1`, and evaluation `k` to round `k`.
    seen: Mutex<(usize, usize)>,
    entered: Condvar,
    stalled: Mutex<Vec<usize>>,
}

impl EvalWaitsForNextRound {
    const GUARD: Duration = Duration::from_secs(5);

    fn new(inner: FedMl, nodes: usize) -> Self {
        EvalWaitsForNextRound {
            inner,
            nodes,
            seen: Mutex::new((0, 0)),
            entered: Condvar::new(),
            stalled: Mutex::new(Vec::new()),
        }
    }
}

impl LocalStepper for EvalWaitsForNextRound {
    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn local_steps(&self) -> usize {
        self.inner.local_steps()
    }

    fn advance(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        anchor: &[f64],
        state: &mut [f64],
        steps: usize,
        scratch: &mut Scratch,
    ) {
        self.seen.lock().unwrap().0 += 1;
        self.entered.notify_all();
        self.inner
            .advance(model, task, anchor, state, steps, scratch);
    }

    fn eval_losses_with(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta: &[f64],
        scratch: &mut Scratch,
    ) -> (f64, f64) {
        let mut seen = self.seen.lock().unwrap();
        seen.1 += 1;
        let round = seen.1;
        let next_round_entered = |s: &mut (usize, usize)| s.0 > round * self.nodes;
        let (seen, wait) = self
            .entered
            .wait_timeout_while(seen, Self::GUARD, |s| {
                round < self.rounds() && !next_round_entered(s)
            })
            .unwrap();
        drop(seen);
        if wait.timed_out() {
            self.stalled.lock().unwrap().push(round);
        }
        self.inner.eval_losses_with(model, tasks, theta, scratch)
    }
}

#[test]
fn curve_is_evaluated_while_the_fleet_computes_the_next_round() {
    const ROUNDS: usize = 4;
    let (model, tasks, theta0) = fixture(15);
    let reference = fedml(ROUNDS).train_from(&model, &tasks, &theta0);
    let stepper = EvalWaitsForNextRound::new(fedml(ROUNDS), tasks.len());
    let out = Runtime::new(RuntimeConfig::barrier(1)).run(&stepper, &model, &tasks, &theta0);
    assert_eq!(
        *stepper.stalled.lock().unwrap(),
        Vec::<usize>::new(),
        "rounds evaluated with the fleet idle"
    );
    // The record survives the lag: every round present, in order, and
    // the run is still the oracle's bit for bit.
    assert_eq!(out.train.history.len(), ROUNDS);
    assert_eq!(out.report.trace.rounds().len(), ROUNDS);
    let iterations: Vec<usize> = out.train.history.iter().map(|r| r.iteration).collect();
    assert_eq!(iterations, vec![2, 4, 6, 8]);
    assert_eq!(out.train.params, reference.params);
    assert_eq!(out.train.history, reference.history);
    for (row, record) in out.report.trace.rounds().iter().zip(&out.train.history) {
        assert_eq!(row.meta_loss.to_bits(), record.meta_loss.to_bits());
    }
}

#[test]
fn a_single_round_is_recorded_by_the_final_flush() {
    // With one round there is no next exchange to evaluate under: the
    // only flush is the one after the loop.
    let (model, tasks, theta0) = fixture(16);
    let reference = fedml(1).train_from(&model, &tasks, &theta0);
    for cfg in [
        RuntimeConfig::barrier(1),
        RuntimeConfig::async_mode(1, AsyncPolicy::default()),
    ] {
        let barrier = matches!(cfg.mode, fml_runtime::Mode::Barrier);
        let out = Runtime::new(cfg).run(&fedml(1), &model, &tasks, &theta0);
        assert_eq!(out.train.history.len(), 1);
        assert_eq!(out.report.trace.rounds().len(), 1);
        assert_eq!(out.train.history[0].iteration, 2);
        if barrier {
            assert_eq!(out.train.history, reference.history);
            assert_eq!(out.train.params, reference.params);
        }
    }
}

#[test]
fn a_resumed_run_records_exactly_its_own_rounds() {
    const ROUNDS: usize = 5;
    const DONE: usize = 2;
    let (model, tasks, theta0) = fixture(17);
    let dir = std::env::temp_dir().join(format!("fml-runtime-overlap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || RuntimeConfig::barrier(1).with_checkpoint_dir(&dir);
    let reference = fedml(ROUNDS).train_from(&model, &tasks, &theta0);

    let first = Runtime::new(cfg()).run(&fedml(DONE), &model, &tasks, &theta0);
    assert_eq!(first.train.history.len(), DONE);
    let resumed = Runtime::new(cfg()).run(&fedml(ROUNDS), &model, &tasks, &theta0);
    let k = DONE + 1;
    assert_eq!(resumed.report.resumed_at_round, Some(k));
    // Rounds k..=ROUNDS, the last one included, each exactly once.
    let iterations: Vec<usize> = resumed.train.history.iter().map(|r| r.iteration).collect();
    assert_eq!(iterations, (k..=ROUNDS).map(|r| 2 * r).collect::<Vec<_>>());
    assert_eq!(resumed.train.history.len(), ROUNDS - k + 1);
    assert_eq!(resumed.report.trace.rounds().len(), ROUNDS - k + 1);
    assert_eq!(resumed.train.history[..], reference.history[DONE..]);
    assert_eq!(resumed.train.params, reference.params);
    let _ = std::fs::remove_dir_all(&dir);
}
