//! Cross-crate fault-tolerance acceptance tests.
//!
//! The robustness stack (`fml_core::faults` → `gather` → the platform
//! core's rollback-and-exclude, configured by one `FaultTolerance`)
//! promises that a seeded fault plan crashing a minority of nodes and
//! corrupting another still lets **every** trainer on the
//! `LocalStepper` seam finish, that corrupt updates never reach an
//! aggregate, and that fault-injected runs stay bitwise identical
//! across worker thread counts. These tests pin those promises at the
//! public-API level, through the simulator
//! (`fml_runtime::SimRunner::with_faults`, the core's virtual-time
//! driver) over an ideal network. The `param_hash` literals were
//! recorded from the in-process fault loop that driver replaced, but
//! for the two tests whose plans once held stragglers, recorded on the
//! simulator before the round deadline went.

use fml_core::{
    Fault, FaultPlan, FaultTolerance, FedAvg, FedAvgConfig, FedMl, FedMlConfig, FedProx,
    FedProxConfig, GatherPolicy, LocalStepper, Reptile, ReptileConfig, SourceTask, TrainOutput,
};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::{param_hash, SimRunner};
use fml_sim::SimConfig;
use rand::SeedableRng;

const NODES: usize = 10;
const DIM: usize = 5;
const CLASSES: usize = 3;
const ROUNDS: usize = 4;
const STEPS: usize = 3;

fn fixture() -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    let fed = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(NODES)
        .with_dim(DIM)
        .with_classes(CLASSES)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 4);
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

/// The ISSUE acceptance scenario: 10 nodes, a seeded plan crashing two of
/// them and corrupting a third.
fn acceptance_plan() -> FaultPlan {
    FaultPlan::new(77)
        .with_crash_from(2, 2)
        .with_crash_from(7, 3)
        .with_corrupt(4, 2)
}

/// `stepper` under `ft` through the simulator, over an ideal network at
/// `threads` workers.
fn train_with(
    ft: &FaultTolerance,
    threads: usize,
    stepper: &dyn LocalStepper,
    model: &dyn Model,
    tasks: &[SourceTask],
    theta0: &[f64],
) -> TrainOutput {
    let sim = SimConfig {
        threads,
        ..SimConfig::ideal()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    SimRunner::new(sim)
        .with_faults(ft.clone())
        .train(stepper, model, tasks, theta0, &mut rng)
        .0
}

/// Each round's `(reporters, degraded)`.
fn per_round(out: &TrainOutput) -> Vec<(usize, bool)> {
    out.history
        .iter()
        .map(|r| (r.reporters, r.degraded))
        .collect()
}

fn check_output(name: &str, out: &TrainOutput) {
    assert!(
        out.params.iter().all(|x| x.is_finite()),
        "{name}: non-finite global parameters"
    );
    assert_eq!(out.history.len(), ROUNDS, "{name}: wrong round count");
    for r in &out.history {
        assert!(
            r.reporters >= 1 && r.reporters <= NODES,
            "{name}: reporter count {} out of range",
            r.reporters
        );
        assert!(r.meta_loss.is_finite(), "{name}: non-finite meta loss");
    }
    // Round 1 is clean; rounds with crashes/corruption are degraded with
    // fewer reporters.
    assert!(!out.history[0].degraded, "{name}: round 1 must be clean");
    assert_eq!(out.history[0].reporters, NODES);
    // Round 2: node 2 crashed + node 4 corrupt-rejected. Rounds 3–4:
    // nodes 2 and 7 both permanently dead. Either way, 8 of 10 report.
    for (i, r) in out.history[1..].iter().enumerate() {
        assert!(r.degraded, "{name}: round {} must be degraded", i + 2);
        assert_eq!(r.reporters, NODES - 2, "{name}: round {}", i + 2);
    }
}

#[test]
fn every_trainer_on_the_seam_survives_the_acceptance_plan() {
    let (model, tasks, theta0) = fixture();
    let ft = FaultTolerance::new(acceptance_plan());
    let steppers: [(&str, Box<dyn LocalStepper>); 4] = [
        (
            "bbcaa664324f1852",
            Box::new(FedMl::new(
                FedMlConfig::new(0.03, 0.03)
                    .with_local_steps(STEPS)
                    .with_rounds(ROUNDS),
            )),
        ),
        (
            "0b4dc1993fa1b766",
            Box::new(FedAvg::new(
                FedAvgConfig::new(0.03)
                    .with_local_steps(STEPS)
                    .with_rounds(ROUNDS),
            )),
        ),
        (
            "c5d5e301f8b0961d",
            Box::new(FedProx::new(
                FedProxConfig::new(0.03, 0.1)
                    .with_local_steps(STEPS)
                    .with_rounds(ROUNDS),
            )),
        ),
        (
            "78b3fa518fa01b7c",
            Box::new(Reptile::new(
                ReptileConfig::new(0.03, 0.5)
                    .with_inner_steps(STEPS)
                    .with_rounds(ROUNDS),
            )),
        ),
    ];
    for (pin, stepper) in &steppers {
        let name = stepper.algorithm();
        let out = train_with(&ft, 4, stepper.as_ref(), &model, &tasks, &theta0);
        check_output(name, &out);
        assert_eq!(param_hash(&out.params), *pin, "{name}");
    }
}

#[test]
fn fault_injected_histories_are_bitwise_identical_across_threads() {
    let (model, tasks, theta0) = fixture();
    // A *probabilistic* plan, not just scripted faults: draws must be
    // pure per (node, round) for this to hold.
    let plan = FaultPlan {
        crash_prob: 0.1,
        corrupt_prob: 0.05,
        ..FaultPlan::new(99)
    };
    let ft = FaultTolerance {
        policy: GatherPolicy::default().with_min_quorum(0.2),
        ..FaultTolerance::new(plan)
    };

    let fedml = FedMl::new(
        FedMlConfig::new(0.03, 0.03)
            .with_local_steps(STEPS)
            .with_rounds(6),
    );
    let run = |threads: usize| train_with(&ft, threads, &fedml, &model, &tasks, &theta0);
    let one = run(1);
    let four = run(4);
    assert_eq!(one.params, four.params, "params differ across threads");
    assert_eq!(one.history.len(), four.history.len());
    for (a, b) in one.history.iter().zip(&four.history) {
        assert_eq!(a, b, "history record differs across threads");
    }
    // Quorum 0.2 over 10 nodes survives this plan.
    assert_eq!(param_hash(&one.params), "c20995136e47651f");
    let want = [
        (9, true),
        (10, false),
        (7, true),
        (8, true),
        (7, true),
        (8, true),
    ];
    assert_eq!(per_round(&one), want);
}

#[test]
fn minority_crash_shifts_aggregate_toward_survivors() {
    // Two quadratic populations: nodes 0..3 pull the model toward +1,
    // nodes 4..5 toward -1. Crashing the -1 camp must move the final
    // parameters strictly toward the survivors' optimum.
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{Batch, Quadratic};

    let nodes: Vec<NodeData> = (0..6)
        .map(|id| {
            let c = if id < 4 { 1.0 } else { -1.0 };
            let rows: Vec<Vec<f64>> = (0..4).map(|_| vec![c]).collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            NodeData {
                id,
                batch: Batch::regression(Matrix::from_rows(&refs).unwrap(), vec![0.0; 4]).unwrap(),
            }
        })
        .collect();
    let tasks = SourceTask::from_nodes_deterministic(&nodes, 2);
    let model = Quadratic::isotropic(1, 1.0);
    let cfg = FedAvgConfig::new(0.2).with_local_steps(4).with_rounds(30);

    let fedavg = FedAvg::new(cfg);
    // The benign plan is the exact path: `train_from`, bit for bit.
    let benign = FaultTolerance::new(FaultPlan::new(0));
    let healthy = train_with(&benign, 4, &fedavg, &model, &tasks, &[0.0]);
    assert_eq!(healthy, fedavg.train_from(&model, &tasks, &[0.0]));

    let ft = FaultTolerance::new(
        FaultPlan::new(0)
            .with_crash_from(4, 1)
            .with_crash_from(5, 1),
    );
    let skewed = train_with(&ft, 4, &fedavg, &model, &tasks, &[0.0]);
    assert_eq!(param_hash(&skewed.params), "fa3bd0017704bc26");
    assert_eq!(per_round(&skewed), vec![(4, true); 30]);

    // Healthy fleet settles near the mixed mean (4·1 − 2·1)/6 = 1/3; the
    // survivor-only fleet settles near +1.
    assert!(
        skewed.params[0] > healthy.params[0] + 0.3,
        "aggregate must shift toward survivors: healthy {} vs skewed {}",
        healthy.params[0],
        skewed.params[0]
    );
    assert!((skewed.params[0] - 1.0).abs() < 0.05, "got {}", skewed.params[0]);
}

#[test]
fn corrupt_update_never_reaches_the_aggregate() {
    let (model, tasks, theta0) = fixture();
    // Node 3 uploads NaNs *every* round; with validation on, no NaN may
    // ever touch the global model or the recorded losses.
    let mut plan = FaultPlan::new(5);
    for round in 1..=ROUNDS {
        plan = plan.with_corrupt(3, round);
    }
    let ft = FaultTolerance::new(plan);
    let cfg = FedMlConfig::new(0.03, 0.03)
        .with_local_steps(STEPS)
        .with_rounds(ROUNDS);
    let out = train_with(&ft, 4, &FedMl::new(cfg), &model, &tasks, &theta0);
    assert!(out.params.iter().all(|x| x.is_finite()));
    for r in &out.history {
        assert!(r.meta_loss.is_finite() && r.train_loss.is_finite());
        assert_eq!(r.reporters, NODES - 1);
        assert!(r.degraded);
    }
    assert_eq!(param_hash(&out.params), "9fa36bc7c9cd3f48");
}

/// Literal `param_hash` pins of the fault path, recorded on the
/// simulator before the round deadline went: one scripted plan with
/// three permanent crashes + two NaN uploads + a one-round crash
/// (round 3: 4 of 10 report, quorum 5 is lost, one rollback excludes
/// nodes 0–5 and the round re-runs on the 4-node fleet).
#[test]
fn fault_path_outputs_are_pinned_for_every_trainer_at_1_and_4_threads() {
    const PIN_ROUNDS: usize = 5;
    let (model, tasks, theta0) = fixture();
    let mut plan = FaultPlan::new(4242)
        .with_crash_from(0, 3)
        .with_crash_from(1, 3)
        .with_crash_from(2, 3)
        .with_corrupt(3, 3)
        .with_corrupt(4, 3);
    plan.scripted.insert((5, 3), Fault::Crash);
    let ft = FaultTolerance::new(plan);
    let shape = [(10, false), (10, false), (4, true), (4, true), (4, true)];
    let steppers: [(&str, Box<dyn LocalStepper>); 4] = [
        (
            "2b1cb465b76acae3",
            Box::new(FedMl::new(
                FedMlConfig::new(0.03, 0.03)
                    .with_local_steps(STEPS)
                    .with_rounds(PIN_ROUNDS),
            )),
        ),
        (
            "c86e6d3aa9966616",
            Box::new(FedAvg::new(
                FedAvgConfig::new(0.03)
                    .with_local_steps(STEPS)
                    .with_rounds(PIN_ROUNDS),
            )),
        ),
        (
            "16d3412a2519b920",
            Box::new(FedProx::new(
                FedProxConfig::new(0.03, 0.1)
                    .with_local_steps(STEPS)
                    .with_rounds(PIN_ROUNDS),
            )),
        ),
        (
            "f64d7c8b570f80b3",
            Box::new(Reptile::new(
                ReptileConfig::new(0.03, 0.5)
                    .with_inner_steps(STEPS)
                    .with_rounds(PIN_ROUNDS),
            )),
        ),
    ];

    for threads in [1usize, 4] {
        for (pin, stepper) in &steppers {
            let out = train_with(&ft, threads, stepper.as_ref(), &model, &tasks, &theta0);
            assert_eq!(param_hash(&out.params), *pin, "{threads} threads");
            assert_eq!(per_round(&out), shape, "{pin} at {threads} threads");
        }
    }
}
