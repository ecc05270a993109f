//! Cross-crate fault-tolerance acceptance tests.
//!
//! The robustness stack (`fml_core::faults` → `gather` → `ft`) promises
//! that a seeded fault plan crashing a minority of nodes and corrupting
//! another still lets **every** trainer finish, that corrupt updates
//! never reach an aggregate, and that fault-injected runs stay bitwise
//! identical across worker thread counts. These tests pin those promises
//! at the public-API level, across all five trainers.

use fml_core::{
    train_with_faults, Fault, FaultPlan, FaultTolerance, FedAvg, FedAvgConfig, FedMl, FedMlConfig,
    FedProx, FedProxConfig, GatherPolicy, MetaSgd, MetaSgdConfig, Reptile, ReptileConfig,
    SourceTask, StragglerPolicy, TrainOutput,
};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
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
fn all_five_trainers_survive_the_acceptance_plan() {
    let (model, tasks, theta0) = fixture();
    let ft = FaultTolerance::new(acceptance_plan());

    let fedml = FedMl::new(
        FedMlConfig::new(0.03, 0.03)
            .with_local_steps(STEPS)
            .with_rounds(ROUNDS),
    );
    let fedml = train_with_faults(&fedml, &model, &tasks, &theta0, &ft)
        .expect("FedML must survive a minority-killing plan");
    check_output("FedML", &fedml);

    let fedavg = FedAvg::new(
        FedAvgConfig::new(0.03)
            .with_local_steps(STEPS)
            .with_rounds(ROUNDS),
    );
    let fedavg =
        train_with_faults(&fedavg, &model, &tasks, &theta0, &ft).expect("FedAvg must survive");
    check_output("FedAvg", &fedavg);

    let fedprox = FedProx::new(
        FedProxConfig::new(0.03, 0.1)
            .with_local_steps(STEPS)
            .with_rounds(ROUNDS),
    );
    let fedprox =
        train_with_faults(&fedprox, &model, &tasks, &theta0, &ft).expect("FedProx must survive");
    check_output("FedProx", &fedprox);

    let reptile = Reptile::new(
        ReptileConfig::new(0.03, 0.5)
            .with_inner_steps(STEPS)
            .with_rounds(ROUNDS),
    );
    let reptile =
        train_with_faults(&reptile, &model, &tasks, &theta0, &ft).expect("Reptile must survive");
    check_output("Reptile", &reptile);

    let metasgd = MetaSgd::new(
        MetaSgdConfig::new(0.01, 0.03)
            .with_local_steps(STEPS)
            .with_rounds(ROUNDS),
    )
    .train_with_faults(&model, &tasks, &theta0, &ft)
    .expect("Meta-SGD must survive");
    check_output("Meta-SGD", &metasgd.train);
    assert_eq!(metasgd.rates.len(), theta0.len());
    assert!(metasgd.rates.iter().all(|a| a.is_finite()));
}

#[test]
fn fault_injected_histories_are_bitwise_identical_across_threads() {
    let (model, tasks, theta0) = fixture();
    // A *probabilistic* plan (not just scripted faults) plus a deadline:
    // draws must be pure per (node, round) for this to hold.
    let plan = FaultPlan {
        crash_prob: 0.1,
        straggle_prob: 0.15,
        max_straggle_s: 3.0,
        corrupt_prob: 0.05,
        ..FaultPlan::new(99)
    };
    let policy = GatherPolicy {
        deadline_s: Some(2.0),
        ..GatherPolicy::default().with_min_quorum(0.2)
    };
    let ft = FaultTolerance {
        policy,
        ..FaultTolerance::new(plan)
    };

    let run = |threads: usize| {
        let cfg = FedMlConfig::new(0.03, 0.03)
            .with_local_steps(STEPS)
            .with_rounds(6)
            .with_threads(threads);
        train_with_faults(&FedMl::new(cfg), &model, &tasks, &theta0, &ft)
            .expect("quorum 0.2 over 10 nodes survives this plan")
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.params, four.params, "params differ across threads");
    assert_eq!(one.history.len(), four.history.len());
    for (a, b) in one.history.iter().zip(&four.history) {
        assert_eq!(a, b, "history record differs across threads");
    }
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

    let benign = FaultTolerance::new(FaultPlan::new(0));
    let healthy = train_with_faults(&FedAvg::new(cfg), &model, &tasks, &[0.0], &benign).unwrap();

    let ft = FaultTolerance::new(
        FaultPlan::new(0)
            .with_crash_from(4, 1)
            .with_crash_from(5, 1),
    );
    let skewed = train_with_faults(&FedAvg::new(cfg), &model, &tasks, &[0.0], &ft).unwrap();

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
    let out = train_with_faults(&FedMl::new(cfg), &model, &tasks, &theta0, &ft).unwrap();
    assert!(out.params.iter().all(|x| x.is_finite()));
    for r in &out.history {
        assert!(r.meta_loss.is_finite() && r.train_loss.is_finite());
        assert_eq!(r.reporters, NODES - 1);
        assert!(r.degraded);
    }
}

/// Literal `param_hash` pins of the fault path, recorded at the commit
/// before `train_with_faults` moved onto the `LocalStepper` seam: one
/// scripted plan with a ReuseLast straggle (round 2), three permanent
/// crashes + two NaN uploads + a one-round crash (round 3: 4 of 10
/// report, quorum 5 is lost, one rollback excludes nodes 0–5 and the
/// round re-runs on the 4-node fleet), and a second straggle (round 4).
#[test]
fn fault_path_outputs_are_pinned_for_every_trainer_at_1_and_4_threads() {
    use fml_runtime::param_hash;
    const PIN_ROUNDS: usize = 5;
    let (model, tasks, theta0) = fixture();
    let mut plan = FaultPlan::new(4242)
        .with_crash_from(0, 3)
        .with_crash_from(1, 3)
        .with_crash_from(2, 3)
        .with_corrupt(3, 3)
        .with_corrupt(4, 3);
    plan.scripted.extend([
        ((6, 2), Fault::Straggle { delay_s: 5.0 }),
        ((5, 3), Fault::Crash),
        ((8, 4), Fault::Straggle { delay_s: 3.0 }),
    ]);
    let policy = GatherPolicy {
        deadline_s: Some(2.0),
        straggler: StragglerPolicy::ReuseLast,
        ..GatherPolicy::default()
    };
    let ft = FaultTolerance {
        policy,
        ..FaultTolerance::new(plan)
    };
    let shape = [(10, false), (10, true), (4, true), (4, true), (4, true)];

    for threads in [1usize, 4] {
        let fedml = FedMlConfig::new(0.03, 0.03)
            .with_local_steps(STEPS)
            .with_rounds(PIN_ROUNDS);
        let fedavg = FedAvgConfig {
            threads: Some(threads),
            ..FedAvgConfig::new(0.03)
                .with_local_steps(STEPS)
                .with_rounds(PIN_ROUNDS)
        };
        let fedprox = FedProxConfig {
            threads: Some(threads),
            ..FedProxConfig::new(0.03, 0.1)
                .with_local_steps(STEPS)
                .with_rounds(PIN_ROUNDS)
        };
        let reptile = ReptileConfig {
            threads: Some(threads),
            ..ReptileConfig::new(0.03, 0.5)
                .with_inner_steps(STEPS)
                .with_rounds(PIN_ROUNDS)
        };
        let metasgd = MetaSgdConfig {
            threads: Some(threads),
            ..MetaSgdConfig::new(0.01, 0.03)
                .with_local_steps(STEPS)
                .with_rounds(PIN_ROUNDS)
        };
        let metasgd = MetaSgd::new(metasgd)
            .train_with_faults(&model, &tasks, &theta0, &ft)
            .unwrap();
        let run = |stepper: &dyn fml_core::LocalStepper| {
            train_with_faults(stepper, &model, &tasks, &theta0, &ft).unwrap()
        };
        let outs = [
            (
                "6928a17d26129bee",
                run(&FedMl::new(fedml.with_threads(threads))),
            ),
            ("28d5d2c783335701", run(&FedAvg::new(fedavg))),
            ("a7ef55bc18445fee", run(&FedProx::new(fedprox))),
            ("d266f04becb34fab", run(&Reptile::new(reptile))),
            ("5b8484201a7aa027", metasgd.train),
        ];
        for (pin, out) in &outs {
            assert_eq!(param_hash(&out.params), *pin, "{threads} threads");
            let got: Vec<(usize, bool)> = out
                .history
                .iter()
                .map(|r| (r.reporters, r.degraded))
                .collect();
            assert_eq!(got, shape, "{pin} at {threads} threads");
        }
        assert_eq!(
            param_hash(&metasgd.rates),
            "db9552a33b0c874d",
            "{threads} threads"
        );
    }
}
