//! Deployment-lifecycle integration: meta-train → checkpoint to disk →
//! reload in a "new process" → adapt (eq. 6) → score on the query set →
//! price the run in joules. The path a real platform walks, across five
//! crates.

use fml_core::adapt::adapt;
use fml_core::checkpoint::Checkpoint;
use fml_core::{FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_data::shared_synthetic::SharedSyntheticConfig;
use fml_data::TaskSplit;
use fml_models::{Model, SoftmaxRegression};
use fml_sim::energy::EnergyModel;
use fml_runtime::SimRunner;
use fml_sim::SimConfig;
use rand::SeedableRng;

struct World {
    model: SoftmaxRegression,
    tasks: Vec<SourceTask>,
    targets: Vec<fml_data::NodeData>,
    theta0: Vec<f64>,
}

fn world(seed: u64) -> World {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let fed = SharedSyntheticConfig::new(0.5, 0.3)
        .with_nodes(12)
        .with_dim(8)
        .with_classes(3)
        .with_mean_samples(24.0)
        .generate(&mut rng);
    let (sources, targets) = fed.split_sources_targets(0.75, &mut rng);
    let tasks = SourceTask::from_nodes(&sources, 5, &mut rng);
    let model = SoftmaxRegression::new(8, 3).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    World {
        model,
        tasks,
        targets,
        theta0,
    }
}

#[test]
fn full_lifecycle_checkpoint_adapt_score() {
    let w = world(0);
    // 1. Meta-train.
    let out = FedMl::new(
        FedMlConfig::new(0.1, 0.05)
            .with_local_steps(3)
            .with_rounds(30),
    )
    .train_from(&w.model, &w.tasks, &w.theta0);

    // 2. Persist the initialization.
    let dir = std::env::temp_dir().join("fml_lifecycle_test");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("init.json");
    Checkpoint::new("FedML", out.params.clone())
        .with_meta("dataset", "SharedSynthetic(0.5,0.3)")
        .save_atomic(&path)
        .expect("save checkpoint");

    // 3. "New process": reload and verify identity.
    let loaded = Checkpoint::load(&path).expect("load checkpoint");
    assert_eq!(loaded.params, out.params);
    assert_eq!(loaded.algorithm, "FedML");
    assert_eq!(loaded.meta.get("dataset").unwrap(), "SharedSynthetic(0.5,0.3)");

    // 4. Adapt at a target with eq. 6 — what the CLI, `AdaptServer` and
    //    every figure run. It must fit the support set it optimizes (the
    //    query loss may move either way on K = 5 samples).
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let split = TaskSplit::sample(&w.targets[0].batch, 5, &mut rng);
    let support_before = w.model.loss(&loaded.params, &split.train);
    let phi = adapt(&w.model, &loaded.params, &split.train, 0.1, 10);
    let support_after = w.model.loss(&phi, &split.train);
    assert!(
        support_after < support_before,
        "adaptation must fit the support set: {support_before} -> {support_after}"
    );

    // 5. Score the adapted model on the query set.
    assert!(w.model.loss(&phi, &split.test).is_finite());
    let accuracy = w.model.accuracy(&phi, &split.test);
    assert!((0.0..=1.0).contains(&accuracy), "accuracy {accuracy}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulated_run_is_priceable_in_joules() {
    let w = world(2);
    let cfg = FedMlConfig::new(0.1, 0.05).with_local_steps(5).with_rounds(8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let sim = SimRunner::new(SimConfig::edge().with_iteration_time(0.02)).run(
        &FedMl::new(cfg),
        &w.model,
        &w.tasks,
        &w.theta0,
        &mut rng,
    );

    let bill = EnergyModel::edge_board().price(&sim.comm, &sim.compute, sim.comm.time_s);
    assert!(bill.total_j() > 0.0);
    assert!(bill.compute_j > 0.0 && bill.tx_j > 0.0 && bill.rx_j > 0.0);
    // More local steps per round means compute dominates the radio for
    // this parameter size.
    assert!(
        bill.compute_j > bill.tx_j + bill.rx_j,
        "compute {} vs radio {}",
        bill.compute_j,
        bill.tx_j + bill.rx_j
    );

    // A model with every knob at zero prices the identical run at zero.
    let free = EnergyModel {
        compute_power_w: 0.0,
        tx_j_per_byte: 0.0,
        rx_j_per_byte: 0.0,
        idle_power_w: 0.0,
    };
    let zero = free.price(&sim.comm, &sim.compute, sim.comm.time_s);
    assert_eq!(zero.total_j(), 0.0);
}

#[test]
fn adaptation_energy_trade_off_shows_in_the_bill() {
    // Comparing the same budget at T0 = 1 vs T0 = 10: the T0 = 10 bill
    // must spend a smaller fraction on the radio.
    let w = world(4);
    let bill = |t0: usize| {
        let cfg = FedMlConfig::new(0.1, 0.05)
            .with_local_steps(t0)
            .with_total_iterations(40);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sim = SimRunner::new(SimConfig::edge().with_iteration_time(0.02)).run(
            &FedMl::new(cfg),
            &w.model,
            &w.tasks,
            &w.theta0,
            &mut rng,
        );
        EnergyModel::edge_board().price(&sim.comm, &sim.compute, 0.0)
    };
    let chatty = bill(1);
    let batched = bill(10);
    assert!(
        batched.radio_fraction() < chatty.radio_fraction(),
        "T0=10 radio fraction {} should be below T0=1's {}",
        batched.radio_fraction(),
        chatty.radio_fraction()
    );
    assert!(batched.total_j() < chatty.total_j());
}
