//! Simulator integration: algorithm ↔ systems-layer interactions that no
//! single crate can test alone.

use fml_core::{FedAvg, FedAvgConfig, FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::SimRunner;
use fml_sim::{LinkModel, Network, SimConfig};
use rand::SeedableRng;

fn setup(seed: u64, nodes: usize) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let fed = fml_data::synthetic::SyntheticConfig::new(0.5, 0.5)
        .with_nodes(nodes)
        .with_dim(8)
        .with_classes(3)
        .with_mean_samples(20.0)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 5);
    let model = SoftmaxRegression::new(8, 3).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

#[test]
fn simulated_fedml_matches_reference_on_real_models() {
    let (model, tasks, theta0) = setup(0, 6);
    let cfg = FedMlConfig::new(0.02, 0.02)
        .with_local_steps(3)
        .with_rounds(8);
    let reference = FedMl::new(cfg).train_from(&model, &tasks, &theta0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let sim =
        SimRunner::new(SimConfig::ideal()).run(&FedMl::new(cfg), &model, &tasks, &theta0, &mut rng);
    assert!(fml_linalg::vector::approx_eq(
        &sim.params,
        &reference.params,
        1e-10
    ));
}

#[test]
fn uplink_bytes_scale_with_model_size() {
    let (model_small, tasks_small, theta_small) = setup(2, 4);
    let cfg = FedMlConfig::new(0.02, 0.02)
        .with_local_steps(2)
        .with_rounds(3);
    let mut r1 = rand::rngs::StdRng::seed_from_u64(3);
    let small = SimRunner::new(SimConfig::edge()).run(
        &FedMl::new(cfg),
        &model_small,
        &tasks_small,
        &theta_small,
        &mut r1,
    );

    // Same federation shape, bigger model (more classes → more params).
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let fed = fml_data::synthetic::SyntheticConfig::new(0.5, 0.5)
        .with_nodes(4)
        .with_dim(8)
        .with_classes(10)
        .with_mean_samples(20.0)
        .generate(&mut rng);
    let tasks_big = SourceTask::from_nodes_deterministic(fed.nodes(), 5);
    let model_big = SoftmaxRegression::new(8, 10).with_l2(1e-3);
    let theta_big = model_big.init_params(&mut rng);
    let mut r2 = rand::rngs::StdRng::seed_from_u64(3);
    let big = SimRunner::new(SimConfig::edge()).run(
        &FedMl::new(cfg),
        &model_big,
        &tasks_big,
        &theta_big,
        &mut r2,
    );

    let ratio = big.comm.bytes_up as f64 / small.comm.bytes_up as f64;
    let param_ratio = model_big.param_len() as f64 / model_small.param_len() as f64;
    assert!(
        (ratio - param_ratio).abs() / param_ratio < 0.05,
        "bytes should track parameter count: bytes ratio {ratio:.2}, param ratio {param_ratio:.2}"
    );
}

#[test]
fn larger_t0_reduces_communication_for_same_iteration_budget() {
    let (model, tasks, theta0) = setup(4, 6);
    let run = |t0: usize| {
        let cfg = FedMlConfig::new(0.02, 0.02)
            .with_local_steps(t0)
            .with_total_iterations(60);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        SimRunner::new(SimConfig::edge()).run(&FedMl::new(cfg), &model, &tasks, &theta0, &mut rng)
    };
    let t1 = run(1);
    let t10 = run(10);
    assert!(
        t10.comm.total_bytes() * 5 < t1.comm.total_bytes(),
        "T0=10 should cut communication ~10x: {} vs {}",
        t10.comm.total_bytes(),
        t1.comm.total_bytes()
    );
}

#[test]
fn lossy_network_slows_but_does_not_corrupt() {
    let (model, tasks, theta0) = setup(6, 5);
    let cfg = FedMlConfig::new(0.02, 0.02)
        .with_local_steps(3)
        .with_rounds(10);
    let clean_net = SimConfig {
        network: Network::new(
            LinkModel::new(1e6, 0.01, 0.0),
            LinkModel::new(1e6, 0.01, 0.0),
        ),
        ..SimConfig::ideal()
    };
    let lossy_net = SimConfig {
        network: Network::new(
            LinkModel::new(1e6, 0.01, 0.4),
            LinkModel::new(1e6, 0.01, 0.4),
        ),
        ..SimConfig::ideal()
    };
    let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
    let clean = SimRunner::new(clean_net).run(&FedMl::new(cfg), &model, &tasks, &theta0, &mut r1);
    let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
    let lossy = SimRunner::new(lossy_net).run(&FedMl::new(cfg), &model, &tasks, &theta0, &mut r2);
    assert!(lossy.comm.retransmissions > 0, "40% loss should retransmit");
    assert!(lossy.comm.time_s > clean.comm.time_s, "loss costs time");
    // Retransmission is transparent to the algorithm.
    assert!(fml_linalg::vector::approx_eq(
        &lossy.params,
        &clean.params,
        1e-12
    ));
}

#[test]
fn fedavg_and_fedml_costs_are_comparable_on_the_wire() {
    // The two algorithms ship the same parameter vectors; their wire costs
    // per round must be identical — the difference is purely local compute.
    let (model, tasks, theta0) = setup(8, 5);
    let mut r1 = rand::rngs::StdRng::seed_from_u64(9);
    let ml = SimRunner::new(SimConfig::edge()).run(
        &FedMl::new(
            FedMlConfig::new(0.02, 0.02)
                .with_local_steps(4)
                .with_rounds(5),
        ),
        &model,
        &tasks,
        &theta0,
        &mut r1,
    );
    let mut r2 = rand::rngs::StdRng::seed_from_u64(9);
    let avg = SimRunner::new(SimConfig::edge()).run(
        &FedAvg::new(FedAvgConfig::new(0.02).with_local_steps(4).with_rounds(5)),
        &model,
        &tasks,
        &theta0,
        &mut r2,
    );
    assert_eq!(ml.comm.bytes_up, avg.comm.bytes_up);
    assert_eq!(ml.comm.bytes_down, avg.comm.bytes_down);
    assert!(ml.compute.hvp_evals > 0);
    assert_eq!(avg.compute.hvp_evals, 0);
}

#[test]
fn dropout_runs_still_converge_reasonably() {
    let (model, tasks, theta0) = setup(10, 8);
    let cfg = FedMlConfig::new(0.05, 0.05)
        .with_local_steps(3)
        .with_rounds(40);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let sim = SimRunner::new(SimConfig::ideal().with_dropout(0.3)).run(
        &FedMl::new(cfg),
        &model,
        &tasks,
        &theta0,
        &mut rng,
    );
    let first = sim.history.first().unwrap().1;
    let last = sim.history.last().unwrap().1;
    assert!(
        last < first,
        "training should still make progress under 30% dropout: {first} -> {last}"
    );
}
