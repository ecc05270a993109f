//! Thread-count determinism of the parallel per-node fan-out.
//!
//! Every federated trainer fans its local node updates out with
//! `fml_core::parallel::map_ordered`, whose contract is that results come
//! back in participant order regardless of thread count. These tests pin
//! the user-visible consequence: a seeded run is **bitwise identical** —
//! final parameters *and* the recorded curve, one point per aggregation —
//! whether it runs on one worker thread or many.

use fml_core::{
    FedAvg, FedAvgConfig, FedMl, FedMlConfig, LocalStepper, MetaSgd, MetaSgdConfig, Reptile,
    ReptileConfig, SourceTask, TrainOutput,
};
use fml_core::{FedProx, FedProxConfig};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
use rand::SeedableRng;

const NODES: usize = 8;
const DIM: usize = 6;
const CLASSES: usize = 3;

fn fixture() -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
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

/// Bitwise equality of two runs: exact parameter bits and the exact
/// recorded curve (losses compared with `==`, not a tolerance).
fn assert_identical(name: &str, a: &TrainOutput, b: &TrainOutput) {
    assert_eq!(a.params, b.params, "{name}: params differ across threads");
    assert_eq!(
        a.history.len(),
        b.history.len(),
        "{name}: history length differs"
    );
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(ra, rb, "{name}: history record differs across threads");
    }
    assert_eq!(a.comm_rounds, b.comm_rounds);
    assert_eq!(a.local_iterations, b.local_iterations);
}

#[test]
fn fedml_is_bitwise_identical_across_thread_counts() {
    let (model, tasks, theta0) = fixture();
    let cfg = FedMlConfig::new(0.03, 0.03)
        .with_local_steps(3)
        .with_rounds(4);
    let one = FedMl::new(cfg.with_threads(1)).train_from(&model, &tasks, &theta0);
    let four = FedMl::new(cfg.with_threads(4)).train_from(&model, &tasks, &theta0);
    assert_identical("FedML", &one, &four);
}

#[test]
fn fedavg_is_bitwise_identical_across_thread_counts() {
    let (model, tasks, theta0) = fixture();
    let cfg = |threads| FedAvgConfig {
        threads: Some(threads),
        ..FedAvgConfig::new(0.05).with_local_steps(3).with_rounds(4)
    };
    let one = FedAvg::new(cfg(1)).train_from(&model, &tasks, &theta0);
    let four = FedAvg::new(cfg(4)).train_from(&model, &tasks, &theta0);
    assert_identical("FedAvg", &one, &four);
}

#[test]
fn fedprox_is_bitwise_identical_across_thread_counts() {
    let (model, tasks, theta0) = fixture();
    let cfg = |threads| FedProxConfig {
        threads: Some(threads),
        ..FedProxConfig::new(0.05, 0.5)
            .with_local_steps(3)
            .with_rounds(4)
    };
    let one = FedProx::new(cfg(1)).train_from(&model, &tasks, &theta0);
    let four = FedProx::new(cfg(4)).train_from(&model, &tasks, &theta0);
    assert_identical("FedProx", &one, &four);
}

#[test]
fn metasgd_is_bitwise_identical_across_thread_counts() {
    let (model, tasks, theta0) = fixture();
    let cfg = |threads| MetaSgdConfig {
        threads: Some(threads),
        ..MetaSgdConfig::new(0.03, 0.03)
            .with_local_steps(3)
            .with_rounds(4)
    };
    let one = MetaSgd::new(cfg(1)).train_from(&model, &tasks, &theta0);
    let four = MetaSgd::new(cfg(4)).train_from(&model, &tasks, &theta0);
    assert_identical("MetaSGD", &one.train, &four.train);
    assert_eq!(one.rates, four.rates, "MetaSGD: learned rates differ");
}

#[test]
fn reptile_is_bitwise_identical_across_thread_counts() {
    let (model, tasks, theta0) = fixture();
    let cfg = |threads| ReptileConfig {
        threads: Some(threads),
        ..ReptileConfig::new(0.05, 0.5)
            .with_inner_steps(3)
            .with_rounds(4)
    };
    let one = Reptile::new(cfg(1)).train_from(&model, &tasks, &theta0);
    let four = Reptile::new(cfg(4)).train_from(&model, &tasks, &theta0);
    assert_identical("Reptile", &one, &four);
}

#[test]
fn auto_thread_default_matches_explicit_single_thread() {
    // `threads: None` must pick some worker count without changing the
    // result — the fan-out contract, exercised end to end.
    let (model, tasks, theta0) = fixture();
    let base = FedMlConfig::new(0.03, 0.03)
        .with_local_steps(2)
        .with_rounds(3);
    let auto = FedMl::new(base).train_from(&model, &tasks, &theta0);
    let single = FedMl::new(base.with_threads(1)).train_from(&model, &tasks, &theta0);
    assert_identical("FedML(auto)", &auto, &single);
}

#[test]
#[should_panic(expected = "thread count must be at least 1")]
fn zero_threads_is_rejected() {
    let _ = FedMlConfig::new(0.01, 0.01).with_threads(0);
}

#[test]
fn oversubscribed_threads_are_harmless() {
    // More threads than nodes: map_ordered clamps to the item count.
    let (model, tasks, theta0) = fixture();
    let cfg = |threads| FedAvgConfig {
        threads: Some(threads),
        ..FedAvgConfig::new(0.05).with_local_steps(2).with_rounds(2)
    };
    let one = FedAvg::new(cfg(1)).train_from(&model, &tasks, &theta0);
    let many = FedAvg::new(cfg(64)).train_from(&model, &tasks, &theta0);
    assert_identical("FedAvg(64)", &one, &many);
}
