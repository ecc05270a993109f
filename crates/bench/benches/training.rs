//! Criterion benches on end-to-end training rounds: FedML vs baselines
//! per communication round, Robust FedML's adversarial-generation
//! overhead, the simulator's executor across thread counts, and the
//! trainers' own per-node fan-out (sequential vs parallel). Timed runs
//! append a `training` section to `BENCH_pr1.json` at the repository
//! root (skipped in `--test` mode).

use criterion::{black_box, BenchmarkId, Criterion};
use fml_core::{
    FedAvg, FedAvgConfig, FedMl, FedMlConfig, LocalStepper, MetaGradientMode, RobustFedMl,
    RobustFedMlConfig, SourceTask,
};
use fml_models::{Activation, Mlp, MlpBuilder, Model, SoftmaxRegression};
use fml_sim::{SimConfig, SimRunner};
use rand::SeedableRng;

fn setup(nodes: usize) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let fed = fml_data::synthetic::SyntheticConfig::new(0.5, 0.5)
        .with_nodes(nodes)
        .with_dim(20)
        .with_classes(5)
        .with_mean_samples(16.0)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 5);
    let model = SoftmaxRegression::new(20, 5).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

fn bench_one_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("one_round");
    let (model, tasks, theta0) = setup(10);
    let fedml = FedMl::new(
        FedMlConfig::new(0.01, 0.01)
            .with_local_steps(5)
            .with_rounds(1)
            .with_record_every(0),
    );
    group.bench_function("fedml_t0_5", |b| {
        b.iter(|| fedml.train_from(&model, black_box(&tasks), &theta0))
    });
    let fomaml = FedMl::new(
        FedMlConfig::new(0.01, 0.01)
            .with_local_steps(5)
            .with_rounds(1)
            .with_mode(MetaGradientMode::FirstOrder)
            .with_record_every(0),
    );
    group.bench_function("fomaml_t0_5", |b| {
        b.iter(|| fomaml.train_from(&model, black_box(&tasks), &theta0))
    });
    let fedavg = FedAvg::new(
        FedAvgConfig::new(0.01)
            .with_local_steps(5)
            .with_rounds(1)
            .with_record_every(0),
    );
    group.bench_function("fedavg_t0_5", |b| {
        b.iter(|| fedavg.train_from(&model, black_box(&tasks), &theta0))
    });
    group.finish();
}

fn bench_robust_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("robust_round");
    let (model, tasks, theta0) = setup(6);
    for &lambda in &[0.1, 10.0] {
        // N0 = 1 so the generation path runs inside the measured round.
        let cfg = RobustFedMlConfig::new(0.01, 0.01, lambda)
            .with_local_steps(5)
            .with_rounds(1)
            .with_adversarial(1.0, 10, 1, 1)
            .with_record_every(0);
        group.bench_with_input(BenchmarkId::from_parameter(lambda), &lambda, |b, _| {
            b.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(9);
                RobustFedMl::new(cfg).train_from(&model, black_box(&tasks), &theta0, &mut rng)
            })
        });
    }
    group.finish();
}

fn bench_sim_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_threads");
    let (model, tasks, theta0) = setup(24);
    let cfg = FedMlConfig::new(0.01, 0.01)
        .with_local_steps(5)
        .with_rounds(2)
        .with_record_every(0);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(11);
                SimRunner::new(SimConfig::ideal().with_threads(threads)).run(
                    &FedMl::new(cfg),
                    &model,
                    black_box(&tasks),
                    &theta0,
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

fn mlp_setup(nodes: usize) -> (Mlp, Vec<SourceTask>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let fed = fml_data::synthetic::SyntheticConfig::new(0.5, 0.5)
        .with_nodes(nodes)
        .with_dim(16)
        .with_classes(4)
        .with_mean_samples(24.0)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 6);
    let model = MlpBuilder::new(16, 4)
        .hidden(&[24])
        .activation(Activation::Tanh)
        .l2(1e-3)
        .build()
        .unwrap();
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

fn bench_trainer_threads(c: &mut Criterion) {
    // The trainers' own fan-out (no simulator): one FedMl communication
    // round over 8 MLP nodes, sequential vs parallel workers. On a
    // multi-core host this scales near-linearly in the fan-out portion;
    // BENCH_pr1.json records the host parallelism next to the numbers.
    let mut group = c.benchmark_group("fedml_threads");
    let (model, tasks, theta0) = mlp_setup(8);
    for &threads in &[1usize, 2, 4] {
        let cfg = FedMlConfig::new(0.01, 0.01)
            .with_local_steps(10)
            .with_rounds(1)
            .with_record_every(0)
            .with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| FedMl::new(cfg).train_from(&model, black_box(&tasks), &theta0))
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_one_round(&mut c);
    bench_robust_generation(&mut c);
    bench_sim_threads(&mut c);
    bench_trainer_threads(&mut c);

    // Timed runs (not `--test`) record the perf trajectory.
    if c.results().is_empty() {
        return;
    }
    let results: Vec<fml_bench::perf::PerfResult> = c
        .results()
        .iter()
        .map(|r| fml_bench::perf::PerfResult {
            id: r.id.clone(),
            ns_per_iter: r.ns_per_iter,
        })
        .collect();
    let comparisons = [
        fml_bench::perf::comparison(
            "fedml_round_8_mlp_nodes_4_threads_vs_sequential",
            &results,
            "fedml_threads/1",
            "fedml_threads/4",
        ),
        fml_bench::perf::comparison(
            "fedml_round_8_mlp_nodes_2_threads_vs_sequential",
            &results,
            "fedml_threads/1",
            "fedml_threads/2",
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    fml_bench::perf::merge_section(
        "training",
        fml_bench::perf::PerfSection {
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            results,
            comparisons,
        },
    );
}
