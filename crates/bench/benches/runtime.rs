//! Criterion benches on the `fml-runtime` actor runtime: wire-frame
//! encode/decode throughput and full barrier/async rounds over real
//! message-passing, against the in-process `train_from` oracle as the
//! no-messaging baseline. Timed runs write a `runtime` section to
//! `BENCH_pr3.json` at the repository root (skipped in `--test` mode).

use criterion::{black_box, BenchmarkId, Criterion};
use fml_core::{FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::{AsyncPolicy, Runtime, RuntimeConfig, VirtualClock};
use fml_sim::Message;
use rand::SeedableRng;

const DIM: usize = 20;
const CLASSES: usize = 5;

fn setup(nodes: usize) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let fed = fml_data::synthetic::SyntheticConfig::new(0.5, 0.5)
        .with_nodes(nodes)
        .with_dim(DIM)
        .with_classes(CLASSES)
        .with_mean_samples(16.0)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 5);
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

fn trainer(rounds: usize) -> FedMl {
    FedMl::new(
        FedMlConfig::new(0.01, 0.01)
            .with_local_steps(5)
            .with_rounds(rounds)
            .with_record_every(0),
    )
}

/// Frame throughput: encode and decode of a softmax-sized parameter
/// frame, the unit of every hop in the runtime.
fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("frames");
    let params: Vec<f64> = (0..DIM * CLASSES + CLASSES).map(|i| i as f64 * 0.25).collect();
    let msg = Message::GlobalModel {
        round: 7,
        params: params.clone(),
    };
    group.bench_function("encode", |b| b.iter(|| black_box(&msg).encode()));
    let bytes = msg.encode();
    group.bench_function("decode", |b| {
        b.iter(|| Message::decode(black_box(&bytes)).unwrap())
    });
    let v0 = msg.encode_v0();
    group.bench_function("decode_v0", |b| {
        b.iter(|| Message::decode(black_box(&v0)).unwrap())
    });
    group.finish();
}

/// A full training run: the in-process oracle vs the barrier runtime at
/// several thread counts (messaging + threading overhead) vs async mode.
fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_rounds");
    let (model, tasks, theta0) = setup(10);
    let fedml = trainer(2);
    group.bench_function("train_from_oracle", |b| {
        b.iter(|| fedml.train_from(&model, black_box(&tasks), &theta0))
    });
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("barrier", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    Runtime::new(RuntimeConfig::barrier(1).with_threads(threads)).run(
                        &fedml,
                        &model,
                        black_box(&tasks),
                        &theta0,
                    )
                })
            },
        );
    }
    let async_cfg = RuntimeConfig::async_mode(1, AsyncPolicy::default().with_max_staleness(2))
        .with_clock(VirtualClock::new(1).with_base_delay(0.1).with_jitter(1.5));
    group.bench_function("async_s2", |b| {
        b.iter(|| {
            Runtime::new(async_cfg.clone()).run(&fedml, &model, black_box(&tasks), &theta0)
        })
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_frames(&mut c);
    bench_rounds(&mut c);

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
            "barrier_runtime_vs_in_process_oracle",
            &results,
            "runtime_rounds/barrier/1",
            "runtime_rounds/train_from_oracle",
        ),
        fml_bench::perf::comparison(
            "barrier_4_threads_vs_1",
            &results,
            "runtime_rounds/barrier/1",
            "runtime_rounds/barrier/4",
        ),
        fml_bench::perf::comparison(
            "versioned_decode_vs_v0",
            &results,
            "frames/decode_v0",
            "frames/decode",
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    fml_bench::perf::write_report_named(
        "BENCH_pr3.json",
        "runtime",
        fml_bench::perf::PerfSection {
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            results,
            comparisons,
        },
    );
}
