//! Criterion benches on the hot kernels of the federated meta-learning
//! stack: meta-gradients (analytic HVP vs finite difference), platform
//! aggregation, adversarial surrogate maximization, the wire codec, the
//! workspace (zero-allocation) model kernels, and the fleet node's
//! kernels at its shape. Print-only: timings go
//! to stdout and nothing is written; the tracked series is `perf/`.

use criterion::{black_box, BenchmarkId, Criterion};
use fml_core::meta::{self, MetaGradientMode};
use fml_core::{FedMl, FedMlConfig, LocalStepper, Scratch, SourceTask};
use fml_data::TaskSplit;
use fml_dro::{RobustSurrogate, SquaredL2Cost};
use fml_linalg::{vector, Matrix};
use fml_models::{Activation, Batch, Mlp, MlpBuilder, Model, SoftmaxRegression, Workspace};
use fml_sim::message::{encode_global_into, encoded_frame_len};
use fml_sim::{
    compressed_frame_len, encode_update_compressed_into, CodecScratch, CompressedView, FramePool,
    MessageView, UpdateCodec,
};
use rand::{Rng, SeedableRng};

fn softmax_setup(dim: usize, classes: usize, n: usize) -> (SoftmaxRegression, Vec<f64>, Batch) {
    let model = SoftmaxRegression::new(dim, classes).with_l2(1e-3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let params = model.init_params(&mut rng);
    let mut xs = Matrix::zeros(n, dim);
    let mut ys = Vec::with_capacity(n);
    for r in 0..n {
        for c in 0..dim {
            xs.set(r, c, rng.gen::<f64>() - 0.5);
        }
        ys.push(r % classes);
    }
    (model, params, Batch::classification(xs, ys).unwrap())
}

fn mlp_setup(dim: usize, hidden: &[usize], classes: usize, n: usize) -> (Mlp, Vec<f64>, Batch) {
    let model = MlpBuilder::new(dim, classes)
        .hidden(hidden)
        .activation(Activation::Tanh)
        .build()
        .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let params = model.init_params(&mut rng);
    let mut xs = Matrix::zeros(n, dim);
    let mut ys = Vec::with_capacity(n);
    for r in 0..n {
        for c in 0..dim {
            xs.set(r, c, rng.gen::<f64>() - 0.5);
        }
        ys.push(r % classes);
    }
    (model, params, Batch::classification(xs, ys).unwrap())
}

fn bench_hvp(c: &mut Criterion) {
    let mut group = c.benchmark_group("hvp");
    // Analytic softmax HVP vs the trait's finite-difference default.
    let (model, params, batch) = softmax_setup(60, 10, 17);
    let v: Vec<f64> = (0..params.len())
        .map(|i| ((i % 7) as f64 - 3.0) / 7.0)
        .collect();
    group.bench_function("softmax_analytic", |b| {
        b.iter(|| model.hvp(black_box(&params), &batch, black_box(&v)))
    });
    group.bench_function("softmax_finite_diff", |b| {
        b.iter(|| {
            // The default implementation path: two gradient probes.
            let eps = 1e-6;
            let mut plus = params.clone();
            vector::axpy(eps, &v, &mut plus);
            let mut minus = params.clone();
            vector::axpy(-eps, &v, &mut minus);
            let gp = model.grad(&plus, &batch);
            let gm = model.grad(&minus, &batch);
            black_box(vector::sub(&gp, &gm))
        })
    });
    let (mlp, mparams, mbatch) = mlp_setup(32, &[32], 2, 32);
    let mv: Vec<f64> = (0..mparams.len())
        .map(|i| ((i % 5) as f64 - 2.0) / 5.0)
        .collect();
    group.bench_function("mlp_pearlmutter", |b| {
        b.iter(|| mlp.hvp(black_box(&mparams), &mbatch, black_box(&mv)))
    });
    group.finish();
}

fn bench_meta_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("meta_gradient");
    let (model, params, batch) = softmax_setup(60, 10, 17);
    let (train, test) = batch.split_at(5);
    for (name, mode) in [
        ("full_second_order", MetaGradientMode::FullSecondOrder),
        ("first_order", MetaGradientMode::FirstOrder),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| meta::meta_gradient(&model, black_box(&params), &train, &test, 0.01, mode))
        });
    }
    // The `compute_mlp_channel` node step: MLP 30-32-10, train 10 / test 32.
    let (mlp, mparams, mbatch) = mlp_setup(30, &[32], 10, 42);
    let (mtrain, mtest) = mbatch.split_at(10);
    group.bench_function("mlp_30x32x10_full_second_order", |b| {
        b.iter(|| {
            meta::meta_gradient(
                &mlp,
                black_box(&mparams),
                &mtrain,
                &mtest,
                0.01,
                MetaGradientMode::FullSecondOrder,
            )
        })
    });
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation");
    for &nodes in &[10usize, 50, 200] {
        let dim = 610; // softmax 10x60 + 10
        let params: Vec<Vec<f64>> = (0..nodes)
            .map(|i| (0..dim).map(|j| (i * j) as f64 / 1e3).collect())
            .collect();
        let views: Vec<&[f64]> = params.iter().map(|p| p.as_slice()).collect();
        let weights = vec![1.0 / nodes as f64; nodes];
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| vector::weighted_sum(black_box(&views), black_box(&weights)))
        });
    }
    group.finish();
}

fn bench_adversarial(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversarial");
    let (model, params, batch) = softmax_setup(64, 10, 8);
    for &lambda in &[0.1, 1.0, 10.0] {
        let s = RobustSurrogate::new(SquaredL2Cost, lambda)
            .with_steps(10)
            .with_step_size(1.0);
        group.bench_with_input(BenchmarkId::from_parameter(lambda), &lambda, |b, _| {
            b.iter(|| {
                s.maximize(
                    &model,
                    black_box(&params),
                    black_box(batch.feature(0)),
                    batch.target(0),
                )
            })
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_codec");
    // 7850 is `wire_quant_tcp`'s softmax 784x10.
    for &dim in &[610usize, 4906, 7850] {
        let params: Vec<f64> = (0..dim).map(|i| i as f64 * 0.5).collect();
        let pool = FramePool::new();
        let encode = || {
            let mut buf = pool.acquire(encoded_frame_len(dim));
            encode_global_into(1, black_box(&params), &mut buf);
            buf
        };
        group.bench_with_input(BenchmarkId::new("encode", dim), &dim, |b, _| {
            b.iter(|| pool.release(encode()))
        });
        let frame = encode();
        group.bench_with_input(BenchmarkId::new("decode", dim), &dim, |b, _| {
            b.iter(|| {
                let view = MessageView::parse(black_box(&frame)).unwrap();
                view.params_to_vec()
            })
        });
    }
    // The quant8 uplink at 7850 parameters: what a node encodes and the
    // platform dequantizes each round.
    let dim = 7850;
    let params: Vec<f64> = (0..dim).map(|i| ((i as f64) * 0.37).sin() * 3.0).collect();
    let codec = UpdateCodec::Quant { bits: 8 };
    let pool = FramePool::new();
    let mut scratch = CodecScratch::new();
    let mut encode = || {
        let mut buf = pool.acquire(compressed_frame_len(codec, dim));
        encode_update_compressed_into(codec, 1, 0, black_box(&params), &mut scratch, &mut buf);
        buf
    };
    group.bench_with_input(BenchmarkId::new("quant8_encode", dim), &dim, |b, _| {
        b.iter(|| pool.release(encode()))
    });
    let frame = encode();
    let mut out = vec![0.0; dim];
    group.bench_with_input(BenchmarkId::new("quant8_decode", dim), &dim, |b, _| {
        b.iter(|| {
            let view = CompressedView::parse(black_box(&frame)).unwrap();
            view.write_params(&mut out);
            out.last().copied()
        })
    });
    group.finish();
}

fn bench_workspace_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("workspace");

    // MLP batch gradient + Pearlmutter HVP at batch 256 on an edge-scale
    // network, reusing one scratch set.
    let (mlp, params, batch) = mlp_setup(4, &[4], 2, 256);
    let v: Vec<f64> = (0..params.len())
        .map(|i| ((i % 5) as f64 - 2.0) / 5.0)
        .collect();
    let mut ws = mlp.workspace();
    let mut g = vec![0.0; params.len()];
    let mut hv = vec![0.0; params.len()];
    group.bench_function("mlp_grad_hvp_ws_256", |b| {
        b.iter(|| {
            mlp.grad_into(black_box(&params), &batch, &mut ws, &mut g);
            mlp.hvp_into(black_box(&params), &batch, &v, &mut ws, &mut hv);
            (g.last().copied(), hv.last().copied())
        })
    });
    // The same pair at one point, the HVP replaying the gradient's
    // forward pass.
    let mut set_v = |buf: &mut [f64], _: &mut Workspace| buf.copy_from_slice(&v);
    group.bench_function("mlp_grad_then_hvp_ws_256", |b| {
        b.iter(|| {
            mlp.grad_then_hvp_into(
                black_box(&params),
                &batch,
                &mut ws,
                &mut g,
                &mut set_v,
                &mut hv,
            );
            (g.last().copied(), hv.last().copied())
        })
    });

    // The same pair for softmax regression (the paper's MNIST model).
    let (sm, sparams, sbatch) = softmax_setup(32, 8, 256);
    let sv: Vec<f64> = (0..sparams.len())
        .map(|i| ((i % 7) as f64 - 3.0) / 7.0)
        .collect();
    let mut sws = sm.workspace();
    let mut sg = vec![0.0; sparams.len()];
    let mut shv = vec![0.0; sparams.len()];
    group.bench_function("softmax_grad_hvp_ws_256", |b| {
        b.iter(|| {
            sm.grad_into(black_box(&sparams), &sbatch, &mut sws, &mut sg);
            sm.hvp_into(black_box(&sparams), &sbatch, &sv, &mut sws, &mut shv);
            (sg.last().copied(), shv.last().copied())
        })
    });
    group.finish();
}

/// The `fleet_softmax_channel` node's kernels: softmax 20x5 (105
/// parameters) on one held workspace, at node sizes 8 and 16. The curve
/// takes `loss_grad_into` on the support where it took `grad_into` and
/// `loss_with`; the step is one second-order meta-gradient on the first
/// five samples (the fleet's `k`) against the rest.
fn bench_fleet_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_softmax_20x5");
    for n in [8usize, 16] {
        let (model, params, batch) = softmax_setup(20, 5, n);
        let mut ws = model.workspace();
        let mut g = vec![0.0; params.len()];
        group.bench_with_input(BenchmarkId::new("loss_with", n), &n, |b, _| {
            b.iter(|| model.loss_with(black_box(&params), &batch, &mut ws))
        });
        group.bench_with_input(BenchmarkId::new("grad_into", n), &n, |b, _| {
            b.iter(|| {
                model.grad_into(black_box(&params), &batch, &mut ws, &mut g);
                g.last().copied()
            })
        });
        group.bench_with_input(BenchmarkId::new("loss_grad_into", n), &n, |b, _| {
            b.iter(|| model.loss_grad_into(black_box(&params), &batch, &mut ws, &mut g))
        });
        // The node step on a held scratch: the meta-gradient and its
        // β-step, as `local_update_into` with `T0 = 1` runs it.
        let (train, test) = batch.split_at(5);
        let task = SourceTask {
            id: 0,
            split: TaskSplit { train, test },
            weight: 1.0,
        };
        let fedml = FedMl::new(FedMlConfig::new(0.05, 0.3));
        let mut scratch = Scratch::for_model(&model);
        let mut out = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("meta_gradient_full_second_order", n),
            &n,
            |b, _| {
                b.iter(|| {
                    fedml.local_update_into(
                        &model,
                        &task,
                        black_box(&params),
                        1,
                        &mut scratch,
                        &mut out,
                    );
                    out.last().copied()
                })
            },
        );
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_hvp(&mut c);
    bench_meta_gradient(&mut c);
    bench_aggregation(&mut c);
    bench_adversarial(&mut c);
    bench_codec(&mut c);
    bench_workspace_kernels(&mut c);
    bench_fleet_kernels(&mut c);
}
