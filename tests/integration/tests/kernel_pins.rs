//! Literal bit pins of the model kernels and of training on an `Mlp`.
//!
//! Recorded at the commit *before* the allocating `*_alloc` kernel
//! twins and their helper copies were deleted from `fml-models`, from
//! the allocating paths themselves; each model now has one kernel path
//! and these digests are what holds its bits in place. Every other
//! literal `param_hash` pin in this suite trains a softmax, logistic or
//! linear model — only this file reaches the MLP's forward, backward and
//! R-operator passes (and, through Robust FedML, its `input_grad` and
//! `sample_loss`).

use fml_core::{FedMl, FedMlConfig, LocalStepper, RobustFedMl, RobustFedMlConfig, SourceTask};
use fml_data::synthetic::SyntheticConfig;
use fml_linalg::Matrix;
use fml_models::{
    Activation, Batch, LogisticRegression, Mlp, MlpBuilder, Model, Prediction, SoftmaxRegression,
};
use fml_runtime::param_hash;
use rand::{Rng, SeedableRng};

/// Seeded parameters, a 6-sample batch with labels cycling over
/// `classes`, and an HVP direction.
fn inputs(model: &dyn Model, classes: usize, seed: u64) -> (Vec<f64>, Batch, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let params = model.init_params(&mut rng);
    let (n, dim) = (6, model.input_dim());
    let mut xs = Matrix::zeros(n, dim);
    for r in 0..n {
        for c in 0..dim {
            xs.set(r, c, rng.gen::<f64>() - 0.5);
        }
    }
    let labels = (0..n).map(|r| r % classes).collect();
    let batch = Batch::classification(xs, labels).unwrap();
    let v = (0..params.len()).map(|_| rng.gen::<f64>() - 0.5).collect();
    (params, batch, v)
}

/// Digests of `loss`, `grad`, `hvp` on the seeded batch, then of
/// `input_grad`, `sample_loss` and `predict`'s probabilities on its
/// second sample.
fn kernel_digests(model: &dyn Model, classes: usize, seed: u64) -> [String; 6] {
    let (params, batch, v) = inputs(model, classes, seed);
    let (x, y) = (batch.feature(1), batch.target(1));
    let Prediction::Class { probs, .. } = model.predict(&params, x) else {
        panic!("classifier expected");
    };
    [
        param_hash(&[model.loss(&params, &batch)]),
        param_hash(&model.grad(&params, &batch)),
        param_hash(&model.hvp(&params, &batch, &v)),
        param_hash(&model.input_grad(&params, x, y)),
        param_hash(&[model.sample_loss(&params, x, y)]),
        param_hash(&probs),
    ]
}

fn mlp(dim: usize, hidden: &[usize], classes: usize, act: Activation, l2: f64) -> Mlp {
    MlpBuilder::new(dim, classes)
        .hidden(hidden)
        .activation(act)
        .l2(l2)
        .build()
        .unwrap()
}

/// Name, model, class count, and its six pinned digests.
type Case = (&'static str, Box<dyn Model>, usize, [&'static str; 6]);

#[test]
fn kernel_bits_are_pinned_for_every_classifier() {
    let cases: [Case; 5] = [
        (
            "mlp tanh 2-hidden l2",
            Box::new(mlp(5, &[7, 4], 3, Activation::Tanh, 0.01)),
            3,
            [
                "52b7131e463fed6e",
                "bce024cb16cffc39",
                "b7fd4f7a0a35b763",
                "7227203ff8d47d49",
                "2021d555b079e85f",
                "32d526bffb213da4",
            ],
        ),
        (
            "mlp relu 1-hidden",
            Box::new(mlp(4, &[6], 3, Activation::Relu, 0.0)),
            3,
            [
                "ecf7ac38c4dbdff0",
                "6ea343b2dc27c3fe",
                "ef95d8d56c87b908",
                "c4764266db58b29b",
                "cb76691b857dd634",
                "00bd3aade71e7a1a",
            ],
        ),
        (
            "mlp zero-hidden",
            Box::new(mlp(4, &[], 2, Activation::Relu, 0.0)),
            2,
            [
                "06b29e730f377eac",
                "899dc2c178398753",
                "6a1b94ced98753d2",
                "8da7642cd230a70f",
                "48f60361a476880c",
                "49c67d7403970407",
            ],
        ),
        (
            "softmax l2",
            Box::new(SoftmaxRegression::new(5, 4).with_l2(0.02)),
            4,
            [
                "2ef7bc61c3d1a367",
                "b909abf6542c8531",
                "2cb6de5542a15cb4",
                "ed520f10b83540b1",
                "9e1d05a1532c19c5",
                "405b1ca26bbe272b",
            ],
        ),
        (
            "logistic l2",
            Box::new(LogisticRegression::new(4).with_l2(0.05)),
            2,
            [
                "f72063b18c83f0ab",
                "39b8d57cb15d2fc7",
                "22f9d0f503014275",
                "fa9811bcbdf15259",
                "06cbe8fc73318402",
                "20ba65ae5e57d29d",
            ],
        ),
    ];
    for (i, (name, model, classes, pins)) in cases.iter().enumerate() {
        let got = kernel_digests(model.as_ref(), *classes, 100 + i as u64);
        assert_eq!(
            got, *pins,
            "{name}: [loss, grad, hvp, input_grad, sample_loss, probs]"
        );
    }
}

const NODES: usize = 8;
const DIM: usize = 6;
const CLASSES: usize = 3;

fn mlp_fixture() -> (Mlp, Vec<SourceTask>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let fed = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(NODES)
        .with_dim(DIM)
        .with_classes(CLASSES)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 4);
    let model = mlp(DIM, &[8], CLASSES, Activation::Tanh, 1e-3);
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

#[test]
fn fedml_on_an_mlp_is_pinned_at_1_and_4_threads() {
    let (model, tasks, theta0) = mlp_fixture();
    let cfg = FedMlConfig::new(0.03, 0.03)
        .with_local_steps(3)
        .with_rounds(4);
    for threads in [1usize, 4] {
        let out = FedMl::new(cfg.with_threads(threads)).train_from(&model, &tasks, &theta0);
        assert_eq!(
            param_hash(&out.params),
            "d351e10cf81b23f7",
            "{threads} threads"
        );
    }
}

#[test]
fn robust_fedml_on_an_mlp_is_pinned() {
    // N0 = 1: every node generates adversarial samples (Mlp::input_grad
    // and Mlp::sample_loss, Ta = 5 ascent steps each) after each of the
    // first two rounds.
    let (model, tasks, theta0) = mlp_fixture();
    let cfg = RobustFedMlConfig::new(0.03, 0.03, 1.0)
        .with_local_steps(2)
        .with_rounds(4)
        .with_adversarial(1.0, 5, 1, 2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let out = RobustFedMl::new(cfg).train_from(&model, &tasks, &theta0, &mut rng);
    assert_eq!(param_hash(&out.params), "e9414a8c58170056");
}
