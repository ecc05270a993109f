//! Standard experiment workloads: paper-scale dataset + model + task
//! constructions shared by the figure binaries.

use fml_core::SourceTask;
use fml_data::shared_synthetic::SharedSyntheticConfig;
use fml_data::synthetic::SyntheticConfig;
use fml_data::{
    mnist_like::MnistLikeConfig, sent140_like::Sent140LikeConfig, Federation, NodeData,
};
use fml_models::{Activation, Mlp, MlpBuilder, SoftmaxRegression};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A prepared experiment setup: the federation split into meta-training
/// sources (already K-shot split) and held-out targets, plus the model.
#[derive(Debug, Clone)]
pub struct Setup<M> {
    /// The model family trained on this workload.
    pub model: M,
    /// Full federation (kept for statistics).
    pub federation: Federation,
    /// Source nodes (80%).
    pub sources: Vec<NodeData>,
    /// Held-out target nodes (20%).
    pub targets: Vec<NodeData>,
    /// Prepared source tasks with `K`-shot splits and weights.
    pub tasks: Vec<SourceTask>,
    /// The support size `K` used for the splits.
    pub k: usize,
}

/// The tail every workload ends in: the 80/20 source/target split, then
/// the `K`-shot source tasks, drawn from `rng` in that order.
fn setup<M>(federation: Federation, model: M, k: usize, rng: &mut StdRng) -> Setup<M> {
    let (sources, targets) = federation.split_sources_targets(0.8, rng);
    let tasks = SourceTask::from_nodes(&sources, k, rng);
    Setup {
        model,
        federation,
        sources,
        targets,
        tasks,
        k,
    }
}

/// [`setup`] under the convex workloads' model: softmax regression with
/// `l2 = 1e-3`.
fn softmax_setup(federation: Federation, k: usize, rng: &mut StdRng) -> Setup<SoftmaxRegression> {
    let model = SoftmaxRegression::new(federation.dim(), federation.classes()).with_l2(1e-3);
    setup(federation, model, k, rng)
}

/// Builds the paper's Synthetic(α̃, β̃) workload with a softmax-regression
/// model (§VI-A). `quick` shrinks it for smoke tests.
pub fn synthetic(
    alpha: f64,
    beta: f64,
    k: usize,
    quick: bool,
    seed: u64,
) -> Setup<SoftmaxRegression> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = if quick {
        SyntheticConfig::new(alpha, beta)
            .with_nodes(10)
            .with_dim(10)
            .with_classes(5)
            .with_mean_samples(16.0)
    } else {
        SyntheticConfig::new(alpha, beta).with_min_samples((2 * k).max(8))
    };
    softmax_setup(cfg.generate(&mut rng), k, &mut rng)
}

/// Builds the shared-base synthetic workload whose `model_dev` knob
/// controls Assumption-4 node similarity *directly* (see
/// `fml_data::shared_synthetic` for why the paper-exact generator's α̃
/// cancels in the labels). Used by the similarity-axis experiments.
pub fn shared_synthetic(
    model_dev: f64,
    input_dev: f64,
    k: usize,
    quick: bool,
    seed: u64,
) -> Setup<SoftmaxRegression> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = if quick {
        SharedSyntheticConfig::new(model_dev, input_dev)
            .with_nodes(10)
            .with_dim(10)
            .with_classes(5)
            .with_mean_samples(16.0)
    } else {
        SharedSyntheticConfig::new(model_dev, input_dev).with_min_samples((2 * k).max(8))
    };
    softmax_setup(cfg.generate(&mut rng), k, &mut rng)
}

/// Builds the MNIST-like workload with multinomial logistic regression
/// (the paper's convex MNIST experiment).
pub fn mnist(k: usize, quick: bool, seed: u64) -> Setup<SoftmaxRegression> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = if quick {
        MnistLikeConfig::new()
            .with_nodes(16)
            .with_dim(16)
            .with_mean_samples(24.0)
    } else {
        MnistLikeConfig::new().with_min_samples((2 * k).max(10))
    };
    softmax_setup(cfg.generate(&mut rng), k, &mut rng)
}

/// Builds the Sent140-like workload with an MLP head over frozen
/// embeddings (the paper's non-convex experiment). The paper's 706 users
/// with a `[256, 128, 64]` tower is scaled to 200 users with a `[32]` hidden
/// layer so the full (non-`--quick`) run completes in minutes on a
/// laptop; the statistical structure (many small heterogeneous users,
/// non-convex model) is unchanged.
pub fn sent140(k: usize, quick: bool, seed: u64) -> Setup<Mlp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = if quick {
        Sent140LikeConfig::new()
            .with_users(20)
            .with_embed_dim(12)
            .with_mean_samples(24.0)
    } else {
        Sent140LikeConfig::new()
            .with_users(200)
            .with_mean_samples(42.0)
            .with_min_samples((2 * k).max(10))
    };
    let federation = cfg.generate(&mut rng);
    let model = MlpBuilder::new(federation.dim(), federation.classes())
        .hidden(if quick { &[8] } else { &[32] })
        .activation(Activation::Tanh)
        .l2(1e-4)
        .build()
        .expect("valid MLP config");
    setup(federation, model, k, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_setup_shapes() {
        let s = synthetic(0.5, 0.5, 5, true, 0);
        assert_eq!(s.sources.len() + s.targets.len(), s.federation.len());
        assert_eq!(s.tasks.len(), s.sources.len());
        assert!(!s.targets.is_empty());
        assert_eq!(s.k, 5);
    }

    #[test]
    fn mnist_setup_shapes() {
        let s = mnist(5, true, 1);
        assert_eq!(s.federation.classes(), 10);
        assert!(!s.tasks.is_empty());
    }

    #[test]
    fn sent140_setup_shapes() {
        let s = sent140(5, true, 2);
        assert_eq!(s.federation.classes(), 2);
        assert!(fml_models::Model::param_len(&s.model) > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = synthetic(1.0, 1.0, 5, true, 3);
        let b = synthetic(1.0, 1.0, 5, true, 3);
        assert_eq!(a.tasks, b.tasks);
    }
}
