//! Fast adaptation at the target edge node and its evaluation harness.
//!
//! After federated meta-training, the platform ships the learned
//! initialization `θ_c` to a target node `t` (not among the sources),
//! which adapts with one or a few gradient steps on its `K` local samples
//! (eq. 6):
//!
//! ```text
//! φ_t = θ_c − α ∇L(θ_c, D_t)
//! ```
//!
//! The functions here produce the paper's Figure 3 quantities: adaptation
//! curves (loss/accuracy vs number of adaptation steps, per `K`), averaged
//! over held-out target nodes, for any initialization (FedML's or a
//! baseline's), plus FGSM-attacked variants for Figure 4.

use fml_data::{NodeData, TaskSplit};
use fml_dro::attack::{fgsm_batch, BoxConstraint};
use fml_models::{Batch, Model};
use rand::Rng;

/// One (or more) gradient steps of adaptation from `theta` on the target's
/// local data — eq. 6 generalized to multiple steps (the multi-step
/// adaptation used at evaluation time in Figure 3(c)–(e)).
pub fn adapt(model: &dyn Model, theta: &[f64], data: &Batch, alpha: f64, steps: usize) -> Vec<f64> {
    let mut phi = Vec::new();
    let mut scratch = AdaptScratch::for_model(model);
    adapt_into(model, theta, data, alpha, steps, &mut scratch, &mut phi);
    phi
}

/// The scratch [`adapt_into`] runs on — the crate's one
/// [`Scratch`](crate::Scratch) under the name serving knows it by. One
/// per serving worker: requests then adapt with zero per-request heap
/// allocation.
pub use crate::meta::Scratch as AdaptScratch;

/// [`adapt`] through caller-provided scratch: `out` is overwritten with
/// the adapted parameters φ, reusing its capacity. [`adapt`] is this
/// function on fresh scratch, so the two agree bit for bit.
///
/// # Panics
///
/// Panics when `theta.len() != model.param_len()` or `scratch` was built
/// for a model with a different parameter count.
pub fn adapt_into(
    model: &dyn Model,
    theta: &[f64],
    data: &Batch,
    alpha: f64,
    steps: usize,
    scratch: &mut AdaptScratch,
    out: &mut Vec<f64>,
) {
    assert_eq!(theta.len(), model.param_len(), "adapt_into: theta length");
    scratch.check(model, "adapt_into");
    out.clear();
    out.extend_from_slice(theta);
    for _ in 0..steps {
        model.grad_into(out, data, &mut scratch.ws, &mut scratch.grad);
        fml_linalg::vector::axpy(-alpha, &scratch.grad, out);
    }
}

/// One point of an adaptation curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationPoint {
    /// Number of adaptation gradient steps taken.
    pub steps: usize,
    /// Loss on the target's held-out evaluation data.
    pub loss: f64,
    /// Accuracy on the target's held-out evaluation data.
    pub accuracy: f64,
}

/// Aggregate adaptation performance across target nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetEvaluation {
    /// Support-set size `K` used at each target.
    pub k: usize,
    /// Mean curve across targets (index = adaptation steps).
    pub curve: Vec<AdaptationPoint>,
    /// Number of target nodes evaluated.
    pub targets: usize,
}

impl TargetEvaluation {
    /// Final mean accuracy (after the maximum number of steps).
    pub fn final_accuracy(&self) -> f64 {
        self.curve.last().map_or(0.0, |p| p.accuracy)
    }

    /// Final mean loss.
    pub fn final_loss(&self) -> f64 {
        self.curve.last().map_or(f64::NAN, |p| p.loss)
    }
}

/// Evaluates an initialization across a set of held-out target nodes: each
/// target draws a `K`-shot support set, adapts for `0..=max_steps` steps,
/// and is scored on its remaining samples; curves are averaged.
///
/// This is the paper's testing protocol: "the trained model is first
/// updated with the training set of testing nodes, and then evaluated on
/// their testing sets."
///
/// # Panics
///
/// Panics when `targets` is empty.
pub fn evaluate_targets<R: Rng + ?Sized>(
    model: &dyn Model,
    theta: &[f64],
    targets: &[NodeData],
    k: usize,
    alpha: f64,
    max_steps: usize,
    rng: &mut R,
) -> TargetEvaluation {
    assert!(!targets.is_empty(), "evaluate_targets: no target nodes");
    mean_curve(model, theta, targets, k, alpha, max_steps, None, rng)
}

/// Like [`evaluate_targets`], but the query set is FGSM-attacked with
/// budget `xi` against each adapted model before scoring — the Figure 4
/// protocol ("first update the meta-model with clean training data, then
/// evaluate ... on adversarial data").
///
/// # Panics
///
/// Panics when `targets` is empty.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_targets_adversarial<R: Rng + ?Sized>(
    model: &dyn Model,
    theta: &[f64],
    targets: &[NodeData],
    k: usize,
    alpha: f64,
    max_steps: usize,
    xi: f64,
    constraint: BoxConstraint,
    rng: &mut R,
) -> TargetEvaluation {
    assert!(
        !targets.is_empty(),
        "evaluate_targets_adversarial: no targets"
    );
    mean_curve(
        model,
        theta,
        targets,
        k,
        alpha,
        max_steps,
        Some((xi, constraint)),
        rng,
    )
}

/// The mean Figure 3(c)–(e) / Figure 4 curve: every target adapts on a
/// fresh `K`-shot support set for `0..=max_steps` steps and is scored on
/// its query set after each — attacked first, against the *current
/// adapted* model, when `attack` names an FGSM budget and constraint.
#[allow(clippy::too_many_arguments)]
fn mean_curve<R: Rng + ?Sized>(
    model: &dyn Model,
    theta: &[f64],
    targets: &[NodeData],
    k: usize,
    alpha: f64,
    max_steps: usize,
    attack: Option<(f64, BoxConstraint)>,
    rng: &mut R,
) -> TargetEvaluation {
    let mut mean: Vec<AdaptationPoint> = (0..=max_steps)
        .map(|s| AdaptationPoint {
            steps: s,
            loss: 0.0,
            accuracy: 0.0,
        })
        .collect();
    for node in targets {
        let split = TaskSplit::sample(&node.batch, k, rng);
        let mut phi = theta.to_vec();
        for point in &mut mean {
            if point.steps > 0 {
                let g = model.grad(&phi, &split.train);
                fml_linalg::vector::axpy(-alpha, &g, &mut phi);
            }
            let attacked = attack.map(|(xi, c)| fgsm_batch(model, &phi, &split.test, xi, c));
            let query = attacked.as_ref().unwrap_or(&split.test);
            point.loss += model.loss(&phi, query) / targets.len() as f64;
            point.accuracy += model.accuracy(&phi, query) / targets.len() as f64;
        }
    }
    TargetEvaluation {
        k,
        curve: mean,
        targets: targets.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_linalg::Matrix;
    use fml_models::SoftmaxRegression;
    use rand::SeedableRng;

    fn target_nodes(seed: u64, n: usize) -> Vec<NodeData> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|id| {
                let mut xs = Matrix::zeros(14, 2);
                let mut ys = Vec::new();
                for r in 0..14 {
                    let c = r % 2;
                    let (cx, cy) = [(1.5, 0.0), (-1.5, 0.0)][c];
                    xs.set(r, 0, cx + 0.4 * rng.gen::<f64>());
                    xs.set(r, 1, cy + 0.4 * rng.gen::<f64>());
                    ys.push(c);
                }
                NodeData {
                    id,
                    batch: Batch::classification(xs, ys).unwrap(),
                }
            })
            .collect()
    }

    #[test]
    fn adapt_zero_steps_is_identity() {
        let model = SoftmaxRegression::new(2, 2);
        let theta = vec![0.1; model.param_len()];
        let nodes = target_nodes(0, 1);
        let phi = adapt(&model, &theta, &nodes[0].batch, 0.1, 0);
        assert_eq!(phi, theta);
    }

    #[test]
    fn adaptation_improves_loss_on_learnable_target() {
        let model = SoftmaxRegression::new(2, 2);
        let theta = vec![0.0; model.param_len()];
        let nodes = target_nodes(1, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let curve = evaluate_targets(&model, &theta, &nodes, 6, 0.5, 10, &mut rng).curve;
        assert_eq!(curve.len(), 11);
        assert!(curve[10].loss < curve[0].loss, "adaptation should help");
        assert!(curve[10].accuracy >= curve[0].accuracy);
    }

    #[test]
    fn evaluate_targets_averages_over_nodes() {
        let model = SoftmaxRegression::new(2, 2);
        let theta = vec![0.0; model.param_len()];
        let nodes = target_nodes(2, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let eval = evaluate_targets(&model, &theta, &nodes, 5, 0.5, 4, &mut rng);
        assert_eq!(eval.targets, 5);
        assert_eq!(eval.k, 5);
        assert_eq!(eval.curve.len(), 5);
        assert!(eval.final_accuracy() > 0.5, "separable task should adapt");
        assert!(eval.final_loss().is_finite());
    }

    #[test]
    fn adversarial_evaluation_is_harder_than_clean() {
        let model = SoftmaxRegression::new(2, 2);
        let theta = vec![0.0; model.param_len()];
        let nodes = target_nodes(4, 4);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let clean = evaluate_targets(&model, &theta, &nodes, 5, 0.5, 5, &mut r1);
        let adv = evaluate_targets_adversarial(
            &model,
            &theta,
            &nodes,
            5,
            0.5,
            5,
            0.5,
            BoxConstraint::None,
            &mut r2,
        );
        assert!(
            adv.final_loss() >= clean.final_loss() - 1e-9,
            "attacked loss {} should be at least clean loss {}",
            adv.final_loss(),
            clean.final_loss()
        );
        assert!(adv.final_accuracy() <= clean.final_accuracy() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "no target nodes")]
    fn rejects_empty_targets() {
        let model = SoftmaxRegression::new(2, 2);
        let theta = vec![0.0; model.param_len()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        evaluate_targets(&model, &theta, &[], 5, 0.1, 1, &mut rng);
    }

    #[test]
    fn adapt_into_reuses_capacity_across_requests() {
        let model = SoftmaxRegression::new(2, 2);
        let theta = vec![0.1; model.param_len()];
        let nodes = target_nodes(7, 2);
        let mut scratch = AdaptScratch::for_model(&model);
        let mut out = Vec::with_capacity(model.param_len());
        let ptr = out.as_ptr();
        for node in &nodes {
            adapt_into(&model, &theta, &node.batch, 0.2, 3, &mut scratch, &mut out);
            assert_eq!(out, adapt(&model, &theta, &node.batch, 0.2, 3));
        }
        assert!(std::ptr::eq(ptr, out.as_ptr()), "no reallocation");
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn adapt_into_rejects_mismatched_scratch() {
        let small = SoftmaxRegression::new(2, 2);
        let big = SoftmaxRegression::new(3, 4);
        let theta = vec![0.0; big.param_len()];
        let nodes = target_nodes(0, 1);
        let mut scratch = AdaptScratch::for_model(&small);
        let mut out = Vec::new();
        adapt_into(&big, &theta, &nodes[0].batch, 0.1, 1, &mut scratch, &mut out);
    }

    mod adapt_into_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_adapt_into_bitwise_matches_adapt(
                seed in 0u64..500,
                alpha in 0.001f64..1.0,
                steps in 0usize..8,
                scale in -2.0f64..2.0,
            ) {
                // The serving hot path must produce the exact floats the
                // offline entry point does — this is what makes served
                // parity hashes meaningful.
                let model = SoftmaxRegression::new(2, 2);
                let theta: Vec<f64> = (0..model.param_len())
                    .map(|i| scale * ((seed as f64) + i as f64).sin())
                    .collect();
                let nodes = target_nodes(seed, 1);
                let baseline = adapt(&model, &theta, &nodes[0].batch, alpha, steps);
                let mut scratch = AdaptScratch::for_model(&model);
                let mut out = vec![f64::NAN; 3]; // stale garbage must not leak
                adapt_into(&model, &theta, &nodes[0].batch, alpha, steps, &mut scratch, &mut out);
                prop_assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    baseline.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }
}
