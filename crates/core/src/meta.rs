//! The meta-gradient engine.
//!
//! MAML-style meta-learning optimizes `G_i(θ) = L_i(φ_i(θ))` where
//! `φ_i(θ) = θ − α∇L(θ, D_i^train)` (eq. 3). By the chain rule,
//!
//! ```text
//! ∇G_i(θ) = (I − α ∇²L(θ, D_i^train)) ∇L(φ_i, D_i^test)
//! ```
//!
//! — the product of the inner-step Jacobian and the query-set gradient at
//! the adapted point. The only second-order quantity needed is a single
//! **Hessian–vector product** with `v = ∇L(φ_i, D_i^test)`, taken at the
//! same `(θ, D_i^train)` as the inner step's gradient, so both come from
//! one [`fml_models::Model::grad_then_hvp_into`]. The first-order
//! approximation (FOMAML) drops the Jacobian, which is the ablation `X2`
//! in `DESIGN.md`.
//!
//! The arithmetic is written once, on a [`Scratch`]: the crate's `_with`
//! kernels (`inner_step_with`, `outer_gradient_with`,
//! `meta_gradient_with`, `meta_objective_with`) touch no allocator, and
//! every trainer's step runs on them. The curve
//! (`trainer::curve_losses`) is `meta_objective_with`'s arithmetic with
//! the inner step's gradient from `Model::loss_grad_into`, which also
//! returns the support loss the curve records. The allocating forms
//! ([`meta_gradient`], [`meta_objective`]) build a fresh scratch and
//! call the kernel — the same rule `fml_models::Model::grad` follows one
//! level down — so the two agree bit for bit.

use fml_linalg::vector;
use fml_models::{Batch, Model, Workspace};

/// How the outer (meta) gradient is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetaGradientMode {
    /// Exact MAML meta-gradient `(I − α∇²L_tr(θ))·∇L_te(φ)` using an HVP.
    #[default]
    FullSecondOrder,
    /// First-order approximation (FOMAML): `∇L_te(φ)` alone.
    FirstOrder,
}

/// Reusable buffers for the training arithmetic: the model's own
/// [`Workspace`], three `param_len` vectors (gradient, adapted point
/// `φ`, Hessian–vector product) and a batch the baselines concatenate
/// `D_i^train ∪ D_i^test` into.
///
/// One per thread that runs a step or a curve — a runtime worker, a
/// `run_node` peer, a lockstep thread, the platform's evaluation, a
/// serving worker (where it is spelled
/// [`AdaptScratch`](crate::adapt::AdaptScratch)). After the first use on
/// a task shape, [`LocalStepper::local_update_into`](crate::LocalStepper::local_update_into),
/// [`LocalStepper::eval_losses_with`](crate::LocalStepper::eval_losses_with)
/// and [`adapt_into`](crate::adapt::adapt_into) perform no heap
/// allocation through it.
#[derive(Debug)]
pub struct Scratch {
    pub(crate) ws: Workspace,
    /// Gradient buffer; holds the meta-gradient after
    /// `meta_gradient_with`.
    pub(crate) grad: Vec<f64>,
    /// The adapted point `φ` after `inner_step_with`.
    pub(crate) phi: Vec<f64>,
    pub(crate) hvp: Vec<f64>,
    /// Owned here rather than cached on the task, whose `split` is
    /// public and could go stale.
    pub(crate) full: Batch,
    /// Whether a step that can leave the curve terms should: see
    /// [`with_curve_terms`](Self::with_curve_terms).
    pub(crate) wants_terms: bool,
    /// The curve terms the last step left, see
    /// [`curve_terms`](Self::curve_terms).
    pub(crate) terms: Option<(f64, f64)>,
}

impl Scratch {
    /// Builds scratch sized for `model`.
    pub fn for_model(model: &dyn Model) -> Self {
        let d = model.param_len();
        Scratch {
            ws: model.workspace(),
            grad: vec![0.0; d],
            phi: vec![0.0; d],
            hvp: vec![0.0; d],
            full: Batch::empty(model.input_dim()),
            wants_terms: false,
            terms: None,
        }
    }

    /// This scratch, asking a stepper that
    /// [yields the curve terms](crate::LocalStepper::yields_curve_terms)
    /// to leave them in it (see [`curve_terms`](Self::curve_terms)). Only
    /// a caller that sends the terms on asks: a model without a
    /// loss-returning kernel pays a loss pass for each.
    pub fn with_curve_terms(mut self) -> Self {
        self.wants_terms = true;
        self
    }

    /// `(query loss, support loss)` of the node's task at the `θ` the
    /// last [`LocalStepper::local_update_into`](crate::LocalStepper::local_update_into)
    /// started from — `L(φ(θ), test)` and `L(θ, train)`, one task's
    /// unweighted terms of the curve's `(meta_loss, train_loss)` — when
    /// this scratch [asks for them](Self::with_curve_terms) and the
    /// stepper [yields them](crate::LocalStepper::yields_curve_terms);
    /// `None` otherwise.
    pub fn curve_terms(&self) -> Option<(f64, f64)> {
        self.terms
    }

    /// Panics unless this scratch was built for a model with `model`'s
    /// parameter count (`who` names the caller in the message).
    pub(crate) fn check(&self, model: &dyn Model, who: &str) {
        assert_eq!(
            self.grad.len(),
            model.param_len(),
            "{who}: scratch built for a different model"
        );
    }
}

/// One inner adaptation step `φ = θ − α∇L(θ, batch)` (eq. 3 / eq. 6)
/// on the scratch: `φ` lands in `scratch.phi`.
pub(crate) fn inner_step_with(
    model: &dyn Model,
    theta: &[f64],
    batch: &Batch,
    alpha: f64,
    scratch: &mut Scratch,
) {
    model.grad_into(theta, batch, &mut scratch.ws, &mut scratch.grad);
    scratch.phi.copy_from_slice(theta);
    vector::axpy(-alpha, &scratch.grad, &mut scratch.phi);
}

/// The meta-gradient `∇_θ L(φ(θ), test)` for a single task, on the
/// scratch: `φ = θ − α∇L(θ, train)`, then the outer gradient at `φ`.
///
/// Second order, the gradient and the HVP are both at `(θ, train)`, so
/// they go through [`Model::grad_then_hvp_into`] with the inner step and
/// the query gradient in between — the same operations in the same order
/// as `inner_step_with` then `outer_gradient_with`, which a model may run
/// without a second forward pass over `train`.
pub(crate) fn meta_gradient_with<'s>(
    model: &dyn Model,
    theta: &[f64],
    train: &Batch,
    test: &Batch,
    alpha: f64,
    mode: MetaGradientMode,
    scratch: &'s mut Scratch,
) -> &'s [f64] {
    if mode == MetaGradientMode::FirstOrder {
        inner_step_with(model, theta, train, alpha, scratch);
        return outer_gradient_with(model, theta, train, test, alpha, mode, scratch);
    }
    let Scratch {
        ws, grad, phi, hvp, ..
    } = scratch;
    let mut query_gradient = |g: &mut [f64], ws: &mut Workspace| {
        phi.copy_from_slice(theta);
        vector::axpy(-alpha, g, phi);
        model.grad_into(phi, test, ws, g);
    };
    model.grad_then_hvp_into(theta, train, ws, grad, &mut query_gradient, hvp);
    vector::axpy(-alpha, hvp, grad);
    grad
}

/// [`meta_gradient_with`] that also leaves the curve terms at `θ` in
/// `scratch.terms`: the support loss `L(θ, train)` from the inner step's
/// gradient pass and the query loss `L(φ, test)` from the query
/// gradient's, each through the model's loss-returning kernel
/// ([`Model::loss_grad_then_hvp_into`], [`Model::loss_grad_into`]). The
/// gradient has the bits of `meta_gradient_with`, and the two losses
/// the bits of the curve's `loss_with` calls at the same `θ`.
pub(crate) fn meta_gradient_and_terms_with<'s>(
    model: &dyn Model,
    theta: &[f64],
    train: &Batch,
    test: &Batch,
    alpha: f64,
    mode: MetaGradientMode,
    scratch: &'s mut Scratch,
) -> &'s [f64] {
    let Scratch {
        ws,
        grad,
        phi,
        hvp,
        terms,
        ..
    } = scratch;
    let mut query = 0.0;
    let mut query_gradient = |g: &mut [f64], ws: &mut Workspace| {
        phi.copy_from_slice(theta);
        vector::axpy(-alpha, g, phi);
        query = model.loss_grad_into(phi, test, ws, g);
    };
    let support = match mode {
        MetaGradientMode::FullSecondOrder => {
            let support =
                model.loss_grad_then_hvp_into(theta, train, ws, grad, &mut query_gradient, hvp);
            vector::axpy(-alpha, hvp, grad);
            support
        }
        MetaGradientMode::FirstOrder => {
            let support = model.loss_grad_into(theta, train, ws, grad);
            query_gradient(grad, ws);
            support
        }
    };
    *terms = Some((query, support));
    grad
}

/// The meta-gradient `∇_θ L(φ(θ), test)` for a single task.
pub fn meta_gradient(
    model: &dyn Model,
    theta: &[f64],
    train: &Batch,
    test: &Batch,
    alpha: f64,
    mode: MetaGradientMode,
) -> Vec<f64> {
    let mut scratch = Scratch::for_model(model);
    meta_gradient_with(model, theta, train, test, alpha, mode, &mut scratch);
    scratch.grad
}

/// The meta-gradient at the adapted point the scratch already holds
/// (`scratch.phi`, from `inner_step_with` at the same `theta`):
/// `g = ∇L(φ, test)`, then `g ← g − α·∇²L(θ, train)·g` unless
/// first-order. `φ` is left in place, so a second `test` set shares it.
pub(crate) fn outer_gradient_with<'s>(
    model: &dyn Model,
    theta: &[f64],
    train: &Batch,
    test: &Batch,
    alpha: f64,
    mode: MetaGradientMode,
    scratch: &'s mut Scratch,
) -> &'s [f64] {
    let Scratch {
        ws, grad, phi, hvp, ..
    } = scratch;
    model.grad_into(phi, test, ws, grad);
    if mode == MetaGradientMode::FullSecondOrder {
        model.hvp_into(theta, train, grad, ws, hvp);
        vector::axpy(-alpha, hvp, grad);
    }
    grad
}

/// The per-task meta objective `G_i(θ) = L(φ_i(θ), test)` on the scratch.
pub(crate) fn meta_objective_with(
    model: &dyn Model,
    theta: &[f64],
    train: &Batch,
    test: &Batch,
    alpha: f64,
    scratch: &mut Scratch,
) -> f64 {
    inner_step_with(model, theta, train, alpha, scratch);
    model.loss_with(&scratch.phi, test, &mut scratch.ws)
}

/// The per-task meta objective `G_i(θ) = L(φ_i(θ), test)`.
pub fn meta_objective(
    model: &dyn Model,
    theta: &[f64],
    train: &Batch,
    test: &Batch,
    alpha: f64,
) -> f64 {
    let mut scratch = Scratch::for_model(model);
    meta_objective_with(model, theta, train, test, alpha, &mut scratch)
}

/// Central finite-difference approximation of the meta-gradient — the
/// ground truth the analytic path is tested against (exposed for reuse in
/// downstream test suites).
pub fn numeric_meta_gradient(
    model: &dyn Model,
    theta: &[f64],
    train: &Batch,
    test: &Batch,
    alpha: f64,
    eps: f64,
) -> Vec<f64> {
    let mut g = vec![0.0; theta.len()];
    let mut p = theta.to_vec();
    let mut scratch = Scratch::for_model(model);
    for i in 0..theta.len() {
        let orig = p[i];
        p[i] = orig + eps;
        let lp = meta_objective_with(model, &p, train, test, alpha, &mut scratch);
        p[i] = orig - eps;
        let lm = meta_objective_with(model, &p, train, test, alpha, &mut scratch);
        p[i] = orig;
        g[i] = (lp - lm) / (2.0 * eps);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_linalg::Matrix;
    use fml_models::{Activation, LinearRegression, MlpBuilder, Quadratic, SoftmaxRegression};
    use rand::SeedableRng;

    fn inner_step(model: &dyn Model, theta: &[f64], batch: &Batch, alpha: f64) -> Vec<f64> {
        let mut scratch = Scratch::for_model(model);
        inner_step_with(model, theta, batch, alpha, &mut scratch);
        scratch.phi
    }

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        vector::dist2(a, b) / vector::norm2(b).max(1.0)
    }

    fn softmax_setup() -> (SoftmaxRegression, Vec<f64>, Batch, Batch) {
        let model = SoftmaxRegression::new(3, 3).with_l2(0.01);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let params = fml_models::Model::init_params(&model, &mut rng);
        let tr = Batch::classification(
            Matrix::from_rows(&[&[1.0, 0.0, 0.2], &[0.0, 1.0, -0.2]]).unwrap(),
            vec![0, 1],
        )
        .unwrap();
        let te = Batch::classification(
            Matrix::from_rows(&[&[0.8, 0.1, 0.3], &[0.1, 0.9, -0.1], &[-0.5, -0.5, 0.5]]).unwrap(),
            vec![0, 1, 2],
        )
        .unwrap();
        (model, params, tr, te)
    }

    #[test]
    fn inner_step_moves_against_gradient() {
        let (model, params, tr, _) = softmax_setup();
        let before = fml_models::Model::loss(&model, &params, &tr);
        let phi = inner_step(&model, &params, &tr, 0.1);
        let after = fml_models::Model::loss(&model, &phi, &tr);
        assert!(after < before, "inner step should reduce support loss");
    }

    #[test]
    fn inner_adapt_zero_steps_is_identity() {
        let (model, params, tr, _) = softmax_setup();
        let phi = crate::adapt::adapt(&model, &params, &tr, 0.1, 0);
        assert_eq!(phi, params);
    }

    #[test]
    fn inner_adapt_one_step_matches_inner_step() {
        let (model, params, tr, _) = softmax_setup();
        assert_eq!(
            crate::adapt::adapt(&model, &params, &tr, 0.05, 1),
            inner_step(&model, &params, &tr, 0.05)
        );
    }

    #[test]
    fn full_meta_gradient_matches_numeric_softmax() {
        let (model, params, tr, te) = softmax_setup();
        let analytic = meta_gradient(
            &model,
            &params,
            &tr,
            &te,
            0.1,
            MetaGradientMode::FullSecondOrder,
        );
        let numeric = numeric_meta_gradient(&model, &params, &tr, &te, 0.1, 1e-5);
        let err = rel_err(&analytic, &numeric);
        assert!(err < 1e-5, "meta-gradient error {err}");
    }

    #[test]
    fn full_meta_gradient_matches_numeric_mlp() {
        let model = MlpBuilder::new(3, 3)
            .hidden(&[5])
            .activation(Activation::Tanh)
            .build()
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let params = fml_models::Model::init_params(&model, &mut rng);
        let (_, _, tr, te) = softmax_setup();
        let analytic = meta_gradient(
            &model,
            &params,
            &tr,
            &te,
            0.05,
            MetaGradientMode::FullSecondOrder,
        );
        let numeric = numeric_meta_gradient(&model, &params, &tr, &te, 0.05, 1e-5);
        let err = rel_err(&analytic, &numeric);
        assert!(err < 1e-4, "MLP meta-gradient error {err}");
    }

    #[test]
    fn first_order_mode_ignores_curvature() {
        let (model, params, tr, te) = softmax_setup();
        let fo = meta_gradient(&model, &params, &tr, &te, 0.1, MetaGradientMode::FirstOrder);
        let phi = inner_step(&model, &params, &tr, 0.1);
        let expect = fml_models::Model::grad(&model, &phi, &te);
        assert_eq!(fo, expect);
    }

    #[test]
    fn modes_agree_when_alpha_is_zero() {
        let (model, params, tr, te) = softmax_setup();
        let full = meta_gradient(
            &model,
            &params,
            &tr,
            &te,
            0.0,
            MetaGradientMode::FullSecondOrder,
        );
        let fo = meta_gradient(&model, &params, &tr, &te, 0.0, MetaGradientMode::FirstOrder);
        assert!(vector::approx_eq(&full, &fo, 1e-12));
    }

    #[test]
    fn quadratic_meta_gradient_closed_form() {
        // For L(θ) = ½(θ−c)ᵀA(θ−c) with the same batch for train and test:
        // φ = θ − αA(θ−c), ∇G = (I−αA)·A·(φ−c) = (I−αA)²A(θ−c).
        let a = 2.0;
        let model = Quadratic::isotropic(2, a);
        let c = [1.0, -1.0];
        let batch = Batch::regression(Matrix::from_rows(&[&c]).unwrap(), vec![0.0]).unwrap();
        let theta = [3.0, 0.0];
        let alpha = 0.1;
        let got = meta_gradient(
            &model,
            &theta,
            &batch,
            &batch,
            alpha,
            MetaGradientMode::FullSecondOrder,
        );
        let factor = (1.0 - alpha * a) * (1.0 - alpha * a) * a;
        let expect = [factor * (theta[0] - c[0]), factor * (theta[1] - c[1])];
        assert!(
            vector::approx_eq(&got, &expect, 1e-10),
            "got {got:?}, want {expect:?}"
        );
    }

    #[test]
    fn meta_descent_reaches_lower_meta_objective_than_joint_descent() {
        // The defining property of MAML: descending G(θ) produces a better
        // post-adaptation loss than descending L(θ) directly, when tasks
        // disagree. Two quadratic tasks with centers ±c: the meta optimum
        // and the joint optimum coincide at 0 here, so instead check that
        // meta-descent monotonically decreases G.
        let model = Quadratic::isotropic(2, 1.0);
        let tr = Batch::regression(Matrix::from_rows(&[&[2.0, 0.0]]).unwrap(), vec![0.0]).unwrap();
        let te = Batch::regression(Matrix::from_rows(&[&[2.0, 0.5]]).unwrap(), vec![0.0]).unwrap();
        let mut theta = vec![-1.0, -1.0];
        let mut last = meta_objective(&model, &theta, &tr, &te, 0.3);
        for _ in 0..50 {
            let g = meta_gradient(
                &model,
                &theta,
                &tr,
                &te,
                0.3,
                MetaGradientMode::FullSecondOrder,
            );
            vector::axpy(-0.2, &g, &mut theta);
            let now = meta_objective(&model, &theta, &tr, &te, 0.3);
            assert!(now <= last + 1e-12, "meta objective must not increase");
            last = now;
        }
        assert!(last < 0.1, "meta objective should approach 0, got {last}");
    }

    #[test]
    fn linear_regression_meta_gradient_matches_numeric() {
        let model = LinearRegression::new(2).with_l2(0.05);
        let tr = Batch::regression(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap(),
            vec![1.0, -1.0],
        )
        .unwrap();
        let te = Batch::regression(
            Matrix::from_rows(&[&[0.5, 0.5], &[1.0, 1.0]]).unwrap(),
            vec![0.0, 0.5],
        )
        .unwrap();
        let theta = [0.3, -0.2, 0.1];
        let analytic = meta_gradient(
            &model,
            &theta,
            &tr,
            &te,
            0.2,
            MetaGradientMode::FullSecondOrder,
        );
        let numeric = numeric_meta_gradient(&model, &theta, &tr, &te, 0.2, 1e-6);
        assert!(rel_err(&analytic, &numeric) < 1e-6);
    }
}
