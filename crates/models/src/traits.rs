use rand::RngCore;

use crate::{Batch, Target, Workspace};

/// A model's output for a single input.
#[derive(Debug, Clone, PartialEq)]
pub enum Prediction {
    /// Classification output: the argmax label and the full class
    /// probability vector.
    Class {
        /// Predicted class index.
        label: usize,
        /// Class probabilities (sums to 1).
        probs: Vec<f64>,
    },
    /// Regression output.
    Value(f64),
}

impl Prediction {
    /// Predicted class label, if this is a classification output.
    pub fn label(&self) -> Option<usize> {
        match self {
            Prediction::Class { label, .. } => Some(*label),
            Prediction::Value(_) => None,
        }
    }

    /// Predicted value, if this is a regression output.
    pub fn value(&self) -> Option<f64> {
        match self {
            Prediction::Class { .. } => None,
            Prediction::Value(v) => Some(*v),
        }
    }
}

/// A differentiable parametric model `f_θ` with the oracles federated
/// meta-learning needs.
///
/// Parameters always live in a flat `Vec<f64>` of length [`param_len`], so
/// the platform can aggregate, serialize, and diff them without knowing the
/// architecture.
///
/// # Implementation contract
///
/// An implementor writes the two workspace kernels
/// [`loss_with`](Model::loss_with) and [`grad_into`](Model::grad_into),
/// the three single-sample methods, and — when its kernels need scratch —
/// [`workspace`](Model::workspace). Everything else is provided:
/// [`loss`](Model::loss), [`grad`](Model::grad) and [`hvp`](Model::hvp)
/// build a fresh workspace and call the kernel, so a model has exactly one
/// copy of its arithmetic.
///
/// * `loss_with`/`grad_into` must be consistent: `grad_into` writes the
///   exact gradient of `loss_with` (the test helper
///   [`crate::check::grad_error`] verifies this).
/// * `hvp_into(θ, B, v)` must write `∇²L(θ, B)·v`. The provided
///   implementation is a central finite difference of `grad_into` — `O(2×)`
///   the cost of a gradient and accurate to ~1e-6 relative error; analytic
///   overrides are preferred.
/// * An override of [`grad_then_hvp_into`](Model::grad_then_hvp_into)
///   shares work between its two passes and nothing else: it writes the
///   bits of `grad_into`, `between`, `hvp_into` in turn.
/// * An override of [`loss_grad_into`](Model::loss_grad_into) writes the
///   bits of `grad_into` and returns the bits of `loss_with`.
/// * An override of
///   [`loss_grad_then_hvp_into`](Model::loss_grad_then_hvp_into) writes
///   the bits of `grad_then_hvp_into` and returns the bits of
///   `loss_with` at the gradient's point.
/// * `input_grad`/`sample_loss` operate on a *single* sample and must be
///   consistent with each other; they power adversarial data generation.
///
/// [`param_len`]: Model::param_len
pub trait Model: Send + Sync + std::fmt::Debug {
    /// Number of parameters `d`.
    fn param_len(&self) -> usize;

    /// Feature dimension expected in batches.
    fn input_dim(&self) -> usize;

    /// Samples an initial parameter vector.
    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Empirical loss `L(θ, B)` — the mean sample loss plus any
    /// regularization. Returns 0 for an empty batch (plus regularization).
    fn loss(&self, params: &[f64], batch: &Batch) -> f64 {
        let mut ws = self.workspace();
        self.loss_with(params, batch, &mut ws)
    }

    /// Gradient `∇_θ L(θ, B)`.
    fn grad(&self, params: &[f64], batch: &Batch) -> Vec<f64> {
        let mut ws = self.workspace();
        let mut g = vec![0.0; self.param_len()];
        self.grad_into(params, batch, &mut ws, &mut g);
        g
    }

    /// Hessian–vector product `∇²_θ L(θ, B) · v`.
    fn hvp(&self, params: &[f64], batch: &Batch, v: &[f64]) -> Vec<f64> {
        let mut ws = self.workspace();
        let mut hv = vec![0.0; self.param_len()];
        self.hvp_into(params, batch, v, &mut ws, &mut hv);
        hv
    }

    /// Loss of a single sample `l(θ, (x, y))` **without** regularization
    /// (the DRO surrogate perturbs individual samples).
    fn sample_loss(&self, params: &[f64], x: &[f64], y: Target) -> f64;

    /// Gradient of the single-sample loss with respect to the **input**:
    /// `∇_x l(θ, (x, y))`.
    fn input_grad(&self, params: &[f64], x: &[f64], y: Target) -> Vec<f64>;

    /// Model output for one input.
    fn predict(&self, params: &[f64], x: &[f64]) -> Prediction;

    /// Builds a scratch [`Workspace`] sized for this model's kernels.
    ///
    /// Models whose kernels need per-sample scratch override this to
    /// return properly sized buffers; the default is an empty workspace
    /// for kernels that need none.
    fn workspace(&self) -> Workspace {
        Workspace::empty()
    }

    /// The loss kernel: [`loss`](Model::loss) computed through a reusable
    /// workspace, with no heap allocation per sample.
    fn loss_with(&self, params: &[f64], batch: &Batch, ws: &mut Workspace) -> f64;

    /// The gradient kernel: [`grad`](Model::grad) written into a
    /// caller-provided buffer through a reusable workspace.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != param_len()`.
    fn grad_into(&self, params: &[f64], batch: &Batch, ws: &mut Workspace, out: &mut [f64]);

    /// The gradient and the loss at one point: writes `∇L(θ, B)` into
    /// `out` and returns `L(θ, B)`.
    ///
    /// The default is exactly [`grad_into`](Model::grad_into), then
    /// [`loss_with`](Model::loss_with). A model whose gradient pass
    /// already holds each sample's loss overrides it to sum that loss in
    /// `loss_with`'s order, with the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != param_len()`.
    fn loss_grad_into(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        out: &mut [f64],
    ) -> f64 {
        self.grad_into(params, batch, ws, out);
        self.loss_with(params, batch, ws)
    }

    /// The HVP kernel: [`hvp`](Model::hvp) written into a caller-provided
    /// buffer through a reusable workspace.
    ///
    /// The default is a central finite difference of
    /// [`grad_into`](Model::grad_into); models with analytic second-order
    /// structure should override it.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != param_len()`.
    fn hvp_into(
        &self,
        params: &[f64],
        batch: &Batch,
        v: &[f64],
        ws: &mut Workspace,
        out: &mut [f64],
    ) {
        finite_difference_hvp(|p, g| self.grad_into(p, batch, ws, g), params, v, out);
    }

    /// A gradient and an HVP at one point `(θ, B)`, with work of the
    /// caller's in between: writes `∇L(θ, B)` into `buf`, calls
    /// `between(buf, ws)` — which overwrites `buf` with the direction `v`
    /// — and writes `∇²L(θ, B)·v` into `hv`. This is the shape of the
    /// second-order meta-gradient (`between` takes the inner step and the
    /// query gradient).
    ///
    /// The default is exactly [`grad_into`](Model::grad_into), `between`,
    /// [`hvp_into`](Model::hvp_into). A model whose HVP repeats the
    /// gradient's forward pass overrides it to keep that pass from the
    /// first call and replay it in the second, with the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `buf.len()` or `hv.len()` is not `param_len()`.
    fn grad_then_hvp_into(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        buf: &mut [f64],
        between: &mut dyn FnMut(&mut [f64], &mut Workspace),
        hv: &mut [f64],
    ) {
        self.grad_into(params, batch, ws, buf);
        between(buf, ws);
        self.hvp_into(params, batch, buf, ws, hv);
    }

    /// [`grad_then_hvp_into`](Model::grad_then_hvp_into) that also
    /// returns `L(θ, B)`, the loss at the gradient's point.
    ///
    /// The default is exactly `grad_then_hvp_into`, then
    /// [`loss_with`](Model::loss_with). A model whose gradient pass
    /// already holds each sample's loss overrides it to sum that loss in
    /// `loss_with`'s order, with the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `buf.len()` or `hv.len()` is not `param_len()`.
    fn loss_grad_then_hvp_into(
        &self,
        params: &[f64],
        batch: &Batch,
        ws: &mut Workspace,
        buf: &mut [f64],
        between: &mut dyn FnMut(&mut [f64], &mut Workspace),
        hv: &mut [f64],
    ) -> f64 {
        self.grad_then_hvp_into(params, batch, ws, buf, between, hv);
        self.loss_with(params, batch, ws)
    }

    /// Fraction of correctly classified samples; 0 for an empty batch.
    ///
    /// Regression models report the fraction of targets within ±0.5.
    fn accuracy(&self, params: &[f64], batch: &Batch) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let correct = batch
            .iter()
            .filter(|(x, y)| match (self.predict(params, x), y) {
                (Prediction::Class { label, .. }, Target::Class(c)) => label == *c,
                (Prediction::Value(v), Target::Value(t)) => (v - t).abs() <= 0.5,
                _ => false,
            })
            .count();
        correct as f64 / batch.len() as f64
    }
}

/// The batch loss from `total`, the sum of `n` sample losses: their mean
/// plus the regularization `reg`, or `reg` alone when `n == 0`. The tail
/// of `loss_with` and of each `loss_grad_into` override, so both round
/// the same way.
pub(crate) fn batch_loss(total: f64, n: usize, reg: f64) -> f64 {
    if n == 0 {
        return reg;
    }
    total / n as f64 + reg
}

/// Central finite-difference Hessian–vector product used as the [`Model`]
/// default: `out ← (∇L(θ + εv) − ∇L(θ − εv)) / 2ε`, where `grad_into(θ, g)`
/// writes `∇L(θ)` into `g`.
///
/// `ε` is scaled by `‖θ‖/‖v‖` so the probe stays well-conditioned for large
/// or small parameter vectors. Writes zeros when `v = 0`.
pub(crate) fn finite_difference_hvp(
    mut grad_into: impl FnMut(&[f64], &mut [f64]),
    params: &[f64],
    v: &[f64],
    out: &mut [f64],
) {
    let vn = fml_linalg::vector::norm2(v);
    if vn == 0.0 {
        out.fill(0.0);
        return;
    }
    let scale = (1.0 + fml_linalg::vector::norm2(params)) / vn;
    let eps = 1e-6 * scale;
    let mut probe = params.to_vec();
    fml_linalg::vector::axpy(eps, v, &mut probe);
    grad_into(&probe, out);
    probe.copy_from_slice(params);
    fml_linalg::vector::axpy(-eps, v, &mut probe);
    let mut gm = vec![0.0; params.len()];
    grad_into(&probe, &mut gm);
    for (o, m) in out.iter_mut().zip(&gm) {
        *o = (*o - m) / (2.0 * eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_accessors() {
        let p = Prediction::Class {
            label: 2,
            probs: vec![0.1, 0.2, 0.7],
        };
        assert_eq!(p.label(), Some(2));
        assert_eq!(p.value(), None);
        let v = Prediction::Value(1.5);
        assert_eq!(v.value(), Some(1.5));
        assert_eq!(v.label(), None);
    }

    /// `L(θ) = ½ θᵀ diag(a) θ`, written with the required methods only.
    #[derive(Debug)]
    struct Diag([f64; 3]);

    impl Model for Diag {
        fn param_len(&self) -> usize {
            3
        }
        fn input_dim(&self) -> usize {
            3
        }
        fn init_params(&self, _rng: &mut dyn RngCore) -> Vec<f64> {
            vec![0.0; 3]
        }
        fn sample_loss(&self, params: &[f64], _x: &[f64], _y: Target) -> f64 {
            self.loss_with(params, &Batch::empty(3), &mut Workspace::empty())
        }
        fn input_grad(&self, _params: &[f64], x: &[f64], _y: Target) -> Vec<f64> {
            vec![0.0; x.len()]
        }
        fn predict(&self, _params: &[f64], _x: &[f64]) -> Prediction {
            Prediction::Value(0.0)
        }
        fn loss_with(&self, params: &[f64], _batch: &Batch, _ws: &mut Workspace) -> f64 {
            params
                .iter()
                .zip(&self.0)
                .map(|(x, a)| 0.5 * a * x * x)
                .sum()
        }
        fn grad_into(&self, params: &[f64], _b: &Batch, _ws: &mut Workspace, out: &mut [f64]) {
            for ((o, x), a) in out.iter_mut().zip(params).zip(&self.0) {
                *o = a * x;
            }
        }
    }

    #[test]
    fn finite_difference_hvp_on_quadratic_is_exact() {
        // A = diag(1, 2, 3) ⇒ ∇²L·v = A·v exactly. A model that writes
        // only the required kernels gets loss/grad from them and its HVP
        // from the finite-difference default.
        let model = Diag([1.0, 2.0, 3.0]);
        let theta = [0.5, -1.0, 2.0];
        let batch = Batch::empty(3);
        assert_eq!(model.loss(&theta, &batch), 0.125 + 1.0 + 6.0);
        assert_eq!(model.grad(&theta, &batch), vec![0.5, -2.0, 6.0]);
        let hv = model.hvp(&theta, &batch, &[1.0, 1.0, -1.0]);
        let expect = [1.0, 2.0, -3.0];
        for (g, e) in hv.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4, "got {g}, want {e}");
        }
    }

    #[test]
    fn finite_difference_hvp_zero_vector() {
        let mut hv = [f64::NAN; 2];
        finite_difference_hvp(
            |p, g| g.copy_from_slice(p),
            &[1.0, 2.0],
            &[0.0, 0.0],
            &mut hv,
        );
        assert_eq!(hv, [0.0, 0.0]);
    }

    #[test]
    fn model_trait_is_object_safe() {
        fn _takes_dyn(_m: &dyn Model) {}
    }
}
