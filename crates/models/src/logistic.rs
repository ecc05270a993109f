use fml_linalg::{softmax::sigmoid, vector};
use rand::{Rng, RngCore};

use crate::traits::batch_loss;
use crate::{Batch, Model, Prediction, Target, Workspace};

/// Binary logistic regression with cross-entropy loss and L2 weight decay.
///
/// Labels are `Target::Class(0)` / `Target::Class(1)`. Parameters are laid
/// out `[w₀..w_{d−1}, b]`; the bias is not regularized. With `λ > 0` the
/// loss is `λ`-strongly convex and `(¼·max‖x̃‖² + λ)`-smooth, placing it in
/// the regime the paper's Assumptions 1–2 describe ("logistic regression
/// over a bounded domain").
///
/// # Examples
///
/// ```
/// use fml_models::{Batch, Model, LogisticRegression};
/// use fml_linalg::Matrix;
///
/// let model = LogisticRegression::new(2);
/// let xs = Matrix::from_rows(&[&[2.0, 0.0], &[-2.0, 0.0]]).unwrap();
/// let batch = Batch::classification(xs, vec![1, 0]).unwrap();
/// // w = (3, 0), b = 0 separates the two points.
/// assert_eq!(model.accuracy(&[3.0, 0.0, 0.0], &batch), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticRegression {
    dim: usize,
    l2: f64,
}

impl LogisticRegression {
    /// Creates an unregularized binary classifier over `dim` features.
    pub fn new(dim: usize) -> Self {
        LogisticRegression { dim, l2: 0.0 }
    }

    /// Sets the L2 weight-decay coefficient.
    ///
    /// # Panics
    ///
    /// Panics when `l2 < 0`.
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "LogisticRegression: l2 must be non-negative");
        self.l2 = l2;
        self
    }

    fn logit(&self, params: &[f64], x: &[f64]) -> f64 {
        vector::dot(&params[..self.dim], x) + params[self.dim]
    }

    /// The L2 term `½λ‖w‖²` of the loss.
    fn decay(&self, params: &[f64]) -> f64 {
        0.5 * self.l2 * vector::norm2_sq(&params[..self.dim])
    }

    /// `grad_into`, also adding each sample's loss, from the same logit,
    /// to `loss` when it is given.
    fn grad_pass(
        &self,
        params: &[f64],
        batch: &Batch,
        out: &mut [f64],
        mut loss: Option<&mut f64>,
    ) {
        assert_eq!(out.len(), self.param_len(), "grad_into: bad output length");
        out.fill(0.0);
        if !batch.is_empty() {
            let inv_n = 1.0 / batch.len() as f64;
            for (x, y) in batch.iter() {
                let z = self.logit(params, x);
                let y01 = Self::label01(y);
                if let Some(total) = loss.as_deref_mut() {
                    *total += fml_linalg::softmax::logistic_loss(z, 2.0 * y01 - 1.0);
                }
                let r = sigmoid(z) - y01;
                vector::axpy(r * inv_n, x, &mut out[..self.dim]);
                out[self.dim] += r * inv_n;
            }
        }
        vector::axpy(self.l2, &params[..self.dim], &mut out[..self.dim]);
    }

    fn label01(y: Target) -> f64 {
        let c = y.expect_class();
        assert!(c < 2, "LogisticRegression: labels must be 0 or 1");
        c as f64
    }
}

impl Model for LogisticRegression {
    fn param_len(&self) -> usize {
        self.dim + 1
    }

    fn input_dim(&self) -> usize {
        self.dim
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let scale = (1.0 / self.dim.max(1) as f64).sqrt();
        (0..self.param_len())
            .map(|_| rng.gen_range(-scale..scale))
            .collect()
    }

    fn loss_with(&self, params: &[f64], batch: &Batch, _ws: &mut Workspace) -> f64 {
        let reg = self.decay(params);
        let mut total = 0.0;
        for (x, y) in batch.iter() {
            let z = self.logit(params, x);
            let sgn = 2.0 * Self::label01(y) - 1.0;
            total += fml_linalg::softmax::logistic_loss(z, sgn);
        }
        batch_loss(total, batch.len(), reg)
    }

    fn grad_into(&self, params: &[f64], batch: &Batch, _ws: &mut Workspace, out: &mut [f64]) {
        self.grad_pass(params, batch, out, None);
    }

    /// The gradient pass's logit feeds the sample loss too, summed in
    /// `loss_with`'s order: one `x·w` a sample, not two.
    fn loss_grad_into(
        &self,
        params: &[f64],
        batch: &Batch,
        _ws: &mut Workspace,
        out: &mut [f64],
    ) -> f64 {
        let reg = self.decay(params);
        let mut total = 0.0;
        self.grad_pass(params, batch, out, Some(&mut total));
        batch_loss(total, batch.len(), reg)
    }

    fn hvp_into(
        &self,
        params: &[f64],
        batch: &Batch,
        v: &[f64],
        _ws: &mut Workspace,
        out: &mut [f64],
    ) {
        // Hessian = (1/n) Σ p(1−p)·x̃x̃ᵀ + λ·diag(1,…,1,0).
        assert_eq!(out.len(), self.param_len(), "hvp_into: bad output length");
        out.fill(0.0);
        if !batch.is_empty() {
            let inv_n = 1.0 / batch.len() as f64;
            for (x, _) in batch.iter() {
                let p = sigmoid(self.logit(params, x));
                let w = p * (1.0 - p);
                let s = vector::dot(&v[..self.dim], x) + v[self.dim];
                vector::axpy(w * s * inv_n, x, &mut out[..self.dim]);
                out[self.dim] += w * s * inv_n;
            }
        }
        vector::axpy(self.l2, &v[..self.dim], &mut out[..self.dim]);
    }

    fn sample_loss(&self, params: &[f64], x: &[f64], y: Target) -> f64 {
        let z = self.logit(params, x);
        let sgn = 2.0 * Self::label01(y) - 1.0;
        fml_linalg::softmax::logistic_loss(z, sgn)
    }

    fn input_grad(&self, params: &[f64], x: &[f64], y: Target) -> Vec<f64> {
        let p = sigmoid(self.logit(params, x));
        let r = p - Self::label01(y);
        vector::scale(r, &params[..self.dim])
    }

    fn predict(&self, params: &[f64], x: &[f64]) -> Prediction {
        let p = sigmoid(self.logit(params, x));
        Prediction::Class {
            label: usize::from(p >= 0.5),
            probs: vec![1.0 - p, p],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use fml_linalg::Matrix;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn toy_batch() -> Batch {
        let xs = Matrix::from_rows(&[
            &[1.0, 2.0],
            &[-1.0, 0.5],
            &[0.3, -0.8],
            &[2.0, 2.0],
            &[-2.0, -1.0],
        ])
        .unwrap();
        Batch::classification(xs, vec![1, 0, 0, 1, 0]).unwrap()
    }

    #[test]
    fn grad_matches_numeric() {
        let model = LogisticRegression::new(2).with_l2(0.05);
        assert!(check::grad_error(&model, &[0.2, -0.4, 0.1], &toy_batch()) < 1e-6);
    }

    #[test]
    fn hvp_matches_finite_difference() {
        let model = LogisticRegression::new(2).with_l2(0.05);
        let v = vec![1.0, -0.5, 0.3];
        assert!(check::hvp_error(&model, &[0.2, -0.4, 0.1], &toy_batch(), &v) < 1e-4);
    }

    #[test]
    fn input_grad_matches_numeric() {
        let model = LogisticRegression::new(2);
        let err = check::input_grad_error(&model, &[1.0, -2.0, 0.5], &[0.3, 0.7], Target::Class(1));
        assert!(err < 1e-6, "error {err}");
    }

    #[test]
    fn loss_at_zero_params_is_log2() {
        let model = LogisticRegression::new(2);
        let l = model.loss(&[0.0, 0.0, 0.0], &toy_batch());
        assert!((l - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn training_separable_data_drives_loss_down() {
        let model = LogisticRegression::new(1).with_l2(1e-3);
        let xs = Matrix::from_rows(&[&[1.0], &[2.0], &[-1.0], &[-2.0]]).unwrap();
        let batch = Batch::classification(xs, vec![1, 1, 0, 0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut p = model.init_params(&mut rng);
        let initial = model.loss(&p, &batch);
        for _ in 0..500 {
            let g = model.grad(&p, &batch);
            vector::axpy(-0.5, &g, &mut p);
        }
        assert!(model.loss(&p, &batch) < initial / 4.0);
        assert_eq!(model.accuracy(&p, &batch), 1.0);
    }

    #[test]
    fn predict_probabilities_are_complementary() {
        let model = LogisticRegression::new(1);
        if let Prediction::Class { probs, .. } = model.predict(&[1.0, 0.0], &[0.3]) {
            assert!((probs[0] + probs[1] - 1.0).abs() < 1e-12);
        } else {
            panic!("expected class prediction");
        }
    }

    #[test]
    #[should_panic(expected = "labels must be 0 or 1")]
    fn rejects_multiclass_labels() {
        let model = LogisticRegression::new(1);
        model.sample_loss(&[0.0, 0.0], &[1.0], Target::Class(2));
    }

    proptest! {
        #[test]
        fn prop_hessian_is_positive_semidefinite(
            w0 in -2.0f64..2.0,
            w1 in -2.0f64..2.0,
            v0 in -2.0f64..2.0,
            v1 in -2.0f64..2.0,
        ) {
            // vᵀHv ≥ 0 for cross-entropy + L2.
            let model = LogisticRegression::new(2).with_l2(0.01);
            let params = [w0, w1, 0.0];
            let v = [v0, v1, 0.5];
            let hv = model.hvp(&params, &toy_batch(), &v);
            prop_assert!(vector::dot(&v, &hv) >= -1e-9);
        }

        #[test]
        fn prop_grad_check_random(
            w0 in -2.0f64..2.0,
            w1 in -2.0f64..2.0,
            b in -1.0f64..1.0,
        ) {
            let model = LogisticRegression::new(2).with_l2(0.1);
            prop_assert!(check::grad_error(&model, &[w0, w1, b], &toy_batch()) < 1e-5);
        }
    }
}
