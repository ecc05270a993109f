use fml_linalg::vector;
use rand::{Rng, RngCore};

use crate::{Batch, Model, Prediction, Target, Workspace};

/// Linear regression with squared loss and optional L2 weight decay:
///
/// ```text
/// L(θ, B) = (1/2|B|) Σ_j (wᵀx_j + b − y_j)² + (λ/2)‖w‖²
/// ```
///
/// Parameters are laid out `[w₀..w_{d−1}, b]`. The bias is **not**
/// regularized. With `λ > 0` (or a full-rank design) the loss is strongly
/// convex and `H`-smooth, which makes this the second workload (after
/// [`crate::Quadratic`]) on which the paper's assumptions hold and the
/// convergence theory can be validated.
///
/// # Examples
///
/// ```
/// use fml_models::{Batch, Model, LinearRegression};
/// use fml_linalg::Matrix;
///
/// let model = LinearRegression::new(1).with_l2(0.0);
/// // Perfect fit y = 2x + 1 has zero loss at w = 2, b = 1.
/// let xs = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]).unwrap();
/// let batch = Batch::regression(xs, vec![1.0, 3.0, 5.0]).unwrap();
/// assert!(model.loss(&[2.0, 1.0], &batch) < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRegression {
    dim: usize,
    l2: f64,
}

impl LinearRegression {
    /// Creates an unregularized linear regressor over `dim` features.
    pub fn new(dim: usize) -> Self {
        LinearRegression { dim, l2: 0.0 }
    }

    /// Sets the L2 weight-decay coefficient `λ`.
    ///
    /// # Panics
    ///
    /// Panics when `l2 < 0`.
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "LinearRegression: l2 must be non-negative");
        self.l2 = l2;
        self
    }

    fn residual(&self, params: &[f64], x: &[f64], y: f64) -> f64 {
        vector::dot(&params[..self.dim], x) + params[self.dim] - y
    }
}

impl Model for LinearRegression {
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
        let reg = 0.5 * self.l2 * vector::norm2_sq(&params[..self.dim]);
        if batch.is_empty() {
            return reg;
        }
        let mut total = 0.0;
        for (x, y) in batch.iter() {
            let r = self.residual(params, x, y.expect_value());
            total += 0.5 * r * r;
        }
        total / batch.len() as f64 + reg
    }

    fn grad_into(&self, params: &[f64], batch: &Batch, _ws: &mut Workspace, out: &mut [f64]) {
        assert_eq!(out.len(), self.param_len(), "grad_into: bad output length");
        out.fill(0.0);
        if !batch.is_empty() {
            let inv_n = 1.0 / batch.len() as f64;
            for (x, y) in batch.iter() {
                let r = self.residual(params, x, y.expect_value());
                vector::axpy(r * inv_n, x, &mut out[..self.dim]);
                out[self.dim] += r * inv_n;
            }
        }
        // L2 on weights only.
        vector::axpy(self.l2, &params[..self.dim], &mut out[..self.dim]);
    }

    fn hvp_into(
        &self,
        _params: &[f64],
        batch: &Batch,
        v: &[f64],
        _ws: &mut Workspace,
        out: &mut [f64],
    ) {
        // Hessian is (1/n)·X̃ᵀX̃ + λ·diag(1,…,1,0) where X̃ = [X | 1].
        assert_eq!(out.len(), self.param_len(), "hvp_into: bad output length");
        out.fill(0.0);
        if !batch.is_empty() {
            let inv_n = 1.0 / batch.len() as f64;
            for (x, _) in batch.iter() {
                let s = vector::dot(&v[..self.dim], x) + v[self.dim];
                vector::axpy(s * inv_n, x, &mut out[..self.dim]);
                out[self.dim] += s * inv_n;
            }
        }
        vector::axpy(self.l2, &v[..self.dim], &mut out[..self.dim]);
    }

    fn sample_loss(&self, params: &[f64], x: &[f64], y: Target) -> f64 {
        let r = self.residual(params, x, y.expect_value());
        0.5 * r * r
    }

    fn input_grad(&self, params: &[f64], x: &[f64], y: Target) -> Vec<f64> {
        let r = self.residual(params, x, y.expect_value());
        vector::scale(r, &params[..self.dim])
    }

    fn predict(&self, params: &[f64], x: &[f64]) -> Prediction {
        Prediction::Value(vector::dot(&params[..self.dim], x) + params[self.dim])
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
        let xs = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0], &[-1.0, 2.0]]).unwrap();
        Batch::regression(xs, vec![1.0, -1.0, 0.5, 2.0]).unwrap()
    }

    #[test]
    fn grad_matches_numeric() {
        let model = LinearRegression::new(2).with_l2(0.1);
        let params = vec![0.3, -0.2, 0.1];
        assert!(check::grad_error(&model, &params, &toy_batch()) < 1e-6);
    }

    #[test]
    fn hvp_matches_finite_difference() {
        let model = LinearRegression::new(2).with_l2(0.05);
        let params = vec![1.0, 2.0, -0.5];
        let v = vec![0.7, -0.3, 1.0];
        assert!(check::hvp_error(&model, &params, &toy_batch(), &v) < 1e-5);
    }

    #[test]
    fn input_grad_matches_numeric() {
        let model = LinearRegression::new(2);
        let err =
            check::input_grad_error(&model, &[0.5, -1.5, 0.2], &[1.0, 2.0], Target::Value(0.7));
        assert!(err < 1e-6, "error {err}");
    }

    #[test]
    fn empty_batch_loss_is_regularizer_only() {
        let model = LinearRegression::new(2).with_l2(2.0);
        let b = Batch::empty(2);
        // reg = 0.5·2·(3²+4²) = 25 (bias excluded).
        assert!((model.loss(&[3.0, 4.0, 100.0], &b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn bias_not_regularized_in_grad() {
        let model = LinearRegression::new(1).with_l2(1.0);
        let b = Batch::empty(1);
        let g = model.grad(&[2.0, 5.0], &b);
        assert_eq!(g, vec![2.0, 0.0]);
    }

    #[test]
    fn gradient_descent_fits_exact_line() {
        let model = LinearRegression::new(1);
        let xs = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let batch = Batch::regression(xs, vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut p = model.init_params(&mut rng);
        for _ in 0..2000 {
            let g = model.grad(&p, &batch);
            vector::axpy(-0.1, &g, &mut p);
        }
        assert!((p[0] - 2.0).abs() < 1e-4, "slope {}", p[0]);
        assert!((p[1] - 1.0).abs() < 1e-4, "intercept {}", p[1]);
        assert!(model.loss(&p, &batch) < 1e-8);
    }

    #[test]
    fn predict_is_affine() {
        let model = LinearRegression::new(2);
        let p = model.predict(&[1.0, 2.0, 3.0], &[10.0, 20.0]);
        assert_eq!(p, Prediction::Value(53.0));
    }

    #[test]
    fn accuracy_counts_close_predictions() {
        let model = LinearRegression::new(1);
        let xs = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let batch = Batch::regression(xs, vec![1.1, 5.0]).unwrap();
        // θ = (1, 0): predictions 1.0 and 2.0 ⇒ only first within ±0.5.
        assert!((model.accuracy(&[1.0, 0.0], &batch) - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_loss_nonnegative(
            w0 in -5.0f64..5.0,
            w1 in -5.0f64..5.0,
            b in -5.0f64..5.0,
        ) {
            let model = LinearRegression::new(2).with_l2(0.01);
            prop_assert!(model.loss(&[w0, w1, b], &toy_batch()) >= 0.0);
        }

        #[test]
        fn prop_grad_check_random_points(
            w0 in -3.0f64..3.0,
            w1 in -3.0f64..3.0,
            b in -3.0f64..3.0,
            l2 in 0.0f64..1.0,
        ) {
            let model = LinearRegression::new(2).with_l2(l2);
            prop_assert!(check::grad_error(&model, &[w0, w1, b], &toy_batch()) < 1e-5);
        }

        #[test]
        fn prop_hvp_linearity(
            s in -3.0f64..3.0,
        ) {
            let model = LinearRegression::new(2).with_l2(0.1);
            let params = [0.1, 0.2, 0.3];
            let batch = toy_batch();
            let v = [1.0, -1.0, 0.5];
            let hv = model.hvp(&params, &batch, &v);
            let hsv = model.hvp(&params, &batch, &vector::scale(s, &v));
            prop_assert!(vector::approx_eq(&hsv, &vector::scale(s, &hv), 1e-9));
        }
    }
}
