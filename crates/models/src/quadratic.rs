use fml_linalg::{vector, Matrix};
use rand::{Rng, RngCore};

use crate::{Batch, Model, Prediction, Target, Workspace};

/// A strongly convex quadratic task family:
///
/// ```text
/// L(θ, B) = (1/|B|) Σ_j ½ (θ − x_j)ᵀ A (θ − x_j)
/// ```
///
/// where `A` is symmetric positive definite and each sample's feature
/// vector `x_j` acts as a "center" drawn by the task. This model satisfies
/// the paper's Assumptions 1–4 **exactly**:
///
/// * Assumption 1 (strong convexity): `μ = λ_min(A)`;
/// * Assumption 2 (smoothness): `H = λ_max(A)` and the gradient norm is
///   bounded on any bounded domain;
/// * Assumption 3 (Hessian Lipschitz): the Hessian is constant, so `ρ = 0`;
/// * Assumption 4 (node similarity): `‖∇L_i − ∇L_w‖ = ‖A(x̄_i − x̄_w)‖` is
///   directly controlled by how far apart node centers are, and the
///   Hessian variation `σ_i` is exactly 0.
///
/// That makes it the reference workload for validating Lemma 1 and
/// Theorem 2 numerically: every constant in the bound is computable in
/// closed form.
///
/// # Examples
///
/// ```
/// use fml_models::{Batch, Model, Quadratic};
/// use fml_linalg::Matrix;
///
/// let model = Quadratic::isotropic(2, 2.0); // A = 2·I ⇒ μ = H = 2
/// let centers = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
/// let batch = Batch::regression(centers, vec![0.0]).unwrap();
/// // Gradient at θ = 0 is A(θ − x̄) = −2·x̄.
/// let g = model.grad(&[0.0, 0.0], &batch);
/// assert_eq!(g, vec![-2.0, -2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quadratic {
    a: Matrix,
}

impl Quadratic {
    /// Creates a quadratic task with curvature matrix `A`.
    ///
    /// # Panics
    ///
    /// Panics when `a` is not square. Positive definiteness is the caller's
    /// responsibility (use [`Quadratic::isotropic`] for guaranteed-SPD
    /// construction).
    pub fn new(a: Matrix) -> Self {
        assert_eq!(a.rows(), a.cols(), "Quadratic: curvature must be square");
        Quadratic { a }
    }

    /// `A = c·I` — strong convexity and smoothness both equal to `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c <= 0`.
    pub fn isotropic(dim: usize, c: f64) -> Self {
        assert!(c > 0.0, "Quadratic: curvature must be positive");
        Quadratic::new(Matrix::from_diag(&vec![c; dim]))
    }

    fn mean_center(&self, batch: &Batch) -> Vec<f64> {
        let mut c = vec![0.0; self.a.rows()];
        if batch.is_empty() {
            return c;
        }
        for (x, _) in batch.iter() {
            vector::axpy(1.0, x, &mut c);
        }
        vector::scale_in_place(1.0 / batch.len() as f64, &mut c);
        c
    }
}

impl Model for Quadratic {
    fn param_len(&self) -> usize {
        self.a.rows()
    }

    fn input_dim(&self) -> usize {
        self.a.rows()
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        (0..self.param_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect()
    }

    fn loss_with(&self, params: &[f64], batch: &Batch, _ws: &mut Workspace) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (x, y) in batch.iter() {
            total += self.sample_loss(params, x, y);
        }
        total / batch.len() as f64
    }

    fn grad_into(&self, params: &[f64], batch: &Batch, _ws: &mut Workspace, out: &mut [f64]) {
        let c = self.mean_center(batch);
        let diff = vector::sub(params, &c);
        self.a.matvec_into(&diff, out);
    }

    fn hvp_into(
        &self,
        _params: &[f64],
        _batch: &Batch,
        v: &[f64],
        _ws: &mut Workspace,
        out: &mut [f64],
    ) {
        self.a.matvec_into(v, out);
    }

    fn sample_loss(&self, params: &[f64], x: &[f64], _y: Target) -> f64 {
        let diff = vector::sub(params, x);
        0.5 * vector::dot(&diff, &self.a.matvec(&diff))
    }

    fn input_grad(&self, params: &[f64], x: &[f64], _y: Target) -> Vec<f64> {
        // ∇_x ½(θ−x)ᵀA(θ−x) = A(x − θ)
        let diff = vector::sub(x, params);
        self.a.matvec(&diff)
    }

    fn predict(&self, params: &[f64], x: &[f64]) -> Prediction {
        // Linear readout θᵀx; the quadratic family is a theory workload and
        // only exposes this for smoke tests.
        Prediction::Value(vector::dot(params, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use rand::SeedableRng;

    fn batch_with_centers(centers: &[&[f64]]) -> Batch {
        let xs = Matrix::from_rows(centers).unwrap();
        let n = xs.rows();
        Batch::regression(xs, vec![0.0; n]).unwrap()
    }

    #[test]
    fn minimizer_is_mean_center() {
        let model = Quadratic::isotropic(2, 3.0);
        let batch = batch_with_centers(&[&[1.0, 0.0], &[3.0, 2.0]]);
        // Gradient vanishes at the mean of centers (2, 1).
        let g = model.grad(&[2.0, 1.0], &batch);
        assert!(vector::norm2(&g) < 1e-12);
        // Loss at the minimizer is below loss anywhere else.
        let at_min = model.loss(&[2.0, 1.0], &batch);
        assert!(at_min < model.loss(&[0.0, 0.0], &batch));
    }

    #[test]
    fn grad_matches_numeric() {
        let model = Quadratic::new(Matrix::from_diag(&[1.0, 4.0, 2.0]));
        let batch = batch_with_centers(&[&[0.5, -0.5, 1.0], &[-1.0, 2.0, 0.0]]);
        assert!(check::grad_error(&model, &[0.2, 0.3, -0.1], &batch) < 1e-7);
    }

    #[test]
    fn hvp_is_exact_curvature_product() {
        let model = Quadratic::new(Matrix::from_diag(&[1.0, 2.0]));
        let batch = batch_with_centers(&[&[0.0, 0.0]]);
        let hv = model.hvp(&[5.0, 5.0], &batch, &[1.0, 1.0]);
        assert_eq!(hv, vec![1.0, 2.0]);
        assert!(check::hvp_error(&model, &[5.0, 5.0], &batch, &[1.0, 1.0]) < 1e-5);
    }

    #[test]
    fn input_grad_matches_numeric() {
        let model = Quadratic::new(Matrix::from_diag(&[2.0, 1.0]));
        let err = check::input_grad_error(&model, &[1.0, -1.0], &[0.5, 0.5], Target::Value(0.0));
        assert!(err < 1e-7, "input grad error {err}");
    }

    #[test]
    fn empty_batch_loss_is_zero() {
        let model = Quadratic::isotropic(2, 1.0);
        let batch = Batch::empty(2);
        assert_eq!(model.loss(&[1.0, 1.0], &batch), 0.0);
    }

    #[test]
    fn init_params_in_range_and_deterministic() {
        let model = Quadratic::isotropic(4, 1.0);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        let p1 = model.init_params(&mut r1);
        let p2 = model.init_params(&mut r2);
        assert_eq!(p1, p2);
        assert!(p1.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_curvature() {
        Quadratic::isotropic(2, 0.0);
    }

    #[test]
    fn gradient_descent_converges_at_known_rate() {
        // With A = c·I and step 1/c, one gradient step lands exactly on the
        // minimizer — the strongly convex contraction at its extreme.
        let model = Quadratic::isotropic(2, 2.0);
        let batch = batch_with_centers(&[&[3.0, -1.0]]);
        let theta = vec![0.0, 0.0];
        let g = model.grad(&theta, &batch);
        let next = vector::sub(&theta, &vector::scale(0.5, &g));
        assert!(vector::approx_eq(&next, &[3.0, -1.0], 1e-12));
    }
}
