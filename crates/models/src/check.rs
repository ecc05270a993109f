//! Numerical-differentiation checks.
//!
//! Every analytic gradient, input gradient, and Hessian–vector product in
//! this crate is validated against the central-difference approximations
//! here; the helpers are public so downstream crates (and users adding
//! their own [`Model`] implementations) can reuse them in their test
//! suites.

use crate::{Batch, Model, Target};

/// Central-difference gradient of `model.loss` at `params`.
pub fn numeric_grad(model: &dyn Model, params: &[f64], batch: &Batch, eps: f64) -> Vec<f64> {
    let mut g = vec![0.0; params.len()];
    let mut p = params.to_vec();
    for i in 0..params.len() {
        let orig = p[i];
        p[i] = orig + eps;
        let lp = model.loss(&p, batch);
        p[i] = orig - eps;
        let lm = model.loss(&p, batch);
        p[i] = orig;
        g[i] = (lp - lm) / (2.0 * eps);
    }
    g
}

/// Central-difference gradient of `model.sample_loss` with respect to the
/// input `x`.
pub fn numeric_input_grad(
    model: &dyn Model,
    params: &[f64],
    x: &[f64],
    y: Target,
    eps: f64,
) -> Vec<f64> {
    let mut g = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let orig = xp[i];
        xp[i] = orig + eps;
        let lp = model.sample_loss(params, &xp, y);
        xp[i] = orig - eps;
        let lm = model.sample_loss(params, &xp, y);
        xp[i] = orig;
        g[i] = (lp - lm) / (2.0 * eps);
    }
    g
}

/// Relative L2 error between the analytic and numeric gradients:
/// `‖g − ĝ‖ / max(1, ‖ĝ‖)`.
pub fn grad_error(model: &dyn Model, params: &[f64], batch: &Batch) -> f64 {
    let analytic = model.grad(params, batch);
    let numeric = numeric_grad(model, params, batch, 1e-5);
    relative_error(&analytic, &numeric)
}

/// Relative L2 error between the model's `hvp` and the finite-difference
/// HVP built from its own `grad`.
pub fn hvp_error(model: &dyn Model, params: &[f64], batch: &Batch, v: &[f64]) -> f64 {
    let analytic = model.hvp(params, batch, v);
    let mut ws = model.workspace();
    let mut numeric = vec![0.0; params.len()];
    crate::traits::finite_difference_hvp(
        |p, g| model.grad_into(p, batch, &mut ws, g),
        params,
        v,
        &mut numeric,
    );
    relative_error(&analytic, &numeric)
}

/// Relative L2 error between the analytic and numeric input gradients.
pub fn input_grad_error(model: &dyn Model, params: &[f64], x: &[f64], y: Target) -> f64 {
    let analytic = model.input_grad(params, x, y);
    let numeric = numeric_input_grad(model, params, x, y, 1e-5);
    relative_error(&analytic, &numeric)
}

fn relative_error(a: &[f64], b: &[f64]) -> f64 {
    let diff = fml_linalg::vector::dist2(a, b);
    diff / fml_linalg::vector::norm2(b).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quadratic;
    use fml_linalg::Matrix;

    #[test]
    fn numeric_grad_matches_analytic_on_quadratic() {
        let model = Quadratic::isotropic(3, 2.0);
        let xs = Matrix::from_rows(&[&[1.0, 0.0, -1.0]]).unwrap();
        let batch = Batch::regression(xs, vec![0.0]).unwrap();
        let params = vec![0.3, -0.7, 1.1];
        assert!(grad_error(&model, &params, &batch) < 1e-6);
    }

    #[test]
    fn hvp_error_small_on_quadratic() {
        let model = Quadratic::isotropic(2, 1.5);
        let xs = Matrix::from_rows(&[&[0.5, 0.5]]).unwrap();
        let batch = Batch::regression(xs, vec![0.0]).unwrap();
        assert!(hvp_error(&model, &[1.0, 2.0], &batch, &[1.0, -1.0]) < 1e-5);
    }
}
