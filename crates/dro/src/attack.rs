//! Evaluation-time adversarial attacks.
//!
//! The paper evaluates robustness by attacking the *adapted* model at the
//! target node with the **Fast Gradient Sign Method** (Goodfellow et al.)
//! parameterized by `ξ`; Figure 4(e) sweeps `ξ`. FGSM is the only attack
//! here: [`fgsm_batch`] perturbs a batch and the caller scores it with
//! `Model::loss` / `Model::accuracy` (Figures 4(b), 4(d)).

use fml_models::{Batch, Model, Target};

/// Optional box constraint applied after each perturbation step (e.g.
/// pixel range `[0, 1]` for image data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoxConstraint {
    /// No clamping.
    None,
    /// Clamp every coordinate into `[lo, hi]`.
    Clamp {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl BoxConstraint {
    /// Applies the constraint to a point in place.
    pub fn apply(self, x: &mut [f64]) {
        if let BoxConstraint::Clamp { lo, hi } = self {
            fml_linalg::vector::clamp_in_place(x, lo, hi);
        }
    }
}

/// One-step FGSM perturbation of a single input:
/// `x_adv = x + ξ·sign(∇ₓ l(θ, (x, y)))`.
fn fgsm(
    model: &dyn Model,
    params: &[f64],
    x: &[f64],
    y: Target,
    xi: f64,
    constraint: BoxConstraint,
) -> Vec<f64> {
    let g = model.input_grad(params, x, y);
    let s = fml_linalg::vector::sign(&g);
    let mut adv = x.to_vec();
    fml_linalg::vector::axpy(xi, &s, &mut adv);
    constraint.apply(&mut adv);
    adv
}

/// FGSM applied to every sample of a batch; returns the perturbed batch
/// (labels unchanged).
pub fn fgsm_batch(
    model: &dyn Model,
    params: &[f64],
    batch: &Batch,
    xi: f64,
    constraint: BoxConstraint,
) -> Batch {
    let mut out = batch.clone();
    for i in 0..batch.len() {
        let adv = fgsm(
            model,
            params,
            batch.feature(i),
            batch.target(i),
            xi,
            constraint,
        );
        out.set_feature(i, &adv);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_linalg::Matrix;
    use fml_models::{LogisticRegression, SoftmaxRegression};
    use rand::SeedableRng;

    fn trained_logistic() -> (LogisticRegression, Vec<f64>, Batch) {
        let model = LogisticRegression::new(2);
        let xs =
            Matrix::from_rows(&[&[1.0, 0.5], &[2.0, 1.0], &[-1.0, -0.5], &[-2.0, -1.0]]).unwrap();
        let batch = Batch::classification(xs, vec![1, 1, 0, 0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut p = model.init_params(&mut rng);
        for _ in 0..400 {
            let g = model.grad(&p, &batch);
            fml_linalg::vector::axpy(-0.5, &g, &mut p);
        }
        (model, p, batch)
    }

    #[test]
    fn fgsm_increases_loss() {
        let (model, p, batch) = trained_logistic();
        let clean = model.loss(&p, &batch);
        let attacked = fgsm_batch(&model, &p, &batch, 0.3, BoxConstraint::None);
        let adv = model.loss(&p, &attacked);
        assert!(adv > clean, "FGSM should increase loss: {clean} -> {adv}");
    }

    #[test]
    fn fgsm_perturbation_is_bounded_by_xi_in_linf() {
        let (model, p, batch) = trained_logistic();
        let adv = fgsm_batch(&model, &p, &batch, 0.2, BoxConstraint::None);
        for i in 0..batch.len() {
            let d: Vec<f64> = fml_linalg::vector::sub(adv.feature(i), batch.feature(i));
            assert!(d.iter().all(|v| v.abs() <= 0.2 + 1e-12));
        }
    }

    #[test]
    fn zero_xi_is_identity() {
        let (model, p, batch) = trained_logistic();
        let adv = fgsm_batch(&model, &p, &batch, 0.0, BoxConstraint::None);
        assert_eq!(adv, batch);
    }

    #[test]
    fn clamp_keeps_pixels_in_unit_box() {
        let model = SoftmaxRegression::new(3, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = model.init_params(&mut rng);
        let adv = fgsm(
            &model,
            &p,
            &[0.99, 0.01, 0.5],
            Target::Class(0),
            0.5,
            BoxConstraint::Clamp { lo: 0.0, hi: 1.0 },
        );
        assert!(adv.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn fgsm_accuracy_not_above_clean_accuracy() {
        let (model, p, batch) = trained_logistic();
        let clean = model.accuracy(&p, &batch);
        let attacked = fgsm_batch(&model, &p, &batch, 0.5, BoxConstraint::None);
        assert!(model.accuracy(&p, &attacked) <= clean + 1e-12);
    }
}
