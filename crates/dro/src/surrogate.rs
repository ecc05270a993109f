use fml_models::{Model, Target};

use crate::attack::BoxConstraint;
use crate::TransportCost;

/// Result of maximizing the robust surrogate at one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogatePoint {
    /// The adversarial input `x*` (the inner maximizer).
    pub x_star: Vec<f64>,
    /// Surrogate value `l(θ, (x*, y₀)) − λ·c((x*, y₀), (x₀, y₀))`.
    pub value: f64,
    /// Plain loss at the adversarial point, `l(θ, (x*, y₀))`.
    pub adversarial_loss: f64,
    /// Transport cost actually paid, `c((x*, y₀), (x₀, y₀))`.
    pub transport_cost: f64,
}

/// Gradient-ascent maximizer of the robust surrogate loss
/// `l_λ(θ, (x₀, y₀)) = sup_x { l(θ, (x, y₀)) − λ c((x, y₀), (x₀, y₀)) }`.
///
/// This implements the adversarial data-generation inner loop of
/// Algorithm 2 (lines 17–21): `Ta` steps of
/// `x ← x + ν ∇_x { l(φ, (x, y)) − λ c((x, y), (x₀, y₀)) }`.
///
/// For `λ` above the smoothness of the loss in `x` (`H_xx`), the inner
/// objective is `(λ·m_c − H_xx)`-strongly concave (`m_c` = cost strong
/// convexity) and ascent converges; smaller `λ` buys a larger uncertainty
/// set — the robustness/accuracy dial of the paper's Figure 4.
///
/// # Examples
///
/// ```
/// use fml_dro::{RobustSurrogate, SquaredL2Cost};
/// use fml_models::{LinearRegression, Model, Target};
///
/// let model = LinearRegression::new(2);
/// let surrogate = RobustSurrogate::new(SquaredL2Cost, 10.0).with_steps(20).with_step_size(0.05);
/// let params = [1.0, -1.0, 0.0];
/// let point = surrogate.maximize(&model, &params, &[0.5, 0.5], Target::Value(0.0));
/// // The adversarial loss is at least the clean loss.
/// assert!(point.adversarial_loss + 1e-9 >= model.sample_loss(&params, &[0.5, 0.5], Target::Value(0.0)));
/// ```
#[derive(Debug, Clone)]
pub struct RobustSurrogate<C> {
    cost: C,
    lambda: f64,
    steps: usize,
    step_size: f64,
    constraint: BoxConstraint,
}

impl<C: TransportCost> RobustSurrogate<C> {
    /// Creates a maximizer with penalty `λ` (paper defaults: `Ta = 10`
    /// ascent steps of size `ν = 1`).
    ///
    /// # Panics
    ///
    /// Panics when `lambda < 0`.
    pub fn new(cost: C, lambda: f64) -> Self {
        assert!(
            lambda >= 0.0,
            "RobustSurrogate: lambda must be non-negative"
        );
        RobustSurrogate {
            cost,
            lambda,
            steps: 10,
            step_size: 1.0,
            constraint: BoxConstraint::None,
        }
    }

    /// Constrains adversarial points to a box (e.g. the pixel domain
    /// `[0, 1]`). Besides physical validity, this keeps the inner
    /// maximization bounded even when `λ` is below Theorem 4's
    /// strong-concavity threshold (where the unconstrained sup is `+∞`
    /// and ascent would otherwise run off to meaningless inputs).
    pub fn with_constraint(mut self, constraint: BoxConstraint) -> Self {
        self.constraint = constraint;
        self
    }

    /// Sets the number of ascent steps `Ta`.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Sets the ascent step size `ν`.
    ///
    /// # Panics
    ///
    /// Panics when `step_size <= 0`.
    pub fn with_step_size(mut self, step_size: f64) -> Self {
        assert!(
            step_size > 0.0,
            "RobustSurrogate: step size must be positive"
        );
        self.step_size = step_size;
        self
    }

    /// The inner objective `l(θ, (x, y₀)) − λ c((x, y₀), (x₀, y₀))`.
    fn objective(
        &self,
        model: &dyn Model,
        params: &[f64],
        x: &[f64],
        x0: &[f64],
        y0: Target,
    ) -> f64 {
        model.sample_loss(params, x, y0) - self.lambda * self.cost.cost(x, y0, x0, y0)
    }

    /// Runs `Ta` steps of gradient ascent from `x₀` and returns the
    /// adversarial point. A backtracking guard halves the step when an
    /// update would *decrease* the objective, so large `ν` (the paper uses
    /// `ν = 1`) cannot diverge on small-`λ` configurations.
    pub fn maximize(
        &self,
        model: &dyn Model,
        params: &[f64],
        x0: &[f64],
        y0: Target,
    ) -> SurrogatePoint {
        let mut x = x0.to_vec();
        let mut obj = self.objective(model, params, &x, x0, y0);
        let mut step = self.step_size;
        for _ in 0..self.steps {
            let mut g = model.input_grad(params, &x, y0);
            let cg = self.cost.grad_x(&x, x0);
            fml_linalg::vector::axpy(-self.lambda, &cg, &mut g);
            let mut candidate = x.clone();
            fml_linalg::vector::axpy(step, &g, &mut candidate);
            self.constraint.apply(&mut candidate);
            let cand_obj = self.objective(model, params, &candidate, x0, y0);
            if cand_obj.is_finite() && cand_obj >= obj {
                x = candidate;
                obj = cand_obj;
            } else {
                step *= 0.5;
                if step < 1e-12 {
                    break;
                }
            }
        }
        let adversarial_loss = model.sample_loss(params, &x, y0);
        let transport_cost = self.cost.cost(&x, y0, x0, y0);
        SurrogatePoint {
            x_star: x,
            value: adversarial_loss - self.lambda * transport_cost,
            adversarial_loss,
            transport_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SquaredL2Cost;
    use fml_models::{LinearRegression, LogisticRegression};
    use rand::SeedableRng;

    fn linear_setup() -> (LinearRegression, Vec<f64>) {
        (LinearRegression::new(2), vec![1.0, -2.0, 0.5])
    }

    #[test]
    fn surrogate_value_at_least_clean_loss_minus_zero_cost() {
        let (model, params) = linear_setup();
        let s = RobustSurrogate::new(SquaredL2Cost, 5.0)
            .with_steps(30)
            .with_step_size(0.05);
        let x0 = [0.2, 0.4];
        let clean = model.sample_loss(&params, &x0, Target::Value(1.0));
        let pt = s.maximize(&model, &params, &x0, Target::Value(1.0));
        // x = x₀ is always feasible with zero cost, so sup ≥ clean loss.
        assert!(pt.value + 1e-9 >= clean, "value {} clean {clean}", pt.value);
        assert!(pt.transport_cost >= 0.0);
    }

    #[test]
    fn larger_lambda_shrinks_perturbation() {
        let (model, params) = linear_setup();
        let x0 = [0.2, 0.4];
        let mut radii = Vec::new();
        for lambda in [0.5, 2.0, 20.0] {
            let s = RobustSurrogate::new(SquaredL2Cost, lambda)
                .with_steps(60)
                .with_step_size(0.05);
            let pt = s.maximize(&model, &params, &x0, Target::Value(1.0));
            radii.push(fml_linalg::vector::dist2(&pt.x_star, &x0));
        }
        assert!(
            radii[0] >= radii[1] && radii[1] >= radii[2],
            "perturbation should shrink with λ: {radii:?}"
        );
    }

    #[test]
    fn analytic_maximizer_for_linear_model() {
        // For squared loss with residual r and weights w:
        //   objective(δ) = ½(r + wᵀδ)² − λ‖δ‖²   (δ = x − x₀)
        // Stationarity: (r + wᵀδ)w = 2λδ ⇒ δ = t·w with
        //   t = r / (2λ − ‖w‖²)  for 2λ > ‖w‖².
        let model = LinearRegression::new(2);
        let params = vec![1.0, 0.5, 0.0]; // w = (1, 0.5), b = 0
        let x0 = [1.0, 1.0];
        let y = Target::Value(0.5);
        let r = 1.0 + 0.5 - 0.5; // wᵀx₀ + b − y = 1.0
        let w_sq = 1.25;
        let lambda = 3.0;
        let t = r / (2.0 * lambda - w_sq);
        let expect = [x0[0] + t * 1.0, x0[1] + t * 0.5];
        let s = RobustSurrogate::new(SquaredL2Cost, lambda)
            .with_steps(500)
            .with_step_size(0.05);
        let pt = s.maximize(&model, &params, &x0, y);
        assert!(
            fml_linalg::vector::approx_eq(&pt.x_star, &expect, 1e-4),
            "got {:?}, want {:?}",
            pt.x_star,
            expect
        );
    }

    #[test]
    fn ascent_increases_classifier_loss() {
        let model = LogisticRegression::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let params = model.init_params(&mut rng);
        let x0 = [0.5, -0.5, 1.0];
        let y = Target::Class(1);
        let clean = model.sample_loss(&params, &x0, y);
        let s = RobustSurrogate::new(SquaredL2Cost, 0.5)
            .with_steps(20)
            .with_step_size(0.5);
        let pt = s.maximize(&model, &params, &x0, y);
        assert!(pt.adversarial_loss >= clean);
    }

    #[test]
    fn zero_steps_returns_clean_point() {
        let (model, params) = linear_setup();
        let s = RobustSurrogate::new(SquaredL2Cost, 1.0).with_steps(0);
        let pt = s.maximize(&model, &params, &[0.3, 0.3], Target::Value(0.0));
        assert_eq!(pt.x_star, vec![0.3, 0.3]);
        assert_eq!(pt.transport_cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be non-negative")]
    fn rejects_negative_lambda() {
        RobustSurrogate::new(SquaredL2Cost, -1.0);
    }

    #[test]
    fn backtracking_prevents_divergence_with_huge_step() {
        let (model, params) = linear_setup();
        // ν = 100 with small λ would explode without the guard.
        let s = RobustSurrogate::new(SquaredL2Cost, 0.1)
            .with_steps(50)
            .with_step_size(100.0);
        let pt = s.maximize(&model, &params, &[0.0, 0.0], Target::Value(0.0));
        assert!(pt.x_star.iter().all(|v| v.is_finite()));
        assert!(pt.value.is_finite());
    }
}
