//! Constants, bounds, and estimators for the paper's convergence theory.
//!
//! The analysis (§IV, §V-D) characterizes FedML through a handful of
//! constants:
//!
//! * Assumptions 1–3: strong convexity `μ`, smoothness `H`, gradient bound
//!   `B`, Hessian-Lipschitz `ρ` of the per-node losses;
//! * Assumption 4 (node similarity): per-node gradient/Hessian variation
//!   bounds `δ_i`, `σ_i` against the weighted average loss;
//! * Lemma 1: the meta objective `G` is `μ′`-strongly convex and
//!   `H′`-smooth with `μ′ = μ(1−αH)² − αρB`, `H′ = H(1−αμ)² + αρB`;
//! * Theorem 2: `G(θ^T) − G(θ*) ≤ ξ^T[G(θ⁰) − G(θ*)] +
//!   B(1−αμ)/(1−ξ^{T0})·h(T0)` with `ξ = 1 − 2βμ′(1 − H′β/2)` and
//!   `h(x) = (α′/βH′)[(1+βH′)^x − 1] − α′x`;
//! * Theorem 4: Robust FedML's objective has a unique minimizer when
//!   `λ ≥ H_xx + H_θx·H_xθ/μ`.
//!
//! [`ProblemConstants`] carries Assumptions 1–4; [`MetaConstants`] applies
//! Lemma 1; [`TheoremTwoBound`] evaluates the convergence bound; and
//! [`estimate_constants`] recovers all of them *empirically* from a model
//! and task set by probing gradients and Hessian–vector products — which
//! is how the `theory_check` experiment validates the theorems end to end.

use fml_models::Model;
use rand::Rng;

use crate::SourceTask;

/// Assumptions 1–4 constants for a federated problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemConstants {
    /// Strong convexity `μ` (Assumption 1).
    pub mu: f64,
    /// Smoothness `H` (Assumption 2).
    pub smoothness: f64,
    /// Gradient bound `B` (Assumption 2).
    pub grad_bound: f64,
    /// Hessian Lipschitz constant `ρ` (Assumption 3).
    pub hessian_lipschitz: f64,
    /// Per-node gradient variation `δ_i` (Assumption 4).
    pub delta: Vec<f64>,
    /// Per-node Hessian variation `σ_i` (Assumption 4).
    pub sigma: Vec<f64>,
}

impl ProblemConstants {
    /// Weighted average `δ = Σ ω_i δ_i`.
    pub fn weighted_delta(&self, weights: &[f64]) -> f64 {
        self.delta.iter().zip(weights).map(|(d, w)| d * w).sum()
    }

    /// Weighted average `σ = Σ ω_i σ_i`.
    pub fn weighted_sigma(&self, weights: &[f64]) -> f64 {
        self.sigma.iter().zip(weights).map(|(s, w)| s * w).sum()
    }

    /// `τ = Σ ω_i δ_i σ_i` (Theorem 1).
    pub fn tau(&self, weights: &[f64]) -> f64 {
        self.delta
            .iter()
            .zip(&self.sigma)
            .zip(weights)
            .map(|((d, s), w)| d * s * w)
            .sum()
    }

    /// The admissible inner learning rate of Lemma 1 / Theorem 2:
    /// `α ≤ min{ μ/(2μH + ρB), 1/μ }`.
    pub fn alpha_bound(&self) -> f64 {
        let first =
            self.mu / (2.0 * self.mu * self.smoothness + self.hessian_lipschitz * self.grad_bound);
        first.min(1.0 / self.mu)
    }

    /// Theorem 1's bound on `‖∇G_i − ∇G‖` for node `i`:
    /// `δ_i + αC(Hδ_i + Bσ_i + τ)`.
    pub fn meta_grad_variation(&self, i: usize, alpha: f64, c: f64, weights: &[f64]) -> f64 {
        self.delta[i]
            + alpha
                * c
                * (self.smoothness * self.delta[i]
                    + self.grad_bound * self.sigma[i]
                    + self.tau(weights))
    }
}

/// Lemma 1's constants for the meta objective `G`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaConstants {
    /// `μ′ = μ(1−αH)² − αρB`.
    pub mu_prime: f64,
    /// `H′ = H(1−αμ)² + αρB`.
    pub h_prime: f64,
}

impl MetaConstants {
    /// Applies Lemma 1 at inner rate `alpha`.
    ///
    /// Returns `None` when `alpha` exceeds the admissible bound (the lemma
    /// does not apply) or `μ′` would be non-positive.
    pub fn from_lemma1(pc: &ProblemConstants, alpha: f64) -> Option<Self> {
        if alpha > pc.alpha_bound() {
            return None;
        }
        let mu_prime = pc.mu * (1.0 - alpha * pc.smoothness).powi(2)
            - alpha * pc.hessian_lipschitz * pc.grad_bound;
        let h_prime = pc.smoothness * (1.0 - alpha * pc.mu).powi(2)
            + alpha * pc.hessian_lipschitz * pc.grad_bound;
        if mu_prime <= 0.0 {
            return None;
        }
        Some(MetaConstants { mu_prime, h_prime })
    }

    /// The admissible meta learning rate of Theorem 2:
    /// `β < min{ 1/(2μ′), 2/H′ }`.
    pub fn beta_bound(&self) -> f64 {
        (1.0 / (2.0 * self.mu_prime)).min(2.0 / self.h_prime)
    }

    /// The contraction factor `ξ = 1 − 2βμ′(1 − H′β/2)`.
    ///
    /// # Panics
    ///
    /// Panics when `beta` is outside `(0, beta_bound())`.
    pub fn xi(&self, beta: f64) -> f64 {
        assert!(
            beta > 0.0 && beta < self.beta_bound(),
            "beta must be in (0, {})",
            self.beta_bound()
        );
        1.0 - 2.0 * beta * self.mu_prime * (1.0 - self.h_prime * beta / 2.0)
    }
}

/// Theorem 2's convergence bound, fully parameterized.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoremTwoBound {
    /// Problem constants (Assumptions 1–4).
    pub constants: ProblemConstants,
    /// Lemma 1 constants.
    pub meta: MetaConstants,
    /// Inner rate `α`.
    pub alpha: f64,
    /// Meta rate `β`.
    pub beta: f64,
    /// Local steps `T0`.
    pub t0: usize,
    /// Theorem 1's unspecified absolute constant `C` (the proof shows one
    /// exists for small `α`; `2.0` covers the `2α(…) + O(α²)` expansion
    /// at the rates the experiments use).
    pub c: f64,
    /// Aggregation weights `ω_i`.
    pub weights: Vec<f64>,
}

impl TheoremTwoBound {
    /// `α′ = β[δ + αC(Hδ + Bσ + τ)]` from Theorem 2.
    pub fn alpha_prime(&self) -> f64 {
        let delta = self.constants.weighted_delta(&self.weights);
        let sigma = self.constants.weighted_sigma(&self.weights);
        let tau = self.constants.tau(&self.weights);
        self.beta
            * (delta
                + self.alpha
                    * self.c
                    * (self.constants.smoothness * delta + self.constants.grad_bound * sigma + tau))
    }

    /// `h(x) = (α′/βH′)[(1+βH′)^x − 1] − α′x`; `h(1) = 0`.
    fn h(&self, x: usize) -> f64 {
        let a = self.alpha_prime();
        let bh = self.beta * self.meta.h_prime;
        a / bh * ((1.0 + bh).powi(x as i32) - 1.0) - a * x as f64
    }

    /// The full right-hand side of Theorem 2 after `t` iterations given
    /// the initial optimality gap `G(θ⁰) − G(θ*)`.
    pub fn bound(&self, t: usize, initial_gap: f64) -> f64 {
        let xi = self.meta.xi(self.beta);
        let decay = xi.powi(t as i32) * initial_gap;
        if self.t0 == 1 {
            // Corollary 1: the error floor vanishes because h(1) = 0.
            return decay;
        }
        let floor = self.constants.grad_bound * (1.0 - self.alpha * self.constants.mu)
            / (1.0 - xi.powi(self.t0 as i32))
            * self.h(self.t0);
        decay + floor
    }

    /// The asymptotic error floor (the `t → ∞` limit of [`bound`]).
    ///
    /// [`bound`]: TheoremTwoBound::bound
    pub fn error_floor(&self) -> f64 {
        self.bound(4_000_000, 0.0)
    }
}

/// Theorem 4's penalty threshold: Robust FedML's relaxed objective has a
/// unique minimizer when `λ ≥ H_xx + H_θx·H_xθ/μ`.
pub fn lambda_threshold(h_xx: f64, h_theta_x: f64, h_x_theta: f64, mu: f64) -> f64 {
    h_xx + h_theta_x * h_x_theta / mu
}

/// Theorem 3's adaptation-gap bound at the target node:
/// `αHε + H(1+αH)ε_c + H(1+αH)·‖θ_t* − θ_c*‖`.
pub fn theorem3_bound(
    alpha: f64,
    smoothness: f64,
    epsilon: f64,
    epsilon_c: f64,
    surrogate_difference: f64,
) -> f64 {
    alpha * smoothness * epsilon
        + smoothness * (1.0 + alpha * smoothness) * (epsilon_c + surrogate_difference)
}

/// Empirically estimates [`ProblemConstants`] for a model/task pair by
/// probing gradients and Hessian–vector products at `probes` random
/// parameter points within a ball of radius `radius` around `center`.
///
/// The estimates are *lower* bounds on the true suprema (more probes ⇒
/// tighter), except `μ`, which is an upper bound on the true infimum; the
/// `theory_check` experiment inflates them slightly before evaluating
/// Theorem 2. Curvature is probed through Rayleigh quotients `vᵀHv/‖v‖²`
/// and HVP norms with random unit directions.
pub fn estimate_constants<R: Rng + ?Sized>(
    model: &dyn Model,
    tasks: &[SourceTask],
    center: &[f64],
    radius: f64,
    probes: usize,
    rng: &mut R,
) -> ProblemConstants {
    assert!(!tasks.is_empty(), "estimate_constants: no tasks");
    let d = model.param_len();
    let weights: Vec<f64> = tasks.iter().map(|t| t.weight).collect();

    let mut mu = f64::INFINITY;
    let mut smoothness = 0.0f64;
    let mut grad_bound = 0.0f64;
    let mut rho = 0.0f64;
    let mut delta = vec![0.0f64; tasks.len()];
    let mut sigma = vec![0.0f64; tasks.len()];

    // (probe point, per-node gradients, [direction ‖ weighted HVP]) of the previous probe.
    type Probe = (Vec<f64>, Vec<Vec<f64>>, Vec<f64>);
    let mut prev_point: Option<Probe> = None;

    for _ in 0..probes.max(1) {
        // Random probe point and unit direction.
        let theta: Vec<f64> = center
            .iter()
            .map(|&c| c + radius * (rng.gen::<f64>() * 2.0 - 1.0))
            .collect();
        let mut v: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let vn = fml_linalg::vector::norm2(&v).max(1e-12);
        fml_linalg::vector::scale_in_place(1.0 / vn, &mut v);

        // Per-node gradients and HVPs on the *training* split: the
        // assumptions are stated for the per-node losses L_i.
        let grads: Vec<Vec<f64>> = tasks
            .iter()
            .map(|t| model.grad(&theta, &t.split.train))
            .collect();
        let hvps: Vec<Vec<f64>> = tasks
            .iter()
            .map(|t| model.hvp(&theta, &t.split.train, &v))
            .collect();

        // Weighted averages (the L_w of Assumption 4).
        let grad_views: Vec<&[f64]> = grads.iter().map(|g| g.as_slice()).collect();
        let gw = fml_linalg::vector::weighted_sum(&grad_views, &weights).expect("nonempty");
        let hvp_views: Vec<&[f64]> = hvps.iter().map(|h| h.as_slice()).collect();
        let hw = fml_linalg::vector::weighted_sum(&hvp_views, &weights).expect("nonempty");

        for (i, (gi, hi)) in grads.iter().zip(&hvps).enumerate() {
            grad_bound = grad_bound.max(fml_linalg::vector::norm2(gi));
            delta[i] = delta[i].max(fml_linalg::vector::dist2(gi, &gw));
            sigma[i] = sigma[i].max(fml_linalg::vector::dist2(hi, &hw));
            let rayleigh = fml_linalg::vector::dot(&v, hi);
            mu = mu.min(rayleigh);
            smoothness = smoothness.max(fml_linalg::vector::norm2(hi));
        }

        // Hessian Lipschitz: compare the weighted HVP against the previous
        // probe's weighted HVP re-evaluated along the same direction.
        if let Some((prev_theta, _, prev_hw_dir)) = &prev_point {
            let dist = fml_linalg::vector::dist2(&theta, prev_theta);
            if dist > 1e-9 {
                // Re-evaluate current weighted Hessian along the previous
                // direction for a like-for-like comparison.
                let prev_v = &prev_hw_dir[..d];
                let cur: Vec<Vec<f64>> = tasks
                    .iter()
                    .map(|t| model.hvp(&theta, &t.split.train, prev_v))
                    .collect();
                let cur_views: Vec<&[f64]> = cur.iter().map(|h| h.as_slice()).collect();
                let cur_w =
                    fml_linalg::vector::weighted_sum(&cur_views, &weights).expect("nonempty");
                let prev_hv = &prev_hw_dir[d..];
                rho = rho.max(fml_linalg::vector::dist2(&cur_w, prev_hv) / dist);
            }
        }
        let mut dir_and_hv = v.clone();
        dir_and_hv.extend_from_slice(&hw);
        prev_point = Some((theta, grads, dir_and_hv));
    }

    ProblemConstants {
        mu: mu.max(0.0),
        smoothness,
        grad_bound,
        hessian_lipschitz: rho,
        delta,
        sigma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalStepper;
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{Batch, Quadratic};
    use rand::SeedableRng;

    fn quad_constants() -> ProblemConstants {
        ProblemConstants {
            mu: 1.0,
            smoothness: 1.0,
            grad_bound: 4.0,
            hessian_lipschitz: 0.0,
            delta: vec![2.0, 2.0],
            sigma: vec![0.0, 0.0],
        }
    }

    fn quad_tasks(centers: &[(f64, f64)]) -> Vec<SourceTask> {
        let nodes: Vec<NodeData> = centers
            .iter()
            .enumerate()
            .map(|(id, &(a, b))| {
                let rows: Vec<Vec<f64>> = (0..4).map(|_| vec![a, b]).collect();
                let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
                NodeData {
                    id,
                    batch: Batch::regression(Matrix::from_rows(&refs).unwrap(), vec![0.0; 4])
                        .unwrap(),
                }
            })
            .collect();
        SourceTask::from_nodes_deterministic(&nodes, 2)
    }

    #[test]
    fn alpha_bound_matches_formula() {
        let pc = quad_constants();
        // min(μ/(2μH + ρB), 1/μ) = min(1/2, 1) = 0.5
        assert!((pc.alpha_bound() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lemma1_reduces_correctly_with_zero_rho() {
        let pc = quad_constants();
        let mc = MetaConstants::from_lemma1(&pc, 0.2).unwrap();
        // μ′ = μ(1−αH)² = 0.64; H′ = H(1−αμ)² = 0.64.
        assert!((mc.mu_prime - 0.64).abs() < 1e-12);
        assert!((mc.h_prime - 0.64).abs() < 1e-12);
    }

    #[test]
    fn lemma1_rejects_large_alpha() {
        let pc = quad_constants();
        assert!(MetaConstants::from_lemma1(&pc, 0.9).is_none());
    }

    #[test]
    fn xi_is_a_contraction_for_admissible_beta() {
        let pc = quad_constants();
        let mc = MetaConstants::from_lemma1(&pc, 0.2).unwrap();
        let beta = 0.5 * mc.beta_bound();
        let xi = mc.xi(beta);
        assert!(xi > 0.0 && xi < 1.0, "xi = {xi}");
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn xi_rejects_inadmissible_beta() {
        let pc = quad_constants();
        let mc = MetaConstants::from_lemma1(&pc, 0.2).unwrap();
        mc.xi(mc.beta_bound() * 2.0);
    }

    #[test]
    fn h_vanishes_at_one_and_grows() {
        let pc = quad_constants();
        let mc = MetaConstants::from_lemma1(&pc, 0.2).unwrap();
        let bound = TheoremTwoBound {
            constants: pc,
            meta: mc,
            alpha: 0.2,
            beta: 0.3,
            t0: 1,
            c: 2.0,
            weights: vec![0.5, 0.5],
        };
        assert!(bound.h(1).abs() < 1e-12, "h(1) must be 0");
        assert!(bound.h(2) > 0.0);
        assert!(bound.h(10) > bound.h(5), "h increases in T0");
    }

    #[test]
    fn corollary1_floor_vanishes_at_t0_one() {
        let pc = quad_constants();
        let mc = MetaConstants::from_lemma1(&pc, 0.2).unwrap();
        let mut b = TheoremTwoBound {
            constants: pc,
            meta: mc,
            alpha: 0.2,
            beta: 0.3,
            t0: 1,
            c: 2.0,
            weights: vec![0.5, 0.5],
        };
        let xi = mc.xi(0.3);
        let decay_only = xi.powi(50) * 1.0;
        assert!((b.bound(50, 1.0) - decay_only).abs() < 1e-15);
        // With T0 > 1 a positive floor appears.
        b.t0 = 10;
        assert!(b.bound(50, 1.0) > decay_only);
        assert!(b.error_floor() > 0.0);
    }

    #[test]
    fn floor_grows_with_dissimilarity() {
        let pc = quad_constants();
        let mc = MetaConstants::from_lemma1(&pc, 0.2).unwrap();
        let mk = |d: f64| TheoremTwoBound {
            constants: ProblemConstants {
                delta: vec![d, d],
                ..quad_constants()
            },
            meta: mc,
            alpha: 0.2,
            beta: 0.3,
            t0: 5,
            c: 2.0,
            weights: vec![0.5, 0.5],
        };
        assert!(mk(4.0).error_floor() > mk(1.0).error_floor());
    }

    #[test]
    fn theorem2_bound_holds_on_quadratics() {
        // Exact setting: A = I quadratics, ρ = 0, σ_i = 0,
        // δ_i = ‖x̄_i − x̄_w‖ (gradients are θ − x̄_i).
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let alpha = 0.2;
        let beta = 0.3;
        let t0 = 5usize;
        let rounds = 20usize;
        let theta0 = vec![2.0, 2.0];

        let cfg = crate::FedMlConfig::new(alpha, beta)
            .with_local_steps(t0)
            .with_rounds(rounds);
        let out = crate::FedMl::new(cfg).train_from(&model, &tasks, &theta0);

        // G(θ*) for symmetric isotropic quadratics: minimizer at origin.
        let g_star = crate::trainer::weighted_meta_loss(&model, &tasks, &[0.0, 0.0], alpha);
        let g_0 = crate::trainer::weighted_meta_loss(&model, &tasks, &theta0, alpha);
        let g_t = out.final_meta_loss().unwrap();
        let measured_gap = g_t - g_star;

        // True constants. B must bound ‖∇L_i‖ over the iterates' region:
        // gradients are θ − x̄_i, with ‖θ‖ ≤ ‖θ0‖ along the run.
        let pc = ProblemConstants {
            mu: 1.0,
            smoothness: 1.0,
            grad_bound: 4.0,
            hessian_lipschitz: 0.0,
            delta: vec![1.0, 1.0], // ‖x̄_i − x̄_w‖ = 1
            sigma: vec![0.0, 0.0],
        };
        let mc = MetaConstants::from_lemma1(&pc, alpha).unwrap();
        let bound = TheoremTwoBound {
            constants: pc,
            meta: mc,
            alpha,
            beta,
            t0,
            c: 2.0,
            weights: tasks.iter().map(|t| t.weight).collect(),
        };
        let rhs = bound.bound(rounds * t0, g_0 - g_star);
        assert!(
            measured_gap <= rhs + 1e-9,
            "Theorem 2 violated: measured {measured_gap}, bound {rhs}"
        );
    }

    #[test]
    fn estimated_constants_match_quadratic_ground_truth() {
        let model = Quadratic::new(Matrix::from_diag(&[1.0, 3.0]));
        let tasks = quad_tasks(&[(2.0, 0.0), (-2.0, 0.0)]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let pc = estimate_constants(&model, &tasks, &[0.0, 0.0], 2.0, 64, &mut rng);
        // μ ∈ [1, 3] (Rayleigh quotient range), H ≈ 3, ρ = 0, σ_i ≈ 0.
        assert!(pc.mu >= 1.0 - 1e-6 && pc.mu <= 3.0 + 1e-6, "mu {}", pc.mu);
        assert!(
            pc.smoothness <= 3.0 + 1e-6 && pc.smoothness > 1.0,
            "H {}",
            pc.smoothness
        );
        assert!(pc.hessian_lipschitz < 1e-8, "rho {}", pc.hessian_lipschitz);
        assert!(pc.sigma.iter().all(|&s| s < 1e-8));
        // δ_i = ‖A(x̄_i − x̄_w)‖ = ‖diag(1,3)·(±2,0)‖ = 2.
        for d in &pc.delta {
            assert!((d - 2.0).abs() < 1e-6, "delta {d}");
        }
    }

    #[test]
    fn lambda_threshold_formula() {
        assert!((lambda_threshold(2.0, 1.0, 3.0, 0.5) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn theorem3_bound_monotone_in_inputs() {
        let base = theorem3_bound(0.1, 2.0, 0.5, 0.1, 0.3);
        assert!(theorem3_bound(0.1, 2.0, 1.0, 0.1, 0.3) > base);
        assert!(theorem3_bound(0.1, 2.0, 0.5, 0.2, 0.3) > base);
        assert!(theorem3_bound(0.1, 2.0, 0.5, 0.1, 0.6) > base);
    }

    #[test]
    fn meta_grad_variation_theorem1_shape() {
        let pc = quad_constants();
        let w = vec![0.5, 0.5];
        let v0 = pc.meta_grad_variation(0, 0.0, 2.0, &w);
        assert!((v0 - pc.delta[0]).abs() < 1e-12, "α=0 reduces to δ_i");
        assert!(pc.meta_grad_variation(0, 0.3, 2.0, &w) > v0);
    }
}
