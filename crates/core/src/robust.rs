use fml_dro::{BoxConstraint, RobustSurrogate, SquaredL2Cost};
use fml_models::{Batch, Model};
use rand::rngs::StdRng;
use rand::Rng;

use crate::meta::{inner_step_with, outer_gradient_with, MetaGradientMode, Scratch};
use crate::trainer::{aggregate, curve_losses};
use crate::{RoundRecord, SourceTask, TrainOutput};

/// Configuration for [`RobustFedMl`] (Algorithm 2).
///
/// Defaults match the paper's MNIST robustness experiment: `ν = 1`,
/// `R = 2`, `N0 = 7`, `Ta = 10`, `T0 = 5`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustFedMlConfig {
    /// Inner (adaptation) learning rate `α`.
    pub alpha: f64,
    /// Meta learning rate `β`.
    pub beta: f64,
    /// Local iterations between aggregations, `T0`.
    pub local_steps: usize,
    /// Number of communication rounds.
    pub rounds: usize,
    /// Wasserstein Lagrangian penalty `λ` — smaller means a larger
    /// uncertainty set and more robustness (Figure 4's dial).
    pub lambda: f64,
    /// Adversarial ascent step size `ν`.
    pub nu: f64,
    /// Adversarial ascent steps `Ta`.
    pub ascent_steps: usize,
    /// Generate adversarial data every `N0 · T0` iterations.
    pub n0: usize,
    /// Maximum adversarial generation rounds `R` (local compute budget).
    pub max_generations: usize,
    /// Box constraint applied to generated adversarial inputs (e.g. the
    /// pixel domain). Keeps the inner maximization bounded below
    /// Theorem 4's λ threshold.
    pub constraint: BoxConstraint,
    /// Meta-gradient mode.
    pub mode: MetaGradientMode,
}

impl RobustFedMlConfig {
    /// Creates a config with the given learning rates and penalty, paper
    /// defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics when a rate is not positive or `lambda < 0`.
    pub fn new(alpha: f64, beta: f64, lambda: f64) -> Self {
        assert!(alpha > 0.0 && beta > 0.0, "learning rates must be positive");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        RobustFedMlConfig {
            alpha,
            beta,
            local_steps: 5,
            rounds: 20,
            lambda,
            nu: 1.0,
            ascent_steps: 10,
            n0: 7,
            max_generations: 2,
            constraint: BoxConstraint::None,
            mode: MetaGradientMode::FullSecondOrder,
        }
    }

    /// Sets `T0`.
    ///
    /// # Panics
    ///
    /// Panics when `t0 == 0`.
    pub fn with_local_steps(mut self, t0: usize) -> Self {
        assert!(t0 > 0, "T0 must be at least 1");
        self.local_steps = t0;
        self
    }

    /// Sets the number of communication rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the adversarial generation parameters `(ν, Ta, N0, R)`.
    ///
    /// # Panics
    ///
    /// Panics when `nu <= 0` or `n0 == 0`.
    pub fn with_adversarial(mut self, nu: f64, ascent_steps: usize, n0: usize, r: usize) -> Self {
        assert!(nu > 0.0, "ascent step size must be positive");
        assert!(n0 > 0, "N0 must be at least 1");
        self.nu = nu;
        self.ascent_steps = ascent_steps;
        self.n0 = n0;
        self.max_generations = r;
        self
    }

    /// Constrains generated adversarial inputs to a box.
    pub fn with_constraint(mut self, constraint: BoxConstraint) -> Self {
        self.constraint = constraint;
        self
    }
}

/// **Algorithm 2 — Robust FedML**: Wasserstein-DRO federated
/// meta-learning.
///
/// Runs the FedML loop with two changes:
///
/// 1. the outer update descends the meta-gradient of
///    `L(φ_i, D_i^test) + L(φ_i, D_i^adv)` (eq. 14);
/// 2. every `N0·T0` iterations (at most `R` times), each node samples
///    `|D_i^test|` points from `D_i^comb = D_i^test ∪ D_i^adv`, pushes
///    each through `Ta` gradient-ascent steps of the robust surrogate
///    objective `l(φ_i, (x, y)) − λ·c((x, y), (x₀, y₀))` (lines 15–22),
///    and appends the perturbed points to `D_i^adv`.
///
/// The learned initialization "gains the ability to prevent future
/// adversarial attacks without significantly sacrificing the learning
/// accuracy" — quantified in the Figure 4 reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustFedMl {
    cfg: RobustFedMlConfig,
}

impl RobustFedMl {
    /// Creates the trainer.
    pub fn new(cfg: RobustFedMlConfig) -> Self {
        RobustFedMl { cfg }
    }

    /// Draws `θ⁰` from `rng` and runs [`train_from`](Self::train_from)
    /// with the same `rng`; deterministic given its state.
    pub fn train(&self, model: &dyn Model, tasks: &[SourceTask], rng: &mut StdRng) -> TrainOutput {
        let theta0 = model.init_params(rng);
        self.train_from(model, tasks, &theta0, rng)
    }

    /// Runs Algorithm 2 from an explicit initialization.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub fn train_from(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        rng: &mut StdRng,
    ) -> TrainOutput {
        assert!(!tasks.is_empty(), "RobustFedMl: no source tasks");
        assert_eq!(theta0.len(), model.param_len(), "RobustFedMl: bad theta0");
        let cfg = &self.cfg;
        let surrogate = RobustSurrogate::new(SquaredL2Cost, cfg.lambda)
            .with_steps(cfg.ascent_steps)
            .with_step_size(cfg.nu)
            .with_constraint(cfg.constraint);

        let mut locals: Vec<Vec<f64>> = vec![theta0.to_vec(); tasks.len()];
        let mut adv_sets: Vec<Batch> = tasks
            .iter()
            .map(|t| Batch::empty(t.split.test.dim()))
            .collect();
        let mut generations: Vec<usize> = vec![0; tasks.len()];
        let mut history = Vec::new();
        let mut comm_rounds = 0;
        let total = cfg.rounds * cfg.local_steps;
        let gen_period = cfg.n0 * cfg.local_steps;
        let mut scratch = Scratch::for_model(model);
        let mut g = vec![0.0; theta0.len()];

        for t in 1..=total {
            for ((task, theta_i), adv) in tasks.iter().zip(locals.iter_mut()).zip(adv_sets.iter()) {
                let (train, a, mode) = (&task.split.train, cfg.alpha, cfg.mode);
                // Line 7: inner step on D_train (φ stays in the scratch).
                inner_step_with(model, theta_i, train, a, &mut scratch);
                // Line 8 / eq. 14: outer step on D_test ∪ D_adv. The two
                // losses share the same inner-step Jacobian, so their
                // meta-gradients add.
                let test = &task.split.test;
                let g_test =
                    outer_gradient_with(model, theta_i, train, test, a, mode, &mut scratch);
                g.copy_from_slice(g_test);
                if !adv.is_empty() {
                    let g_adv =
                        outer_gradient_with(model, theta_i, train, adv, a, mode, &mut scratch);
                    fml_linalg::vector::axpy(1.0, g_adv, &mut g);
                }
                fml_linalg::vector::axpy(-cfg.beta, &g, theta_i);
            }

            // Lines 9–14: global aggregation.
            let aggregated = t % cfg.local_steps == 0;
            if aggregated {
                let global = aggregate(tasks, &locals);
                for theta_i in &mut locals {
                    theta_i.copy_from_slice(&global);
                }
                comm_rounds += 1;
            }

            // Lines 15–22: adversarial data generation.
            if t % gen_period == 0 {
                for ((task, theta_i), (adv, gen)) in tasks
                    .iter()
                    .zip(locals.iter())
                    .zip(adv_sets.iter_mut().zip(generations.iter_mut()))
                {
                    if *gen >= cfg.max_generations {
                        continue;
                    }
                    let train = &task.split.train;
                    inner_step_with(model, theta_i, train, cfg.alpha, &mut scratch);
                    let phi = &scratch.phi;
                    let comb = task.split.test.concat(adv);
                    let draws = task.split.test.len();
                    let mut fresh = Batch::empty(comb.dim());
                    for _ in 0..draws {
                        let j = rng.gen_range(0..comb.len());
                        let point = surrogate.maximize(model, phi, comb.feature(j), comb.target(j));
                        fresh.push(&point.x_star, comb.target(j));
                    }
                    *adv = adv.concat(&fresh);
                    *gen += 1;
                }
            }

            if aggregated || t == total {
                let avg = aggregate(tasks, &locals);
                let (meta_loss, train_loss) =
                    curve_losses(model, tasks, &avg, cfg.alpha, &mut scratch);
                history.push(RoundRecord {
                    iteration: t,
                    meta_loss,
                    train_loss,
                    aggregated,
                    reporters: tasks.len(),
                    degraded: false,
                });
            }
        }

        let params = aggregate(tasks, &locals);
        TrainOutput {
            params,
            history,
            comm_rounds,
            local_iterations: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalStepper;
    use fml_data::NodeData;
    use fml_dro::attack::{fgsm_batch, BoxConstraint};
    use fml_linalg::Matrix;
    use fml_models::SoftmaxRegression;
    use rand::SeedableRng;

    /// Small separable 3-class federation for robustness smoke tests.
    fn classification_tasks(seed: u64) -> (SoftmaxRegression, Vec<SourceTask>) {
        let model = SoftmaxRegression::new(2, 3).with_l2(1e-3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nodes: Vec<NodeData> = (0..3)
            .map(|id| {
                let mut xs = Matrix::zeros(12, 2);
                let mut ys = Vec::new();
                for r in 0..12 {
                    let c = r % 3;
                    let (cx, cy) = [(2.0, 0.0), (0.0, 2.0), (-2.0, -2.0)][c];
                    xs.set(r, 0, cx + 0.3 * rng.gen::<f64>());
                    xs.set(r, 1, cy + 0.3 * rng.gen::<f64>());
                    ys.push(c);
                }
                NodeData {
                    id,
                    batch: fml_models::Batch::classification(xs, ys).unwrap(),
                }
            })
            .collect();
        let tasks = SourceTask::from_nodes_deterministic(&nodes, 4);
        (model, tasks)
    }

    #[test]
    fn trains_and_stays_finite() {
        let (model, tasks) = classification_tasks(0);
        let cfg = RobustFedMlConfig::new(0.05, 0.05, 1.0)
            .with_local_steps(2)
            .with_rounds(8)
            .with_adversarial(0.3, 3, 2, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let out = RobustFedMl::new(cfg).train(&model, &tasks, &mut rng);
        assert!(out.params.iter().all(|v| v.is_finite()));
        assert_eq!(out.comm_rounds, 8);
        assert!(out.final_meta_loss().unwrap().is_finite());
    }

    #[test]
    fn adversarial_generation_respects_r_budget() {
        // With N0 = 1, generation fires every T0 iterations; R = 2 caps it.
        // Observable via training still converging (no runaway adv sets)
        // and the run completing; we assert on the curve being recorded
        // every aggregation.
        let (model, tasks) = classification_tasks(1);
        let cfg = RobustFedMlConfig::new(0.05, 0.05, 1.0)
            .with_local_steps(2)
            .with_rounds(6)
            .with_adversarial(0.3, 2, 1, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let out = RobustFedMl::new(cfg).train(&model, &tasks, &mut rng);
        assert_eq!(out.history.len(), 6);
    }

    #[test]
    fn robust_training_improves_adversarial_loss_vs_plain() {
        // Train FedML and Robust FedML from the same init, then compare
        // FGSM loss of the one-step-adapted model at a source node's query
        // set. Robust FedML should be no worse under attack.
        let (model, tasks) = classification_tasks(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let theta0 = fml_models::Model::init_params(&model, &mut rng);

        let plain = crate::FedMl::new(
            crate::FedMlConfig::new(0.05, 0.05)
                .with_local_steps(2)
                .with_rounds(20),
        )
        .train_from(&model, &tasks, &theta0);

        let mut rng2 = rand::rngs::StdRng::seed_from_u64(3);
        let robust = RobustFedMl::new(
            RobustFedMlConfig::new(0.05, 0.05, 0.5)
                .with_local_steps(2)
                .with_rounds(20)
                .with_adversarial(0.5, 5, 1, 3),
        )
        .train_from(&model, &tasks, &theta0, &mut rng2);

        let task = &tasks[0];
        let adapt_plain = crate::adapt::adapt(&model, &plain.params, &task.split.train, 0.05, 1);
        let adapt_robust = crate::adapt::adapt(&model, &robust.params, &task.split.train, 0.05, 1);
        let attacked_loss = |params: &[f64]| {
            let adv = fgsm_batch(&model, params, &task.split.test, 0.6, BoxConstraint::None);
            model.loss(params, &adv)
        };
        let attacked_plain = attacked_loss(&adapt_plain);
        let attacked_robust = attacked_loss(&adapt_robust);
        assert!(
            attacked_robust < attacked_plain * 1.25,
            "robust model should not be much worse under attack: {attacked_robust} vs {attacked_plain}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, tasks) = classification_tasks(4);
        let cfg = RobustFedMlConfig::new(0.05, 0.05, 1.0)
            .with_local_steps(2)
            .with_rounds(4)
            .with_adversarial(0.3, 2, 1, 1);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let a = RobustFedMl::new(cfg).train(&model, &tasks, &mut r1);
        let b = RobustFedMl::new(cfg).train(&model, &tasks, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_generations_reduces_to_fedml() {
        let (model, tasks) = classification_tasks(6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let theta0 = fml_models::Model::init_params(&model, &mut rng);
        let cfg = RobustFedMlConfig::new(0.05, 0.05, 1.0)
            .with_local_steps(3)
            .with_rounds(5)
            .with_adversarial(0.3, 2, 1, 0); // R = 0 ⇒ never generate
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(8);
        let robust = RobustFedMl::new(cfg).train_from(&model, &tasks, &theta0, &mut rng2);
        let plain = crate::FedMl::new(
            crate::FedMlConfig::new(0.05, 0.05)
                .with_local_steps(3)
                .with_rounds(5),
        )
        .train_from(&model, &tasks, &theta0);
        assert!(fml_linalg::vector::approx_eq(
            &robust.params,
            &plain.params,
            1e-12
        ));
    }

    #[test]
    #[should_panic(expected = "lambda must be non-negative")]
    fn rejects_negative_lambda() {
        RobustFedMlConfig::new(0.01, 0.01, -1.0);
    }
}
