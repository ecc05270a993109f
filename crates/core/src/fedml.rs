use fml_models::Model;

use crate::meta::{self, MetaGradientMode, Scratch};
use crate::trainer::{curve_losses, weighted_meta_loss_with};
use crate::{LocalStepper, SourceTask};

/// Configuration for [`FedMl`] (Algorithm 1).
///
/// Defaults match the paper's synthetic/MNIST setup: `α = β = 0.01`,
/// `T0 = 5` local steps, full second-order meta-gradients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedMlConfig {
    /// Inner (adaptation) learning rate `α` of eq. 3.
    pub alpha: f64,
    /// Meta learning rate `β` of eq. 4.
    pub beta: f64,
    /// Local iterations between aggregations, `T0`.
    pub local_steps: usize,
    /// Number of communication rounds `N` (total iterations `T = N·T0`).
    pub rounds: usize,
    /// Meta-gradient mode (full second-order or FOMAML).
    pub mode: MetaGradientMode,
    /// Worker threads for the per-node fan-out; `None` (the default)
    /// auto-sizes to the host's available parallelism capped at the node
    /// count. Results are bitwise independent of this setting.
    pub threads: Option<usize>,
}

impl FedMlConfig {
    /// Creates a config with the given learning rates and paper defaults
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics when either rate is not positive.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && beta > 0.0, "learning rates must be positive");
        FedMlConfig {
            alpha,
            beta,
            local_steps: 5,
            rounds: 20,
            mode: MetaGradientMode::FullSecondOrder,
            threads: None,
        }
    }

    /// Sets `T0`, the number of local steps per communication round.
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

    /// Sets the total iteration budget `T`, rounding up to a whole number
    /// of rounds (the paper assumes `T = N·T0`).
    pub fn with_total_iterations(mut self, t: usize) -> Self {
        self.rounds = t.div_ceil(self.local_steps);
        self
    }

    /// Sets the meta-gradient mode.
    pub fn with_mode(mut self, mode: MetaGradientMode) -> Self {
        self.mode = mode;
        self
    }

    /// A shell for the one caller left, `perf/`'s `.with_record_every(0)`:
    /// the curve is recorded once per aggregation and there is no stride
    /// to set, so `0` returns the config unchanged. The next change to the
    /// benchmark drops that call and then deletes this method.
    ///
    /// # Panics
    ///
    /// Panics when `every != 0`.
    pub fn with_record_every(self, every: usize) -> Self {
        assert!(
            every == 0,
            "record_every was removed: the curve is recorded once per aggregation"
        );
        self
    }

    /// Sets the number of worker threads used to fan local node updates
    /// out across OS threads. Seeded runs are bitwise identical at any
    /// thread count (see [`crate::parallel`]).
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be at least 1");
        self.threads = Some(threads);
        self
    }
}

/// **Algorithm 1 — Federated Meta-Learning (FedML).**
///
/// Every iteration, each source node `i`:
///
/// 1. computes `φ_i^t = θ_i^t − α∇L(θ_i^t, D_i^train)` (line 6, eq. 3);
/// 2. updates `θ_i^{t+1} = θ_i^t − β∇_θ L(φ_i^t, D_i^test)` (line 7,
///    eq. 4) — the meta-gradient involving the inner-step Jacobian;
///
/// and every `T0` iterations the platform aggregates
/// `θ^{t+1} = Σ ω_i θ_i^{t+1}` (lines 8–11, eq. 5) and broadcasts it back.
///
/// # Examples
///
/// See the crate-level quickstart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedMl {
    cfg: FedMlConfig,
}

impl FedMl {
    /// Creates the trainer.
    pub fn new(cfg: FedMlConfig) -> Self {
        FedMl { cfg }
    }

    /// Centralized meta-gradient descent on the same objective — used to
    /// estimate the optimum `G(θ*)` for convergence-gap plots
    /// (equivalent to `T0 = 1` with exact aggregation every step).
    pub fn centralized_optimum(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        iterations: usize,
    ) -> (Vec<f64>, f64) {
        let cfg = &self.cfg;
        let mut theta = theta0.to_vec();
        let mut scratch = Scratch::for_model(model);
        for _ in 0..iterations {
            let mut g = vec![0.0; theta.len()];
            for task in tasks {
                let gi = meta::meta_gradient_with(
                    model,
                    &theta,
                    &task.split.train,
                    &task.split.test,
                    cfg.alpha,
                    cfg.mode,
                    &mut scratch,
                );
                fml_linalg::vector::axpy(task.weight, gi, &mut g);
            }
            fml_linalg::vector::axpy(-cfg.beta, &g, &mut theta);
        }
        let loss = weighted_meta_loss_with(model, tasks, &theta, cfg.alpha, &mut scratch);
        (theta, loss)
    }
}

impl LocalStepper for FedMl {
    fn algorithm(&self) -> &'static str {
        "FedML"
    }

    fn rounds(&self) -> usize {
        self.cfg.rounds
    }

    fn local_steps(&self) -> usize {
        self.cfg.local_steps
    }

    /// Lines 6–7 of Algorithm 1, `steps` times: the meta-gradient through
    /// the inner step on `D_i^train`, evaluated on `D_i^test`. For a
    /// scratch that [asks for them](Scratch::with_curve_terms), the first
    /// step's passes also return the curve terms at the starting `θ_i`.
    fn advance(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        _anchor: &[f64],
        theta_i: &mut [f64],
        steps: usize,
        scratch: &mut Scratch,
    ) {
        let cfg = &self.cfg;
        for step in 0..steps {
            let meta_gradient = if step == 0 && scratch.wants_terms {
                meta::meta_gradient_and_terms_with
            } else {
                meta::meta_gradient_with
            };
            let g = meta_gradient(
                model,
                theta_i,
                &task.split.train,
                &task.split.test,
                cfg.alpha,
                cfg.mode,
                scratch,
            );
            fml_linalg::vector::axpy(-cfg.beta, g, theta_i);
        }
    }

    fn eval_losses_with(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta: &[f64],
        scratch: &mut Scratch,
    ) -> (f64, f64) {
        curve_losses(model, tasks, theta, self.cfg.alpha, scratch)
    }

    /// The first step's `φ` is the curve's, at the same `α`.
    fn yields_curve_terms(&self) -> bool {
        true
    }

    fn threads(&self) -> Option<usize> {
        self.cfg.threads
    }

    fn oracle_calls(&self) -> (u64, u64) {
        // Inner gradient + outer gradient, plus the HVP FOMAML skips.
        match self.cfg.mode {
            MetaGradientMode::FullSecondOrder => (2, 1),
            MetaGradientMode::FirstOrder => (2, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{Batch, Quadratic, SoftmaxRegression};
    use rand::SeedableRng;

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
    fn config_validation_and_builders() {
        let cfg = FedMlConfig::new(0.01, 0.02)
            .with_local_steps(10)
            .with_rounds(7);
        assert_eq!((cfg.local_steps, cfg.rounds), (10, 7));
        let cfg2 = FedMlConfig::new(0.01, 0.02)
            .with_local_steps(10)
            .with_total_iterations(95);
        assert_eq!(cfg2.rounds, 10);
    }

    #[test]
    #[should_panic(expected = "learning rates must be positive")]
    fn rejects_zero_rates() {
        FedMlConfig::new(0.0, 0.1);
    }

    #[test]
    fn converges_on_symmetric_quadratics() {
        // Two tasks with opposite centers: the meta optimum is the
        // midpoint (0,0) by symmetry.
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(2.0, 0.0), (-2.0, 0.0)]);
        let cfg = FedMlConfig::new(0.1, 0.2)
            .with_local_steps(2)
            .with_rounds(100);
        let out = FedMl::new(cfg).train_from(&model, &tasks, &[1.5, 1.5]);
        assert!(
            fml_linalg::vector::norm2(&out.params) < 1e-3,
            "params should converge to origin, got {:?}",
            out.params
        );
        assert_eq!(out.comm_rounds, 100);
        assert_eq!(out.local_iterations, 200);
    }

    #[test]
    fn meta_loss_decreases_over_training() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 1.0), (1.0, -1.0), (-1.0, 0.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(5)
            .with_rounds(30);
        let out = FedMl::new(cfg).train_from(&model, &tasks, &[3.0, 3.0]);
        crate::step::tests::assert_one_record_per_round(&out, 30, 5);
        let first = out.history.first().unwrap().meta_loss;
        let last = out.history.last().unwrap().meta_loss;
        assert!(last < first, "meta loss should decrease: {first} -> {last}");
    }

    #[test]
    fn aggregation_happens_every_t0_iterations() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(4)
            .with_rounds(3);
        let out = FedMl::new(cfg).train_from(&model, &tasks, &[0.5, 0.5]);
        crate::step::tests::assert_one_record_per_round(&out, 3, 4);
    }

    #[test]
    fn t0_equals_one_matches_centralized_descent() {
        // Corollary 1 regime: with T0 = 1 the federated iterates equal
        // centralized meta-gradient descent exactly (weighted averaging of
        // per-node updates from a shared iterate is one centralized step).
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 2.0), (-2.0, 1.0)]);
        let cfg = FedMlConfig::new(0.1, 0.15)
            .with_local_steps(1)
            .with_rounds(25);
        let fed = FedMl::new(cfg).train_from(&model, &tasks, &[1.0, -1.0]);
        let (central, _) = FedMl::new(cfg).centralized_optimum(&model, &tasks, &[1.0, -1.0], 25);
        assert!(
            fml_linalg::vector::approx_eq(&fed.params, &central, 1e-10),
            "T0=1 FedML must equal centralized descent: {:?} vs {:?}",
            fed.params,
            central
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let model = SoftmaxRegression::new(4, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let fed = fml_data::synthetic::SyntheticConfig::new(0.5, 0.5)
            .with_nodes(4)
            .with_dim(4)
            .with_classes(3)
            .generate(&mut rng);
        let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 3);
        let cfg = FedMlConfig::new(0.01, 0.01)
            .with_rounds(2)
            .with_local_steps(3);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(1);
        let a = FedMl::new(cfg).train(&model, &tasks, &mut r1);
        let b = FedMl::new(cfg).train(&model, &tasks, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn first_order_mode_also_trains() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let cfg = FedMlConfig::new(0.1, 0.1)
            .with_local_steps(2)
            .with_rounds(50)
            .with_mode(MetaGradientMode::FirstOrder);
        let out = FedMl::new(cfg).train_from(&model, &tasks, &[2.0, 2.0]);
        assert!(fml_linalg::vector::norm2(&out.params) < 0.05);
    }

    /// The benchmark's one call still compiles; any stride is refused.
    #[test]
    fn with_record_every_is_a_shell() {
        let cfg = FedMlConfig::new(0.1, 0.1);
        assert_eq!(cfg.with_record_every(0), cfg);
        let stride = std::panic::catch_unwind(|| cfg.with_record_every(1));
        let message = *stride.unwrap_err().downcast::<&str>().unwrap();
        assert!(message.contains("record_every was removed"), "{message}");
    }

    #[test]
    fn trainer_name() {
        assert_eq!(
            FedMl::new(FedMlConfig::new(0.01, 0.01)).algorithm(),
            "FedML"
        );
    }
}
