//! Meta-SGD: federated meta-learning with *learned per-coordinate* inner
//! rates (Li et al., "Meta-SGD: Learning to Learn Quickly for Few-Shot
//! Learning") — the extension the paper's framework naturally admits,
//! included in the `X2` ablation (`ablation_fo`).
//!
//! Where FedML fixes one scalar inner rate `α`, Meta-SGD meta-learns a
//! vector `a ∈ ℝ^d` jointly with the initialization:
//!
//! ```text
//! φ(θ, a) = θ − a ∘ ∇L(θ, D^train)
//! G(θ, a) = L(φ(θ, a), D^test)
//! ```
//!
//! By the chain rule (writing `g = ∇L_te(φ)`, `g_tr = ∇L_tr(θ)` and
//! `H = ∇²L_tr(θ)`):
//!
//! ```text
//! ∂G/∂θ = (I − diag(a)·H) g   →  g − a ∘ (H·g)     (one HVP)
//! ∂G/∂a = −g_tr ∘ g
//! ```
//!
//! so the full meta-gradient costs exactly the same oracles as FedML's.

use fml_models::{Batch, Model};

use crate::meta::Scratch;
use crate::{SourceTask, TrainOutput};

/// Configuration for [`MetaSgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaSgdConfig {
    /// Initial value filled into the learned rate vector `a`.
    pub alpha_init: f64,
    /// Meta learning rate `β` (applied to both `θ` and `a`).
    pub beta: f64,
    /// Local iterations between aggregations, `T0`.
    pub local_steps: usize,
    /// Number of communication rounds.
    pub rounds: usize,
    /// Clamp applied to the learned rates each update (`[0, alpha_max]`);
    /// keeps the inner step a descent step.
    pub alpha_max: f64,
    /// Worker threads for the per-node fan-out; `None` (the default)
    /// auto-sizes to the host's available parallelism capped at the node
    /// count. Results are bitwise independent of this setting.
    pub threads: Option<usize>,
}

impl MetaSgdConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics when a rate is not positive or `alpha_max < alpha_init`.
    pub fn new(alpha_init: f64, beta: f64) -> Self {
        assert!(alpha_init > 0.0 && beta > 0.0, "rates must be positive");
        MetaSgdConfig {
            alpha_init,
            beta,
            local_steps: 5,
            rounds: 20,
            alpha_max: 10.0 * alpha_init,
            threads: None,
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
}

/// Output of Meta-SGD training: the learned initialization *and* the
/// learned per-coordinate rates.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaSgdOutput {
    /// Standard training output (`params` holds `θ`).
    pub train: TrainOutput,
    /// Learned per-coordinate inner rates `a`.
    pub rates: Vec<f64>,
}

impl MetaSgdOutput {
    /// Adapts at a target with the learned rates:
    /// `φ = θ − a ∘ ∇L(θ, data)`, repeated `steps` times.
    pub fn adapt(&self, model: &dyn Model, data: &Batch, steps: usize) -> Vec<f64> {
        let mut phi = self.train.params.clone();
        let mut ws = model.workspace();
        let mut grad = vec![0.0; phi.len()];
        for _ in 0..steps {
            model.grad_into(&phi, data, &mut ws, &mut grad);
            for ((p, &gi), &ai) in phi.iter_mut().zip(&grad).zip(&self.rates) {
                *p -= ai * gi;
            }
        }
        phi
    }
}

/// **Meta-SGD** federated trainer: FedML's loop with the inner rate
/// vector `a` meta-learned alongside `θ` and aggregated with the same
/// weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaSgd {
    cfg: MetaSgdConfig,
}

impl MetaSgd {
    /// Creates the trainer.
    pub fn new(cfg: MetaSgdConfig) -> Self {
        MetaSgd { cfg }
    }

    /// One local meta-update of `(θ_i, a_i)` on a task.
    fn local_step(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        theta: &mut [f64],
        rates: &mut [f64],
        scratch: &mut Scratch,
    ) {
        let cfg = &self.cfg;
        model.grad_into(theta, &task.split.train, &mut scratch.ws, &mut scratch.grad);
        rated_step(theta, rates, scratch);
        let Scratch {
            ws,
            grad: g_tr,
            phi,
            hvp: g_te,
            ..
        } = scratch;
        model.grad_into(phi, &task.split.test, ws, g_te);
        // ∂G/∂θ = g_te − a ∘ (H_tr · g_te); φ is spent, so its buffer
        // hosts the product.
        let hg = phi;
        model.hvp_into(theta, &task.split.train, g_te, ws, hg);
        for ((t, (&gt, &h)), &ai) in theta
            .iter_mut()
            .zip(g_te.iter().zip(hg.iter()))
            .zip(rates.iter())
        {
            *t -= cfg.beta * (gt - ai * h);
        }
        // ∂G/∂a = −g_tr ∘ g_te  (ascent direction on −G ⇒ descent update)
        for ((a, &gt), &gtr) in rates.iter_mut().zip(g_te.iter()).zip(g_tr.iter()) {
            *a -= cfg.beta * (-gtr * gt);
            *a = a.clamp(0.0, cfg.alpha_max);
        }
    }

    /// Runs Meta-SGD under fault injection with gather-policy protection
    /// and round-level recovery (see [`crate::train_with_faults`]).
    ///
    /// The node state `(θ_i, a_i)` travels through the fault-tolerant
    /// driver as one concatenated vector `[θ_i; a_i]`, so deadline
    /// triage, the finite check, quorum, and the weighted mean treat the
    /// learned rates exactly like the initialization.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::QuorumLost`] or
    /// [`crate::CoreError::Diverged`] when recovery is exhausted.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub fn train_with_faults(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        ft: &crate::ft::FaultTolerance,
    ) -> Result<MetaSgdOutput, crate::CoreError> {
        let state0 = self.pair_state(model, theta0);
        let train = crate::ft::drive(&PairState(self), model, tasks, &state0, ft)?;
        Ok(split_pair(train, theta0.len()))
    }

    /// Runs Meta-SGD in lockstep from an explicit initialization, drawing
    /// the same curve as [`crate::LocalStepper::train_from`] does for the other
    /// trainers, over the pair `(θ, a)`.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub fn train_from(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
    ) -> MetaSgdOutput {
        let state0 = self.pair_state(model, theta0);
        let train = crate::step::lockstep(&PairState(self), model, tasks, &state0, true);
        split_pair(train, theta0.len())
    }

    /// The start state `[θ⁰‖a⁰]`, every rate at `alpha_init`.
    fn pair_state(&self, model: &dyn Model, theta0: &[f64]) -> Vec<f64> {
        let d = model.param_len();
        assert_eq!(theta0.len(), d, "MetaSgd: bad theta0 length");
        let mut state0 = theta0.to_vec();
        state0.extend(std::iter::repeat_n(self.cfg.alpha_init, d));
        state0
    }
}

/// `φ = θ − a ∘ g` on the scratch, `g = ∇L(θ, train)` the gradient
/// `scratch.grad` holds: `φ` lands in `scratch.phi`, the gradient stays.
fn rated_step(theta: &[f64], rates: &[f64], scratch: &mut Scratch) {
    let Scratch { grad, phi, .. } = scratch;
    phi.copy_from_slice(theta);
    for ((p, &gi), &ai) in phi.iter_mut().zip(grad.iter()).zip(rates) {
        *p -= ai * gi;
    }
}

/// Splits a run over `[θ‖a]` back into `θ` and the learned rates.
fn split_pair(mut train: TrainOutput, d: usize) -> MetaSgdOutput {
    let rates = train.params.split_off(d);
    MetaSgdOutput { train, rates }
}

/// [`MetaSgd`] as a [`LocalStepper`](crate::LocalStepper) over the
/// concatenated round state `[θ‖a]` (both halves `param_len` long).
struct PairState<'a>(&'a MetaSgd);

impl crate::LocalStepper for PairState<'_> {
    fn algorithm(&self) -> &'static str {
        "MetaSGD"
    }

    fn rounds(&self) -> usize {
        self.0.cfg.rounds
    }

    fn local_steps(&self) -> usize {
        self.0.cfg.local_steps
    }

    fn advance(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        _anchor: &[f64],
        state: &mut [f64],
        steps: usize,
        scratch: &mut Scratch,
    ) {
        let (theta_i, rates_i) = state.split_at_mut(model.param_len());
        for _ in 0..steps {
            self.0.local_step(model, task, theta_i, rates_i, scratch);
        }
    }

    fn eval_losses_with(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        state: &[f64],
        scratch: &mut Scratch,
    ) -> (f64, f64) {
        // `trainer::curve_losses` around the rated step.
        let (theta, rates) = state.split_at(model.param_len());
        let (mut meta, mut train) = (-0.0, -0.0);
        for task in tasks {
            let split = &task.split;
            let support =
                model.loss_grad_into(theta, &split.train, &mut scratch.ws, &mut scratch.grad);
            rated_step(theta, rates, scratch);
            meta += task.weight * model.loss_with(&scratch.phi, &split.test, &mut scratch.ws);
            train += task.weight * support;
        }
        (meta, train)
    }

    fn threads(&self) -> Option<usize> {
        self.0.cfg.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::NodeData;
    use fml_linalg::{vector, Matrix};
    use fml_models::{Batch, Quadratic, Target};

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

    /// Numerically checks the (θ, a) meta-gradient used by `local_step`.
    #[test]
    fn meta_gradient_wrt_rates_matches_numeric() {
        let model = Quadratic::new(Matrix::from_diag(&[1.0, 3.0]));
        let tasks = quad_tasks(&[(2.0, -1.0)]);
        let task = &tasks[0];
        let theta = vec![0.7, -0.4];
        let rates = vec![0.11, 0.23];

        let objective = |th: &[f64], a: &[f64]| -> f64 {
            let g = fml_models::Model::grad(&model, th, &task.split.train);
            let mut phi = th.to_vec();
            for ((p, &gi), &ai) in phi.iter_mut().zip(&g).zip(a) {
                *p -= ai * gi;
            }
            fml_models::Model::loss(&model, &phi, &task.split.test)
        };

        // Analytic: ∂G/∂a = −g_tr ∘ g_te(φ).
        let g_tr = fml_models::Model::grad(&model, &theta, &task.split.train);
        let mut phi = theta.clone();
        for ((p, &gi), &ai) in phi.iter_mut().zip(&g_tr).zip(&rates) {
            *p -= ai * gi;
        }
        let g_te = fml_models::Model::grad(&model, &phi, &task.split.test);
        let analytic: Vec<f64> = g_tr.iter().zip(&g_te).map(|(&a, &b)| -a * b).collect();

        let eps = 1e-6;
        for j in 0..rates.len() {
            let mut ap = rates.clone();
            ap[j] += eps;
            let mut am = rates.clone();
            am[j] -= eps;
            let num = (objective(&theta, &ap) - objective(&theta, &am)) / (2.0 * eps);
            assert!(
                (num - analytic[j]).abs() < 1e-6,
                "rate grad {j}: numeric {num}, analytic {}",
                analytic[j]
            );
        }
    }

    #[test]
    fn converges_on_symmetric_quadratics() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(2.0, 0.0), (-2.0, 0.0)]);
        let cfg = MetaSgdConfig::new(0.1, 0.1)
            .with_local_steps(2)
            .with_rounds(150);
        let out = MetaSgd::new(cfg).train_from(&model, &tasks, &[1.0, 1.0]);
        assert!(out.train.params.iter().all(|v| v.is_finite()));
        crate::step::tests::assert_one_record_per_round(&out.train, 150, 2);
        let first = out.train.history.first().unwrap().meta_loss;
        let last = out.train.history.last().unwrap().meta_loss;
        assert!(last < first, "meta loss should decrease: {first} -> {last}");
    }

    #[test]
    fn learned_rates_grow_along_useful_coordinates() {
        // Tasks vary along x only; the learned rate for x should exceed
        // the (useless) rate for y.
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(3.0, 0.0), (-3.0, 0.0), (2.0, 0.0), (-2.0, 0.0)]);
        let cfg = MetaSgdConfig {
            alpha_max: 5.0,
            ..MetaSgdConfig::new(0.1, 0.05)
                .with_local_steps(2)
                .with_rounds(200)
        };
        let out = MetaSgd::new(cfg).train_from(&model, &tasks, &[0.5, 0.5]);
        assert!(
            out.rates[0] > out.rates[1],
            "rate along the task-varying axis should grow: {:?}",
            out.rates
        );
    }

    #[test]
    fn rates_stay_clamped() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(5.0, 5.0), (-5.0, -5.0)]);
        let cfg = MetaSgdConfig {
            alpha_max: 0.3,
            ..MetaSgdConfig::new(0.1, 0.2)
                .with_local_steps(3)
                .with_rounds(100)
        };
        let out = MetaSgd::new(cfg).train_from(&model, &tasks, &[0.0, 0.0]);
        assert!(out.rates.iter().all(|&a| (0.0..=0.3).contains(&a)));
    }

    #[test]
    fn adapt_uses_learned_rates() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let cfg = MetaSgdConfig::new(0.2, 0.1)
            .with_local_steps(2)
            .with_rounds(50);
        let out = MetaSgd::new(cfg).train_from(&model, &tasks, &[0.3, 0.3]);
        let target = Batch::new(
            Matrix::from_rows(&[&[0.8, 0.1]]).unwrap(),
            vec![Target::Value(0.0)],
        )
        .unwrap();
        let phi = out.adapt(&model, &target, 3);
        let before = fml_models::Model::loss(&model, &out.train.params, &target);
        let after = fml_models::Model::loss(&model, &phi, &target);
        assert!(after < before, "adaptation with learned rates should help");
    }

    #[test]
    fn trainer_name_and_accounting() {
        let cfg = MetaSgdConfig::new(0.1, 0.1)
            .with_local_steps(4)
            .with_rounds(3);
        let trainer = MetaSgd::new(cfg);
        assert_eq!(
            crate::LocalStepper::algorithm(&PairState(&trainer)),
            "MetaSGD"
        );
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let out = trainer.train_from(&model, &tasks, &[0.0, 0.0]);
        assert_eq!(out.train.comm_rounds, 3);
        assert_eq!(out.train.local_iterations, 12);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn rejects_zero_beta() {
        MetaSgdConfig::new(0.1, 0.0);
    }

    #[test]
    fn rates_aggregation_is_weighted() {
        // With T0 = 1 after one iteration both rate vectors aggregate;
        // just verify determinism and finiteness end-to-end.
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 1.0), (-1.0, 2.0)]);
        let cfg = MetaSgdConfig::new(0.1, 0.05)
            .with_local_steps(1)
            .with_rounds(5);
        let a = MetaSgd::new(cfg).train_from(&model, &tasks, &[0.2, -0.2]);
        let b = MetaSgd::new(cfg).train_from(&model, &tasks, &[0.2, -0.2]);
        assert_eq!(a, b);
        assert!(vector::norm2(&a.rates) > 0.0);
    }
}
