use fml_models::Model;

use crate::meta::Scratch;
use crate::trainer::curve_losses;
use crate::{LocalStepper, SourceTask, TrainOutput};

/// Configuration for [`Reptile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReptileConfig {
    /// Inner SGD learning rate used for the local adaptation trajectory.
    pub inner_lr: f64,
    /// Outer interpolation rate `ε` (`θ ← θ + ε(φ̄ − θ)`).
    pub outer_lr: f64,
    /// Inner SGD steps per node per round.
    pub inner_steps: usize,
    /// Number of communication rounds.
    pub rounds: usize,
    /// Adaptation rate for meta-objective curve evaluation.
    pub eval_alpha: f64,
    /// Worker threads for the per-node fan-out; `None` (the default)
    /// auto-sizes to the host's available parallelism capped at the node
    /// count. Results are bitwise independent of this setting.
    pub threads: Option<usize>,
}

impl ReptileConfig {
    /// Creates a config with the given inner/outer rates and paper-scale
    /// defaults.
    ///
    /// # Panics
    ///
    /// Panics when either rate is not positive or `outer_lr > 1`.
    pub fn new(inner_lr: f64, outer_lr: f64) -> Self {
        assert!(inner_lr > 0.0, "inner rate must be positive");
        assert!(
            outer_lr > 0.0 && outer_lr <= 1.0,
            "outer rate must be in (0, 1]"
        );
        ReptileConfig {
            inner_lr,
            outer_lr,
            inner_steps: 5,
            rounds: 20,
            eval_alpha: 0.01,
            threads: None,
        }
    }

    /// Sets the inner step count.
    ///
    /// # Panics
    ///
    /// Panics when `steps == 0`.
    pub fn with_inner_steps(mut self, steps: usize) -> Self {
        assert!(steps > 0, "need at least one inner step");
        self.inner_steps = steps;
        self
    }

    /// Sets the number of communication rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }
}

/// **Reptile** (Nichol et al.) — the first-order meta-learning baseline.
///
/// Each round, every node runs `inner_steps` of plain SGD on its full
/// local data starting from the global model, producing `φ_i`; the
/// platform then moves the global model toward the weighted average of
/// the adapted models:
///
/// ```text
/// θ ← θ + ε·(Σ ω_i φ_i − θ)
/// ```
///
/// No second derivatives are required, making it the cheapest
/// meta-learning comparator in the ablation `X2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reptile {
    cfg: ReptileConfig,
}

impl Reptile {
    /// Creates the trainer.
    pub fn new(cfg: ReptileConfig) -> Self {
        Reptile { cfg }
    }
}

impl LocalStepper for Reptile {
    fn algorithm(&self) -> &'static str {
        "Reptile"
    }

    fn rounds(&self) -> usize {
        self.cfg.rounds
    }

    fn local_steps(&self) -> usize {
        self.cfg.inner_steps
    }

    /// `steps` of the inner SGD trajectory on the node's full local
    /// batch, turning the broadcast `θ` into the adapted `φ_i`.
    fn advance(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        _anchor: &[f64],
        phi: &mut [f64],
        steps: usize,
        scratch: &mut Scratch,
    ) {
        let Scratch { ws, grad, full, .. } = scratch;
        task.split.train.concat_into(&task.split.test, full);
        for _ in 0..steps {
            model.grad_into(phi, full, ws, grad);
            fml_linalg::vector::axpy(-self.cfg.inner_lr, grad, phi);
        }
    }

    fn eval_losses_with(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta: &[f64],
        scratch: &mut Scratch,
    ) -> (f64, f64) {
        curve_losses(model, tasks, theta, self.cfg.eval_alpha, scratch)
    }

    /// `θ ← θ + ε(φ̄ − θ)`: a degraded round still moves the global a
    /// bounded distance.
    fn combine(&self, global: &[f64], mut mean_phi: Vec<f64>) -> Vec<f64> {
        for (m, t) in mean_phi.iter_mut().zip(global) {
            *m = t + self.cfg.outer_lr * (*m - t);
        }
        mean_phi
    }

    fn threads(&self) -> Option<usize> {
        self.cfg.threads
    }

    /// The provided loop with its curve point and result at `θ` itself,
    /// not the re-average of `n` copies of it (which differs in the last
    /// bits).
    fn train_from(&self, model: &dyn Model, tasks: &[SourceTask], theta0: &[f64]) -> TrainOutput {
        assert_eq!(
            theta0.len(),
            model.param_len(),
            "Reptile: bad theta0 length"
        );
        crate::step::lockstep(self, model, tasks, theta0, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{Batch, Quadratic};

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
    fn interpolates_toward_task_centers() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(2.0, 0.0), (-2.0, 0.0)]);
        let cfg = ReptileConfig::new(0.2, 0.5)
            .with_inner_steps(3)
            .with_rounds(60);
        let out = Reptile::new(cfg).train_from(&model, &tasks, &[4.0, 4.0]);
        // Symmetric centers ⇒ fixed point at origin.
        assert!(
            fml_linalg::vector::norm2(&out.params) < 1e-2,
            "got {:?}",
            out.params
        );
    }

    #[test]
    fn meta_loss_decreases() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]);
        let cfg = ReptileConfig::new(0.1, 0.3)
            .with_inner_steps(5)
            .with_rounds(30);
        let out = Reptile::new(cfg).train_from(&model, &tasks, &[3.0, -3.0]);
        assert!(out.history.last().unwrap().meta_loss < out.history[0].meta_loss);
    }

    #[test]
    fn accounting_fields() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let cfg = ReptileConfig::new(0.1, 0.5)
            .with_inner_steps(4)
            .with_rounds(6);
        let out = Reptile::new(cfg).train_from(&model, &tasks, &[0.0, 0.0]);
        assert_eq!(out.comm_rounds, 6);
        assert_eq!(out.local_iterations, 24);
        assert_eq!(out.history.len(), 6);
    }

    #[test]
    #[should_panic(expected = "outer rate must be in (0, 1]")]
    fn rejects_outer_rate_above_one() {
        ReptileConfig::new(0.1, 1.5);
    }

    #[test]
    fn trainer_name() {
        assert_eq!(
            Reptile::new(ReptileConfig::new(0.1, 0.5)).algorithm(),
            "Reptile"
        );
    }
}
