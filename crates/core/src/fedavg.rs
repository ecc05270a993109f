use fml_models::Model;

use crate::meta::Scratch;
use crate::trainer::curve_losses;
use crate::{LocalStepper, SourceTask};

/// Configuration for [`FedAvg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAvgConfig {
    /// Local SGD learning rate (the paper gives FedAvg "the same learning
    /// rate with β").
    pub lr: f64,
    /// Local iterations between aggregations, `T0`.
    pub local_steps: usize,
    /// Number of communication rounds.
    pub rounds: usize,
    /// Adaptation rate used **only** to evaluate the meta objective on the
    /// training curve, so FedAvg and FedML curves are directly comparable.
    pub eval_alpha: f64,
    /// Worker threads for the per-node fan-out; `None` (the default)
    /// auto-sizes to the host's available parallelism capped at the node
    /// count. Results are bitwise independent of this setting.
    pub threads: Option<usize>,
}

impl FedAvgConfig {
    /// Creates a config with the given learning rate and paper defaults.
    ///
    /// # Panics
    ///
    /// Panics when `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        FedAvgConfig {
            lr,
            local_steps: 5,
            rounds: 20,
            eval_alpha: 0.01,
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

    /// Sets the meta-evaluation adaptation rate.
    pub fn with_eval_alpha(mut self, alpha: f64) -> Self {
        self.eval_alpha = alpha;
        self
    }
}

/// **FedAvg** (McMahan et al.) — the federated-learning baseline the paper
/// compares against in Figure 3(c)–(e).
///
/// Each node runs `T0` plain SGD steps on its **entire** local dataset
/// (support ∪ query — "the entire dataset is used for training in
/// Fedavg"), then the platform aggregates with the same size-proportional
/// weights as FedML. The result is a single global model that fits all
/// nodes on average; it carries no fast-adaptation structure, which is
/// exactly the gap the paper demonstrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAvg {
    cfg: FedAvgConfig,
}

impl FedAvg {
    /// Creates the trainer.
    pub fn new(cfg: FedAvgConfig) -> Self {
        FedAvg { cfg }
    }
}

impl LocalStepper for FedAvg {
    fn algorithm(&self) -> &'static str {
        "FedAvg"
    }

    fn rounds(&self) -> usize {
        self.cfg.rounds
    }

    fn local_steps(&self) -> usize {
        self.cfg.local_steps
    }

    /// `steps` of plain SGD on the node's full local dataset.
    fn advance(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        _anchor: &[f64],
        theta_i: &mut [f64],
        steps: usize,
        scratch: &mut Scratch,
    ) {
        let Scratch { ws, grad, full, .. } = scratch;
        task.split.train.concat_into(&task.split.test, full);
        for _ in 0..steps {
            model.grad_into(theta_i, full, ws, grad);
            fml_linalg::vector::axpy(-self.cfg.lr, grad, theta_i);
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

    fn threads(&self) -> Option<usize> {
        self.cfg.threads
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
    fn converges_to_weighted_center() {
        // FedAvg minimizes Σ ω_i L_i, whose optimum for quadratics is the
        // weighted mean of centers.
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(2.0, 0.0), (0.0, 2.0)]);
        let cfg = FedAvgConfig::new(0.2).with_local_steps(3).with_rounds(100);
        let out = FedAvg::new(cfg).train_from(&model, &tasks, &[5.0, 5.0]);
        assert!(
            fml_linalg::vector::approx_eq(&out.params, &[1.0, 1.0], 1e-3),
            "got {:?}",
            out.params
        );
    }

    #[test]
    fn train_loss_decreases() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 1.0), (-1.0, 1.0), (0.0, -1.0)]);
        let cfg = FedAvgConfig::new(0.1).with_local_steps(5).with_rounds(20);
        let out = FedAvg::new(cfg).train_from(&model, &tasks, &[4.0, -4.0]);
        crate::step::tests::assert_one_record_per_round(&out, 20, 5);
        let first = out.history.first().unwrap().train_loss;
        let last = out.history.last().unwrap().train_loss;
        assert!(last < first);
    }

    #[test]
    fn comm_round_accounting() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let cfg = FedAvgConfig::new(0.1).with_local_steps(7).with_rounds(3);
        let out = FedAvg::new(cfg).train_from(&model, &tasks, &[0.0, 0.0]);
        assert_eq!(out.comm_rounds, 3);
        assert_eq!(out.local_iterations, 21);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_nonpositive_lr() {
        FedAvgConfig::new(-0.1);
    }

    #[test]
    fn trainer_name() {
        assert_eq!(FedAvg::new(FedAvgConfig::new(0.1)).algorithm(), "FedAvg");
    }

    #[test]
    fn benign_fault_plan_matches_train_from() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(2.0, 0.0), (0.0, 2.0)]);
        let cfg = FedAvgConfig::new(0.1).with_local_steps(4).with_rounds(10);
        let trainer = FedAvg::new(cfg);
        let plain = trainer.train_from(&model, &tasks, &[3.0, 3.0]);
        let ft = crate::ft::FaultTolerance::new(crate::faults::FaultPlan::new(0));
        let tolerant =
            crate::train_with_faults(&trainer, &model, &tasks, &[3.0, 3.0], &ft).unwrap();
        assert_eq!(plain.params, tolerant.params);
    }
}
