use fml_models::{Batch, Model};
use rand::rngs::StdRng;

use crate::trainer::{aggregate, weighted_meta_loss, weighted_train_loss};
use crate::{FederatedTrainer, RoundRecord, SourceTask, TrainOutput};

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
    /// Curve-recording stride (aggregations always recorded; 0 = only
    /// aggregations).
    pub record_every: usize,
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
            record_every: 1,
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

    /// Sets the curve-recording stride.
    pub fn with_record_every(mut self, every: usize) -> Self {
        self.record_every = every;
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

    /// Borrow of the configuration.
    pub fn config(&self) -> &FedAvgConfig {
        &self.cfg
    }

    /// Runs `steps` local SGD iterations for a single node on its full
    /// local dataset — the per-device unit of work used by the `fml-sim`
    /// executor.
    pub fn local_update(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        theta: &[f64],
        steps: usize,
    ) -> Vec<f64> {
        let full = task.split.train.concat(&task.split.test);
        let mut theta_i = theta.to_vec();
        for _ in 0..steps {
            let g = model.grad(&theta_i, &full);
            fml_linalg::vector::axpy(-self.cfg.lr, &g, &mut theta_i);
        }
        theta_i
    }

    /// Runs FedAvg from an explicit initialization.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub fn train_from(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
    ) -> TrainOutput {
        assert!(!tasks.is_empty(), "FedAvg: no source tasks");
        assert_eq!(theta0.len(), model.param_len(), "FedAvg: bad theta0 length");
        let cfg = &self.cfg;
        // FedAvg trains on the full local dataset.
        let full: Vec<Batch> = tasks
            .iter()
            .map(|t| t.split.train.concat(&t.split.test))
            .collect();
        let mut locals: Vec<Vec<f64>> = vec![theta0.to_vec(); tasks.len()];
        let mut history = Vec::new();
        let mut comm_rounds = 0;
        let total = cfg.rounds * cfg.local_steps;
        let threads = cfg
            .threads
            .unwrap_or_else(|| crate::parallel::default_threads(tasks.len()));

        for t in 1..=total {
            locals = crate::parallel::map_ordered(threads, &full, |i, batch| {
                let mut theta_i = locals[i].clone();
                let g = model.grad(&theta_i, batch);
                fml_linalg::vector::axpy(-cfg.lr, &g, &mut theta_i);
                theta_i
            });
            let aggregated = t % cfg.local_steps == 0;
            if aggregated {
                let global = aggregate(tasks, &locals);
                for theta_i in &mut locals {
                    theta_i.copy_from_slice(&global);
                }
                comm_rounds += 1;
            }
            let record =
                aggregated || (cfg.record_every > 0 && t % cfg.record_every == 0) || t == total;
            if record {
                let avg = aggregate(tasks, &locals);
                history.push(RoundRecord {
                    iteration: t,
                    meta_loss: weighted_meta_loss(model, tasks, &avg, cfg.eval_alpha),
                    train_loss: weighted_train_loss(model, tasks, &avg),
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

impl FederatedTrainer for FedAvg {
    fn train(&self, model: &dyn Model, tasks: &[SourceTask], rng: &mut StdRng) -> TrainOutput {
        let theta0 = model.init_params(rng);
        self.train_from(model, tasks, &theta0)
    }

    fn name(&self) -> &'static str {
        "FedAvg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::Quadratic;

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
        assert_eq!(FedAvg::new(FedAvgConfig::new(0.1)).name(), "FedAvg");
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
