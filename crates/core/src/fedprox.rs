use fml_models::{Batch, Model};
use rand::rngs::StdRng;

use crate::trainer::{aggregate, weighted_meta_loss, weighted_train_loss};
use crate::{FederatedTrainer, RoundRecord, SourceTask, TrainOutput};

/// Configuration for [`FedProx`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedProxConfig {
    /// Local SGD learning rate.
    pub lr: f64,
    /// Proximal coefficient `μ_prox` penalizing drift from the global
    /// model (FedProx's knob for statistical heterogeneity).
    pub prox: f64,
    /// Local iterations between aggregations, `T0`.
    pub local_steps: usize,
    /// Number of communication rounds.
    pub rounds: usize,
    /// Adaptation rate for meta-objective curve evaluation (comparability
    /// with FedML curves).
    pub eval_alpha: f64,
    /// Curve-recording stride.
    pub record_every: usize,
    /// Worker threads for the per-node fan-out; `None` (the default)
    /// auto-sizes to the host's available parallelism capped at the node
    /// count. Results are bitwise independent of this setting.
    pub threads: Option<usize>,
}

impl FedProxConfig {
    /// Creates a config with the given learning rate and proximal
    /// coefficient.
    ///
    /// # Panics
    ///
    /// Panics when `lr <= 0` or `prox < 0`.
    pub fn new(lr: f64, prox: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(prox >= 0.0, "proximal coefficient must be non-negative");
        FedProxConfig {
            lr,
            prox,
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

/// **FedProx** (Sahu et al.) — the related-work baseline that tames
/// statistical heterogeneity by adding a proximal term to each local
/// objective:
///
/// ```text
/// min_θ  L_i(θ) + (μ_prox/2)·‖θ − θ_global‖²
/// ```
///
/// With `μ_prox = 0` this reduces exactly to [`crate::FedAvg`] (verified
/// in the tests). It is included because the paper builds its experimental
/// setup on FedProx's synthetic data and partitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedProx {
    cfg: FedProxConfig,
}

impl FedProx {
    /// Creates the trainer.
    pub fn new(cfg: FedProxConfig) -> Self {
        FedProx { cfg }
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &FedProxConfig {
        &self.cfg
    }

    /// Runs `steps` local proximal-SGD iterations for a single node from
    /// `theta` and returns the node's updated parameters. The proximal
    /// anchor is the round-start global model `theta`, matching the
    /// FedProx objective `L_i(θ) + (μ_prox/2)‖θ − θ_global‖²`.
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
            let mut g = model.grad(&theta_i, &full);
            for ((gi, ti), gl) in g.iter_mut().zip(theta_i.iter()).zip(theta) {
                *gi += self.cfg.prox * (ti - gl);
            }
            fml_linalg::vector::axpy(-self.cfg.lr, &g, &mut theta_i);
        }
        theta_i
    }

    /// Runs FedProx from an explicit initialization.
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
        assert!(!tasks.is_empty(), "FedProx: no source tasks");
        assert_eq!(
            theta0.len(),
            model.param_len(),
            "FedProx: bad theta0 length"
        );
        let cfg = &self.cfg;
        let full: Vec<Batch> = tasks
            .iter()
            .map(|t| t.split.train.concat(&t.split.test))
            .collect();
        let mut global = theta0.to_vec();
        let mut locals: Vec<Vec<f64>> = vec![global.clone(); tasks.len()];
        let mut history = Vec::new();
        let mut comm_rounds = 0;
        let total = cfg.rounds * cfg.local_steps;
        let threads = cfg
            .threads
            .unwrap_or_else(|| crate::parallel::default_threads(tasks.len()));

        for t in 1..=total {
            let anchor = &global;
            locals = crate::parallel::map_ordered(threads, &full, |i, batch| {
                let mut theta_i = locals[i].clone();
                let mut g = model.grad(&theta_i, batch);
                // Proximal pull toward the last global model.
                for ((gi, ti), gl) in g.iter_mut().zip(theta_i.iter()).zip(anchor) {
                    *gi += cfg.prox * (ti - gl);
                }
                fml_linalg::vector::axpy(-cfg.lr, &g, &mut theta_i);
                theta_i
            });
            let aggregated = t % cfg.local_steps == 0;
            if aggregated {
                global = aggregate(tasks, &locals);
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

impl FederatedTrainer for FedProx {
    fn train(&self, model: &dyn Model, tasks: &[SourceTask], rng: &mut StdRng) -> TrainOutput {
        let theta0 = model.init_params(rng);
        self.train_from(model, tasks, &theta0)
    }

    fn name(&self) -> &'static str {
        "FedProx"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FedAvg, FedAvgConfig};
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
    fn zero_prox_equals_fedavg() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(2.0, -1.0), (-1.0, 2.0)]);
        let theta0 = [0.7, -0.3];
        let prox = FedProx::new(
            FedProxConfig::new(0.1, 0.0)
                .with_local_steps(4)
                .with_rounds(10),
        )
        .train_from(&model, &tasks, &theta0);
        let avg = FedAvg::new(FedAvgConfig::new(0.1).with_local_steps(4).with_rounds(10))
            .train_from(&model, &tasks, &theta0);
        assert!(fml_linalg::vector::approx_eq(
            &prox.params,
            &avg.params,
            1e-12
        ));
    }

    #[test]
    fn prox_term_limits_local_drift() {
        // With heterogeneous tasks and large T0, the spread of local
        // iterates right before aggregation shrinks as μ_prox grows.
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(5.0, 0.0), (-1.0, 0.0)]);
        let drift = |prox: f64| -> f64 {
            // Run T0-1 local steps manually and measure disagreement.
            let cfg = FedProxConfig::new(0.1, prox)
                .with_local_steps(20)
                .with_rounds(1);
            let out = FedProx::new(cfg).train_from(&model, &tasks, &[0.0, 0.0]);
            // After the final aggregation the locals are merged; use the
            // recorded pre-aggregation train loss as a drift proxy: more
            // drift ⇒ the averaged model sits farther from each center.
            out.history.last().unwrap().train_loss
        };
        // Both converge to the same weighted center; the proximal version
        // must not be *worse* in train loss after one round here, and the
        // runs must differ (the term is active).
        let loose = drift(0.0);
        let tight = drift(2.0);
        assert_ne!(loose, tight);
    }

    #[test]
    fn converges_with_prox() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks(&[(1.0, 0.0), (-1.0, 0.0)]);
        let cfg = FedProxConfig::new(0.2, 0.5)
            .with_local_steps(5)
            .with_rounds(80);
        let out = FedProx::new(cfg).train_from(&model, &tasks, &[3.0, 3.0]);
        assert!(
            fml_linalg::vector::norm2(&out.params) < 1e-2,
            "got {:?}",
            out.params
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_prox() {
        FedProxConfig::new(0.1, -1.0);
    }

    #[test]
    fn trainer_name() {
        assert_eq!(FedProx::new(FedProxConfig::new(0.1, 0.1)).name(), "FedProx");
    }
}
