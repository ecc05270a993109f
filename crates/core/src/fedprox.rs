use fml_models::Model;

use crate::meta::Scratch;
use crate::trainer::curve_losses;
use crate::{LocalStepper, SourceTask};

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
    /// Curve-recording stride (0, the default, = aggregations only).
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
            record_every: 0,
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
}

impl LocalStepper for FedProx {
    fn algorithm(&self) -> &'static str {
        "FedProx"
    }

    fn rounds(&self) -> usize {
        self.cfg.rounds
    }

    fn local_steps(&self) -> usize {
        self.cfg.local_steps
    }

    fn record_every(&self) -> usize {
        self.cfg.record_every
    }

    /// `steps` of proximal SGD on the node's full local dataset, pulled
    /// toward the last global model `anchor`: the FedProx objective
    /// `L_i(θ) + (μ_prox/2)‖θ − θ_global‖²`.
    fn advance(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        anchor: &[f64],
        theta_i: &mut [f64],
        steps: usize,
        scratch: &mut Scratch,
    ) {
        let Scratch { ws, grad, full, .. } = scratch;
        task.split.train.concat_into(&task.split.test, full);
        for _ in 0..steps {
            model.grad_into(theta_i, full, ws, grad);
            for ((gi, ti), gl) in grad.iter_mut().zip(theta_i.iter()).zip(anchor) {
                *gi += self.cfg.prox * (ti - gl);
            }
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
    use crate::{FedAvg, FedAvgConfig};
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
        assert_eq!(
            FedProx::new(FedProxConfig::new(0.1, 0.1)).algorithm(),
            "FedProx"
        );
    }
}
