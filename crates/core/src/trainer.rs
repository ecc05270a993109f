use fml_models::Model;

use crate::meta::{meta_objective_with, Scratch};
use crate::SourceTask;

/// One point on a training curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Iteration index `t` (1-based, as in Algorithm 1).
    pub iteration: usize,
    /// Weighted meta objective `G(θ̄^t) = Σ ω_i L(φ_i(θ̄^t), D_i^test)`
    /// evaluated at the (virtual) weighted-average parameter.
    pub meta_loss: f64,
    /// Weighted support loss `Σ ω_i L(θ̄^t, D_i^train)` — the quantity
    /// FedAvg optimizes, recorded for cross-algorithm comparison.
    pub train_loss: f64,
    /// Whether a global aggregation happened at this iteration.
    pub aggregated: bool,
    /// Nodes whose updates actually entered the aggregate this round.
    /// Equals the task count on fault-free rounds.
    pub reporters: usize,
    /// Whether this round was degraded — nodes crashed, were rejected as
    /// corrupt, or a rollback re-ran the round with a reduced fleet.
    pub degraded: bool,
}

/// The result of federated training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutput {
    /// Final global model parameters.
    pub params: Vec<f64>,
    /// Training curve, one record per round.
    pub history: Vec<RoundRecord>,
    /// Number of global aggregations (communication rounds) performed.
    pub comm_rounds: usize,
    /// Total local iterations executed across the run (per node).
    pub local_iterations: usize,
}

impl TrainOutput {
    /// The meta-loss values of aggregation rounds only — the series the
    /// convergence figures plot.
    pub fn aggregation_curve(&self) -> Vec<(usize, f64)> {
        self.history
            .iter()
            .filter(|r| r.aggregated)
            .map(|r| (r.iteration, r.meta_loss))
            .collect()
    }

    /// Final recorded meta loss (the last history entry), if any.
    pub fn final_meta_loss(&self) -> Option<f64> {
        self.history.last().map(|r| r.meta_loss)
    }
}

/// Computes the weighted meta objective `G(θ) = Σ ω_i L(φ_i(θ), test_i)`
/// at a given parameter vector — the convergence-curve quantity of
/// Figure 2 (definition in §IV-A of the paper).
pub fn weighted_meta_loss(
    model: &dyn Model,
    tasks: &[SourceTask],
    theta: &[f64],
    alpha: f64,
) -> f64 {
    weighted_meta_loss_with(model, tasks, theta, alpha, &mut Scratch::for_model(model))
}

/// [`weighted_meta_loss`] with every task swept through the one
/// `scratch`, the sum taken in task order.
pub(crate) fn weighted_meta_loss_with(
    model: &dyn Model,
    tasks: &[SourceTask],
    theta: &[f64],
    alpha: f64,
    scratch: &mut Scratch,
) -> f64 {
    tasks
        .iter()
        .map(|t| {
            let (train, test) = (&t.split.train, &t.split.test);
            t.weight * meta_objective_with(model, theta, train, test, alpha, scratch)
        })
        .sum()
}

/// Computes the weighted support loss `Σ ω_i L(θ, train_i)`.
pub fn weighted_train_loss(model: &dyn Model, tasks: &[SourceTask], theta: &[f64]) -> f64 {
    let mut ws = model.workspace();
    tasks
        .iter()
        .map(|t| t.weight * model.loss_with(theta, &t.split.train, &mut ws))
        .sum()
}

/// `(weighted_meta_loss at alpha, weighted_train_loss)` — the pair every
/// fixed-rate trainer records on its curve — in one sweep of the tasks.
/// A task's support loss comes from the inner step's own gradient pass
/// ([`Model::loss_grad_into`]); both sums run in task order from `−0.0`,
/// as `Iterator::sum` does, so the pair has the bits of the two
/// functions.
pub(crate) fn curve_losses(
    model: &dyn Model,
    tasks: &[SourceTask],
    theta: &[f64],
    alpha: f64,
    scratch: &mut Scratch,
) -> (f64, f64) {
    let (mut meta, mut train) = (-0.0, -0.0);
    for t in tasks {
        let Scratch { ws, grad, phi, .. } = scratch;
        let support = model.loss_grad_into(theta, &t.split.train, ws, grad);
        phi.copy_from_slice(theta);
        fml_linalg::vector::axpy(-alpha, grad, phi);
        meta += t.weight * model.loss_with(phi, &t.split.test, ws);
        train += t.weight * support;
    }
    (meta, train)
}

/// Weighted average of per-node parameter vectors — the platform's global
/// aggregation (eq. 5).
///
/// # Panics
///
/// Panics when `params.len() != tasks.len()` or `params` is empty.
pub fn aggregate(tasks: &[SourceTask], params: &[Vec<f64>]) -> Vec<f64> {
    assert_eq!(tasks.len(), params.len(), "aggregate: node count mismatch");
    let views: Vec<&[f64]> = params.iter().map(|p| p.as_slice()).collect();
    let weights: Vec<f64> = tasks.iter().map(|t| t.weight).collect();
    fml_linalg::vector::weighted_sum(&views, &weights).expect("aggregate: no nodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{Batch, Quadratic};

    fn quad_tasks() -> Vec<SourceTask> {
        let nodes = vec![
            NodeData {
                id: 0,
                batch: Batch::regression(
                    Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[1.0, 0.0]]).unwrap(),
                    vec![0.0; 3],
                )
                .unwrap(),
            },
            NodeData {
                id: 1,
                batch: Batch::regression(
                    Matrix::from_rows(&[&[-1.0, 0.0], &[-1.0, 0.0], &[-1.0, 0.0]]).unwrap(),
                    vec![0.0; 3],
                )
                .unwrap(),
            },
        ];
        SourceTask::from_nodes_deterministic(&nodes, 1)
    }

    #[test]
    fn aggregate_is_weighted_mean() {
        let tasks = quad_tasks();
        let p = vec![vec![2.0, 0.0], vec![0.0, 2.0]];
        let agg = aggregate(&tasks, &p);
        assert_eq!(agg, vec![1.0, 1.0]); // equal sizes ⇒ plain mean
    }

    #[test]
    fn weighted_meta_loss_is_convex_combination() {
        let model = Quadratic::isotropic(2, 1.0);
        let tasks = quad_tasks();
        let g = weighted_meta_loss(&model, &tasks, &[0.0, 0.0], 0.1);
        // By symmetry both tasks contribute the same value.
        let g0 = crate::meta::meta_objective(
            &model,
            &[0.0, 0.0],
            &tasks[0].split.train,
            &tasks[0].split.test,
            0.1,
        );
        assert!((g - g0).abs() < 1e-12);
    }

    #[test]
    fn train_output_helpers() {
        let out = TrainOutput {
            params: vec![0.0],
            history: vec![
                RoundRecord {
                    iteration: 1,
                    meta_loss: 1.0,
                    train_loss: 1.5,
                    aggregated: false,
                    reporters: 1,
                    degraded: false,
                },
                RoundRecord {
                    iteration: 2,
                    meta_loss: 0.5,
                    train_loss: 1.0,
                    aggregated: true,
                    reporters: 1,
                    degraded: true,
                },
            ],
            comm_rounds: 1,
            local_iterations: 2,
        };
        assert_eq!(out.aggregation_curve(), vec![(2, 0.5)]);
        assert_eq!(out.final_meta_loss(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn aggregate_rejects_mismatch() {
        aggregate(&quad_tasks(), &[vec![0.0, 0.0]]);
    }
}
