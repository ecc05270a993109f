//! Adaptive aggregation frequency (adaptive `T0`).
//!
//! The paper observes that "the platform is able to balance between the
//! platform-edge communication cost and the local computation cost via
//! controlling the number of local update steps `T0`, depending on the
//! task similarity" — and cites Wang et al. (adaptive federated learning
//! under resource constraints) for dynamically adapting the aggregation
//! frequency. This module implements that control loop:
//!
//! * after each aggregation the platform measures the **local divergence**
//!   `D = Σ ω_i ‖θ_i − θ̄‖ / (1 + ‖θ̄‖)` — how far the nodes drifted apart
//!   during their `T0` local steps (the quantity Theorem 2's `h(T0)` floor
//!   grows from);
//! * if `D` exceeds `divergence_target`, the next round halves `T0`
//!   (drift is eating the floor budget: communicate more);
//! * if `D` is below half the target, the next round increments `T0`
//!   (similarity headroom: save communication).
//!
//! The `adaptive_t0` experiment compares the controller against every
//! fixed `T0` under the same iteration budget.

use fml_core::{FedMl, SourceTask};
use fml_models::Model;
use rand::rngs::StdRng;

use crate::runner::{RunState, SimConfig};
use crate::stats::{CommStats, ComputeStats};

/// Controller parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveT0Config {
    /// Smallest allowed `T0`.
    pub t0_min: usize,
    /// Largest allowed `T0`.
    pub t0_max: usize,
    /// Starting `T0`.
    pub t0_init: usize,
    /// Relative local-divergence target the controller steers toward.
    pub divergence_target: f64,
}

impl AdaptiveT0Config {
    /// Creates a controller config.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are inconsistent or the target is not
    /// positive.
    pub fn new(t0_min: usize, t0_max: usize, divergence_target: f64) -> Self {
        assert!(t0_min >= 1, "t0_min must be at least 1");
        assert!(t0_max >= t0_min, "t0_max must be at least t0_min");
        assert!(
            divergence_target > 0.0,
            "divergence target must be positive"
        );
        AdaptiveT0Config {
            t0_min,
            t0_max,
            t0_init: t0_min,
            divergence_target,
        }
    }

    /// Sets the starting `T0`.
    ///
    /// # Panics
    ///
    /// Panics when outside `[t0_min, t0_max]`.
    pub fn with_initial(mut self, t0: usize) -> Self {
        assert!(
            (self.t0_min..=self.t0_max).contains(&t0),
            "initial T0 must lie within the bounds"
        );
        self.t0_init = t0;
        self
    }
}

/// Result of an adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutput {
    /// Final global parameters.
    pub params: Vec<f64>,
    /// Communication meter.
    pub comm: CommStats,
    /// Computation meter.
    pub compute: ComputeStats,
    /// `(iteration, meta loss)` at each aggregation.
    pub history: Vec<(usize, f64)>,
    /// `T0` used for each round, in order.
    pub t0_trace: Vec<usize>,
    /// Divergence measured at each aggregation.
    pub divergence_trace: Vec<f64>,
}

/// Runs FedML with controller-chosen `T0` per round until the iteration
/// budget is exhausted.
///
/// Every round runs the same phases as [`crate::SimRunner::run`] over
/// the whole fleet — priced broadcast, threaded local updates with
/// per-profile compute accounting, uploads — with the configured link
/// models; only the controller-chosen step count and the divergence
/// measurement are its own.
///
/// # Panics
///
/// Panics when `tasks` is empty or `theta0` has the wrong length.
#[allow(clippy::too_many_arguments)] // the knobs are the experiment
pub fn run_adaptive_fedml(
    sim: &SimConfig,
    ctrl: &AdaptiveT0Config,
    fedml: &FedMl,
    model: &dyn Model,
    tasks: &[SourceTask],
    theta0: &[f64],
    total_iterations: usize,
    rng: &mut StdRng,
) -> AdaptiveOutput {
    let mut st = RunState::new(sim, fedml, model, tasks, theta0);
    let everyone: Vec<usize> = (0..tasks.len()).collect();
    let mut t0_trace = Vec::new();
    let mut divergence_trace = Vec::new();
    let mut t0 = ctrl.t0_init;
    let mut done = 0usize;
    let mut round = 0usize;

    while done < total_iterations {
        round += 1;
        let steps = t0.min(total_iterations - done);
        t0_trace.push(steps);

        let mut flight = st.broadcast(round, steps, everyone.len(), rng);
        let locals = st.local_updates(&mut flight, &everyone);
        st.upload(&flight, &locals, rng);

        // Aggregate and measure divergence.
        let agg = fml_core::aggregate(tasks, &locals);
        let scale = 1.0 + fml_linalg::vector::norm2(&agg);
        let divergence: f64 = tasks
            .iter()
            .zip(&locals)
            .map(|(task, local)| task.weight * fml_linalg::vector::dist2(local, &agg))
            .sum::<f64>()
            / scale;
        divergence_trace.push(divergence);
        st.global = agg;
        done += steps;
        let meta_loss = st.finish(flight, &everyone);
        st.history.push((done, meta_loss));

        // Control law.
        if divergence > ctrl.divergence_target {
            t0 = (t0 / 2).max(ctrl.t0_min);
        } else if divergence < ctrl.divergence_target / 2.0 {
            t0 = (t0 + 1).min(ctrl.t0_max);
        }
    }

    AdaptiveOutput {
        params: st.global,
        comm: st.comm,
        compute: st.compute,
        history: st.history,
        t0_trace,
        divergence_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_core::FedMlConfig;
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{Batch, LinearRegression};
    use rand::{Rng, SeedableRng};

    /// Linear-regression tasks with per-node designs (nonzero σ_i) so
    /// local drift is real.
    fn regression_tasks(nodes: usize, spread: f64) -> Vec<SourceTask> {
        let data: Vec<NodeData> = (0..nodes)
            .map(|id| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(500 + id as u64);
                let w = [1.0 + spread * (rng.gen::<f64>() - 0.5), -1.0];
                let mut xs = Matrix::zeros(8, 2);
                let mut ys = Vec::new();
                for r in 0..8 {
                    let a = rng.gen::<f64>() * 2.0 - 1.0;
                    let b = rng.gen::<f64>() * 2.0 - 1.0;
                    xs.set(r, 0, a);
                    xs.set(r, 1, b);
                    ys.push(w[0] * a + w[1] * b);
                }
                NodeData {
                    id,
                    batch: Batch::regression(xs, ys).unwrap(),
                }
            })
            .collect();
        SourceTask::from_nodes_deterministic(&data, 4)
    }

    fn fedml() -> FedMl {
        FedMl::new(FedMlConfig::new(0.2, 0.3))
    }

    #[test]
    fn config_validation() {
        let c = AdaptiveT0Config::new(1, 20, 0.1).with_initial(5);
        assert_eq!(c.t0_init, 5);
    }

    #[test]
    #[should_panic(expected = "t0_max must be at least t0_min")]
    fn rejects_inverted_bounds() {
        AdaptiveT0Config::new(5, 2, 0.1);
    }

    #[test]
    #[should_panic(expected = "within the bounds")]
    fn rejects_out_of_bounds_initial() {
        AdaptiveT0Config::new(1, 4, 0.1).with_initial(9);
    }

    #[test]
    fn exhausts_exactly_the_iteration_budget() {
        let tasks = regression_tasks(4, 1.0);
        let model = LinearRegression::new(2).with_l2(0.05);
        let ctrl = AdaptiveT0Config::new(1, 8, 0.05).with_initial(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let out = run_adaptive_fedml(
            &SimConfig::ideal(),
            &ctrl,
            &fedml(),
            &model,
            &tasks,
            &[0.0; 3],
            50,
            &mut rng,
        );
        assert_eq!(out.t0_trace.iter().sum::<usize>(), 50);
        assert!(out.t0_trace.iter().all(|&t| (1..=8).contains(&t)));
        assert_eq!(out.t0_trace.len(), out.divergence_trace.len());
    }

    #[test]
    fn high_divergence_pushes_t0_down() {
        // Very dissimilar tasks with a tiny target: the controller should
        // drive T0 to the minimum.
        let tasks = regression_tasks(4, 8.0);
        let model = LinearRegression::new(2).with_l2(0.05);
        let ctrl = AdaptiveT0Config::new(1, 16, 1e-6).with_initial(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let out = run_adaptive_fedml(
            &SimConfig::ideal(),
            &ctrl,
            &fedml(),
            &model,
            &tasks,
            &[1.0; 3],
            80,
            &mut rng,
        );
        assert_eq!(
            *out.t0_trace.last().unwrap(),
            1,
            "trace: {:?}",
            out.t0_trace
        );
    }

    #[test]
    fn low_divergence_lets_t0_grow() {
        // Identical tasks with a generous target: T0 should climb to max.
        let tasks = regression_tasks(4, 0.0);
        let model = LinearRegression::new(2).with_l2(0.05);
        let ctrl = AdaptiveT0Config::new(1, 12, 10.0).with_initial(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let out = run_adaptive_fedml(
            &SimConfig::ideal(),
            &ctrl,
            &fedml(),
            &model,
            &tasks,
            &[1.0; 3],
            120,
            &mut rng,
        );
        // The final entry may be truncated by the remaining budget, so
        // check the peak the controller reached.
        assert!(
            *out.t0_trace.iter().max().unwrap() > 6,
            "T0 should grow on similar tasks: {:?}",
            out.t0_trace
        );
    }

    #[test]
    fn training_progresses_and_accounts_comm() {
        let tasks = regression_tasks(5, 1.0);
        let model = LinearRegression::new(2).with_l2(0.05);
        let ctrl = AdaptiveT0Config::new(1, 10, 0.02).with_initial(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let out = run_adaptive_fedml(
            &SimConfig::edge(),
            &ctrl,
            &fedml(),
            &model,
            &tasks,
            &[2.0; 3],
            100,
            &mut rng,
        );
        assert!(out.history.last().unwrap().1 < out.history.first().unwrap().1);
        assert!(out.comm.total_bytes() > 0);
        assert_eq!(
            out.comm.messages as usize,
            out.t0_trace.len() * tasks.len() * 2
        );
        assert!(out.compute.hvp_evals > 0);
    }
}
