//! Adaptive aggregation frequency: the controller of
//! [`fml_sim::adaptive`] over the virtual-time driver ([`crate::runner`]).
//! Every round is the driver's over the whole fleet; the controller only
//! chooses each round's `T0` and reads the round's divergence off its
//! reply frames.

use fml_core::{FedMl, SourceTask};
use fml_linalg::vector::{dist2, norm2};
use fml_models::Model;
use fml_sim::{AdaptiveOutput, AdaptiveT0Config, MessageView, SimConfig};
use rand::rngs::StdRng;

use crate::runner::{Driver, SimRunner};

/// Runs FedML with controller-chosen `T0` per round until the iteration
/// budget is exhausted.
///
/// After each round the controller measures the local divergence
/// `D = Σ ω_i ‖θ_i − θ̄‖ / (1 + ‖θ̄‖)` from the round's reply frames
/// against the global it closed with: above `divergence_target` the next
/// round halves `T0`, below half of it `T0` grows by one.
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
    let runner = SimRunner::new(*sim);
    let mut driver = Driver::new(&runner, fedml, model, tasks, theta0);
    let everyone: Vec<usize> = (0..tasks.len()).collect();
    let (mut t0_trace, mut divergence_trace, mut local) = (Vec::new(), Vec::new(), Vec::new());
    let mut t0 = ctrl.t0_init;
    let mut done = 0usize;

    while done < total_iterations {
        let steps = t0.min(total_iterations - done);
        t0_trace.push(steps);
        let core = &mut driver.core;
        core.schedule(steps, core.done() + 1);
        let round = core.open_round().expect("one more round scheduled");
        driver.step(round, &everyone, rng);
        done += steps;

        let global = driver.core.global();
        let scale = 1.0 + norm2(global);
        let divergence: f64 = tasks
            .iter()
            .zip(&driver.replies)
            .map(|(task, reply)| {
                let view = MessageView::parse(reply).expect("a reply the driver encoded");
                view.copy_params_into(&mut local);
                task.weight * dist2(&local, global)
            })
            .sum::<f64>()
            / scale;
        divergence_trace.push(divergence);

        // Control law.
        if divergence > ctrl.divergence_target {
            t0 = (t0 / 2).max(ctrl.t0_min);
        } else if divergence < ctrl.divergence_target / 2.0 {
            t0 = (t0 + 1).min(ctrl.t0_max);
        }
    }

    let (_, out) = driver.finish();
    AdaptiveOutput {
        params: out.params,
        comm: out.comm,
        compute: out.compute,
        history: out.history,
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
    use fml_sim::SimConfig;
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
