//! Shared FedML-vs-FedAvg adaptation comparison used by the Figure 3(c–e)
//! binaries.

use fml_core::{adapt, FedAvg, FedAvgConfig, FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_data::NodeData;
use fml_models::Model;
use rand::SeedableRng;

use crate::{Experiment, Series};

/// Hyper-parameters for one adaptation-comparison run.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Inner/adaptation rate `α`.
    pub alpha: f64,
    /// Meta rate `β` (also FedAvg's learning rate, per the paper).
    pub beta: f64,
    /// Local steps `T0`.
    pub t0: usize,
    /// Communication rounds for both algorithms.
    pub rounds: usize,
    /// Support sizes `K` to evaluate at the targets.
    pub ks: [usize; 2],
    /// Adaptation steps to sweep.
    pub max_steps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Trains FedML and FedAvg from a shared initialization and appends
/// target-adaptation accuracy curves (one per algorithm per `K`) to `exp`.
///
/// The expected shape (the paper's Figure 3(c)–(e)): FedML's curve keeps
/// improving with extra adaptation steps and dominates FedAvg's, and the
/// gap is largest at small `K`.
pub fn run_comparison(
    exp: &mut Experiment,
    model: &dyn Model,
    tasks: &[SourceTask],
    targets: &[NodeData],
    cfg: CompareConfig,
) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed + 100);
    let theta0 = model.init_params(&mut rng);

    let fedml = FedMl::new(
        FedMlConfig::new(cfg.alpha, cfg.beta)
            .with_local_steps(cfg.t0)
            .with_rounds(cfg.rounds),
    )
    .train_from(model, tasks, &theta0);
    let fedavg = FedAvg::new(
        FedAvgConfig::new(cfg.beta)
            .with_local_steps(cfg.t0)
            .with_rounds(cfg.rounds)
            .with_eval_alpha(cfg.alpha),
    )
    .train_from(model, tasks, &theta0);

    for &k in &cfg.ks {
        for (name, params) in [("FedML", &fedml.params), ("FedAvg", &fedavg.params)] {
            let mut eval_rng = rand::rngs::StdRng::seed_from_u64(cfg.seed + 200 + k as u64);
            let eval = adapt::evaluate_targets(
                model,
                params,
                targets,
                k,
                cfg.alpha,
                cfg.max_steps,
                &mut eval_rng,
            );
            let x: Vec<f64> = eval.curve.iter().map(|p| p.steps as f64).collect();
            let y: Vec<f64> = eval.curve.iter().map(|p| p.accuracy).collect();
            exp.note(format!(
                "{name} K={k}: accuracy {:.3} -> {:.3}, loss {:.4}",
                eval.curve.first().map_or(f64::NAN, |p| p.accuracy),
                eval.final_accuracy(),
                eval.final_loss()
            ));
            exp.push_series(Series::new(format!("{name}(K={k})"), x, y));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_four_series() {
        let setup = crate::workloads::synthetic(0.5, 0.5, 5, true, 0);
        let mut exp = Experiment::new("t", "t", "steps", "acc");
        run_comparison(
            &mut exp,
            &setup.model,
            &setup.tasks,
            &setup.targets,
            CompareConfig {
                alpha: 0.01,
                beta: 0.01,
                t0: 2,
                rounds: 3,
                ks: [3, 5],
                max_steps: 3,
                seed: 1,
            },
        );
        assert_eq!(exp.series.len(), 4);
        assert!(exp.series.iter().all(|s| s.x.len() == 4));
    }
}
