//! Trainer step extraction: the [`LocalStepper`] trait.
//!
//! Each federated trainer in this crate already exposes a
//! `local_update` that runs one node's `T0` local iterations from a
//! given model state. External executors — [`crate::train_with_faults`],
//! the `fml-sim` round runner and the `fml-runtime` actor platform —
//! need to drive exactly that unit of work without caring *which*
//! algorithm is underneath. This trait is that seam, and the only way
//! a round loop learns which algorithm it is running: it packages a
//! trainer's per-node step, its round schedule, its loss evaluation
//! and how the gathered aggregate becomes the next global
//! ([`combine`](LocalStepper::combine)), so an executor can reproduce
//! `train_from` round by round while owning the communication in
//! between.
//!
//! A round is *broadcast → local steps → weighted aggregate → combine*.
//! [`FedMl`], [`FedAvg`] and [`FedProx`] install the aggregate as is;
//! [`Reptile`] overrides `combine` with its outer interpolation
//! `θ ← θ + ε(φ̄ − θ)`. [`crate::MetaSgd`] implements the trait
//! privately over its concatenated `[θ‖a]` state (see its
//! `train_with_faults`). [`crate::RobustFedMl`] stays outside the seam:
//! its per-node adversarial sets and RNG are state that persists from
//! round to round, which a step that is a pure function of the
//! broadcast cannot carry.

use fml_models::Model;

use crate::trainer::{weighted_meta_loss, weighted_train_loss};
use crate::{FedAvg, FedMl, FedProx, MetaGradientMode, Reptile, SourceTask};

/// A federated trainer whose per-node work can be driven one round at a
/// time by an external executor.
pub trait LocalStepper: Sync {
    /// Human-readable algorithm name (for reports and traces).
    fn algorithm(&self) -> &'static str;

    /// Number of communication rounds the trainer is configured for.
    fn rounds(&self) -> usize;

    /// Local iterations `T0` between aggregations.
    fn local_steps(&self) -> usize;

    /// Runs `steps` local iterations for one node from `theta` and
    /// returns the node's updated parameters. Must match the trainer's
    /// own `train_from` inner loop bitwise.
    fn local_update(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        theta: &[f64],
        steps: usize,
    ) -> Vec<f64>;

    /// Evaluates `(meta_loss, train_loss)` at `theta` exactly as the
    /// trainer's `train_from` records them on its training curve.
    fn eval_losses(&self, model: &dyn Model, tasks: &[SourceTask], theta: &[f64]) -> (f64, f64);

    /// How the round's gathered `aggregate` becomes the next global,
    /// given the `global` that was broadcast. Identity for trainers
    /// whose aggregate *is* the new model.
    fn combine(&self, _global: &[f64], aggregate: Vec<f64>) -> Vec<f64> {
        aggregate
    }

    /// Worker threads the trainer was configured with for a per-node
    /// fan-out; `None` lets the executor size it to the host.
    fn threads(&self) -> Option<usize> {
        None
    }

    /// Oracle calls `(gradients, Hessian-vector products)` one local
    /// iteration costs, for compute accounting.
    fn oracle_calls(&self) -> (u64, u64) {
        (1, 0)
    }
}

/// Implements [`LocalStepper`] for a lockstep trainer by forwarding to
/// its inherent `local_update` and its config: the algorithm name, the
/// config fields holding `T0` and the curve's adaptation rate, then any
/// provided methods the trainer overrides.
macro_rules! forward_stepper {
    ($trainer:ty, $name:literal, $steps:ident, $alpha:ident, { $($overrides:item)* }) => {
        impl LocalStepper for $trainer {
            fn algorithm(&self) -> &'static str {
                $name
            }

            fn rounds(&self) -> usize {
                self.config().rounds
            }

            fn local_steps(&self) -> usize {
                self.config().$steps
            }

            fn local_update(
                &self,
                model: &dyn Model,
                task: &SourceTask,
                theta: &[f64],
                steps: usize,
            ) -> Vec<f64> {
                <$trainer>::local_update(self, model, task, theta, steps)
            }

            fn eval_losses(
                &self,
                model: &dyn Model,
                tasks: &[SourceTask],
                theta: &[f64],
            ) -> (f64, f64) {
                (
                    weighted_meta_loss(model, tasks, theta, self.config().$alpha),
                    weighted_train_loss(model, tasks, theta),
                )
            }

            fn threads(&self) -> Option<usize> {
                self.config().threads
            }

            $($overrides)*
        }
    };
}

forward_stepper!(FedMl, "FedML", local_steps, alpha, {
    fn oracle_calls(&self) -> (u64, u64) {
        // Inner gradient + outer gradient, plus the HVP FOMAML skips.
        match self.config().mode {
            MetaGradientMode::FullSecondOrder => (2, 1),
            MetaGradientMode::FirstOrder => (2, 0),
        }
    }
});
forward_stepper!(FedAvg, "FedAvg", local_steps, eval_alpha, {});
forward_stepper!(FedProx, "FedProx", local_steps, eval_alpha, {});
forward_stepper!(Reptile, "Reptile", inner_steps, eval_alpha, {
    /// `θ ← θ + ε(φ̄ − θ)`: a degraded round still moves the global a
    /// bounded distance.
    fn combine(&self, global: &[f64], mut mean_phi: Vec<f64>) -> Vec<f64> {
        for (m, t) in mean_phi.iter_mut().zip(global) {
            *m = t + self.config().outer_lr * (*m - t);
        }
        mean_phi
    }
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FedAvgConfig, FedMlConfig, FedProxConfig, ReptileConfig};
    use fml_data::synthetic::SyntheticConfig;
    use fml_models::SoftmaxRegression;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SoftmaxRegression, Vec<SourceTask>) {
        let mut rng = StdRng::seed_from_u64(11);
        let fed = SyntheticConfig::new(0.5, 0.5)
            .with_nodes(4)
            .with_dim(6)
            .with_classes(3)
            .generate(&mut rng);
        let tasks = SourceTask::from_nodes(fed.nodes(), 5, &mut rng);
        (SoftmaxRegression::new(6, 3), tasks)
    }

    #[test]
    fn trait_local_update_matches_inherent() {
        let (model, tasks) = setup();
        let theta = vec![0.01; model.param_len()];
        let fed = FedMl::new(FedMlConfig::new(0.05, 0.05).with_local_steps(3));
        let via_trait =
            LocalStepper::local_update(&fed, &model, &tasks[0], &theta, 3);
        let direct = fed.local_update(&model, &tasks[0], &theta, 3);
        assert_eq!(via_trait, direct);
        assert_eq!(LocalStepper::rounds(&fed), fed.config().rounds);
        assert_eq!(LocalStepper::local_steps(&fed), 3);
        assert_eq!(fed.algorithm(), "FedML");
    }

    #[test]
    fn all_steppers_report_names_and_finite_losses() {
        let (model, tasks) = setup();
        let theta = vec![0.0; model.param_len()];
        let steppers: Vec<Box<dyn LocalStepper>> = vec![
            Box::new(FedMl::new(FedMlConfig::new(0.05, 0.05))),
            Box::new(FedAvg::new(FedAvgConfig::new(0.05))),
            Box::new(FedProx::new(FedProxConfig::new(0.05, 0.1))),
            Box::new(Reptile::new(ReptileConfig::new(0.05, 0.5))),
        ];
        for s in &steppers {
            assert!(!s.algorithm().is_empty());
            let (meta, train) = s.eval_losses(&model, &tasks, &theta);
            assert!(meta.is_finite() && train.is_finite());
            let upd = s.local_update(&model, &tasks[0], &theta, 2);
            assert_eq!(upd.len(), theta.len());
            assert!(upd.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn combine_is_identity_except_for_reptile_interpolation() {
        let global = [1.0, -2.0];
        let agg = vec![3.0, 0.0];
        let fed = FedMl::new(FedMlConfig::new(0.05, 0.05));
        assert_eq!(fed.combine(&global, agg.clone()), agg);
        let reptile = Reptile::new(ReptileConfig::new(0.05, 0.25));
        assert_eq!(reptile.combine(&global, agg), vec![1.5, -1.5]);
    }

    #[test]
    fn fomaml_is_not_charged_an_hvp() {
        let second = FedMl::new(FedMlConfig::new(0.05, 0.05));
        let first =
            FedMl::new(FedMlConfig::new(0.05, 0.05).with_mode(MetaGradientMode::FirstOrder));
        assert_eq!(second.oracle_calls(), (2, 1));
        assert_eq!(first.oracle_calls(), (2, 0));
        assert_eq!(FedAvg::new(FedAvgConfig::new(0.05)).oracle_calls(), (1, 0));
    }
}
