//! The one trainer trait: [`LocalStepper`].
//!
//! The paper's Algorithm 1 is one loop — every node takes a local step,
//! the platform averages when `t mod T0 = 0` — and an algorithm differs
//! from the next only in what that step is. So an algorithm here is one
//! `impl LocalStepper`, and what it **requires** is what only the
//! algorithm knows:
//!
//! * its name ([`algorithm`](LocalStepper::algorithm));
//! * its schedule ([`rounds`](LocalStepper::rounds) and
//!   [`local_steps`](LocalStepper::local_steps) = `T0`);
//! * the iteration ([`advance`](LocalStepper::advance)): move one node's
//!   state forward by `steps` local iterations, given the `anchor` — the
//!   global that was last installed on the node (FedProx's proximal term
//!   pulls toward it; every other algorithm ignores it) — and a
//!   [`Scratch`] to do the arithmetic on;
//! * the two losses its curve records
//!   ([`eval_losses_with`](LocalStepper::eval_losses_with)), swept over
//!   the tasks through the same kind of scratch.
//!
//! Both take the scratch as a required argument: whoever runs steps or
//! curves in a loop — a runtime worker, a lockstep thread, the platform —
//! owns one and the steady state touches no allocator. There is no
//! second, allocating statement of an algorithm's arithmetic.
//!
//! Everything else is **provided** from those:
//!
//! * [`local_update_into`](LocalStepper::local_update_into) — one node's
//!   round: copy the broadcast into a reused buffer, `advance` it with
//!   the broadcast as anchor. The unit the `fml-runtime` node step
//!   drives — for the actors of either transport and in-line for the
//!   virtual-time simulator — while owning the communication in
//!   between; [`local_update`](LocalStepper::local_update) and
//!   [`eval_losses`](LocalStepper::eval_losses) are the same calls on
//!   fresh scratch, for one-off callers (the CLI's curve, `perf/`'s
//!   replay);
//! * [`train_from`](LocalStepper::train_from) — the lockstep reference
//!   run, with no transport, a round at a time: every node runs
//!   `local_update_into` from the broadcast global for `T0` steps (by
//!   `advance`'s contract, `T0` single steps), the weighted aggregate
//!   goes through [`combine`](LocalStepper::combine) and is installed on
//!   every node, and the curve records once per aggregation, at the
//!   global the next round broadcasts. The result is the weighted
//!   average of the last global installed on every node (`n` copies of
//!   it, re-averaged once at the end — kept, bit for bit, because every
//!   pinned result was drawn that way);
//! * [`train`](LocalStepper::train) — `train_from` a drawn `θ⁰`;
//! * [`combine`](LocalStepper::combine) (identity; [`Reptile`](crate::Reptile) overrides
//!   it with `θ ← θ + ε(φ̄ − θ)`), [`threads`](LocalStepper::threads)
//!   and [`oracle_calls`](LocalStepper::oracle_calls);
//! * [`yields_curve_terms`](LocalStepper::yields_curve_terms) (`false`;
//!   [`FedMl`](crate::FedMl) says `true`): whether step one's passes
//!   leave the node's two curve terms at the broadcast in the
//!   [`Scratch`], so a platform sums what the nodes report instead of
//!   evaluating every task itself.
//!
//! # Adding an algorithm
//!
//! Write one file with the config, the trainer struct and
//! `impl LocalStepper for It` (the four groups above; `advance` is where
//! the algorithm's mathematics goes, stated once):
//!
//! ```text
//! fn advance(&self, model, task, anchor, state: &mut [f64], steps, scratch: &mut Scratch) {
//!     for _ in 0..steps {
//!         let g = meta::meta_gradient_with(model, state, &task.split.train,
//!                                          &task.split.test, α, mode, scratch);
//!         vector::axpy(-β, g, state);
//!     }
//! }
//! ```
//!
//! Nothing else is edited: `train_from`/`train`, `Runtime::run`/`serve`,
//! the simulator (`SimRunner::run`/`train`, over the same round core,
//! with or without faults) and the CLI's `stepper()` paths all take
//! `&dyn LocalStepper`.
//!
//! Two trainers sit at the edge of the seam. [`crate::MetaSgd`]
//! implements the trait privately over its concatenated `[θ‖a]` state
//! and splits the result back into a `MetaSgdOutput`; that state is
//! twice `param_len` long, which the wire does not carry yet.
//! [`crate::RobustFedMl`] stays outside with inherent
//! `train`/`train_from`: its per-node adversarial sets and RNG persist
//! from round to round, which a step that is a pure function of
//! `(anchor, state)` cannot carry. [`Reptile`](crate::Reptile) overrides `train_from`
//! only to take its result at `θ` itself, without the re-average; the
//! loop is the same.

use fml_models::Model;
use rand::rngs::StdRng;

use crate::meta::Scratch;
use crate::parallel::{default_threads, map_ordered_with};
use crate::trainer::{aggregate, RoundRecord, TrainOutput};
use crate::SourceTask;

/// A federated training algorithm: its per-node iteration, its schedule
/// and its curve. See the [module docs](self) for what is required, what
/// is provided, and how to add one.
pub trait LocalStepper: Sync {
    /// Human-readable algorithm name (for reports and traces).
    fn algorithm(&self) -> &'static str;

    /// Number of communication rounds the trainer is configured for.
    fn rounds(&self) -> usize;

    /// Local iterations `T0` between aggregations.
    fn local_steps(&self) -> usize;

    /// Advances one node's `state` in place by `steps` local iterations
    /// on `task`, doing its arithmetic on `scratch`. `anchor` is the
    /// global last installed on the node.
    fn advance(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        anchor: &[f64],
        state: &mut [f64],
        steps: usize,
        scratch: &mut Scratch,
    );

    /// Evaluates `(meta_loss, train_loss)` at `theta` as the training
    /// curve records them: every task swept through the one `scratch`,
    /// the sums taken in task order.
    fn eval_losses_with(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta: &[f64],
        scratch: &mut Scratch,
    ) -> (f64, f64);

    /// [`eval_losses_with`](Self::eval_losses_with) on fresh scratch.
    fn eval_losses(&self, model: &dyn Model, tasks: &[SourceTask], theta: &[f64]) -> (f64, f64) {
        self.eval_losses_with(model, tasks, theta, &mut Scratch::for_model(model))
    }

    /// Runs `steps` local iterations for one node from the broadcast
    /// `theta`: `out` is overwritten with the node's updated parameters,
    /// reusing its capacity. A stepper that
    /// [yields the curve terms](Self::yields_curve_terms) leaves the
    /// node's terms at `theta` in [`Scratch::curve_terms`] when the
    /// scratch [asks for them](Scratch::with_curve_terms); otherwise
    /// `None` is left there.
    ///
    /// # Panics
    ///
    /// Panics when `scratch` was built for a model with a different
    /// parameter count.
    fn local_update_into(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        theta: &[f64],
        steps: usize,
        scratch: &mut Scratch,
        out: &mut Vec<f64>,
    ) {
        scratch.check(model, "local_update_into");
        scratch.terms = None;
        out.clear();
        out.extend_from_slice(theta);
        self.advance(model, task, theta, out, steps, scratch);
    }

    /// [`local_update_into`](Self::local_update_into) on fresh scratch,
    /// returning the updated parameters.
    fn local_update(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        theta: &[f64],
        steps: usize,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        let mut scratch = Scratch::for_model(model);
        self.local_update_into(model, task, theta, steps, &mut scratch, &mut out);
        out
    }

    /// Runs the algorithm in lockstep from an explicit initialization
    /// `θ⁰` (the platform normally draws it; see [`train`](Self::train)).
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    fn train_from(&self, model: &dyn Model, tasks: &[SourceTask], theta0: &[f64]) -> TrainOutput {
        let name = self.algorithm();
        assert_eq!(theta0.len(), model.param_len(), "{name}: bad theta0 length");
        lockstep(self, model, tasks, theta0, true)
    }

    /// Draws `θ⁰` from `rng` and runs [`train_from`](Self::train_from);
    /// deterministic given `rng`'s state.
    fn train(&self, model: &dyn Model, tasks: &[SourceTask], rng: &mut StdRng) -> TrainOutput {
        let theta0 = model.init_params(rng);
        self.train_from(model, tasks, &theta0)
    }

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

    /// Whether the first step of [`advance`](Self::advance) computes one
    /// task's curve terms at the step's own `θ` — the query and support
    /// losses [`eval_losses_with`](Self::eval_losses_with) weighs and
    /// sums in task order from `−0.0`, with their bits — and leaves them
    /// in [`Scratch::curve_terms`] of a scratch that
    /// [asks for them](Scratch::with_curve_terms). A platform then sums
    /// what its nodes report instead of evaluating their tasks. `false` for steppers
    /// whose curve is not at their step (FedAvg, FedProx and Reptile
    /// evaluate at `eval_alpha`).
    fn yields_curve_terms(&self) -> bool {
        false
    }
}

/// Algorithm 1's loop, once, a round at a time: every node runs
/// [`local_update_into`](LocalStepper::local_update_into) from the
/// broadcast global for `T0` steps, the weighted aggregate goes through
/// [`combine`](LocalStepper::combine), and the curve records the new
/// global — the point the next round's broadcast carries. With
/// `reaverage` the result is the weighted average of the last global
/// installed on every node (the provided [`LocalStepper::train_from`],
/// which skips the `theta0`-is-a-model-vector check for steppers whose
/// node state is wider than the model's parameters); without it, the
/// global itself (Reptile's).
pub(crate) fn lockstep<S: LocalStepper + ?Sized>(
    stepper: &S,
    model: &dyn Model,
    tasks: &[SourceTask],
    state0: &[f64],
    reaverage: bool,
) -> TrainOutput {
    assert!(
        !tasks.is_empty(),
        "{}: no source tasks",
        stepper.algorithm()
    );
    let (rounds, local_steps) = (stepper.rounds(), stepper.local_steps());
    let threads = stepper
        .threads()
        .unwrap_or_else(|| default_threads(tasks.len()));
    let mut global = state0.to_vec();
    let mut history = Vec::with_capacity(rounds);
    let new_scratch = || Scratch::for_model(model);
    let mut curve_scratch = new_scratch();

    for round in 1..=rounds {
        let locals = map_ordered_with(threads, tasks, new_scratch, |scratch, _, task| {
            let mut state = Vec::new();
            stepper.local_update_into(model, task, &global, local_steps, scratch, &mut state);
            state
        });
        global = stepper.combine(&global, aggregate(tasks, &locals));
        let (meta_loss, train_loss) =
            stepper.eval_losses_with(model, tasks, &global, &mut curve_scratch);
        history.push(RoundRecord {
            iteration: round * local_steps,
            meta_loss,
            train_loss,
            aggregated: true,
            reporters: tasks.len(),
            degraded: false,
        });
    }

    // The result keeps the bits the reference has always returned: `n`
    // copies of the global, re-averaged once.
    let params = if reaverage {
        aggregate(tasks, &vec![global; tasks.len()])
    } else {
        global
    };
    TrainOutput {
        params,
        history,
        comm_rounds: rounds,
        local_iterations: rounds * local_steps,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{
        FedAvg, FedAvgConfig, FedMl, FedMlConfig, FedProx, FedProxConfig, MetaGradientMode,
        Reptile, ReptileConfig,
    };
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

    /// The lockstep curve: one record per round, at `iteration =
    /// round × T0`, every one an aggregation.
    pub(crate) fn assert_one_record_per_round(out: &TrainOutput, rounds: usize, t0: usize) {
        let iterations: Vec<usize> = out.history.iter().map(|r| r.iteration).collect();
        assert_eq!(iterations, (1..=rounds).map(|r| r * t0).collect::<Vec<_>>());
        assert!(out.history.iter().all(|r| r.aggregated));
    }

    fn steppers(t0: usize, rounds: usize) -> Vec<Box<dyn LocalStepper>> {
        vec![
            Box::new(FedMl::new(
                FedMlConfig::new(0.05, 0.05)
                    .with_local_steps(t0)
                    .with_rounds(rounds),
            )),
            Box::new(FedAvg::new(
                FedAvgConfig::new(0.05)
                    .with_local_steps(t0)
                    .with_rounds(rounds),
            )),
            Box::new(FedProx::new(
                FedProxConfig::new(0.05, 0.1)
                    .with_local_steps(t0)
                    .with_rounds(rounds),
            )),
            Box::new(Reptile::new(
                ReptileConfig::new(0.05, 0.5)
                    .with_inner_steps(t0)
                    .with_rounds(rounds),
            )),
        ]
    }

    /// Every round of the provided `train_from` is `local_update` on
    /// every node from the last global, the weighted aggregate through
    /// `combine`, and the curve at the new global; the result re-averages
    /// `n` copies of the last global (Reptile's: the global itself).
    #[test]
    fn first_aggregation_of_train_from_is_local_update_then_combine() {
        let (model, tasks) = setup();
        for s in steppers(3, 4) {
            let name = s.algorithm();
            let out = s.train_from(&model, &tasks, &vec![0.01; model.param_len()]);
            assert_one_record_per_round(&out, 4, 3);
            let mut global = vec![0.01; model.param_len()];
            for record in &out.history {
                let locals: Vec<Vec<f64>> = tasks
                    .iter()
                    .map(|t| s.local_update(&model, t, &global, 3))
                    .collect();
                global = s.combine(&global, aggregate(&tasks, &locals));
                assert_eq!(
                    (record.meta_loss, record.train_loss),
                    s.eval_losses(&model, &tasks, &global),
                    "{name}, iteration {}",
                    record.iteration
                );
            }
            let result = if name == "Reptile" {
                global
            } else {
                aggregate(&tasks, &vec![global; tasks.len()])
            };
            assert_eq!(out.params, result, "{name}");
        }
    }

    /// A stepper that yields the curve terms leaves, after one node's
    /// `local_update_into` from `θ` on a scratch that asks for them, the
    /// unweighted terms whose weighted sum in task order is
    /// `eval_losses_with` at `θ`, bit for bit, and the update it leaves
    /// without asking; the others leave none.
    #[test]
    fn yielded_curve_terms_sum_to_the_curve() {
        let (model, tasks) = setup();
        let theta = vec![0.02; model.param_len()];
        let second = FedMl::new(FedMlConfig::new(0.05, 0.05).with_local_steps(2));
        let first = FedMl::new(
            FedMlConfig::new(0.05, 0.05)
                .with_local_steps(2)
                .with_mode(MetaGradientMode::FirstOrder),
        );
        let yielding: [&dyn LocalStepper; 2] = [&second, &first];
        let mut scratch = Scratch::for_model(&model).with_curve_terms();
        let mut plain = Scratch::for_model(&model);
        let (mut out, mut unasked) = (Vec::new(), Vec::new());
        for s in yielding {
            assert!(s.yields_curve_terms());
            let (mut meta, mut train) = (-0.0, -0.0);
            for task in &tasks {
                s.local_update_into(&model, task, &theta, 2, &mut scratch, &mut out);
                let (query, support) = scratch.curve_terms().expect("FedML yields its terms");
                meta += task.weight * query;
                train += task.weight * support;
                s.local_update_into(&model, task, &theta, 2, &mut plain, &mut unasked);
                assert_eq!(plain.curve_terms(), None);
                assert_eq!(out, unasked);
            }
            let want = s.eval_losses(&model, &tasks, &theta);
            assert_eq!(
                (meta.to_bits(), train.to_bits()),
                (want.0.to_bits(), want.1.to_bits())
            );
        }
        for s in steppers(2, 1).iter().skip(1) {
            assert!(!s.yields_curve_terms(), "{}", s.algorithm());
            s.local_update_into(&model, &tasks[0], &theta, 2, &mut scratch, &mut out);
            assert_eq!(scratch.curve_terms(), None, "{}", s.algorithm());
        }
    }

    #[test]
    fn all_steppers_report_names_and_finite_losses() {
        let (model, tasks) = setup();
        let theta = vec![0.0; model.param_len()];
        for s in steppers(5, 1) {
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
