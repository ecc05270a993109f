//! Fault-tolerant federated training: one round loop for every
//! [`LocalStepper`].
//!
//! The driver [`train_with_faults`] wraps a stepper's local-update rule
//! in the full robustness stack:
//!
//! 1. each round, the seeded [`FaultPlan`](crate::faults::FaultPlan)
//!    decides per node whether it crashes, straggles, or corrupts;
//! 2. surviving reports pass through [`gather`](crate::gather::gather):
//!    deadline triage (drop or reuse-last), the finite check, the
//!    quorum, then the weighted mean;
//! 3. the last good global model is kept as an in-memory snapshot; on
//!    [`CoreError::QuorumLost`] or divergence the driver rolls back to it,
//!    permanently excludes the round's failing nodes, and re-runs the
//!    round — up to [`FaultTolerance::max_recoveries`] times
//!    ([`rollback_and_exclude`], which the `fml-runtime` platform calls
//!    too).
//!
//! Determinism: fault draws are pure per `(node, round)`, node updates
//! run under [`parallel::map_ordered`](crate::parallel::map_ordered), and
//! recovery decisions depend only on gathered reports — so a fault-
//! injected run is bitwise identical at any worker thread count.

use fml_models::Model;

use crate::error::CoreError;
use crate::faults::{self, Fault, FaultPlan};
use crate::gather::{gather, GatherPolicy, NodeOutcome, RoundReport, StragglerPolicy, Submission};
use crate::trainer::{RoundRecord, TrainOutput};
use crate::{LocalStepper, SourceTask};

/// Fault-tolerance configuration shared by all trainers.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTolerance {
    /// The seeded fault schedule to inject (use a benign plan to run the
    /// robustness stack against real-world faults only).
    pub plan: FaultPlan,
    /// Policy applied at every aggregation point.
    pub policy: GatherPolicy,
    /// Rollback-and-exclude recovery attempts allowed across the whole
    /// run before the terminal error is surfaced.
    pub max_recoveries: usize,
}

impl FaultTolerance {
    /// Fault tolerance with the given plan, default gather policy, and
    /// two recovery attempts.
    pub fn new(plan: FaultPlan) -> Self {
        FaultTolerance {
            plan,
            policy: GatherPolicy::default(),
            max_recoveries: 2,
        }
    }

    /// Sets the recovery budget.
    pub fn with_max_recoveries(mut self, n: usize) -> Self {
        self.max_recoveries = n;
        self
    }
}

/// Per-node cache of the last report that passed validation on time —
/// what [`StragglerPolicy::ReuseLast`] substitutes for a late one. Shared
/// by every round loop that calls [`gather`]. It keeps one buffer per
/// node and lends it to [`Submission::last_good`]; a refill reuses the
/// buffer, so only the first fill of a node allocates. Under
/// [`StragglerPolicy::Drop`] nothing reads the cache, so it stays empty.
#[derive(Debug, Clone)]
pub struct ReuseCache(Option<Vec<Option<Vec<f64>>>>);

impl ReuseCache {
    /// An empty cache for `nodes` nodes, filled only if `policy` can read
    /// it.
    pub fn new(nodes: usize, policy: &GatherPolicy) -> Self {
        ReuseCache((policy.straggler == StragglerPolicy::ReuseLast).then(|| vec![None; nodes]))
    }

    /// The node's cached report, for [`Submission::last_good`].
    pub fn get(&self, node: usize) -> Option<&[f64]> {
        self.0.as_ref()?[node].as_deref()
    }

    /// Refills the buffer of each node that reported on time in a
    /// gathered round (a stale substitute is never re-cached). `updates`
    /// yields the update each of the round's submissions carried, in
    /// submission order.
    pub fn absorb<'u>(
        &mut self,
        report: &RoundReport,
        updates: impl IntoIterator<Item = Option<&'u [f64]>>,
    ) {
        let Some(cache) = &mut self.0 else { return };
        for (&(node, outcome), update) in report.outcomes.iter().zip(updates) {
            if let (NodeOutcome::Reported, Some(update)) = (outcome, update) {
                let buf = cache[node].get_or_insert_with(Vec::new);
                buf.clear();
                buf.extend_from_slice(update);
            }
        }
    }
}

/// The rollback-and-exclude decision. Within budget, with blame to
/// assign among the still-active nodes, and with fleet left over, it
/// restores `theta` from `snapshot`, consumes one recovery, and returns
/// the nodes the caller must now exclude before re-running the round.
/// `None` means unrecoverable (budget exhausted, nothing to exclude — a
/// deterministic retry would fail the same way — or no fleet left).
pub fn rollback_and_exclude(
    theta: &mut Vec<f64>,
    snapshot: &[f64],
    active: &[bool],
    failed: &[usize],
    recoveries: &mut usize,
    max_recoveries: usize,
) -> Option<Vec<usize>> {
    if *recoveries >= max_recoveries {
        return None;
    }
    let newly_failed: Vec<usize> = failed.iter().copied().filter(|&n| active[n]).collect();
    let remaining = active.iter().filter(|&&a| a).count() - newly_failed.len();
    if newly_failed.is_empty() || remaining == 0 {
        return None;
    }
    theta.clear();
    theta.extend_from_slice(snapshot);
    *recoveries += 1;
    Some(newly_failed)
}

/// Runs `stepper` under fault injection with gather-policy protection
/// and round-level recovery.
///
/// Each round, every active node runs the stepper's `T0` local
/// iterations from the current global; reports pass through the
/// [`GatherPolicy`] (deadline triage, the finite check, quorum, and the
/// weighted mean renormalized over the actual reporters) and the
/// aggregate becomes the next global through [`LocalStepper::combine`].
/// On quorum loss or a diverged global the driver rolls back to the last
/// good round and excludes the failing nodes.
///
/// The returned history has one record per round; `reporters` counts the
/// nodes whose updates entered that round's aggregate and `degraded`
/// flags rounds with any fault, exclusion, or rollback.
///
/// # Errors
///
/// Returns [`CoreError::QuorumLost`] or [`CoreError::Diverged`] when
/// the recovery budget is exhausted or no fleet remains.
///
/// # Panics
///
/// Panics when `tasks` is empty or `theta0` has the wrong length.
pub fn train_with_faults(
    stepper: &dyn LocalStepper,
    model: &dyn Model,
    tasks: &[SourceTask],
    theta0: &[f64],
    ft: &FaultTolerance,
) -> Result<TrainOutput, CoreError> {
    let name = stepper.algorithm();
    assert_eq!(theta0.len(), model.param_len(), "{name}: bad theta0 length");
    drive(stepper, model, tasks, theta0, ft)
}

/// [`train_with_faults`] without the `theta0`-is-a-model-vector check,
/// for steppers whose round state is wider than the model's parameters.
pub(crate) fn drive(
    stepper: &dyn LocalStepper,
    model: &dyn Model,
    tasks: &[SourceTask],
    theta0: &[f64],
    ft: &FaultTolerance,
) -> Result<TrainOutput, CoreError> {
    let name = stepper.algorithm();
    assert!(!tasks.is_empty(), "{name}: no source tasks");
    let (rounds, local_steps) = (stepper.rounds(), stepper.local_steps());
    let threads = stepper
        .threads()
        .unwrap_or_else(|| crate::parallel::default_threads(tasks.len()));
    let mut theta = theta0.to_vec();
    // The last good global: what a rollback restores.
    let mut snapshot = theta.clone();
    let mut active = vec![true; tasks.len()];
    let mut last_good = ReuseCache::new(tasks.len(), &ft.policy);
    let mut history = Vec::with_capacity(rounds);
    let mut recoveries = 0usize;
    let mut round = 1usize;
    // Rounds that rolled back stay flagged degraded even when the re-run
    // fleet reports cleanly.
    let mut recovered_this_round = false;

    while round <= rounds {
        let local = |task: &SourceTask| stepper.local_update(model, task, &theta, local_steps);
        let reports = collect_round(threads, tasks, &active, &ft.plan, &local, round);
        let submissions: Vec<Submission> = reports
            .iter()
            .map(|r| Submission {
                node: r.node,
                weight: tasks[r.node].weight,
                update: r.update.as_deref(),
                delay_s: r.delay_s,
                last_good: last_good.get(r.node),
            })
            .collect();

        // Quorum is a fraction of the *active* fleet: excluding failed
        // nodes during recovery shrinks the requirement, which is what
        // lets a run finish after a minority of nodes dies.
        let active_total = active.iter().filter(|&&a| a).count();
        // A gather that passed validation can still combine into a
        // diverged global (e.g. finite-but-huge reports).
        let gathered = gather(round, active_total, &submissions, &ft.policy)
            .map(|(aggregated, report)| (stepper.combine(&theta, aggregated), report));
        let (error, report) = match gathered {
            Ok((next, report)) if next.iter().all(|x| x.is_finite()) => {
                theta = next;
                last_good.absorb(&report, reports.iter().map(|r| r.update.as_deref()));
                snapshot.clone_from(&theta);
                let (meta_loss, train_loss) = stepper.eval_losses(model, tasks, &theta);
                let excluded = active.iter().filter(|&&a| !a).count();
                history.push(RoundRecord {
                    iteration: round * local_steps,
                    meta_loss,
                    train_loss,
                    aggregated: true,
                    reporters: report.reporters,
                    degraded: report.degraded || recovered_this_round || excluded > 0,
                });
                recovered_this_round = false;
                round += 1;
                continue;
            }
            Ok((_, report)) => (CoreError::Diverged { iteration: round }, report),
            Err(failure) => (failure.error, failure.report),
        };
        let excluded = rollback_and_exclude(
            &mut theta,
            &snapshot,
            &active,
            &report.failed_nodes(),
            &mut recoveries,
            ft.max_recoveries,
        )
        .ok_or(error)?;
        for n in excluded {
            active[n] = false;
        }
        // Re-run the same round with the reduced fleet.
        recovered_this_round = true;
    }

    Ok(TrainOutput {
        params: theta,
        history,
        comm_rounds: rounds,
        local_iterations: rounds * local_steps,
    })
}

/// One active node's round: its arrival delay and its update (`None`
/// when it crashed).
struct NodeReport {
    node: usize,
    delay_s: f64,
    update: Option<Vec<f64>>,
}

/// Runs one round of local updates under the fault plan, producing what
/// the round's submissions borrow. Only active (non-excluded) nodes
/// report.
///
/// Fault draws happen *before* the parallel fan-out and are pure per
/// `(node, round)`, so the reports are independent of thread count.
fn collect_round(
    threads: usize,
    tasks: &[SourceTask],
    active: &[bool],
    plan: &FaultPlan,
    local: &(impl Fn(&SourceTask) -> Vec<f64> + Sync),
    round: usize,
) -> Vec<NodeReport> {
    let cells: Vec<(usize, Option<Fault>)> = (0..tasks.len())
        .filter(|&i| active[i])
        .map(|i| (i, plan.draw(i, round)))
        .collect();

    let computed: Vec<Option<Vec<f64>>> =
        crate::parallel::map_ordered(threads, &cells, |_, &(node, fault)| {
            // Crashed nodes do no work; everything else reports something.
            (!matches!(fault, Some(Fault::Crash))).then(|| local(&tasks[node]))
        });

    cells
        .iter()
        .zip(computed)
        .map(|(&(node, fault), mut update)| {
            if let (Some(Fault::Corrupt), Some(u)) = (fault, &mut update) {
                faults::corrupt(u);
            }
            let delay_s = match fault {
                Some(Fault::Straggle { delay_s }) => delay_s,
                _ => 0.0,
            };
            NodeReport {
                node,
                delay_s,
                update,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::NodeData;
    use fml_linalg::Matrix;
    use fml_models::{Batch, Quadratic};

    fn quad_tasks(n: usize) -> Vec<SourceTask> {
        let nodes: Vec<NodeData> = (0..n)
            .map(|id| {
                let c = if id % 2 == 0 { 1.0 } else { -1.0 };
                let rows: Vec<Vec<f64>> = (0..4).map(|_| vec![c, 0.0]).collect();
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

    fn run(
        tasks: &[SourceTask],
        ft: &FaultTolerance,
        rounds: usize,
        threads: usize,
    ) -> Result<TrainOutput, CoreError> {
        let model = Quadratic::isotropic(2, 1.0);
        let cfg = crate::FedAvgConfig {
            threads: Some(threads),
            ..crate::FedAvgConfig::new(0.1)
                .with_local_steps(3)
                .with_rounds(rounds)
        };
        train_with_faults(&crate::FedAvg::new(cfg), &model, tasks, &[2.0, -2.0], ft)
    }

    /// One faulty round (node 1 crashed) gathered under `straggler`; the
    /// cache afterwards.
    fn cache_after_faulty_round(straggler: StragglerPolicy) -> ReuseCache {
        let policy = GatherPolicy {
            straggler,
            ..GatherPolicy::default()
        };
        let update = [1.0, 2.0];
        let submissions = [
            Submission::on_time(0, 0.5, &update),
            Submission::crashed(1, 0.5),
        ];
        let (_, report) = gather(1, 2, &submissions, &policy).unwrap();
        assert!(report.degraded);
        let mut cache = ReuseCache::new(2, &policy);
        cache.absorb(&report, submissions.iter().map(|s| s.update));
        cache
    }

    #[test]
    fn reuse_cache_fills_only_under_reuse_last() {
        let cache = cache_after_faulty_round(StragglerPolicy::Drop);
        assert_eq!((cache.get(0), cache.get(1)), (None, None));
        let cache = cache_after_faulty_round(StragglerPolicy::ReuseLast);
        assert_eq!(cache.get(0), Some(&[1.0, 2.0][..]));
        assert_eq!(cache.get(1), None);
    }

    #[test]
    fn benign_plan_reports_everyone() {
        let tasks = quad_tasks(4);
        let ft = FaultTolerance::new(FaultPlan::new(1));
        let out = run(&tasks, &ft, 5, 2).unwrap();
        assert_eq!(out.history.len(), 5);
        assert!(out.history.iter().all(|r| r.reporters == 4 && !r.degraded));
        assert_eq!(out.local_iterations, 15);
    }

    #[test]
    fn minority_crash_still_finishes() {
        let tasks = quad_tasks(6);
        let plan = FaultPlan::new(2).with_crash_from(0, 2).with_crash_from(3, 2);
        let ft = FaultTolerance::new(plan);
        let out = run(&tasks, &ft, 6, 2).unwrap();
        assert_eq!(out.history.len(), 6);
        assert!(!out.history[0].degraded);
        for r in &out.history[1..] {
            assert_eq!(r.reporters, 4);
            assert!(r.degraded);
        }
        assert!(out.params.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn corrupt_update_is_rejected_and_round_degraded() {
        let tasks = quad_tasks(4);
        let plan = FaultPlan::new(3).with_corrupt(1, 2);
        let ft = FaultTolerance::new(plan);
        let out = run(&tasks, &ft, 4, 1).unwrap();
        assert_eq!(out.history[1].reporters, 3);
        assert!(out.history[1].degraded);
        assert!(out.params.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn quorum_loss_recovers_by_exclusion() {
        let tasks = quad_tasks(4);
        // Three of four nodes die at round 2: 1 reporter < required 2 →
        // QuorumLost → exclude the dead, re-run round 2 against the
        // 1-node fleet (required shrinks to 1) and finish.
        let plan = FaultPlan::new(4)
            .with_crash_from(0, 2)
            .with_crash_from(1, 2)
            .with_crash_from(2, 2);
        let ft = FaultTolerance::new(plan);
        let out = run(&tasks, &ft, 5, 2).unwrap();
        assert_eq!(out.history.len(), 5);
        assert!(!out.history[0].degraded);
        for r in &out.history[1..] {
            assert_eq!(r.reporters, 1);
            assert!(r.degraded);
        }
    }

    #[test]
    fn quorum_loss_surfaces_when_unrecoverable() {
        let tasks = quad_tasks(4);
        // All four crash from round 3: no exclusion can restore quorum.
        let plan = FaultPlan::new(5)
            .with_crash_from(0, 3)
            .with_crash_from(1, 3)
            .with_crash_from(2, 3)
            .with_crash_from(3, 3);
        let ft = FaultTolerance::new(plan);
        let err = run(&tasks, &ft, 5, 1).unwrap_err();
        assert!(matches!(err, CoreError::QuorumLost { round: 3, .. }), "{err}");
    }

    #[test]
    fn recovery_rolls_back_and_excludes() {
        let tasks = quad_tasks(5);
        // Round 2: nodes 0 and 1 die and node 2 uploads NaNs, leaving 2
        // clean reporters < required ceil(0.5·5) = 3 → QuorumLost.
        // Recovery excludes {0, 1, 2}; the 2-node fleet needs only 1.
        let mut plan = FaultPlan::new(6).with_crash_from(0, 2).with_crash_from(1, 2);
        for round in 2..=8 {
            plan = plan.with_corrupt(2, round);
        }
        let ft = FaultTolerance::new(plan).with_max_recoveries(2);
        let out = run(&tasks, &ft, 8, 2).unwrap();
        assert_eq!(out.history.len(), 8);
        assert!(out.history[1..].iter().all(|r| r.reporters == 2 && r.degraded));
        assert!(out.params.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn recovery_exhaustion_surfaces_error() {
        let tasks = quad_tasks(4);
        // Every node dies at round 2; with zero recoveries allowed the
        // quorum error must surface directly.
        let plan = FaultPlan::new(7)
            .with_crash_from(0, 2)
            .with_crash_from(1, 2)
            .with_crash_from(2, 2)
            .with_crash_from(3, 2);
        let ft = FaultTolerance::new(plan).with_max_recoveries(0);
        let err = run(&tasks, &ft, 4, 1).unwrap_err();
        assert!(matches!(err, CoreError::QuorumLost { round: 2, .. }), "{err}");
    }

    #[test]
    fn thread_count_does_not_change_history() {
        let tasks = quad_tasks(6);
        let plan = FaultPlan {
            crash_prob: 0.15,
            straggle_prob: 0.2,
            max_straggle_s: 4.0,
            corrupt_prob: 0.1,
            ..FaultPlan::new(8)
        };
        let policy = GatherPolicy {
            deadline_s: Some(2.0),
            ..GatherPolicy::default().with_min_quorum(0.3)
        };
        let ft = FaultTolerance {
            policy,
            ..FaultTolerance::new(plan)
        };
        let a = run(&tasks, &ft, 8, 1).unwrap();
        let b = run(&tasks, &ft, 8, 4).unwrap();
        assert_eq!(a, b);
    }
}
