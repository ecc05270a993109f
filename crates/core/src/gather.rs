//! Gathering node reports at an aggregation point under faults.
//!
//! The paper's eq. 5 averages over *all* source nodes; under crashes,
//! stragglers and corrupt uploads that is either impossible or unwise.
//! [`gather`] is the fault-aware replacement used at every aggregation
//! point. Its pipeline: deadline triage (a late report is dropped, or
//! its last good update reused), then the finite check (an update with a
//! NaN or ±Inf coordinate is rejected), then the quorum, then the
//! weighted mean of the survivors with their weights renormalized — so
//! the global step stays a convex combination of what actually arrived.
//!
//! The per-round [`RoundReport`] records what happened to every node, so
//! trainer histories can expose reporter counts and degraded-round flags,
//! and the recovery layer knows which nodes to exclude after a failure.

/// What to do with a report that arrives after the round deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StragglerPolicy {
    /// Exclude the straggler from this round's aggregate (the default;
    /// matches the paper-era FedAvg practice of dropping slow clients).
    #[default]
    Drop,
    /// Substitute the straggler's last validated update, if one exists;
    /// otherwise drop it. Keeps its weight in the aggregate at the cost
    /// of staleness.
    ReuseLast,
}

/// The screen every report passes before it may enter an aggregate: an
/// update with a NaN or ±Inf coordinate is rejected, since a single one
/// propagates through a weighted mean and poisons the global model
/// permanently. The screen has no settings; the type stays because
/// [`screen_update`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateValidation {}

/// Policy applied when gathering node reports at an aggregation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatherPolicy {
    /// Round deadline in seconds; reports later than this are stragglers.
    /// `None` disables the deadline (every report is on time).
    pub deadline_s: Option<f64>,
    /// What to do with stragglers.
    pub straggler: StragglerPolicy,
    /// Minimum fraction of the *total* fleet that must contribute a
    /// validated update for the round to count, in `[0, 1]`. The round
    /// loses its quorum below `max(1, ⌈min_quorum · total⌉)` reporters.
    pub min_quorum: f64,
}

impl Default for GatherPolicy {
    fn default() -> Self {
        GatherPolicy {
            deadline_s: None,
            straggler: StragglerPolicy::Drop,
            min_quorum: 0.5,
        }
    }
}

impl GatherPolicy {
    /// Wall-clock I/O deadline for per-peer transport reads and writes,
    /// derived from the round deadline: a policy that triages reports at
    /// `deadline_s` has no reason to keep a socket blocked for longer.
    /// Falls back to `fallback` when no round deadline is set, and never
    /// returns zero (a zero socket timeout means "block forever" on most
    /// platforms — the opposite of a deadline).
    pub fn io_deadline(&self, fallback: std::time::Duration) -> std::time::Duration {
        let d = match self.deadline_s {
            Some(s) => std::time::Duration::from_secs_f64(s),
            None => fallback,
        };
        d.max(std::time::Duration::from_millis(1))
    }

    /// Sets the minimum quorum fraction.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn with_min_quorum(mut self, q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quorum fraction in [0, 1]");
        self.min_quorum = q;
        self
    }

    /// Reporters required for a fleet of `total` nodes.
    pub fn required_reporters(&self, total: usize) -> usize {
        ((self.min_quorum * total as f64).ceil() as usize).clamp(1, total.max(1))
    }
}

/// What happened to one node's report during a gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOutcome {
    /// Reported on time and passed validation.
    Reported,
    /// Never reported (crash).
    Crashed,
    /// Missed the deadline and was dropped.
    DroppedStraggler,
    /// Missed the deadline; its last validated update was substituted.
    ReusedStale,
    /// Report contained non-finite values and was rejected.
    RejectedCorrupt,
}

impl NodeOutcome {
    /// Whether this node contributed parameters to the aggregate.
    pub fn contributed(self) -> bool {
        matches!(self, NodeOutcome::Reported | NodeOutcome::ReusedStale)
    }

    /// Whether this node *failed* — crashed, was dropped, or was rejected
    /// — and is a candidate for exclusion on recovery.
    pub fn failed(self) -> bool {
        matches!(
            self,
            NodeOutcome::Crashed | NodeOutcome::DroppedStraggler | NodeOutcome::RejectedCorrupt
        )
    }
}

/// Per-node record of one gather, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Communication round (1-based).
    pub round: usize,
    /// `(node id, outcome)` for every submission.
    pub outcomes: Vec<(usize, NodeOutcome)>,
    /// Nodes whose parameters entered the aggregate.
    pub reporters: usize,
    /// True when any node deviated from a clean on-time report.
    pub degraded: bool,
}

impl RoundReport {
    /// Node ids that failed this round (crashed, dropped, or rejected) —
    /// the set the recovery layer excludes when re-running the round.
    pub fn failed_nodes(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|(_, o)| o.failed())
            .map(|(n, _)| *n)
            .collect()
    }
}

/// One node's report (or absence) at an aggregation point. It borrows
/// the updates it carries: nothing in a gather writes to them.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission<'a> {
    /// Node id (index into the task list).
    pub node: usize,
    /// Aggregation weight `ω_i` (sample-size share).
    pub weight: f64,
    /// The parameter update; `None` when the node crashed.
    pub update: Option<&'a [f64]>,
    /// Arrival delay of the report in seconds, measured against the
    /// round's deadline clock.
    pub delay_s: f64,
    /// The node's last update that passed validation, for
    /// [`StragglerPolicy::ReuseLast`].
    pub last_good: Option<&'a [f64]>,
}

impl<'a> Submission<'a> {
    /// An on-time report.
    pub fn on_time(node: usize, weight: f64, update: &'a [f64]) -> Self {
        Submission {
            node,
            weight,
            update: Some(update),
            delay_s: 0.0,
            last_good: None,
        }
    }

    /// A crashed node (no report).
    pub fn crashed(node: usize, weight: f64) -> Self {
        Submission {
            node,
            weight,
            update: None,
            delay_s: 0.0,
            last_good: None,
        }
    }
}

/// Gathers one round of submissions under `policy`.
///
/// Pipeline: deadline triage (drop or reuse-last) → the finite check →
/// quorum check against `total_nodes` → weighted mean with weights
/// renormalized over the contributors.
///
/// A round with no submissions (a fleet quarantined whole) is a lost
/// quorum with 0 reporters, like any other. On quorum failure the error
/// is the round's full [`RoundReport`], so callers can exclude the
/// failing nodes and retry.
///
/// # Panics
///
/// Panics when included updates disagree in length.
pub fn gather(
    round: usize,
    total_nodes: usize,
    submissions: &[Submission],
    policy: &GatherPolicy,
) -> Result<(Vec<f64>, RoundReport), RoundReport> {
    let mut outcomes = Vec::with_capacity(submissions.len());
    let mut weights = Vec::with_capacity(submissions.len());
    let mut views = Vec::with_capacity(submissions.len());
    for sub in submissions {
        let outcome = match triage(sub, policy) {
            (_, Some(u)) if !finite(u) => NodeOutcome::RejectedCorrupt,
            (outcome, Some(u)) => {
                weights.push(sub.weight);
                views.push(u);
                outcome
            }
            (outcome, None) => outcome,
        };
        outcomes.push((sub.node, outcome));
    }

    let reporters = views.len();
    let degraded = outcomes.iter().any(|&(_, o)| o != NodeOutcome::Reported);
    let report = RoundReport {
        round,
        outcomes,
        reporters,
        degraded,
    };

    if reporters < policy.required_reporters(total_nodes) {
        return Err(report);
    }

    // Eq. 5 over the contributors, weights renormalized.
    let total_w: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total_w;
    }
    let params =
        fml_linalg::vector::weighted_sum(&views, &weights).expect("a met quorum has a contributor");
    Ok((params, report))
}

/// Applies the deadline and straggler policy to one submission, yielding
/// its provisional outcome and the update (if any) to validate.
fn triage<'a>(sub: &Submission<'a>, policy: &GatherPolicy) -> (NodeOutcome, Option<&'a [f64]>) {
    let Some(update) = sub.update else {
        return (NodeOutcome::Crashed, None);
    };
    let late = policy.deadline_s.is_some_and(|d| sub.delay_s > d);
    match (late, policy.straggler, sub.last_good) {
        (false, _, _) => (NodeOutcome::Reported, Some(update)),
        (true, StragglerPolicy::ReuseLast, Some(prev)) => (NodeOutcome::ReusedStale, Some(prev)),
        (true, _, _) => (NodeOutcome::DroppedStraggler, None),
    }
}

/// Result of screening a single update against an [`UpdateValidation`]
/// policy. Public so external executors (the `fml-runtime` actor
/// platform) can reuse the exact screening rule `gather` applies,
/// without having to stage a full gather round per update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validated {
    /// The update passed.
    Ok,
    /// The update has a non-finite entry and must be excluded from
    /// aggregation.
    Rejected,
}

/// Screens one update: the finite check [`gather`] runs on every
/// update it may include, exposed for aggregation points that accept
/// updates one at a time (asynchronous aggregation). The update is
/// never written.
pub fn screen_update(update: &mut [f64], _validation: &UpdateValidation) -> Validated {
    if finite(update) {
        Validated::Ok
    } else {
        Validated::Rejected
    }
}

/// Whether every coordinate of `update` is finite.
fn finite(update: &[f64]) -> bool {
    update.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> GatherPolicy {
        GatherPolicy::default()
    }

    #[test]
    fn all_on_time_matches_weighted_mean() {
        let subs = [
            Submission::on_time(0, 0.75, &[2.0, 0.0]),
            Submission::on_time(1, 0.25, &[0.0, 4.0]),
        ];
        let (params, report) = gather(1, 2, &subs, &policy()).unwrap();
        assert_eq!(params, vec![1.5, 1.0]);
        assert_eq!(report.reporters, 2);
        assert!(!report.degraded);
    }

    #[test]
    fn crash_renormalizes_over_survivors() {
        let subs = [
            Submission::on_time(0, 0.5, &[2.0]),
            Submission::crashed(1, 0.5),
        ];
        let (params, report) = gather(1, 2, &subs, &policy()).unwrap();
        // Survivor's weight renormalized to 1.0.
        assert_eq!(params, vec![2.0]);
        assert_eq!(report.reporters, 1);
        assert!(report.degraded);
        assert_eq!(report.failed_nodes(), vec![1]);
    }

    #[test]
    fn nonfinite_update_is_rejected() {
        let subs = [
            Submission::on_time(0, 0.5, &[1.0]),
            Submission::on_time(1, 0.5, &[f64::NAN]),
        ];
        let (params, report) = gather(1, 2, &subs, &policy()).unwrap();
        assert_eq!(params, vec![1.0]);
        assert_eq!(report.outcomes[1].1, NodeOutcome::RejectedCorrupt);
        assert_eq!(
            screen_update(&mut [f64::NAN], &UpdateValidation {}),
            Validated::Rejected
        );
        assert_eq!(
            screen_update(&mut [1.0], &UpdateValidation {}),
            Validated::Ok
        );
    }

    /// An infinite update is rejected outright: there is no norm step
    /// that could rescale it into a finite one.
    #[test]
    fn infinite_norm_rejected_even_with_clipping() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let corrupt = [bad];
            let subs = [
                Submission::on_time(0, 0.5, &[1.0]),
                Submission::on_time(1, 0.5, &corrupt),
            ];
            let (params, report) = gather(1, 2, &subs, &policy()).unwrap();
            assert_eq!(params, vec![1.0], "{bad}");
            assert_eq!(report.outcomes[1].1, NodeOutcome::RejectedCorrupt, "{bad}");
            assert_eq!(
                screen_update(&mut [bad], &UpdateValidation {}),
                Validated::Rejected
            );
        }
    }

    #[test]
    fn quorum_failure_carries_report() {
        let subs = [
            Submission::crashed(0, 0.4),
            Submission::crashed(1, 0.3),
            Submission::on_time(2, 0.3, &[1.0]),
        ];
        let p = policy().with_min_quorum(0.67);
        let report = gather(4, 3, &subs, &p).unwrap_err();
        assert_eq!((report.round, report.reporters), (4, 1));
        assert_eq!(p.required_reporters(3), 3);
        assert_eq!(report.failed_nodes(), vec![0, 1]);
    }

    #[test]
    fn nobody_to_gather_is_a_lost_quorum() {
        for (total, required) in [(0, 1), (3, 2)] {
            let report = gather(6, total, &[], &policy()).unwrap_err();
            assert_eq!((report.round, report.reporters), (6, 0));
            assert_eq!(policy().required_reporters(total), required);
            assert!(report.outcomes.is_empty());
        }
    }

    #[test]
    fn deadline_drops_stragglers() {
        let mut late = Submission::on_time(1, 0.5, &[10.0]);
        late.delay_s = 9.0;
        let subs = [Submission::on_time(0, 0.5, &[2.0]), late];
        let p = GatherPolicy {
            deadline_s: Some(1.0),
            ..policy()
        };
        let (params, report) = gather(1, 2, &subs, &p).unwrap();
        assert_eq!(params, vec![2.0]);
        assert_eq!(report.outcomes[1].1, NodeOutcome::DroppedStraggler);
    }

    #[test]
    fn reuse_last_substitutes_stale_update() {
        let mut late = Submission::on_time(1, 0.5, &[10.0]);
        late.delay_s = 9.0;
        late.last_good = Some(&[4.0]);
        let subs = [Submission::on_time(0, 0.5, &[2.0]), late];
        let p = GatherPolicy {
            deadline_s: Some(1.0),
            straggler: StragglerPolicy::ReuseLast,
            ..policy()
        };
        let (params, report) = gather(1, 2, &subs, &p).unwrap();
        // (2 + 4) / 2: the stale vector, not the late one.
        assert_eq!(params, vec![3.0]);
        assert_eq!(report.outcomes[1].1, NodeOutcome::ReusedStale);
    }

    #[test]
    fn required_reporters_bounds() {
        let p = policy().with_min_quorum(0.5);
        assert_eq!(p.required_reporters(10), 5);
        assert_eq!(p.required_reporters(1), 1);
        let strict = policy().with_min_quorum(1.0);
        assert_eq!(strict.required_reporters(10), 10);
        let lax = policy().with_min_quorum(0.0);
        // Even a zero quorum demands one reporter: an empty aggregate is
        // undefined.
        assert_eq!(lax.required_reporters(10), 1);
    }

    #[test]
    fn io_deadline_derives_from_round_deadline() {
        use std::time::Duration;
        let fallback = Duration::from_millis(2_000);
        // No round deadline: the transport falls back to its own timeout.
        assert_eq!(policy().io_deadline(fallback), fallback);
        // A round deadline bounds the socket wait too.
        let p = GatherPolicy {
            deadline_s: Some(0.25),
            ..policy()
        };
        assert_eq!(p.io_deadline(fallback), Duration::from_millis(250));
        // Never zero — that would mean "block forever" on a socket.
        assert_eq!(
            policy().io_deadline(Duration::ZERO),
            Duration::from_millis(1)
        );
    }
}
