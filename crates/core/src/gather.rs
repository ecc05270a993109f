//! Gathering node reports at an aggregation point under faults.
//!
//! The paper's eq. 5 averages over *all* source nodes; under crashes,
//! stragglers and corrupt uploads that is either impossible or unwise.
//! [`gather`] is the fault-aware replacement used at every aggregation
//! point: it applies a [`GatherPolicy`] — deadline + straggler handling,
//! update validation, minimum quorum — and aggregates the surviving
//! reports with their weights renormalized, so the global step stays a
//! convex combination of what actually arrived.
//!
//! The per-round [`RoundReport`] records what happened to every node, so
//! trainer histories can expose reporter counts and degraded-round flags,
//! and the recovery layer knows which nodes to exclude after a failure.

use crate::error::CoreError;

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
    /// Accept the late report anyway, stretching the round past its
    /// deadline (the synchronous-barrier baseline).
    Wait,
}

/// Screening applied to every report before it may enter the aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateValidation {
    /// Reject any update containing NaN or ±Inf coordinates. On by
    /// default — a single NaN coordinate propagates through a weighted
    /// mean and poisons the global model permanently.
    pub reject_nonfinite: bool,
    /// When set, updates with L2 norm above this bound are rescaled onto
    /// the bound (norm clipping), defusing norm-blown but finite uploads.
    pub clip_norm: Option<f64>,
}

impl Default for UpdateValidation {
    fn default() -> Self {
        UpdateValidation {
            reject_nonfinite: true,
            clip_norm: None,
        }
    }
}

/// How validated reports are combined into the new global parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RobustAggregator {
    /// Weighted mean with weights renormalized over the actual reporters
    /// (eq. 5 restricted to the surviving set). The default.
    #[default]
    WeightedMean,
    /// Coordinate-wise trimmed mean: per coordinate, the `⌊trim_ratio·n⌋`
    /// smallest and largest values are discarded and the survivors are
    /// averaged with renormalized weights. Robust to corrupt-but-finite
    /// reporters that slip past validation.
    TrimmedMean {
        /// Fraction trimmed from *each* tail, in `[0, 0.5)`.
        trim_ratio: f64,
    },
}

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
    /// fails with [`CoreError::QuorumLost`] below
    /// `max(1, ⌈min_quorum · total⌉)` reporters.
    pub min_quorum: f64,
    /// Screening applied before aggregation.
    pub validation: UpdateValidation,
    /// How surviving reports are combined.
    pub aggregator: RobustAggregator,
}

impl Default for GatherPolicy {
    fn default() -> Self {
        GatherPolicy {
            deadline_s: None,
            straggler: StragglerPolicy::Drop,
            min_quorum: 0.5,
            validation: UpdateValidation::default(),
            aggregator: RobustAggregator::WeightedMean,
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
    /// Reported on time and passed validation unchanged.
    Reported,
    /// Reported on time; update was norm-clipped before aggregation.
    Clipped,
    /// Never reported (crash).
    Crashed,
    /// Missed the deadline and was dropped.
    DroppedStraggler,
    /// Missed the deadline; its last validated update was substituted.
    ReusedStale,
    /// Missed the deadline; the gather waited for it anyway.
    Waited,
    /// Report contained non-finite values and was rejected.
    RejectedCorrupt,
}

impl NodeOutcome {
    /// Whether this node contributed parameters to the aggregate.
    pub fn contributed(self) -> bool {
        matches!(
            self,
            NodeOutcome::Reported
                | NodeOutcome::Clipped
                | NodeOutcome::ReusedStale
                | NodeOutcome::Waited
        )
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
    /// Wall-clock span of the round: the slowest *included* report, capped
    /// at the deadline unless the policy waited past it.
    pub round_time_s: f64,
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

/// A gather that could not produce an aggregate, with the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherFailure {
    /// The error — currently always [`CoreError::QuorumLost`].
    pub error: CoreError,
    /// Per-node outcomes, so the caller can decide which nodes to exclude
    /// before retrying.
    pub report: RoundReport,
}

/// One node's report (or absence) at an aggregation point.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Node id (index into the task list).
    pub node: usize,
    /// Aggregation weight `ω_i` (sample-size share).
    pub weight: f64,
    /// The parameter update; `None` when the node crashed.
    pub update: Option<Vec<f64>>,
    /// Arrival delay of the report in seconds, measured against the
    /// round's deadline clock.
    pub delay_s: f64,
    /// The node's last update that passed validation, for
    /// [`StragglerPolicy::ReuseLast`].
    pub last_good: Option<Vec<f64>>,
}

impl Submission {
    /// An on-time report.
    pub fn on_time(node: usize, weight: f64, update: Vec<f64>) -> Self {
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
/// Pipeline: deadline/straggler handling → validation (non-finite
/// screening, norm clipping) → quorum check against `total_nodes` →
/// robust aggregation with weights renormalized over the contributors.
///
/// On quorum failure the returned [`GatherFailure`] carries the full
/// [`RoundReport`] so callers can exclude the failing nodes and retry.
///
/// # Panics
///
/// Panics when `submissions` is empty, `total_nodes` is zero, or included
/// updates disagree in length.
pub fn gather(
    round: usize,
    total_nodes: usize,
    submissions: &[Submission],
    policy: &GatherPolicy,
) -> Result<(Vec<f64>, RoundReport), GatherFailure> {
    assert!(!submissions.is_empty(), "gather: no submissions");
    assert!(total_nodes > 0, "gather: zero-node fleet");

    let mut outcomes = Vec::with_capacity(submissions.len());
    let mut included: Vec<(f64, Vec<f64>)> = Vec::with_capacity(submissions.len());
    let mut round_time_s: f64 = 0.0;

    for sub in submissions {
        let (outcome, update) = triage(sub, policy);
        if let Some(mut u) = update {
            let outcome = match validate(&mut u, &policy.validation) {
                Validated::Ok => outcome,
                Validated::Clipped => {
                    // Clipping refines an on-time outcome; stale/waited
                    // reports keep their more informative label.
                    if outcome == NodeOutcome::Reported {
                        NodeOutcome::Clipped
                    } else {
                        outcome
                    }
                }
                Validated::Rejected => NodeOutcome::RejectedCorrupt,
            };
            if outcome.contributed() {
                let counted_delay = match (outcome, policy.deadline_s) {
                    // A waiting gather runs until the late report lands.
                    (NodeOutcome::Waited, _) => sub.delay_s,
                    // A stale substitute costs the full deadline.
                    (NodeOutcome::ReusedStale, Some(d)) => d,
                    _ => sub.delay_s,
                };
                round_time_s = round_time_s.max(counted_delay);
                included.push((sub.weight, u));
            }
            outcomes.push((sub.node, outcome));
        } else {
            if outcome == NodeOutcome::DroppedStraggler {
                if let Some(d) = policy.deadline_s {
                    round_time_s = round_time_s.max(d);
                }
            }
            outcomes.push((sub.node, outcome));
        }
    }

    let reporters = included.len();
    let degraded = outcomes.iter().any(|&(_, o)| o != NodeOutcome::Reported);
    let report = RoundReport {
        round,
        outcomes,
        reporters,
        degraded,
        round_time_s,
    };

    let required = policy.required_reporters(total_nodes);
    if reporters < required {
        return Err(GatherFailure {
            error: CoreError::QuorumLost {
                round,
                reporters,
                required,
            },
            report,
        });
    }

    let params = combine(&included, &policy.aggregator);
    Ok((params, report))
}

/// Applies the deadline and straggler policy to one submission, yielding
/// its provisional outcome and the update (if any) to validate.
fn triage(sub: &Submission, policy: &GatherPolicy) -> (NodeOutcome, Option<Vec<f64>>) {
    let Some(update) = sub.update.clone() else {
        return (NodeOutcome::Crashed, None);
    };
    let late = policy.deadline_s.is_some_and(|d| sub.delay_s > d);
    if !late {
        return (NodeOutcome::Reported, Some(update));
    }
    match policy.straggler {
        StragglerPolicy::Drop => (NodeOutcome::DroppedStraggler, None),
        StragglerPolicy::Wait => (NodeOutcome::Waited, Some(update)),
        StragglerPolicy::ReuseLast => match &sub.last_good {
            Some(prev) => (NodeOutcome::ReusedStale, Some(prev.clone())),
            None => (NodeOutcome::DroppedStraggler, None),
        },
    }
}

/// Result of screening a single update against an [`UpdateValidation`]
/// policy. Public so external executors (the `fml-runtime` actor
/// platform) can reuse the exact screening rules `gather` applies,
/// without having to stage a full gather round per update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validated {
    /// The update passed unmodified.
    Ok,
    /// The update's norm exceeded the clip bound and was rescaled in
    /// place.
    Clipped,
    /// The update is unusable (non-finite entries or non-finite norm)
    /// and must be excluded from aggregation.
    Rejected,
}

/// Screens one update in place against `v`: non-finite rejection, then
/// norm clipping. This is the same routine [`gather`] runs on every
/// on-time submission, exposed for aggregation points that accept
/// updates one at a time (asynchronous aggregation).
pub fn screen_update(update: &mut [f64], v: &UpdateValidation) -> Validated {
    validate(update, v)
}

/// Screens one update in place: non-finite rejection, then norm clipping.
fn validate(update: &mut [f64], v: &UpdateValidation) -> Validated {
    if v.reject_nonfinite && update.iter().any(|x| !x.is_finite()) {
        return Validated::Rejected;
    }
    if let Some(bound) = v.clip_norm {
        let norm = fml_linalg::vector::norm2(update);
        if norm > bound {
            if !norm.is_finite() {
                // Clipping can't rescue an infinite norm.
                return Validated::Rejected;
            }
            let scale = bound / norm;
            for x in update.iter_mut() {
                *x *= scale;
            }
            return Validated::Clipped;
        }
    }
    Validated::Ok
}

/// Combines weighted updates per the aggregator, renormalizing weights
/// over the contributors.
fn combine(included: &[(f64, Vec<f64>)], aggregator: &RobustAggregator) -> Vec<f64> {
    debug_assert!(!included.is_empty());
    let dim = included[0].1.len();
    for (_, u) in included {
        assert_eq!(u.len(), dim, "gather: update length mismatch");
    }
    match aggregator {
        RobustAggregator::WeightedMean => {
            let total_w: f64 = included.iter().map(|(w, _)| w).sum();
            let views: Vec<&[f64]> = included.iter().map(|(_, u)| u.as_slice()).collect();
            let weights: Vec<f64> = included.iter().map(|(w, _)| w / total_w).collect();
            fml_linalg::vector::weighted_sum(&views, &weights).expect("gather: no contributors")
        }
        RobustAggregator::TrimmedMean { trim_ratio } => {
            let n = included.len();
            let k = (trim_ratio * n as f64).floor() as usize;
            let mut out = vec![0.0; dim];
            let mut column: Vec<(f64, f64)> = Vec::with_capacity(n);
            for (j, out_j) in out.iter_mut().enumerate() {
                column.clear();
                column.extend(included.iter().map(|(w, u)| (u[j], *w)));
                // Total order is safe: validation rejected non-finite
                // values, and NaN-free f64 comparison never fails.
                column.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("non-finite in trimmed mean"));
                let kept = &column[k..n - k];
                let w_sum: f64 = kept.iter().map(|(_, w)| w).sum();
                *out_j = kept.iter().map(|(v, w)| v * w).sum::<f64>() / w_sum;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> GatherPolicy {
        GatherPolicy::default()
    }

    fn clipping(bound: f64) -> GatherPolicy {
        let mut p = policy();
        p.validation.clip_norm = Some(bound);
        p
    }

    #[test]
    fn all_on_time_matches_weighted_mean() {
        let subs = vec![
            Submission::on_time(0, 0.75, vec![2.0, 0.0]),
            Submission::on_time(1, 0.25, vec![0.0, 4.0]),
        ];
        let (params, report) = gather(1, 2, &subs, &policy()).unwrap();
        assert_eq!(params, vec![1.5, 1.0]);
        assert_eq!(report.reporters, 2);
        assert!(!report.degraded);
    }

    #[test]
    fn crash_renormalizes_over_survivors() {
        let subs = vec![
            Submission::on_time(0, 0.5, vec![2.0]),
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
        let subs = vec![
            Submission::on_time(0, 0.5, vec![1.0]),
            Submission::on_time(1, 0.5, vec![f64::NAN]),
        ];
        let (params, report) = gather(1, 2, &subs, &policy()).unwrap();
        assert_eq!(params, vec![1.0]);
        assert_eq!(report.outcomes[1].1, NodeOutcome::RejectedCorrupt);
        assert!(params.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn quorum_failure_carries_report() {
        let subs = vec![
            Submission::crashed(0, 0.4),
            Submission::crashed(1, 0.3),
            Submission::on_time(2, 0.3, vec![1.0]),
        ];
        let p = policy().with_min_quorum(0.67);
        let err = gather(4, 3, &subs, &p).unwrap_err();
        assert_eq!(
            err.error,
            CoreError::QuorumLost {
                round: 4,
                reporters: 1,
                required: 3
            }
        );
        assert_eq!(err.report.failed_nodes(), vec![0, 1]);
    }

    #[test]
    fn deadline_drops_stragglers() {
        let mut late = Submission::on_time(1, 0.5, vec![10.0]);
        late.delay_s = 9.0;
        let subs = vec![Submission::on_time(0, 0.5, vec![2.0]), late];
        let p = GatherPolicy {
            deadline_s: Some(1.0),
            ..policy()
        };
        let (params, report) = gather(1, 2, &subs, &p).unwrap();
        assert_eq!(params, vec![2.0]);
        assert_eq!(report.outcomes[1].1, NodeOutcome::DroppedStraggler);
        // Dropped straggler still costs the full deadline of waiting.
        assert_eq!(report.round_time_s, 1.0);
    }

    #[test]
    fn reuse_last_substitutes_stale_update() {
        let mut late = Submission::on_time(1, 0.5, vec![10.0]);
        late.delay_s = 9.0;
        late.last_good = Some(vec![4.0]);
        let subs = vec![Submission::on_time(0, 0.5, vec![2.0]), late];
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
    fn wait_policy_stretches_round_time() {
        let mut late = Submission::on_time(1, 0.5, vec![4.0]);
        late.delay_s = 7.5;
        let subs = vec![Submission::on_time(0, 0.5, vec![2.0]), late];
        let p = GatherPolicy {
            deadline_s: Some(1.0),
            straggler: StragglerPolicy::Wait,
            ..policy()
        };
        let (params, report) = gather(1, 2, &subs, &p).unwrap();
        assert_eq!(params, vec![3.0]);
        assert_eq!(report.round_time_s, 7.5);
        assert_eq!(report.outcomes[1].1, NodeOutcome::Waited);
    }

    #[test]
    fn norm_clipping_rescales() {
        let subs = vec![
            Submission::on_time(0, 0.5, vec![3.0, 4.0]), // norm 5
            Submission::on_time(1, 0.5, vec![0.0, 0.0]),
        ];
        let p = clipping(1.0);
        let (params, report) = gather(1, 2, &subs, &p).unwrap();
        assert_eq!(report.outcomes[0].1, NodeOutcome::Clipped);
        // Clipped to unit norm then halved by the weight.
        assert!((params[0] - 0.3).abs() < 1e-12 && (params[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_discards_outlier() {
        let subs = vec![
            Submission::on_time(0, 0.25, vec![1.0]),
            Submission::on_time(1, 0.25, vec![2.0]),
            Submission::on_time(2, 0.25, vec![3.0]),
            Submission::on_time(3, 0.25, vec![1e9]), // corrupt but finite
        ];
        let p = GatherPolicy {
            aggregator: RobustAggregator::TrimmedMean { trim_ratio: 0.25 },
            ..policy()
        };
        let (params, _) = gather(1, 4, &subs, &p).unwrap();
        // Trim one from each tail: mean of {2, 3}.
        assert!((params[0] - 2.5).abs() < 1e-9, "got {}", params[0]);
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

    #[test]
    fn infinite_norm_rejected_even_with_clipping() {
        let subs = vec![
            Submission::on_time(0, 0.5, vec![1.0]),
            Submission::on_time(1, 0.5, vec![f64::INFINITY]),
        ];
        let p = clipping(10.0);
        let (params, report) = gather(1, 2, &subs, &p).unwrap();
        assert_eq!(params, vec![1.0]);
        assert_eq!(report.outcomes[1].1, NodeOutcome::RejectedCorrupt);
    }
}
