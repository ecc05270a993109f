//! The fault stack's configuration, and the cache it keeps between
//! rounds.
//!
//! A [`FaultTolerance`] names everything a faulty round is run under:
//!
//! 1. the seeded [`FaultPlan`], which decides per `(node, round)`
//!    whether a node crashes, straggles or corrupts;
//! 2. the [`GatherPolicy`] every aggregation passes through
//!    ([`gather`](crate::gather::gather)): deadline triage (drop, or reuse the last good
//!    update from the [`ReuseCache`]), the finite check, the quorum,
//!    then the weighted mean;
//! 3. the rollback-and-exclude budget: on a lost quorum or a diverged
//!    global the round restores the last good global, permanently
//!    excludes the nodes that failed it, and runs again.
//!
//! The round that applies it is the platform core's
//! (`fml_runtime::RuntimeConfig::ft`); the in-process way to run it is
//! the simulator, `fml_runtime::SimRunner::with_faults`. Fault draws are
//! pure per `(node, round)`, so a fault-injected run is bitwise
//! identical at any worker thread count.

use crate::faults::FaultPlan;
use crate::gather::{GatherPolicy, NodeOutcome, RoundReport, StragglerPolicy};

/// Fault-tolerance configuration: the plan injected, the gather policy,
/// and the recovery budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTolerance {
    /// The seeded fault schedule to inject (use a benign plan to run the
    /// robustness stack against real-world faults only).
    pub plan: FaultPlan,
    /// Policy applied at every aggregation point.
    pub policy: GatherPolicy,
    /// Rollback-and-exclude recovery attempts allowed across the whole
    /// run; once they are spent, a failed round degrades in place.
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
/// what [`StragglerPolicy::ReuseLast`] substitutes for a late one, kept
/// across the rounds of one run. It keeps one buffer per node and lends
/// it to [`Submission::last_good`](crate::gather::Submission::last_good);
/// a refill reuses the
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

    /// The node's cached report, for
    /// [`Submission::last_good`](crate::gather::Submission::last_good).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::{gather, Submission};

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
}
