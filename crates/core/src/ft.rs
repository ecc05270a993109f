//! The fault stack's configuration.
//!
//! A [`FaultTolerance`] names everything a faulty round is run under:
//!
//! 1. the seeded [`FaultPlan`], which decides per `(node, round)`
//!    whether a node crashes or corrupts;
//! 2. the [`GatherPolicy`] every barrier aggregation passes through:
//!    the finite check, the quorum, then the weighted mean renormalized
//!    over the contributors;
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
use crate::gather::GatherPolicy;

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
