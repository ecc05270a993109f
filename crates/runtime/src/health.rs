//! Per-node health tracking: a small state machine the platform drives
//! from round outcomes.
//!
//! Every node moves through
//!
//! ```text
//!            failures ≥ SUSPECT_AFTER      failures ≥ QUARANTINE_AFTER
//! Healthy ──────────────────────▶ Suspect ──────────────────────▶ Quarantined
//!    ▲                              │  ▲                               │
//!    │ success                      │  │ any failure                   │ READMIT_AFTER
//!    │                      success │  │ while on probation            ▼ rounds later
//!    └──────────────────────────────┘  └───────────────────────── Probation
//!                                             PROBATION_ROUNDS clean rounds
//!                                             promote Probation → Healthy
//! ```
//!
//! plus a terminal `Excluded` state entered only by the recovery loop
//! (checkpoint-rollback-exclude) — exclusion is permanent for the run.
//!
//! Failures are *consecutive*: crashes / missing reports and updates the
//! finite check rejected (corrupt frames) both count; a single
//! successful contribution resets the streak. Quarantined and excluded
//! nodes are removed from the broadcast set; because the weighted-mean
//! aggregator renormalizes over the contributors, quarantining a node that was
//! not reporting anyway does not change the aggregate bitwise.

use serde::{Deserialize, Serialize};

/// Consecutive failures before a node is marked suspect.
const SUSPECT_AFTER: u32 = 2;
/// Consecutive failures before a node is quarantined (removed from the
/// broadcast set).
const QUARANTINE_AFTER: u32 = 5;
/// Rounds a quarantined node sits out before being readmitted on
/// probation.
const READMIT_AFTER: usize = 3;
/// Clean probation rounds required before full readmission.
const PROBATION_ROUNDS: u32 = 2;

/// Where a node currently sits in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeHealth {
    /// Participating normally.
    Healthy,
    /// Failing but still participating.
    Suspect,
    /// Removed from the broadcast set until round `until`.
    Quarantined {
        /// First round the node may be readmitted on probation
        /// (`usize::MAX` = never).
        until: usize,
    },
    /// Readmitted, needs `remaining` more clean rounds to be healthy.
    Probation {
        /// Clean rounds still required.
        remaining: u32,
    },
    /// Permanently excluded by the recovery loop.
    Excluded,
}

impl NodeHealth {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Quarantined { .. } => "quarantined",
            NodeHealth::Probation { .. } => "probation",
            NodeHealth::Excluded => "excluded",
        }
    }

    /// Whether the node receives broadcasts and counts toward quorum.
    pub fn is_active(&self) -> bool {
        !matches!(
            self,
            NodeHealth::Quarantined { .. } | NodeHealth::Excluded
        )
    }
}

/// One recorded state change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// Round the transition happened in (0 = before round 1, e.g. a
    /// resume restoring exclusions).
    pub round: usize,
    /// State entered, as a [`NodeHealth::label`].
    pub to: &'static str,
}

/// Final per-node health summary embedded in the runtime report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHealthReport {
    /// Node id.
    pub node: usize,
    /// Final state, as a [`NodeHealth::label`].
    pub state: &'static str,
    /// Total failure events observed (not just the final streak).
    pub failures: u64,
    /// Every state change, in order.
    pub transitions: Vec<HealthTransition>,
}

/// Tracks [`NodeHealth`] for a fleet.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    states: Vec<NodeHealth>,
    consecutive: Vec<u32>,
    failures: Vec<u64>,
    transitions: Vec<Vec<HealthTransition>>,
}

impl HealthTracker {
    /// All nodes healthy.
    pub fn new(n: usize) -> Self {
        HealthTracker {
            states: vec![NodeHealth::Healthy; n],
            consecutive: vec![0; n],
            failures: vec![0; n],
            transitions: vec![Vec::new(); n],
        }
    }

    fn set(&mut self, node: usize, round: usize, to: NodeHealth) {
        if self.states[node] != to {
            self.states[node] = to;
            self.transitions[node].push(HealthTransition {
                round,
                to: to.label(),
            });
        }
    }

    /// Whether a node receives broadcasts and counts toward quorum.
    pub fn is_active(&self, node: usize) -> bool {
        self.states[node].is_active()
    }

    /// Active node ids, in index order.
    pub fn active_nodes(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| self.states[i].is_active())
            .collect()
    }

    /// Nodes currently removed from the round (quarantined or excluded).
    pub fn removed_count(&self) -> usize {
        self.states.iter().filter(|s| !s.is_active()).count()
    }

    /// Permanently excluded node ids, in index order.
    pub fn excluded_nodes(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| self.states[i] == NodeHealth::Excluded)
            .collect()
    }

    /// Opens a round: quarantined nodes whose sentence expired are
    /// readmitted on probation. Call before computing the round's
    /// active set.
    pub fn begin_round(&mut self, round: usize) {
        for node in 0..self.states.len() {
            if let NodeHealth::Quarantined { until } = self.states[node] {
                if round >= until {
                    self.consecutive[node] = 0;
                    self.set(
                        node,
                        round,
                        NodeHealth::Probation {
                            remaining: PROBATION_ROUNDS,
                        },
                    );
                }
            }
        }
    }

    /// Records a successful contribution: resets the failure streak,
    /// recovers suspects, and advances probation.
    pub fn record_success(&mut self, node: usize, round: usize) {
        self.consecutive[node] = 0;
        match self.states[node] {
            NodeHealth::Suspect => self.set(node, round, NodeHealth::Healthy),
            NodeHealth::Probation { remaining } => {
                if remaining <= 1 {
                    self.set(node, round, NodeHealth::Healthy);
                } else {
                    self.set(
                        node,
                        round,
                        NodeHealth::Probation {
                            remaining: remaining - 1,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    /// Records a failure event (crash / no report, rejected-corrupt
    /// update, missed deadline) and applies the state machine.
    pub fn record_failure(&mut self, node: usize, round: usize) {
        if self.states[node] == NodeHealth::Excluded {
            return;
        }
        self.failures[node] += 1;
        self.consecutive[node] = self.consecutive[node].saturating_add(1);
        let quarantined = NodeHealth::Quarantined {
            until: round.saturating_add(READMIT_AFTER),
        };
        match self.states[node] {
            // Any failure on probation goes straight back to quarantine.
            NodeHealth::Probation { .. } => self.set(node, round, quarantined),
            NodeHealth::Healthy | NodeHealth::Suspect => {
                if self.consecutive[node] >= QUARANTINE_AFTER {
                    self.set(node, round, quarantined);
                } else if self.consecutive[node] >= SUSPECT_AFTER {
                    self.set(node, round, NodeHealth::Suspect);
                }
            }
            NodeHealth::Quarantined { .. } | NodeHealth::Excluded => {}
        }
    }

    /// Permanently excludes a node (recovery loop decision).
    pub fn exclude(&mut self, node: usize, round: usize) {
        self.set(node, round, NodeHealth::Excluded);
    }

    /// Per-node summaries for the report.
    pub fn summaries(&self) -> Vec<NodeHealthReport> {
        (0..self.states.len())
            .map(|node| NodeHealthReport {
                node,
                state: self.states[node].label(),
                failures: self.failures[node],
                transitions: self.transitions[node].clone(),
            })
            .collect()
    }

    /// Serializes the resumable state (states + streaks) for checkpoint
    /// metadata; transition history is intentionally not persisted.
    pub fn to_meta(&self) -> String {
        serde_json::to_string(&(&self.states, &self.consecutive))
            .expect("health state serializes")
    }

    /// Restores states + streaks persisted by [`Self::to_meta`].
    /// Ignores documents whose fleet size disagrees.
    pub fn restore_meta(&mut self, meta: &str) -> bool {
        let Ok((states, consecutive)) =
            serde_json::from_str::<(Vec<NodeHealth>, Vec<u32>)>(meta)
        else {
            return false;
        };
        if states.len() != self.states.len() || consecutive.len() != self.consecutive.len() {
            return false;
        }
        for (node, state) in states.iter().enumerate() {
            self.set(node, 0, *state);
        }
        self.consecutive = consecutive;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails `node` in rounds `rounds`.
    fn fail(t: &mut HealthTracker, node: usize, rounds: std::ops::RangeInclusive<usize>) {
        for r in rounds {
            t.record_failure(node, r);
        }
    }

    #[test]
    fn healthy_to_suspect_to_quarantined() {
        let mut t = HealthTracker::new(2);
        t.record_failure(0, 1);
        assert_eq!(t.states[0], NodeHealth::Healthy);
        t.record_failure(0, 2);
        assert_eq!(t.states[0], NodeHealth::Suspect);
        fail(&mut t, 0, 3..=4);
        assert_eq!(t.states[0], NodeHealth::Suspect);
        assert!(t.is_active(0));
        t.record_failure(0, 5);
        assert_eq!(t.states[0], NodeHealth::Quarantined { until: 8 });
        assert!(!t.is_active(0));
        assert_eq!(t.active_nodes(), vec![1]);
        assert_eq!(t.removed_count(), 1);
    }

    #[test]
    fn success_resets_the_streak_and_recovers_suspects() {
        let mut t = HealthTracker::new(1);
        fail(&mut t, 0, 1..=4);
        assert_eq!(t.states[0], NodeHealth::Suspect);
        t.record_success(0, 5);
        assert_eq!(t.states[0], NodeHealth::Healthy);
        // Streak restarted: four more failures only reach Suspect again.
        fail(&mut t, 0, 6..=9);
        assert_eq!(t.states[0], NodeHealth::Suspect);
    }

    #[test]
    fn quarantine_readmits_on_probation_then_promotes() {
        let mut t = HealthTracker::new(1);
        fail(&mut t, 0, 1..=5);
        assert_eq!(t.states[0], NodeHealth::Quarantined { until: 8 });
        t.begin_round(7);
        assert!(!t.is_active(0), "sentence not served yet");
        t.begin_round(8);
        assert_eq!(t.states[0], NodeHealth::Probation { remaining: 2 });
        assert!(t.is_active(0));
        t.record_success(0, 8);
        assert_eq!(t.states[0], NodeHealth::Probation { remaining: 1 });
        t.record_success(0, 9);
        assert_eq!(t.states[0], NodeHealth::Healthy);
    }

    #[test]
    fn probation_failure_requarantines_immediately() {
        let mut t = HealthTracker::new(1);
        fail(&mut t, 0, 1..=5);
        t.begin_round(8);
        assert!(matches!(t.states[0], NodeHealth::Probation { .. }));
        t.record_failure(0, 8);
        assert_eq!(t.states[0], NodeHealth::Quarantined { until: 11 });
    }

    #[test]
    fn exclusion_is_terminal() {
        let mut t = HealthTracker::new(2);
        t.exclude(1, 2);
        assert_eq!(t.states[1], NodeHealth::Excluded);
        assert_eq!(t.excluded_nodes(), vec![1]);
        t.record_success(1, 3);
        t.record_failure(1, 4);
        t.begin_round(100);
        assert_eq!(t.states[1], NodeHealth::Excluded);
        // Excluded failures are not even counted.
        assert_eq!(t.summaries()[1].failures, 0);
    }

    #[test]
    fn transitions_are_recorded_in_order() {
        let mut t = HealthTracker::new(1);
        fail(&mut t, 0, 1..=5);
        t.begin_round(8);
        t.record_failure(0, 8);
        let s = &t.summaries()[0];
        let labels: Vec<&str> = s.transitions.iter().map(|tr| tr.to).collect();
        assert_eq!(
            labels,
            vec!["suspect", "quarantined", "probation", "quarantined"]
        );
        assert_eq!(s.failures, 6);
    }

    #[test]
    fn meta_roundtrip_restores_states_and_streaks() {
        let mut t = HealthTracker::new(5);
        fail(&mut t, 0, 1..=4);
        t.exclude(2, 4);
        // Both struct variants too, `usize::MAX` ("never") included.
        t.set(3, 4, NodeHealth::Quarantined { until: usize::MAX });
        t.set(4, 4, NodeHealth::Probation { remaining: 1 });
        let meta = t.to_meta();

        let mut back = HealthTracker::new(5);
        assert!(back.restore_meta(&meta));
        assert_eq!(back.states, t.states);
        assert_eq!(back.states[0], NodeHealth::Suspect);
        assert_eq!(back.states[1], NodeHealth::Healthy);
        assert_eq!(back.states[2], NodeHealth::Excluded);
        // Streak carried over: one more failure quarantines node 0.
        back.record_failure(0, 5);
        assert!(matches!(back.states[0], NodeHealth::Quarantined { .. }));

        // Wrong fleet size is rejected.
        let mut wrong = HealthTracker::new(2);
        assert!(!wrong.restore_meta(&meta));
        assert!(!wrong.restore_meta("not json"));
    }
}
