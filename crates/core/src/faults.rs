//! Deterministic, seeded fault injection for federated training.
//!
//! Real edge fleets crash and upload garbage; the paper's Algorithm 1
//! assumes neither. A [`FaultPlan`] describes, for every `(node, round)`
//! pair, whether that node fails this round and how:
//!
//! * **Crash** — the node never reports its update;
//! * **Corrupt** — the reported parameters are all NaN, which the
//!   aggregation's finite check ([`screen_update`](crate::gather::screen_update))
//!   rejects.
//!
//! # Determinism
//!
//! Every draw is a *pure function* of `(seed, node, round)`: the plan
//! derives a private RNG per pair by mixing the three values through a
//! SplitMix64-style finalizer and seeding a fresh [`StdRng`] from the
//! result. No shared mutable RNG stream exists, so fault schedules are
//! bitwise identical at any worker thread count and regardless of
//! evaluation order — preserving the repository's thread-count
//! determinism guarantees.
//!
//! Scripted faults (exact `(node, round)` entries and permanent crashes)
//! take precedence over the probabilistic draws, so tests and experiments
//! can pin down exact failure scenarios.
//!
//! # Examples
//!
//! ```
//! use fml_core::faults::{Fault, FaultPlan};
//!
//! // Nodes 3 and 7 die permanently, node 5 uploads NaNs in round 3.
//! let plan = FaultPlan::new(42)
//!     .with_crash_from(3, 2)
//!     .with_crash_from(7, 4)
//!     .with_corrupt(5, 3);
//! assert_eq!(plan.draw(3, 2), Some(Fault::Crash));
//! assert_eq!(plan.draw(3, 5), Some(Fault::Crash)); // permanent
//! assert_eq!(plan.draw(5, 3), Some(Fault::Corrupt));
//! assert_eq!(plan.draw(0, 1), None); // healthy node
//! ```

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected failure for a `(node, round)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The node never reports this round.
    Crash,
    /// The node reports all-NaN parameters.
    Corrupt,
}

/// A deterministic, seeded schedule of per-node per-round failures.
///
/// Combines probabilistic faults (independent per `(node, round)` pair,
/// drawn from a dedicated seeded stream) with scripted faults (exact
/// entries and permanent crashes) that override the probabilistic layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-`(node, round)` streams.
    pub seed: u64,
    /// Probability, in `[0, 1]`, that a node crashes (no report) in a
    /// round.
    pub crash_prob: f64,
    /// Probability, in `[0, 1]`, that a node corrupts its upload in a
    /// round.
    pub corrupt_prob: f64,
    /// Exact scripted faults, keyed by `(node, round)`.
    pub scripted: BTreeMap<(usize, usize), Fault>,
    /// Permanent crashes: node → first round it stops reporting.
    pub crashed_from: BTreeMap<usize, usize>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; set the fields, or
    /// script faults with [`with_crash_from`](Self::with_crash_from) and
    /// [`with_corrupt`](Self::with_corrupt).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            crash_prob: 0.0,
            corrupt_prob: 0.0,
            scripted: BTreeMap::new(),
            crashed_from: BTreeMap::new(),
        }
    }

    /// Scripts a *permanent* crash: `node` stops reporting from `round`
    /// onward (a dead device, not a transient failure).
    pub fn with_crash_from(mut self, node: usize, round: usize) -> Self {
        self.crashed_from.insert(node, round);
        self
    }

    /// Scripts a one-round corruption for `node` at `round`.
    pub fn with_corrupt(mut self, node: usize, round: usize) -> Self {
        self.scripted.insert((node, round), Fault::Corrupt);
        self
    }

    /// True when the plan can never produce a fault.
    pub fn is_benign(&self) -> bool {
        self.crash_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.scripted.is_empty()
            && self.crashed_from.is_empty()
    }

    /// The fault (if any) injected for `node` at `round` (1-based).
    ///
    /// Pure in `(self, node, round)`: repeated calls return the same
    /// answer, and no call perturbs any other draw.
    pub fn draw(&self, node: usize, round: usize) -> Option<Fault> {
        if let Some(&from) = self.crashed_from.get(&node) {
            if round >= from {
                return Some(Fault::Crash);
            }
        }
        if let Some(&fault) = self.scripted.get(&(node, round)) {
            return Some(fault);
        }
        if self.crash_prob == 0.0 && self.corrupt_prob == 0.0 {
            return None;
        }
        // One uniform decides the fault class.
        let u: f64 = self.pair_rng(node, round).gen();
        if u < self.crash_prob {
            return Some(Fault::Crash);
        }
        if u < self.crash_prob + self.corrupt_prob {
            return Some(Fault::Corrupt);
        }
        None
    }

    /// The dedicated RNG stream for a `(node, round)` pair.
    fn pair_rng(&self, node: usize, round: usize) -> StdRng {
        StdRng::seed_from_u64(mix3(self.seed, node as u64, round as u64))
    }
}

/// Mixes three words into one via two SplitMix64 finalizer passes —
/// enough diffusion that adjacent `(node, round)` pairs get unrelated
/// streams.
fn mix3(seed: u64, node: u64, round: u64) -> u64 {
    let x = seed
        .wrapping_add(node.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(round.wrapping_mul(0xD1B5_4A32_D192_ED03));
    splitmix(splitmix(x))
}

/// The SplitMix64 step: adds the golden-ratio increment to `z`, then
/// applies the finalizer. The fault plan's draws, the runtime's
/// `VirtualClock` and its link-fault draws all go through this one
/// function.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Corrupts an update in place: every coordinate becomes `f64::NAN`.
/// Deterministic, so a corrupt upload is bitwise reproducible.
pub fn corrupt(params: &mut [f64]) {
    params.fill(f64::NAN);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_and_order_independent() {
        let plan = FaultPlan {
            crash_prob: 0.2,
            corrupt_prob: 0.1,
            ..FaultPlan::new(7)
        };
        // Forward order.
        let forward: Vec<_> = (0..20)
            .flat_map(|node| (1..=10).map(move |round| (node, round)))
            .map(|(n, r)| plan.draw(n, r))
            .collect();
        // Reverse order, interleaved with redundant draws.
        let mut reverse: Vec<_> = (0..20)
            .flat_map(|node| (1..=10).map(move |round| (node, round)))
            .collect();
        reverse.reverse();
        let mut got: Vec<_> = reverse
            .iter()
            .map(|&(n, r)| {
                let _ = plan.draw(5, 5); // extra draw must not disturb anything
                plan.draw(n, r)
            })
            .collect();
        got.reverse();
        assert_eq!(forward, got);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let crashy = |seed| FaultPlan {
            crash_prob: 0.5,
            ..FaultPlan::new(seed)
        };
        let (a, b) = (crashy(1), crashy(2));
        let sched = |p: &FaultPlan| -> Vec<bool> {
            (0..50)
                .map(|n| matches!(p.draw(n, 1), Some(Fault::Crash)))
                .collect()
        };
        assert_ne!(sched(&a), sched(&b));
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        let plan = FaultPlan {
            crash_prob: 0.25,
            ..FaultPlan::new(3)
        };
        let crashes = (0..4000)
            .filter(|&n| plan.draw(n, 1) == Some(Fault::Crash))
            .count();
        let rate = crashes as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "crash rate {rate}");
    }

    #[test]
    fn scripted_overrides_probabilistic() {
        let plan = FaultPlan::new(0).with_corrupt(4, 2);
        assert_eq!(plan.draw(4, 2), Some(Fault::Corrupt));
        assert_eq!(plan.draw(4, 3), None);
    }

    #[test]
    fn permanent_crash_persists() {
        let plan = FaultPlan::new(0).with_crash_from(2, 5);
        assert_eq!(plan.draw(2, 4), None);
        for round in 5..20 {
            assert_eq!(plan.draw(2, round), Some(Fault::Crash));
        }
    }

    #[test]
    fn corrupt_fills_with_nan() {
        let mut v = vec![1.0, -2.0];
        corrupt(&mut v);
        assert!(v.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn benign_plan_never_faults() {
        let plan = FaultPlan::new(99);
        assert!(plan.is_benign());
        assert!((0..50).all(|n| (1..=20).all(|r| plan.draw(n, r).is_none())));
        let crashy = FaultPlan {
            crash_prob: 0.1,
            ..plan
        };
        assert!(!crashy.is_benign());
    }
}
