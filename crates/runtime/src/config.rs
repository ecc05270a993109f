//! Runtime configuration: execution mode, actor knobs, the fault stack
//! and checkpoint cadence.

use std::path::PathBuf;

use fml_core::{FaultPlan, FaultTolerance, GatherPolicy};
use fml_sim::UpdateCodec;

use crate::clock::VirtualClock;

/// Periodic disk checkpointing of the platform global, so a killed
/// platform resumes mid-training bitwise-deterministically: a valid
/// `latest.json` found in `dir` at startup resumes the run from the
/// round after it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointConfig {
    /// Directory `latest.json` is atomically written into; `None`
    /// disables disk checkpointing.
    pub dir: Option<PathBuf>,
    /// Write a checkpoint every this many completed rounds (the final
    /// round is always written). Zero behaves like 1.
    pub every: usize,
}

/// The staleness-decay family used by [`AsyncPolicy::weight`].
///
/// All three map a staleness `s ≥ 0` (rounds) to a factor in `(0, 1]`
/// that is `1` at `s = 0` and non-increasing in `s`; the exponent /
/// slope is the constant `a = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalenessDecay {
    /// Polynomial `(1 + s)^(−a)` — the FedAsync default and the
    /// historical behaviour of this runtime.
    Poly,
    /// Hinge `1 / (1 + a·max(0, s − b))`: full weight up to the knee
    /// `b`, then hyperbolic falloff. FedAsync's "hinge" variant.
    Hinge {
        /// The knee `b`: staleness up to this many rounds costs nothing.
        knee: usize,
    },
    /// No decay: every accepted update mixes at full strength
    /// regardless of staleness.
    Const,
}

impl std::fmt::Display for StalenessDecay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessDecay::Poly => write!(f, "poly"),
            StalenessDecay::Hinge { knee: 0 } => write!(f, "hinge"),
            StalenessDecay::Hinge { knee } => write!(f, "hinge:{knee}"),
            StalenessDecay::Const => write!(f, "const"),
        }
    }
}

/// The inverse of `Display`: `poly`, `hinge`, `hinge:<knee>`, `const`.
impl std::str::FromStr for StalenessDecay {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poly" => Ok(StalenessDecay::Poly),
            "hinge" => Ok(StalenessDecay::Hinge { knee: 0 }),
            "const" => Ok(StalenessDecay::Const),
            other => match other.strip_prefix("hinge:") {
                Some(knee) => knee
                    .parse()
                    .map(|knee| StalenessDecay::Hinge { knee })
                    .map_err(|e| format!("bad hinge knee {knee}: {e}")),
                None => Err(format!(
                    "unknown async decay {other} (poly|hinge|hinge:<knee>|const)"
                )),
            },
        }
    }
}

/// Staleness handling for [`Mode::Async`] aggregation.
///
/// An update computed against the round-`r` global model that reaches
/// the platform in round `r' ≥ r` has staleness `s = r' − r`. The
/// platform folds it into the global model as
///
/// ```text
/// θ ← (1 − w)·θ + w·u,   w = clamp(η · n·ω_i · decay(s), 0, 1)
/// ```
///
/// where the mixing rate `η = 0.5` is a constant, `n·ω_i` rescales the
/// node's eq. 5 aggregation weight so a uniform fleet gets `≈ 1`, and
/// `decay(s)` is the [`StalenessDecay`] family (polynomial
/// `(1 + s)^(−a)` by default, with the constant `a = 1`). Updates with `s >`
/// [`max_staleness`](AsyncPolicy::max_staleness) are rejected outright
/// and counted in the report.
///
/// Two orthogonal extensions sit on top of the decay family:
///
/// * [`adaptive_mix`](AsyncPolicy::adaptive_mix) — the platform keeps a
///   per-node quality score `q_i ∈ (0, 1]` (recency-weighted: fresh
///   accepted updates push it toward 1, stale or rejected ones toward
///   0) and folds with `clamp(w · q_i, 0, 1)` instead of `w`.
/// * [`buffer_k`](AsyncPolicy::buffer_k) — FedBuff-style semi-async:
///   accepted updates accumulate in a buffer and the global only moves
///   once `k` of them are in, folding their weighted mean with the
///   mean weight. `k = 1` (the default) is the historical per-arrival
///   fold.
///
/// The default policy (polynomial, `k = 1`, fixed mixing) is
/// conformance-pinned: it reproduces the pre-policy-seam runtime
/// bitwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncPolicy {
    /// Maximum accepted staleness in rounds; anything older is dropped.
    pub max_staleness: usize,
    /// Which decay family maps staleness to a weight factor.
    pub decay: StalenessDecay,
    /// Aggregate every `k` accepted arrivals instead of per-arrival
    /// (`1`, the default, folds each update as it lands).
    pub buffer_k: usize,
    /// Rescale each fold by the node's observed update quality/recency.
    pub adaptive_mix: bool,
}

impl Default for AsyncPolicy {
    fn default() -> Self {
        AsyncPolicy {
            max_staleness: 4,
            decay: StalenessDecay::Poly,
            buffer_k: 1,
            adaptive_mix: false,
        }
    }
}

/// The mixing rate `η` applied to every accepted update.
const MIX: f64 = 0.5;
/// The staleness-decay exponent/slope `a`.
const DECAY_POW: f64 = 1.0;

impl AsyncPolicy {
    /// Sets the staleness bound.
    pub fn with_max_staleness(mut self, s: usize) -> Self {
        self.max_staleness = s;
        self
    }

    /// Checks the one field with a rule — the gate between the public
    /// fields and the fold loop. The CLI calls this before trusting a
    /// policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.buffer_k == 0 {
            return Err("async buffer size must be at least 1".into());
        }
        Ok(())
    }

    /// The decay factor for staleness `s` under the configured family.
    fn decay_factor(&self, s: usize) -> f64 {
        match self.decay {
            StalenessDecay::Poly => (1.0 + s as f64).powf(-DECAY_POW),
            StalenessDecay::Hinge { knee } => {
                let over = s.saturating_sub(knee) as f64;
                1.0 / (1.0 + DECAY_POW * over)
            }
            StalenessDecay::Const => 1.0,
        }
    }

    /// The staleness-decayed mixing weight for node weight `omega` in a
    /// fleet of `n`, at staleness `s`.
    ///
    /// NaN-safe: a non-finite product (a non-finite task weight) yields
    /// [`f64::NAN`] rather than a silently-clamped garbage weight — the
    /// platform rejects such updates and counts them in the report
    /// instead of folding NaN into the global model.
    pub fn weight(&self, omega: f64, n: usize, s: usize) -> f64 {
        let raw = MIX * omega * n as f64 * self.decay_factor(s);
        if raw.is_finite() {
            raw.clamp(0.0, 1.0)
        } else {
            f64::NAN
        }
    }
}

/// Execution mode of the platform event loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Lockstep rounds: the platform waits for every live node before
    /// aggregating. Fault-free runs reproduce `train_from` histories
    /// bitwise.
    Barrier,
    /// Bounded-staleness rounds: updates are folded in one at a time as
    /// they (virtually) arrive, decayed by staleness.
    Async(AsyncPolicy),
}

/// Full configuration of a [`crate::Runtime`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Barrier or async aggregation.
    pub mode: Mode,
    /// Worker OS threads the node actors are multiplexed onto; `None`
    /// auto-sizes like `fml_core::parallel::default_threads`. Results
    /// are bitwise independent of this setting.
    pub threads: Option<usize>,
    /// Bound of each socket peer's outbound queue in the hub (frames).
    /// Broadcasts to a full queue are dropped and counted, never blocked
    /// on. The in-process fleet has no per-node queue: each round is
    /// posted once, so this bound does not apply to it.
    pub mailbox_cap: usize,
    /// Wall-clock receive timeout (milliseconds) — the liveness safety
    /// net that turns a dead or wedged thread into a degraded round
    /// instead of a hang. Plays no algorithmic role.
    pub recv_timeout_ms: u64,
    /// How long [`crate::Runtime::serve`] waits for the full fleet to
    /// connect before starting with whoever joined (milliseconds).
    /// Irrelevant for the in-process channel transport.
    pub join_timeout_ms: u64,
    /// Virtual duration of one communication round (seconds). An async
    /// upload lands in the round that its arrival — its round's start
    /// plus its delay — falls in. Each upload's delay comes from the
    /// driver: [`clock`](Self::clock)'s in [`crate::Runtime`], the priced
    /// links' in [`crate::SimRunner`].
    pub round_duration_s: f64,
    /// The thread driver's seeded upload delays.
    pub clock: VirtualClock,
    /// The fault stack, as [`crate::SimRunner::with_faults`] takes it
    /// too: the injected schedule (crash / corrupt), the
    /// validation and quorum policy applied at aggregation points, and
    /// the rollback-and-exclude recovery budget. When a round's gather
    /// loses quorum or the aggregated global goes non-finite, the
    /// platform rolls the global back to the last good value,
    /// permanently excludes the nodes the round report blames, and
    /// re-runs the round — up to `max_recoveries` times (0 disables
    /// recovery). An exhausted budget never aborts the run: the
    /// platform degrades the round and keeps going.
    pub ft: FaultTolerance,
    /// Disk checkpoint cadence.
    pub checkpoint: CheckpointConfig,
    /// How node actors encode their update replies on the uplink.
    /// [`UpdateCodec::None`] (the default) emits today's tag-2 frames
    /// byte-for-byte; the platform decodes every codec unconditionally.
    pub update_codec: UpdateCodec,
}

impl RuntimeConfig {
    /// Barrier-mode defaults with the given seed (drives the virtual
    /// clock and the benign default fault plan, under the default
    /// gather policy and two recoveries).
    pub fn barrier(seed: u64) -> Self {
        RuntimeConfig {
            mode: Mode::Barrier,
            threads: None,
            mailbox_cap: 2,
            recv_timeout_ms: 2_000,
            join_timeout_ms: 10_000,
            round_duration_s: 1.0,
            clock: VirtualClock::new(seed),
            ft: FaultTolerance::new(FaultPlan::new(seed)),
            checkpoint: CheckpointConfig::default(),
            update_codec: UpdateCodec::None,
        }
    }

    /// Async-mode defaults with the given seed and staleness policy.
    pub fn async_mode(seed: u64, policy: AsyncPolicy) -> Self {
        RuntimeConfig {
            mode: Mode::Async(policy),
            ..RuntimeConfig::barrier(seed)
        }
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be at least 1");
        self.threads = Some(threads);
        self
    }

    /// Sets the bound of each socket peer's outbound queue.
    ///
    /// # Panics
    ///
    /// Panics when `cap == 0`.
    pub fn with_mailbox_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "mailbox capacity must be at least 1");
        self.mailbox_cap = cap;
        self
    }

    /// Sets the virtual clock.
    pub fn with_clock(mut self, clock: VirtualClock) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.ft.plan = plan;
        self
    }

    /// Sets the gather policy.
    pub fn with_gather(mut self, policy: GatherPolicy) -> Self {
        self.ft.policy = policy;
        self
    }

    /// Sets the recovery budget.
    pub fn with_max_recoveries(mut self, n: usize) -> Self {
        self.ft.max_recoveries = n;
        self
    }

    /// Disables rollback-and-exclude recovery (faults then only degrade
    /// rounds, the pre-recovery behaviour).
    pub fn without_recovery(self) -> Self {
        self.with_max_recoveries(0)
    }

    /// Enables disk checkpointing into `dir` (with resume on startup).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint.dir = Some(dir.into());
        if self.checkpoint.every == 0 {
            self.checkpoint.every = 1;
        }
        self
    }

    /// Sets the checkpoint cadence (rounds between writes).
    ///
    /// # Panics
    ///
    /// Panics when `every == 0`.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least 1");
        self.checkpoint.every = every;
        self
    }

    /// Sets the update codec the node actors encode replies with.
    ///
    /// # Panics
    ///
    /// Panics on a codec [`UpdateCodec::validate`] rejects.
    pub fn with_update_codec(mut self, codec: UpdateCodec) -> Self {
        if let Err(why) = codec.validate() {
            panic!("{why}");
        }
        self.update_codec = codec;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_weight_decays_with_staleness() {
        let p = AsyncPolicy::default();
        let w0 = p.weight(0.25, 4, 0);
        let w1 = p.weight(0.25, 4, 1);
        let w3 = p.weight(0.25, 4, 3);
        assert!(w0 > w1 && w1 > w3);
        assert!((w0 - 0.5).abs() < 1e-12, "uniform fleet, s=0 ⇒ w = η");
        assert!((w1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn async_weight_is_clamped() {
        let p = AsyncPolicy::default();
        // A node holding 90% of the data would overshoot 1.0 unclamped.
        assert_eq!(p.weight(0.9, 4, 0), 1.0);
    }

    #[test]
    fn builders_roundtrip() {
        let cfg = RuntimeConfig::barrier(5).with_threads(3).with_mailbox_cap(4);
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.mailbox_cap, 4);
        assert_eq!(cfg.mode, Mode::Barrier);
        let a = RuntimeConfig::async_mode(5, AsyncPolicy::default().with_max_staleness(2));
        assert!(matches!(a.mode, Mode::Async(p) if p.max_staleness == 2));
    }

    #[test]
    fn recovery_and_checkpoint_builders() {
        let cfg = RuntimeConfig::barrier(5);
        assert_eq!(cfg.ft, FaultTolerance::new(FaultPlan::new(5)));
        assert_eq!(cfg.ft.max_recoveries, 2);
        assert!(cfg.checkpoint.dir.is_none());

        let cfg = RuntimeConfig::barrier(5)
            .with_max_recoveries(4)
            .with_checkpoint_dir("/tmp/ck")
            .with_checkpoint_every(3);
        assert_eq!(cfg.ft.max_recoveries, 4);
        assert_eq!(cfg.checkpoint.dir.as_deref(), Some(std::path::Path::new("/tmp/ck")));
        assert_eq!(cfg.checkpoint.every, 3);
        assert_eq!(cfg.without_recovery().ft.max_recoveries, 0);
    }

    #[test]
    fn update_codec_defaults_to_none_and_builds() {
        let cfg = RuntimeConfig::barrier(5);
        assert_eq!(cfg.update_codec, UpdateCodec::None);
        let cfg = cfg.with_update_codec(UpdateCodec::TopK { k: 8 });
        assert_eq!(cfg.update_codec, UpdateCodec::TopK { k: 8 });
    }

    #[test]
    #[should_panic(expected = "quant bits")]
    fn bad_quant_bits_rejected() {
        let _ = RuntimeConfig::barrier(0).with_update_codec(UpdateCodec::Quant { bits: 4 });
    }

    #[test]
    #[should_panic(expected = "top-k")]
    fn zero_topk_rejected() {
        let _ = RuntimeConfig::barrier(0).with_update_codec(UpdateCodec::TopK { k: 0 });
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_rejected() {
        let _ = RuntimeConfig::barrier(0).with_threads(0);
    }

    #[test]
    fn hinge_decay_is_flat_up_to_the_knee() {
        let p = AsyncPolicy {
            decay: StalenessDecay::Hinge { knee: 2 },
            ..AsyncPolicy::default()
        };
        let w0 = p.weight(0.25, 4, 0);
        assert_eq!(w0, p.weight(0.25, 4, 1), "inside the knee: no decay");
        assert_eq!(w0, p.weight(0.25, 4, 2));
        // One round past the knee: 1/(1 + a·1) with a = 1.
        assert!((p.weight(0.25, 4, 3) - w0 / 2.0).abs() < 1e-12);
        assert!((p.weight(0.25, 4, 4) - w0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn const_decay_ignores_staleness() {
        let p = AsyncPolicy {
            decay: StalenessDecay::Const,
            ..AsyncPolicy::default()
        };
        assert_eq!(p.weight(0.25, 4, 0), p.weight(0.25, 4, 100));
    }

    #[test]
    fn decay_display_names() {
        assert_eq!(StalenessDecay::Poly.to_string(), "poly");
        assert_eq!(StalenessDecay::Hinge { knee: 0 }.to_string(), "hinge");
        assert_eq!(StalenessDecay::Hinge { knee: 3 }.to_string(), "hinge:3");
        assert_eq!(StalenessDecay::Const.to_string(), "const");
    }

    #[test]
    fn validate_catches_fields_set_directly() {
        let ok = AsyncPolicy::default();
        assert!(ok.validate().is_ok());
        let bad = |p: AsyncPolicy| p.validate().unwrap_err();
        assert!(bad(AsyncPolicy { buffer_k: 0, ..ok }).contains("buffer"));
    }

    #[test]
    fn weight_is_nan_not_garbage_for_invalid_policies() {
        // A non-finite task weight makes the product non-finite. The old
        // code clamped the intermediate NaN straight into the fold —
        // now the caller gets a NaN it can reject.
        for decay in [
            StalenessDecay::Poly,
            StalenessDecay::Hinge { knee: 1 },
            StalenessDecay::Const,
        ] {
            let p = AsyncPolicy {
                decay,
                ..AsyncPolicy::default()
            };
            assert!(p.weight(f64::INFINITY, 4, 1).is_nan(), "{decay}");
            assert!(p.weight(f64::NAN, 4, 1).is_nan(), "{decay}");
            // Weird-but-finite weights still clamp like before.
            assert_eq!(p.weight(1e300, 4, 5), 1.0, "{decay}");
            assert_eq!(p.weight(-0.9, 4, 5), 0.0, "{decay}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// `FromStr` is the exact inverse of `Display` for every family
        /// and knee.
        #[test]
        fn prop_decay_round_trips_display(family in 0usize..3, knee in any::<usize>()) {
            let decay = match family {
                0 => StalenessDecay::Poly,
                1 => StalenessDecay::Const,
                _ => StalenessDecay::Hinge { knee },
            };
            prop_assert_eq!(decay.to_string().parse::<StalenessDecay>(), Ok(decay));
        }

        /// Across every decay family and knee, the weight is finite, in [0, 1], and non-increasing in staleness.
        #[test]
        fn prop_weight_monotone_bounded_finite(
            family in 0usize..4,
            knee in 0usize..6,
            omega in 0.0f64..1.0,
            n in 1usize..64,
        ) {
            let decay = match family {
                0 => StalenessDecay::Poly,
                1 => StalenessDecay::Const,
                _ => StalenessDecay::Hinge { knee },
            };
            let p = AsyncPolicy { decay, ..AsyncPolicy::default() };
            prop_assert_eq!(p.validate(), Ok(()));
            let mut prev = f64::INFINITY;
            for s in 0..16usize {
                let w = p.weight(omega, n, s);
                prop_assert!(w.is_finite(), "{decay:?} s={s} w={w}");
                prop_assert!((0.0..=1.0).contains(&w), "{decay:?} s={s} w={w}");
                prop_assert!(w <= prev + 1e-15, "{decay:?} not monotone at s={s}");
                prev = w;
            }
        }
    }
}
