//! Deterministic virtual clock for the actor runtime.
//!
//! The runtime never sleeps and never reads the wall clock to decide
//! *algorithmic* behaviour: every latency that matters — when a node's
//! upload "arrives" at the platform — is drawn from a pure function of
//! `(seed, node, round)`. Two consequences:
//!
//! * async-mode staleness is exactly reproducible, at any worker-thread
//!   count and on any machine, because arrival times do not depend on
//!   OS scheduling;
//! * tests can dial delays far past the round duration to force
//!   arbitrary staleness without ever waiting for real time to pass.
//!
//! The only wall-clock use in the runtime is `recv_timeout` on the
//! uplink and on socket links — a liveness safety net against genuinely
//! dead threads, never a source of simulated time.

/// A seeded, pure model of per-upload network delay.
///
/// The delay of node `i`'s round-`r` upload is
/// `base_delay_s + jitter_s · u(i, r)` where `u ∈ [0, 1)` comes from a
/// SplitMix64-style hash of `(seed, i, r)` — the same construction
/// `fml_core::FaultPlan` uses for its per-`(node, round)` draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualClock {
    seed: u64,
    /// Fixed delay every upload pays (seconds).
    base_delay_s: f64,
    /// Uniform jitter added on top (seconds).
    jitter_s: f64,
}

impl VirtualClock {
    /// A clock with the given seed, a small fixed delay and no jitter.
    pub fn new(seed: u64) -> Self {
        VirtualClock {
            seed,
            base_delay_s: 0.05,
            jitter_s: 0.0,
        }
    }

    /// Sets the fixed per-upload delay.
    ///
    /// # Panics
    ///
    /// Panics when `base_s` is negative or non-finite.
    pub fn with_base_delay(mut self, base_s: f64) -> Self {
        assert!(base_s >= 0.0 && base_s.is_finite(), "bad base delay");
        self.base_delay_s = base_s;
        self
    }

    /// Sets the uniform jitter bound.
    ///
    /// # Panics
    ///
    /// Panics when `jitter_s` is negative or non-finite.
    pub fn with_jitter(mut self, jitter_s: f64) -> Self {
        assert!(jitter_s >= 0.0 && jitter_s.is_finite(), "bad jitter");
        self.jitter_s = jitter_s;
        self
    }

    /// Virtual delay (seconds) of node `node`'s upload in `round`.
    /// Pure: same `(seed, node, round)` ⇒ same delay, forever.
    pub fn delay_s(&self, node: usize, round: usize) -> f64 {
        if self.jitter_s == 0.0 {
            return self.base_delay_s;
        }
        self.base_delay_s + self.jitter_s * self.unit(node, round)
    }

    /// Uniform draw in `[0, 1)` from the `(seed, node, round)` stream.
    fn unit(&self, node: usize, round: usize) -> f64 {
        let z = splitmix(mix3(self.seed, node as u64, round as u64));
        // 53 high bits → uniform double in [0, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Combines three words into one, separating the streams of different
/// `(node, round)` pairs (golden-ratio increments, as in SplitMix64).
fn mix3(seed: u64, node: u64, round: u64) -> u64 {
    splitmix(
        seed ^ node.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ round.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// SplitMix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_pure() {
        let c = VirtualClock::new(7).with_base_delay(0.1).with_jitter(2.0);
        for node in 0..8 {
            for round in 1..20 {
                assert_eq!(c.delay_s(node, round), c.delay_s(node, round));
            }
        }
    }

    #[test]
    fn delays_respect_bounds() {
        let c = VirtualClock::new(3).with_base_delay(0.5).with_jitter(1.5);
        for node in 0..16 {
            for round in 1..50 {
                let d = c.delay_s(node, round);
                assert!((0.5..2.0).contains(&d), "delay {d} out of bounds");
            }
        }
    }

    #[test]
    fn zero_jitter_is_constant() {
        let c = VirtualClock::new(1).with_base_delay(0.25);
        assert_eq!(c.delay_s(0, 1), 0.25);
        assert_eq!(c.delay_s(9, 99), 0.25);
    }

    #[test]
    fn different_pairs_get_different_delays() {
        let c = VirtualClock::new(11).with_jitter(1.0);
        // Not a strict requirement of the hash, but with 53-bit draws a
        // collision across a handful of pairs would indicate a broken
        // stream separator.
        let d1 = c.delay_s(0, 1);
        let d2 = c.delay_s(1, 1);
        let d3 = c.delay_s(0, 2);
        assert!(d1 != d2 && d1 != d3 && d2 != d3);
    }

    #[test]
    fn seeds_separate_streams() {
        let a = VirtualClock::new(1).with_jitter(1.0);
        let b = VirtualClock::new(2).with_jitter(1.0);
        assert_ne!(a.delay_s(0, 1), b.delay_s(0, 1));
    }
}
