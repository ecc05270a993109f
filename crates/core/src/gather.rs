//! The rules every aggregation point applies to node reports.
//!
//! The paper's eq. 5 averages over *all* source nodes; under crashes and
//! corrupt uploads that is either impossible or unwise. The platform's
//! round core (`fml_runtime`) aggregates each barrier round as finite
//! check → quorum → weighted mean: an update with a NaN or ±Inf
//! coordinate is rejected ([`screen_update`]), a round with fewer than
//! [`GatherPolicy::required_reporters`] contributors loses its quorum,
//! and the survivors' weights are renormalized, so the global step stays
//! a convex combination of what actually arrived.

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
    /// Minimum fraction of the *total* fleet that must contribute a
    /// validated update for the round to count, in `[0, 1]`. The round
    /// loses its quorum below `max(1, ⌈min_quorum · total⌉)` reporters.
    pub min_quorum: f64,
}

impl Default for GatherPolicy {
    fn default() -> Self {
        GatherPolicy { min_quorum: 0.5 }
    }
}

impl GatherPolicy {
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

/// Result of screening a single update against an [`UpdateValidation`]
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validated {
    /// The update passed.
    Ok,
    /// The update has a non-finite entry and must be excluded from
    /// aggregation.
    Rejected,
}

/// Screens one update: the finite check every aggregation point runs on
/// each update it may include. The update is never written.
pub fn screen_update(update: &mut [f64], _validation: &UpdateValidation) -> Validated {
    if update.iter().all(|x| x.is_finite()) {
        Validated::Ok
    } else {
        Validated::Rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_linalg::vector::weighted_sum;

    fn policy() -> GatherPolicy {
        GatherPolicy::default()
    }

    #[test]
    fn nonfinite_update_is_rejected() {
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
            assert_eq!(
                screen_update(&mut [bad], &UpdateValidation {}),
                Validated::Rejected
            );
        }
    }

    /// Renormalizes the contributors' weights to sum to one, with the
    /// round core's float expressions in its order.
    fn renormalized(mut weights: Vec<f64>) -> Vec<f64> {
        let total_w: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total_w;
        }
        weights
    }

    /// Every node on time under a non-default quorum: each update passes
    /// the screen, the quorum is met, and the aggregate is eq. 5's
    /// weighted mean. The round core's
    /// `a_full_barrier_round_is_aggregate_then_combine_bit_for_bit` runs
    /// the same case through frames.
    #[test]
    fn all_on_time_matches_weighted_mean() {
        let p = policy().with_min_quorum(1.0);
        let mut updates = [vec![2.0, 0.0], vec![0.0, 4.0]];
        for u in &mut updates {
            assert_eq!(screen_update(u, &UpdateValidation {}), Validated::Ok);
        }
        assert!(updates.len() >= p.required_reporters(2));
        let views: Vec<&[f64]> = updates.iter().map(|u| &u[..]).collect();
        let mean = weighted_sum(&views, &renormalized(vec![0.75, 0.25])).unwrap();
        assert_eq!(mean, vec![1.5, 1.0]);
    }

    /// A crashed node sends nothing: one survivor of two still meets the
    /// default quorum, and its weight is renormalized to one, so the
    /// aggregate is its update unchanged.
    #[test]
    fn crash_renormalizes_over_survivors() {
        let mut survivor = [2.0];
        assert_eq!(
            screen_update(&mut survivor, &UpdateValidation {}),
            Validated::Ok
        );
        assert!(1 >= policy().required_reporters(2));
        let weights = renormalized(vec![0.5]);
        assert_eq!(weights, vec![1.0]);
        assert_eq!(weighted_sum(&[&survivor[..]], &weights), Some(vec![2.0]));
    }

    /// Two of three nodes crashed under a 0.67 quorum: the one reporter
    /// is short of the three required, and a NaN update in place of a
    /// crash would not count either. The round core's
    /// `a_quorum_loss_rolls_back_and_reruns_the_same_round` takes the
    /// lost round on to rollback.
    #[test]
    fn quorum_failure_carries_report() {
        let p = policy().with_min_quorum(0.67);
        assert_eq!(p.required_reporters(3), 3);
        let mut updates = [vec![f64::NAN], vec![1.0]];
        let reporters = updates
            .iter_mut()
            .map(|u| screen_update(u, &UpdateValidation {}))
            .filter(|&v| v == Validated::Ok)
            .count();
        assert_eq!(reporters, 1);
        assert!(reporters < p.required_reporters(3));
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

    /// A round with nobody to gather has 0 reporters, fewer than any
    /// fleet requires: the platform core's
    /// `a_fleet_quarantined_whole_degrades_instead_of_panicking` runs it.
    #[test]
    fn nobody_to_gather_is_a_lost_quorum() {
        for (total, required) in [(0, 1), (3, 2)] {
            assert_eq!(policy().required_reporters(total), required);
        }
    }
}
