//! Adaptive aggregation frequency (adaptive `T0`): the controller's
//! settings and what a controlled run returns. The control loop is
//! `fml_runtime::run_adaptive_fedml`, a configuration of the platform
//! core's virtual-time driver.
//!
//! The paper observes that "the platform is able to balance between the
//! platform-edge communication cost and the local computation cost via
//! controlling the number of local update steps `T0`, depending on the
//! task similarity" — and cites Wang et al. (adaptive federated learning
//! under resource constraints) for dynamically adapting the aggregation
//! frequency. The controller:
//!
//! * after each aggregation measures the **local divergence**
//!   `D = Σ ω_i ‖θ_i − θ̄‖ / (1 + ‖θ̄‖)` — how far the nodes drifted apart
//!   during their `T0` local steps (the quantity Theorem 2's `h(T0)` floor
//!   grows from);
//! * if `D` exceeds `divergence_target`, the next round halves `T0`
//!   (drift is eating the floor budget: communicate more);
//! * if `D` is below half the target, the next round increments `T0`
//!   (similarity headroom: save communication).
//!
//! The `adaptive_t0` experiment compares the controller against every
//! fixed `T0` under the same iteration budget.

use crate::stats::{CommStats, ComputeStats};

/// Controller parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveT0Config {
    /// Smallest allowed `T0`.
    pub t0_min: usize,
    /// Largest allowed `T0`.
    pub t0_max: usize,
    /// Starting `T0`.
    pub t0_init: usize,
    /// Relative local-divergence target the controller steers toward.
    pub divergence_target: f64,
}

impl AdaptiveT0Config {
    /// Creates a controller config.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are inconsistent or the target is not
    /// positive.
    pub fn new(t0_min: usize, t0_max: usize, divergence_target: f64) -> Self {
        assert!(t0_min >= 1, "t0_min must be at least 1");
        assert!(t0_max >= t0_min, "t0_max must be at least t0_min");
        assert!(
            divergence_target > 0.0,
            "divergence target must be positive"
        );
        AdaptiveT0Config {
            t0_min,
            t0_max,
            t0_init: t0_min,
            divergence_target,
        }
    }

    /// Sets the starting `T0`.
    ///
    /// # Panics
    ///
    /// Panics when outside `[t0_min, t0_max]`.
    pub fn with_initial(mut self, t0: usize) -> Self {
        assert!(
            (self.t0_min..=self.t0_max).contains(&t0),
            "initial T0 must lie within the bounds"
        );
        self.t0_init = t0;
        self
    }
}

/// Result of an adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutput {
    /// Final global parameters.
    pub params: Vec<f64>,
    /// Communication meter.
    pub comm: CommStats,
    /// Computation meter.
    pub compute: ComputeStats,
    /// `(iteration, meta loss)` at each aggregation.
    pub history: Vec<(usize, f64)>,
    /// `T0` used for each round, in order.
    pub t0_trace: Vec<usize>,
    /// Divergence measured at each aggregation.
    pub divergence_trace: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let c = AdaptiveT0Config::new(1, 20, 0.1).with_initial(5);
        assert_eq!(c.t0_init, 5);
    }

    #[test]
    #[should_panic(expected = "t0_max must be at least t0_min")]
    fn rejects_inverted_bounds() {
        AdaptiveT0Config::new(5, 2, 0.1);
    }

    #[test]
    #[should_panic(expected = "within the bounds")]
    fn rejects_out_of_bounds_initial() {
        AdaptiveT0Config::new(1, 4, 0.1).with_initial(9);
    }
}
