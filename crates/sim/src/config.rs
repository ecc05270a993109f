//! What a simulated run is configured with and what it returns: the
//! cost model's inputs and outputs. The run itself is the platform
//! core's virtual-time driver, `fml_runtime::SimRunner`: it draws each
//! round's participants, prices one [`crate::Network`] transfer per
//! frame, and meters compute per [`EdgeProfile`].
//!
//! Failure injection: per-round node dropout and deterministic straggler
//! assignment with a configurable slowdown; the synchronous-round
//! critical path (max over participants) is what accrues to simulated
//! wall-clock time, matching how stragglers hurt real federated systems.

use crate::network::Network;
use crate::stats::{CommStats, ComputeStats};
use crate::trace::TraceLog;

/// Per-node execution profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeProfile {
    /// Relative compute speed (1.0 = nominal; stragglers < 1.0).
    pub speed: f64,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Network model charged for every message.
    pub network: Network,
    /// Per-node per-round dropout probability.
    pub dropout_prob: f64,
    /// Fraction `C` of clients the platform selects each round (McMahan
    /// et al.'s client sampling); 1.0 = all clients.
    pub client_fraction: f64,
    /// Fraction of nodes designated stragglers (assigned by index,
    /// deterministically).
    pub straggler_frac: f64,
    /// Straggler speed multiplier (e.g. 0.25 = 4× slower).
    pub straggler_speed: f64,
    /// Platform waits only for the fastest `wait_fraction` of the round's
    /// participants before aggregating; slower nodes' updates are dropped
    /// that round (straggler mitigation à la partial aggregation). 1.0 =
    /// synchronous (wait for everyone).
    pub wait_fraction: f64,
    /// Nominal seconds per local iteration on a speed-1.0 node.
    pub iteration_time_s: f64,
    /// Worker threads for parallel local updates.
    pub threads: usize,
}

impl SimConfig {
    /// A default edge deployment: asymmetric lossy links, no failures,
    /// 10 ms per local iteration, 4 worker threads.
    pub fn edge() -> Self {
        SimConfig {
            network: Network::edge(),
            dropout_prob: 0.0,
            client_fraction: 1.0,
            straggler_frac: 0.0,
            straggler_speed: 0.25,
            wait_fraction: 1.0,
            iteration_time_s: 0.01,
            threads: 4,
        }
    }

    /// An ideal deployment (free network, no failures) for equivalence
    /// testing against the sequential reference implementation.
    pub fn ideal() -> Self {
        SimConfig {
            network: Network::ideal(),
            dropout_prob: 0.0,
            client_fraction: 1.0,
            straggler_frac: 0.0,
            straggler_speed: 1.0,
            wait_fraction: 1.0,
            iteration_time_s: 0.0,
            threads: 4,
        }
    }

    /// Sets the dropout probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1)`.
    pub fn with_dropout(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout must be in [0, 1)");
        self.dropout_prob = p;
        self
    }

    /// Designates a fraction of nodes as stragglers with the given speed.
    ///
    /// # Panics
    ///
    /// Panics when `frac` is outside `[0, 1]` or `speed <= 0`.
    pub fn with_stragglers(mut self, frac: f64, speed: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "straggler fraction in [0, 1]");
        assert!(speed > 0.0, "straggler speed must be positive");
        self.straggler_frac = frac;
        self.straggler_speed = speed;
        self
    }

    /// Sets the nominal per-iteration compute time.
    pub fn with_iteration_time(mut self, secs: f64) -> Self {
        self.iteration_time_s = secs;
        self
    }
}

/// Result of a simulated federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// Final global parameters.
    pub params: Vec<f64>,
    /// Communication meter.
    pub comm: CommStats,
    /// Computation meter.
    pub compute: ComputeStats,
    /// Participant count per round.
    pub participants: Vec<usize>,
    /// `(local steps so far, weighted meta loss)` at each aggregation,
    /// taken at the global the round closes with.
    pub history: Vec<(usize, f64)>,
    /// Per-round flight-recorder trace.
    pub trace: TraceLog,
}

impl SimOutput {
    /// Total simulated wall clock: communication + computation critical
    /// paths.
    pub fn wall_clock_s(&self) -> f64 {
        self.comm.time_s + self.compute.time_s
    }
}
