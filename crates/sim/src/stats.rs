//! Communication and computation meters.

/// Accumulated communication costs for a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Payload bytes uploaded by edge nodes (excluding retransmissions).
    pub bytes_up: u64,
    /// Payload bytes downloaded by edge nodes.
    pub bytes_down: u64,
    /// Bytes actually placed on the wire (payload × attempts).
    pub wire_bytes: u64,
    /// Messages exchanged.
    pub messages: u64,
    /// Retransmitted frames.
    pub retransmissions: u64,
    /// Simulated communication wall-clock time in seconds (the per-round
    /// critical path: slowest download + slowest upload, summed over
    /// rounds).
    pub time_s: f64,
}

impl CommStats {
    /// Total payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }
}

/// Accumulated computation costs for a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComputeStats {
    /// Gradient-oracle evaluations across all nodes.
    pub grad_evals: u64,
    /// Hessian–vector-product evaluations across all nodes.
    pub hvp_evals: u64,
    /// Local iterations executed across all nodes.
    pub local_iterations: u64,
    /// Simulated computation wall-clock time in seconds (per-round max
    /// across nodes — the synchronous-round critical path — summed over
    /// rounds).
    pub time_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let c = CommStats::default();
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.messages, 0);
    }
}
