//! Structured round traces: the platform core's flight recorder, in
//! real and in simulated runs alike.
//!
//! A [`RoundTrace`] records what happened in each communication round —
//! who participated, what it cost, what the loss looked like.
//! [`TraceLog`] aggregates rounds and computes summary statistics.

/// One communication round's record.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Round index (1-based).
    pub round: usize,
    /// Node ids that participated.
    pub participants: Vec<usize>,
    /// `T0` used this round.
    pub local_steps: usize,
    /// Payload bytes down + up this round.
    pub bytes: u64,
    /// Frames the simulated links lost and sent again this round. A
    /// threaded run reads 0: its socket hub replays a broadcast to a
    /// reconnecting peer on its own, which shows in that peer's
    /// `frames_received` and `reconnects`.
    pub retransmissions: u64,
    /// Simulated communication time this round (seconds).
    pub comm_time_s: f64,
    /// Simulated computation time this round (critical path, seconds).
    pub compute_time_s: f64,
    /// Weighted meta loss after aggregation.
    pub meta_loss: f64,
    /// Nodes whose validated updates entered the aggregate: fewer than
    /// `participants.len()` only under faults, which the simulator does
    /// not inject.
    pub reporters: usize,
    /// Whether the round was degraded — crashes, rejected updates, or a
    /// skipped aggregation. Never in a
    /// simulated run.
    pub degraded: bool,
}

/// An append-only log of round traces with summary helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    rounds: Vec<RoundTrace>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one round.
    pub fn push(&mut self, round: RoundTrace) {
        self.rounds.push(round);
    }

    /// Borrow of all rounds.
    pub fn rounds(&self) -> &[RoundTrace] {
        &self.rounds
    }

    /// Number of rounds recorded.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total payload bytes across all rounds.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes).sum()
    }

    /// Total simulated wall clock (comm + compute) across all rounds.
    pub fn wall_clock_s(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.comm_time_s + r.compute_time_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(i: usize, loss: f64) -> RoundTrace {
        RoundTrace {
            round: i,
            participants: vec![0, 1, 2],
            local_steps: 5,
            bytes: 1000,
            retransmissions: 0,
            comm_time_s: 0.1,
            compute_time_s: 0.2,
            meta_loss: loss,
            reporters: 3,
            degraded: false,
        }
    }

    #[test]
    fn summaries() {
        let mut log = TraceLog::new();
        assert!(log.is_empty());
        for (i, l) in [1.0, 0.8, 0.9, 0.5].iter().enumerate() {
            log.push(round(i + 1, *l));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.total_bytes(), 4000);
        assert!((log.wall_clock_s() - 1.2).abs() < 1e-12);
    }
}
