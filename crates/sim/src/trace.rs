//! Structured round traces for simulator debugging and analysis.
//!
//! A [`RoundTrace`] records what happened in each communication round —
//! who participated, what it cost, what the loss looked like — in a
//! serializable form, so a long simulation can be inspected offline (the
//! JSON analogue of a flight recorder). [`TraceLog`] aggregates rounds
//! and computes summary statistics.

use serde::{Deserialize, Serialize};

/// One communication round's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// Round index (1-based).
    pub round: usize,
    /// Node ids that participated.
    pub participants: Vec<usize>,
    /// `T0` used this round.
    pub local_steps: usize,
    /// Payload bytes down + up this round.
    pub bytes: u64,
    /// Retransmitted frames this round.
    pub retransmissions: u64,
    /// Simulated communication time this round (seconds).
    pub comm_time_s: f64,
    /// Simulated computation time this round (critical path, seconds).
    pub compute_time_s: f64,
    /// Weighted meta loss after aggregation.
    pub meta_loss: f64,
    /// Nodes whose validated updates entered the aggregate. Only the
    /// runtime platform (`fml_runtime`) writes fewer than
    /// `participants.len()`: the simulator injects no faults, so every
    /// participant reports. 0 in traces recorded before fault injection
    /// existed (serde default).
    #[serde(default)]
    pub reporters: usize,
    /// Whether the round was degraded — crashes, rejected updates,
    /// dropped stragglers, or a skipped aggregation. Set by the runtime
    /// platform; always `false` in simulator traces (serde default).
    #[serde(default)]
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

    /// Serializes the log as JSON lines (one round per line), the format
    /// easiest to stream and grep.
    pub fn to_jsonl(&self) -> String {
        self.rounds
            .iter()
            .map(|r| serde_json::to_string(r).expect("round serializes"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parses a JSON-lines document produced by [`TraceLog::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error with the offending line number.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut log = TraceLog::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let round: RoundTrace =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            log.push(round);
        }
        Ok(log)
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
    fn reads_pre_fault_tolerance_traces() {
        // Trace lines recorded before the reporters/degraded fields
        // existed must still parse.
        let old = r#"{"round":1,"participants":[0],"local_steps":2,"bytes":10,"retransmissions":0,"comm_time_s":0.0,"compute_time_s":0.0,"meta_loss":1.0}"#;
        let log = TraceLog::from_jsonl(old).unwrap();
        assert_eq!(log.rounds()[0].reporters, 0);
        assert!(!log.rounds()[0].degraded);
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

    #[test]
    fn jsonl_roundtrip() {
        let mut log = TraceLog::new();
        log.push(round(1, 0.5));
        log.push(round(2, 0.25));
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = TraceLog::from_jsonl(&text).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_reports_bad_ones() {
        let good = serde_json::to_string(&round(1, 0.5)).unwrap();
        let text = format!("{good}\n\n{{bad json}}");
        let err = TraceLog::from_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 3"), "{err}");
    }
}
