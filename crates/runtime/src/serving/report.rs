//! Serving observability: the counters an operator needs to tell "the
//! service is keeping up" from "the service is shedding" — QPS, a
//! per-request latency histogram, bytes in/out, rejection taxonomy,
//! which global round answered each reply, and frame-pool hit rates.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::report::PoolStatsReport;

/// Number of power-of-two latency buckets: bucket `i` counts requests
/// that finished in `[2^(i-1), 2^i)` microseconds (bucket 0 is `<1µs`),
/// so the histogram spans sub-microsecond to ~35 minutes.
pub const LATENCY_BUCKETS: usize = 32;

/// Power-of-two latency histogram, recorded in microseconds.
#[derive(Debug, Default)]
pub(crate) struct LatencyRecorder {
    buckets: [u64; LATENCY_BUCKETS],
    max_us: u64,
}

impl LatencyRecorder {
    /// Records one request that took `us` microseconds.
    pub(crate) fn record(&mut self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.max_us = self.max_us.max(us);
    }

    /// The summary so far.
    pub(crate) fn snapshot(&self) -> LatencyReport {
        LatencyReport {
            p50_us: percentile(&self.buckets, 0.50),
            p90_us: percentile(&self.buckets, 0.90),
            p99_us: percentile(&self.buckets, 0.99),
            max_us: self.max_us,
            buckets: self.buckets.to_vec(),
        }
    }
}

/// Upper bound in microseconds of histogram bucket `idx`.
fn bucket_bound_us(idx: usize) -> u64 {
    1u64 << idx
}

/// The smallest bucket upper bound below which at least fraction `p` of
/// the recorded requests finished. 0 when nothing was recorded.
fn percentile(buckets: &[u64], p: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = (p * total as f64).ceil() as u64;
    let mut seen = 0u64;
    for (idx, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return bucket_bound_us(idx);
        }
    }
    bucket_bound_us(buckets.len() - 1)
}

/// Latency summary derived from the power-of-two histogram. Percentiles
/// are bucket upper bounds (conservative: the true percentile is at
/// most the reported value).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LatencyReport {
    /// Median request latency bound, microseconds.
    pub p50_us: u64,
    /// 90th-percentile bound, microseconds.
    pub p90_us: u64,
    /// 99th-percentile bound, microseconds.
    pub p99_us: u64,
    /// Exact slowest request, microseconds.
    pub max_us: u64,
    /// Raw bucket counts; bucket `i` spans `[2^(i-1), 2^i)` µs.
    pub buckets: Vec<u64>,
}

/// How many replies a given global round served — the hot-swap audit
/// trail: a live-attached server's distribution shifts to newer rounds
/// as training progresses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RoundServed {
    /// Training round of the global snapshot.
    pub round: u32,
    /// Replies adapted from that snapshot.
    pub count: u64,
}

/// Frame-pool activity attributed to one served global round: the
/// counter **delta** between this round's first reply and the next
/// round's first reply — not the cumulative process-wide totals, which
/// would overstate early rounds and dilute late ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct PoolRound {
    /// Training round of the global serving this window.
    pub round: u32,
    /// Pool acquisitions served from the free-list in this window.
    pub hits: u64,
    /// Pool acquisitions that had to allocate in this window.
    pub misses: u64,
    /// `hits / (hits + misses)` for this window alone (0 when idle).
    pub hit_rate: f64,
}

/// What the adaptation service observed over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServingReport {
    /// Transport family the listener used: `"channel"`, `"tcp"`, `"uds"`.
    pub transport: String,
    /// Worker threads in the adaptation pool.
    pub workers: usize,
    /// Well-formed adaptation requests received.
    pub requests: u64,
    /// Successful parameter replies sent.
    pub responses: u64,
    /// Requests shed with a busy reject: queue full at arrival, or
    /// queue-wait deadline exceeded by the time a worker picked it up.
    pub shed_busy: u64,
    /// Requests rejected because no global model was available.
    pub rejected_unavailable: u64,
    /// Requests rejected for violating the per-request budget or
    /// carrying unusable samples.
    pub rejected_bad: u64,
    /// Frames that failed adaptation-frame parsing.
    pub decode_errors: u64,
    /// Replies lost to a dead client link after compute finished.
    pub dropped_replies: u64,
    /// Bytes of frames received.
    pub bytes_in: u64,
    /// Bytes of reply frames sent (responses and rejects).
    pub bytes_out: u64,
    /// Wall-clock seconds the server was up.
    pub elapsed_s: f64,
    /// Successful replies per second of uptime.
    pub qps: f64,
    /// Per-request latency (receive-to-reply), microsecond histogram.
    pub latency: LatencyReport,
    /// Replies per global round, ascending by round.
    pub served_rounds: Vec<RoundServed>,
    /// Frame-pool counters at report time (process-wide pool).
    pub pool: PoolStatsReport,
    /// Per-round frame-pool deltas, one window per served global round
    /// in serving order.
    pub pool_rounds: Vec<PoolRound>,
}

impl ServingReport {
    /// Requests refused for any reason (shed + unavailable + bad).
    pub fn rejected_total(&self) -> u64 {
        self.shed_busy + self.rejected_unavailable + self.rejected_bad
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serving    {} workers over {}, {:.1}s up",
            self.workers, self.transport, self.elapsed_s
        )?;
        writeln!(
            f,
            "traffic    {} requests, {} responses ({:.1} qps), {} B in / {} B out",
            self.requests, self.responses, self.qps, self.bytes_in, self.bytes_out
        )?;
        writeln!(
            f,
            "latency    p50 ≤ {}µs, p90 ≤ {}µs, p99 ≤ {}µs, max {}µs",
            self.latency.p50_us, self.latency.p90_us, self.latency.p99_us, self.latency.max_us
        )?;
        writeln!(
            f,
            "rejects    {} busy, {} unavailable, {} bad, {} undecodable, {} replies dropped",
            self.shed_busy,
            self.rejected_unavailable,
            self.rejected_bad,
            self.decode_errors,
            self.dropped_replies
        )?;
        let rounds: Vec<String> = self
            .served_rounds
            .iter()
            .map(|r| format!("r{}:{}", r.round, r.count))
            .collect();
        writeln!(
            f,
            "globals    {}",
            if rounds.is_empty() {
                "none served".to_string()
            } else {
                rounds.join(" ")
            }
        )?;
        write!(
            f,
            "pool       {:.0}% hit rate ({} hits / {} misses), high water {}",
            self.pool.hit_rate * 100.0,
            self.pool.hits,
            self.pool.misses,
            self.pool.high_water
        )?;
        if !self.pool_rounds.is_empty() {
            let windows: Vec<String> = self
                .pool_rounds
                .iter()
                .map(|w| format!("r{}:{:.0}%", w.round, w.hit_rate * 100.0))
                .collect();
            write!(f, "\npool/round {}", windows.join(" "))?;
        }
        Ok(())
    }
}

/// How many replies each global round served.
#[derive(Debug, Default)]
pub(crate) struct RoundTally {
    counts: BTreeMap<u32, u64>,
}

impl RoundTally {
    pub(crate) fn bump(&mut self, round: u32) {
        *self.counts.entry(round).or_insert(0) += 1;
    }

    pub(crate) fn snapshot(&self) -> Vec<RoundServed> {
        self.counts
            .iter()
            .map(|(&round, &count)| RoundServed { round, count })
            .collect()
    }
}

/// Turns cumulative frame-pool counters into per-round windows. The
/// core calls [`observe`](PoolRoundTracker::observe) with the counters
/// read *before* a reply for a round touches the pool; the tracker
/// closes the previous round's window at that boundary, so each
/// [`PoolRound`] reflects only its own round's acquisitions instead of
/// everything since process start.
#[derive(Debug, Default)]
pub(crate) struct PoolRoundTracker {
    open: Option<Window>,
    closed: Vec<PoolRound>,
}

#[derive(Debug, Clone, Copy)]
struct Window {
    round: u32,
    hits0: u64,
    misses0: u64,
}

fn close_window(w: Window, hits: u64, misses: u64) -> PoolRound {
    let h = hits.saturating_sub(w.hits0);
    let m = misses.saturating_sub(w.misses0);
    PoolRound {
        round: w.round,
        hits: h,
        misses: m,
        hit_rate: if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        },
    }
}

impl PoolRoundTracker {
    /// Notes that the next pool traffic belongs to `round`, given the
    /// cumulative pool counters right now. A no-op while `round` is
    /// already the open window; on a round change it freezes the old
    /// window's delta and starts the new one at the current counters.
    pub(crate) fn observe(&mut self, round: u32, hits: u64, misses: u64) {
        if self.open.is_some_and(|open| open.round == round) {
            return;
        }
        if let Some(open) = self.open.take() {
            self.closed.push(close_window(open, hits, misses));
        }
        self.open = Some(Window {
            round,
            hits0: hits,
            misses0: misses,
        });
    }

    /// The per-round series so far, closing the still-open window at
    /// the given cumulative counters (without ending it).
    pub(crate) fn snapshot(&self, hits: u64, misses: u64) -> Vec<PoolRound> {
        let mut out = self.closed.clone();
        out.extend(self.open.map(|open| close_window(open, hits, misses)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_bucket_bounds() {
        let mut rec = LatencyRecorder::default();
        for us in [0u64, 1, 1, 3, 3, 3, 3, 100, 100, 5000] {
            rec.record(us);
        }
        let lat = rec.snapshot();
        assert_eq!(lat.max_us, 5000);
        // 10 samples: p50 rank 5 falls in the [2,4)µs bucket → bound 4.
        assert_eq!(lat.p50_us, 4);
        assert!(lat.p99_us >= lat.p90_us && lat.p90_us >= lat.p50_us);
        assert_eq!(lat.buckets.iter().sum::<u64>(), 10);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let lat = LatencyRecorder::default().snapshot();
        assert_eq!(lat.p50_us, 0);
        assert_eq!(lat.p99_us, 0);
        assert_eq!(lat.max_us, 0);
    }

    #[test]
    fn huge_latency_clamps_to_last_bucket() {
        let mut rec = LatencyRecorder::default();
        rec.record(u64::MAX);
        let lat = rec.snapshot();
        assert_eq!(lat.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(lat.max_us, u64::MAX);
    }

    #[test]
    fn round_tally_sorted_ascending() {
        let mut tally = RoundTally::default();
        tally.bump(3);
        tally.bump(1);
        tally.bump(3);
        let snap = tally.snapshot();
        assert_eq!(
            snap,
            vec![
                RoundServed { round: 1, count: 1 },
                RoundServed { round: 3, count: 2 },
            ]
        );
    }

    #[test]
    fn pool_rounds_are_deltas_not_cumulative_counters() {
        // The original bug: the report carried only the process-wide
        // cumulative pool counters read at shutdown, so "round 2's hit
        // rate" was really "everything since process start". The
        // tracker must attribute each window only its own traffic.
        let mut t = PoolRoundTracker::default();
        // Round 1 starts with 10 hits / 10 misses already on the books.
        t.observe(1, 10, 10);
        // Round 2 starts after round 1 added 90 hits / 0 misses.
        t.observe(2, 100, 10);
        // Round 2 adds 5 hits / 15 misses before the report.
        let snap = t.snapshot(105, 25);
        assert_eq!(
            snap,
            vec![
                PoolRound {
                    round: 1,
                    hits: 90,
                    misses: 0,
                    hit_rate: 1.0,
                },
                PoolRound {
                    round: 2,
                    hits: 5,
                    misses: 15,
                    hit_rate: 0.25,
                },
            ],
            "round 2 must reflect only round 2's pool traffic"
        );
        // Repeated observes within the open round do not move its base.
        t.observe(2, 200, 40);
        let snap = t.snapshot(300, 50);
        assert_eq!(snap[1].hits, 200);
        assert_eq!(snap[1].misses, 40);
    }

    #[test]
    fn pool_round_tracker_is_idle_safe_and_live_snapshot_does_not_close() {
        let mut t = PoolRoundTracker::default();
        assert!(t.snapshot(7, 7).is_empty(), "no rounds, no windows");
        t.observe(4, 7, 7);
        // A live report half-way through the window ...
        assert_eq!(
            t.snapshot(9, 7),
            vec![PoolRound {
                round: 4,
                hits: 2,
                misses: 0,
                hit_rate: 1.0,
            }]
        );
        // ... must not end it: later traffic still lands in round 4.
        assert_eq!(t.snapshot(12, 8)[0].hits, 5);
        // An idle window reports a 0 rate, not NaN.
        t.observe(5, 12, 8);
        let snap = t.snapshot(12, 8);
        assert_eq!(snap[1].hit_rate, 0.0);
    }

    #[test]
    fn report_roundtrips_through_json_and_displays() {
        let rep = ServingReport {
            transport: "tcp".into(),
            workers: 2,
            requests: 10,
            responses: 8,
            shed_busy: 1,
            rejected_bad: 1,
            bytes_in: 4000,
            bytes_out: 3000,
            elapsed_s: 2.0,
            qps: 4.0,
            served_rounds: vec![RoundServed { round: 3, count: 8 }],
            pool_rounds: vec![PoolRound {
                round: 3,
                hits: 8,
                misses: 2,
                hit_rate: 0.8,
            }],
            ..ServingReport::default()
        };
        // `fedml adapt-serve --json` writes this document; nothing
        // parses it back into a `ServingReport`, so the round trip is
        // through the generic tree.
        let json = serde_json::to_string(&rep).unwrap();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value, rep.to_value());
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys.join(" "),
            "transport workers requests responses shed_busy rejected_unavailable rejected_bad decode_errors dropped_replies bytes_in bytes_out elapsed_s qps latency served_rounds pool pool_rounds"
        );
        assert_eq!(value.get("responses"), Some(&serde::Value::UInt(8)));
        let round = &value.get("pool_rounds").unwrap().as_array().unwrap()[0];
        assert_eq!(round.get("hit_rate"), Some(&serde::Value::Float(0.8)));
        assert_eq!(rep.rejected_total(), 2);
        assert_eq!(rep.bytes_out as f64 / rep.responses as f64, 375.0);
        let shown = rep.to_string();
        assert!(shown.contains("8 responses"));
        assert!(shown.contains("r3:8"));
        assert!(shown.contains("pool/round r3:80%"), "{shown}");
    }
}
