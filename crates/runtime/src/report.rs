//! Runtime observability: per-node I/O counters, staleness histogram,
//! rejection counts, and a per-round [`TraceLog`] shared with `fml-sim`.

use serde::Serialize;

use fml_sim::{PoolStats, TraceLog};

use crate::config::AsyncPolicy;
use crate::health::NodeHealthReport;

/// The async aggregation policy a run executed under, as recorded in
/// the report — decay family, staleness bound, and the buffered/adaptive
/// modes.
/// Present only on async-mode reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AsyncPolicyReport {
    /// Decay family name: `"poly"`, `"hinge"`/`"hinge:<knee>"`, or
    /// `"const"`.
    pub decay: String,
    /// Staleness bound in rounds.
    pub max_staleness: usize,
    /// Semi-async buffer size (1 = per-arrival folds).
    pub buffer_k: usize,
    /// Whether per-node adaptive mixing was on.
    pub adaptive_mix: bool,
}

impl From<&AsyncPolicy> for AsyncPolicyReport {
    fn from(p: &AsyncPolicy) -> Self {
        AsyncPolicyReport {
            decay: p.decay.to_string(),
            max_staleness: p.max_staleness,
            buffer_k: p.buffer_k,
            adaptive_mix: p.adaptive_mix,
        }
    }
}

/// Effective-weight statistics for one node's accepted async updates:
/// what actually multiplied into the global fold after staleness decay
/// and (when enabled) adaptive mixing.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct NodeWeightStat {
    /// Node id (index into the task list).
    pub node: usize,
    /// Updates from this node folded into the global model.
    pub applied: u64,
    /// Mean effective weight across those folds (0 when none).
    pub mean_weight: f64,
    /// Smallest effective weight observed (0 when none).
    pub min_weight: f64,
    /// Largest effective weight observed (0 when none).
    pub max_weight: f64,
    /// Final adaptive-mixing quality score `q_i` (1.0 when adaptive
    /// mixing is off or the node was never scored).
    pub quality: f64,
}

/// Frame and byte counters for one node actor, measured at the node
/// (received broadcasts, sent updates).
///
/// Over socket transports the byte counts are *physical*: encoded frame
/// plus the 4-byte length prefix, counted at the platform's hub. Over
/// the in-process channel transport they are the encoded frame alone
/// (there is no prefix on a channel).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct NodeIo {
    /// Node id (index into the task list).
    pub node: usize,
    /// Update frames the node encoded and sent.
    pub frames_sent: u64,
    /// Broadcast frames the node received and decoded.
    pub frames_received: u64,
    /// Bytes of encoded update frames sent.
    pub bytes_sent: u64,
    /// *Logical* bytes of the updates sent: what the same updates would
    /// have cost as dense tag-2 frames. Equal to
    /// [`bytes_sent`](Self::bytes_sent) under the `none`/`dense` codecs
    /// (modulo framing overhead); larger under a compressing codec —
    /// the gap is the uplink compression win.
    pub bytes_sent_logical: u64,
    /// Bytes of the curve-terms trailers among the updates sent,
    /// counted in [`bytes_sent`](Self::bytes_sent) and
    /// [`bytes_sent_logical`](Self::bytes_sent_logical) alike.
    pub trailer_bytes_sent: u64,
    /// Bytes of encoded broadcast frames received.
    pub bytes_received: u64,
    /// Times this peer's link was replaced by a reconnect (socket
    /// transports only; always 0 in-process).
    pub reconnects: u64,
    /// Frames this node received and could not use: undecodable bytes,
    /// or a valid frame that is not a broadcast.
    pub decode_errors: u64,
}

/// What the platform observed over a whole run. The per-round view is
/// [`fml_sim::RoundTrace`], the row the simulator's runs carry too.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeReport {
    /// `"barrier"` or `"async"`.
    pub mode: String,
    /// Transport family the platform⇄node links used: `"channel"`,
    /// `"tcp"`, or `"uds"`.
    pub transport: String,
    /// Worker OS threads the node actors ran on (0 when nodes are
    /// remote processes reached over a socket transport).
    pub threads: usize,
    /// Update codec the node actors encoded with (`"none"`, `"dense"`,
    /// `"quant8"`, `"topk32"`, …).
    pub update_codec: String,
    /// Per-node frame/byte counters, indexed by node id.
    pub per_node: Vec<NodeIo>,
    /// `staleness_hist[s]` = accepted updates applied at staleness `s`.
    /// Never longer than `max_staleness + 1` — the bound is structural.
    pub staleness_hist: Vec<u64>,
    /// Updates dropped for exceeding `max_staleness`.
    pub rejected_stale: u64,
    /// Updates dropped by validation (non-finite screening).
    pub rejected_invalid: u64,
    /// Updates dropped because the policy produced a non-finite mixing
    /// weight (a mis-constructed policy that bypassed validation).
    pub rejected_nonfinite_weight: u64,
    /// Times the semi-async buffer reached `k` and folded its contents
    /// into the global model (includes the end-of-run partial flush).
    /// 0 in per-arrival mode.
    pub buffered_flushes: u64,
    /// The async policy this run executed under; `None` in barrier mode.
    pub async_policy: Option<AsyncPolicyReport>,
    /// Per-node effective-weight statistics for async folds, indexed by
    /// node id. Empty in barrier mode.
    pub node_weight_stats: Vec<NodeWeightStat>,
    /// Frames no parser ([`fml_sim::MessageView`], [`fml_sim::CompressedView`])
    /// accepted on either side,
    /// plus uplink updates whose length is not the model's.
    pub decode_errors: u64,
    /// Frames that never reached their consumer: full or disconnected
    /// socket queues, uploads still in flight at shutdown, and physical
    /// arrivals after their round was already closed out.
    pub undelivered: u64,
    /// `broadcast_drops[r]` = broadcast frames dropped in round `r + 1`
    /// (full or dead socket queues at `broadcast` time). Sums into
    /// [`undelivered`](Self::undelivered) together with the other drop
    /// sources.
    pub broadcast_drops: Vec<u64>,
    /// Rounds flagged degraded (missing reporters, rejected updates, or
    /// a skipped aggregation).
    pub degraded_rounds: usize,
    /// Recovery cycles consumed: each one rolled the global back to the
    /// last good checkpoint and excluded the blamed nodes.
    pub recoveries: u64,
    /// Times the global was restored from the last good checkpoint
    /// (one per recovery cycle).
    pub rollbacks: u64,
    /// Nodes permanently excluded by the recovery loop, in id order.
    pub excluded_nodes: Vec<usize>,
    /// Final per-node health states and their transition histories.
    pub node_health: Vec<NodeHealthReport>,
    /// Disk checkpoints written to `--checkpoint-dir` during this run.
    pub checkpoints_written: u64,
    /// Tasks whose curve terms the platform took from its node's report
    /// instead of evaluating them (one per task and recorded round).
    pub curve_terms_reported: u64,
    /// Tasks whose curve terms the platform evaluated itself: all of
    /// them for a stepper that yields none, and otherwise the nodes that
    /// did not report — or reported a non-finite term — and every task
    /// of the last round.
    pub curve_terms_evaluated: u64,
    /// When the run resumed from a disk checkpoint: the first round it
    /// actually executed.
    pub resumed_at_round: Option<usize>,
    /// Frame-pool counters at the end of the run. The pool is shared
    /// process-wide ([`fml_sim::FramePool::global`]), so these reflect
    /// every pooled encode/recycle in the process, not just this run's.
    pub pool: PoolStatsReport,
    /// Per-round trace in `fml-sim`'s flight-recorder format.
    pub trace: TraceLog,
}

/// Serializable snapshot of [`fml_sim::PoolStats`]: how well the frame
/// pool recycled buffers (acquire hits vs misses) and how much storage
/// it held at peak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct PoolStatsReport {
    /// Acquires served from a recycled buffer.
    pub hits: u64,
    /// Acquires that had to allocate fresh storage.
    pub misses: u64,
    /// Buffers returned to the pool for reuse.
    pub returns: u64,
    /// Peak buffers resident in the pool at once; never more than
    /// `misses`, since the pool holds only what it allocated.
    pub high_water: u64,
    /// `hits / (hits + misses)`, 0 when nothing was acquired.
    pub hit_rate: f64,
}

impl From<PoolStats> for PoolStatsReport {
    fn from(s: PoolStats) -> Self {
        PoolStatsReport {
            hits: s.hits as u64,
            misses: s.misses as u64,
            returns: s.returns as u64,
            high_water: s.high_water as u64,
            hit_rate: s.hit_rate(),
        }
    }
}

impl RuntimeReport {
    /// Total frames moved (both directions, node-side count).
    pub fn total_frames(&self) -> u64 {
        self.per_node
            .iter()
            .map(|n| n.frames_sent + n.frames_received)
            .sum()
    }

    /// Total bytes moved (both directions, node-side count).
    pub fn total_bytes(&self) -> u64 {
        self.per_node
            .iter()
            .map(|n| n.bytes_sent + n.bytes_received)
            .sum()
    }

    /// Total *physical* uplink bytes (update frames as encoded).
    pub fn uplink_bytes(&self) -> u64 {
        self.per_node.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total *logical* uplink bytes: what the same updates would have
    /// cost dense.
    pub fn uplink_bytes_logical(&self) -> u64 {
        self.per_node.iter().map(|n| n.bytes_sent_logical).sum()
    }

    /// Accepted updates across all staleness levels.
    pub fn accepted_updates(&self) -> u64 {
        self.staleness_hist.iter().sum()
    }
}

/// FNV-1a 64 digest of a parameter vector's exact f64 bit patterns,
/// rendered as 16 hex digits.
///
/// Two runs produce the same hash iff their parameters are bitwise
/// identical — the cross-process analogue of the in-process
/// `assert_eq!(params_a, params_b)` used by the conformance suite, and
/// cheap enough to embed in every CLI JSON report.
pub fn param_hash(params: &[f64]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RuntimeReport {
        RuntimeReport {
            mode: "async".into(),
            transport: "channel".into(),
            threads: 4,
            update_codec: "topk16".into(),
            per_node: vec![
                NodeIo {
                    node: 0,
                    frames_sent: 10,
                    frames_received: 10,
                    bytes_sent: 1000,
                    bytes_sent_logical: 4000,
                    trailer_bytes_sent: 0,
                    bytes_received: 990,
                    reconnects: 0,
                    decode_errors: 0,
                },
                NodeIo {
                    node: 1,
                    frames_sent: 8,
                    frames_received: 10,
                    bytes_sent: 800,
                    bytes_sent_logical: 3200,
                    trailer_bytes_sent: 0,
                    bytes_received: 990,
                    reconnects: 1,
                    decode_errors: 0,
                },
            ],
            staleness_hist: vec![12, 4, 0, 2],
            rejected_stale: 3,
            rejected_invalid: 1,
            rejected_nonfinite_weight: 0,
            buffered_flushes: 4,
            async_policy: Some(AsyncPolicyReport::from(&AsyncPolicy {
                buffer_k: 2,
                ..AsyncPolicy::default()
            })),
            node_weight_stats: vec![NodeWeightStat {
                node: 0,
                applied: 10,
                mean_weight: 0.4,
                min_weight: 0.1,
                max_weight: 0.5,
                quality: 1.0,
            }],
            decode_errors: 0,
            undelivered: 2,
            broadcast_drops: vec![0, 1, 0, 1],
            degraded_rounds: 1,
            recoveries: 1,
            rollbacks: 1,
            excluded_nodes: vec![1],
            node_health: Vec::new(),
            checkpoints_written: 2,
            curve_terms_reported: 30,
            curve_terms_evaluated: 10,
            resumed_at_round: None,
            pool: PoolStatsReport {
                hits: 90,
                misses: 10,
                returns: 95,
                high_water: 6,
                hit_rate: 0.9,
            },
            trace: TraceLog::new(),
        }
    }

    #[test]
    fn totals_and_staleness_summaries() {
        let r = sample();
        assert_eq!(r.total_frames(), 38);
        assert_eq!(r.total_bytes(), 3780);
        assert_eq!(r.accepted_updates(), 18);
        assert_eq!(r.staleness_hist.iter().rposition(|&c| c > 0), Some(3));
        let empty = RuntimeReport::default();
        assert_eq!(empty.staleness_hist.iter().rposition(|&c| c > 0), None);
    }

    #[test]
    fn uplink_compression_ratio_from_logical_counters() {
        // The codec's ratio, `logical / physical` with the curve-terms
        // trailers left out of both sides.
        let ratio = |r: &RuntimeReport| {
            let trailers: u64 = r.per_node.iter().map(|n| n.trailer_bytes_sent).sum();
            (r.uplink_bytes_logical() - trailers) as f64 / (r.uplink_bytes() - trailers) as f64
        };
        let r = sample();
        assert_eq!(r.uplink_bytes(), 1800);
        assert_eq!(r.uplink_bytes_logical(), 7200);
        assert_eq!(ratio(&r), 4.0);
        // Trailers count on both sides of the ledger — each node's, as
        // it counted them when sending, also those of frames its link
        // then dropped on the way — so the ratio can take them out.
        let mut trailed = sample();
        for io in &mut trailed.per_node {
            io.trailer_bytes_sent = 16 * io.frames_sent;
            io.bytes_sent += io.trailer_bytes_sent;
            io.bytes_sent_logical += io.trailer_bytes_sent;
        }
        assert_eq!(trailed.uplink_bytes(), 1800 + 288);
        assert_eq!(trailed.uplink_bytes_logical(), 7200 + 288);
        assert_eq!(ratio(&trailed), 4.0);
        // Pre-codec reports (no logical counters) have no logical side.
        let mut old = sample();
        for io in &mut old.per_node {
            io.bytes_sent_logical = 0;
        }
        assert_eq!(old.uplink_bytes_logical(), 0);
        let empty = RuntimeReport::default();
        assert_eq!((empty.uplink_bytes(), empty.uplink_bytes_logical()), (0, 0));
    }

    /// `fedml runtime --node … --json` writes a `NodeIo`: its key set is
    /// what downstream greps see.
    #[test]
    fn node_io_json_keys_are_pinned() {
        let value = sample().per_node[1].to_value();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys.join(" "),
            "node frames_sent frames_received bytes_sent bytes_sent_logical trailer_bytes_sent bytes_received reconnects decode_errors"
        );
        assert_eq!(
            value.get("bytes_sent_logical"),
            Some(&serde::Value::UInt(3200))
        );
    }

    #[test]
    fn async_policy_report_captures_the_policy() {
        let p = AsyncPolicy {
            decay: crate::config::StalenessDecay::Hinge { knee: 2 },
            buffer_k: 4,
            adaptive_mix: true,
            ..AsyncPolicy::default()
        };
        let rep = AsyncPolicyReport::from(&p);
        assert_eq!(rep.decay, "hinge:2");
        assert_eq!(rep.buffer_k, 4);
        assert!(rep.adaptive_mix);
        assert_eq!(rep.max_staleness, 4);
    }

    #[test]
    fn pool_stats_convert_losslessly() {
        let s = fml_sim::FramePool::new().stats();
        let rep = PoolStatsReport::from(s);
        assert_eq!(rep.hits, 0);
        assert_eq!(rep.hit_rate, 0.0);
    }

    #[test]
    fn param_hash_is_bitwise() {
        let a = param_hash(&[1.0, -2.5, 0.0]);
        assert_eq!(a.len(), 16);
        assert_eq!(a, param_hash(&[1.0, -2.5, 0.0]));
        assert_ne!(a, param_hash(&[1.0, -2.5, -0.0])); // sign bit differs
        assert_ne!(a, param_hash(&[1.0, -2.5]));
        assert_ne!(param_hash(&[]), param_hash(&[0.0]));
    }
}
