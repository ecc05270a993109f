//! Run reports: what the `fedml` binary prints and can dump as JSON.

use fml_data::FederationStats;
use serde::Serialize;
use std::fmt;

/// Training-phase summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainReport {
    /// Communication rounds executed.
    pub comm_rounds: usize,
    /// Local iterations executed (per node).
    pub local_iterations: usize,
    /// Meta loss at the first recorded point.
    pub initial_meta_loss: Option<f64>,
    /// Meta loss at the last recorded point.
    pub final_meta_loss: Option<f64>,
}

impl TrainReport {
    /// Extracts the summary from a training output.
    pub fn from_output(out: &fml_core::TrainOutput) -> Self {
        TrainReport {
            comm_rounds: out.comm_rounds,
            local_iterations: out.local_iterations,
            initial_meta_loss: out.history.first().map(|r| r.meta_loss),
            final_meta_loss: out.final_meta_loss(),
        }
    }
}

/// Simulated-network summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    /// Total payload bytes in both directions.
    pub payload_bytes: u64,
    /// Messages exchanged.
    pub messages: u64,
    /// Retransmitted frames.
    pub retransmissions: u64,
    /// Simulated wall clock (comm + compute critical paths).
    pub wall_clock_s: f64,
}

impl SimReport {
    /// Extracts the summary from a simulator output.
    pub fn from_output(sim: &fml_sim::SimOutput) -> Self {
        SimReport {
            payload_bytes: sim.comm.total_bytes(),
            messages: sim.comm.messages,
            retransmissions: sim.comm.retransmissions,
            wall_clock_s: sim.wall_clock_s(),
        }
    }
}

/// Actor-runtime summary (the `runtime` subcommand).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RuntimeSummary {
    /// `"barrier"` or `"async"`.
    pub mode: String,
    /// Transport the platform⇄node links used: `"channel"`, `"tcp"`, or
    /// `"uds"`.
    pub transport: String,
    /// FNV-1a 64 hex digest of the final parameters' exact bit
    /// patterns; equal hashes ⇔ bitwise-identical models, across
    /// processes.
    pub param_hash: String,
    /// Worker OS threads the node actors ran on (0 when the nodes were
    /// remote processes).
    pub threads: usize,
    /// Wire frames moved in both directions (node-side count).
    pub frames: u64,
    /// Encoded bytes moved in both directions.
    pub bytes: u64,
    /// Update codec the node actors encoded with (`"none"`, `"quant8"`,
    /// `"topk32"`, …).
    pub update_codec: String,
    /// Physical uplink bytes (update frames as encoded).
    pub uplink_bytes: u64,
    /// Logical uplink bytes: what the same updates would have cost as
    /// dense frames. The `logical / physical` ratio is the uplink
    /// compression win.
    pub uplink_bytes_logical: u64,
    /// Updates folded into the global model.
    pub accepted_updates: u64,
    /// `staleness_hist[s]` = accepted updates applied at staleness `s`.
    pub staleness_hist: Vec<u64>,
    /// Updates dropped for exceeding the staleness bound.
    pub rejected_stale: u64,
    /// Updates dropped by validation screening.
    pub rejected_invalid: u64,
    /// Updates dropped because the async policy produced a non-finite
    /// mixing weight.
    pub rejected_nonfinite_weight: u64,
    /// Semi-async buffer flushes (0 in per-arrival mode).
    pub buffered_flushes: u64,
    /// The async aggregation policy the run executed under (absent for
    /// barrier runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub async_policy: Option<fml_runtime::AsyncPolicyReport>,
    /// Per-node effective-weight statistics for async folds.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub node_weight_stats: Vec<fml_runtime::NodeWeightStat>,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Frames dropped, in flight at shutdown, or past their round.
    pub undelivered: u64,
    /// Rounds flagged degraded.
    pub degraded_rounds: usize,
    /// Recovery cycles (rollback + exclusion) the platform executed.
    pub recoveries: u64,
    /// Times the global was restored from the last good checkpoint.
    pub rollbacks: u64,
    /// Nodes permanently excluded by the recovery loop.
    pub excluded_nodes: Vec<usize>,
    /// Disk checkpoints written to the checkpoint directory.
    pub checkpoints_written: u64,
    /// Tasks whose curve terms came from their node's report.
    pub curve_terms_reported: u64,
    /// Tasks whose curve terms the platform evaluated itself.
    pub curve_terms_evaluated: u64,
    /// First round executed after resuming from a disk checkpoint.
    pub resumed_at_round: Option<usize>,
    /// Frame-pool counters at the end of the run (hits, misses,
    /// high-water; process-wide pool).
    pub pool: fml_runtime::PoolStatsReport,
}

impl RuntimeSummary {
    /// Extracts the summary from a runtime report.
    pub fn from_report(report: &fml_runtime::RuntimeReport) -> Self {
        RuntimeSummary {
            mode: report.mode.clone(),
            transport: report.transport.clone(),
            param_hash: String::new(),
            threads: report.threads,
            frames: report.total_frames(),
            bytes: report.total_bytes(),
            update_codec: report.update_codec.clone(),
            uplink_bytes: report.uplink_bytes(),
            uplink_bytes_logical: report.uplink_bytes_logical(),
            accepted_updates: report.accepted_updates(),
            staleness_hist: report.staleness_hist.clone(),
            rejected_stale: report.rejected_stale,
            rejected_invalid: report.rejected_invalid,
            rejected_nonfinite_weight: report.rejected_nonfinite_weight,
            buffered_flushes: report.buffered_flushes,
            async_policy: report.async_policy.clone(),
            node_weight_stats: report.node_weight_stats.clone(),
            decode_errors: report.decode_errors,
            undelivered: report.undelivered,
            degraded_rounds: report.degraded_rounds,
            recoveries: report.recoveries,
            rollbacks: report.rollbacks,
            excluded_nodes: report.excluded_nodes.clone(),
            checkpoints_written: report.checkpoints_written,
            curve_terms_reported: report.curve_terms_reported,
            curve_terms_evaluated: report.curve_terms_evaluated,
            resumed_at_round: report.resumed_at_round,
            pool: report.pool,
        }
    }
}

/// One target-node adaptation round-trip (the `adapt` subcommand):
/// what the service (or an offline checkpoint) personalized, and how
/// much the query loss moved.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdaptReport {
    /// Target node id the support samples came from.
    pub target: usize,
    /// `"tcp"`, `"uds"`, or `"offline"` — where the adaptation ran.
    pub source: String,
    /// Support samples actually sent (after the split clamps K).
    pub k: usize,
    /// Gradient steps requested.
    pub steps: usize,
    /// Inner learning rate used.
    pub alpha: f64,
    /// Training round of the global that served the reply (absent in
    /// offline mode when the checkpoint carries no round metadata).
    pub global_round: Option<u32>,
    /// Query loss under the global, before adaptation.
    pub pre_loss: f64,
    /// Query loss under the personalized parameters.
    pub post_loss: f64,
    /// Query accuracy before adaptation.
    pub pre_accuracy: f64,
    /// Query accuracy after adaptation.
    pub post_accuracy: f64,
    /// FNV-1a 64 digest of the personalized parameters' exact bits —
    /// equal hashes ⇔ bitwise-identical adaptation, across processes.
    pub param_hash: String,
}

impl fmt::Display for AdaptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "adapt      target {} via {}, K = {}, {} steps @ alpha {}",
            self.target, self.source, self.k, self.steps, self.alpha
        )?;
        if let Some(round) = self.global_round {
            write!(f, ", global round {round}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "           query loss {:.4} -> {:.4}, accuracy {:.3} -> {:.3}",
            self.pre_loss, self.post_loss, self.pre_accuracy, self.post_accuracy
        )?;
        writeln!(f, "           param hash {}", self.param_hash)
    }
}

/// Target-adaptation summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvalReport {
    /// Number of target nodes evaluated.
    pub targets: usize,
    /// Support size K.
    pub k: usize,
    /// Adaptation steps taken.
    pub adapt_steps: usize,
    /// Loss before any adaptation.
    pub initial_loss: f64,
    /// Accuracy before any adaptation.
    pub initial_accuracy: f64,
    /// Loss after adaptation.
    pub final_loss: f64,
    /// Accuracy after adaptation.
    pub final_accuracy: f64,
    /// `(ξ, loss, accuracy)` under FGSM when requested.
    pub adversarial: Option<(f64, f64, f64)>,
}

/// Full run report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// Dataset statistics (Table-I style).
    pub dataset: FederationStats,
    /// Algorithm that ran.
    pub algorithm: String,
    /// Training summary.
    pub training: TrainReport,
    /// Simulated-network summary, when a `simulate` section was present.
    pub simulation: Option<SimReport>,
    /// Actor-runtime summary, when run via the `runtime` subcommand
    /// (`null` otherwise).
    pub runtime: Option<RuntimeSummary>,
    /// Target evaluation.
    pub eval: EvalReport,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dataset    {} — {} nodes, {:.1} ± {:.1} samples/node",
            self.dataset.name,
            self.dataset.nodes,
            self.dataset.mean_samples,
            self.dataset.stdev_samples
        )?;
        writeln!(f, "algorithm  {}", self.algorithm)?;
        write!(
            f,
            "training   {} rounds, {} local iterations",
            self.training.comm_rounds, self.training.local_iterations
        )?;
        if let (Some(a), Some(b)) = (
            self.training.initial_meta_loss,
            self.training.final_meta_loss,
        ) {
            write!(f, ", meta loss {a:.4} -> {b:.4}")?;
        }
        writeln!(f)?;
        if let Some(sim) = &self.simulation {
            writeln!(
                f,
                "network    {:.2} MB payload, {} msgs, {} retx, {:.1}s simulated wall clock",
                sim.payload_bytes as f64 / 1e6,
                sim.messages,
                sim.retransmissions,
                sim.wall_clock_s
            )?;
        }
        if let Some(rt) = &self.runtime {
            let transport = if rt.transport.is_empty() {
                "channel"
            } else {
                &rt.transport
            };
            writeln!(
                f,
                "runtime    {} mode over {transport}, {} threads, {} frames / {:.2} MB on the wire",
                rt.mode,
                rt.threads,
                rt.frames,
                rt.bytes as f64 / 1e6
            )?;
            if !rt.param_hash.is_empty() {
                writeln!(f, "           param hash {}", rt.param_hash)?;
            }
            if !rt.update_codec.is_empty() && rt.update_codec != "none" {
                write!(f, "           codec {}", rt.update_codec)?;
                if rt.uplink_bytes > 0 && rt.uplink_bytes_logical > 0 {
                    write!(
                        f,
                        ": uplink {:.2} MB -> {:.2} MB ({:.1}x)",
                        rt.uplink_bytes_logical as f64 / 1e6,
                        rt.uplink_bytes as f64 / 1e6,
                        rt.uplink_bytes_logical as f64 / rt.uplink_bytes as f64
                    )?;
                }
                writeln!(f)?;
            }
            writeln!(
                f,
                "           {} accepted ({} stale, {} invalid, {} undelivered), {} degraded rounds",
                rt.accepted_updates,
                rt.rejected_stale,
                rt.rejected_invalid,
                rt.undelivered,
                rt.degraded_rounds
            )?;
            if rt.staleness_hist.len() > 1 {
                let hist: Vec<String> = rt
                    .staleness_hist
                    .iter()
                    .enumerate()
                    .map(|(s, c)| format!("s{s}:{c}"))
                    .collect();
                writeln!(f, "           staleness {}", hist.join(" "))?;
            }
            if let Some(p) = &rt.async_policy {
                write!(
                    f,
                    "           policy {} decay, max staleness {}",
                    p.decay, p.max_staleness
                )?;
                if p.buffer_k > 1 {
                    write!(f, ", buffer {} ({} flushes)", p.buffer_k, rt.buffered_flushes)?;
                }
                if p.adaptive_mix {
                    write!(f, ", adaptive mix")?;
                }
                writeln!(f)?;
                if rt.rejected_nonfinite_weight > 0 {
                    writeln!(
                        f,
                        "           {} updates rejected for non-finite weight",
                        rt.rejected_nonfinite_weight
                    )?;
                }
                let folded: Vec<String> = rt
                    .node_weight_stats
                    .iter()
                    .filter(|s| s.applied > 0)
                    .map(|s| format!("n{}:{:.3}", s.node, s.mean_weight))
                    .collect();
                if !folded.is_empty() {
                    writeln!(f, "           mean fold weight {}", folded.join(" "))?;
                }
            }
            if rt.recoveries > 0 || rt.rollbacks > 0 || !rt.excluded_nodes.is_empty() {
                let excluded: Vec<String> =
                    rt.excluded_nodes.iter().map(|n| n.to_string()).collect();
                writeln!(
                    f,
                    "           recovery {} cycles, {} rollbacks, excluded [{}]",
                    rt.recoveries,
                    rt.rollbacks,
                    excluded.join(" ")
                )?;
            }
            if rt.checkpoints_written > 0 || rt.resumed_at_round.is_some() {
                write!(f, "           {} checkpoints", rt.checkpoints_written)?;
                if let Some(round) = rt.resumed_at_round {
                    write!(f, ", resumed at round {round}")?;
                }
                writeln!(f)?;
            }
            if rt.pool.hits + rt.pool.misses > 0 {
                writeln!(
                    f,
                    "           pool {:.0}% hit rate ({} hits / {} misses), high water {}",
                    rt.pool.hit_rate * 100.0,
                    rt.pool.hits,
                    rt.pool.misses,
                    rt.pool.high_water
                )?;
            }
        }
        writeln!(
            f,
            "targets    {} nodes, K = {}, {} adaptation steps",
            self.eval.targets, self.eval.k, self.eval.adapt_steps
        )?;
        writeln!(
            f,
            "           loss {:.4} -> {:.4}, accuracy {:.3} -> {:.3}",
            self.eval.initial_loss,
            self.eval.final_loss,
            self.eval.initial_accuracy,
            self.eval.final_accuracy
        )?;
        if let Some((xi, loss, acc)) = self.eval.adversarial {
            writeln!(
                f,
                "adversary  FGSM xi = {xi}: loss {loss:.4}, accuracy {acc:.3}"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            dataset: FederationStats {
                name: "Synthetic(0.5,0.5)".into(),
                nodes: 30,
                total_samples: 720,
                mean_samples: 24.0,
                stdev_samples: 9.0,
            },
            algorithm: "FedML".into(),
            training: TrainReport {
                comm_rounds: 60,
                local_iterations: 300,
                initial_meta_loss: Some(1.6),
                final_meta_loss: Some(0.7),
            },
            simulation: Some(SimReport {
                payload_bytes: 2_400_000,
                messages: 720,
                retransmissions: 4,
                wall_clock_s: 12.5,
            }),
            runtime: None,
            eval: EvalReport {
                targets: 6,
                k: 5,
                adapt_steps: 10,
                initial_loss: 1.4,
                initial_accuracy: 0.3,
                final_loss: 0.8,
                final_accuracy: 0.7,
                adversarial: Some((0.1, 1.1, 0.55)),
            },
        }
    }

    #[test]
    fn display_contains_all_sections() {
        let text = sample().to_string();
        for needle in [
            "dataset",
            "algorithm",
            "training",
            "network",
            "targets",
            "adversary",
            "FedML",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }

    #[test]
    fn display_without_optional_sections() {
        let mut r = sample();
        r.simulation = None;
        r.eval.adversarial = None;
        let text = r.to_string();
        assert!(!text.contains("network"));
        assert!(!text.contains("adversary"));
    }

    /// The keys of a serialized struct, in emission order.
    fn keys(value: &serde::Value) -> String {
        let map = value.as_map().expect("a struct serializes as a map");
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        keys.join(" ")
    }

    /// The tree `report` serializes to, checked to survive its own JSON
    /// text (no path parses a report back into its type; scripts and
    /// notebooks read the document).
    fn through_json(report: &impl Serialize) -> serde::Value {
        let json = serde_json::to_string(report).unwrap();
        let back: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report.to_value());
        back
    }

    /// What `fedml run --json` writes: scripts grep these keys.
    #[test]
    fn json_roundtrip() {
        let value = through_json(&sample());
        assert_eq!(
            keys(&value),
            "dataset algorithm training simulation runtime eval"
        );
        let section = |name| keys(value.get(name).unwrap());
        assert_eq!(
            section("dataset"),
            "name nodes total_samples mean_samples stdev_samples"
        );
        assert_eq!(
            section("training"),
            "comm_rounds local_iterations initial_meta_loss final_meta_loss"
        );
        assert_eq!(
            section("simulation"),
            "payload_bytes messages retransmissions wall_clock_s"
        );
        assert_eq!(
            section("eval"),
            "targets k adapt_steps initial_loss initial_accuracy final_loss final_accuracy adversarial"
        );
        // A run without the runtime still names the section.
        assert_eq!(value.get("runtime"), Some(&serde::Value::Null));
        let rounds = value.get("training").unwrap().get("comm_rounds");
        assert_eq!(rounds, Some(&serde::Value::UInt(60)));
    }

    #[test]
    fn runtime_section_displays_and_roundtrips() {
        let mut r = sample();
        r.runtime = Some(RuntimeSummary {
            mode: "async".into(),
            transport: "tcp".into(),
            param_hash: "00c0ffee00c0ffee".into(),
            threads: 4,
            frames: 240,
            bytes: 480_000,
            update_codec: "topk8".into(),
            uplink_bytes: 60_000,
            uplink_bytes_logical: 240_000,
            accepted_updates: 110,
            staleness_hist: vec![90, 15, 5],
            rejected_stale: 6,
            rejected_invalid: 1,
            rejected_nonfinite_weight: 2,
            buffered_flushes: 55,
            async_policy: Some(fml_runtime::AsyncPolicyReport {
                decay: "hinge:1".into(),
                max_staleness: 4,
                buffer_k: 2,
                adaptive_mix: true,
            }),
            node_weight_stats: vec![
                fml_runtime::NodeWeightStat {
                    node: 0,
                    applied: 55,
                    mean_weight: 0.421,
                    min_weight: 0.1,
                    max_weight: 0.5,
                    quality: 0.8,
                },
                fml_runtime::NodeWeightStat {
                    node: 1,
                    applied: 0,
                    ..Default::default()
                },
            ],
            decode_errors: 0,
            undelivered: 3,
            degraded_rounds: 2,
            recoveries: 1,
            rollbacks: 1,
            excluded_nodes: vec![2, 3],
            checkpoints_written: 4,
            curve_terms_reported: 36,
            curve_terms_evaluated: 4,
            resumed_at_round: Some(5),
            pool: fml_runtime::PoolStatsReport {
                hits: 75,
                misses: 25,
                returns: 90,
                high_water: 8,
                hit_rate: 0.75,
            },
        });
        let text = r.to_string();
        assert!(text.contains("runtime    async mode over tcp"));
        assert!(text.contains("param hash 00c0ffee00c0ffee"));
        assert!(
            text.contains("codec topk8: uplink 0.24 MB -> 0.06 MB (4.0x)"),
            "missing codec line: {text}"
        );
        assert!(text.contains("staleness s0:90 s1:15 s2:5"));
        assert!(
            text.contains(
                "policy hinge:1 decay, max staleness 4, \
                 buffer 2 (55 flushes), adaptive mix"
            ),
            "missing policy line: {text}"
        );
        assert!(text.contains("2 updates rejected for non-finite weight"));
        assert!(
            text.contains("mean fold weight n0:0.421"),
            "missing weight stats: {text}"
        );
        assert!(
            !text.contains("n1:"),
            "nodes with no folds must not clutter the weight line: {text}"
        );
        assert!(text.contains("recovery 1 cycles, 1 rollbacks, excluded [2 3]"));
        assert!(text.contains("4 checkpoints, resumed at round 5"));
        assert!(text.contains("pool 75% hit rate (75 hits / 25 misses), high water 8"));
        // The CLI tests and smoke scripts read `param_hash`,
        // `transport` and friends out of this section.
        let value = through_json(&r);
        let runtime = value.get("runtime").unwrap();
        assert_eq!(
            keys(runtime),
            "mode transport param_hash threads frames bytes update_codec uplink_bytes uplink_bytes_logical accepted_updates staleness_hist rejected_stale rejected_invalid rejected_nonfinite_weight buffered_flushes async_policy node_weight_stats decode_errors undelivered degraded_rounds recoveries rollbacks excluded_nodes checkpoints_written curve_terms_reported curve_terms_evaluated resumed_at_round pool"
        );
        assert_eq!(
            keys(runtime.get("async_policy").unwrap()),
            "decay max_staleness buffer_k adaptive_mix"
        );
        assert_eq!(
            keys(
                &runtime
                    .get("node_weight_stats")
                    .unwrap()
                    .as_array()
                    .unwrap()[0]
            ),
            "node applied mean_weight min_weight max_weight quality"
        );
        assert_eq!(
            keys(runtime.get("pool").unwrap()),
            "hits misses returns high_water hit_rate"
        );
        assert_eq!(
            runtime.get("param_hash").and_then(serde::Value::as_str),
            Some("00c0ffee00c0ffee")
        );
        // Barrier runs omit the two async-only keys.
        let mut barrier = r;
        let rt = barrier.runtime.as_mut().unwrap();
        rt.async_policy = None;
        rt.node_weight_stats.clear();
        let value = through_json(&barrier);
        let omitted = keys(value.get("runtime").unwrap());
        assert!(!omitted.contains("async_policy") && !omitted.contains("node_weight_stats"));
        assert_eq!(omitted.split(' ').count(), 26);
    }

    #[test]
    fn adapt_report_displays_and_roundtrips() {
        let r = AdaptReport {
            target: 3,
            source: "tcp".into(),
            k: 5,
            steps: 10,
            alpha: 0.05,
            global_round: Some(12),
            pre_loss: 1.4321,
            post_loss: 0.8765,
            pre_accuracy: 0.31,
            post_accuracy: 0.72,
            param_hash: "00c0ffee00c0ffee".into(),
        };
        let text = r.to_string();
        assert!(text.contains("target 3 via tcp"));
        assert!(text.contains("global round 12"));
        assert!(text.contains("loss 1.4321 -> 0.8765"));
        assert!(text.contains("param hash 00c0ffee00c0ffee"));
        let value = through_json(&r);
        assert_eq!(
            keys(&value),
            "target source k steps alpha global_round pre_loss post_loss pre_accuracy post_accuracy param_hash"
        );
        assert_eq!(value.get("global_round"), Some(&serde::Value::UInt(12)));

        let mut offline = r;
        offline.source = "offline".into();
        offline.global_round = None;
        assert!(!offline.to_string().contains("global round"));
    }
}
