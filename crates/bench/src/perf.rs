//! Perf-trajectory tracking for the Criterion benches.
//!
//! The `kernels` and `training` bench binaries record their timings and
//! before/after comparisons (sequential vs parallel fan-out) into a
//! single `BENCH_pr1.json` at the repository root, so the performance
//! trajectory is versioned alongside the code it measures.
//! Each binary rewrites only its own section; running one bench never
//! clobbers the other's numbers.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One timed benchmark.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PerfResult {
    /// Benchmark id (`group/name`).
    pub id: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// A before/after pair with the derived speedup.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PerfComparison {
    /// Human-readable comparison name.
    pub name: String,
    /// Id of the baseline (old/sequential) benchmark.
    pub baseline_id: String,
    /// Id of the optimized benchmark.
    pub optimized_id: String,
    /// Baseline ns/iter.
    pub baseline_ns: f64,
    /// Optimized ns/iter.
    pub optimized_ns: f64,
    /// `baseline_ns / optimized_ns` — > 1 means the optimization won.
    pub speedup: f64,
}

/// One bench binary's measurements.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PerfSection {
    /// `std::thread::available_parallelism` on the measuring host —
    /// thread-scaling numbers are meaningless without it.
    pub host_parallelism: usize,
    /// Every timed benchmark in the binary.
    pub results: Vec<PerfResult>,
    /// The tracked before/after comparisons.
    pub comparisons: Vec<PerfComparison>,
}

/// The whole `BENCH_pr1.json` document.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct BenchReport {
    /// Section written by `benches/kernels.rs`.
    pub kernels: Option<PerfSection>,
    /// Section written by `benches/training.rs`.
    pub training: Option<PerfSection>,
}

/// Repository-root path of the tracked report.
pub fn report_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr1.json")
}

/// Repository-root path of an arbitrarily named tracked report
/// (`BENCH_pr3.json` for the runtime benches, …).
pub fn report_path_named(file_name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file_name)
}

/// Writes a single-section report to its own file at the repository
/// root. Unlike [`merge_section`] there is nothing to merge: the file
/// belongs to exactly one bench binary.
///
/// # Panics
///
/// Panics on I/O errors (benches want loud failures, not silently
/// missing reports).
pub fn write_report_named(file_name: &str, section_name: &str, section: PerfSection) {
    let path = report_path_named(file_name);
    std::fs::write(&path, wrap_section(section_name, &section)).expect("write bench report");
    println!("wrote {} section to {}", section_name, path.display());
}

/// Renders a section as a one-key JSON object, matching
/// `BENCH_pr1.json`'s `{ "<section>": {...} }` convention.
pub fn wrap_section(section_name: &str, section: &PerfSection) -> String {
    let json = serde_json::to_string_pretty(section).expect("serialize bench section");
    format!("{{\n  \"{section_name}\": {}\n}}\n", indent_block(&json))
}

fn indent_block(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for (i, line) in json.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str(line);
    }
    out
}

/// Builds a comparison from two measured ids, if both were run (a name
/// filter on the bench binary can exclude either).
pub fn comparison(
    name: &str,
    results: &[PerfResult],
    baseline_id: &str,
    optimized_id: &str,
) -> Option<PerfComparison> {
    let find = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.ns_per_iter);
    let baseline_ns = find(baseline_id)?;
    let optimized_ns = find(optimized_id)?;
    Some(PerfComparison {
        name: name.to_string(),
        baseline_id: baseline_id.to_string(),
        optimized_id: optimized_id.to_string(),
        baseline_ns,
        optimized_ns,
        speedup: baseline_ns / optimized_ns,
    })
}

/// Merges `section` into `BENCH_pr1.json`, preserving the other binary's
/// section.
///
/// # Panics
///
/// Panics when `name` is not `"kernels"` or `"training"`, or on I/O
/// errors (benches want loud failures, not silently missing reports).
pub fn merge_section(name: &str, section: PerfSection) {
    let path = report_path();
    let mut report: BenchReport = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    match name {
        "kernels" => report.kernels = Some(section),
        "training" => report.training = Some(section),
        other => panic!("unknown bench section {other:?}"),
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(&path, json + "\n").expect("write BENCH_pr1.json");
    println!("wrote {} section to {}", name, path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> Vec<PerfResult> {
        vec![
            PerfResult {
                id: "g/alloc".into(),
                ns_per_iter: 200.0,
            },
            PerfResult {
                id: "g/ws".into(),
                ns_per_iter: 50.0,
            },
        ]
    }

    #[test]
    fn comparison_computes_speedup() {
        let c = comparison("x", &sample_results(), "g/alloc", "g/ws").unwrap();
        assert_eq!(c.speedup, 4.0);
        assert_eq!(c.baseline_ns, 200.0);
    }

    #[test]
    fn comparison_missing_id_is_none() {
        assert!(comparison("x", &sample_results(), "g/alloc", "g/nope").is_none());
    }

    #[test]
    fn report_round_trips_with_one_section() {
        let report = BenchReport {
            kernels: Some(PerfSection {
                host_parallelism: 4,
                results: sample_results(),
                comparisons: vec![],
            }),
            training: None,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn wrapped_section_parses_back() {
        #[derive(Deserialize)]
        struct Doc {
            runtime: PerfSection,
        }
        let section = PerfSection {
            host_parallelism: 8,
            results: sample_results(),
            comparisons: vec![comparison("x", &sample_results(), "g/alloc", "g/ws").unwrap()],
        };
        let doc: Doc = serde_json::from_str(&wrap_section("runtime", &section)).unwrap();
        assert_eq!(doc.runtime, section);
    }
}
