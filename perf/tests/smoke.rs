//! Keeps the benchmark from rotting: every workload runs end to end in
//! `--smoke` size — two short blocks per phase, 200 requests, every
//! verification gate, no timing assertion — and must print exactly the
//! metrics `BENCHMARK.json` declares.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `name` of every entry of the list under `key`.
fn names_under(key: &str) -> Vec<String> {
    let doc: serde::Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    doc.get(key)
        .and_then(serde::Value::as_array)
        .expect("the key holds a list")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(serde::Value::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

/// Runs one smoke pass and returns the result line.
fn smoke(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_fml-perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .expect("a run prints a result line")
        .to_string()
}

/// Smoke-runs every workload and holds its result line against the
/// metric list under `key`.
fn every_workload_prints(trace: &str, key: &str) {
    let workloads = names_under("workloads");
    assert_eq!(workloads.len(), 4);
    let declared = names_under(key);
    for workload in &workloads {
        let line = smoke(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
        let metrics = &line[line.find("\"metrics\"").expect("metrics are printed")..];
        for name in &declared {
            assert!(
                metrics.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} --trace {trace} does not print {name}"
            );
        }
        assert_eq!(
            metrics.matches("\"value\"").count(),
            declared.len(),
            "{workload} --trace {trace} prints a metric BENCHMARK.json does not declare"
        );
    }
}

// Two tests, so the plain and the traced passes run side by side.

#[test]
fn every_workload_verifies_and_prints_the_end_to_end_metrics() {
    every_workload_prints("0", "end_to_end");
}

#[test]
fn every_traced_workload_verifies_and_prints_the_per_layer_metrics() {
    every_workload_prints("1", "per_layer");
}

#[test]
fn a_failed_check_is_named_and_prints_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_fml-perf"))
        .args(["run", "--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown workload"));
}
