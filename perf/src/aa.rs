//! A/A mode: interleaved sets of runs of the same binary, judged by the
//! benchmark's own bounds. If two sets of the same code disagree by
//! more than a bound, the bound (or the run length) is wrong, and no
//! parent-versus-change comparison on that metric means anything.

use std::process::Command;

use serde::Value;

use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use crate::{Declaration, Declared};

/// Metrics that are a function of the seed alone: two runs of one
/// binary on one seed must print the same value, to the last bit.
const EXACT: [&str; 3] = ["rounds_to_target", "wire_bytes_per_round", "target_loss"];

/// Runs one workload in a child process, as the driver does, and
/// returns its metric values in `BENCHMARK.json`'s end-to-end order.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    declared: &[Declared],
) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run of {workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let doc: Value = serde_json::from_str(line).map_err(|e| format!("bad result line: {e}"))?;
    declared
        .iter()
        .map(|d| {
            match doc
                .get("metrics")
                .and_then(|m| m.get(&d.name))
                .and_then(|m| m.get("value"))
            {
                Some(Value::Float(x)) => Ok(*x),
                Some(Value::UInt(n)) => Ok(*n as f64),
                Some(Value::Int(n)) => Ok(*n as f64),
                _ => Err(format!("result line lacks `{}`", d.name)),
            }
        })
        .collect()
}

/// Interleaves `sets` sets of `runs` runs (`ABAB…`; run `i` of every set
/// uses seed `seed + i`) and prints, per workload × metric, each set's
/// median and quartiles, the gap between the first set and each later
/// one, and the bound.
///
/// # Errors
///
/// Names every metric whose later median is worse than the first by
/// more than its bound, whose inter-quartile spread (set-up time aside)
/// exceeds it, or which is a function of the seed alone and differed
/// between two runs on one seed.
pub fn run(
    decl: &Declaration,
    only: Option<&str>,
    sets: usize,
    runs: usize,
    seed: u64,
) -> Result<(), String> {
    let seconds = decl.run_seconds;
    if sets < 2 || runs < 2 {
        return Err("aa needs --sets >= 2 and --runs >= 2".into());
    }
    let declared = &decl.end_to_end;
    let mut broken: Vec<String> = Vec::new();
    for spec in WORKLOADS
        .iter()
        .filter(|s| only.is_none_or(|w| w == s.name))
    {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::with_capacity(runs); declared.len()]; sets];
        for i in 0..runs {
            for set in values.iter_mut() {
                let run = child_run(spec.name, seed + i as u64, seconds, declared)?;
                for (slot, v) in set.iter_mut().zip(run) {
                    slot.push(v);
                }
            }
            eprintln!(
                "aa: {} run {}/{} of {} sets done",
                spec.name,
                i + 1,
                runs,
                sets
            );
        }
        println!("\n{} — {sets} sets x {runs} runs of {seconds} s", spec.name);
        println!("| metric | set | median | q1 | q3 | spread | gap vs set 0 | bound | |");
        println!("|---|---:|---:|---:|---:|---:|---:|---:|---|");
        for (m, d) in declared.iter().enumerate() {
            let bound = d.bound.unwrap_or(f64::INFINITY);
            let first = median(&values[0][m]);
            for (s, set) in values.iter().enumerate() {
                let med = median(&set[m]);
                let (q1, q3) = quartiles(&set[m]);
                let spread = (q3 - q1) / med.abs();
                // Positive when this set reads worse than set 0.
                let gap = if d.higher {
                    (first - med) / first
                } else {
                    (med - first) / first
                };
                let mut verdict = "ok";
                if EXACT.contains(&d.name.as_str()) && set[m] != values[0][m] {
                    verdict = "DIFFERS";
                    broken.push(format!(
                        "{}/{} differs between runs on one seed",
                        spec.name, d.name
                    ));
                }
                if s > 0 && gap > bound {
                    verdict = "GAP";
                    broken.push(format!("{}/{} gap {:.4} > {bound}", spec.name, d.name, gap));
                }
                if d.name != "setup_s" && spread > bound {
                    verdict = "SPREAD";
                    broken.push(format!(
                        "{}/{} spread {:.4} > {bound}",
                        spec.name, d.name, spread
                    ));
                }
                println!(
                    "| {} | {s} | {med:.6} | {q1:.6} | {q3:.6} | {:.2} % | {:+.2} % | {:.0} % | {verdict} |",
                    d.name,
                    spread * 100.0,
                    gap * 100.0,
                    bound * 100.0
                );
            }
        }
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "A/A disagrees beyond the bounds: {}",
            broken.join("; ")
        ))
    }
}
