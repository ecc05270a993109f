//! `fml-perf`: the repository's one perf series.
//!
//! ```text
//! fml-perf run --workload <name> [--seed S] [--trace [0|1]] [--smoke] [--seconds N]
//! fml-perf all [--seed S] [--trace [0|1]] [--smoke]
//! fml-perf aa  [--sets 2] [--runs N] [--workload <name>] [--seed S]
//! ```
//!
//! Run length is `run_seconds` of `BENCHMARK.json`. `run` also takes
//! `--seconds`, because the benchmark driver's command line ends
//! `--seconds <run_seconds>`; nothing else sets it.
//!
//! `run` measures one workload, verifies its outputs, prints every
//! metric by name and ends with one JSON line (`correct`, `attempted`,
//! `failed`, `metrics`). The metric names, units, directions and bounds
//! are `BENCHMARK.json`'s, compiled in: a run that would print a name
//! the file does not declare refuses to start.

mod aa;
mod alloc;
mod calib;
mod layers;
mod replay;
mod run;
mod serve;
mod stats;
mod trace;
mod train;
mod workloads;

use std::process::ExitCode;

use serde::Value;

use crate::run::{Metric, Options, Outcome};
use crate::workloads::{Spec, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's declaration, read at build time from the repository
/// root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the first median by which the second may be worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, as far as the program needs it.
pub struct Declaration {
    pub run_seconds: f64,
    /// `(name, why)` of every workload, in order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

/// The list under `key`.
fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be a list"))
}

/// The string under `field` of one entry of the list under `key`.
fn text(entry: &Value, key: &str, field: &str) -> String {
    entry
        .get(field)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry of `{key}` lacks `{field}`"))
        .to_string()
}

fn declared_list(doc: &Value, key: &str) -> Vec<Declared> {
    list(doc, key)
        .iter()
        .map(|m| Declared {
            name: text(m, key, "name"),
            unit: text(m, key, "unit"),
            higher: text(m, key, "better") == "higher",
            bound: match m.get("bound") {
                Some(Value::Float(x)) => Some(*x),
                Some(Value::UInt(n)) => Some(*n as f64),
                _ => None,
            },
        })
        .collect()
}

/// Parses the compiled-in `BENCHMARK.json`.
pub fn declaration() -> Declaration {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    let run_seconds = match doc.get("run_seconds") {
        Some(Value::UInt(n)) => *n as f64,
        _ => panic!("BENCHMARK.json: `run_seconds` must be a whole number"),
    };
    let workloads = list(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "workloads", "name"), text(w, "workloads", "why")))
        .collect();
    Declaration {
        run_seconds,
        workloads,
        end_to_end: declared_list(&doc, "end_to_end"),
        per_layer: declared_list(&doc, "per_layer"),
    }
}

/// The program and the declaration must describe the same workloads,
/// and (checked per run) the same metrics with the same units.
fn check_declaration(decl: &Declaration) -> Result<(), String> {
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|s| (s.name, s.why)).collect();
    let theirs: Vec<(&str, &str)> = decl
        .workloads
        .iter()
        .map(|(name, why)| (name.as_str(), why.as_str()))
        .collect();
    if ours != theirs {
        return Err(format!(
            "BENCHMARK.json describes workloads {theirs:?}, the program {ours:?}"
        ));
    }
    Ok(())
}

fn check_metrics(declared: &[Declared], metrics: &[Metric]) -> Result<(), String> {
    let ours: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    let theirs: Vec<(&str, &str)> = declared
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    if ours != theirs {
        let missing: Vec<_> = theirs.iter().filter(|t| !ours.contains(t)).collect();
        let extra: Vec<_> = ours.iter().filter(|o| !theirs.contains(o)).collect();
        return Err(format!(
            "metrics differ from BENCHMARK.json: not produced {missing:?}, not declared {extra:?} (or the order differs)"
        ));
    }
    Ok(())
}

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv
            .first()
            .cloned()
            .ok_or("missing command: run | all | aa")?,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 5,
    };
    let mut it = argv[1..].iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{name}: cannot read `{text}`"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--sets" => args.sets = number("--sets", value("--sets")?)?,
            "--runs" => args.runs = number("--runs", value("--runs")?)?,
            "--smoke" => args.smoke = true,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The result line the driver reads: last line of standard output.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn print_outcome(spec: &Spec, opt: &Options, outcome: &Outcome) {
    println!(
        "{} seed {} ({}): ops {} failed_ops {}",
        spec.name,
        opt.seed,
        if opt.trace { "traced" } else { "end to end" },
        outcome.attempted,
        outcome.failed
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    if let Some(table) = &outcome.table {
        print!("{table}");
    }
    for m in &outcome.metrics {
        println!(
            "  {:<40} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(path) = &outcome.trace_file {
        println!("  spans written to {}", path.display());
    }
}

fn run_one(spec: &Spec, opt: &Options, decl: &Declaration) -> Result<Outcome, String> {
    let outcome = run::run(spec, opt)?;
    let declared = if opt.trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    check_metrics(declared, &outcome.metrics)?;
    print_outcome(spec, opt, &outcome);
    Ok(outcome)
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let decl = declaration();
    check_declaration(&decl)?;
    let opt = Options {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(decl.run_seconds),
        trace: args.trace,
        smoke: args.smoke,
    };
    if args.seconds.is_some() && args.command != "run" {
        return Err("--seconds is `run`'s; `all` and `aa` run for run_seconds".into());
    }
    match args.command.as_str() {
        "run" => {
            let name = args
                .workload
                .as_deref()
                .ok_or("run needs --workload <name>")?;
            let spec = workloads::find(name).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
                format!("unknown workload `{name}`; the series has {names:?}")
            })?;
            let outcome = run_one(spec, &opt, &decl)?;
            println!("{}", result_line(&outcome));
            Ok(())
        }
        "all" => {
            for spec in &WORKLOADS {
                run_one(spec, &opt, &decl)?;
            }
            Ok(())
        }
        "aa" => aa::run(
            &decl,
            args.workload.as_deref(),
            args.sets,
            args.runs,
            args.seed,
        ),
        other => Err(format!("unknown command `{other}`: run | all | aa")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fml-perf: {message}");
            ExitCode::FAILURE
        }
    }
}
