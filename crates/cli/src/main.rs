//! `fedml` — config-driven federated meta-learning runs.
//!
//! ```text
//! fedml init <path>            write an example config
//! fedml stats <config.json>    generate the dataset and print Table-I stats
//! fedml run <config.json>      run the experiment and print the report
//!       [--json <out.json>]    additionally dump the report as JSON
//! fedml runtime <config.json>  run on the thread-per-node actor runtime
//!       [--mode barrier|async] [--max-staleness N] [--threads N]
//!       [--mailbox-cap N] [--seed N] [--json <out.json>]
//!       [--transport channel|tcp|uds] [--listen <addr>]   platform side
//!       [--connect <addr> --node <id>]                    node side
//!       [--checkpoint-dir <dir>] [--checkpoint-every N]   disk checkpoints
//!       [--max-recoveries N] [--no-recovery]              recovery budget
//!       [--crash-from N:R] [--corrupt-at N:R]             scripted faults
//!       [--fault-seed N] [--fault-drop P] [--fault-corrupt P]
//!       [--fault-delay-prob P] [--fault-delay-ms MS]
//!       [--fault-disconnect-after N]                      link fault plan
//!       [--async-decay poly|hinge|hinge:K|const]          staleness decay
//!       [--async-buffer K] [--adaptive-mix]               async policy
//!       [--update-codec none|dense|quant|topk]            uplink codec
//!       [--topk K] [--quant-bits 8|16]
//! ```
//!
//! With `--transport tcp` or `uds` the platform (`--listen`) and each
//! node (`--connect --node <id>`) run as separate processes sharing
//! nothing but the config file and the wire.

use fml_cli::{
    build_dataset, run, run_adapt, run_adapt_serve, run_runtime, run_runtime_node, AdaptOptions,
    RunConfig, RuntimeMode, RuntimeOptions, ServeOptions,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  fedml init <path>                 write an example config
  fedml stats <config.json>         print dataset statistics
  fedml run <config.json> [--json <out.json>]
  fedml runtime <config.json> [--mode barrier|async] [--max-staleness N]
        [--threads N] [--mailbox-cap N] [--seed N] [--json <out.json>]
        [--transport channel|tcp|uds] [--listen <addr>]
        [--connect <addr> --node <id>]
        [--checkpoint-dir <dir>] [--checkpoint-every N]
        [--max-recoveries N] [--no-recovery]
        [--crash-from node:round] [--corrupt-at node:round]
        [--fault-seed N] [--fault-drop P] [--fault-corrupt P]
        [--fault-delay-prob P] [--fault-delay-ms MS]
        [--fault-disconnect-after N]
        [--async-decay poly|hinge|hinge:K|const] [--async-buffer K]
        [--adaptive-mix]
        [--update-codec none|dense|quant|topk] [--topk K] [--quant-bits 8|16]
  fedml adapt-serve <config.json> --listen <addr> [--transport tcp|uds]
        (--checkpoint-dir <dir> | --attach) [--workers N]
        [--queue-depth N] [--max-k N] [--max-steps N]
        [--queue-deadline-ms MS] [--max-requests N] [--seed N]
        [--json <out.json>]
  fedml adapt <config.json> --connect <addr> [--transport tcp|uds]
        [--target I] [--k N] [--steps N] [--alpha A] [--seed N]
        [--timeout-ms MS] [--json <out.json>]
        (or: --offline --checkpoint-dir <dir> to adapt locally)
  (socket transports: run the platform with --listen, then one process
   per node with --connect and --node; addr is host:port for tcp, a
   socket file path for uds. --crash-from/--corrupt-at are repeatable
   and script node faults on the platform; --fault-* flags install a
   seeded fault-injecting wrapper on a node's link.
   adapt-serve answers Adapt(K samples) requests from a checkpointed
   global, or --attach trains in-process and hot-swaps each round's
   global into the service; adapt samples the first K shots from a
   held-out target node and reports pre/post-adaptation query loss.)";

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("init") => {
            let path = args.get(1).ok_or("init requires a path")?;
            write_json(Some(path), &RunConfig::example(), "example config")
        }
        Some("stats") => {
            let cfg = load_config(args.get(1))?;
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed);
            let s = build_dataset(&cfg.dataset, &mut rng).stats();
            println!(
                "{}: {} nodes, {} samples total, {:.1} ± {:.1} samples/node",
                s.name, s.nodes, s.total_samples, s.mean_samples, s.stdev_samples
            );
            Ok(())
        }
        Some("run") => {
            let cfg = load_config(args.get(1))?;
            let json_out = match (args.get(2).map(String::as_str), args.get(3)) {
                (Some("--json"), Some(path)) => Some(path),
                (None, _) => None,
                _ => return Err("unexpected arguments after config path".into()),
            };
            let report = run(&cfg)?;
            print!("{report}");
            write_json(json_out, &report, "JSON report")
        }
        Some("runtime") => {
            let cfg = load_config(args.get(1))?;
            let (opts, json_out) = parse_runtime_flags(&args[2..])?;
            if opts.node.is_some() {
                let io = run_runtime_node(&cfg, &opts)?;
                println!(
                    "node {}: {} frames / {} bytes received, {} frames / {} bytes sent",
                    io.node, io.frames_received, io.bytes_received, io.frames_sent, io.bytes_sent
                );
                return write_json(json_out.as_ref(), &io, "JSON counters");
            }
            let report = run_runtime(&cfg, &opts)?;
            print!("{report}");
            write_json(json_out.as_ref(), &report, "JSON report")
        }
        Some("adapt-serve") => {
            let cfg = load_config(args.get(1))?;
            let (opts, json_out) = parse_serve_flags(&args[2..])?;
            let report = run_adapt_serve(&cfg, &opts)?;
            println!("{report}");
            write_json(json_out.as_ref(), &report, "JSON report")
        }
        Some("adapt") => {
            let cfg = load_config(args.get(1))?;
            let (opts, json_out) = parse_adapt_flags(&args[2..])?;
            let report = run_adapt(&cfg, &opts)?;
            print!("{report}");
            write_json(json_out.as_ref(), &report, "JSON report")
        }
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other}")),
        None => Err("no command given".into()),
    }
}

/// Writes `value` as pretty JSON to `path` (when one was asked for) and
/// says so on stdout.
fn write_json(
    path: Option<&String>,
    value: &impl serde::Serialize,
    what: &str,
) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let json = serde_json::to_string_pretty(value).expect("reports and configs serialize");
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {what} to {path}");
    Ok(())
}

/// The flags after a subcommand's config path, with the value rules
/// every flag shares.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// The next flag, if any is left.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The raw value of flag `name`.
    fn value(&mut self, name: &str) -> Result<String, String> {
        let value = self.0.next().cloned();
        value.ok_or_else(|| format!("{name} requires a value"))
    }

    /// The value of flag `name`, parsed as a `T`.
    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let value = self.value(name)?;
        value.parse().map_err(|e| format!("bad {name}: {e}"))
    }

    /// A count that must be at least 1.
    fn positive(&mut self, name: &str) -> Result<usize, String> {
        match self.parsed(name)? {
            0 => Err(format!("{name} must be at least 1")),
            n => Ok(n),
        }
    }

    /// A probability in `[0, 1]`.
    fn prob(&mut self, name: &str) -> Result<f64, String> {
        let p: f64 = self.parsed(name)?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{name} must be in [0, 1], got {p}"));
        }
        Ok(p)
    }

    /// A `node:round` pair for `--crash-from` / `--corrupt-at`.
    fn node_round(&mut self, name: &str) -> Result<(usize, usize), String> {
        let value = self.value(name)?;
        let (node, round) = value
            .split_once(':')
            .ok_or_else(|| format!("{name} expects node:round, got {value}"))?;
        let parse = |part: &str, text: &str| {
            text.parse()
                .map_err(|e| format!("bad {name} {part} {text}: {e}"))
        };
        Ok((parse("node", node)?, parse("round", round)?))
    }
}

fn parse_runtime_flags(args: &[String]) -> Result<(RuntimeOptions, Option<String>), String> {
    let mut opts = RuntimeOptions::default();
    let mut json_out = None;
    let mut flags = Flags(args.iter());
    while let Some(f) = flags.next_flag() {
        match f {
            "--mode" => {
                opts.mode = match flags.value(f)?.as_str() {
                    "barrier" => RuntimeMode::Barrier,
                    "async" => RuntimeMode::Async,
                    other => return Err(format!("unknown mode {other} (barrier|async)")),
                }
            }
            "--max-staleness" => opts.max_staleness = Some(flags.parsed(f)?),
            "--threads" => opts.threads = Some(flags.positive(f)?),
            "--mailbox-cap" => opts.mailbox_cap = Some(flags.positive(f)?),
            "--seed" => opts.seed = Some(flags.parsed(f)?),
            "--transport" => opts.transport = flags.value(f)?.parse()?,
            "--listen" => opts.listen = Some(flags.value(f)?),
            "--connect" => opts.connect = Some(flags.value(f)?),
            "--node" => opts.node = Some(flags.parsed(f)?),
            "--json" => json_out = Some(flags.value(f)?),
            "--checkpoint-dir" => opts.checkpoint_dir = Some(flags.value(f)?),
            "--checkpoint-every" => opts.checkpoint_every = Some(flags.positive(f)?),
            "--max-recoveries" => opts.max_recoveries = Some(flags.parsed(f)?),
            "--no-recovery" => opts.no_recovery = true,
            "--crash-from" => opts.crash_from.push(flags.node_round(f)?),
            "--corrupt-at" => opts.corrupt_at.push(flags.node_round(f)?),
            "--fault-seed" => opts.fault_seed = Some(flags.parsed(f)?),
            "--fault-drop" => opts.fault_drop = flags.prob(f)?,
            "--fault-corrupt" => opts.fault_corrupt = flags.prob(f)?,
            "--fault-delay-prob" => opts.fault_delay_prob = flags.prob(f)?,
            "--fault-delay-ms" => opts.fault_delay_ms = flags.parsed(f)?,
            "--fault-disconnect-after" => opts.fault_disconnect_after = Some(flags.parsed(f)?),
            "--async-decay" => opts.async_decay = Some(flags.value(f)?),
            "--async-buffer" => opts.async_buffer = Some(flags.positive(f)?),
            "--adaptive-mix" => opts.adaptive_mix = true,
            "--update-codec" => opts.update_codec = Some(flags.value(f)?),
            "--topk" => opts.topk = Some(flags.parsed(f)?),
            "--quant-bits" => opts.quant_bits = Some(flags.parsed(f)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((opts, json_out))
}

fn parse_serve_flags(args: &[String]) -> Result<(ServeOptions, Option<String>), String> {
    let mut opts = ServeOptions {
        transport: fml_cli::TransportKind::Tcp,
        ..ServeOptions::default()
    };
    let mut json_out = None;
    let mut flags = Flags(args.iter());
    while let Some(f) = flags.next_flag() {
        match f {
            "--transport" => opts.transport = flags.value(f)?.parse()?,
            "--listen" => opts.listen = Some(flags.value(f)?),
            "--checkpoint-dir" => opts.checkpoint_dir = Some(flags.value(f)?),
            "--attach" => opts.attach = true,
            "--workers" => opts.workers = Some(flags.positive(f)?),
            "--queue-depth" => opts.queue_depth = Some(flags.positive(f)?),
            "--max-k" => opts.max_k = Some(flags.parsed(f)?),
            "--max-steps" => opts.max_steps = Some(flags.parsed(f)?),
            "--queue-deadline-ms" => opts.queue_deadline_ms = Some(flags.parsed(f)?),
            "--max-requests" => opts.max_requests = Some(flags.parsed(f)?),
            "--seed" => opts.seed = Some(flags.parsed(f)?),
            "--json" => json_out = Some(flags.value(f)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((opts, json_out))
}

fn parse_adapt_flags(args: &[String]) -> Result<(AdaptOptions, Option<String>), String> {
    let mut opts = AdaptOptions {
        transport: fml_cli::TransportKind::Tcp,
        ..AdaptOptions::default()
    };
    let mut json_out = None;
    let mut flags = Flags(args.iter());
    while let Some(f) = flags.next_flag() {
        match f {
            "--transport" => opts.transport = flags.value(f)?.parse()?,
            "--connect" => opts.connect = Some(flags.value(f)?),
            "--target" => opts.target = flags.parsed(f)?,
            "--k" => opts.k = Some(flags.positive(f)?),
            "--steps" => opts.steps = Some(flags.parsed(f)?),
            "--alpha" => {
                let a: f64 = flags.parsed(f)?;
                if !a.is_finite() {
                    return Err("--alpha must be finite".into());
                }
                opts.alpha = Some(a);
            }
            "--offline" => opts.offline = true,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(flags.value(f)?),
            "--seed" => opts.seed = Some(flags.parsed(f)?),
            "--timeout-ms" => opts.timeout_ms = flags.parsed(f)?,
            "--json" => json_out = Some(flags.value(f)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((opts, json_out))
}

fn load_config(path: Option<&String>) -> Result<RunConfig, String> {
    let path = path.ok_or("missing config path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_cli::TransportKind;
    use std::fmt::Debug;

    /// `std`'s texts for an unparsable integer and float.
    const INT: &str = "invalid digit found in string";
    const FLOAT: &str = "invalid float literal";

    type Parser<O> = fn(&[String]) -> Result<(O, Option<String>), String>;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// One subcommand's flag table against its parser: every `accepted`
    /// line yields exactly those options; every `valued` flag given bare,
    /// every `unparsable` flag given `x` (with `std`'s reason), every
    /// `positive` flag given `0`, every `rejected` line and an unknown
    /// flag fail with exactly the documented text.
    fn check_table<O: PartialEq + Debug>(
        parse: Parser<O>,
        accepted: Vec<(&str, O)>,
        valued: &[&str],
        unparsable: &[(&str, &str)],
        positive: &[&str],
        rejected: &[(&str, &str)],
    ) {
        for (line, want) in accepted {
            assert_eq!(parse(&args(line)), Ok((want, None)), "{line}");
        }
        let json = parse(&args("--json out.json")).expect("--json parses");
        assert_eq!(json.1.as_deref(), Some("out.json"));
        let err = |line: &str| parse(&args(line)).map(|_| ()).expect_err(line);
        for flag in valued.iter().chain(["--json"].iter()) {
            assert_eq!(err(flag), format!("{flag} requires a value"));
        }
        for (flag, why) in unparsable {
            assert_eq!(err(&format!("{flag} x")), format!("bad {flag}: {why}"));
        }
        for flag in positive {
            assert_eq!(
                err(&format!("{flag} 0")),
                format!("{flag} must be at least 1")
            );
        }
        for (line, want) in rejected {
            assert_eq!(err(line), *want, "{line}");
        }
        assert_eq!(err("--bogus"), "unknown flag --bogus");
    }

    #[test]
    fn runtime_flag_table() {
        let d = RuntimeOptions::default;
        let s = |v: &str| Some(v.to_string());
        check_table(
            parse_runtime_flags,
            vec![
                ("", d()),
                ("--mode barrier", d()),
                (
                    "--mode async",
                    RuntimeOptions {
                        mode: RuntimeMode::Async,
                        ..d()
                    },
                ),
                (
                    "--max-staleness 7",
                    RuntimeOptions {
                        max_staleness: 7usize.into(),
                        ..d()
                    },
                ),
                (
                    "--threads 3",
                    RuntimeOptions {
                        threads: Some(3),
                        ..d()
                    },
                ),
                (
                    "--mailbox-cap 8",
                    RuntimeOptions {
                        mailbox_cap: Some(8),
                        ..d()
                    },
                ),
                (
                    "--seed 9",
                    RuntimeOptions {
                        seed: Some(9),
                        ..d()
                    },
                ),
                ("--transport channel", d()),
                (
                    "--transport tcp",
                    RuntimeOptions {
                        transport: TransportKind::Tcp,
                        ..d()
                    },
                ),
                (
                    "--transport uds",
                    RuntimeOptions {
                        transport: TransportKind::Uds,
                        ..d()
                    },
                ),
                (
                    "--listen 127.0.0.1:0",
                    RuntimeOptions {
                        listen: s("127.0.0.1:0"),
                        ..d()
                    },
                ),
                (
                    "--connect /tmp/s --node 2",
                    RuntimeOptions {
                        connect: s("/tmp/s"),
                        node: Some(2),
                        ..d()
                    },
                ),
                (
                    "--checkpoint-dir ck --checkpoint-every 5",
                    RuntimeOptions {
                        checkpoint_dir: s("ck"),
                        checkpoint_every: Some(5),
                        ..d()
                    },
                ),
                (
                    "--max-recoveries 0",
                    RuntimeOptions {
                        max_recoveries: Some(0),
                        ..d()
                    },
                ),
                (
                    "--no-recovery",
                    RuntimeOptions {
                        no_recovery: true,
                        ..d()
                    },
                ),
                (
                    "--crash-from 1:2 --crash-from 3:4 --corrupt-at 0:1",
                    RuntimeOptions {
                        crash_from: vec![(1, 2), (3, 4)],
                        corrupt_at: vec![(0, 1)],
                        ..d()
                    },
                ),
                (
                    "--fault-seed 11",
                    RuntimeOptions {
                        fault_seed: Some(11),
                        ..d()
                    },
                ),
                (
                    "--fault-drop 0.25 --fault-corrupt 1",
                    RuntimeOptions {
                        fault_drop: 0.25,
                        fault_corrupt: 1.0,
                        ..d()
                    },
                ),
                (
                    "--fault-delay-prob 0.5 --fault-delay-ms 20",
                    RuntimeOptions {
                        fault_delay_prob: 0.5,
                        fault_delay_ms: 20,
                        ..d()
                    },
                ),
                (
                    "--fault-disconnect-after 6",
                    RuntimeOptions {
                        fault_disconnect_after: Some(6),
                        ..d()
                    },
                ),
                (
                    "--async-decay hinge:2 --async-buffer 2 --adaptive-mix",
                    RuntimeOptions {
                        async_decay: s("hinge:2"),
                        async_buffer: Some(2),
                        adaptive_mix: true,
                        ..d()
                    },
                ),
                (
                    "--update-codec quant --quant-bits 16 --topk 4",
                    RuntimeOptions {
                        update_codec: s("quant"),
                        quant_bits: Some(16),
                        topk: Some(4),
                        ..d()
                    },
                ),
            ],
            &[
                "--mode",
                "--max-staleness",
                "--threads",
                "--mailbox-cap",
                "--seed",
                "--transport",
                "--listen",
                "--connect",
                "--node",
                "--checkpoint-dir",
                "--checkpoint-every",
                "--max-recoveries",
                "--crash-from",
                "--corrupt-at",
                "--fault-seed",
                "--fault-drop",
                "--fault-corrupt",
                "--fault-delay-prob",
                "--fault-delay-ms",
                "--fault-disconnect-after",
                "--async-decay",
                "--async-buffer",
                "--update-codec",
                "--topk",
                "--quant-bits",
            ],
            &[
                ("--max-staleness", INT),
                ("--threads", INT),
                ("--mailbox-cap", INT),
                ("--seed", INT),
                ("--node", INT),
                ("--checkpoint-every", INT),
                ("--max-recoveries", INT),
                ("--fault-seed", INT),
                ("--fault-drop", FLOAT),
                ("--fault-corrupt", FLOAT),
                ("--fault-delay-prob", FLOAT),
                ("--fault-delay-ms", INT),
                ("--fault-disconnect-after", INT),
                ("--async-buffer", INT),
                ("--topk", INT),
                ("--quant-bits", INT),
            ],
            &[
                "--threads",
                "--mailbox-cap",
                "--checkpoint-every",
                "--async-buffer",
            ],
            &[
                ("--mode fast", "unknown mode fast (barrier|async)"),
                (
                    "--transport smoke",
                    "unknown transport smoke (channel|tcp|uds)",
                ),
                (
                    "--fault-drop 1.5",
                    "--fault-drop must be in [0, 1], got 1.5",
                ),
                (
                    "--fault-corrupt -0.1",
                    "--fault-corrupt must be in [0, 1], got -0.1",
                ),
                (
                    "--fault-delay-prob 2",
                    "--fault-delay-prob must be in [0, 1], got 2",
                ),
                ("--crash-from 3", "--crash-from expects node:round, got 3"),
                (
                    "--crash-from a:1",
                    &format!("bad --crash-from node a: {INT}"),
                ),
                (
                    "--corrupt-at 1:b",
                    &format!("bad --corrupt-at round b: {INT}"),
                ),
                (
                    "--quant-bits 300",
                    "bad --quant-bits: number too large to fit in target type",
                ),
            ],
        );
    }

    #[test]
    fn adapt_serve_flag_table() {
        let d = || ServeOptions {
            transport: TransportKind::Tcp,
            ..ServeOptions::default()
        };
        let s = |v: &str| Some(v.to_string());
        check_table(
            parse_serve_flags,
            vec![
                ("", d()),
                (
                    "--transport uds",
                    ServeOptions {
                        transport: TransportKind::Uds,
                        ..d()
                    },
                ),
                (
                    "--listen 127.0.0.1:0",
                    ServeOptions {
                        listen: s("127.0.0.1:0"),
                        ..d()
                    },
                ),
                (
                    "--checkpoint-dir ck",
                    ServeOptions {
                        checkpoint_dir: s("ck"),
                        ..d()
                    },
                ),
                (
                    "--attach",
                    ServeOptions {
                        attach: true,
                        ..d()
                    },
                ),
                (
                    "--workers 2 --queue-depth 16",
                    ServeOptions {
                        workers: Some(2),
                        queue_depth: Some(16),
                        ..d()
                    },
                ),
                (
                    "--max-k 0 --max-steps 0",
                    ServeOptions {
                        max_k: Some(0),
                        max_steps: Some(0),
                        ..d()
                    },
                ),
                (
                    "--queue-deadline-ms 250 --max-requests 4 --seed 9",
                    ServeOptions {
                        queue_deadline_ms: Some(250),
                        max_requests: Some(4),
                        seed: Some(9),
                        ..d()
                    },
                ),
            ],
            &[
                "--transport",
                "--listen",
                "--checkpoint-dir",
                "--workers",
                "--queue-depth",
                "--max-k",
                "--max-steps",
                "--queue-deadline-ms",
                "--max-requests",
                "--seed",
            ],
            &[
                ("--workers", INT),
                ("--queue-depth", INT),
                ("--max-k", INT),
                ("--max-steps", INT),
                ("--queue-deadline-ms", INT),
                ("--max-requests", INT),
                ("--seed", INT),
            ],
            &["--workers", "--queue-depth"],
            &[(
                "--transport smoke",
                "unknown transport smoke (channel|tcp|uds)",
            )],
        );
    }

    #[test]
    fn adapt_flag_table() {
        let d = || AdaptOptions {
            transport: TransportKind::Tcp,
            ..AdaptOptions::default()
        };
        let s = |v: &str| Some(v.to_string());
        check_table(
            parse_adapt_flags,
            vec![
                ("", d()),
                (
                    "--transport uds",
                    AdaptOptions {
                        transport: TransportKind::Uds,
                        ..d()
                    },
                ),
                (
                    "--connect /tmp/s",
                    AdaptOptions {
                        connect: s("/tmp/s"),
                        ..d()
                    },
                ),
                (
                    "--target 3 --k 5",
                    AdaptOptions {
                        target: 3,
                        k: Some(5),
                        ..d()
                    },
                ),
                (
                    "--steps 0 --alpha 0.05",
                    AdaptOptions {
                        steps: Some(0),
                        alpha: Some(0.05),
                        ..d()
                    },
                ),
                (
                    "--offline --checkpoint-dir ck",
                    AdaptOptions {
                        offline: true,
                        checkpoint_dir: s("ck"),
                        ..d()
                    },
                ),
                (
                    "--seed 9 --timeout-ms 500",
                    AdaptOptions {
                        seed: Some(9),
                        timeout_ms: 500,
                        ..d()
                    },
                ),
            ],
            &[
                "--transport",
                "--connect",
                "--target",
                "--k",
                "--steps",
                "--alpha",
                "--checkpoint-dir",
                "--seed",
                "--timeout-ms",
            ],
            &[
                ("--target", INT),
                ("--k", INT),
                ("--steps", INT),
                ("--alpha", FLOAT),
                ("--seed", INT),
                ("--timeout-ms", INT),
            ],
            &["--k"],
            &[
                (
                    "--transport smoke",
                    "unknown transport smoke (channel|tcp|uds)",
                ),
                ("--alpha inf", "--alpha must be finite"),
                ("--alpha NaN", "--alpha must be finite"),
            ],
        );
    }

    /// Combinations every flag parser accepts but no run can honour fail
    /// before anything is trained or dialed, naming the flag at fault.
    #[test]
    fn flags_that_would_be_ignored_are_errors() {
        let cfg = RunConfig::example();
        let node = "--transport tcp --connect 127.0.0.1:1 --node 0";
        for (line, want) in [
            (
                "--max-staleness 3".to_string(),
                "--max-staleness/--async-decay/--async-buffer/--adaptive-mix require --mode async",
            ),
            (
                format!("{node} --fault-delay-prob 0.5"),
                "--fault-delay-prob requires --fault-delay-ms <ms>",
            ),
            (
                format!("{node} --fault-delay-ms 20"),
                "--fault-delay-ms requires --fault-delay-prob <p>",
            ),
        ] {
            let (opts, _) = parse_runtime_flags(&args(&line)).expect("parses");
            let ran = match opts.node {
                Some(_) => run_runtime_node(&cfg, &opts).map(|_| ()),
                None => run_runtime(&cfg, &opts).map(|_| ()),
            };
            assert_eq!(ran, Err(want.to_string()), "{line}");
        }
    }
}
