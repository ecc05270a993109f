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
    Launch, RunConfig, TransportKind,
};
use fml_core::FaultPlan;
use fml_runtime::{
    AsyncPolicy, LinkFaultPlan, Mode, RuntimeConfig, ServingConfig, UpdateCodec, VirtualClock,
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
            let (launch, rt_cfg, json_out) = parse_runtime_flags(&args[2..], cfg.seed)?;
            if launch.node.is_some() {
                let io = run_runtime_node(&cfg, &launch, rt_cfg)?;
                println!(
                    "node {}: {} frames / {} bytes received, {} frames / {} bytes sent",
                    io.node, io.frames_received, io.bytes_received, io.frames_sent, io.bytes_sent
                );
                return write_json(json_out.as_ref(), &io, "JSON counters");
            }
            let report = run_runtime(&cfg, &launch, rt_cfg)?;
            print!("{report}");
            write_json(json_out.as_ref(), &report, "JSON report")
        }
        Some("adapt-serve") => {
            let cfg = load_config(args.get(1))?;
            let (launch, serving_cfg, json_out) = parse_serve_flags(&args[2..], cfg.seed)?;
            let report = run_adapt_serve(&cfg, &launch, serving_cfg)?;
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

/// What a flag parser hands back: the launch, the runtime type the rest
/// of the flags were written onto, and the `--json` path.
type Parsed<C> = Result<(Launch, C, Option<String>), String>;

/// Parses the `runtime` flags straight onto a [`RuntimeConfig`] (its
/// [`AsyncPolicy`], [`UpdateCodec`] and [`FaultPlan`] included) and the
/// node's [`LinkFaultPlan`], at the resolved seed — `--seed` wherever it
/// stands, else `cfg_seed`. What a flag cannot settle alone (its family
/// needs `--mode async`, a codec, a partner) is checked once the last
/// flag is read, where the field is written.
fn parse_runtime_flags(args: &[String], cfg_seed: u64) -> Parsed<RuntimeConfig> {
    let mut launch = Launch {
        seed: cfg_seed,
        ..Launch::default()
    };
    let mut rt = RuntimeConfig::barrier(cfg_seed);
    let mut faults = FaultPlan::new(cfg_seed);
    let (mut is_async, mut async_knob) = (false, false);
    let mut policy = AsyncPolicy::default();
    let (mut quant_bits, mut topk) = (None, None);
    let (mut no_recovery, mut budget_given) = (false, false);
    let mut link = LinkFaultPlan::new(cfg_seed);
    let mut fault_seed = None;
    let (mut delay_prob, mut delay_ms) = (0.0, 0);
    let mut json_out = None;
    let mut flags = Flags(args.iter());
    while let Some(f) = flags.next_flag() {
        match f {
            "--mode" => {
                is_async = match flags.value(f)?.as_str() {
                    "barrier" => false,
                    "async" => true,
                    other => return Err(format!("unknown mode {other} (barrier|async)")),
                }
            }
            "--max-staleness" => {
                policy.max_staleness = flags.parsed(f)?;
                async_knob = true;
            }
            "--async-decay" => {
                policy.decay = flags.value(f)?.parse()?;
                async_knob = true;
            }
            "--async-buffer" => {
                policy.buffer_k = flags.positive(f)?;
                async_knob = true;
            }
            "--adaptive-mix" => {
                policy.adaptive_mix = true;
                async_knob = true;
            }
            "--threads" => rt = rt.with_threads(flags.positive(f)?),
            "--mailbox-cap" => rt = rt.with_mailbox_cap(flags.positive(f)?),
            "--seed" => {
                launch.seed = flags.parsed(f)?;
                rt.clock = VirtualClock::new(launch.seed);
                faults.seed = launch.seed;
            }
            "--transport" => launch.transport = flags.value(f)?.parse()?,
            "--listen" => launch.listen = Some(flags.value(f)?),
            "--connect" => launch.connect = Some(flags.value(f)?),
            "--node" => launch.node = Some(flags.parsed(f)?),
            "--json" => json_out = Some(flags.value(f)?),
            "--checkpoint-dir" => rt = rt.with_checkpoint_dir(flags.value(f)?),
            "--checkpoint-every" => rt = rt.with_checkpoint_every(flags.positive(f)?),
            "--max-recoveries" => {
                rt = rt.with_max_recoveries(flags.parsed(f)?);
                budget_given = true;
            }
            "--no-recovery" => {
                rt = rt.without_recovery();
                no_recovery = true;
            }
            "--crash-from" => {
                let (node, round) = flags.node_round(f)?;
                faults = faults.with_crash_from(node, round);
            }
            "--corrupt-at" => {
                let (node, round) = flags.node_round(f)?;
                faults = faults.with_corrupt(node, round);
            }
            "--fault-seed" => fault_seed = Some(flags.parsed(f)?),
            "--fault-drop" => link = link.with_drop(flags.prob(f)?),
            "--fault-corrupt" => link = link.with_corrupt(flags.prob(f)?),
            "--fault-delay-prob" => delay_prob = flags.prob(f)?,
            "--fault-delay-ms" => delay_ms = flags.parsed(f)?,
            "--fault-disconnect-after" => {
                link = link.with_disconnect_after_recvs(flags.parsed(f)?)
            }
            "--update-codec" => {
                rt.update_codec = match flags.value(f)?.as_str() {
                    "none" => UpdateCodec::None,
                    "dense" => UpdateCodec::Dense,
                    "quant" => UpdateCodec::Quant { bits: 8 },
                    "topk" => UpdateCodec::TopK { k: 0 },
                    other => {
                        return Err(format!(
                            "unknown update codec {other} (none|dense|quant|topk)"
                        ))
                    }
                }
            }
            "--topk" => topk = Some(flags.parsed(f)?),
            "--quant-bits" => quant_bits = Some(flags.parsed(f)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }

    // Both sides of a socket fleet parse the same codec flags, but only
    // the node side encodes with the result — the platform decodes every
    // codec unconditionally.
    match (&mut rt.update_codec, quant_bits) {
        (UpdateCodec::Quant { bits }, Some(given)) => *bits = given,
        (_, Some(_)) => return Err("--quant-bits requires --update-codec quant".into()),
        (_, None) => {}
    }
    match (&mut rt.update_codec, topk) {
        (UpdateCodec::TopK { k }, Some(given)) => *k = given,
        (UpdateCodec::TopK { .. }, None) => {
            return Err("--update-codec topk requires --topk <k>".into())
        }
        (_, Some(_)) => return Err("--topk requires --update-codec topk".into()),
        (_, None) => {}
    }
    rt.update_codec.validate()?;

    if is_async {
        policy.validate()?;
        rt.mode = Mode::Async(policy);
    } else if async_knob {
        return Err(
            "--max-staleness/--async-decay/--async-buffer/--adaptive-mix require --mode async"
                .into(),
        );
    }
    if rt.checkpoint.dir.is_none() && rt.checkpoint.every != 0 {
        return Err("--checkpoint-every requires --checkpoint-dir <dir>".into());
    }
    if no_recovery && budget_given {
        return Err("--no-recovery and --max-recoveries contradict each other".into());
    }
    // The fault plan is seeded like the run — identical in the platform
    // and in every node process, so each node's crash/corrupt schedule
    // agrees across the fleet without shared memory.
    rt = rt.with_faults(faults);

    // A delay needs both its probability and its length: either flag
    // without the other is an error, not a fault-free link.
    match (delay_prob > 0.0, delay_ms > 0) {
        (true, true) => link = link.with_delay(delay_prob, delay_ms),
        (true, false) => return Err("--fault-delay-prob requires --fault-delay-ms <ms>".into()),
        (false, true) => return Err("--fault-delay-ms requires --fault-delay-prob <p>".into()),
        (false, false) => {}
    }
    link.seed = fault_seed.unwrap_or(launch.seed);
    if !link.is_benign() {
        launch.link_faults = Some(link);
    } else if fault_seed.is_some() {
        return Err("--fault-seed has no link fault to seed (add --fault-drop, \
                    --fault-corrupt, --fault-delay-* or --fault-disconnect-after)"
            .into());
    }
    Ok((launch, rt, json_out))
}

/// Parses the `adapt-serve` flags straight onto a [`ServingConfig`].
fn parse_serve_flags(args: &[String], cfg_seed: u64) -> Parsed<ServingConfig> {
    let mut launch = Launch {
        seed: cfg_seed,
        transport: TransportKind::Tcp,
        ..Launch::default()
    };
    let mut serving = ServingConfig::default();
    let mut json_out = None;
    let mut flags = Flags(args.iter());
    while let Some(f) = flags.next_flag() {
        match f {
            "--transport" => launch.transport = flags.value(f)?.parse()?,
            "--listen" => launch.listen = Some(flags.value(f)?),
            "--checkpoint-dir" => launch.checkpoint_dir = Some(flags.value(f)?),
            "--attach" => launch.attach = true,
            "--workers" => serving = serving.with_workers(flags.positive(f)?),
            "--queue-depth" => serving = serving.with_queue_depth(flags.positive(f)?),
            "--max-k" => serving = serving.with_max_k(flags.parsed(f)?),
            "--max-steps" => serving = serving.with_max_steps(flags.parsed(f)?),
            "--queue-deadline-ms" => serving = serving.with_queue_deadline_ms(flags.parsed(f)?),
            "--max-requests" => launch.max_requests = Some(flags.parsed(f)?),
            "--seed" => launch.seed = flags.parsed(f)?,
            "--json" => json_out = Some(flags.value(f)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((launch, serving, json_out))
}

fn parse_adapt_flags(args: &[String]) -> Result<(AdaptOptions, Option<String>), String> {
    let mut opts = AdaptOptions {
        transport: TransportKind::Tcp,
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
    use fml_core::Fault;
    use fml_runtime::{CheckpointConfig, RecoveryConfig, StalenessDecay};
    use std::fmt::Debug;

    /// `std`'s texts for an unparsable integer and float.
    const INT: &str = "invalid digit found in string";
    const FLOAT: &str = "invalid float literal";

    /// The config seed the runtime and serve tables parse at.
    const SEED: u64 = 7;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn runtime(line: &str) -> Result<((Launch, RuntimeConfig), Option<String>), String> {
        parse_runtime_flags(&args(line), SEED).map(|(launch, rt, json)| ((launch, rt), json))
    }

    fn serve(line: &str) -> Result<((Launch, ServingConfig), Option<String>), String> {
        parse_serve_flags(&args(line), SEED).map(|(launch, cfg, json)| ((launch, cfg), json))
    }

    /// One subcommand's flag table against its parser: every `accepted`
    /// line yields exactly that value; every `valued` flag given bare,
    /// every `unparsable` flag given `x` (with `std`'s reason), every
    /// `positive` flag given `0`, every `rejected` line and an unknown
    /// flag fail with exactly the documented text.
    fn check_table<O: PartialEq + Debug>(
        parse: impl Fn(&str) -> Result<(O, Option<String>), String>,
        accepted: Vec<(&str, O)>,
        valued: &[&str],
        unparsable: &[(&str, &str)],
        positive: &[&str],
        rejected: &[(&str, &str)],
    ) {
        for (line, want) in accepted {
            assert_eq!(parse(line), Ok((want, None)), "{line}");
        }
        let json = parse("--json out.json").expect("--json parses");
        assert_eq!(json.1.as_deref(), Some("out.json"));
        let err = |line: &str| parse(line).map(|_| ()).expect_err(line);
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

    const NEEDS_ASYNC: &str =
        "--max-staleness/--async-decay/--async-buffer/--adaptive-mix require --mode async";

    #[test]
    fn runtime_flag_table() {
        let l = || Launch {
            seed: SEED,
            ..Launch::default()
        };
        let rt = || RuntimeConfig::barrier(SEED);
        let s = |v: &str| Some(v.to_string());
        let with_async = |policy| (l(), RuntimeConfig::async_mode(SEED, policy));
        let with_link = |plan| {
            let launch = Launch {
                link_faults: Some(plan),
                ..l()
            };
            (launch, rt())
        };
        let with_budget = |max_recoveries| RuntimeConfig {
            recovery: RecoveryConfig { max_recoveries },
            ..rt()
        };
        let with_codec = |update_codec| RuntimeConfig { update_codec, ..rt() };
        let reseeded = (
            Launch {
                seed: 9,
                ..Launch::default()
            },
            RuntimeConfig {
                faults: FaultPlan {
                    crashed_from: [(1, 2)].into(),
                    ..FaultPlan::new(9)
                },
                ..RuntimeConfig::barrier(9)
            },
        );
        let stale3 = || {
            with_async(AsyncPolicy {
                max_staleness: 3,
                ..AsyncPolicy::default()
            })
        };
        check_table(
            runtime,
            vec![
                // No flags is `RuntimeConfig::barrier(cfg.seed)` bit for
                // bit: what keeps every smoke-script hash.
                ("", (l(), rt())),
                ("--mode barrier", (l(), rt())),
                ("--mode async", with_async(AsyncPolicy::default())),
                (
                    "--mode async --max-staleness 7",
                    with_async(AsyncPolicy {
                        max_staleness: 7,
                        ..AsyncPolicy::default()
                    }),
                ),
                // The async knobs and `--mode` commute.
                ("--max-staleness 3 --mode async", stale3()),
                ("--mode async --max-staleness 3", stale3()),
                (
                    "--threads 3",
                    (
                        l(),
                        RuntimeConfig {
                            threads: Some(3),
                            ..rt()
                        },
                    ),
                ),
                (
                    "--mailbox-cap 8",
                    (
                        l(),
                        RuntimeConfig {
                            mailbox_cap: 8,
                            ..rt()
                        },
                    ),
                ),
                (
                    "--seed 9",
                    (
                        Launch {
                            seed: 9,
                            ..Launch::default()
                        },
                        RuntimeConfig::barrier(9),
                    ),
                ),
                // `--seed` reseeds what was parsed before it.
                ("--crash-from 1:2 --seed 9", reseeded.clone()),
                ("--seed 9 --crash-from 1:2", reseeded),
                ("--transport channel", (l(), rt())),
                (
                    "--transport tcp",
                    (
                        Launch {
                            transport: TransportKind::Tcp,
                            ..l()
                        },
                        rt(),
                    ),
                ),
                (
                    "--transport uds",
                    (
                        Launch {
                            transport: TransportKind::Uds,
                            ..l()
                        },
                        rt(),
                    ),
                ),
                (
                    "--listen 127.0.0.1:0",
                    (
                        Launch {
                            listen: s("127.0.0.1:0"),
                            ..l()
                        },
                        rt(),
                    ),
                ),
                (
                    "--connect /tmp/s --node 2",
                    (
                        Launch {
                            connect: s("/tmp/s"),
                            node: Some(2),
                            ..l()
                        },
                        rt(),
                    ),
                ),
                (
                    "--checkpoint-dir ck --checkpoint-every 5",
                    (
                        l(),
                        RuntimeConfig {
                            checkpoint: CheckpointConfig {
                                dir: Some("ck".into()),
                                every: 5,
                                resume: true,
                            },
                            ..rt()
                        },
                    ),
                ),
                ("--max-recoveries 0", (l(), with_budget(0))),
                ("--max-recoveries 5", (l(), with_budget(5))),
                ("--no-recovery", (l(), with_budget(0))),
                (
                    "--crash-from 1:2 --crash-from 3:4 --corrupt-at 0:1",
                    (
                        l(),
                        RuntimeConfig {
                            faults: FaultPlan {
                                crashed_from: [(1, 2), (3, 4)].into(),
                                scripted: [((0, 1), Fault::Corrupt)].into(),
                                ..FaultPlan::new(SEED)
                            },
                            ..rt()
                        },
                    ),
                ),
                (
                    "--fault-seed 11 --fault-drop 0.5",
                    with_link(LinkFaultPlan {
                        drop_prob: 0.5,
                        ..LinkFaultPlan::new(11)
                    }),
                ),
                (
                    "--fault-drop 0.25 --fault-corrupt 1",
                    with_link(LinkFaultPlan {
                        drop_prob: 0.25,
                        corrupt_prob: 1.0,
                        ..LinkFaultPlan::new(SEED)
                    }),
                ),
                (
                    "--fault-delay-prob 0.5 --fault-delay-ms 20",
                    with_link(LinkFaultPlan {
                        delay: Some((0.5, 20)),
                        ..LinkFaultPlan::new(SEED)
                    }),
                ),
                (
                    "--fault-disconnect-after 6",
                    with_link(LinkFaultPlan {
                        disconnect_after_recvs: Some(6),
                        ..LinkFaultPlan::new(SEED)
                    }),
                ),
                // Zero probabilities leave the link fault-free.
                ("--fault-drop 0 --fault-delay-ms 0", (l(), rt())),
                (
                    "--mode async --async-decay hinge:2 --async-buffer 2 --adaptive-mix",
                    with_async(AsyncPolicy {
                        decay: StalenessDecay::Hinge { knee: 2 },
                        buffer_k: 2,
                        adaptive_mix: true,
                        ..AsyncPolicy::default()
                    }),
                ),
                ("--update-codec none", (l(), rt())),
                ("--update-codec dense", (l(), with_codec(UpdateCodec::Dense))),
                (
                    "--update-codec quant",
                    (l(), with_codec(UpdateCodec::Quant { bits: 8 })),
                ),
                (
                    "--quant-bits 16 --update-codec quant",
                    (l(), with_codec(UpdateCodec::Quant { bits: 16 })),
                ),
                (
                    "--update-codec topk --topk 4",
                    (l(), with_codec(UpdateCodec::TopK { k: 4 })),
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
                // An async knob without async mode, whichever knob.
                ("--max-staleness 3", NEEDS_ASYNC),
                ("--max-staleness 7", NEEDS_ASYNC),
                ("--async-decay hinge", NEEDS_ASYNC),
                ("--async-buffer 2", NEEDS_ASYNC),
                ("--adaptive-mix", NEEDS_ASYNC),
                (
                    "--async-decay hinge:2 --async-buffer 2 --adaptive-mix",
                    NEEDS_ASYNC,
                ),
                // A malformed decay name.
                (
                    "--mode async --async-decay exp",
                    "unknown async decay exp (poly|hinge|hinge:<knee>|const)",
                ),
                (
                    "--mode async --async-decay hinge:",
                    "bad hinge knee : cannot parse integer from empty string",
                ),
                (
                    "--mode async --async-decay hinge:x",
                    &format!("bad hinge knee x: {INT}"),
                ),
                // Codec flags that do not add up.
                (
                    "--update-codec quant --quant-bits 16 --topk 4",
                    "--topk requires --update-codec topk",
                ),
                ("--topk 4", "--topk requires --update-codec topk"),
                (
                    "--update-codec topk",
                    "--update-codec topk requires --topk <k>",
                ),
                ("--quant-bits 8", "--quant-bits requires --update-codec quant"),
                (
                    "--update-codec quant --quant-bits 7",
                    "quant bits must be 8 or 16",
                ),
                (
                    "--update-codec zstd",
                    "unknown update codec zstd (none|dense|quant|topk)",
                ),
                // Half a delay.
                (
                    "--fault-delay-prob 0.5",
                    "--fault-delay-prob requires --fault-delay-ms <ms>",
                ),
                (
                    "--fault-delay-ms 20",
                    "--fault-delay-ms requires --fault-delay-prob <p>",
                ),
            ],
        );
    }

    #[test]
    fn adapt_serve_flag_table() {
        let l = || Launch {
            seed: SEED,
            transport: TransportKind::Tcp,
            ..Launch::default()
        };
        let d = ServingConfig::default;
        let s = |v: &str| Some(v.to_string());
        check_table(
            serve,
            vec![
                ("", (l(), d())),
                (
                    "--transport uds",
                    (
                        Launch {
                            transport: TransportKind::Uds,
                            ..l()
                        },
                        d(),
                    ),
                ),
                (
                    "--listen 127.0.0.1:0",
                    (
                        Launch {
                            listen: s("127.0.0.1:0"),
                            ..l()
                        },
                        d(),
                    ),
                ),
                (
                    "--checkpoint-dir ck",
                    (
                        Launch {
                            checkpoint_dir: s("ck"),
                            ..l()
                        },
                        d(),
                    ),
                ),
                (
                    "--attach",
                    (
                        Launch {
                            attach: true,
                            ..l()
                        },
                        d(),
                    ),
                ),
                (
                    "--workers 2 --queue-depth 16",
                    (
                        l(),
                        ServingConfig {
                            workers: 2,
                            queue_depth: 16,
                            ..d()
                        },
                    ),
                ),
                (
                    "--max-k 0 --max-steps 0",
                    (
                        l(),
                        ServingConfig {
                            max_k: 0,
                            max_steps: 0,
                            ..d()
                        },
                    ),
                ),
                (
                    "--queue-deadline-ms 250 --max-requests 4 --seed 9",
                    (
                        Launch {
                            max_requests: Some(4),
                            seed: 9,
                            ..l()
                        },
                        ServingConfig {
                            queue_deadline_ms: 250,
                            ..d()
                        },
                    ),
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
            |line| parse_adapt_flags(&args(line)),
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

    /// Combinations no run can honour fail before anything is trained or
    /// dialed, naming the flag at fault — at the parser where the flags
    /// alone decide it, at launch where the process's role does.
    #[test]
    fn flags_that_would_be_ignored_are_errors() {
        let cfg = RunConfig::example();
        let node = "--transport tcp --connect 127.0.0.1:1 --node 0";
        let needs_node = "--fault-* wrap a node's link; add --node <id>";
        let no_fault = "--fault-seed has no link fault to seed (add --fault-drop, \
                        --fault-corrupt, --fault-delay-* or --fault-disconnect-after)";
        let contradict = "--no-recovery and --max-recoveries contradict each other";
        for (line, want) in [
            ("--max-staleness 3".to_string(), NEEDS_ASYNC),
            (
                format!("{node} --fault-delay-prob 0.5"),
                "--fault-delay-prob requires --fault-delay-ms <ms>",
            ),
            (
                format!("{node} --fault-delay-ms 20"),
                "--fault-delay-ms requires --fault-delay-prob <p>",
            ),
            // A link fault on the platform process wraps nothing.
            ("--fault-drop 0.9".to_string(), needs_node),
            ("--fault-corrupt 1.0".to_string(), needs_node),
            (
                "--fault-delay-prob 1 --fault-delay-ms 5".to_string(),
                needs_node,
            ),
            ("--fault-disconnect-after 3".to_string(), needs_node),
            ("--fault-seed 4 --fault-drop 0.9".to_string(), needs_node),
            // A fault seed with no fault to seed, node or not.
            (format!("{node} --fault-seed 11"), no_fault),
            ("--fault-seed 11".to_string(), no_fault),
            // A cadence with nowhere to write.
            (
                "--checkpoint-every 5".to_string(),
                "--checkpoint-every requires --checkpoint-dir <dir>",
            ),
            // A budget and its refusal, in either order.
            ("--no-recovery --max-recoveries 1".to_string(), contradict),
            ("--max-recoveries 1 --no-recovery".to_string(), contradict),
        ] {
            let ran = parse_runtime_flags(&args(&line), cfg.seed).and_then(|(launch, rt, _)| {
                match launch.node {
                    Some(_) => run_runtime_node(&cfg, &launch, rt).map(|_| ()),
                    None => run_runtime(&cfg, &launch, rt).map(|_| ()),
                }
            });
            assert_eq!(ran, Err(want.to_string()), "{line}");
        }
    }

    /// `UpdateCodec::validate` is the one codec rule: the builder panics
    /// with its text and the flag parser returns it.
    #[test]
    fn codec_rule_is_the_same_for_validate_builder_and_cli() {
        for (codec, line) in [
            (
                UpdateCodec::Quant { bits: 4 },
                "--update-codec quant --quant-bits 4",
            ),
            (
                UpdateCodec::Quant { bits: 8 },
                "--update-codec quant --quant-bits 8",
            ),
            (UpdateCodec::TopK { k: 0 }, "--update-codec topk --topk 0"),
            (UpdateCodec::TopK { k: 1 }, "--update-codec topk --topk 1"),
        ] {
            let rule = codec.validate().map(|()| codec);
            let parsed = runtime(line).map(|((_, rt), _)| rt.update_codec);
            assert_eq!(parsed, rule, "{codec}");
            let built =
                std::panic::catch_unwind(|| RuntimeConfig::barrier(0).with_update_codec(codec))
                    .map(|cfg| cfg.update_codec)
                    .map_err(|panic| *panic.downcast::<String>().expect("panics with a message"));
            assert_eq!(built, rule, "{codec}");
        }
    }
}
