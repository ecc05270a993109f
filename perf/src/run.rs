//! One run of one workload: set-up, warm-up, verification, the train
//! and adapt phases, and the metrics that come out of them.
//!
//! Numbers are printed only when every check holds; a failed check ends
//! the run with its name.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fml_core::adapt::evaluate_targets;
use fml_core::{LocalStepper, TrainOutput};
use fml_models::Model;
use fml_runtime::{
    param_hash, AdaptClient, AdaptServer, Runtime, RuntimeOutput, RuntimeReport, ServingReport,
    SharedGlobal,
};
use fml_sim::{FramePool, PoolStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib::SpeedLog;
use crate::layers::{self, Budget, Micro, TracedModel};
use crate::replay::{Ballast, Op, Recorder, ReplayCosts, Replayer};
use crate::serve::{self, AdaptBlock, Expect, Until};
use crate::stats::{median, median_of, percentile};
use crate::trace::Tracer;
use crate::train::run_schedule;
use crate::workloads::{socket_roundtrip, Bench, Link, Spec};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Share of `--seconds` the train phase gets when the adapt phase
/// follows it (16 s + 9 s at the default 25 s).
const TRAIN_SHARE: f64 = 0.64;
/// Fewest blocks a phase runs however slow the host is.
const MIN_BLOCKS: usize = 3;
/// Seconds of replayed rounds after each train block of a traced run.
const REPLAY_SLICE_S: f64 = 0.25;
/// Replies checked against the offline oracle before the adapt phase.
const SERVED_CHECK: usize = 100;

pub struct Options {
    pub seed: u64,
    /// How long the measured phases run.
    pub seconds: f64,
    pub trace: bool,
    /// Two short blocks per phase, all verification, no time budget.
    pub smoke: bool,
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (blocks, set-ups, calls).
    pub samples: usize,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Rounds plus adapt requests attempted in the measured phases.
    pub attempted: u64,
    pub failed: u64,
    /// Lines for the reader: the host speed this run saw, and its rates
    /// and latencies as the clock read them.
    pub notes: Vec<String>,
    /// The per-round budget table of a traced run.
    pub table: Option<String>,
    pub trace_file: Option<PathBuf>,
}

fn check(ok: bool, name: &str, detail: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("check `{name}` failed: {}", detail()))
    }
}

/// Where trace artefacts go: `perf/` under the build's target
/// directory (the executable sits in `<target>/<profile>/`).
fn artefact_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|p| p.parent())
                .map(|p| p.join("perf"))
        })
        .unwrap_or_else(|| PathBuf::from("target/perf"))
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Uploads the virtual clock schedules past the end of the schedule:
/// `undelivered` by design in async mode, not a fault.
fn scheduled_in_flight(b: &Bench, rounds: usize) -> u64 {
    if !b.spec.async_mode {
        return 0;
    }
    let cfg = b.spec.runtime_config(b.seed);
    let mut in_flight = 0;
    for round in 1..=rounds {
        for node in 0..b.tasks.len() {
            let arrival =
                (round - 1) as f64 * cfg.round_duration_s + cfg.clock.delay_s(node, round);
            if (arrival / cfg.round_duration_s).floor() >= rounds as f64 {
                in_flight += 1;
            }
        }
    }
    in_flight
}

/// Rounds and frames that did not do what the fault-free schedule says.
fn failed_train_ops(report: &RuntimeReport, in_flight: u64) -> u64 {
    report.degraded_rounds as u64
        + report.decode_errors
        + report.undelivered.abs_diff(in_flight)
        + report.rejected_stale
        + report.rejected_invalid
}

/// One train block: how long it took and how fast the host was.
#[derive(Debug, Clone, Copy)]
struct TrainBlock {
    secs: f64,
    /// Host speed from the calibration unit timed right after it.
    speed: f64,
}

/// The clients of a workload that serves while it trains, and what
/// their replies must be.
struct Live<'a> {
    clients: &'a mut [AdaptClient],
    expect: Expect<'a>,
}

/// Median over `blocks` of rounds per host-speed-normalised second.
fn rounds_per_s(blocks: &[TrainBlock], rounds: usize) -> f64 {
    median_of(blocks.iter().map(|b| rounds as f64 / (b.secs * b.speed)))
}

/// The train phase as measured.
struct TrainPhase {
    /// Blocks run with the plain model.
    plain: Vec<TrainBlock>,
    /// Blocks run with the `TracedModel` (traced runs).
    traced: Vec<TrainBlock>,
    failed: u64,
    allocs: u64,
    /// Frame-pool acquires inside the blocks: served from the free
    /// list, and freshly allocated.
    pool_hits: usize,
    pool_misses: usize,
    pool_high_water: usize,
    /// What the clients saw beside each block, on a workload that
    /// serves while it trains.
    served: Vec<AdaptBlock>,
    last: Option<RuntimeOutput>,
}

impl TrainPhase {
    fn blocks(&self) -> usize {
        self.plain.len() + self.traced.len()
    }

    /// The last block's output (every phase runs at least two blocks).
    fn last(&self) -> &RuntimeOutput {
        self.last.as_ref().expect("a train phase ran a block")
    }
}

/// What every train block of a run has in common.
struct Schedule<'a> {
    b: &'a Bench,
    rounds: usize,
    /// Where the trainer publishes every round, when a server listens.
    publisher: Option<&'a SharedGlobal>,
    /// The `param_hash` every block must end on.
    first_hash: &'a str,
    /// Uploads the async clock leaves in flight by design.
    in_flight: u64,
}

/// Runs equal blocks for `budget`, cycling through `models` (one plain
/// model; or plain and traced alternately). Every block must end on
/// `first_hash`. With `live` clients, each block has them sending
/// requests beside it for as long as it runs; they stop when it ends,
/// so the calibration unit that follows has the host to itself.
/// `after_block` runs between blocks, outside their timing: a traced
/// run replays rounds there, so replay and blocks see the same
/// stretches of a host whose speed drifts.
fn train_blocks(
    schedule: &Schedule<'_>,
    models: &[&dyn Model],
    budget: Option<Duration>,
    tracer: &mut Option<Tracer>,
    speeds: &mut SpeedLog,
    mut live: Option<Live<'_>>,
    after_block: &mut dyn FnMut(&mut Option<Tracer>),
) -> Result<TrainPhase, String> {
    let started = Instant::now();
    let mut phase = TrainPhase {
        plain: Vec::new(),
        traced: Vec::new(),
        failed: 0,
        allocs: 0,
        pool_hits: 0,
        pool_misses: 0,
        pool_high_water: 0,
        served: Vec::new(),
        last: None,
    };
    let mut i = 0;
    loop {
        let done = match budget {
            Some(budget) => i >= MIN_BLOCKS * models.len() && started.elapsed() >= budget,
            None => i >= 2 * models.len(),
        };
        if done {
            break;
        }
        let which = i % models.len();
        let pool_before: PoolStats = FramePool::global().stats();
        let allocs_before = crate::alloc::count();
        let ((secs, out), served) = match &mut live {
            Some(live) => {
                let stop = AtomicBool::new(false);
                let keep_spans = tracer.is_some() && phase.served.is_empty();
                std::thread::scope(|s| {
                    let clients = s.spawn(|| {
                        serve::run_block(
                            schedule.b,
                            live.clients,
                            Until::Raised(&stop),
                            &live.expect,
                            keep_spans,
                        )
                    });
                    let timed = run_schedule_timed(schedule, models[which], tracer, i as u32);
                    stop.store(true, Ordering::Relaxed);
                    (timed, Some(clients.join().expect("adapt client panicked")))
                })
            }
            None => (
                run_schedule_timed(schedule, models[which], tracer, i as u32),
                None,
            ),
        };
        phase.allocs += crate::alloc::count() - allocs_before;
        let pool_after = FramePool::global().stats();
        phase.pool_hits += pool_after.hits - pool_before.hits;
        phase.pool_misses += pool_after.misses - pool_before.misses;
        phase.pool_high_water = pool_after.high_water;
        let hash = param_hash(&out.train.params);
        check(hash == schedule.first_hash, "block_param_hash", || {
            format!(
                "block {i} ended on {hash}, the first block on {}",
                schedule.first_hash
            )
        })?;
        phase.failed += failed_train_ops(&out.report, schedule.in_flight);
        let block = TrainBlock {
            secs,
            speed: speeds.measure(),
        };
        if let Some(mut served) = served {
            served.speed = block.speed;
            record_adapt_spans(tracer, &served, phase.served.len() as u32);
            phase.served.push(served);
        }
        if which == 0 {
            phase.plain.push(block);
        } else {
            phase.traced.push(block);
        }
        phase.last = Some(out);
        i += 1;
        after_block(tracer);
    }
    Ok(phase)
}

fn run_schedule_timed(
    schedule: &Schedule<'_>,
    model: &dyn Model,
    tracer: &mut Option<Tracer>,
    block: u32,
) -> (f64, RuntimeOutput) {
    let started = Instant::now();
    let out = run_schedule(
        schedule.b,
        model,
        &schedule.b.tasks,
        schedule.rounds,
        schedule.publisher,
    );
    let ended = Instant::now();
    if let Some(tracer) = tracer {
        tracer.record("Runtime::run(block)", started, ended, 0, block);
    }
    ((ended - started).as_secs_f64(), out)
}

/// The adapt phase as measured.
struct AdaptPhase {
    blocks: Vec<AdaptBlock>,
    report: ServingReport,
}

impl AdaptPhase {
    fn attempted(&self) -> u64 {
        self.blocks.iter().map(|b| b.attempted as u64).sum()
    }

    fn failed(&self) -> u64 {
        self.blocks.iter().map(|b| b.failed as u64).sum::<u64>()
            + self.report.rejected_total()
            + self.report.decode_errors
            + self.report.dropped_replies
    }

    /// Median block's completed replies per normalised second.
    fn qps(&self) -> f64 {
        median_of(
            self.blocks
                .iter()
                .map(|b| b.latencies_us.len() as f64 / (b.secs * b.speed)),
        )
    }

    /// Median over blocks of the block's `p`-th percentile latency,
    /// normalised when `normalised` and as the clients saw it otherwise.
    fn latency(&self, p: f64, normalised: bool) -> f64 {
        median_of(
            self.blocks
                .iter()
                .map(|b| percentile(&b.latencies_us, p) * if normalised { b.speed } else { 1.0 }),
        )
    }
}

/// The 100-reply gate: served parameters equal offline `adapt_into` on
/// the final global, bitwise.
fn served_bitwise(
    b: &Bench,
    clients: &mut [AdaptClient],
    round: u32,
    expected: &[Vec<f64>],
) -> Result<(), String> {
    let expect = Expect::Exact {
        round,
        params: expected,
    };
    let requests = SERVED_CHECK.max(clients.len());
    let gate = serve::run_block(b, clients, Until::Sent(requests), &expect, false);
    check(gate.failed == 0, "served_bitwise", || {
        format!(
            "{} of {} replies differ from offline adapt_into on the final global",
            gate.failed, gate.attempted
        )
    })
}

/// Closed-loop blocks against a server holding a fixed global.
fn adapt_after_training(
    b: &Bench,
    global: &[f64],
    round: u32,
    budget: Option<Duration>,
    requests: usize,
    tracer: &mut Option<Tracer>,
    speeds: &mut SpeedLog,
) -> Result<AdaptPhase, String> {
    let shared = SharedGlobal::new();
    shared.publish(round, global);
    let server = serve::start_server(b, shared);
    let mut clients = serve::connect_clients(b, &server);
    let expected = serve::offline_replies(b, global);
    served_bitwise(b, &mut clients, round, &expected)?;
    let expect = Expect::Exact {
        round,
        params: &expected,
    };
    let started = Instant::now();
    let mut blocks = Vec::new();
    loop {
        let done = match budget {
            Some(budget) => blocks.len() >= MIN_BLOCKS && started.elapsed() >= budget,
            None => blocks.len() >= 2,
        };
        if done {
            break;
        }
        let keep_spans = tracer.is_some() && blocks.is_empty();
        let mut block =
            serve::run_block(b, &mut clients, Until::Sent(requests), &expect, keep_spans);
        block.speed = speeds.measure();
        record_adapt_spans(tracer, &block, blocks.len() as u32);
        blocks.push(block);
    }
    drop(clients);
    Ok(AdaptPhase {
        blocks,
        report: server.shutdown(),
    })
}

fn record_adapt_spans(tracer: &mut Option<Tracer>, block: &AdaptBlock, index: u32) {
    let Some(tracer) = tracer else {
        return;
    };
    let (Some(first), Some(last)) = (
        block.spans.iter().map(|s| s.0).min(),
        block.spans.iter().map(|s| s.1).max(),
    ) else {
        return;
    };
    let parent = tracer.open("adapt.block", first, 0, index);
    tracer.close(parent, last);
    for &(start, end, req) in &block.spans {
        tracer.record("AdaptClient::request", start, end, parent, req);
    }
}

/// Train and adapt at once: the trainer publishes every round into the
/// `SharedGlobal` the server reads from, and the clients send requests
/// for as long as each train block runs.
fn train_while_serving(
    schedule: &Schedule<'_>,
    models: &[&dyn Model],
    budget: Option<Duration>,
    tracer: &mut Option<Tracer>,
    speeds: &mut SpeedLog,
    after_block: &mut dyn FnMut(&mut Option<Tracer>),
) -> Result<(TrainPhase, AdaptPhase), String> {
    let (b, rounds) = (schedule.b, schedule.rounds);
    let shared = schedule
        .publisher
        .expect("a live workload trains with a publisher");
    let server: AdaptServer = serve::start_server(b, shared.clone());
    let mut clients = serve::connect_clients(b, &server);
    let live = Live {
        clients: &mut clients,
        expect: Expect::Live {
            max_round: rounds as u32,
            len: b.theta0.len(),
        },
    };
    let mut train = train_blocks(
        schedule,
        models,
        budget,
        tracer,
        speeds,
        Some(live),
        after_block,
    )?;
    // Training has stopped on the final global: replies are exact again.
    let expected = serve::offline_replies(b, &train.last().train.params);
    served_bitwise(b, &mut clients, rounds as u32, &expected)?;
    drop(clients);
    let blocks = std::mem::take(&mut train.served);
    Ok((
        train,
        AdaptPhase {
            blocks,
            report: server.shutdown(),
        },
    ))
}

/// What verification hands on to the metrics.
struct Verified {
    rounds_to_target: usize,
    target_loss: f64,
    wire_bytes_per_round: f64,
}

/// The untimed checks on the warm-up block's output, and the quality
/// metrics: from the same output, or from the workload's quality pass.
fn verify(b: &Bench, rounds: usize, warm: &RuntimeOutput, smoke: bool) -> Result<Verified, String> {
    let spec = &b.spec;
    let model = b.model.as_ref();
    check(
        warm.train.params.iter().all(|x| x.is_finite())
            && warm.train.params.len() == b.theta0.len(),
        "finite_global",
        || "the trained global has a non-finite coordinate".into(),
    )?;

    // The schedule the quality metrics are read from.
    let quality_run;
    let (quality_tasks, quality_rounds, scored) = match (&b.quality_tasks, spec.quality) {
        (Some(tasks), Some(q)) => {
            let rounds = if smoke { spec.smoke_rounds } else { q.rounds };
            quality_run = run_schedule(b, model, tasks, rounds, None);
            let faults = failed_train_ops(&quality_run.report, 0);
            check(faults == 0, "fault_free_schedule", || {
                format!("quality pass: {faults} failed train ops")
            })?;
            (tasks.as_slice(), rounds, &quality_run)
        }
        _ => (b.tasks.as_slice(), rounds, warm),
    };
    let trainer = spec.trainer(quality_rounds);

    // The in-process reference: the bitwise oracle of the `none`-codec
    // barrier workloads, and the quality yardstick of every workload.
    let oracle: TrainOutput = trainer.train_from(model, quality_tasks, &b.theta0);
    if !spec.async_mode && spec.codec.is_none() && spec.quality.is_none() {
        check(
            warm.train.params == oracle.params && warm.train.history == oracle.history,
            "oracle_bitwise",
            || "Runtime output differs from FedMl::train_from".into(),
        )?;
    }
    if spec.link == Link::Tcp {
        // A lossy codec must not care which transport carried it.
        let over_channel = Runtime::new(spec.runtime_config(b.seed)).run(
            &spec.trainer(rounds),
            model,
            &b.tasks,
            &b.theta0,
        );
        check(
            over_channel.train.params == warm.train.params,
            "transport_invariant",
            || "the TCP run differs from the same config over ChannelTransport".into(),
        )?;
    }

    // The replayed round against the runtime's first round.
    let one_round = run_schedule(b, model, &b.tasks, 1, None);
    let mut replayer = Replayer::new(b);
    let replayed = replayer.round(1, &b.theta0, &mut Recorder::off());
    if spec.async_mode {
        check(
            replayed.len() == one_round.train.params.len()
                && replayed.iter().all(|x| x.is_finite()),
            "replay_shape",
            || "the replayed async round is not a finite vector of the model's length".into(),
        )?;
    } else {
        check(replayed == one_round.train.params, "replay_bitwise", || {
            "the replayed round differs from Runtime's global after one round".into()
        })?;
    }

    // Time-to-quality: the first round whose meta loss is within `f` of
    // the way from L(θ0) down to the loss the reference reaches by the
    // end of the schedule.
    let start_loss = trainer.eval_losses(model, quality_tasks, &b.theta0).0;
    let reference_loss = oracle.history.last().map_or(start_loss, |r| r.meta_loss);
    let target = reference_loss + spec.target_frac * (start_loss - reference_loss);
    let hit = scored
        .train
        .history
        .iter()
        .position(|r| r.meta_loss <= target);
    if !smoke {
        check(hit.is_some(), "target_reached", || {
            format!(
                "meta loss never fell to {target:.6} (start {start_loss:.6}, reference end {reference_loss:.6})"
            )
        })?;
    }
    let rounds_to_target = hit.map_or(quality_rounds, |i| i + 1);

    let mut rng = StdRng::seed_from_u64(b.seed ^ 0x7a26_e75e);
    let target_loss = evaluate_targets(
        model,
        &scored.train.params,
        &b.targets,
        spec.adapt.k,
        spec.alpha,
        spec.adapt.steps as usize,
        &mut rng,
    )
    .final_loss();
    check(target_loss.is_finite(), "target_loss_finite", || {
        "post-adaptation loss on the held-out targets is not finite".into()
    })?;

    let wire: u64 = warm
        .report
        .per_node
        .iter()
        .map(|io| io.bytes_sent + io.bytes_received)
        .sum();
    Ok(Verified {
        rounds_to_target,
        target_loss,
        wire_bytes_per_round: wire as f64 / rounds as f64,
    })
}

/// Runs one workload and returns its metrics, or the failed check.
pub fn run(spec: &Spec, opt: &Options) -> Result<Outcome, String> {
    let mut tracer = opt.trace.then(Tracer::new);

    // Set-up, several times over: a later change that moves work into
    // set-up shows here, and the median is steadier than one sample.
    let repeats = if opt.smoke { 1 } else { SETUP_REPEATS };
    let mut speeds = SpeedLog::default();
    let mut setup_secs = Vec::with_capacity(repeats);
    let mut generate_secs = Vec::with_capacity(repeats);
    let mut bench = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let b = spec.setup(opt.seed);
        socket_roundtrip();
        let ended = Instant::now();
        if let Some(tracer) = &mut tracer {
            tracer.record("setup", started, ended, 0, setup_secs.len() as u32);
        }
        setup_secs.push((ended - started).as_secs_f64() * speeds.measure());
        generate_secs.push(b.generate_s);
        bench = Some(b);
    }
    let b = bench.expect("at least one set-up ran");
    let rounds = if opt.smoke {
        spec.smoke_rounds
    } else {
        spec.rounds
    };
    let requests = if opt.smoke {
        200
    } else {
        spec.adapt.requests_per_block
    };
    let budget = |share: f64| (!opt.smoke).then(|| Duration::from_secs_f64(opt.seconds * share));
    let in_flight = scheduled_in_flight(&b, rounds);
    let shared = spec.concurrent.then(SharedGlobal::new);

    // Warm-up block: fills the frame pool, faults the pages in, and is
    // the output every check reads.
    let warm = run_schedule(&b, b.model.as_ref(), &b.tasks, rounds, shared.as_ref());
    let first_hash = param_hash(&warm.train.params);
    let verified = verify(&b, rounds, &warm, opt.smoke)?;
    let warm_failed = failed_train_ops(&warm.report, in_flight);
    check(warm_failed == 0, "fault_free_schedule", || {
        format!(
            "warm-up block: {} degraded rounds, {} decode errors, {} undelivered ({} scheduled in flight), {} stale, {} invalid",
            warm.report.degraded_rounds,
            warm.report.decode_errors,
            warm.report.undelivered,
            in_flight,
            warm.report.rejected_stale,
            warm.report.rejected_invalid
        )
    })?;

    let traced_model = TracedModel::new(b.model.clone());
    let plain: [&dyn Model; 1] = [b.model.as_ref()];
    let both: [&dyn Model; 2] = [b.model.as_ref(), &traced_model];
    let models: &[&dyn Model] = if opt.trace { &both } else { &plain };

    // A traced run spends part of its time on the replay and the
    // single-function loops, so its phases are shorter.
    let (train_share, adapt_share) = match (opt.trace, spec.concurrent) {
        (false, false) => (TRAIN_SHARE, 1.0 - TRAIN_SHARE),
        (false, true) => (1.0, 1.0),
        (true, false) => (0.5, 0.25),
        (true, true) => (0.7, 0.7),
    };

    // A traced run replays rounds between train blocks.
    let replay_slice = Duration::from_secs_f64(if opt.smoke { 0.0 } else { REPLAY_SLICE_S });
    let mut replayer = Replayer::new(&b);
    // What each slice of replayed rounds cost, in block order.
    let mut slices: Vec<ReplayCosts> = Vec::new();
    let mut replayed = 0u32;
    let mut replay_between_blocks = |tracer: &mut Option<Tracer>| {
        let Some(tracer) = tracer else {
            return;
        };
        // The load beside the replay is what a second worker would be
        // doing: local updates of the workload's own.
        let ballast = Ballast::default();
        let trainer = spec.trainer(1);
        std::thread::scope(|s| {
            let loaded = s.spawn(|| {
                let mut tasks = b.tasks.iter().cycle();
                ballast.run(|| {
                    let task = tasks.next().expect("a workload has tasks");
                    std::hint::black_box(trainer.local_update(
                        b.model.as_ref(),
                        task,
                        &b.theta0,
                        spec.local_steps,
                    ));
                });
            });
            let mut recorder = Recorder::on(tracer, &ballast, loaded.thread());
            let started = Instant::now();
            loop {
                replayed += 1;
                replayer.round(replayed, &b.theta0, &mut recorder);
                if started.elapsed() >= replay_slice {
                    break;
                }
            }
            slices.push(recorder.finish());
            ballast.quit(loaded.thread());
        });
    };

    let schedule = Schedule {
        b: &b,
        rounds,
        publisher: shared.as_ref(),
        first_hash: &first_hash,
        in_flight,
    };
    let (train, adapt, quiet_allocs) = if spec.concurrent {
        // Allocations per round are counted on a block with no client
        // connected: served requests allocate on the same heap.
        let quiet = train_blocks(
            &schedule,
            &plain,
            None,
            &mut None,
            &mut speeds,
            None,
            &mut |_| {},
        )?;
        let quiet_allocs = quiet.allocs as f64 / (quiet.blocks() * rounds) as f64;
        let (train, adapt) = train_while_serving(
            &schedule,
            models,
            budget(train_share),
            &mut tracer,
            &mut speeds,
            &mut replay_between_blocks,
        )?;
        (train, adapt, Some(quiet_allocs))
    } else {
        let train = train_blocks(
            &schedule,
            models,
            budget(train_share),
            &mut tracer,
            &mut speeds,
            None,
            &mut replay_between_blocks,
        )?;
        let adapt = adapt_after_training(
            &b,
            &train.last().train.params,
            rounds as u32,
            budget(adapt_share),
            requests,
            &mut tracer,
            &mut speeds,
        )?;
        (train, adapt, None)
    };

    let train_rounds = (train.blocks() * rounds) as u64;
    let attempted = train_rounds + adapt.attempted();
    let failed = train.failed + adapt.failed();
    check(failed == 0, "failed_ops", || {
        format!(
            "{} failed train ops, {} failed adapt ops of {attempted} attempted",
            train.failed,
            adapt.failed()
        )
    })?;

    let rate = rounds_per_s(&train.plain, rounds);
    let raw_secs: Vec<f64> = train.plain.iter().map(|b| b.secs).collect();
    let host_speeds = speeds.speeds();
    let notes = vec![format!(
        "host speed {:.3} (median of {} readings of the calibration unit; {:.3} slowest, {:.3} fastest); as the clock read them: rounds_per_s {:.3}, adapt_p50_us {:.1}, adapt_p90_us {:.1}, adapt p99 {:.1} us",
        median(host_speeds),
        host_speeds.len(),
        host_speeds.iter().copied().fold(f64::INFINITY, f64::min),
        host_speeds.iter().copied().fold(0.0, f64::max),
        rounds as f64 / median(&raw_secs),
        adapt.latency(50.0, false),
        adapt.latency(90.0, false),
        adapt.latency(99.0, false),
    )];

    if !opt.trace {
        let allocs_per_round = quiet_allocs.unwrap_or(train.allocs as f64 / train_rounds as f64);
        let metrics = vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&setup_secs),
                samples: setup_secs.len(),
            },
            Metric {
                name: "rounds_per_s",
                unit: "1/s",
                value: rate,
                samples: train.plain.len(),
            },
            Metric {
                name: "rounds_to_target",
                unit: "rounds",
                value: verified.rounds_to_target as f64,
                samples: 1,
            },
            Metric {
                name: "time_to_target_s",
                unit: "s",
                value: verified.rounds_to_target as f64 / rate,
                samples: train.plain.len(),
            },
            Metric {
                name: "wire_bytes_per_round",
                unit: "bytes",
                value: verified.wire_bytes_per_round,
                samples: rounds,
            },
            Metric {
                name: "target_loss",
                unit: "loss",
                value: verified.target_loss,
                samples: b.targets.len(),
            },
            Metric {
                name: "adapt_qps",
                unit: "1/s",
                value: adapt.qps(),
                samples: adapt.blocks.len(),
            },
            Metric {
                name: "adapt_p50_us",
                unit: "us",
                value: adapt.latency(50.0, true),
                samples: adapt.blocks.len(),
            },
            Metric {
                name: "adapt_p90_us",
                unit: "us",
                value: adapt.latency(90.0, true),
                samples: adapt.blocks.len(),
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MiB",
                value: peak_rss_mib(),
                samples: 1,
            },
            Metric {
                name: "allocs_per_round",
                unit: "count",
                value: allocs_per_round,
                samples: if spec.concurrent {
                    2 * rounds
                } else {
                    train_rounds as usize
                },
            },
        ];
        return Ok(Outcome {
            metrics,
            attempted,
            failed,
            notes,
            table: None,
            trace_file: None,
        });
    }

    // The traced run: single-function loops, then the budget and the
    // per-layer metrics.
    let dir = artefact_dir();
    let final_global = &train.last().train.params;
    let each = Duration::from_millis(if opt.smoke { 2 } else { 40 });
    let hops = if opt.smoke { 200 } else { 10_000 };
    let micro: Micro = layers::micro(&b, final_global, &dir, each, hops);
    // One budget per plain block and the slice of replayed rounds right
    // after it, both as the clock read them: a pair shares its stretch
    // of a host whose speed drifts. The pair whose remainder is the
    // median stands for the run.
    let mut budgets: Vec<Budget> = train
        .plain
        .iter()
        .zip(slices.iter().step_by(models.len()))
        .map(|(block, slice)| layers::budget(&b, slice, &micro, block.secs / rounds as f64 * 1e6))
        .collect();
    budgets.sort_by(|x, y| x.unexplained_share.total_cmp(&y.unexplained_share));
    let budget: Budget = budgets.swap_remove(budgets.len() / 2);
    let mut costs = ReplayCosts::default();
    for slice in &slices {
        costs.add(slice);
    }
    let traced_rps = rounds_per_s(&train.traced, rounds);
    let report = &train.last().report;
    let traced_rounds = (train.traced.len() * rounds).max(1) as f64;
    let pool_hits = train.pool_hits as f64;
    let pool_misses = train.pool_misses as f64;
    let staleness_total: u64 = report.staleness_hist.iter().sum();
    let staleness_mean = if staleness_total == 0 {
        0.0
    } else {
        report
            .staleness_hist
            .iter()
            .enumerate()
            .map(|(s, &n)| (s as u64 * n) as f64)
            .sum::<f64>()
            / staleness_total as f64
    };
    let frames: u64 = report
        .per_node
        .iter()
        .map(|io| io.frames_sent + io.frames_received)
        .sum();
    let client_p50 = adapt.latency(50.0, false);
    let served_path_us = micro.serving_hops_us
        + micro.request_parse_us
        + micro.adapt_into_us
        + micro.request_encode_us;
    let blocks = train.plain.len();
    let calls = costs.rounds as usize;
    let m = |name: &'static str, unit: &'static str, value: f64, samples: usize| Metric {
        name,
        unit,
        value,
        samples,
    };
    let metrics = vec![
        m(
            "models.loss_us",
            "us",
            traced_model.loss_us(),
            train.traced.len(),
        ),
        m(
            "models.grad_us",
            "us",
            traced_model.grad_us(),
            train.traced.len(),
        ),
        m(
            "models.hvp_us",
            "us",
            traced_model.hvp_us(),
            train.traced.len(),
        ),
        m(
            "models.calls_per_round",
            "count",
            traced_model.calls() as f64 / traced_rounds,
            train.traced.len(),
        ),
        m(
            "core.step.local_update_us",
            "us",
            costs.cost(Op::LocalUpdate).per_call_us(),
            calls,
        ),
        m(
            "core.step.round_share",
            "share",
            budget.share("core.step"),
            calls,
        ),
        m(
            "core.trainer.eval_losses_us",
            "us",
            costs.cost(Op::EvalLosses).per_call_us(),
            calls,
        ),
        m(
            "core.trainer.round_share",
            "share",
            budget.share("core.trainer"),
            calls,
        ),
        m("core.adapt.adapt_into_us", "us", micro.adapt_into_us, 1),
        m(
            "core.adapt.request_share",
            "share",
            micro.adapt_into_us / client_p50,
            adapt.blocks.len(),
        ),
        m("core.gather.screen_us", "us", micro.screen_us, 1),
        m(
            "core.gather.aggregate_us",
            "us",
            costs.cost(Op::Aggregate).per_call_us(),
            calls,
        ),
        m(
            "core.gather.round_share",
            "share",
            budget.share("core.gather"),
            calls,
        ),
        m("core.checkpoint.save_us", "us", micro.checkpoint_save_us, 1),
        m("core.checkpoint.load_us", "us", micro.checkpoint_load_us, 1),
        m(
            "sim.message.encode_global_us",
            "us",
            costs.cost(Op::EncodeGlobal).per_call_us(),
            calls,
        ),
        m(
            "sim.message.encode_update_us",
            "us",
            costs.cost(Op::EncodeUpdate).per_call_us(),
            calls,
        ),
        m(
            "sim.message.parse_copy_us",
            "us",
            costs.cost(Op::ParseCopy).per_call_us(),
            calls,
        ),
        m(
            "sim.message.round_share",
            "share",
            budget.share("sim.message"),
            calls,
        ),
        m(
            "sim.codec.encode_us",
            "us",
            costs.cost(Op::CodecEncode).per_call_us(),
            calls,
        ),
        m(
            "sim.codec.decode_us",
            "us",
            costs.cost(Op::CodecDecode).per_call_us(),
            calls,
        ),
        m("sim.codec.ratio", "ratio", layers::codec_ratio(&b), 1),
        m("sim.framing.prefix_us", "us", micro.prefix_us, 1),
        m("sim.framing.next_frame_us", "us", micro.next_frame_us, 1),
        m(
            "sim.pool.acquire_release_us",
            "us",
            micro.pool_acquire_release_us,
            1,
        ),
        m(
            "sim.pool.hit_rate",
            "ratio",
            pool_hits / (pool_hits + pool_misses).max(1.0),
            blocks,
        ),
        m(
            "sim.pool.high_water",
            "count",
            train.pool_high_water as f64,
            blocks,
        ),
        m(
            "sim.pool.misses_per_round",
            "count",
            pool_misses / train_rounds as f64,
            blocks,
        ),
        m("runtime.transport.hop_us", "us", micro.hop_us, hops),
        m("runtime.transport.hop_p99_us", "us", micro.hop_p99_us, hops),
        m(
            "runtime.platform.round_us",
            "us",
            median(&raw_secs) / rounds as f64 * 1e6,
            blocks,
        ),
        m(
            "runtime.platform.replay_round_us",
            "us",
            costs.round_ns as f64 / 1e3 / costs.rounds.max(1) as f64,
            calls,
        ),
        m(
            "runtime.platform.unexplained_share",
            "share",
            budget.unexplained_share,
            calls,
        ),
        m(
            "runtime.platform.frames_per_round",
            "count",
            frames as f64 / rounds as f64,
            rounds,
        ),
        m(
            "runtime.platform.staleness_mean",
            "rounds",
            staleness_mean,
            staleness_total as usize,
        ),
        m(
            "runtime.platform.rejected_stale",
            "count",
            report.rejected_stale as f64,
            rounds,
        ),
        m(
            "runtime.platform.degraded_rounds",
            "count",
            report.degraded_rounds as f64,
            rounds,
        ),
        m(
            "runtime.platform.decode_errors",
            "count",
            report.decode_errors as f64,
            rounds,
        ),
        m(
            "runtime.platform.reconnects",
            "count",
            report.per_node.iter().map(|io| io.reconnects).sum::<u64>() as f64,
            rounds,
        ),
        m(
            "runtime.serving.request_encode_us",
            "us",
            micro.request_encode_us,
            1,
        ),
        m("runtime.serving.parse_us", "us", micro.request_parse_us, 1),
        m("runtime.serving.publish_us", "us", micro.publish_us, 1),
        m("runtime.serving.snapshot_us", "us", micro.snapshot_us, 1),
        m(
            "runtime.serving.server_p50_us",
            "us",
            adapt.report.latency.p50_us as f64,
            adapt.report.responses as usize,
        ),
        m(
            "runtime.serving.client_p99_us",
            "us",
            adapt.latency(99.0, false),
            adapt.blocks.len(),
        ),
        m(
            "runtime.serving.queue_share",
            "share",
            1.0 - served_path_us / client_p50,
            adapt.blocks.len(),
        ),
        m(
            "runtime.serving.shed",
            "count",
            adapt.report.shed_busy as f64,
            adapt.report.requests as usize,
        ),
        m(
            "runtime.serving.swaps_observed",
            "count",
            adapt.report.served_rounds.len().saturating_sub(1) as f64,
            adapt.report.responses as usize,
        ),
        m(
            "data.generate_s",
            "s",
            median(&generate_secs),
            generate_secs.len(),
        ),
        m(
            "trace_overhead_pct",
            "%",
            (rate - traced_rps) / rate * 100.0,
            train.blocks(),
        ),
    ];
    let table = budget.table(spec.name);
    let trace_file = dir.join(format!("trace-{}.json", spec.name));
    tracer
        .as_ref()
        .expect("a traced run has a tracer")
        .write(&trace_file, spec.name)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes,
        table: Some(table),
        trace_file: Some(trace_file),
    })
}
