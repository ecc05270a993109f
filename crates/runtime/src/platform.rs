//! The platform event loop: owns the global parameters, broadcasts
//! them as encoded frames, and drives aggregation.
//!
//! # Topology
//!
//! ```text
//!                    bounded sync_channel (mailbox_cap)
//!        ┌────────────────────────────────────────────┐
//!        │              GlobalModel frames            ▼
//!   ┌──────────┐                                ┌───────────┐
//!   │ platform │                                │ node actor│ × n
//!   │event loop│                                └───────────┘
//!   └──────────┘                ModelUpdate frames    │
//!        ▲────────────────────────────────────────────┘
//!                    shared uplink channel
//! ```
//!
//! The platform never blocks without a timeout and never blocks on a
//! send at all: broadcasts use `try_send` (a full or dead mailbox drops
//! the frame and degrades the round), and the uplink is drained with
//! `recv_timeout`. A crashed or wedged node thread therefore costs one
//! timeout, not the run.
//!
//! # Round timeline
//!
//! The training curve is a reporting quantity no step of the algorithm
//! waits for, so the fleet does not wait for it either. A round's tail
//! (`close_round`) publishes and checkpoints the new global — before the
//! next broadcast, as ever — and *parks* the round; the next round's
//! prologue (`exchange`) evaluates the parked round's losses after its
//! broadcast loop and before it starts collecting, i.e. while the nodes
//! compute and this thread would only block:
//!
//! ```text
//! aggregate r │ publish, checkpoint, park r │ broadcast r+1 │ evaluate r │ collect r+1
//! ```
//!
//! The last round is flushed after the mode loop. No thread or channel
//! is involved. The one consequence: `history` and `report.trace` lag
//! the loop by one round while it runs, so nothing inside the loop reads
//! them.
//!
//! # Modes
//!
//! **Barrier** waits for every expected update each round. When the
//! fleet is fault-free and the gather policy is the default, it
//! reproduces `train_from` of the driven trainer *bitwise* — including
//! the reference implementation's quirk of evaluating the training
//! curve at the re-aggregation of the post-broadcast local copies.
//! With faults or a custom policy it routes every round through
//! [`fml_core::gather::gather`] (deadline triage, validation, quorum,
//! robust aggregation), degrading rounds instead of failing. Either way
//! the aggregate becomes the next global through
//! [`LocalStepper::combine`] — identity for FedML/FedAvg/FedProx (the
//! bitwise trainers), Reptile's outer interpolation otherwise.
//!
//! **Async** buffers each upload until its virtual arrival round
//! (round-start time plus seeded clock delay plus any scheduled
//! straggle), then folds updates into the global model one at a time in
//! `(arrival_time, node)` order with a staleness-decayed weight (see
//! [`crate::AsyncPolicy`]) — that mix replaces
//! [`LocalStepper::combine`] in this mode. Updates staler than
//! `max_staleness` are rejected and counted. Because arrival order is derived from the
//! virtual clock — never from OS scheduling — results are bitwise
//! identical at any worker-thread count.

use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

use bytes::Bytes;
use fml_core::checkpoint::Checkpoint;
use fml_core::ft::{rollback_and_exclude, ReuseCache};
use fml_core::gather::{gather, screen_update, RoundReport, Submission, Validated};
use fml_core::parallel::default_threads;
use fml_core::{aggregate, Fault, LocalStepper, RoundRecord, Scratch, SourceTask, TrainOutput};
use fml_linalg::vector::weighted_sum;
use fml_models::Model;
use fml_sim::message::{encode_global_into, encoded_frame_len};
use fml_sim::{CompressedView, FramePool, MessageView, RoundTrace};

use crate::actor::{run_transport_peer, worker_loop, NodeActor, WorkerCtx};
use crate::config::{AsyncPolicy, Mode, RuntimeConfig};
use crate::health::HealthTracker;
use crate::hub::Hub;
use crate::report::{NodeIo, RuntimeReport};
use crate::serving::SharedGlobal;
use crate::transport::{channel_fleet, Transport, TransportError, TransportListener};

/// File name the platform checkpoints into (inside `--checkpoint-dir`).
pub(crate) const CHECKPOINT_FILE: &str = "latest.json";

/// How often a collecting platform, while waiting between frames,
/// checks for peers that reconnected mid-round and retransmits the
/// round's broadcast to them. A frame queued into (or even written
/// onto) a dying link can vanish without a trace — the first TCP write
/// after the peer's FIN lands in the kernel buffer and reports success
/// — so delivery to a bouncing peer is only settled by a resend on its
/// fresh connection.
const REJOIN_TICK: Duration = Duration::from_millis(100);

/// The actor runtime: spawns one logical actor per source node on a
/// worker pool and runs the platform event loop to completion.
#[derive(Debug, Clone)]
pub struct Runtime {
    cfg: RuntimeConfig,
    /// Live hand-off target for the adaptation service: when set, the
    /// platform publishes the global here after every completed round,
    /// so a co-resident [`crate::serving::AdaptServer`] hot-swaps to the
    /// freshest meta-trained parameters without any checkpoint round
    /// trip.
    publisher: Option<SharedGlobal>,
}

/// A finished run: the training output (same shape as `train_from`)
/// plus the runtime's observability report.
#[derive(Debug, Clone)]
pub struct RuntimeOutput {
    /// Final parameters, history, and round counters.
    pub train: TrainOutput,
    /// Frames, bytes, staleness, rejections, per-round trace.
    pub report: RuntimeReport,
}

/// An upload buffered until its virtual arrival round (async mode).
struct Pending {
    node: usize,
    /// Round whose broadcast the update was computed from.
    origin: usize,
    /// Round the upload (virtually) reaches the platform.
    arrive: usize,
    /// Absolute virtual arrival time, for deterministic ordering.
    arrival_time_s: f64,
    params: Vec<f64>,
}

/// The virtual round an async upload lands in: `⌊t / round_s⌋ + 1`,
/// never earlier than its origin round.
///
/// Guarded against degenerate inputs that the naive float-to-usize cast
/// silently mangled: a zero/subnormal `round_s` or a non-finite arrival
/// time drives the quotient to ±∞/NaN, and `as usize` *saturates* — the
/// old `… as usize + 1` then overflowed `usize::MAX` (panic in debug,
/// wrap to round 1 in release, resurrecting an undeliverable upload as
/// an on-time one). Any such input, and any arrival past `last_round`,
/// now maps to `last_round + 1`: the upload stays in (virtual) flight
/// forever and is counted as undelivered at shutdown, which is also
/// exactly how the well-formed "arrives after the schedule ended" case
/// has always behaved.
fn virtual_arrival_round(
    arrival_time_s: f64,
    round_s: f64,
    origin: usize,
    last_round: usize,
) -> usize {
    let never = last_round + 1;
    if !arrival_time_s.is_finite() || !round_s.is_finite() || round_s <= 0.0 {
        return never;
    }
    let q = (arrival_time_s / round_s).floor();
    if !q.is_finite() || q < 0.0 || q >= last_round as f64 {
        return never;
    }
    (q as usize + 1).max(origin)
}

/// Running min/mean/max of the effective weights actually folded for
/// one node (async mode).
#[derive(Clone, Copy, Default)]
struct WeightAccum {
    applied: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl WeightAccum {
    fn record(&mut self, w: f64) {
        if self.applied == 0 {
            self.min = w;
            self.max = w;
        } else {
            self.min = self.min.min(w);
            self.max = self.max.max(w);
        }
        self.sum += w;
        self.applied += 1;
    }

    fn stat(&self, node: usize, quality: f64) -> crate::report::NodeWeightStat {
        crate::report::NodeWeightStat {
            node,
            applied: self.applied,
            mean_weight: if self.applied > 0 {
                self.sum / self.applied as f64
            } else {
                0.0
            },
            min_weight: self.min,
            max_weight: self.max,
            quality,
        }
    }
}

/// FedBuff-style semi-async accumulator: accepted updates pile up here
/// and the global model only moves when `k` of them are in (or at the
/// end-of-run partial flush). The fold applies the buffer's *weighted
/// mean* update at the *mean* effective weight, so a full buffer of
/// identical updates moves the global exactly as far as one per-arrival
/// fold of that update would.
struct UpdateBuffer {
    k: usize,
    count: usize,
    sum_w: f64,
    /// `Σ w_j · u_j`, accumulated in arrival order.
    acc: Vec<f64>,
}

impl UpdateBuffer {
    fn new(k: usize, dim: usize) -> Self {
        UpdateBuffer {
            k,
            count: 0,
            sum_w: 0.0,
            acc: vec![0.0; dim],
        }
    }

    fn push(&mut self, w: f64, update: &[f64]) {
        for (a, &u) in self.acc.iter_mut().zip(update) {
            *a += w * u;
        }
        self.sum_w += w;
        self.count += 1;
    }

    fn full(&self) -> bool {
        self.count >= self.k
    }

    /// Folds the buffered weighted mean into `global` and resets.
    /// Returns whether anything was actually applied.
    fn flush(&mut self, global: &mut [f64]) -> bool {
        if self.count == 0 {
            return false;
        }
        let applied = if self.sum_w > 0.0 {
            let w_bar = (self.sum_w / self.count as f64).clamp(0.0, 1.0);
            for (g, &a) in global.iter_mut().zip(&self.acc) {
                let u_bar = a / self.sum_w;
                *g = (1.0 - w_bar) * *g + w_bar * u_bar;
            }
            true
        } else {
            // All-zero weights: nothing to apply, but the buffer still
            // cycles so it cannot pin stale contributions forever.
            false
        };
        self.count = 0;
        self.sum_w = 0.0;
        self.acc.iter_mut().for_each(|a| *a = 0.0);
        applied
    }
}

impl Runtime {
    /// Creates a runtime with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> Self {
        Runtime {
            cfg,
            publisher: None,
        }
    }

    /// Publishes the global into `shared` after every completed round
    /// (and once at startup, before round 1), so an
    /// [`crate::serving::AdaptServer`] holding the same handle serves
    /// adaptation requests against the live training run.
    #[must_use]
    pub fn with_publisher(mut self, shared: SharedGlobal) -> Self {
        self.publisher = Some(shared);
        self
    }

    /// Runs the trainer's full round schedule over the actor fleet.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub fn run(
        &self,
        stepper: &dyn LocalStepper,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
    ) -> RuntimeOutput {
        check_inputs(model, tasks, theta0);
        let n = tasks.len();
        let workers = self
            .cfg
            .threads
            .unwrap_or_else(|| default_threads(n))
            .min(n);

        // One bounded mailbox per node; one shared uplink back. The
        // uplink is unbounded so actors never block sending — it holds
        // at most one frame per live node per round because the
        // platform drains it every round.
        let (senders, uplink, node_links) = channel_fleet(n, self.cfg.mailbox_cap);
        let ctx = WorkerCtx {
            stepper,
            model,
            tasks,
            cfg: &self.cfg,
        };

        std::thread::scope(|scope| {
            // Cost-balanced chunks (LPT on the size-proportional task
            // weights), one worker per chunk. The assignment affects
            // wall-clock only: each node's update depends on the
            // broadcast alone and the platform aggregates by node id,
            // so results are identical under any partition.
            let costs: Vec<f64> = tasks.iter().map(|t| t.weight).collect();
            let groups = crate::schedule::balanced_chunks(&costs, workers);
            let mut handles = Vec::with_capacity(groups.len());
            let mut links: Vec<Option<_>> = node_links.into_iter().map(Some).collect();
            for group in groups {
                let actors: Vec<NodeActor> = group
                    .into_iter()
                    .map(|node| {
                        let link = links[node].take().expect("one link per node");
                        NodeActor::new(node, link)
                    })
                    .collect();
                let ctx = &ctx;
                handles.push(scope.spawn(move || worker_loop(ctx, actors)));
            }
            // Once the platform has dropped the mailbox senders, idle
            // actors see Disconnected and their workers return.
            let join_workers = || {
                let joined = handles
                    .into_iter()
                    .map(|h| h.join().expect("runtime worker panicked"));
                joined.flatten().collect()
            };
            let peers = Peers::Direct(senders);
            self.drive(
                stepper,
                model,
                tasks,
                theta0,
                peers,
                uplink,
                "channel",
                workers,
                join_workers,
            )
        })
    }

    /// Runs the platform side over a socket transport: accepts peers on
    /// `listener`, waits up to the configured join timeout for the full
    /// fleet, then drives the same event loop [`run`](Runtime::run)
    /// uses — node compute happens in whatever processes connected.
    ///
    /// Rounds degrade (never hang) when peers are missing, die
    /// mid-round, or straggle past the gather deadline; a peer that
    /// reconnects resumes receiving broadcasts and its reconnect is
    /// counted in the report.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when *no* peer joined within the
    /// join timeout — a partially joined fleet starts anyway and
    /// degrades.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub fn serve(
        &self,
        stepper: &dyn LocalStepper,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        listener: Box<dyn TransportListener>,
    ) -> Result<RuntimeOutput, TransportError> {
        check_inputs(model, tasks, theta0);
        // Socket read/write deadlines come from the gather policy: a
        // round that cannot end before the gather deadline should not
        // block a socket longer either.
        let recv_timeout = Duration::from_millis(self.cfg.recv_timeout_ms);
        let io_deadline = self.cfg.gather.io_deadline(recv_timeout);

        let kind = listener.kind();
        let (hub, uplink) = Hub::start(listener, tasks.len(), self.cfg.mailbox_cap, io_deadline);
        let joined = hub.await_join(Duration::from_millis(self.cfg.join_timeout_ms));
        if joined == 0 {
            hub.shutdown();
            return Err(TransportError::Timeout);
        }
        // Node compute runs in the peers' processes: no worker threads.
        Ok(self.drive(
            stepper,
            model,
            tasks,
            theta0,
            Peers::Hub(hub),
            uplink,
            kind,
            0,
            Vec::new,
        ))
    }

    /// Builds the [`Platform`], runs the configured mode's event loop
    /// over `peers`, closes the fleet, and folds the per-node counters
    /// (the hub's, plus whatever `join_workers` hands back once the
    /// links are closed) into the report.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        stepper: &dyn LocalStepper,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta0: &[f64],
        peers: Peers,
        uplink: Receiver<Bytes>,
        transport: &str,
        threads: usize,
        join_workers: impl FnOnce() -> Vec<NodeIo>,
    ) -> RuntimeOutput {
        let n = tasks.len();
        let (rounds, local_steps) = (stepper.rounds(), stepper.local_steps());
        let mut platform = Platform {
            cfg: &self.cfg,
            stepper,
            model,
            tasks,
            n,
            rounds,
            local_steps,
            peers,
            uplink,
            timeout: Duration::from_millis(self.cfg.recv_timeout_ms),
            report: RuntimeReport {
                transport: transport.into(),
                threads,
                update_codec: self.cfg.update_codec.to_string(),
                ..RuntimeReport::default()
            },
            history: Vec::new(),
            comm_rounds: 0,
            health: HealthTracker::new(n, self.cfg.health),
            recoveries: 0,
            resent: 0,
            pool: FramePool::global().handle(),
            publisher: self.publisher.clone(),
            parked: None,
            eval_at: Vec::with_capacity(theta0.len()),
            scratch: Scratch::for_model(model),
        };
        platform.report.mode = platform.mode_label().into();
        let params = match self.cfg.mode {
            Mode::Barrier => platform.run_barrier(theta0),
            Mode::Async(policy) => platform.run_async(theta0, &policy),
        };
        // The last round has no next broadcast to hide behind.
        platform.flush_parked();

        let Platform {
            peers,
            mut report,
            history,
            comm_rounds,
            health,
            pool,
            ..
        } = platform;
        report.node_health = health.summaries();
        report.excluded_nodes = health.excluded_nodes();
        report.pool = pool.stats().into();
        // Closing the links ends the fleet: in-process actors see
        // Disconnected, socket peers EOF.
        report.per_node = peers.close();
        report.per_node.extend(join_workers());
        report.per_node.sort_by_key(|io| io.node);
        report.decode_errors += report
            .per_node
            .iter()
            .map(|io| io.decode_errors)
            .sum::<u64>();
        report.degraded_rounds = report.trace.rounds().iter().filter(|r| r.degraded).count();

        RuntimeOutput {
            train: TrainOutput {
                params,
                history,
                comm_rounds,
                local_iterations: rounds * local_steps,
            },
            report,
        }
    }

    /// Runs one node as a transport peer over an established `link`
    /// (the edge side of [`serve`](Runtime::serve)): sends the hello
    /// frame, then answers every broadcast with a local update until
    /// the round schedule completes or the platform closes the link.
    ///
    /// Returns the node-side I/O counters.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range for `tasks`.
    pub fn run_node(
        &self,
        stepper: &dyn LocalStepper,
        model: &dyn Model,
        tasks: &[SourceTask],
        node: usize,
        link: &mut dyn Transport,
    ) -> NodeIo {
        assert!(node < tasks.len(), "Runtime: node id out of range");
        let ctx = WorkerCtx {
            stepper,
            model,
            tasks,
            cfg: &self.cfg,
        };
        run_transport_peer(&ctx, node, link)
    }
}

fn check_inputs(model: &dyn Model, tasks: &[SourceTask], theta0: &[f64]) {
    assert!(!tasks.is_empty(), "Runtime: no source tasks");
    assert_eq!(
        theta0.len(),
        model.param_len(),
        "Runtime: bad theta0 length"
    );
}

/// How the platform reaches its fleet: direct in-process mailboxes, or
/// a socket hub.
enum Peers {
    /// Bounded mailbox sender per node (in-process fleet).
    Direct(Vec<SyncSender<Bytes>>),
    /// Remote peers behind the acceptor (socket fleet).
    Hub(Hub),
}

impl Peers {
    /// Best-effort frame delivery to `node`; `false` means dropped.
    fn try_send(&self, node: usize, frame: Bytes) -> bool {
        match self {
            Peers::Direct(senders) => senders
                .get(node)
                .is_some_and(|tx| tx.try_send(frame).is_ok()),
            Peers::Hub(hub) => hub.try_send(node, frame),
        }
    }

    /// Closes every link and returns the counters kept on this side of
    /// them: the hub's per-peer view; none for in-process mailboxes,
    /// whose actors count for themselves.
    fn close(self) -> Vec<NodeIo> {
        match self {
            Peers::Direct(_) => Vec::new(),
            Peers::Hub(hub) => hub.shutdown(),
        }
    }

    /// Nodes that reconnected since the last call and may have missed a
    /// broadcast in flight on their old link. In-process mailboxes never
    /// lose frames silently, so the direct fleet has none.
    fn take_rejoined(&self) -> Vec<usize> {
        match self {
            Peers::Direct(_) => Vec::new(),
            Peers::Hub(hub) => hub.take_rejoined(),
        }
    }
}

/// One parsed uplink frame. The platform accepts both wire families on
/// the uplink no matter which codec the nodes were configured with:
/// decode routing is driven by the frame itself, never by config.
enum UplinkFrame<'a> {
    /// A model update (dense tag-2 or compressed tag-6).
    Update {
        node: usize,
        frame_round: usize,
        params: UpdateParams<'a>,
    },
    /// A valid frame that is not an update — a protocol violation on
    /// this link, triaged as undelivered.
    Other,
    /// Neither wire family could parse it, or it is an update of the
    /// wrong dimension.
    Bad,
}

/// Borrowed parameter view behind an uplink update.
enum UpdateParams<'a> {
    Dense(MessageView<'a>),
    Compressed(CompressedView<'a>),
}

impl<'a> UplinkFrame<'a> {
    /// `dim` is the model's parameter count: an update announcing any
    /// other logical length is [`Bad`](UplinkFrame::Bad) — judged from
    /// the header, before anything is materialized, so neither a short
    /// vector reaches the aggregate nor a `k = 0` top-k frame gets to
    /// allocate the `u32::MAX` zeros it claims.
    fn parse(frame: &'a [u8], dim: usize) -> UplinkFrame<'a> {
        let (node, frame_round, params) = match MessageView::parse(frame) {
            Ok(view) if view.is_update() => (view.node(), view.round(), UpdateParams::Dense(view)),
            Ok(_) => return UplinkFrame::Other,
            Err(_) => match CompressedView::parse(frame) {
                Ok(view) => (view.node(), view.round(), UpdateParams::Compressed(view)),
                Err(_) => return UplinkFrame::Bad,
            },
        };
        if params.len() != dim {
            return UplinkFrame::Bad;
        }
        UplinkFrame::Update {
            node: node as usize,
            frame_round: frame_round as usize,
            params,
        }
    }
}

impl UpdateParams<'_> {
    /// The logical parameter count the frame announces.
    fn len(&self) -> usize {
        match self {
            UpdateParams::Dense(v) => v.len(),
            UpdateParams::Compressed(v) => v.len(),
        }
    }

    /// Materializes the update (dequantizing or zero-filling dropped
    /// coordinates as the scheme requires).
    fn to_vec(&self) -> Vec<f64> {
        match self {
            UpdateParams::Dense(v) => v.params_to_vec(),
            UpdateParams::Compressed(v) => v.params_to_vec(),
        }
    }
}

/// What one round's broadcast-and-collect produced.
struct Exchange {
    /// Nodes the broadcast actually reached.
    delivered: Vec<usize>,
    /// Decoded updates by node id.
    got: BTreeMap<usize, Vec<f64>>,
    /// Bytes broadcast plus bytes received.
    bytes: u64,
    /// Virtual seconds until the last update the round folded had
    /// arrived; each loop fills it in its own way.
    comm_time_s: f64,
}

/// How a round ended, for its history record and trace row.
struct Outcome {
    /// Whether the global moved.
    aggregated: bool,
    /// Updates that entered it.
    reporters: usize,
    degraded: bool,
}

/// A closed round whose curve point is still to be evaluated: what its
/// history record and trace row need besides the two losses.
struct Parked {
    round: usize,
    participants: Vec<usize>,
    bytes: u64,
    retransmissions: u64,
    comm_time_s: f64,
    end: Outcome,
}

/// The event loop's working state, borrowed for one run.
///
/// `history` and `report.trace` lag the loop by one round while it runs:
/// round `r`'s entries are appended during round `r + 1`'s exchange (or
/// by the final flush in `drive`), so nothing inside the loop may read
/// them — and nothing does. `comm_rounds`, the published global and the
/// checkpoint never lag.
struct Platform<'a> {
    cfg: &'a RuntimeConfig,
    stepper: &'a dyn LocalStepper,
    model: &'a dyn Model,
    tasks: &'a [SourceTask],
    n: usize,
    rounds: usize,
    local_steps: usize,
    peers: Peers,
    uplink: Receiver<Bytes>,
    timeout: Duration,
    report: RuntimeReport,
    history: Vec<RoundRecord>,
    comm_rounds: usize,
    /// Per-node health state machine; quarantined/excluded nodes leave
    /// the broadcast set and the quorum denominator.
    health: HealthTracker,
    /// Recovery cycles consumed against `cfg.recovery.max_recoveries`.
    recoveries: usize,
    /// Broadcast frames retransmitted to mid-round reconnecters during
    /// the current round's collect; drained into the round's trace row.
    resent: u64,
    /// Frame storage recycled across rounds (shared with the actors and
    /// the hub via [`FramePool::global`], so a broadcast buffer released
    /// by whichever side drops the last handle serves the next round).
    pool: FramePool,
    /// Where completed-round globals are handed off to a co-resident
    /// adaptation server, when one is attached.
    publisher: Option<SharedGlobal>,
    /// The last closed round, until [`flush_parked`](Self::flush_parked)
    /// evaluates it under the next round's collect wait.
    parked: Option<Parked>,
    /// The platform's own copy of the parameters the parked round's
    /// curve point is evaluated at (the loop moves on and overwrites
    /// its own).
    eval_at: Vec<f64>,
    /// What the curve evaluation runs on.
    scratch: Scratch,
}

impl Platform<'_> {
    /// `"barrier"` or `"async"`, for checkpoint metadata.
    fn mode_label(&self) -> &'static str {
        match self.cfg.mode {
            Mode::Barrier => "barrier",
            Mode::Async(_) => "async",
        }
    }

    /// Tries to resume from `checkpoint_dir/latest.json`: restores the
    /// global, the health states (including permanent exclusions), and
    /// the consumed recovery budget, and returns the first round still
    /// to run. Returns 1 (fresh start) when resume is disabled, nothing
    /// valid is on disk, or the checkpoint belongs to a different
    /// algorithm/mode/shape.
    fn resume_state(&mut self, global: &mut Vec<f64>) -> usize {
        if !self.cfg.checkpoint.resume {
            return 1;
        }
        let Some(dir) = self.cfg.checkpoint.dir.as_ref() else {
            return 1;
        };
        let Ok(ck) = Checkpoint::load(dir.join(CHECKPOINT_FILE)) else {
            return 1;
        };
        if ck.algorithm != self.stepper.algorithm()
            || ck.params.len() != global.len()
            || ck.meta.get("mode").map(String::as_str) != Some(self.mode_label())
        {
            return 1;
        }
        let Some(done) = ck.meta.get("round").and_then(|s| s.parse::<usize>().ok()) else {
            return 1;
        };
        if let Some(h) = ck.meta.get("health") {
            self.health.restore_meta(h);
        }
        if let Some(r) = ck.meta.get("recoveries").and_then(|s| s.parse().ok()) {
            self.recoveries = r;
        }
        *global = ck.params;
        let start = done + 1;
        self.report.resumed_at_round = Some(start);
        start
    }

    /// Atomically writes `latest.json` when the cadence (or the final
    /// round) says so. The document carries everything `resume_state`
    /// needs for a bitwise-deterministic restart.
    fn maybe_checkpoint(&mut self, round: usize, global: &[f64]) {
        let Some(dir) = self.cfg.checkpoint.dir.clone() else {
            return;
        };
        let every = self.cfg.checkpoint.every.max(1);
        if !round.is_multiple_of(every) && round != self.rounds {
            return;
        }
        let _ = std::fs::create_dir_all(&dir);
        let ck = Checkpoint::new(self.stepper.algorithm(), global.to_vec())
            .with_meta("round", round.to_string())
            .with_meta("mode", self.mode_label())
            .with_meta("recoveries", self.recoveries.to_string())
            .with_meta("health", self.health.to_meta());
        if ck.save_atomic(dir.join(CHECKPOINT_FILE)).is_ok() {
            self.report.checkpoints_written += 1;
        }
    }

    /// Hands the current global off to an attached adaptation server.
    /// `round` is the last *completed* round (0 before any round ran).
    /// The publish is a short write-lock swap: requests in flight keep
    /// adapting from the snapshot they already hold.
    fn publish_global(&self, round: usize, global: &[f64]) {
        if let Some(shared) = &self.publisher {
            shared.publish(round as u32, global);
        }
    }

    /// Feeds one gather round report into the health state machine:
    /// contributors succeed, failed nodes (crashes, rejected-corrupt
    /// updates, missed deadlines) fail.
    fn record_health(&mut self, report: &RoundReport, round: usize) {
        for &(node, outcome) in &report.outcomes {
            if outcome.failed() {
                self.health.record_failure(node, round);
            } else if outcome.contributed() {
                self.health.record_success(node, round);
            }
        }
    }

    /// [`rollback_and_exclude`] over the health tracker's membership:
    /// `true` means the last good global is restored, the failed nodes
    /// are permanently excluded, and the caller re-runs the round.
    /// `false` means unrecoverable — the runtime then degrades the round
    /// and keeps going (it never aborts a run the way the in-process
    /// loop surfaces an error).
    fn try_recover(
        &mut self,
        global: &mut Vec<f64>,
        snapshot: &[f64],
        failed: &[usize],
        round: usize,
    ) -> bool {
        let active: Vec<bool> = (0..self.n).map(|i| self.health.is_active(i)).collect();
        let Some(excluded) = rollback_and_exclude(
            global,
            snapshot,
            &active,
            failed,
            &mut self.recoveries,
            self.cfg.recovery.max_recoveries,
        ) else {
            return false;
        };
        for node in excluded {
            self.health.exclude(node, round);
        }
        self.report.recoveries += 1;
        self.report.rollbacks += 1;
        self.report.excluded_nodes = self.health.excluded_nodes();
        true
    }

    /// Total virtual upload delay for `(node, round)`: the seeded clock
    /// plus any scheduled straggle.
    fn upload_delay_s(&self, node: usize, round: usize) -> f64 {
        let straggle_s = match self.cfg.faults.draw(node, round) {
            Some(Fault::Straggle { delay_s }) => delay_s,
            _ => 0.0,
        };
        self.cfg.clock.delay_s(node, round) + straggle_s
    }

    /// The round prologue every loop shares: open the round in the
    /// health tracker, encode the global once and try-send it to every
    /// node healthy enough to participate (not quarantined or excluded)
    /// and not scheduled to crash this round, evaluate the previous
    /// round's parked curve point while the fleet computes, collect the
    /// replies, and recycle the broadcast frame. A recovery re-run
    /// broadcasts the same round again (with nothing parked), so the
    /// per-round drop slot accumulates instead of asserting one-shot.
    fn exchange(&mut self, round: usize, global: &[f64]) -> Exchange {
        self.health.begin_round(round);
        // One encode per round, into a pooled buffer; every link gets a
        // refcounted clone of the same frozen frame, so fan-out to N
        // nodes costs zero further allocations or copies.
        let mut buf = self.pool.acquire(encoded_frame_len(global.len()));
        encode_global_into(round as u32, global, &mut buf);
        let frame = buf.freeze();
        let mut delivered = Vec::with_capacity(self.n);
        let mut drops = 0u64;
        for node in 0..self.n {
            let crashes = matches!(self.cfg.faults.draw(node, round), Some(Fault::Crash));
            if crashes || !self.health.is_active(node) {
                continue;
            }
            // Never block the event loop on a slow consumer: a full or
            // dead mailbox just loses this round's broadcast.
            if self.peers.try_send(node, frame.clone()) {
                delivered.push(node);
            } else {
                drops += 1;
            }
        }
        self.report.undelivered += drops;
        while self.report.broadcast_drops.len() < round {
            self.report.broadcast_drops.push(0);
        }
        self.report.broadcast_drops[round - 1] += drops;
        // The fleet is computing and this thread would only block in
        // `collect`: the previous round's curve point costs no round
        // time here. Replies queue on the uplink meanwhile (at most one
        // per live node), and the silence deadline starts afterwards.
        self.flush_parked();
        // `collect` keeps the frame at hand to retransmit to peers that
        // reconnect mid-round.
        let (got, up_bytes) = self.collect(round, &delivered, &frame);
        let bytes = (delivered.len() * frame.len()) as u64 + up_bytes;
        self.pool.recycle(frame);
        Exchange {
            delivered,
            got,
            bytes,
            comm_time_s: 0.0,
        }
    }

    /// Drains the uplink until every node in `expected` has reported
    /// for `round`, or the wall-clock timeout fires. The timeout bounds
    /// *silence* — it restarts on every received frame — and between
    /// frames the wait is chopped into [`REJOIN_TICK`]s so the round's
    /// broadcast (`frame`) can be retransmitted to peers that
    /// reconnected mid-round, whose original copy may have died with
    /// the old link. Duplicate replies are triaged as undelivered.
    /// `expected` is ascending (the broadcast loop builds it in node
    /// order), so membership is a binary search, not a scan per frame.
    /// Returns the decoded updates and the bytes received.
    fn collect(
        &mut self,
        round: usize,
        expected: &[usize],
        frame: &Bytes,
    ) -> (BTreeMap<usize, Vec<f64>>, u64) {
        debug_assert!(expected.is_sorted());
        let is_expected = |node: usize| expected.binary_search(&node).is_ok();
        let mut got: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut bytes = 0u64;
        let mut deadline = Instant::now() + self.timeout;
        while got.len() < expected.len() {
            let now = Instant::now();
            if now >= deadline {
                // A full timeout of silence: triage what we have.
                break;
            }
            let wait = REJOIN_TICK.min(deadline.saturating_duration_since(now));
            let received = match self.uplink.recv_timeout(wait) {
                Ok(received) => received,
                Err(RecvTimeoutError::Timeout) => {
                    for node in self.peers.take_rejoined() {
                        if is_expected(node)
                            && !got.contains_key(&node)
                            && self.peers.try_send(node, frame.clone())
                        {
                            self.resent += 1;
                        }
                    }
                    continue;
                }
                // All workers gone: triage what we have.
                Err(RecvTimeoutError::Disconnected) => break,
            };
            bytes += received.len() as u64;
            // Uplink updates arrive in either wire family — dense tag-2
            // or compressed tag-6 — regardless of the configured codec:
            // the codec drives the encode side only, so the `none`
            // conformance path never depends on decode routing.
            match UplinkFrame::parse(&received, self.model.param_len()) {
                UplinkFrame::Update { node, frame_round, params } => {
                    if frame_round == round && is_expected(node) && !got.contains_key(&node) {
                        // The only materialization on the receive path:
                        // the update must outlive the frame it rode in.
                        got.insert(node, params.to_vec());
                    } else {
                        // A frame for an already-closed round (or a
                        // duplicate): its round has moved on without it.
                        self.report.undelivered += 1;
                    }
                }
                UplinkFrame::Other => self.report.undelivered += 1,
                UplinkFrame::Bad => self.report.decode_errors += 1,
            }
            // The frame is spent; its storage serves a future encode.
            self.pool.recycle(received);
            deadline = Instant::now() + self.timeout;
        }
        (got, bytes)
    }

    /// The round tail every loop shares: publish and checkpoint the
    /// round's `global` — before the next broadcast, so what an attached
    /// server and a resume see is ordered as ever — and park the round
    /// with a copy of `eval_at`; its history record and trace row are
    /// written by [`flush_parked`](Self::flush_parked).
    fn close_round(
        &mut self,
        round: usize,
        x: Exchange,
        global: &[f64],
        eval_at: &[f64],
        end: Outcome,
    ) {
        self.comm_rounds += usize::from(end.aggregated);
        self.eval_at.clear();
        self.eval_at.extend_from_slice(eval_at);
        debug_assert!(self.parked.is_none(), "one round parked at a time");
        self.parked = Some(Parked {
            round,
            participants: x.delivered,
            bytes: x.bytes,
            retransmissions: std::mem::take(&mut self.resent),
            comm_time_s: x.comm_time_s,
            end,
        });
        self.publish_global(round, global);
        self.maybe_checkpoint(round, global);
    }

    /// Evaluates the parked round's losses and appends its history
    /// record and trace row; a no-op with nothing parked. Called from
    /// [`exchange`](Self::exchange) between the broadcast and the
    /// collect — the platform thread's otherwise blocked wait — and once
    /// more by `drive` after the last round.
    fn flush_parked(&mut self) {
        let Some(parked) = self.parked.take() else {
            return;
        };
        let Outcome {
            aggregated,
            reporters,
            degraded,
        } = parked.end;
        let (meta_loss, train_loss) =
            self.stepper
                .eval_losses_with(self.model, self.tasks, &self.eval_at, &mut self.scratch);
        self.history.push(RoundRecord {
            iteration: parked.round * self.local_steps,
            meta_loss,
            train_loss,
            aggregated,
            reporters,
            degraded,
        });
        self.report.trace.push(RoundTrace {
            round: parked.round,
            participants: parked.participants,
            local_steps: self.local_steps,
            bytes: parked.bytes,
            retransmissions: parked.retransmissions,
            // Virtual time; the runtime does no compute modelling.
            comm_time_s: parked.comm_time_s,
            compute_time_s: 0.0,
            meta_loss,
            reporters,
            degraded,
        });
    }

    /// Resumes from a checkpoint when configured to, and hands the
    /// starting global to an attached adaptation server — it can serve
    /// from the initial (or resumed) global before round 1 completes.
    /// Returns the global and the first round still to run.
    fn start(&mut self, theta0: &[f64]) -> (Vec<f64>, usize) {
        let mut global = theta0.to_vec();
        let start = self.resume_state(&mut global);
        self.publish_global(start - 1, &global);
        (global, start)
    }

    /// One barrier round through [`gather`] over the *active* fleet
    /// (deadline triage, validation, quorum, robust aggregation), the
    /// aggregate installed through [`LocalStepper::combine`]. Quorum is
    /// a fraction of the active total, so excluding failed nodes during
    /// recovery shrinks the requirement — that is what lets a run finish
    /// after a minority of nodes dies.
    ///
    /// Quorum loss and a diverged global first try rollback-and-exclude
    /// (`None`: rolled back, re-run the round); only when recovery is
    /// impossible does the round degrade in place, keeping the previous
    /// global — a thin fleet must degrade, not hang.
    fn gather_round(
        &mut self,
        round: usize,
        got: &BTreeMap<usize, Vec<f64>>,
        global: &mut Vec<f64>,
        snapshot: &[f64],
        last_good: &mut ReuseCache,
    ) -> Option<Outcome> {
        let active = self.health.active_nodes();
        let submissions: Vec<Submission> = active
            .iter()
            .map(|&i| match got.get(&i) {
                Some(update) => Submission {
                    node: i,
                    weight: self.tasks[i].weight,
                    update: Some(update.clone()),
                    delay_s: self.upload_delay_s(i, round),
                    last_good: last_good.get(i),
                },
                None => Submission::crashed(i, self.tasks[i].weight),
            })
            .collect();
        // Validation can pass per node and the combined global still
        // diverge.
        let gathered = gather(round, active.len(), &submissions, &self.cfg.gather)
            .map(|(params, report)| (self.stepper.combine(global, params), report));
        let failed = match gathered {
            Ok((next, report)) if next.iter().all(|x| x.is_finite()) => {
                self.record_health(&report, round);
                last_good.absorb(&submissions, &report);
                *global = next;
                return Some(Outcome {
                    aggregated: true,
                    reporters: report.reporters,
                    degraded: report.degraded,
                });
            }
            Ok((_, report)) => report,
            Err(failure) => failure.report,
        };
        self.record_health(&failed, round);
        if self.try_recover(global, snapshot, &failed.failed_nodes(), round) {
            return None;
        }
        Some(Outcome {
            aggregated: false,
            reporters: failed.reporters,
            degraded: true,
        })
    }

    /// Lockstep rounds with checkpoint-rollback-exclude recovery.
    /// Returns the final parameters.
    fn run_barrier(&mut self, theta0: &[f64]) -> Vec<f64> {
        // The bitwise-oracle fast path applies only when nothing can
        // perturb the round: benign plan, default policy.
        let exact_ok =
            self.cfg.faults.is_benign() && self.cfg.gather == fml_core::GatherPolicy::default();
        let weights: Vec<f64> = self.tasks.iter().map(|t| t.weight).collect();
        let (mut global, start) = self.start(theta0);
        let mut eval_params = global.clone();
        // The last good global: what a rollback restores. Updated after
        // every completed round, exactly like `fml_core::ft`'s snapshot.
        let mut snapshot = global.clone();
        let mut last_good = ReuseCache::new(self.n, &self.cfg.gather);
        // A round that rolled back stays flagged degraded even when the
        // re-run fleet reports cleanly (same rule as `fml_core::ft`).
        let mut recovered_this_round = false;

        let mut round = start;
        while round <= self.rounds {
            let mut x = self.exchange(round, &global);
            x.comm_time_s = x
                .got
                .keys()
                .map(|&i| self.upload_delay_s(i, round))
                .fold(0.0f64, f64::max);

            let end = if exact_ok && x.got.len() == self.n {
                // train_from replica: aggregate the locals, then record
                // the curve at the re-aggregation of n copies of the
                // new global (the reference's exact float ops, over n
                // borrowed views of the one vector).
                let locals: Vec<Vec<f64>> = std::mem::take(&mut x.got).into_values().collect();
                global = self
                    .stepper
                    .combine(&global, aggregate(self.tasks, &locals));
                let copies = vec![global.as_slice(); self.n];
                eval_params = weighted_sum(&copies, &weights).expect("at least one node");
                Outcome {
                    aggregated: true,
                    reporters: self.n,
                    degraded: false,
                }
            } else {
                let Some(mut end) =
                    self.gather_round(round, &x.got, &mut global, &snapshot, &mut last_good)
                else {
                    recovered_this_round = true;
                    continue;
                };
                eval_params.clone_from(&global);
                end.degraded |= recovered_this_round || self.health.removed_count() > 0;
                end
            };
            if end.aggregated {
                // Barrier mode folds every update at staleness 0.
                if self.report.staleness_hist.is_empty() {
                    self.report.staleness_hist.push(0);
                }
                self.report.staleness_hist[0] += end.reporters as u64;
            }
            self.close_round(round, x, &global, &eval_params, end);
            snapshot.clone_from(&global);
            recovered_this_round = false;
            round += 1;
        }
        eval_params
    }

    /// Bounded-staleness rounds. Returns the final parameters. The
    /// staleness-weighted mix `θ ← (1−w)θ + w·u` *is* this mode's
    /// combine step: [`LocalStepper::combine`] is not applied.
    fn run_async(&mut self, theta0: &[f64], policy: &AsyncPolicy) -> Vec<f64> {
        self.report.async_policy = Some(policy.into());
        let (mut global, start) = self.start(theta0);
        let mut pending: Vec<Pending> = Vec::new();
        let round_s = self.cfg.round_duration_s;
        // Per-node adaptive-mixing quality scores (recency-weighted,
        // start at full trust) and effective-weight statistics.
        let mut quality = vec![1.0f64; self.n];
        let mut weight_stats = vec![WeightAccum::default(); self.n];
        let buffered = policy.buffer_k > 1;
        let mut buffer = UpdateBuffer::new(policy.buffer_k, global.len());

        for round in start..=self.rounds {
            let mut x = self.exchange(round, &global);
            // Active nodes skipped for a scheduled crash count as a
            // health failure, same as a missing barrier report.
            for i in self.health.active_nodes() {
                if matches!(self.cfg.faults.draw(i, round), Some(Fault::Crash)) {
                    self.health.record_failure(i, round);
                }
            }

            // Stamp each physical arrival with its *virtual* arrival
            // round: round-start time plus the seeded upload delay.
            for (node, params) in std::mem::take(&mut x.got) {
                let delay = self.upload_delay_s(node, round);
                let arrival_time_s = (round - 1) as f64 * round_s + delay;
                pending.push(Pending {
                    node,
                    origin: round,
                    arrive: virtual_arrival_round(arrival_time_s, round_s, round, self.rounds),
                    arrival_time_s,
                    params,
                });
            }

            // Everything due this round, in deterministic virtual
            // arrival order — OS scheduling cannot influence this.
            let (mut due, rest): (Vec<Pending>, Vec<Pending>) =
                pending.drain(..).partition(|p| p.arrive <= round);
            pending = rest;
            due.sort_by(|a, b| {
                a.arrival_time_s
                    .total_cmp(&b.arrival_time_s)
                    .then(a.node.cmp(&b.node))
            });

            // What a divergence rollback restores this round.
            let round_start = global.clone();
            let mut applied = 0usize;
            for mut p in due {
                let staleness = round - p.origin;
                if staleness > policy.max_staleness {
                    self.report.rejected_stale += 1;
                    self.health.record_failure(p.node, round);
                    if policy.adaptive_mix {
                        quality[p.node] *= 0.5;
                    }
                    continue;
                }
                if screen_update(&mut p.params, &self.cfg.gather.validation)
                    == Validated::Rejected
                {
                    self.report.rejected_invalid += 1;
                    self.health.record_failure(p.node, round);
                    if policy.adaptive_mix {
                        quality[p.node] *= 0.5;
                    }
                    continue;
                }
                let mut w = policy.weight(self.tasks[p.node].weight, self.n, staleness);
                if policy.adaptive_mix {
                    w = (w * quality[p.node]).clamp(0.0, 1.0);
                }
                if !w.is_finite() {
                    // A mis-constructed policy (fields set directly,
                    // bypassing validation) must degrade to a rejected
                    // update — never fold NaN into the global model.
                    self.report.rejected_nonfinite_weight += 1;
                    self.health.record_failure(p.node, round);
                    continue;
                }
                if buffered {
                    buffer.push(w, &p.params);
                    if buffer.full() && buffer.flush(&mut global) {
                        self.report.buffered_flushes += 1;
                    }
                } else {
                    for (g, &u) in global.iter_mut().zip(&p.params) {
                        *g = (1.0 - w) * *g + w * u;
                    }
                }
                if policy.adaptive_mix {
                    quality[p.node] =
                        0.5 * quality[p.node] + 0.5 / (1.0 + staleness as f64);
                }
                if staleness >= self.report.staleness_hist.len() {
                    self.report.staleness_hist.resize(staleness + 1, 0);
                }
                self.report.staleness_hist[staleness] += 1;
                weight_stats[p.node].record(w);
                applied += 1;
                self.health.record_success(p.node, round);
                x.comm_time_s = x
                    .comm_time_s
                    .max(p.arrival_time_s - (p.origin - 1) as f64 * round_s);
            }

            // Semi-async: a partial buffer must not strand accepted
            // updates when the schedule ends — flush it before the
            // final round's divergence check and evaluation.
            if buffered && round == self.rounds && buffer.flush(&mut global) {
                self.report.buffered_flushes += 1;
            }

            let mut rolled_back = false;
            if global.iter().any(|x| !x.is_finite()) {
                // Every fold passed per-update validation but their
                // composition diverged: restore the round-start global.
                global = round_start;
                self.report.rollbacks += 1;
                rolled_back = true;
            }

            let required = self.cfg.gather.required_reporters(self.n);
            let end = Outcome {
                aggregated: applied > 0 && !rolled_back,
                reporters: applied,
                degraded: applied < required || x.delivered.len() < self.n || rolled_back,
            };
            self.close_round(round, x, &global, &global, end);
        }

        // Uploads still in (virtual) flight when the schedule ended.
        self.report.undelivered += pending.len() as u64;
        self.report.node_weight_stats = weight_stats
            .iter()
            .enumerate()
            .map(|(node, acc)| acc.stat(node, quality[node]))
            .collect();
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VirtualClock;
    use fml_core::{FaultPlan, FedMl, FedMlConfig, SourceTask};
    use fml_data::synthetic::SyntheticConfig;
    use fml_models::SoftmaxRegression;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(nodes: usize) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(41);
        let fed = SyntheticConfig::new(0.5, 0.5)
            .with_nodes(nodes)
            .with_dim(5)
            .with_classes(3)
            .generate(&mut rng);
        let tasks = SourceTask::from_nodes(fed.nodes(), 5, &mut rng);
        let model = SoftmaxRegression::new(5, 3);
        let theta0 = model.init_params(&mut rng);
        (model, tasks, theta0)
    }

    fn fedml(rounds: usize) -> FedMl {
        FedMl::new(
            FedMlConfig::new(0.05, 0.05)
                .with_rounds(rounds)
                .with_local_steps(2),
        )
    }

    #[test]
    fn barrier_reproduces_train_from_bitwise() {
        let (model, tasks, theta0) = setup(4);
        let trainer = fedml(3);
        let reference = trainer.train_from(&model, &tasks, &theta0);
        let out = Runtime::new(RuntimeConfig::barrier(1)).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(out.train.params, reference.params);
        assert_eq!(out.train.history, reference.history);
        assert_eq!(out.train.comm_rounds, reference.comm_rounds);
    }

    #[test]
    fn barrier_counts_every_frame() {
        let (model, tasks, theta0) = setup(3);
        let trainer = fedml(4);
        let out = Runtime::new(RuntimeConfig::barrier(1)).run(&trainer, &model, &tasks, &theta0);
        for io in &out.report.per_node {
            assert_eq!(io.frames_received, 4, "one broadcast per round");
            assert_eq!(io.frames_sent, 4, "one update per round");
            assert!(io.bytes_sent > 0 && io.bytes_received > 0);
        }
        assert_eq!(out.report.decode_errors, 0);
        assert_eq!(out.report.trace.len(), 4);
        assert_eq!(out.report.mode, "barrier");
    }

    #[test]
    fn async_mode_never_exceeds_staleness_bound() {
        let (model, tasks, theta0) = setup(4);
        let trainer = fedml(8);
        let policy = AsyncPolicy::default().with_max_staleness(1);
        let cfg = RuntimeConfig::async_mode(5, policy)
            .with_clock(VirtualClock::new(5).with_base_delay(0.1).with_jitter(3.0));
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        assert!(out.report.staleness_hist.len() <= 2);
        assert!(out.report.accepted_updates() > 0);
        // With jitter up to 3 rounds, some uploads must have exceeded
        // the bound of 1 and been dropped.
        assert!(out.report.rejected_stale > 0);
        assert!(out.train.params.iter().all(|x| x.is_finite()));
        assert_eq!(out.report.mode, "async");
    }

    #[test]
    fn crashed_fleet_degrades_and_terminates() {
        let (model, tasks, theta0) = setup(4);
        let trainer = fedml(3);
        let cfg = RuntimeConfig {
            recv_timeout_ms: 5_000,
            ..RuntimeConfig::barrier(2)
                .with_faults(FaultPlan::new(2).with_crash_from(1, 1).with_crash_from(2, 1))
        };
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(out.report.degraded_rounds, 3, "every round misses nodes");
        assert_eq!(out.train.history.len(), 3);
        assert!(out.train.history.iter().all(|r| r.degraded));
        assert!(out.train.params.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn topk_codec_shrinks_uplink_and_is_thread_invariant() {
        use crate::UpdateCodec;
        let (model, tasks, theta0) = setup(4);
        let trainer = fedml(4);
        let cfg = |threads| {
            RuntimeConfig::barrier(3)
                .with_threads(threads)
                .with_update_codec(UpdateCodec::TopK { k: 2 })
        };
        let one = Runtime::new(cfg(1)).run(&trainer, &model, &tasks, &theta0);
        let four = Runtime::new(cfg(4)).run(&trainer, &model, &tasks, &theta0);
        // Error-feedback residuals are keyed by node, not by worker, so
        // the partition of actors onto threads cannot change results.
        assert_eq!(one.train.params, four.train.params);
        assert_eq!(one.report.update_codec, "topk2");
        let ratio = one.report.uplink_compression_ratio().expect("counters present");
        assert!(ratio >= 3.0, "uplink compression ratio {ratio} < 3");
        assert!(one.train.params.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn quant_codec_tracks_dense_and_dense_codec_is_exact() {
        use crate::UpdateCodec;
        let (model, tasks, theta0) = setup(3);
        let trainer = fedml(3);
        let reference =
            Runtime::new(RuntimeConfig::barrier(5)).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(reference.report.update_codec, "none");
        assert_eq!(
            reference.report.uplink_bytes_logical(),
            reference.report.uplink_bytes(),
            "the none codec is its own logical baseline"
        );
        // The explicit dense tag-6 codec is numerically exact, so the
        // trajectory lands on the reference bitwise.
        let dense = Runtime::new(
            RuntimeConfig::barrier(5).with_update_codec(UpdateCodec::Dense),
        )
        .run(&trainer, &model, &tasks, &theta0);
        assert_eq!(dense.train.params, reference.train.params);
        // 16-bit quantization drifts, but only within its epsilon per
        // round — the trajectory stays close over a short run.
        let quant = Runtime::new(
            RuntimeConfig::barrier(5).with_update_codec(UpdateCodec::Quant { bits: 16 }),
        )
        .run(&trainer, &model, &tasks, &theta0);
        assert_eq!(quant.report.update_codec, "quant16");
        assert!(quant.report.uplink_compression_ratio().expect("counters") > 2.0);
        for (a, b) in reference.train.params.iter().zip(&quant.train.params) {
            assert!((a - b).abs() < 1e-2, "quantized run drifted: {a} vs {b}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (model, tasks, theta0) = setup(5);
        let trainer = fedml(3);
        let one = Runtime::new(RuntimeConfig::barrier(9).with_threads(1))
            .run(&trainer, &model, &tasks, &theta0);
        let four = Runtime::new(RuntimeConfig::barrier(9).with_threads(4))
            .run(&trainer, &model, &tasks, &theta0);
        assert_eq!(one.train.params, four.train.params);
        assert_eq!(one.train.history, four.train.history);
        assert_eq!(one.report.threads, 1);
        assert_eq!(four.report.threads, 4);
    }

    #[test]
    fn virtual_arrival_round_matches_naive_cast_in_range() {
        // On well-formed inputs the guarded helper is the historical
        // expression, bit for bit.
        for (t, round_s, origin) in [
            (0.0f64, 1.0f64, 1usize),
            (0.15, 1.0, 1),
            (1.0, 1.0, 1),
            (2.7, 1.0, 2),
            (3.999, 2.0, 1),
            (7.3, 0.5, 4),
        ] {
            let naive = (t / round_s).floor() as usize + 1;
            assert_eq!(
                virtual_arrival_round(t, round_s, origin, 100),
                naive.max(origin),
                "t={t} round_s={round_s}"
            );
        }
        // An arrival past the schedule maps to last_round + 1 — the
        // same "never delivered" outcome the old code reached with an
        // arbitrarily large round number.
        assert_eq!(virtual_arrival_round(55.0, 1.0, 3, 8), 9);
    }

    #[test]
    fn virtual_arrival_round_guards_degenerate_inputs() {
        // Each of these drove the old `floor() as usize + 1` through a
        // saturating cast: usize::MAX + 1 panics in debug and wraps to
        // round 0 in release, where `.max(origin)` resurrected an
        // undeliverable upload as an on-time one. All must now park the
        // upload past the schedule instead.
        let last = 8;
        for (t, round_s) in [
            (1.0, 0.0),                 // zero round duration
            (1.0, -1.0),                // negative round duration
            (1.0, f64::MIN_POSITIVE),   // subnormal-adjacent: quotient overflows
            (1.0, 5e-324),              // subnormal round duration
            (f64::INFINITY, 1.0),       // non-finite arrival time
            (f64::NAN, 1.0),
            (f64::NEG_INFINITY, 1.0),
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
            (-3.0, 1.0),                // negative virtual time
            (f64::MAX, 1.0),            // quotient exceeds usize range
        ] {
            assert_eq!(
                virtual_arrival_round(t, round_s, 2, last),
                last + 1,
                "t={t} round_s={round_s}"
            );
        }
    }

    #[test]
    fn staleness_exactly_at_the_bound_lands_in_the_last_bucket() {
        // base_delay 2.0 with zero jitter and 1 s rounds makes *every*
        // delivered update arrive with staleness exactly 2.
        let (model, tasks, theta0) = setup(4);
        let trainer = fedml(8);
        let cfg = |max_staleness| {
            RuntimeConfig::async_mode(
                5,
                AsyncPolicy::default().with_max_staleness(max_staleness),
            )
            .with_clock(VirtualClock::new(5).with_base_delay(2.0))
        };

        // s == max_staleness: accepted, into the final histogram slot —
        // the documented `max_staleness + 1` length bound is tight.
        let out = Runtime::new(cfg(2)).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(out.report.rejected_stale, 0);
        assert_eq!(out.report.staleness_hist.len(), 3);
        assert_eq!(out.report.staleness_hist[0], 0);
        assert_eq!(out.report.staleness_hist[1], 0);
        assert!(out.report.staleness_hist[2] > 0);
        assert_eq!(
            out.report.max_applied_staleness(),
            Some(2),
            "the bound itself must be accepted"
        );

        // s == max_staleness + 1: every delivery rejected as stale.
        let out = Runtime::new(cfg(1)).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(out.report.accepted_updates(), 0);
        assert!(out.report.rejected_stale > 0);
        assert!(out.report.staleness_hist.len() <= 2);
    }

    #[test]
    fn nonfinite_policy_weight_is_rejected_not_folded() {
        // Direct struct construction bypasses the builder assertions;
        // the NaN weight must surface as rejections, never as NaN
        // parameters.
        let (model, tasks, theta0) = setup(3);
        let trainer = fedml(4);
        let policy = AsyncPolicy {
            mix: f64::NAN,
            ..AsyncPolicy::default()
        };
        let out = Runtime::new(
            RuntimeConfig::async_mode(5, policy)
                .with_clock(VirtualClock::new(5).with_base_delay(0.1)),
        )
        .run(&trainer, &model, &tasks, &theta0);
        assert!(out.train.params.iter().all(|x| x.is_finite()));
        assert_eq!(out.train.params, theta0, "no update may move the global");
        assert_eq!(out.report.accepted_updates(), 0);
        assert!(out.report.rejected_nonfinite_weight > 0);
        assert_eq!(out.report.rejected_invalid, 0, "updates themselves are valid");
    }

    #[test]
    fn buffered_mode_flushes_every_k_and_drains_at_shutdown() {
        let (model, tasks, theta0) = setup(4);
        let trainer = fedml(6);
        let cfg = RuntimeConfig::async_mode(5, AsyncPolicy { buffer_k: 3, ..AsyncPolicy::default() })
            .with_clock(VirtualClock::new(5).with_base_delay(0.1).with_jitter(1.5));
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        let accepted = out.report.accepted_updates();
        assert!(accepted > 0);
        // Every accepted update is either part of a full flush or the
        // end-of-run partial drain — none strand in the buffer.
        assert_eq!(out.report.buffered_flushes, accepted.div_ceil(3));
        assert!(out.train.params.iter().all(|x| x.is_finite()));
        assert_ne!(out.train.params, theta0);
    }

    #[test]
    fn adaptive_mix_downweights_nodes_that_deliver_stale() {
        let (model, tasks, theta0) = setup(4);
        let trainer = fedml(8);
        let cfg = |adaptive| {
            RuntimeConfig::async_mode(
                5,
                AsyncPolicy { adaptive_mix: adaptive, ..AsyncPolicy::default() },
            )
            .with_clock(VirtualClock::new(5).with_base_delay(0.1).with_jitter(2.5))
        };
        let plain = Runtime::new(cfg(false)).run(&trainer, &model, &tasks, &theta0);
        let adaptive = Runtime::new(cfg(true)).run(&trainer, &model, &tasks, &theta0);
        // Off: quality stays at full trust and the stats only reflect
        // the staleness decay.
        assert!(plain
            .report
            .node_weight_stats
            .iter()
            .all(|s| s.quality == 1.0));
        // On: stale deliveries (the fixture has jitter up to 2.5
        // rounds) must have dented somebody's trust score, and the
        // dampened folds change the trajectory.
        let qualities: Vec<f64> = adaptive
            .report
            .node_weight_stats
            .iter()
            .map(|s| s.quality)
            .collect();
        assert!(qualities.iter().all(|q| (0.0..=1.0).contains(q)));
        assert!(qualities.iter().any(|&q| q < 1.0), "{qualities:?}");
        assert_ne!(adaptive.train.params, plain.train.params);
        // Effective weights never exceed the plain policy's for the
        // same node — quality only shrinks folds.
        for (a, p) in adaptive
            .report
            .node_weight_stats
            .iter()
            .zip(&plain.report.node_weight_stats)
        {
            assert!(a.max_weight <= p.max_weight + 1e-15);
        }
    }

    #[test]
    fn async_report_carries_the_policy_block() {
        let (model, tasks, theta0) = setup(3);
        let trainer = fedml(4);
        let policy = AsyncPolicy {
            decay: crate::config::StalenessDecay::Hinge { knee: 1 },
            buffer_k: 2,
            adaptive_mix: true,
            ..AsyncPolicy::default()
        };
        let out = Runtime::new(
            RuntimeConfig::async_mode(5, policy)
                .with_clock(VirtualClock::new(5).with_base_delay(0.1).with_jitter(1.0)),
        )
        .run(&trainer, &model, &tasks, &theta0);
        let block = out.report.async_policy.expect("async run reports its policy");
        assert_eq!(block.decay, "hinge:1");
        assert_eq!(block.buffer_k, 2);
        assert!(block.adaptive_mix);
        assert_eq!(block.max_staleness, 4);
        assert_eq!(out.report.node_weight_stats.len(), 3);
        // Barrier runs carry no policy block.
        let barrier =
            Runtime::new(RuntimeConfig::barrier(5)).run(&trainer, &model, &tasks, &theta0);
        assert!(barrier.report.async_policy.is_none());
        assert!(barrier.report.node_weight_stats.is_empty());
    }
}
