//! The platform's round core: every decision of a round, and no I/O.
//!
//! [`Core`] holds the global, the health tracker, the report's ledger and
//! the curve; it owns no clock, thread, channel, socket or file. Its
//! caller — the thread driver in the parent module, the virtual-time
//! driver (`crate::runner`, the simulator), or a test — moves frames and
//! time in and out through plain methods, one round at a time:
//!
//! ```text
//! open_round → broadcast(send) → evaluate_parked → wait(now) / offer(frame, now) … → close_round(delay) → checkpoint
//! ```
//!
//! Time enters only from the caller: the `Instant`s the silence deadline
//! is kept against, and each upload's delay, in seconds after its
//! round's start, which [`close_round`](Core::close_round) takes — the
//! thread driver's seeded [`VirtualClock`](crate::VirtualClock), the
//! virtual-time driver's priced downlink, compute and uplink. So a test
//! can drive a round frame by frame at synthetic times and delays,
//! without a thread or a sleep.
//! The virtual-time driver also [selects](Core::select) each round's
//! nodes, [schedules](Core::schedule) its `T0`, and
//! [prices](Core::price) its trace row; the thread driver does none of
//! these, and takes every node at the stepper's `T0`.
//!
//! # The curve
//!
//! Round `r`'s curve point is the global it closes with — the point
//! round `r + 1` broadcasts — and round `r` stays *parked* until its
//! losses are in. The curve is a weighted sum over the tasks, in task
//! order from `−0.0`. When the stepper
//! [yields its curve terms](LocalStepper::yields_curve_terms), each node
//! computes its task's two terms at that broadcast in its first step and
//! sends them back as its update's trailer; the core sums `weight ×
//! term` and evaluates on its own thread only the tasks with no usable
//! term: nodes the broadcast did not reach (during the broadcast's
//! overlap), nodes that sent none or a non-finite one (at the next
//! close), and every task of the last round (at [`Core::finish`]). The
//! sum's bits therefore do not depend on who reported. Any other stepper
//! has its whole curve evaluated during the overlap, by the same path in
//! one call. The result
//! re-averages `n` copies of the last global when the last round closed
//! on the exact path, once, as `train_from` does.

use std::ops::Range;
use std::time::{Duration, Instant};

use fml_core::checkpoint::Checkpoint;
use fml_core::gather::{screen_update, Validated};
use fml_core::{
    Fault, LocalStepper, RoundRecord, Scratch, SourceTask, TrainOutput, UpdateValidation,
};
use fml_linalg::vector::{axpy, weighted_sum};
use fml_models::Model;
use fml_sim::message::encoded_frame_len;
use fml_sim::{CompressedView, MessageView, RoundTrace};

use crate::config::{AsyncPolicy, Mode, RuntimeConfig};
use crate::health::HealthTracker;
use crate::report::{NodeWeightStat, RuntimeReport};

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

    fn stat(&self, node: usize, quality: f64) -> NodeWeightStat {
        NodeWeightStat {
            node,
            applied: self.applied,
            // No fold leaves the sum at 0.
            mean_weight: self.sum / self.applied.max(1) as f64,
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

/// Async mode's state across rounds: the policy, the uploads still in
/// virtual flight, per-node trust and weight statistics, and the
/// semi-async buffer.
struct Fold {
    policy: AsyncPolicy,
    pending: Vec<Pending>,
    /// Per-node adaptive-mixing quality scores (recency-weighted, start
    /// at full trust).
    quality: Vec<f64>,
    weight_stats: Vec<WeightAccum>,
    buffer: UpdateBuffer,
    /// This round's due pendings; empty between rounds, kept for its
    /// capacity.
    due: Vec<Pending>,
    /// Rows of pendings already folded or rejected, refilled by the next
    /// uploads instead of allocating one row each.
    spares: Vec<Vec<f64>>,
}

impl Fold {
    /// Whether the fold holds nothing a checkpoint cannot carry: no
    /// buffered update, no upload in virtual flight, and every quality
    /// score still at full trust. The fresh fold a resume starts with is
    /// then bitwise this one, less the report's weight statistics.
    fn settled(&self) -> bool {
        self.buffer.count == 0 && self.pending.is_empty() && self.quality.iter().all(|&q| q == 1.0)
    }
}

/// One parsed uplink frame. The platform accepts both wire families on
/// the uplink no matter which codec the nodes were configured with:
/// decode routing is driven by the frame itself, never by config.
enum UplinkFrame<'a> {
    /// A model update (dense tag-2 or compressed tag-6), with the
    /// node's curve terms when it sent them.
    Update {
        node: usize,
        frame_round: usize,
        params: UpdateParams<'a>,
        terms: Option<(f64, f64)>,
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
        let (node, frame_round, len, terms, params) = match MessageView::parse(frame) {
            Ok(v) if v.is_update() => (
                v.node(),
                v.round(),
                v.len(),
                v.curve_terms(),
                UpdateParams::Dense(v),
            ),
            Ok(_) => return UplinkFrame::Other,
            Err(_) => match CompressedView::parse(frame) {
                Ok(v) => (
                    v.node(),
                    v.round(),
                    v.len(),
                    v.curve_terms(),
                    UpdateParams::Compressed(v),
                ),
                Err(_) => return UplinkFrame::Bad,
            },
        };
        if len != dim {
            return UplinkFrame::Bad;
        }
        UplinkFrame::Update {
            node: node as usize,
            frame_round: frame_round as usize,
            params,
            terms,
        }
    }
}

impl UpdateParams<'_> {
    /// Overwrites `out`, of the update's length, with the update
    /// (dequantizing or zero-filling dropped coordinates as the scheme
    /// requires).
    fn write_into(&self, out: &mut [f64]) {
        match self {
            UpdateParams::Dense(v) => v.write_params(out),
            UpdateParams::Compressed(v) => v.write_params(out),
        }
    }
}

/// Where a node stands in the open round.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    /// Not reached by this round's broadcast.
    Idle,
    /// Reached; its update is still due.
    Awaited,
    /// Its update is decoded into its row; `finite` says whether every
    /// value of the row is.
    Received { finite: bool },
}

/// How a round ended, for its history record and trace row.
struct Outcome {
    /// Whether the global moved.
    aggregated: bool,
    /// Updates that entered it.
    reporters: usize,
    degraded: bool,
}

/// What a round cost, as its trace row shows it. The thread driver
/// leaves it to the core — the frames it moved and the upload delays it
/// passed, no compute — and the virtual-time driver prices it
/// ([`Core::price`]).
#[derive(Clone, Copy, Default)]
pub(crate) struct RoundCost {
    /// Bytes down and up.
    pub(crate) bytes: u64,
    /// Resends on the priced links; the thread driver counts none.
    pub(crate) retransmissions: u64,
    pub(crate) comm_time_s: f64,
    pub(crate) compute_time_s: f64,
}

/// A closed round whose losses are still to come: what its history
/// record and trace row need besides them.
struct Parked {
    round: usize,
    /// Local steps through this round, and this round's own.
    iteration: usize,
    local_steps: usize,
    participants: Vec<usize>,
    cost: RoundCost,
    end: Outcome,
}

/// One run's platform state and every decision its rounds make.
///
/// `history` and `report.trace` lag by one round while the run goes on:
/// round `r`'s entries are appended during round `r + 1` — by
/// [`evaluate_parked`](Self::evaluate_parked) or, once its nodes have
/// reported their terms, by [`close_round`](Self::close_round) — or by
/// [`finish`](Self::finish), so nothing in the core reads them.
/// `comm_rounds`, `global` and the checkpoint never lag.
pub(crate) struct Core<'a> {
    cfg: &'a RuntimeConfig,
    stepper: &'a dyn LocalStepper,
    model: &'a dyn Model,
    tasks: &'a [SourceTask],
    /// Counters and trace; the driver adds its link counters at the end.
    pub(crate) report: RuntimeReport,
    history: Vec<RoundRecord>,
    comm_rounds: usize,
    /// Per-node health state machine; quarantined/excluded nodes leave
    /// the broadcast set and the quorum denominator.
    health: HealthTracker,
    /// Recovery cycles consumed against `cfg.ft.max_recoveries`.
    recoveries: usize,
    /// The global model: what the next broadcast carries and what is
    /// published after each round.
    global: Vec<f64>,
    /// The last completed round (0 before any).
    done: usize,
    /// The open round.
    round: usize,
    /// The last round of the schedule, and the local steps `T0` of each
    /// round opened from now on: the stepper's unless the driver
    /// [schedules](Self::schedule) otherwise.
    rounds: usize,
    steps: usize,
    /// Local steps through round [`done`](Self::done).
    iterations: usize,
    /// Which nodes the driver takes part in the open round: all, unless
    /// it [selects](Self::select) fewer. The buffer is reused.
    selected: Vec<bool>,
    /// The open round's cost as the driver priced it, if it did: every
    /// attempt's, until the round closes.
    priced: Option<RoundCost>,
    /// Nodes this round's broadcast reached, ascending.
    delivered: Vec<usize>,
    slots: Vec<Slot>,
    /// The update arena: node `i`'s decoded update is row `i` of this
    /// `n × d` buffer, allocated once and overwritten by each accepted
    /// update.
    rows: Vec<f64>,
    /// Updates accepted this round.
    received: usize,
    /// Bytes the open round counted over every attempt: the broadcasts
    /// each closed attempt delivered and the uplink offered, garbage
    /// included.
    round_bytes: u64,
    /// How long the round waits after its last accepted update.
    timeout: Duration,
    /// When the open round stops waiting; started by the first
    /// [`wait`](Self::wait), restarted by each accepted update.
    deadline: Option<Instant>,
    /// Barrier mode reproduces `train_from` bitwise when nothing can
    /// perturb a round: benign plan, default policy — and, checked each
    /// round, every node's row in and finite.
    exact: bool,
    /// Whether the last closed round took the exact path: the output
    /// then re-averages `n` copies of the global, as `train_from` does.
    reaverage: bool,
    /// The last good global: what a rollback restores.
    snapshot: Vec<f64>,
    /// A round that rolled back stays flagged degraded even when the
    /// re-run fleet reports cleanly.
    recovered: bool,
    /// Async mode's state; `None` in barrier mode.
    fold: Option<Fold>,
    /// The last closed round, until its losses are recorded.
    parked: Option<Parked>,
    /// Per task, the parked round's `weight × (query, support)` terms
    /// known so far — reported by its node or evaluated here — whose sum
    /// in task order from `−0.0` is the curve point.
    curve: Vec<Option<(f64, f64)>>,
    /// What the curve evaluation runs on.
    scratch: Scratch,
}

impl<'a> Core<'a> {
    /// A fresh run from `theta0`.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is empty or `theta0` has the wrong length.
    pub(crate) fn new(
        cfg: &'a RuntimeConfig,
        stepper: &'a dyn LocalStepper,
        model: &'a dyn Model,
        tasks: &'a [SourceTask],
        theta0: &[f64],
    ) -> Self {
        assert!(!tasks.is_empty(), "Runtime: no source tasks");
        assert_eq!(
            theta0.len(),
            model.param_len(),
            "Runtime: bad theta0 length"
        );
        let n = tasks.len();
        let (mode, fold) = match cfg.mode {
            Mode::Barrier => ("barrier", None),
            Mode::Async(policy) => (
                "async",
                Some(Fold {
                    policy,
                    pending: Vec::new(),
                    quality: vec![1.0; n],
                    weight_stats: vec![WeightAccum::default(); n],
                    buffer: UpdateBuffer::new(policy.buffer_k, theta0.len()),
                    due: Vec::new(),
                    spares: Vec::new(),
                }),
            ),
        };
        Core {
            cfg,
            stepper,
            model,
            tasks,
            report: RuntimeReport {
                mode: mode.into(),
                update_codec: cfg.update_codec.to_string(),
                async_policy: fold.as_ref().map(|f| (&f.policy).into()),
                ..RuntimeReport::default()
            },
            history: Vec::new(),
            comm_rounds: 0,
            health: HealthTracker::new(n),
            recoveries: 0,
            global: theta0.to_vec(),
            done: 0,
            round: 0,
            rounds: stepper.rounds(),
            steps: stepper.local_steps(),
            iterations: 0,
            selected: vec![true; n],
            priced: None,
            delivered: Vec::new(),
            slots: vec![Slot::Idle; n],
            rows: vec![0.0; n * theta0.len()],
            received: 0,
            round_bytes: 0,
            timeout: Duration::from_millis(cfg.recv_timeout_ms),
            deadline: None,
            exact: cfg.ft.plan.is_benign() && cfg.ft.policy == fml_core::GatherPolicy::default(),
            reaverage: false,
            snapshot: theta0.to_vec(),
            recovered: false,
            fold,
            parked: None,
            curve: vec![None; n],
            scratch: Scratch::for_model(model),
        }
    }

    /// The global: what the next broadcast carries, and what is
    /// published after round [`done`](Self::done).
    pub(crate) fn global(&self) -> &[f64] {
        &self.global
    }

    /// The last completed round; 0 before any.
    pub(crate) fn done(&self) -> usize {
        self.done
    }

    /// The fleet's size: one node a task.
    pub(crate) fn nodes(&self) -> usize {
        self.tasks.len()
    }

    /// Resumes from a loaded checkpoint: restores the global, the health
    /// states (including permanent exclusions), and the consumed recovery
    /// budget, so the next round is the one after the checkpoint's. The
    /// run stays a fresh start when the checkpoint belongs to a different
    /// algorithm, mode, parameter count or fleet size.
    pub(crate) fn resume(&mut self, ck: Checkpoint) {
        if ck.algorithm != self.stepper.algorithm()
            || ck.params.len() != self.global.len()
            || ck.meta.get("mode") != Some(&self.report.mode)
        {
            return;
        }
        let Some(done) = ck.meta.get("round").and_then(|s| s.parse::<usize>().ok()) else {
            return;
        };
        // The health record has one entry per node: a checkpoint it does
        // not fit comes from another fleet.
        if let Some(h) = ck.meta.get("health") {
            if !self.health.restore_meta(h) {
                return;
            }
        }
        if let Some(r) = ck.meta.get("recoveries").and_then(|s| s.parse().ok()) {
            self.recoveries = r;
        }
        self.global = ck.params;
        self.snapshot.clone_from(&self.global);
        self.done = done;
        self.iterations = done * self.steps;
        self.report.resumed_at_round = Some(done + 1);
    }

    /// Sets the local steps of each round opened from now on, and the
    /// number of the schedule's last round.
    pub(crate) fn schedule(&mut self, steps: usize, rounds: usize) {
        self.steps = steps;
        self.rounds = rounds;
    }

    /// The local steps the open round's nodes take.
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// Takes only `nodes` into the rounds opened from now on. Any other
    /// node is not sent the broadcast, is not counted as a drop or in
    /// the quorum, and its health is not recorded.
    pub(crate) fn select(&mut self, nodes: &[usize]) {
        self.selected.fill(false);
        for &node in nodes {
            self.selected[node] = true;
        }
    }

    /// Prices the open round: its trace row shows `cost` instead of
    /// what the core counted, summed over every attempt when the round
    /// rolled back and ran again.
    pub(crate) fn price(&mut self, cost: RoundCost) {
        let priced = self.priced.get_or_insert_default();
        priced.bytes += cost.bytes;
        priced.retransmissions += cost.retransmissions;
        priced.comm_time_s += cost.comm_time_s;
        priced.compute_time_s += cost.compute_time_s;
    }

    /// Opens the next round in the health tracker and returns its
    /// number, or `None` once the schedule is done. A round that rolled
    /// back opens again under the same number.
    pub(crate) fn open_round(&mut self) -> Option<usize> {
        if self.done >= self.rounds {
            return None;
        }
        self.round = self.done + 1;
        self.health.begin_round(self.round);
        self.delivered = Vec::with_capacity(self.tasks.len());
        self.slots.fill(Slot::Idle);
        self.received = 0;
        self.deadline = None;
        Some(self.round)
    }

    /// Whether `node` is scheduled to crash in the open round.
    fn crashes(&self, node: usize) -> bool {
        matches!(self.cfg.ft.plan.draw(node, self.round), Some(Fault::Crash))
    }

    /// Hands the open round's broadcast to `send` for every selected
    /// node healthy enough to take part (not quarantined or excluded)
    /// and not scheduled to crash. `send` says whether the frame went
    /// out; a node it failed is counted in the round's drop slot. A
    /// recovery re-run broadcasts the same round again, so the slot
    /// accumulates.
    pub(crate) fn broadcast(&mut self, mut send: impl FnMut(usize) -> bool) {
        let mut drops = 0u64;
        for node in 0..self.tasks.len() {
            if !self.selected[node] || self.crashes(node) || !self.health.is_active(node) {
                continue;
            }
            if send(node) {
                self.delivered.push(node);
                self.slots[node] = Slot::Awaited;
            } else {
                drops += 1;
            }
        }
        self.report.undelivered += drops;
        if self.report.broadcast_drops.len() < self.round {
            self.report.broadcast_drops.resize(self.round, 0);
        }
        self.report.broadcast_drops[self.round - 1] += drops;
    }

    /// How long the caller may still wait for the open round's updates,
    /// or `None` once every reached node has reported or the silence
    /// deadline has passed. The first call starts the deadline and only
    /// an accepted update restarts it, so a round waits at most
    /// `reached × timeout` however many other frames arrive.
    pub(crate) fn wait(&mut self, now: Instant) -> Option<Duration> {
        let deadline = *self.deadline.get_or_insert(now + self.timeout);
        (self.received < self.delivered.len() && now < deadline).then(|| deadline - now)
    }

    /// Whether `node` was reached this round and has not reported yet.
    fn awaits(&self, node: usize) -> bool {
        self.slots.get(node) == Some(&Slot::Awaited)
    }

    /// Triages one uplink frame received at `now`: an update the round
    /// awaits is decoded into its node's arena row, which is checked for
    /// non-finite values once, here, and its finite curve terms, taken
    /// at this round's broadcast, become its task's part of the parked
    /// round's curve; a duplicate, one for another round, or a frame that
    /// is not an update counts as undelivered; anything unparseable as a
    /// decode error. Allocates nothing.
    pub(crate) fn offer(&mut self, frame: &[u8], now: Instant) {
        self.round_bytes += frame.len() as u64;
        // Uplink updates arrive in either wire family — dense tag-2 or
        // compressed tag-6 — regardless of the configured codec: the
        // codec drives the encode side only, so the `none` conformance
        // path never depends on decode routing.
        match UplinkFrame::parse(frame, self.model.param_len()) {
            UplinkFrame::Update {
                node,
                frame_round,
                params,
                terms,
            } if frame_round == self.round && self.awaits(node) => {
                let row = &mut self.rows[node * self.global.len()..][..self.global.len()];
                params.write_into(row);
                let finite = row.iter().all(|x| x.is_finite());
                self.slots[node] = Slot::Received { finite };
                self.received += 1;
                self.deadline = Some(now + self.timeout);
                if let Some((query, support)) = terms {
                    if self.parked.is_some() && query.is_finite() && support.is_finite() {
                        let w = self.tasks[node].weight;
                        self.curve[node] = Some((w * query, w * support));
                        self.report.curve_terms_reported += 1;
                    }
                }
            }
            // A frame for an already-closed round (or a duplicate): its
            // round has moved on without it.
            UplinkFrame::Update { .. } | UplinkFrame::Other => self.report.undelivered += 1,
            UplinkFrame::Bad => self.report.decode_errors += 1,
        }
    }

    /// Records the parked round — its curve point is still the global —
    /// then closes the open round with whatever it received. Each
    /// upload's delay comes from the driver: `delay(node)` is when, in
    /// seconds after the round's start, the node's upload reaches the
    /// platform. It is read only for nodes whose update was accepted: a
    /// barrier close counts the slowest as the round's comm time, an
    /// async close stamps each upload's virtual arrival with it. `false`
    /// means the round rolled back and must run again; otherwise it is
    /// done and parked until its losses are in.
    pub(crate) fn close_round(&mut self, delay: impl Fn(usize) -> f64) -> bool {
        self.record_parked();
        let frame_len = encoded_frame_len(self.global.len());
        self.round_bytes += (self.delivered.len() * frame_len) as u64;
        let closed = match self.fold.take() {
            None => self.close_barrier(&delay),
            Some(mut fold) => {
                let closed = self.close_async(&mut fold, &delay);
                self.fold = Some(fold);
                Some(closed)
            }
        };
        let Some((end, comm_time_s)) = closed else {
            return false;
        };
        self.comm_rounds += usize::from(end.aggregated);
        self.iterations += self.steps;
        let counted = RoundCost {
            bytes: std::mem::take(&mut self.round_bytes),
            comm_time_s,
            ..RoundCost::default()
        };
        debug_assert!(self.parked.is_none(), "one round parked at a time");
        self.parked = Some(Parked {
            round: self.round,
            iteration: self.iterations,
            local_steps: self.steps,
            participants: std::mem::take(&mut self.delivered),
            cost: self.priced.take().unwrap_or(counted),
            end,
        });
        self.done = self.round;
        true
    }

    /// A barrier close, with the round's outcome and comm time: the
    /// slowest accepted upload's `delay`. `None` when it rolled back.
    fn close_barrier(&mut self, delay: impl Fn(usize) -> f64) -> Option<(Outcome, f64)> {
        let n = self.tasks.len();
        let comm_time_s = (0..n)
            .filter(|&i| matches!(self.slots[i], Slot::Received { .. }))
            .map(delay)
            .fold(0.0f64, f64::max);
        let clean = |s: &Slot| *s == Slot::Received { finite: true };
        let end = if self.exact && self.slots.iter().all(clean) {
            // train_from replica: `aggregate`'s exact float ops over the
            // arena rows, in node order from a zero accumulator. A round
            // with a non-finite row takes the gather path instead.
            let d = self.global.len();
            let mut mean = vec![0.0; d];
            for (i, task) in self.tasks.iter().enumerate() {
                axpy(task.weight, &self.rows[i * d..][..d], &mut mean);
            }
            self.global = self.stepper.combine(&self.global, mean);
            self.reaverage = true;
            Outcome {
                aggregated: true,
                reporters: n,
                degraded: false,
            }
        } else {
            self.reaverage = false;
            let mut end = self.gather_round()?;
            end.degraded |= self.recovered || self.health.removed_count() > 0;
            end
        };
        if end.aggregated {
            // Barrier mode folds every update at staleness 0.
            if self.report.staleness_hist.is_empty() {
                self.report.staleness_hist.push(0);
            }
            self.report.staleness_hist[0] += end.reporters as u64;
        }
        self.snapshot.clone_from(&self.global);
        self.recovered = false;
        Some((end, comm_time_s))
    }

    /// One barrier round over the *active* selection: each node that
    /// reported a finite update (as [`offer`](Self::offer) recorded it)
    /// contributes its arena row and succeeds, every other node fails in
    /// the health tracker; then the quorum, and the weighted mean with
    /// the weights renormalized over the contributors, installed through
    /// [`LocalStepper::combine`]. Quorum
    /// is a fraction of the active total, so excluding failed nodes
    /// during recovery shrinks the requirement — that is what lets a run
    /// finish after a minority of nodes dies.
    ///
    /// Quorum loss and a diverged global first try rollback-and-exclude
    /// (`None`: rolled back, re-run the round); only when recovery is
    /// impossible does the round degrade in place, keeping the previous
    /// global — a thin fleet must degrade, not hang. A fleet quarantined
    /// whole has nobody to gather, which is a lost quorum too.
    fn gather_round(&mut self) -> Option<Outcome> {
        let d = self.global.len();
        let mut total = 0;
        let mut failed = Vec::new();
        let (mut weights, mut views) = (Vec::new(), Vec::new());
        for i in self.health.active_nodes() {
            if !self.selected[i] {
                continue;
            }
            total += 1;
            if self.slots[i] == (Slot::Received { finite: true }) {
                weights.push(self.tasks[i].weight);
                views.push(&self.rows[i * d..][..d]);
                self.health.record_success(i, self.round);
            } else {
                failed.push(i);
                self.health.record_failure(i, self.round);
            }
        }
        let reporters = views.len();
        if reporters >= self.cfg.ft.policy.required_reporters(total) {
            // Eq. 5 over the contributors, weights renormalized.
            let total_w: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total_w;
            }
            let params = weighted_sum(&views, &weights).expect("a met quorum has a contributor");
            let next = self.stepper.combine(&self.global, params);
            // Validation can pass per node and the combined global still
            // diverge.
            if next.iter().all(|x| x.is_finite()) {
                self.global = next;
                return Some(Outcome {
                    aggregated: true,
                    reporters,
                    degraded: !failed.is_empty(),
                });
            }
        }
        if self.try_recover(&failed) {
            self.recovered = true;
            return None;
        }
        Some(Outcome {
            aggregated: false,
            reporters,
            degraded: true,
        })
    }

    /// The rollback-and-exclude decision, over the health tracker's
    /// membership. Within the recovery budget, with blame to assign
    /// among the still-active nodes, and with fleet left over, it
    /// restores the last good global, consumes one recovery, permanently
    /// excludes the failed nodes and returns `true`: the round runs
    /// again. `false` means unrecoverable — the budget is spent, nobody
    /// active is to blame (a deterministic retry would fail the same
    /// way), or nobody would be left — and the round then degrades and
    /// the run keeps going.
    fn try_recover(&mut self, failed: &[usize]) -> bool {
        let blamed = failed.iter().filter(|&&n| self.health.is_active(n)).count();
        let active = self.tasks.len() - self.health.removed_count();
        if self.recoveries >= self.cfg.ft.max_recoveries || blamed == 0 || blamed == active {
            return false;
        }
        self.global.clone_from(&self.snapshot);
        self.recoveries += 1;
        for &node in failed {
            if self.health.is_active(node) {
                self.health.exclude(node, self.round);
            }
        }
        self.report.recoveries += 1;
        self.report.rollbacks += 1;
        self.report.excluded_nodes = self.health.excluded_nodes();
        true
    }

    /// An async close: stamps each received update with its virtual
    /// arrival — the round's start plus its `delay` — and so its arrival
    /// round, then folds everything due in `(arrival_time, node)` order
    /// with a staleness-decayed weight. The staleness-weighted mix
    /// `θ ← (1−w)θ + w·u` *is* this mode's combine step:
    /// [`LocalStepper::combine`] is not applied.
    fn close_async(&mut self, fold: &mut Fold, delay: impl Fn(usize) -> f64) -> (Outcome, f64) {
        let (round, rounds, n) = (self.round, self.rounds, self.tasks.len());
        let policy = fold.policy;
        let round_s = self.cfg.round_duration_s;
        // Active nodes skipped for a scheduled crash count as a health
        // failure, same as a missing barrier report.
        for i in self.health.active_nodes() {
            if self.crashes(i) {
                self.health.record_failure(i, round);
            }
        }
        // Stamp each physical arrival with its *virtual* arrival round:
        // round-start time plus the driver's upload delay.
        let d = self.global.len();
        for node in (0..n).filter(|&i| matches!(self.slots[i], Slot::Received { .. })) {
            let arrival_time_s = (round - 1) as f64 * round_s + delay(node);
            let mut params = fold.spares.pop().unwrap_or_default();
            params.clear();
            params.extend_from_slice(&self.rows[node * d..][..d]);
            fold.pending.push(Pending {
                node,
                origin: round,
                arrive: virtual_arrival_round(arrival_time_s, round_s, round, rounds),
                arrival_time_s,
                params,
            });
        }

        // Everything due this round, in deterministic virtual arrival
        // order — OS scheduling cannot influence this.
        let mut due = std::mem::take(&mut fold.due);
        due.extend(fold.pending.extract_if(.., |p| p.arrive <= round));
        due.sort_by(|a, b| {
            a.arrival_time_s
                .total_cmp(&b.arrival_time_s)
                .then(a.node.cmp(&b.node))
        });

        // What a divergence rollback restores this round.
        let round_start = self.global.clone();
        let buffered = policy.buffer_k > 1;
        let mut applied = 0usize;
        let mut comm_time_s = 0.0f64;
        for p in &mut due {
            let staleness = round - p.origin;
            let rejected = if staleness > policy.max_staleness {
                Some(&mut self.report.rejected_stale)
            } else if screen_update(&mut p.params, &UpdateValidation {}) == Validated::Rejected {
                Some(&mut self.report.rejected_invalid)
            } else {
                None
            };
            if let Some(count) = rejected {
                *count += 1;
                self.health.record_failure(p.node, round);
                if policy.adaptive_mix {
                    fold.quality[p.node] *= 0.5;
                }
                continue;
            }
            let mut w = policy.weight(self.tasks[p.node].weight, n, staleness);
            if policy.adaptive_mix {
                w = (w * fold.quality[p.node]).clamp(0.0, 1.0);
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
                fold.buffer.push(w, &p.params);
                if fold.buffer.full() && fold.buffer.flush(&mut self.global) {
                    self.report.buffered_flushes += 1;
                }
            } else {
                for (g, &u) in self.global.iter_mut().zip(&p.params) {
                    *g = (1.0 - w) * *g + w * u;
                }
            }
            if policy.adaptive_mix {
                fold.quality[p.node] = 0.5 * fold.quality[p.node] + 0.5 / (1.0 + staleness as f64);
            }
            if staleness >= self.report.staleness_hist.len() {
                self.report.staleness_hist.resize(staleness + 1, 0);
            }
            self.report.staleness_hist[staleness] += 1;
            fold.weight_stats[p.node].record(w);
            applied += 1;
            self.health.record_success(p.node, round);
            comm_time_s = comm_time_s.max(p.arrival_time_s - (p.origin - 1) as f64 * round_s);
        }
        fold.spares.extend(due.drain(..).map(|p| p.params));
        fold.due = due;

        // Semi-async: a partial buffer must not strand accepted updates
        // when the schedule ends — flush it before the final round's
        // divergence check and evaluation.
        if buffered && round == rounds && fold.buffer.flush(&mut self.global) {
            self.report.buffered_flushes += 1;
        }

        let rolled_back = self.global.iter().any(|x| !x.is_finite());
        if rolled_back {
            // Every fold passed per-update validation but their
            // composition diverged: restore the round-start global.
            self.global = round_start;
            self.report.rollbacks += 1;
        }
        let required = self.cfg.ft.policy.required_reporters(n);
        let end = Outcome {
            aggregated: applied > 0 && !rolled_back,
            reporters: applied,
            degraded: applied < required || self.delivered.len() < n || rolled_back,
        };
        (end, comm_time_s)
    }

    /// The checkpoint the round just closed leaves, when a directory is
    /// configured and the cadence (or the final round) says so. It
    /// carries the global, the round, the consumed recovery budget and
    /// the health states: everything [`resume`](Self::resume) needs for
    /// a bitwise-deterministic restart — except an async fold's
    /// buffered updates, uploads in flight and quality scores. So a
    /// mid-run checkpoint is written only at a round whose close left
    /// the fold [settled](Fold::settled), and a resume replays from the
    /// last such round. The final round is always written.
    pub(crate) fn checkpoint(&self) -> Option<Checkpoint> {
        let every = self.cfg.checkpoint.every.max(1);
        let due =
            || self.done.is_multiple_of(every) && self.fold.as_ref().is_none_or(Fold::settled);
        if self.cfg.checkpoint.dir.is_none() || (self.done != self.rounds && !due()) {
            return None;
        }
        Some(
            Checkpoint::new(self.stepper.algorithm(), self.global.clone())
                .with_meta("round", self.done.to_string())
                .with_meta("mode", self.report.mode.as_str())
                .with_meta("recoveries", self.recoveries.to_string())
                .with_meta("health", self.health.to_meta()),
        )
    }

    /// Evaluates what of the parked round's curve no reply will cover,
    /// while the nodes compute: the driver calls it between a broadcast
    /// and the collect — a wait the platform thread would otherwise spend
    /// blocked. That is every task the broadcast did not reach, and every
    /// task when the stepper yields no terms, in which case the round is
    /// recorded here; otherwise the rest waits for the replies (see
    /// [`close_round`](Self::close_round)). A no-op with nothing parked.
    pub(crate) fn evaluate_parked(&mut self) {
        if self.parked.is_none() {
            return;
        }
        let yields = self.stepper.yields_curve_terms();
        self.evaluate_curve(|core, task| !yields || core.slots[task] == Slot::Idle);
        if self.curve.iter().all(Option::is_some) {
            self.record_parked();
        }
    }

    /// Fills, at the global, every empty curve slot `uncovered` picks.
    /// A leading run of them is one `eval_losses_with` call: its sum in
    /// task order from `−0.0` is, bit for bit, where the record's sum
    /// stands at the run's end, so the run's first slot holds it and the
    /// others `−0.0`, which leaves any sum unchanged. Every later slot is
    /// one task's call, whose sum from `−0.0` is its term itself.
    fn evaluate_curve(&mut self, uncovered: impl Fn(&Self, usize) -> bool) {
        let n = self.tasks.len();
        let open = |core: &Self, task: usize| core.curve[task].is_none() && uncovered(core, task);
        let lead = (0..n).take_while(|&task| open(self, task)).count();
        if lead > 0 {
            self.curve[0] = Some(self.evaluate(0..lead));
            self.curve[1..lead].fill(Some((-0.0, -0.0)));
        }
        for task in lead..n {
            if open(self, task) {
                self.curve[task] = Some(self.evaluate(task..task + 1));
            }
        }
    }

    /// The curve's `(meta_loss, train_loss)` over `tasks` at the global,
    /// evaluated here.
    fn evaluate(&mut self, tasks: Range<usize>) -> (f64, f64) {
        self.report.curve_terms_evaluated += tasks.len() as u64;
        self.stepper.eval_losses_with(
            self.model,
            &self.tasks[tasks],
            &self.global,
            &mut self.scratch,
        )
    }

    /// Appends the parked round's history record and trace row, at the
    /// global: the sum in task order from `−0.0` of every task's terms,
    /// each evaluated here unless its node reported it. A no-op with
    /// nothing parked.
    fn record_parked(&mut self) {
        let Some(parked) = self.parked.take() else {
            return;
        };
        let Outcome {
            aggregated,
            reporters,
            degraded,
        } = parked.end;
        self.evaluate_curve(|_, _| true);
        let (mut meta_loss, mut train_loss) = (-0.0, -0.0);
        for slot in &mut self.curve {
            let (meta, train) = slot.take().expect("every task evaluated above");
            meta_loss += meta;
            train_loss += train;
        }
        self.history.push(RoundRecord {
            iteration: parked.iteration,
            meta_loss,
            train_loss,
            aggregated,
            reporters,
            degraded,
        });
        self.report.trace.push(RoundTrace {
            round: parked.round,
            participants: parked.participants,
            local_steps: parked.local_steps,
            bytes: parked.cost.bytes,
            retransmissions: parked.cost.retransmissions,
            comm_time_s: parked.cost.comm_time_s,
            compute_time_s: parked.cost.compute_time_s,
            meta_loss,
            reporters,
            degraded,
        });
    }

    /// Records the last round and returns the training output and the
    /// report, less the link counters only the driver holds.
    pub(crate) fn finish(mut self) -> (TrainOutput, RuntimeReport) {
        // The last round has no next broadcast to hide behind, and no
        // node computes at its global.
        self.record_parked();
        let params = if self.reaverage {
            let copies = vec![self.global.as_slice(); self.tasks.len()];
            let weights: Vec<f64> = self.tasks.iter().map(|t| t.weight).collect();
            weighted_sum(&copies, &weights).expect("at least one node")
        } else {
            self.global
        };
        let mut report = self.report;
        if let Some(fold) = &self.fold {
            // Uploads still in (virtual) flight when the schedule ended.
            report.undelivered += fold.pending.len() as u64;
            report.node_weight_stats = fold
                .weight_stats
                .iter()
                .enumerate()
                .map(|(node, acc)| acc.stat(node, fold.quality[node]))
                .collect();
        }
        report.node_health = self.health.summaries();
        report.excluded_nodes = self.health.excluded_nodes();
        report.degraded_rounds = report.trace.rounds().iter().filter(|r| r.degraded).count();
        let train = TrainOutput {
            params,
            history: self.history,
            comm_rounds: self.comm_rounds,
            local_iterations: self.iterations,
        };
        (train, report)
    }
}

#[cfg(test)]
mod tests {
    //! The core driven frame by frame: no thread, no transport, no
    //! sleep. Time is a synthetic `Instant` the test advances.

    use super::*;
    use crate::VirtualClock;
    use bytes::BytesMut;
    use fml_core::{aggregate, FedMl, FedMlConfig, GatherPolicy, Reptile, ReptileConfig};
    use fml_data::synthetic::SyntheticConfig;
    use fml_models::SoftmaxRegression;
    use fml_sim::message::{encode_global_into, encode_update_into, put_curve_terms};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(nodes: usize) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(43);
        let fed = SyntheticConfig::new(0.5, 0.5)
            .with_nodes(nodes)
            .with_dim(4)
            .with_classes(3)
            .generate(&mut rng);
        let tasks = SourceTask::from_nodes(fed.nodes(), 5, &mut rng);
        let model = SoftmaxRegression::new(4, 3);
        let theta0 = model.init_params(&mut rng);
        (model, tasks, theta0)
    }

    fn fedml(rounds: usize) -> FedMl {
        FedMl::new(FedMlConfig::new(0.05, 0.05).with_rounds(rounds))
    }

    fn update(round: usize, node: usize, params: &[f64]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_update_into(round as u32, node as u32, params, &mut buf);
        buf.to_vec()
    }

    /// A node's stand-in local update: `theta` moved by a node-dependent
    /// step.
    fn local(theta: &[f64], node: usize) -> Vec<f64> {
        let step = 0.01 * (node + 1) as f64;
        theta
            .iter()
            .enumerate()
            .map(|(j, x)| x + step * (j % 3) as f64 - 0.005)
            .collect()
    }

    /// Closes the open round with the configured clock's upload delays,
    /// as the thread driver does.
    fn close(core: &mut Core) -> bool {
        let (clock, round) = (core.cfg.clock, core.round);
        core.close_round(|node| clock.delay_s(node, round))
    }

    /// One round in which the broadcast reaches everybody and the
    /// `reporters` answer, in that order, at `t`: the round's number and
    /// whether it closed.
    fn run_round(core: &mut Core, reporters: &[usize], t: Instant) -> (usize, bool) {
        let round = core.open_round().expect("a round left");
        core.broadcast(|_| true);
        core.evaluate_parked();
        for &node in reporters {
            let frame = update(round, node, &local(&core.global, node));
            core.offer(&frame, t);
        }
        (round, close(core))
    }

    #[test]
    fn every_offered_frame_lands_in_exactly_one_ledger() {
        let (model, tasks, theta0) = fixture(3);
        let (cfg, stepper) = (RuntimeConfig::barrier(1), fedml(2));
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        let round = core.open_round().unwrap();
        // Node 2's send fails: a drop, and no update is due from it.
        core.broadcast(|node| node != 2);
        assert_eq!(core.report.undelivered, 1);
        let mut global = BytesMut::new();
        encode_global_into(round as u32, &theta0, &mut global);
        let u = &theta0;
        let (accepted, undelivered, decode_error) = ([1, 0, 0], [0, 1, 0], [0, 0, 1]);
        let frames = [
            (update(round, 0, u), accepted),
            (update(round, 0, u), undelivered),        // duplicate
            (update(round + 1, 1, u), undelivered),    // another round
            (update(round - 1, 1, u), undelivered),    // a closed round
            (update(round, 2, u), undelivered),        // not reached
            (update(round, 7, u), undelivered),        // not in the fleet
            (update(round, 1, &u[1..]), decode_error), // wrong dimension
            (global.to_vec(), undelivered),            // not an update
            (b"garbage".to_vec(), decode_error),
            (update(round, 1, u), accepted),
        ];
        let t = Instant::now();
        for (i, (frame, ledger)) in frames.iter().enumerate() {
            let before = [
                core.received as u64,
                core.report.undelivered,
                core.report.decode_errors,
            ];
            core.offer(frame, t);
            let after = [
                core.received as u64,
                core.report.undelivered,
                core.report.decode_errors,
            ];
            let moved: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            assert_eq!(moved, ledger, "frame {i}");
        }
        assert_eq!(core.wait(t), None, "every reached node reported");
        let bytes: u64 = frames.iter().map(|(f, _)| f.len() as u64).sum();
        assert!(close(&mut core));
        let (_, report) = core.finish();
        let row = &report.trace.rounds()[0];
        assert_eq!(row.participants, vec![0, 1]);
        assert_eq!(
            row.bytes,
            2 * encoded_frame_len(theta0.len()) as u64 + bytes
        );
    }

    /// Round 1's curve comes from round 2's replies. Of five nodes one
    /// sends an unflagged update, one reports a NaN term, one is not
    /// reached, one sends its terms and then a duplicate with others,
    /// and one reports its terms: the record is the curve evaluated over
    /// every task, bit for bit, and only the last two nodes' terms were
    /// taken. The first two tasks are evaluated here in one call, the
    /// unreached one alone during the overlap.
    #[test]
    fn reported_curve_terms_sum_to_the_evaluated_curve() {
        let (model, tasks, theta0) = fixture(5);
        let (cfg, stepper) = (RuntimeConfig::barrier(3), fedml(2));
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        let t = Instant::now();
        assert_eq!(run_round(&mut core, &[0, 1, 2, 3, 4], t), (1, true));
        let at = core.global.clone();
        let terms = |node: usize| {
            let mut scratch = Scratch::for_model(&model).with_curve_terms();
            let mut out = Vec::new();
            stepper.local_update_into(&model, &tasks[node], &at, 1, &mut scratch, &mut out);
            scratch.curve_terms().expect("FedML yields its terms")
        };
        let flagged = |node: usize, terms: (f64, f64)| {
            let mut buf = BytesMut::new();
            encode_update_into(2, node as u32, &local(&at, node), &mut buf);
            put_curve_terms(&mut buf, terms);
            buf.to_vec()
        };

        assert_eq!(core.open_round(), Some(2));
        core.broadcast(|node| node != 2);
        core.evaluate_parked();
        assert_eq!(core.report.curve_terms_evaluated, 1, "the unreached node");
        assert!(core.history.is_empty(), "waits for the replies");
        core.offer(&update(2, 0, &local(&at, 0)), t);
        core.offer(&flagged(1, (f64::NAN, terms(1).1)), t);
        core.offer(&flagged(3, terms(3)), t);
        core.offer(&flagged(3, (9.0, 9.0)), t);
        core.offer(&flagged(4, terms(4)), t);
        assert!(close(&mut core));
        assert_eq!(core.report.curve_terms_reported, 2);
        assert_eq!(core.report.curve_terms_evaluated, 3);

        let (out, report) = core.finish();
        let bits = |r: &RoundRecord| (r.meta_loss.to_bits(), r.train_loss.to_bits());
        let (meta, train) = stepper.eval_losses(&model, &tasks, &at);
        assert_eq!(bits(&out.history[0]), (meta.to_bits(), train.to_bits()));
        assert_eq!(report.trace.rounds()[0].meta_loss.to_bits(), meta.to_bits());
        // The last round is evaluated whole; node 2 missed it, so the
        // result is the global itself.
        let (meta, train) = stepper.eval_losses(&model, &tasks, &out.params);
        assert_eq!(bits(&out.history[1]), (meta.to_bits(), train.to_bits()));
        assert_eq!(report.curve_terms_evaluated, 3 + 5);
    }

    #[test]
    fn only_an_accepted_update_restarts_the_silence_deadline() {
        let (model, tasks, theta0) = fixture(2);
        let cfg = RuntimeConfig {
            recv_timeout_ms: 1_000,
            ..RuntimeConfig::barrier(5)
        };
        let stepper = fedml(2);
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        let round = core.open_round().unwrap();
        core.broadcast(|_| true);
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        assert_eq!(core.wait(t0), Some(Duration::from_secs(1)));
        core.offer(&update(round, 0, &theta0), at(300));
        // A peer sending garbage (or duplicates) inside every timeout
        // must not hold the round open.
        for ms in [800, 1_200, 1_290] {
            core.offer(b"garbage", at(ms));
            core.offer(&update(round, 0, &theta0), at(ms));
            assert!(core.wait(at(ms)).is_some());
        }
        assert_eq!(core.report.decode_errors, 3);
        assert_eq!(core.report.undelivered, 3);
        assert_eq!(core.wait(at(1_299)), Some(Duration::from_millis(1)));
        assert_eq!(core.wait(at(1_300)), None, "last accept + timeout");
    }

    /// A barrier round is its weighted mean then `combine`, bit for bit:
    /// on the exact path the `train_from` aggregate; on the gather path
    /// (a non-default quorum, a crash, or a NaN or ±Inf row) the mean
    /// with its weights renormalized over the nodes whose updates are
    /// finite — each of which succeeds, while the others fail.
    #[test]
    fn a_full_barrier_round_is_aggregate_then_combine_bit_for_bit() {
        let (model, tasks, theta0) = fixture(4);
        let cfg = RuntimeConfig::barrier(4);
        // Reptile's combine is an interpolation, not the identity.
        let stepper = Reptile::new(ReptileConfig::new(0.05, 0.5).with_rounds(1));
        let locals: Vec<Vec<f64>> = (0..4).map(|i| local(&theta0, i)).collect();
        let want = stepper.combine(&theta0, aggregate(&tasks, &locals));
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        // Arrival order is not aggregation order.
        assert_eq!(
            run_round(&mut core, &[3, 1, 0, 2], Instant::now()),
            (1, true)
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&core.global), bits(&want));
        let (out, report) = core.finish();
        assert_eq!(out.comm_rounds, 1);
        assert!(!out.history[0].degraded);
        assert_eq!(report.staleness_hist, vec![4]);

        let quorum =
            RuntimeConfig::barrier(4).with_gather(GatherPolicy::default().with_min_quorum(0.75));
        // Node 1 silent (`None`) or reporting a row of one value.
        for (cfg, bad) in [
            (&quorum, None),
            (&cfg, Some(None)),
            (&quorum, Some(Some(f64::NAN))),
            (&quorum, Some(Some(f64::INFINITY))),
            (&quorum, Some(Some(f64::NEG_INFINITY))),
        ] {
            let mut core = Core::new(cfg, &stepper, &model, &tasks, &theta0);
            let round = core.open_round().unwrap();
            core.broadcast(|_| true);
            for node in [3, 1, 0, 2] {
                let mut row = locals[node].clone();
                match bad {
                    Some(None) if node == 1 => continue,
                    Some(Some(x)) if node == 1 => row.fill(x),
                    _ => {}
                }
                core.offer(&update(round, node, &row), Instant::now());
            }
            assert!(close(&mut core));
            let good: Vec<usize> = (0..4).filter(|&i| bad.is_none() || i != 1).collect();
            let total_w: f64 = good.iter().map(|&i| tasks[i].weight).sum();
            let weights: Vec<f64> = good.iter().map(|&i| tasks[i].weight / total_w).collect();
            let views: Vec<&[f64]> = good.iter().map(|&i| &locals[i][..]).collect();
            let want = stepper.combine(&theta0, weighted_sum(&views, &weights).unwrap());
            assert_eq!(bits(&core.global), bits(&want), "{bad:?}");
            let (out, report) = core.finish();
            let record = &out.history[0];
            assert_eq!(
                (record.aggregated, record.reporters, record.degraded),
                (true, good.len(), bad.is_some()),
                "{bad:?}"
            );
            let failures: Vec<u64> = report.node_health.iter().map(|h| h.failures).collect();
            let failed = u64::from(bad.is_some());
            assert_eq!(failures, [0, failed, 0, 0], "{bad:?}");
        }
    }

    /// Under the default plan and policy a round whose every node
    /// reported would take the exact path; one all-NaN update sends it
    /// down the gather path instead: the global stays finite, the round
    /// is degraded, and the node that sent it fails.
    #[test]
    fn a_nan_update_under_the_default_policy_is_gathered_out() {
        let (model, tasks, theta0) = fixture(4);
        let (cfg, stepper) = (RuntimeConfig::barrier(4), fedml(1));
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        let round = core.open_round().unwrap();
        core.broadcast(|_| true);
        for node in 0..4 {
            let mut params = local(&theta0, node);
            if node == 1 {
                params.fill(f64::NAN);
            }
            core.offer(&update(round, node, &params), Instant::now());
        }
        assert!(close(&mut core));
        assert!(core.global.iter().all(|x| x.is_finite()));
        let (out, report) = core.finish();
        let record = &out.history[0];
        assert_eq!(
            (record.aggregated, record.reporters, record.degraded),
            (true, 3, true)
        );
        let failures: Vec<u64> = report.node_health.iter().map(|h| h.failures).collect();
        assert_eq!(failures, [0, 1, 0, 0]);
    }

    #[test]
    fn a_quorum_loss_rolls_back_and_reruns_the_same_round() {
        let (model, tasks, theta0) = fixture(4);
        let cfg =
            RuntimeConfig::barrier(2).with_gather(GatherPolicy::default().with_min_quorum(0.75));
        let stepper = fedml(2);
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        let t = Instant::now();
        // Two of four reporters miss a 0.75 quorum: node 2's update is
        // NaN, node 3 is silent, and both are blamed.
        let round = core.open_round().unwrap();
        core.broadcast(|_| true);
        for node in [0, 1] {
            core.offer(&update(round, node, &local(&theta0, node)), t);
        }
        core.offer(&update(round, 2, &vec![f64::NAN; theta0.len()]), t);
        assert!(!close(&mut core));
        assert_eq!(core.global, theta0, "rolled back");
        assert_eq!((core.report.rollbacks, core.report.recoveries), (1, 1));
        assert_eq!(core.report.excluded_nodes, vec![2, 3]);
        // The same round again, over the surviving pair only.
        assert_eq!(run_round(&mut core, &[0, 1], t), (1, true));
        assert_ne!(core.global, theta0);
        assert_eq!(run_round(&mut core, &[0, 1], t), (2, true));
        assert_eq!(core.open_round(), None);
        let (out, report) = core.finish();
        assert_eq!(out.history.len(), 2);
        assert!(
            out.history[0].degraded,
            "a rolled-back round stays degraded"
        );
        assert_eq!(report.trace.rounds()[0].participants, vec![0, 1]);
        assert_eq!(report.excluded_nodes, vec![2, 3]);
    }

    #[test]
    fn a_fleet_quarantined_whole_degrades_instead_of_panicking() {
        let (model, tasks, theta0) = fixture(3);
        let (cfg, stepper) = (RuntimeConfig::barrier(7), fedml(8));
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        let t = Instant::now();
        // Nobody ever reports: five silent rounds quarantine the whole
        // fleet, so rounds 6 and 7 have nobody to gather; round 8 has
        // the fleet back on probation, still silent.
        for round in 1..=8 {
            assert_eq!(run_round(&mut core, &[], t), (round, true));
            assert_eq!(core.global, theta0, "round {round} keeps the global");
        }
        assert_eq!(core.open_round(), None);
        let (out, report) = core.finish();
        assert_eq!(out.comm_rounds, 0);
        assert!(out
            .history
            .iter()
            .all(|r| !r.aggregated && r.reporters == 0 && r.degraded));
        assert_eq!(report.degraded_rounds, 8);
        assert_eq!(report.trace.rounds()[5].participants, Vec::<usize>::new());
        // Readmitted in round 8 and silent again: back in quarantine.
        for h in &report.node_health {
            let states: Vec<&str> = h.transitions.iter().map(|t| t.to).collect();
            assert_eq!(
                states,
                ["suspect", "quarantined", "probation", "quarantined"]
            );
        }
    }

    /// A node the driver leaves out of its rounds is not sent the
    /// broadcast, is no drop, is not in the quorum and keeps its health:
    /// six rounds of a 0.75 quorum over two of four nodes close cleanly.
    #[test]
    fn an_unselected_node_is_no_drop_no_quorum_member_and_no_health_failure() {
        let (model, tasks, theta0) = fixture(4);
        let cfg =
            RuntimeConfig::barrier(2).with_gather(GatherPolicy::default().with_min_quorum(0.75));
        let stepper = fedml(6);
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        core.select(&[0, 2]);
        let t = Instant::now();
        for round in 1..=6 {
            assert_eq!(run_round(&mut core, &[0, 2], t), (round, true));
        }
        let (out, report) = core.finish();
        assert_eq!((report.undelivered, report.rollbacks), (0, 0));
        assert!(out
            .history
            .iter()
            .all(|r| r.aggregated && !r.degraded && r.reporters == 2));
        let rows = report.trace.rounds();
        assert!(rows.iter().all(|r| r.participants == [0, 2]));
        for h in &report.node_health {
            assert_eq!((h.failures, h.transitions.len()), (0, 0), "node {}", h.node);
        }
    }

    #[test]
    fn an_async_update_staler_than_the_bound_is_rejected_and_counted() {
        let (model, tasks, theta0) = fixture(3);
        // Every upload arrives two virtual rounds after its broadcast.
        let cfg = RuntimeConfig::async_mode(3, AsyncPolicy::default().with_max_staleness(1))
            .with_clock(VirtualClock::new(3).with_base_delay(2.0));
        let stepper = fedml(3);
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        let t = Instant::now();
        assert_eq!(run_round(&mut core, &[0, 1, 2], t), (1, true));
        assert_eq!(run_round(&mut core, &[], t), (2, true));
        assert_eq!(core.report.rejected_stale, 0, "still in virtual flight");
        assert_eq!(run_round(&mut core, &[], t), (3, true));
        assert_eq!(core.report.rejected_stale, 3);
        assert_eq!(core.global, theta0, "nothing folded");
        let (out, report) = core.finish();
        assert!(report.staleness_hist.is_empty());
        assert_eq!(out.comm_rounds, 0);
        assert_eq!(out.params, theta0);
    }

    /// Each upload's delay is the driver's, and an async close folds by
    /// it alone: delays in reverse node order fold in reverse order, a
    /// delay of a whole round lands a round late, at staleness 1, and a
    /// non-finite one never lands and is counted undelivered at the end.
    #[test]
    fn async_uploads_fold_by_the_delays_the_driver_passes() {
        let (model, tasks, theta0) = fixture(2);
        let policy = AsyncPolicy::default();
        let cfg = RuntimeConfig::async_mode(1, policy);
        let stepper = fedml(3);
        let mut core = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        let t = Instant::now();
        let round_with = |core: &mut Core, delays: [f64; 2]| {
            let round = core.open_round().expect("a round left");
            core.broadcast(|_| true);
            core.evaluate_parked();
            for node in 0..2 {
                core.offer(&update(round, node, &local(&core.global, node)), t);
            }
            assert!(core.close_round(|node| delays[node]));
        };

        round_with(&mut core, [0.2, 0.1]);
        let mix = |g: &[f64], node: usize| {
            let w = policy.weight(tasks[node].weight, 2, 0);
            let u = local(&theta0, node);
            g.iter()
                .zip(&u)
                .map(|(g, u)| (1.0 - w) * g + w * u)
                .collect::<Vec<_>>()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let reverse = mix(&mix(&theta0, 1), 0);
        assert_eq!(bits(&core.global), bits(&reverse));
        assert_ne!(bits(&reverse), bits(&mix(&mix(&theta0, 0), 1)));

        // Node 0's upload takes the whole round; node 1's never arrives.
        round_with(&mut core, [cfg.round_duration_s, f64::NAN]);
        assert_eq!(bits(&core.global), bits(&reverse), "nothing due");
        round_with(&mut core, [f64::INFINITY, f64::INFINITY]);
        let (out, report) = core.finish();
        let reporters: Vec<usize> = out.history.iter().map(|r| r.reporters).collect();
        assert_eq!(reporters, [2, 0, 1]);
        assert_eq!(report.staleness_hist, [2, 1]);
        assert_eq!(report.undelivered, 3, "round 2's node 1, round 3's both");
    }

    #[test]
    fn a_checkpoint_from_another_fleet_size_is_a_fresh_start() {
        let (model, tasks, theta0) = fixture(3);
        let (cfg, stepper) = (RuntimeConfig::barrier(6), fedml(4));
        let saved = |nodes: usize| {
            Checkpoint::new(stepper.algorithm(), vec![0.5; theta0.len()])
                .with_meta("round", "2")
                .with_meta("mode", "barrier")
                .with_meta("recoveries", "1")
                .with_meta("health", HealthTracker::new(nodes).to_meta())
        };
        let mut other = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        other.resume(saved(4));
        assert_eq!(
            (other.done, other.recoveries, other.report.resumed_at_round),
            (0, 0, None)
        );
        assert_eq!(other.global, theta0);
        assert_eq!(other.open_round(), Some(1));

        let mut same = Core::new(&cfg, &stepper, &model, &tasks, &theta0);
        same.resume(saved(3));
        assert_eq!(
            (same.done, same.recoveries, same.report.resumed_at_round),
            (2, 1, Some(3))
        );
        assert_eq!(same.global, vec![0.5; theta0.len()]);
        assert_eq!(same.open_round(), Some(3));
    }

    /// Runs `stepper`'s schedule on a fresh core, resumed from `from`
    /// when given, every node reporting its [`local`] update each round
    /// but the `(round, node)` in `corrupt`, which reports NaNs. Returns
    /// the final global and each checkpoint written, with its round.
    fn run_resumable(
        cfg: &RuntimeConfig,
        stepper: &FedMl,
        from: Option<Checkpoint>,
        corrupt: Option<(usize, usize)>,
    ) -> (Vec<f64>, Vec<(usize, Checkpoint)>) {
        let (model, tasks, theta0) = fixture(3);
        let mut core = Core::new(cfg, stepper, &model, &tasks, &theta0);
        if let Some(ck) = from {
            core.resume(ck);
        }
        let mut written = Vec::new();
        while let Some(round) = core.open_round() {
            core.broadcast(|_| true);
            core.evaluate_parked();
            for node in 0..tasks.len() {
                let mut params = local(&core.global, node);
                if corrupt == Some((round, node)) {
                    params.fill(f64::NAN);
                }
                core.offer(&update(round, node, &params), Instant::now());
            }
            assert!(close(&mut core));
            written.extend(core.checkpoint().map(|ck| (round, ck)));
        }
        (core.finish().0.params, written)
    }

    /// An async run killed after any round and resumed from the last
    /// checkpoint written lands on the uninterrupted run's global, bit
    /// for bit: under a semi-async buffer, under adaptive mixing after a
    /// rejected update, and with uploads in virtual flight. A mid-run
    /// checkpoint is written only at a round that leaves the fold
    /// settled; the final round always is.
    #[test]
    fn an_async_run_resumed_after_any_round_is_the_uninterrupted_run() {
        let stepper = fedml(4);
        let buffered = AsyncPolicy {
            buffer_k: 2,
            ..AsyncPolicy::default()
        };
        let adaptive = AsyncPolicy {
            adaptive_mix: true,
            ..AsyncPolicy::default()
        };
        let async_mode = |policy| RuntimeConfig::async_mode(5, policy).with_checkpoint_dir("ck");
        let in_flight =
            async_mode(AsyncPolicy::default()).with_clock(VirtualClock::new(5).with_jitter(1.5));
        for (cfg, corrupt, rounds) in [
            // Three arrivals a round leave one buffered every other round.
            (async_mode(buffered), None, vec![2, 4]),
            (async_mode(adaptive), Some((3, 1)), vec![1, 2, 4]),
            (in_flight, None, vec![1, 2, 4]),
        ] {
            let (want, written) = run_resumable(&cfg, &stepper, None, corrupt);
            let at: Vec<usize> = written.iter().map(|(round, _)| *round).collect();
            assert_eq!(at, rounds, "{:?}", cfg.mode);
            for killed in 1..=4 {
                let last = written.iter().rev().find(|(round, _)| *round <= killed);
                let from = last.map(|(_, ck)| ck.clone());
                let (got, _) = run_resumable(&cfg, &stepper, from, corrupt);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{:?}, killed after round {killed}",
                    cfg.mode
                );
            }
        }
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
            (1.0, 0.0),               // zero round duration
            (1.0, -1.0),              // negative round duration
            (1.0, f64::MIN_POSITIVE), // subnormal-adjacent: quotient overflows
            (1.0, 5e-324),            // subnormal round duration
            (f64::INFINITY, 1.0),     // non-finite arrival time
            (f64::NAN, 1.0),
            (f64::NEG_INFINITY, 1.0),
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
            (-3.0, 1.0),     // negative virtual time
            (f64::MAX, 1.0), // quotient exceeds usize range
        ] {
            assert_eq!(
                virtual_arrival_round(t, round_s, 2, last),
                last + 1,
                "t={t} round_s={round_s}"
            );
        }
    }
}
