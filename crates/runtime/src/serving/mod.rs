//! The target-node adaptation service: the paper's "real-time edge
//! intelligence" loop as a long-lived server.
//!
//! After federated meta-training, the platform holds an initialization
//! `θ_c` that a *target* node personalizes with a few gradient steps on
//! its `K` local samples (eq. 6). [`AdaptServer`] serves exactly that:
//! it owns the current global — loaded from a checkpoint or hot-swapped
//! live by a co-resident training platform through [`SharedGlobal`] —
//! and answers [`fml_sim::AdaptRequest`] frames over any
//! [`Transport`](crate::transport::Transport), with replies computed by
//! [`fml_core::adapt::adapt_into`] so served parameters are bitwise
//! identical to the offline `fml_core::adapt::adapt` on the same
//! global.
//!
//! # Request lifecycle
//!
//! ```text
//!          accept            parse + budget check       bounded queue
//! client ────────▶ acceptor ─────▶ conn thread ────────▶ worker pool
//!                  (1 thread)      (1 per link)  try_send   (N threads)
//!                                       │ full → Busy          │
//!                                       ▼                      ▼
//!                                  AdaptReject     adapt_into + pooled encode
//!                                                        │
//! client ◀───────────── shared writer handle ◀───────────┘
//! ```
//!
//! # Overload and shedding policy
//!
//! The accept loop never computes and the conn threads never block on
//! the queue: a full queue sheds the request *immediately* with a typed
//! [`RejectReason::Busy`] frame, and a request that waited in the queue
//! past the configured deadline is shed by the worker that dequeues it
//! instead of being computed late. Budget violations (`k` or `steps`
//! over the cap, wrong feature dimension, unusable labels — malformed,
//! of the wrong kind for the served model, or outside its classes) are
//! [`RejectReason::BadRequest`]; serving before any global exists is
//! [`RejectReason::Unavailable`]. Every reply — success or reject —
//! carries the request's `req_id`, so concurrent clients multiplexing
//! one link can correlate.
//!
//! # Hot-swap semantics
//!
//! [`SharedGlobal`] is a cloneable handle to an `RwLock`-guarded
//! snapshot. A training platform built with
//! [`Runtime::with_publisher`](crate::Runtime::with_publisher) swaps in
//! the new global after every completed round; each request reads the
//! snapshot once at compute time, so an in-flight adaptation keeps the
//! parameters it started with and the next request sees the new round.
//! [`ServingReport::served_rounds`] records which round served each
//! reply — the audit trail of the swap.

mod client;
mod report;

pub use client::{AdaptClient, AdaptOutcome};
pub use report::{LatencyReport, PoolRound, RoundServed, ServingReport, LATENCY_BUCKETS};

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fml_core::adapt::{adapt_into, AdaptScratch};
use fml_core::checkpoint::{Checkpoint, CheckpointError};
use fml_linalg::Matrix;
use fml_models::{Batch, Model, Prediction, Target};
use fml_sim::message::{
    encode_adapt_reject_into, encode_adapt_response_into, encoded_frame_len, AdaptFrame,
    AdaptRequest, AdaptRequestView,
};
use fml_sim::{FramePool, RejectReason, SampleKind};

use crate::report::PoolStatsReport;
use crate::transport::{Transport, TransportListener};
use report::{LatencyRecorder, PoolRoundTracker, RoundTally};

/// Idle-poll granularity for the accept loop, conn-thread reads, and
/// worker dequeues: how quickly the server notices a shutdown request.
const SERVE_TICK: Duration = Duration::from_millis(50);

/// Knobs for the adaptation service's worker pool and per-request
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Worker threads running the adaptation compute.
    pub workers: usize,
    /// Bounded request-queue depth; a full queue sheds with Busy.
    pub queue_depth: usize,
    /// Largest support-set size `K` a request may carry.
    pub max_k: usize,
    /// Largest number of gradient steps a request may ask for.
    pub max_steps: u32,
    /// Requests that waited in the queue longer than this are shed
    /// (Busy) instead of computed late.
    pub queue_deadline_ms: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: 2,
            queue_depth: 64,
            max_k: 4096,
            max_steps: 1024,
            queue_deadline_ms: 2_000,
        }
    }
}

impl ServingConfig {
    /// Sets the worker-thread count (clamped to at least 1 at start).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded queue depth (clamped to at least 1 at start).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the per-request support-set budget.
    #[must_use]
    pub fn with_max_k(mut self, max_k: usize) -> Self {
        self.max_k = max_k;
        self
    }

    /// Sets the per-request gradient-step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u32) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the queue-wait deadline in milliseconds.
    #[must_use]
    pub fn with_queue_deadline_ms(mut self, ms: u64) -> Self {
        self.queue_deadline_ms = ms;
        self
    }
}

/// One published global: the round it came from and the parameters,
/// refcounted so every in-flight request shares one allocation.
#[derive(Debug, Clone)]
pub struct GlobalSnapshot {
    /// Training round that produced these parameters (0 = initial).
    pub round: u32,
    /// The meta-trained global `θ_c`.
    pub params: Arc<Vec<f64>>,
}

/// Cloneable handle to the served global: the hand-off point between a
/// training platform (writer) and an [`AdaptServer`] (readers).
///
/// Starts empty — a server holding an empty handle rejects with
/// [`RejectReason::Unavailable`] until the first
/// [`publish`](SharedGlobal::publish).
#[derive(Debug, Clone, Default)]
pub struct SharedGlobal {
    inner: Arc<RwLock<Option<GlobalSnapshot>>>,
}

impl SharedGlobal {
    /// A handle holding no global yet.
    pub fn new() -> Self {
        SharedGlobal::default()
    }

    /// Swaps in a new global. A short write-lock critical section;
    /// requests already holding the previous snapshot are unaffected.
    pub fn publish(&self, round: u32, params: &[f64]) {
        let snap = GlobalSnapshot {
            round,
            params: Arc::new(params.to_vec()),
        };
        *self.inner.write().expect("shared global poisoned") = Some(snap);
    }

    /// The current global, if any has been published.
    pub fn snapshot(&self) -> Option<GlobalSnapshot> {
        self.inner.read().expect("shared global poisoned").clone()
    }

    /// Round of the current global, if any.
    pub fn round(&self) -> Option<u32> {
        self.snapshot().map(|s| s.round)
    }

    /// Loads the platform's `latest.json` from a checkpoint directory
    /// and publishes it (round taken from the checkpoint's `round`
    /// metadata, 0 when absent). Returns the handle and the checkpoint
    /// itself so callers can validate algorithm/shape.
    ///
    /// # Errors
    ///
    /// Whatever [`Checkpoint::load`] reports: missing file, unreadable
    /// JSON, or a checkpoint schema this build cannot understand.
    pub fn from_checkpoint(dir: &Path) -> Result<(Self, Checkpoint), CheckpointError> {
        let ck = Checkpoint::load(dir.join(crate::platform::CHECKPOINT_FILE))?;
        let round = ck
            .meta
            .get("round")
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(0);
        let shared = SharedGlobal::new();
        shared.publish(round, &ck.params);
        Ok((shared, ck))
    }
}

/// Builds the support [`Batch`] an adaptation request describes.
/// Returns `None` when the labels are unusable: non-integral or
/// negative class indices, or non-finite regression targets.
pub fn batch_from_request(view: &AdaptRequestView<'_>) -> Option<Batch> {
    let k = view.k() as usize;
    let dim = view.dim() as usize;
    let xs = Matrix::from_vec(k, dim, view.xs_iter().collect()).ok()?;
    match view.kind() {
        SampleKind::Class => {
            let mut labels = Vec::with_capacity(k);
            for y in view.ys_iter() {
                if y.is_finite() && y >= 0.0 && y.fract() == 0.0 && y <= u32::MAX as f64 {
                    labels.push(y as usize);
                } else {
                    return None;
                }
            }
            Batch::classification(xs, labels).ok()
        }
        SampleKind::Value => {
            let values: Vec<f64> = view.ys_iter().collect();
            if values.iter().any(|v| !v.is_finite()) {
                return None;
            }
            Batch::regression(xs, values).ok()
        }
    }
}

/// Flattens a support batch into an [`AdaptRequest`] — the client-side
/// inverse of [`batch_from_request`]. Sample kind follows the batch's
/// targets (a batch with any regression target becomes a value
/// request).
pub fn request_from_batch(
    req_id: u32,
    node: u32,
    alpha: f64,
    steps: u32,
    batch: &Batch,
) -> AdaptRequest {
    let mut kind = SampleKind::Class;
    let ys: Vec<f64> = batch
        .targets()
        .iter()
        .map(|t| match t {
            Target::Class(c) => *c as f64,
            Target::Value(v) => {
                kind = SampleKind::Value;
                *v
            }
        })
        .collect();
    AdaptRequest {
        req_id,
        node,
        alpha,
        steps,
        dim: batch.dim() as u32,
        kind,
        xs: batch.features().as_slice().to_vec(),
        ys,
    }
}

/// Atomic counters shared by every server thread.
#[derive(Debug)]
struct Stats {
    requests: AtomicU64,
    responses: AtomicU64,
    shed_busy: AtomicU64,
    rejected_unavailable: AtomicU64,
    rejected_bad: AtomicU64,
    decode_errors: AtomicU64,
    dropped_replies: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    latency: LatencyRecorder,
    served_rounds: RoundTally,
    pool_rounds: PoolRoundTracker,
}

impl Stats {
    fn new() -> Self {
        Stats {
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            shed_busy: AtomicU64::new(0),
            rejected_unavailable: AtomicU64::new(0),
            rejected_bad: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            dropped_replies: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            latency: LatencyRecorder::new(),
            served_rounds: RoundTally::default(),
            pool_rounds: PoolRoundTracker::default(),
        }
    }
}

/// Everything the acceptor, conn threads, and workers share.
struct ServerState {
    model: Arc<dyn Model>,
    /// Class count of a served classifier, `None` for a regressor.
    classes: Option<usize>,
    global: SharedGlobal,
    cfg: ServingConfig,
    transport: &'static str,
    shutdown: AtomicBool,
    started: Instant,
    stats: Stats,
}

/// One accepted request in flight to the worker pool. The encoded
/// frame rides along (refcounted, zero-copy); the worker re-parses the
/// already-validated view in place.
struct Job {
    frame: Bytes,
    writer: SharedWriter,
    received: Instant,
}

/// The write half of one client link, shared between that link's conn
/// thread (for immediate rejects) and every worker (for replies).
type SharedWriter = Arc<Mutex<Box<dyn Transport>>>;

/// The long-lived adaptation service. Start it on any
/// [`TransportListener`]; shut it down to collect the final
/// [`ServingReport`].
pub struct AdaptServer {
    state: Arc<ServerState>,
    addr: String,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for AdaptServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptServer")
            .field("addr", &self.addr)
            .field("workers", &self.state.cfg.workers)
            .finish_non_exhaustive()
    }
}

impl AdaptServer {
    /// Starts the service: one acceptor thread on `listener`, one conn
    /// thread per accepted link, and a bounded pool of `cfg.workers`
    /// adaptation workers (at least 1) over a `cfg.queue_depth`-bounded
    /// queue (at least 1).
    pub fn start(
        listener: Box<dyn TransportListener>,
        model: Arc<dyn Model>,
        global: SharedGlobal,
        cfg: ServingConfig,
    ) -> AdaptServer {
        let addr = listener.local_addr();
        // The model's kernels panic on a label they cannot train on, so
        // learn what it accepts from one prediction.
        let probe = model.predict(&vec![0.0; model.param_len()], &vec![0.0; model.input_dim()]);
        let classes = match probe {
            Prediction::Class { probs, .. } => Some(probs.len()),
            Prediction::Value(_) => None,
        };
        let state = Arc::new(ServerState {
            model,
            classes,
            global,
            cfg,
            transport: listener.kind(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            stats: Stats::new(),
        });
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(cfg.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&state, &rx))
            })
            .collect();
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let state = Arc::clone(&state);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || acceptor_loop(&state, listener, &tx, &conns))
        };
        AdaptServer {
            state,
            addr,
            acceptor: Some(acceptor),
            workers,
            conns,
        }
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// The global hand-off handle this server reads from.
    pub fn global(&self) -> &SharedGlobal {
        &self.state.global
    }

    /// Live report snapshot: callable while the server keeps running.
    pub fn report(&self) -> ServingReport {
        let stats = &self.state.stats;
        let elapsed_s = self.state.started.elapsed().as_secs_f64();
        let responses = stats.responses.load(Ordering::Relaxed);
        let pool_now = FramePool::global().stats();
        ServingReport {
            transport: self.state.transport.into(),
            workers: self.state.cfg.workers.max(1),
            requests: stats.requests.load(Ordering::Relaxed),
            responses,
            shed_busy: stats.shed_busy.load(Ordering::Relaxed),
            rejected_unavailable: stats.rejected_unavailable.load(Ordering::Relaxed),
            rejected_bad: stats.rejected_bad.load(Ordering::Relaxed),
            decode_errors: stats.decode_errors.load(Ordering::Relaxed),
            dropped_replies: stats.dropped_replies.load(Ordering::Relaxed),
            bytes_in: stats.bytes_in.load(Ordering::Relaxed),
            bytes_out: stats.bytes_out.load(Ordering::Relaxed),
            elapsed_s,
            qps: if elapsed_s > 0.0 {
                responses as f64 / elapsed_s
            } else {
                0.0
            },
            latency: stats.latency.snapshot(),
            served_rounds: stats.served_rounds.snapshot(),
            pool_rounds: stats
                .pool_rounds
                .snapshot(pool_now.hits as u64, pool_now.misses as u64),
            pool: PoolStatsReport::from(pool_now),
        }
    }

    /// Stops accepting, drains the queue, joins every thread, and
    /// returns the final report. Connected clients observe EOF.
    pub fn shutdown(mut self) -> ServingReport {
        self.stop();
        self.report()
    }

    fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn registry poisoned"));
        for h in conns {
            let _ = h.join();
        }
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
    }
}

impl Drop for AdaptServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accepts links until shutdown; each link gets its own conn thread
/// holding the read half, so a slow or dead client never stalls the
/// accept loop.
fn acceptor_loop(
    state: &Arc<ServerState>,
    mut listener: Box<dyn TransportListener>,
    tx: &SyncSender<Job>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept(SERVE_TICK) {
            Ok(link) => {
                let state = Arc::clone(state);
                let tx = tx.clone();
                let handle = std::thread::spawn(move || connection_loop(&state, link, &tx));
                conns.lock().expect("conn registry poisoned").push(handle);
            }
            Err(e) if e.is_fatal() => return,
            Err(_) => {} // accept timeout: poll shutdown and retry
        }
    }
}

/// Reads frames off one client link: parses, enforces the per-request
/// budget, and forwards work to the bounded queue — shedding with a
/// typed Busy reject the instant the queue is full.
fn connection_loop(state: &Arc<ServerState>, mut link: Box<dyn Transport>, tx: &SyncSender<Job>) {
    let Ok(writer) = link.try_clone() else {
        return;
    };
    let writer: SharedWriter = Arc::new(Mutex::new(writer));
    let pool = FramePool::global().handle();
    let stats = &state.stats;
    while !state.shutdown.load(Ordering::SeqCst) {
        let frame = match link.recv_frame(SERVE_TICK) {
            Ok(frame) => frame,
            Err(e) if e.is_fatal() => return,
            Err(_) => continue,
        };
        stats.bytes_in.fetch_add(frame.len() as u64, Ordering::Relaxed);
        match AdaptFrame::parse(&frame) {
            Ok(AdaptFrame::Request(view)) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                let req_id = view.req_id();
                let over_budget = view.k() as usize > state.cfg.max_k
                    || view.steps() > state.cfg.max_steps
                    || view.dim() as usize != state.model.input_dim();
                if over_budget {
                    stats.rejected_bad.fetch_add(1, Ordering::Relaxed);
                    send_reject(state, &pool, &writer, req_id, RejectReason::BadRequest);
                    pool.recycle(frame);
                    continue;
                }
                match tx.try_send(Job {
                    frame,
                    writer: Arc::clone(&writer),
                    received: Instant::now(),
                }) {
                    Ok(()) => {}
                    Err(TrySendError::Full(job)) => {
                        stats.shed_busy.fetch_add(1, Ordering::Relaxed);
                        send_reject(state, &pool, &writer, req_id, RejectReason::Busy);
                        pool.recycle(job.frame);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            // A response or reject sent *to* the server: well-formed,
            // but nothing a server consumes. Refuse it by id.
            Ok(AdaptFrame::Response(view)) => {
                stats.rejected_bad.fetch_add(1, Ordering::Relaxed);
                send_reject(state, &pool, &writer, view.req_id(), RejectReason::BadRequest);
                pool.recycle(frame);
            }
            Ok(AdaptFrame::Reject(r)) => {
                stats.rejected_bad.fetch_add(1, Ordering::Relaxed);
                send_reject(state, &pool, &writer, r.req_id, RejectReason::BadRequest);
                pool.recycle(frame);
            }
            Err(_) => {
                // Not an adaptation frame at all (garbage or a training
                // frame): uncorrelatable, so no reply.
                stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                pool.recycle(frame);
            }
        }
    }
}

/// Encodes and sends a typed reject through the link's shared writer.
fn send_reject(
    state: &ServerState,
    pool: &FramePool,
    writer: &SharedWriter,
    req_id: u32,
    reason: RejectReason,
) {
    let mut buf = pool.acquire(encoded_frame_len(0));
    encode_adapt_reject_into(req_id, reason, &mut buf);
    let frame = buf.freeze();
    let sent = writer
        .lock()
        .expect("writer poisoned")
        .send_frame(&frame)
        .is_ok();
    if sent {
        state
            .stats
            .bytes_out
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
    } else {
        state.stats.dropped_replies.fetch_add(1, Ordering::Relaxed);
    }
    pool.recycle(frame);
}

/// One adaptation worker: dequeues jobs, enforces the queue-wait
/// deadline, runs the workspace-reusing adapt kernel, and replies
/// through the requesting link's writer. Per-worker scratch makes the
/// steady-state hot path allocation-flat.
fn worker_loop(state: &Arc<ServerState>, rx: &Arc<Mutex<Receiver<Job>>>) {
    let model = state.model.as_ref();
    let mut scratch = AdaptScratch::for_model(model);
    let mut phi = Vec::with_capacity(model.param_len());
    let pool = FramePool::global().handle();
    let deadline = Duration::from_millis(state.cfg.queue_deadline_ms);
    loop {
        let job = {
            let guard = rx.lock().expect("job queue poisoned");
            guard.recv_timeout(SERVE_TICK)
        };
        let job = match job {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            // Every sender (acceptor + conn threads) is gone and the
            // queue is drained.
            Err(RecvTimeoutError::Disconnected) => return,
        };
        handle_job(state, &pool, &mut scratch, &mut phi, deadline, job);
    }
}

fn handle_job(
    state: &ServerState,
    pool: &FramePool,
    scratch: &mut AdaptScratch,
    phi: &mut Vec<f64>,
    deadline: Duration,
    job: Job,
) {
    let stats = &state.stats;
    // The conn thread only queues frames it already parsed as requests,
    // so this re-parse of the refcounted bytes cannot fail.
    let Ok(AdaptFrame::Request(view)) = AdaptFrame::parse(&job.frame) else {
        stats.decode_errors.fetch_add(1, Ordering::Relaxed);
        pool.recycle(job.frame);
        return;
    };
    let req_id = view.req_id();
    if job.received.elapsed() > deadline {
        // Too stale to be worth computing: the client has likely timed
        // out or retried already.
        stats.shed_busy.fetch_add(1, Ordering::Relaxed);
        send_reject(state, pool, &job.writer, req_id, RejectReason::Busy);
        pool.recycle(job.frame);
        return;
    }
    let snapshot = state.global.snapshot();
    let usable = snapshot
        .as_ref()
        .is_some_and(|s| s.params.len() == state.model.param_len());
    let Some(snap) = snapshot.filter(|_| usable) else {
        stats.rejected_unavailable.fetch_add(1, Ordering::Relaxed);
        send_reject(state, pool, &job.writer, req_id, RejectReason::Unavailable);
        pool.recycle(job.frame);
        return;
    };
    let fits_model = |t: &Target| match (t, state.classes) {
        (Target::Class(c), Some(n)) => *c < n,
        (Target::Value(_), None) => true,
        _ => false,
    };
    let Some(batch) = batch_from_request(&view).filter(|b| b.targets().iter().all(fits_model))
    else {
        stats.rejected_bad.fetch_add(1, Ordering::Relaxed);
        send_reject(state, pool, &job.writer, req_id, RejectReason::BadRequest);
        pool.recycle(job.frame);
        return;
    };
    // Open (or continue) this round's pool window *before* the reply
    // touches the pool, so the window boundary sits between rounds and
    // each round's delta is exactly its own traffic.
    let ps = FramePool::global().stats();
    stats
        .pool_rounds
        .observe(snap.round, ps.hits as u64, ps.misses as u64);
    adapt_into(
        state.model.as_ref(),
        &snap.params,
        &batch,
        view.alpha(),
        view.steps() as usize,
        scratch,
        phi,
    );
    let mut buf = pool.acquire(encoded_frame_len(phi.len()));
    encode_adapt_response_into(req_id, snap.round, phi, &mut buf);
    let reply = buf.freeze();
    let sent = job
        .writer
        .lock()
        .expect("writer poisoned")
        .send_frame(&reply)
        .is_ok();
    if sent {
        stats.responses.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_out
            .fetch_add(reply.len() as u64, Ordering::Relaxed);
        stats.served_rounds.bump(snap.round);
        let us = u64::try_from(job.received.elapsed().as_micros()).unwrap_or(u64::MAX);
        stats.latency.record(us);
    } else {
        stats.dropped_replies.fetch_add(1, Ordering::Relaxed);
    }
    pool.recycle(reply);
    pool.recycle(job.frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use fml_models::SoftmaxRegression;

    fn test_model() -> Arc<dyn Model> {
        Arc::new(SoftmaxRegression::new(2, 2))
    }

    fn class_batch() -> Batch {
        let xs = Matrix::from_vec(4, 2, vec![1.0, 0.1, -1.0, 0.2, 1.1, -0.1, -0.9, 0.0]).unwrap();
        Batch::classification(xs, vec![0, 1, 0, 1]).unwrap()
    }

    /// A listener that accepts exactly the channel links handed to it.
    struct StubListener {
        pending: std::sync::mpsc::Receiver<Box<dyn Transport>>,
    }

    fn channel_listener() -> (StubListener, std::sync::mpsc::Sender<Box<dyn Transport>>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (StubListener { pending: rx }, tx)
    }

    impl TransportListener for StubListener {
        fn accept(
            &mut self,
            timeout: Duration,
        ) -> Result<Box<dyn Transport>, crate::transport::TransportError> {
            self.pending
                .recv_timeout(timeout)
                .map_err(|_| crate::transport::TransportError::Timeout)
        }

        fn local_addr(&self) -> String {
            "stub".into()
        }

        fn kind(&self) -> &'static str {
            "channel"
        }
    }

    fn connect(accept_tx: &std::sync::mpsc::Sender<Box<dyn Transport>>) -> AdaptClient {
        let (server_end, client_end) = ChannelTransport::pair(64);
        accept_tx.send(Box::new(server_end)).unwrap();
        AdaptClient::new(Box::new(client_end))
    }

    #[test]
    fn serves_bitwise_identical_to_offline_adapt() {
        let model = test_model();
        let global = SharedGlobal::new();
        let theta: Vec<f64> = (0..model.param_len()).map(|i| 0.1 * i as f64).collect();
        global.publish(5, &theta);
        let (listener, accept_tx) = channel_listener();
        let server = AdaptServer::start(
            Box::new(listener),
            Arc::clone(&model),
            global,
            ServingConfig::default(),
        );
        let mut client = connect(&accept_tx);
        let batch = class_batch();
        let req = request_from_batch(1, 0, 0.05, 3, &batch);
        let outcome = client.request(&req, Duration::from_secs(5)).unwrap();
        let AdaptOutcome::Adapted {
            global_round,
            params,
        } = outcome
        else {
            panic!("expected adapted params, got {outcome:?}");
        };
        assert_eq!(global_round, 5);
        let offline = fml_core::adapt::adapt(model.as_ref(), &theta, &batch, 0.05, 3);
        assert_eq!(
            params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            offline.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "served adaptation must be bitwise-identical to offline adapt"
        );
        let report = server.shutdown();
        assert_eq!(report.responses, 1);
        assert_eq!(report.served_rounds, vec![RoundServed { round: 5, count: 1 }]);
        assert_eq!(report.rejected_total(), 0);
    }

    #[test]
    fn empty_global_rejects_unavailable_until_published() {
        let model = test_model();
        let global = SharedGlobal::new();
        let (listener, accept_tx) = channel_listener();
        let server = AdaptServer::start(
            Box::new(listener),
            Arc::clone(&model),
            global.clone(),
            ServingConfig::default(),
        );
        let mut client = connect(&accept_tx);
        let req = request_from_batch(9, 0, 0.1, 1, &class_batch());
        let outcome = client.request(&req, Duration::from_secs(5)).unwrap();
        assert_eq!(outcome, AdaptOutcome::Rejected(RejectReason::Unavailable));

        // Hot-swap: publishing makes the very next request succeed.
        global.publish(1, &vec![0.0; model.param_len()]);
        let outcome = client.request(&req, Duration::from_secs(5)).unwrap();
        assert!(matches!(
            outcome,
            AdaptOutcome::Adapted { global_round: 1, .. }
        ));
        let report = server.shutdown();
        assert_eq!(report.rejected_unavailable, 1);
        assert_eq!(report.responses, 1);
    }

    #[test]
    fn budget_violations_reject_bad_request() {
        let model = test_model();
        let global = SharedGlobal::new();
        global.publish(1, &vec![0.0; model.param_len()]);
        let cfg = ServingConfig::default().with_max_k(4).with_max_steps(8);
        let (listener, accept_tx) = channel_listener();
        let server = AdaptServer::start(Box::new(listener), model, global, cfg);
        let mut client = connect(&accept_tx);
        let batch = class_batch();

        // steps over budget
        let req = request_from_batch(1, 0, 0.1, 9, &batch);
        assert_eq!(
            client.request(&req, Duration::from_secs(5)).unwrap(),
            AdaptOutcome::Rejected(RejectReason::BadRequest)
        );
        // wrong feature dimension
        let xs = Matrix::from_vec(2, 3, vec![0.0; 6]).unwrap();
        let wide = Batch::classification(xs, vec![0, 1]).unwrap();
        let req = request_from_batch(2, 0, 0.1, 1, &wide);
        assert_eq!(
            client.request(&req, Duration::from_secs(5)).unwrap(),
            AdaptOutcome::Rejected(RejectReason::BadRequest)
        );
        let report = server.shutdown();
        assert_eq!(report.rejected_bad, 2);
        assert_eq!(report.responses, 0);
    }

    #[test]
    fn zero_queue_deadline_sheds_every_request() {
        let model = test_model();
        let global = SharedGlobal::new();
        global.publish(1, &vec![0.0; model.param_len()]);
        let cfg = ServingConfig::default().with_queue_deadline_ms(0);
        let (listener, accept_tx) = channel_listener();
        let server = AdaptServer::start(Box::new(listener), model, global, cfg);
        let mut client = connect(&accept_tx);
        let req = request_from_batch(3, 0, 0.1, 1, &class_batch());
        assert_eq!(
            client.request(&req, Duration::from_secs(5)).unwrap(),
            AdaptOutcome::Rejected(RejectReason::Busy)
        );
        let report = server.shutdown();
        assert_eq!(report.shed_busy, 1);
    }

    #[test]
    fn bad_labels_reject_bad_request() {
        // One worker: a label that reached the kernels would panic it and
        // leave nobody to answer the well-formed request at the end.
        let model = test_model();
        let global = SharedGlobal::new();
        global.publish(1, &vec![0.0; model.param_len()]);
        let cfg = ServingConfig::default().with_workers(1);
        let (listener, accept_tx) = channel_listener();
        let server = AdaptServer::start(Box::new(listener), model, global, cfg);
        let mut client = connect(&accept_tx);
        let good = request_from_batch(4, 0, 0.1, 1, &class_batch());
        let mut fractional = good.clone();
        fractional.ys[0] = 1.5;
        let mut out_of_range = good.clone();
        out_of_range.ys[0] = 7.0; // the served model has 2 classes
        let mut wrong_kind = good.clone();
        wrong_kind.kind = SampleKind::Value;
        for bad in [&fractional, &out_of_range, &wrong_kind] {
            assert_eq!(
                client.request(bad, Duration::from_secs(5)).unwrap(),
                AdaptOutcome::Rejected(RejectReason::BadRequest)
            );
        }
        assert!(matches!(
            client.request(&good, Duration::from_secs(5)).unwrap(),
            AdaptOutcome::Adapted { .. }
        ));
        let report = server.shutdown();
        assert_eq!(report.rejected_bad, 3);
        assert_eq!(report.responses, 1);
    }

    #[test]
    fn batch_roundtrips_through_wire_shape() {
        let batch = class_batch();
        let req = request_from_batch(1, 2, 0.1, 3, &batch);
        let frame = req.encode();
        let AdaptFrame::Request(view) = AdaptFrame::parse(&frame).unwrap() else {
            panic!("not a request");
        };
        let back = batch_from_request(&view).unwrap();
        assert_eq!(back.features().as_slice(), batch.features().as_slice());
        assert_eq!(back.targets(), batch.targets());
    }

    #[test]
    fn regression_batches_ride_the_value_kind() {
        let xs = Matrix::from_vec(2, 1, vec![0.5, -0.5]).unwrap();
        let batch = Batch::regression(xs, vec![1.25, -3.5]).unwrap();
        let req = request_from_batch(1, 0, 0.1, 1, &batch);
        assert_eq!(req.kind, SampleKind::Value);
        let frame = req.encode();
        let AdaptFrame::Request(view) = AdaptFrame::parse(&frame).unwrap() else {
            panic!("not a request");
        };
        let back = batch_from_request(&view).unwrap();
        assert_eq!(back.targets(), batch.targets());
    }

    #[test]
    fn shared_global_snapshot_isolation() {
        let shared = SharedGlobal::new();
        assert!(shared.snapshot().is_none());
        assert_eq!(shared.round(), None);
        shared.publish(1, &[1.0, 2.0]);
        let held = shared.snapshot().unwrap();
        shared.publish(2, &[3.0, 4.0]);
        // The held snapshot is unaffected by the swap.
        assert_eq!(held.round, 1);
        assert_eq!(*held.params, vec![1.0, 2.0]);
        assert_eq!(shared.round(), Some(2));
    }
}
