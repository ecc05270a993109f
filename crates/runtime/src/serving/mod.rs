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
//! Every decision about a request lives in a sans-I/O core
//! (`core::ServeCore`: admission, budget, queue, deadline, snapshot and
//! counters), which owns no thread, socket or clock. [`AdaptServer`] is
//! its thread driver: it does only I/O and wake-ups around one lock.
//!
//! ```text
//!          accept               admit                next
//! client ────────▶ link layer ───▶ conn thread ─────▶ ServeCore ◀───── workers
//!                  (1 acceptor)    (1 per link)      queue and        (N threads
//!                                       │            counters,        on a condvar)
//!                                       │ Busy,      one Mutex             │
//!                                       ▼ BadRequest                       ▼
//!                                  AdaptReject               adapt_into + pooled
//!                                       │                    encode, outside the lock
//!                                       ▼                                  │
//! client ◀─────────────── shared writer handle ◀───────────────────────────┘
//! ```
//!
//! Links come through the link layer the training hub uses too: one
//! acceptor, one conn thread per link, a registry that joins the
//! threads that ended, and one first-frame deadline (5 s) for a link's
//! first request. At most `queue_depth` links (at least 1) wait for
//! that first frame at once; a link accepted beyond that closes the one
//! that has waited longest. `queue_depth` is the bound because each
//! waiting link stands for at most one request, and `queue_depth` of
//! them already fill the queue that admits them: more links waiting to
//! speak at once could only meet a full queue. The first frame only has
//! to arrive — one that does not decode is counted like any other — and
//! once it has, no deadline applies, so a client may stay idle between
//! requests.
//!
//! # Overload and shedding policy
//!
//! The acceptor never computes and the conn threads never wait for
//! a worker: a full queue sheds the request *immediately* with a typed
//! [`Busy`](fml_sim::RejectReason::Busy) frame, and a request that
//! waited in the queue past the configured deadline is shed by the
//! worker that dequeues it instead of being computed late. Budget
//! violations (`k` or `steps` over the cap, wrong feature dimension,
//! unusable labels — malformed, of the wrong kind for the served model,
//! or outside its classes) are
//! [`BadRequest`](fml_sim::RejectReason::BadRequest); serving before
//! any global exists is
//! [`Unavailable`](fml_sim::RejectReason::Unavailable). Every reply —
//! success or reject — carries the request's `req_id`, so concurrent
//! clients multiplexing one link can correlate.
//!
//! # Hot-swap semantics
//!
//! [`SharedGlobal`] is a cloneable handle to an `RwLock`-guarded
//! snapshot. A training platform built with
//! [`Runtime::with_publisher`](crate::Runtime::with_publisher) swaps in
//! the new global after every completed round; each request reads the
//! snapshot once, when a worker takes it, so an in-flight adaptation
//! keeps the parameters it started with and the next request sees the
//! new round. [`ServingReport::served_rounds`] records which round
//! served each reply — the audit trail of the swap.

mod client;
mod core;
mod report;

pub use client::{AdaptClient, AdaptOutcome};
pub use report::{LatencyReport, PoolRound, RoundServed, ServingReport, LATENCY_BUCKETS};

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use fml_core::adapt::{adapt_into, AdaptScratch};
use fml_core::checkpoint::{Checkpoint, CheckpointError};
use fml_linalg::Matrix;
use fml_models::{Batch, Model, Target};
use fml_sim::message::{
    encode_adapt_reject_into, encode_adapt_response_into, encoded_frame_len, AdaptRequest,
    AdaptRequestView,
};
use fml_sim::{AdaptReject, FramePool, SampleKind};

use self::core::{Admission, Job, ServeCore, Work};
use crate::link::{self, LinkSet, Links, FIRST_FRAME_TIMEOUT, TICK};
use crate::lock;
use crate::transport::{Transport, TransportError, TransportListener};

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
/// [`Unavailable`](fml_sim::RejectReason::Unavailable) until the first
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
        *self.inner.write().unwrap_or_else(PoisonError::into_inner) = Some(snap);
    }

    /// The current global, if any has been published.
    pub fn snapshot(&self) -> Option<GlobalSnapshot> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
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

/// The write half of one client link, shared between that link's conn
/// thread (for immediate rejects) and every worker (for replies).
type Writer = Arc<Mutex<Box<dyn Transport>>>;

/// What the conn threads and workers share.
struct Shared {
    /// Taken over when poisoned ([`lock`]): each of its counters is a
    /// plain field bumped on its own and its queue changes by one push
    /// or pop, so every step leaves it valid.
    core: Mutex<ServeCore<Writer>>,
    /// Signalled when a job is queued, and when the workers may stop.
    queued: Condvar,
    /// Set once nothing more can be admitted: idle workers exit.
    drained: AtomicBool,
}

/// The long-lived adaptation service. Start it on any
/// [`TransportListener`]; shut it down to collect the final
/// [`ServingReport`].
pub struct AdaptServer {
    shared: Arc<Shared>,
    addr: String,
    transport: &'static str,
    started: Instant,
    links: Option<Links>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for AdaptServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl AdaptServer {
    /// Starts the service: one acceptor on `listener`, one conn thread
    /// per link (at most `cfg.queue_depth` of them, at least 1, waiting
    /// for their first request at once), and a bounded pool of
    /// `cfg.workers` adaptation workers (at least 1) over a
    /// `cfg.queue_depth`-bounded queue (at least 1).
    pub fn start(
        listener: Box<dyn TransportListener>,
        model: Arc<dyn Model>,
        global: SharedGlobal,
        cfg: ServingConfig,
    ) -> AdaptServer {
        let shared = Arc::new(Shared {
            core: Mutex::new(ServeCore::new(model.as_ref(), global, cfg)),
            queued: Condvar::new(),
            drained: AtomicBool::new(false),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let model = Arc::clone(&model);
                std::thread::spawn(move || worker_loop(&shared, model.as_ref()))
            })
            .collect();
        let (addr, transport) = (listener.local_addr(), listener.kind());
        let conns = Arc::clone(&shared);
        let serve = move |links: &LinkSet, link, first| connection_loop(&conns, links, link, first);
        let links = link::start(listener, cfg.queue_depth, FIRST_FRAME_TIMEOUT, serve);
        AdaptServer {
            shared,
            addr,
            transport,
            started: Instant::now(),
            links: Some(links),
            workers,
        }
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Live report snapshot: callable while the server keeps running.
    pub fn report(&self) -> ServingReport {
        let pool = FramePool::global().stats();
        ServingReport {
            transport: self.transport.into(),
            ..lock(&self.shared.core).report(self.started.elapsed(), pool)
        }
    }

    /// Stops accepting, drains the queue, joins every thread, and
    /// returns the final report. Connected clients observe EOF.
    pub fn shutdown(mut self) -> ServingReport {
        self.stop();
        self.report()
    }

    fn stop(&mut self) {
        if let Some(links) = self.links.take() {
            links.shutdown(|| {});
        }
        // The conn threads are joined: nothing more is admitted. Store
        // under the lock, so a worker between its check and its wait
        // cannot miss the wake-up.
        {
            let _core = lock(&self.shared.core);
            self.shared.drained.store(true, Ordering::SeqCst);
        }
        self.shared.queued.notify_all();
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

/// Reads frames off one client link, its first frame first, into the
/// core, writes back the rejects it decides at admission, and wakes a
/// worker for each job it queues. An undecodable frame is counted and
/// the link kept; after the first frame, no deadline applies.
fn connection_loop(shared: &Shared, links: &LinkSet, mut link: Box<dyn Transport>, first: Bytes) {
    let Ok(writer) = link.try_clone() else {
        return;
    };
    let writer: Writer = Arc::new(Mutex::new(writer));
    let pool = FramePool::global().handle();
    let mut read: Result<Bytes, TransportError> = Ok(first);
    while !links.stopping() {
        match read {
            Ok(frame) => {
                let admission =
                    lock(&shared.core).admit(&frame, Arc::clone(&writer), Instant::now());
                pool.recycle(frame);
                match admission {
                    Admission::Queued => shared.queued.notify_one(),
                    Admission::Reject(r) => reject(shared, &pool, &writer, r),
                    Admission::Undecodable => {}
                }
            }
            Err(e) if e.is_fatal() => return,
            Err(_) => {}
        }
        read = link.recv_frame(TICK);
    }
}

/// One adaptation worker: takes work from the core, runs the
/// workspace-reusing adapt kernel outside the lock, and replies through
/// the requesting link's writer. Per-worker scratch makes the
/// steady-state hot path allocation-flat.
fn worker_loop(shared: &Shared, model: &dyn Model) {
    let mut scratch = AdaptScratch::for_model(model);
    let mut phi = Vec::with_capacity(model.param_len());
    let pool = FramePool::global().handle();
    while let Some(work) = next_work(shared, &pool) {
        let (job, batch, global) = match work {
            Work::Adapt(job, batch, global) => (job, batch, global),
            Work::Reject(link, r) => {
                reject(shared, &pool, &link, r);
                continue;
            }
        };
        let Job {
            link,
            req_id,
            alpha,
            steps,
            received,
        } = job;
        adapt_into(
            model,
            &global.params,
            &batch,
            alpha,
            steps as usize,
            &mut scratch,
            &mut phi,
        );
        let mut buf = pool.acquire(encoded_frame_len(phi.len()));
        encode_adapt_response_into(req_id, global.round, &phi, &mut buf);
        let sent = send(&pool, &link, buf);
        let served = Some((global.round, received));
        lock(&shared.core).replied(sent, served, Instant::now());
    }
}

/// The next work for a worker, sleeping until there is some; `None`
/// once the queue is empty and nothing more can be admitted.
fn next_work(shared: &Shared, pool: &FramePool) -> Option<Work<Writer>> {
    let mut core = lock(&shared.core);
    loop {
        if let Some(work) = core.next(Instant::now(), pool.stats()) {
            return Some(work);
        }
        if shared.drained.load(Ordering::SeqCst) {
            return None;
        }
        core = shared
            .queued
            .wait(core)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Encodes and writes a typed reject, and counts it.
fn reject(shared: &Shared, pool: &FramePool, link: &Writer, r: AdaptReject) {
    let mut buf = pool.acquire(encoded_frame_len(0));
    encode_adapt_reject_into(r.req_id, r.reason, &mut buf);
    let sent = send(pool, link, buf);
    lock(&shared.core).replied(sent, None, Instant::now());
}

/// Writes `buf` on `link` and recycles it: its length when it went out,
/// `None` when the link is dead or a writer panicked holding it.
fn send(pool: &FramePool, link: &Writer, buf: BytesMut) -> Option<usize> {
    let frame = buf.freeze();
    let len = frame.len();
    let sent = link.lock().is_ok_and(|mut w| w.send_frame(&frame).is_ok());
    pool.recycle(frame);
    sent.then_some(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChannelTransport, TcpTransport};
    use fml_models::SoftmaxRegression;
    use fml_sim::message::AdaptFrame;
    use fml_sim::RejectReason;
    use std::time::Duration;

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

    fn start_tcp(cfg: ServingConfig) -> AdaptServer {
        let model = test_model();
        let global = SharedGlobal::new();
        global.publish(1, &vec![0.0; model.param_len()]);
        let listener = crate::transport::TcpTransportListener::bind("127.0.0.1:0").unwrap();
        AdaptServer::start(Box::new(listener), model, global, cfg)
    }

    /// At most `queue_depth` links await their first request at once: a
    /// burst of silent connections closes the oldest of them at once,
    /// keeps the thread registry bounded, and a real client is still
    /// served behind it.
    #[test]
    fn silent_links_beyond_the_queue_depth_are_closed() {
        const SILENT: usize = 12;
        let server = start_tcp(ServingConfig::default().with_queue_depth(2));
        let started = Instant::now();
        let mut silent: Vec<TcpTransport> = (0..SILENT)
            .map(|_| TcpTransport::connect(server.local_addr()).unwrap())
            .collect();
        for (i, link) in silent[..SILENT - 2].iter_mut().enumerate() {
            assert_eq!(
                link.recv_frame(Duration::from_secs(5)),
                Err(crate::transport::TransportError::Closed),
                "silent link {i}"
            );
        }
        let elapsed = started.elapsed();
        assert!(elapsed < FIRST_FRAME_TIMEOUT / 2, "{elapsed:?}");
        let link = TcpTransport::connect(server.local_addr()).unwrap();
        let mut client = AdaptClient::new(Box::new(link));
        let req = request_from_batch(1, 0, 0.1, 1, &class_batch());
        assert!(matches!(
            client.request(&req, Duration::from_secs(5)).unwrap(),
            AdaptOutcome::Adapted { .. }
        ));
        let links = server.links.as_ref().unwrap();
        assert!(links.waiting() <= 2);
        // The client's conn thread, and the links not yet joined.
        let registered = links.registered();
        assert!(registered <= 6, "{registered} thread handles kept");
        assert_eq!(server.shutdown().responses, 1);
    }

    /// Shutdown does not wait out the first-frame deadline of links that
    /// never spoke.
    #[test]
    fn shutdown_with_silent_links_open_is_prompt() {
        let server = start_tcp(ServingConfig::default());
        let _silent: Vec<TcpTransport> = (0..4)
            .map(|_| TcpTransport::connect(server.local_addr()).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        server.shutdown();
        let elapsed = started.elapsed();
        assert!(elapsed < FIRST_FRAME_TIMEOUT / 2, "{elapsed:?}");
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
