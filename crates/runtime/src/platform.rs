//! The platform: owns the global parameters, broadcasts them as encoded
//! frames, and drives aggregation. It comes in two halves:
//!
//! * the **round core** (`platform/core.rs`, crate-private) makes every
//!   decision and does no I/O — who is sent the broadcast, how each
//!   received frame is triaged and decoded, when a round stops waiting,
//!   how it closes (barrier or async), the curve point, and what to
//!   checkpoint;
//! * the **thread driver** (this module, [`Runtime`]) moves the bytes —
//!   one post a round to the in-process fleet or a `try_send` to each
//!   socket peer, `recv_timeout` on the uplink, the checkpoint file, and
//!   the publish to a co-resident adaptation server — and holds every
//!   wall-clock constant.
//!
//! # Topology
//!
//! ```text
//!            one posted round: frame + reached nodes (Condvar wake)
//!        ┌────────────────────────────────────────────┐
//!        │              GlobalModel frame             ▼
//!   ┌──────────┐                          ┌──────────────────────┐
//!   │ platform │                          │ workers claim chunks │
//!   │  driver  │                          │ of the reached nodes │
//!   └──────────┘                          └──────────────────────┘
//!        ▲                ModelUpdate frames          │
//!        └────────────────────────────────────────────┘
//!           bounded uplink (2n frames, workers try_send)
//! ```
//!
//! A socket fleet has the hub in the workers' place: a bounded outbound
//! queue per peer (`mailbox_cap`) down, the same merged uplink back. A
//! peer that bounces mid-round is the hub's alone to serve: its
//! reconnect replays the open round's broadcast until the driver
//! retracts it (`crate::hub`).
//!
//! The links are the driver's. It never blocks without a timeout and
//! never blocks on a send at all: a post is a lock and a condvar
//! signal, socket broadcasts use `try_send` (a full queue or a dead
//! peer drops the frame, which the core counts against the round), and
//! the uplink is drained with `recv_timeout`.
//!
//! The in-process uplink is a `sync_channel` of `2n` frames for `n`
//! nodes, allocated once a run. That covers every reply that can be
//! outstanding: at most one per reached node for the open post, plus at
//! most one per node still owed by a post whose round timed out — a
//! worker finishes what it claimed of that post, and claims nothing of
//! it once the next is posted. Workers `try_send`, so none ever blocks
//! on it; a reply it still refuses is recycled and counted undelivered.
//! The hub's uplink is an unbounded channel: a socket peer's reader
//! must not stall on it. The core owns
//! the round's silence deadline: it starts when collecting starts and
//! restarts only when an update the round awaits is accepted — garbage,
//! duplicate and stale frames do not extend it — so a crashed or wedged
//! node costs one timeout, not the run, and a round waits at most
//! `reached nodes × timeout`.
//!
//! # Round timeline
//!
//! The training curve is a reporting quantity no step of the algorithm
//! waits for, so the fleet does not wait for it either. A closed round
//! is *parked* by the core; the driver publishes and checkpoints its
//! global — before the next broadcast, as ever. That global is the
//! parked round's curve point, and the next broadcast carries it: a
//! FedML node computes its task's two curve terms there in its first
//! step and sends them back with its update, so the core records the
//! parked round when the next round closes, summing the reported terms
//! and evaluating only the tasks no node reported. What it must
//! evaluate — the tasks of nodes the broadcast missed, or the whole curve
//! of a stepper that yields no terms — it evaluates after the broadcast
//! and before collecting, i.e. while the nodes compute and this thread
//! would only block:
//!
//! ```text
//! core: close r, park r │ driver: publish, checkpoint r │ driver: broadcast r+1 │ core: evaluate what r lacks │ driver: collect r+1 (terms of r) │ core: record r, close r+1
//! ```
//!
//! The last round is evaluated by the core's `finish`. No thread or
//! channel is involved. The one consequence: `history` and
//! `report.trace` lag the run by one round while it goes on, so nothing
//! inside the core reads them.
//!
//! # Modes
//!
//! Both modes run the same driver loop; the core's close differs.
//!
//! **Barrier** waits for every expected update each round. When the
//! fleet is fault-free, the gather policy is the default and every
//! update is finite, it reproduces `train_from` of the driven trainer
//! *bitwise* — its curve, at each broadcast global, and its result, the
//! re-aggregation of `n` copies of the last one.
//! With faults, a custom policy or a non-finite update a round goes
//! through the core's
//! gather (the finite check, quorum, the weighted mean renormalized over
//! the contributors), degrading rounds instead of failing, and a quorum
//! loss rolls back and re-runs the round without the failed nodes.
//! Either way the aggregate becomes the next global through
//! [`LocalStepper::combine`] — identity for FedML/FedAvg/FedProx (the
//! bitwise trainers), Reptile's outer interpolation otherwise.
//!
//! **Async** buffers each upload until its virtual arrival round
//! (round-start time plus seeded clock delay), then folds updates into
//! the global model one at a time in `(arrival_time, node)` order with a staleness-decayed weight (see
//! [`crate::AsyncPolicy`]) — that mix replaces
//! [`LocalStepper::combine`] in this mode. Updates staler than
//! `max_staleness` are rejected and counted. Because arrival order is
//! derived from the virtual clock — never from OS scheduling — results
//! are bitwise identical at any worker-thread count.

pub(crate) mod core;

use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fml_core::checkpoint::Checkpoint;
use fml_core::parallel::default_threads;
use fml_core::{LocalStepper, SourceTask, TrainOutput};
use fml_models::Model;
use fml_sim::message::{encode_global_into, encoded_frame_len};
use fml_sim::FramePool;

use self::core::Core;
use crate::actor::{run_transport_peer, worker_loop, Fleet, FleetGuard, WorkerCtx};
use crate::config::RuntimeConfig;
use crate::hub::Hub;
use crate::report::{NodeIo, RuntimeReport};
use crate::serving::SharedGlobal;
use crate::transport::{Transport, TransportError, TransportListener};

/// File name the platform checkpoints into (inside `--checkpoint-dir`).
pub(crate) const CHECKPOINT_FILE: &str = "latest.json";

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
        let mut core = Core::new(&self.cfg, stepper, model, tasks, theta0);
        let n = tasks.len();
        let workers = self
            .cfg
            .threads
            .unwrap_or_else(|| default_threads(n))
            .min(n);
        core.report.transport = "channel".into();
        core.report.threads = workers;

        // One posted round at a time down; one shared uplink back,
        // bounded by what can be outstanding (see the module docs).
        let fleet = Fleet::new(n, workers);
        let (uplink_tx, uplink) = sync_channel::<Bytes>(2 * n);
        let ctx = WorkerCtx {
            stepper,
            model,
            tasks,
            cfg: &self.cfg,
        };

        std::thread::scope(|scope| {
            // No worker owns a node: each claims the posted round's nodes
            // until none are left. Results are identical under any claim
            // order: each node's update depends on the broadcast and its
            // own slot alone, and the platform aggregates by node id.
            let handles = (0..workers)
                .map(|_| {
                    let (ctx, fleet, uplink) = (&ctx, &fleet, uplink_tx.clone());
                    scope.spawn(move || worker_loop(ctx, fleet, uplink))
                })
                .collect();
            // Once every worker's sender is gone, the driver sees the
            // uplink disconnect.
            drop(uplink_tx);
            self.drive(core, Peers::Fleet(FleetGuard(&fleet), handles), &uplink)
        })
    }

    /// Runs the platform side over a socket transport: accepts peers on
    /// `listener`, waits up to the configured join timeout for the full
    /// fleet, then drives the same event loop [`run`](Runtime::run)
    /// uses — node compute happens in whatever processes connected.
    ///
    /// Rounds degrade (never hang) when peers are missing, die
    /// mid-round, or stay silent past the round's timeout; a peer that
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
        let mut core = Core::new(&self.cfg, stepper, model, tasks, theta0);
        // Node compute runs in the peers' processes: no worker threads.
        core.report.transport = listener.kind().into();
        let io_timeout = Duration::from_millis(self.cfg.recv_timeout_ms);
        let (hub, uplink) = Hub::start(listener, tasks.len(), self.cfg.mailbox_cap, io_timeout);
        let joined = hub.await_join(Duration::from_millis(self.cfg.join_timeout_ms));
        if joined == 0 {
            hub.shutdown();
            return Err(TransportError::Timeout);
        }
        Ok(self.drive(core, Peers::Hub(hub), &uplink))
    }

    /// The thread driver: resumes `core` from disk when configured to,
    /// runs its rounds over `peers` and `uplink` — one loop for both
    /// modes — then closes the fleet and folds the per-node link
    /// counters into the report.
    fn drive(
        &self,
        mut core: Core<'_>,
        peers: Peers<'_>,
        uplink: &Receiver<Bytes>,
    ) -> RuntimeOutput {
        let pool = FramePool::global().handle();
        // A round holds at most the broadcast and one reply a node.
        pool.warm(core.nodes() + 1, encoded_frame_len(core.global().len()));
        let dir = self.cfg.checkpoint.dir.as_ref();
        if let Some(ck) = dir.and_then(|d| Checkpoint::load(d.join(CHECKPOINT_FILE)).ok()) {
            core.resume(ck);
        }
        // The publish is a short write-lock swap: requests in flight keep
        // adapting from the snapshot they already hold. An attached
        // server can serve the initial (or resumed) global before round
        // 1 completes.
        let publish = |core: &Core| {
            if let Some(shared) = &self.publisher {
                shared.publish(core.done() as u32, core.global());
            }
        };
        publish(&core);
        while let Some(round) = core.open_round() {
            // One encode per round, into a pooled buffer; every peer gets
            // a refcounted clone of the same frozen frame, so fan-out to N
            // nodes costs zero further allocations or copies. Never block
            // on a slow consumer: a full or dead socket queue just loses
            // this round's broadcast.
            let mut buf = pool.acquire(encoded_frame_len(core.global().len()));
            encode_global_into(round as u32, core.global(), &mut buf);
            let frame = buf.freeze();
            peers.broadcast(&mut core, &frame);
            // The fleet is computing and this thread would only block
            // below: what the previous round's curve needs from this
            // thread costs no round time here. Replies queue on the
            // uplink meanwhile (at most one per reached node), and the
            // silence deadline starts after.
            core.evaluate_parked();
            while let Some(wait) = core.wait(Instant::now()) {
                match uplink.recv_timeout(wait) {
                    Ok(received) => {
                        core.offer(&received, Instant::now());
                        // The frame is spent; its storage serves a future
                        // encode.
                        pool.recycle(received);
                    }
                    // The next `wait` finds the deadline passed.
                    Err(RecvTimeoutError::Timeout) => {}
                    // All workers gone: close with what we have.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            peers.retract();
            pool.recycle(frame);
            if core.close_round() {
                publish(&core);
                if let (Some(dir), Some(ck)) = (dir, core.checkpoint()) {
                    let _ = std::fs::create_dir_all(dir);
                    if ck.save_atomic(dir.join(CHECKPOINT_FILE)).is_ok() {
                        core.report.checkpoints_written += 1;
                    }
                }
            }
        }

        let (train, mut report) = core.finish();
        report.pool = pool.stats().into();
        // Closing ends the fleet: in-process workers return, socket peers
        // see EOF.
        peers.close(&mut report);
        report.per_node.sort_by_key(|io| io.node);
        report.decode_errors += report
            .per_node
            .iter()
            .map(|io| io.decode_errors)
            .sum::<u64>();
        RuntimeOutput { train, report }
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

/// How the platform reaches its fleet: the in-process posted round, or
/// a socket hub.
enum Peers<'s> {
    /// The in-process fleet, and the workers stepping its nodes.
    Fleet(FleetGuard<'s>, Vec<ScopedJoinHandle<'s, ()>>),
    /// Remote peers behind the acceptor (socket fleet).
    Hub(Hub),
}

impl Peers<'_> {
    /// Hands `frame` to every node the core's broadcast picks: one post
    /// in process, a best-effort send per peer to the hub.
    fn broadcast(&self, core: &mut Core<'_>, frame: &Bytes) {
        match self {
            Peers::Fleet(fleet, _) => fleet.0.post(frame, |targets| {
                core.broadcast(|node| {
                    targets.push(node);
                    true
                });
            }),
            Peers::Hub(hub) => core.broadcast(|node| hub.try_send(node, frame.clone())),
        }
    }

    /// Ends the round's broadcast: the post lets go of its frame, and
    /// the hub stops replaying it to reconnecting peers.
    fn retract(&self) {
        match self {
            Peers::Fleet(fleet, _) => fleet.0.retract(),
            Peers::Hub(hub) => hub.retract(),
        }
    }

    /// Closes every link and puts the per-node counters in `report`:
    /// the hub's per-peer view, or the in-process slots', once the
    /// workers return — with the replies the fleet's full uplink
    /// refused counted undelivered.
    fn close(self, report: &mut RuntimeReport) {
        report.per_node = match self {
            Peers::Fleet(fleet, workers) => {
                fleet.0.close();
                for worker in workers {
                    worker.join().expect("runtime worker panicked");
                }
                report.undelivered += fleet.0.refused.load(Relaxed);
                fleet.0.io()
            }
            Peers::Hub(hub) => hub.shutdown(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncPolicy, VirtualClock};
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
        let ratio = codec_ratio(&one.report);
        assert!(ratio >= 3.0, "uplink compression ratio {ratio} < 3");
        assert!(one.train.params.iter().all(|x| x.is_finite()));
    }

    /// The uplink compression ratio `logical / physical` over what the
    /// codec encoded: the curve-terms trailers left out of both sides.
    fn codec_ratio(report: &RuntimeReport) -> f64 {
        let trailers: u64 = report.per_node.iter().map(|n| n.trailer_bytes_sent).sum();
        let physical = report.uplink_bytes() - trailers;
        assert!(physical > 0, "counters present");
        (report.uplink_bytes_logical() - trailers) as f64 / physical as f64
    }

    /// Each node counts its replies' curve-terms trailers where it
    /// counts their bytes, so the compression ratio can leave them out
    /// of both sides: every top-k reply is one size, so the ratio is the
    /// codec's alone.
    #[test]
    fn curve_trailers_stay_out_of_the_compression_ratio() {
        use crate::UpdateCodec;
        use fml_sim::{compressed_frame_len, message::encoded_frame_len, CURVE_TERMS_LEN};
        let (model, tasks, theta0) = setup(4);
        let codec = UpdateCodec::TopK { k: 2 };
        let cfg = RuntimeConfig::barrier(3).with_update_codec(codec);
        let out = Runtime::new(cfg).run(&fedml(3), &model, &tasks, &theta0);
        let d = theta0.len();
        for io in &out.report.per_node {
            assert_eq!(io.frames_sent, 3);
            assert_eq!(io.trailer_bytes_sent, 3 * CURVE_TERMS_LEN as u64);
            let trailed = |len: usize| 3 * (len + CURVE_TERMS_LEN) as u64;
            assert_eq!(io.bytes_sent, trailed(compressed_frame_len(codec, d)));
            assert_eq!(io.bytes_sent_logical, trailed(encoded_frame_len(d)));
        }
        assert_eq!(
            codec_ratio(&out.report),
            encoded_frame_len(d) as f64 / compressed_frame_len(codec, d) as f64
        );
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
        assert!(codec_ratio(&quant.report) > 2.0);
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
            out.report.staleness_hist.iter().rposition(|&c| c > 0),
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
        // Direct struct construction bypasses every check; the NaN
        // weight must surface as rejections, never as NaN parameters.
        let (model, mut tasks, theta0) = setup(3);
        for task in &mut tasks {
            task.weight = f64::NAN;
        }
        let trainer = fedml(4);
        let out = Runtime::new(
            RuntimeConfig::async_mode(5, AsyncPolicy::default())
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
