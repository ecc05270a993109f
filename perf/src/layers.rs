//! Per-layer measurements of a traced run: a counting `Model` wrapper
//! for the kernels, tight loops over single public functions for the
//! layers the replayed round cannot isolate, and the arithmetic that
//! turns replay spans into a per-round budget whose parts sum to the
//! measured round.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fml_core::adapt::{adapt_into, AdaptScratch};
use fml_core::checkpoint::Checkpoint;
use fml_core::gather::screen_update;
use fml_core::UpdateValidation;
use fml_models::{Batch, Model, Prediction, Target, Workspace};
use fml_runtime::serving::batch_from_request;
use fml_runtime::{SharedGlobal, TransportError};
use fml_sim::framing::prefix_frame_into;
use fml_sim::message::{
    encode_adapt_request_into, encode_adapt_response_into, encode_global_into,
    encoded_adapt_request_len, encoded_adapt_response_len, encoded_frame_len,
};
use fml_sim::{compressed_frame_len, AdaptFrame, FrameBuffer, FramePool};
use rand::RngCore;

use crate::replay::{transport_pair, Op, ReplayCosts, OPS};
use crate::stats::{median, percentile};
use crate::workloads::{Bench, Link};

/// Calls and nanoseconds of one kernel entry point.
#[derive(Debug, Default)]
struct Kernel {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Kernel {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn per_call_us(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.ns.load(Ordering::Relaxed) as f64 / n as f64 / 1e3,
        }
    }
}

/// A `Model` that forwards every call to the workload's model and
/// counts and times the three kernels on the way — the `models` layer
/// seen from outside, in place, at the batch sizes the trainer really
/// uses.
#[derive(Debug)]
pub struct TracedModel {
    inner: Arc<dyn Model>,
    loss: Kernel,
    grad: Kernel,
    hvp: Kernel,
}

impl TracedModel {
    pub fn new(inner: Arc<dyn Model>) -> Self {
        TracedModel {
            inner,
            loss: Kernel::default(),
            grad: Kernel::default(),
            hvp: Kernel::default(),
        }
    }

    pub fn loss_us(&self) -> f64 {
        self.loss.per_call_us()
    }

    pub fn grad_us(&self) -> f64 {
        self.grad.per_call_us()
    }

    pub fn hvp_us(&self) -> f64 {
        self.hvp.per_call_us()
    }

    pub fn calls(&self) -> u64 {
        self.loss.calls() + self.grad.calls() + self.hvp.calls()
    }
}

impl Model for TracedModel {
    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        self.inner.init_params(rng)
    }

    fn loss(&self, params: &[f64], batch: &Batch) -> f64 {
        self.loss.time(|| self.inner.loss(params, batch))
    }

    fn grad(&self, params: &[f64], batch: &Batch) -> Vec<f64> {
        self.grad.time(|| self.inner.grad(params, batch))
    }

    fn hvp(&self, params: &[f64], batch: &Batch, v: &[f64]) -> Vec<f64> {
        self.hvp.time(|| self.inner.hvp(params, batch, v))
    }

    fn sample_loss(&self, params: &[f64], x: &[f64], y: Target) -> f64 {
        self.inner.sample_loss(params, x, y)
    }

    fn input_grad(&self, params: &[f64], x: &[f64], y: Target) -> Vec<f64> {
        self.inner.input_grad(params, x, y)
    }

    fn predict(&self, params: &[f64], x: &[f64]) -> Prediction {
        self.inner.predict(params, x)
    }

    fn workspace(&self) -> Workspace {
        self.inner.workspace()
    }

    fn loss_with(&self, params: &[f64], batch: &Batch, ws: &mut Workspace) -> f64 {
        self.loss.time(|| self.inner.loss_with(params, batch, ws))
    }

    fn grad_into(&self, params: &[f64], batch: &Batch, ws: &mut Workspace, out: &mut [f64]) {
        self.grad
            .time(|| self.inner.grad_into(params, batch, ws, out));
    }

    fn hvp_into(
        &self,
        params: &[f64],
        batch: &Batch,
        v: &[f64],
        ws: &mut Workspace,
        out: &mut [f64],
    ) {
        self.hvp
            .time(|| self.inner.hvp_into(params, batch, v, ws, out));
    }

    fn accuracy(&self, params: &[f64], batch: &Batch) -> f64 {
        self.inner.accuracy(params, batch)
    }
}

/// Mean µs of one call of `f`: the median over batches of `batch`
/// calls, run for about `budget`.
fn micro_us(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let deadline = Instant::now() + budget;
    let mut means = Vec::new();
    while means.len() < 3 || Instant::now() < deadline {
        let started = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(started.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&means)
}

/// Single-function costs the replayed round cannot isolate.
#[derive(Debug, Default)]
pub struct Micro {
    pub prefix_us: f64,
    pub next_frame_us: f64,
    pub pool_acquire_release_us: f64,
    pub hop_us: f64,
    pub hop_p99_us: f64,
    /// One TCP hop of a request frame plus one of a reply frame: the
    /// adapt phase is on TCP loopback whatever the train phase uses.
    pub serving_hops_us: f64,
    pub screen_us: f64,
    pub checkpoint_save_us: f64,
    pub checkpoint_load_us: f64,
    pub request_encode_us: f64,
    pub request_parse_us: f64,
    pub publish_us: f64,
    pub snapshot_us: f64,
    pub adapt_into_us: f64,
}

/// Echoes the workload's broadcast frame across a transport pair of
/// the workload's kind, the far end on its own thread as in the
/// runtime, for at least `hops` one-way hops. Returns the median and
/// p99 of one hop (half a round trip), µs.
fn hop_echo(link: Link, frame: &Bytes, hops: usize) -> (f64, f64) {
    assert!(hops > 0, "an echo needs a hop");
    let (mut plat, mut node) = transport_pair(link);
    let timeout = Duration::from_secs(5);
    let mut hop_us: Vec<f64> = Vec::with_capacity(hops / 2);
    std::thread::scope(|s| {
        s.spawn(move || loop {
            match node.recv_frame(timeout) {
                Ok(frame) => {
                    if node.send_frame(&frame).is_err() {
                        break;
                    }
                }
                Err(TransportError::Timeout) => continue,
                Err(_) => break,
            }
        });
        for _ in 0..hops.div_ceil(2) {
            let started = Instant::now();
            plat.send_frame(frame).expect("echo: send");
            let back = plat.recv_frame(timeout).expect("echo: recv");
            hop_us.push(started.elapsed().as_secs_f64() * 1e6 / 2.0);
            drop(back);
        }
        plat.close();
    });
    hop_us.sort_by(|a, b| a.partial_cmp(b).expect("hop times are finite"));
    (percentile(&hop_us, 50.0), percentile(&hop_us, 99.0))
}

/// Runs every micro-measurement on the workload's own frame sizes,
/// parameters and requests. `scratch_dir` takes the checkpoint file.
pub fn micro(
    b: &Bench,
    global: &[f64],
    scratch_dir: &std::path::Path,
    each: Duration,
    hops: usize,
) -> Micro {
    let model = b.model.as_ref();
    let pool = FramePool::global().handle();
    let dim = global.len();
    let mut buf = pool.acquire(encoded_frame_len(dim));
    encode_global_into(1, global, &mut buf);
    let frame = buf.freeze();

    let mut m = Micro::default();

    let mut prefixed = Vec::new();
    m.prefix_us = micro_us(each, 64, || prefix_frame_into(&frame, &mut prefixed));
    let mut framebuf = FrameBuffer::new();
    m.next_frame_us = micro_us(each, 64, || {
        framebuf.extend(&prefixed);
        let popped = framebuf
            .next_frame_pooled(&pool)
            .expect("own prefix is in range")
            .expect("a whole frame is buffered");
        pool.recycle(popped);
    });
    m.pool_acquire_release_us = micro_us(each, 256, || {
        let buf = pool.acquire(encoded_frame_len(dim));
        pool.release(buf);
    });
    (m.hop_us, m.hop_p99_us) = hop_echo(b.spec.link, &frame, hops);

    let validation = UpdateValidation::default();
    let mut update = global.to_vec();
    m.screen_us = micro_us(each, 64, || {
        std::hint::black_box(screen_update(
            std::hint::black_box(&mut update),
            &validation,
        ));
    });

    let path = scratch_dir.join(format!("checkpoint-{}.json", b.spec.name));
    std::fs::create_dir_all(scratch_dir).expect("create the trace directory");
    let checkpoint = Checkpoint::new("FedML", global.to_vec()).with_meta("round", "1");
    m.checkpoint_save_us = micro_us(each, 1, || {
        checkpoint.save_atomic(&path).expect("save a checkpoint");
    });
    m.checkpoint_load_us = micro_us(each, 1, || {
        std::hint::black_box(Checkpoint::load(&path).expect("load the checkpoint"));
    });
    let _ = std::fs::remove_file(&path);

    let request = &b.requests[0];
    m.request_encode_us = micro_us(each, 64, || {
        let mut buf = pool.acquire(encoded_adapt_request_len(request.k(), request.dim as usize));
        encode_adapt_request_into(request, &mut buf);
        pool.release(buf);
    });
    let request_frame = request.encode();
    let mut reply = pool.acquire(encoded_adapt_response_len(dim));
    encode_adapt_response_into(request.req_id, 1, global, &mut reply);
    let reply_frame = reply.freeze();
    m.serving_hops_us = hop_echo(Link::Tcp, &request_frame, hops / 5).0
        + hop_echo(Link::Tcp, &reply_frame, hops / 5).0;
    pool.recycle(reply_frame);
    m.request_parse_us = micro_us(each, 64, || match AdaptFrame::parse(&request_frame) {
        Ok(AdaptFrame::Request(view)) => {
            std::hint::black_box(batch_from_request(&view).expect("own request is usable"));
        }
        _ => panic!("own request frame must parse as a request"),
    });
    let shared = SharedGlobal::new();
    m.publish_us = micro_us(each, 64, || shared.publish(1, global));
    m.snapshot_us = micro_us(each, 256, || {
        std::hint::black_box(shared.snapshot());
    });
    let mut scratch = AdaptScratch::for_model(model);
    let mut out = Vec::new();
    m.adapt_into_us = micro_us(each, 16, || {
        adapt_into(
            model,
            global,
            &b.supports[0],
            b.spec.alpha,
            b.spec.adapt.steps as usize,
            &mut scratch,
            &mut out,
        );
    });
    pool.recycle(frame);
    m
}

/// One row of the per-round budget: a layer's calls and time in the
/// replayed round and its share of the measured round.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Module name.
    pub layer: &'static str,
    pub part: &'static str,
    pub calls_per_round: f64,
    /// Time inside the layer's calls, one replayed round, all nodes.
    pub self_us: f64,
    /// The part of it on the round's blocking path: platform calls in
    /// full, node calls divided by the workload's worker count.
    pub critical_us: f64,
    pub share: f64,
}

/// The per-round budget of one workload.
#[derive(Debug, Clone)]
pub struct Budget {
    pub rows: Vec<BudgetRow>,
    /// Measured round, µs: median train block ÷ rounds.
    pub round_us: f64,
    /// Replayed round, µs, single thread, spans included.
    pub replay_round_us: f64,
    /// `1 − Σ shares`: mailboxes, hub threads, poll floors, wake-ups.
    pub unexplained_share: f64,
}

impl Budget {
    /// Share of the measured round spent in `layer`, all its rows.
    pub fn share(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.layer == layer)
            .map(|r| r.share)
            .sum()
    }

    /// The table `--trace` prints.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "per-round budget, {workload}: measured round {:.1} us, replayed round {:.1} us",
            self.round_us, self.replay_round_us
        );
        let _ = writeln!(
            out,
            "| layer | calls/round | self us | critical us | share |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|");
        for row in self.rows.iter().filter(|r| r.calls_per_round > 0.0) {
            let _ = writeln!(
                out,
                "| `{}`{} | {:.0} | {:.1} | {:.1} | {:.1} % |",
                row.layer,
                row.part,
                row.calls_per_round,
                row.self_us,
                row.critical_us,
                row.share * 100.0
            );
        }
        let _ = writeln!(
            out,
            "| `runtime.platform` (unexplained) | | | {:.1} | {:.1} % |",
            self.unexplained_share * self.round_us,
            self.unexplained_share * 100.0
        );
        out
    }
}

/// `(layer, part)` of every budget row, in table order.
const ROWS: [(&str, &str); 9] = [
    ("core.step", " local_update (nodes)"),
    ("core.trainer", " eval_losses (platform)"),
    ("core.gather", ""),
    ("sim.message", ""),
    ("sim.codec", ""),
    ("sim.framing", ""),
    ("sim.pool", ""),
    ("runtime.transport", ""),
    ("runtime.serving", " publish"),
];

fn row_of(op: Op) -> usize {
    ROWS.iter()
        .position(|&row| row == (op.layer(), op.part()))
        .expect("every op has a row")
}

/// Turns the replay's per-op costs into the per-round budget.
///
/// A socket hop's span covers the length-prefix framing inside the
/// transport, so the framing cost measured on its own is taken off
/// `runtime.transport` and shown as `sim.framing`.
pub fn budget(b: &Bench, rec: &ReplayCosts, micro: &Micro, round_us: f64) -> Budget {
    let rounds = rec.rounds.max(1) as f64;
    let workers = b.spec.workers as f64;
    let mut rows: Vec<BudgetRow> = ROWS
        .iter()
        .map(|&(layer, part)| BudgetRow {
            layer,
            part,
            calls_per_round: 0.0,
            self_us: 0.0,
            critical_us: 0.0,
            share: 0.0,
        })
        .collect();
    for op in OPS {
        let cost = rec.cost(op);
        let row = &mut rows[row_of(op)];
        row.calls_per_round += cost.calls as f64 / rounds;
        row.self_us += cost.total_ns() as f64 / 1e3 / rounds;
        row.critical_us += (cost.platform_ns as f64 + cost.node_ns as f64 / workers) / 1e3 / rounds;
    }
    if b.spec.link == Link::Tcp {
        let hops = (rec.cost(Op::HopDown).calls + rec.cost(Op::HopUp).calls) as f64 / rounds;
        let t = row_of(Op::HopDown);
        let framing = (hops * (micro.prefix_us + micro.next_frame_us)).min(rows[t].self_us);
        rows[t].self_us -= framing;
        rows[t].critical_us -= framing;
        let f = ROWS
            .iter()
            .position(|&(layer, _)| layer == "sim.framing")
            .expect("framing has a row");
        rows[f].calls_per_round = 2.0 * hops;
        rows[f].self_us = framing;
        rows[f].critical_us = framing;
    }
    for row in &mut rows {
        row.share = row.critical_us / round_us;
    }
    let explained: f64 = rows.iter().map(|r| r.share).sum();
    Budget {
        rows,
        round_us,
        replay_round_us: rec.round_ns as f64 / 1e3 / rounds,
        unexplained_share: 1.0 - explained,
    }
}

/// Physical bytes of one update frame over its dense size; 0 when the
/// workload's codec is `none`.
pub fn codec_ratio(b: &Bench) -> f64 {
    if b.spec.codec.is_none() {
        return 0.0;
    }
    let dim = b.theta0.len();
    encoded_frame_len(dim) as f64 / compressed_frame_len(b.spec.codec, dim) as f64
}
