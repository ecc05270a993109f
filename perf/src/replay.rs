//! The replayed round: the benchmark performs one round's call sequence
//! itself, through the same public functions the runtime calls, on the
//! workload's own frames, tasks and a transport pair of the workload's
//! kind. Every call is a span, so a traced run can say where a round's
//! time goes without instrumenting the program; an untraced run uses
//! the same code to check that the replayed global is the runtime's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

use fml_core::gather::screen_update;
use fml_core::{aggregate, LocalStepper, UpdateValidation};
use fml_runtime::{
    AsyncPolicy, ChannelTransport, SharedGlobal, TcpTransport, TcpTransportListener, Transport,
    TransportListener,
};
use fml_sim::message::{encode_global_into, encoded_frame_len};
use fml_sim::{
    compressed_frame_len, encode_update_compressed_into, CodecScratch, CompressedView, FramePool,
    MessageView,
};

use crate::trace::Tracer;
use crate::workloads::{Bench, Link};

/// How long a replayed hop may wait for its own frame.
const HOP_TIMEOUT: Duration = Duration::from_secs(5);

/// One kind of call in the replayed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    PoolAcquire,
    PoolRecycle,
    EncodeGlobal,
    ParseCopy,
    EncodeUpdate,
    ParseUpdate,
    CodecEncode,
    CodecDecode,
    HopDown,
    HopUp,
    LocalUpdate,
    EvalLosses,
    Screen,
    Aggregate,
    Publish,
}

/// Every op, in declaration order (`OPS[op as usize] == op`).
pub const OPS: [Op; 15] = [
    Op::PoolAcquire,
    Op::PoolRecycle,
    Op::EncodeGlobal,
    Op::ParseCopy,
    Op::EncodeUpdate,
    Op::ParseUpdate,
    Op::CodecEncode,
    Op::CodecDecode,
    Op::HopDown,
    Op::HopUp,
    Op::LocalUpdate,
    Op::EvalLosses,
    Op::Screen,
    Op::Aggregate,
    Op::Publish,
];

impl Op {
    /// Span name: the public function the span wraps.
    pub fn span(self) -> &'static str {
        match self {
            Op::PoolAcquire => "FramePool::acquire",
            Op::PoolRecycle => "FramePool::recycle",
            Op::EncodeGlobal => "encode_global_into",
            Op::ParseCopy => "MessageView::parse+copy_params_into",
            Op::EncodeUpdate => "encode_update_into",
            Op::ParseUpdate => "MessageView::parse+params_to_vec",
            Op::CodecEncode => "encode_update_compressed_into",
            Op::CodecDecode => "CompressedView::parse+params_to_vec",
            Op::HopDown => "Transport::send_frame+recv_frame(down)",
            Op::HopUp => "Transport::send_frame+recv_frame(up)",
            Op::LocalUpdate => "LocalStepper::local_update",
            Op::EvalLosses => "LocalStepper::eval_losses",
            Op::Screen => "screen_update",
            Op::Aggregate => "aggregate",
            Op::Publish => "SharedGlobal::publish",
        }
    }

    /// What the budget table says after the layer's name.
    pub fn part(self) -> &'static str {
        match self {
            Op::LocalUpdate => " local_update (nodes)",
            Op::EvalLosses => " eval_losses (platform)",
            Op::Publish => " publish",
            _ => "",
        }
    }

    /// The module the call belongs to.
    pub fn layer(self) -> &'static str {
        match self {
            Op::PoolAcquire | Op::PoolRecycle => "sim.pool",
            Op::EncodeGlobal | Op::ParseCopy | Op::EncodeUpdate | Op::ParseUpdate => "sim.message",
            Op::CodecEncode | Op::CodecDecode => "sim.codec",
            Op::HopDown | Op::HopUp => "runtime.transport",
            Op::LocalUpdate => "core.step",
            // `LocalStepper::eval_losses` forwards to `core::trainer`'s
            // weighted losses; the platform calls it after every round.
            Op::EvalLosses => "core.trainer",
            Op::Screen | Op::Aggregate => "core.gather",
            Op::Publish => "runtime.serving",
        }
    }
}

/// Whose thread runs a call in the real runtime: the platform's event
/// loop (serial) or a node (spread over the workload's workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Platform,
    Node,
}

/// Calls and time of one op, summed over the replayed rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCost {
    pub calls: u64,
    pub platform_ns: u64,
    pub node_ns: u64,
}

impl OpCost {
    pub fn total_ns(&self) -> u64 {
        self.platform_ns + self.node_ns
    }

    /// Mean µs of one call; 0 when the round never makes it.
    pub fn per_call_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns() as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Keeps the host's other processor busy while the replay times calls
/// that, in the runtime, run beside another busy thread. The runtime's
/// workers each compute next to the other (and the live workload's
/// trainer next to its server), and two busy threads of this host are
/// each slower than one alone; a call timed on an otherwise idle host
/// would be cheaper than the same call inside a round. With the other
/// processor loaded, node-side time divides by the literal worker count.
#[derive(Debug, Default)]
pub struct Ballast {
    wanted: AtomicBool,
    running: AtomicBool,
    quit: AtomicBool,
}

impl Ballast {
    /// The ballast thread's body: `work` over and over while wanted,
    /// parked otherwise, until [`quit`](Self::quit).
    pub fn run(&self, mut work: impl FnMut()) {
        while !self.quit.load(Ordering::Acquire) {
            if self.wanted.load(Ordering::Acquire) {
                self.running.store(true, Ordering::Release);
                work();
            } else {
                self.running.store(false, Ordering::Release);
                std::thread::park();
            }
        }
    }

    /// Starts or stops the load on `thread` (the one inside
    /// [`run`](Self::run)) and returns once it has.
    fn set(&self, thread: &Thread, on: bool) {
        self.wanted.store(on, Ordering::Release);
        thread.unpark();
        while self.running.load(Ordering::Acquire) != on {
            std::hint::spin_loop();
        }
    }

    /// Ends [`run`](Self::run).
    pub fn quit(&self, thread: &Thread) {
        self.quit.store(true, Ordering::Release);
        thread.unpark();
    }
}

/// Where replay spans go: nowhere (the bitwise check), or into the
/// tracer and the per-op budget (a traced run).
pub struct Recorder<'t> {
    tracer: Option<&'t mut Tracer>,
    ballast: Option<(&'t Ballast, &'t Thread)>,
    /// Cost of an empty span (two `Instant::now` calls), taken off
    /// every recorded duration so 50 ns calls are not doubled.
    timer_ns: u64,
    parent: u32,
    round: u32,
    costs: ReplayCosts,
}

/// What the replayed rounds cost, per op.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCosts {
    costs: [OpCost; OPS.len()],
    pub rounds: u64,
    /// Wall time of the replayed rounds, start to end.
    pub round_ns: u64,
}

impl ReplayCosts {
    pub fn cost(&self, op: Op) -> OpCost {
        self.costs[op as usize]
    }

    /// Adds what `more` rounds cost.
    pub fn add(&mut self, more: &ReplayCosts) {
        for (mine, theirs) in self.costs.iter_mut().zip(&more.costs) {
            mine.calls += theirs.calls;
            mine.platform_ns += theirs.platform_ns;
            mine.node_ns += theirs.node_ns;
        }
        self.rounds += more.rounds;
        self.round_ns += more.round_ns;
    }
}

impl<'t> Recorder<'t> {
    /// A recorder that times nothing.
    pub fn off() -> Recorder<'static> {
        Recorder {
            tracer: None,
            ballast: None,
            timer_ns: 0,
            parent: 0,
            round: 0,
            costs: ReplayCosts::default(),
        }
    }

    /// A recorder writing spans into `tracer`, with `ballast` running
    /// on `thread`.
    pub fn on(tracer: &'t mut Tracer, ballast: &'t Ballast, thread: &'t Thread) -> Recorder<'t> {
        let mut samples: Vec<u64> = (0..2_000)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        Recorder {
            timer_ns: samples[samples.len() / 2],
            tracer: Some(tracer),
            ballast: Some((ballast, thread)),
            ..Recorder::off()
        }
    }

    fn time<T>(&mut self, op: Op, side: Side, f: impl FnOnce() -> T) -> T {
        if self.tracer.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(op, side, start, Instant::now());
        out
    }

    fn record(&mut self, op: Op, side: Side, start: Instant, end: Instant) {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return;
        };
        tracer.record(op.span(), start, end, self.parent, self.round);
        let ns = ((end - start).as_nanos() as u64).saturating_sub(self.timer_ns);
        let cost = &mut self.costs.costs[op as usize];
        cost.calls += 1;
        match side {
            Side::Platform => cost.platform_ns += ns,
            Side::Node => cost.node_ns += ns,
        }
    }

    /// Loads (or frees) the host's other processor for the calls that
    /// follow.
    fn contend(&self, on: bool) {
        if let Some((ballast, thread)) = self.ballast {
            ballast.set(thread, on);
        }
    }

    fn begin_round(&mut self, round: u32) -> Instant {
        let start = Instant::now();
        self.round = round;
        if let Some(tracer) = self.tracer.as_deref_mut() {
            self.parent = tracer.open("replay.round", start, 0, round);
        }
        start
    }

    fn end_round(&mut self, start: Instant) {
        let end = Instant::now();
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.close(self.parent, end);
        }
        self.parent = 0;
        self.costs.rounds += 1;
        self.costs.round_ns += (end - start).as_nanos() as u64;
    }

    /// Ends the recording and hands back what the rounds cost.
    pub fn finish(self) -> ReplayCosts {
        self.contend(false);
        self.costs
    }
}

/// A connected `(platform end, node end)` pair of the workload's
/// transport kind.
pub fn transport_pair(link: Link) -> (Box<dyn Transport>, Box<dyn Transport>) {
    match link {
        Link::Channel => {
            let (plat, node) = ChannelTransport::pair(2);
            (Box::new(plat), Box::new(node))
        }
        Link::Tcp => {
            let mut listener = TcpTransportListener::bind("127.0.0.1:0").expect("bind loopback");
            let node = TcpTransport::connect(&listener.local_addr()).expect("connect loopback");
            let plat = listener.accept(HOP_TIMEOUT).expect("accept loopback");
            (plat, Box::new(node))
        }
    }
}

/// State the replay keeps between rounds, mirroring what the runtime's
/// platform and workers keep.
pub struct Replayer<'a> {
    b: &'a Bench,
    plat: Box<dyn Transport>,
    node: Box<dyn Transport>,
    pool: FramePool,
    decoded_global: Vec<f64>,
    codec_scratch: CodecScratch,
    /// Set when the workload trains with a publisher attached. The
    /// replay's own handle, never the served one: replayed globals must
    /// not reach a client.
    publisher: Option<SharedGlobal>,
}

impl<'a> Replayer<'a> {
    pub fn new(b: &'a Bench) -> Self {
        let (plat, node) = transport_pair(b.spec.link);
        Replayer {
            b,
            plat,
            node,
            pool: FramePool::global().handle(),
            decoded_global: Vec::new(),
            codec_scratch: CodecScratch::default(),
            publisher: b.spec.concurrent.then(SharedGlobal::new),
        }
    }

    /// Replays round `round` from `global`. Returns what the runtime
    /// would hold as its parameters after that round: on a barrier
    /// workload the re-aggregated copy `Runtime` reports (bitwise), on
    /// the async workload a fresh-arrivals-only fold (shape and
    /// finiteness only — the real fold order follows the virtual
    /// clock).
    pub fn round(&mut self, round: u32, global: &[f64], rec: &mut Recorder<'_>) -> Vec<f64> {
        let spec = &self.b.spec;
        let model = self.b.model.as_ref();
        let tasks = &self.b.tasks;
        let trainer = spec.trainer(1);
        let dim = global.len();
        let started = rec.begin_round(round);

        let pool = &self.pool;
        let mut buf = rec.time(Op::PoolAcquire, Side::Platform, || {
            pool.acquire(encoded_frame_len(dim))
        });
        rec.time(Op::EncodeGlobal, Side::Platform, || {
            encode_global_into(round, global, &mut buf)
        });
        let frame = buf.freeze();

        // Nodes compute beside each other and beside the platform's
        // collect loop; the live workload's trainer also aggregates and
        // evaluates beside its server, a barrier platform does so alone.
        rec.contend(true);
        let mut locals: Vec<Vec<f64>> = Vec::with_capacity(tasks.len());
        for (node, task) in tasks.iter().enumerate() {
            let (plat, node_end) = (&mut self.plat, &mut self.node);
            let bcast = rec.time(Op::HopDown, Side::Platform, || {
                plat.send_frame(&frame).expect("replay: send broadcast");
                node_end
                    .recv_frame(HOP_TIMEOUT)
                    .expect("replay: recv broadcast")
            });
            let decoded = &mut self.decoded_global;
            rec.time(Op::ParseCopy, Side::Node, || {
                let view = MessageView::parse(&bcast).expect("replay: own broadcast parses");
                view.copy_params_into(decoded);
            });
            let update = rec.time(Op::LocalUpdate, Side::Node, || {
                trainer.local_update(model, task, &self.decoded_global, spec.local_steps)
            });
            let mut buf = rec.time(Op::PoolAcquire, Side::Node, || {
                pool.acquire(compressed_frame_len(spec.codec, update.len()))
            });
            let encode = if spec.codec.is_none() {
                Op::EncodeUpdate
            } else {
                Op::CodecEncode
            };
            let scratch = &mut self.codec_scratch;
            rec.time(encode, Side::Node, || {
                encode_update_compressed_into(
                    spec.codec,
                    round,
                    node as u32,
                    &update,
                    scratch,
                    &mut buf,
                )
            });
            let reply = buf.freeze();
            rec.time(Op::PoolRecycle, Side::Node, || pool.recycle(bcast));

            let got = rec.time(Op::HopUp, Side::Platform, || {
                node_end.send_frame(&reply).expect("replay: send update");
                plat.recv_frame(HOP_TIMEOUT).expect("replay: recv update")
            });
            // The sender's handle goes first, as in the actor, so the
            // platform's recycle below reclaims the storage.
            drop(reply);
            // Decode routing is the frame's, as in the platform: the
            // dense parser is tried first and refuses a compressed tag.
            let decode_started = Instant::now();
            let (decode, local) = match MessageView::parse(&got) {
                Ok(view) => (Op::ParseUpdate, view.params_to_vec()),
                Err(_) => (
                    Op::CodecDecode,
                    CompressedView::parse(&got)
                        .expect("replay: own update parses")
                        .params_to_vec(),
                ),
            };
            rec.record(decode, Side::Platform, decode_started, Instant::now());
            rec.time(Op::PoolRecycle, Side::Platform, || pool.recycle(got));
            locals.push(local);
        }
        rec.time(Op::PoolRecycle, Side::Platform, || pool.recycle(frame));
        rec.contend(spec.concurrent);

        let params = if spec.async_mode {
            let policy = AsyncPolicy::default().with_max_staleness(2);
            let validation = UpdateValidation::default();
            let mut next = global.to_vec();
            for (task, local) in tasks.iter().zip(&mut locals) {
                rec.time(Op::Screen, Side::Platform, || {
                    screen_update(local, &validation)
                });
                let w = policy.weight(task.weight, tasks.len(), 0);
                rec.time(Op::Aggregate, Side::Platform, || {
                    for (g, &u) in next.iter_mut().zip(local.iter()) {
                        *g = (1.0 - w) * *g + w * u;
                    }
                });
            }
            rec.time(Op::EvalLosses, Side::Platform, || {
                trainer.eval_losses(model, tasks, &next)
            });
            next
        } else {
            // The runtime's exact path: aggregate the locals, then
            // evaluate and report the re-aggregation of n copies.
            let avg = rec.time(Op::Aggregate, Side::Platform, || {
                let next = aggregate(tasks, &locals);
                let copies = vec![next; tasks.len()];
                aggregate(tasks, &copies)
            });
            rec.time(Op::EvalLosses, Side::Platform, || {
                trainer.eval_losses(model, tasks, &avg)
            });
            avg
        };
        if let Some(shared) = &self.publisher {
            rec.time(Op::Publish, Side::Platform, || {
                shared.publish(round, &params)
            });
        }
        rec.end_round(started);
        params
    }
}
