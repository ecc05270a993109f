//! Node actors: the edge side of the runtime.
//!
//! Every source node is an actor behind a [`Transport`] link. In
//! process, actors are multiplexed onto a fixed pool of worker OS
//! threads (contiguous chunks, like `fml_core::parallel`): each worker
//! sweeps its nodes in index order, servicing whichever have a frame
//! queued, until the platform closes the links. A node's reply depends
//! only on the broadcast frame and the node id — never on sweep timing
//! — so a run with 1 worker and a run with 8 do exactly the same
//! floating-point work. Out of process, [`run_transport_peer`] drives a
//! single node over a socket link until the link ends.
//!
//! There is deliberately no fixed per-round schedule on the node side:
//! the platform's recovery loop may re-broadcast a rolled-back round,
//! so the broadcasts *are* the schedule and actors simply answer
//! whatever arrives.
//!
//! The actor's round is pure message-plumbing around the trainer's
//! extracted step:
//!
//! 1. block (with a wall-clock timeout as a liveness net) on the link
//!    for the platform's `GlobalModel` frame;
//! 2. decode it — the hardened [`fml_sim::MessageView::parse`] runs on
//!    every hop, counting (never panicking on) malformed frames;
//! 3. run the trainer's `T0` local steps via
//!    [`fml_core::LocalStepper::local_update_into`], on the worker's own
//!    [`fml_core::Scratch`] and into its reused update buffer;
//! 4. apply any scheduled corrupt fault, encode a `ModelUpdate` frame,
//!    and send it back up the link.
//!
//! Crash faults are honoured by *not* touching the link that round —
//! the platform consults the same pure [`fml_core::FaultPlan`] and skips the
//! broadcast, so neither side waits on the other. Straggle faults are
//! virtual-time only (the platform adds the delay when triaging), so no
//! actor ever sleeps.

use std::time::Duration;

use bytes::{Bytes, BytesMut};
use fml_core::faults::corrupt;
use fml_core::{ErrorFeedback, Fault, LocalStepper, Scratch, SourceTask};
use fml_models::Model;
use fml_sim::message::{encode_update_into, encoded_frame_len};
use fml_sim::{
    compressed_frame_len, encode_update_compressed_into, CodecScratch, CompressedView, FramePool,
    MessageView,
};

use crate::config::RuntimeConfig;
use crate::report::NodeIo;
use crate::transport::{ChannelTransport, Transport, TransportError};

/// Consecutive receive timeouts after which a remote peer concludes the
/// platform is gone and exits. One timeout is a missed round (crash
/// fault or dropped broadcast) and is survivable; a long silent streak
/// means the run ended without a clean close.
const MAX_TIMEOUT_MISSES: u32 = 10;

/// How long an in-process worker sleeps when none of its actors had a
/// frame queued. Pure liveness tuning: results never depend on it.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// One node's actor state: its link and I/O counters.
pub(crate) struct NodeActor {
    /// Node id (index into the task list).
    pub node: usize,
    /// The node end of the platform⇄node link.
    pub link: ChannelTransport,
    /// Frame/byte counters, measured at this node.
    pub io: NodeIo,
    /// Cleared when the platform side disappears; the actor then stops
    /// servicing this node.
    pub alive: bool,
}

impl NodeActor {
    pub(crate) fn new(node: usize, link: ChannelTransport) -> Self {
        NodeActor {
            node,
            link,
            io: NodeIo {
                node,
                ..NodeIo::default()
            },
            alive: true,
        }
    }
}

/// Everything a worker thread needs, shared immutably across workers.
/// From `cfg` the node side reads the fault plan, the receive timeout
/// and the update codec ([`fml_sim::UpdateCodec::None`] keeps the historical
/// tag-2 reply frame bitwise; the compressing codecs emit wire v2 tag-6
/// frames and, for top-k, run error feedback).
pub(crate) struct WorkerCtx<'a> {
    pub stepper: &'a dyn LocalStepper,
    pub model: &'a dyn Model,
    pub tasks: &'a [SourceTask],
    pub cfg: &'a RuntimeConfig,
}

/// Per-worker reusable storage: the decoded-global scratch vector, what
/// the stepper computes on and writes its update into, and the frame
/// pool handle replies are encoded through. One per worker thread (or
/// transport peer), so the steady-state round touches the allocator only
/// for the frames themselves (a pool miss, the refcount behind a frozen
/// buffer) — the step performs no allocation.
struct StepScratch {
    global: Vec<f64>,
    step: Scratch,
    update: Vec<f64>,
    pool: FramePool,
    /// Encode-side scratch for the compressed codecs (top-k index
    /// selection buffer); unused and untouched under `None`.
    codec: CodecScratch,
    /// Error-feedback residuals for lossy codecs, keyed by node id
    /// because one worker services many node actors. Only top-k
    /// touches it — quantization error does not accumulate the way
    /// dropped coordinates do.
    feedback: ErrorFeedback,
}

impl StepScratch {
    fn new(model: &dyn Model) -> Self {
        StepScratch {
            global: Vec::new(),
            step: Scratch::for_model(model),
            update: Vec::new(),
            pool: FramePool::global().handle(),
            codec: CodecScratch::default(),
            feedback: ErrorFeedback::new(),
        }
    }
}

/// The shared per-broadcast step: decode (borrowed view, no payload
/// copy beyond the reused scratch), local-update, apply a corrupt
/// fault, encode the reply into a pooled buffer. Counts the received
/// frame into `io`, and the reply frame too when one is produced.
/// Returns `None` (bumping `io.decode_errors`) on an unusable frame.
fn step_reply(
    ctx: &WorkerCtx<'_>,
    node: usize,
    frame: &Bytes,
    scratch: &mut StepScratch,
    io: &mut NodeIo,
) -> Option<Bytes> {
    io.frames_received += 1;
    io.bytes_received += frame.len() as u64;
    // Parse on receive: the hardened path runs on every hop.
    let broadcast_round = match MessageView::parse(frame) {
        Ok(view) if view.is_global() => {
            view.copy_params_into(&mut scratch.global);
            view.round()
        }
        // A non-broadcast message here is a protocol violation; count
        // it like any other unusable frame.
        Ok(_) | Err(_) => {
            io.decode_errors += 1;
            return None;
        }
    };
    // The fault is drawn at the round stamped on the broadcast, so an
    // out-of-process peer replays the same seeded schedule as an
    // in-process actor.
    let fault = ctx.cfg.faults.draw(node, broadcast_round as usize);
    if matches!(fault, Some(Fault::Crash)) {
        // Defensive: the platform skips crashed nodes, so a broadcast
        // for a crashed round should never arrive. Honour the plan.
        return None;
    }
    let update = &mut scratch.update;
    ctx.stepper.local_update_into(
        ctx.model,
        &ctx.tasks[node],
        &scratch.global,
        ctx.stepper.local_steps(),
        &mut scratch.step,
        update,
    );
    if let Some(Fault::Corrupt) = fault {
        corrupt(update);
    }
    let codec = ctx.cfg.update_codec;
    if codec.wants_feedback() {
        // Fold in what previous rounds' compression dropped before
        // selecting this round's survivors.
        scratch.feedback.compensate(node as u32, update);
    }
    let mut buf = scratch
        .pool
        .acquire(compressed_frame_len(codec, update.len()));
    encode_update_compressed_into(
        codec,
        broadcast_round,
        node as u32,
        update,
        &mut scratch.codec,
        &mut buf,
    );
    let reply = buf.freeze();
    if codec.wants_feedback() {
        // Residual = compensated − what the platform will decode, read
        // back from the frame we just encoded so an encode bug surfaces
        // as residual drift instead of silent loss.
        let view = CompressedView::parse(&reply).expect("own frame parses");
        scratch.feedback.absorb(node as u32, update, view.params_iter());
    }
    io.frames_sent += 1;
    io.bytes_sent += reply.len() as u64;
    // What the same update would have cost as a dense tag-2 frame: the
    // denominator of the uplink compression ratio.
    io.bytes_sent_logical += encoded_frame_len(update.len()) as u64;
    Some(reply)
}

/// Services `actors` until the platform closes every link, then hands
/// back the counters of the nodes it owned. Event-driven: each sweep answers whatever broadcasts are
/// queued (including recovery re-broadcasts of rolled-back rounds) and
/// parks briefly when nothing is.
pub(crate) fn worker_loop(ctx: &WorkerCtx<'_>, mut actors: Vec<NodeActor>) -> Vec<NodeIo> {
    let mut scratch = StepScratch::new(ctx.model);
    loop {
        let mut any_live = false;
        let mut serviced = false;
        for actor in &mut actors {
            if !actor.alive {
                continue;
            }
            any_live = true;
            loop {
                let frame = match actor.link.recv_frame(Duration::ZERO) {
                    Ok(frame) => frame,
                    // Nothing queued right now; move to the next actor.
                    Err(TransportError::Timeout) => break,
                    // The platform dropped its end: this run is over.
                    Err(_) => {
                        actor.alive = false;
                        break;
                    }
                };
                serviced = true;
                let reply = step_reply(ctx, actor.node, &frame, &mut scratch, &mut actor.io);
                // The broadcast clone is spent; the last actor to drop
                // it recycles the round's single encode for reuse.
                scratch.pool.recycle(frame);
                let Some(reply) = reply else {
                    continue;
                };
                if actor.link.send_frame(&reply).is_err() {
                    actor.alive = false;
                    break;
                }
            }
        }
        if !any_live {
            break;
        }
        if !serviced {
            std::thread::sleep(IDLE_POLL);
        }
    }
    actors.into_iter().map(|a| a.io).collect()
}

/// Drives one node over an established link until the link dies: sends
/// the hello frame, then loops receive → decode → local update → reply.
/// The platform closes every link when the run ends (and may
/// re-broadcast rolled-back rounds before that), so the link's lifetime
/// — not a round count — bounds the loop. Used by
/// [`crate::Runtime::run_node`] for out-of-process peers.
///
/// Returns the node-side I/O counters (hello excluded — it is control
/// traffic, not training traffic).
pub(crate) fn run_transport_peer(
    ctx: &WorkerCtx<'_>,
    node: usize,
    link: &mut dyn Transport,
) -> NodeIo {
    let mut io = NodeIo {
        node,
        ..NodeIo::default()
    };
    let mut scratch = StepScratch::new(ctx.model);
    let mut hello = BytesMut::with_capacity(encoded_frame_len(0));
    encode_update_into(0, node as u32, &[], &mut hello);
    if link.send_frame(&hello.freeze()).is_err() {
        link.close();
        return io;
    }
    let recv_timeout = Duration::from_millis(ctx.cfg.recv_timeout_ms);
    let mut misses = 0u32;
    loop {
        let frame = match link.recv_frame(recv_timeout) {
            Ok(frame) => {
                misses = 0;
                frame
            }
            Err(TransportError::Timeout) => {
                misses += 1;
                if misses >= MAX_TIMEOUT_MISSES {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let reply = step_reply(ctx, node, &frame, &mut scratch, &mut io);
        scratch.pool.recycle(frame);
        if let Some(reply) = reply {
            if link.send_frame(&reply).is_err() {
                break;
            }
        }
    }
    link.close();
    io
}
