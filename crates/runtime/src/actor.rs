//! Node actors: the edge side of the runtime.
//!
//! In process, the actors are the nodes of a [`Fleet`]. The platform
//! posts each broadcast once: the frozen frame and the nodes it reached.
//! A fixed pool of worker OS threads claims those nodes a chunk at a
//! time until none are left, then waits on a condvar for the next post.
//! No worker owns a node: whichever claims it steps it, from the node's
//! own slot (its I/O counters and its top-k residual). A node's reply
//! depends only on the broadcast frame, the node id and that slot —
//! never on which worker claimed it — so a run with 1 worker and a run
//! with 8 do exactly the same floating-point work. Out of process,
//! [`run_transport_peer`] drives a single node over a socket link until
//! the link ends. The virtual-time driver (`crate::runner`) answers its
//! broadcasts in-line with the same step, [`step_reply`].
//!
//! There is deliberately no fixed per-round schedule on the node side:
//! the platform's recovery loop may re-broadcast a rolled-back round,
//! so the broadcasts *are* the schedule and actors simply answer
//! whatever arrives.
//!
//! The actor's round is pure message-plumbing around the trainer's
//! extracted step:
//!
//! 1. take the platform's `GlobalModel` frame: a claimed post in
//!    process, or a receive on the link (with a wall-clock timeout as a
//!    liveness net) out of process;
//! 2. decode it — the hardened [`fml_sim::MessageView::parse`] runs on
//!    every hop, counting (never panicking on) malformed frames;
//! 3. run the trainer's `T0` local steps via
//!    [`fml_core::LocalStepper::local_update_into`], on the worker's own
//!    [`fml_core::Scratch`] and into its reused update buffer;
//! 4. apply any scheduled corrupt fault, encode a `ModelUpdate` frame —
//!    with the step's curve terms as its trailer when the stepper
//!    yields them — and hand it to the uplink, keeping no copy.
//!
//! Crash faults are honoured by *not* stepping the node that round —
//! the platform consults the same pure [`fml_core::FaultPlan`] and skips the
//! broadcast, so neither side waits on the other. No actor ever sleeps.

use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use fml_core::faults::corrupt;
use fml_core::{ErrorFeedback, Fault, LocalStepper, Scratch, SourceTask};
use fml_models::Model;
use fml_sim::message::{encode_update_into, encoded_frame_len, put_curve_terms};
use fml_sim::{
    compressed_frame_len, curve_trailer_len, encode_update_compressed_into, logical_frame_len,
    CodecScratch, CompressedView, FramePool, MessageView,
};

use crate::config::RuntimeConfig;
use crate::lock;
use crate::report::NodeIo;
use crate::transport::{Transport, TransportError};

/// Consecutive receive timeouts after which a remote peer concludes the
/// platform is gone and exits. One timeout is a missed round (crash
/// fault or dropped broadcast) and is survivable; a long silent streak
/// means the run ended without a clean close.
const MAX_TIMEOUT_MISSES: u32 = 10;

/// What a node keeps between rounds, whoever steps it: its I/O counters
/// and, under top-k, the residual error feedback folds back in.
pub(crate) struct NodeSlot {
    io: NodeIo,
    feedback: ErrorFeedback,
}

impl NodeSlot {
    pub(crate) fn new(node: usize) -> Self {
        NodeSlot {
            io: NodeIo {
                node,
                ..NodeIo::default()
            },
            feedback: ErrorFeedback::new(),
        }
    }
}

/// The in-process fleet: the one posted round, its claim word, and
/// every node's slot. The platform posts and retracts; the workers wait
/// for a post and claim its nodes.
pub(crate) struct Fleet {
    post: Mutex<Post>,
    /// Signalled by every post and by the close.
    posted: Condvar,
    /// The posted round's sequence number (high half) and its next
    /// unclaimed target (low half). A claim made against any other
    /// sequence takes nothing, so a worker still finishing round `r`
    /// cannot take round `r + 1`'s nodes.
    claim: AtomicU64,
    /// One per node; a worker holds a node's lock for its whole step.
    slots: Vec<Mutex<NodeSlot>>,
    workers: usize,
    /// Replies a full uplink refused; each was recycled, and the
    /// platform counts it undelivered.
    pub(crate) refused: AtomicU64,
}

/// A broadcast as the platform posted it.
#[derive(Default)]
struct Post {
    seq: u32,
    /// The broadcast, until the driver retracts it at the round's end.
    frame: Option<Bytes>,
    /// The nodes it reached, ascending; the buffer is reused.
    targets: Vec<usize>,
    closed: bool,
}

impl Fleet {
    /// A fleet of `nodes` actors for `workers` threads to step.
    pub(crate) fn new(nodes: usize, workers: usize) -> Self {
        Fleet {
            post: Mutex::new(Post {
                targets: Vec::with_capacity(nodes),
                ..Post::default()
            }),
            posted: Condvar::new(),
            claim: AtomicU64::new(0),
            slots: (0..nodes)
                .map(|node| Mutex::new(NodeSlot::new(node)))
                .collect(),
            workers,
            refused: AtomicU64::new(0),
        }
    }

    /// Posts `frame` to the nodes `reach` pushes, in ascending order,
    /// and wakes the workers.
    pub(crate) fn post(&self, frame: &Bytes, reach: impl FnOnce(&mut Vec<usize>)) {
        let mut post = lock(&self.post);
        post.targets.clear();
        reach(&mut post.targets);
        post.frame = Some(frame.clone());
        post.seq = post.seq.wrapping_add(1);
        self.claim.store(u64::from(post.seq) << 32, Relaxed);
        drop(post);
        self.posted.notify_all();
    }

    /// Lets go of the posted frame at the round's end, so whichever
    /// handle on it drops last — the driver's or a worker's — recycles
    /// its buffer. A worker that wakes later claims nothing.
    pub(crate) fn retract(&self) {
        lock(&self.post).frame = None;
    }

    /// Ends the run: each worker returns once it has stepped what it
    /// claimed. Idempotent.
    pub(crate) fn close(&self) {
        lock(&self.post).closed = true;
        self.posted.notify_all();
    }

    /// Every node's counters, in node order.
    pub(crate) fn io(&self) -> Vec<NodeIo> {
        self.slots.iter().map(|s| lock(s).io.clone()).collect()
    }

    /// Waits for a post newer than `seen` that still holds its frame,
    /// copies its targets into `targets`, and returns its sequence and a
    /// handle on its frame; `None` once the fleet is closed.
    fn next(&self, seen: u32, targets: &mut Vec<usize>) -> Option<(u32, Bytes)> {
        let mut post = lock(&self.post);
        while !post.closed {
            if let Some(frame) = post.frame.as_ref().filter(|_| post.seq != seen) {
                let frame = frame.clone();
                targets.clone_from(&post.targets);
                return Some((post.seq, frame));
            }
            post = self
                .posted
                .wait(post)
                .unwrap_or_else(PoisonError::into_inner);
        }
        None
    }

    /// Claims the next `chunk` of post `seq`'s `len` targets; `None` once
    /// they are all claimed or a later round has been posted.
    fn claim(&self, seq: u32, chunk: usize, len: usize) -> Option<Range<usize>> {
        // The claim word's low half is the next unclaimed target. It
        // publishes nothing, so `Relaxed` suffices: the targets travel
        // under the post's mutex, which also orders the post's store
        // before every claim made against it.
        let next = |word: u64| word as u32 as usize;
        let end = |word| (next(word) + chunk).min(len);
        let tag = u64::from(seq) << 32;
        let taken = self.claim.fetch_update(Relaxed, Relaxed, |word| {
            (word >> 32 == u64::from(seq) && next(word) < len).then(|| tag | end(word) as u64)
        });
        taken.ok().map(|word| next(word)..end(word))
    }
}

/// The driver's hold on the fleet. Dropping it closes the fleet, so a
/// driver that panics still lets the workers return for the scope to
/// join.
pub(crate) struct FleetGuard<'a>(pub(crate) &'a Fleet);

impl Drop for FleetGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
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

/// Per-worker reusable storage: the decoded-global buffer, sized once to
/// the model, what the stepper computes on and writes its update into,
/// and the frame pool handle replies are encoded through. One per
/// worker thread (or transport peer), so the steady-state round touches
/// no allocator: the step performs no allocation, and a reply frame is
/// a recycled pool buffer frozen into its own recycled refcount block
/// (a pool miss only while the fleet's frames first come live).
pub(crate) struct StepScratch {
    global: Vec<f64>,
    step: Scratch,
    update: Vec<f64>,
    pool: FramePool,
    /// Encode-side scratch for the compressed codecs (top-k index
    /// selection buffer); unused and untouched under `None`.
    codec: CodecScratch,
}

impl StepScratch {
    pub(crate) fn new(ctx: &WorkerCtx<'_>) -> Self {
        let step = Scratch::for_model(ctx.model);
        StepScratch {
            global: vec![0.0; ctx.model.param_len()],
            // Asked for only when the platform will take them.
            step: if ctx.stepper.yields_curve_terms() {
                step.with_curve_terms()
            } else {
                step
            },
            update: Vec::new(),
            pool: FramePool::global().handle(),
            codec: CodecScratch::default(),
        }
    }
}

/// The shared per-broadcast step: decode (borrowed view, no payload
/// copy beyond the reused scratch), `steps` local iterations, apply a
/// corrupt fault, encode the reply into a pooled buffer. Counts the
/// received frame into the node's `slot`, and the reply frame too when
/// one is produced. Returns `None` (bumping its `decode_errors`) on an
/// unusable frame: one that is not a broadcast of the model's length.
pub(crate) fn step_reply(
    ctx: &WorkerCtx<'_>,
    node: usize,
    frame: &Bytes,
    steps: usize,
    scratch: &mut StepScratch,
    slot: &mut NodeSlot,
) -> Option<Bytes> {
    let io = &mut slot.io;
    io.frames_received += 1;
    io.bytes_received += frame.len() as u64;
    // Parse on receive: the hardened path runs on every hop.
    let broadcast_round = match MessageView::parse(frame) {
        Ok(view) if view.is_global() && view.len() == scratch.global.len() => {
            view.write_params(&mut scratch.global);
            view.round()
        }
        // A non-broadcast message, or a global of another model, is a
        // protocol violation; count it like any other unusable frame.
        Ok(_) | Err(_) => {
            io.decode_errors += 1;
            return None;
        }
    };
    // The fault is drawn at the round stamped on the broadcast, so an
    // out-of-process peer replays the same seeded schedule as an
    // in-process actor.
    let fault = ctx.cfg.ft.plan.draw(node, broadcast_round as usize);
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
        steps,
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
        slot.feedback.compensate(update);
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
    // The step's own curve terms at the broadcast ride back with the
    // update, so the platform need not evaluate this node's task.
    if let Some(terms) = scratch.step.curve_terms() {
        put_curve_terms(&mut buf, terms);
    }
    let reply = buf.freeze();
    if codec.wants_feedback() {
        // Residual = compensated − what the platform will decode, read
        // back from the frame we just encoded so an encode bug surfaces
        // as residual drift instead of silent loss.
        let view = CompressedView::parse(&reply).expect("own frame parses");
        slot.feedback.absorb(update, view.params_iter());
    }
    io.frames_sent += 1;
    io.bytes_sent += reply.len() as u64;
    // What the same update would have cost as a dense tag-2 frame, with
    // the same trailer: the numerator of the uplink compression ratio.
    io.bytes_sent_logical += logical_frame_len(&reply).unwrap_or(reply.len()) as u64;
    io.trailer_bytes_sent += curve_trailer_len(&reply) as u64;
    Some(reply)
}

/// A worker of the in-process fleet: takes each post, claims its
/// targets a chunk at a time until none are left, and steps every
/// claimed node from its slot, handing the reply to the bounded
/// `uplink` with `try_send`: a worker never blocks on it. A reply the
/// full uplink refuses is recycled and counted in the fleet's
/// [`refused`](Fleet::refused). Returns once the fleet closes.
pub(crate) fn worker_loop(ctx: &WorkerCtx<'_>, fleet: &Fleet, uplink: SyncSender<Bytes>) {
    let mut scratch = StepScratch::new(ctx);
    let mut targets = Vec::new();
    let mut seen = 0;
    let steps = ctx.stepper.local_steps();
    while let Some((seq, frame)) = fleet.next(seen, &mut targets) {
        seen = seq;
        // About 64 claims a worker a round: a worker that finishes early
        // takes over the tail, and claims stay rare.
        let chunk = (targets.len() / (64 * fleet.workers)).max(1);
        while let Some(claimed) = fleet.claim(seq, chunk, targets.len()) {
            for &node in &targets[claimed] {
                let mut slot = lock(&fleet.slots[node]);
                if let Some(reply) = step_reply(ctx, node, &frame, steps, &mut scratch, &mut slot) {
                    // The uplink takes the only handle, so the platform's
                    // recycle gets the buffer back. It outlives the
                    // workers, so only a full one refuses.
                    if let Err(TrySendError::Full(reply) | TrySendError::Disconnected(reply)) =
                        uplink.try_send(reply)
                    {
                        fleet.refused.fetch_add(1, Relaxed);
                        scratch.pool.recycle(reply);
                    }
                }
            }
        }
        // The broadcast clone is spent; the last handle to go recycles
        // the round's single encode for reuse.
        scratch.pool.recycle(frame);
    }
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
    let mut slot = NodeSlot::new(node);
    let mut scratch = StepScratch::new(ctx);
    let mut hello = BytesMut::with_capacity(encoded_frame_len(0));
    encode_update_into(0, node as u32, &[], &mut hello);
    if link.send(hello.freeze()).is_err() {
        link.close();
        return slot.io;
    }
    let recv_timeout = Duration::from_millis(ctx.cfg.recv_timeout_ms);
    let steps = ctx.stepper.local_steps();
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
        let reply = step_reply(ctx, node, &frame, steps, &mut scratch, &mut slot);
        scratch.pool.recycle(frame);
        if let Some(reply) = reply {
            if link.send(reply).is_err() {
                break;
            }
        }
    }
    link.close();
    slot.io
}

#[cfg(test)]
mod tests {
    use super::*;

    fn everyone(targets: &mut Vec<usize>) {
        targets.extend(0..4);
    }

    /// A worker still holding round `r`'s sequence takes nothing once
    /// round `r + 1` is posted, and round `r + 1`'s claims then cover
    /// its targets from the first, each once.
    #[test]
    fn a_claim_against_an_older_post_takes_nothing() {
        let fleet = Fleet::new(4, 2);
        let frame = Bytes::copy_from_slice(&[0x82]);
        let mut targets = Vec::new();
        fleet.post(&frame, everyone);
        let (r, _) = fleet.next(0, &mut targets).expect("posted");
        assert_eq!(targets, [0, 1, 2, 3]);
        assert_eq!(fleet.claim(r, 1, 4), Some(0..1));
        fleet.post(&frame, everyone);
        assert_eq!(
            fleet.claim(r, 1, 4),
            None,
            "round r's claim after r + 1 is posted"
        );
        let (next, _) = fleet.next(r, &mut targets).expect("posted");
        assert_eq!(next, r + 1);
        assert_eq!(fleet.claim(next, 3, 4), Some(0..3));
        assert_eq!(fleet.claim(next, 3, 4), Some(3..4));
        assert_eq!(fleet.claim(next, 3, 4), None);
    }

    /// A closed fleet hands out no post, even one a worker has not seen.
    #[test]
    fn a_closed_fleet_posts_nothing() {
        let fleet = Fleet::new(4, 1);
        fleet.post(&Bytes::copy_from_slice(&[0x82]), everyone);
        drop(FleetGuard(&fleet));
        assert!(fleet.next(0, &mut Vec::new()).is_none());
    }
}
