//! Link-level fault injection: a [`Transport`] decorator that drops,
//! delays, corrupts, or disconnects at the seam.
//!
//! [`FaultyTransport`] wraps any transport and applies a seeded
//! [`LinkFaultPlan`]: every fault is a pure function of the plan's seed
//! and a shared operation counter, so two runs of the same scenario
//! inject the same faults at the same frames — including across
//! [`Transport::try_clone`] splits, which share the counters.
//!
//! This composes with (and is orthogonal to) `fml_core::FaultPlan`:
//! the core plan models *node* behaviour (crash / corrupt at
//! the trainer), this decorator models the *wire* — lossy links, slow
//! links, bit rot in flight, and scripted disconnects for reconnect
//! tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use fml_core::faults::splitmix;
use fml_sim::message::encoded_frame_len;

use super::{Transport, TransportError};

/// Byte offset of the f64 payload in a versioned frame: the length of
/// a frame that carries none.
const PAYLOAD_OFFSET: usize = encoded_frame_len(0);

/// Seeded per-link fault schedule. All draws are pure in
/// `(seed, op, counter)`, so the schedule is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultPlan {
    /// Seed for every probability draw on this link.
    pub seed: u64,
    /// Probability a sent frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a sent frame's payload is overwritten with `0xFF`
    /// bytes (all-NaN parameters — caught by the validation screen).
    pub corrupt_prob: f64,
    /// `(probability, milliseconds)`: chance each received frame is
    /// held back by a real sleep before delivery.
    pub delay: Option<(f64, u64)>,
    /// Close the link when this many frames have been sent.
    pub disconnect_after_sends: Option<u64>,
    /// Close the link when this many frames have been received — the
    /// next receive attempt fails, so a peer disconnects cleanly
    /// *between* rounds (deterministic cut point for reconnect tests).
    pub disconnect_after_recvs: Option<u64>,
}

impl LinkFaultPlan {
    /// A benign plan: no faults, but draws are still seeded so adding
    /// probabilities later keeps the schedule stable.
    pub fn new(seed: u64) -> Self {
        LinkFaultPlan {
            seed,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay: None,
            disconnect_after_sends: None,
            disconnect_after_recvs: None,
        }
    }

    /// Sets the send-drop probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0, 1]");
        self.drop_prob = p;
        self
    }

    /// Sets the send-corrupt probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "corrupt probability must be in [0, 1]"
        );
        self.corrupt_prob = p;
        self
    }

    /// Delays each received frame by `ms` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    pub fn with_delay(mut self, p: f64, ms: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "delay probability must be in [0, 1]");
        self.delay = Some((p, ms));
        self
    }

    /// Scripts a disconnect after `n` receives.
    pub fn with_disconnect_after_recvs(mut self, n: u64) -> Self {
        self.disconnect_after_recvs = Some(n);
        self
    }

    /// Whether this plan injects nothing at all.
    pub fn is_benign(&self) -> bool {
        self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.delay.is_none()
            && self.disconnect_after_sends.is_none()
            && self.disconnect_after_recvs.is_none()
    }

    /// A uniform draw in `[0, 1)` for operation `op` at counter `idx`.
    fn unit(&self, op: u64, idx: u64) -> f64 {
        // The SplitMix64 finalizer of `seed·γ + op·c₁ + idx·c₂`:
        // `splitmix` adds the one `γ` that `seed − 1` leaves out.
        let x = self
            .seed
            .wrapping_sub(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(op.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(idx.wrapping_mul(0x94D0_49BB_1331_11EB));
        (splitmix(x) >> 11) as f64 / (1u64 << 53) as f64
    }
}

const OP_DROP: u64 = 1;
const OP_CORRUPT: u64 = 2;
const OP_DELAY: u64 = 3;

/// Counters a [`FaultyTransport`] and its clones share, exposed for
/// test assertions.
#[derive(Debug, Default)]
pub struct LinkFaultStats {
    /// Frames silently dropped on send.
    pub dropped: u64,
    /// Frames whose payload was overwritten on send.
    pub corrupted: u64,
    /// Frames delayed on receive.
    pub delayed: u64,
}

#[derive(Debug, Default)]
struct Shared {
    sends: AtomicU64,
    recvs: AtomicU64,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
    disconnected: AtomicBool,
}

/// A [`Transport`] decorator injecting seeded link faults.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: LinkFaultPlan,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("plan", &self.plan)
            .finish()
    }
}

impl FaultyTransport {
    /// Wraps a transport with a fault plan.
    pub fn new(inner: Box<dyn Transport>, plan: LinkFaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            shared: Arc::new(Shared::default()),
        }
    }

    /// Injection counters, shared with every clone of this link.
    pub fn stats(&self) -> LinkFaultStats {
        LinkFaultStats {
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            corrupted: self.shared.corrupted.load(Ordering::Relaxed),
            delayed: self.shared.delayed.load(Ordering::Relaxed),
        }
    }

    fn scripted_disconnect(&mut self) -> TransportError {
        self.shared.disconnected.store(true, Ordering::Relaxed);
        self.inner.close();
        TransportError::Closed
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, frame: Bytes) -> Result<(), TransportError> {
        if self.shared.disconnected.load(Ordering::Relaxed) {
            return Err(TransportError::Closed);
        }
        let idx = self.shared.sends.fetch_add(1, Ordering::Relaxed);
        if let Some(n) = self.plan.disconnect_after_sends {
            if idx >= n {
                return Err(self.scripted_disconnect());
            }
        }
        if self.plan.drop_prob > 0.0 && self.plan.unit(OP_DROP, idx) < self.plan.drop_prob {
            // The frame vanishes on the wire; the sender sees success,
            // exactly like a lossy network.
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if self.plan.corrupt_prob > 0.0 && self.plan.unit(OP_CORRUPT, idx) < self.plan.corrupt_prob
        {
            self.shared.corrupted.fetch_add(1, Ordering::Relaxed);
            let mut bytes = frame.to_vec();
            if bytes.len() > PAYLOAD_OFFSET {
                // All-0xFF payload decodes as NaN parameters: the frame
                // stays structurally valid and the poison is caught by
                // the platform's validation screen, not the decoder.
                for b in &mut bytes[PAYLOAD_OFFSET..] {
                    *b = 0xFF;
                }
            } else {
                // Too short to carry parameters — mangle the header so
                // the decoder rejects it instead.
                for b in &mut bytes {
                    *b ^= 0x55;
                }
            }
            return self.inner.send(Bytes::from(bytes));
        }
        self.inner.send(frame)
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Bytes, TransportError> {
        if self.shared.disconnected.load(Ordering::Relaxed) {
            return Err(TransportError::Closed);
        }
        if let Some(n) = self.plan.disconnect_after_recvs {
            if self.shared.recvs.load(Ordering::Relaxed) >= n {
                return Err(self.scripted_disconnect());
            }
        }
        let frame = self.inner.recv_frame(timeout)?;
        let idx = self.shared.recvs.fetch_add(1, Ordering::Relaxed);
        if let Some((p, ms)) = self.plan.delay {
            if p > 0.0 && ms > 0 && self.plan.unit(OP_DELAY, idx) < p {
                self.shared.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        Ok(frame)
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, TransportError> {
        Ok(Box::new(FaultyTransport {
            inner: self.inner.try_clone()?,
            plan: self.plan,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use fml_sim::MessageView;

    fn frame() -> Bytes {
        let mut buf = bytes::BytesMut::new();
        fml_sim::message::encode_global_into(3, &[1.0, -2.0], &mut buf);
        buf.freeze()
    }

    #[test]
    fn benign_plan_passes_frames_through_unchanged() {
        let (p, n) = ChannelTransport::pair(4);
        let mut tx = FaultyTransport::new(Box::new(p), LinkFaultPlan::new(1));
        let mut rx = FaultyTransport::new(Box::new(n), LinkFaultPlan::new(1));
        tx.send_frame(&frame()).unwrap();
        let got = rx.recv_frame(Duration::from_millis(100)).unwrap();
        assert_eq!(got.as_ref(), frame().as_ref());
        assert!(LinkFaultPlan::new(1).is_benign());
        assert_eq!(tx.kind(), "channel");
    }

    #[test]
    fn drop_prob_one_loses_every_frame_silently() {
        let (p, mut n) = ChannelTransport::pair(4);
        let mut tx = FaultyTransport::new(Box::new(p), LinkFaultPlan::new(2).with_drop(1.0));
        for _ in 0..3 {
            tx.send_frame(&frame()).unwrap();
        }
        assert_eq!(
            n.recv_frame(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
        assert_eq!(tx.stats().dropped, 3);
    }

    #[test]
    fn corrupt_prob_one_poisons_the_payload_with_nans() {
        let (p, mut n) = ChannelTransport::pair(4);
        let mut tx = FaultyTransport::new(Box::new(p), LinkFaultPlan::new(3).with_corrupt(1.0));
        tx.send_frame(&frame()).unwrap();
        let got = n.recv_frame(Duration::from_millis(100)).unwrap();
        let view = MessageView::parse(&got).expect("corrupted frame still decodes");
        assert_eq!(view.len(), 2, "header intact");
        assert!(view.params_iter().all(|x| x.is_nan()), "payload poisoned");
        assert_eq!(tx.stats().corrupted, 1);
    }

    #[test]
    fn scripted_send_disconnect_cuts_after_n_frames() {
        let (p, mut n) = ChannelTransport::pair(4);
        let mut tx = FaultyTransport::new(
            Box::new(p),
            LinkFaultPlan {
                disconnect_after_sends: Some(2),
                ..LinkFaultPlan::new(4)
            },
        );
        tx.send_frame(&frame()).unwrap();
        tx.send_frame(&frame()).unwrap();
        assert_eq!(tx.send_frame(&frame()), Err(TransportError::Closed));
        // Idempotently dead afterwards, clones included.
        assert_eq!(tx.send_frame(&frame()), Err(TransportError::Closed));
        assert!(n.recv_frame(Duration::from_millis(50)).is_ok());
        assert!(n.recv_frame(Duration::from_millis(50)).is_ok());
        assert_eq!(
            n.recv_frame(Duration::from_millis(50)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn scripted_recv_disconnect_cuts_between_rounds() {
        let (mut p, n) = ChannelTransport::pair(4);
        let mut rx = FaultyTransport::new(
            Box::new(n),
            LinkFaultPlan::new(5).with_disconnect_after_recvs(2),
        );
        for _ in 0..3 {
            p.send_frame(&frame()).unwrap();
        }
        assert!(rx.recv_frame(Duration::from_millis(50)).is_ok());
        assert!(rx.recv_frame(Duration::from_millis(50)).is_ok());
        assert_eq!(
            rx.recv_frame(Duration::from_millis(50)),
            Err(TransportError::Closed)
        );
        assert_eq!(rx.send_frame(&frame()), Err(TransportError::Closed));
    }

    #[test]
    fn clones_share_the_fault_schedule_counters() {
        let (p, _n) = ChannelTransport::pair(4);
        let mut a = FaultyTransport::new(
            Box::new(p),
            LinkFaultPlan {
                disconnect_after_sends: Some(2),
                ..LinkFaultPlan::new(6)
            },
        );
        let mut b = a.try_clone().unwrap();
        a.send_frame(&frame()).unwrap();
        b.send_frame(&frame()).unwrap();
        // The shared counter has reached the budget, whichever handle
        // sends next.
        assert_eq!(a.send_frame(&frame()), Err(TransportError::Closed));
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_index() {
        let plan = LinkFaultPlan::new(7).with_drop(0.5);
        let a: Vec<f64> = (0..64).map(|i| plan.unit(OP_DROP, i)).collect();
        let b: Vec<f64> = (0..64).map(|i| plan.unit(OP_DROP, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|x| (0.0..1.0).contains(x)));
        // Different ops decorrelate.
        let c: Vec<f64> = (0..64).map(|i| plan.unit(OP_CORRUPT, i)).collect();
        assert_ne!(a, c);
    }
}
