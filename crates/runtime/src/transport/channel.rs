//! The in-process transport: `std::sync::mpsc` channels behind the
//! [`Transport`] trait.
//!
//! One link: platform → node frames ride a *bounded* `sync_channel` (a
//! full or dead queue drops the frame immediately — the platform never
//! blocks on a slow consumer), node → platform frames ride an
//! *unbounded* channel (a node never blocks reporting).

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;

use super::{Transport, TransportError};

/// Which flavour of sender this end writes into.
#[derive(Clone)]
enum ChannelTx {
    /// Bounded mailbox: `try_send`, dropping on full (platform end).
    Bounded(SyncSender<Bytes>),
    /// Unbounded uplink: never blocks, fails only when the receiver is
    /// gone (node end).
    Unbounded(Sender<Bytes>),
}

/// One end of an in-process channel link.
///
/// Created in connected pairs by [`ChannelTransport::pair`]. The
/// receive side is shared behind a mutex so [`Transport::try_clone`]
/// works (clones serialize their receives; per the trait contract only
/// one handle should receive anyway).
pub struct ChannelTransport {
    tx: Option<ChannelTx>,
    rx: Arc<Mutex<Receiver<Bytes>>>,
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("closed", &self.tx.is_none())
            .finish()
    }
}

impl ChannelTransport {
    /// A connected in-process pair `(platform_end, node_end)`.
    ///
    /// Frames sent by the platform end go through a bounded mailbox of
    /// `mailbox_cap` frames with drop-on-full semantics; frames sent by
    /// the node end go through an unbounded channel.
    ///
    /// # Panics
    ///
    /// Panics when `mailbox_cap` is zero.
    pub fn pair(mailbox_cap: usize) -> (ChannelTransport, ChannelTransport) {
        assert!(mailbox_cap > 0, "mailbox capacity must be at least 1");
        let (down_tx, down_rx) = sync_channel::<Bytes>(mailbox_cap);
        let (up_tx, up_rx) = channel::<Bytes>();
        let platform = ChannelTransport {
            tx: Some(ChannelTx::Bounded(down_tx)),
            rx: Arc::new(Mutex::new(up_rx)),
        };
        let node = ChannelTransport {
            tx: Some(ChannelTx::Unbounded(up_tx)),
            rx: Arc::new(Mutex::new(down_rx)),
        };
        (platform, node)
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: Bytes) -> Result<(), TransportError> {
        match &self.tx {
            None => Err(TransportError::Closed),
            Some(ChannelTx::Bounded(tx)) => match tx.try_send(frame) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(_)) => Err(TransportError::Full),
                Err(TrySendError::Disconnected(_)) => Err(TransportError::Closed),
            },
            Some(ChannelTx::Unbounded(tx)) => tx.send(frame).map_err(|_| TransportError::Closed),
        }
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Bytes, TransportError> {
        // A locally closed end reads nothing more, per the trait
        // contract — even if the peer's sender is still alive.
        if self.tx.is_none() {
            return Err(TransportError::Closed);
        }
        let rx = self.rx.lock().unwrap_or_else(|e| e.into_inner());
        match rx.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, TransportError> {
        Ok(Box::new(ChannelTransport {
            tx: self.tx.clone(),
            rx: Arc::clone(&self.rx),
        }))
    }

    fn close(&mut self) {
        // Dropping the sender is the whole shutdown: the peer's receive
        // side reports Disconnected once every clone is gone.
        self.tx = None;
    }

    fn kind(&self) -> &'static str {
        "channel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8) -> Bytes {
        Bytes::copy_from_slice(&[tag, 1, 2, 3])
    }

    #[test]
    fn pair_moves_frames_both_ways() {
        let (mut platform, mut node) = ChannelTransport::pair(2);
        platform.send_frame(&frame(1)).unwrap();
        assert_eq!(node.recv_frame(Duration::from_secs(1)).unwrap(), frame(1));
        node.send_frame(&frame(2)).unwrap();
        assert_eq!(
            platform.recv_frame(Duration::from_secs(1)).unwrap(),
            frame(2)
        );
        assert_eq!(platform.kind(), "channel");
    }

    #[test]
    fn full_mailbox_drops_not_blocks() {
        let (mut platform, _node) = ChannelTransport::pair(1);
        platform.send_frame(&frame(1)).unwrap();
        assert_eq!(platform.send_frame(&frame(2)), Err(TransportError::Full));
    }

    #[test]
    fn node_uplink_is_unbounded() {
        let (_platform, mut node) = ChannelTransport::pair(1);
        for i in 0..64 {
            node.send_frame(&frame(i)).unwrap();
        }
    }

    #[test]
    fn recv_times_out_then_sees_close() {
        let (mut platform, mut node) = ChannelTransport::pair(1);
        assert_eq!(
            node.recv_frame(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
        platform.close();
        assert_eq!(
            node.recv_frame(Duration::from_millis(20)),
            Err(TransportError::Closed)
        );
        assert_eq!(platform.send_frame(&frame(0)), Err(TransportError::Closed));
        // Idempotent.
        platform.close();
    }

    #[test]
    fn clone_shares_the_link() {
        let (platform, mut node) = ChannelTransport::pair(2);
        let mut writer = platform.try_clone().unwrap();
        writer.send_frame(&frame(9)).unwrap();
        assert_eq!(node.recv_frame(Duration::from_secs(1)).unwrap(), frame(9));
    }
}
