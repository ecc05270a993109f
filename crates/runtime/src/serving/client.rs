//! Client side of the adaptation service: encode a request through the
//! pooled zero-copy path, send it over any [`Transport`], and wait for
//! the reply that matches its `req_id`.

use std::time::{Duration, Instant};

use fml_sim::message::{encode_adapt_request_into, encoded_adapt_request_len, AdaptFrame};
use fml_sim::{AdaptRequest, FramePool, RejectReason};

use crate::transport::{Transport, TransportError};

/// What the service said about one adaptation request.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptOutcome {
    /// The server adapted and replied with personalized parameters.
    Adapted {
        /// Training round of the global the adaptation started from.
        global_round: u32,
        /// The personalized parameters `φ_t`.
        params: Vec<f64>,
    },
    /// The server refused, with a typed reason.
    Rejected(RejectReason),
}

/// Blocking adaptation client over one [`Transport`] link.
///
/// Replies are correlated by `req_id`, so several logical requests may
/// be issued over one link sequentially; stale replies (from an earlier
/// timed-out request) are skipped, not surfaced.
pub struct AdaptClient {
    link: Box<dyn Transport>,
    pool: FramePool,
}

impl std::fmt::Debug for AdaptClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptClient")
            .field("kind", &self.link.kind())
            .finish_non_exhaustive()
    }
}

impl AdaptClient {
    /// Wraps an already-connected link.
    pub fn new(link: Box<dyn Transport>) -> AdaptClient {
        AdaptClient {
            link,
            pool: FramePool::global().handle(),
        }
    }

    /// The underlying transport family (`"channel"`, `"tcp"`, `"uds"`).
    pub fn kind(&self) -> &'static str {
        self.link.kind()
    }

    /// Sends `req` and waits up to `timeout` for its reply.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when no matching reply arrived in
    /// time, [`TransportError::Corrupt`] when the peer sent a frame
    /// that is not an adaptation reply, or whatever the link reports
    /// for send/receive failures.
    pub fn request(
        &mut self,
        req: &AdaptRequest,
        timeout: Duration,
    ) -> Result<AdaptOutcome, TransportError> {
        let mut buf = self
            .pool
            .acquire(encoded_adapt_request_len(req.k(), req.dim as usize));
        encode_adapt_request_into(req, &mut buf);
        let frame = buf.freeze();
        let sent = self.link.send_frame(&frame);
        self.pool.recycle(frame);
        sent?;
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            let reply = self.link.recv_frame(deadline - now)?;
            let parsed = AdaptFrame::parse(&reply);
            let outcome = match parsed {
                Ok(AdaptFrame::Response(view)) if view.req_id() == req.req_id => {
                    Some(AdaptOutcome::Adapted {
                        global_round: view.global_round(),
                        params: view.params_iter().collect(),
                    })
                }
                Ok(AdaptFrame::Reject(r)) if r.req_id == req.req_id => {
                    Some(AdaptOutcome::Rejected(r.reason))
                }
                // A reply to some earlier, abandoned request: skip it.
                Ok(AdaptFrame::Response(_)) | Ok(AdaptFrame::Reject(_)) => None,
                Ok(AdaptFrame::Request(_)) => {
                    self.pool.recycle(reply);
                    return Err(TransportError::Corrupt(
                        "peer sent an adaptation request to a client".into(),
                    ));
                }
                Err(e) => {
                    self.pool.recycle(reply);
                    return Err(TransportError::Corrupt(format!(
                        "undecodable adaptation reply: {e}"
                    )));
                }
            };
            self.pool.recycle(reply);
            if let Some(outcome) = outcome {
                return Ok(outcome);
            }
        }
    }
}
