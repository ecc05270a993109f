//! The serving core: every decision the adaptation service makes about
//! a request, and every counter of its report, with no thread, socket
//! or clock of its own.
//!
//! [`ServeCore::admit`] parses a frame, checks the per-request budget
//! and queues the job or refuses it; [`ServeCore::next`] hands a worker
//! the oldest job with the global snapshot it adapts from, or sheds it
//! (queue deadline, no usable global, unusable labels);
//! [`ServeCore::replied`] records what the driver wrote. Every call
//! takes `now` from its driver. The driver ([`super::AdaptServer`])
//! reads and writes the links, wakes the workers, and runs `adapt_into`
//! outside the core's lock.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fml_models::{Batch, Model, Prediction, Target};
use fml_sim::message::AdaptFrame;
use fml_sim::{AdaptReject, PoolStats, RejectReason};

use super::report::{LatencyRecorder, PoolRoundTracker, RoundTally};
use super::{batch_from_request, GlobalSnapshot, ServingConfig, ServingReport, SharedGlobal};
use crate::report::PoolStatsReport;

/// An admitted request: where its reply goes and what it asks for. Its
/// samples were copied out of the frame at admission.
pub(crate) struct Job<L> {
    /// The driver's handle on the requesting link.
    pub(crate) link: L,
    pub(crate) req_id: u32,
    pub(crate) alpha: f64,
    pub(crate) steps: u32,
    pub(crate) received: Instant,
}

/// What [`ServeCore::admit`] made of a frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Admission {
    /// Queued: a worker should wake.
    Queued,
    /// Refused: write this reject back on the link.
    Reject(AdaptReject),
    /// Not an adaptation frame: counted, and uncorrelatable, so no reply.
    Undecodable,
}

/// What [`ServeCore::next`] hands a worker.
pub(crate) enum Work<L> {
    /// Adapt the global to the samples and reply on the job's link.
    Adapt(Job<L>, Batch, GlobalSnapshot),
    /// Write this reject back on the link.
    Reject(L, AdaptReject),
}

/// The adaptation service's policy and counters, driven by `now`.
pub(crate) struct ServeCore<L> {
    param_len: usize,
    input_dim: usize,
    /// Class count of a served classifier, `None` for a regressor.
    classes: Option<usize>,
    cfg: ServingConfig,
    global: SharedGlobal,
    /// Admitted jobs, oldest first, with their samples (`None` when the
    /// labels are unusable). At most `queue_depth` (at least 1).
    queue: VecDeque<(Job<L>, Option<Batch>)>,
    /// The plain counters; the fields derived at report time stay empty.
    counts: ServingReport,
    latency: LatencyRecorder,
    served_rounds: RoundTally,
    pool_rounds: PoolRoundTracker,
}

impl<L> ServeCore<L> {
    /// A core serving `model` from `global` under `cfg`.
    pub(crate) fn new(model: &dyn Model, global: SharedGlobal, cfg: ServingConfig) -> Self {
        // The model's kernels panic on a label they cannot train on, so
        // learn what it accepts from one prediction.
        let probe = model.predict(&vec![0.0; model.param_len()], &vec![0.0; model.input_dim()]);
        let classes = match probe {
            Prediction::Class { probs, .. } => Some(probs.len()),
            Prediction::Value(_) => None,
        };
        ServeCore {
            param_len: model.param_len(),
            input_dim: model.input_dim(),
            classes,
            cfg,
            global,
            queue: VecDeque::with_capacity(cfg.queue_depth.max(1)),
            counts: ServingReport {
                workers: cfg.workers.max(1),
                ..ServingReport::default()
            },
            latency: LatencyRecorder::default(),
            served_rounds: RoundTally::default(),
            pool_rounds: PoolRoundTracker::default(),
        }
    }

    /// Takes one frame received on `link` at `now`. A request within
    /// budget is queued unless the queue is full (`Busy`); one over
    /// budget, or a response or reject sent to the server, is a
    /// `BadRequest`.
    pub(crate) fn admit(&mut self, frame: &[u8], link: L, now: Instant) -> Admission {
        self.counts.bytes_in += frame.len() as u64;
        let req_id = match AdaptFrame::parse(frame) {
            Ok(AdaptFrame::Request(view)) => {
                self.counts.requests += 1;
                let over_budget = view.k() as usize > self.cfg.max_k
                    || view.steps() > self.cfg.max_steps
                    || view.dim() as usize != self.input_dim;
                if over_budget {
                    view.req_id()
                } else if self.queue.len() >= self.cfg.queue_depth.max(1) {
                    self.counts.shed_busy += 1;
                    return Admission::Reject(AdaptReject {
                        req_id: view.req_id(),
                        reason: RejectReason::Busy,
                    });
                } else {
                    let job = Job {
                        link,
                        req_id: view.req_id(),
                        alpha: view.alpha(),
                        steps: view.steps(),
                        received: now,
                    };
                    self.queue.push_back((job, batch_from_request(&view)));
                    return Admission::Queued;
                }
            }
            // Well-formed, but nothing a server consumes.
            Ok(AdaptFrame::Response(view)) => view.req_id(),
            Ok(AdaptFrame::Reject(r)) => r.req_id,
            Err(_) => {
                self.counts.decode_errors += 1;
                return Admission::Undecodable;
            }
        };
        self.counts.rejected_bad += 1;
        Admission::Reject(AdaptReject {
            req_id,
            reason: RejectReason::BadRequest,
        })
    }

    /// The oldest queued job at `now`, or `None` when the queue is
    /// empty. A job that waited past the queue deadline is shed `Busy`
    /// rather than computed late; with no global of the model's length
    /// it is `Unavailable`, and with labels the model cannot train on
    /// `BadRequest`. Otherwise it comes with the global snapshot,
    /// read once here, and opens (or continues) that round's pool
    /// window at `pool`, the counters before its reply touches the pool.
    pub(crate) fn next(&mut self, now: Instant, pool: PoolStats) -> Option<Work<L>> {
        let (job, samples) = self.queue.pop_front()?;
        let deadline = Duration::from_millis(self.cfg.queue_deadline_ms);
        let reject = |job: Job<L>, reason| {
            let req_id = job.req_id;
            Some(Work::Reject(job.link, AdaptReject { req_id, reason }))
        };
        if now.saturating_duration_since(job.received) > deadline {
            self.counts.shed_busy += 1;
            return reject(job, RejectReason::Busy);
        }
        let usable = |g: &GlobalSnapshot| g.params.len() == self.param_len;
        let Some(global) = self.global.snapshot().filter(usable) else {
            self.counts.rejected_unavailable += 1;
            return reject(job, RejectReason::Unavailable);
        };
        let fits_model = |t: &Target| match (t, self.classes) {
            (Target::Class(c), Some(n)) => *c < n,
            (Target::Value(_), None) => true,
            _ => false,
        };
        let Some(batch) = samples.filter(|b| b.targets().iter().all(fits_model)) else {
            self.counts.rejected_bad += 1;
            return reject(job, RejectReason::BadRequest);
        };
        self.pool_rounds
            .observe(global.round, pool.hits as u64, pool.misses as u64);
        Some(Work::Adapt(job, batch, global))
    }

    /// Records one reply the driver wrote at `now`: `sent` is its
    /// length, `None` when the link was gone; `served` is the round and
    /// arrival of an adaptation, `None` for a reject.
    pub(crate) fn replied(
        &mut self,
        sent: Option<usize>,
        served: Option<(u32, Instant)>,
        now: Instant,
    ) {
        let Some(len) = sent else {
            self.counts.dropped_replies += 1;
            return;
        };
        self.counts.bytes_out += len as u64;
        if let Some((round, received)) = served {
            self.counts.responses += 1;
            self.served_rounds.bump(round);
            let waited = now.saturating_duration_since(received);
            self.latency
                .record(u64::try_from(waited.as_micros()).unwrap_or(u64::MAX));
        }
    }

    /// The report after `elapsed` of uptime, with the pool's counters
    /// `pool` now. The transport is the driver's to fill in.
    pub(crate) fn report(&self, elapsed: Duration, pool: PoolStats) -> ServingReport {
        let elapsed_s = elapsed.as_secs_f64();
        ServingReport {
            elapsed_s,
            qps: if elapsed_s > 0.0 {
                self.counts.responses as f64 / elapsed_s
            } else {
                0.0
            },
            latency: self.latency.snapshot(),
            served_rounds: self.served_rounds.snapshot(),
            pool_rounds: self
                .pool_rounds
                .snapshot(pool.hits as u64, pool.misses as u64),
            pool: PoolStatsReport::from(pool),
            ..self.counts.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::request_from_batch;
    use bytes::BytesMut;
    use fml_linalg::Matrix;
    use fml_models::SoftmaxRegression;
    use fml_sim::message::encode_adapt_response_into;

    const MS: Duration = Duration::from_millis(1);

    fn model() -> SoftmaxRegression {
        SoftmaxRegression::new(2, 2)
    }

    fn support() -> Batch {
        let xs = Matrix::from_vec(4, 2, vec![1.0, 0.1, -1.0, 0.2, 1.1, -0.1, -0.9, 0.0]).unwrap();
        Batch::classification(xs, vec![0, 1, 0, 1]).unwrap()
    }

    fn request(req_id: u32, steps: u32) -> bytes::Bytes {
        request_from_batch(req_id, 0, 0.05, steps, &support()).encode()
    }

    /// A core over [`model`] whose global is published at `round`; the
    /// link handle is the request id, so a reply's link says whose it is.
    fn core(cfg: ServingConfig, round: Option<u32>) -> (ServeCore<u32>, SharedGlobal) {
        let global = SharedGlobal::new();
        if let Some(round) = round {
            global.publish(round, &vec![0.1 * f64::from(round); model().param_len()]);
        }
        (ServeCore::new(&model(), global.clone(), cfg), global)
    }

    fn reject(req_id: u32, reason: RejectReason) -> AdaptReject {
        AdaptReject { req_id, reason }
    }

    /// The reject `next` hands out, with the link it goes back on.
    fn next_reject(core: &mut ServeCore<u32>, now: Instant) -> (u32, AdaptReject) {
        match core.next(now, PoolStats::default()) {
            Some(Work::Reject(link, r)) => (link, r),
            Some(Work::Adapt(job, ..)) => panic!("request {} was adapted", job.req_id),
            None => panic!("nothing queued"),
        }
    }

    #[test]
    fn admitting_into_a_full_queue_is_busy() {
        let (mut core, _) = core(ServingConfig::default().with_queue_depth(1), Some(1));
        let t0 = Instant::now();
        assert_eq!(core.admit(&request(1, 1), 1, t0), Admission::Queued);
        assert_eq!(
            core.admit(&request(2, 1), 2, t0),
            Admission::Reject(reject(2, RejectReason::Busy))
        );
        // The worker takes the first; the queue has room again.
        assert!(matches!(
            core.next(t0, PoolStats::default()),
            Some(Work::Adapt(..))
        ));
        assert_eq!(core.admit(&request(3, 1), 3, t0), Admission::Queued);
        let report = core.report(Duration::ZERO, PoolStats::default());
        assert_eq!((report.requests, report.shed_busy), (3, 1));
    }

    #[test]
    fn a_job_past_its_queue_deadline_is_shed_busy() {
        let cfg = ServingConfig::default().with_queue_deadline_ms(10);
        let (mut core, _) = core(cfg, Some(1));
        let t0 = Instant::now();
        core.admit(&request(1, 1), 1, t0);
        core.admit(&request(2, 1), 2, t0);
        assert_eq!(
            next_reject(&mut core, t0 + 11 * MS),
            (1, reject(1, RejectReason::Busy))
        );
        // Exactly at the deadline is still in time.
        assert!(matches!(
            core.next(t0 + 10 * MS, PoolStats::default()),
            Some(Work::Adapt(job, ..)) if job.req_id == 2
        ));
        assert_eq!(
            core.report(Duration::ZERO, PoolStats::default()).shed_busy,
            1
        );
    }

    #[test]
    fn a_publish_between_admit_and_next_serves_the_newer_round() {
        let (mut core, global) = core(ServingConfig::default(), Some(1));
        let t0 = Instant::now();
        core.admit(&request(1, 3), 1, t0);
        let newer = vec![0.7; model().param_len()];
        global.publish(2, &newer);
        let Some(Work::Adapt(job, batch, snapshot)) = core.next(t0, PoolStats::default()) else {
            panic!("request 1 was not adapted");
        };
        assert_eq!((snapshot.round, &*snapshot.params), (2, &newer));
        let mut phi = Vec::new();
        let mut scratch = fml_core::adapt::AdaptScratch::for_model(&model());
        fml_core::adapt::adapt_into(
            &model(),
            &snapshot.params,
            &batch,
            job.alpha,
            job.steps as usize,
            &mut scratch,
            &mut phi,
        );
        assert_eq!(
            phi,
            fml_core::adapt::adapt(&model(), &newer, &batch, 0.05, 3)
        );
        core.replied(Some(100), Some((snapshot.round, job.received)), t0 + 3 * MS);
        let report = core.report(Duration::from_secs(1), PoolStats::default());
        assert_eq!(
            report.served_rounds,
            vec![super::super::RoundServed { round: 2, count: 1 }]
        );
        assert_eq!((report.responses, report.bytes_out), (1, 100));
        assert_eq!(report.latency.max_us, 3_000);
    }

    #[test]
    fn every_reject_carries_its_requests_id() {
        let cfg = ServingConfig::default()
            .with_queue_depth(3)
            .with_max_steps(8)
            .with_queue_deadline_ms(10);
        let (mut core, global) = core(cfg, None);
        let t0 = Instant::now();
        let late = t0 + 11 * MS;
        // At admission: over budget, a response sent to the server, and
        // a full queue.
        assert_eq!(
            core.admit(&request(11, 9), 0, t0),
            Admission::Reject(reject(11, RejectReason::BadRequest))
        );
        let mut response = BytesMut::new();
        encode_adapt_response_into(12, 1, &[0.0], &mut response);
        assert_eq!(
            core.admit(&response, 0, t0),
            Admission::Reject(reject(12, RejectReason::BadRequest))
        );
        let mut bad_labels = request_from_batch(15, 0, 0.05, 1, &support());
        bad_labels.ys[0] = 7.0; // the served model has 2 classes
        for (id, frame) in [
            (13, request(13, 1)),
            (14, request(14, 1)),
            (15, bad_labels.encode()),
        ] {
            assert_eq!(core.admit(&frame, id, t0), Admission::Queued);
        }
        assert_eq!(
            core.admit(&request(16, 1), 16, t0),
            Admission::Reject(reject(16, RejectReason::Busy))
        );
        // At dequeue: past the deadline, no global, unusable labels.
        assert_eq!(
            next_reject(&mut core, late),
            (13, reject(13, RejectReason::Busy))
        );
        assert_eq!(
            next_reject(&mut core, t0),
            (14, reject(14, RejectReason::Unavailable))
        );
        global.publish(1, &vec![0.0; model().param_len()]);
        assert_eq!(
            next_reject(&mut core, t0),
            (15, reject(15, RejectReason::BadRequest))
        );
        // Garbage cannot be answered: counted, not replied to.
        assert_eq!(core.admit(&[0xde, 0xad], 0, t0), Admission::Undecodable);
        let report = core.report(Duration::ZERO, PoolStats::default());
        assert_eq!(
            (
                report.shed_busy,
                report.rejected_unavailable,
                report.rejected_bad
            ),
            (2, 1, 3)
        );
        assert_eq!((report.requests, report.decode_errors), (5, 1));
    }
}
