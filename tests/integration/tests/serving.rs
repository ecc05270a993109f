//! Adaptation-service integration suite: the serving loop over real
//! sockets, end to end.
//!
//! The contract under test:
//!
//! * **Parity** — parameters served over TCP are *bitwise* the offline
//!   `fml_core::adapt::adapt` on the same global, and [`param_hash`]
//!   agrees (the cross-process digest the smoke script compares).
//! * **Concurrency** — the bounded worker pool sustains 8+ concurrent
//!   TCP clients without deadlock, each reply correlated by `req_id`.
//! * **Shedding** — overload and bad input degrade into typed rejects
//!   (`Busy`, `Unavailable`, `BadRequest`), never a stall.
//! * **Hot-swap** — publishing a new global between requests moves the
//!   served round forward without dropping in-flight state.
//! * **Wire** — v2 adaptation frames survive the length-prefixed
//!   framing layer under arbitrary chunking, truncation stalls rather
//!   than corrupts, and alien tags are rejected cleanly.

use std::sync::Arc;
use std::time::Duration;

use fml_core::adapt::adapt;
use fml_integration::prefix_frame;
use fml_models::{Batch, Model, SoftmaxRegression};
use fml_runtime::serving::request_from_batch;
use fml_runtime::{
    param_hash, AdaptClient, AdaptOutcome, AdaptServer, ServingConfig, SharedGlobal, TcpTransport,
    TcpTransportListener, Transport,
};
use fml_sim::message::{encoded_frame_len, AdaptFrame, DecodeError};
use fml_sim::{framing::FrameBuffer, FramePool, RejectReason};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 4;
const CLASSES: usize = 3;
const TIMEOUT: Duration = Duration::from_secs(20);

fn model() -> Arc<dyn Model> {
    Arc::new(SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3))
}

fn global_params(model: &dyn Model, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    model.init_params(&mut rng)
}

/// A small deterministic support batch with `DIM` features.
fn support_batch(k: usize, seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..k * DIM)
        .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
        .collect();
    let xs = fml_linalg::Matrix::from_vec(k, DIM, data).unwrap();
    let labels = (0..k).map(|i| i % CLASSES).collect();
    Batch::classification(xs, labels).unwrap()
}

fn start_tcp_server(global: SharedGlobal, cfg: ServingConfig) -> AdaptServer {
    let listener = TcpTransportListener::bind("127.0.0.1:0").expect("bind ephemeral");
    AdaptServer::start(Box::new(listener), model(), global, cfg)
}

fn tcp_client(server: &AdaptServer) -> AdaptClient {
    let link = TcpTransport::connect(server.local_addr()).expect("connect");
    AdaptClient::new(Box::new(link))
}

#[test]
fn served_params_bitwise_match_offline_adapt_over_tcp() {
    let m = model();
    let theta = global_params(m.as_ref(), 7);
    let global = SharedGlobal::new();
    global.publish(42, &theta);
    let server = start_tcp_server(global, ServingConfig::default());
    let mut client = tcp_client(&server);

    let batch = support_batch(5, 11);
    let (alpha, steps) = (0.05, 4);
    let req = request_from_batch(1, 0, alpha, steps, &batch);
    let outcome = client.request(&req, TIMEOUT).expect("round trip");
    let AdaptOutcome::Adapted {
        global_round,
        params,
    } = outcome
    else {
        panic!("expected adapted params, got {outcome:?}");
    };
    assert_eq!(global_round, 42);

    let offline = adapt(m.as_ref(), &theta, &batch, alpha, steps as usize);
    assert_eq!(
        params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        offline.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "served adaptation must be bitwise-identical to offline adapt"
    );
    assert_eq!(param_hash(&params), param_hash(&offline));

    let report = server.shutdown();
    assert_eq!(report.responses, 1);
    assert_eq!(report.rejected_total(), 0);
    assert!(report.bytes_in > 0 && report.bytes_out > 0);
}

#[test]
fn eight_concurrent_tcp_clients_all_get_correct_replies() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 4;
    let m = model();
    let theta = global_params(m.as_ref(), 3);
    let global = SharedGlobal::new();
    global.publish(9, &theta);
    let server = start_tcp_server(
        global,
        ServingConfig::default().with_workers(4).with_queue_depth(64),
    );
    let addr = server.local_addr().to_string();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            let m = Arc::clone(&m);
            let theta = theta.clone();
            std::thread::spawn(move || {
                let link = TcpTransport::connect(&addr).expect("connect");
                let mut client = AdaptClient::new(Box::new(link));
                for r in 0..REQUESTS_PER_CLIENT {
                    // Distinct support set and step count per request, so
                    // a cross-wired reply would be caught by the bitwise
                    // comparison, not just by req_id bookkeeping.
                    let batch = support_batch(3 + c % 3, (c * 31 + r) as u64);
                    let steps = 1 + (r as u32 % 3);
                    let req = request_from_batch((c * 100 + r) as u32, c as u32, 0.1, steps, &batch);
                    let outcome = client.request(&req, TIMEOUT).expect("round trip");
                    let AdaptOutcome::Adapted { params, .. } = outcome else {
                        panic!("client {c} request {r}: got {outcome:?}");
                    };
                    let offline = adapt(m.as_ref(), &theta, &batch, 0.1, steps as usize);
                    assert_eq!(
                        params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                        offline.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                        "client {c} request {r} got someone else's adaptation"
                    );
                }
            })
        })
        .collect();
    for (c, w) in workers.into_iter().enumerate() {
        w.join().unwrap_or_else(|_| panic!("client {c} panicked"));
    }

    let report = server.shutdown();
    assert_eq!(report.responses, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    assert_eq!(report.rejected_total(), 0);
    assert_eq!(report.dropped_replies, 0);
    assert_eq!(
        report.served_rounds.iter().map(|r| r.count).sum::<u64>(),
        report.responses
    );
}

#[test]
fn zero_deadline_sheds_busy_instead_of_stalling() {
    let m = model();
    let theta = global_params(m.as_ref(), 1);
    let global = SharedGlobal::new();
    global.publish(1, &theta);
    let server = start_tcp_server(
        global,
        ServingConfig::default().with_queue_deadline_ms(0),
    );
    let mut client = tcp_client(&server);
    for i in 0..3 {
        let req = request_from_batch(i, 0, 0.1, 1, &support_batch(3, i as u64));
        assert_eq!(
            client.request(&req, TIMEOUT).expect("reject round trip"),
            AdaptOutcome::Rejected(RejectReason::Busy),
            "request {i}"
        );
    }
    let report = server.shutdown();
    assert_eq!(report.shed_busy, 3);
    assert_eq!(report.responses, 0);
}

#[test]
fn unavailable_then_hot_swap_advances_served_round() {
    let m = model();
    let global = SharedGlobal::new();
    let server = start_tcp_server(global.clone(), ServingConfig::default());
    let mut client = tcp_client(&server);
    let batch = support_batch(4, 5);

    let req = request_from_batch(1, 0, 0.1, 2, &batch);
    assert_eq!(
        client.request(&req, TIMEOUT).expect("round trip"),
        AdaptOutcome::Rejected(RejectReason::Unavailable),
        "no global published yet"
    );

    for round in [1u32, 2] {
        let theta = global_params(m.as_ref(), round as u64);
        global.publish(round, &theta);
        let outcome = client.request(&req, TIMEOUT).expect("round trip");
        let AdaptOutcome::Adapted { global_round, .. } = outcome else {
            panic!("round {round}: got {outcome:?}");
        };
        assert_eq!(global_round, round, "served round must follow the swap");
    }

    let report = server.shutdown();
    assert_eq!(report.rejected_unavailable, 1);
    assert_eq!(report.responses, 2);
    let rounds: Vec<u32> = report.served_rounds.iter().map(|r| r.round).collect();
    assert_eq!(rounds, vec![1, 2]);
    // The frame-pool series opened one window per served round — the
    // per-round hit-rate fix: deltas between swaps, not the cumulative
    // process-wide counters read once at shutdown.
    let pool_rounds: Vec<u32> = report.pool_rounds.iter().map(|w| w.round).collect();
    assert_eq!(pool_rounds, vec![1, 2]);
    for w in &report.pool_rounds {
        assert!(
            (0.0..=1.0).contains(&w.hit_rate),
            "window hit rate out of range: {w:?}"
        );
    }
}

#[test]
fn budget_violations_reject_bad_request_over_tcp() {
    let m = model();
    let theta = global_params(m.as_ref(), 2);
    let global = SharedGlobal::new();
    global.publish(1, &theta);
    let server = start_tcp_server(
        global,
        ServingConfig::default().with_max_k(4).with_max_steps(8),
    );
    let mut client = tcp_client(&server);

    // k over budget
    let req = request_from_batch(1, 0, 0.1, 1, &support_batch(5, 0));
    assert_eq!(
        client.request(&req, TIMEOUT).expect("round trip"),
        AdaptOutcome::Rejected(RejectReason::BadRequest)
    );
    // steps over budget
    let req = request_from_batch(2, 0, 0.1, 9, &support_batch(3, 0));
    assert_eq!(
        client.request(&req, TIMEOUT).expect("round trip"),
        AdaptOutcome::Rejected(RejectReason::BadRequest)
    );
    // within budget still works
    let req = request_from_batch(3, 0, 0.1, 8, &support_batch(4, 0));
    assert!(matches!(
        client.request(&req, TIMEOUT).expect("round trip"),
        AdaptOutcome::Adapted { .. }
    ));

    let report = server.shutdown();
    assert_eq!(report.rejected_bad, 2);
    assert_eq!(report.responses, 1);
}

#[test]
fn adapt_frames_survive_framing_under_byte_at_a_time_chunking() {
    let req = request_from_batch(7, 3, 0.05, 4, &support_batch(3, 9));
    let frame = req.encode();
    let wire = prefix_frame(&frame);

    let mut buf = FrameBuffer::new();
    let pool = FramePool::new();
    for (i, b) in wire.iter().enumerate() {
        buf.extend(std::slice::from_ref(b));
        let out = buf.next_frame_pooled(&pool).expect("well-formed stream");
        if i + 1 < wire.len() {
            // Truncated: the framing layer stalls (returns nothing) and
            // never hands a partial frame to the parser.
            assert!(out.is_none(), "partial frame surfaced at byte {i}");
        } else {
            let full = out.expect("complete frame extracted");
            let AdaptFrame::Request(view) = AdaptFrame::parse(&full).expect("parses") else {
                panic!("wrong frame kind");
            };
            assert_eq!((view.req_id(), view.node()), (req.req_id, req.node));
            assert_eq!((view.alpha(), view.steps()), (req.alpha, req.steps));
            assert_eq!((view.dim(), view.kind()), (req.dim, req.kind));
            assert_eq!(view.xs_iter().collect::<Vec<_>>(), req.xs);
            assert_eq!(view.ys_iter().collect::<Vec<_>>(), req.ys);
        }
    }
}

#[test]
fn alien_and_training_tags_fail_adapt_parse_but_not_framing() {
    // A v2 training frame passes the tag-agnostic framing layer but the
    // adapt parser refuses it: parser separation, not a shared decode.
    let training = fml_integration::global_frame(3, &[1.0, 2.0]);
    let mut buf = FrameBuffer::new();
    let pool = FramePool::new();
    buf.extend(&prefix_frame(&training));
    let frame = buf.next_frame_pooled(&pool).expect("framing ok").expect("one frame");
    assert!(matches!(
        AdaptFrame::parse(&frame),
        Err(DecodeError::UnknownTag(_))
    ));

    // An unknown tag is rejected by both parsers, still without
    // disturbing the framing layer.
    let mut alien = training.to_vec();
    alien[1] = 0x7f;
    let mut buf = FrameBuffer::new();
    let pool = FramePool::new();
    buf.extend(&prefix_frame(&alien));
    let frame = buf.next_frame_pooled(&pool).expect("framing ok").expect("one frame");
    assert!(matches!(
        AdaptFrame::parse(&frame),
        Err(DecodeError::UnknownTag(_))
    ));
    assert!(fml_sim::MessageView::parse(&frame).is_err());
}

#[test]
fn garbage_on_the_wire_is_counted_not_fatal() {
    let m = model();
    let theta = global_params(m.as_ref(), 4);
    let global = SharedGlobal::new();
    global.publish(1, &theta);
    let server = start_tcp_server(global, ServingConfig::default());

    // Send a well-formed *frame* that is not an adaptation request (a
    // training broadcast); the server counts a decode error and keeps
    // serving on the same connection.
    let mut link = TcpTransport::connect(server.local_addr()).expect("connect");
    let training = fml_integration::global_frame(1, &vec![0.0; encoded_frame_len(0) / 8]);
    link.send_frame(&training).expect("send");
    let mut client = AdaptClient::new(Box::new(link));
    let req = request_from_batch(5, 0, 0.1, 1, &support_batch(3, 2));
    assert!(matches!(
        client.request(&req, TIMEOUT).expect("still serving"),
        AdaptOutcome::Adapted { .. }
    ));

    let report = server.shutdown();
    assert_eq!(report.decode_errors, 1);
    assert_eq!(report.responses, 1);
}
