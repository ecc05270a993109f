//! Transport conformance suite: every `Transport` implementation must
//! carry the same federation to the same bits.
//!
//! The contract under test has three layers:
//!
//! * **Seam conformance** — generic behaviours every transport pair
//!   must exhibit: deadline expiry is a `Timeout` (not a hang, not a
//!   `Closed`), a closed link fails fast, frames survive arbitrary
//!   kernel-level chunking.
//! * **Bitwise equivalence** — a barrier run over TCP or UDS, with
//!   every node in its own thread talking through a real socket, must
//!   produce *bitwise* the parameters of the in-process `train_from`
//!   oracle and of the channel runtime at 1/2/4 worker threads. The
//!   cross-process digest [`param_hash`] must agree too.
//! * **Degradation** — killing a peer mid-round costs accuracy, never
//!   liveness: the run completes under a hard watchdog with the lost
//!   rounds flagged degraded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fml_core::{FedAvg, FedAvgConfig, FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_data::synthetic::SyntheticConfig;
use fml_integration::{global_frame, update_frame};
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::{
    param_hash, ChannelTransport, NodeIo, Runtime, RuntimeConfig, TcpTransport,
    TcpTransportListener, Transport, TransportError, TransportListener, UnixTransport,
    UnixTransportListener, CONNECT_BASE_DELAY,
};
use fml_sim::message::encoded_frame_len;
use fml_sim::{MessageView, LENGTH_PREFIX_LEN, PROTOCOL_VERSION};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 5;
const DIM: usize = 4;
const CLASSES: usize = 3;

fn fixture(seed: u64) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    fixture_of(NODES, seed)
}

fn fixture_of(nodes: usize, seed: u64) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let fed = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(nodes)
        .with_dim(DIM)
        .with_classes(CLASSES)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes(fed.nodes(), 5, &mut rng);
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
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

fn fedavg(rounds: usize) -> FedAvg {
    FedAvg::new(
        FedAvgConfig::new(0.05)
            .with_rounds(rounds)
            .with_local_steps(2),
    )
}

/// A socket path that is unique per test process *and* per call, short
/// enough for `sockaddr_un` (the temp dir plus ~30 bytes).
fn uds_path() -> String {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("fml-conf-{}-{}.sock", std::process::id(), seq))
        .to_string_lossy()
        .into_owned()
}

/// One connected (platform-end, node-end) pair of the given kind.
fn pair(kind: &str) -> (Box<dyn Transport>, Box<dyn Transport>) {
    match kind {
        "channel" => {
            let (a, b) = ChannelTransport::pair(4);
            (Box::new(a), Box::new(b))
        }
        "tcp" => {
            let mut l = TcpTransportListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr();
            let node = TcpTransport::connect(&addr).unwrap();
            let plat = l.accept(Duration::from_secs(5)).unwrap();
            (plat, Box::new(node))
        }
        "uds" => {
            let path = uds_path();
            let mut l = UnixTransportListener::bind(&path).unwrap();
            let node = UnixTransport::connect_with_backoff(&path, 1, CONNECT_BASE_DELAY).unwrap();
            let plat = l.accept(Duration::from_secs(5)).unwrap();
            (plat, Box::new(node))
        }
        other => panic!("unknown transport kind {other}"),
    }
}

const KINDS: [&str; 3] = ["channel", "tcp", "uds"];

#[test]
fn conformance_roundtrip_on_every_transport() {
    for kind in KINDS {
        let (mut plat, mut node) = pair(kind);
        assert_eq!(plat.kind(), kind);
        assert_eq!(node.kind(), kind);
        let down = global_frame(1, &[1.0, -2.5, 0.0]);
        let up = update_frame(1, 3, &[0.25; 8]);
        plat.send_frame(&down).unwrap();
        node.send_frame(&up).unwrap();
        assert_eq!(node.recv_frame(Duration::from_secs(5)).unwrap(), down, "{kind}");
        assert_eq!(plat.recv_frame(Duration::from_secs(5)).unwrap(), up, "{kind}");
    }
}

#[test]
fn conformance_deadline_expiry_is_a_timeout_not_a_hang() {
    for kind in KINDS {
        let (_plat, mut node) = pair(kind);
        let deadline = Duration::from_millis(80);
        let start = Instant::now();
        let err = node.recv_frame(deadline).unwrap_err();
        let waited = start.elapsed();
        assert_eq!(err, TransportError::Timeout, "{kind}");
        assert!(!err.is_fatal(), "{kind}: a timeout must not kill the link");
        assert!(waited >= deadline, "{kind}: returned early after {waited:?}");
        assert!(
            waited < Duration::from_secs(5),
            "{kind}: deadline overshot to {waited:?}"
        );
    }
}

#[test]
fn conformance_link_survives_a_timeout() {
    for kind in KINDS {
        let (mut plat, mut node) = pair(kind);
        let _ = node.recv_frame(Duration::from_millis(30)).unwrap_err();
        let frame = global_frame(2, &[4.0]);
        plat.send_frame(&frame).unwrap();
        assert_eq!(
            node.recv_frame(Duration::from_secs(5)).unwrap(),
            frame,
            "{kind}: link must still carry frames after a timeout"
        );
    }
}

#[test]
fn conformance_closed_link_fails_fast_on_both_operations() {
    for kind in KINDS {
        let (_plat, mut node) = pair(kind);
        node.close();
        node.close(); // idempotent
        let frame = global_frame(1, &[]);
        assert_eq!(
            node.send_frame(&frame).unwrap_err(),
            TransportError::Closed,
            "{kind}"
        );
        assert_eq!(
            node.recv_frame(Duration::from_millis(50)).unwrap_err(),
            TransportError::Closed,
            "{kind}"
        );
    }
}

#[test]
fn conformance_socket_peer_observes_close_as_eof() {
    // Socket-only: shutting one end down must surface as `Closed` (EOF)
    // on the peer, not as a timeout loop.
    for kind in ["tcp", "uds"] {
        let (mut plat, mut node) = pair(kind);
        plat.close();
        let err = node.recv_frame(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, TransportError::Closed, "{kind}");
    }
}

#[test]
fn run_node_reports_the_frames_it_could_not_use() {
    // A socket peer's `NodeIo` is the only place its decode errors can
    // surface: garbage and a valid non-broadcast frame count one each,
    // and neither stops the peer from answering the next broadcast.
    let (model, tasks, theta0) = fixture(47);
    let trainer = fedml(1);
    for kind in KINDS {
        let (mut plat, mut node) = pair(kind);
        let runtime = Runtime::new(RuntimeConfig {
        recv_timeout_ms: 10_000,
        ..RuntimeConfig::barrier(1)
    });
        let io = std::thread::scope(|s| {
            let peer = s.spawn(|| runtime.run_node(&trainer, &model, &tasks, 0, node.as_mut()));
            let wait = Duration::from_secs(5);
            plat.recv_frame(wait).expect("hello");
            plat.send_frame(&vec![0xff; 7].into()).unwrap();
            let not_a_broadcast = update_frame(1, 0, &theta0);
            plat.send_frame(&not_a_broadcast).unwrap();
            plat.send_frame(&global_frame(1, &theta0)).unwrap();
            plat.recv_frame(wait).expect("the update for round 1");
            plat.close();
            peer.join().unwrap()
        });
        assert_eq!(io.decode_errors, 2, "{kind}");
        assert_eq!((io.frames_received, io.frames_sent), (3, 1), "{kind}");
    }
}

/// Runs a barrier federation over a socket transport: the platform
/// serves on `listener` while every node runs [`Runtime::run_node`] in
/// its own thread over its own connection.
fn run_over_sockets(
    trainer: &(dyn LocalStepper + Sync),
    model: &SoftmaxRegression,
    tasks: &[SourceTask],
    theta0: &[f64],
    listener: Box<dyn TransportListener>,
    connect: impl Fn() -> Box<dyn Transport> + Send + Sync,
) -> (fml_runtime::RuntimeOutput, Vec<NodeIo>) {
    let cfg = RuntimeConfig {
        recv_timeout_ms: 10_000,
        ..RuntimeConfig::barrier(1)
    };
    let runtime = Runtime::new(cfg);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..tasks.len())
            .map(|node| {
                let connect = &connect;
                let runtime = &runtime;
                s.spawn(move || {
                    let mut link = connect();
                    runtime.run_node(trainer, model, tasks, node, link.as_mut())
                })
            })
            .collect();
        let out = runtime
            .serve(trainer, model, tasks, theta0, listener)
            .expect("serve must complete once peers joined");
        let node_io: Vec<NodeIo> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (out, node_io)
    })
}

#[test]
fn barrier_over_tcp_is_bitwise_identical_to_the_oracle() {
    let (model, tasks, theta0) = fixture(41);
    let trainer = fedml(3);
    let reference = trainer.train_from(&model, &tasks, &theta0);

    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let (out, node_io) = run_over_sockets(
        &trainer,
        &model,
        &tasks,
        &theta0,
        Box::new(listener),
        move || Box::new(TcpTransport::connect(&addr).unwrap()),
    );

    assert_eq!(out.train.params, reference.params, "params must be bitwise equal");
    assert_eq!(out.train.history, reference.history, "curve must be bitwise equal");
    assert_eq!(out.train.comm_rounds, reference.comm_rounds);
    assert_eq!(param_hash(&out.train.params), param_hash(&reference.params));
    assert_eq!(out.report.transport, "tcp");
    assert_eq!(out.report.threads, 0, "node compute ran in peer threads");

    // Hub counters are physical: every broadcast and update carried its
    // 4-byte length prefix, and nothing was lost.
    let frame_len = encoded_frame_len(theta0.len()) as u64;
    for io in &out.report.per_node {
        assert_eq!(io.frames_received, 3);
        assert_eq!(io.frames_sent, 3);
        assert_eq!(io.bytes_received, 3 * (frame_len + LENGTH_PREFIX_LEN as u64));
        assert_eq!(io.reconnects, 0);
    }
    assert_eq!(out.report.decode_errors, 0);
    assert_eq!(out.report.broadcast_drops, vec![0, 0, 0]);
    // Node-side counters agree on the frame counts (they count encoded
    // payloads, without the stream prefix).
    for io in &node_io {
        assert_eq!(io.frames_received, 3);
        assert_eq!(io.frames_sent, 3);
    }
}

#[test]
fn barrier_over_uds_matches_channel_and_oracle_for_fedavg() {
    let (model, tasks, theta0) = fixture(42);
    let trainer = fedavg(3);
    let reference = trainer.train_from(&model, &tasks, &theta0);

    // The same federation over every transport and channel thread
    // count: one set of bits.
    let mut hashes = vec![param_hash(&reference.params)];
    for threads in [1, 2, 4] {
        let cfg = RuntimeConfig::barrier(3).with_threads(threads);
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(out.train.params, reference.params, "channel, {threads} threads");
        assert_eq!(out.report.transport, "channel");
        hashes.push(param_hash(&out.train.params));
    }

    let path = uds_path();
    let listener = UnixTransportListener::bind(&path).unwrap();
    let addr = listener.local_addr();
    let (out, _) = run_over_sockets(
        &trainer,
        &model,
        &tasks,
        &theta0,
        Box::new(listener),
        move || {
            Box::new(UnixTransport::connect_with_backoff(&addr, 1, CONNECT_BASE_DELAY).unwrap())
        },
    );
    assert_eq!(out.train.params, reference.params, "uds params must be bitwise equal");
    assert_eq!(out.train.history, reference.history);
    assert_eq!(out.report.transport, "uds");
    hashes.push(param_hash(&out.train.params));

    assert!(hashes.windows(2).all(|w| w[0] == w[1]), "hashes: {hashes:?}");
    // Clean shutdown: the listener was dropped when serve returned, so
    // the socket file is gone.
    assert!(
        !std::path::Path::new(&path).exists(),
        "serve must unlink its UDS socket file"
    );
}

#[test]
fn serve_without_any_peer_times_out_instead_of_hanging() {
    let (model, tasks, theta0) = fixture(43);
    let trainer = fedml(2);
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let cfg = RuntimeConfig {
        join_timeout_ms: 200,
        ..RuntimeConfig::barrier(1)
    };
    let start = Instant::now();
    let err = Runtime::new(cfg)
        .serve(&trainer, &model, &tasks, &theta0, Box::new(listener))
        .unwrap_err();
    assert_eq!(err, TransportError::Timeout);
    assert!(start.elapsed() < Duration::from_secs(30));
}

#[test]
fn killing_a_peer_mid_round_degrades_without_hanging() {
    let (model, tasks, theta0) = fixture(44);
    let trainer = fedml(3);

    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();

    // Hard watchdog: the whole distributed run must finish well before
    // this, dead peer or not.
    let (done_tx, done_rx) = mpsc::channel();
    let killer_addr = addr.clone();
    let watched = std::thread::spawn(move || {
        let cfg = RuntimeConfig {
        recv_timeout_ms: 400,
        ..RuntimeConfig::barrier(1)
    };
        let runtime = Runtime::new(cfg);
        let out = std::thread::scope(|s| {
            // Healthy peers for every node but the last.
            for node in 0..NODES - 1 {
                let addr = addr.clone();
                let runtime = &runtime;
                let (trainer, model, tasks) = (&trainer, &model, &tasks);
                s.spawn(move || {
                    let mut link = TcpTransport::connect(&addr).unwrap();
                    runtime.run_node(trainer, model, tasks, node, &mut link);
                });
            }
            // The victim joins, answers round 1, then dies mid-run.
            s.spawn(move || {
                let mut link = TcpTransport::connect(&killer_addr).unwrap();
                let victim = (NODES - 1) as u32;
                link.send_frame(&update_frame(0, victim, &[])).unwrap();
                let bcast = link.recv_frame(Duration::from_secs(10)).unwrap();
                let bcast = MessageView::parse(&bcast).expect("a training frame");
                assert!(bcast.is_global(), "expected a broadcast");
                let reply = update_frame(bcast.round(), victim, &bcast.params_to_vec());
                link.send_frame(&reply).unwrap();
                link.close(); // gone before round 2
            });
            runtime
                .serve(&trainer, &model, &tasks, &theta0, Box::new(listener))
                .expect("serve must survive a dead peer")
        });
        done_tx.send(out).unwrap();
    });

    let out = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("distributed run hung on a killed peer");
    watched.join().unwrap();

    assert_eq!(out.train.comm_rounds, 3, "all rounds must close out");
    assert!(
        out.report.degraded_rounds > 0,
        "losing a reporter must flag degradation"
    );
    assert!(out.train.params.iter().all(|x| x.is_finite()));
    // The victim's slot shows the truncated exchange: it received at
    // most the first broadcast (later ones found a dead socket) and
    // sent exactly one update.
    let victim = &out.report.per_node[NODES - 1];
    assert_eq!(victim.frames_sent, 1, "victim reported once");
    assert!(victim.frames_received <= 3);
}

/// Hands the hub pre-made in-process links, so the platform serves
/// channel peers through the same `serve` as socket peers.
struct ChannelListener(Vec<Box<dyn Transport>>);

impl TransportListener for ChannelListener {
    fn accept(&mut self, timeout: Duration) -> Result<Box<dyn Transport>, TransportError> {
        self.0.pop().ok_or_else(|| {
            std::thread::sleep(timeout);
            TransportError::Timeout
        })
    }

    fn local_addr(&self) -> String {
        "in-process".into()
    }

    fn kind(&self) -> &'static str {
        "channel"
    }
}

/// A well-formed uplink update for `round` whose logical length is not
/// the model's `d`: one parameter short, one too long, or a top-k frame
/// with no entries that announces `u32::MAX` zeros.
fn wrong_dimension_update(which: usize, round: u32, node: u32, d: usize) -> bytes::Bytes {
    match which {
        0 => update_frame(round, node, &vec![0.5; d - 1]),
        1 => update_frame(round, node, &vec![0.5; d + 1]),
        _ => {
            let mut f = vec![0x80 | PROTOCOL_VERSION, 6];
            f.extend(round.to_le_bytes());
            f.extend(node.to_le_bytes());
            f.extend(u32::MAX.to_le_bytes());
            f.extend([3, 0, 0, 0, 0, 0, 0, 0]); // scheme top-k, k = 0
            f.into()
        }
    }
}

/// Serves a 6-node, 2-round federation whose nodes 3–5 join and then
/// either stay silent (`answer = false`) or answer the first broadcast
/// with [`wrong_dimension_update`].
fn serve_with_three_rogues(kind: &str, answer: bool) -> fml_runtime::RuntimeOutput {
    const HONEST: usize = 3;
    let (model, tasks, theta0) = fixture_of(2 * HONEST, 48);
    let trainer = fedml(2);
    let mut node_ends: Vec<Box<dyn Transport>> = Vec::new();
    let listener: Box<dyn TransportListener> = if kind == "tcp" {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        node_ends.extend(
            (0..tasks.len()).map(|_| Box::new(TcpTransport::connect(&addr).unwrap()) as Box<_>),
        );
        Box::new(listener)
    } else {
        let mut platform_ends: Vec<Box<dyn Transport>> = Vec::new();
        for _ in 0..tasks.len() {
            let (plat, node) = ChannelTransport::pair(4);
            platform_ends.push(Box::new(plat));
            node_ends.push(Box::new(node));
        }
        Box::new(ChannelListener(platform_ends))
    };
    let runtime = Runtime::new(RuntimeConfig {
        recv_timeout_ms: 400,
        ..RuntimeConfig::barrier(1)
    });
    let d = theta0.len();
    std::thread::scope(|s| {
        for (node, mut link) in node_ends.into_iter().enumerate() {
            let (runtime, trainer, model, tasks) = (&runtime, &trainer, &model, &tasks);
            s.spawn(move || {
                if node < HONEST {
                    runtime.run_node(trainer, model, tasks, node, link.as_mut());
                    return;
                }
                let id = node as u32;
                link.send_frame(&update_frame(0, id, &[])).unwrap();
                let mut pending = answer;
                // Until the platform hangs up.
                while let Ok(frame) = link.recv_frame(Duration::from_secs(10)) {
                    if std::mem::take(&mut pending) {
                        let bcast = MessageView::parse(&frame).expect("a training frame");
                        assert!(bcast.is_global(), "expected a broadcast");
                        let bad = wrong_dimension_update(node - HONEST, bcast.round(), id, d);
                        link.send_frame(&bad).unwrap();
                    }
                }
            });
        }
        runtime
            .serve(&trainer, &model, &tasks, &theta0, listener)
            .expect("serve must survive wrong-dimension updates")
    })
}

#[test]
fn wrong_dimension_updates_are_counted_and_never_reach_the_aggregate() {
    // At the parent the short and long dense updates panicked the
    // platform thread inside the aggregate, and the empty top-k frame
    // was materialized as u32::MAX zeros first.
    for kind in ["channel", "tcp"] {
        let silent = serve_with_three_rogues(kind, false);
        let out = serve_with_three_rogues(kind, true);
        assert_eq!(out.report.transport, kind);
        assert_eq!(out.report.decode_errors, 3, "{kind}");
        assert_eq!(silent.report.decode_errors, 0, "{kind}");
        assert_eq!(out.train.comm_rounds, 2, "{kind}: the round stays alive");
        // The honest half alone decides every round, exactly as if the
        // rogues had sent nothing.
        assert_eq!(out.train.params, silent.train.params, "{kind}");
        assert_eq!(out.train.history, silent.train.history, "{kind}");
        let halved = |r: &fml_core::RoundRecord| r.reporters == 3 && r.degraded;
        assert!(out.train.history.iter().all(halved), "{kind}");
    }
}
