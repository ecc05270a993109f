//! Wire-protocol v2 codec conformance: the `UpdateCodec` seam must not
//! move a single bit unless asked to.
//!
//! Three guarantees are pinned here:
//!
//! * **Identity** — `--update-codec none` is the historical dense path
//!   *bitwise*: the cross-process digest [`param_hash`] of a fixed
//!   seeded run is pinned to a literal constant, checked at 1/2/4
//!   worker threads over the channel transport and again over a real
//!   TCP socket. If an encode change ever perturbs the dense frames,
//!   this file fails with the old and new digest side by side.
//! * **Determinism** — lossy codecs (quant, top-k with error feedback)
//!   are still pure in `(seed, codec)`: the same run at different
//!   thread counts and across channel vs TCP produces bitwise-equal
//!   parameters, because compression state is keyed by node, never by
//!   worker.
//! * **Accounting** — over sockets the hub's logical byte counters
//!   report the dense-equivalent cost, so the physical/logical gap is
//!   the real uplink saving.

use fml_core::{FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::{
    param_hash, NodeIo, Runtime, RuntimeConfig, TcpTransport, TcpTransportListener, Transport,
    TransportListener, UpdateCodec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 6;
const DIM: usize = 5;
const CLASSES: usize = 3;
const ROUNDS: usize = 3;

/// The digest of `fixture()` + `fedml()` under the dense/`none` path,
/// as of the introduction of the codec seam. This is the conformance
/// anchor: any change that moves it is a wire-compatibility break and
/// must be deliberate.
const PINNED_NONE_HASH: &str = "4e8fb6140cfc0bff";

fn fixture() -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(90);
    let fed = SyntheticConfig::new(0.5, 0.5)
        .with_nodes(NODES)
        .with_dim(DIM)
        .with_classes(CLASSES)
        .generate(&mut rng);
    let tasks = SourceTask::from_nodes_deterministic(fed.nodes(), 5);
    let model = SoftmaxRegression::new(DIM, CLASSES).with_l2(1e-3);
    let theta0 = model.init_params(&mut rng);
    (model, tasks, theta0)
}

fn fedml() -> FedMl {
    FedMl::new(
        FedMlConfig::new(0.05, 0.05)
            .with_rounds(ROUNDS)
            .with_local_steps(2),
    )
}

/// Serve `cfg` on a fresh TCP listener with every node in its own
/// thread on its own connection.
fn run_over_tcp(
    cfg: RuntimeConfig,
    trainer: &(dyn LocalStepper + Sync),
    model: &SoftmaxRegression,
    tasks: &[SourceTask],
    theta0: &[f64],
) -> (fml_runtime::RuntimeOutput, Vec<NodeIo>) {
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let runtime = Runtime::new(RuntimeConfig {
        recv_timeout_ms: 10_000,
        ..cfg
    });
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..tasks.len())
            .map(|node| {
                let addr = addr.clone();
                let runtime = &runtime;
                s.spawn(move || {
                    let mut link: Box<dyn Transport> =
                        Box::new(TcpTransport::connect(&addr).unwrap());
                    runtime.run_node(trainer, model, tasks, node, link.as_mut())
                })
            })
            .collect();
        let out = runtime
            .serve(trainer, model, tasks, theta0, Box::new(listener))
            .expect("serve must complete once peers joined");
        let node_io: Vec<NodeIo> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (out, node_io)
    })
}

#[test]
fn none_codec_param_hash_is_pinned_across_threads_and_transports() {
    let (model, tasks, theta0) = fixture();
    let trainer = fedml();

    // The in-process oracle defines the expected bits.
    let reference = trainer.train_from(&model, &tasks, &theta0);
    assert_eq!(
        param_hash(&reference.params),
        PINNED_NONE_HASH,
        "oracle digest moved — dense wire conformance is broken"
    );

    // Channel transport, explicit `none`, at 1/2/4 worker threads.
    for threads in [1usize, 2, 4] {
        let cfg = RuntimeConfig::barrier(7)
            .with_threads(threads)
            .with_update_codec(UpdateCodec::None);
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(
            param_hash(&out.train.params),
            PINNED_NONE_HASH,
            "channel / {threads} threads"
        );
        assert_eq!(out.train.params, reference.params);
        assert_eq!(out.report.update_codec, "none");
        // `none` really is the identity: logical bytes == physical bytes.
        assert_eq!(
            out.report.uplink_bytes_logical(),
            out.report.uplink_bytes(),
            "none codec must not change a single uplink byte"
        );
    }

    // Same bits through a real TCP socket.
    let cfg = RuntimeConfig::barrier(7).with_update_codec(UpdateCodec::None);
    let (out, _) = run_over_tcp(cfg, &trainer, &model, &tasks, &theta0);
    assert_eq!(param_hash(&out.train.params), PINNED_NONE_HASH, "tcp");
    assert_eq!(out.train.params, reference.params);
    assert_eq!(out.report.transport, "tcp");
}

#[test]
fn lossy_codecs_are_deterministic_across_threads_and_transports() {
    let (model, tasks, theta0) = fixture();
    let trainer = fedml();

    for codec in [UpdateCodec::Quant { bits: 8 }, UpdateCodec::TopK { k: 3 }] {
        // Channel reference at one thread ...
        let cfg = RuntimeConfig::barrier(7)
            .with_threads(1)
            .with_update_codec(codec);
        let reference = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);

        // ... matched bitwise at higher thread counts ...
        for threads in [2usize, 4] {
            let cfg = RuntimeConfig::barrier(7)
                .with_threads(threads)
                .with_update_codec(codec);
            let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
            assert_eq!(
                out.train.params, reference.train.params,
                "{codec} at {threads} threads diverged from 1 thread"
            );
        }

        // ... and bitwise through TCP, where the frames cross a socket.
        let cfg = RuntimeConfig::barrier(7).with_update_codec(codec);
        let (out, _) = run_over_tcp(cfg, &trainer, &model, &tasks, &theta0);
        assert_eq!(
            out.train.params, reference.train.params,
            "{codec} over tcp diverged from channel"
        );
        assert_eq!(out.report.update_codec, codec.to_string());
    }
}

#[test]
fn hub_logical_counters_expose_the_uplink_saving_over_tcp() {
    let (model, tasks, theta0) = fixture();
    let trainer = fedml();

    let cfg = RuntimeConfig::barrier(7).with_update_codec(UpdateCodec::TopK { k: 2 });
    let (out, node_io) = run_over_tcp(cfg, &trainer, &model, &tasks, &theta0);

    // The codec's ratio: the curve-terms trailers left out of both sides.
    let trailers: u64 = out.report.per_node.iter().map(|io| io.trailer_bytes_sent).sum();
    let physical = out.report.uplink_bytes() - trailers;
    assert!(physical > 0, "both counters populated");
    let ratio = (out.report.uplink_bytes_logical() - trailers) as f64 / physical as f64;
    assert!(ratio >= 3.0, "uplink compression ratio {ratio:.2} < 3x");
    for io in &out.report.per_node {
        assert!(
            io.bytes_sent_logical > io.bytes_sent,
            "hub logical counter must exceed physical for a sparse codec"
        );
    }
    // Node-side counters tell the same story from the other end.
    for io in &node_io {
        assert!(io.bytes_sent_logical > io.bytes_sent);
    }
}
