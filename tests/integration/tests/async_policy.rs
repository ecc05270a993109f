//! Async aggregation-policy conformance: the pluggable policy seam
//! must not move a single bit on the default path.
//!
//! Pinned guarantees:
//!
//! * **Identity** — the default [`AsyncPolicy`] (polynomial decay,
//!   unbuffered, fixed mixing) bitwise-reproduces the pre-seam async
//!   runtime: the cross-process digest [`param_hash`] of a fixed seeded
//!   run is pinned to a literal constant, checked at 1/2/4 worker
//!   threads over the channel transport and again over a real TCP
//!   socket. If a policy-seam change ever perturbs the default fold,
//!   this file fails with the old and new digest side by side.
//! * **Determinism** — hinge/const decay, adaptive mixing, and buffered
//!   semi-async are still pure in `(seed, policy)`: the same run at
//!   different thread counts produces bitwise-equal parameters.
//! * **Convergence sanity** — every decay family and buffered mode
//!   trains to a finite model that accepts updates.
//! * **Reported curve** — the history summed from the terms the nodes
//!   report is the history the platform evaluates itself, bit for bit,
//!   over the channel transport and over TCP (async mode has no
//!   lockstep oracle to compare against).

use fml_core::{FedMl, FedMlConfig, LocalStepper, RoundRecord, Scratch, SourceTask};
use fml_data::synthetic::SyntheticConfig;
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::{
    param_hash, AsyncPolicy, Runtime, RuntimeConfig, StalenessDecay, TcpTransport,
    TcpTransportListener, Transport, TransportListener, VirtualClock,
};
use fml_sim::CURVE_TERMS_LEN;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 6;
const DIM: usize = 5;
const CLASSES: usize = 3;
const ROUNDS: usize = 6;

/// The digest of `fixture()` + `fedml()` under the default async policy
/// (polynomial decay, the constant `η = 0.5` and `a = 1`, unbuffered), as
/// of the introduction of the pluggable policy subsystem. This is the
/// conformance anchor: any change that moves it alters the historical
/// FedAsync-style fold and must be deliberate.
const PINNED_ASYNC_HASH: &str = "cdbbec3422fb7703";

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

/// The async configuration the pin is anchored to: enough jitter that
/// updates really arrive late (the staleness path is exercised, not
/// idle), on the default policy.
fn pinned_cfg(policy: AsyncPolicy) -> RuntimeConfig {
    RuntimeConfig::async_mode(7, policy)
        .with_clock(VirtualClock::new(5).with_base_delay(0.1).with_jitter(2.5))
}

/// Serve `cfg` on a fresh TCP listener with every node in its own
/// thread on its own connection.
fn run_over_tcp(
    cfg: RuntimeConfig,
    trainer: &(dyn LocalStepper + Sync),
    model: &SoftmaxRegression,
    tasks: &[SourceTask],
    theta0: &[f64],
) -> fml_runtime::RuntimeOutput {
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let runtime = Runtime::new(RuntimeConfig {
        recv_timeout_ms: 10_000,
        ..cfg
    });
    std::thread::scope(|s| {
        for node in 0..tasks.len() {
            let addr = addr.clone();
            let runtime = &runtime;
            s.spawn(move || {
                let mut link: Box<dyn Transport> = Box::new(TcpTransport::connect(&addr).unwrap());
                runtime.run_node(trainer, model, tasks, node, link.as_mut())
            });
        }
        runtime
            .serve(trainer, model, tasks, theta0, Box::new(listener))
            .expect("serve must complete once peers joined")
    })
}

#[test]
fn default_policy_param_hash_is_pinned_across_threads_and_transports() {
    let (model, tasks, theta0) = fixture();
    let trainer = fedml();

    // Channel transport at 1/2/4 worker threads.
    let mut reference: Option<Vec<f64>> = None;
    for threads in [1usize, 2, 4] {
        let cfg = pinned_cfg(AsyncPolicy::default()).with_threads(threads);
        let out = Runtime::new(cfg).run(&trainer, &model, &tasks, &theta0);
        assert_eq!(
            param_hash(&out.train.params),
            PINNED_ASYNC_HASH,
            "channel / {threads} threads — default async fold moved"
        );
        // The fixture's jitter really exercises the staleness path.
        assert!(out.report.accepted_updates() > 0);
        assert!(out.report.staleness_hist.iter().rposition(|&c| c > 0).unwrap_or(0) > 0);
        if let Some(reference) = &reference {
            assert_eq!(&out.train.params, reference);
        } else {
            reference = Some(out.train.params);
        }
    }

    // Same bits through a real TCP socket.
    let out = run_over_tcp(
        pinned_cfg(AsyncPolicy::default()),
        &trainer,
        &model,
        &tasks,
        &theta0,
    );
    assert_eq!(param_hash(&out.train.params), PINNED_ASYNC_HASH, "tcp");
    assert_eq!(out.report.transport, "tcp");
}

#[test]
fn explicit_default_knobs_are_the_identity() {
    let (model, tasks, theta0) = fixture();
    let trainer = fedml();
    // Spelling out the defaults through the new policy surface cannot
    // move a bit relative to the bare default.
    let explicit = AsyncPolicy {
        decay: StalenessDecay::Poly,
        buffer_k: 1,
        ..AsyncPolicy::default()
    };
    let out = Runtime::new(pinned_cfg(explicit)).run(&trainer, &model, &tasks, &theta0);
    assert_eq!(param_hash(&out.train.params), PINNED_ASYNC_HASH);
}

#[test]
fn every_policy_family_is_thread_count_invariant() {
    let (model, tasks, theta0) = fixture();
    let trainer = fedml();
    let base = AsyncPolicy::default();
    let policies = [
        AsyncPolicy { decay: StalenessDecay::Hinge { knee: 1 }, ..base },
        AsyncPolicy { decay: StalenessDecay::Const, ..base },
        AsyncPolicy { adaptive_mix: true, ..base },
        AsyncPolicy { buffer_k: 2, ..base },
        AsyncPolicy {
            decay: StalenessDecay::Hinge { knee: 0 },
            adaptive_mix: true,
            buffer_k: 3,
            ..base
        },
    ];
    for policy in policies {
        let one = Runtime::new(pinned_cfg(policy).with_threads(1))
            .run(&trainer, &model, &tasks, &theta0);
        assert!(one.train.params.iter().all(|x| x.is_finite()), "{policy:?}");
        assert!(one.report.accepted_updates() > 0, "{policy:?}");
        for threads in [2usize, 4] {
            let out = Runtime::new(pinned_cfg(policy).with_threads(threads))
                .run(&trainer, &model, &tasks, &theta0);
            assert_eq!(
                out.train.params, one.train.params,
                "{policy:?} at {threads} threads diverged from 1 thread"
            );
        }
    }
}

#[test]
fn buffered_mode_is_deterministic_over_tcp_too() {
    let (model, tasks, theta0) = fixture();
    let trainer = fedml();
    let policy = AsyncPolicy {
        buffer_k: 2,
        ..AsyncPolicy::default()
    };
    let channel =
        Runtime::new(pinned_cfg(policy).with_threads(1)).run(&trainer, &model, &tasks, &theta0);
    let tcp = run_over_tcp(pinned_cfg(policy), &trainer, &model, &tasks, &theta0);
    assert_eq!(
        param_hash(&tcp.train.params),
        param_hash(&channel.train.params),
        "buffered async over tcp diverged from channel"
    );
    assert!(tcp.report.buffered_flushes > 0);
}

#[test]
fn decay_families_converge_on_the_fixture() {
    let (model, tasks, theta0) = fixture();
    let trainer = fedml();
    let baseline = Runtime::new(pinned_cfg(AsyncPolicy::default()))
        .run(&trainer, &model, &tasks, &theta0)
        .train
        .final_meta_loss()
        .expect("history recorded");
    let base = AsyncPolicy::default();
    for policy in [
        AsyncPolicy { decay: StalenessDecay::Hinge { knee: 1 }, ..base },
        AsyncPolicy { decay: StalenessDecay::Const, ..base },
        AsyncPolicy { buffer_k: 2, ..base },
        AsyncPolicy { buffer_k: 4, ..base },
    ] {
        let out = Runtime::new(pinned_cfg(policy)).run(&trainer, &model, &tasks, &theta0);
        let loss = out.train.final_meta_loss().expect("history recorded");
        assert!(
            loss.is_finite() && (loss - baseline).abs() < 0.5,
            "{policy:?}: final meta loss {loss} vs baseline {baseline}"
        );
    }
}

/// [`FedMl`], except that it does not say its step yields the curve
/// terms: its nodes send plain updates and the platform evaluates every
/// task of every round itself.
struct Unreported(FedMl);

impl LocalStepper for Unreported {
    fn algorithm(&self) -> &'static str {
        self.0.algorithm()
    }

    fn rounds(&self) -> usize {
        self.0.rounds()
    }

    fn local_steps(&self) -> usize {
        self.0.local_steps()
    }

    fn advance(
        &self,
        model: &dyn Model,
        task: &SourceTask,
        anchor: &[f64],
        state: &mut [f64],
        steps: usize,
        scratch: &mut Scratch,
    ) {
        self.0.advance(model, task, anchor, state, steps, scratch);
    }

    fn eval_losses_with(
        &self,
        model: &dyn Model,
        tasks: &[SourceTask],
        theta: &[f64],
        scratch: &mut Scratch,
    ) -> (f64, f64) {
        self.0.eval_losses_with(model, tasks, theta, scratch)
    }
}

#[test]
fn async_history_from_reported_terms_is_the_evaluated_history() {
    let (model, tasks, theta0) = fixture();
    let (trainer, unreported) = (fedml(), Unreported(fedml()));
    let bits = |history: &[RoundRecord]| {
        history
            .iter()
            .map(|r| (r.meta_loss.to_bits(), r.train_loss.to_bits(), r.reporters))
            .collect::<Vec<_>>()
    };
    let cfg = pinned_cfg(AsyncPolicy::default());
    let reported = Runtime::new(cfg.clone()).run(&trainer, &model, &tasks, &theta0);
    let evaluated = Runtime::new(cfg.clone()).run(&unreported, &model, &tasks, &theta0);
    let want = bits(&evaluated.train.history);
    assert_eq!(want.len(), ROUNDS);
    assert_eq!(bits(&reported.train.history), want, "channel");
    assert_eq!(reported.train.params, evaluated.train.params);
    // Every node reports in every round; round 1's terms have no parked
    // round to serve and the last round has no next broadcast.
    let counters = |out: &fml_runtime::RuntimeOutput| {
        (
            out.report.curve_terms_reported,
            out.report.curve_terms_evaluated,
        )
    };
    let (rounds, nodes) = (ROUNDS as u64, NODES as u64);
    assert_eq!(counters(&reported), ((rounds - 1) * nodes, nodes));
    assert_eq!(counters(&evaluated), (0, rounds * nodes));
    // Each reply's trailer is counted where its bytes are: at the node in
    // process, at the hub over TCP.
    let trailers = |out: &fml_runtime::RuntimeOutput| {
        out.report
            .per_node
            .iter()
            .map(|io| (io.trailer_bytes_sent, io.frames_sent))
            .collect::<Vec<_>>()
    };
    for (trailer, frames) in trailers(&reported) {
        assert_eq!(trailer, CURVE_TERMS_LEN as u64 * frames);
    }
    for (trailer, _) in trailers(&evaluated) {
        assert_eq!(trailer, 0);
    }

    let reported = run_over_tcp(cfg.clone(), &trainer, &model, &tasks, &theta0);
    let evaluated = run_over_tcp(cfg, &unreported, &model, &tasks, &theta0);
    assert_eq!(bits(&reported.train.history), want, "tcp, reported");
    assert_eq!(bits(&evaluated.train.history), want, "tcp, evaluated");
    assert_eq!(counters(&reported), ((rounds - 1) * nodes, nodes));
    for (trailer, _) in trailers(&reported) {
        assert!(trailer > 0 && trailer % CURVE_TERMS_LEN as u64 == 0);
    }
    for (trailer, _) in trailers(&evaluated) {
        assert_eq!(trailer, 0);
    }
}
