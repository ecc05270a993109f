//! Self-healing runtime suite: checkpoint-rollback-exclude recovery on
//! the serving platform must mirror the simulator's bit for bit, disk
//! checkpoints must make a killed platform resumable, and a node that
//! dies and reconnects repeatedly must cost nothing but counters.
//!
//! Three layers:
//!
//! * **Oracle parity** — a serve-mode run over TCP with scripted
//!   crash/corrupt faults (and a fault-injecting transport
//!   wrapper on every node link) must roll back, exclude the dead
//!   minority, and land on *bitwise* the parameters of
//!   `fml_runtime::SimRunner::with_faults` under the same plan: the
//!   round core's two drivers, threads and sockets against virtual
//!   time, held to each other and both to a literal recorded from the
//!   in-process fault loop the simulator replaced.
//! * **Checkpoint resume** — a platform that stops mid-run leaves a
//!   `latest.json` from which a fresh platform resumes to the exact
//!   final hash of an uninterrupted run.
//! * **Watchdog** — killing and restarting a node three times mid-run
//!   bumps its reconnect counter three times and changes no bits,
//!   because every reconnect gets the open round's broadcast again.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use fml_core::{FaultPlan, FaultTolerance, FedMl, FedMlConfig, LocalStepper, SourceTask};
use fml_data::synthetic::SyntheticConfig;
use fml_integration::update_frame;
use fml_models::{Model, SoftmaxRegression};
use fml_runtime::{
    param_hash, FaultyTransport, LinkFaultPlan, Runtime, RuntimeConfig, SimRunner, TcpTransport,
    TcpTransportListener, Transport, TransportListener,
};
use fml_sim::{MessageView, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 4;
const CLASSES: usize = 3;
const LOCAL_STEPS: usize = 2;

fn fixture(nodes: usize, seed: u64) -> (SoftmaxRegression, Vec<SourceTask>, Vec<f64>) {
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
            .with_local_steps(LOCAL_STEPS),
    )
}

/// A scratch dir unique per test process and call.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "fml-recovery-{tag}-{}-{}",
        std::process::id(),
        seq
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The poison scenario shared by the oracle and the runtime: node 1
/// reports NaNs in round 1 (validation screens it out), nodes 2–5 all
/// crash from round 2 (quorum over 6 collapses to 2 of 6 → rollback,
/// exclude the four, re-run with the surviving pair).
fn poison_plan() -> FaultPlan {
    FaultPlan::new(9)
        .with_corrupt(1, 1)
        .with_crash_from(2, 2)
        .with_crash_from(3, 2)
        .with_crash_from(4, 2)
        .with_crash_from(5, 2)
}

#[test]
fn serve_mode_recovery_matches_the_ft_oracle() {
    const NODES: usize = 6;
    const ROUNDS: usize = 4;
    let (model, tasks, theta0) = fixture(NODES, 51);
    let trainer = fedml(ROUNDS);

    // The virtual-time driver is the oracle: same plan, same default
    // policy, same recovery budget.
    let ft = FaultTolerance::new(poison_plan());
    let mut rng = StdRng::seed_from_u64(0);
    let (oracle, _) = SimRunner::new(SimConfig::ideal())
        .with_faults(ft)
        .train(&trainer, &model, &tasks, &theta0, &mut rng);
    // The surviving pair keeps quorum.
    let shape: Vec<(usize, bool)> = oracle
        .history
        .iter()
        .map(|r| (r.reporters, r.degraded))
        .collect();
    assert_eq!(shape, [(5, true), (2, true), (2, true), (2, true)]);
    assert_eq!(param_hash(&oracle.params), "ed8be316d90a44ec");

    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let cfg = RuntimeConfig {
        recv_timeout_ms: 10_000,
        ..RuntimeConfig::barrier(7).with_faults(poison_plan())
    };
    let runtime = Runtime::new(cfg);
    let (out, link_stats) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NODES)
            .map(|node| {
                let addr = addr.clone();
                let runtime = &runtime;
                let (trainer, model, tasks) = (&trainer, &model, &tasks);
                s.spawn(move || {
                    // Every node talks through the fault-injecting
                    // wrapper; delay-only injection exercises the seam
                    // without changing a single byte.
                    let tcp = Box::new(TcpTransport::connect(&addr).unwrap());
                    let mut link = FaultyTransport::new(
                        tcp,
                        LinkFaultPlan::new(100 + node as u64).with_delay(1.0, 2),
                    );
                    runtime.run_node(trainer, model, tasks, node, &mut link);
                    link.stats()
                })
            })
            .collect();
        let out = runtime
            .serve(&trainer, &model, &tasks, &theta0, Box::new(listener))
            .expect("serve must recover, not abort");
        let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (out, stats)
    });

    // Bitwise parity with the virtual-time driver.
    assert_eq!(out.train.params, oracle.params, "params must be bitwise equal");
    assert_eq!(
        out.train.history, oracle.history,
        "curve must be bitwise equal"
    );
    assert_eq!(
        param_hash(&out.train.params),
        param_hash(&oracle.params),
        "cross-process digest must agree"
    );

    // The recovery actually happened: one rollback, four exclusions.
    assert_eq!(out.report.recoveries, 1);
    assert_eq!(out.report.rollbacks, 1);
    assert_eq!(out.report.excluded_nodes, vec![2, 3, 4, 5]);
    assert!(out.report.degraded_rounds > 0, "faulted rounds must be flagged");
    assert_eq!(out.report.node_health.len(), NODES);

    // The wrapper was live on every link: each node saw delays.
    for (node, stats) in link_stats.iter().enumerate() {
        assert!(stats.delayed > 0, "node {node} never went through the wrapper");
    }
}

#[test]
fn platform_resumes_from_disk_checkpoint_to_the_same_bits() {
    const NODES: usize = 5;
    const ROUNDS: usize = 4;
    let (model, tasks, theta0) = fixture(NODES, 52);
    let dir = scratch_dir("resume");

    // Uninterrupted reference, no checkpointing involved.
    let reference = Runtime::new(RuntimeConfig::barrier(3)).run(
        &fedml(ROUNDS),
        &model,
        &tasks,
        &theta0,
    );

    // A platform that dies after round 2: same config, checkpointing
    // every round, but only half the schedule before the "kill".
    let killed = Runtime::new(
        RuntimeConfig::barrier(3)
            .with_checkpoint_dir(&dir)
            .with_checkpoint_every(1),
    )
    .run(&fedml(2), &model, &tasks, &theta0);
    assert!(killed.report.checkpoints_written >= 2);
    assert_eq!(killed.report.resumed_at_round, None, "nothing to resume from");
    assert!(dir.join("latest.json").exists());

    // A fresh platform pointed at the same dir picks up at round 3 and
    // lands on the uninterrupted run's exact bits.
    let resumed = Runtime::new(
        RuntimeConfig::barrier(3)
            .with_checkpoint_dir(&dir)
            .with_checkpoint_every(1),
    )
    .run(&fedml(ROUNDS), &model, &tasks, &theta0);
    assert_eq!(resumed.report.resumed_at_round, Some(3));
    assert_eq!(
        resumed.train.params, reference.train.params,
        "resume must be bitwise deterministic"
    );
    assert_eq!(
        param_hash(&resumed.train.params),
        param_hash(&reference.train.params)
    );
    // Only the tail was re-run.
    assert_eq!(resumed.train.history.len(), ROUNDS - 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_from_another_fleet_size_is_not_resumed() {
    const ROUNDS: usize = 3;
    let dir = scratch_dir("fleet-size");
    let cfg = || {
        RuntimeConfig::barrier(3)
            .with_checkpoint_dir(&dir)
            .with_checkpoint_every(1)
    };

    // A 4-node run leaves its checkpoint behind…
    let (model, four_tasks, four_theta0) = fixture(4, 53);
    let four = Runtime::new(cfg()).run(&fedml(2), &model, &four_tasks, &four_theta0);
    assert!(four.report.checkpoints_written >= 2);

    // …and a 3-node run pointed at the same dir must not pick it up: the
    // global, the recovery budget and the health record belong to
    // another fleet. It runs from its own start, to a fresh run's bits.
    let (model, tasks, theta0) = fixture(3, 54);
    let fresh =
        Runtime::new(RuntimeConfig::barrier(3)).run(&fedml(ROUNDS), &model, &tasks, &theta0);
    let three = Runtime::new(cfg()).run(&fedml(ROUNDS), &model, &tasks, &theta0);
    assert_eq!(three.report.resumed_at_round, None);
    assert_eq!(three.train.history.len(), ROUNDS);
    assert_eq!(three.train.params, fresh.train.params);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn node_killed_and_restarted_three_times_changes_no_bits() {
    const NODES: usize = 5;
    const ROUNDS: usize = 5;
    const VICTIM: usize = NODES - 1;
    let (model, tasks, theta0) = fixture(NODES, 53);
    let trainer = fedml(ROUNDS);
    let reference = trainer.train_from(&model, &tasks, &theta0);

    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let cfg = RuntimeConfig {
        recv_timeout_ms: 15_000,
        ..RuntimeConfig::barrier(1)
    };
    let runtime = Runtime::new(cfg);

    // One kill/restart cycle: join, answer exactly one broadcast with
    // the *real* local update, then drop the connection cold.
    let answer = |link: &mut dyn Transport| -> bool {
        let Ok(frame) = link.recv_frame(Duration::from_secs(15)) else {
            return false;
        };
        let bcast = MessageView::parse(&frame).expect("victim expected a frame");
        assert!(bcast.is_global(), "victim expected a broadcast");
        let params = bcast.params_to_vec();
        let update = trainer.local_update(&model, &tasks[VICTIM], &params, LOCAL_STEPS);
        let reply = update_frame(bcast.round(), VICTIM as u32, &update);
        link.send_frame(&reply).is_ok()
    };
    let hello = update_frame(0, VICTIM as u32, &[]);

    let out = std::thread::scope(|s| {
        for node in 0..NODES - 1 {
            let addr = addr.clone();
            let runtime = &runtime;
            let (trainer, model, tasks) = (&trainer, &model, &tasks);
            s.spawn(move || {
                let mut link = TcpTransport::connect(&addr).unwrap();
                runtime.run_node(trainer, model, tasks, node, &mut link);
            });
        }
        let victim_addr = addr.clone();
        let (answer, hello) = (&answer, &hello);
        s.spawn(move || {
            // Three kill/restart cycles: each connection answers one
            // broadcast and dies. The hub replays the open round's
            // broadcast to the next connection — one that landed while
            // the victim was away, or one it already answered (that
            // second reply counts as undelivered) — so no round is ever
            // lost.
            for _ in 0..3 {
                let mut link = TcpTransport::connect(&victim_addr).unwrap();
                link.send_frame(hello).unwrap();
                assert!(answer(&mut link), "victim must answer before dying");
                link.close();
            }
            // The last incarnation serves out the remaining rounds.
            let mut link = TcpTransport::connect(&victim_addr).unwrap();
            link.send_frame(hello).unwrap();
            while answer(&mut link) {}
        });
        runtime
            .serve(&trainer, &model, &tasks, &theta0, Box::new(listener))
            .expect("serve must ride out the restarts")
    });

    assert_eq!(out.train.params, reference.params, "params must be bitwise equal");
    assert_eq!(param_hash(&out.train.params), param_hash(&reference.params));
    assert_eq!(out.train.comm_rounds, ROUNDS, "every round must aggregate");
    assert_eq!(
        out.report.per_node[VICTIM].reconnects, 3,
        "three restarts must be three reconnects"
    );
    assert_eq!(out.report.degraded_rounds, 0, "parked broadcasts lose nothing");
    assert_eq!(out.report.recoveries, 0, "reconnects are not failures to recover from");
}
