//! The self-healing runtime through the `fedml` binary. One poisoned
//! federation — node 1 reports NaNs in round 1 and nodes 2–5 crash from
//! round 2, so the platform must roll back, exclude the dead majority
//! and finish on the surviving pair — is run over channels in one
//! process, then as one platform process and one process per source
//! node over TCP, with every node link delayed, then again with the
//! platform killed mid-run and resumed from its checkpoint. Both TCP
//! runs must hash like the channel run. Last, a fleet dead from round 1
//! must degrade every round in place, never panic. Every wait is
//! bounded, so a hang fails the test instead of stalling it.

pub mod common;

use std::time::{Duration, Instant};

use common::{at, listening_addr, read, runtime, text, uint, Running, TempDir};

/// 8 nodes at source_frac 0.75: 6 source nodes, one process each.
const NODES: usize = 6;

/// The poison schedule, given to the platform and to every node (a node
/// corrupts its own upload, so both ends must see it).
const FAULTS: &str =
    "--corrupt-at 1:1 --crash-from 2:2 --crash-from 3:2 --crash-from 4:2 --crash-from 5:2";

/// Seeded delay on every node link: ~250 ms a round, so a run lasts long
/// enough to be killed mid-way, through the fault-injecting transport,
/// with no byte changed.
const DELAYS: &str = "--fault-delay-prob 1.0 --fault-delay-ms 250";

/// How long the first checkpoint may take to appear.
const CHECKPOINT_LIMIT: Duration = Duration::from_secs(10);

/// A TCP platform on the config, under [`FAULTS`] and `flags`, writing
/// `<name>.json`, and one delayed node process per source node
/// connected to it. Each is killed when dropped.
fn fleet(dir: &TempDir, name: &str, flags: &str) -> (Running, Vec<Running>) {
    let args = format!(
        "runtime cfg.json --transport tcp --listen 127.0.0.1:0 {FAULTS} {flags} --json {name}.json"
    );
    let mut platform = Running::spawn(&dir.0, name, &args);
    let addr = listening_addr(&mut platform, "platform listening on ");
    let expected = format!("{addr} ({NODES} nodes expected)");
    assert!(
        platform.stderr().contains(&expected),
        "{}",
        platform.stderr()
    );
    let nodes = (0..NODES)
        .map(|i| {
            let args = format!(
                "runtime cfg.json --transport tcp --connect {addr} --node {i} {FAULTS} {DELAYS}"
            );
            Running::spawn(&dir.0, &format!("{name}-node{i}"), &args)
        })
        .collect();
    (platform, nodes)
}

#[test]
fn a_poisoned_fleet_recovers_over_tcp_and_across_a_kill() {
    let dir = TempDir::new("recovery");
    let faults: Vec<&str> = FAULTS.split_whitespace().collect();
    let hash = ["runtime", "param_hash"];

    // The channel baseline: it rolls back once and excludes the dead.
    let channel = runtime(&dir.0, "channel", &faults);
    assert!(uint(&channel, &["runtime", "rollbacks"]) >= 1);
    let excluded = at(&channel, &["runtime", "excluded_nodes"]).as_array();
    assert!(excluded.is_some_and(|e| !e.is_empty()), "nobody excluded");
    let digits = text(&channel, &hash);

    // Platform and node processes over TCP, the same poison.
    let (platform, nodes) = fleet(&dir, "tcp", "");
    platform.finish();
    drop(nodes);
    let tcp = read(&dir.0.join("tcp.json"));
    assert_eq!(
        text(&tcp, &hash),
        digits,
        "tcp run differs from channel run"
    );

    // The checkpointing platform killed once its first checkpoint lands:
    // mid-run on any machine, since the delays pace every round.
    let ck = dir.0.join("ck");
    let checkpointing = "--checkpoint-dir ck --checkpoint-every 1";
    let (mut platform, nodes) = fleet(&dir, "killed", checkpointing);
    let deadline = Instant::now() + CHECKPOINT_LIMIT;
    while !ck.join("latest.json").is_file() {
        assert!(
            platform.running() && Instant::now() < deadline,
            "no checkpoint before the kill: {}",
            platform.stderr()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(200));
    drop(platform);
    // No orphaned node may join the resumed fleet.
    drop(nodes);
    let round: usize = text(&read(&ck.join("latest.json")), &["meta", "round"])
        .parse()
        .expect("the checkpoint's round is a number");
    assert!(
        round < 6,
        "the kill landed after the run ended (round {round})"
    );

    let (platform, nodes) = fleet(&dir, "resumed", checkpointing);
    platform.finish();
    drop(nodes);
    let resumed = read(&dir.0.join("resumed.json"));
    assert_eq!(text(&resumed, &hash), digits, "resume diverged");
    let resumed_at = uint(&resumed, &["runtime", "resumed_at_round"]);
    assert_eq!(resumed_at, round as u64 + 1);
}

#[test]
fn a_fleet_dead_from_round_one_degrades_every_round() {
    let dir = TempDir::new("dead-fleet");
    let cfg = std::fs::read_to_string(dir.0.join("cfg.json")).expect("read the config");
    let eight = cfg.replace("\"rounds\": 6", "\"rounds\": 8");
    assert_ne!(eight, cfg, "the config has 6 rounds");
    std::fs::write(dir.0.join("dead_cfg.json"), eight).expect("write the config");
    let dead: Vec<String> = (0..NODES).map(|i| format!("--crash-from {i}:1")).collect();
    let args = format!("runtime dead_cfg.json {} --json dead.json", dead.join(" "));
    let out = Running::spawn(&dir.0, "dead", &args).exit();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let report = read(&dir.0.join("dead.json"));
    assert_eq!(uint(&report, &["runtime", "degraded_rounds"]), 8);
}
