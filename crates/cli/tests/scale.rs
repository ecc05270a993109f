//! The fleet at scale through the `fedml` binary: a 1 000-source-node
//! barrier federation on the in-process runtime, run with the auto-sized
//! worker pool, with one worker, and with eight workers and a socket
//! queue bound. The final model must hash bitwise alike across the
//! three — pooled frames, one refcounted broadcast posted a round, and
//! workers claiming its nodes in chunks are held to the determinism
//! contract at a fleet three orders of magnitude above the unit tests
//! (`--mailbox-cap` bounds socket peers' queues only; passing it keeps
//! the flag accepted on a channel run). Each run must also miss the
//! frame pool fewer than 1.5 times the 1 001 frames a round has live (a
//! broadcast and 1 000 replies): a pool that keeps what it allocated
//! misses only while they first come live. Every wait is bounded.

pub mod common;

use common::{fedml_runtime, read, text, uint, TempDir};

/// 1 250 nodes at source_frac 0.8: exactly 1 000 source-node actors.
const CONFIG: &str = r#"{
  "seed": 17,
  "source_frac": 0.8,
  "dataset": {
    "kind": "synthetic",
    "alpha": 0.5,
    "beta": 0.5,
    "nodes": 1250,
    "dim": 6,
    "classes": 3,
    "mean_samples": 12.0
  },
  "model": { "kind": "softmax", "l2": 0.001 },
  "algorithm": {
    "kind": "fedml",
    "alpha": 0.05,
    "beta": 0.05,
    "local_steps": 2,
    "rounds": 2,
    "first_order": true
  },
  "simulate": null,
  "eval": { "k": 4, "adapt_steps": 2, "adapt_lr": 0.05, "fgsm_xi": null }
}"#;

/// Frames a round has live: one broadcast and 1 000 replies.
const LIVE: u64 = 1 + 1000;

#[test]
fn a_thousand_node_fleet_hashes_alike_at_any_worker_count() {
    let dir = TempDir::new("scale");
    std::fs::write(dir.0.join("cfg.json"), CONFIG).expect("write the config");
    let runs = [
        ("base", &[][..]),
        ("t1", &["--threads", "1"][..]),
        ("t8", &["--threads", "8", "--mailbox-cap", "8"][..]),
    ];
    let mut hashes = Vec::new();
    for (name, flags) in runs {
        let out = fedml_runtime(&dir.0, name, flags);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = read(&dir.0.join(format!("{name}.json")));
        let misses = uint(&report, &["runtime", "pool", "misses"]);
        assert!(
            misses < LIVE + LIVE / 2,
            "{name} missed the frame pool {misses} times"
        );
        hashes.push(text(&report, &["runtime", "param_hash"]).to_owned());
    }
    let base = &hashes[0];
    assert!(
        base.len() == 16 && base.chars().all(|c| c.is_ascii_hexdigit()),
        "param_hash {base} is not 16 hex digits"
    );
    assert_eq!(
        hashes,
        [base.as_str(); 3],
        "param_hash at auto threads, --threads 1, --threads 8"
    );
}
