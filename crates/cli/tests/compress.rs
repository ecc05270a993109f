//! The update codec through the `fedml` binary: one seeded federation
//! trained three times by `fedml runtime` — with no codec flag, with
//! `--update-codec none`, and with `--update-codec topk --topk 2` — and
//! the three JSON reports read back through `serde_json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

/// dim 6 × 3 classes → 21 model parameters; `--topk 2` keeps 2 of 21.
const CONFIG: &str = r#"{
  "seed": 13,
  "source_frac": 0.75,
  "dataset": {
    "kind": "synthetic",
    "alpha": 0.5,
    "beta": 0.5,
    "nodes": 8,
    "dim": 6,
    "classes": 3,
    "mean_samples": 18.0
  },
  "model": { "kind": "softmax", "l2": 0.001 },
  "algorithm": {
    "kind": "fedml",
    "alpha": 0.05,
    "beta": 0.05,
    "local_steps": 2,
    "rounds": 6,
    "first_order": false
  },
  "simulate": null,
  "eval": { "k": 4, "adapt_steps": 3, "adapt_lr": 0.05, "fgsm_xi": null }
}"#;

/// A directory of its own under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("fml-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `fedml runtime <cfg> <flags> --json <dir>/<name>.json`, and the report
/// it wrote.
fn runtime(dir: &Path, name: &str, flags: &[&str]) -> Value {
    let cfg = dir.join("cfg.json");
    let json = dir.join(format!("{name}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_fedml"))
        .arg("runtime")
        .arg(&cfg)
        .args(flags)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn fedml");
    assert!(
        out.status.success(),
        "fedml runtime {flags:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json).expect("read the report");
    serde_json::from_str(&text).expect("the report is JSON")
}

/// The value at `path` (a key per level) in `report`.
fn at<'v>(report: &'v Value, path: &[&str]) -> &'v Value {
    path.iter().fold(report, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("report has no {path:?}"))
    })
}

fn uint(report: &Value, path: &[&str]) -> u64 {
    match at(report, path) {
        Value::UInt(n) => *n,
        other => panic!("{path:?} is {other:?}, not a count"),
    }
}

fn float(report: &Value, path: &[&str]) -> f64 {
    match at(report, path) {
        Value::Float(x) => *x,
        Value::UInt(n) => *n as f64,
        other => panic!("{path:?} is {other:?}, not a number"),
    }
}

fn text<'v>(report: &'v Value, path: &[&str]) -> &'v str {
    at(report, path)
        .as_str()
        .unwrap_or_else(|| panic!("{path:?} is not a string"))
}

#[test]
fn none_is_the_default_bit_for_bit_and_topk_shrinks_the_uplink() {
    let dir = TempDir::new("compress");
    std::fs::write(dir.0.join("cfg.json"), CONFIG).expect("write the config");
    let base = runtime(&dir.0, "base", &[]);
    let none = runtime(&dir.0, "none", &["--update-codec", "none"]);
    let topk = runtime(&dir.0, "topk", &["--update-codec", "topk", "--topk", "2"]);

    // The codec seam is inert on the default path: `none` cannot move a
    // bit.
    let hash = ["runtime", "param_hash"];
    let digits = text(&base, &hash);
    assert!(
        digits.len() == 16 && digits.chars().all(|c| c.is_ascii_hexdigit()),
        "param_hash {digits} is not 16 hex digits"
    );
    assert_eq!(text(&none, &hash), text(&base, &hash));

    // Top-k really compresses: physical uplink bytes at least 3× under
    // the dense-equivalent logical count.
    let physical = uint(&topk, &["runtime", "uplink_bytes"]);
    let logical = uint(&topk, &["runtime", "uplink_bytes_logical"]);
    assert!(physical > 0, "no uplink bytes counted");
    assert!(
        logical >= 3 * physical,
        "uplink shrank only {logical} B -> {physical} B (< 3x)"
    );

    // Compression stays within the accuracy budget: the adapted query
    // loss on held-out targets sits near the dense run's.
    let loss = ["eval", "final_loss"];
    let (dense, sparse) = (float(&base, &loss), float(&topk, &loss));
    assert!(
        (dense - sparse).abs() <= 0.25,
        "query loss drifted: dense {dense}, topk {sparse} (tol 0.25)"
    );

    // The report says what it did.
    assert_eq!(text(&topk, &["runtime", "update_codec"]), "topk2");
}
