//! The async aggregation policies through the `fedml` binary: one seeded
//! federation trained by `fedml runtime --mode async` bare, with the
//! default knobs spelled out, with hinge decay and with a semi-async
//! buffer of 2, and the four JSON reports read back through
//! `serde_json`.

pub mod common;

use common::{fedml_runtime, float, runtime, text, uint, TempDir};

#[test]
fn explicit_defaults_are_bit_for_bit_and_other_policies_converge_alike() {
    let dir = TempDir::new("async");
    let run = |name, flags: &[&str]| runtime(&dir.0, name, &[&["--mode", "async"], flags].concat());
    let base = run("base", &[]);
    let explicit = run(
        "explicit",
        &["--async-decay", "poly", "--async-buffer", "1"],
    );
    let hinge = run("hinge", &["--async-decay", "hinge:1"]);
    let buffered = run("buffered", &["--async-buffer", "2"]);

    // Spelling out the default knobs is the identity: not a bit moves.
    let hash = ["runtime", "param_hash"];
    let digits = text(&base, &hash);
    assert!(
        digits.len() == 16 && digits.chars().all(|c| c.is_ascii_hexdigit()),
        "param_hash {digits} is not 16 hex digits"
    );
    assert_eq!(text(&explicit, &hash), digits);

    // Hinge decay and the buffered fold land near the default's adapted
    // query loss.
    let loss = ["eval", "final_loss"];
    let default_loss = float(&base, &loss);
    for (name, report) in [("hinge", &hinge), ("buffered", &buffered)] {
        let got = float(report, &loss);
        assert!(
            (default_loss - got).abs() <= 0.25,
            "{name} drifted: default {default_loss}, {name} {got} (tol 0.25)"
        );
    }

    // The reports say which policy ran.
    assert_eq!(
        text(&hinge, &["runtime", "async_policy", "decay"]),
        "hinge:1"
    );
    assert_eq!(uint(&buffered, &["runtime", "async_policy", "buffer_k"]), 2);

    // The policy flags are async-only.
    let barrier = fedml_runtime(&dir.0, "bad", &["--async-decay", "hinge"]);
    assert!(
        !barrier.status.success(),
        "--async-decay was accepted in barrier mode"
    );
    let stderr = String::from_utf8_lossy(&barrier.stderr);
    assert!(stderr.contains("require --mode async"), "{stderr}");
}
