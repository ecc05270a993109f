//! The update codec through the `fedml` binary: one seeded federation
//! trained three times by `fedml runtime` — with no codec flag, with
//! `--update-codec none`, and with `--update-codec topk --topk 2` — and
//! the three JSON reports read back through `serde_json`.

pub mod common;

use common::{float, runtime, text, uint, TempDir};

#[test]
fn none_is_the_default_bit_for_bit_and_topk_shrinks_the_uplink() {
    let dir = TempDir::new("compress");
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
