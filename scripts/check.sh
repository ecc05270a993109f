#!/usr/bin/env bash
# Full local gate: lint (clippy, warnings fatal), the workspace test
# suite (the 1 000-node fleet through the CLI among it), rustdoc
# (warnings fatal), the size report, the reach ratchet (its exit status
# fails the gate), and the kernel bench bodies once each. CI and
# pre-merge checks should run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings
# `default-members` is the whole workspace: the same test binaries as
# `--workspace`.
cargo test -q
# `perf/` is its own workspace and holds the one out-of-tree `impl Model`
# (`TracedModel`): a trait change must compile there too.
cargo clippy --manifest-path perf/Cargo.toml --all-targets -- -D warnings
cargo test --release --manifest-path perf/Cargo.toml
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
"$(dirname "$0")/loc.sh"
"$(dirname "$0")/reach.sh"
cargo bench -p fml-bench --bench kernels -- --test
echo "check: OK"
