#!/usr/bin/env bash
# Bench smoke gate: run the criterion bench binaries in --test mode so
# every benchmark body executes exactly once, with no timing and no
# BENCH_*.json writes. Catches bit-rot in perf code without making the
# test gate flaky on loaded machines.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p fml-bench --bench kernels -- --test
cargo bench -p fml-bench --bench training -- --test
# The two binaries that drive the wire API: every codec encode/decode
# and a TCP/UDS/channel barrier round.
cargo bench -p fml-bench --bench compression --bench transport -- --test
echo "bench smoke: OK"
