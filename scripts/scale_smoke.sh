#!/usr/bin/env bash
# Fleet-scale smoke gate: runs a 1000-source-node barrier federation on
# the in-process actor runtime and requires the final model to hash
# bitwise-identical across worker counts. This pins the scale machinery —
# pooled frames, a single-encode refcounted broadcast posted once a
# round, workers claiming its nodes in chunks — to the determinism
# contract at a fleet size three orders of magnitude above the unit
# tests. (`--mailbox-cap` bounds socket peers' queues only; the third
# run keeps passing it, so the flag stays accepted on a channel run.) It
# also gates the frame pool: a run may miss it fewer than 1.5 times the
# 1001 frames one round has live (a broadcast and 1000 replies), since a
# pool that keeps what it allocated misses only while they first come
# live.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q -p fml-cli --bin fedml
BIN=target/debug/fedml

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# 1250 nodes at source_frac 0.8 -> exactly 1000 source-node actors.
cat > "$work/cfg.json" <<'EOF'
{
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
}
EOF

# Baseline: auto-sized worker pool.
"$BIN" runtime "$work/cfg.json" --json "$work/base.json" > /dev/null
# One worker: every actor serviced by a single thread, in index order.
"$BIN" runtime "$work/cfg.json" --threads 1 \
    --json "$work/t1.json" > /dev/null
# Oversubscribed workers (and the socket-only queue bound): same math.
"$BIN" runtime "$work/cfg.json" --threads 8 --mailbox-cap 8 \
    --json "$work/t8.json" > /dev/null

hash_of() {
    sed -n 's/.*"param_hash": "\([0-9a-f]\{16\}\)".*/\1/p' "$1" | head -n 1
}
base=$(hash_of "$work/base.json")
t1=$(hash_of "$work/t1.json")
t8=$(hash_of "$work/t8.json")
if [ -z "$base" ] || [ "$base" != "$t1" ] || [ "$base" != "$t8" ]; then
    echo "scale smoke: param hash diverged at 1000 nodes:" >&2
    echo "  auto-threads=$base threads-1=$t1 threads-8/cap-8=$t8" >&2
    exit 1
fi

misses_of() {
    sed -n '/"pool"/,/}/s/.*"misses": \([0-9]*\).*/\1/p' "$1" | head -n 1
}
for run in base t1 t8; do
    misses=$(misses_of "$work/$run.json")
    if [ -z "$misses" ] || [ "$misses" -ge 1501 ]; then
        echo "scale smoke: $run run missed the frame pool ${misses:-?} times (limit 1500)" >&2
        exit 1
    fi
done
echo "scale smoke: OK (1000-node barrier run, param hash $base across worker counts, pool misses < 1501)"
