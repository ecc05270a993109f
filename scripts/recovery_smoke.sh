#!/usr/bin/env bash
# Self-healing runtime smoke gate. Phases 1-3 run one poisoned
# federation (node 1 reports NaNs in round 1, nodes 2-5 crash from
# round 2, so the platform must roll back, exclude the dead majority,
# and finish on the surviving pair):
#
#  1. channel baseline — the in-process run must report >=1 rollback
#     and a non-empty exclusion list;
#  2. multi-process TCP — platform + one process per node, with the
#     same fault schedule and a delay-injecting transport wrapper on
#     every node link, must land on the baseline's exact param hash;
#  3. kill/resume — a checkpointing TCP platform is killed -9 mid-run
#     and a fresh platform resumes from --checkpoint-dir to the same
#     final hash;
#  4. a dead fleet — every source node crashes from round 1 of an
#     8-round channel run, so the whole fleet is quarantined after five
#     silent rounds and later rounds have nobody to gather: the run must
#     exit 0 with its JSON written and all 8 rounds degraded, never
#     panic.
#
# Every wait is bounded, so a hang fails the gate instead of wedging CI.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q -p fml-cli --bin fedml
BIN=target/debug/fedml

work=$(mktemp -d)
cleanup() {
    kill -9 $(jobs -p) 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

# 8 nodes at source_frac 0.75 -> 6 source nodes.
cat > "$work/cfg.json" <<'EOF'
{
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
}
EOF

# The poison schedule, shared verbatim by the platform and every node
# process (corruption is applied node-side, so both ends must see it).
FAULTS="--corrupt-at 1:1 --crash-from 2:2 --crash-from 3:2 --crash-from 4:2 --crash-from 5:2"
# Seeded per-link delay injection paces each node at ~250ms/round and
# exercises the FaultyTransport wrapper without changing any bytes.
DELAYS="--fault-delay-prob 1.0 --fault-delay-ms 250"

hash_of() {
    sed -n 's/.*"param_hash": "\([0-9a-f]\{16\}\)".*/\1/p' "$1" | head -n 1
}

# Launches a TCP platform ($1 = json out, rest = extra flags), waits for
# its address, and starts one node process per source node. Sets
# $platform (pid) and $addr.
start_fleet() {
    local json_out=$1; shift
    : > "$work/platform.err"
    # shellcheck disable=SC2086
    "$BIN" runtime "$work/cfg.json" --transport tcp --listen 127.0.0.1:0 \
        $FAULTS "$@" --json "$json_out" > /dev/null 2> "$work/platform.err" &
    platform=$!
    addr=""
    local line=""
    for _ in $(seq 1 100); do
        # Match the full line, not a partially-flushed prefix of it.
        line=$(grep -m1 "platform listening on .*nodes expected)" "$work/platform.err" || true)
        if [ -n "$line" ]; then
            addr=$(echo "$line" | sed 's/^platform listening on \([^ ]*\) .*/\1/')
            break
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "recovery smoke: platform never reported its address" >&2
        exit 1
    fi
    local nodes
    nodes=$(echo "$line" | sed 's/.*(\([0-9]*\) nodes expected).*/\1/')
    for i in $(seq 0 $((nodes - 1))); do
        # shellcheck disable=SC2086
        "$BIN" runtime "$work/cfg.json" --transport tcp --connect "$addr" \
            --node "$i" $FAULTS $DELAYS > "$work/node$i.out" 2>&1 &
    done
}

# Bounded wait for the platform process; then reap the stragglers.
await_fleet() {
    for _ in $(seq 1 600); do
        kill -0 "$platform" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$platform" 2>/dev/null; then
        echo "recovery smoke: platform hung; node logs follow" >&2
        tail -n 5 "$work"/node*.out >&2 || true
        exit 1
    fi
    if ! wait "$platform"; then
        echo "recovery smoke: platform failed" >&2
        cat "$work/platform.err" >&2
        exit 1
    fi
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
}

# ---- Phase 1: in-process channel baseline -------------------------------
# shellcheck disable=SC2086
"$BIN" runtime "$work/cfg.json" $FAULTS --json "$work/channel.json" > /dev/null
base_hash=$(hash_of "$work/channel.json")
rollbacks=$(sed -n 's/.*"rollbacks": \([0-9]*\).*/\1/p' "$work/channel.json" | head -n 1)
if [ -z "$rollbacks" ] || [ "$rollbacks" -lt 1 ]; then
    echo "recovery smoke: baseline reported no rollback (rollbacks=$rollbacks)" >&2
    exit 1
fi
if grep -q '"excluded_nodes": \[\]' "$work/channel.json"; then
    echo "recovery smoke: baseline excluded nobody" >&2
    exit 1
fi

# ---- Phase 2: multi-process TCP with the same poison --------------------
start_fleet "$work/tcp.json"
await_fleet
tcp_hash=$(hash_of "$work/tcp.json")
if [ -z "$tcp_hash" ] || [ "$tcp_hash" != "$base_hash" ]; then
    echo "recovery smoke: hash mismatch: channel=$base_hash tcp=$tcp_hash" >&2
    exit 1
fi

# ---- Phase 3: kill -9 the platform mid-run, resume from checkpoints -----
ckdir="$work/ck"
start_fleet "$work/killed.json" --checkpoint-dir "$ckdir" --checkpoint-every 1
# Kill as soon as the first checkpoint lands: that is mid-run on any
# machine, fast or slow, because the link delays pace the remaining
# rounds at ~250ms each.
for _ in $(seq 1 100); do
    [ -f "$ckdir/latest.json" ] && break
    sleep 0.1
done
if [ ! -f "$ckdir/latest.json" ]; then
    echo "recovery smoke: no checkpoint was written before the kill" >&2
    exit 1
fi
sleep 0.2
kill -9 "$platform" 2>/dev/null || true
wait "$platform" 2>/dev/null || true
# Orphaned node processes must not leak into the resumed fleet.
kill -9 $(jobs -p) 2>/dev/null || true
wait 2>/dev/null || true
ck_round=$(sed -n 's/.*"round": *"\([0-9]*\)".*/\1/p' "$ckdir/latest.json" | head -n 1)
if [ -z "$ck_round" ] || [ "$ck_round" -ge 6 ]; then
    echo "recovery smoke: kill landed after the run ended (checkpoint round=$ck_round)" >&2
    exit 1
fi

start_fleet "$work/resumed.json" --checkpoint-dir "$ckdir" --checkpoint-every 1
await_fleet
resumed_hash=$(hash_of "$work/resumed.json")
if [ -z "$resumed_hash" ] || [ "$resumed_hash" != "$base_hash" ]; then
    echo "recovery smoke: resume diverged: channel=$base_hash resumed=$resumed_hash" >&2
    exit 1
fi
resumed_at=$(sed -n 's/.*"resumed_at_round": \([0-9]*\).*/\1/p' "$work/resumed.json" | head -n 1)
if [ -z "$resumed_at" ]; then
    echo "recovery smoke: resumed platform did not report resumed_at_round" >&2
    exit 1
fi

# ---- Phase 4: the whole fleet dead from round 1 -------------------------
sed 's/"rounds": 6/"rounds": 8/' "$work/cfg.json" > "$work/dead_cfg.json"
DEAD="--crash-from 0:1 --crash-from 1:1 --crash-from 2:1 --crash-from 3:1 --crash-from 4:1 --crash-from 5:1"
# shellcheck disable=SC2086
if ! timeout 60 "$BIN" runtime "$work/dead_cfg.json" $DEAD --json "$work/dead.json" \
    > /dev/null 2> "$work/dead.err"; then
    echo "recovery smoke: dead-fleet run failed" >&2
    cat "$work/dead.err" >&2
    exit 1
fi
if grep -q panicked "$work/dead.err"; then
    echo "recovery smoke: dead-fleet run panicked" >&2
    cat "$work/dead.err" >&2
    exit 1
fi
dead_degraded=$(sed -n 's/.*"degraded_rounds": \([0-9]*\).*/\1/p' "$work/dead.json" 2>/dev/null | head -n 1)
if [ "$dead_degraded" != 8 ]; then
    echo "recovery smoke: dead fleet degraded ${dead_degraded:-no} rounds, want 8" >&2
    exit 1
fi

echo "recovery smoke: OK (rollbacks=$rollbacks, tcp and kill/resume both at hash $base_hash, dead fleet degraded in place)"
