#!/usr/bin/env bash
# A/B of the perf series: <parent-rev> against the working tree, on one
# workload. Exports the parent under target/ab/parent (`git archive`, so
# no worktree is left registered), builds both `perf/` binaries
# --release, then runs `pairs` pairs of the BENCHMARK.json command with
# `--workload W --seed <pair index>`, alternating which side goes first,
# and reads each run's final JSON line. Prints, per end-to-end metric:
# both medians, both inter-quartile distances, pairs won / lost / tied
# by the change (direction from BENCHMARK.json), and whether the rule of
# section 8 of the choosing-metrics guide holds — the change wins at
# least nine tenths of all pairs and the medians differ by more than the
# parent's inter-quartile distance. Print-only; exits non-zero when any
# run fails a verification check or reports a failed operation. Not part
# of check.sh: ten pairs are ~10 min a workload.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 2 ] || { echo "usage: scripts/ab.sh <parent-rev> <workload> [pairs=10]" >&2; exit 2; }
rev=$1 workload=$2 pairs=${3:-10}
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)
parent=target/ab/parent
rm -rf "$parent"
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"
cargo build --release --quiet --manifest-path "$parent/perf/Cargo.toml"
cargo build --release --quiet --manifest-path perf/Cargo.toml

# one <dir> <seed>: the run's final JSON line, after checking it.
one() {
    local line
    line=$(cd "$1" && cargo run --release --quiet --manifest-path perf/Cargo.toml -- \
        run --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
    case $line in
        '{"correct": true, '*'"failed": 0, '*) echo "$line" ;;
        *) echo "ab: $1 seed $2 failed: $line" >&2; return 1 ;;
    esac
}

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir=$parent; else dir=.; fi
        line=$(one "$dir" "$i")
        echo "$side $i $line" >> "$runs"
        echo "ab: pair $i/$pairs $side done" >&2
    done
done

echo "ab: $workload, $rev (parent) vs working tree (change), $pairs pairs x ${seconds}s"
awk -v pairs="$pairs" '
# The end-to-end metrics and their directions, in declared order.
FILENAME == "BENCHMARK.json" {
    if (/"end_to_end"/) decl = 1
    if (/"per_layer"/) decl = 0
    if (decl && match($0, /"name": "[a-z0-9_]+"/)) name[++metrics] = substr($0, RSTART + 9, RLENGTH - 10)
    if (decl && /"better"/) higher[metrics] = /"higher"/
    next
}
{
    for (m = 1; m <= metrics; m++)
        if (match($0, "\"" name[m] "\": \\{\"value\": [-+0-9.eE]+")) {
            v = substr($0, RSTART, RLENGTH)
            sub(/.*: /, "", v)
            value[$1, m, $2] = v + 0
        }
}
# q(side, m, p): quantile p of the side, linear between order statistics.
function q(side, m, p,    i, j, n, s, t, h, lo) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, m, i) in value) s[++n] = value[side, m, i]
    if (n == 0) return "nan"
    for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
}
END {
    printf "%-22s %14s %12s %14s %12s %7s  %-3s %-4s %-4s %s\n", "metric", "parent median", "parent iqd", "change median", "change iqd", "ratio", "won", "lost", "tied", "section 8"
    for (m = 1; m <= metrics; m++) {
        won = lost = tied = 0
        for (i = 1; i <= pairs; i++) {
            if (!(("parent", m, i) in value) || !(("change", m, i) in value)) continue
            d = value["change", m, i] - value["parent", m, i]
            if (!higher[m]) d = -d
            if (d > 0) won++; else if (d < 0) lost++; else tied++
        }
        pm = q("parent", m, 0.5); cm = q("change", m, 0.5)
        piqd = q("parent", m, 0.75) - q("parent", m, 0.25)
        ciqd = q("change", m, 0.75) - q("change", m, 0.25)
        gap = higher[m] ? cm - pm : pm - cm
        holds = pairs < 10 ? "n/a (<10 pairs)" : (won >= 0.9 * pairs && gap > piqd) ? "gain" : (lost >= 0.9 * pairs && -gap > piqd) ? "LOSS" : "-"
        printf "%-22s %14.6g %12.4g %14.6g %12.4g %7.3f  %-3d %-4d %-4d %s\n", name[m], pm, piqd, cm, ciqd, (pm != 0 ? cm / pm : 0), won, lost, tied, holds
    }
    # Every run made, by pair index (= seed).
    for (m = 1; m <= metrics; m++) {
        for (k = 1; k <= 2; k++) {
            side = k == 1 ? "parent" : "change"
            printf "runs: %s %s", name[m], side
            for (i = 1; i <= pairs; i++) printf " %.6g", value[side, m, i]
            printf "\n"
        }
    }
}' BENCHMARK.json "$runs"
