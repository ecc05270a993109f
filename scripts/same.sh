#!/usr/bin/env bash
# Behaviour check: <rev> against the working tree. Exports <rev> under
# target/same/parent (`git archive`, so no worktree is left registered),
# builds both trees --release, then runs every crates/bench binary with
# `--quick --out <dir>`, every example, and the CLI's simulated path
# (`fedml init <cfg>`, whose example config simulates, then `fedml run
# <cfg> --json <report>`) on both sides. Compares each run's stdout, less
# the `-> wrote <path>` and `wrote … to <path>` lines (they name each
# side's own directory), and every JSON file the runs write. Prints one
# `same: <name> differs` line per difference and exits non-zero when
# there is one, and for each JSON file that differs, the largest
# relative difference of any number in it (`same: <name>/<file> moved
# by at most <r>`, or `shape differs` when the two files do not hold
# numbers at the same places). Needs `jq`. Not part of check.sh: it
# needs two release builds.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -eq 1 ] || { echo "usage: scripts/same.sh <rev>" >&2; exit 2; }
rev=$1 root=$PWD/target/same
parent=$root/parent
start=$SECONDS
rm -rf "$root"
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"
build() { (cd "$1" && cargo build --release --quiet --bins --examples); }
build "$parent"
build .

bins=$(ls crates/bench/src/bin | sed -n 's/\.rs$//p')
examples=$(ls examples | sed -n 's/\.rs$//p')
status=0
# one <side> <tree> <name> <command…>: runs the command in <tree> and
# keeps its stdout in $root/<side>/<name>/stdout.
one() {
    local dir=$root/$1/$3
    mkdir -p "$dir/out"
    if ! (cd "$2" && "${@:4}") > "$dir/raw"; then
        echo "same: $3 failed on the $1 side"
        status=1
    fi
    sed '/-> wrote /d; /^wrote .* to /d' "$dir/raw" > "$dir/stdout"
    rm "$dir/raw"
}
# run <side> <tree>: every binary (JSON into $root/<side>/<name>/out),
# every example, and the CLI's simulated run of <tree>.
run() {
    local name
    for name in $bins; do
        one "$1" "$2" "$name" target/release/"$name" --quick --out "$root/$1/$name/out"
    done
    for name in $examples; do
        one "$1" "$2" "$name" target/release/examples/"$name"
    done
    one "$1" "$2" fedml sh -c 'target/release/fedml init "$0/cfg.json" &&
        target/release/fedml run "$0/cfg.json" --json "$0/report.json"' "$root/$1/fedml/out"
}
run parent "$parent"
run change .

# moved <a.json> <b.json>: the largest |a − b| / max(|a|, |b|) over the
# numbers of two JSON files, paired by path.
moved() {
    jq -rn --slurpfile a "$1" --slurpfile b "$2" '
        def abs: if . < 0 then -. else . end;
        def nums: [paths(numbers) as $p | [$p, getpath($p)]];
        ($a[0] | nums) as $x | ($b[0] | nums) as $y
        | if ($x | map(.[0])) != ($y | map(.[0])) then "shape differs"
          else "moved by at most \([range(0; $x | length)
              | $x[.][1] as $u | $y[.][1] as $v
              | if $u == $v then 0
                else (($u - $v) | abs) / ([($u | abs), ($v | abs)] | max) end]
              | max // 0)" end'
}

for name in $bins $examples fedml; do
    if diff -r "$root/parent/$name" "$root/change/$name" > /dev/null; then
        echo "same: $name"
    else
        echo "same: $name differs"
        status=1
        for file in $(cd "$root/change/$name" && find . -name '*.json' | sort); do
            a=$root/parent/$name/$file b=$root/change/$name/$file
            if [ -f "$a" ] && ! cmp -s "$a" "$b"; then
                echo "same: $name/${file#./} $(moved "$a" "$b")"
            fi
        done
    fi
done
echo "same: $rev vs working tree, $((SECONDS - start)) s"
exit $status
