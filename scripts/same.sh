#!/usr/bin/env bash
# Behaviour check: <rev> against the working tree. Exports <rev> under
# target/same/parent (`git archive`, so no worktree is left registered),
# builds both trees --release, then runs every crates/bench binary with
# `--quick --out <dir>` and every example on both sides. Compares each
# run's stdout, less the `-> wrote <path>` lines (they name each side's
# own directory), and every JSON file the binaries write. Prints one
# `same: <name> differs` line per difference and exits non-zero when
# there is one. Not part of check.sh: it needs two release builds.
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
    sed '/-> wrote /d' "$dir/raw" > "$dir/stdout"
    rm "$dir/raw"
}
# run <side> <tree>: every binary (JSON into $root/<side>/<name>/out) and
# every example of <tree>.
run() {
    local name
    for name in $bins; do
        one "$1" "$2" "$name" target/release/"$name" --quick --out "$root/$1/$name/out"
    done
    for name in $examples; do
        one "$1" "$2" "$name" target/release/examples/"$name"
    done
}
run parent "$parent"
run change .

for name in $bins $examples; do
    if diff -r "$root/parent/$name" "$root/change/$name" > /dev/null; then
        echo "same: $name"
    else
        echo "same: $name differs"
        status=1
    fi
done
echo "same: $rev vs working tree, $((SECONDS - start)) s"
exit $status
