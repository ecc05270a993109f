#!/usr/bin/env bash
# Non-test, non-blank, non-comment code lines under crates/*/src and
# shims/*/src: total, then one row per crate and per path shim. A file's
# `#[cfg(test)]` line and everything after it is not counted. Two more
# rows, outside the total: the bench targets under crates/*/benches
# (counted the same way), and test code (the `#[cfg(test)]` tails of
# crates/*/src and shims/*/src plus everything under tests/).
set -euo pipefail
cd "$(dirname "$0")/.."
# count <0|1> <dirs…>: lines before (0) or from (1) a file's `#[cfg(test)]`.
count() { local tail=$1; shift; find "$@" -name '*.rs' | xargs awk -v tail="$tail" 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} t==tail && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\//{n++} END{print n+0}'; }
echo "loc: total $(count 0 crates/*/src shims/*/src)"
for c in crates/*/; do echo "loc: $(basename "$c") $(count 0 "$c/src")"; done
for s in shims/*/; do echo "loc: shims/$(basename "$s") $(count 0 "$s/src")"; done
echo "loc: (untracked) benches $(count 0 crates/*/benches)"
echo "loc: (untracked) tests $(( $(count 1 crates/*/src shims/*/src) + $(count 0 tests) ))"
