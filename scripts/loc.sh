#!/usr/bin/env bash
# Non-test, non-blank, non-comment code lines under crates/*/src: total,
# then per crate. A file's `#[cfg(test)]` line and everything after it
# is not counted.
set -euo pipefail
cd "$(dirname "$0")/.."
count() { find "$@" -name '*.rs' | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\//{n++} END{print n}'; }
echo "loc: total $(count crates/*/src)"
for c in crates/*/; do echo "loc: $(basename "$c") $(count "$c/src")"; done
