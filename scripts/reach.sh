#!/usr/bin/env bash
# Reach report: one line per `pub` / `pub(crate)` fn, struct, enum, trait,
# const or type declared in the non-test part of a file under crates/*/src
# (crates/bench excluded: its binaries are entry points) whose name no
# *other* file mentions — in non-test code with `//` comments stripped,
# under crates/, src/, examples/ or perf/src — then the count. As in
# loc.sh, a file's `#[cfg(test)]` line and everything after it is test
# code. Matching is by name alone (`new` in one file reaches every `new`),
# so this under-reports and is a report, not a gate: the count is tracked
# next to the loc.sh rows so regrowth of uncalled surface shows.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates src examples perf/src -name '*.rs' -not -path '*/target/*' | sort | xargs awk '
FNR == 1 { test = 0; declares = FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/bench\// }
/^#\[cfg\(test\)\]/ { test = 1 }
test { next }
{
    line = $0
    sub(/\/\/.*/, "", line)
    if (declares && match(line, /^[[:space:]]*pub(\(crate\))?[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|const|type)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/.*[[:space:]]/, "", name)
        decl[++decls] = FILENAME SUBSEP name
    }
    n = split(line, word, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++)
        if (word[i] != "" && !((FILENAME, word[i]) in mentions)) {
            mentions[FILENAME, word[i]] = 1
            files[word[i]]++
        }
}
END {
    for (d = 1; d <= decls; d++) {
        split(decl[d], at, SUBSEP)
        if (files[at[2]] == 1) { print "reach: " at[1] ": " at[2]; unreached++ }
    }
    print "reach: unreached " unreached + 0
}'
