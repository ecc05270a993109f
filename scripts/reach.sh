#!/usr/bin/env bash
# Reach ratchet: one line per `pub` / `pub(crate)` fn, struct, enum, trait,
# const or type declared in the non-test part of a file under crates/*/src
# (crates/bench excluded: its binaries are entry points) or shims/*/src,
# and per `#[macro_export]` macro in shims/*/src, that no *other* file
# reaches — then the counts. As in loc.sh, a file's `#[cfg(test)]` line and
# everything after it is test code; `//` comments are stripped.
#
# Who may reach what:
# - a crate declaration is reached from non-test code under crates/, src/,
#   examples/ or perf/src;
# - a shim declaration is reached from any non-shim `.rs` file, test code,
#   tests/ and benches included (proptest and criterion exist only for
#   them), or from another shim's non-test code. A `#[proc_macro_derive]`
#   fn is reached where its derive name is, and a name used inside a
#   `#[macro_export]` body is reached by that macro's users.
#
# A `fn` is reached by a call-shaped mention: `name(`, `name::<`, or
# `::name` (a path used as a value, or imported). A field, a local or a
# word in a string of the same name does not reach it. A struct, enum,
# trait, const, type or macro is reached by the bare word. Matching is
# still by name alone (`new(` in one file reaches every `new`), so this
# under-reports; a ratchet needs monotonicity, not precision.
#
# scripts/reach.allow exempts a declaration, one `path: name — reason`
# per line, for one of two reasons: `test oracle` (a reference tests hold
# a product kernel against) or `public type named in a reached signature`.
# A malformed line, or one whose declaration does not exist or is reached
# anyway, fails the script. So does an unreached count that differs from
# scripts/reach.max: new uncalled surface is named above the count, and
# spent surface lowers the number checked in.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates src examples tests perf shims -name '*.rs' -not -path '*/target/*' | sort | xargs awk -v max="$(cat scripts/reach.max)" '
FILENAME == "scripts/reach.allow" {
    if ($0 !~ /^[^ :]+: [A-Za-z_][A-Za-z0-9_]* — (test oracle|public type named in a reached signature)$/) {
        print "reach: scripts/reach.allow:" FNR ": not `path: name — test oracle|public type named in a reached signature`: " $0
        bad = 1
        next
    }
    split($0, part, /: | — /)
    allowed[part[1], part[2]] = FNR
    next
}
FNR == 1 {
    test = 0; exported = 0; derive = ""; body = ""
    shim = FILENAME ~ /^shims\//
    declares = shim || FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/bench\//
    product = FILENAME ~ /^(crates|src|examples|perf\/src)\//
}
/^#\[cfg\(test\)\]/ { test = 1 }
test && shim { next }
{
    line = $0
    sub(/\/\/.*/, "", line)
    if (line ~ /^}/) body = ""
    if (line !~ /[A-Za-z_]/) next
    if (shim) {
        if (line ~ /^#\[macro_export\]/) exported = 1
        if (exported && match(line, /^macro_rules![[:space:]]*[A-Za-z_][A-Za-z0-9_]*/)) {
            body = substr(line, RSTART + 12, RLENGTH - 12)
            sub(/^[[:space:]]*/, "", body)
            declare(body, body, 0)
            exported = 0
            next
        }
        if (match(line, /^#\[proc_macro_derive\([A-Za-z_][A-Za-z0-9_]*/)) derive = substr(line, RSTART + 20, RLENGTH - 20)
    }
    if (declares && !test && match(line, /^[[:space:]]*pub(\(crate\))?[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|const|type)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH)
        is_fn = name ~ /fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*$/
        sub(/.*[[:space:]]/, "", name)
        if (derive != "") declare(name, derive, 0)
        else declare(name, name, is_fn)
        derive = ""
    }
    # A declaration is not a call: `fn name` loses its name. Then mark
    # call-shaped mentions with a leading `@`: `name::<` reads as `name(`,
    # `::name` as ` @name`, then every `name(` gains its `@`.
    if (index(line, "fn ")) gsub(/fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/, "fn", line)
    if (index(line, "::")) { gsub(/::</, "(", line); gsub(/::/, " @", line) }
    if (index(line, "(")) gsub(/[A-Za-z_][A-Za-z0-9_]*\(/, "@&", line)
    # A macro body speaks for the users of the macro, not for its file.
    from = body != "" ? "macro " body : FILENAME
    n = split(line, word, /[^A-Za-z0-9_@]+/)
    for (i = 1; i <= n; i++) {
        w = word[i]
        called = index(w, "@") && sub(/^@+/, "", w)
        if (w == "") continue
        mention(from, w, called, "any")
        if (product && !test) mention(from, w, called, "product")
    }
}
function declare(name, key, by_call) {
    decl[++decls] = FILENAME SUBSEP name
    reached_by[decls] = key
    by_call_of[decls] = by_call
    of_shim[decls] = shim
}
function mention(from, w, called, set) {
    if (!((set, from, w) in seen)) { seen[set, from, w] = 1; files[set, w]++ }
    if (called && !((set, from, w) in calls)) { calls[set, from, w] = 1; callers[set, w]++ }
}
END {
    for (d = 1; d <= decls; d++) {
        split(decl[d], at, SUBSEP)
        set = of_shim[d] ? "any" : "product"
        key = reached_by[d]
        if (by_call_of[d] ? callers[set, key] - ((set, at[1], key) in calls) : files[set, key] - ((set, at[1], key) in seen)) continue
        if (decl[d] in allowed) { used[decl[d]] = 1; continue }
        print "reach: " at[1] ": " at[2]
        unreached++
    }
    for (a in allowed)
        if (!(a in used)) {
            split(a, at, SUBSEP)
            print "reach: scripts/reach.allow:" allowed[a] ": stale, no unreached declaration `" at[2] "` in " at[1]
            bad = 1
        } else
            exempt++
    print "reach: allowed " exempt + 0
    print "reach: unreached " unreached + 0
    if (unreached + 0 != max + 0) {
        print "reach: scripts/reach.max says " max + 0
        bad = 1
    }
    exit bad + 0
}' scripts/reach.allow
