#!/usr/bin/env bash
# Print the size census of the simulator's source, one fixed definition
# per number, so that two checkouts are counted the same way.
#
#   scripts/census.sh [CHECKOUT...]
#
# Counts the `*.rs` files under `crates/*/src` of each CHECKOUT (default:
# this repository) and prints one row per checkout. Every number is taken
# over *non-test lines*: each file with its top-level `#[cfg(test)]` items
# cut out (from the attribute through the next line that ends in `;` when
# the item is one line, else through the next line that is exactly `}`).
#
#   lines       non-test lines
#   pub_fn      non-test lines declaring a `pub fn` (not `pub(crate) fn`)
#   traced      non-test lines declaring a function whose name ends in `_traced`
#   panics      occurrences of `.unwrap()`, `.expect(`, `panic!(` and
#               `unreachable!(` on non-test lines that are not `//` comments
#   enum_json   non-test lines declaring `enum Json`
#
# Under each checkout's row, one row per crate (`crates/<name>`) gives its
# `lines` and `pub_fn` by the same definitions. (A crate's trailing blank
# lines are not counted, so its `lines` can sum to a few under the total.)
#
# and the documentation budget, over whole files:
#
#   readme, design, experiments
#               lines of README.md, DESIGN.md and EXPERIMENTS.md
#   docs        their sum
#   mod_docs    lines under `crates/*/src` that begin with `//!`
#
# It reports and gates nothing.
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)

# The non-test lines of the `*.rs` files under the directories given.
nontest() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { skip = 0 }
        skip { if ($0 == "}") skip = 0; next }
        $0 == "#[cfg(test)]" {
            if ((getline item) > 0) { skip = (item ~ /;[[:space:]]*$/) ? 0 : 1 }
            next
        }
        { print }
    '
}

# How many of the lines on stdin declare a `pub fn`.
count_pub_fn() { grep -cE '^[[:space:]]*pub fn ' || true; }

printf '%-40s %7s %6s %6s %6s %9s %6s %6s %11s %5s %8s\n' \
    checkout lines pub_fn traced panics enum_json readme design experiments docs mod_docs
for c in "${@:-$here}"; do
    root=$(cd "$c" && pwd)
    src=$(nontest "$root"/crates/*/src)
    lines=$(printf '%s\n' "$src" | wc -l)
    pub_fn=$(printf '%s\n' "$src" | count_pub_fn)
    traced=$(printf '%s\n' "$src" | grep -cE '\bfn [A-Za-z0-9_]*_traced\b' || true)
    panics=$(printf '%s\n' "$src" | grep -vE '^[[:space:]]*//' \
        | grep -oE '\.unwrap\(\)|\.expect\(|\bpanic!\(|\bunreachable!\(' | wc -l)
    enum_json=$(printf '%s\n' "$src" | grep -cE '\benum Json\b' || true)
    docs=()
    for f in README.md DESIGN.md EXPERIMENTS.md; do docs+=("$(wc -l < "$root/$f")"); done
    mod_docs=$(find "$root"/crates/*/src -name '*.rs' -print0 | xargs -0 grep -h '^//!' | wc -l)
    printf '%-40s %7d %6d %6d %6d %9d %6d %6d %11d %5d %8d\n' "$root" "$lines" "$pub_fn" "$traced" "$panics" \
        "$enum_json" "${docs[0]}" "${docs[1]}" "${docs[2]}" $((docs[0] + docs[1] + docs[2])) "$mod_docs"
    for dir in "$root"/crates/*/; do
        src=$(nontest "$dir/src")
        printf '  %-38s %7d %6d\n' "crates/$(basename "$dir")" "$(printf '%s\n' "$src" | wc -l)" \
            "$(printf '%s\n' "$src" | count_pub_fn)"
    done
done
