#!/usr/bin/env bash
# Append one measured row per BENCHMARK.json workload to BENCH_host.json.
#
#   scripts/bench_trajectory.sh [CHECKOUT...]
#   scripts/bench_trajectory.sh --table SITTING
#
# Runs BENCHMARK.json's command in each CHECKOUT (default: this repository)
# once per workload at `--seed 1 --seconds <run_seconds> --trace 0`, reads
# the `benchmark/out/result-<workload>-trace0.json` each run leaves there,
# and appends `{rev, nproc, workload, metrics, host, sitting, anchor_rev,
# wall_ratio_vs_anchor}` to this repository's BENCH_host.json. With several
# checkouts the runs alternate: every checkout runs a workload before any
# runs the next. `rev` is `git describe --always --dirty` of a CHECKOUT: a
# `-dirty` row is a working tree on top of that commit, i.e. the PR being
# prepared. `host` is the machine (`/proc/cpuinfo` model name and MHz of
# its first processor, and `nproc`); `sitting` is one id shared by every
# row of this invocation, so rows compare with each other only when their
# `sitting` is the same.
#
# The anchor is the commit that defined the benchmark, `6c59bf7` (PR 11).
# When one CHECKOUT is a clean tree at the anchor it runs each workload
# first, and every row of that workload gets `wall_ratio_vs_anchor`, its
# `wall_s` over the anchor's: a ratio is only ever taken between two runs
# of one sitting, so a change of host or of minute cannot enter it.
# Without an anchor checkout the field is null.
#
# `--table SITTING` prints the sitting's `wall_ratio_vs_anchor` per rev and
# workload as a markdown table. It refuses a sitting with no anchor rows
# rather than take ratios from another.
#
# One run per workload is a trajectory point, not a comparison — a claim
# still takes the ten alternating pairs of EXPERIMENTS.md. Run it on an
# otherwise idle machine; ~30 s per workload and checkout after the build.
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)
out="$here/BENCH_host.json"
command -v jq >/dev/null || { echo "bench_trajectory.sh needs jq" >&2; exit 1; }
[ -f "$out" ] || { echo "$out: missing (it is checked in)" >&2; exit 1; }
anchor=6c59bf771d6476ac40baa6ad08b11a97af697dda

if [ "${1:-}" = "--table" ]; then
    [ $# -eq 2 ] || { echo "usage: $0 --table SITTING" >&2; exit 2; }
    jq -r --arg s "$2" '
        def firsts: reduce .[] as $x ([]; if any(.[]; . == $x) then . else . + [$x] end);
        [.rows[] | select(.sitting == $s)] as $r
        | if ($r | length) == 0 then error("no rows of sitting \($s)") else . end
        | if ([$r[] | select(.wall_ratio_vs_anchor != null)] | length) == 0
          then error("sitting \($s) has no anchor rows: its ratios are not taken against another sitting") else . end
        | ($r | map(.workload) | firsts) as $ws
        | "| rev | " + ($ws | join(" | ")) + " |",
          "|---|" + ($ws | map("---:") | join("|")) + "|",
          ($r | map(.rev) | firsts[] as $rev
            | "| \($rev) | " + ($ws | map(. as $w
                | [$r[] | select(.rev == $rev and .workload == $w) | .wall_ratio_vs_anchor | select(. != null)]
                | if length == 0 then "-" else (.[0] * 1000 | round / 1000 | tostring) end) | join(" | ")) + " |")
    ' "$out"
    exit 0
fi

checkouts=()
for c in "${@:-$here}"; do checkouts+=("$(cd "$c" && pwd)"); done
# The anchor's checkout runs each workload first, so its wall time is known
# when the others' rows are written.
anchor_checkout=
for c in "${checkouts[@]}"; do
    if [ -z "$anchor_checkout" ] && [ "$(git -C "$c" rev-parse HEAD)" = "$anchor" ] &&
        [ -z "$(git -C "$c" status --porcelain --untracked-files=no)" ]; then
        anchor_checkout=$c
    fi
done
ordered=()
[ -z "$anchor_checkout" ] || ordered=("$anchor_checkout")
for c in "${checkouts[@]}"; do
    [ "$c" = "$anchor_checkout" ] || ordered+=("$c")
done
# The workload list and run length come from the first checkout; every
# checkout runs them with its own command.
spec="${checkouts[0]}/BENCHMARK.json"
seconds=$(jq -r '.run_seconds' "$spec")
host=$(jq -nc --arg model "$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')" \
    --arg mhz "$(grep -m1 '^cpu MHz' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')" \
    --argjson nproc "$(nproc)" '{model: $model, mhz: $mhz, nproc: $nproc}')
sitting="$(date -u +%Y%m%dT%H%M%SZ)-$$"

for workload in $(jq -r '.workloads[].name' "$spec"); do
    anchor_wall=null
    for checkout in "${ordered[@]}"; do
        rev=$(git -C "$checkout" describe --always --dirty)
        mapfile -t cmd < <(jq -r '.command[]' "$checkout/BENCHMARK.json")
        echo "== $rev: $workload ==" >&2
        (cd "$checkout" &&
            "${cmd[@]}" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >/dev/null)
        result="$checkout/benchmark/out/result-$workload-trace0.json"
        jq -e '.result.correct and .result.failed == 0' "$result" >/dev/null || {
            echo "$workload: the run reports a failed check; no row written" >&2
            exit 1
        }
        if [ "$checkout" = "$anchor_checkout" ]; then
            anchor_wall=$(jq '.result.metrics.wall_s.value' "$result")
        fi
        row=$(jq -c --arg rev "$rev" --argjson host "$host" --arg sitting "$sitting" \
            --arg anchor "${anchor:0:7}" --argjson anchor_wall "$anchor_wall" \
            '{rev: $rev, nproc, workload, metrics: (.result.metrics | map_values(.value)),
              host: $host, sitting: $sitting, anchor_rev: $anchor,
              wall_ratio_vs_anchor: (if $anchor_wall == null then null
                                     else .result.metrics.wall_s.value / $anchor_wall end)}' "$result")
        jq --indent 1 --argjson row "$row" '.rows += [$row]' "$out" > "$out.tmp"
        mv "$out.tmp" "$out"
        echo "$row"
    done
done
