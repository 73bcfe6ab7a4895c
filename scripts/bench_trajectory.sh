#!/usr/bin/env bash
# Append one measured row per BENCHMARK.json workload to BENCH_host.json.
#
#   scripts/bench_trajectory.sh [CHECKOUT...]
#
# Runs BENCHMARK.json's command in each CHECKOUT (default: this repository)
# once per workload at `--seed 1 --seconds <run_seconds> --trace 0`, reads
# the `benchmark/out/result-<workload>-trace0.json` each run leaves there,
# and appends `{rev, nproc, workload, metrics, host, sitting}` to this
# repository's BENCH_host.json. With several checkouts the runs alternate:
# every checkout runs a workload before any runs the next. `rev` is
# `git describe --always --dirty` of a CHECKOUT: a `-dirty` row is a
# working tree on top of that commit, i.e. the PR being prepared. `host` is
# the machine (`/proc/cpuinfo` model name and MHz of its first processor,
# and `nproc`); `sitting` is one id shared by every row of this invocation,
# so rows compare with each other only when their `sitting` is the same.
# One run per workload is a trajectory point, not a comparison — a claim
# still takes the ten alternating pairs of EXPERIMENTS.md. Run it on an
# otherwise idle machine; ~30 s per workload and checkout after the build.
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)
out="$here/BENCH_host.json"
command -v jq >/dev/null || { echo "bench_trajectory.sh needs jq" >&2; exit 1; }
[ -f "$out" ] || { echo "$out: missing (it is checked in)" >&2; exit 1; }

checkouts=()
for c in "${@:-$here}"; do checkouts+=("$(cd "$c" && pwd)"); done
# The workload list and run length come from the first checkout; every
# checkout runs them with its own command.
spec="${checkouts[0]}/BENCHMARK.json"
seconds=$(jq -r '.run_seconds' "$spec")
host=$(jq -nc --arg model "$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')" \
    --arg mhz "$(grep -m1 '^cpu MHz' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')" \
    --argjson nproc "$(nproc)" '{model: $model, mhz: $mhz, nproc: $nproc}')
sitting="$(date -u +%Y%m%dT%H%M%SZ)-$$"

for workload in $(jq -r '.workloads[].name' "$spec"); do
    for checkout in "${checkouts[@]}"; do
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
        row=$(jq -c --arg rev "$rev" --argjson host "$host" --arg sitting "$sitting" \
            '{rev: $rev, nproc, workload, metrics: (.result.metrics | map_values(.value)),
              host: $host, sitting: $sitting}' "$result")
        jq --indent 1 --argjson row "$row" '.rows += [$row]' "$out" > "$out.tmp"
        mv "$out.tmp" "$out"
        echo "$row"
    done
done
