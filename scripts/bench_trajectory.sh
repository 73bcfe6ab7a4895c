#!/usr/bin/env bash
# Append one measured row per BENCHMARK.json workload to BENCH_host.json.
#
#   scripts/bench_trajectory.sh [CHECKOUT]
#
# Runs BENCHMARK.json's command in CHECKOUT (default: this repository) once
# per workload at `--seed 1 --seconds <run_seconds> --trace 0`, reads the
# `benchmark/out/result-<workload>-trace0.json` each run leaves there, and
# appends `{rev, nproc, workload, metrics}` to this repository's
# BENCH_host.json. `rev` is `git describe --always --dirty` of CHECKOUT: a
# `-dirty` row is a working tree on top of that commit, i.e. the PR being
# prepared. One run per workload is a trajectory point, not a comparison —
# a claim still takes the ten alternating pairs of EXPERIMENTS.md. Run it
# on an otherwise idle machine; ~30 s per workload after the build.
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)
checkout=$(cd "${1:-$here}" && pwd)
out="$here/BENCH_host.json"
command -v jq >/dev/null || { echo "bench_trajectory.sh needs jq" >&2; exit 1; }
[ -f "$out" ] || { echo "$out: missing (it is checked in)" >&2; exit 1; }

spec="$checkout/BENCHMARK.json"
mapfile -t cmd < <(jq -r '.command[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
rev=$(git -C "$checkout" describe --always --dirty)

cd "$checkout"
for workload in $(jq -r '.workloads[].name' "$spec"); do
    echo "== $rev: $workload ==" >&2
    "${cmd[@]}" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >/dev/null
    result="benchmark/out/result-$workload-trace0.json"
    jq -e '.result.correct and .result.failed == 0' "$result" >/dev/null || {
        echo "$workload: the run reports a failed check; no row written" >&2
        exit 1
    }
    row=$(jq -c --arg rev "$rev" \
        '{rev: $rev, nproc, workload, metrics: (.result.metrics | map_values(.value))}' "$result")
    jq --indent 1 --argjson row "$row" '.rows += [$row]' "$out" > "$out.tmp"
    mv "$out.tmp" "$out"
    echo "$row"
done
