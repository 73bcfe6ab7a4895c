#!/usr/bin/env bash
# Tier-1 verification, runnable fully offline.
#
# The workspace is hermetic by construction: every crate depends only on
# sibling path crates, so `cargo build` never touches a registry. This
# script runs the tier-1 gate (release build + full test suite), checks
# that rustdoc stays warning-free, and guards against anyone reintroducing
# an external dependency into a manifest.
#
# Every cargo command passes `--locked`: a change that would rewrite
# `Cargo.lock` or `benchmark/Cargo.lock` fails here instead of editing the
# lockfile in place.
set -euo pipefail
cd "$(dirname "$0")/.."

manifests=(Cargo.toml crates/*/Cargo.toml)

echo "== guard: no external dependencies in any manifest =="
# The workspace root declares every dependency as `{ path = "crates/..." }`
# and crates reference them as `foo.workspace = true`. Anything else — a
# banned crate name, a semver requirement, or a git/registry source —
# would break the offline guarantee.
if grep -nE '\b(rand|proptest|criterion)\b' "${manifests[@]}"; then
    echo "ERROR: a removed external crate is referenced in a manifest" >&2
    exit 1
fi
if grep -nE '=\s*\{[^}]*(git|registry)\s*=' "${manifests[@]}"; then
    echo "ERROR: a git/registry dependency source appears in a manifest" >&2
    exit 1
fi
# Semver requirements (`foo = "1.2"` or `version = "1.2"` inside a dep
# table) — the only legitimate quoted-number lines are the root manifest's
# own package/workspace metadata (version, edition, resolver).
if grep -nE '=\s*("[0-9^~*]|\{[^}]*version\s*=)' "${manifests[@]}" \
    | grep -vE '^Cargo\.toml:[0-9]+:(version|edition|resolver|rust-version)\s*='; then
    echo "ERROR: a version-style (registry) dependency appears in a manifest" >&2
    exit 1
fi
echo "ok: all dependencies are path-only"

echo "== tier-1: release build =="
cargo build --release --locked

echo "== tier-1: test suite =="
cargo test -q --locked

echo "== rustdoc: must be warning-free =="
RUSTDOCFLAGS="--deny warnings" cargo doc --no-deps --locked

echo "== clippy: warning-free, and no function past clippy.toml's line cap =="
# `too_many_lines` is off by default; with it on, clippy.toml's
# `too-many-lines-threshold` is the enforced ceiling for every function in
# the workspace, tests and examples included (`--all-targets`; there is no
# bench target).
cargo clippy --release --all-targets --offline --locked -- -D warnings -W clippy::too_many_lines

echo "== trace: Chrome export parses and report cross-checks =="
# `repro trace` writes a JSONL stream + Chrome trace_event JSON into the
# working directory, re-reduces the stream, and prints the max deviation
# between trace-derived and counter-derived stall shares (must be ~0).
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
(cd "$tracedir" && "$OLDPWD/target/release/repro" trace laplace3d pro) \
    | tee "$tracedir/out.txt"
grep -q 'deviation: 0.0e0' "$tracedir/out.txt" || {
    echo "ERROR: trace-report disagrees with simulator counters" >&2
    exit 1
}
grep -q '"traceEvents":\[' "$tracedir"/trace_laplace3d_pro.chrome.json || {
    echo "ERROR: Chrome export missing traceEvents envelope" >&2
    exit 1
}
target/release/repro trace-report "$tracedir/trace_laplace3d_pro.jsonl" \
    | grep -q 'kernel laplace3d' || {
    echo "ERROR: trace-report could not reduce the JSONL stream" >&2
    exit 1
}
# Whole-stream goldens: every byte of two full traces (JSONL and Chrome), one
# per scheduler family, against digests recorded before the encoder and the
# event layout last changed. tests/trace_golden.rs pins one small kernel's
# event order; this pins what a user's run writes.
(cd "$tracedir" && "$OLDPWD/target/release/repro" trace findK tl >/dev/null)
(cd "$tracedir" && sha256sum --quiet -c "$OLDPWD/scripts/golden/trace.sha256") || {
    echo "ERROR: repro trace output diverged from scripts/golden/trace.sha256" >&2
    exit 1
}
echo "ok: repro trace laplace3d pro / findK tl reproduce their golden digests"

echo "== experiment pool: --jobs 1 == --jobs 4 == golden =="
# The determinism contract of the one parallel layer: the experiment pool
# (--jobs) must produce byte-for-byte the output of a single-threaded
# sweep, and both must match the checked-in golden (captured before the
# calendar-queue swap of DESIGN.md §14 and unchanged since). Any divergence
# in a counter, a stall share, or float formatting fails the gate.
target/release/repro json --quick --jobs 1 > "$tracedir/json_serial.txt"
target/release/repro json --quick --jobs 4 > "$tracedir/json_jobs4.txt"
cmp "$tracedir/json_serial.txt" "$tracedir/json_jobs4.txt" || {
    echo "ERROR: repro json differs between --jobs 1 and --jobs 4" >&2
    exit 1
}
cmp "$tracedir/json_serial.txt" scripts/golden/repro_quick.json || {
    echo "ERROR: repro json --quick diverged from scripts/golden/repro_quick.json" >&2
    exit 1
}
echo "ok: --jobs 1 and --jobs 4 both reproduce the golden byte-for-byte"
# The checked-in artifacts are goldens too: `repro all` is every view over
# the experiment store in one process (each cell simulated once, DESIGN.md
# §5), so this also proves a view prints the same bytes from a warm store
# as from a cold one.
target/release/repro all | cmp - repro_output.txt || {
    echo "ERROR: repro all diverged from repro_output.txt" >&2
    exit 1
}
(cd "$tracedir" && "$OLDPWD/target/release/repro" svg >/dev/null)
for svg in fig1_lrr.svg fig2_lrr.svg fig2_pro.svg fig4.svg; do
    cmp "$tracedir/$svg" "$svg" || {
        echo "ERROR: repro svg diverged from the checked-in $svg" >&2
        exit 1
    }
done
echo "ok: repro all and repro svg reproduce the checked-in artifacts"
# The paper-vs-ours numbers: every claim of pro_bench::paper::CLAIMS beside
# this build's value, its error and the summary, against the checked-in run,
# so no document has to keep them by hand.
target/release/repro correlate | cmp - correlate_output.txt || {
    echo "ERROR: repro correlate diverged from correlate_output.txt" >&2
    exit 1
}
echo "ok: repro correlate reproduces correlate_output.txt"

echo "== repository benchmark: own tests + smoke run + full matrix =="
# benchmark/ is a workspace of its own (BENCHMARK.json is its contract), so
# the tier-1 `cargo test` above never sees it. Its tests pin the metric and
# workload names against BENCHMARK.json; the smoke run drives every workload
# once on small kernels and checks outputs and result digests.
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --smoke > "$tracedir/bench_smoke.txt"
# One JSON result line per workload and pass; every one must say
# "correct":true,"failed":0 (keys are printed in alphabetical order).
results=$(grep -c '^{' "$tracedir/bench_smoke.txt" || true)
passing=$(grep -c '^{.*"correct":true,"failed":0,' "$tracedir/bench_smoke.txt" || true)
if [ "$results" -eq 0 ] || [ "$results" -ne "$passing" ]; then
    echo "ERROR: benchmark --smoke: $passing of $results result lines are correct with 0 failed" >&2
    exit 1
fi
echo "ok: benchmark tests pass; all $results smoke results correct with 0 failed checks"
# The whole Table II matrix (25 kernels x TL/LRR/GTO/PRO, under a minute) against
# benchmark/golden/digests.json: every cell's result digest and cycle count.
# The smoke run covers small kernels only; this is the identity gate for a
# change to the run loop's ordering (DESIGN.md §11).
cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --full-matrix | tee "$tracedir/bench_matrix.txt"
grep -q '^full_matrix    checks: [1-9][0-9]* attempted, 0 failed' "$tracedir/bench_matrix.txt" || {
    echo "ERROR: benchmark --full-matrix did not report 0 failed checks" >&2
    exit 1
}
echo "ok: benchmark --full-matrix matches the golden digests"

echo "== full scale: repro fig4 --full-scale == fig4_fullscale.txt =="
# The largest job the CLI starts — the exact Table II grids, all 100 cells,
# ~20 s on two cores — against the checked-in artifact: the headline figure
# at the paper's own sizes is a golden like the quick sweep's.
target/release/repro fig4 --full-scale | cmp - fig4_fullscale.txt || {
    echo "ERROR: repro fig4 --full-scale diverged from fig4_fullscale.txt" >&2
    exit 1
}
echo "ok: the full-scale Fig. 4 reproduces the checked-in artifact"

echo "== shootout: 8-policy report with host-cost columns =="
# The profiled policy matrix: one row per scheduler in SchedulerKind::ALL,
# each with stall attribution and host/* cost columns, plus a JSON export.
(cd "$tracedir" && "$OLDPWD/target/release/repro" shootout --quick) \
    > "$tracedir/shootout.txt"
for policy in LRR GTO TL PRO PRO-NB PRO-NF PRO-NS PRO-AD; do
    grep -q "^$policy " "$tracedir/shootout.txt" || {
        echo "ERROR: shootout table is missing policy $policy" >&2
        exit 1
    }
done
grep -q '"policies":\[' "$tracedir/shootout.json" || {
    echo "ERROR: shootout.json missing the policies array" >&2
    exit 1
}
echo "ok: shootout covers all 8 policies in text and JSON"

echo "== incremental issue path: reuse counters =="
# The order-reuse telemetry (DESIGN.md §15): every profiled run publishes
# host/issue/* counters, surfaced as the shootout's reuse% column and
# JSON fields. If a policy's reused count ever collapses to zero the
# incremental path has silently degraded to scratch recomputes for it.
grep -q '"issue_probes"' "$tracedir/shootout.json" || {
    echo "ERROR: shootout.json missing the issue_probes counter" >&2
    exit 1
}
reused=$(paste -d' ' \
    <(grep -o '"policy":"[^"]*"' "$tracedir/shootout.json" | cut -d'"' -f4) \
    <(grep -o '"issue_orders_reused":[0-9]*' "$tracedir/shootout.json" | cut -d: -f2))
echo "$reused"
if [ "$(grep -c ' [1-9][0-9]*$' <<<"$reused")" -ne 8 ]; then
    echo "ERROR: a policy reused no order (or lost issue_orders_reused)" >&2
    exit 1
fi
grep -q 'reuse%' "$tracedir/shootout.txt" || {
    echo "ERROR: shootout table lost the reuse% column" >&2
    exit 1
}
echo "ok: reuse counters published, and every policy reused orders"

echo "== verify: all green =="
