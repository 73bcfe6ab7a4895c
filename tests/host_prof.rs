//! Host-profiler isolation: `TraceOptions::host_prof` measures the *host*
//! (wall-clock phase timers, queue gauges) and must never
//! leak into anything the determinism story depends on:
//!
//! * a default run carries no `host/*` metrics at all;
//! * a profiled run's pause snapshot is byte-identical to an unprofiled
//!   one's — instrumentation state is never serialized;
//! * resuming with the profiler on reproduces the unprofiled run bit for
//!   bit on every simulated counter;
//! * `RunResult`'s `Snapshot` encoding strips the `host/` namespace, so
//!   result digests and byte-compare gates are profiler-independent.
//!
//! The issue path's order-reuse counters, published under `host/issue/*`,
//! are pinned here too: one kernel's counts under every policy.

use pro_core::codec::{Reader, Snapshot, Writer};
use pro_sim::{GpuSnapshot, RunResult, SchedulerKind, TraceOptions};
use pro_trace::Metrics;

mod common;
use common::{assert_same, fresh_gpu, paused, resume_fresh};

fn prof_opts(host_prof: bool) -> TraceOptions {
    TraceOptions {
        host_prof,
        ..Default::default()
    }
}

/// Pause a run at `pause_at` and return the snapshot.
fn pause(host_prof: bool, pause_at: u64) -> GpuSnapshot {
    paused(SchedulerKind::Pro, prof_opts(host_prof), pause_at)
}

fn run(host_prof: bool) -> RunResult {
    let (mut gpu, kernel) = fresh_gpu();
    gpu.launch(&kernel, SchedulerKind::Pro, prof_opts(host_prof))
        .unwrap()
}

fn has_host(m: &Metrics) -> bool {
    m.counters().iter().any(|(n, _)| n.starts_with("host/"))
        || m.hists().iter().any(|(n, _)| n.starts_with("host/"))
}

#[test]
fn default_run_publishes_no_host_metrics() {
    let r = run(false);
    assert!(
        !has_host(&r.metrics),
        "host/* must be opt-in, found: {:?}",
        r.metrics.counters()
    );
}

#[test]
fn profiled_run_publishes_phase_and_queue_metrics() {
    let r = run(true);
    let c = |name: &str| r.metrics.counter(name).unwrap_or(0);
    assert!(c("host/wall.ns") > 0, "wall clock recorded");
    assert!(c("host/phase.mem.ns") > 0, "mem phase timed");
    assert!(c("host/phase.issue.ns") > 0, "issue phase timed");
    assert!(c("host/phase.merge.ns") > 0, "merge phase timed");
    // The SMs' halves interleave within a cycle; each phase is still one
    // sample per cycle (the sum over the SMs).
    for phase in ["mem", "issue", "merge"] {
        assert_eq!(
            c(&format!("host/phase.{phase}.calls")),
            r.cycles,
            "one {phase}-phase sample per cycle"
        );
    }
    assert!(c("host/mem.evq.pushed") > 0, "event-queue pushes counted");
    // Events scheduled past the kernel's last cycle (e.g. store
    // completions nothing waits on) stay queued when the run ends.
    assert!(
        c("host/mem.evq.popped") <= c("host/mem.evq.pushed"),
        "popped more events than were pushed"
    );
    assert!(c("host/mem.evq.hwm") > 0, "queue high-water mark tracked");
    // The acceptance-criterion gauge: the event-queue depth histogram is in
    // the result's registry, with one sample per QUEUE_SAMPLE_PERIOD.
    let evq = r
        .metrics
        .hist("host/mem.evq.depth")
        .expect("event-queue depth histogram published");
    assert!(evq.total() > 0, "depth was sampled");
    assert!(
        r.metrics.hist("host/sm.lsuq.depth").is_some(),
        "LSU queue depth histogram published"
    );
    // Phase wall-clock histograms ride along.
    assert!(r.metrics.hist("host/phase.mem").is_some());
}

#[test]
fn profiled_pause_snapshot_is_byte_identical_to_unprofiled() {
    let base = run(false);
    let pause_at = base.cycles / 2;
    assert!(pause_at > 0, "workload too short to split");
    let plain = pause(false, pause_at);
    let profiled = pause(true, pause_at);
    assert_eq!(
        plain.into_bytes(),
        profiled.into_bytes(),
        "profiler state leaked into the snapshot encoding"
    );
}

#[test]
fn profiled_resume_is_bit_identical_to_unprofiled_run() {
    let base = run(false);
    let pause_at = base.cycles / 2;
    let snap = pause(true, pause_at);
    let r = resume_fresh(&snap, SchedulerKind::Pro, prof_opts(true)).unwrap().expect_completed();
    assert_same(&base, &r, "profiled resume");
    assert!(has_host(&r.metrics), "the resumed run was actually profiled");
}

#[test]
fn run_result_encoding_strips_host_metrics() {
    let plain = run(false);
    let profiled = run(true);
    let encode = |r: &RunResult| {
        let mut w = Writer::new();
        r.save(&mut w);
        w.into_bytes()
    };
    let bytes = encode(&profiled);
    assert_eq!(
        encode(&plain),
        bytes,
        "a result's encoding must not depend on the profiler"
    );
    let mut rd = Reader::new(&bytes);
    let back = RunResult::load(&mut rd).unwrap();
    rd.finish().unwrap();
    assert!(!has_host(&back.metrics), "host/* survived the round trip");
}

#[test]
fn order_reuse_counts_are_pinned_for_every_policy() {
    // `host/issue/orders_*` of one small kernel under each policy: a change
    // to an order version, or to when the engine asks for one, moves them.
    // The previous contract's counts (per-unit flags that `order()` cleared,
    // and that PRO's kept while a rank rebuild was queued) are on the right.
    // In `SchedulerKind::ALL` order: (reused, recomputed).
    const COUNTS: [(u64, u64); 8] = [
        (9_031, 10_921), // LRR     (9 031, 10 921)
        (9_706, 10_294), // GTO     (9 706, 10 294)
        (4_422, 14_946), // TL      (4 422, 14 946)
        (17_470, 2_098), // PRO    (17 099, 2 469)
        (18_548, 236),   // PRO-NB (18 526, 258)
        (17_470, 2_098), // PRO-NF (17 099, 2 469)
        (17_436, 2_108), // PRO-NS (17 019, 2 525)
        (18_296, 1_616), // PRO-AD (18 007, 1 905)
    ];
    for (sched, want) in SchedulerKind::ALL.into_iter().zip(COUNTS) {
        let (mut gpu, kernel) = fresh_gpu();
        let r = gpu.launch(&kernel, sched, prof_opts(true)).unwrap();
        let c = |name: &str| r.metrics.counter(name).unwrap_or(0);
        let got = (c("host/issue/orders_reused"), c("host/issue/orders_recomputed"));
        assert_eq!(got, want, "{sched}: (orders reused, recomputed)");
    }
}
