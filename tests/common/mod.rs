//! The fixture `checkpoint.rs`, `delta_checkpoint.rs` and `host_prof.rs`
//! share: one small kernel on one small machine, its uninterrupted run, a
//! pause snapshot of it, a resume in a fresh GPU, and the comparison of two
//! results on everything the simulator computed.

// Each of the three targets compiles this file and uses its own subset.
#![allow(dead_code)]

use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, Prior, Run, RunResult,
    SchedulerKind, SimError, TbSpan, TraceOptions,
};
use pro_trace::{ClassSet, Event, JsonlTracer, Record};
use pro_workloads::find;
use std::collections::HashMap;

pub const KERNEL: &str = "laplace3d";
pub const SCALE: u32 = 16;

pub fn cfg() -> GpuConfig {
    GpuConfig::small(4)
}

/// Every trace accumulator on, so a snapshot has all of them to carry.
pub fn trace_opts() -> TraceOptions {
    TraceOptions {
        timeline: true,
        tb_order_period: 500,
        utilization_period: 100,
        ..Default::default()
    }
}

/// Build the test workload into a fresh GPU, returning (gpu, kernel).
pub fn fresh_gpu() -> (Gpu, pro_sim::isa::Kernel) {
    let w = find(KERNEL).unwrap();
    let mut gpu = Gpu::new(cfg(), 64 << 20);
    let built = (w.build)(&mut gpu.gmem, SCALE);
    (gpu, built.kernel)
}

/// One run of the test workload on a fresh GPU — from the start, or from
/// `resume` — with every trace accumulator on and every event class into
/// JSONL: how it ended, the trace bytes, the output memory.
pub fn traced_run(
    sched: SchedulerKind,
    ckpt: Option<&CheckpointOptions>,
    resume: Option<Prior<'_>>,
) -> (LaunchStatus, Vec<u8>, Vec<u32>) {
    let (mut gpu, kernel) = fresh_gpu();
    let mut jsonl = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let run = Run { trace: trace_opts(), tracer: Some(&mut jsonl), ckpt, resume, ..Run::new(sched) };
    let status = gpu.run(&kernel, run).unwrap();
    (status, jsonl.into_inner(), gpu.gmem.read_slice(0, 4096))
}

/// The uninterrupted reference run: result, JSONL trace bytes, output memory.
pub fn straight_run(sched: SchedulerKind) -> (RunResult, Vec<u8>, Vec<u32>) {
    let (status, trace, out) = traced_run(sched, None, None);
    (status.expect_completed(), trace, out)
}

/// Prior state (a chain, or a lone snapshot) resumed in a fresh GPU, as a
/// new process would: result, JSONL trace bytes, output memory.
pub fn resume_run(prior: Prior<'_>, sched: SchedulerKind) -> (RunResult, Vec<u8>, Vec<u32>) {
    let (status, trace, out) = traced_run(sched, None, Some(prior));
    (status.expect_completed(), trace, out)
}

/// The snapshot of a run that was asked to pause.
pub fn pause_of(status: LaunchStatus) -> GpuSnapshot {
    match status {
        LaunchStatus::Paused(s) => s,
        LaunchStatus::Completed(_) => panic!("the run finished before its pause"),
    }
}

/// Pause `sched` on the test workload after `pause_at` cycles.
pub fn paused(sched: SchedulerKind, trace: TraceOptions, pause_at: u64) -> GpuSnapshot {
    let (mut gpu, kernel) = fresh_gpu();
    let ckpt = CheckpointOptions { pause_at, ..Default::default() };
    pause_of(gpu.launch_checkpointed(&kernel, sched, trace, &ckpt).unwrap())
}

/// Resume `snap` in a fresh GPU, untraced.
pub fn resume_fresh(
    snap: &GpuSnapshot,
    sched: SchedulerKind,
    trace: TraceOptions,
) -> Result<LaunchStatus, SimError> {
    let (mut gpu, kernel) = fresh_gpu();
    gpu.resume(snap, &kernel, sched, trace, &CheckpointOptions::default())
}

pub fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.kernel, b.kernel, "{what}: kernel");
    assert_eq!(a.scheduler, b.scheduler, "{what}: scheduler");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.sm, b.sm, "{what}: aggregate SM stats");
    assert_eq!(a.per_sm, b.per_sm, "{what}: per-SM stats");
    assert_eq!(a.mem, b.mem, "{what}: memory stats");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline");
    assert_eq!(a.tb_order, b.tb_order, "{what}: tb order trace");
    assert_eq!(a.utilization, b.utilization, "{what}: utilization");
    // `host/*` metrics are wall-clock measurements of the host and vary
    // run to run by nature; every determinism gate compares the simulated
    // namespace only (tests/host_prof.rs pins the exclusion itself).
    let sim = |m: &pro_trace::Metrics| {
        (
            m.counters()
                .iter()
                .filter(|(n, _)| !n.starts_with("host/"))
                .cloned()
                .collect::<Vec<_>>(),
            m.hists()
                .iter()
                .filter(|(n, _)| !n.starts_with("host/"))
                .cloned()
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(sim(&a.metrics), sim(&b.metrics), "{what}: metrics");
}

/// The reference for a run's `timeline` and `utilization`, rebuilt from the
/// bus as a subscriber sees it: each span from its TB's `TbLaunch` and
/// `TbComplete`, each SM's row from its `WarpIssue`s counted into buckets
/// of `period` cycles, rows zero-padded to one width. `records` are those
/// of one launch at cycle 0 on `sms` SMs.
pub fn rebuild_from_events<'a>(
    records: impl Iterator<Item = &'a Record>,
    sms: u32,
    period: u64,
) -> (Vec<TbSpan>, Vec<Vec<u64>>) {
    let mut starts = HashMap::new();
    let mut timeline = Vec::new();
    let mut utilization = vec![Vec::new(); sms as usize];
    for &Record { cycle, event } in records {
        match event {
            Event::TbLaunch { sm, global_index, .. } => {
                starts.insert((sm, global_index), cycle);
            }
            Event::TbComplete { sm, global_index, .. } => {
                let start = starts.remove(&(sm, global_index)).expect("a TB completes after its launch");
                timeline.push(TbSpan { sm, global_index, start, end: cycle });
            }
            Event::WarpIssue { sm, .. } => {
                let (row, bucket) = (&mut utilization[sm as usize], (cycle / period) as usize);
                if row.len() <= bucket {
                    row.resize(bucket + 1, 0);
                }
                row[bucket] += 1;
            }
            _ => {}
        }
    }
    let width = utilization.iter().map(Vec::len).max().unwrap_or(0);
    for row in &mut utilization {
        row.resize(width, 0);
    }
    (timeline, utilization)
}
