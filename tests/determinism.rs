//! Determinism guarantees: the simulator is a pure function of
//! (configuration, kernel, scheduler). Identical runs must agree cycle for
//! cycle and counter for counter — the property that makes the paper's
//! comparisons meaningful and the experiments reproducible.

use pro_sim::{Gpu, GpuConfig, SchedulerKind, TraceOptions};
use pro_workloads::registry;
use pro_workloads::synth::{generate, SynthParams};

fn run_twice(kernel_name: &str, sched: SchedulerKind) -> (pro_sim::RunResult, pro_sim::RunResult) {
    let w = registry()
        .into_iter()
        .find(|w| w.kernel == kernel_name)
        .unwrap();
    let mut out = Vec::new();
    for _ in 0..2 {
        let mut gpu = Gpu::new(GpuConfig::small(2), 64 << 20);
        let built = (w.build)(&mut gpu.gmem, 8);
        let r = gpu
            .launch(
                &built.kernel,
                sched,
                TraceOptions {
                    timeline: true,
                    tb_order_period: 500,
                    ..Default::default()
                },
            )
            .unwrap();
        out.push(r);
    }
    let b = out.pop().unwrap();
    let a = out.pop().unwrap();
    (a, b)
}

#[test]
fn identical_runs_agree_exactly() {
    for sched in SchedulerKind::PAPER {
        let (a, b) = run_twice("laplace3d", sched);
        assert_eq!(a.cycles, b.cycles, "{sched} cycles");
        assert_eq!(a.sm.issued, b.sm.issued, "{sched} issued");
        assert_eq!(a.sm.idle, b.sm.idle, "{sched} idle");
        assert_eq!(a.sm.scoreboard, b.sm.scoreboard, "{sched} scoreboard");
        assert_eq!(a.sm.pipeline, b.sm.pipeline, "{sched} pipeline");
        assert_eq!(a.timeline, b.timeline, "{sched} timeline");
        assert_eq!(a.tb_order, b.tb_order, "{sched} tb order trace");
        assert_eq!(a.mem.l1.hits, b.mem.l1.hits, "{sched} l1 hits");
        assert_eq!(a.mem.dram.accepted, b.mem.dram.accepted, "{sched} dram");
    }
}

#[test]
fn schedulers_actually_produce_different_schedules() {
    // If all four schedulers produced identical cycle counts on a
    // memory+barrier workload, the policy plumbing would be dead code.
    let mut cycles = std::collections::HashSet::new();
    for sched in SchedulerKind::PAPER {
        let (a, _) = run_twice("scalarProdGPU", sched);
        cycles.insert(a.cycles);
    }
    assert!(
        cycles.len() >= 3,
        "expected distinct schedules, got {cycles:?}"
    );
}

#[test]
fn per_sm_breakdown_is_deterministic() {
    let (a, b) = run_twice("kernel", SchedulerKind::Pro); // BFS
    for (x, y) in a.per_sm.iter().zip(&b.per_sm) {
        assert_eq!(x, y);
    }
}

#[test]
fn synth_kernels_are_cross_run_deterministic() {
    // Two whole fresh-GPU runs of the same generated kernel with the same
    // seed: the generator (in-repo SplitMix64 RNG) and the simulator must
    // together be a pure function of the seed — identical cycle counts,
    // stall breakdowns, memory stats, and output memory.
    let p = SynthParams {
        seed: 0xC0FFEE,
        blocks: 6,
        threads: 96,
        statements: 8,
        mem_prob: 0.5,
        barrier_prob: 0.3,
        ..SynthParams::default()
    };
    let mut results = Vec::new();
    for _ in 0..2 {
        let mut gpu = Gpu::new(GpuConfig::small(2), 16 << 20);
        let k = generate(&mut gpu.gmem, p);
        let r = gpu
            .launch(&k.kernel, SchedulerKind::Pro, TraceOptions::default())
            .unwrap();
        let out = gpu.gmem.read_slice(k.out_base, k.out_len);
        results.push((r, out));
    }
    let (b, out_b) = results.pop().unwrap();
    let (a, out_a) = results.pop().unwrap();
    assert_eq!(a.cycles, b.cycles, "cycles");
    assert_eq!(a.sm.instructions, b.sm.instructions, "instructions");
    assert_eq!(a.sm.issued, b.sm.issued, "issued");
    assert_eq!(a.sm.idle, b.sm.idle, "idle");
    assert_eq!(a.sm.scoreboard, b.sm.scoreboard, "scoreboard");
    assert_eq!(a.sm.pipeline, b.sm.pipeline, "pipeline");
    assert_eq!(a.mem.loads, b.mem.loads, "loads");
    assert_eq!(a.mem.l1.hits, b.mem.l1.hits, "l1 hits");
    assert_eq!(a.mem.dram.accepted, b.mem.dram.accepted, "dram");
    assert_eq!(a.per_sm, b.per_sm, "per-SM stat blocks");
    assert_eq!(out_a, out_b, "output memory");
}

#[test]
fn workload_inputs_are_reproducible() {
    // Two independent builds of the same workload allocate identical data.
    let w = registry()
        .into_iter()
        .find(|w| w.kernel == "cenergy")
        .unwrap();
    let mut g1 = pro_sim::mem::GlobalMem::new(1 << 22);
    let mut g2 = pro_sim::mem::GlobalMem::new(1 << 22);
    let _ = (w.build)(&mut g1, 4);
    let _ = (w.build)(&mut g2, 4);
    assert_eq!(g1.read_slice(0, 2048), g2.read_slice(0, 2048));
}
