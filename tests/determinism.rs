//! Determinism guarantees: the simulator is a pure function of
//! (configuration, kernel, scheduler). Identical runs must agree cycle for
//! cycle and counter for counter — the property that makes the paper's
//! comparisons meaningful and the experiments reproducible.

use pro_sim::isa::{CmpOp, Instr, Kernel, LaunchConfig, MemSpace, ProgramBuilder, Special, Src, Ty};
use pro_sim::trace::{ClassSet, Event, EventClass, RingTracer};
use pro_sim::{CheckpointOptions, Gpu, GpuConfig, LaunchStatus, Run, SchedulerKind, TraceOptions};
use pro_workloads::find;
use pro_workloads::synth::{generate, SynthParams};

fn run_twice(kernel_name: &str, sched: SchedulerKind) -> (pro_sim::RunResult, pro_sim::RunResult) {
    let w = find(kernel_name).unwrap();
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
    let w = find("cenergy").unwrap();
    let mut g1 = pro_sim::mem::GlobalMem::new(1 << 22);
    let mut g2 = pro_sim::mem::GlobalMem::new(1 << 22);
    let _ = (w.build)(&mut g1, 4);
    let _ = (w.build)(&mut g2, 4);
    assert_eq!(g1.read_slice(0, 2048), g2.read_slice(0, 2048));
}

/// What one of the two racing thread blocks does to the shared flag word.
#[derive(Clone, Copy, PartialEq)]
enum Racer {
    /// `flag = 100 + ctaid`.
    Stores,
    /// `out = flag`.
    Loads,
}

const FLAG_OLD: u32 = 7;

/// Two one-warp TBs branching uniformly on `ctaid`: TB 0 plays `roles[0]`,
/// TB 1 plays `roles[1]`, against one flag word. Both arms start with
/// their racing global access, so the two warps — launched in cycle 0 on
/// SM 0 and SM 1, in lockstep up to the branch — issue them in the same
/// cycle. Returns the kernel and the flag and output addresses.
fn racy_kernel(gpu: &mut Gpu, roles: [Racer; 2]) -> (Kernel, u64, u64) {
    let flag = gpu.gmem.alloc_init(&[FLAG_OLD]);
    let out = gpu.gmem.alloc_init(&[0]);
    let mut b = ProgramBuilder::new("racy_litmus");
    let (fa, oa, val, seen) = (b.reg(), b.reg(), b.reg(), b.reg());
    let first = b.pred();
    b.mov(fa, Src::Param(0));
    b.mov(oa, Src::Param(1));
    b.iadd(val, Src::Special(Special::Ctaid), Src::Imm(100));
    b.setp(CmpOp::Eq, Ty::S32, first, Src::Special(Special::Ctaid), Src::Imm(0));
    let arm = |b: &mut ProgramBuilder, role: Racer| match role {
        Racer::Stores => {
            b.st_global(val, fa, 0);
        }
        Racer::Loads => {
            b.ld_global(seen, fa, 0);
            b.st_global(seen, oa, 0);
        }
    };
    b.if_else(first, |b| arm(b, roles[0]), |b| arm(b, roles[1]));
    b.exit();
    let kernel = Kernel::new(
        b.build().expect("valid kernel"),
        LaunchConfig::linear(2, 32),
        vec![flag as u32, out as u32],
    );
    (kernel, flag, out)
}

/// One litmus run, paused after `pause_at` cycles and resumed in a fresh
/// GPU when that is nonzero: the final `(flag, out)` words, the cycle both
/// SMs issued their first global access in, and the run's cycle count.
fn run_litmus(roles: [Racer; 2], pause_at: u64) -> ((u32, u32), u64, u64) {
    let fresh = || {
        let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 20);
        let (kernel, flag, out) = racy_kernel(&mut gpu, roles);
        (gpu, kernel, flag, out)
    };
    let (mut gpu, kernel, flag, out) = fresh();
    let mut ring = RingTracer::with_classes(4096, ClassSet::of(&[EventClass::Issue]));
    let ckpt = CheckpointOptions { pause_at, ..Default::default() };
    let run = Run { tracer: Some(&mut ring), ckpt: Some(&ckpt), ..Run::new(SchedulerKind::Lrr) };
    let status = gpu.run(&kernel, run).unwrap();
    let result = match status {
        LaunchStatus::Completed(r) => r,
        LaunchStatus::Paused(snap) => {
            (gpu, ..) = fresh();
            let run = Run {
                tracer: Some(&mut ring),
                resume: Some((&snap).into()),
                ..Run::new(SchedulerKind::Lrr)
            };
            gpu.run(&kernel, run).unwrap().expect_completed()
        }
    };
    // The precondition the verdicts rest on: SM 0 and SM 1 issued their
    // racing accesses in one and the same cycle.
    let first_global = |want_sm: u32| {
        ring.records()
            .find_map(|r| match r.event {
                Event::WarpIssue { sm, pc, .. } if sm == want_sm => matches!(
                    kernel.program.fetch(pc),
                    Instr::Ld { space: MemSpace::Global, .. }
                        | Instr::St { space: MemSpace::Global, .. }
                )
                .then_some(r.cycle),
                _ => None,
            })
            .expect("each SM issues a global access")
    };
    let race_cycle = first_global(0);
    assert_eq!(race_cycle, first_global(1), "the two TBs left lockstep before the race");
    ((gpu.gmem.read(flag), gpu.gmem.read(out)), race_cycle, result.cycles)
}

#[test]
fn same_cycle_global_races_resolve_in_sm_index_order() {
    // DESIGN.md §11: within a cycle the SMs issue in index order against
    // one global memory, so a store is visible to the same-cycle accesses
    // of higher-indexed SMs and to nobody below.
    use Racer::{Loads, Stores};
    for (roles, want_flag, want_out, what) in [
        ([Stores, Loads], 100, 100, "SM 0 stores, SM 1 loads: the load sees the new value"),
        ([Loads, Stores], 101, FLAG_OLD, "SM 1 stores, SM 0 loads: the load sees the old value"),
        ([Stores, Stores], 101, 0, "both store: the higher SM index lands last"),
    ] {
        let straight = run_litmus(roles, 0);
        let (words, race, cycles) = straight;
        assert_eq!(words, (want_flag, want_out), "{what}");
        assert_eq!(run_litmus(roles, 0), straight, "{what}: second run differs");
        // Paused with the race cycle still to run, just run, and mid-run.
        for pause_at in [race, race + 1, cycles / 2] {
            let resumed = run_litmus(roles, pause_at);
            assert_eq!(resumed, straight, "{what}: pause at {pause_at} + resume differs");
        }
    }
}
