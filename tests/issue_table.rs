//! The decode-once issue table (DESIGN.md §16) is derived state: a pure
//! function of the bound program that must answer exactly what decoding the
//! instruction at the probe site would, and that a checkpoint neither
//! stores nor needs.

use pro_sim::isa::{CmpOp, Instr, Kernel, LaunchConfig, Program, ProgramBuilder, Src, Ty};
use pro_sim::mem::GlobalMem;
use pro_sim::smx::{IssueTable, Scoreboard};
use pro_sim::trace::{ClassSet, JsonlTracer, NoopTracer, Tracer};
use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, Run, SchedulerKind, TraceOptions,
};
use pro_workloads::{find, registry};
use pro_workloads::synth::{generate, SynthParams};
use std::sync::Arc;

fn assert_table_matches(program: &Arc<Program>) {
    let table = IssueTable::build(program);
    for (pc, instr) in program.instrs.iter().enumerate() {
        let meta = table.at(pc as u32);
        let what = format!("{} pc {pc}: {instr}", program.name);
        assert_eq!(meta.hazard, Scoreboard::hazard_set(instr), "{what}");
        assert_eq!(meta.write, Scoreboard::write_set(instr), "{what}");
        assert_eq!(meta.pipe, instr.pipe_class(), "{what}");
        assert_eq!(
            meta.drains,
            matches!(instr, Instr::Exit | Instr::Bar { .. }),
            "{what}"
        );
    }
}

#[test]
fn table_equals_per_instruction_decode_for_every_table2_program() {
    for w in registry() {
        let mut gmem = GlobalMem::new(256 << 20);
        let built = (w.build)(&mut gmem, 4);
        assert_table_matches(&built.kernel.program);
    }
}

#[test]
fn table_equals_per_instruction_decode_for_generated_programs() {
    for seed in 0..32u64 {
        let mut gmem = GlobalMem::new(16 << 20);
        let k = generate(
            &mut gmem,
            SynthParams {
                seed,
                blocks: 4,
                statements: 24,
                // Odd seeds lean on memory and barriers, even ones on ALU/SFU.
                mem_prob: if seed % 2 == 1 { 0.5 } else { 0.1 },
                barrier_prob: if seed % 2 == 1 { 0.2 } else { 0.05 },
                ..Default::default()
            },
        );
        assert_table_matches(&k.kernel.program);
    }
}

/// Launch (or resume `from`) under `sched` and pause at cycle `at`.
fn pause(
    gpu: &mut Gpu,
    k: &Kernel,
    sched: SchedulerKind,
    from: Option<&GpuSnapshot>,
    at: u64,
    tracer: &mut dyn Tracer,
) -> GpuSnapshot {
    let opts = CheckpointOptions {
        pause_at: at,
        ..Default::default()
    };
    let run = Run {
        tracer: Some(tracer),
        ckpt: Some(&opts),
        resume: from.map(Into::into),
        ..Run::new(sched)
    };
    match gpu.run(k, run).expect("runs") {
        LaunchStatus::Paused(s) => s,
        LaunchStatus::Completed(_) => panic!("expected a pause at cycle {at}"),
    }
}

/// A run restored from a snapshot re-captures, a few hundred cycles on,
/// byte for byte what the uninterrupted run captures there. The container
/// holds no issue table (nor any other derived issue-path state), so this
/// only holds if binding the kernel on the fresh GPU rebuilt it.
#[test]
fn restored_run_rebuilds_the_table_and_recaptures_identical_bytes() {
    let build = || {
        let w = find("laplace3d").unwrap();
        let mut gpu = Gpu::new(GpuConfig::small(4), 64 << 20);
        let built = (w.build)(&mut gpu.gmem, 16);
        (gpu, built.kernel)
    };
    let pro = SchedulerKind::Pro;
    let (mut straight, k) = build();
    let late = pause(&mut straight, &k, pro, None, 900, &mut NoopTracer);

    let (mut first, k1) = build();
    let early = pause(&mut first, &k1, pro, None, 600, &mut NoopTracer);
    let (mut second, k2) = build();
    let resumed = pause(&mut second, &k2, pro, Some(&early), 900, &mut NoopTracer);

    assert_eq!(resumed.as_bytes(), late.as_bytes());
}

/// Eight rounds of a load on each side of an if/else and another right
/// after the join, all independent: warps stay ready behind a full LSU
/// queue, many of them having just popped their SIMT stack.
fn lsu_full_divergent_kernel(gpu: &mut Gpu) -> Kernel {
    let (tbs, threads) = (8u32, 256u32);
    let base = gpu.gmem.alloc(u64::from(tbs * threads) * 4 + 24 * 4096);
    let mut b = ProgramBuilder::new("lsu_full_divergent");
    let (g, a, t, acc) = (b.reg(), b.reg(), b.reg(), b.reg());
    let p0 = b.pred();
    b.global_tid(g);
    b.buf_addr(a, 0, g, 0);
    b.and(t, g, Src::Imm(1));
    b.setp(CmpOp::Eq, Ty::S32, p0, t, Src::Imm(0));
    let mut loaded = Vec::new();
    for i in 0..8 {
        let (v, j) = (b.reg(), b.reg());
        b.if_else(
            p0,
            |b| {
                b.ld_global(v, a, i * 3 * 4096);
            },
            |b| {
                b.ld_global(v, a, (i * 3 + 1) * 4096);
            },
        );
        b.ld_global(j, a, (i * 3 + 2) * 4096);
        loaded.extend([v, j]);
    }
    b.mov(acc, Src::Imm(0));
    for v in loaded {
        b.iadd(acc, acc, v);
    }
    b.st_global(acc, a, 0);
    b.exit();
    Kernel::new(
        b.build().expect("valid kernel"),
        LaunchConfig::linear(tbs, threads),
        vec![base as u32],
    )
}

/// The ready memo (DESIGN.md §15) is derived state too. Pause in the middle
/// of a stretch where the LSU queue is full and ready warps wait behind it,
/// resume on a fresh GPU with the memo empty: the warps are probed again,
/// and neither the next snapshot nor the event stream may show it — in
/// particular no warp that popped its SIMT stack before the pause reports a
/// second `SimtReconverge` after it.
#[test]
fn run_paused_behind_a_full_lsu_resumes_with_identical_snapshot_and_trace_bytes() {
    let build = || {
        let mut gpu = Gpu::new(GpuConfig::small(2), 4 << 20);
        let k = lsu_full_divergent_kernel(&mut gpu);
        (gpu, k)
    };
    let jsonl = || JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    for sched in [SchedulerKind::Lrr, SchedulerKind::Gto, SchedulerKind::Pro, SchedulerKind::Tl] {
        // Find the stretch in a full trace of the uninterrupted run: the
        // first 32 consecutive cycles that each lose a unit-cycle on SM 0 to
        // a full pipeline, after warps there have started reconverging.
        let (mut probe, k) = build();
        let mut t = jsonl();
        probe.launch_traced(&k, sched, TraceOptions::default(), &mut t).expect("completes");
        let text = String::from_utf8(t.into_inner()).unwrap();
        let cycle_of = |l: &str| l[5..l.find(',').unwrap()].parse::<u64>().unwrap();
        let mut pipe_full: Vec<u64> = text
            .lines()
            .filter(|l| l.contains("\"UnitStall\",\"sm\":0,") && l.contains("\"pipeline\""))
            .map(cycle_of)
            .collect();
        pipe_full.dedup(); // both units can stall in one cycle
        let mid = pipe_full
            .windows(33)
            .find(|w| w[32] - w[0] == 32)
            .map(|w| w[16])
            .unwrap_or_else(|| panic!("{sched:?}: no 32-cycle LSU-full stretch"));
        let reconverged_before = text
            .lines()
            .filter(|l| l.contains("\"SimtReconverge\",\"sm\":0,") && cycle_of(l) < mid)
            .count();
        assert!(reconverged_before > 0, "{sched:?}: no reconvergence before cycle {mid}");
        let end = mid + 400;

        let (mut straight, k) = build();
        let mut whole = jsonl();
        let late = pause(&mut straight, &k, sched, None, end, &mut whole);

        let (mut first, k1) = build();
        let mut head = jsonl();
        let early = pause(&mut first, &k1, sched, None, mid, &mut head);
        let (mut second, k2) = build();
        let mut tail = jsonl();
        let resumed = pause(&mut second, &k2, sched, Some(&early), end, &mut tail);

        assert_eq!(resumed.as_bytes(), late.as_bytes(), "{sched:?}: snapshot at {end}");
        let mut split = head.into_inner();
        split.extend_from_slice(&tail.into_inner());
        assert!(split == whole.into_inner(), "{sched:?}: trace split at cycle {mid} differs");
    }
}
