//! The decode-once issue table (DESIGN.md §16) is derived state: a pure
//! function of the bound program that must answer exactly what decoding the
//! instruction at the probe site would, and that a checkpoint neither
//! stores nor needs.

use pro_sim::isa::{Instr, Kernel, Program};
use pro_sim::mem::GlobalMem;
use pro_sim::smx::{IssueTable, Scoreboard};
use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, SchedulerKind, TraceOptions,
};
use pro_workloads::registry;
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

/// Launch (or resume `from`) and pause at cycle `at`.
fn pause(gpu: &mut Gpu, k: &Kernel, from: Option<&GpuSnapshot>, at: u64) -> GpuSnapshot {
    let opts = CheckpointOptions {
        pause_at: at,
        ..Default::default()
    };
    let status = match from {
        None => gpu.launch_checkpointed(k, SchedulerKind::Pro, TraceOptions::default(), &opts),
        Some(s) => gpu.resume(s, k, SchedulerKind::Pro, TraceOptions::default(), &opts),
    };
    match status.expect("runs") {
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
        let w = registry()
            .into_iter()
            .find(|w| w.kernel == "laplace3d")
            .unwrap();
        let mut gpu = Gpu::new(GpuConfig::small(4), 64 << 20);
        let built = (w.build)(&mut gpu.gmem, 16);
        (gpu, built.kernel)
    };
    let (mut straight, k) = build();
    let late = pause(&mut straight, &k, None, 900);

    let (mut first, k1) = build();
    let early = pause(&mut first, &k1, None, 600);
    let (mut second, k2) = build();
    let resumed = pause(&mut second, &k2, Some(&early), 900);

    assert_eq!(resumed.as_bytes(), late.as_bytes());
}
