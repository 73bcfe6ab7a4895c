//! Equivalence fuzzing with the synthetic kernel generator: for any
//! generated (race-free) kernel, every scheduling policy must produce the
//! exact same output buffer and dynamic instruction count. This is the
//! strongest end-to-end check that scheduling only reorders work.
//!
//! Every launch goes through the one runner, `synth::run`, which holds the
//! output region to the scalar interpreter's: two policies that both pass
//! it computed the same — and the right — output.

use pro_sim::{GpuConfig, SchedulerKind, TraceOptions};
use pro_workloads::synth::{self, SynthParams};

/// Dynamic instruction count of `p` under `sched`, its output checked.
fn run_synth(p: SynthParams, sched: SchedulerKind) -> u64 {
    synth::run(GpuConfig::small(2), p, |gpu, k| gpu.launch(k, sched, TraceOptions::default()))
        .unwrap_or_else(|e| panic!("seed {} under {sched}: {e}", p.seed))
        .sm
        .instructions
}

#[test]
fn random_kernels_agree_across_all_schedulers() {
    for seed in 0..12u64 {
        let p = SynthParams {
            seed,
            blocks: 10,
            statements: 10,
            ..Default::default()
        };
        let ref_instrs = run_synth(p, SchedulerKind::Lrr);
        for sched in [
            SchedulerKind::Gto,
            SchedulerKind::Tl,
            SchedulerKind::Pro,
            SchedulerKind::ProNoBarrier,
            SchedulerKind::ProNoSlowPhase,
        ] {
            assert_eq!(
                run_synth(p, sched),
                ref_instrs,
                "seed {seed}: {sched} instruction count diverged"
            );
        }
    }
}

#[test]
fn barrier_dense_random_kernels_agree() {
    for seed in 100..106u64 {
        let p = SynthParams {
            seed,
            blocks: 8,
            threads: 96, // non-power-of-two warp count exercises barriers
            statements: 8,
            barrier_prob: 0.6,
            mem_prob: 0.2,
            ..Default::default()
        };
        for sched in [SchedulerKind::Gto, SchedulerKind::Pro, SchedulerKind::Lrr] {
            run_synth(p, sched);
        }
    }
}

#[test]
fn divergence_dense_random_kernels_agree() {
    for seed in 200..206u64 {
        let p = SynthParams {
            seed,
            blocks: 8,
            statements: 10,
            branch_prob: 0.5,
            loop_prob: 0.3,
            mem_prob: 0.1,
            barrier_prob: 0.0,
            ..Default::default()
        };
        for sched in [SchedulerKind::Tl, SchedulerKind::Pro, SchedulerKind::Gto] {
            run_synth(p, sched);
        }
    }
}

#[test]
fn memory_saturating_random_kernels_agree() {
    for seed in 300..304u64 {
        let p = SynthParams {
            seed,
            blocks: 12,
            statements: 14,
            mem_prob: 0.8,
            scatter_prob: 0.7,
            barrier_prob: 0.0,
            ..Default::default()
        };
        for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
            run_synth(p, sched);
        }
    }
}
