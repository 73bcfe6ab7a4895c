//! Regression tests for the paper's headline claims at reduced scale.
//!
//! These are deterministic (the simulator is a pure function of its
//! inputs), so they act as tripwires: if a future change to the scheduler
//! or substrate silently destroys the reproduced effect, these fail.
//! Thresholds are set loosely below the measured values (EXPERIMENTS.md)
//! to allow benign timing shifts while still catching sign flips.

use pro_sim::{geomean, GpuConfig, RunResult, SchedulerKind, TraceOptions};
use pro_workloads::{find, Scale};

/// A subset of kernels covering the paper's effect categories, at small
/// scale on a 4-SM GPU (keeps the whole file under ~30 s in CI).
const SUBSET: &[&str] = &[
    "aesEncrypt128",  // shared-memory compute, PRO's strongest app class
    "sha1_overlap",   // long integer kernels (biggest stall reduction)
    "render",         // warp-level divergence
    "findRageK",      // latency-bound pointer chase
    "laplace3d",      // barrier stencil
];

/// `kernel` under `sched` on `cfg` at 64 TBs, through the one runner: a
/// claim is only ever asserted over a run whose output was checked.
fn run(kernel: &str, sched: SchedulerKind, cfg: GpuConfig) -> RunResult {
    let w = find(kernel).unwrap_or_else(|| panic!("unknown kernel {kernel}"));
    w.run(cfg, Scale::Capped(64), |gpu, k| gpu.launch(k, sched, TraceOptions::default()))
        .unwrap_or_else(|e| panic!("{kernel} under {sched}: {e}"))
}

fn cycles(kernel: &str, sched: SchedulerKind) -> u64 {
    run(kernel, sched, GpuConfig::small(4)).cycles
}

#[test]
fn pro_beats_lrr_geomean_on_subset() {
    let speedups: Vec<f64> = SUBSET
        .iter()
        .map(|k| cycles(k, SchedulerKind::Lrr) as f64 / cycles(k, SchedulerKind::Pro) as f64)
        .collect();
    let g = geomean(speedups.iter().copied());
    assert!(
        g > 1.02,
        "PRO vs LRR geomean regressed to {g:.3} (per-kernel {speedups:?})"
    );
}

#[test]
fn pro_beats_tl_geomean_on_subset() {
    let speedups: Vec<f64> = SUBSET
        .iter()
        .map(|k| cycles(k, SchedulerKind::Tl) as f64 / cycles(k, SchedulerKind::Pro) as f64)
        .collect();
    let g = geomean(speedups.iter().copied());
    assert!(
        g > 1.01,
        "PRO vs TL geomean regressed to {g:.3} (per-kernel {speedups:?})"
    );
}

#[test]
fn pro_is_competitive_with_gto_on_subset() {
    let speedups: Vec<f64> = SUBSET
        .iter()
        .map(|k| cycles(k, SchedulerKind::Gto) as f64 / cycles(k, SchedulerKind::Pro) as f64)
        .collect();
    let g = geomean(speedups.iter().copied());
    assert!(
        g > 0.97,
        "PRO vs GTO geomean regressed to {g:.3} (per-kernel {speedups:?})"
    );
}

#[test]
fn lrr_has_highest_idle_share() {
    // Fig. 1's qualitative claim, on the kernel with the starkest idle
    // contrast (STO: long uniform compute ending in a completion batch).
    let idle_share = |sched: SchedulerKind| -> f64 {
        let r = run("sha1_overlap", sched, GpuConfig::small(4));
        r.sm.idle as f64 / r.sm.total_stalls().max(1) as f64
    };
    let lrr = idle_share(SchedulerKind::Lrr);
    let gto = idle_share(SchedulerKind::Gto);
    assert!(
        lrr > gto,
        "LRR idle share ({lrr:.3}) should exceed GTO's ({gto:.3})"
    );
}

#[test]
fn pro_reduces_total_stalls_vs_lrr_on_sto() {
    let stalls = |sched: SchedulerKind| -> u64 {
        run("sha1_overlap", sched, GpuConfig::small(4)).sm.total_stalls()
    };
    let lrr = stalls(SchedulerKind::Lrr);
    let pro = stalls(SchedulerKind::Pro);
    assert!(
        pro < lrr,
        "PRO total stalls ({pro}) should undercut LRR ({lrr}) on STO"
    );
}

#[test]
fn fr_fcfs_beats_fcfs_on_streaming_writes() {
    // Table I substrate claim: the FR-FCFS DRAM scheduler earns its place.
    let under = |policy: pro_sim::mem::DramPolicy| -> (u64, f64) {
        let mut cfg = GpuConfig::small(4);
        cfg.mem.dram.policy = policy;
        let r = run("bpnn_adjust_weights_cuda", SchedulerKind::Pro, cfg);
        (r.cycles, r.mem.dram.row_hit_rate())
    };
    let (fr_cycles, fr_rate) = under(pro_sim::mem::DramPolicy::FrFcfs);
    let (fc_cycles, fc_rate) = under(pro_sim::mem::DramPolicy::Fcfs);
    assert!(fr_rate > fc_rate, "row-hit rate {fr_rate:.2} vs {fc_rate:.2}");
    assert!(
        fr_cycles <= fc_cycles,
        "FR-FCFS cycles {fr_cycles} vs FCFS {fc_cycles}"
    );
}
