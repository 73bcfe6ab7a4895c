//! Regression tests for the paper's headline claims at reduced scale.
//!
//! These are deterministic (the simulator is a pure function of its
//! inputs), so they act as tripwires: if a future change to the scheduler
//! or substrate silently destroys the reproduced effect, these fail. The
//! floors sit loosely below the values measured at this scale, to allow
//! benign timing shifts while still catching sign flips; they are not the
//! paper's numbers (`pro_bench::paper::CLAIMS` holds those, and
//! `repro correlate` prints how far the full matrix lies from them).

use std::sync::{LazyLock, Mutex, PoisonError};

use pro_bench::paper::{self, Evidence, Speedups, Stalls};
use pro_bench::{run_cell, Experiment};
use pro_sim::{GpuConfig, SchedulerKind, TraceOptions};
use pro_workloads::{find, Scale, Workload};

/// A subset of kernels covering the paper's effect categories, at small
/// scale on a 4-SM GPU (keeps the whole file under ~30 s in CI).
const SUBSET: &[&str] = &[
    "aesEncrypt128",  // shared-memory compute, PRO's strongest app class
    "sha1_overlap",   // long integer kernels (biggest stall reduction)
    "render",         // warp-level divergence
    "findRageK",      // latency-bound pointer chase
    "laplace3d",      // barrier stencil
];

/// The one experiment every test reads: SUBSET × TL/LRR/GTO/PRO at 64 TBs
/// on a 4-SM GPU, each cell simulated once for the whole file.
static EXPERIMENT: LazyLock<Mutex<Experiment>> =
    LazyLock::new(|| Mutex::new(Experiment::new(Scale::Capped(64), false, GpuConfig::small(4))));

fn subset() -> Vec<Workload> {
    SUBSET.iter().map(|k| find(k).unwrap_or_else(|| panic!("unknown kernel {k}"))).collect()
}

/// The Fig. 4 and stall reductions of the shared experiment.
fn reduced() -> (Speedups, Stalls) {
    let mut exp = EXPERIMENT.lock().unwrap_or_else(PoisonError::into_inner);
    let grid = exp.cells(&subset(), &SchedulerKind::PAPER);
    (Speedups::of(&grid), Stalls::of(&grid))
}

/// Asserts that the Fig. 4 geomean claim `id` stays above `floor` on the
/// shared experiment.
fn assert_geomean_floor(id: &str, floor: f64) {
    let evidence = Evidence { fig4: reduced().0, ..Evidence::default() };
    let g = (paper::claim(id).measure)(&evidence);
    assert!(g > floor, "{id} regressed to {g:.3} (per-kernel {:?})", evidence.fig4.kernels);
}

#[test]
fn pro_beats_tl_geomean_on_subset() {
    assert_geomean_floor("fig4.geomean_vs_tl", 1.01);
}

#[test]
fn pro_beats_lrr_geomean_on_subset() {
    assert_geomean_floor("fig4.geomean_vs_lrr", 1.02);
}

#[test]
fn pro_is_competitive_with_gto_on_subset() {
    assert_geomean_floor("fig4.geomean_vs_gto", 0.97);
}

#[test]
fn lrr_has_highest_idle_share() {
    // Fig. 1's qualitative claim, on the kernel with the starkest idle
    // contrast (STO: long uniform compute ending in a completion batch).
    let stalls = reduced().1;
    let idle_share = |sched| paper::idle_share([&stalls.under("STO", sched)]);
    let lrr = idle_share(SchedulerKind::Lrr);
    let gto = idle_share(SchedulerKind::Gto);
    assert!(
        lrr > gto,
        "LRR idle share ({lrr:.3}) should exceed GTO's ({gto:.3})"
    );
}

#[test]
fn pro_reduces_total_stalls_vs_lrr_on_sto() {
    let stalls = reduced().1;
    let lrr = stalls.under("STO", SchedulerKind::Lrr).total();
    let pro = stalls.under("STO", SchedulerKind::Pro).total();
    assert!(
        pro < lrr,
        "PRO total stalls ({pro}) should undercut LRR ({lrr}) on STO"
    );
}

#[test]
fn fr_fcfs_beats_fcfs_on_streaming_writes() {
    // Table I substrate claim: the FR-FCFS DRAM scheduler earns its place.
    let w = find("bpnn_adjust_weights_cuda").expect("kernel present");
    let under = |policy: pro_sim::mem::DramPolicy| -> (u64, f64) {
        let mut cfg = GpuConfig::small(4);
        cfg.mem.dram.policy = policy;
        let pro = SchedulerKind::Pro;
        let r = run_cell(&w, pro, Scale::Capped(64), cfg, |gpu, k| gpu.launch(k, pro, TraceOptions::default())).result;
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
