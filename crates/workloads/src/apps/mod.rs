//! One module per Table II application. Each module documents how the
//! original kernel behaves (instruction mix, memory pattern, barriers,
//! divergence) and how the VPTX re-creation reproduces those axes.

pub mod aes;
pub mod backprop;
pub mod bfs;
pub mod btree;
pub mod convsep;
pub mod cp;
pub mod histogram;
pub mod hotspot;
pub mod lps;
pub mod montecarlo;
pub mod nn;
pub mod pathfinder;
pub mod ray;
pub mod scalarprod;
pub mod sto;

use crate::Workload;

/// All 25 Table II kernels in table order.
pub(crate) fn all() -> Vec<Workload> {
    vec![
        aes::WORKLOAD,
        bfs::WORKLOAD,
        cp::WORKLOAD,
        lps::WORKLOAD,
        nn::FIRST,
        nn::SECOND,
        nn::THIRD,
        nn::FOURTH,
        ray::WORKLOAD,
        sto::WORKLOAD,
        backprop::LAYERFORWARD,
        backprop::ADJUST_WEIGHTS,
        btree::FIND_RANGE_K,
        btree::FIND_K,
        hotspot::WORKLOAD,
        pathfinder::WORKLOAD,
        convsep::ROWS,
        convsep::COLS,
        histogram::HIST64,
        histogram::MERGE64,
        histogram::HIST256,
        histogram::MERGE256,
        montecarlo::INVERSE_CND,
        montecarlo::ONE_BLOCK_PER_OPTION,
        scalarprod::WORKLOAD,
    ]
}

/// Shared smoke-test driver for app modules: run the workload capped at
/// `tbs` TBs on a 2-SM GPU under LRR; the runner checks the result.
#[cfg(test)]
pub(crate) fn smoke(w: &Workload, tbs: u32) {
    use pro_sim::{GpuConfig, SchedulerKind, TraceOptions};
    let r = w
        .run(GpuConfig::small(2), crate::Scale::Capped(tbs), |gpu, k| {
            gpu.launch(k, SchedulerKind::Lrr, TraceOptions::default())
        })
        .unwrap_or_else(|e| panic!("{}: {e}", w.kernel));
    assert!(r.cycles > 0);
}
