//! Scheduler shootout: run one of the paper's Table II workloads under all
//! eight available schedulers (the paper's four plus the four PRO
//! variants) and compare cycles, IPC and the stall breakdown.
//!
//! ```sh
//! cargo run --release --example scheduler_shootout [kernel-name]
//! ```
//!
//! Defaults to `scalarProdGPU`, the paper's headline kernel.

use pro_sim::core::SchedulerKind;
use pro_sim::{GpuConfig, TraceOptions};
use pro_workloads::{find, registry, Scale};

fn main() {
    let want = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "scalarProdGPU".to_string());
    let Some(w) = find(&want) else {
        eprintln!("unknown kernel `{want}`; available:");
        for w in registry() {
            eprintln!("  {}", w.kernel);
        }
        std::process::exit(2);
    };
    let scale = Scale::default();
    println!(
        "workload {} / {} — {} TBs ({} at Table II scale), {} threads/TB\n",
        w.app,
        w.kernel,
        w.effective_tbs(scale),
        w.table2_tbs,
        w.threads_per_tb
    );
    println!(
        "{:<8} {:>10} {:>7} {:>12} {:>12} {:>12} {:>9}",
        "sched", "cycles", "IPC", "idle", "scoreboard", "pipeline", "speedup"
    );
    let mut baseline = None;
    for kind in SchedulerKind::ALL {
        let r = w
            .run(GpuConfig::gtx480(), scale, |gpu, k| gpu.launch(k, kind, TraceOptions::default()))
            .expect("run completes and verifies");
        let base = *baseline.get_or_insert(r.cycles);
        println!(
            "{:<8} {:>10} {:>7.2} {:>12} {:>12} {:>12} {:>8.3}x",
            kind.name(),
            r.cycles,
            r.ipc(),
            r.sm.idle,
            r.sm.scoreboard,
            r.sm.pipeline,
            base as f64 / r.cycles as f64
        );
    }
    println!("\n(speedup is relative to the first row, LRR)");
}
