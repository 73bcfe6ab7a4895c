//! Regenerate the data behind the paper's Fig. 2 as CSV: the execution
//! interval of every thread block on one SM, under LRR and PRO.
//!
//! ```sh
//! cargo run --release --example tb_timeline > timeline.csv
//! ```
//!
//! Columns: scheduler, sm, tb_global_index, start_cycle, end_cycle.

use pro_sim::{GpuConfig, SchedulerKind, TraceOptions};
use pro_workloads::{find, Scale};

fn main() {
    let w = find("laplace3d").expect("LPS in registry");
    println!("scheduler,sm,tb,start,end");
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        // A 4-SM slice gives SM 0 roughly the ~20 TBs the paper plots.
        let trace = TraceOptions {
            timeline: true,
            ..Default::default()
        };
        let result = w
            .run(GpuConfig::small(4), Scale::default(), |gpu, k| gpu.launch(k, sched, trace))
            .expect("run completes and verifies");
        let mut spans = result.timeline.clone();
        spans.sort_by_key(|s| (s.sm, s.start));
        for s in spans {
            println!(
                "{},{},{},{},{}",
                sched.name(),
                s.sm,
                s.global_index,
                s.start,
                s.end
            );
        }
        eprintln!(
            "# {}: kernel total {} cycles, {} TBs traced",
            sched.name(),
            result.cycles,
            result.tb_order.len().max(result.timeline.len())
        );
    }
}
