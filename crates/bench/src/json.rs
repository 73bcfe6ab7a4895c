//! The experiment export used by `repro json`: one machine-readable
//! document containing every (kernel × scheduler) result so external
//! tooling (plotting notebooks, CI regression checks) can consume the
//! reproduction. Values and objects are written by [`pro_trace::json`].

use crate::Cell;
use pro_trace::json::{write_obj, Json};

/// `rows` as one JSON array of objects, each row's keys in the order given.
pub fn objects<'a>(rows: impl IntoIterator<Item = Vec<(&'a str, Json)>>) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_obj(&mut out, row);
    }
    out.push(']');
    out
}

/// Export a set of experiment cells as one JSON document.
pub fn export_cells<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> String {
    let s = |v: &str| Json::Str(v.into());
    // Counters are below 2^53, so each is exact as a JSON number.
    let n = |v: u64| Json::Num(v as f64);
    objects(cells.into_iter().map(|c| {
        let r = &c.result;
        vec![
            ("app", s(c.app)),
            ("kernel", s(c.kernel)),
            ("scheduler", s(c.sched.name())),
            ("cycles", n(r.cycles)),
            ("instructions", n(r.sm.instructions)),
            ("thread_instructions", n(r.sm.thread_instructions)),
            ("ipc", Json::Num(r.ipc())),
            ("issued", n(r.sm.issued)),
            ("idle", n(r.sm.idle)),
            ("scoreboard", n(r.sm.scoreboard)),
            ("pipeline", n(r.sm.pipeline)),
            ("unit_cycles", n(r.sm.unit_cycles)),
            ("avg_wld", Json::Num(r.sm.avg_wld())),
            ("tbs_completed", n(r.sm.tbs_completed)),
            ("l1_miss_rate", Json::Num(r.mem.l1.miss_rate())),
            ("l2_miss_rate", Json::Num(r.mem.l2.miss_rate())),
            ("dram_row_hit_rate", Json::Num(r.mem.dram.row_hit_rate())),
            ("avg_load_latency", Json::Num(r.mem.avg_load_latency())),
        ]
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_shape() {
        // Construct a minimal cell via a tiny real run.
        use pro_core::SchedulerKind::Lrr;
        use pro_sim::{GpuConfig, TraceOptions};
        use pro_workloads::{find, Scale};
        let w = find("cenergy").unwrap();
        let cell = crate::run_cell(&w, Lrr, Scale::Capped(4), GpuConfig::small(1), |gpu, k| {
            gpu.launch(k, Lrr, TraceOptions::default())
        });
        let doc = export_cells(&[cell]);
        assert!(doc.starts_with(r#"[{"app":"#), "{doc}");
        assert!(doc.contains(r#""kernel":"cenergy","scheduler":"LRR","cycles":"#), "{doc}");
        assert!(pro_trace::json::parse(&doc).is_ok());
    }
}
