//! `trace-report`: aggregate a JSONL trace back into per-kernel summaries.
//!
//! This is the consumer side of [`crate::tracer::JsonlTracer`]: it parses
//! the stream line by line, splits it on `KernelBegin`/`KernelEnd` marker
//! lines, and rebuilds the §II.B stall taxonomy, issue counts and the
//! memory-latency distribution *from events alone* — which is exactly what
//! the acceptance test leans on to prove the bus agrees with the
//! simulator's native `SmStats` counters.

use crate::json::{parse, Json};
use crate::metrics::Hist16;
use std::fmt::Write as _;

/// Aggregates recovered from one kernel's slice of a JSONL trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelReport {
    /// Kernel name from the `KernelBegin` marker (empty if the stream had
    /// no markers — everything then lands in one anonymous report).
    pub kernel: String,
    /// Simulated cycles from the `KernelEnd` marker (0 if absent).
    pub cycles: u64,
    /// `WarpIssue` events (scheduler-unit issue slots used).
    pub issued: u64,
    /// `UnitStall` events with reason `idle`.
    pub idle: u64,
    /// `UnitStall` events with reason `scoreboard`.
    pub scoreboard: u64,
    /// `UnitStall` events with reason `pipeline`.
    pub pipeline: u64,
    /// `L1Hit` events.
    pub l1_hits: u64,
    /// `L1Miss` events.
    pub l1_misses: u64,
    /// `MshrMerge` events.
    pub mshr_merges: u64,
    /// `DramSchedule` events.
    pub dram_scheduled: u64,
    /// `DramSchedule` events with `row_hit`.
    pub dram_row_hits: u64,
    /// `TbComplete` events.
    pub tbs_completed: u64,
    /// `BarrierRelease` events.
    pub barrier_releases: u64,
    /// Histogram of `LoadComplete.latency`.
    pub load_latency: Hist16,
}

impl KernelReport {
    /// Idle + Scoreboard + Pipeline stall-slot count.
    pub fn total_stalls(&self) -> u64 {
        self.idle + self.scoreboard + self.pipeline
    }

    fn frac(&self, n: u64) -> f64 {
        let d = self.issued + self.total_stalls();
        if d == 0 { 0.0 } else { n as f64 / d as f64 }
    }

    /// Fraction of scheduler-unit cycles stalled Idle (paper §II.B).
    pub(crate) fn idle_frac(&self) -> f64 {
        self.frac(self.idle)
    }

    /// Fraction of scheduler-unit cycles stalled on the scoreboard.
    pub(crate) fn scoreboard_frac(&self) -> f64 {
        self.frac(self.scoreboard)
    }

    /// Fraction of scheduler-unit cycles stalled on pipeline structural
    /// hazards.
    pub(crate) fn pipeline_frac(&self) -> f64 {
        self.frac(self.pipeline)
    }

    /// L1 miss rate over traced lookups.
    pub(crate) fn l1_miss_rate(&self) -> f64 {
        let n = self.l1_hits + self.l1_misses;
        if n == 0 { 0.0 } else { self.l1_misses as f64 / n as f64 }
    }

    /// Multi-line human-readable rendering (used by `repro trace-report`).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let name = if self.kernel.is_empty() { "<unnamed>" } else { &self.kernel };
        let _ = writeln!(s, "kernel {name}: {} cycles, {} TBs", self.cycles, self.tbs_completed);
        let _ = writeln!(
            s,
            "  issue slots : {:>10} issued  {:>9} idle  {:>9} scoreboard  {:>9} pipeline",
            self.issued, self.idle, self.scoreboard, self.pipeline
        );
        let _ = writeln!(
            s,
            "  stall mix   : idle {:.1}%  scoreboard {:.1}%  pipeline {:.1}%",
            100.0 * self.idle_frac(),
            100.0 * self.scoreboard_frac(),
            100.0 * self.pipeline_frac()
        );
        let _ = writeln!(
            s,
            "  L1          : {} hits, {} misses ({:.1}% miss), {} MSHR merges",
            self.l1_hits,
            self.l1_misses,
            100.0 * self.l1_miss_rate(),
            self.mshr_merges
        );
        let _ = writeln!(
            s,
            "  DRAM        : {} scheduled, {} row hits; {} barrier releases",
            self.dram_scheduled, self.dram_row_hits, self.barrier_releases
        );
        let n = self.load_latency.total();
        if n > 0 {
            let _ = writeln!(
                s,
                "  load latency: n={} mean={:.1} p50≤{} p99≤{} cycles",
                n,
                self.load_latency.mean(),
                self.load_latency.quantile_bound(0.5),
                self.load_latency.quantile_bound(0.99)
            );
            let counts = self.load_latency.counts();
            let peak = counts.iter().copied().max().unwrap_or(0).max(1);
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let bar = "#".repeat(((c * 40) / peak).max(1) as usize);
                let _ = writeln!(s, "    {:>9} {:>8} {}", Hist16::label(i), c, bar);
            }
        }
        s
    }
}

fn field_u64(v: &Json, k: &str) -> u64 {
    v.get(k).and_then(Json::as_u64).unwrap_or(0)
}

/// Parse a full JSONL trace into per-kernel reports, in stream order.
///
/// Lines that fail to parse are counted, not fatal (a truncated final line
/// from a killed run must not hide the rest of the trace); the count is
/// returned alongside the reports.
pub fn aggregate(jsonl: &str) -> (Vec<KernelReport>, u64) {
    let mut reports: Vec<KernelReport> = Vec::new();
    let mut cur: Option<KernelReport> = None;
    let mut bad_lines = 0u64;

    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v = match parse(line) {
            Ok(v) => v,
            Err(_) => {
                bad_lines += 1;
                continue;
            }
        };
        let kind = v.get("ev").and_then(Json::as_str).unwrap_or("");
        match kind {
            "KernelBegin" => {
                if let Some(r) = cur.take() {
                    reports.push(r);
                }
                cur = Some(KernelReport {
                    kernel: v.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
                    ..KernelReport::default()
                });
            }
            "KernelEnd" => {
                let mut r = cur.take().unwrap_or_default();
                if r.kernel.is_empty() {
                    r.kernel = v.get("name").and_then(Json::as_str).unwrap_or("").to_string();
                }
                r.cycles = field_u64(&v, "cycles");
                reports.push(r);
            }
            _ => {
                let r = cur.get_or_insert_with(KernelReport::default);
                match kind {
                    "WarpIssue" => r.issued += 1,
                    "UnitStall" => match v.get("reason").and_then(Json::as_str) {
                        Some("idle") => r.idle += 1,
                        Some("scoreboard") => r.scoreboard += 1,
                        Some("pipeline") => r.pipeline += 1,
                        _ => bad_lines += 1,
                    },
                    "L1Hit" => r.l1_hits += 1,
                    "L1Miss" => r.l1_misses += 1,
                    "MshrMerge" => r.mshr_merges += 1,
                    "DramSchedule" => {
                        r.dram_scheduled += 1;
                        if v.get("row_hit").and_then(Json::as_bool).unwrap_or(false) {
                            r.dram_row_hits += 1;
                        }
                    }
                    "TbComplete" => r.tbs_completed += 1,
                    "BarrierRelease" => r.barrier_releases += 1,
                    "LoadComplete" => r.load_latency.observe(field_u64(&v, "latency")),
                    _ => {} // other event kinds carry no aggregate here
                }
            }
        }
    }
    if let Some(r) = cur.take() {
        reports.push(r);
    }
    (reports, bad_lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_two_kernels_and_tolerates_bad_lines() {
        let jsonl = r#"{"c":0,"ev":"KernelBegin","name":"a"}
{"c":1,"ev":"WarpIssue","sm":0,"unit":0,"warp":0,"tb":0,"pc":0,"active":32}
{"c":2,"ev":"UnitStall","sm":0,"unit":0,"reason":"idle"}
{"c":3,"ev":"LoadComplete","sm":0,"req":1,"latency":120}
{"c":4,"ev":"KernelEnd","name":"a","cycles":4}
not json at all
{"c":0,"ev":"KernelBegin","name":"b"}
{"c":1,"ev":"UnitStall","sm":0,"unit":0,"reason":"scoreboard"}
{"c":2,"ev":"L1Miss","sm":0,"req":1,"line":5}
{"c":3,"ev":"KernelEnd","name":"b","cycles":3}
"#;
        let (reports, bad) = aggregate(jsonl);
        assert_eq!(bad, 1);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].kernel, "a");
        assert_eq!(reports[0].issued, 1);
        assert_eq!(reports[0].idle, 1);
        assert_eq!(reports[0].cycles, 4);
        assert_eq!(reports[0].load_latency.total(), 1);
        assert_eq!(reports[1].scoreboard, 1);
        assert_eq!(reports[1].l1_misses, 1);
        assert!((reports[1].scoreboard_frac() - 1.0).abs() < 1e-12);
    }

    /// The keys `aggregate` reads are the ones the writer writes, for every
    /// variant, including those a golden run may never emit.
    #[test]
    fn reads_what_the_writer_writes_for_every_variant() {
        use crate::tracer::tests::{event_of, KINDS};
        use crate::{JsonlTracer, Tracer};
        let mut t = JsonlTracer::new(Vec::new());
        t.on_kernel_begin("k", 0);
        for kind in 0..KINDS {
            // Every field 7: reason `scoreboard`, `row_hit` true, latency 7.
            t.emit(u64::from(kind), &event_of(kind, || 7));
        }
        t.on_kernel_end("k", 30, 30);
        let jsonl = String::from_utf8(t.into_inner()).unwrap();
        let (reports, bad) = aggregate(&jsonl);
        assert_eq!(bad, 0);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!((r.kernel.as_str(), r.cycles), ("k", 30));
        let counted = [
            r.issued,
            r.scoreboard,
            r.l1_hits,
            r.l1_misses,
            r.mshr_merges,
            r.dram_scheduled,
            r.dram_row_hits,
            r.tbs_completed,
            r.barrier_releases,
            r.load_latency.total(),
        ];
        assert_eq!(counted, [1; 10]);
        assert_eq!((r.idle, r.pipeline), (0, 0));
        assert_eq!(r.load_latency.mean(), 7.0);
    }

    #[test]
    fn markerless_stream_yields_one_anonymous_report() {
        let jsonl = "{\"c\":1,\"ev\":\"WarpIssue\",\"sm\":0,\"unit\":0,\"warp\":0,\"tb\":0,\"pc\":0,\"active\":32}\n";
        let (reports, bad) = aggregate(jsonl);
        assert_eq!(bad, 0);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kernel, "");
        assert_eq!(reports[0].issued, 1);
    }

    #[test]
    fn render_mentions_the_stall_mix() {
        let mut r = KernelReport {
            kernel: "k".into(),
            cycles: 100,
            issued: 50,
            idle: 25,
            scoreboard: 15,
            pipeline: 10,
            ..Default::default()
        };
        r.load_latency.observe(200);
        let txt = r.render();
        assert!(txt.contains("kernel k"));
        assert!(txt.contains("stall mix"));
        assert!(txt.contains("load latency"));
        assert!((r.idle_frac() - 0.25).abs() < 1e-12);
    }
}
