//! Results of a simulated kernel launch: cycle counts, the paper's stall
//! taxonomy, memory statistics, and the traces behind Fig. 2 (TB execution
//! timeline) and Table IV (PRO's sorted TB order).

use pro_core::codec::{CodecError, Reader, Writer};
use pro_core::{snapshot_struct, SchedulerKind};
use pro_mem::{load_hist, save_hist, MemStats};
use pro_sm::SmStats;
use pro_trace::Metrics;

/// The execution interval of one thread block on one SM (Fig. 2 bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbSpan {
    /// SM the TB ran on.
    pub sm: u32,
    /// Global TB index.
    pub global_index: u32,
    /// Launch cycle.
    pub start: u64,
    /// Completion cycle.
    pub end: u64,
}

/// A snapshot of a policy's TB priority order (Table IV rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbOrderSnapshot {
    /// Cycle of the snapshot.
    pub cycle: u64,
    /// Global TB indices, highest priority first.
    pub order: Vec<u32>,
}

/// Everything measured during one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Kernel name.
    pub kernel: String,
    /// Scheduler used.
    pub scheduler: &'static str,
    /// Simulated cycles from launch to grid completion.
    pub cycles: u64,
    /// Aggregated SM counters (sum over SMs).
    pub sm: SmStats,
    /// Per-SM counters.
    pub per_sm: Vec<SmStats>,
    /// Memory hierarchy counters.
    pub mem: MemStats,
    /// TB execution timeline (only when tracing was requested).
    pub timeline: Vec<TbSpan>,
    /// Periodic TB priority snapshots (only for policies that expose them).
    pub tb_order: Vec<TbOrderSnapshot>,
    /// Per-SM issued-instruction counts per sampling interval (only when
    /// `TraceOptions::utilization_period` was set).
    pub utilization: Vec<Vec<u64>>,
    /// Named end-of-run metrics registry: a copy of every counter above
    /// plus the memory-latency / ready-warp / progress-disparity
    /// histograms, snapshotted by `RunResult::snapshot_metrics` (and,
    /// under `TraceOptions::host_prof`, the `host/*` namespace).
    pub metrics: Metrics,
}

impl RunResult {
    /// Populate [`RunResult::metrics`] from the raw counter structs. Called
    /// by the GPU at the end of every launch; idempotent.
    pub(crate) fn snapshot_metrics(&mut self) {
        let m = &mut self.metrics;
        m.set_counter("cycles", self.cycles);
        m.set_counter("sm.issued", self.sm.issued);
        m.set_counter("sm.stall.idle", self.sm.idle);
        m.set_counter("sm.stall.scoreboard", self.sm.scoreboard);
        m.set_counter("sm.stall.pipeline", self.sm.pipeline);
        m.set_counter("sm.unit_cycles", self.sm.unit_cycles);
        m.set_counter("sm.instructions", self.sm.instructions);
        m.set_counter("sm.thread_instructions", self.sm.thread_instructions);
        m.set_counter("sm.wld_cycles", self.sm.wld_cycles);
        m.set_counter("sm.tbs_completed", self.sm.tbs_completed);
        m.set_counter("mem.l1.hits", self.mem.l1.hits);
        m.set_counter("mem.l1.misses", self.mem.l1.misses);
        m.set_counter("mem.l1.mshr_merges", self.mem.l1.mshr_merges);
        m.set_counter("mem.l1.mshr_rejections", self.mem.l1.mshr_rejections);
        m.set_counter("mem.l2.hits", self.mem.l2.hits);
        m.set_counter("mem.l2.misses", self.mem.l2.misses);
        m.set_counter("mem.dram.row_hits", self.mem.dram.row_hits);
        m.set_counter("mem.dram.row_misses", self.mem.dram.row_misses);
        m.set_counter("mem.dram.accepted", self.mem.dram.accepted);
        m.set_counter("mem.loads", self.mem.loads);
        m.set_counter("mem.loads_completed", self.mem.loads_completed);
        m.set_counter("mem.load_latency_sum", self.mem.load_latency_sum);
        m.set_counter("mem.store_lines", self.mem.store_lines);
        m.set_hist("mem.load_latency", self.mem.load_lat_hist);
        m.set_hist("sm.ready_warps", self.sm.ready_hist);
        m.set_hist("sm.tb_disparity", self.sm.disparity_hist);
    }

    /// Fraction of stall unit-cycles that were Idle.
    pub fn idle_frac(&self) -> f64 {
        frac(self.sm.idle, self.sm.total_stalls())
    }

    /// Fraction of stall unit-cycles that were Scoreboard.
    pub fn scoreboard_frac(&self) -> f64 {
        frac(self.sm.scoreboard, self.sm.total_stalls())
    }

    /// Fraction of stall unit-cycles that were Pipeline.
    pub fn pipeline_frac(&self) -> f64 {
        frac(self.sm.pipeline, self.sm.total_stalls())
    }

    /// Issued instructions per cycle across the whole GPU.
    pub fn ipc(&self) -> f64 {
        frac(self.sm.instructions, self.cycles)
    }

    /// One-line human-readable render, shared by `repro` and examples.
    ///
    /// ```text
    /// store_tid [LRR] 4242 cycles  IPC 1.51  stalls: idle 45.2% sb 30.1% pipe 24.7%  L1 miss 12.3%  load lat 312.4
    /// ```
    pub fn summary(&self) -> String {
        format!(
            "{} [{}] {} cycles  IPC {:.2}  stalls: idle {:.1}% sb {:.1}% pipe {:.1}%  L1 miss {:.1}%  load lat {:.1}",
            self.kernel,
            self.scheduler,
            self.cycles,
            self.ipc(),
            100.0 * self.idle_frac(),
            100.0 * self.scoreboard_frac(),
            100.0 * self.pipeline_frac(),
            100.0 * self.mem.l1.miss_rate(),
            self.mem.avg_load_latency(),
        )
    }
}

snapshot_struct! {
    TbSpan {
        sm,
        global_index,
        start,
        end,
    }
}

snapshot_struct! {
    TbOrderSnapshot {
        cycle,
        order,
    }
}

// The encoding is what a result digest is taken over: the repository
// benchmark's per-cell digests and the checkpoint tests' pinned CRC read it.
snapshot_struct! {
    RunResult {
        kernel,
        scheduler via (save_scheduler, load_scheduler),
        cycles,
        sm,
        per_sm,
        mem,
        timeline,
        tb_order,
        utilization,
        metrics via (save_sim_metrics, load_metrics),
    }
}

fn save_scheduler(name: &&'static str, w: &mut Writer) {
    w.put_str(name);
}

/// The scheduler name is stored as a string and re-interned: names of known
/// [`SchedulerKind`]s map back to their `'static` form; unknown
/// (custom-policy) names are leaked, which is bounded by the number of
/// distinct custom schedulers a process ever loads.
fn load_scheduler(r: &mut Reader<'_>) -> Result<&'static str, CodecError> {
    let name = r.get_string()?;
    let known = SchedulerKind::ALL.iter().map(|k| k.name()).find(|n| *n == name);
    Ok(known.unwrap_or_else(|| Box::leak(name.into_boxed_str())))
}

/// The `host/` metrics namespace (wall-clock phase timers, queue gauges) is
/// skipped entirely: host numbers differ run to run, and a profiled run
/// must serialize to the same bytes as an unprofiled one so the sweep
/// byte-compare gates stay meaningful with `--host-prof`.
fn save_sim_metrics(metrics: &Metrics, w: &mut Writer) {
    let counters: Vec<_> =
        metrics.counters().iter().filter(|(name, _)| !name.starts_with("host/")).collect();
    w.put_u64(counters.len() as u64);
    for (name, v) in counters {
        w.put_str(name);
        w.put_u64(*v);
    }
    let hists: Vec<_> =
        metrics.hists().iter().filter(|(name, _)| !name.starts_with("host/")).collect();
    w.put_u64(hists.len() as u64);
    for (name, h) in hists {
        w.put_str(name);
        save_hist(h, w);
    }
}

fn load_metrics(r: &mut Reader<'_>) -> Result<Metrics, CodecError> {
    let mut metrics = Metrics::default();
    for _ in 0..r.get_usize()? {
        let name = r.get_string()?;
        metrics.set_counter(&name, r.get_u64()?);
    }
    for _ in 0..r.get_usize()? {
        let name = r.get_string()?;
        metrics.set_hist(&name, load_hist(r)?);
    }
    Ok(metrics)
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Geometric mean of positive values (the paper's summary statistic).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        debug_assert!(v > 0.0, "geomean over non-positive value {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(idle: u64, sb: u64, pipe: u64) -> RunResult {
        RunResult {
            kernel: "k".into(),
            scheduler: "LRR",
            cycles: 100,
            sm: SmStats {
                issued: 10,
                idle,
                scoreboard: sb,
                pipeline: pipe,
                unit_cycles: idle + sb + pipe + 10,
                instructions: 10,
                thread_instructions: 320,
                ..Default::default()
            },
            per_sm: vec![],
            mem: MemStats::default(),
            timeline: vec![],
            tb_order: vec![],
            utilization: vec![],
            metrics: Metrics::default(),
        }
    }

    #[test]
    fn stall_fractions_sum_to_one() {
        let r = result(50, 30, 20);
        assert!((r.idle_frac() - 0.5).abs() < 1e-12);
        assert!((r.scoreboard_frac() - 0.3).abs() < 1e-12);
        assert!((r.pipeline_frac() - 0.2).abs() < 1e-12);
        let s = r.idle_frac() + r.scoreboard_frac() + r.pipeline_frac();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_stalls_give_zero_fractions() {
        let r = result(0, 0, 0);
        assert_eq!(r.idle_frac(), 0.0);
    }

    #[test]
    fn ipc_computation() {
        let r = result(1, 1, 1);
        assert!((r.ipc() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn metrics_snapshot_agrees_with_raw_helpers() {
        let mut r = result(50, 30, 20);
        r.snapshot_metrics();
        assert!(!r.metrics.is_empty());
        // The registry is a copy of the typed fields the helpers read.
        assert_eq!(r.metrics.counter("cycles"), Some(r.cycles));
        assert_eq!(r.metrics.counter("sm.stall.idle"), Some(r.sm.idle));
        assert_eq!(r.metrics.counter("sm.instructions"), Some(r.sm.instructions));
        // Idempotent.
        r.snapshot_metrics();
        assert_eq!(r.metrics.counter("cycles"), Some(100));
    }

    #[test]
    fn summary_renders_key_figures() {
        let mut r = result(50, 30, 20);
        r.snapshot_metrics();
        let s = r.summary();
        assert!(s.contains("k [LRR] 100 cycles"));
        assert!(s.contains("IPC 0.10"));
        assert!(s.contains("idle 50.0%"));
        assert!(s.lines().count() == 1, "one line: {s}");
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean([1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        let g3 = geomean([2.0, 2.0, 2.0]);
        assert!((g3 - 2.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }
}
