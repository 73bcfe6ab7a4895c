//! The streaming multiprocessor (SM) model: warp slots, dual scheduler
//! units, scoreboard-gated in-order issue, execution pipelines (SP/SFU/LSU),
//! the barrier unit, TB residency management and the paper's stall
//! taxonomy.
//!
//! ### Cycle anatomy (per [`Sm::tick`])
//!
//! 1. Drain memory-system load completions → scoreboard releases.
//! 2. Apply due writeback events (ALU/SFU/shared latencies elapse).
//! 3. Advance the LSU: the head entry feeds one line transaction per cycle
//!    to the memory subsystem, or counts down shared-memory bank-conflict
//!    occupancy.
//! 4. For each scheduler unit: ask the policy for a priority order, walk it,
//!    and issue the first warp whose instruction is fetched, hazard-free and
//!    has a free pipeline. If nothing issues, classify the cycle:
//!    * **Idle** — no warp had a valid instruction (barrier, empty i-buffer,
//!      no warps at all),
//!    * **Scoreboard** — valid instruction(s) but operands pending,
//!    * **Pipeline** — operands ready but the target pipeline was full.
//!
//!    This is GPGPU-Sim's classification as defined in §II.B of the paper.
//! 5. Barrier releases and TB completions fire the policy hooks
//!    (`insertBarrierWarp` / `insertFinishWarp` equivalents).
//!
//! Steps 1–3 are [`Sm::mem_phase`] (`sm/lsu.rs`), 4–5 [`Sm::issue_phase`]
//! (`sm/issue_phase.rs`) over the per-warp state machine of
//! [`crate::issue`]; the checkpoint encoding is `sm/snapshot.rs`, the
//! invariants [`Sm::check`] holds the state to `sm/check.rs`. This file
//! keeps the configuration, the counters, and TB launch and retirement.

mod check;
mod issue_phase;
mod lsu;
mod snapshot;

use crate::decode::{IssueTable, LatClass};
use crate::issue::{IssueState, WarpIssue};
use crate::scoreboard::WriteSet;
use crate::shared::SharedMem;
use crate::warp::Warp;
use issue_phase::IssueCx;
use lsu::{LsuEntry, Release};
use pro_core::calq::CalQueue;
use pro_core::{FxHashMap, SchedView, TbState, WarpScheduler, WarpState};
use pro_isa::{Kernel, Pc, Pred, Reg, MAX_PREDS, MAX_REGS, WARP_SIZE};
use pro_mem::{AccessId, GlobalMem, MemSubsystem};
use pro_trace::{Event as TraceEvent, EventClass, Hist16, IssueProf, NoopTracer, Tracer};
use std::collections::VecDeque;
use std::sync::Arc;

/// SM microarchitecture parameters (defaults: Table I / Fermi GTX480).
#[derive(Debug, Clone, Copy)]
pub struct SmConfig {
    /// Warp slots per SM (48 → 1536 threads).
    pub max_warps: usize,
    /// TB slots per SM.
    pub max_tbs: usize,
    /// Thread capacity.
    pub max_threads: u32,
    /// Shared memory capacity in bytes.
    pub shared_capacity: u32,
    /// Register file capacity (32-bit registers).
    pub regs_per_sm: u32,
    /// Scheduler units (Fermi: 2); warp slot `w` belongs to unit `w % units`.
    pub units: u32,
    /// Cycles between an issue and the next instruction being decodable.
    pub fetch_lat: u64,
    /// Writeback latency: simple integer / logic ops.
    pub lat_int_simple: u64,
    /// Writeback latency: integer multiply / mad.
    pub lat_int_mul: u64,
    /// Writeback latency: f32 arithmetic.
    pub lat_float: u64,
    /// Writeback latency: conversions.
    pub lat_convert: u64,
    /// SFU result latency.
    pub sfu_lat: u64,
    /// SFU initiation interval (one warp SFU op per this many cycles).
    pub sfu_ii: u64,
    /// Shared-memory access latency (plus bank-conflict occupancy).
    pub shared_lat: u64,
    /// LSU queue depth (pending memory instructions per SM).
    pub lsu_queue: usize,
}

impl SmConfig {
    /// The paper's GTX480 configuration.
    pub fn gtx480() -> Self {
        SmConfig {
            max_warps: 48,
            max_tbs: 8,
            max_threads: 1536,
            shared_capacity: 48 * 1024,
            regs_per_sm: 32768,
            units: 2,
            fetch_lat: 2,
            lat_int_simple: 8,
            lat_int_mul: 16,
            lat_float: 18,
            lat_convert: 12,
            sfu_lat: 32,
            sfu_ii: 8,
            shared_lat: 24,
            lsu_queue: 8,
        }
    }

    /// The longest a writeback waits in the SM's event queue: an ALU, SFU
    /// or shared-memory latency. The queue's wheel is sized to it.
    pub(crate) fn max_writeback_latency(&self) -> u64 {
        [self.lat_int_simple, self.lat_int_mul, self.lat_float, self.lat_convert, self.sfu_lat, self.shared_lat]
            .into_iter()
            .fold(0, u64::max)
    }

    fn alu_lat(&self, c: LatClass) -> u64 {
        match c {
            LatClass::IntSimple => self.lat_int_simple,
            LatClass::IntMul => self.lat_int_mul,
            LatClass::Float => self.lat_float,
            LatClass::Convert => self.lat_convert,
        }
    }
}

/// The three GPGPU-Sim stall categories plus the issue counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Scheduler-unit cycles that issued an instruction.
    pub issued: u64,
    /// Unit cycles with no valid instruction available.
    pub idle: u64,
    /// Unit cycles blocked only by operand hazards.
    pub scoreboard: u64,
    /// Unit cycles blocked only by full pipelines.
    pub pipeline: u64,
    /// Total unit cycles observed.
    pub unit_cycles: u64,
    /// Dynamic warp instructions issued.
    pub instructions: u64,
    /// Thread-instructions executed (instructions × active lanes).
    pub thread_instructions: u64,
    /// Warp-level divergence: Σ over completed TBs of (last warp finish −
    /// first warp finish) in cycles — the §II.B disparity PRO attacks by
    /// prioritizing laggards.
    pub wld_cycles: u64,
    /// TBs completed (denominator for the mean WLD).
    pub tbs_completed: u64,
    /// Σ of ready-warp counts over sampled unit-cycles (a warp is ready if
    /// it has a fetched instruction with no scoreboard hazard — the pool
    /// the paper's §III argues PRO enlarges). Sampled every 64 cycles.
    pub ready_warp_sum: u64,
    /// Number of ready-warp samples taken.
    pub ready_samples: u64,
    /// Distribution of the sampled ready-warp counts (same samples as
    /// `ready_warp_sum` / `ready_samples`).
    pub ready_hist: Hist16,
    /// Per-TB warp-progress disparity at retirement: max − min
    /// thread-instruction progress among the TB's warps — the §III.E
    /// imbalance PRO's laggard prioritization attacks.
    pub disparity_hist: Hist16,
}

impl SmStats {
    /// Total stall unit-cycles.
    pub fn total_stalls(&self) -> u64 {
        self.idle + self.scoreboard + self.pipeline
    }

    /// Mean warp-level divergence per TB (cycles between a TB's first and
    /// last warp completion).
    pub fn avg_wld(&self) -> f64 {
        if self.tbs_completed == 0 {
            0.0
        } else {
            self.wld_cycles as f64 / self.tbs_completed as f64
        }
    }

    /// Mean number of ready warps per scheduler unit (sampled).
    pub fn avg_ready_warps(&self) -> f64 {
        if self.ready_samples == 0 {
            0.0
        } else {
            self.ready_warp_sum as f64 / self.ready_samples as f64
        }
    }

    /// Merge another SM's counters (GPU-level aggregation).
    pub fn merge(&mut self, o: &SmStats) {
        self.issued += o.issued;
        self.idle += o.idle;
        self.scoreboard += o.scoreboard;
        self.pipeline += o.pipeline;
        self.unit_cycles += o.unit_cycles;
        self.instructions += o.instructions;
        self.thread_instructions += o.thread_instructions;
        self.wld_cycles += o.wld_cycles;
        self.tbs_completed += o.tbs_completed;
        self.ready_warp_sum += o.ready_warp_sum;
        self.ready_samples += o.ready_samples;
        self.ready_hist.merge(&o.ready_hist);
        self.disparity_hist.merge(&o.disparity_hist);
    }
}

/// Per-cycle outputs the GPU layer consumes.
#[derive(Debug, Default)]
pub struct TickReport {
    /// TBs that completed this cycle (slots now free), as they stood when
    /// their last warp exited: block index, launch cycle, progress.
    pub finished_tbs: Vec<TbState>,
}

/// One live warp as a launch that ran out of cycles left it
/// ([`Sm::dump_live_warps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpDump {
    /// The SM.
    pub sm: u32,
    /// The warp slot on it.
    pub slot: usize,
    /// Its TB's global index in the grid.
    pub tb: u32,
    /// The pc of its next instruction.
    pub pc: Pc,
    /// Entries on its SIMT reconvergence stack (1 = converged).
    pub simt_depth: usize,
    /// Parked at its TB's barrier.
    pub at_barrier: bool,
    /// Registers and predicates with a write in flight.
    pub pending: WriteSet,
    /// Its issue state; `None` while it is parked at the barrier.
    pub issue: Option<WarpIssue>,
}

impl std::fmt::Display for WarpDump {
    /// `(SM s, warp slot w)` as a [`pro_core::Violation`] names a slot,
    /// then what the warp is doing.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(SM {}, warp slot {}) TB {} at pc {}, SIMT depth {}", self.sm, self.slot, self.tb, self.pc, self.simt_depth)?;
        if self.at_barrier {
            write!(f, ", at the barrier")?;
        }
        if let Some(issue) = self.issue {
            write!(f, ", {issue}")?;
        }
        if !self.pending.is_empty() {
            write!(f, ", waiting on")?;
            let regs = (0..MAX_REGS).filter(|&r| self.pending.regs >> r & 1 != 0).map(|r| Reg(r).to_string());
            let preds = (0..MAX_PREDS).filter(|&p| self.pending.preds >> p & 1 != 0).map(|p| Pred(p).to_string());
            for name in regs.chain(preds) {
                write!(f, " {name}")?;
            }
        }
        Ok(())
    }
}

/// [`Sm::sched_view`] over the two fields it reads, for where the SM's
/// other fields are mutably borrowed.
fn sched_view<'a>(
    warps: &'a [WarpState],
    tbs: &'a [TbState],
    cycle: u64,
    fast_phase: bool,
) -> SchedView<'a> {
    SchedView { cycle, warps, tbs, tbs_waiting_in_tb_scheduler: fast_phase }
}

/// One streaming multiprocessor.
pub struct Sm {
    /// This SM's id (index into the GPU's SM array).
    pub id: u32,
    cfg: SmConfig,
    warps: Vec<Warp>,
    shared: Vec<SharedMem>,
    sched_warps: Vec<WarpState>,
    sched_tbs: Vec<TbState>,
    // Kernel context: the bound program with its per-PC issue metadata
    // (derived, shared by every SM running the kernel; DESIGN.md §16).
    table: Option<Arc<IssueTable>>,
    params: Vec<u32>,
    nctaid: u32,
    warps_per_tb: usize,
    threads_per_tb: u32,
    /// TBs of the bound kernel that fit at once: each takes the same warp
    /// and TB slots, threads, shared memory and registers.
    max_resident_tbs: usize,
    live_tbs: u32,
    // Pipelines. Writeback events ride the same slab-recycled calendar
    // queue as the memory subsystem's timing events.
    wb_events: CalQueue<Release>,
    lsu: VecDeque<LsuEntry>,
    sfu_free_at: u64,
    access_map: FxHashMap<AccessId, Release>,
    next_access: AccessId,
    /// Cycle each TB slot's first warp finished (WLD tracking).
    first_warp_finish: Vec<Option<u64>>,
    /// Cumulative statistics (reset by the GPU at kernel boundaries).
    pub stats: SmStats,
    /// Scratch: the line addresses of the instruction being issued.
    lines_buf: Vec<u64>,
    /// Derived per-warp issue state (DESIGN.md §15): an event that moves a
    /// warp updates `warps`, `sched_warps` and this in one method.
    issue: IssueState,
    // Host-observability LSU queue gauge, sampled every
    // `QUEUE_SAMPLE_PERIOD` cycles; never serialized (outside the
    // determinism/checkpoint boundary, published as `host/sm.lsuq.*`).
    lsu_hwm: u64,
    lsu_depth: Hist16,
    /// The last cycle of this launch at which a warp exited (so also a TB
    /// retired), a barrier opened, or a store or shared atomic changed a
    /// word; 0 until one did. Never serialized: a resumed launch counts
    /// from the cycle it resumed at.
    last_progress: u64,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("live_tbs", &self.live_tbs)
            .finish()
    }
}

impl Sm {
    /// Create an idle SM.
    pub fn new(id: u32, cfg: SmConfig) -> Self {
        Sm {
            id,
            warps: (0..cfg.max_warps).map(|_| Warp::empty()).collect(),
            shared: (0..cfg.max_tbs).map(|_| SharedMem::new(0)).collect(),
            sched_warps: vec![WarpState::default(); cfg.max_warps],
            sched_tbs: vec![TbState::default(); cfg.max_tbs],
            table: None,
            params: Vec::new(),
            nctaid: 0,
            warps_per_tb: 0,
            threads_per_tb: 0,
            max_resident_tbs: 0,
            live_tbs: 0,
            wb_events: CalQueue::with_horizon(cfg.max_writeback_latency()),
            lsu: VecDeque::new(),
            sfu_free_at: 0,
            access_map: FxHashMap::default(),
            next_access: 0,
            first_warp_finish: vec![None; cfg.max_tbs],
            stats: SmStats::default(),
            lines_buf: Vec::with_capacity(32),
            issue: IssueState::new(cfg.max_warps, cfg.units),
            lsu_hwm: 0,
            lsu_depth: Hist16::new(),
            last_progress: 0,
            cfg,
        }
    }

    /// Bind a kernel for subsequent TB launches. Must be quiescent.
    pub fn begin_kernel(&mut self, kernel: &Kernel) {
        self.begin_kernel_decoded(kernel, Arc::new(IssueTable::build(&kernel.program)));
    }

    /// [`Sm::begin_kernel`] with the kernel's program already decoded, so
    /// the SMs of a GPU share one table.
    pub fn begin_kernel_decoded(&mut self, kernel: &Kernel, table: Arc<IssueTable>) {
        assert_eq!(self.live_tbs, 0, "begin_kernel on a busy SM");
        assert!(kernel.program.regs <= MAX_REGS, "a validated program uses at most {MAX_REGS} registers");
        assert!(
            std::ptr::eq(table.program(), &*kernel.program),
            "issue table decoded from a different program"
        );
        self.table = Some(table);
        self.params = kernel.params.clone();
        self.nctaid = kernel.launch.num_blocks();
        self.warps_per_tb = kernel.launch.warps_per_block() as usize;
        self.threads_per_tb = kernel.launch.threads_per_block();
        // `live + 1` TBs fit a capacity exactly when `live` is below its
        // quotient by what one TB takes (nothing taken: no limit).
        let (threads, program) = (u64::from(self.threads_per_tb), &kernel.program);
        let fit = |capacity: u32, per_tb: u64| u64::from(capacity).checked_div(per_tb).unwrap_or(u64::MAX);
        let fits = fit(self.cfg.max_threads, threads)
            .min(fit(self.cfg.shared_capacity, u64::from(program.shared_bytes)))
            .min(fit(self.cfg.regs_per_sm, u64::from(program.regs) * threads));
        self.max_resident_tbs = self.usable_tb_slots().min(usize::try_from(fits).unwrap_or(usize::MAX));
        self.wb_events.clear();
        self.lsu.clear();
        self.sfu_free_at = 0;
        self.access_map.clear();
        self.issue.reset();
        self.lsu_hwm = 0;
        self.lsu_depth = Hist16::new();
        self.last_progress = 0;
    }

    /// Number of TB slots usable for the bound kernel (bounded by warp
    /// slots as well as TB slots).
    fn usable_tb_slots(&self) -> usize {
        if self.warps_per_tb == 0 {
            return 0;
        }
        self.cfg.max_tbs.min(self.cfg.max_warps / self.warps_per_tb)
    }

    /// Can another TB of the bound kernel be launched right now? (TBs only
    /// ever occupy slots below `usable_tb_slots()`, so a free one exists
    /// whenever fewer than the bound are resident.)
    pub fn can_accept_tb(&self) -> bool {
        (self.live_tbs as usize) < self.max_resident_tbs
    }

    /// True while any TB is resident or any timing event is outstanding.
    pub fn busy(&self) -> bool {
        self.live_tbs > 0 || !self.lsu.is_empty() || !self.wb_events.is_empty()
    }

    /// Launch TB `global_index` of the bound kernel. Returns the TB slot.
    /// Caller must have checked [`Sm::can_accept_tb`].
    ///
    /// Untraced convenience wrapper around [`Sm::launch_tb_traced`].
    pub fn launch_tb(
        &mut self,
        global_index: u32,
        now: u64,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
    ) -> usize {
        self.launch_tb_traced(global_index, now, policy, fast_phase, &mut NoopTracer)
    }

    /// [`Sm::launch_tb`] publishing a `TbLaunch` event to `tracer`.
    pub fn launch_tb_traced(
        &mut self,
        global_index: u32,
        now: u64,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        tracer: &mut dyn Tracer,
    ) -> usize {
        let slot = (0..self.usable_tb_slots())
            .find(|&t| !self.sched_tbs[t].occupied)
            .expect("caller checked can_accept_tb");
        self.occupy(slot, global_index, now);
        let table = Arc::clone(self.table.as_ref().expect("kernel bound"));
        for w in self.warp_slots(slot) {
            self.issue.launch(w, self.warps[w].ibuf_ready_at);
            self.decide_next(w, &table);
        }
        if tracer.wants(EventClass::Tb) {
            tracer.emit(
                now,
                &TraceEvent::TbLaunch {
                    sm: self.id,
                    tb_slot: slot as u32,
                    global_index,
                },
            );
        }
        policy.on_tb_launch(slot, &self.sched_view(now, fast_phase));
        slot
    }

    /// Give TB slot `slot` to block `global_index`, launched at `now`: its
    /// warps, their view and the TB's, as the kernel's geometry lays them
    /// out. A launch starts here, and so does a restore of a resident TB.
    fn occupy(&mut self, slot: usize, global_index: u32, now: u64) {
        let table = Arc::clone(self.table.as_ref().expect("kernel bound"));
        let program = table.program();
        let mut remaining = self.threads_per_tb;
        for (i, w) in self.warp_slots(slot).enumerate() {
            let live = remaining.min(WARP_SIZE as u32);
            remaining -= live;
            let mask = if live == 32 { u32::MAX } else { (1u32 << live) - 1 };
            self.warps[w].launch(program, mask, now, self.cfg.fetch_lat);
            self.sched_warps[w] = WarpState {
                active: true,
                tb_slot: slot,
                index_in_tb: i as u32,
                ..WarpState::default()
            };
        }
        self.shared[slot] = SharedMem::new(program.shared_bytes);
        self.sched_tbs[slot] = TbState {
            occupied: true,
            global_index,
            num_warps: self.warps_per_tb as u32,
            launched_at: now,
            ..TbState::default()
        };
        self.live_tbs += 1;
        self.first_warp_finish[slot] = None;
    }

    /// The warp slots of TB slot `tb`.
    fn warp_slots(&self, tb: usize) -> std::ops::Range<usize> {
        tb * self.warps_per_tb..(tb + 1) * self.warps_per_tb
    }

    /// Scheduler-visible view (also used by the GPU layer for Table IV
    /// traces).
    pub fn sched_view(&self, now: u64, fast_phase: bool) -> SchedView<'_> {
        sched_view(&self.sched_warps, &self.sched_tbs, now, fast_phase)
    }

    /// Append a [`WarpDump`] of every live warp at the start of cycle `now`
    /// to `out`, in slot order. Only a launch that reached its cycle cap
    /// asks, so the run loop pays nothing for it; it reads state alone, so
    /// a resumed run dumps what the straight run does.
    #[cold]
    pub fn dump_live_warps(&self, now: u64, out: &mut Vec<WarpDump>) {
        for (slot, (s, w)) in self.sched_warps.iter().zip(&self.warps).enumerate() {
            if s.active && !s.finished {
                out.push(WarpDump {
                    sm: self.id,
                    slot,
                    tb: self.sched_tbs[s.tb_slot].global_index,
                    pc: w.simt.pc(),
                    simt_depth: w.simt.depth(),
                    at_barrier: s.at_barrier,
                    pending: w.scoreboard.pending(),
                    issue: self.issue.state(slot, now),
                });
            }
        }
    }

    /// The last cycle of the bound kernel at which this SM made progress:
    /// a warp exited, a barrier opened, or a store or shared atomic changed
    /// a word (0 until one did). A launch that makes none for long is
    /// spinning.
    pub fn last_progress(&self) -> u64 {
        self.last_progress
    }

    /// Host-side LSU queue gauge: `(high-water mark, depth histogram)`,
    /// sampled every [`pro_mem::QUEUE_SAMPLE_PERIOD`] cycles (see `pro_mem`'s
    /// `QueueProf` for the boundary rules).
    pub fn lsu_prof(&self) -> (u64, &Hist16) {
        (self.lsu_hwm, &self.lsu_depth)
    }

    /// Host-side issue-path counters. Like [`Sm::lsu_prof`], host
    /// observability only — never serialized, excluded from determinism
    /// comparisons (published as `host/issue/*`).
    pub fn issue_prof(&self) -> IssueProf {
        self.issue.prof()
    }

    /// Every warp of TB slot `tb` has exited: free the slot and its
    /// resources.
    fn retire_tb(&mut self, tb: usize, cx: &mut IssueCx) {
        let now = cx.now;
        // Warp-progress disparity within the retiring TB (§III.E): the gap
        // between its most and least advanced warps, in thread-instructions.
        let mut min_p = u64::MAX;
        let mut max_p = 0u64;
        for w in self.warp_slots(tb) {
            let p = self.sched_warps[w].progress;
            min_p = min_p.min(p);
            max_p = max_p.max(p);
        }
        self.stats
            .disparity_hist
            .observe(max_p.saturating_sub(min_p));
        if cx.tracer.wants(EventClass::Tb) {
            cx.tracer.emit(
                now,
                &TraceEvent::TbComplete {
                    sm: self.id,
                    tb_slot: tb as u32,
                    global_index: self.sched_tbs[tb].global_index,
                },
            );
        }
        for w in self.warp_slots(tb) {
            self.sched_warps[w] = WarpState::default();
            self.issue.retire(w);
        }
        self.live_tbs -= 1;
        cx.policy.on_tb_finish(tb, &self.sched_view(now, cx.fast_phase));
        self.sched_tbs[tb] = TbState::default();
    }

    /// Advance one cycle, untraced: [`Sm::mem_phase`] then
    /// [`Sm::issue_phase`], which a traced caller runs itself. A GPU ticks
    /// its SMs in index order, which alone orders every cross-SM effect of
    /// a cycle: the sequence numbers the [`MemSubsystem`] hands out, and
    /// which same-cycle accesses see a global store (those of
    /// higher-indexed SMs).
    pub fn tick(
        &mut self,
        now: u64,
        gmem: &mut GlobalMem,
        mem: &mut MemSubsystem,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        report: &mut TickReport,
    ) {
        self.mem_phase(now, mem, &mut NoopTracer);
        self.issue_phase(now, gmem, mem, policy, fast_phase, report, &mut NoopTracer);
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_core::{Lrr, SchedulerKind};
    use pro_isa::{CmpOp, LaunchConfig, ProgramBuilder, Special, Src, Ty};
    use pro_mem::MemConfig;

    /// One SM with its memory system and policy, driven cycle by cycle
    /// (shared with the issue-phase rigs of `sm/issue_phase.rs`).
    pub(super) struct Rig {
        pub(super) sm: Sm,
        pub(super) gmem: GlobalMem,
        pub(super) mem: MemSubsystem,
        pub(super) policy: Box<dyn WarpScheduler>,
        pub(super) now: u64,
    }

    impl Rig {
        pub(super) fn new(kernel: &Kernel, kind: SchedulerKind) -> Rig {
            let cfg = SmConfig::gtx480();
            let mut sm = Sm::new(0, cfg);
            sm.begin_kernel(kernel);
            Rig {
                policy: kind.build(cfg.max_warps, cfg.max_tbs, cfg.units),
                sm,
                gmem: GlobalMem::new(1 << 22),
                mem: MemSubsystem::new(MemConfig::gtx480(), 1),
                now: 0,
            }
        }

        pub(super) fn launch(&mut self, global_index: u32) -> usize {
            self.sm
                .launch_tb(global_index, self.now, self.policy.as_mut(), true)
        }

        /// Tick until the SM is quiescent; returns (cycles, finished TBs).
        fn run(&mut self, limit: u64) -> (u64, Vec<u32>) {
            let mut finished = Vec::new();
            let start = self.now;
            while self.sm.busy() {
                let mut rep = TickReport::default();
                self.mem.tick(self.now);
                self.sm.tick(
                    self.now,
                    &mut self.gmem,
                    &mut self.mem,
                    self.policy.as_mut(),
                    true,
                    &mut rep,
                );
                finished.extend(rep.finished_tbs.iter().map(|tb| tb.global_index));
                self.now += 1;
                assert!(self.now - start < limit, "SM did not quiesce in {limit} cycles");
            }
            (self.now - start, finished)
        }
    }

    fn simple_kernel(blocks: u32, threads: u32) -> Kernel {
        let mut b = ProgramBuilder::new("simple");
        let r = b.reg();
        let a = b.reg();
        b.global_tid(r);
        b.buf_addr(a, 0, r, 0);
        b.st_global(r, a, 0);
        b.exit();
        let p = b.build().unwrap();
        Kernel::new(p, LaunchConfig::linear(blocks, threads), vec![0])
    }

    #[test]
    fn single_tb_runs_to_completion() {
        let k = simple_kernel(1, 64);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        assert_eq!(rig.sm.live_tbs, 1);
        let (_cycles, finished) = rig.run(100_000);
        assert_eq!(finished, vec![0]);
        assert_eq!(rig.sm.live_tbs, 0);
        // Functional result: gtid written at words 0..64.
        for i in 0..64u64 {
            assert_eq!(rig.gmem.read(i * 4), i as u32);
        }
    }

    #[test]
    fn resource_limits_gate_acceptance() {
        // 256 threads/TB → thread limit allows 6 (1536/256), TB slots 8.
        let k = simple_kernel(16, 256);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut launched = 0;
        while rig.sm.can_accept_tb() {
            rig.launch(launched);
            launched += 1;
        }
        assert_eq!(launched, 6);
    }

    #[test]
    fn warp_slot_limit_gates_acceptance() {
        // 8 warps/TB → 48/8 = 6 TBs by warp slots even though threads allow 6 too;
        // use 32 threads/warp * 4 warps = 128 threads → warp limit 48/4=12, TB limit 8.
        let k = simple_kernel(16, 128);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut n = 0;
        while rig.sm.can_accept_tb() {
            rig.launch(n);
            n += 1;
        }
        assert_eq!(n, 8, "capped by the 8 TB slots");
    }

    #[test]
    fn shared_memory_gates_acceptance() {
        let mut b = ProgramBuilder::new("shmem");
        let _ = b.shared_alloc(20 * 1024);
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(8, 32), vec![]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut n = 0;
        while rig.sm.can_accept_tb() {
            rig.launch(n);
            n += 1;
        }
        assert_eq!(n, 2, "48KB / 20KB = 2 resident TBs");
    }

    #[test]
    fn barrier_synchronizes_warps_of_a_tb() {
        // Each warp writes flag[warpid], barriers, then reads the *other*
        // warps' flags; correctness requires real barrier semantics.
        let mut b = ProgramBuilder::new("bar");
        let sh = b.shared_alloc(64);
        let wid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        let sum = b.reg();
        let out = b.reg();
        let g = b.reg();
        // shared[warpid] = warpid + 1 (one lane per warp does the store;
        // all lanes compute the same address → broadcast store ok).
        b.mov(wid, Src::Special(Special::WarpId));
        b.imad(addr, wid, Src::Imm(4), Src::Imm(sh as i64 as u32));
        b.iadd(v, wid, Src::Imm(1));
        b.st_shared(v, addr, 0);
        b.bar();
        // sum = shared[0] + shared[1]
        b.mov(addr, Src::Imm(sh));
        b.ld_shared(sum, addr, 0);
        b.ld_shared(v, addr, 4);
        b.iadd(sum, sum, v);
        b.global_tid(g);
        b.buf_addr(out, 0, g, 0);
        b.st_global(sum, out, 0);
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(1, 64), vec![0]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        rig.run(100_000);
        // Every thread sees 1 + 2 = 3.
        for i in 0..64u64 {
            assert_eq!(rig.gmem.read(i * 4), 3, "thread {i}");
        }
    }

    #[test]
    fn stall_classification_identifies_scoreboard() {
        // One warp, dependent chain of f32 ops: issues are separated by the
        // float latency → scoreboard stalls dominate.
        let mut b = ProgramBuilder::new("chain");
        let r = b.reg();
        b.mov(r, Src::imm_f32(1.0));
        for _ in 0..50 {
            b.fmul(r, r, Src::imm_f32(1.0001));
        }
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(1, 32), vec![]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        rig.run(100_000);
        let s = rig.sm.stats;
        assert!(
            s.scoreboard > s.pipeline,
            "dependent chain should stall on operands: {s:?}"
        );
        assert!(s.scoreboard > 50, "{s:?}");
    }

    #[test]
    fn stall_classification_identifies_idle_on_empty_sm() {
        let k = simple_kernel(1, 32);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        // No TB launched: tick a few cycles manually.
        for _ in 0..10 {
            let mut rep = TickReport::default();
            rig.mem.tick(rig.now);
            rig.sm.tick(
                rig.now,
                &mut rig.gmem,
                &mut rig.mem,
                rig.policy.as_mut(),
                true,
                &mut rep,
            );
            rig.now += 1;
        }
        assert_eq!(rig.sm.stats.idle, 20, "2 units x 10 cycles all idle");
    }

    #[test]
    fn global_load_roundtrip_through_memory_system() {
        // out[i] = in[i] + 1
        let mut b = ProgramBuilder::new("copy");
        let g = b.reg();
        let a = b.reg();
        let v = b.reg();
        let o = b.reg();
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.ld_global(v, a, 0);
        b.iadd(v, v, Src::Imm(1));
        b.buf_addr(o, 1, g, 0);
        b.st_global(v, o, 0);
        b.exit();
        let p = b.build().unwrap();
        let mut gmem = GlobalMem::new(1 << 20);
        let input: Vec<u32> = (0..128).map(|i| i * 10).collect();
        let in_base = gmem.alloc_init(&input);
        let out_base = gmem.alloc(128 * 4);
        let k = Kernel::new(
            p,
            LaunchConfig::linear(1, 128),
            vec![in_base as u32, out_base as u32],
        );
        let mut rig = Rig::new(&k, SchedulerKind::Gto);
        rig.gmem = gmem;
        rig.launch(0);
        let (cycles, _) = rig.run(100_000);
        for i in 0..128u64 {
            assert_eq!(rig.gmem.read(out_base + i * 4), i as u32 * 10 + 1);
        }
        // The load must have paid real memory latency.
        assert!(cycles > 150, "cycles = {cycles}");
        assert!(rig.mem.stats().loads >= 4, "4 warps x 1 load each");
    }

    #[test]
    fn divergent_kernel_executes_both_paths() {
        let mut b = ProgramBuilder::new("div");
        let g = b.reg();
        let a = b.reg();
        let v = b.reg();
        let p0 = b.pred();
        b.global_tid(g);
        b.and(v, g, Src::Imm(1));
        b.setp(CmpOp::Eq, Ty::S32, p0, v, Src::Imm(0));
        b.if_else(
            p0,
            |b| {
                b.mov(v, Src::Imm(100));
            },
            |b| {
                b.mov(v, Src::Imm(200));
            },
        );
        b.buf_addr(a, 0, g, 0);
        b.st_global(v, a, 0);
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(1, 64), vec![0]);
        let mut rig = Rig::new(&k, SchedulerKind::Tl);
        rig.launch(0);
        rig.run(100_000);
        for i in 0..64u64 {
            let expect = if i % 2 == 0 { 100 } else { 200 };
            assert_eq!(rig.gmem.read(i * 4), expect, "thread {i}");
        }
    }

    #[test]
    fn progress_counters_track_active_threads() {
        let k = simple_kernel(1, 64);
        let mut rig = Rig::new(&k, SchedulerKind::Pro);
        rig.launch(0);
        rig.run(100_000);
        let s = rig.sm.stats;
        // 2 warps x 5 instructions (global_tid, imad, st, exit = 4... plus
        // buf_addr is 1 imad) — just check consistency.
        assert_eq!(s.thread_instructions, s.instructions * 32);
    }

    #[test]
    fn two_units_split_warps_by_parity() {
        let k = simple_kernel(1, 256); // 8 warps
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        // Run one cycle past fetch latency; both units should issue.
        rig.now = 2;
        let mut rep = TickReport::default();
        rig.mem.tick(rig.now);
        rig.sm.tick(
            rig.now,
            &mut rig.gmem,
            &mut rig.mem,
            rig.policy.as_mut(),
            true,
            &mut rep,
        );
        assert_eq!(rig.sm.stats.issued, 2, "both units issue in one cycle");
    }

    #[test]
    fn units_of_one_sm_see_each_others_same_cycle_global_stores() {
        // One TB of two warps in lockstep, warp 0 on unit 0 and warp 1 on
        // unit 1, branching uniformly on the warp id into a store to `flag`
        // or a load of it, both issued in one cycle. Units issue in index
        // order against one memory: unit 1's load sees unit 0's store, and
        // unit 0's load does not see unit 1's.
        use pro_trace::{Event as Ev, RingTracer};
        for (storer, want) in [(0u32, 100u32), (1, 7)] {
            let mut b = ProgramBuilder::new("unit_race");
            let (fa, oa, val, seen) = (b.reg(), b.reg(), b.reg(), b.reg());
            let stores = b.pred();
            b.mov(fa, Src::Param(0));
            b.mov(oa, Src::Param(1));
            b.mov(val, Src::Imm(100));
            b.setp(CmpOp::Eq, Ty::S32, stores, Src::Special(Special::WarpId), Src::Imm(storer));
            b.if_else(
                stores,
                |b| {
                    b.st_global(val, fa, 0);
                },
                |b| {
                    b.ld_global(seen, fa, 0);
                    b.st_global(seen, oa, 0);
                },
            );
            b.exit();
            let mut gmem = GlobalMem::new(1 << 20);
            let flag = gmem.alloc_init(&[7]);
            let out = gmem.alloc_init(&[0]);
            let k = Kernel::new(
                b.build().unwrap(),
                LaunchConfig::linear(1, 64),
                vec![flag as u32, out as u32],
            );
            let mut rig = Rig::new(&k, SchedulerKind::Lrr);
            rig.gmem = gmem;
            rig.launch(0);
            let mut tracer = RingTracer::new(4096);
            while rig.sm.busy() {
                let mut rep = TickReport::default();
                rig.mem.tick(rig.now);
                rig.sm.mem_phase(rig.now, &mut rig.mem, &mut tracer);
                rig.sm.issue_phase(rig.now, &mut rig.gmem, &mut rig.mem, rig.policy.as_mut(), true, &mut rep, &mut tracer);
                rig.now += 1;
                assert!(rig.now < 100_000);
            }
            // Each warp's first global access, by unit: issued in one cycle.
            let race: Vec<(u16, u64)> = [0u16, 1]
                .iter()
                .map(|&want_warp| {
                    tracer
                        .records()
                        .find_map(|r| match r.event {
                            Ev::WarpIssue { unit, warp, pc, .. } if warp == want_warp => {
                                let global = matches!(
                                    k.program.fetch(pc),
                                    pro_isa::Instr::Ld { .. } | pro_isa::Instr::St { .. }
                                );
                                global.then_some((unit, r.cycle))
                            }
                            _ => None,
                        })
                        .expect("both warps access global memory")
                })
                .collect();
            assert_eq!((race[0].0, race[1].0), (0, 1), "warp w issues on unit w");
            assert_eq!(race[0].1, race[1].1, "the race is within one cycle");
            assert_eq!(rig.gmem.read(out), want, "warp {storer} stores");
            assert_eq!(rig.gmem.read(flag), 100);
        }
    }

    #[test]
    fn lrr_makes_equal_progress_across_warps() {
        let k = simple_kernel(1, 256);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        // Run a while, then inspect warp progress spread.
        for _ in 0..20 {
            let mut rep = TickReport::default();
            rig.mem.tick(rig.now);
            rig.sm.tick(
                rig.now,
                &mut rig.gmem,
                &mut rig.mem,
                rig.policy.as_mut(),
                true,
                &mut rep,
            );
            rig.now += 1;
        }
        let progresses: Vec<u64> = rig
            .sm
            .sched_view(rig.now, true)
            .warps
            .iter()
            .filter(|w| w.active)
            .map(|w| w.progress)
            .collect();
        let max = progresses.iter().max().unwrap();
        let min = progresses.iter().min().unwrap();
        assert!(max - min <= 32, "LRR keeps warps even: {progresses:?}");
    }

    #[test]
    fn fuzz_scheduler_preserves_functional_results() {
        let k = simple_kernel(2, 96);
        for seed in [1u64, 99, 12345] {
            let mut rig = Rig::new(&k, SchedulerKind::Lrr);
            rig.policy = Box::new(pro_core::Fuzz::new(seed));
            rig.launch(0);
            rig.launch(1);
            rig.run(200_000);
            for i in 0..192u64 {
                assert_eq!(rig.gmem.read(i * 4), i as u32, "seed {seed} thread {i}");
            }
        }
    }

    #[test]
    fn sfu_initiation_interval_throttles() {
        // Many warps all issuing SFU ops: pipeline stalls should appear.
        let mut b = ProgramBuilder::new("sfu");
        let r = b.reg();
        b.mov(r, Src::imm_f32(0.5));
        for _ in 0..8 {
            b.sfu(pro_isa::SfuOp::Sin, r, r);
        }
        b.exit();
        let p = b.build().unwrap();
        let k = Kernel::new(p, LaunchConfig::linear(1, 512), vec![]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.launch(0);
        rig.run(200_000);
        assert!(
            rig.sm.stats.pipeline > 100,
            "SFU II must produce pipeline stalls: {:?}",
            rig.sm.stats
        );
    }

    #[test]
    fn traced_run_mirrors_stats_exactly() {
        use pro_trace::{Event as Ev, RingTracer, StallReason};
        let k = simple_kernel(2, 96);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut tracer = RingTracer::new(1 << 20);
        rig.sm
            .launch_tb_traced(0, rig.now, rig.policy.as_mut(), true, &mut tracer);
        rig.sm
            .launch_tb_traced(1, rig.now, rig.policy.as_mut(), true, &mut tracer);
        while rig.sm.busy() {
            let mut rep = TickReport::default();
            rig.mem.tick_traced(rig.now, &mut tracer);
            rig.sm.mem_phase(rig.now, &mut rig.mem, &mut tracer);
            rig.sm.issue_phase(rig.now, &mut rig.gmem, &mut rig.mem, rig.policy.as_mut(), true, &mut rep, &mut tracer);
            rig.now += 1;
            assert!(rig.now < 100_000);
        }
        let s = rig.sm.stats;
        // Every UnitStall / WarpIssue event corresponds 1:1 with a counter
        // increment — this is what lets trace-report reproduce the paper's
        // stall fractions exactly.
        let (mut idle, mut sb, mut pipe) = (0, 0, 0);
        for r in tracer.records() {
            if let Ev::UnitStall { reason, .. } = r.event {
                match reason {
                    StallReason::Idle => idle += 1,
                    StallReason::Scoreboard => sb += 1,
                    StallReason::Pipeline => pipe += 1,
                }
            }
        }
        assert_eq!(idle, s.idle);
        assert_eq!(sb, s.scoreboard);
        assert_eq!(pipe, s.pipeline);
        let issues = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::WarpIssue { .. }))
            .count() as u64;
        assert_eq!(issues, s.issued);
        let launches = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::TbLaunch { .. }))
            .count();
        let completes = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::TbComplete { .. }))
            .count() as u64;
        assert_eq!(launches, 2);
        assert_eq!(completes, s.tbs_completed);
        assert_eq!(s.disparity_hist.total(), s.tbs_completed);
        // Scoreboard sets and clears must balance on a drained SM.
        let sets = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::ScoreboardSet { .. }))
            .count();
        let clears = tracer
            .records()
            .filter(|r| matches!(r.event, Ev::ScoreboardClear { .. }))
            .count();
        assert_eq!(sets, clears, "every reserve is eventually released");
        assert!(sets > 0);
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_changes_nothing() {
        use pro_trace::PanicTracer;
        let k = simple_kernel(1, 64);
        // Traced run with a PanicTracer: proves every emission site checks
        // `wants` first (PanicTracer aborts on any delivery).
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut panic_tracer = PanicTracer;
        rig.sm
            .launch_tb_traced(0, 0, rig.policy.as_mut(), true, &mut panic_tracer);
        while rig.sm.busy() {
            let mut rep = TickReport::default();
            rig.mem.tick_traced(rig.now, &mut panic_tracer);
            rig.sm.mem_phase(rig.now, &mut rig.mem, &mut panic_tracer);
            rig.sm.issue_phase(rig.now, &mut rig.gmem, &mut rig.mem, rig.policy.as_mut(), true, &mut rep, &mut panic_tracer);
            rig.now += 1;
            assert!(rig.now < 100_000);
        }
        let traced_stats = rig.sm.stats;
        // Untraced run: identical timing and counters.
        let mut rig2 = Rig::new(&k, SchedulerKind::Lrr);
        rig2.launch(0);
        rig2.run(100_000);
        assert_eq!(traced_stats, rig2.sm.stats, "tracing must not perturb timing");
    }

    #[test]
    fn can_accept_tb_agrees_with_a_scan_of_the_tb_slots() {
        // The free-slot half of `can_accept_tb` is answered from `live_tbs`;
        // hold it to the slot scan it replaced while TBs launch, retire and
        // relaunch into the freed slots. 64 threads/TB leaves the 8 TB slots
        // as the only binding limit.
        let k = simple_kernel(64, 64);
        let mut rig = Rig::new(&k, SchedulerKind::Gto);
        let scan = |sm: &Sm| (0..sm.usable_tb_slots()).any(|t| !sm.sched_tbs[t].occupied);
        let (mut next, mut done) = (0u32, 0usize);
        let mut saw_full = false;
        while done < 64 {
            // Every third cycle holds launches back so slots sit free too.
            while next < 64 && !rig.now.is_multiple_of(3) && rig.sm.can_accept_tb() {
                rig.launch(next);
                next += 1;
                assert_eq!(rig.sm.can_accept_tb(), scan(&rig.sm), "after a launch");
            }
            saw_full |= !rig.sm.can_accept_tb();
            let mut rep = TickReport::default();
            rig.mem.tick(rig.now);
            rig.sm.tick(
                rig.now,
                &mut rig.gmem,
                &mut rig.mem,
                rig.policy.as_mut(),
                next < 64,
                &mut rep,
            );
            done += rep.finished_tbs.len();
            rig.now += 1;
            assert_eq!(rig.sm.can_accept_tb(), scan(&rig.sm), "cycle {}", rig.now);
            assert!(rig.now < 100_000);
        }
        assert!(saw_full, "the sequence must reach a full SM");
        assert_eq!(rig.sm.live_tbs, 0);
    }

    #[test]
    fn reconvergence_events_do_not_depend_on_the_start_cycle() {
        // Every 64th cycle the ready-warp sampler reconverges warps before
        // the issue walk does. A pop performed there used to go unpublished,
        // so which `SimtReconverge` events a trace held depended on how the
        // run lined up with the sampling period. One warp, 24 divergent
        // if/else blocks, each popping twice; every start offset within a
        // period must publish all 48.
        use pro_trace::{Event as Ev, RingTracer};
        let mut b = ProgramBuilder::new("diverge24");
        let (g, v) = (b.reg(), b.reg());
        let p0 = b.pred();
        b.global_tid(g);
        b.and(v, g, Src::Imm(1));
        b.setp(CmpOp::Eq, Ty::S32, p0, v, Src::Imm(0));
        for _ in 0..24 {
            b.if_else(
                p0,
                |b| {
                    b.iadd(v, v, Src::Imm(3));
                },
                |b| {
                    b.iadd(v, v, Src::Imm(5));
                },
            );
        }
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 32), vec![]);
        for start in 0..64 {
            let mut rig = Rig::new(&k, SchedulerKind::Lrr);
            rig.now = start;
            let mut tracer = RingTracer::new(1 << 16);
            rig.sm
                .launch_tb_traced(0, rig.now, rig.policy.as_mut(), true, &mut tracer);
            while rig.sm.busy() {
                let mut rep = TickReport::default();
                rig.mem.tick(rig.now);
                rig.sm.mem_phase(rig.now, &mut rig.mem, &mut tracer);
                rig.sm.issue_phase(rig.now, &mut rig.gmem, &mut rig.mem, rig.policy.as_mut(), true, &mut rep, &mut tracer);
                rig.now += 1;
                assert!(rig.now < 100_000);
            }
            let count = |pick: fn(&Ev) -> bool| tracer.records().filter(|r| pick(&r.event)).count();
            assert_eq!(count(|e| matches!(e, Ev::SimtDiverge { .. })), 24, "start {start}");
            assert_eq!(count(|e| matches!(e, Ev::SimtReconverge { .. })), 48, "start {start}");
        }
    }

    #[test]
    fn lrr_policy_unit_smoke() {
        // Direct policy sanity through the SM: every warp eventually issues.
        let k = simple_kernel(1, 256);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut lrr = Lrr::new(48, 2);
        rig.launch(0);
        for _ in 0..200 {
            let mut rep = TickReport::default();
            rig.mem.tick(rig.now);
            rig.sm
                .tick(rig.now, &mut rig.gmem, &mut rig.mem, &mut lrr, true, &mut rep);
            rig.now += 1;
        }
        let view = rig.sm.sched_view(rig.now, true);
        assert!(view.warps.iter().filter(|w| w.active).all(|w| w.progress > 0));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use pro_core::SchedulerKind;
    use pro_isa::{CmpOp, LaunchConfig, ProgramBuilder, Special, Src, Ty};
    use pro_mem::MemConfig;

    struct Rig {
        sm: Sm,
        gmem: GlobalMem,
        mem: MemSubsystem,
        policy: Box<dyn WarpScheduler>,
        now: u64,
    }

    impl Rig {
        fn new(kernel: &Kernel, kind: SchedulerKind) -> Rig {
            let cfg = SmConfig::gtx480();
            let mut sm = Sm::new(0, cfg);
            sm.begin_kernel(kernel);
            Rig {
                policy: kind.build(cfg.max_warps, cfg.max_tbs, cfg.units),
                sm,
                gmem: GlobalMem::new(1 << 22),
                mem: MemSubsystem::new(MemConfig::gtx480(), 1),
                now: 0,
            }
        }

        fn run(&mut self, limit: u64) -> Vec<u32> {
            let mut finished = Vec::new();
            let start = self.now;
            while self.sm.busy() {
                let mut rep = TickReport::default();
                self.mem.tick(self.now);
                self.sm.tick(
                    self.now,
                    &mut self.gmem,
                    &mut self.mem,
                    self.policy.as_mut(),
                    true,
                    &mut rep,
                );
                finished.extend(rep.finished_tbs.iter().map(|tb| tb.global_index));
                self.now += 1;
                assert!(self.now - start < limit, "SM hung");
            }
            finished
        }
    }

    /// A TB whose warp 1 exits without ever reaching the barrier (uniform
    /// per-warp guard): warp 0 must still be released when warp 1 finishes
    /// — the hardware counts only live warps toward barrier arrival.
    #[test]
    fn barrier_released_by_finishing_sibling_warp() {
        let mut b = ProgramBuilder::new("skip_bar");
        let (wid, g, a) = (b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.mov(wid, Src::Special(Special::WarpId));
        b.setp(CmpOp::Eq, Ty::S32, p, wid, Src::Imm(0));
        b.if_then(p, true, |b| {
            b.bar();
        });
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.st_global(g, a, 0);
        b.exit();
        let prog = b.build().unwrap();
        let k = Kernel::new(prog, LaunchConfig::linear(1, 64), vec![0]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        rig.sm.launch_tb(0, 0, rig.policy.as_mut(), true);
        let finished = rig.run(100_000);
        assert_eq!(finished, vec![0]);
        for i in 0..64u64 {
            assert_eq!(rig.gmem.read(i * 4), i as u32);
        }
    }

    /// LSU backpressure: a storm of fully scattered loads must neither
    /// deadlock nor lose completions when the L1 MSHRs saturate.
    #[test]
    fn mshr_saturation_recovers() {
        let mut b = ProgramBuilder::new("scatter_storm");
        let (g, x, a, v, acc, i) =
            (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.global_tid(g);
        b.mov(acc, Src::Imm(0));
        b.for_loop(i, Src::Imm(0), Src::Imm(4), p, |b, i| {
            // addr = ((gtid*131 + i*977) % 4096) * 128 → all scattered lines
            b.imad(x, g, Src::Imm(131), Src::Imm(0));
            b.imad(x, i, Src::Imm(977), Src::Reg(x));
            b.and(x, x, Src::Imm(4095));
            b.shl(x, x, Src::Imm(7));
            b.iadd(a, x, Src::Param(0));
            b.ld_global(v, a, 0);
            b.iadd(acc, acc, Src::Reg(v));
        });
        b.buf_addr(a, 1, g, 0);
        b.st_global(acc, a, 0);
        b.exit();
        let prog = b.build().unwrap();
        let mut gmem = GlobalMem::new(1 << 22);
        let table = gmem.alloc(4096 * 128 + 4096);
        let out = gmem.alloc(512 * 4);
        let k = Kernel::new(
            prog,
            LaunchConfig::linear(4, 128),
            vec![table as u32, out as u32],
        );
        let mut rig = Rig::new(&k, SchedulerKind::Gto);
        rig.gmem = gmem;
        for t in 0..4 {
            rig.sm.launch_tb(t, 0, rig.policy.as_mut(), true);
        }
        let finished = rig.run(2_000_000);
        assert_eq!(finished.len(), 4);
        let s = rig.mem.stats();
        assert_eq!(s.loads, s.loads_completed, "no load lost under pressure");
        assert!(s.l1.mshr_rejections > 0 || s.l1.mshr_merges > 0);
    }

    /// Register-file capacity limits residency: a 64-reg kernel at 256
    /// threads/TB allows only 2 TBs on a 32768-register SM.
    #[test]
    fn register_file_gates_residency() {
        let mut b = ProgramBuilder::new("reg_hog");
        // Touch r63 so the program declares 64 registers.
        let mut last = b.reg();
        for _ in 0..63 {
            last = b.reg();
        }
        b.mov(last, Src::Imm(1));
        b.exit();
        let prog = b.build().unwrap();
        assert_eq!(prog.regs, 64);
        let k = Kernel::new(prog, LaunchConfig::linear(8, 256), vec![]);
        let mut rig = Rig::new(&k, SchedulerKind::Lrr);
        let mut n = 0;
        while rig.sm.can_accept_tb() {
            rig.sm.launch_tb(n, 0, rig.policy.as_mut(), true);
            n += 1;
        }
        assert_eq!(n, 2, "32768 regs / (64 regs x 256 threads) = 2");
    }

    /// Warp-level divergence statistic: a kernel with warp-skewed work
    /// reports a larger first-to-last finish gap than a uniform one.
    #[test]
    fn wld_statistic_tracks_skew() {
        let make = |skewed: bool| {
            let mut b = ProgramBuilder::new("wld");
            let (wid, bound, i, acc) = (b.reg(), b.reg(), b.reg(), b.reg());
            let p = b.pred();
            b.mov(wid, Src::Special(Special::WarpId));
            if skewed {
                b.iadd(bound, wid, Src::Imm(1));
                b.shl(bound, bound, Src::Imm(4));
            } else {
                b.mov(bound, Src::Imm(32));
            }
            b.mov(acc, Src::Imm(0));
            b.for_loop(i, Src::Imm(0), bound, p, |b, i| {
                b.imad(acc, acc, Src::Imm(3), Src::Reg(i));
            });
            b.exit();
            let prog = b.build().unwrap();
            let k = Kernel::new(prog, LaunchConfig::linear(1, 128), vec![]);
            let mut rig = Rig::new(&k, SchedulerKind::Lrr);
            rig.sm.launch_tb(0, 0, rig.policy.as_mut(), true);
            rig.run(200_000);
            rig.sm.stats
        };
        let uniform = make(false);
        let skewed = make(true);
        assert_eq!(uniform.tbs_completed, 1);
        assert!(
            skewed.avg_wld() > uniform.avg_wld(),
            "skewed {} vs uniform {}",
            skewed.avg_wld(),
            uniform.avg_wld()
        );
    }

    /// Shared-memory atomics serialize: same-address atomics take longer
    /// than spread ones.
    #[test]
    fn atomic_conflicts_cost_cycles() {
        let make = |same_addr: bool| {
            let mut b = ProgramBuilder::new("atomics");
            let sh = b.shared_alloc(128 * 4);
            let (addr, one, old) = (b.reg(), b.reg(), b.reg());
            if same_addr {
                b.mov(addr, Src::Imm(sh));
            } else {
                // per-lane address: laneid*4 + sh — conflict free.
                let lane = b.reg();
                b.mov(lane, Src::Special(Special::LaneId));
                b.imad(addr, lane, Src::Imm(4), Src::Imm(sh));
            }
            b.mov(one, Src::Imm(1));
            for _ in 0..8 {
                b.atom_shared(pro_isa::AtomOp::Add, old, addr, one);
            }
            b.exit();
            let prog = b.build().unwrap();
            let k = Kernel::new(prog, LaunchConfig::linear(1, 32), vec![]);
            let mut rig = Rig::new(&k, SchedulerKind::Lrr);
            rig.sm.launch_tb(0, 0, rig.policy.as_mut(), true);
            let start = rig.now;
            rig.run(200_000);
            rig.now - start
        };
        let contended = make(true);
        let spread = make(false);
        assert!(
            contended > spread + 8 * 16,
            "full serialization must cost: contended={contended} spread={spread}"
        );
    }
}