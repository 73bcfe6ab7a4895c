//! The whole-GPU model: SM array, global thread block scheduler (the "work
//! distribution engine" of §I), shared memory hierarchy, and the run loop
//! that executes a kernel grid to completion.
//!
//! # In-order cycle
//!
//! Each simulated cycle ticks the shared [`MemSubsystem`], then every SM
//! in SM-index order (`Sm::mem_phase`, its memory half, then
//! `Sm::issue_phase`, its issue half), then the thread block scheduler. SMs meet only in the memory
//! system and in global memory, and both are touched in that one order:
//! the memory system's sequence counter advances SM by SM, and a global
//! store is visible to every access issued after it — the SM's other
//! scheduler unit and the higher-indexed SMs in the same cycle, everyone
//! from the next cycle on (DESIGN.md §11).

mod snapshot;

use crate::checkpoint::{ChainWriter, CheckpointOptions, GpuSnapshot, LaunchStatus, Prior};
use crate::result::{RunResult, TbOrderSnapshot, TbSpan};
use pro_core::codec::CodecError;
use pro_core::{snapshot_struct, SchedulerKind, Violation, WarpScheduler};
use pro_isa::Kernel;
use pro_mem::{GlobalMem, LoadLedger, MemSubsystem};
use pro_sm::{IssueTable, Sm, SmConfig, SmStats, TickReport, WarpDump};
use pro_trace::{Hist16, HostPhase, HostProf, IssueProf, NoopTracer, Tracer};
use snapshot::{ChainImage, ChainLink, Restored};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

pub use crate::config::GpuConfig;

/// Optional measurement hooks for a launch.
///
/// The run loop reads each off what it already drains: a retiring TB's
/// span from the SM's report of it (launch cycle included), utilization
/// from each SM's issue counter, and `tb_order` from the policy, whose
/// priority state no event carries. None of them subscribes to the
/// `pro-trace` bus; external subscribers attach via [`Gpu::launch_traced`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceOptions {
    /// Record each TB's (SM, start, end) — regenerates Fig. 2.
    pub timeline: bool,
    /// Record the policy's TB priority order on SM 0 — the SM Table IV
    /// shows — every `tb_order_period` cycles (0 = off).
    pub tb_order_period: u64,
    /// Record per-SM issued-instruction counts every `utilization_period`
    /// cycles (0 = off) — drives the occupancy heatmap.
    pub utilization_period: u64,
    /// Enable the host-side phase profiler (`pro_trace::prof`): wall-clock
    /// per run-loop phase and the memory-subsystem queue gauges, all
    /// published into the result's metrics registry under `host/*`. Host
    /// numbers vary run to run by nature, so the `host/` namespace is
    /// excluded from `RunResult`'s `Snapshot` encoding and from every
    /// byte-compare determinism gate.
    pub host_prof: bool,
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run loop exceeded `max_cycles` — a deadlock or runaway kernel.
    Timeout {
        /// Cycle count reached.
        at_cycle: u64,
        /// The last cycle at which a warp exited, a barrier opened, a TB
        /// retired, or a store or shared atomic changed a word; counted
        /// like `at_cycle` from the launch's start. A resumed launch knows
        /// no progress before the cycle it resumed at.
        last_progress: u64,
        /// What was still running. A thin box keeps the error as narrow as
        /// it was without the dump.
        stuck: Box<Stuck>,
    },
    /// A periodic checkpoint could not be written, or the checkpoint
    /// options are inconsistent (e.g. an interval without a path).
    CheckpointIo(String),
    /// A resume snapshot failed to decode, failed a CRC check, or belongs
    /// to a different kernel/configuration/scheduler than this launch.
    Snapshot(CodecError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Timeout { at_cycle, last_progress, stuck } => {
                let Stuck { pending_tbs, warps } = &**stuck;
                write!(f, "simulation exceeded {at_cycle} cycles with {pending_tbs} TBs outstanding")?;
                write!(f, "; last progress at cycle {last_progress}")?;
                write!(f, "; {} live warps", warps.len())?;
                for warp in warps.iter().take(TIMEOUT_WARPS_SHOWN) {
                    write!(f, "\n  {warp}")?;
                }
                if warps.len() > TIMEOUT_WARPS_SHOWN {
                    write!(f, "\n  and {} more", warps.len() - TIMEOUT_WARPS_SHOWN)?;
                }
                Ok(())
            }
            SimError::CheckpointIo(why) => write!(f, "checkpoint write failed: {why}"),
            SimError::Snapshot(e) => write!(f, "cannot resume from snapshot: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// What a launch stopped at its cycle cap ([`SimError::Timeout`]) still
/// held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stuck {
    /// TBs still unfinished.
    pub pending_tbs: u32,
    /// Every live warp, SM by SM in slot order.
    pub warps: Vec<WarpDump>,
}

/// The live warps a [`SimError::Timeout`] prints; the rest are counted.
const TIMEOUT_WARPS_SHOWN: usize = 8;

impl From<CodecError> for SimError {
    fn from(e: CodecError) -> Self {
        SimError::Snapshot(e)
    }
}

/// A simulated GPU: construct once per experiment, [`Gpu::launch`] one or
/// more kernels sequentially (global memory persists across launches, so
/// multi-kernel applications like the NN layers chain naturally).
pub struct Gpu {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    mem: MemSubsystem,
    /// Device global memory (functional store). Public so hosts can read
    /// back results and allocate buffers between launches.
    pub gmem: GlobalMem,
    cycle: u64,
    /// [`Gpu::check`]'s scratch, kept across launches (each builds a new
    /// memory hierarchy) so that a check allocates nothing once warm.
    ledger: RefCell<LoadLedger>,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("num_sms", &self.cfg.num_sms)
            .field("cycle", &self.cycle)
            .finish()
    }
}

/// Where a launch's per-SM scheduling policies come from.
pub enum Policy<'a> {
    /// A built-in policy, sized to the machine.
    Kind(SchedulerKind),
    /// An arbitrary factory, called once per SM — parameter sweeps (e.g.
    /// PRO's THRESHOLD) and custom schedulers that have no
    /// [`SchedulerKind`].
    Factory(&'a mut dyn FnMut() -> Box<dyn WarpScheduler>),
}

impl From<SchedulerKind> for Policy<'_> {
    fn from(kind: SchedulerKind) -> Self {
        Policy::Kind(kind)
    }
}

impl Policy<'_> {
    /// One SM's policy instance on a machine with SM configuration `sm`.
    fn build(&mut self, sm: &SmConfig) -> Box<dyn WarpScheduler> {
        match self {
            Policy::Kind(kind) => kind.build(sm.max_warps, sm.max_tbs, sm.units),
            Policy::Factory(factory) => factory(),
        }
    }
}

/// Everything [`Gpu::run`] can be told about a launch besides its kernel.
/// [`Run::new`] is a plain launch; set the other fields with struct-update
/// syntax (`Run { tracer: Some(&mut t), ..Run::new(kind) }`).
pub struct Run<'a> {
    /// The warp-scheduling policy. A fresh instance is built per SM and
    /// per launch: hardware scheduler state drains with the grid anyway,
    /// and PRO's fast/slow phase latch is per-kernel by definition (§III).
    pub policy: Policy<'a>,
    /// Measurement hooks folded into the [`RunResult`].
    pub trace: TraceOptions,
    /// An external subscriber on the event bus for the whole run
    /// (issue/stall, scoreboard, barrier, SIMT, TB and memory-lifecycle
    /// events; kernel boundaries arrive via `Tracer::on_kernel_begin` /
    /// `on_kernel_end`). A resumed run emits from the resume point on and
    /// does *not* repeat `on_kernel_begin`, so the pre-pause and
    /// post-resume streams concatenate to the uninterrupted stream byte
    /// for byte.
    pub tracer: Option<&'a mut dyn Tracer>,
    /// Periodic checkpoints, a pause point.
    pub ckpt: Option<&'a CheckpointOptions>,
    /// Continue this prior state — `(&snapshot).into()` or
    /// `(&chain).into()` — instead of starting the grid at cycle 0. The
    /// GPU, kernel and policy must match the original launch: the
    /// containers carry their identities and a mismatch is refused, and
    /// the GPU's device memory must be the size the paused run's was. Of
    /// `trace` they record nothing, and each accumulator holds what was
    /// recorded while it was on: a `timeline` switched on at resume holds
    /// the spans of the TBs that retire from then on. `ckpt` may differ
    /// (e.g. a new pause point); a restored run that delta-checkpoints
    /// starts a fresh chain at its first boundary. The continuation is
    /// bit-identical to the uninterrupted run: same counters, same stall
    /// attribution, same trace bytes. The one exception is a
    /// [`SimError::Timeout`]'s `last_progress`, which is not serialized:
    /// a resumed run counts it from the resume cycle.
    pub resume: Option<Prior<'a>>,
}

impl<'a> Run<'a> {
    /// A plain launch under `policy`: default traces, nobody on the bus, no
    /// checkpointing, from cycle 0.
    pub fn new(policy: impl Into<Policy<'a>>) -> Self {
        Run {
            policy: policy.into(),
            trace: TraceOptions::default(),
            tracer: None,
            ckpt: None,
            resume: None,
        }
    }
}

/// The error of a launch begun at `start_cycle` (resumed at `resumed_at`)
/// that reached its cycle cap at relative cycle `at_cycle` with
/// `pending_tbs` TBs unfinished: its last progress and the dump of every
/// warp still live. Built only then, from the SMs' state alone.
#[cold]
fn timeout(sms: &[Sm], start_cycle: u64, resumed_at: u64, at_cycle: u64, pending_tbs: u32) -> SimError {
    let mut warps = Vec::new();
    for sm in sms {
        sm.dump_live_warps(start_cycle + at_cycle, &mut warps);
    }
    let last = sms.iter().map(Sm::last_progress).fold(resumed_at, u64::max);
    SimError::Timeout { at_cycle, last_progress: last - start_cycle, stuck: Box::new(Stuck { pending_tbs, warps }) }
}

/// The machine's SM array with nothing resident.
fn idle_sms(cfg: &GpuConfig) -> Vec<Sm> {
    (0..cfg.num_sms).map(|i| Sm::new(i, cfg.sm)).collect()
}

impl Gpu {
    /// Build a GPU with `gmem_bytes` of device memory.
    ///
    /// # Panics
    ///
    /// If `cfg` fails `GpuConfig::check`. A configuration read from text
    /// comes through [`crate::parse_config`], which returns the same
    /// verdict as a typed error.
    pub fn new(cfg: GpuConfig, gmem_bytes: u64) -> Self {
        if let Err(e) = cfg.check() {
            panic!("Gpu::new: {}", e.msg);
        }
        Gpu {
            sms: idle_sms(&cfg),
            mem: MemSubsystem::new(cfg.mem, cfg.num_sms as usize),
            gmem: GlobalMem::new(gmem_bytes),
            cycle: 0,
            ledger: RefCell::default(),
            cfg,
        }
    }

    /// The GPU's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Run `kernel` to completion under `scheduler`, collecting statistics
    /// and optional traces. This and the three entry points below are
    /// shorthands for [`Gpu::run`].
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
    ) -> Result<RunResult, SimError> {
        self.run(kernel, Run { trace, ..Run::new(scheduler) }).map(LaunchStatus::expect_completed)
    }

    /// [`Gpu::launch`] with an external [`Tracer`] subscribed to the event
    /// bus for the whole run ([`Run::tracer`]).
    pub fn launch_traced(
        &mut self,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<RunResult, SimError> {
        let run = Run { trace, tracer: Some(tracer), ..Run::new(scheduler) };
        self.run(kernel, run).map(LaunchStatus::expect_completed)
    }

    /// [`Gpu::launch`] with checkpointing: periodically persist the run to
    /// [`CheckpointOptions::path`] and/or pause it at
    /// [`CheckpointOptions::pause_at`] cycles, returning the snapshot.
    pub fn launch_checkpointed(
        &mut self,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<LaunchStatus, SimError> {
        self.run(kernel, Run { trace, ckpt: Some(ckpt), ..Run::new(scheduler) })
    }

    /// Continue a paused or checkpointed launch from `snapshot`
    /// ([`Run::resume`] has the contract).
    pub fn resume(
        &mut self,
        snapshot: &GpuSnapshot,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<LaunchStatus, SimError> {
        let run = Run { trace, ckpt: Some(ckpt), resume: Some(snapshot.into()), ..Run::new(scheduler) };
        self.run(kernel, run)
    }

    /// Hold the whole machine to its invariants at the current cycle
    /// boundary: the memory hierarchy's ([`MemSubsystem::check`]), then
    /// each SM's ([`Sm::check`]), which pairs the SM's loads in flight with
    /// the memory side's; a load the memory side holds that no SM claims is
    /// the last thing refused. A restore runs it once, on the decoded
    /// state; a debug build's run every `CHECK_PERIOD` (1 024) cycles; a
    /// release build's run never.
    pub(crate) fn check(&self) -> Result<(), Violation> {
        let now = self.cycle;
        let ledger = &mut *self.ledger.borrow_mut();
        self.mem.check(now, ledger)?;
        for sm in &self.sms {
            sm.check(now, ledger)?;
        }
        match ledger.due.keys().next() {
            None => Ok(()),
            Some(&(sm, _)) => Err(Violation { invariant: "mem load no SM waits for", sm: Some(sm), slot: None, cycle: now }),
        }
    }

    /// The one way to run a kernel, which every entry point above lands
    /// on: set the engine up (restoring [`Run::resume`] if given), step it
    /// one cycle at a time, stop at checkpoint boundaries, and tear it down
    /// into a [`RunResult`].
    pub fn run(&mut self, kernel: &Kernel, run: Run<'_>) -> Result<LaunchStatus, SimError> {
        let Run { policy, trace, tracer, ckpt, resume } = run;
        let no_ckpt = CheckpointOptions::default();
        let ckpt = ckpt.unwrap_or(&no_ckpt);
        let mut no_tracer = NoopTracer;
        let tracer = tracer.unwrap_or(&mut no_tracer);
        let mut eng = Engine::setup(self, kernel, policy, trace, tracer, ckpt, resume)?;
        // Initial fill happens inside the loop (1 TB per SM per cycle),
        // mirroring the hardware work distributor.
        while !eng.cycle()? {
            // Checkpoint boundary: between two cycles, the one point where
            // the simulator's state is closed under snapshot.
            let rel_after = eng.gpu.cycle - eng.start_cycle;
            if cfg!(debug_assertions) && rel_after.is_multiple_of(CHECK_PERIOD) {
                if let Err(v) = eng.gpu.check() {
                    panic!("invariant broken mid-run: {v}");
                }
            }
            let pause = ckpt.pause_at > 0 && rel_after >= ckpt.pause_at;
            let periodic = ckpt.every > 0 && rel_after.is_multiple_of(ckpt.every);
            if pause || periodic {
                let mut st = eng.prof.start();
                let paused = eng.checkpoint(periodic, pause)?;
                eng.prof.lap(HostPhase::SnapshotWrite, &mut st);
                if let Some(snap) = paused {
                    // Paused mid-grid: no kernel-end event (the resumed run
                    // emits it), no result — the snapshot is the
                    // deliverable. The next launch or resume on this GPU,
                    // this snapshot's included, starts from idle SMs.
                    return Ok(LaunchStatus::Paused(snap));
                }
            }
        }
        Ok(LaunchStatus::Completed(eng.teardown()))
    }
}

/// Cycles between two [`Gpu::check`]s of a debug build's run.
const CHECK_PERIOD: u64 = 1024;

/// The per-launch state of one SM that lives outside the [`Sm`] itself.
struct Lane {
    policy: Box<dyn WarpScheduler>,
    report: TickReport,
    /// The SM's `stats.issued` when its utilization was last counted.
    issued: u64,
}

/// What a run accumulates, snapshot section [`SEC_LOOP`]: the Table IV
/// samples, the spans of the TBs retired while the timeline was on, and a
/// row of per-period issue counts per SM. Everything else the run loop
/// uses it derives from the SMs and the clock.
struct LoopState {
    tb_order: Vec<TbOrderSnapshot>,
    timeline: Vec<TbSpan>,
    utilization: Vec<Vec<u64>>,
}

snapshot_struct! {
    LoopState {
        tb_order,
        timeline,
        utilization,
    }
}

/// One launch in flight: [`Engine::setup`] (fresh or restored),
/// [`Engine::cycle`] until the grid drains, [`Engine::capture`] at
/// checkpoint boundaries, [`Engine::teardown`] into the result.
struct Engine<'a> {
    gpu: &'a mut Gpu,
    kernel: &'a Kernel,
    trace: TraceOptions,
    ckpt: &'a CheckpointOptions,
    start_cycle: u64,
    /// The cycle this launch began or resumed at: no SM's progress before
    /// it is known.
    resumed_at: u64,
    lp: LoopState,
    /// Blocks handed to an SM so far. They go out in index order, so this
    /// is also the next one; `TBsWaitingInThrdBlkSched()` is `dispatched <
    /// num_blocks`.
    dispatched: u32,
    /// TBs launched but unfinished.
    outstanding: u32,
    /// The user's subscriber, or the no-op tracer.
    tracer: &'a mut dyn Tracer,
    /// One per SM, index-aligned with `gpu.sms`.
    lanes: Vec<Lane>,
    /// Delta-chain writer and the section image its next delta diffs
    /// against: `None` until the first periodic boundary of a
    /// delta-checkpointed run.
    chain: Option<(ChainWriter, ChainImage<'static>)>,
    /// Host profiler: when `trace.host_prof` is off this costs one branch
    /// per phase boundary; its output never reaches simulated state, so it
    /// is invisible to the determinism gates either way.
    prof: HostProf,
    wall_start: Instant,
}

impl<'a> Engine<'a> {
    /// Bind `kernel` to the SM array and build the per-launch state; with
    /// `resume`, restore all of it from the prior state instead of starting
    /// at cycle 0 of the grid.
    fn setup(
        gpu: &'a mut Gpu,
        kernel: &'a Kernel,
        mut policy: Policy<'_>,
        trace: TraceOptions,
        tracer: &'a mut dyn Tracer,
        ckpt: &'a CheckpointOptions,
        resume: Option<Prior<'_>>,
    ) -> Result<Self, SimError> {
        if ckpt.every > 0 && ckpt.path.is_none() {
            return Err(SimError::CheckpointIo(
                "a checkpoint interval was set without a checkpoint path".into(),
            ));
        }
        if ckpt.delta && ckpt.path.is_none() {
            return Err(SimError::CheckpointIo(
                "delta checkpointing was requested without a chain directory".into(),
            ));
        }
        if !ckpt.delta && (ckpt.every > 0 || ckpt.path.is_some()) {
            return Err(SimError::CheckpointIo(
                "periodic checkpoints only grow a delta chain, and `delta` was not set".into(),
            ));
        }
        let num_sms = gpu.cfg.num_sms as usize;
        let prof = HostProf::new(trace.host_prof);
        let wall_start = Instant::now();
        // Parse, CRC-check, identity-check and fold the prior state before
        // touching any simulator state, so a bad snapshot or a malformed
        // chain leaves the GPU untouched and reusable.
        let restored = match &resume {
            Some(prior) => Some(Restored::parse(prior.containers, &gpu.cfg, kernel)?),
            None => None,
        };

        // A launch that timed out or paused left its TBs resident; this one
        // starts from idle SMs. After a completed launch there is nothing
        // to replace.
        if gpu.sms.iter().any(|sm| sm.sched_view(0, false).tbs.iter().any(|tb| tb.occupied)) {
            gpu.sms = idle_sms(&gpu.cfg);
        }
        // Decode the program once; every SM tests the same per-PC table.
        let table = Arc::new(IssueTable::build(&kernel.program));
        for sm in &mut gpu.sms {
            sm.begin_kernel_decoded(kernel, Arc::clone(&table));
            sm.stats = SmStats::default();
        }
        // Fresh memory-system counters per launch: rebuild the subsystem
        // (caches start cold, as for each GPGPU-Sim kernel run).
        gpu.mem = MemSubsystem::new(gpu.cfg.mem, num_sms);

        let start_cycle = restored.as_ref().map_or(gpu.cycle, |r| r.meta.start_cycle);
        let mut lanes: Vec<Lane> = (0..num_sms)
            .map(|_| Lane {
                policy: policy.build(&gpu.cfg.sm),
                report: TickReport::default(),
                issued: 0,
            })
            .collect();
        let (lp, dispatched, outstanding) = match &restored {
            // A section can pass its CRC and still decode badly, which the
            // in-place restores find only part-way through, and decoded
            // state can break an invariant: the half-restored SMs are
            // replaced so the GPU stays launchable (global memory and the
            // clock move only on success, and every setup rebuilds the
            // memory hierarchy).
            Some(restored) => restored
                .apply(gpu, kernel, &mut lanes)
                .inspect_err(|_| gpu.sms = idle_sms(&gpu.cfg))?,
            None => {
                tracer.on_kernel_begin(&kernel.program.name, start_cycle);
                let utilization = vec![Vec::new(); num_sms];
                (LoopState { tb_order: Vec::new(), timeline: Vec::new(), utilization }, 0, 0)
            }
        };
        for (lane, sm) in lanes.iter_mut().zip(&gpu.sms) {
            lane.issued = sm.stats.issued;
        }
        Ok(Engine {
            gpu,
            kernel,
            trace,
            ckpt,
            start_cycle,
            resumed_at: restored.as_ref().map_or(start_cycle, |r| r.meta.cycle),
            lp,
            dispatched,
            outstanding,
            tracer,
            lanes,
            chain: None,
            prof,
            wall_start,
        })
    }

    /// Simulate one cycle — the memory system, every SM in index order,
    /// then the thread block scheduler and Table IV sampling. `Ok(true)`
    /// once the grid has drained.
    fn cycle(&mut self) -> Result<bool, SimError> {
        let Gpu { cfg, sms, mem, gmem, cycle, .. } = &mut *self.gpu;
        let (lp, lanes, tracer) = (&mut self.lp, &mut self.lanes, &mut *self.tracer);
        let (start_cycle, trace) = (self.start_cycle, self.trace);
        let blocks = self.kernel.launch.num_blocks();
        let num_sms = sms.len();
        let now = *cycle;
        let rel = now - start_cycle;
        if rel > cfg.max_cycles {
            let pending = blocks - self.dispatched + self.outstanding;
            return Err(timeout(sms, start_cycle, self.resumed_at, rel, pending));
        }
        let fast_phase = self.dispatched < blocks;
        let mut pt = self.prof.start();

        // The shared memory system ticks, then each SM in index order:
        // its memory half, then its issue half (what `Sm::tick` runs, called
        // apart so the profiler can tell the halves apart). SM by SM, not
        // half by half, keeps each SM's events of a cycle contiguous on
        // the bus. The halves' host time is summed over the SMs and
        // recorded once per cycle.
        mem.tick_traced(now, tracer);
        let mut mem_ns = pt.split().unwrap_or(0);
        let mut issue_ns = 0;
        for (sm, lane) in sms.iter_mut().zip(lanes.iter_mut()) {
            sm.mem_phase(now, mem, tracer);
            mem_ns += pt.split().unwrap_or(0);
            let policy = lane.policy.as_mut();
            sm.issue_phase(now, gmem, mem, policy, fast_phase, &mut lane.report, tracer);
            issue_ns += pt.split().unwrap_or(0);
            let finished = &mut lane.report.finished_tbs;
            if !finished.is_empty() {
                self.outstanding -= finished.len() as u32;
                if trace.timeline {
                    lp.timeline.extend(finished.iter().map(|tb| TbSpan {
                        sm: sm.id,
                        global_index: tb.global_index,
                        start: tb.launched_at - start_cycle,
                        end: rel,
                    }));
                }
                finished.clear();
            }
            // Utilization: what the SM issued this cycle, into this
            // period's bucket of its row.
            if trace.utilization_period > 0 && sm.stats.issued > lane.issued {
                let row = &mut lp.utilization[sm.id as usize];
                let bucket = (rel / trace.utilization_period) as usize;
                if row.len() <= bucket {
                    row.resize(bucket + 1, 0);
                }
                row[bucket] += sm.stats.issued - lane.issued;
                lane.issued = sm.stats.issued;
            }
        }
        if self.prof.enabled() {
            self.prof.record(HostPhase::Mem, mem_ns);
            self.prof.record(HostPhase::Issue, issue_ns);
        }

        // Thread block scheduler: at most one TB per SM per cycle,
        // round-robin over the SMs, starting one SM further each cycle.
        if self.dispatched < blocks {
            let first = (rel % num_sms as u64) as usize;
            for i in (first..num_sms).chain(0..first) {
                if sms[i].can_accept_tb() {
                    let g = self.dispatched;
                    self.dispatched += 1;
                    let fast_after = self.dispatched < blocks;
                    sms[i].launch_tb_traced(g, now, lanes[i].policy.as_mut(), fast_after, tracer);
                    self.outstanding += 1;
                    if !fast_after {
                        break;
                    }
                }
            }
        }

        // Table IV sampling, every `tb_order_period` cycles. This stays a
        // direct policy poll (not a bus subscription): it reads the
        // scheduler's internal priority state, which no event carries.
        let period = trace.tb_order_period;
        if period > 0 && rel > 0 && rel.is_multiple_of(period) {
            let view = sms[0].sched_view(now, fast_phase);
            if let Some(order) = lanes[0].policy.tb_priority_trace(&view) {
                if !order.is_empty() {
                    lp.tb_order.push(TbOrderSnapshot { cycle: rel, order });
                }
            }
        }

        *cycle += 1;
        self.prof.lap(HostPhase::TbSched, &mut pt);
        Ok(self.dispatched == blocks && self.outstanding == 0)
    }

    /// Handle a checkpoint boundary; `Ok(Some(_))` is the pause snapshot.
    fn checkpoint(&mut self, periodic: bool, pause: bool) -> Result<Option<GpuSnapshot>, SimError> {
        // A delta chain, driven purely by the periodic interval: a full base
        // anchors the chain at the first boundary; every other boundary
        // appends only the dirty gmem pages. The capture ends with
        // mark_clean so the next delta starts from this boundary. A pause
        // returns a standalone full snapshot and leaves the chain exactly
        // as the periodic schedule built it — when the pause lands on a
        // periodic boundary, chain tip and pause snapshot describe the same
        // cycle.
        if periodic {
            let dir = self.ckpt.path.as_ref().expect("validated in setup");
            let io = |e: std::io::Error| SimError::CheckpointIo(format!("{}: {e}", dir.display()));
            let link = self.chain.as_ref().map(|(w, prev)| ChainLink {
                sequence: w.next_seq(),
                parent_crc: w.last_crc(),
                prev,
            });
            let (snap, image) = self.capture(link);
            let writer = match self.chain.take() {
                None => ChainWriter::start(dir, &snap).map_err(io)?,
                Some((mut w, _)) => {
                    w.append(&snap).map_err(io)?;
                    w
                }
            };
            self.chain = Some((writer, image));
            self.gpu.gmem.mark_clean();
        }
        Ok(pause.then(|| self.capture(None).0))
    }

    /// The grid has drained: emit kernel-end and fold the per-SM counters,
    /// traces and (when profiled) `host/*` gauges into the result.
    fn teardown(self) -> RunResult {
        let gpu = &*self.gpu;
        let cycles = gpu.cycle - self.start_cycle;
        self.tracer.on_kernel_end(&self.kernel.program.name, gpu.cycle, cycles);
        // Equal-length utilization rows (ragged tails zero-padded).
        let LoopState { tb_order, timeline, mut utilization } = self.lp;
        let width = utilization.iter().map(Vec::len).max().unwrap_or(0);
        for row in &mut utilization {
            row.resize(width, 0);
        }
        let per_sm: Vec<SmStats> = gpu.sms.iter().map(|sm| sm.stats).collect();
        let mut agg = SmStats::default();
        for s in &per_sm {
            agg.merge(s);
        }
        let mut result = RunResult {
            kernel: self.kernel.program.name.clone(),
            scheduler: self.lanes.first().map_or("", |l| l.policy.name()),
            cycles,
            sm: agg,
            per_sm,
            mem: gpu.mem.stats(),
            timeline,
            tb_order,
            utilization,
            metrics: Default::default(),
        };
        result.snapshot_metrics();
        if self.trace.host_prof {
            self.prof.publish(&mut result.metrics);
            gpu.mem.queue_prof().publish(&mut result.metrics);
            let mut lsu_hwm = 0u64;
            let mut lsu_depth = Hist16::new();
            let mut issue = IssueProf::default();
            for sm in &gpu.sms {
                let (hwm, depth) = sm.lsu_prof();
                lsu_hwm = lsu_hwm.max(hwm);
                lsu_depth.merge(depth);
                issue.add(&sm.issue_prof());
            }
            result.metrics.set_counter("host/sm.lsuq.hwm", lsu_hwm);
            result.metrics.set_hist("host/sm.lsuq.depth", lsu_depth);
            issue.publish(&mut result.metrics);
            result
                .metrics
                .set_counter("host/wall.ns", self.wall_start.elapsed().as_nanos() as u64);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::snapshot::config_identity;
    use super::*;
    use pro_isa::{Instr, LaunchConfig, ProgramBuilder, Src};
    use pro_trace::{ClassSet, Event, EventClass, Record, RingTracer};

    fn store_tid_kernel(blocks: u32, threads: u32, out_base: u64) -> Kernel {
        let mut b = ProgramBuilder::new("store_tid");
        let g = b.reg();
        let a = b.reg();
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.st_global(g, a, 0);
        b.exit();
        Kernel::new(
            b.build().unwrap(),
            LaunchConfig::linear(blocks, threads),
            vec![out_base as u32],
        )
    }

    #[test]
    fn config_identity_ignores_sm_workers() {
        let with = |sm_workers| GpuConfig { sm_workers, ..GpuConfig::small(4) };
        assert_eq!(config_identity(&with(1)), config_identity(&with(4)));
        assert_ne!(config_identity(&with(1)), config_identity(&GpuConfig::small(2)));
    }

    #[test]
    fn grid_larger_than_gpu_completes_and_is_correct() {
        let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 22);
        let out = gpu.gmem.alloc(64 * 128 * 4);
        let k = store_tid_kernel(64, 128, out);
        let r = gpu
            .launch(&k, SchedulerKind::Lrr, TraceOptions::default())
            .unwrap();
        assert!(r.cycles > 0);
        for i in 0..(64 * 128) as u64 {
            assert_eq!(gpu.gmem.read(out + i * 4), i as u32, "thread {i}");
        }
        assert_eq!(r.sm.instructions, 64 * 4 * 4); // 64 TBs x 4 warps x 4 instrs
    }

    #[test]
    fn all_schedulers_produce_identical_memory_contents() {
        let mut reference: Option<Vec<u32>> = None;
        for kind in SchedulerKind::ALL {
            let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 22);
            let out = gpu.gmem.alloc(32 * 64 * 4);
            let k = store_tid_kernel(32, 64, out);
            gpu.launch(&k, kind, TraceOptions::default()).unwrap();
            let snap = gpu.gmem.read_slice(out, 32 * 64);
            match &reference {
                None => reference = Some(snap),
                Some(r) => assert_eq!(r, &snap, "{kind} diverged functionally"),
            }
        }
    }

    #[test]
    fn timeline_trace_covers_every_tb() {
        let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 22);
        let out = gpu.gmem.alloc(24 * 64 * 4);
        let k = store_tid_kernel(24, 64, out);
        let r = gpu
            .launch(
                &k,
                SchedulerKind::Pro,
                TraceOptions {
                    timeline: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.timeline.len(), 24);
        for span in &r.timeline {
            assert!(span.end > span.start);
        }
        let mut seen: Vec<u32> = r.timeline.iter().map(|s| s.global_index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn tb_order_trace_is_recorded_for_pro() {
        let mut gpu = Gpu::new(GpuConfig::small(1), 1 << 22);
        let out = gpu.gmem.alloc(16 * 256 * 4);
        // Longer kernel so multiple 100-cycle samples land.
        let mut b = ProgramBuilder::new("loopy");
        let g = b.reg();
        let a = b.reg();
        let i = b.reg();
        let acc = b.reg();
        let p = b.pred();
        b.global_tid(g);
        b.mov(acc, Src::Imm(0));
        b.for_loop(i, Src::Imm(0), Src::Imm(50), p, |b, i| {
            b.iadd(acc, acc, Src::Reg(i));
        });
        b.buf_addr(a, 0, g, 0);
        b.st_global(acc, a, 0);
        b.exit();
        let k = Kernel::new(
            b.build().unwrap(),
            LaunchConfig::linear(16, 256),
            vec![out as u32],
        );
        let r = gpu
            .launch(
                &k,
                SchedulerKind::Pro,
                TraceOptions {
                    tb_order_period: 100,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            r.tb_order.len() >= 3,
            "expected several snapshots, got {}",
            r.tb_order.len()
        );
        // Snapshots list distinct global indices.
        for snap in &r.tb_order {
            let mut o = snap.order.clone();
            o.sort_unstable();
            o.dedup();
            assert_eq!(o.len(), snap.order.len());
        }
    }

    #[test]
    fn lrr_has_no_tb_order_trace() {
        let mut gpu = Gpu::new(GpuConfig::small(1), 1 << 22);
        let out = gpu.gmem.alloc(8 * 64 * 4);
        let k = store_tid_kernel(8, 64, out);
        let r = gpu
            .launch(
                &k,
                SchedulerKind::Lrr,
                TraceOptions {
                    tb_order_period: 10,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(r.tb_order.is_empty());
    }

    #[test]
    fn sequential_launches_share_global_memory() {
        let mut gpu = Gpu::new(GpuConfig::small(1), 1 << 22);
        let out = gpu.gmem.alloc(64 * 4);
        let k1 = store_tid_kernel(1, 64, out);
        gpu.launch(&k1, SchedulerKind::Gto, TraceOptions::default())
            .unwrap();
        // Second kernel doubles the first kernel's output in place.
        let mut b = ProgramBuilder::new("double");
        let g = b.reg();
        let a = b.reg();
        let v = b.reg();
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.ld_global(v, a, 0);
        b.iadd(v, v, Src::Reg(v));
        b.st_global(v, a, 0);
        b.exit();
        let k2 = Kernel::new(
            b.build().unwrap(),
            LaunchConfig::linear(1, 64),
            vec![out as u32],
        );
        gpu.launch(&k2, SchedulerKind::Gto, TraceOptions::default())
            .unwrap();
        for i in 0..64u64 {
            assert_eq!(gpu.gmem.read(out + i * 4), (i * 2) as u32);
        }
    }

    /// A 16-TB store kernel under GTO on `gpu`, which allocates its output
    /// first.
    fn store_tid_run(gpu: &mut Gpu) -> RunResult {
        let k = store_tid_kernel(16, 256, gpu.gmem.alloc(16 * 256 * 4));
        gpu.launch(&k, SchedulerKind::Gto, TraceOptions::default()).unwrap()
    }

    /// The live warps of a launch that timed out.
    fn timed_out(err: SimError) -> Vec<WarpDump> {
        match err {
            SimError::Timeout { stuck, .. } => stuck.warps,
            other => panic!("wanted a timeout, got {other}"),
        }
    }

    /// The last progress cycle a timeout names.
    fn last_progress(err: &SimError) -> u64 {
        match err {
            SimError::Timeout { last_progress, .. } => *last_progress,
            other => panic!("wanted a timeout, got {other}"),
        }
    }

    /// `k` on a fresh `cfg` GPU under LRR, which must time out, with its
    /// issues and barrier events recorded: the error, and the cycle of the
    /// first issue at `spin_pc`.
    fn spin_until_timeout(cfg: GpuConfig, k: &Kernel, spin_pc: u32) -> (SimError, u64, Vec<Record>) {
        let mut ring = RingTracer::with_classes(1 << 16, ClassSet::of(&[EventClass::Issue, EventClass::Barrier]));
        let run = Run { tracer: Some(&mut ring), ..Run::new(SchedulerKind::Lrr) };
        let err = Gpu::new(cfg, 1 << 20).run(k, run).unwrap_err();
        let records: Vec<Record> = ring.records().collect();
        let spin_began = records
            .iter()
            .find_map(|r| matches!(r.event, Event::WarpIssue { pc, .. } if pc == spin_pc).then_some(r.cycle))
            .expect("the spin never issued");
        (err, spin_began, records)
    }

    #[test]
    fn deadlock_guard_times_out() {
        let cfg = GpuConfig {
            max_cycles: 500,
            ..GpuConfig::small(1)
        };
        let mut gpu = Gpu::new(cfg, 1 << 20);
        // Infinite loop kernel: `nop` at pc 0, the branch back at pc 1.
        let mut b = ProgramBuilder::new("hang");
        let top = b.new_label();
        let l2 = b.new_label();
        b.place(top);
        b.nop();
        b.place(l2);
        b.bra(None, top, l2);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 64), vec![]);
        let err = gpu
            .launch(&k, SchedulerKind::Lrr, TraceOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("(SM 0, warp slot 1) TB 0 at pc"), "{err}");
        // Both warps of the one TB, each inside the loop.
        let warps = timed_out(err.clone());
        let named: Vec<_> = warps.iter().map(|w| (w.sm, w.slot, w.tb)).collect();
        assert_eq!(named, [(0, 0, 0), (0, 1, 0)]);
        assert!(warps.iter().all(|w| w.pc <= 1 && w.simt_depth == 1 && !w.at_barrier), "{warps:?}");
        // Each spinning warp waits on the fetch its last issue started.
        assert!(warps.iter().all(|w| w.issue == Some(pro_sm::WarpIssue::Fetching)), "{warps:?}");
        assert!(err.to_string().contains("(SM 0, warp slot 0) TB 0 at pc 0, SIMT depth 1, fetching\n"), "{err}");
        // The loop is all the kernel runs: nothing progressed after the
        // launch's first cycle, which is before the spin's first issue.
        let (traced, spin_began, _) = spin_until_timeout(cfg, &k, 0);
        assert_eq!(traced, err);
        assert!(last_progress(&err) < spin_began, "{err}");
        assert!(err.to_string().contains("; last progress at cycle 0;"), "{err}");
        // A run paused on the way and resumed stops at the same cycle with
        // the same dump; it knows no progress before its resume.
        let ckpt = CheckpointOptions { pause_at: 200, ..Default::default() };
        let mut paused = Gpu::new(cfg, 1 << 20);
        let Ok(LaunchStatus::Paused(snap)) =
            paused.launch_checkpointed(&k, SchedulerKind::Lrr, TraceOptions::default(), &ckpt)
        else {
            panic!("wanted a pause");
        };
        let resumed = paused.resume(&snap, &k, SchedulerKind::Lrr, TraceOptions::default(), &CheckpointOptions::default());
        let SimError::Timeout { at_cycle, stuck, .. } = err.clone() else { unreachable!() };
        let as_resumed = SimError::Timeout { at_cycle, last_progress: 200, stuck };
        assert_eq!(resumed.unwrap_err(), as_resumed);
        // The hung TB is still resident: the next launch starts from idle
        // SMs, and takes a fresh GPU's cycles. (Its ready-warp samples fall
        // on other cycles of the global clock, which goes on.)
        let fresh = store_tid_run(&mut Gpu::new(cfg, 1 << 20));
        assert_eq!(store_tid_run(&mut gpu).cycles, fresh.cycles);
    }

    #[test]
    fn a_spin_on_a_flag_nothing_writes_names_its_last_progress() {
        let cfg = GpuConfig {
            max_cycles: 5_000,
            ..GpuConfig::small(1)
        };
        // Every thread stores its id (a word changes), the TB meets at a
        // barrier (it opens), then each warp spins loading a flag that
        // nothing writes.
        let mut gpu = Gpu::new(cfg, 1 << 20);
        let (out, flag) = (gpu.gmem.alloc(128 * 4), gpu.gmem.alloc(4));
        let mut b = ProgramBuilder::new("spin_on_flag");
        let (tid, addr, value, zero) = (b.reg(), b.reg(), b.reg(), b.reg());
        let unset = b.pred();
        let (spin, done) = (b.new_label(), b.new_label());
        b.global_tid(tid);
        b.buf_addr(addr, 0, tid, 0);
        b.st_global(tid, addr, 0);
        b.bar();
        b.mov(zero, Src::Imm(0));
        b.buf_addr(addr, 1, zero, 0);
        b.place(spin);
        b.ld_global(value, addr, 0);
        b.setp(pro_isa::CmpOp::Eq, pro_isa::Ty::U32, unset, value, Src::Imm(0));
        b.bra(Some(pro_isa::inst::Guard { pred: unset, expect: true }), spin, done);
        b.place(done);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 128), vec![out as u32, flag as u32]);
        let spin_pc = k.program.instrs.iter().position(|i| matches!(i, Instr::Ld { .. })).unwrap() as u32;
        let (err, spin_began, records) = spin_until_timeout(cfg, &k, spin_pc);
        // The barrier's release is the last progress, before the spin.
        let released = records.iter().rev().find(|r| matches!(r.event, Event::BarrierRelease { .. })).unwrap();
        assert_eq!(last_progress(&err), released.cycle, "{err}");
        assert!(0 < released.cycle && released.cycle < spin_began, "{err}");
        assert_eq!(timed_out(err).len(), 4);
    }

    #[test]
    fn a_timeout_names_the_warps_parked_at_the_barrier() {
        let cfg = GpuConfig {
            max_cycles: 500,
            ..GpuConfig::small(1)
        };
        // Warp 0 spins at pcs 4-5; warps 1-3 reach `bar.sync` at pc 3,
        // which cannot open while warp 0 has not arrived.
        let mut b = ProgramBuilder::new("spin_at_barrier");
        let (warp, first) = (b.reg(), b.pred());
        let (spin, back, end) = (b.new_label(), b.new_label(), b.new_label());
        b.mov(warp, Src::Special(pro_isa::Special::WarpId));
        b.setp(pro_isa::CmpOp::Eq, pro_isa::Ty::S32, first, warp, Src::Imm(0));
        b.bra(Some(pro_isa::inst::Guard { pred: first, expect: true }), spin, end);
        b.bar();
        b.bra(None, end, end);
        b.place(spin);
        b.nop();
        b.place(back);
        b.bra(None, spin, back);
        b.place(end);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 128), vec![]);
        let err = Gpu::new(cfg, 1 << 20).launch(&k, SchedulerKind::Gto, TraceOptions::default()).unwrap_err();
        let warps = timed_out(err);
        let seen: Vec<_> = warps.iter().map(|w| (w.slot, w.at_barrier)).collect();
        assert_eq!(seen, [(0, false), (1, true), (2, true), (3, true)]);
        assert!((5..=6).contains(&warps[0].pc), "{:?}", warps[0]);
        assert!(warps[1..].iter().all(|w| w.pc == 4), "{warps:?}");
    }

    #[test]
    fn a_timeout_prints_eight_warps_and_counts_the_rest() {
        let issue = |slot| (slot != 0).then_some(pro_sm::WarpIssue::SbWait);
        let warp = |slot| WarpDump { sm: 1, slot, tb: 7, pc: 3, simt_depth: 2, at_barrier: slot == 0, pending: pro_sm::WriteSet { regs: 0b1010, preds: 1 }, issue: issue(slot) };
        let stuck = Box::new(Stuck { pending_tbs: 1, warps: (0..11).map(warp).collect() });
        let err = SimError::Timeout { at_cycle: 9, last_progress: 4, stuck };
        let text = err.to_string();
        assert!(text.starts_with("simulation exceeded 9 cycles with 1 TBs outstanding; last progress at cycle 4; 11 live warps\n"), "{text}");
        assert!(text.contains("\n  (SM 1, warp slot 0) TB 7 at pc 3, SIMT depth 2, at the barrier, waiting on r1 r3 p0\n"), "{text}");
        assert!(text.contains("\n  (SM 1, warp slot 1) TB 7 at pc 3, SIMT depth 2, refused by the scoreboard, waiting on r1 r3 p0\n"), "{text}");
        assert!(text.contains("(SM 1, warp slot 7)") && !text.contains("warp slot 8"), "{text}");
        assert!(text.ends_with("\n  and 3 more"), "{text}");
        // The dump rides behind one pointer: the error is no wider for it.
        assert_eq!(std::mem::size_of::<SimError>(), 32);
    }

    #[test]
    fn a_paused_gpu_launches_and_resumes_from_idle_sms() {
        let cfg = GpuConfig::small(1);
        let base = store_tid_run(&mut Gpu::new(cfg, 1 << 22));
        let ckpt = CheckpointOptions { pause_at: base.cycles / 2, ..Default::default() };
        let paused = |gpu: &mut Gpu| {
            let k = store_tid_kernel(16, 256, gpu.gmem.alloc(16 * 256 * 4));
            match gpu.launch_checkpointed(&k, SchedulerKind::Gto, TraceOptions::default(), &ckpt) {
                Ok(LaunchStatus::Paused(snap)) => (k, snap),
                other => panic!("wanted a pause, got {other:?}"),
            }
        };
        // A launch after a pause.
        let mut gpu = Gpu::new(cfg, 1 << 22);
        paused(&mut gpu);
        assert_eq!(store_tid_run(&mut gpu).cycles, base.cycles);
        // The pause resumed on the GPU that took it: the straight run.
        let mut gpu = Gpu::new(cfg, 1 << 22);
        let (k, snap) = paused(&mut gpu);
        let no_ckpt = CheckpointOptions::default();
        let r = gpu.resume(&snap, &k, SchedulerKind::Gto, TraceOptions::default(), &no_ckpt).unwrap();
        assert_eq!(r.expect_completed(), base);
        let out = gpu.gmem.read_slice(k.params[0].into(), 16 * 256);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn utilization_sampling_captures_issue_rates() {
        let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 22);
        let out = gpu.gmem.alloc(32 * 64 * 4);
        let k = store_tid_kernel(32, 64, out);
        let r = gpu
            .launch(
                &k,
                SchedulerKind::Lrr,
                TraceOptions {
                    utilization_period: 20,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.utilization.len(), 2, "one row per SM");
        let samples = r.utilization[0].len();
        assert!(samples >= 2, "several intervals sampled: {samples}");
        // Totals are bounded by issued instructions per SM.
        for (i, row) in r.utilization.iter().enumerate() {
            let total: u64 = row.iter().sum();
            assert!(total <= r.per_sm[i].issued);
        }
        // And at least one interval actually issued something.
        assert!(r.utilization.iter().flatten().any(|&v| v > 0));
    }

    #[test]
    fn per_sm_stats_sum_to_aggregate() {
        let mut gpu = Gpu::new(GpuConfig::small(4), 1 << 22);
        let out = gpu.gmem.alloc(32 * 64 * 4);
        let k = store_tid_kernel(32, 64, out);
        let r = gpu
            .launch(&k, SchedulerKind::Tl, TraceOptions::default())
            .unwrap();
        let sum: u64 = r.per_sm.iter().map(|s| s.instructions).sum();
        assert_eq!(sum, r.sm.instructions);
        assert_eq!(r.per_sm.len(), 4);
    }
}
