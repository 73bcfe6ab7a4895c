//! The whole-GPU model: SM array, global thread block scheduler (the "work
//! distribution engine" of §I), shared memory hierarchy, and the run loop
//! that executes a kernel grid to completion.
//!
//! # In-order cycle
//!
//! Each simulated cycle ticks the shared [`MemSubsystem`], then every SM
//! in SM-index order (`Sm::tick_traced`: its memory half, then its issue
//! half), then the thread block scheduler. SMs meet only in the memory
//! system and in global memory, and both are touched in that one order:
//! the memory system's sequence counter advances SM by SM, and a global
//! store is visible to every access issued after it — the SM's other
//! scheduler unit and the higher-indexed SMs in the same cycle, everyone
//! from the next cycle on (DESIGN.md §11).

use crate::checkpoint::{
    ChainWriter, CheckpointOptions, GpuSnapshot, LaunchStatus, ProgressEvent, SnapshotChain,
};
use crate::result::{RunResult, TbOrderSnapshot, TbSpan};
use pro_core::bdelta;
use pro_core::codec::{
    CodecError, ContainerKind, DeltaSnapshot, FileReader, FileWriter, Reader, Snapshot, Writer,
};
use pro_core::{SchedulerKind, WarpScheduler};
use pro_isa::Kernel;
use pro_mem::{GlobalMem, MemConfig, MemSubsystem};
use pro_sm::{IssueTable, Sm, SmConfig, SmStats, TickReport};
use pro_trace::{
    Event as TraceEvent, EventClass, Hist16, HostPhase, HostProf, IssueProf, NoopTracer, Tracer,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Snapshot container section ids (see `DESIGN.md` §12).
const SEC_META: u32 = 1;
const SEC_LOOP: u32 = 2;
const SEC_GMEM: u32 = 3;
const SEC_MEM: u32 = 4;
/// Delta containers carry this instead of [`SEC_GMEM`]: only the pages
/// written since the previous capture in the chain.
const SEC_GMEM_DELTA: u32 = 5;
/// Per-SM sections live at `SEC_SM_BASE + sm_index`.
const SEC_SM_BASE: u32 = 10;

/// Whole-GPU configuration (defaults = the paper's Table I).
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Number of SMs (Table I: 14).
    pub num_sms: u32,
    /// Per-SM microarchitecture.
    pub sm: SmConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Abort threshold for the run loop (simulator-bug guard).
    pub max_cycles: u64,
    /// Inert: the worker-thread engine this once sized is gone and nothing
    /// reads the value. The field stays so existing struct literals keep
    /// compiling and the `Debug`-derived snapshot identity string (see
    /// `config_identity`, which zeroes it) keeps its bytes.
    pub sm_workers: usize,
}

impl GpuConfig {
    /// NVIDIA Fermi GTX480 as configured in the paper (Table I).
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 14,
            sm: SmConfig::gtx480(),
            mem: MemConfig::gtx480(),
            max_cycles: 200_000_000,
            sm_workers: 1,
        }
    }

    /// A scaled-down GPU for fast unit/integration tests: 2 SMs, otherwise
    /// Fermi-like.
    pub fn small(num_sms: u32) -> Self {
        GpuConfig {
            num_sms,
            ..Self::gtx480()
        }
    }
}

/// Optional measurement hooks for a launch.
///
/// `timeline` and `utilization_period` are implemented as subscriptions on
/// the `pro-trace` event bus (TB launch/complete and warp-issue events);
/// `tb_order` polls the policy directly since it reads scheduler *state*,
/// which no event carries. External subscribers attach via
/// [`Gpu::launch_traced`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceOptions {
    /// Record each TB's (SM, start, end) — regenerates Fig. 2.
    pub timeline: bool,
    /// Record the policy's TB priority order on SM `sm` every `period`
    /// cycles — regenerates Table IV. `period = 0` disables.
    pub tb_order_sm: u32,
    /// Sampling period for `tb_order_sm` (0 = off).
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

/// Internal bus subscriber that rebuilds the classic `RunResult` traces
/// (timeline, utilization) from events and forwards everything to the
/// user's tracer.
struct Recorder<'a> {
    user: &'a mut dyn Tracer,
    start_cycle: u64,
    timeline_on: bool,
    starts: HashMap<(u32, u32), u64>,
    timeline: Vec<TbSpan>,
    util_period: u64,
    util: Vec<Vec<u64>>,
}

impl<'a> Recorder<'a> {
    fn new(user: &'a mut dyn Tracer, opts: &TraceOptions, start_cycle: u64, num_sms: usize) -> Self {
        Recorder {
            user,
            start_cycle,
            timeline_on: opts.timeline,
            starts: HashMap::new(),
            timeline: Vec::new(),
            util_period: opts.utilization_period,
            util: vec![Vec::new(); num_sms],
        }
    }

    /// Equal-length utilization rows (ragged tails zero-padded).
    fn finish_util(mut self) -> (Vec<TbSpan>, Vec<Vec<u64>>) {
        let width = self.util.iter().map(Vec::len).max().unwrap_or(0);
        for row in &mut self.util {
            row.resize(width, 0);
        }
        (self.timeline, self.util)
    }

    /// Serialize the recorder's accumulated *data* (not its subscriptions,
    /// which are rebuilt from `TraceOptions` on resume). The in-flight TB
    /// starts map is written in sorted key order for canonical bytes.
    fn save_state(&self, w: &mut Writer) {
        let mut starts: Vec<(u32, u32, u64)> = self
            .starts
            .iter()
            .map(|(&(sm, tb), &c)| (sm, tb, c))
            .collect();
        starts.sort_unstable();
        starts.save(w);
        self.timeline.save(w);
        self.util.save(w);
    }

    /// Restore data written by [`Recorder::save_state`] into a freshly
    /// constructed recorder of the same geometry. The container records no
    /// trace options, so a `timeline` option that differs from the paused
    /// launch's is recognised by the data: with it on there is a start for
    /// each of the `outstanding` TBs, with it off there is no span at all.
    fn load_state(&mut self, r: &mut Reader<'_>, outstanding: u32) -> Result<(), CodecError> {
        let starts: Vec<(u32, u32, u64)> = Snapshot::load(r)?;
        self.starts = starts.into_iter().map(|(sm, tb, c)| ((sm, tb), c)).collect();
        self.timeline = Snapshot::load(r)?;
        let fits = if self.timeline_on {
            self.starts.len() == outstanding as usize
        } else {
            self.starts.is_empty() && self.timeline.is_empty()
        };
        if !fits {
            let on = self.timeline_on;
            return Err(CodecError::Mismatch(format!("snapshot was not taken with `timeline: {on}`")));
        }
        let util: Vec<Vec<u64>> = Snapshot::load(r)?;
        if util.len() != self.util.len() {
            return Err(CodecError::BadValue("utilization row count"));
        }
        self.util = util;
        Ok(())
    }
}

impl Tracer for Recorder<'_> {
    fn enabled(&self) -> bool {
        self.timeline_on || self.util_period > 0 || self.user.enabled()
    }

    fn wants(&self, class: EventClass) -> bool {
        (self.timeline_on && class == EventClass::Tb)
            || (self.util_period > 0 && class == EventClass::Issue)
            || self.user.wants(class)
    }

    fn emit(&mut self, cycle: u64, ev: &TraceEvent) {
        match *ev {
            TraceEvent::TbLaunch { sm, global_index, .. } if self.timeline_on => {
                self.starts.insert((sm, global_index), cycle);
            }
            TraceEvent::TbComplete { sm, global_index, .. } if self.timeline_on => {
                let start = self
                    .starts
                    .remove(&(sm, global_index))
                    .expect("TbComplete without TbLaunch");
                self.timeline.push(TbSpan {
                    sm,
                    global_index,
                    start: start - self.start_cycle,
                    end: cycle - self.start_cycle,
                });
            }
            TraceEvent::WarpIssue { sm, .. } if self.util_period > 0 => {
                let bucket = ((cycle - self.start_cycle) / self.util_period) as usize;
                let row = &mut self.util[sm as usize];
                if row.len() <= bucket {
                    row.resize(bucket + 1, 0);
                }
                row[bucket] += 1;
            }
            _ => {}
        }
        if self.user.wants(ev.class()) {
            self.user.emit(cycle, ev);
        }
    }

    fn on_kernel_begin(&mut self, name: &str, cycle: u64) {
        self.user.on_kernel_begin(name, cycle);
    }

    fn on_kernel_end(&mut self, name: &str, cycle: u64, cycles: u64) {
        self.user.on_kernel_end(name, cycle, cycles);
    }
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run loop exceeded `max_cycles` — a deadlock or runaway kernel.
    Timeout {
        /// Cycle count reached.
        at_cycle: u64,
        /// TBs still unfinished.
        pending_tbs: u32,
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
            SimError::Timeout { at_cycle, pending_tbs } => write!(
                f,
                "simulation exceeded {at_cycle} cycles with {pending_tbs} TBs outstanding"
            ),
            SimError::CheckpointIo(why) => write!(f, "checkpoint write failed: {why}"),
            SimError::Snapshot(e) => write!(f, "cannot resume from snapshot: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

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
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("num_sms", &self.cfg.num_sms)
            .field("cycle", &self.cycle)
            .finish()
    }
}

/// Per-SM policy factory for a built-in [`SchedulerKind`] on a machine with
/// SM configuration `sm`.
fn kind_factory(sm: SmConfig, scheduler: SchedulerKind) -> impl FnMut() -> Box<dyn WarpScheduler> {
    move || scheduler.build(sm.max_warps, sm.max_tbs, sm.units)
}

impl Gpu {
    /// Build a GPU with `gmem_bytes` of device memory.
    pub fn new(cfg: GpuConfig, gmem_bytes: u64) -> Self {
        Gpu {
            sms: (0..cfg.num_sms).map(|i| Sm::new(i, cfg.sm)).collect(),
            mem: MemSubsystem::new(cfg.mem, cfg.num_sms as usize),
            gmem: GlobalMem::new(gmem_bytes),
            cycle: 0,
            cfg,
        }
    }

    /// The GPU's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current global cycle (monotonic across launches).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Run `kernel` to completion under `scheduler`, collecting statistics
    /// and optional traces.
    ///
    /// A fresh policy instance is built per launch: hardware scheduler
    /// state drains with the grid anyway, and PRO's fast/slow phase latch
    /// is per-kernel by definition (§III).
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
    ) -> Result<RunResult, SimError> {
        self.launch_traced(kernel, scheduler, trace, &mut NoopTracer)
    }

    /// [`Gpu::launch`] with an external [`Tracer`] subscribed to the event
    /// bus for the whole run (issue/stall, scoreboard, barrier, SIMT, TB
    /// and memory-lifecycle events). Kernel boundaries arrive via
    /// `Tracer::on_kernel_begin` / `on_kernel_end`.
    pub fn launch_traced(
        &mut self,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<RunResult, SimError> {
        let ckpt = CheckpointOptions::default();
        self.launch_checkpointed_traced(kernel, scheduler, trace, &ckpt, tracer)
            .map(LaunchStatus::expect_completed)
    }

    /// Like [`Gpu::launch`] but with an arbitrary policy factory — used for
    /// parameter sweeps (e.g. PRO's THRESHOLD) and custom schedulers that
    /// have no [`SchedulerKind`]. The factory is called once per SM.
    pub fn launch_custom(
        &mut self,
        kernel: &Kernel,
        factory: &mut dyn FnMut() -> Box<dyn pro_core::WarpScheduler>,
        trace: TraceOptions,
    ) -> Result<RunResult, SimError> {
        self.run(kernel, factory, trace, &mut NoopTracer, &CheckpointOptions::default(), None)
            .map(LaunchStatus::expect_completed)
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
        self.launch_checkpointed_traced(kernel, scheduler, trace, ckpt, &mut NoopTracer)
    }

    /// [`Gpu::launch_checkpointed`] with an external [`Tracer`] on the bus.
    pub fn launch_checkpointed_traced(
        &mut self,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        ckpt: &CheckpointOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<LaunchStatus, SimError> {
        let mut factory = kind_factory(self.cfg.sm, scheduler);
        self.run(kernel, &mut factory, trace, tracer, ckpt, None)
    }

    /// Continue a paused or checkpointed launch from `snapshot`.
    ///
    /// The GPU, `kernel`, `scheduler` and `trace` must match the original
    /// launch. The snapshot carries the identities of the first three and
    /// refuses a mismatch; of `trace` it records nothing, and refuses a
    /// `timeline` setting its TB spans contradict. `ckpt` may differ — e.g.
    /// resume with a new pause point.
    /// The continuation is bit-identical to the uninterrupted run: same
    /// counters, same stall attribution, same trace bytes.
    pub fn resume(
        &mut self,
        snapshot: &GpuSnapshot,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        ckpt: &CheckpointOptions,
    ) -> Result<LaunchStatus, SimError> {
        self.resume_traced(snapshot, kernel, scheduler, trace, ckpt, &mut NoopTracer)
    }

    /// [`Gpu::resume`] with an external [`Tracer`] on the bus. The tracer
    /// sees events from the resume point on; `on_kernel_begin` is *not*
    /// re-emitted, so concatenating the pre-pause and post-resume streams
    /// reproduces the uninterrupted stream byte for byte.
    pub fn resume_traced(
        &mut self,
        snapshot: &GpuSnapshot,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        ckpt: &CheckpointOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<LaunchStatus, SimError> {
        let mut factory = kind_factory(self.cfg.sm, scheduler);
        let from = Some(ResumeSource::Full(snapshot));
        self.run(kernel, &mut factory, trace, tracer, ckpt, from)
    }

    /// Continue a launch from a delta-checkpoint chain: the base snapshot's
    /// global memory with every delta's dirty pages folded in, and all
    /// other state from the newest container. Identity checks, the
    /// bit-identical guarantee and the `tracer` contract are the same as
    /// [`Gpu::resume_traced`] (pass `&mut NoopTracer` for none). When
    /// `ckpt` points delta checkpointing at the chain's own directory, the
    /// resumed run *continues* the chain (appending deltas after the ones
    /// it restored) instead of starting a new one.
    pub fn resume_chain(
        &mut self,
        chain: &SnapshotChain,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        ckpt: &CheckpointOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<LaunchStatus, SimError> {
        let mut factory = kind_factory(self.cfg.sm, scheduler);
        let from = Some(ResumeSource::Chain(chain));
        self.run(kernel, &mut factory, trace, tracer, ckpt, from)
    }

    /// Every launch and resume method lands here: set the [`Engine`] up
    /// (restoring `resume` if given), step it one cycle at a time, stop at
    /// checkpoint boundaries, and tear it down into a [`RunResult`].
    fn run(
        &mut self,
        kernel: &Kernel,
        factory: &mut dyn FnMut() -> Box<dyn WarpScheduler>,
        trace: TraceOptions,
        tracer: &mut dyn Tracer,
        ckpt: &CheckpointOptions,
        resume: Option<ResumeSource<'_>>,
    ) -> Result<LaunchStatus, SimError> {
        let mut eng = Engine::setup(self, kernel, factory, trace, tracer, ckpt, resume)?;
        // Initial fill happens inside the loop (1 TB per SM per cycle),
        // mirroring the hardware work distributor.
        while !eng.cycle()? {
            // Checkpoint boundary: between two cycles, the one point where
            // the simulator's state is closed under snapshot.
            let rel_after = eng.gpu.cycle - eng.start_cycle;
            let pause = ckpt.pause_at > 0 && rel_after >= ckpt.pause_at;
            let periodic = ckpt.every > 0 && rel_after.is_multiple_of(ckpt.every);
            if pause || periodic {
                let mut st = eng.prof.start();
                let paused = eng.checkpoint(periodic, pause)?;
                eng.prof.lap(HostPhase::SnapshotWrite, &mut st);
                if let Some(snap) = paused {
                    // Paused mid-grid: no kernel-end event (the resumed run
                    // emits it), no result — the snapshot is the
                    // deliverable. The GPU itself also holds the paused
                    // state and could continue.
                    return Ok(LaunchStatus::Paused(snap));
                }
            }
            // Heartbeat boundary: purely observational, decoupled from
            // checkpointing so a sweep is watchable without snapshots.
            if ckpt.progress_every > 0 && rel_after.is_multiple_of(ckpt.progress_every) {
                if let Some(cb) = &ckpt.progress {
                    cb(ProgressEvent {
                        cycles: rel_after,
                        checkpointed: (pause || periodic) && ckpt.path.is_some(),
                    });
                }
            }
        }
        Ok(LaunchStatus::Completed(eng.teardown()))
    }
}

/// Prior state handed to [`Gpu::run`]: one full snapshot, or a validated
/// base+deltas chain whose gmem gets folded base-then-deltas.
enum ResumeSource<'a> {
    Full(&'a GpuSnapshot),
    Chain(&'a SnapshotChain),
}

/// The per-launch state of one SM that lives outside the [`Sm`] itself.
struct Lane {
    policy: Box<dyn WarpScheduler>,
    report: TickReport,
}

/// Run-loop bookkeeping: the thread block scheduler's queue and cursor,
/// and the Table IV sample accumulator. Its encoding, followed by the
/// [`Recorder`]'s data, is snapshot section [`SEC_LOOP`].
struct LoopState {
    /// TBs not yet handed to an SM, in launch order.
    pending: VecDeque<u32>,
    /// TBs launched but unfinished.
    outstanding: u32,
    /// Where the TB scheduler's round-robin over SMs starts this cycle.
    rr_next_sm: usize,
    tb_order: Vec<TbOrderSnapshot>,
    last_order_sample: u64,
}

impl LoopState {
    fn fresh(total_tbs: u32, start_cycle: u64) -> Self {
        LoopState {
            pending: (0..total_tbs).collect(),
            outstanding: 0,
            rr_next_sm: 0,
            tb_order: Vec::new(),
            last_order_sample: start_cycle,
        }
    }

    fn save(&self, w: &mut Writer) {
        self.pending.save(w);
        w.put_u32(self.outstanding);
        w.put_usize(self.rr_next_sm);
        self.tb_order.save(w);
        w.put_u64(self.last_order_sample);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(LoopState {
            pending: Snapshot::load(r)?,
            outstanding: r.get_u32()?,
            rr_next_sm: r.get_usize()?,
            tb_order: Snapshot::load(r)?,
            last_order_sample: r.get_u64()?,
        })
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
    lp: LoopState,
    /// The bus: classic timeline/utilization traces are rebuilt from TB
    /// and issue events; the user tracer sees everything it asked for.
    recorder: Recorder<'a>,
    /// `recorder.enabled()`, hoisted: one check per launch, not per cycle.
    bus_on: bool,
    /// One per SM, index-aligned with `gpu.sms`.
    lanes: Vec<Lane>,
    /// Delta-chain writer and the section image its next delta diffs
    /// against; both `None` until the first periodic boundary of a
    /// delta-checkpointed run (or seeded by a chain restore).
    chain_writer: Option<ChainWriter>,
    chain_caps: Option<ChainImage>,
    /// Host profiler: when `trace.host_prof` is off this costs one branch
    /// per phase boundary; its output never reaches simulated state, so it
    /// is invisible to the determinism gates either way.
    prof: HostProf,
    wall_start: Instant,
}

impl<'a> Engine<'a> {
    /// Bind `kernel` to the SM array and build the per-launch state; with
    /// `resume`, restore all of it from the snapshot or chain instead of
    /// starting at cycle 0 of the grid.
    fn setup(
        gpu: &'a mut Gpu,
        kernel: &'a Kernel,
        factory: &mut dyn FnMut() -> Box<dyn WarpScheduler>,
        trace: TraceOptions,
        tracer: &'a mut dyn Tracer,
        ckpt: &'a CheckpointOptions,
        resume: Option<ResumeSource<'_>>,
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
        let num_sms = gpu.cfg.num_sms as usize;
        let prof = HostProf::new(trace.host_prof);
        let wall_start = Instant::now();
        // Parse, CRC-check and identity-check the resume container before
        // touching any simulator state, so a bad snapshot leaves the GPU
        // untouched and reusable. For a chain, the *newest* container
        // carries every section except full gmem, which is folded
        // base-then-deltas below.
        let resume_fr = match &resume {
            Some(ResumeSource::Full(s)) => {
                let fr = FileReader::parse(s.as_bytes())?;
                if fr.kind() != ContainerKind::Full {
                    return Err(SimError::Snapshot(CodecError::Mismatch(
                        "cannot resume from a bare delta container; load the whole chain".into(),
                    )));
                }
                Some(fr)
            }
            Some(ResumeSource::Chain(c)) => Some(FileReader::parse(c.newest().as_bytes())?),
            None => None,
        };
        let restored: Option<(FileReader, Meta)> = match resume_fr {
            Some(fr) => {
                let mut r = fr.section(SEC_META)?;
                let meta = Meta::load(&mut r)?;
                r.finish()?;
                meta.check_matches(&Meta::of(&gpu.cfg, kernel, "", 0, 0))?;
                Some((fr, meta))
            }
            None => None,
        };
        // A chain restore reconstructs the tip's memory-hierarchy and
        // per-SM payloads by folding every delta's bdelta stream onto the
        // base — before any simulator state is touched, so a chain that is
        // malformed beyond what `SnapshotChain::load_dir` can see leaves
        // the GPU reusable.
        let chain_image: Option<ChainImage> = match &resume {
            Some(ResumeSource::Chain(c)) => Some(fold_chain_image(c, num_sms)?),
            _ => None,
        };

        // Decode the program once; every SM tests the same per-PC table.
        let table = Arc::new(IssueTable::build(&kernel.program));
        for sm in &mut gpu.sms {
            sm.begin_kernel_decoded(kernel, Arc::clone(&table));
            sm.stats = SmStats::default();
        }
        // Fresh memory-system counters per launch: rebuild the subsystem
        // (caches start cold, as for each GPGPU-Sim kernel run).
        gpu.mem = MemSubsystem::new(gpu.cfg.mem, num_sms);

        let mut start_cycle = gpu.cycle;
        if let Some((_, meta)) = &restored {
            gpu.cycle = meta.cycle;
            start_cycle = meta.start_cycle;
        }
        let mut recorder = Recorder::new(tracer, &trace, start_cycle, num_sms);
        let lp = if let Some((fr, _)) = &restored {
            // Run-loop bookkeeping, trace accumulators, device memory and
            // the memory hierarchy, in container order.
            let mut r = fr.section(SEC_LOOP)?;
            let lp = LoopState::load(&mut r)?;
            recorder.load_state(&mut r, lp.outstanding)?;
            r.finish()?;
            match &resume {
                Some(ResumeSource::Chain(chain)) if chain.deltas() > 0 => {
                    // Replay the chain: the base's full image, then each
                    // delta's dirty pages in sequence order. The restored
                    // memory starts with a clean dirty map — a restore is
                    // itself a capture boundary — so a continued chain's
                    // next delta is bit-identical to the uninterrupted
                    // run's.
                    let base_fr = FileReader::parse(chain.containers[0].as_bytes())?;
                    let mut r = base_fr.section(SEC_GMEM)?;
                    gpu.gmem = Snapshot::load(&mut r)?;
                    r.finish()?;
                    for delta in &chain.containers[1..] {
                        let dfr = FileReader::parse(delta.as_bytes())?;
                        let mut r = dfr.section(SEC_GMEM_DELTA)?;
                        gpu.gmem.apply_delta(&mut r)?;
                        r.finish()?;
                    }
                    gpu.gmem.mark_clean();
                }
                _ => {
                    let mut r = fr.section(SEC_GMEM)?;
                    gpu.gmem = Snapshot::load(&mut r)?;
                    r.finish()?;
                }
            }
            let mut r = match &chain_image {
                Some(img) => Reader::new(&img.mem),
                None => fr.section(SEC_MEM)?,
            };
            gpu.mem.restore_snapshot(&mut r)?;
            r.finish()?;
            lp
        } else {
            recorder.on_kernel_begin(&kernel.program.name, start_cycle);
            LoopState::fresh(kernel.launch.num_blocks(), start_cycle)
        };
        // Delta-chain writer. Seeded from the restored chain when the run
        // continues checkpointing into the same directory it resumed from
        // (linkage carries on after the restored deltas, and the folded tip
        // image becomes the diff base for the next capture); otherwise the
        // first boundary starts a fresh chain with a full base.
        let mut chain_writer: Option<ChainWriter> = None;
        if ckpt.delta {
            if let Some(ResumeSource::Chain(chain)) = &resume {
                if ckpt.path.as_deref() == Some(chain.dir.as_path()) {
                    chain_writer = Some(ChainWriter::resume(chain, ckpt.keep));
                }
            }
        }
        let bus_on = recorder.enabled();
        let mut lanes: Vec<Lane> = (0..num_sms)
            .map(|_| Lane {
                policy: factory(),
                report: TickReport::default(),
            })
            .collect();
        if let Some((fr, meta)) = &restored {
            restore_sms(fr, meta, &mut gpu.sms, &mut lanes, chain_image.as_ref())?;
        }
        // Continuing the chain: the tip image the restore just applied is
        // exactly what the interrupted writer would have diffed the next
        // delta against.
        let chain_caps = if chain_writer.is_some() { chain_image } else { None };
        Ok(Engine {
            gpu,
            kernel,
            trace,
            ckpt,
            start_cycle,
            lp,
            recorder,
            bus_on,
            lanes,
            chain_writer,
            chain_caps,
            prof,
            wall_start,
        })
    }

    /// Simulate one cycle — the memory system, every SM in index order,
    /// then the thread block scheduler and Table IV sampling. `Ok(true)`
    /// once the grid has drained.
    fn cycle(&mut self) -> Result<bool, SimError> {
        let Gpu { cfg, sms, mem, gmem, cycle } = &mut *self.gpu;
        let (lp, lanes) = (&mut self.lp, &mut self.lanes);
        // The bus, or nothing: with no subscriber every emission site sees
        // the no-op tracer's constant `false`.
        let tracer: &mut dyn Tracer =
            if self.bus_on { &mut self.recorder } else { &mut NoopTracer };
        let num_sms = sms.len();
        let now = *cycle;
        let rel = now - self.start_cycle;
        if rel > cfg.max_cycles {
            return Err(SimError::Timeout {
                at_cycle: rel,
                pending_tbs: lp.pending.len() as u32 + lp.outstanding,
            });
        }
        let fast_phase = !lp.pending.is_empty();
        let mut pt = self.prof.start();

        // The shared memory system ticks, then each SM in index order:
        // its memory half, then its issue half (`Sm::tick_traced`, opened
        // up so the profiler can tell the halves apart). SM by SM, not
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
            lp.outstanding -= lane.report.finished_tbs.len() as u32;
            lane.report.finished_tbs.clear();
        }
        if self.prof.enabled() {
            self.prof.record(HostPhase::Mem, mem_ns);
            self.prof.record(HostPhase::Issue, issue_ns);
        }

        // Thread block scheduler: at most one TB per SM per cycle,
        // round-robin over SMs.
        if !lp.pending.is_empty() {
            for k in 0..num_sms {
                if lp.pending.is_empty() {
                    break;
                }
                let i = (lp.rr_next_sm + k) % num_sms;
                if sms[i].can_accept_tb() {
                    let g = lp.pending.pop_front().expect("non-empty");
                    let fast_after = !lp.pending.is_empty();
                    sms[i].launch_tb_traced(g, now, lanes[i].policy.as_mut(), fast_after, tracer);
                    lp.outstanding += 1;
                }
            }
            lp.rr_next_sm = (lp.rr_next_sm + 1) % num_sms;
        }

        // Table IV sampling. This stays a direct policy poll (not a bus
        // subscription): it reads the scheduler's internal priority state,
        // which no event carries.
        let period = self.trace.tb_order_period;
        if period > 0 && now - lp.last_order_sample >= period {
            lp.last_order_sample = now;
            let i = self.trace.tb_order_sm as usize;
            let view = sms[i].sched_view(now, fast_phase);
            if let Some(order) = lanes[i].policy.tb_priority_trace(&view) {
                if !order.is_empty() {
                    lp.tb_order.push(TbOrderSnapshot {
                        cycle: now - self.start_cycle,
                        order,
                    });
                }
            }
        }

        *cycle += 1;
        self.prof.lap(HostPhase::TbSched, &mut pt);
        Ok(lp.pending.is_empty() && lp.outstanding == 0)
    }

    /// Handle a checkpoint boundary; `Ok(Some(_))` is the pause snapshot.
    fn checkpoint(&mut self, periodic: bool, pause: bool) -> Result<Option<GpuSnapshot>, SimError> {
        let ckpt = self.ckpt;
        if !ckpt.delta {
            let snap = self.capture(CaptureMode::Full).0;
            if let Some(path) = &ckpt.path {
                snap.write_to(path)
                    .map_err(|e| SimError::CheckpointIo(format!("{}: {e}", path.display())))?;
            }
            return Ok(pause.then_some(snap));
        }
        // Delta chain, driven purely by the periodic interval: a full base
        // anchors the chain (first boundary, or keep-cap rollover); every
        // other boundary appends only the dirty gmem pages. The capture
        // ends with mark_clean so the next delta starts from this
        // boundary. A pause returns a standalone full snapshot and leaves
        // the chain exactly as the periodic schedule built it — when the
        // pause lands on a periodic boundary, chain tip and pause snapshot
        // describe the same cycle.
        if periodic {
            let dir = ckpt.path.as_ref().expect("validated in setup");
            let io = |e: std::io::Error| SimError::CheckpointIo(format!("{}: {e}", dir.display()));
            let mode = match (&self.chain_writer, &self.chain_caps) {
                (Some(w), Some(prev)) if !w.due_rollover() => CaptureMode::ChainDelta {
                    sequence: w.next_seq(),
                    parent_crc: w.last_crc(),
                    prev,
                },
                _ => CaptureMode::ChainBase,
            };
            let full_due = matches!(mode, CaptureMode::ChainBase);
            let (snap, caps) = self.capture(mode);
            match &mut self.chain_writer {
                None => {
                    self.chain_writer = Some(ChainWriter::start(dir, &snap, ckpt.keep).map_err(io)?)
                }
                Some(w) if full_due => w.rollover(&snap).map_err(io)?,
                Some(w) => w.append(&snap).map_err(io)?,
            }
            self.chain_caps = caps;
            self.gpu.gmem.mark_clean();
        }
        Ok(pause.then(|| self.capture(CaptureMode::Full).0))
    }

    /// Serialize the complete in-flight launch into a snapshot container.
    /// Called at the checkpoint boundary between two cycles.
    ///
    /// In [`CaptureMode::ChainDelta`] the container is a chain link: global
    /// memory is encoded as only the pages dirtied since the previous
    /// capture ([`SEC_GMEM_DELTA`]), and the memory hierarchy plus every
    /// SM — whose serialized bytes are mostly unchanged between captures
    /// but shift with variable-length fields — as [`bdelta`] streams
    /// against the previous capture's payloads. META and LOOP are small
    /// and stay full copies in every container, so identity checks never
    /// need reconstruction.
    ///
    /// Chain modes also return the capture's full section image, which the
    /// engine keeps as the diff base for the next boundary.
    fn capture(&self, mode: CaptureMode<'_>) -> (GpuSnapshot, Option<ChainImage>) {
        let gpu = &*self.gpu;
        let scheduler = self.lanes[0].policy.name();
        let mut f = match mode {
            CaptureMode::Full | CaptureMode::ChainBase => FileWriter::new(),
            CaptureMode::ChainDelta {
                sequence,
                parent_crc,
                ..
            } => FileWriter::new_delta(sequence, parent_crc),
        };

        let mut w = Writer::new();
        Meta::of(&gpu.cfg, self.kernel, scheduler, gpu.cycle, self.start_cycle).save(&mut w);
        f.add_section(SEC_META, w);

        let mut w = Writer::new();
        self.lp.save(&mut w);
        self.recorder.save_state(&mut w);
        f.add_section(SEC_LOOP, w);

        let mut w = Writer::new();
        if matches!(mode, CaptureMode::ChainDelta { .. }) {
            gpu.gmem.save_delta(&mut w);
            f.add_section(SEC_GMEM_DELTA, w);
        } else {
            gpu.gmem.save(&mut w);
            f.add_section(SEC_GMEM, w);
        }

        let mut w = Writer::new();
        gpu.mem.save_snapshot(&mut w);
        let mem_image = w.into_bytes();

        let sm_images: Vec<Vec<u8>> = gpu
            .sms
            .iter()
            .zip(&self.lanes)
            .map(|(sm, lane)| {
                let mut w = Writer::new();
                sm.save_snapshot(&mut w);
                lane.policy.save_state(&mut w);
                w.into_bytes()
            })
            .collect();

        let sm_section = |i: usize| SEC_SM_BASE + i as u32;
        let image = match mode {
            CaptureMode::ChainDelta { prev, .. } => {
                f.add_section_bytes(SEC_MEM, bdelta::encode(&prev.mem, &mem_image));
                for (i, img) in sm_images.iter().enumerate() {
                    f.add_section_bytes(sm_section(i), bdelta::encode(&prev.sms[i], img));
                }
                Some(ChainImage { mem: mem_image, sms: sm_images })
            }
            CaptureMode::ChainBase => {
                f.add_section_bytes(SEC_MEM, mem_image.clone());
                for (i, img) in sm_images.iter().enumerate() {
                    f.add_section_bytes(sm_section(i), img.clone());
                }
                Some(ChainImage { mem: mem_image, sms: sm_images })
            }
            CaptureMode::Full => {
                f.add_section_bytes(SEC_MEM, mem_image);
                for (i, img) in sm_images.into_iter().enumerate() {
                    f.add_section_bytes(sm_section(i), img);
                }
                None
            }
        };
        (GpuSnapshot::from_bytes(f.finish()), image)
    }

    /// The grid has drained: emit kernel-end and fold the per-SM counters,
    /// traces and (when profiled) `host/*` gauges into the result.
    fn teardown(mut self) -> RunResult {
        let gpu = &*self.gpu;
        let cycles = gpu.cycle - self.start_cycle;
        self.recorder.on_kernel_end(&self.kernel.program.name, gpu.cycle, cycles);
        let (timeline, utilization) = self.recorder.finish_util();
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
            tb_order: self.lp.tb_order,
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

/// Full payload images of the [`bdelta`]-encoded sections (memory
/// hierarchy, one per SM) at one capture boundary. The writer diffs the
/// next capture against this; a chain restore rebuilds it by folding each
/// delta's bdelta stream onto the base's payloads.
struct ChainImage {
    mem: Vec<u8>,
    sms: Vec<Vec<u8>>,
}

/// Reconstruct the chain tip's full [`SEC_MEM`] and per-SM payloads:
/// the base's sections, with every delta's bdelta stream applied in
/// sequence order. (Gmem is folded separately — its deltas are semantic
/// dirty pages, not byte diffs.)
fn fold_chain_image(chain: &SnapshotChain, num_sms: usize) -> Result<ChainImage, CodecError> {
    let base = FileReader::parse(chain.containers[0].as_bytes())?;
    let mut mem = base.section_bytes(SEC_MEM)?.to_vec();
    let mut sms: Vec<Vec<u8>> = (0..num_sms)
        .map(|i| base.section_bytes(SEC_SM_BASE + i as u32).map(<[u8]>::to_vec))
        .collect::<Result<_, _>>()?;
    for delta in &chain.containers[1..] {
        let dfr = FileReader::parse(delta.as_bytes())?;
        mem = bdelta::apply(&mem, dfr.section_bytes(SEC_MEM)?)?;
        for (i, sm) in sms.iter_mut().enumerate() {
            *sm = bdelta::apply(sm, dfr.section_bytes(SEC_SM_BASE + i as u32)?)?;
        }
    }
    Ok(ChainImage { mem, sms })
}

/// How [`Engine::capture`] encodes the capture.
enum CaptureMode<'a> {
    /// A standalone full container (pause snapshots, non-delta periodic
    /// checkpoints).
    Full,
    /// The full container anchoring a chain (first boundary or keep-cap
    /// rollover); the caller gets the section image back to diff the next
    /// capture against.
    ChainBase,
    /// A chain link: gmem as dirty pages, memory hierarchy and SMs as
    /// bdelta streams against `prev` (the previous capture's image).
    ChainDelta {
        sequence: u64,
        parent_crc: u32,
        prev: &'a ChainImage,
    },
}

/// Check a snapshot's recorded identity against a prospective launch
/// without restoring anything: kernel (name, code shape, grid, params),
/// machine configuration, and — when `scheduler` is non-empty — the
/// scheduling policy. Returns [`CodecError::Mismatch`] with a
/// human-readable explanation on any disagreement, so hosts can refuse
/// foreign state loudly instead of silently discarding or, worse,
/// restoring it.
pub fn snapshot_matches(
    snap: &GpuSnapshot,
    cfg: &GpuConfig,
    kernel: &Kernel,
    scheduler: &str,
) -> Result<(), CodecError> {
    let fr = FileReader::parse(snap.as_bytes())?;
    let mut r = fr.section(SEC_META)?;
    let meta = Meta::load(&mut r)?;
    r.finish()?;
    meta.check_matches(&Meta::of(cfg, kernel, "", 0, 0))?;
    if !scheduler.is_empty() && !meta.scheduler.eq_ignore_ascii_case(scheduler) {
        return Err(CodecError::Mismatch(format!(
            "snapshot was taken under scheduler {:?}, this run requests {scheduler:?}",
            meta.scheduler
        )));
    }
    Ok(())
}

/// The launch identity recorded in snapshot section `SEC_META`: enough to
/// refuse resuming into the wrong kernel, machine configuration, SM count
/// or scheduler, plus the cycle coordinates of the checkpoint itself.
struct Meta {
    kernel_name: String,
    instr_count: usize,
    regs: u8,
    preds: u8,
    shared_bytes: u32,
    grid: (u32, u32, u32),
    block: (u32, u32, u32),
    params: Vec<u32>,
    config: String,
    num_sms: u32,
    scheduler: String,
    cycle: u64,
    start_cycle: u64,
}

/// Canonical machine-identity string: the config's `Debug` rendering with
/// the inert `sm_workers` zeroed out, so a snapshot resumes whatever value
/// its writer (an older build, a caller still setting the field) carried.
fn config_identity(cfg: &GpuConfig) -> String {
    let mut c = *cfg;
    c.sm_workers = 0;
    format!("{c:?}")
}

impl Meta {
    fn of(cfg: &GpuConfig, kernel: &Kernel, scheduler: &str, cycle: u64, start_cycle: u64) -> Meta {
        Meta {
            kernel_name: kernel.program.name.clone(),
            instr_count: kernel.program.instrs.len(),
            regs: kernel.program.regs,
            preds: kernel.program.preds,
            shared_bytes: kernel.program.shared_bytes,
            grid: (kernel.launch.grid.x, kernel.launch.grid.y, kernel.launch.grid.z),
            block: (
                kernel.launch.block.x,
                kernel.launch.block.y,
                kernel.launch.block.z,
            ),
            params: kernel.params.clone(),
            config: config_identity(cfg),
            num_sms: cfg.num_sms,
            scheduler: scheduler.to_string(),
            cycle,
            start_cycle,
        }
    }

    fn save(&self, w: &mut Writer) {
        w.put_str(&self.kernel_name);
        w.put_usize(self.instr_count);
        w.put_u8(self.regs);
        w.put_u8(self.preds);
        w.put_u32(self.shared_bytes);
        self.grid.save(w);
        self.block.save(w);
        self.params.save(w);
        w.put_str(&self.config);
        w.put_u32(self.num_sms);
        w.put_str(&self.scheduler);
        w.put_u64(self.cycle);
        w.put_u64(self.start_cycle);
    }

    fn load(r: &mut Reader<'_>) -> Result<Meta, CodecError> {
        Ok(Meta {
            kernel_name: r.get_string()?,
            instr_count: r.get_usize()?,
            regs: r.get_u8()?,
            preds: r.get_u8()?,
            shared_bytes: r.get_u32()?,
            grid: Snapshot::load(r)?,
            block: Snapshot::load(r)?,
            params: Snapshot::load(r)?,
            config: r.get_string()?,
            num_sms: r.get_u32()?,
            scheduler: r.get_string()?,
            cycle: r.get_u64()?,
            start_cycle: r.get_u64()?,
        })
    }

    /// Refuse a resume whose kernel or machine differs from the snapshot's.
    /// (`scheduler` is checked separately, once a policy instance exists to
    /// name; `cycle`/`start_cycle` are coordinates, not identity.)
    fn check_matches(&self, current: &Meta) -> Result<(), CodecError> {
        if self.kernel_name != current.kernel_name
            || self.instr_count != current.instr_count
            || self.regs != current.regs
            || self.preds != current.preds
            || self.shared_bytes != current.shared_bytes
            || self.grid != current.grid
            || self.block != current.block
            || self.params != current.params
        {
            return Err(CodecError::Mismatch(format!(
                "snapshot is of kernel {:?}, launch is {:?}",
                self.kernel_name, current.kernel_name
            )));
        }
        if self.config != current.config || self.num_sms != current.num_sms {
            return Err(CodecError::Mismatch(format!(
                "snapshot machine config {:?} != launch config {:?}",
                self.config, current.config
            )));
        }
        Ok(())
    }
}

/// Restore every SM and its freshly built policy from the container's
/// per-SM sections, after checking the snapshot's scheduler identity.
/// With `image` set (a chain restore), the payloads come from the folded
/// chain-tip image instead of the container — the newest delta only holds
/// bdelta streams.
fn restore_sms(
    fr: &FileReader,
    meta: &Meta,
    sms: &mut [Sm],
    lanes: &mut [Lane],
    image: Option<&ChainImage>,
) -> Result<(), SimError> {
    let name = lanes[0].policy.name();
    if meta.scheduler != name {
        return Err(SimError::Snapshot(CodecError::Mismatch(format!(
            "snapshot was taken under scheduler {:?}, this launch uses {name:?}",
            meta.scheduler
        ))));
    }
    for (i, (sm, lane)) in sms.iter_mut().zip(lanes).enumerate() {
        let mut r = match image {
            Some(img) => Reader::new(&img.sms[i]),
            None => fr.section(SEC_SM_BASE + i as u32)?,
        };
        sm.restore_snapshot(&mut r)?;
        lane.policy.load_state(&mut r)?;
        r.finish()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_isa::{LaunchConfig, ProgramBuilder, Src};

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

    #[test]
    fn deadlock_guard_times_out() {
        let mut gpu = Gpu::new(
            GpuConfig {
                max_cycles: 500,
                ..GpuConfig::small(1)
            },
            1 << 20,
        );
        // Infinite loop kernel.
        let mut b = ProgramBuilder::new("hang");
        let top = b.new_label();
        let l2 = b.new_label();
        b.place(top);
        b.nop();
        b.place(l2);
        b.bra(None, top, l2);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 32), vec![]);
        let err = gpu
            .launch(&k, SchedulerKind::Lrr, TraceOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }));
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
