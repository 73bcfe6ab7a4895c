//! The whole-GPU model: SM array, global thread block scheduler (the "work
//! distribution engine" of §I), shared memory hierarchy, and the run loop
//! that executes a kernel grid to completion.
//!
//! # Phase-split cycle and the parallel engine
//!
//! Each simulated cycle runs in three phases (see `Sm::tick_traced`):
//! a serial *memory phase* per SM in SM-index order (all interaction with
//! the shared [`MemSubsystem`]), an SM-local *issue phase* (scheduling and
//! execution against a read-only global-memory base, with stores and load
//! registrations deferred into per-SM buffers), and a serial *merge phase*
//! per SM in SM-index order (publishing the deferred effects). Because
//! every cross-SM interaction happens in the serial phases in a fixed
//! order, the issue phase can be fanned out across worker threads
//! ([`GpuConfig::sm_workers`]) with **bit-identical** results — counters,
//! stall attribution, and trace streams all match the serial engine.

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
    mask_of, BufferTracer, Event as TraceEvent, EventClass, Hist16, HostPhase, HostProf,
    IssueProf, NoopTracer, Tracer, WorkerProf,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
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
    /// Worker threads for the per-cycle SM issue phase (1 = serial engine).
    /// Any value produces bit-identical results; values above `num_sms` are
    /// clamped. This is a host-side simulation knob, not a modelled
    /// parameter, so it never affects simulated timing.
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
    /// per run-loop phase, worker busy/idle under `--sm-workers`, and the
    /// memory-subsystem queue gauges, all published into the result's
    /// metrics registry under `host/*`. Host numbers vary run to run by
    /// nature, so the `host/` namespace is excluded from `RunResult`'s
    /// `Snapshot` encoding and from every byte-compare determinism gate.
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
    /// constructed recorder of the same geometry.
    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let starts: Vec<(u32, u32, u64)> = Snapshot::load(r)?;
        self.starts = starts.into_iter().map(|(sm, tb, c)| ((sm, tb), c)).collect();
        self.timeline = Snapshot::load(r)?;
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
        let (w, t, u) = (
            self.cfg.sm.max_warps,
            self.cfg.sm.max_tbs,
            self.cfg.sm.units,
        );
        self.launch_custom_traced(kernel, &mut || scheduler.build(w, t, u), trace, tracer)
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
        self.launch_custom_traced(kernel, factory, trace, &mut NoopTracer)
    }

    /// The full-generality launch: custom policy factory plus an external
    /// tracer on the event bus. All other launch methods delegate here.
    ///
    /// Runs the phase-split engine described in the module docs; with
    /// `cfg.sm_workers > 1` the per-cycle SM issue phase is distributed over
    /// persistent worker threads with bit-identical results.
    pub fn launch_custom_traced(
        &mut self,
        kernel: &Kernel,
        factory: &mut dyn FnMut() -> Box<dyn WarpScheduler>,
        trace: TraceOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<RunResult, SimError> {
        self.launch_inner(kernel, factory, trace, tracer, &CheckpointOptions::default(), None)
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
        let (w, t, u) = (
            self.cfg.sm.max_warps,
            self.cfg.sm.max_tbs,
            self.cfg.sm.units,
        );
        self.launch_inner(kernel, &mut || scheduler.build(w, t, u), trace, tracer, ckpt, None)
    }

    /// Continue a paused or checkpointed launch from `snapshot`.
    ///
    /// The GPU, `kernel`, `scheduler` and `trace` must match the original
    /// launch (the snapshot carries their identities and refuses a
    /// mismatch); `ckpt` may differ — e.g. resume with a new pause point.
    /// The continuation is bit-identical to the uninterrupted run: same
    /// counters, same stall attribution, same trace bytes. `sm_workers`
    /// is explicitly *not* part of the identity — a snapshot taken on the
    /// serial engine resumes on the parallel engine and vice versa.
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
        let (w, t, u) = (
            self.cfg.sm.max_warps,
            self.cfg.sm.max_tbs,
            self.cfg.sm.units,
        );
        self.launch_inner(
            kernel,
            &mut || scheduler.build(w, t, u),
            trace,
            tracer,
            ckpt,
            Some(ResumeSource::Full(snapshot)),
        )
    }

    /// Continue a launch from a delta-checkpoint chain: the base snapshot's
    /// global memory with every delta's dirty pages folded in, and all
    /// other state from the newest container. Identity checks and the
    /// bit-identical guarantee are the same as [`Gpu::resume`]. When
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
    ) -> Result<LaunchStatus, SimError> {
        self.resume_chain_traced(chain, kernel, scheduler, trace, ckpt, &mut NoopTracer)
    }

    /// [`Gpu::resume_chain`] with an external [`Tracer`] on the bus.
    pub fn resume_chain_traced(
        &mut self,
        chain: &SnapshotChain,
        kernel: &Kernel,
        scheduler: SchedulerKind,
        trace: TraceOptions,
        ckpt: &CheckpointOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<LaunchStatus, SimError> {
        let (w, t, u) = (
            self.cfg.sm.max_warps,
            self.cfg.sm.max_tbs,
            self.cfg.sm.units,
        );
        self.launch_inner(
            kernel,
            &mut || scheduler.build(w, t, u),
            trace,
            tracer,
            ckpt,
            Some(ResumeSource::Chain(chain)),
        )
    }

    fn launch_inner(
        &mut self,
        kernel: &Kernel,
        factory: &mut dyn FnMut() -> Box<dyn WarpScheduler>,
        trace: TraceOptions,
        tracer: &mut dyn Tracer,
        ckpt: &CheckpointOptions,
        resume: Option<ResumeSource<'_>>,
    ) -> Result<LaunchStatus, SimError> {
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
        let num_sms = self.cfg.num_sms as usize;
        // Host profiler: when `trace.host_prof` is off this costs one
        // branch per phase boundary; its output never reaches simulated
        // state, so it is invisible to the determinism gates either way.
        let mut prof = HostProf::new(trace.host_prof);
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
        let mut meta_loaded: Option<Meta> = None;
        if let Some(fr) = &resume_fr {
            let mut r = fr.section(SEC_META)?;
            let meta = Meta::load(&mut r)?;
            r.finish()?;
            meta.check_matches(&Meta::of(&self.cfg, kernel, "", 0, 0))?;
            meta_loaded = Some(meta);
        }
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
        for sm in &mut self.sms {
            sm.begin_kernel_decoded(kernel, Arc::clone(&table));
            sm.stats = SmStats::default();
        }
        // Fresh memory-system counters per launch: rebuild the subsystem
        // (caches start cold, as for each GPGPU-Sim kernel run).
        self.mem = MemSubsystem::new(self.cfg.mem, num_sms);

        let total_tbs = kernel.launch.num_blocks();
        let mut pending: VecDeque<u32> = (0..total_tbs).collect();
        let mut outstanding = 0u32; // launched but unfinished
        let mut start_cycle = self.cycle;
        let mut rr_next_sm = 0usize;
        let mut tb_order: Vec<TbOrderSnapshot> = Vec::new();
        if let Some(meta) = &meta_loaded {
            self.cycle = meta.cycle;
            start_cycle = meta.start_cycle;
        }
        let mut last_order_sample = start_cycle;
        // The bus: classic timeline/utilization traces are rebuilt from TB
        // and issue events; the user tracer sees everything it asked for.
        let mut recorder = Recorder::new(tracer, &trace, start_cycle, num_sms);
        if let Some(fr) = &resume_fr {
            // Run-loop bookkeeping, trace accumulators, device memory and
            // the memory hierarchy, in container order.
            let mut r = fr.section(SEC_LOOP)?;
            pending = Snapshot::load(&mut r)?;
            outstanding = r.get_u32()?;
            rr_next_sm = r.get_usize()?;
            tb_order = Snapshot::load(&mut r)?;
            last_order_sample = r.get_u64()?;
            recorder.load_state(&mut r)?;
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
                    self.gmem = Snapshot::load(&mut r)?;
                    r.finish()?;
                    for delta in &chain.containers[1..] {
                        let dfr = FileReader::parse(delta.as_bytes())?;
                        let mut r = dfr.section(SEC_GMEM_DELTA)?;
                        self.gmem.apply_delta(&mut r)?;
                        r.finish()?;
                    }
                    self.gmem.mark_clean();
                }
                _ => {
                    let mut r = fr.section(SEC_GMEM)?;
                    self.gmem = Snapshot::load(&mut r)?;
                    r.finish()?;
                }
            }
            let mut r = match &chain_image {
                Some(img) => Reader::new(&img.mem),
                None => fr.section(SEC_MEM)?,
            };
            self.mem.restore_snapshot(&mut r)?;
            r.finish()?;
        } else {
            recorder.on_kernel_begin(&kernel.program.name, start_cycle);
        }
        // Delta-chain writer. Seeded from the restored chain when the run
        // continues checkpointing into the same directory it resumed from
        // (linkage carries on after the restored deltas, and the folded tip
        // image becomes the diff base for the next capture); otherwise the
        // first boundary starts a fresh chain with a full base.
        let mut chain_writer: Option<ChainWriter> = None;
        let mut chain_caps: Option<ChainImage> = None;
        if ckpt.delta {
            if let Some(ResumeSource::Chain(chain)) = &resume {
                if ckpt.path.as_deref() == Some(chain.dir.as_path()) {
                    chain_writer = Some(ChainWriter::resume(chain, ckpt.keep));
                }
            }
        }
        // Hoisted: one enabled() check per launch, not per cycle.
        let bus_on = recorder.enabled();
        // Per-SM cycle buffers answer `wants` from this snapshot of the
        // recorder's subscriptions; replaying them contiguously per SM in
        // index order reproduces the serial engine's event stream exactly.
        let buf_mask = mask_of(&recorder);

        // Dismantle the SM array into per-worker lanes: contiguous chunks
        // keep the SM-index iteration order identical at any worker count.
        // Lanes exist even at sm_workers == 1 so traced/untraced and
        // serial/parallel runs share one allocator profile and one code
        // path for the serial phases.
        let workers = self.cfg.sm_workers.max(1).min(num_sms.max(1));
        let mut lane_vec: Vec<Lane> = self
            .sms
            .drain(..)
            .map(|sm| Lane {
                sm,
                policy: factory(),
                report: TickReport::default(),
                buf: BufferTracer::new(buf_mask),
            })
            .collect();
        if let Some(fr) = &resume_fr {
            let meta = meta_loaded.as_ref().expect("META parsed with container");
            // Restore each SM and its policy; on failure reassemble the SM
            // array so the GPU survives a rejected resume.
            if let Err(e) = restore_lanes(fr, meta, &mut lane_vec, chain_image.as_ref()) {
                self.sms = lane_vec.into_iter().map(|l| l.sm).collect();
                return Err(e);
            }
        }
        if chain_writer.is_some() {
            // Continuing the chain: the tip image the restore just applied
            // is exactly what the interrupted writer would have diffed the
            // next delta against.
            chain_caps = chain_image;
        }
        let mut chunks: Vec<Vec<Lane>> = Vec::with_capacity(workers);
        {
            let mut lanes: VecDeque<Lane> = lane_vec.into();
            let per = num_sms.div_ceil(workers).max(1);
            while !lanes.is_empty() {
                let take = per.min(lanes.len());
                chunks.push(lanes.drain(..take).collect());
            }
        }

        // Global memory moves behind an RwLock for the launch: workers read
        // it during the issue phase, the main thread writes it in the merge
        // phase. `GlobalMem::new(0)` allocates nothing.
        let gmem_lock = RwLock::new(std::mem::replace(&mut self.gmem, GlobalMem::new(0)));

        // Per-worker (busy_ns, idle_ns) drop boxes, filled once per worker
        // at hang-up; empty on the serial engine so nothing is published.
        let worker_prof_ns: Vec<(AtomicU64, AtomicU64)> = if chunks.len() > 1 {
            (0..chunks.len()).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect()
        } else {
            Vec::new()
        };

        let loop_result: Result<Option<GpuSnapshot>, SimError> = std::thread::scope(|scope| {
            // Persistent issue-phase workers (parallel engine only). Each
            // owns a job/result channel pair; lanes round-trip through the
            // channels every cycle, and results are collected in worker
            // order so lane order never depends on thread timing.
            type Job = (u64, bool, Vec<Lane>);
            struct WorkerLink {
                job: mpsc::Sender<Job>,
                res: mpsc::Receiver<Vec<Lane>>,
            }
            let mut links: Vec<WorkerLink> = Vec::new();
            if chunks.len() > 1 {
                let prof_on = trace.host_prof;
                for wi in 0..chunks.len() {
                    let (job_tx, job_rx) = mpsc::channel::<Job>();
                    let (res_tx, res_rx) = mpsc::channel::<Vec<Lane>>();
                    let gmem_lock = &gmem_lock;
                    let accum = &worker_prof_ns[wi];
                    scope.spawn(move || {
                        // Blocking recv: std's mpsc spins briefly before
                        // parking, so the per-cycle round-trip stays cheap
                        // when cores are free, and an oversubscribed host
                        // (workers > cores) degrades gracefully instead of
                        // burning the cores the main thread needs.
                        //
                        // Busy/idle accounting stays in thread-local u64s
                        // (two clock reads per cycle when profiled, zero
                        // otherwise) and lands in the shared atomics once,
                        // at hang-up.
                        let mut busy_ns = 0u64;
                        let mut idle_ns = 0u64;
                        let mut wait_from = if prof_on { Some(Instant::now()) } else { None };
                        while let Ok((now, fast_phase, mut lanes)) = job_rx.recv() {
                            let run_from = wait_from.map(|w| {
                                let t = Instant::now();
                                idle_ns += t.duration_since(w).as_nanos() as u64;
                                t
                            });
                            {
                                let g = gmem_lock.read().expect("gmem lock");
                                for lane in &mut lanes {
                                    lane.sm.issue_phase_traced(
                                        now,
                                        &g,
                                        lane.policy.as_mut(),
                                        fast_phase,
                                        &mut lane.report,
                                        &mut lane.buf,
                                    );
                                }
                            }
                            if res_tx.send(lanes).is_err() {
                                break;
                            }
                            wait_from = run_from.map(|r| {
                                let t = Instant::now();
                                busy_ns += t.duration_since(r).as_nanos() as u64;
                                t
                            });
                        }
                        if prof_on {
                            accum.0.fetch_add(busy_ns, Ordering::Relaxed);
                            accum.1.fetch_add(idle_ns, Ordering::Relaxed);
                        }
                    });
                    links.push(WorkerLink { job: job_tx, res: res_rx });
                }
            }

            // Initial fill happens inside the loop (1 TB per SM per cycle),
            // mirroring the hardware work distributor.
            loop {
                let now = self.cycle;
                let rel = now - start_cycle;
                if rel > self.cfg.max_cycles {
                    return Err(SimError::Timeout {
                        at_cycle: rel,
                        pending_tbs: pending.len() as u32 + outstanding,
                    });
                }
                let fast_phase = !pending.is_empty();
                let mut pt = prof.start();

                // Memory phase: the shared subsystem ticks, then each SM
                // interacts with it serially in SM-index order. Events land
                // in the per-SM buffer so the issue phase can append to the
                // same stream off-thread.
                if bus_on {
                    self.mem.tick_traced(now, &mut recorder);
                } else {
                    self.mem.tick(now);
                }
                for lanes in chunks.iter_mut() {
                    for lane in lanes.iter_mut() {
                        lane.sm.mem_phase_traced(now, &mut self.mem, &mut lane.buf);
                    }
                }
                prof.lap(HostPhase::Mem, &mut pt);

                // Issue phase: SM-local, fanned out across workers.
                if links.is_empty() {
                    let g = gmem_lock.read().expect("gmem lock");
                    for lanes in chunks.iter_mut() {
                        for lane in lanes.iter_mut() {
                            lane.sm.issue_phase_traced(
                                now,
                                &g,
                                lane.policy.as_mut(),
                                fast_phase,
                                &mut lane.report,
                                &mut lane.buf,
                            );
                        }
                    }
                } else {
                    for (link, lanes) in links.iter().zip(chunks.iter_mut()) {
                        let job = (now, fast_phase, std::mem::take(lanes));
                        link.job.send(job).expect("issue worker alive");
                    }
                    for (link, lanes) in links.iter().zip(chunks.iter_mut()) {
                        *lanes = link.res.recv().expect("issue worker alive");
                    }
                }
                prof.lap(HostPhase::Issue, &mut pt);

                // Merge phase: serial in SM-index order — replay the cycle's
                // buffered events, publish deferred loads and stores.
                {
                    let mut g = gmem_lock.write().expect("gmem lock");
                    for lanes in chunks.iter_mut() {
                        for lane in lanes.iter_mut() {
                            if bus_on {
                                lane.buf.replay_into(&mut recorder);
                            }
                            lane.sm.merge_phase(now, &mut g, &mut self.mem);
                            outstanding -= lane.report.finished_tbs.len() as u32;
                            lane.report.finished_tbs.clear();
                        }
                    }
                }

                // Thread block scheduler: at most one TB per SM per cycle,
                // round-robin over SMs.
                if !pending.is_empty() {
                    for k in 0..num_sms {
                        if pending.is_empty() {
                            break;
                        }
                        let i = (rr_next_sm + k) % num_sms;
                        let lane = lane_mut(&mut chunks, i);
                        if lane.sm.can_accept_tb() {
                            let g = pending.pop_front().expect("non-empty");
                            let fast_after = !pending.is_empty();
                            lane.sm.launch_tb_traced(
                                g,
                                now,
                                lane.policy.as_mut(),
                                fast_after,
                                &mut recorder,
                            );
                            outstanding += 1;
                        }
                    }
                    rr_next_sm = (rr_next_sm + 1) % num_sms;
                }

                // Table IV sampling. This stays a direct policy poll (not a
                // bus subscription): it reads the scheduler's internal
                // priority state, which no event carries.
                if trace.tb_order_period > 0 && now - last_order_sample >= trace.tb_order_period {
                    last_order_sample = now;
                    let lane = lane_mut(&mut chunks, trace.tb_order_sm as usize);
                    let view = lane.sm.sched_view(now, fast_phase);
                    if let Some(order) = lane.policy.tb_priority_trace(&view) {
                        if !order.is_empty() {
                            tb_order.push(TbOrderSnapshot {
                                cycle: now - start_cycle,
                                order,
                            });
                        }
                    }
                }

                self.cycle += 1;
                prof.lap(HostPhase::Merge, &mut pt);
                if pending.is_empty() && outstanding == 0 {
                    // Dropping `links` hangs up the job channels; workers
                    // observe the disconnect and exit before the scope
                    // joins them.
                    return Ok(None);
                }

                // Checkpoint boundary: end of cycle, every lane back on the
                // main thread, all deferred effects merged — the one point
                // where the simulator's state is closed under snapshot.
                let rel_after = self.cycle - start_cycle;
                let pause = ckpt.pause_at > 0 && rel_after >= ckpt.pause_at;
                let boundary = pause || (ckpt.every > 0 && rel_after.is_multiple_of(ckpt.every));
                if boundary {
                    let mut st = prof.start();
                    if ckpt.delta {
                        let periodic =
                            ckpt.every > 0 && rel_after.is_multiple_of(ckpt.every);
                        // Delta chain, driven purely by the periodic
                        // interval: a full base anchors the chain (first
                        // boundary, or keep-cap rollover); every other
                        // boundary appends only the dirty gmem pages. The
                        // capture ends with mark_clean under the write
                        // lock (workers are parked between cycles) so the
                        // next delta starts from this boundary. A pause
                        // returns a standalone full snapshot and leaves
                        // the chain exactly as the periodic schedule built
                        // it — when the pause lands on a periodic
                        // boundary, chain tip and pause snapshot describe
                        // the same cycle.
                        if periodic {
                            let dir = ckpt.path.as_ref().expect("validated above");
                            let io = |e: std::io::Error| {
                                SimError::CheckpointIo(format!("{}: {e}", dir.display()))
                            };
                            let mut g = gmem_lock.write().expect("gmem lock");
                            let full_due = match &chain_writer {
                                None => true,
                                Some(w) => w.due_rollover(),
                            };
                            let mode = if full_due {
                                CaptureMode::ChainBase
                            } else {
                                let w = chain_writer.as_ref().expect("chain started");
                                CaptureMode::ChainDelta {
                                    sequence: w.next_seq(),
                                    parent_crc: w.last_crc(),
                                    prev: chain_caps
                                        .as_ref()
                                        .expect("chain started with an image"),
                                }
                            };
                            let (bytes, caps) = build_snapshot(
                                &self.cfg,
                                kernel,
                                self.cycle,
                                start_cycle,
                                &pending,
                                outstanding,
                                rr_next_sm,
                                &tb_order,
                                last_order_sample,
                                &recorder,
                                &g,
                                &self.mem,
                                &chunks,
                                mode,
                            );
                            let snap = GpuSnapshot::from_bytes(bytes);
                            if full_due {
                                match &mut chain_writer {
                                    None => {
                                        chain_writer = Some(
                                            ChainWriter::start(dir, &snap, ckpt.keep)
                                                .map_err(io)?,
                                        )
                                    }
                                    Some(w) => w.rollover(&snap).map_err(io)?,
                                }
                            } else {
                                chain_writer
                                    .as_mut()
                                    .expect("chain started")
                                    .append(&snap)
                                    .map_err(io)?;
                            }
                            chain_caps = caps;
                            g.mark_clean();
                        }
                        if pause {
                            let g = gmem_lock.read().expect("gmem lock");
                            let snap = GpuSnapshot::from_bytes(
                                build_snapshot(
                                    &self.cfg,
                                    kernel,
                                    self.cycle,
                                    start_cycle,
                                    &pending,
                                    outstanding,
                                    rr_next_sm,
                                    &tb_order,
                                    last_order_sample,
                                    &recorder,
                                    &g,
                                    &self.mem,
                                    &chunks,
                                    CaptureMode::Full,
                                )
                                .0,
                            );
                            drop(g);
                            prof.lap(HostPhase::SnapshotWrite, &mut st);
                            return Ok(Some(snap));
                        }
                        prof.lap(HostPhase::SnapshotWrite, &mut st);
                    } else {
                        let snap = {
                            let g = gmem_lock.read().expect("gmem lock");
                            GpuSnapshot::from_bytes(
                                build_snapshot(
                                    &self.cfg,
                                    kernel,
                                    self.cycle,
                                    start_cycle,
                                    &pending,
                                    outstanding,
                                    rr_next_sm,
                                    &tb_order,
                                    last_order_sample,
                                    &recorder,
                                    &g,
                                    &self.mem,
                                    &chunks,
                                    CaptureMode::Full,
                                )
                                .0,
                            )
                        };
                        if let Some(path) = &ckpt.path {
                            snap.write_to(path).map_err(|e| {
                                SimError::CheckpointIo(format!("{}: {e}", path.display()))
                            })?;
                        }
                        prof.lap(HostPhase::SnapshotWrite, &mut st);
                        if pause {
                            return Ok(Some(snap));
                        }
                    }
                }

                // Heartbeat boundary: purely observational, decoupled from
                // checkpointing so a sweep is watchable without snapshots.
                if ckpt.progress_every > 0 && rel_after.is_multiple_of(ckpt.progress_every) {
                    if let Some(cb) = &ckpt.progress {
                        cb(ProgressEvent {
                            cycles: rel_after,
                            checkpointed: boundary && ckpt.path.is_some(),
                        });
                    }
                }
            }
        });

        // Reassemble the GPU before reporting anything (including errors),
        // restoring SM-index order from the contiguous chunks.
        self.gmem = gmem_lock.into_inner().expect("gmem lock");
        let mut scheduler_name = "";
        let mut per_sm: Vec<SmStats> = Vec::with_capacity(num_sms);
        for lanes in chunks {
            for lane in lanes {
                if self.sms.is_empty() {
                    scheduler_name = lane.policy.name();
                }
                per_sm.push(lane.sm.stats);
                self.sms.push(lane.sm);
            }
        }
        if let Some(snap) = loop_result? {
            // Paused mid-grid: no kernel-end event (the resumed run emits
            // it), no result — the snapshot is the deliverable. The GPU
            // itself also holds the paused state and could continue.
            return Ok(LaunchStatus::Paused(snap));
        }

        let cycles = self.cycle - start_cycle;
        recorder.on_kernel_end(&kernel.program.name, self.cycle, cycles);
        let (timeline, utilization) = recorder.finish_util();
        let mut agg = SmStats::default();
        for s in &per_sm {
            agg.merge(s);
        }
        let mut result = RunResult {
            kernel: kernel.program.name.clone(),
            scheduler: scheduler_name,
            cycles,
            sm: agg,
            per_sm,
            mem: self.mem.stats(),
            timeline,
            tb_order,
            utilization,
            metrics: Default::default(),
        };
        result.snapshot_metrics();
        if trace.host_prof {
            prof.publish(&mut result.metrics);
            let mut wp = WorkerProf::default();
            for (busy, idle) in &worker_prof_ns {
                wp.add(busy.load(Ordering::Relaxed), idle.load(Ordering::Relaxed));
            }
            wp.publish(&mut result.metrics);
            self.mem.queue_prof().publish(&mut result.metrics);
            let mut lsu_hwm = 0u64;
            let mut lsu_depth = Hist16::new();
            for sm in &self.sms {
                let (hwm, depth) = sm.lsu_prof();
                lsu_hwm = lsu_hwm.max(hwm);
                lsu_depth.merge(depth);
            }
            result.metrics.set_counter("host/sm.lsuq.hwm", lsu_hwm);
            result.metrics.set_hist("host/sm.lsuq.depth", lsu_depth);
            let mut issue = IssueProf::default();
            for sm in &self.sms {
                let (reused, recomputed, skips) = sm.issue_prof();
                issue.add(reused, recomputed, skips);
            }
            issue.publish(&mut result.metrics);
            result
                .metrics
                .set_counter("host/wall.ns", wall_start.elapsed().as_nanos() as u64);
        }
        Ok(LaunchStatus::Completed(result))
    }
}

/// Prior state handed to `launch_inner`: one full snapshot, or a validated
/// base+deltas chain whose gmem gets folded base-then-deltas.
enum ResumeSource<'a> {
    Full(&'a GpuSnapshot),
    Chain(&'a SnapshotChain),
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

/// How `build_snapshot` encodes the capture.
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
/// `sm_workers` zeroed out, because worker count is a host-side knob that
/// never affects simulated state — snapshots migrate freely between the
/// serial and parallel engines.
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

/// Serialize the complete in-flight launch into a snapshot container.
/// Called at the end-of-cycle checkpoint boundary, when every lane is on
/// the main thread and all deferred effects are merged.
///
/// In [`CaptureMode::ChainDelta`] the container is a chain link: global
/// memory is encoded as only the pages dirtied since the previous capture
/// ([`SEC_GMEM_DELTA`]), and the memory hierarchy plus every SM — whose
/// serialized bytes are mostly unchanged between captures but shift with
/// variable-length fields — as [`bdelta`] streams against the previous
/// capture's payloads. META and LOOP are small and stay full copies in
/// every container, so identity checks never need reconstruction.
///
/// Chain modes also return the capture's full section image, which the run
/// loop keeps as the diff base for the next boundary.
#[allow(clippy::too_many_arguments)]
fn build_snapshot(
    cfg: &GpuConfig,
    kernel: &Kernel,
    cycle: u64,
    start_cycle: u64,
    pending: &VecDeque<u32>,
    outstanding: u32,
    rr_next_sm: usize,
    tb_order: &[TbOrderSnapshot],
    last_order_sample: u64,
    recorder: &Recorder<'_>,
    gmem: &GlobalMem,
    mem: &MemSubsystem,
    chunks: &[Vec<Lane>],
    mode: CaptureMode<'_>,
) -> (Vec<u8>, Option<ChainImage>) {
    let scheduler = chunks[0][0].policy.name();
    let mut f = match mode {
        CaptureMode::Full | CaptureMode::ChainBase => FileWriter::new(),
        CaptureMode::ChainDelta {
            sequence,
            parent_crc,
            ..
        } => FileWriter::new_delta(sequence, parent_crc),
    };

    let mut w = Writer::new();
    Meta::of(cfg, kernel, scheduler, cycle, start_cycle).save(&mut w);
    f.add_section(SEC_META, w);

    let mut w = Writer::new();
    pending.save(&mut w);
    w.put_u32(outstanding);
    w.put_usize(rr_next_sm);
    w.put_u64(tb_order.len() as u64);
    for s in tb_order {
        s.save(&mut w);
    }
    w.put_u64(last_order_sample);
    recorder.save_state(&mut w);
    f.add_section(SEC_LOOP, w);

    let mut w = Writer::new();
    if matches!(mode, CaptureMode::ChainDelta { .. }) {
        gmem.save_delta(&mut w);
        f.add_section(SEC_GMEM_DELTA, w);
    } else {
        gmem.save(&mut w);
        f.add_section(SEC_GMEM, w);
    }

    let mut w = Writer::new();
    mem.save_snapshot(&mut w);
    let mem_image = w.into_bytes();

    let mut sm_images: Vec<Vec<u8>> = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for lanes in chunks {
        for lane in lanes {
            let mut w = Writer::new();
            lane.sm.save_snapshot(&mut w);
            lane.policy.save_state(&mut w);
            sm_images.push(w.into_bytes());
        }
    }

    match mode {
        CaptureMode::ChainDelta { prev, .. } => {
            f.add_section_bytes(SEC_MEM, bdelta::encode(&prev.mem, &mem_image));
            for (i, img) in sm_images.iter().enumerate() {
                f.add_section_bytes(SEC_SM_BASE + i as u32, bdelta::encode(&prev.sms[i], img));
            }
            (
                f.finish(),
                Some(ChainImage {
                    mem: mem_image,
                    sms: sm_images,
                }),
            )
        }
        CaptureMode::ChainBase => {
            f.add_section_bytes(SEC_MEM, mem_image.clone());
            for (i, img) in sm_images.iter().enumerate() {
                f.add_section_bytes(SEC_SM_BASE + i as u32, img.clone());
            }
            (
                f.finish(),
                Some(ChainImage {
                    mem: mem_image,
                    sms: sm_images,
                }),
            )
        }
        CaptureMode::Full => {
            f.add_section_bytes(SEC_MEM, mem_image);
            for (i, img) in sm_images.into_iter().enumerate() {
                f.add_section_bytes(SEC_SM_BASE + i as u32, img);
            }
            (f.finish(), None)
        }
    }
}

/// Restore every SM and its freshly built policy from the container's
/// per-SM sections, after checking the snapshot's scheduler identity.
/// With `image` set (a chain restore), the payloads come from the folded
/// chain-tip image instead of the container — the newest delta only holds
/// bdelta streams.
fn restore_lanes(
    fr: &FileReader,
    meta: &Meta,
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
    for (i, lane) in lanes.iter_mut().enumerate() {
        let mut r = match image {
            Some(img) => Reader::new(&img.sms[i]),
            None => fr.section(SEC_SM_BASE + i as u32)?,
        };
        lane.sm.restore_snapshot(&mut r)?;
        lane.policy.load_state(&mut r)?;
        r.finish()?;
    }
    Ok(())
}

/// One SM's worth of per-launch state, bundled so it can migrate to an
/// issue-phase worker thread and back as a unit.
struct Lane {
    sm: Sm,
    policy: Box<dyn WarpScheduler>,
    report: TickReport,
    /// This cycle's event buffer, replayed into the real tracer at merge.
    buf: BufferTracer,
}

/// The lane holding SM `idx` (chunks partition the SM array contiguously).
fn lane_mut(chunks: &mut [Vec<Lane>], idx: usize) -> &mut Lane {
    let mut i = idx;
    for c in chunks.iter_mut() {
        if i < c.len() {
            return &mut c[i];
        }
        i -= c.len();
    }
    unreachable!("SM index {idx} out of range")
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
