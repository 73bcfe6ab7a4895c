//! The one place where the benchmark calls into the repository's crates.
//!
//! Every other module of this package sees only the plain types defined
//! here, so a PR that collapses or renames the simulator's API (ROADMAP
//! item 3) edits this file and `adapter/components.rs` and nothing else. The
//! public names the benchmark is bound to — keep these source-compatible or
//! update the adapter in the same change:
//!
//! Launch surface (this file)
//! * `pro_sim::Gpu::{new, launch, launch_traced, launch_checkpointed, resume}`
//!   and the `gmem` field
//! * `pro_sim::{GpuConfig::gtx480, GpuConfig::sm_workers, SchedulerKind,
//!   TraceOptions::host_prof, CheckpointOptions::{every, path, delta,
//!   pause_at}, LaunchStatus, GpuSnapshot, SnapshotChain::load_dir}`
//! * `pro_sim::RunResult`: `Snapshot::save`, `cycles`, `metrics.counters()`
//!   (registry names `cycles`, `sm.*`, `mem.*`, and `host/*` under
//!   `host_prof`)
//! * `pro_sim::core::codec::{crc32, Snapshot, Writer}`,
//!   `pro_sim::core::rng::SplitMix64::{new, next_u64, gen_range, gen_f64}`
//! * `pro_sim::trace::{RingTracer::{new, total_emitted}, JsonlTracer::{new,
//!   into_inner}, json::{parse, to_string, Json}}`
//! * `pro_sim::isa::interp::{run_kernel, MemoryBackend}`, `pro_sim::isa::Kernel`
//! * `pro_sim::mem::GlobalMem::{new, read, write, read_slice}`
//! * `pro_workloads::{registry, Scale, Workload::{kernel, build,
//!   build_scaled, recommended_gmem}, Built}`
//! * `pro_workloads::synth::{generate, SynthParams, SynthKernel}`
//!
//! Probe surface (`adapter/components.rs`): listed in that file's header.

pub mod components;

use std::io::Write;
use std::path::Path;

use pro_sim::core::codec::{crc32, Snapshot, Writer};
use pro_sim::isa::interp::{run_kernel, MemoryBackend};
use pro_sim::isa::Kernel;
use pro_sim::mem::GlobalMem;
use pro_sim::trace::{JsonlTracer, RingTracer};
use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, RunResult, SnapshotChain,
    TraceOptions,
};
use pro_workloads::synth::{generate, SynthParams};
use pro_workloads::{registry, Scale, VerifyFn};

pub use pro_sim::core::rng::SplitMix64;
pub use pro_sim::trace::json;
pub use pro_sim::SchedulerKind as Policy;

/// The paper's four evaluated policies (TL, LRR, GTO, PRO).
pub const PAPER_POLICIES: [Policy; 4] = Policy::PAPER;

/// Names of the 25 Table II kernels, in table order.
pub fn table2_kernels() -> Vec<&'static str> {
    registry().iter().map(|w| w.kernel).collect()
}

/// A seeded synthetic kernel: the seed picks the program, `statements` its
/// length, the two probabilities the layer it stresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthSpec {
    pub seed: u64,
    pub statements: u32,
    pub mem_prob: f64,
    pub scatter_prob: f64,
}

impl SynthSpec {
    fn params(&self) -> SynthParams {
        SynthParams {
            seed: self.seed,
            // 1.25 x the 112 blocks of 4 warps a GTX480 holds at once, so
            // both of PRO's phases occur.
            blocks: 140,
            threads: 128,
            statements: self.statements,
            mem_prob: self.mem_prob,
            scatter_prob: self.scatter_prob,
            barrier_prob: 0.04,
            sfu_prob: 0.08,
            branch_prob: 0.1,
            loop_prob: 0.03,
            max_trip: 4,
        }
    }
}

/// Which kernel a cell launches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelSpec {
    /// A Table II kernel by name, at `Scale::default()`.
    Table(&'static str),
    /// A generated kernel.
    Synth(SynthSpec),
}

impl KernelSpec {
    pub fn label(&self) -> String {
        match self {
            KernelSpec::Table(name) => (*name).to_string(),
            KernelSpec::Synth(s) => format!("synth_{:016x}", s.seed),
        }
    }
}

/// Device memory for generated kernels. They need far less, but a size the
/// allocator always maps afresh (and the kernel zeroes lazily) keeps the
/// process's peak memory from depending on the order of the cells.
const SYNTH_GMEM_BYTES: u64 = 64 << 20;

/// A fresh simulated GPU (Table I configuration, empty caches).
pub struct Device {
    gpu: Gpu,
}

pub fn new_device(spec: &KernelSpec) -> Device {
    new_device_with(spec, GpuConfig::gtx480())
}

fn new_device_with(spec: &KernelSpec, cfg: GpuConfig) -> Device {
    let bytes = match spec {
        KernelSpec::Table(name) => table_workload(name).recommended_gmem(Scale::default()),
        KernelSpec::Synth(_) => SYNTH_GMEM_BYTES,
    };
    Device {
        gpu: Gpu::new(cfg, bytes),
    }
}

fn table_workload(name: &str) -> pro_workloads::Workload {
    registry()
        .into_iter()
        .find(|w| w.kernel == name)
        .unwrap_or_else(|| panic!("no Table II kernel named `{name}`"))
}

enum Verifier {
    /// The workload's own host reference.
    Host(VerifyFn),
    /// Generated kernels: the thread-private output region, to be compared
    /// with the scalar interpreter's (see [`oracle_output`]).
    Region { base: u64, words: usize },
}

/// A kernel bound to buffers in one [`Device`]'s memory.
pub struct BuiltKernel {
    kernel: Kernel,
    verifier: Verifier,
}

pub fn build(dev: &mut Device, spec: &KernelSpec) -> BuiltKernel {
    match spec {
        KernelSpec::Table(name) => {
            let built = table_workload(name).build_scaled(&mut dev.gpu.gmem, Scale::default());
            BuiltKernel {
                kernel: built.kernel,
                verifier: Verifier::Host(built.verify),
            }
        }
        KernelSpec::Synth(s) => {
            let k = generate(&mut dev.gpu.gmem, s.params());
            BuiltKernel {
                kernel: k.kernel,
                verifier: Verifier::Region {
                    base: k.out_base,
                    words: k.out_len,
                },
            }
        }
    }
}

struct Backend<'a>(&'a mut GlobalMem);

impl MemoryBackend for Backend<'_> {
    fn read_global(&mut self, addr: u32) -> u32 {
        self.0.read(addr as u64)
    }
    fn write_global(&mut self, addr: u32, value: u32) {
        self.0.write(addr as u64, value);
    }
}

/// What a generated kernel must leave in its output region, computed by the
/// scalar reference interpreter, which shares no code with the SIMT model.
pub fn oracle_output(spec: &SynthSpec) -> Result<Vec<u32>, String> {
    let mut gmem = GlobalMem::new(SYNTH_GMEM_BYTES);
    let k = generate(&mut gmem, spec.params());
    run_kernel(&k.kernel, &mut Backend(&mut gmem), 5_000_000).map_err(|e| e.to_string())?;
    Ok(gmem.read_slice(k.out_base, k.out_len))
}

/// Functional check of device memory after a launch. `oracle` is the
/// [`oracle_output`] of the cell's kernel when it is a generated one.
pub fn verify(dev: &Device, built: &BuiltKernel, oracle: Option<&[u32]>) -> Result<(), String> {
    match &built.verifier {
        Verifier::Host(f) => f(&dev.gpu.gmem),
        Verifier::Region { base, words } => {
            let want = oracle.ok_or("generated kernel without an oracle output")?;
            let got = dev.gpu.gmem.read_slice(*base, *words);
            match got.iter().zip(want).position(|(a, b)| a != b) {
                None if got.len() == want.len() => Ok(()),
                None => Err(format!(
                    "output has {} words, oracle {}",
                    got.len(),
                    want.len()
                )),
                Some(i) => Err(format!(
                    "output word {i}: {:#x} != oracle {:#x}",
                    got[i], want[i]
                )),
            }
        }
    }
}

/// The counters of one finished launch, detached from `RunResult`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// CRC-32 of the result's `Snapshot` encoding (excludes `host/*`): two
    /// launches simulated the same thing iff their digests agree.
    pub digest: u32,
    /// The metrics registry, `host/*` included when profiled.
    counters: Vec<(String, u64)>,
}

impl CellStats {
    fn of(r: &RunResult) -> CellStats {
        let mut w = Writer::new();
        r.save(&mut w);
        CellStats {
            digest: crc32(&w.into_bytes()),
            counters: r.metrics.counters().to_vec(),
        }
    }

    /// A registry counter, 0 when absent (e.g. `host/*` on an unprofiled launch).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn cycles(&self) -> u64 {
        self.get("cycles")
    }
}

/// How a cell drives the run loop.
#[derive(Debug, Clone, Copy)]
pub enum LaunchMode<'a> {
    /// `Gpu::launch`.
    Plain,
    /// `Gpu::launch_traced` into a `RingTracer` of `1 << 20` records.
    Ring,
    /// `Gpu::launch_traced` into a `JsonlTracer` over a byte-counting sink.
    Jsonl,
    /// `Gpu::launch_checkpointed` writing a delta chain into `dir`.
    Checkpointed { dir: &'a Path, every: u64 },
}

/// What a launch produced besides its counters.
#[derive(Debug, Clone)]
pub struct Launched {
    pub stats: CellStats,
    /// Events the tracer was offered (`Ring`, `Jsonl`).
    pub events: Option<u64>,
    /// Bytes the tracer or the checkpoint chain wrote (`Jsonl`, `Checkpointed`).
    pub bytes: Option<u64>,
    /// Files in the checkpoint chain (`Checkpointed`).
    pub captures: Option<u64>,
}

impl Launched {
    fn plain(r: &RunResult) -> Launched {
        Launched {
            stats: CellStats::of(r),
            events: None,
            bytes: None,
            captures: None,
        }
    }
}

struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn trace_options(host_prof: bool) -> TraceOptions {
    TraceOptions {
        host_prof,
        ..TraceOptions::default()
    }
}

/// Run `built` to completion on `dev`.
pub fn launch(
    dev: &mut Device,
    built: &BuiltKernel,
    policy: Policy,
    mode: LaunchMode<'_>,
    host_prof: bool,
) -> Result<Launched, String> {
    let opts = trace_options(host_prof);
    let gpu = &mut dev.gpu;
    let err = |e: pro_sim::SimError| e.to_string();
    match mode {
        LaunchMode::Plain => {
            let r = gpu.launch(&built.kernel, policy, opts).map_err(err)?;
            Ok(Launched::plain(&r))
        }
        LaunchMode::Ring => {
            let mut ring = RingTracer::new(1 << 20);
            let r = gpu
                .launch_traced(&built.kernel, policy, opts, &mut ring)
                .map_err(err)?;
            Ok(Launched {
                events: Some(ring.total_emitted()),
                ..Launched::plain(&r)
            })
        }
        LaunchMode::Jsonl => {
            let mut jsonl = JsonlTracer::new(CountingSink(0));
            let r = gpu
                .launch_traced(&built.kernel, policy, opts, &mut jsonl)
                .map_err(err)?;
            let lines = jsonl.lines_written;
            Ok(Launched {
                events: Some(lines),
                bytes: Some(jsonl.into_inner().0),
                ..Launched::plain(&r)
            })
        }
        LaunchMode::Checkpointed { dir, every } => {
            let ckpt = CheckpointOptions {
                every,
                path: Some(dir.to_path_buf()),
                delta: true,
                ..CheckpointOptions::default()
            };
            let status = gpu
                .launch_checkpointed(&built.kernel, policy, opts, &ckpt)
                .map_err(err)?;
            let LaunchStatus::Completed(r) = status else {
                return Err("checkpointed launch paused without a pause point".into());
            };
            let chain = SnapshotChain::load_dir(dir).ok_or("no checkpoint chain on disk")?;
            let bytes: usize = chain.containers.iter().map(|c| c.as_bytes().len()).sum();
            Ok(Launched {
                bytes: Some(bytes as u64),
                captures: Some(chain.containers.len() as u64),
                ..Launched::plain(&r)
            })
        }
    }
}

/// A device whose issue phase runs on `workers` host threads.
pub fn new_device_workers(spec: &KernelSpec, workers: usize) -> Device {
    new_device_with(
        spec,
        GpuConfig {
            sm_workers: workers,
            ..GpuConfig::gtx480()
        },
    )
}

/// A launch stopped in flight.
pub struct Paused(GpuSnapshot);

/// Start `built` and stop it once `at` cycles have elapsed.
pub fn launch_until(
    dev: &mut Device,
    built: &BuiltKernel,
    policy: Policy,
    at: u64,
    host_prof: bool,
) -> Result<Paused, String> {
    let ckpt = CheckpointOptions {
        pause_at: at.max(1),
        ..CheckpointOptions::default()
    };
    match dev
        .gpu
        .launch_checkpointed(&built.kernel, policy, trace_options(host_prof), &ckpt)
        .map_err(|e| e.to_string())?
    {
        LaunchStatus::Paused(snap) => Ok(Paused(snap)),
        LaunchStatus::Completed(_) => Err(format!("launch finished before the pause point {at}")),
    }
}

/// Continue a [`Paused`] launch on a fresh device that built the same kernel.
pub fn resume(
    dev: &mut Device,
    built: &BuiltKernel,
    policy: Policy,
    paused: &Paused,
    host_prof: bool,
) -> Result<Launched, String> {
    match dev
        .gpu
        .resume(
            &paused.0,
            &built.kernel,
            policy,
            trace_options(host_prof),
            &CheckpointOptions::default(),
        )
        .map_err(|e| e.to_string())?
    {
        LaunchStatus::Completed(r) => Ok(Launched::plain(&r)),
        LaunchStatus::Paused(_) => Err("resumed launch paused again".into()),
    }
}
