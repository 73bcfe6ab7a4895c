//! # pro-sim — whole-GPU cycle-level simulator
//!
//! The top of the PRO reproduction stack: composes the SM array
//! ([`pro_sm`]), the memory hierarchy ([`pro_mem`]) and a pluggable warp
//! scheduling policy ([`pro_core`]) into a simulated Fermi-class GPU with a
//! global thread block scheduler, and runs VPTX kernels ([`pro_isa`]) to
//! completion while measuring the paper's metrics: simulation cycles,
//! Idle/Scoreboard/Pipeline stalls, cache behaviour, per-TB execution
//! timelines (Fig. 2) and PRO's TB priority snapshots (Table IV).
//!
//! ```no_run
//! use pro_sim::{Gpu, GpuConfig, TraceOptions};
//! use pro_core::SchedulerKind;
//! use pro_isa::{ProgramBuilder, Kernel, LaunchConfig};
//!
//! let mut gpu = Gpu::new(GpuConfig::gtx480(), 64 << 20);
//! let out = gpu.gmem.alloc(1024 * 4);
//! let mut b = ProgramBuilder::new("quickstart");
//! let (g, a) = (b.reg(), b.reg());
//! b.global_tid(g);
//! b.buf_addr(a, 0, g, 0);
//! b.st_global(g, a, 0);
//! b.exit();
//! let kernel = Kernel::new(b.build().unwrap(), LaunchConfig::linear(8, 128), vec![out as u32]);
//! let result = gpu.launch(&kernel, SchedulerKind::Pro, TraceOptions::default()).unwrap();
//! println!("{} cycles, IPC {:.2}", result.cycles, result.ipc());
//! ```

pub mod checkpoint;
pub mod config;
pub mod gpu;
pub mod result;

pub use checkpoint::{CheckpointOptions, GpuSnapshot, LaunchStatus, Prior, SnapshotChain};
pub use config::{load_config, parse_config, ConfigError};
pub use gpu::{Gpu, GpuConfig, Policy, Run, SimError, TraceOptions};
pub use result::{geomean, RunResult, TbOrderSnapshot, TbSpan};

// Re-export the component crates so downstream users need a single
// dependency.
pub use pro_core as core;
pub use pro_isa as isa;
pub use pro_mem as mem;
pub use pro_sm as smx;
pub use pro_trace as trace;
pub use pro_core::SchedulerKind;
