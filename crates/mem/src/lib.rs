//! # pro-mem — GPU memory hierarchy model
//!
//! The substrate standing in for GPGPU-Sim's memory system in the PRO
//! reproduction. Long, variable global-memory latency is the primary stall
//! source the PRO scheduler hides, so this crate models the full path a
//! Fermi global access takes:
//!
//! ```text
//! warp lanes ──coalescer──▶ per-SM L1 (128B lines, MSHRs)
//!                              │ miss
//!                              ▼ interconnect latency
//!                         address-sliced L2 (one slice per memory partition)
//!                              │ miss
//!                              ▼
//!                         DRAM channel (banked, FR-FCFS scheduling)
//! ```
//!
//! * [`coalesce`] — merges 32 lane addresses into 128-byte line transactions.
//! * [`cache`] — set-associative cache with LRU replacement and MSHRs.
//! * [`dram`] — banked DRAM channel with First-Ready FCFS scheduling
//!   (Table I: `DRAM Scheduler FR-FCFS`).
//! * [`subsystem`] — ties L1s, L2 slices and DRAM channels together and
//!   exposes the cycle-level API the SM model drives ([`MemSubsystem`]).
//! * [`gmem`] — the functional backing store for global memory.
//!
//! Timing and function are split: values are read/written functionally at
//! access time (workloads are race-free by construction, so results are
//! schedule-independent), while the timing path decides *when* the issuing
//! warp's load completes and its scoreboard entry clears.

pub mod cache;
pub mod coalesce;
pub mod dram;
pub mod gmem;
pub mod subsystem;

pub use cache::{Cache, CacheConfig};
pub use coalesce::coalesce_lines;
pub use dram::{DramChannel, DramConfig, DramPolicy};
pub use gmem::GlobalMem;
pub use subsystem::{
    load_hist, save_hist, AccessId, AccessOutcome, LoadLedger, MemConfig, MemStats, MemSubsystem,
    QueueProf, QUEUE_SAMPLE_PERIOD,
};

/// Bytes per cache line / memory transaction segment (Fermi: 128 B).
pub const LINE_BYTES: u64 = 128;

/// Log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 7;

/// Convert a byte address to its line address.
#[inline]
pub fn line_of(byte_addr: u64) -> u64 {
    byte_addr >> LINE_SHIFT
}
