//! # pro-sm — streaming multiprocessor microarchitecture model
//!
//! The SM-level substrate of the PRO reproduction (the per-core half of
//! what GPGPU-Sim provides): warp contexts with real per-lane register
//! state, PDOM SIMT reconvergence, a scoreboard, dual scheduler units
//! driven by a pluggable [`pro_core::WarpScheduler`] policy, SP/SFU/LSU
//! pipelines, shared memory with bank conflicts, the barrier unit, TB
//! residency accounting, and GPGPU-Sim's Idle / Scoreboard / Pipeline stall
//! classification.
//!
//! The whole-GPU composition (thread block scheduler, SM array, shared
//! memory system) lives in `pro-sim`.

pub mod decode;
pub mod issue;
pub mod scoreboard;
pub mod shared;
pub mod simt;
pub mod sm;
pub mod warp;

pub use decode::IssueTable;
pub use issue::{IssueState, WarpIssue};
pub use scoreboard::{Scoreboard, WriteSet};
pub use simt::SimtStack;
pub use sm::{Sm, SmConfig, SmStats, TickReport, WarpDump};
pub use warp::Warp;
