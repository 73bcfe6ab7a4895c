//! # pro-isa — VPTX, a SIMT virtual instruction set
//!
//! The PRO paper evaluates warp schedulers on CUDA kernels compiled to PTX and
//! executed by GPGPU-Sim. This crate provides the equivalent substrate for the
//! Rust reproduction: a small, fully executable SIMT ISA ("VPTX") together
//! with
//!
//! * a typed in-memory representation of instructions ([`Instr`], [`AluOp`]),
//! * a [`Program`] container with validation ([`Program::validate`]),
//! * a [`builder::ProgramBuilder`] with structured-control-flow helpers that
//!   emit correct SIMT reconvergence points,
//! * a text [`asm`]sembler for writing kernels by hand,
//! * pure functional semantics for every operation ([`exec`]), used by the
//!   SM model to *really* execute kernels (branches, addresses and divergence
//!   are computed, not sampled),
//! * an independent scalar reference [`interp`]reter used as a differential
//!   oracle against the SIMT simulator, and
//! * the [`Kernel`]/[`LaunchConfig`] types describing a grid launch.
//!
//! Threads are 32-bit register machines; `f32` values travel bit-cast inside
//! `u32` lanes. A warp is [`WARP_SIZE`] = 32 consecutive threads, matching the
//! paper's Fermi configuration.

pub mod asm;
pub mod builder;
pub mod exec;
pub mod inst;
pub mod interp;
pub mod kernel;
pub mod program;

pub use builder::ProgramBuilder;
pub use inst::{AluOp, AtomOp, CmpOp, Instr, MemSpace, Pc, Pred, Reg, SfuOp, Special, Src, Ty};
pub use kernel::{Kernel, LaunchConfig};
pub use program::{Program, MAX_PREDS, MAX_REGS};

/// Number of threads in a warp (CUDA/Fermi fixed at 32).
pub const WARP_SIZE: usize = 32;

/// Convenience alias for a full active mask (all 32 lanes on).
pub const FULL_MASK: u32 = u32::MAX;

/// Classification of an [`Instr`] by the execution pipeline that serves it
/// inside an SM. The SM model owns one pipeline of each kind per scheduler
/// (ALU) or per SM (SFU, MEM) and uses this to route issued instructions;
/// a full pipeline is what the paper calls a *Pipeline stall*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeClass {
    /// Integer/float arithmetic, comparisons, moves: the SP units.
    Alu,
    /// Special function unit: transcendental ops, low initiation rate.
    Sfu,
    /// Load/store unit: global & shared memory and atomics.
    Mem,
    /// Control flow and barriers: resolved at issue, no pipeline occupancy.
    Ctrl,
}
