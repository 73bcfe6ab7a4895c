//! Decode-once issue metadata (DESIGN.md §16).
//!
//! Everything the issue stage asks about an instruction *before* choosing
//! it — which registers it touches, which pipeline serves it, whether it
//! must wait for the warp's pipeline to drain — depends only on the
//! instruction, so it is worked out once per kernel binding and indexed by
//! PC. The issue walk, the ready-warp sampler and the stall-attribution
//! pass test `table.at(pc)` against a warp's scoreboard; the [`Instr`]
//! itself is fetched only by `Warp::execute` for the warp that was
//! chosen.
//!
//! The table is derived state: it is a pure function of the bound
//! [`Program`], is never serialized, and is rebuilt when a kernel is bound
//! (which a checkpoint restore does before loading SM state).

use crate::issue::NextInstr;
use crate::scoreboard::{Scoreboard, WriteSet};
use pro_isa::{AluOp, Instr, Pc, PipeClass, Program};
use std::sync::Arc;

/// Latency classes for writeback scheduling; the SM maps these to cycle
/// counts from its config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatClass {
    /// Simple integer / logic / move / compare / select.
    IntSimple,
    /// Integer multiply / multiply-add.
    IntMul,
    /// f32 arithmetic.
    Float,
    /// Type conversions.
    Convert,
}

impl LatClass {
    /// The class of an ALU opcode.
    pub(crate) fn of(op: AluOp) -> LatClass {
        match op {
            AluOp::IMul | AluOp::IMulHi | AluOp::IMad => LatClass::IntMul,
            AluOp::FAdd | AluOp::FSub | AluOp::FMul | AluOp::FFma | AluOp::FMin | AluOp::FMax => {
                LatClass::Float
            }
            AluOp::I2F | AluOp::F2I => LatClass::Convert,
            _ => LatClass::IntSimple,
        }
    }
}

/// What the issue stage needs to know about one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueMeta {
    /// Registers read or written ([`Scoreboard::hazard_set`]).
    pub hazard: WriteSet,
    /// Registers written ([`Scoreboard::write_set`]), reserved at issue.
    pub write: WriteSet,
    /// Pipeline that serves the instruction.
    pub pipe: PipeClass,
    /// `Exit` and `Bar` issue only once every earlier write of the warp has
    /// completed (in-order completion).
    pub drains: bool,
    /// Writeback latency class, for ALU-pipeline instructions.
    pub lat: LatClass,
}

impl IssueMeta {
    /// Decode one instruction.
    pub(crate) fn of(instr: &Instr) -> IssueMeta {
        IssueMeta {
            hazard: Scoreboard::hazard_set(instr),
            write: Scoreboard::write_set(instr),
            pipe: instr.pipe_class(),
            drains: matches!(instr, Instr::Exit | Instr::Bar { .. }),
            lat: match instr {
                Instr::Alu { op, .. } => LatClass::of(*op),
                _ => LatClass::IntSimple,
            },
        }
    }

    /// Does `sb` let this instruction issue? False while a register it
    /// touches has a write in flight, or — for a draining instruction —
    /// while any write is.
    #[inline]
    pub fn ready(&self, sb: &Scoreboard) -> bool {
        NextInstr::of(self).ready(sb)
    }
}

/// A program together with the [`IssueMeta`] of each of its instructions.
/// Built once per kernel binding and shared by every SM running the kernel.
#[derive(Debug)]
pub struct IssueTable {
    program: Arc<Program>,
    meta: Vec<IssueMeta>,
}

impl IssueTable {
    /// Decode every instruction of `program`.
    pub fn build(program: &Arc<Program>) -> IssueTable {
        IssueTable {
            meta: program.instrs.iter().map(IssueMeta::of).collect(),
            program: Arc::clone(program),
        }
    }

    /// The decoded program.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// Metadata of the instruction at `pc`. Panics on an out-of-range PC
    /// (validated programs never produce one).
    #[inline]
    pub fn at(&self, pc: Pc) -> &IssueMeta {
        let meta = &self.meta[pc as usize];
        debug_assert_eq!(*meta, IssueMeta::of(self.program.fetch(pc)));
        meta
    }
}
