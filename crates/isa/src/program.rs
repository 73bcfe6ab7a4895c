//! Program container and static validation.

use crate::inst::{Instr, Pc};
use std::fmt;

/// The most general-purpose registers a program may use per thread: a
/// warp's scoreboard tracks them in one `u128` mask.
pub const MAX_REGS: u8 = 128;

/// The most predicate registers a program may use per thread: a warp's
/// scoreboard tracks them in one `u32` mask.
pub const MAX_PREDS: u8 = 32;

/// A validated VPTX program: straight-line instruction array plus the static
/// resource footprint that determines SM residency (registers per thread and
/// shared memory per thread block), mirroring what NVCC reports for a CUDA
/// kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Kernel name (for traces and reports).
    pub name: String,
    /// The instruction stream; PC 0 is the entry point.
    pub instrs: Vec<Instr>,
    /// General-purpose registers per thread (`r0..r{regs-1}`).
    pub regs: u8,
    /// Predicate registers per thread.
    pub preds: u8,
    /// Shared memory per thread block, in bytes (word aligned).
    pub shared_bytes: u32,
}

/// Static validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The instruction stream is empty.
    Empty,
    /// A register operand exceeds the declared register count.
    RegOutOfRange {
        /// Offending PC.
        pc: Pc,
        /// Register index used.
        reg: u8,
        /// Declared limit.
        limit: u8,
    },
    /// A predicate operand exceeds the declared predicate count.
    PredOutOfRange {
        /// Offending PC.
        pc: Pc,
        /// Predicate index used.
        pred: u8,
        /// Declared limit.
        limit: u8,
    },
    /// A branch target or reconvergence point is past the end of the program.
    BadBranch {
        /// Offending PC.
        pc: Pc,
        /// The out-of-range PC referenced.
        to: Pc,
    },
    /// The final instruction can fall through past the end of the program.
    NoTerminalExit,
    /// Shared memory footprint is not word aligned.
    MisalignedShared,
    /// More registers declared than [`MAX_REGS`].
    TooManyRegs(u8),
    /// More predicates declared than [`MAX_PREDS`].
    TooManyPreds(u8),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::RegOutOfRange { pc, reg, limit } => {
                write!(f, "pc {pc}: r{reg} out of range (program declares {limit} regs)")
            }
            ProgramError::PredOutOfRange { pc, pred, limit } => {
                write!(f, "pc {pc}: p{pred} out of range (program declares {limit} preds)")
            }
            ProgramError::BadBranch { pc, to } => {
                write!(f, "pc {pc}: branch/reconvergence target {to} out of range")
            }
            ProgramError::NoTerminalExit => {
                write!(f, "control can fall through the end of the program without exit")
            }
            ProgramError::MisalignedShared => write!(f, "shared_bytes must be a multiple of 4"),
            ProgramError::TooManyRegs(n) => write!(f, "{n} regs declared; a warp holds at most {MAX_REGS}"),
            ProgramError::TooManyPreds(n) => write!(f, "{n} preds declared; a warp holds at most {MAX_PREDS}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Build and validate a program.
    pub fn new(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        regs: u8,
        preds: u8,
        shared_bytes: u32,
    ) -> Result<Self, ProgramError> {
        let p = Program {
            name: name.into(),
            instrs,
            regs,
            preds,
            shared_bytes,
        };
        p.validate()?;
        Ok(p)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Fetch the instruction at `pc`. Panics on out-of-range PC (validated
    /// programs never produce one).
    #[inline]
    pub fn fetch(&self, pc: Pc) -> &Instr {
        &self.instrs[pc as usize]
    }

    /// Check all static invariants. Called by [`Program::new`]; exposed for
    /// programs deserialized or assembled elsewhere.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        if !self.shared_bytes.is_multiple_of(4) {
            return Err(ProgramError::MisalignedShared);
        }
        if self.regs > MAX_REGS {
            return Err(ProgramError::TooManyRegs(self.regs));
        }
        if self.preds > MAX_PREDS {
            return Err(ProgramError::TooManyPreds(self.preds));
        }
        let len = self.instrs.len() as Pc;
        for (i, ins) in self.instrs.iter().enumerate() {
            let pc = i as Pc;
            for r in ins.src_regs().chain(ins.dst_reg()) {
                if r.0 >= self.regs {
                    return Err(ProgramError::RegOutOfRange {
                        pc,
                        reg: r.0,
                        limit: self.regs,
                    });
                }
            }
            for p in ins.src_preds().chain(ins.dst_pred()) {
                if p.0 >= self.preds {
                    return Err(ProgramError::PredOutOfRange {
                        pc,
                        pred: p.0,
                        limit: self.preds,
                    });
                }
            }
            if let Instr::Bra { target, reconv, .. } = ins {
                // `reconv == len` is legal: it means "reconverge at program
                // end", used by trailing loops.
                if *target >= len || *reconv > len {
                    return Err(ProgramError::BadBranch {
                        pc,
                        to: (*target).max(*reconv),
                    });
                }
            }
        }
        // The last instruction must not fall through: it must be an exit or
        // an unconditional branch.
        match self.instrs.last().expect("non-empty") {
            Instr::Exit => {}
            Instr::Bra { guard: None, .. } => {}
            _ => return Err(ProgramError::NoTerminalExit),
        }
        Ok(())
    }

    /// Count instructions of each pipeline class — used by workload docs and
    /// sanity tests asserting a kernel's intended instruction mix.
    pub fn mix(&self) -> ProgramMix {
        let mut m = ProgramMix::default();
        for i in &self.instrs {
            match i {
                Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. } => {
                    if i.is_global_mem() {
                        m.global_mem += 1;
                    } else {
                        m.shared_mem += 1;
                    }
                }
                Instr::Sfu { .. } => m.sfu += 1,
                Instr::Bar { .. } => m.barriers += 1,
                Instr::Bra { .. } | Instr::Exit => m.ctrl += 1,
                _ => m.alu += 1,
            }
        }
        m
    }

    /// Render the program as assembler text (re-parseable by [`crate::asm`]).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, ".kernel {}", self.name);
        let _ = writeln!(out, ".regs {}", self.regs);
        let _ = writeln!(out, ".preds {}", self.preds);
        let _ = writeln!(out, ".shared {}", self.shared_bytes);
        for (pc, ins) in self.instrs.iter().enumerate() {
            let _ = writeln!(out, "{pc:4}:  {ins}");
        }
        out
    }
}

/// Static instruction-mix summary for a [`Program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramMix {
    /// ALU-class instruction count.
    pub alu: usize,
    /// SFU instruction count.
    pub sfu: usize,
    /// Global loads/stores.
    pub global_mem: usize,
    /// Shared loads/stores/atomics.
    pub shared_mem: usize,
    /// Barriers.
    pub barriers: usize,
    /// Branches and exits.
    pub ctrl: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Guard, Pred, Reg, Src};

    fn exit_only() -> Vec<Instr> {
        vec![Instr::Exit]
    }

    #[test]
    fn minimal_program_validates() {
        let p = Program::new("t", exit_only(), 1, 1, 0).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            Program::new("t", vec![], 1, 1, 0).unwrap_err(),
            ProgramError::Empty
        );
    }

    #[test]
    fn reg_out_of_range_rejected() {
        let instrs = vec![
            Instr::Alu {
                op: AluOp::Mov,
                dst: Reg(4),
                a: Src::Imm(0),
                b: Src::Imm(0),
                c: Src::Imm(0),
            },
            Instr::Exit,
        ];
        let err = Program::new("t", instrs, 4, 1, 0).unwrap_err();
        assert!(matches!(err, ProgramError::RegOutOfRange { reg: 4, .. }));
    }

    #[test]
    fn pred_out_of_range_rejected() {
        let instrs = vec![
            Instr::Bra {
                guard: Some(Guard {
                    pred: Pred(2),
                    expect: true,
                }),
                target: 0,
                reconv: 1,
            },
            Instr::Exit,
        ];
        let err = Program::new("t", instrs, 1, 2, 0).unwrap_err();
        assert!(matches!(err, ProgramError::PredOutOfRange { pred: 2, .. }));
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let instrs = vec![
            Instr::Bra {
                guard: None,
                target: 9,
                reconv: 1,
            },
            Instr::Exit,
        ];
        let err = Program::new("t", instrs, 1, 1, 0).unwrap_err();
        assert!(matches!(err, ProgramError::BadBranch { to: 9, .. }));
    }

    #[test]
    fn reconv_at_program_end_is_legal() {
        let instrs = vec![
            Instr::Nop,
            Instr::Bra {
                guard: None,
                target: 0,
                reconv: 3,
            },
            Instr::Exit,
        ];
        // reconv == len (3) is allowed
        Program::new("t", instrs, 1, 1, 0).unwrap();
    }

    #[test]
    fn fallthrough_end_rejected() {
        let instrs = vec![Instr::Nop];
        assert_eq!(
            Program::new("t", instrs, 1, 1, 0).unwrap_err(),
            ProgramError::NoTerminalExit
        );
    }

    #[test]
    fn misaligned_shared_rejected() {
        assert_eq!(
            Program::new("t", exit_only(), 1, 1, 6).unwrap_err(),
            ProgramError::MisalignedShared
        );
    }

    #[test]
    fn mix_counts_classes() {
        use crate::inst::MemSpace;
        let instrs = vec![
            Instr::Alu {
                op: AluOp::IAdd,
                dst: Reg(0),
                a: Src::Imm(1),
                b: Src::Imm(2),
                c: Src::Imm(0),
            },
            Instr::Ld {
                space: MemSpace::Global,
                dst: Reg(0),
                addr: Reg(0),
                offset: 0,
            },
            Instr::Bar { id: 0 },
            Instr::Exit,
        ];
        let p = Program::new("t", instrs, 1, 1, 0).unwrap();
        let m = p.mix();
        assert_eq!(m.alu, 1);
        assert_eq!(m.global_mem, 1);
        assert_eq!(m.barriers, 1);
        assert_eq!(m.ctrl, 1);
    }

    #[test]
    fn disassemble_contains_directives() {
        let p = Program::new("dis", exit_only(), 2, 1, 8).unwrap();
        let text = p.disassemble();
        assert!(text.contains(".kernel dis"));
        assert!(text.contains(".regs 2"));
        assert!(text.contains(".shared 8"));
        assert!(text.contains("exit"));
    }
}
