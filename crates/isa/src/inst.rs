//! Instruction representation for the VPTX ISA.
//!
//! The encoding is deliberately close to (a small subset of) PTX as used by
//! the paper's benchmarks: predicated branches with explicit reconvergence
//! points, typed compares into predicate registers, a handful of ALU ops,
//! SFU transcendentals, and loads/stores to the global / shared / parameter
//! spaces.

use std::fmt;

/// Program counter: an index into [`crate::Program::instrs`].
pub type Pc = u32;

/// A general-purpose 32-bit register index (`r0..r{regs-1}`, per thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// A 1-bit predicate register index (`p0..p{preds-1}`, per thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Declares a field-less enum whose values each print as one fixed text,
/// with `ALL` (every value, in declaration order) and `name()` (the text
/// [`Instr`]'s `Display` writes and [`crate::asm`] reads).
macro_rules! named_enum {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$doc:meta])* $variant:ident => $text:literal,)*
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$doc])* $variant,)*
        }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: [$name; [$($text),*].len()] = [$($name::$variant),*];

            /// The value's assembly text.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)*
                }
            }
        }
    };
}

named_enum! {
    /// Read-only special values a thread can source without a register.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Special {
        /// Linear thread index within the thread block (`threadIdx` flattened).
        Tid => "%tid",
        /// Linear thread block index within the grid (`blockIdx` flattened).
        Ctaid => "%ctaid",
        /// Number of threads per block.
        NTid => "%ntid",
        /// Number of blocks in the grid.
        NCtaid => "%nctaid",
        /// Lane index within the warp (0..32).
        LaneId => "%laneid",
        /// Warp index within the thread block.
        WarpId => "%warpid",
    }
}

/// A source operand: register, immediate, special value, or kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// General-purpose register.
    Reg(Reg),
    /// 32-bit immediate (bit pattern; may hold an `f32`).
    Imm(u32),
    /// Hardware special value.
    Special(Special),
    /// Kernel parameter slot (free constant-bank read).
    Param(u8),
}

impl Src {
    /// Immediate from a signed integer.
    pub fn imm_i32(v: i32) -> Self {
        Src::Imm(v as u32)
    }
    /// Immediate from an `f32` bit pattern.
    pub fn imm_f32(v: f32) -> Self {
        Src::Imm(v.to_bits())
    }
    /// The register read by this operand, if any.
    pub(crate) fn reg(&self) -> Option<Reg> {
        match self {
            Src::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Self {
        Src::Reg(r)
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(v) => write!(f, "{}", *v as i32),
            Src::Special(s) => f.write_str(s.name()),
            Src::Param(i) => write!(f, "%param{i}"),
        }
    }
}

named_enum! {
    /// Scalar type interpretation for compares.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Ty {
        /// Signed 32-bit integer.
        S32 => "s32",
        /// Unsigned 32-bit integer.
        U32 => "u32",
        /// IEEE-754 binary32.
        F32 => "f32",
    }
}

named_enum! {
    /// Two- and three-operand arithmetic/logic operations (SP-unit class).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum AluOp {
        /// `dst = a + b` (wrapping).
        IAdd => "iadd",
        /// `dst = a - b` (wrapping).
        ISub => "isub",
        /// `dst = a * b` (low 32 bits).
        IMul => "imul",
        /// `dst = (a * b) >> 32` (signed high multiply).
        IMulHi => "imulhi",
        /// `dst = a * b + c` (wrapping multiply-add).
        IMad => "imad",
        /// `dst = min(a, b)` signed.
        IMin => "imin",
        /// `dst = max(a, b)` signed.
        IMax => "imax",
        /// Bitwise and.
        And => "and",
        /// Bitwise or.
        Or => "or",
        /// Bitwise xor.
        Xor => "xor",
        /// Logical shift left by `b & 31`.
        Shl => "shl",
        /// Logical shift right by `b & 31`.
        Shr => "shr",
        /// Arithmetic shift right by `b & 31`.
        Sra => "sra",
        /// `dst = a` (register/imm/special move).
        Mov => "mov",
        /// `dst = a + b` on f32.
        FAdd => "fadd",
        /// `dst = a - b` on f32.
        FSub => "fsub",
        /// `dst = a * b` on f32.
        FMul => "fmul",
        /// `dst = a * b + c` fused on f32.
        FFma => "ffma",
        /// `dst = min(a, b)` on f32.
        FMin => "fmin",
        /// `dst = max(a, b)` on f32.
        FMax => "fmax",
        /// Convert s32 → f32.
        I2F => "i2f",
        /// Convert f32 → s32 (truncating).
        F2I => "f2i",
    }
}

impl AluOp {
    /// Operands in assembly text, the destination included: `dst, a` for a
    /// move or conversion, `dst, a, b, c` for a multiply-add, else
    /// `dst, a, b`.
    pub(crate) fn operands(self) -> usize {
        match self {
            AluOp::Mov | AluOp::I2F | AluOp::F2I => 2,
            AluOp::IMad | AluOp::FFma => 4,
            _ => 3,
        }
    }
}

named_enum! {
    /// Comparison operators for `setp`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum CmpOp {
        /// Equal.
        Eq => "eq",
        /// Not equal.
        Ne => "ne",
        /// Less than.
        Lt => "lt",
        /// Less than or equal.
        Le => "le",
        /// Greater than.
        Gt => "gt",
        /// Greater than or equal.
        Ge => "ge",
    }
}

named_enum! {
    /// Special-function-unit operations (transcendentals; long latency, low
    /// initiation rate — the Fermi SFU).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SfuOp {
        /// Reciprocal 1/x.
        Rcp => "rcp",
        /// Reciprocal square root.
        Rsqrt => "rsqrt",
        /// Square root.
        Sqrt => "sqrt",
        /// Sine (argument in radians).
        Sin => "sin",
        /// Cosine.
        Cos => "cos",
        /// Base-2 exponential.
        Exp2 => "exp2",
        /// Base-2 logarithm.
        Log2 => "log2",
    }
}

/// Memory spaces addressable by loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory (through L1/L2/DRAM).
    Global,
    /// Per-thread-block shared memory (on-chip, banked).
    Shared,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
        })
    }
}

named_enum! {
    /// Atomic read-modify-write operations on shared memory (used by the
    /// histogram-style workloads).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum AtomOp {
        /// `[addr] += src`, returns old value.
        Add => "add",
        /// `[addr] = max([addr], src)` signed, returns old value.
        Max => "max",
        /// `[addr] = src`, returns old value.
        Exch => "exch",
    }
}

/// Predicate guard on an instruction: execute lane only when `pred` has the
/// value `expect` in that lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Predicate register tested.
    pub pred: Pred,
    /// Expected value (`true` = `@p`, `false` = `@!p`).
    pub expect: bool,
}

/// One VPTX instruction.
///
/// Control transfer carries an explicit `reconv` PC — the immediate
/// post-dominator of the branch — which the SM's SIMT stack uses for
/// reconvergence, exactly as GPGPU-Sim derives from PTX analysis. The
/// [`crate::ProgramBuilder`] computes these automatically for structured
/// control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Three-source ALU op; `b`/`c` ignored by unary/binary ops.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Src,
        /// Second source (binary/ternary ops).
        b: Src,
        /// Third source (`IMad`/`FFma` only).
        c: Src,
    },
    /// Compare `a <cmp> b` under type `ty` into predicate `dst`.
    SetP {
        /// Comparison operator.
        cmp: CmpOp,
        /// Type interpretation of the operands.
        ty: Ty,
        /// Destination predicate.
        dst: Pred,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// Select: `dst = pred ? a : b` per lane.
    SelP {
        /// Destination register.
        dst: Reg,
        /// Value when predicate is true.
        a: Src,
        /// Value when predicate is false.
        b: Src,
        /// Selecting predicate.
        pred: Pred,
    },
    /// Special-function op `dst = op(a)` (f32 in/out).
    Sfu {
        /// Operation.
        op: SfuOp,
        /// Destination register.
        dst: Reg,
        /// Argument.
        a: Src,
    },
    /// Load `dst = [addr + offset]` (32-bit word) from `space`.
    Ld {
        /// Memory space.
        space: MemSpace,
        /// Destination register.
        dst: Reg,
        /// Byte address register.
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
    },
    /// Store `[addr + offset] = src` (32-bit word) to `space`.
    St {
        /// Memory space.
        space: MemSpace,
        /// Value register.
        src: Reg,
        /// Byte address register.
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
    },
    /// Shared-memory atomic `dst = atom_op([addr], src)`.
    Atom {
        /// RMW operation.
        op: AtomOp,
        /// Receives the old value.
        dst: Reg,
        /// Byte address register (shared space).
        addr: Reg,
        /// RMW operand.
        src: Reg,
    },
    /// Thread-block-wide barrier (`bar.sync id`).
    Bar {
        /// Barrier resource id (Fermi has 16; our kernels use 0).
        id: u8,
    },
    /// Branch to `target`; optionally guarded. `reconv` is the immediate
    /// post-dominator where diverged lanes re-join.
    Bra {
        /// Predicate guard; `None` = unconditional.
        guard: Option<Guard>,
        /// Branch target PC.
        target: Pc,
        /// Reconvergence PC.
        reconv: Pc,
    },
    /// Thread exit (warp lane retires).
    Exit,
    /// No operation (occupies an issue slot; used for padding/latency tests).
    Nop,
}

impl Instr {
    /// The pipeline that serves this instruction.
    pub fn pipe_class(&self) -> crate::PipeClass {
        use crate::PipeClass;
        match self {
            Instr::Alu { .. } | Instr::SetP { .. } | Instr::SelP { .. } | Instr::Nop => {
                PipeClass::Alu
            }
            Instr::Sfu { .. } => PipeClass::Sfu,
            Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. } => PipeClass::Mem,
            Instr::Bar { .. } | Instr::Bra { .. } | Instr::Exit => PipeClass::Ctrl,
        }
    }

    /// Destination general-purpose register written by this instruction.
    pub fn dst_reg(&self) -> Option<Reg> {
        match self {
            Instr::Alu { dst, .. }
            | Instr::SelP { dst, .. }
            | Instr::Sfu { dst, .. }
            | Instr::Ld { dst, .. }
            | Instr::Atom { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Destination predicate register, if any.
    pub fn dst_pred(&self) -> Option<Pred> {
        match self {
            Instr::SetP { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// All general-purpose registers read by this instruction.
    pub fn src_regs(&self) -> impl Iterator<Item = Reg> {
        let mut out: [Option<Reg>; 3] = [None; 3];
        match self {
            Instr::Alu { a, b, c, .. } => {
                out = [a.reg(), b.reg(), c.reg()];
            }
            Instr::SetP { a, b, .. } => {
                out = [a.reg(), b.reg(), None];
            }
            Instr::SelP { a, b, .. } => {
                out = [a.reg(), b.reg(), None];
            }
            Instr::Sfu { a, .. } => {
                out = [a.reg(), None, None];
            }
            Instr::Ld { addr, .. } => {
                out = [Some(*addr), None, None];
            }
            Instr::St { src, addr, .. } => {
                out = [Some(*src), Some(*addr), None];
            }
            Instr::Atom { addr, src, .. } => {
                out = [Some(*addr), Some(*src), None];
            }
            _ => {}
        }
        out.into_iter().flatten()
    }

    /// Predicate registers read by this instruction (guards and selects).
    pub fn src_preds(&self) -> impl Iterator<Item = Pred> {
        let mut out: [Option<Pred>; 1] = [None];
        match self {
            Instr::SelP { pred, .. } => out = [Some(*pred)],
            Instr::Bra { guard, .. } => out = [guard.map(|g| g.pred)],
            _ => {}
        }
        out.into_iter().flatten()
    }

    /// True if this is a memory operation touching `MemSpace::Global`.
    pub(crate) fn is_global_mem(&self) -> bool {
        matches!(
            self,
            Instr::Ld {
                space: MemSpace::Global,
                ..
            } | Instr::St {
                space: MemSpace::Global,
                ..
            }
        )
    }

    /// Short mnemonic for display/tracing.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Alu { op, .. } => op.name(),
            Instr::SetP { .. } => "setp",
            Instr::SelP { .. } => "selp",
            Instr::Sfu { op, .. } => op.name(),
            Instr::Ld {
                space: MemSpace::Global,
                ..
            } => "ld.global",
            Instr::Ld {
                space: MemSpace::Shared,
                ..
            } => "ld.shared",
            Instr::St {
                space: MemSpace::Global,
                ..
            } => "st.global",
            Instr::St {
                space: MemSpace::Shared,
                ..
            } => "st.shared",
            Instr::Atom { .. } => "atom.shared",
            Instr::Bar { .. } => "bar.sync",
            Instr::Bra { .. } => "bra",
            Instr::Exit => "exit",
            Instr::Nop => "nop",
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { dst, a, b, c, op } => match op.operands() {
                2 => write!(f, "{} {dst}, {a}", op.name()),
                3 => write!(f, "{} {dst}, {a}, {b}", op.name()),
                _ => write!(f, "{} {dst}, {a}, {b}, {c}", op.name()),
            },
            Instr::SetP { cmp, ty, dst, a, b } => {
                write!(f, "setp.{}.{} {dst}, {a}, {b}", cmp.name(), ty.name())
            }
            Instr::SelP { dst, a, b, pred } => write!(f, "selp {dst}, {a}, {b}, {pred}"),
            Instr::Sfu { dst, a, .. } => write!(f, "{} {dst}, {a}", self.mnemonic()),
            Instr::Ld { dst, addr, offset, .. } => {
                write!(f, "{} {dst}, [{addr}{offset:+}]", self.mnemonic())
            }
            Instr::St { src, addr, offset, .. } => {
                write!(f, "{} [{addr}{offset:+}], {src}", self.mnemonic())
            }
            Instr::Atom { op, dst, addr, src } => {
                write!(f, "atom.shared.{} {dst}, [{addr}], {src}", op.name())
            }
            Instr::Bar { id } => write!(f, "bar.sync {id}"),
            Instr::Bra {
                guard,
                target,
                reconv,
            } => {
                if let Some(g) = guard {
                    let bang = if g.expect { "" } else { "!" };
                    write!(f, "@{bang}{} bra {target} (reconv {reconv})", g.pred)
                } else {
                    write!(f, "bra {target} (reconv {reconv})")
                }
            }
            Instr::Exit => f.write_str("exit"),
            Instr::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_and_src_regs_are_reported() {
        let i = Instr::Alu {
            op: AluOp::IMad,
            dst: Reg(3),
            a: Src::Reg(Reg(1)),
            b: Src::Imm(7),
            c: Src::Reg(Reg(2)),
        };
        assert_eq!(i.dst_reg(), Some(Reg(3)));
        let srcs: Vec<_> = i.src_regs().collect();
        assert_eq!(srcs, vec![Reg(1), Reg(2)]);
        assert_eq!(i.dst_pred(), None);
    }

    #[test]
    fn store_reads_both_registers_writes_none() {
        let i = Instr::St {
            space: MemSpace::Global,
            src: Reg(5),
            addr: Reg(6),
            offset: 4,
        };
        assert_eq!(i.dst_reg(), None);
        let srcs: Vec<_> = i.src_regs().collect();
        assert_eq!(srcs, vec![Reg(5), Reg(6)]);
    }

    #[test]
    fn pipe_classes_route_correctly() {
        use crate::PipeClass;
        assert_eq!(
            Instr::Sfu {
                op: SfuOp::Sin,
                dst: Reg(0),
                a: Src::Reg(Reg(1))
            }
            .pipe_class(),
            PipeClass::Sfu
        );
        assert_eq!(Instr::Bar { id: 0 }.pipe_class(), PipeClass::Ctrl);
        assert_eq!(
            Instr::Ld {
                space: MemSpace::Shared,
                dst: Reg(0),
                addr: Reg(1),
                offset: 0
            }
            .pipe_class(),
            PipeClass::Mem
        );
        assert_eq!(Instr::Nop.pipe_class(), PipeClass::Alu);
    }

    #[test]
    fn guard_predicates_are_source_preds() {
        let i = Instr::Bra {
            guard: Some(Guard {
                pred: Pred(1),
                expect: false,
            }),
            target: 0,
            reconv: 2,
        };
        let preds: Vec<_> = i.src_preds().collect();
        assert_eq!(preds, vec![Pred(1)]);
    }

    #[test]
    fn display_is_readable() {
        let i = Instr::Ld {
            space: MemSpace::Global,
            dst: Reg(2),
            addr: Reg(4),
            offset: -8,
        };
        assert_eq!(format!("{i}"), "ld.global r2, [r4-8]");
        let b = Instr::Bra {
            guard: Some(Guard {
                pred: Pred(0),
                expect: true,
            }),
            target: 3,
            reconv: 9,
        };
        assert_eq!(format!("{b}"), "@p0 bra 3 (reconv 9)");
    }
}
