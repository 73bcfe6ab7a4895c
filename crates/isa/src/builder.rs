//! Structured program builder.
//!
//! Workload kernels are written against this builder rather than raw
//! instruction vectors: it allocates registers, resolves labels, and — most
//! importantly — emits the correct SIMT *reconvergence PCs* for structured
//! control flow (`if`, `if/else`, `while`, `do-while`), the same points a
//! PTX post-dominator analysis would find. Divergence behaviour in the SM
//! model therefore matches what GPGPU-Sim reconstructs for real kernels.

use crate::inst::{
    AluOp, AtomOp, CmpOp, Guard, Instr, MemSpace, Pc, Pred, Reg, SfuOp, Special, Src, Ty,
};
use crate::program::{Program, ProgramError};

/// An unresolved jump target. Create with [`ProgramBuilder::new_label`], bind
/// with [`ProgramBuilder::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum PatchKind {
    Target,
    Reconv,
    Both,
}

/// Incremental builder for [`Program`]s.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    instrs: Vec<Instr>,
    labels: Vec<Option<Pc>>,
    // (instr index, label, which field(s) to patch)
    patches: Vec<(usize, Label, PatchKind)>,
    next_reg: u8,
    next_pred: u8,
    max_reg: u8,
    max_pred: u8,
    shared_bytes: u32,
}

impl ProgramBuilder {
    /// Start a new program named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            instrs: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            next_reg: 0,
            next_pred: 0,
            max_reg: 0,
            max_pred: 0,
            shared_bytes: 0,
        }
    }

    /// Allocate a fresh general-purpose register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    /// Allocate a fresh predicate register.
    pub fn pred(&mut self) -> Pred {
        let p = Pred(self.next_pred);
        self.next_pred += 1;
        self.max_pred = self.max_pred.max(self.next_pred);
        p
    }

    /// Declare a total register footprint of at least `total` GPRs per
    /// thread, even if the program body uses fewer. Mirrors the register
    /// pressure a real compiler's allocation produces (live ranges,
    /// spill-avoidance): on Fermi the register file, not the code, often
    /// bounds how many thread blocks are resident — the paper's §II.C
    /// effect. No-op if the body already uses more.
    pub fn reserve_regs(&mut self, total: u8) {
        self.max_reg = self.max_reg.max(total);
    }

    /// Declare `bytes` of shared memory (cumulative; returns the byte offset
    /// of the newly declared region, for address arithmetic).
    pub fn shared_alloc(&mut self, bytes: u32) -> u32 {
        let off = self.shared_bytes;
        self.shared_bytes += bytes.div_ceil(4) * 4;
        off
    }

    /// Current PC (index of the next emitted instruction).
    pub(crate) fn here(&self) -> Pc {
        self.instrs.len() as Pc
    }

    /// Create an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current PC.
    pub fn place(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label placed twice");
        self.labels[label.0] = Some(self.here());
    }

    /// Append a raw instruction.
    pub(crate) fn emit(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    // ---- ALU convenience ----------------------------------------------

    /// Generic ALU emit.
    pub fn alu(
        &mut self,
        op: AluOp,
        dst: Reg,
        a: impl Into<Src>,
        b: impl Into<Src>,
        c: impl Into<Src>,
    ) -> &mut Self {
        self.emit(Instr::Alu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        })
    }

    /// `dst = a` (move).
    pub fn mov(&mut self, dst: Reg, a: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::Mov, dst, a, Src::Imm(0), Src::Imm(0))
    }

    /// `dst = a + b` (integer).
    pub fn iadd(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::IAdd, dst, a, b, Src::Imm(0))
    }

    /// `dst = a - b` (integer).
    pub fn isub(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::ISub, dst, a, b, Src::Imm(0))
    }

    /// `dst = a * b` (integer, low 32 bits).
    pub fn imul(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::IMul, dst, a, b, Src::Imm(0))
    }

    /// `dst = a * b + c` (integer).
    pub fn imad(
        &mut self,
        dst: Reg,
        a: impl Into<Src>,
        b: impl Into<Src>,
        c: impl Into<Src>,
    ) -> &mut Self {
        self.alu(AluOp::IMad, dst, a, b, c)
    }

    /// `dst = a & b`.
    pub fn and(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::And, dst, a, b, Src::Imm(0))
    }

    /// `dst = a ^ b`.
    pub fn xor(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::Xor, dst, a, b, Src::Imm(0))
    }

    /// `dst = a | b`.
    pub fn or(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::Or, dst, a, b, Src::Imm(0))
    }

    /// `dst = a << (b & 31)`.
    pub fn shl(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::Shl, dst, a, b, Src::Imm(0))
    }

    /// `dst = a >> (b & 31)` logical.
    pub fn shr(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::Shr, dst, a, b, Src::Imm(0))
    }

    /// `dst = a + b` (f32).
    pub fn fadd(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::FAdd, dst, a, b, Src::Imm(0))
    }

    /// `dst = a * b` (f32).
    pub fn fmul(&mut self, dst: Reg, a: impl Into<Src>, b: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::FMul, dst, a, b, Src::Imm(0))
    }

    /// `dst = a * b + c` (f32 fused).
    pub fn ffma(
        &mut self,
        dst: Reg,
        a: impl Into<Src>,
        b: impl Into<Src>,
        c: impl Into<Src>,
    ) -> &mut Self {
        self.alu(AluOp::FFma, dst, a, b, c)
    }

    /// Convert s32 → f32.
    pub fn i2f(&mut self, dst: Reg, a: impl Into<Src>) -> &mut Self {
        self.alu(AluOp::I2F, dst, a, Src::Imm(0), Src::Imm(0))
    }

    /// `dst = cmp(a, b)` into a predicate.
    pub fn setp(
        &mut self,
        cmp: CmpOp,
        ty: Ty,
        dst: Pred,
        a: impl Into<Src>,
        b: impl Into<Src>,
    ) -> &mut Self {
        self.emit(Instr::SetP {
            cmp,
            ty,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `dst = pred ? a : b`.
    pub fn selp(
        &mut self,
        dst: Reg,
        a: impl Into<Src>,
        b: impl Into<Src>,
        pred: Pred,
    ) -> &mut Self {
        self.emit(Instr::SelP {
            dst,
            a: a.into(),
            b: b.into(),
            pred,
        })
    }

    /// Special-function op.
    pub fn sfu(&mut self, op: SfuOp, dst: Reg, a: impl Into<Src>) -> &mut Self {
        self.emit(Instr::Sfu {
            op,
            dst,
            a: a.into(),
        })
    }

    // ---- memory ---------------------------------------------------------

    /// `dst = global[addr + offset]`.
    pub fn ld_global(&mut self, dst: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::Ld {
            space: MemSpace::Global,
            dst,
            addr,
            offset,
        })
    }

    /// `global[addr + offset] = src`.
    pub fn st_global(&mut self, src: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::St {
            space: MemSpace::Global,
            src,
            addr,
            offset,
        })
    }

    /// `dst = shared[addr + offset]`.
    pub fn ld_shared(&mut self, dst: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::Ld {
            space: MemSpace::Shared,
            dst,
            addr,
            offset,
        })
    }

    /// `shared[addr + offset] = src`.
    pub fn st_shared(&mut self, src: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::St {
            space: MemSpace::Shared,
            src,
            addr,
            offset,
        })
    }

    /// Shared-memory atomic RMW.
    pub fn atom_shared(&mut self, op: AtomOp, dst: Reg, addr: Reg, src: Reg) -> &mut Self {
        self.emit(Instr::Atom { op, dst, addr, src })
    }

    /// Thread-block barrier.
    pub fn bar(&mut self) -> &mut Self {
        self.emit(Instr::Bar { id: 0 })
    }

    /// Thread exit.
    pub fn exit(&mut self) -> &mut Self {
        self.emit(Instr::Exit)
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }

    // ---- control flow ----------------------------------------------------

    /// Raw branch to a label. `reconv` defaults to the label for forward
    /// unconditional jumps; for guarded branches use the structured helpers
    /// unless you know the post-dominator.
    pub fn bra(&mut self, guard: Option<Guard>, target: Label, reconv: Label) -> &mut Self {
        let idx = self.instrs.len();
        self.instrs.push(Instr::Bra {
            guard,
            target: 0,
            reconv: 0,
        });
        self.patches.push((idx, target, PatchKind::Target));
        self.patches.push((idx, reconv, PatchKind::Reconv));
        self
    }

    /// Structured `if`: executes `body` for lanes where `pred == expect`.
    /// Reconvergence at the instruction following the body.
    pub fn if_then(
        &mut self,
        pred: Pred,
        expect: bool,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let end = self.new_label();
        // Skip body when the guard FAILS.
        let idx = self.instrs.len();
        self.instrs.push(Instr::Bra {
            guard: Some(Guard {
                pred,
                expect: !expect,
            }),
            target: 0,
            reconv: 0,
        });
        self.patches.push((idx, end, PatchKind::Both));
        body(self);
        self.place(end);
        self
    }

    /// Structured `if/else` with reconvergence after both arms.
    pub fn if_else(
        &mut self,
        pred: Pred,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let else_l = self.new_label();
        let end = self.new_label();
        // @!p → else; reconv at end.
        let idx = self.instrs.len();
        self.instrs.push(Instr::Bra {
            guard: Some(Guard {
                pred,
                expect: false,
            }),
            target: 0,
            reconv: 0,
        });
        self.patches.push((idx, else_l, PatchKind::Target));
        self.patches.push((idx, end, PatchKind::Reconv));
        then_body(self);
        // jump over else; already-converged lanes only.
        let idx2 = self.instrs.len();
        self.instrs.push(Instr::Bra {
            guard: None,
            target: 0,
            reconv: 0,
        });
        self.patches.push((idx2, end, PatchKind::Both));
        self.place(else_l);
        else_body(self);
        self.place(end);
        self
    }

    /// Structured do-while loop: `body` runs at least once; after the body,
    /// `cond(self, pred)` must set `pred`; lanes loop while `pred == true`.
    /// Reconvergence at loop exit. This is the canonical shape NVCC emits for
    /// counted loops and the main source of *divergent loop exits* (warp-level
    /// divergence) in our workloads.
    pub(crate) fn do_while(
        &mut self,
        pred: Pred,
        body: impl FnOnce(&mut Self),
        cond: impl FnOnce(&mut Self, Pred),
    ) -> &mut Self {
        let top = self.new_label();
        let exit = self.new_label();
        self.place(top);
        body(self);
        cond(self, pred);
        let idx = self.instrs.len();
        self.instrs.push(Instr::Bra {
            guard: Some(Guard { pred, expect: true }),
            target: 0,
            reconv: 0,
        });
        self.patches.push((idx, top, PatchKind::Target));
        self.patches.push((idx, exit, PatchKind::Reconv));
        self.place(exit);
        self
    }

    /// Counted loop helper: `for i in start..bound { body }` using `counter`
    /// as the induction register. `bound` may differ per thread (divergence).
    pub fn for_loop(
        &mut self,
        counter: Reg,
        start: impl Into<Src>,
        bound: impl Into<Src>,
        pred: Pred,
        body: impl FnOnce(&mut Self, Reg),
    ) -> &mut Self {
        let bound = bound.into();
        self.mov(counter, start);
        // Guard zero-trip loops: skip entirely if start >= bound.
        self.setp(CmpOp::Lt, Ty::S32, pred, counter, bound);
        let skip = self.new_label();
        let idx = self.instrs.len();
        self.instrs.push(Instr::Bra {
            guard: Some(Guard {
                pred,
                expect: false,
            }),
            target: 0,
            reconv: 0,
        });
        self.patches.push((idx, skip, PatchKind::Both));
        self.do_while(
            pred,
            |b| {
                body(b, counter);
                b.iadd(counter, counter, Src::imm_i32(1));
            },
            |b, p| {
                b.setp(CmpOp::Lt, Ty::S32, p, counter, bound);
            },
        );
        self.place(skip);
        self
    }

    // ---- common idioms -----------------------------------------------

    /// `dst = ctaid * ntid + tid` — the global linear thread index.
    pub fn global_tid(&mut self, dst: Reg) -> &mut Self {
        self.alu(
            AluOp::IMad,
            dst,
            Src::Special(Special::Ctaid),
            Src::Special(Special::NTid),
            Src::Special(Special::Tid),
        )
    }

    /// `dst = param[slot] + index*4 + byte_offset` — address of the
    /// `index`-th 32-bit element of the buffer whose base address is kernel
    /// parameter `slot`.
    pub fn buf_addr(&mut self, dst: Reg, slot: u8, index: Reg, byte_offset: i32) -> &mut Self {
        self.imad(dst, index, Src::imm_i32(4), Src::Param(slot));
        if byte_offset != 0 {
            self.iadd(dst, dst, Src::imm_i32(byte_offset));
        }
        self
    }

    /// Finalize: resolve labels, validate, produce the [`Program`].
    pub fn build(mut self) -> Result<Program, ProgramError> {
        for (idx, label, kind) in std::mem::take(&mut self.patches) {
            let pc = self.labels[label.0].expect("unplaced label at build()");
            if let Instr::Bra { target, reconv, .. } = &mut self.instrs[idx] {
                match kind {
                    PatchKind::Target => *target = pc,
                    PatchKind::Reconv => *reconv = pc,
                    PatchKind::Both => {
                        *target = pc;
                        *reconv = pc;
                    }
                }
            } else {
                unreachable!("patch entry for non-branch instruction");
            }
        }
        Program::new(
            self.name,
            self.instrs,
            self.max_reg.max(1),
            self.max_pred.max(1),
            self.shared_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_allocate_sequentially() {
        let mut b = ProgramBuilder::new("t");
        assert_eq!(b.reg(), Reg(0));
        assert_eq!(b.reg(), Reg(1));
        assert_eq!(b.pred(), Pred(0));
    }

    #[test]
    fn shared_alloc_aligns_and_accumulates() {
        let mut b = ProgramBuilder::new("t");
        assert_eq!(b.shared_alloc(6), 0);
        assert_eq!(b.shared_alloc(4), 8); // 6 rounded to 8
        b.exit();
        let p = b.build().unwrap();
        assert_eq!(p.shared_bytes, 12);
    }

    #[test]
    fn if_then_emits_inverted_guard_and_reconv() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        let p = b.pred();
        b.setp(CmpOp::Lt, Ty::S32, p, Src::Special(Special::Tid), Src::Imm(16));
        b.if_then(p, true, |b| {
            b.iadd(r, r, Src::Imm(1));
        });
        b.exit();
        let prog = b.build().unwrap();
        // pc1 = branch skipping the body when p is FALSE, to pc3, reconv pc3.
        match prog.instrs[1] {
            Instr::Bra {
                guard: Some(Guard { pred, expect }),
                target,
                reconv,
            } => {
                assert_eq!(pred, p);
                assert!(!expect);
                assert_eq!(target, 3);
                assert_eq!(reconv, 3);
            }
            ref other => panic!("expected guarded bra, got {other}"),
        }
    }

    #[test]
    fn if_else_reconverges_after_both_arms() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        let p = b.pred();
        b.setp(CmpOp::Eq, Ty::S32, p, Src::Imm(0), Src::Imm(0));
        b.if_else(
            p,
            |b| {
                b.mov(r, Src::Imm(1));
            },
            |b| {
                b.mov(r, Src::Imm(2));
            },
        );
        b.exit();
        let prog = b.build().unwrap();
        // Layout: 0 setp, 1 bra(!p→4, reconv 5), 2 mov, 3 bra(5,5), 4 mov, 5 exit
        match prog.instrs[1] {
            Instr::Bra { target, reconv, .. } => {
                assert_eq!(target, 4);
                assert_eq!(reconv, 5);
            }
            ref other => panic!("{other}"),
        }
        match prog.instrs[3] {
            Instr::Bra { target, reconv, guard } => {
                assert!(guard.is_none());
                assert_eq!(target, 5);
                assert_eq!(reconv, 5);
            }
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn do_while_backward_branch_reconverges_at_exit() {
        let mut b = ProgramBuilder::new("t");
        let i = b.reg();
        let p = b.pred();
        b.mov(i, Src::Imm(0));
        b.do_while(
            p,
            |b| {
                b.iadd(i, i, Src::Imm(1));
            },
            |b, p| {
                b.setp(CmpOp::Lt, Ty::S32, p, i, Src::Imm(10));
            },
        );
        b.exit();
        let prog = b.build().unwrap();
        // 0 mov, 1 iadd (loop top), 2 setp, 3 bra(@p → 1, reconv 4), 4 exit
        match prog.instrs[3] {
            Instr::Bra { target, reconv, .. } => {
                assert_eq!(target, 1);
                assert_eq!(reconv, 4);
            }
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn for_loop_guards_zero_trip() {
        let mut b = ProgramBuilder::new("t");
        let i = b.reg();
        let acc = b.reg();
        let p = b.pred();
        b.mov(acc, Src::Imm(0));
        b.for_loop(i, Src::Imm(5), Src::Imm(5), p, |b, i| {
            b.iadd(acc, acc, Src::Reg(i));
        });
        b.exit();
        let prog = b.build().unwrap();
        prog.validate().unwrap();
        // The zero-trip guard must skip past the whole loop: the guarded
        // branch at pc 3 targets the exit.
        match prog.instrs[3] {
            Instr::Bra { guard: Some(_), target, .. } => {
                assert!(target > 3);
            }
            ref other => panic!("{other}"),
        }
    }

    #[test]
    #[should_panic(expected = "unplaced label")]
    fn unplaced_label_panics_at_build() {
        let mut b = ProgramBuilder::new("t");
        let l = b.new_label();
        let l2 = b.new_label();
        b.bra(None, l, l2);
        b.exit();
        let _ = b.build();
    }

    #[test]
    fn reserve_regs_raises_the_floor_only() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        b.mov(r, Src::Imm(1));
        b.reserve_regs(40);
        b.exit();
        assert_eq!(b.build().unwrap().regs, 40);
        // A body that already uses more is untouched.
        let mut b = ProgramBuilder::new("t");
        let mut last = b.reg();
        for _ in 0..49 {
            last = b.reg();
        }
        b.mov(last, Src::Imm(1));
        b.reserve_regs(40);
        b.exit();
        assert_eq!(b.build().unwrap().regs, 50);
    }

    #[test]
    fn if_then_with_false_expectation_inverts_guard() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        let p = b.pred();
        b.setp(CmpOp::Eq, Ty::S32, p, Src::Imm(0), Src::Imm(0));
        // Body runs for lanes where p is FALSE → skip branch tests p==true.
        b.if_then(p, false, |b| {
            b.mov(r, Src::Imm(1));
        });
        b.exit();
        let prog = b.build().unwrap();
        match prog.instrs[1] {
            Instr::Bra {
                guard: Some(Guard { expect, .. }),
                ..
            } => assert!(expect, "skip when p is TRUE"),
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn global_tid_idiom() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        b.global_tid(r);
        b.exit();
        let prog = b.build().unwrap();
        match prog.instrs[0] {
            Instr::Alu {
                op: AluOp::IMad,
                a: Src::Special(Special::Ctaid),
                b: Src::Special(Special::NTid),
                c: Src::Special(Special::Tid),
                ..
            } => {}
            ref other => panic!("{other}"),
        }
    }
}
