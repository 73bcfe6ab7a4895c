//! Per-warp scoreboard: tracks in-flight register writes so the issue stage
//! can detect RAW/WAW hazards. A warp whose next instruction touches a
//! pending register cannot issue — the cycle is counted as a *Scoreboard
//! stall* if no other warp can issue either (paper §II.B).

use pro_core::snapshot_struct;
use pro_isa::{Instr, MAX_PREDS, MAX_REGS};

const _: () = assert!(MAX_REGS as u32 <= u128::BITS && MAX_PREDS as u32 <= u32::BITS);

/// Pending-write state for one warp. Registers are tracked in a 128-bit
/// mask and predicates in 32 bits, the limits `Program::validate` holds
/// a program to ([`MAX_REGS`], [`MAX_PREDS`]).
/// Long-latency (global load) destinations are tracked separately so the
/// two-level scheduler can see `blocked_on_longlat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scoreboard {
    pending_regs: u128,
    pending_preds: u32,
    longlat_regs: u128,
}

/// A set of destinations reserved at issue, released at writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSet {
    /// GPR mask.
    pub regs: u128,
    /// Predicate mask.
    pub preds: u32,
}

impl WriteSet {
    /// Empty set.
    pub const EMPTY: WriteSet = WriteSet { regs: 0, preds: 0 };

    /// True if the set reserves nothing.
    pub fn is_empty(&self) -> bool {
        self.regs == 0 && self.preds == 0
    }
}

impl Scoreboard {
    /// Reset (at warp launch).
    pub(crate) fn clear(&mut self) {
        *self = Scoreboard::default();
    }

    /// Destinations an instruction writes.
    pub fn write_set(instr: &Instr) -> WriteSet {
        let mut ws = WriteSet::EMPTY;
        if let Some(r) = instr.dst_reg() {
            ws.regs |= 1u128 << r.0;
        }
        if let Some(p) = instr.dst_pred() {
            ws.preds |= 1 << p.0;
        }
        ws
    }

    /// All registers an instruction reads or writes (hazard set: RAW on
    /// sources, WAW/WAR on destinations).
    pub fn hazard_set(instr: &Instr) -> WriteSet {
        let mut ws = Self::write_set(instr);
        for r in instr.src_regs() {
            ws.regs |= 1u128 << r.0;
        }
        for p in instr.src_preds() {
            ws.preds |= 1 << p.0;
        }
        ws
    }

    /// True if no register in `set` has a write in flight. The issue stage
    /// calls this with the pre-decoded hazard set of the warp's next
    /// instruction (`IssueTable`, DESIGN.md §16).
    #[inline]
    pub(crate) fn clear_of(&self, set: WriteSet) -> bool {
        (set.regs & self.pending_regs) == 0 && (set.preds & self.pending_preds) == 0
    }

    /// Reserve destinations at issue. `longlat` marks global-load dests.
    #[inline]
    pub fn reserve(&mut self, ws: WriteSet, longlat: bool) {
        debug_assert_eq!(
            ws.regs & self.pending_regs,
            0,
            "double reservation (issue logic must check ready())"
        );
        self.add(ws, longlat);
    }

    /// `ws` pending too, with no hazard check: what a scoreboard holds is
    /// the union of the writes in flight (`Sm::check` rebuilds it so).
    #[inline]
    pub(crate) fn add(&mut self, ws: WriteSet, longlat: bool) {
        self.pending_regs |= ws.regs;
        self.pending_preds |= ws.preds;
        if longlat {
            self.longlat_regs |= ws.regs;
        }
    }

    /// Release destinations at writeback.
    ///
    /// The *only* operation that clears pending bits — which is what makes
    /// the scoreboard-wait memo of [`crate::issue::IssueState`] (DESIGN.md §15)
    /// sound: a warp refused by `Scoreboard::clear_of` stays refused until
    /// the SM's `release_write` path reaches this call, and that single
    /// choke point also clears the warp's memo bit.
    #[inline]
    pub fn release(&mut self, ws: WriteSet) {
        self.pending_regs &= !ws.regs;
        self.pending_preds &= !ws.preds;
        self.longlat_regs &= !ws.regs;
    }

    /// Any pending write at all?
    #[inline]
    pub(crate) fn any_pending(&self) -> bool {
        self.pending_regs != 0 || self.pending_preds != 0
    }

    /// The registers and predicates with a write in flight.
    pub(crate) fn pending(&self) -> WriteSet {
        WriteSet { regs: self.pending_regs, preds: self.pending_preds }
    }

    /// Any pending *global load* destination? (Two-level demotion signal;
    /// also: the warp's next instruction may or may not depend on it — the
    /// TL hardware demotes on the op itself, which this mirrors.)
    pub fn longlat_pending(&self) -> bool {
        self.longlat_regs != 0
    }
}

snapshot_struct! {
    WriteSet {
        regs,
        preds,
    }
}

snapshot_struct! {
    Scoreboard {
        pending_regs,
        pending_preds,
        longlat_regs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_isa::{AluOp, CmpOp, MemSpace, Pred, Reg, Src, Ty};

    /// The set holding one GPR.
    fn reg(r: Reg) -> WriteSet {
        WriteSet { regs: 1u128 << r.0, preds: 0 }
    }

    /// The set holding one predicate.
    fn pred(p: Pred) -> WriteSet {
        WriteSet { regs: 0, preds: 1 << p.0 }
    }

    /// Can `instr` issue (no pending conflict)?
    fn ready(sb: &Scoreboard, instr: &Instr) -> bool {
        sb.clear_of(Scoreboard::hazard_set(instr))
    }

    fn add(dst: u8, a: u8, b: u8) -> Instr {
        Instr::Alu {
            op: AluOp::IAdd,
            dst: Reg(dst),
            a: Src::Reg(Reg(a)),
            b: Src::Reg(Reg(b)),
            c: Src::Imm(0),
        }
    }

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::default();
        let producer = add(1, 2, 3);
        sb.reserve(Scoreboard::write_set(&producer), false);
        let consumer = add(4, 1, 5); // reads r1
        assert!(!ready(&sb, &consumer));
        sb.release(reg(Reg(1)));
        assert!(ready(&sb, &consumer));
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::default();
        sb.reserve(reg(Reg(1)), false);
        let w2 = add(1, 2, 3); // writes r1 again
        assert!(!ready(&sb, &w2));
    }

    #[test]
    fn independent_instruction_passes() {
        let mut sb = Scoreboard::default();
        sb.reserve(reg(Reg(1)), false);
        assert!(ready(&sb, &add(4, 5, 6)));
    }

    #[test]
    fn predicate_hazards_tracked() {
        let mut sb = Scoreboard::default();
        let setp = Instr::SetP {
            cmp: CmpOp::Lt,
            ty: Ty::S32,
            dst: Pred(0),
            a: Src::Reg(Reg(0)),
            b: Src::Imm(10),
        };
        sb.reserve(Scoreboard::write_set(&setp), false);
        let branch = Instr::Bra {
            guard: Some(pro_isa::inst::Guard {
                pred: Pred(0),
                expect: true,
            }),
            target: 0,
            reconv: 1,
        };
        assert!(!ready(&sb, &branch), "branch waits for its predicate");
        sb.release(pred(Pred(0)));
        assert!(ready(&sb, &branch));
    }

    #[test]
    fn longlat_flag_follows_global_load() {
        let mut sb = Scoreboard::default();
        let ld = Instr::Ld {
            space: MemSpace::Global,
            dst: Reg(2),
            addr: Reg(1),
            offset: 0,
        };
        sb.reserve(Scoreboard::write_set(&ld), true);
        assert!(sb.longlat_pending());
        sb.release(reg(Reg(2)));
        assert!(!sb.longlat_pending());
        assert!(!sb.any_pending());
    }

    #[test]
    fn store_has_no_write_set_but_reads_hazard() {
        let mut sb = Scoreboard::default();
        let st = Instr::St {
            space: MemSpace::Global,
            src: Reg(3),
            addr: Reg(4),
            offset: 0,
        };
        assert!(Scoreboard::write_set(&st).is_empty());
        sb.reserve(reg(Reg(3)), true);
        assert!(!ready(&sb, &st), "store must wait for its data register");
    }

    #[test]
    fn release_is_idempotent_for_disjoint_sets() {
        let mut sb = Scoreboard::default();
        sb.reserve(reg(Reg(1)), false);
        sb.reserve(reg(Reg(2)), true);
        sb.release(reg(Reg(1)));
        assert!(sb.any_pending());
        assert!(sb.longlat_pending());
        sb.release(reg(Reg(2)));
        assert!(!sb.any_pending());
    }
}
