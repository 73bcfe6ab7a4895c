//! Warp context: per-lane architectural state (GPRs, predicates, SIMT
//! stack) plus the functional execution of one instruction at issue time.
//!
//! Function and timing are split (see `pro-mem` docs): `Warp::execute`
//! performs the architectural effects immediately — register writes, memory
//! data movement, PC/stack update — and reports an [`ExecEffect`] that the
//! SM issue logic converts into timing (scoreboard reservations, writeback
//! events, LSU transactions). Early register writes are invisible because
//! warp execution is in-order and the scoreboard blocks readers until the
//! modelled writeback time.

use crate::scoreboard::Scoreboard;
use crate::shared::{atomic_cycles, conflict_cycles, SharedMem};
use crate::simt::SimtStack;
use pro_core::codec::{CodecError, Reader, Snapshot, Writer};
use pro_isa::exec::{
    alu_row, cmp_row, eval_alu, eval_atom, for_lanes, select_row, sfu_row, Row,
};
use pro_isa::{AluOp, Instr, MemSpace, Pc, Program, Reg, Special, Src, WARP_SIZE};
use pro_mem::{line_of, GlobalMem};
use std::mem::MaybeUninit;

/// The architectural side-effects of one issued warp instruction, as seen
/// by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEffect {
    /// ALU-class op; destination(s) ready after the latency of the
    /// instruction's [`crate::decode::LatClass`].
    Alu,
    /// SFU op; occupies the SFU for its initiation interval.
    Sfu,
    /// Global load: coalesced line addresses were pushed to the caller's
    /// scratch vector; `dst` scoreboard clears when the access completes.
    GlobalLoad,
    /// Global store: line addresses in scratch; fire-and-forget traffic.
    GlobalStore {
        /// Some word took a new value.
        changed: bool,
    },
    /// Shared-memory load; occupies the LSU for `occupancy` cycles.
    SharedLoad {
        /// Bank-conflict serialization cycles.
        occupancy: u32,
    },
    /// Shared-memory store.
    SharedStore {
        /// Bank-conflict serialization cycles.
        occupancy: u32,
        /// Some word took a new value.
        changed: bool,
    },
    /// Shared-memory atomic (counts as a shared access with RMW cost).
    SharedAtomic {
        /// Serialization cycles.
        occupancy: u32,
        /// Some word took a new value.
        changed: bool,
    },
    /// The warp parked at a barrier.
    Barrier,
    /// Control transfer resolved at issue.
    Branch,
    /// Every lane exited; the warp is done.
    Exit,
    /// No-op.
    Nop,
}

/// Read-only launch context of the executing warp: the kernel's parameters
/// and geometry, and the warp's place in the grid.
#[derive(Debug, Clone, Copy)]
pub struct LaunchCtx<'a> {
    /// Kernel parameter bank.
    pub params: &'a [u32],
    /// Threads per block.
    pub ntid: u32,
    /// Blocks in the grid.
    pub nctaid: u32,
    /// Global block index of the warp's TB.
    pub ctaid: u32,
    /// The warp's index within its TB.
    pub index_in_tb: u32,
}

/// One hardware warp slot's architectural and timing state. Which warp it
/// holds — its TB and its place in it — and whether that warp is live,
/// parked at a barrier or has exited is the SM's to know: the slot's
/// scheduler-visible [`pro_core::WarpState`] and its TB's
/// [`pro_core::TbState`] are the one record of it.
#[derive(Debug)]
pub struct Warp {
    /// SIMT reconvergence stack (PC + active mask).
    pub simt: SimtStack,
    /// Pending-write tracking.
    pub scoreboard: Scoreboard,
    /// Cycle at which the next instruction is fetched/decoded.
    ///
    /// [`crate::issue::IssueState`] mirrors this field (DESIGN.md §15) so
    /// the issue walk can test fetch readiness without touching the warp;
    /// every path that writes it (launch, issue, barrier release) tells it
    /// in the same place.
    pub ibuf_ready_at: u64,
    /// Register file, one 32-lane row per GPR (DESIGN.md §16).
    regs: Vec<Row>,
    preds: Vec<u32>, // bitmask per predicate register
}

impl Warp {
    /// An empty slot.
    pub(crate) fn empty() -> Self {
        Warp {
            simt: SimtStack::new(0, 0),
            scoreboard: Scoreboard::default(),
            ibuf_ready_at: 0,
            regs: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// (Re)initialize the slot for a newly launched warp whose lanes
    /// `live_mask` exist.
    pub(crate) fn launch(&mut self, program: &Program, live_mask: u32, now: u64, fetch_lat: u64) {
        self.simt.reset(live_mask, program.len() as Pc);
        self.scoreboard.clear();
        self.ibuf_ready_at = now + fetch_lat;
        self.regs.clear();
        self.regs.resize(program.regs as usize, [0; WARP_SIZE]);
        self.preds.clear();
        self.preds.resize(program.preds as usize, 0);
    }

    /// The warp's part of a checkpoint: SIMT stack, scoreboard, fetch
    /// cycle, then the register file register-major and the predicates.
    /// The program fixes both files' sizes, so neither is written.
    pub(crate) fn save_state(&self, w: &mut Writer) {
        self.simt.save(w);
        self.scoreboard.save(w);
        w.put_u64(self.ibuf_ready_at);
        w.put_u32_slice(self.regs.as_flattened());
        w.put_u32_slice(&self.preds);
    }

    /// Read what [`Warp::save_state`] wrote into a warp
    /// [`Warp::launch`]ed for the same program.
    pub(crate) fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.simt = SimtStack::load(r)?;
        self.scoreboard = Scoreboard::load(r)?;
        self.ibuf_ready_at = r.get_u64()?;
        for word in self.regs.as_flattened_mut().iter_mut().chain(&mut self.preds) {
            *word = r.get_u32()?;
        }
        Ok(())
    }

    /// Current PC.
    pub(crate) fn pc(&self) -> Pc {
        self.simt.pc()
    }

    /// The 32 lane values of a source operand: the register's own row, or
    /// `tmp` written with the immediate / parameter / special value. `tmp`
    /// starts uninitialised, so a register operand costs no fill.
    #[inline]
    fn src_row<'a>(&'a self, src: Src, ctx: &LaunchCtx, tmp: &'a mut MaybeUninit<Row>) -> &'a Row {
        let uniform = match src {
            Src::Reg(r) => return &self.regs[r.0 as usize],
            Src::Imm(v) => v,
            Src::Param(i) => ctx.params[i as usize],
            Src::Special(Special::Tid) => {
                let base = ctx.index_in_tb * WARP_SIZE as u32;
                return tmp.write(std::array::from_fn(|lane| base + lane as u32));
            }
            Src::Special(Special::LaneId) => return tmp.write(std::array::from_fn(|lane| lane as u32)),
            Src::Special(Special::Ctaid) => ctx.ctaid,
            Src::Special(Special::NTid) => ctx.ntid,
            Src::Special(Special::NCtaid) => ctx.nctaid,
            Src::Special(Special::WarpId) => ctx.index_in_tb,
        };
        tmp.write([uniform; WARP_SIZE])
    }

    /// Per-lane byte addresses `regs[addr] + offset` (the ISA's wrapping
    /// `IAdd`), for all 32 lanes; only active lanes' are meaningful.
    #[inline]
    fn addr_row(&self, addr: Reg, offset: i32) -> Row {
        let mut addrs = self.regs[addr.0 as usize];
        for a in &mut addrs {
            *a = eval_alu(AluOp::IAdd, *a, offset as u32, 0);
        }
        addrs
    }

    /// Execute the instruction at the current PC for all active lanes.
    ///
    /// * Architectural state (registers, memories, PC/stack) updates now.
    /// * For global memory ops, the coalesced 128-byte line addresses are
    ///   appended to `lines_out` (cleared first).
    ///
    /// Returns the effect plus the active-lane count (the paper's progress
    /// increment). Must not be called on a warp that has exited or is
    /// parked at a barrier: `Barrier` and `Exit` are reported for the SM to
    /// record.
    ///
    /// Register-writing instructions work a row at a time (DESIGN.md §16):
    /// the destination row is copied out, the `pro_isa::exec` row evaluator
    /// updates its active lanes from the source rows, and it is stored
    /// back — so a destination that is also a source reads its old value,
    /// as the per-lane semantics require.
    ///
    /// Global loads and stores act on `gmem` here, at issue: a store is
    /// visible to whatever executes next, in this cycle or a later one.
    pub(crate) fn execute(
        &mut self,
        program: &Program,
        ctx: &LaunchCtx,
        gmem: &mut GlobalMem,
        shared: &mut SharedMem,
        lines_out: &mut Vec<u64>,
    ) -> (ExecEffect, u32) {
        lines_out.clear();
        self.simt.reconverge();
        let pc = self.simt.pc();
        let instr = *program.fetch(pc);
        let mask = self.simt.mask();
        let active = mask.count_ones();
        let (mut ta, mut tb, mut tc) = (MaybeUninit::uninit(), MaybeUninit::uninit(), MaybeUninit::uninit());

        let effect = match instr {
            Instr::Alu { op, dst, a, b, c } => {
                let mut d = self.regs[dst.0 as usize];
                alu_row(
                    op,
                    &mut d,
                    self.src_row(a, ctx, &mut ta),
                    self.src_row(b, ctx, &mut tb),
                    self.src_row(c, ctx, &mut tc),
                    mask,
                );
                self.regs[dst.0 as usize] = d;
                self.simt.advance();
                ExecEffect::Alu
            }
            Instr::SetP { cmp, ty, dst, a, b } => {
                let bits = cmp_row(
                    cmp,
                    ty,
                    self.src_row(a, ctx, &mut ta),
                    self.src_row(b, ctx, &mut tb),
                );
                let p = &mut self.preds[dst.0 as usize];
                *p = (*p & !mask) | (bits & mask);
                self.simt.advance();
                ExecEffect::Alu
            }
            Instr::SelP { dst, a, b, pred } => {
                let mut d = self.regs[dst.0 as usize];
                select_row(
                    &mut d,
                    self.preds[pred.0 as usize],
                    self.src_row(a, ctx, &mut ta),
                    self.src_row(b, ctx, &mut tb),
                    mask,
                );
                self.regs[dst.0 as usize] = d;
                self.simt.advance();
                ExecEffect::Alu
            }
            Instr::Sfu { op, dst, a } => {
                let mut d = self.regs[dst.0 as usize];
                sfu_row(op, &mut d, self.src_row(a, ctx, &mut ta), mask);
                self.regs[dst.0 as usize] = d;
                self.simt.advance();
                ExecEffect::Sfu
            }
            Instr::Ld { space, dst, addr, offset } => {
                let addrs = self.addr_row(addr, offset);
                let d = &mut self.regs[dst.0 as usize];
                self.simt.advance();
                match space {
                    MemSpace::Global => {
                        gmem.read_row(&addrs, mask, d);
                        coalesce_into(&addrs, mask, lines_out);
                        ExecEffect::GlobalLoad
                    }
                    MemSpace::Shared => {
                        for_lanes(mask, |lane| d[lane] = shared.read(addrs[lane]));
                        ExecEffect::SharedLoad {
                            occupancy: conflict_cycles(&addrs, mask),
                        }
                    }
                }
            }
            Instr::St { space, src, addr, offset } => {
                let addrs = self.addr_row(addr, offset);
                let values = &self.regs[src.0 as usize];
                self.simt.advance();
                match space {
                    MemSpace::Global => {
                        let changed = gmem.write_row(&addrs, values, mask);
                        coalesce_into(&addrs, mask, lines_out);
                        ExecEffect::GlobalStore { changed }
                    }
                    MemSpace::Shared => {
                        let mut changed = false;
                        for_lanes(mask, |lane| {
                            changed |= shared.read(addrs[lane]) != values[lane];
                            shared.write(addrs[lane], values[lane]);
                        });
                        ExecEffect::SharedStore {
                            occupancy: conflict_cycles(&addrs, mask),
                            changed,
                        }
                    }
                }
            }
            Instr::Atom { op, dst, addr, src } => {
                // Lanes apply in lane order — deterministic RMW semantics.
                let addrs = self.regs[addr.0 as usize];
                let values = self.regs[src.0 as usize];
                let d = &mut self.regs[dst.0 as usize];
                let mut changed = false;
                for_lanes(mask, |lane| {
                    let (new, old) = eval_atom(op, shared.read(addrs[lane]), values[lane]);
                    shared.write(addrs[lane], new);
                    changed |= new != old;
                    d[lane] = old;
                });
                self.simt.advance();
                ExecEffect::SharedAtomic {
                    occupancy: atomic_cycles(&addrs, mask),
                    changed,
                }
            }
            Instr::Bar { .. } => {
                debug_assert_eq!(
                    self.simt.depth(),
                    1,
                    "barrier inside divergent control flow (kernel bug)"
                );
                self.simt.advance();
                ExecEffect::Barrier
            }
            Instr::Bra { guard, target, reconv } => {
                let taken = match guard {
                    None => mask,
                    Some(g) => {
                        let pbits = self.preds[g.pred.0 as usize];
                        let want = if g.expect { pbits } else { !pbits };
                        mask & want
                    }
                };
                self.simt.branch(taken, target, reconv);
                ExecEffect::Branch
            }
            Instr::Exit => {
                debug_assert_eq!(
                    self.simt.depth(),
                    1,
                    "exit inside divergent control flow (kernel bug)"
                );
                ExecEffect::Exit
            }
            Instr::Nop => {
                self.simt.advance();
                ExecEffect::Nop
            }
        };
        (effect, active)
    }
}

/// Append to `out` the distinct 128-byte lines the active lanes touch, in
/// order of first appearance (the LSU's transaction order).
#[inline]
fn coalesce_into(addrs: &Row, mask: u32, out: &mut Vec<u64>) {
    for_lanes(mask, |lane| {
        let line = line_of(addrs[lane] as u64);
        // Neighbouring lanes usually share a line: test the last one pushed
        // before scanning.
        if out.last() != Some(&line) && !out.contains(&line) {
            out.push(line);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_isa::{CmpOp, ProgramBuilder, SfuOp, Ty};

    /// Read a register lane.
    fn reg(w: &Warp, r: u8, lane: usize) -> u32 {
        w.regs[r as usize][lane]
    }

    fn ctx<'a>(params: &'a [u32]) -> LaunchCtx<'a> {
        LaunchCtx {
            params,
            ntid: 64,
            nctaid: 4,
            ctaid: 0,
            index_in_tb: 0,
        }
    }

    /// Run a single warp functionally to completion, ignoring timing.
    fn run(
        program: &Program,
        params: &[u32],
        gmem: &mut GlobalMem,
        shared: &mut SharedMem,
        ctaid: u32,
        index_in_tb: u32,
    ) -> Warp {
        let mut w = Warp::empty();
        w.launch(program, u32::MAX, 0, 0);
        let c = LaunchCtx { ctaid, index_in_tb, ..ctx(params) };
        let mut lines = Vec::new();
        let mut steps = 0;
        while w.execute(program, &c, gmem, shared, &mut lines).0 != ExecEffect::Exit {
            steps += 1;
            assert!(steps < 1_000_000, "runaway program");
        }
        w
    }

    #[test]
    fn specials_and_alu_compute_global_tid() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        b.global_tid(r);
        b.exit();
        let p = b.build().unwrap();
        let mut g = GlobalMem::new(1024);
        let mut s = SharedMem::new(0);
        // ctaid=2, warp 1 in TB → tid = 32..64, gtid = 2*64 + tid.
        let w = run(&p, &[], &mut g, &mut s, 2, 1);
        for lane in 0..WARP_SIZE {
            assert_eq!(reg(&w, 0, lane), 2 * 64 + 32 + lane as u32);
        }
    }

    #[test]
    fn divergent_if_else_selects_per_lane() {
        // lanes with tid < 16 get 111, others 222.
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        let p0 = b.pred();
        b.setp(
            CmpOp::Lt,
            Ty::S32,
            p0,
            Src::Special(Special::Tid),
            Src::Imm(16),
        );
        b.if_else(
            p0,
            |b| {
                b.mov(r, Src::Imm(111));
            },
            |b| {
                b.mov(r, Src::Imm(222));
            },
        );
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let w = run(&prog, &[], &mut g, &mut s, 0, 0);
        for lane in 0..WARP_SIZE {
            let expect = if lane < 16 { 111 } else { 222 };
            assert_eq!(reg(&w, 0, lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn divergent_loop_trip_counts_per_lane() {
        // Each lane loops laneid+1 times, accumulating 1 per iteration.
        let mut b = ProgramBuilder::new("t");
        let acc = b.reg();
        let i = b.reg();
        let bound = b.reg();
        let p = b.pred();
        b.mov(acc, Src::Imm(0));
        b.iadd(bound, Src::Special(Special::LaneId), Src::Imm(1));
        b.for_loop(i, Src::Imm(0), bound, p, |b, _| {
            b.iadd(acc, acc, Src::Imm(1));
        });
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let w = run(&prog, &[], &mut g, &mut s, 0, 0);
        for lane in 0..WARP_SIZE {
            assert_eq!(reg(&w, 0, lane), lane as u32 + 1, "lane {lane}");
        }
    }

    #[test]
    fn global_load_store_roundtrip_with_coalescing() {
        let mut b = ProgramBuilder::new("t");
        let idx = b.reg();
        let a_in = b.reg();
        let a_out = b.reg();
        let v = b.reg();
        b.global_tid(idx);
        b.buf_addr(a_in, 0, idx, 0);
        b.ld_global(v, a_in, 0);
        b.fmul(v, v, Src::imm_f32(2.0));
        b.buf_addr(a_out, 1, idx, 0);
        b.st_global(v, a_out, 0);
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(1 << 16);
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let in_base = g.alloc_init_f32(&data);
        let out_base = g.alloc(32 * 4);
        let mut s = SharedMem::new(0);

        let mut w = Warp::empty();
        let prog_ref = &prog;
        w.launch(prog_ref, u32::MAX, 0, 0);
        let params = [in_base as u32, out_base as u32];
        let c = ctx(&params);
        let mut lines = Vec::new();
        let mut saw_load_lines = 0;
        loop {
            match w.execute(prog_ref, &c, &mut g, &mut s, &mut lines).0 {
                ExecEffect::GlobalLoad => saw_load_lines = lines.len(),
                ExecEffect::Exit => break,
                _ => {}
            }
        }
        assert_eq!(saw_load_lines, 1, "unit-stride aligned load = 1 line");
        for i in 0..32 {
            assert_eq!(g.read_f32(out_base + i * 4), i as f32 * 2.0);
        }
    }

    #[test]
    fn shared_memory_and_atomics() {
        let mut b = ProgramBuilder::new("t");
        let addr = b.reg();
        let one = b.reg();
        let old = b.reg();
        let _slot = b.shared_alloc(4);
        b.mov(addr, Src::Imm(0));
        b.mov(one, Src::Imm(1));
        b.atom_shared(pro_isa::AtomOp::Add, old, addr, one);
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(prog.shared_bytes);
        let w = run(&prog, &[], &mut g, &mut s, 0, 0);
        // All 32 lanes added 1 to the same word.
        assert_eq!(s.read(0), 32);
        // Old values are the lane-order prefix sums 0..31.
        for lane in 0..WARP_SIZE {
            assert_eq!(reg(&w, 2, lane), lane as u32);
        }
    }

    #[test]
    fn barrier_parks_warp() {
        let mut b = ProgramBuilder::new("t");
        b.bar();
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let mut w = Warp::empty();
        w.launch(&prog, u32::MAX, 0, 0);
        let params: [u32; 0] = [];
        let c = ctx(&params);
        let mut lines = Vec::new();
        let (eff, n) = w.execute(&prog, &c, &mut g, &mut s, &mut lines);
        assert_eq!(eff, ExecEffect::Barrier);
        assert_eq!(n, 32);
        assert_eq!(w.pc(), 1, "the warp resumes past the barrier once released");
    }

    #[test]
    fn partial_warp_has_inactive_lanes() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        b.mov(r, Src::Imm(9));
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let mut w = Warp::empty();
        w.launch(&prog, 0xFF, 0, 0); // 8 live lanes
        let params: [u32; 0] = [];
        let c = ctx(&params);
        let mut lines = Vec::new();
        let (_, n) = w.execute(&prog, &c, &mut g, &mut s, &mut lines);
        assert_eq!(n, 8, "progress counts only active threads");
        assert_eq!(reg(&w, 0, 0), 9);
        assert_eq!(reg(&w, 0, 8), 0, "inactive lane untouched");
    }

    #[test]
    fn sfu_writes_transcendental_results() {
        let mut b = ProgramBuilder::new("t");
        let r = b.reg();
        b.mov(r, Src::imm_f32(4.0));
        b.sfu(SfuOp::Sqrt, r, r);
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(64);
        let mut s = SharedMem::new(0);
        let w = run(&prog, &[], &mut g, &mut s, 0, 0);
        assert_eq!(f32::from_bits(reg(&w, 0, 0)), 2.0);
    }

    #[test]
    fn snapshot_keeps_the_flat_register_byte_layout() {
        // The register file goes on the wire as the words of one flat
        // `Vec<u32>`, register-major, then the predicates, neither with a
        // length: a warp launched for the same program reads them back.
        let mut b = ProgramBuilder::new("t");
        let regs = [b.reg(), b.reg(), b.reg()];
        let p = b.pred();
        b.setp(CmpOp::Eq, Ty::S32, p, regs[2], Src::Imm(0));
        b.exit();
        let prog = b.build().unwrap();
        let mut w = Warp::empty();
        w.launch(&prog, 0xFFFF, 10, 2);
        let flat: Vec<u32> = (0..3 * WARP_SIZE as u32).map(|i| i * 7 + 1).collect();
        for (i, &v) in flat.iter().enumerate() {
            w.regs[i / WARP_SIZE][i % WARP_SIZE] = v;
        }
        w.preds[0] = 0xF0F0;
        let mut out = Writer::new();
        w.save_state(&mut out);
        let bytes = out.into_bytes();

        let mut want = Writer::new();
        want.put_u32_slice(&flat);
        want.put_u32(0xF0F0);
        let tail = want.into_bytes();
        assert_eq!(&bytes[bytes.len() - tail.len()..], &tail[..]);

        let mut back = Warp::empty();
        back.launch(&prog, 0xFFFF, 0, 0);
        let mut r = Reader::new(&bytes);
        back.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((&back.regs, &back.preds, back.ibuf_ready_at), (&w.regs, &w.preds, 12));
        let mut again = Writer::new();
        back.save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn scattered_load_produces_many_lines() {
        let mut b = ProgramBuilder::new("t");
        let idx = b.reg();
        let a = b.reg();
        let v = b.reg();
        // addr = base + laneid * 128 → one line per lane.
        b.shl(idx, Src::Special(Special::LaneId), Src::Imm(7));
        b.iadd(a, idx, Src::Param(0));
        b.ld_global(v, a, 0);
        b.exit();
        let prog = b.build().unwrap();
        let mut g = GlobalMem::new(1 << 16);
        let base = g.alloc(32 * 128);
        let mut s = SharedMem::new(0);
        let mut w = Warp::empty();
        w.launch(&prog, u32::MAX, 0, 0);
        let params = [base as u32];
        let c = ctx(&params);
        let mut lines = Vec::new();
        loop {
            let (eff, _) = w.execute(&prog, &c, &mut g, &mut s, &mut lines);
            if eff == ExecEffect::GlobalLoad {
                assert_eq!(lines.len(), 32);
                break;
            }
        }
    }
}
