//! One scheduler unit's pick over a recorded LSU-saturated trace, two ways:
//! the walk `Sm::issue_unit` runs (a ready memo beside the scoreboard-wait
//! memo, DESIGN.md §15) and the walk it replaced, which tested every
//! fetched warp again each cycle — kept here as the reference.
//! `pick_oracle.rs` holds the two to the same picks, and `pro-bench`'s
//! `issue/pipe_full_*` rows time them side by side (it includes this file
//! by path). Nothing here is compiled into the library.
//!
//! The model is the slice of an SM the pick depends on: per-warp SIMT
//! stack, scoreboard and fetch time from the library's own types, the
//! decoded [`IssueTable`], an SFU initiation interval, fixed writeback
//! latencies, and — the recorded part — which cycles the LSU queue has
//! room.

use pro_core::rng::SplitMix64;
use pro_isa::{PipeClass, ProgramBuilder, SfuOp, Src};
use pro_sm::{IssueTable, Scoreboard, SimtStack, WriteSet};
use std::collections::VecDeque;
use std::sync::Arc;

/// Warps of the modelled unit (the 24 a Fermi unit holds).
pub const WARPS: usize = 24;
const FETCH_LAT: u64 = 2;
const SFU_II: u64 = 8;
const ALU_LAT: u64 = 8;
const MEM_LAT: u64 = 160;

/// Ready class of a pipeline, as in `sm.rs`.
const fn ready_class(pipe: PipeClass) -> usize {
    match pipe {
        PipeClass::Alu | PipeClass::Ctrl => 0,
        PipeClass::Sfu => 1,
        PipeClass::Mem => 2,
    }
}

/// The unit, its warps, and the recorded LSU availability.
#[derive(Clone)]
pub struct PipeFullModel {
    table: Arc<IssueTable>,
    /// `lsu_open[c]`: does the LSU queue take an instruction in cycle `c`?
    /// Open about one cycle in six, the rate a queue of multi-line loads
    /// drains at.
    lsu_open: Arc<[bool]>,
    simt: Vec<SimtStack>,
    scoreboard: Vec<Scoreboard>,
    ibuf_at: Vec<u64>,
    /// Pending writebacks per latency class, each in due order.
    wb: [VecDeque<(u64, usize, WriteSet)>; 2],
    sfu_free_at: u64,
    live: u64,
    sb_wait: u64,
    ready: [u64; 3],
    /// Warps tested (reconverge + decode lookup + scoreboard check).
    pub probes: u64,
}

impl PipeFullModel {
    /// Record the trace: `cycles` of LSU availability from a fixed seed,
    /// over warps that run a long load-heavy instruction stream.
    pub fn record(cycles: usize) -> Self {
        let mut b = ProgramBuilder::new("pipe_full");
        let addr = b.reg();
        let acc = b.reg();
        let vals: Vec<_> = (0..24).map(|_| b.reg()).collect();
        b.mov(addr, Src::Imm(0));
        b.mov(acc, Src::Imm(0));
        for i in 0..2048usize {
            let v = vals[i % vals.len()];
            match i % 16 {
                7 => b.iadd(acc, acc, vals[(i + 12) % vals.len()]),
                15 => b.sfu(SfuOp::Sin, v, acc),
                _ => b.ld_global(v, addr, (i * 4) as i32),
            };
        }
        b.exit();
        let program = Arc::new(b.build().expect("valid program"));
        let mut rng = SplitMix64::new(0x15c0_de02);
        PipeFullModel {
            lsu_open: (0..cycles).map(|_| rng.gen_range(0u32..6) == 0).collect(),
            simt: vec![SimtStack::new(u32::MAX, program.len() as u32); WARPS],
            scoreboard: vec![Scoreboard::default(); WARPS],
            ibuf_at: vec![0; WARPS],
            wb: [VecDeque::new(), VecDeque::new()],
            sfu_free_at: 0,
            live: (1u64 << WARPS) - 1,
            sb_wait: 0,
            ready: [0; 3],
            probes: 0,
            table: Arc::new(IssueTable::build(&program)),
        }
    }

    /// Cycles in the recorded trace.
    pub fn cycles(&self) -> u64 {
        self.lsu_open.len() as u64
    }

    /// One cycle: retire due writebacks, pick with `pick`, issue the pick.
    pub fn step(
        &mut self,
        now: u64,
        pick: fn(&mut PipeFullModel, u64, [bool; 3]) -> Option<usize>,
    ) -> Option<usize> {
        for q in 0..self.wb.len() {
            while self.wb[q].front().is_some_and(|&(t, ..)| t <= now) {
                let (_, w, ws) = self.wb[q].pop_front().expect("checked");
                self.scoreboard[w].release(ws);
                self.sb_wait &= !(1u64 << w);
            }
        }
        let open = [true, now >= self.sfu_free_at, self.lsu_open[now as usize]];
        let w = pick(self, now, open)?;
        let meta = *self.table.at(self.simt[w].pc());
        self.simt[w].advance();
        self.ibuf_at[w] = now + FETCH_LAT;
        for r in &mut self.ready {
            *r &= !(1u64 << w);
        }
        if meta.drains {
            self.live &= !(1u64 << w); // `exit`: the stream is over
        }
        let is_mem = meta.pipe == PipeClass::Mem;
        if meta.pipe == PipeClass::Sfu {
            self.sfu_free_at = now + SFU_II;
        }
        if !meta.write.is_empty() {
            self.scoreboard[w].reserve(meta.write, is_mem);
            let lat = if is_mem { MEM_LAT } else { ALU_LAT };
            self.wb[is_mem as usize].push_back((now + lat, w, meta.write));
        }
        Some(w)
    }

    /// Test warp `w` (fetched, no verdict): `None` if the scoreboard
    /// refuses it, else the ready class of its instruction.
    fn probe(&mut self, w: usize) -> Option<usize> {
        self.probes += 1;
        self.simt[w].reconverge();
        let meta = self.table.at(self.simt[w].pc());
        meta.ready(&self.scoreboard[w])
            .then_some(ready_class(meta.pipe))
    }

    /// Fetched warps among `m`.
    fn fetched(&self, mut m: u64, now: u64) -> u64 {
        let mut out = 0u64;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            if now >= self.ibuf_at[w] {
                out |= 1u64 << w;
            }
            m &= m - 1;
        }
        out
    }
}

/// The walk as `Sm::issue_unit` runs it: warps hold their verdict, ready
/// ones issue from the masks, only untested ones are probed. Oldest first.
pub fn pick_memo(m: &mut PipeFullModel, now: u64, open: [bool; 3]) -> Option<usize> {
    let (mut ready_any, mut issuable) = (0u64, 0u64);
    for (r, open) in m.ready.iter().zip(open) {
        ready_any |= r;
        if open {
            issuable |= r;
        }
    }
    let untested = m.fetched(m.live & !m.sb_wait & !ready_any, now);
    let mut visit = untested | issuable;
    for w in 0..WARPS {
        if visit == 0 {
            break;
        }
        let bit = 1u64 << w;
        if visit & bit == 0 {
            continue;
        }
        visit &= !bit;
        if issuable & bit != 0 {
            return Some(w);
        }
        match m.probe(w) {
            None => m.sb_wait |= bit,
            Some(c) => {
                m.ready[c] |= bit;
                if open[c] {
                    return Some(w);
                }
            }
        }
    }
    None
}

/// The walk before the ready memo: every fetched warp outside the
/// scoreboard-wait memo is tested again, each cycle, until it issues.
pub fn pick_reprobe(m: &mut PipeFullModel, now: u64, open: [bool; 3]) -> Option<usize> {
    let mut probe = m.fetched(m.live & !m.sb_wait, now);
    for w in 0..WARPS {
        if probe == 0 {
            break;
        }
        let bit = 1u64 << w;
        if probe & bit == 0 {
            continue;
        }
        probe &= !bit;
        match m.probe(w) {
            None => m.sb_wait |= bit,
            Some(c) if open[c] => return Some(w),
            Some(_) => {}
        }
    }
    None
}
