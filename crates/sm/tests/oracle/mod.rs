//! One scheduler unit's pick over a recorded LSU-saturated trace, two ways:
//! the walk the simulator runs — [`IssueState::pick`] on a real
//! [`IssueState`] (verdicts taken at launch, issue and release, DESIGN.md
//! §15), told of each event as `Sm` tells its own and handed each warp's
//! scoreboard where `Sm` hands it — and the walk it replaced, which tested
//! every fetched warp again each cycle — kept here as the reference.
//! `pick_oracle.rs` holds the two to the same picks. Nothing here is
//! compiled into the library.
//!
//! The model is the slice of an SM the pick depends on: per-warp SIMT
//! stack, scoreboard and fetch time from the library's own types, the
//! decoded [`IssueTable`], an SFU initiation interval, fixed writeback
//! latencies, and — the recorded part — which cycles the LSU queue has
//! room.

use pro_core::rng::SplitMix64;
use pro_core::{SchedView, WarpScheduler};
use pro_isa::{PipeClass, ProgramBuilder, SfuOp, Src};
use pro_sm::issue::{class_of, IssueState, NextInstr};
use pro_sm::{IssueTable, Scoreboard, SimtStack, WriteSet};
use pro_trace::StallReason;
use std::collections::VecDeque;
use std::sync::Arc;

/// Warps of the modelled unit (the 24 a Fermi unit holds).
pub const WARPS: usize = 24;
const FETCH_LAT: u64 = 2;
const SFU_II: u64 = 8;
const ALU_LAT: u64 = 8;
const MEM_LAT: u64 = 160;

/// Oldest slot first: the order the reference walks.
struct OldestFirst;

impl WarpScheduler for OldestFirst {
    fn name(&self) -> &'static str {
        "oldest-first"
    }
    fn order(&mut self, _unit: u32, _view: &SchedView, candidates: &[usize], out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(candidates);
    }
}

/// A walk: the warp to issue at `now` given which ready classes are open,
/// or the stall class of the unit-cycle.
pub type Pick = fn(&mut PipeFullModel, u64, [bool; 3]) -> Result<usize, StallReason>;

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
    /// The reference walk's state: unfinished warps and its
    /// scoreboard-wait memo.
    live: u64,
    sb_wait: u64,
    /// The production walk's state.
    issue: IssueState,
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
        // Every warp launched at cycle 0 and ordered once: a warp that
        // exits stays in the order and is skipped by the masks.
        let table = Arc::new(IssueTable::build(&program));
        let mut issue = IssueState::new(WARPS, 1);
        for w in 0..WARPS {
            issue.launch(w, 0);
            issue.decide(w, NextInstr::of(table.at(0)), &Scoreboard::default());
        }
        let view = SchedView { cycle: 0, warps: &[], tbs: &[], tbs_waiting_in_tb_scheduler: false };
        issue.order(0, &mut OldestFirst, &view, false);
        PipeFullModel {
            lsu_open: (0..cycles).map(|_| rng.gen_range(0u32..6) == 0).collect(),
            simt: vec![SimtStack::new(u32::MAX, program.len() as u32); WARPS],
            scoreboard: vec![Scoreboard::default(); WARPS],
            ibuf_at: vec![0; WARPS],
            wb: [VecDeque::new(), VecDeque::new()],
            sfu_free_at: 0,
            live: (1u64 << WARPS) - 1,
            sb_wait: 0,
            issue,
            probes: 0,
            table,
        }
    }

    /// Cycles in the recorded trace.
    pub fn cycles(&self) -> u64 {
        self.lsu_open.len() as u64
    }

    /// One cycle: retire due writebacks, pick with `pick`, issue the pick
    /// (or report why nothing issued).
    pub fn step(&mut self, now: u64, pick: Pick) -> Result<usize, StallReason> {
        for q in 0..self.wb.len() {
            while self.wb[q].front().is_some_and(|&(t, ..)| t <= now) {
                let (_, w, ws) = self.wb[q].pop_front().expect("checked");
                self.scoreboard[w].release(ws);
                self.sb_wait &= !(1u64 << w);
                self.issue.release_write(w, &self.scoreboard[w]);
            }
        }
        let open = [true, now >= self.sfu_free_at, self.lsu_open[now as usize]];
        let picked = pick(self, now, open);
        // The production state against the model's warps, as `Sm` checks
        // its own after every unit-cycle of a debug build.
        debug_assert!(self.issue.ready_memo_holds(now, |w| {
            let next = NextInstr::of(self.table.at(self.simt[w].pc()));
            (!self.simt[w].at_reconvergence()).then(|| (next, next.ready(&self.scoreboard[w])))
        }));
        let w = picked?;
        let meta = *self.table.at(self.simt[w].pc());
        self.simt[w].advance();
        self.ibuf_at[w] = now + FETCH_LAT;
        self.issue.issued(w, now + FETCH_LAT);
        if meta.drains {
            self.live &= !(1u64 << w); // `exit`: the stream is over
            self.issue.exit(w);
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
        // The verdict on the next instruction, as `Sm::decide_next` takes it.
        if !meta.drains && !self.simt[w].at_reconvergence() {
            let next = NextInstr::of(self.table.at(self.simt[w].pc()));
            self.issue.decide(w, next, &self.scoreboard[w]);
        }
        Ok(w)
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

/// Test a fetched warp that holds no verdict: `None` if the scoreboard
/// refuses it, else the ready class of its instruction.
fn probe_warp(
    table: &IssueTable,
    simt: &mut SimtStack,
    scoreboard: &Scoreboard,
    probes: &mut u64,
) -> Option<usize> {
    *probes += 1;
    simt.reconverge();
    let meta = table.at(simt.pc());
    meta.ready(scoreboard).then_some(class_of(meta.pipe))
}

/// The walk as `Sm::issue_unit` runs it: [`IssueState::pick`] with the
/// model's probe. Warps hold their verdict, ready ones issue from the
/// masks, only untested ones are probed.
pub fn pick_production(
    m: &mut PipeFullModel,
    now: u64,
    open: [bool; 3],
) -> Result<usize, StallReason> {
    let PipeFullModel { issue, table, simt, scoreboard, probes, .. } = m;
    issue.pick(0, now, open, |w| {
        *probes += 1;
        simt[w].reconverge();
        let next = NextInstr::of(table.at(simt[w].pc()));
        (next, next.ready(&scoreboard[w]))
    })
}

/// The walk before the ready memo: every fetched warp outside the
/// scoreboard-wait memo is tested again, each cycle, until it issues. A
/// cycle that issues nothing is Idle if no warp was fetched, Pipeline if
/// one was ready, Scoreboard otherwise (paper §II.B).
pub fn pick_reprobe(
    m: &mut PipeFullModel,
    now: u64,
    open: [bool; 3],
) -> Result<usize, StallReason> {
    let mut probe = m.fetched(m.live & !m.sb_wait, now);
    let fetched = probe | m.live & m.sb_wait;
    let mut stall = if fetched == 0 { StallReason::Idle } else { StallReason::Scoreboard };
    for w in 0..WARPS {
        if probe == 0 {
            break;
        }
        let bit = 1u64 << w;
        if probe & bit == 0 {
            continue;
        }
        probe &= !bit;
        match probe_warp(&m.table, &mut m.simt[w], &m.scoreboard[w], &mut m.probes) {
            None => m.sb_wait |= bit,
            Some(c) if open[c] => return Ok(w),
            Some(_) => stall = StallReason::Pipeline,
        }
    }
    Err(stall)
}
