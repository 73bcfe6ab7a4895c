//! The per-warp issue state machine (DESIGN.md §15) and the walk over it.
//!
//! Every live warp of a scheduler unit is *fetching* or fetched, and holds
//! a verdict on its next instruction — waiting on the scoreboard
//! (*sb-wait*) or *ready* for one pipeline class — or none (*untested*).
//! [`IssueState`] owns that — candidate/eligible/fetching bitsets, the two
//! verdict masks with the decoded instruction each was taken on, the
//! per-unit order caches — behind one mutator per event that moves a
//! warp, plus the two reads of an issue cycle: [`IssueState::order`] and
//! [`IssueState::pick`] (the mask-first walk, §16). It sees no warp: the SM
//! reports events by slot and hands over the warp's scoreboard where a
//! verdict is taken, and lends `pick` a probe, so tests drive the walk the
//! simulator runs (`crates/sm/tests/oracle`).
//!
//! A verdict is taken where the warp's state changes and is still in
//! cache: at its TB's launch, right after its own issue, and at each
//! release of its registers while it waits on the scoreboard. A warp whose
//! SIMT top sits at a reconvergence point gets none there (popping the
//! stack is the walk's, which publishes `SimtReconverge` in the cycle it
//! happens), and a restore starts every warp without one: those are the
//! *untested* warps `pick` probes, lazily and in priority order.
//!
//! ```text
//!   TB launch, own issue ──► decide ──┬──► ready[class(pipe)] ─── own issue ───┐
//!     ▲   (reconvergence-due:         │        ▲                               │
//!     │    untested instead)          │        │ release_write: operands free  │
//!     │                               └──► sb-wait ◄──┐                        │
//!     │                                       └───────┘ release_write: refused │
//!     └────────────────────────────────────────────────────────────────────────┘
//!   untested (reconvergence-due, or restored) ── probe, in pick's order ──► decide
//! ```
//!
//! Fetching is orthogonal: a warp's verdict is taken while its next
//! instruction is still being fetched, and it becomes issuable once
//! `now >= ibuf_at[w]` as well.
//!
//! All of it is *derived* state: rebuilt from the architectural state on
//! restore (`IssueState::rebuild`) and never serialized.

use crate::decode::IssueMeta;
use crate::scoreboard::{Scoreboard, WriteSet};
use crate::warp::Warp;
use pro_core::{SchedView, WarpScheduler, WarpState};
use pro_isa::PipeClass;
use pro_trace::{IssueProf, StallReason};

/// Ready class of the pipeline serving `pipe` — the index of its ready
/// mask and of its entry in [`IssueState::pick`]'s `open`: Alu and Ctrl
/// instructions never meet a structural hazard and share class 0.
pub const fn class_of(pipe: PipeClass) -> usize {
    match pipe {
        PipeClass::Alu | PipeClass::Ctrl => 0,
        PipeClass::Sfu => 1,
        PipeClass::Mem => 2,
    }
}

/// What the issue path keeps of a warp's next instruction: enough to test
/// it against the warp's scoreboard again without its pc or the decode
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextInstr {
    hazard: WriteSet,
    drains: bool,
    class: u8,
}

impl NextInstr {
    /// Placeholder for a slot that holds no verdict.
    const NONE: NextInstr = NextInstr { hazard: WriteSet::EMPTY, drains: false, class: 0 };

    /// The instruction `meta` decodes.
    #[inline]
    pub fn of(meta: &IssueMeta) -> NextInstr {
        NextInstr { hazard: meta.hazard, drains: meta.drains, class: class_of(meta.pipe) as u8 }
    }

    /// Does `sb` let the instruction issue? False while a register it
    /// touches has a write in flight, or — for a draining instruction —
    /// while any write is.
    #[inline]
    pub fn ready(&self, sb: &Scoreboard) -> bool {
        sb.clear_of(self.hazard) && !(self.drains && sb.any_pending())
    }

    /// Its ready class ([`class_of`]).
    pub fn class(&self) -> usize {
        self.class as usize
    }
}

/// Where a live warp that is not parked at its TB's barrier stands in the
/// state machine of the module doc (`IssueState::state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpIssue {
    /// Its next instruction is still being fetched.
    Fetching,
    /// Fetched, and holding no verdict.
    Untested,
    /// The scoreboard refused its next instruction.
    SbWait,
    /// Ready for the pipeline of this class ([`class_of`]).
    Ready(usize),
}

impl std::fmt::Display for WarpIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarpIssue::Fetching => f.write_str("fetching"),
            WarpIssue::Untested => f.write_str("untested"),
            WarpIssue::SbWait => f.write_str("refused by the scoreboard"),
            WarpIssue::Ready(class) => write!(f, "ready for the {} pipeline", ["ALU", "SFU", "MEM"][*class]),
        }
    }
}

/// The candidate, eligible and long-latency masks of the warps whose
/// scheduler flags are `sched`: live and unfinished; of those, not parked
/// at a barrier; blocked on a long-latency write.
fn masks_of(sched: &[WarpState]) -> [u64; 3] {
    let mut masks = [0u64; 3];
    for (w, sw) in sched.iter().enumerate() {
        let cand = sw.active && !sw.finished;
        masks[0] |= u64::from(cand) << w;
        masks[1] |= u64::from(cand && !sw.at_barrier) << w;
        masks[2] |= u64::from(sw.blocked_on_longlat) << w;
    }
    masks
}

/// One scheduler unit's part of [`IssueState`], kept together so a
/// unit-cycle reads one record.
#[derive(Debug, Clone)]
struct Unit {
    /// Static slot→unit membership: bit `w` set iff `w % units` is this
    /// unit. Computed once at construction.
    mask: u64,
    /// The cached `order()` output plus the inputs it was computed under —
    /// candidates, blocked set, the policy's order version (`None`:
    /// nothing cached) — reused verbatim while all three are unchanged.
    order: Vec<usize>,
    cached_cands: u64,
    cached_blocked: u64,
    cached_version: Option<u64>,
    /// The candidate slice handed to `order()` (ascending slots), expanded
    /// from `cached_cands` and refilled only when the unit's candidate set
    /// differs from it.
    cands: Vec<usize>,
}

/// The issue path's state for the warp slots of one SM.
#[derive(Debug, Clone)]
pub struct IssueState {
    /// Per scheduler unit: its slots, its cached order and that order's
    /// inputs.
    units: Vec<Unit>,
    /// Bit `w` set iff warp slot `w` is an issue candidate (launched and
    /// not finished). Per-unit candidate sets are `cands_mask` and the
    /// unit's mask.
    cands_mask: u64,
    /// Bit `w` set iff warp `w` is live, not parked at a barrier, and not
    /// finished — exactly the warps the issue walk would not silently skip.
    eligible_mask: u64,
    /// Per-slot mirror of [`Warp::ibuf_ready_at`] so the walk can skip
    /// still-fetching warps without loading the `Warp`.
    ibuf_at: Vec<u64>,
    /// Bit `w` set from the event that starts a fetch of warp `w` (launch,
    /// issue, barrier release) until a pick of its unit finds
    /// `now >= ibuf_at[w]`: a candidate outside it is fetched, so each pick
    /// re-tests only the few warps inside.
    fetching: u64,
    /// The verdicts: bit `w` of `sb_wait_mask` set when the scoreboard (or
    /// the Exit/Bar drain rule) refuses warp `w`'s next instruction
    /// `next[w]`, bit `w` of `ready[c]` when it lets it go and the
    /// instruction's class is `c`. Invariant: a warp holds at most one
    /// verdict, only while it is a candidate (parked and fetching warps
    /// included), its SIMT top is not at a reconvergence point, and the
    /// verdict is what a probe of it would return now. It stays so because
    /// pc, SIMT stack and reservations change only at the warp's own issue
    /// (which takes a new verdict or none), and a writeback only clears
    /// scoreboard bits: that cannot un-ready an instruction, and
    /// [`IssueState::release_write`] re-tests a refused one.
    /// [`IssueState::ready_memo_holds`] re-derives it in debug builds.
    sb_wait_mask: u64,
    ready: [u64; 3],
    /// Per slot, the instruction its verdict was taken on.
    next: Vec<NextInstr>,
    /// Bit `w` set iff the warp's `blocked_on_longlat` flag is — the
    /// fingerprint consulted when a policy's `order()` reads blocked flags
    /// (`order_reads_longlat`, e.g. TL).
    longlat_mask: u64,
    /// Host-only counters (outside the determinism/checkpoint boundary,
    /// published as `host/issue/*`).
    prof: IssueProf,
}

impl IssueState {
    /// Empty state for `max_warps` slots dealt round-robin to `units`
    /// scheduler units; every buffer is allocated here.
    pub fn new(max_warps: usize, units: u32) -> Self {
        assert!(max_warps <= 64, "the incremental issue path packs warp slots into u64 bitsets");
        let n = units.max(1) as usize;
        let units = (0..n)
            .map(|u| Unit {
                mask: (u..max_warps).step_by(n).fold(0, |m, w| m | 1u64 << w),
                order: Vec::with_capacity(max_warps),
                cached_cands: 0,
                cached_blocked: 0,
                cached_version: None,
                cands: Vec::with_capacity(max_warps),
            })
            .collect();
        IssueState {
            units,
            cands_mask: 0,
            eligible_mask: 0,
            ibuf_at: vec![0; max_warps],
            fetching: 0,
            sb_wait_mask: 0,
            ready: [0; 3],
            next: vec![NextInstr::NONE; max_warps],
            longlat_mask: 0,
            prof: IssueProf::default(),
        }
    }

    /// A kernel is being bound to a quiescent SM: no warp anywhere, order
    /// caches invalid, counters at zero.
    pub(crate) fn reset(&mut self) {
        self.prof = IssueProf::default();
        self.cands_mask = 0;
        self.eligible_mask = 0;
        self.fetching = 0;
        self.sb_wait_mask = 0;
        self.ready = [0; 3];
        self.longlat_mask = 0;
        self.ibuf_at.fill(0);
        for unit in &mut self.units {
            unit.cached_version = None;
        }
    }

    /// [`IssueState::reset`], then the candidate/eligible/blocked masks and
    /// the fetch mirror recomputed from restored warps and their flags.
    /// Every candidate restarts untested and fetching (the first pick of its
    /// unit re-tests its fetch cycle), and the order caches empty — all are
    /// one-sided, so the first cycle after a restore recomputes exactly what
    /// the snapshotted engine held.
    pub(crate) fn rebuild(&mut self, warps: &[Warp], sched: &[WarpState]) {
        self.reset();
        [self.cands_mask, self.eligible_mask, self.longlat_mask] = masks_of(sched);
        self.fetching = self.cands_mask;
        for (at, warp) in self.ibuf_at.iter_mut().zip(warps) {
            *at = warp.ibuf_ready_at;
        }
    }

    /// `Err(w)` for the first warp slot whose candidate, eligible or
    /// long-latency bit is not what its flags in `sched` say, or, for a
    /// candidate, whose fetch mirror is not its warp's fetch cycle: what
    /// [`IssueState::rebuild`] derives, held by every event since.
    pub(crate) fn check(&self, warps: &[Warp], sched: &[WarpState]) -> Result<(), usize> {
        let [cands, eligible, longlat] = masks_of(sched);
        let mut wrong = (cands ^ self.cands_mask) | (eligible ^ self.eligible_mask) | (longlat ^ self.longlat_mask);
        for (w, warp) in warps.iter().enumerate() {
            if cands >> w & 1 != 0 && self.ibuf_at[w] != warp.ibuf_ready_at {
                wrong |= 1u64 << w;
            }
        }
        match wrong {
            0 => Ok(()),
            _ => Err(wrong.trailing_zeros() as usize),
        }
    }

    /// A warp was launched into slot `w`; its first instruction arrives at
    /// `ibuf_at`. (→ *untested*, until [`IssueState::decide`].)
    pub fn launch(&mut self, w: usize, ibuf_at: u64) {
        let bit = 1u64 << w;
        self.forget(bit);
        self.cands_mask |= bit;
        self.eligible_mask |= bit;
        self.fetching |= bit;
        self.ibuf_at[w] = ibuf_at;
    }

    /// Take warp `w`'s verdict on its next instruction `next` against its
    /// scoreboard `sb`. The caller has checked that the warp's SIMT top is
    /// not at a reconvergence point, which only a probe may pop.
    /// (→ *sb-wait* or *ready*)
    #[inline]
    pub fn decide(&mut self, w: usize, next: NextInstr, sb: &Scoreboard) {
        let bit = 1u64 << w;
        debug_assert_eq!((self.sb_wait_mask | self.ready[0] | self.ready[1] | self.ready[2]) & bit, 0, "warp {w} holds a verdict");
        self.next[w] = next;
        if next.ready(sb) {
            self.ready[next.class()] |= bit;
        } else {
            self.sb_wait_mask |= bit;
        }
    }

    /// Warp `w` issued; its next instruction arrives at `ibuf_at`. (*ready*
    /// → *untested*: the verdict was for the one that left, and the SM
    /// decides on the next one unless the warp exited.)
    pub fn issued(&mut self, w: usize, ibuf_at: u64) {
        self.clear_ready(1u64 << w);
        self.fetching |= 1u64 << w;
        self.ibuf_at[w] = ibuf_at;
    }

    /// Warp `w`'s issue was a `Bar`: it is parked until [`IssueState::unpark`].
    pub(crate) fn park(&mut self, w: usize) {
        self.eligible_mask &= !(1u64 << w);
    }

    /// The barrier warp `w` was parked at released; it re-fetches until
    /// `ibuf_at`, keeping its verdict.
    pub(crate) fn unpark(&mut self, w: usize, ibuf_at: u64) {
        self.eligible_mask |= 1u64 << w;
        self.fetching |= 1u64 << w;
        self.ibuf_at[w] = ibuf_at;
    }

    /// Warp `w`'s issue was its `Exit`: no longer a candidate.
    pub fn exit(&mut self, w: usize) {
        let bit = 1u64 << w;
        self.cands_mask &= !bit;
        self.eligible_mask &= !bit;
    }

    /// Slot `w`'s TB retired. Finds the slot's bits clear already: every
    /// warp of a retiring TB issued its `Exit`, which drains its writes.
    pub fn retire(&mut self, w: usize) {
        self.forget(1u64 << w);
    }

    /// Drop every per-warp fact about the slots in `bits`.
    fn forget(&mut self, bits: u64) {
        self.cands_mask &= !bits;
        self.eligible_mask &= !bits;
        self.fetching &= !bits;
        self.sb_wait_mask &= !bits;
        self.clear_ready(bits);
        self.longlat_mask &= !bits;
    }

    #[inline]
    fn clear_ready(&mut self, bits: u64) {
        for m in &mut self.ready {
            *m &= !bits;
        }
    }

    /// A writeback or load completion released registers of warp `w`,
    /// whose scoreboard is now `sb`: the single point where a stalled warp
    /// can become issuable again. A refused instruction is tested again
    /// here, with the scoreboard just written.
    /// (*sb-wait* → *ready*, or stays: it may wait for other registers.)
    #[inline]
    pub fn release_write(&mut self, w: usize, sb: &Scoreboard) {
        let bit = 1u64 << w;
        if sb.longlat_pending() {
            self.longlat_mask |= bit;
        } else {
            self.longlat_mask &= !bit;
        }
        if self.sb_wait_mask & bit != 0 && self.next[w].ready(sb) {
            self.sb_wait_mask &= !bit;
            self.ready[self.next[w].class()] |= bit;
        }
    }

    /// Warp `w` issued a global load: blocked on a long-latency write.
    pub fn block_longlat(&mut self, w: usize) {
        self.longlat_mask |= 1u64 << w;
    }

    /// Bring `unit`'s priority order up to date. Last cycle's is reused
    /// verbatim when every input `order()` may read is unchanged — the
    /// candidate set, the blocked set for policies that read it
    /// (`reads_longlat`), and the policy's order version: the
    /// `order_version` contract then guarantees a recompute would return the
    /// same permutation. The version is read after the `order()` call it
    /// stands for, which is when a policy whose `order()` moves its own
    /// state (TL) knows whether the next one would.
    pub fn order(
        &mut self,
        unit: u32,
        policy: &mut dyn WarpScheduler,
        view: &SchedView,
        reads_longlat: bool,
    ) {
        let u = &mut self.units[unit as usize];
        let cands = self.cands_mask & u.mask;
        let blocked = self.longlat_mask & u.mask;
        let reuse = u.cached_cands == cands
            && (!reads_longlat || u.cached_blocked == blocked)
            && u.cached_version.is_some_and(|v| policy.order_version(unit) == Some(v));
        if reuse {
            self.prof.orders_reused += 1;
            return;
        }
        self.prof.orders_recomputed += 1;
        // Candidates: live, unfinished warps of this unit, ascending.
        if u.cached_cands != cands {
            u.cands.clear();
            let mut m = cands;
            while m != 0 {
                u.cands.push(m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
        policy.order(unit, view, &u.cands, &mut u.order);
        u.cached_cands = cands;
        u.cached_blocked = blocked;
        u.cached_version = policy.order_version(unit);
    }

    /// `unit`'s order as [`IssueState::order`] left it, best first.
    pub fn last_order(&self, unit: u32) -> &[usize] {
        &self.units[unit as usize].order
    }

    /// The warps of `unit` holding a fetched instruction at `now`, as a
    /// bitset: candidates, eligible, `ibuf_at` elapsed. The fetching warps
    /// of the unit whose fetch has elapsed leave `fetching` here.
    #[inline]
    pub(crate) fn fetched(&mut self, unit: u32, now: u64) -> u64 {
        let live = self.cands_mask & self.eligible_mask & self.units[unit as usize].mask;
        let mut m = self.fetching & live;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            self.fetching &= !(u64::from(now >= self.ibuf_at[w]) << w);
        }
        live & !self.fetching
    }

    /// Choose the warp `unit` issues at `now`, or classify the stall.
    ///
    /// Mask-first: every fetched live warp is untested, in `sb_wait_mask`
    /// or in one `ready` mask, and the last two hold verdicts that are true
    /// now (see the field docs); so only untested warps are handed to
    /// `probe`, lazily and in priority order, and the first issuable one —
    /// ready, its class `open` this unit-cycle — is chosen without being
    /// probed. `probe(w)` reconverges warp `w` and returns its next
    /// instruction and whether its scoreboard lets it go. When nothing is
    /// chosen every fetched warp holds a verdict, so the stall class falls
    /// out of the masks.
    #[inline]
    pub fn pick(
        &mut self,
        unit: u32,
        now: u64,
        open: [bool; 3],
        mut probe: impl FnMut(usize) -> (NextInstr, bool),
    ) -> Result<usize, StallReason> {
        let u = unit as usize;
        let fetched = self.fetched(unit, now);
        let stalled = fetched & self.sb_wait_mask;
        self.prof.mask_skips += stalled.count_ones() as u64;
        let (mut ready_any, mut issuable) = (0u64, 0u64);
        for (r, open) in self.ready.iter().zip(open) {
            ready_any |= r & fetched;
            if open {
                issuable |= r & fetched;
            }
        }
        let untested = fetched & !self.sb_wait_mask & !ready_any;

        // With nothing to probe or pick the order is not walked at all.
        let mut visit = untested | issuable;
        for i in 0..self.units[u].order.len() {
            if visit == 0 {
                break; // every fetched warp has a verdict, none can issue
            }
            let w = self.units[u].order[i];
            let bit = 1u64 << w;
            if visit & bit == 0 {
                continue;
            }
            visit &= !bit;
            if issuable & bit != 0 {
                self.prof.ready_hits += 1;
                return Ok(w);
            }
            self.prof.probes += 1;
            let (next, ready) = probe(w);
            self.next[w] = next;
            if !ready {
                // Operand hazards; Exit and barriers also drain the warp's
                // pipeline first (in-order completion).
                self.sb_wait_mask |= bit;
                continue;
            }
            // Structural hazards.
            self.ready[next.class()] |= bit;
            ready_any |= bit;
            if open[next.class()] {
                return Ok(w);
            }
        }
        // Valid instruction(s) exist iff some warp is fetched.
        Err(if fetched == 0 {
            StallReason::Idle
        } else if ready_any == 0 {
            StallReason::Scoreboard
        } else {
            StallReason::Pipeline
        })
    }

    /// Warp `w`'s state at `now`: `None` if it is not live or is parked at
    /// its TB's barrier.
    pub(crate) fn state(&self, w: usize, now: u64) -> Option<WarpIssue> {
        let bit = 1u64 << w;
        if self.cands_mask & self.eligible_mask & bit == 0 {
            None
        } else if now < self.ibuf_at[w] {
            Some(WarpIssue::Fetching)
        } else if self.sb_wait_mask & bit != 0 {
            Some(WarpIssue::SbWait)
        } else {
            Some(self.ready.iter().position(|r| r & bit != 0).map_or(WarpIssue::Untested, WarpIssue::Ready))
        }
    }

    /// Why warp `w` did not issue on a unit-cycle whose [`IssueState::pick`]
    /// at `now` found nothing, which leaves a verdict for every fetched live
    /// warp: Idle if the warp is not live or still fetching, Scoreboard if
    /// its next instruction is refused, Pipeline if it is ready for a
    /// closed pipeline.
    pub(crate) fn stall_reason(&self, w: usize, now: u64) -> StallReason {
        match self.state(w, now) {
            None | Some(WarpIssue::Fetching) => StallReason::Idle,
            Some(WarpIssue::SbWait) => StallReason::Scoreboard,
            state => {
                debug_assert_ne!(state, Some(WarpIssue::Untested), "warp {w} holds no verdict");
                StallReason::Pipeline
            }
        }
    }

    /// The invariant on the verdicts, re-derived: `probe(w)` is what a probe
    /// of warp `w` would find without its side effects — `None` if its SIMT
    /// top is at a reconvergence point, else its next instruction and
    /// whether the scoreboard lets it go. Every warp with a verdict,
    /// fetched or not, parked or not, must be a candidate and agree with
    /// it, and a live warp outside `fetching` must be fetched at `now`. The
    /// debug-build check after each unit's issue.
    pub fn ready_memo_holds(&self, now: u64, probe: impl Fn(usize) -> Option<(NextInstr, bool)>) -> bool {
        let [alu, sfu, mem] = self.ready;
        let any = alu | sfu | mem;
        let judged = any | self.sb_wait_mask;
        let live = self.cands_mask & self.eligible_mask;
        let disjoint = alu & sfu == 0 && (alu | sfu) & mem == 0 && any & self.sb_wait_mask == 0;
        let settled = (0..self.ibuf_at.len()).all(|w| (live & !self.fetching) >> w & 1 == 0 || now >= self.ibuf_at[w]);
        disjoint
            && settled
            && judged & !self.cands_mask == 0
            && (0..self.ibuf_at.len()).filter(|w| judged >> w & 1 != 0).all(|w| {
                probe(w).is_some_and(|(next, ready)| {
                    let held = if ready { self.ready[next.class()] } else { self.sb_wait_mask };
                    next == self.next[w] && held >> w & 1 != 0
                })
            })
    }

    /// Host-side issue-path counters.
    pub fn prof(&self) -> IssueProf {
        self.prof
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_core::prop::{any, check, from_fn, vec_of, CaseError, CaseResult, Config, Gen};
    use pro_core::{prop_assert, prop_assert_eq};

    /// Read and reset access for the rigs that hold the verdicts to a
    /// from-scratch probe (here and in `sm/issue_phase.rs`).
    impl IssueState {
        /// The ready classes holding warp `w`, and whether a scoreboard
        /// refusal is memoized for it.
        pub(crate) fn memo_of(&self, w: usize) -> (Vec<usize>, bool) {
            let held = (0..3).filter(|&c| self.ready[c] >> w & 1 != 0).collect();
            (held, self.sb_wait_mask >> w & 1 != 0)
        }

        /// Drop every verdict, so every fetched warp is probed again.
        pub(crate) fn forget_verdicts(&mut self) {
            self.ready = [0; 3];
            self.sb_wait_mask = 0;
        }
    }

    const SLOTS: usize = 8;
    const UNITS: u32 = 2;
    /// The register every model instruction reads, and the one a model
    /// load writes.
    const HAZARD: WriteSet = WriteSet { regs: 1, preds: 0 };
    const LOADED: WriteSet = WriteSet { regs: 2, preds: 0 };

    /// What the walk remembers of a warp's next instruction.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Verdict {
        /// Untested: due to reconverge, restored, or not yet probed.
        None,
        SbWait,
        Ready(usize),
    }

    /// A warp's next instruction in the model: its ready class, and whether
    /// the write it reads is still in flight. Drawn at launch and at the
    /// warp's own issue; a writeback can only clear `blocked`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Next {
        class: usize,
        blocked: bool,
    }

    impl Next {
        fn truth(self) -> Option<usize> {
            (!self.blocked).then_some(self.class)
        }

        fn verdict(self) -> Verdict {
            self.truth().map_or(Verdict::SbWait, Verdict::Ready)
        }

        fn instr(self) -> NextInstr {
            NextInstr { hazard: HAZARD, drains: false, class: self.class as u8 }
        }

        /// The scoreboard of a warp whose next instruction is this one and
        /// which has a load in flight iff `longlat`.
        fn scoreboard(self, longlat: bool) -> Scoreboard {
            let mut sb = Scoreboard::default();
            if self.blocked {
                sb.reserve(HAZARD, false);
            }
            if longlat {
                sb.reserve(LOADED, true);
            }
            sb
        }
    }

    /// One warp slot of the from-scratch model.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Slot {
        Empty,
        Live { verdict: Verdict, next: Next },
        Parked { verdict: Verdict, next: Next },
        Exited,
    }

    impl Slot {
        /// The verdict and next instruction of a candidate.
        fn held(self) -> Option<(Verdict, Next)> {
            match self {
                Slot::Live { verdict, next } | Slot::Parked { verdict, next } => Some((verdict, next)),
                _ => None,
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Effect {
        Plain,
        Load,
        Bar,
        Exit,
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// `decide` unset: the first instruction is left untested.
        Launch { w: usize, lat: u64, next: Next, decide: bool },
        Elapse(u64),
        Writeback { w: usize, longlat: bool, release: bool },
        /// Order (`rotate` set: the policy's rotation moves), pick, and issue
        /// the pick with `effect`; `next` is its next instruction, decided at
        /// once unless it is due to reconverge (`decide` unset).
        Pick {
            unit: u32,
            open: [bool; 3],
            rotate: Option<usize>,
            effect: Effect,
            lat: u64,
            next: Next,
            decide: bool,
        },
        Unpark { w: usize, lat: u64 },
        Retire { w: usize },
        Rebuild,
    }

    fn op(g: &mut Gen) -> Op {
        let w = g.gen_range(0..SLOTS);
        let lat = g.gen_range(0..4u64);
        let next = Next { class: g.gen_range(0..3usize), blocked: g.gen_bool(0.4) };
        let decide = g.gen_bool(0.75);
        match g.gen_range(0..16u32) {
            0..=2 => Op::Launch { w, lat, next, decide },
            3..=4 => Op::Elapse(g.gen_range(1..3u64)),
            5..=6 => Op::Writeback { w, longlat: g.gen_bool(0.3), release: g.gen_bool(0.6) },
            7..=12 => Op::Pick {
                unit: g.gen_range(0..UNITS),
                open: [true, g.gen_bool(0.5), g.gen_bool(0.3)],
                rotate: g.gen_bool(0.3).then(|| g.gen_range(0..SLOTS)),
                effect: match g.gen_range(0..8u32) {
                    0 => Effect::Bar,
                    1 => Effect::Exit,
                    2..=3 => Effect::Load,
                    _ => Effect::Plain,
                },
                lat,
                next,
                decide,
            },
            13 => Op::Unpark { w, lat },
            14 => Op::Retire { w },
            _ => Op::Rebuild,
        }
    }

    /// Each unit's candidates rotated by its `by`, which is also the
    /// unit's order version.
    struct Rotate {
        by: [usize; UNITS as usize],
        calls: u64,
        reads_longlat: bool,
    }

    impl WarpScheduler for Rotate {
        fn name(&self) -> &'static str {
            "rotate"
        }
        fn order(&mut self, u: u32, _: &SchedView, candidates: &[usize], out: &mut Vec<usize>) {
            out.clear();
            out.extend_from_slice(candidates);
            out.rotate_left(self.by[u as usize] % candidates.len().max(1));
            self.calls += 1;
        }
        fn order_version(&self, u: u32) -> Option<u64> {
            Some(self.by[u as usize] as u64)
        }
        fn order_reads_longlat(&self) -> bool {
            self.reads_longlat
        }
    }

    /// The model: per-slot state, the two per-slot facts that outlive it,
    /// and per unit the inputs of the last `order()` call.
    struct Model {
        slots: [Slot; SLOTS],
        ibuf_at: [u64; SLOTS],
        longlat: [bool; SLOTS],
        ordered: [Option<(u64, u64, usize)>; UNITS as usize],
        probes: u64,
        order_calls: u64,
    }

    impl Model {
        fn mask(&self, pick: impl Fn(usize, Slot) -> bool) -> u64 {
            (0..SLOTS).filter(|&w| pick(w, self.slots[w])).fold(0, |m, w| m | 1 << w)
        }

        fn fetched(&self, w: usize, now: u64) -> bool {
            matches!(self.slots[w], Slot::Live { .. }) && now >= self.ibuf_at[w]
        }

        /// Every mask of `st`, derived from the per-slot states at `now`.
        fn agrees_with(&self, st: &IssueState, now: u64) -> CaseResult {
            let verdict = |want: Verdict| self.mask(|_, s| s.held().is_some_and(|(v, _)| v == want));
            let cands = self.mask(|_, s| s.held().is_some());
            prop_assert_eq!(st.cands_mask, cands, "candidates");
            prop_assert_eq!(st.eligible_mask, self.mask(|_, s| matches!(s, Slot::Live { .. })));
            prop_assert_eq!(st.sb_wait_mask, verdict(Verdict::SbWait), "scoreboard-wait verdicts");
            for c in 0..3 {
                prop_assert_eq!(st.ready[c], verdict(Verdict::Ready(c)), "ready verdicts {}", c);
            }
            prop_assert_eq!(st.longlat_mask, self.mask(|w, _| self.longlat[w]), "blocked");
            prop_assert_eq!(&st.ibuf_at[..], &self.ibuf_at[..], "fetch mirror");
            prop_assert_eq!(st.prof.probes, self.probes, "probes");
            prop_assert!(st.ready_memo_holds(now, |w| {
                self.slots[w].held().map(|(_, next)| (next.instr(), !next.blocked))
            }));
            Ok(())
        }

        /// The warps as a snapshot restore would hand them to `rebuild`.
        fn restored(&self) -> (Vec<Warp>, Vec<WarpState>) {
            (0..SLOTS)
                .map(|w| {
                    let s = self.slots[w];
                    let mut warp = Warp::empty();
                    warp.ibuf_ready_at = self.ibuf_at[w];
                    let sched = WarpState {
                        active: s != Slot::Empty,
                        at_barrier: matches!(s, Slot::Parked { .. }),
                        finished: s == Slot::Exited,
                        blocked_on_longlat: self.longlat[w],
                        ..WarpState::default()
                    };
                    (warp, sched)
                })
                .unzip()
        }
    }

    /// Random launch / fetch-elapse / writeback / order+pick+issue (plain,
    /// load, barrier park, exit) / barrier release / retire / rebuild
    /// sequences on an `IssueState` alone. After every step its masks equal
    /// the ones derived from a per-slot enum model whose verdicts are taken
    /// at launch, issue and release and, for the untested, by the lazy
    /// walk; every pick is the one a full re-probe of the fetched warps in
    /// priority order makes, with the stall class that re-probe finds; and
    /// the policy is asked for an order exactly when an input changed.
    #[test]
    fn issue_state_storm_agrees_with_a_per_warp_model() {
        let cases = (vec_of(from_fn(op), 1..120), any::<bool>());
        check(Config::with_cases(400), cases, |(ops, reads_longlat)| {
            let mut st = IssueState::new(SLOTS, UNITS);
            let mut policy = Rotate {
                by: [0; UNITS as usize],
                calls: 0,
                reads_longlat: *reads_longlat,
            };
            let mut m = Model {
                slots: [Slot::Empty; SLOTS],
                ibuf_at: [0; SLOTS],
                longlat: [false; SLOTS],
                ordered: [None; UNITS as usize],
                probes: 0,
                order_calls: 0,
            };
            let mut now = 0u64;
            for op in ops {
                match *op {
                    Op::Launch { w, lat, next, decide } if m.slots[w] == Slot::Empty => {
                        st.launch(w, now + lat);
                        let mut verdict = Verdict::None;
                        if decide {
                            st.decide(w, next.instr(), &next.scoreboard(false));
                            verdict = next.verdict();
                        }
                        m.slots[w] = Slot::Live { verdict, next };
                        (m.ibuf_at[w], m.longlat[w]) = (now + lat, false);
                    }
                    Op::Elapse(d) => now += d,
                    Op::Writeback { w, longlat, release } => {
                        // Only a candidate has writes in flight.
                        let Some((verdict, next)) = m.slots[w].held() else { continue };
                        let next = Next { blocked: next.blocked && !release, ..next };
                        st.release_write(w, &next.scoreboard(longlat));
                        m.longlat[w] = longlat;
                        let verdict = if verdict == Verdict::SbWait { next.verdict() } else { verdict };
                        m.slots[w] = match m.slots[w] {
                            Slot::Live { .. } => Slot::Live { verdict, next },
                            _ => Slot::Parked { verdict, next },
                        };
                    }
                    Op::Pick { unit, open, rotate, effect, lat, next, decide } => {
                        let in_unit = |w: usize| w as u32 % UNITS == unit;
                        let u = unit as usize;
                        if let Some(by) = rotate {
                            policy.by[u] = by;
                        }
                        let cands = m.mask(|w, s| in_unit(w) && s.held().is_some());
                        let blocked = m.mask(|w, _| in_unit(w) && m.longlat[w]);
                        let inputs = (cands, if *reads_longlat { blocked } else { 0 }, policy.by[u]);
                        if m.ordered[u] != Some(inputs) {
                            m.order_calls += 1;
                        }
                        m.ordered[u] = Some(inputs);
                        let view = SchedView {
                            cycle: now,
                            warps: &[],
                            tbs: &[],
                            tbs_waiting_in_tb_scheduler: false,
                        };
                        st.order(unit, &mut policy, &view, *reads_longlat);
                        prop_assert_eq!(policy.calls, m.order_calls, "order() calls");
                        let mut order: Vec<usize> =
                            (0..SLOTS).filter(|&w| cands >> w & 1 != 0).collect();
                        let by = policy.by[u] % order.len().max(1);
                        order.rotate_left(by);
                        prop_assert_eq!(st.last_order(unit), &order[..]);

                        // The full re-probe: every fetched warp, in order.
                        let nexts: [Option<Next>; SLOTS] =
                            std::array::from_fn(|w| m.slots[w].held().map(|(_, next)| next));
                        let truth_of = |w: usize| nexts[w].and_then(Next::truth);
                        let fetched: Vec<usize> =
                            order.iter().copied().filter(|&w| m.fetched(w, now)).collect();
                        let want = fetched
                            .iter()
                            .copied()
                            .find(|&w| truth_of(w).is_some_and(|c| open[c]))
                            .ok_or(if fetched.is_empty() {
                                StallReason::Idle
                            } else if fetched.iter().all(|&w| truth_of(w).is_none()) {
                                StallReason::Scoreboard
                            } else {
                                StallReason::Pipeline
                            });
                        // The lazy walk: which untested warps it tests on the way.
                        for &w in &fetched {
                            let Slot::Live { verdict, next } = &mut m.slots[w] else { continue };
                            if *verdict == Verdict::None {
                                *verdict = next.verdict();
                                m.probes += 1;
                            }
                            if Ok(w) == want {
                                break;
                            }
                        }
                        let probe = |w: usize| {
                            let next = nexts[w].expect("only candidates are probed");
                            (next.instr(), !next.blocked)
                        };
                        let got = st.pick(unit, now, open, probe);
                        prop_assert_eq!(got, want, "pick at {} on unit {}", now, unit);
                        m.agrees_with(&st, now)?;
                        for w in 0..SLOTS {
                            let want = match m.slots[w] {
                                Slot::Live { .. } if !m.fetched(w, now) => Some(WarpIssue::Fetching),
                                Slot::Live { verdict: Verdict::None, .. } => Some(WarpIssue::Untested),
                                Slot::Live { verdict: Verdict::SbWait, .. } => Some(WarpIssue::SbWait),
                                Slot::Live { verdict: Verdict::Ready(c), .. } => Some(WarpIssue::Ready(c)),
                                _ => None,
                            };
                            prop_assert_eq!(st.state(w, now), want, "state of warp {} at {}", w, now);
                        }
                        // A failed pick leaves every fetched warp a verdict,
                        // which is its stall reason.
                        for w in (0..SLOTS).filter(|&w| got.is_err() && in_unit(w)) {
                            let reason = match m.slots[w] {
                                _ if !m.fetched(w, now) => StallReason::Idle,
                                Slot::Live { verdict: Verdict::SbWait, .. } => StallReason::Scoreboard,
                                Slot::Live { verdict: Verdict::Ready(_), .. } => StallReason::Pipeline,
                                s => return Err(CaseError::fail(format!("warp {w} untested: {s:?}"))),
                            };
                            prop_assert_eq!(st.stall_reason(w, now), reason, "warp {} at {}", w, now);
                        }

                        let Ok(w) = got else { continue };
                        st.issued(w, now + lat);
                        m.ibuf_at[w] = now + lat;
                        m.slots[w] = Slot::Live { verdict: Verdict::None, next };
                        match effect {
                            Effect::Plain => {}
                            Effect::Load => {
                                st.block_longlat(w);
                                m.longlat[w] = true;
                            }
                            // Both drain the warp's writes before they issue.
                            Effect::Bar | Effect::Exit if m.longlat[w] => {}
                            Effect::Bar => {
                                st.park(w);
                                m.slots[w] = Slot::Parked { verdict: Verdict::None, next };
                            }
                            Effect::Exit => {
                                st.exit(w);
                                m.slots[w] = Slot::Exited;
                                continue;
                            }
                        }
                        // The verdict on the next instruction, taken right
                        // after the issue unless it is due to reconverge.
                        if decide {
                            st.decide(w, next.instr(), &next.scoreboard(m.longlat[w]));
                            m.slots[w] = match m.slots[w] {
                                Slot::Live { .. } => Slot::Live { verdict: next.verdict(), next },
                                _ => Slot::Parked { verdict: next.verdict(), next },
                            };
                        }
                    }
                    Op::Unpark { w, lat } => {
                        let Slot::Parked { verdict, next } = m.slots[w] else { continue };
                        st.unpark(w, now + lat);
                        m.ibuf_at[w] = now + lat;
                        m.slots[w] = Slot::Live { verdict, next };
                    }
                    Op::Retire { w } if m.slots[w] == Slot::Exited => {
                        st.retire(w);
                        m.slots[w] = Slot::Empty;
                    }
                    Op::Rebuild => {
                        let (warps, sched) = m.restored();
                        st.rebuild(&warps, &sched);
                        for s in &mut m.slots {
                            if let Slot::Live { verdict, .. } | Slot::Parked { verdict, .. } = s {
                                *verdict = Verdict::None;
                            }
                        }
                        (m.ordered, m.probes) = ([None; UNITS as usize], 0);
                    }
                    Op::Launch { .. } | Op::Retire { .. } => continue,
                }
                m.agrees_with(&st, now)?;
            }
            Ok(())
        });
    }
}
