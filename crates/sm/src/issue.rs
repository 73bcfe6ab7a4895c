//! The per-warp issue state machine (DESIGN.md §15) and the walk over it.
//!
//! Every live warp of a scheduler unit is *fetching*, *untested*, waiting
//! on the scoreboard (*sb-wait*) or *ready* for one pipeline class.
//! [`IssueState`] owns that — candidate/eligible bitsets, the two memos,
//! the per-unit order caches — behind one mutator per event that moves a
//! warp, plus the two reads of an issue cycle: [`IssueState::order`] and
//! [`IssueState::pick`] (the mask-first walk, §16). It sees no warp: the SM
//! reports events by slot and lends `pick` a probe, so tests drive the
//! walk the simulator runs (`crates/sm/tests/oracle`).
//!
//! ```text
//!               now >= ibuf_at[w]          probe: scoreboard refuses
//!   fetching ───────────────────► untested ─────────────────────────► sb-wait
//!      ▲                              │                                  │
//!      │                              │ probe: meta.ready(scoreboard)    │ release_write
//!      │                              ▼                                  │ (a writeback or
//!      │  the warp's own issue   ready[class(pipe)]                      │  load completes)
//!      └──────────────────────────────┘◄── untested ◄────────────────────┘
//! ```
//!
//! *Fetching* and *untested* are not stored: they are the live warps in
//! neither memo, split by `now >= ibuf_at[w]`.
//!
//! All of it is *derived* state: rebuilt from the architectural state on
//! restore (`IssueState::rebuild`) and never serialized.

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

/// Where a live warp that is not parked at its TB's barrier stands in the
/// state machine of the module doc (`IssueState::state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpIssue {
    /// Its next instruction is still being fetched.
    Fetching,
    /// Fetched, and not probed since.
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

/// The issue path's state for the warp slots of one SM.
#[derive(Debug, Clone)]
pub struct IssueState {
    /// Static slot→unit membership: bit `w` of `unit_masks[u]` set iff
    /// `w % units == u`. Computed once at construction.
    unit_masks: Vec<u64>,
    /// Bit `w` set iff warp slot `w` is an issue candidate (launched and
    /// not finished). Per-unit candidate sets are `cands_mask &
    /// unit_masks[u]`.
    cands_mask: u64,
    /// Bit `w` set iff warp `w` is live, not parked at a barrier, and not
    /// finished — exactly the warps the issue walk would not silently skip.
    eligible_mask: u64,
    /// Per-slot mirror of [`Warp::ibuf_ready_at`] so the walk can skip
    /// still-fetching warps without loading the `Warp`.
    ibuf_at: Vec<u64>,
    /// Memoized "scoreboard said no" outcomes: bit `w` set when the walk
    /// reached warp `w`, fetched its instruction, and the scoreboard (or
    /// the Exit/Bar drain rule) refused it. The warp's pc, SIMT stack and
    /// scoreboard are frozen until a writeback releases registers —
    /// [`IssueState::release_write`] is the single unblock point and clears
    /// the bit — so skipping the warp (while still counting it as a valid
    /// instruction) is bit-identical to re-evaluating it.
    sb_wait_mask: u64,
    /// Memoized "scoreboard said yes" outcomes, one mask per ready class
    /// ([`class_of`]), set by the probe that found the warp ready and
    /// cleared only when that warp issues or its slot is launched, retired
    /// or reset. Invariant: bit `w` of `ready[c]` ⇒ warp `w` is live
    /// (candidate and eligible), fetched (`now >= ibuf_at[w]`), not in
    /// `sb_wait_mask`, reconverged, and its next instruction is ready
    /// against its scoreboard with class `c`. It stays true until the
    /// warp's own issue because pc, SIMT stack, `ibuf_at` and scoreboard
    /// reservations change only there (a barrier release re-fetches parked
    /// warps, which issued their `Bar` and so hold no bit), and a writeback
    /// only clears scoreboard bits, which cannot un-ready an instruction.
    /// So while the pipeline refuses a ready warp, re-probing it would find
    /// the same answer; [`IssueState::ready_memo_holds`] re-derives it in
    /// debug builds.
    ready: [u64; 3],
    /// Bit `w` set iff the warp's `blocked_on_longlat` flag is — the
    /// fingerprint consulted when a policy's `order()` reads blocked flags
    /// (`order_reads_longlat`, e.g. TL).
    longlat_mask: u64,
    /// Per-unit cached `order()` output plus the inputs it was computed
    /// under — candidates, blocked set, the policy's order version (`None`:
    /// nothing cached) — reused verbatim while all three are unchanged.
    order_bufs: Vec<Vec<usize>>,
    /// Per-unit candidate slice handed to `order()` (ascending slots),
    /// expanded from `cached_cands[u]` and refilled only when the unit's
    /// candidate set differs from it.
    cand_bufs: Vec<Vec<usize>>,
    cached_cands: Vec<u64>,
    cached_blocked: Vec<u64>,
    cached_version: Vec<Option<u64>>,
    /// Host-only counters (outside the determinism/checkpoint boundary,
    /// published as `host/issue/*`).
    prof: IssueProf,
}

impl IssueState {
    /// Empty state for `max_warps` slots dealt round-robin to `units`
    /// scheduler units; every buffer is allocated here.
    pub fn new(max_warps: usize, units: u32) -> Self {
        assert!(max_warps <= 64, "the incremental issue path packs warp slots into u64 bitsets");
        let units = units.max(1) as usize;
        let mut unit_masks = vec![0u64; units];
        for w in 0..max_warps {
            unit_masks[w % units] |= 1u64 << w;
        }
        IssueState {
            unit_masks,
            cands_mask: 0,
            eligible_mask: 0,
            ibuf_at: vec![0; max_warps],
            sb_wait_mask: 0,
            ready: [0; 3],
            longlat_mask: 0,
            order_bufs: (0..units).map(|_| Vec::with_capacity(max_warps)).collect(),
            cand_bufs: (0..units).map(|_| Vec::with_capacity(max_warps)).collect(),
            cached_cands: vec![0; units],
            cached_blocked: vec![0; units],
            cached_version: vec![None; units],
            prof: IssueProf::default(),
        }
    }

    /// A kernel is being bound to a quiescent SM: no warp anywhere, order
    /// caches invalid, counters at zero.
    pub(crate) fn reset(&mut self) {
        self.prof = IssueProf::default();
        self.cands_mask = 0;
        self.eligible_mask = 0;
        self.sb_wait_mask = 0;
        self.ready = [0; 3];
        self.longlat_mask = 0;
        self.ibuf_at.fill(0);
        self.cached_version.fill(None);
    }

    /// [`IssueState::reset`], then the candidate/eligible/blocked masks and
    /// the fetch mirror recomputed from restored warps and their flags. The
    /// memos and order caches restart empty — all are one-sided, so the
    /// first cycle after a restore recomputes exactly what the snapshotted
    /// engine held.
    pub(crate) fn rebuild(&mut self, warps: &[Warp], sched: &[WarpState]) {
        self.reset();
        [self.cands_mask, self.eligible_mask, self.longlat_mask] = masks_of(sched);
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
    /// `ibuf_at`. (→ *fetching*)
    pub fn launch(&mut self, w: usize, ibuf_at: u64) {
        let bit = 1u64 << w;
        self.forget(bit);
        self.cands_mask |= bit;
        self.eligible_mask |= bit;
        self.ibuf_at[w] = ibuf_at;
    }

    /// Warp `w` issued; its next instruction arrives at `ibuf_at`.
    /// (*ready* → *fetching*: the verdict was for the one that left.)
    pub fn issued(&mut self, w: usize, ibuf_at: u64) {
        self.clear_ready(1u64 << w);
        self.ibuf_at[w] = ibuf_at;
    }

    /// Warp `w`'s issue was a `Bar`: it is parked until [`IssueState::unpark`].
    pub(crate) fn park(&mut self, w: usize) {
        self.eligible_mask &= !(1u64 << w);
    }

    /// The barrier warp `w` was parked at released; it re-fetches until
    /// `ibuf_at`. (→ *fetching*)
    pub(crate) fn unpark(&mut self, w: usize, ibuf_at: u64) {
        self.eligible_mask |= 1u64 << w;
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
    /// leaving it blocked on a long-latency write or not (`longlat`): the
    /// single point where a stalled warp can become issuable again.
    /// (*sb-wait* → *untested*: it may wait for other registers still.)
    #[inline]
    pub fn release_write(&mut self, w: usize, longlat: bool) {
        let bit = 1u64 << w;
        self.sb_wait_mask &= !bit;
        if longlat {
            self.longlat_mask |= bit;
        } else {
            self.longlat_mask &= !bit;
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
        let u = unit as usize;
        let cands = self.cands_mask & self.unit_masks[u];
        let blocked = self.longlat_mask & self.unit_masks[u];
        let reuse = self.cached_cands[u] == cands
            && (!reads_longlat || self.cached_blocked[u] == blocked)
            && self.cached_version[u].is_some_and(|v| policy.order_version(unit) == Some(v));
        if reuse {
            self.prof.orders_reused += 1;
            return;
        }
        self.prof.orders_recomputed += 1;
        // Candidates: live, unfinished warps of this unit, ascending.
        if self.cached_cands[u] != cands {
            self.cand_bufs[u].clear();
            let mut m = cands;
            while m != 0 {
                self.cand_bufs[u].push(m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
        policy.order(unit, view, &self.cand_bufs[u], &mut self.order_bufs[u]);
        self.cached_cands[u] = cands;
        self.cached_blocked[u] = blocked;
        self.cached_version[u] = policy.order_version(unit);
    }

    /// `unit`'s order as [`IssueState::order`] left it, best first.
    pub fn last_order(&self, unit: u32) -> &[usize] {
        &self.order_bufs[unit as usize]
    }

    /// The warps of `unit` holding a fetched instruction at `now`, as a
    /// bitset: candidates, eligible, `ibuf_at` elapsed.
    pub(crate) fn fetched(&self, unit: u32, now: u64) -> u64 {
        let live = self.cands_mask & self.eligible_mask & self.unit_masks[unit as usize];
        self.fetched_among(live, now)
    }

    fn fetched_among(&self, mut m: u64, now: u64) -> u64 {
        let mut fetched = 0u64;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            if now >= self.ibuf_at[w] {
                fetched |= 1u64 << w;
            }
            m &= m - 1;
        }
        fetched
    }

    /// Choose the warp `unit` issues at `now`, or classify the stall.
    ///
    /// Mask-first: every live warp is still fetching, untested, in
    /// `sb_wait_mask` or in one `ready` mask; the last two hold verdicts
    /// nothing has changed since (see the field docs), so only untested
    /// warps are handed to `probe`, lazily and in priority order, and the
    /// first issuable one — ready, its class `open` this unit-cycle — is
    /// chosen without being probed. `probe(w)` tests warp `w`'s next
    /// instruction against its scoreboard: `None` if refused, else
    /// [`class_of`] its pipeline. When nothing is chosen every fetched warp
    /// holds a verdict, so the stall class falls out of the masks.
    #[inline]
    pub fn pick(
        &mut self,
        unit: u32,
        now: u64,
        open: [bool; 3],
        mut probe: impl FnMut(usize) -> Option<usize>,
    ) -> Result<usize, StallReason> {
        let u = unit as usize;
        let unit_mask = self.unit_masks[u];
        let live = self.cands_mask & self.eligible_mask & unit_mask;
        let stalled = live & self.sb_wait_mask;
        self.prof.mask_skips += stalled.count_ones() as u64;
        let (mut ready_any, mut issuable) = (0u64, 0u64);
        for (r, open) in self.ready.iter().zip(open) {
            ready_any |= r & unit_mask;
            if open {
                issuable |= r & unit_mask;
            }
        }
        let untested = self.fetched_among(live & !self.sb_wait_mask & !ready_any, now);

        // Valid instruction(s) exist iff some warp is fetched; with nothing
        // to probe or pick the order is not walked at all.
        let saw_valid = (stalled | ready_any | untested) != 0;
        let mut visit = untested | issuable;
        for i in 0..self.order_bufs[u].len() {
            if visit == 0 {
                break; // every fetched warp has a verdict, none can issue
            }
            let w = self.order_bufs[u][i];
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
            match probe(w) {
                // Operand hazards; Exit and barriers also drain the warp's
                // pipeline first (in-order completion).
                None => self.sb_wait_mask |= bit,
                // Structural hazards.
                Some(c) => {
                    self.ready[c] |= bit;
                    if open[c] {
                        return Ok(w);
                    }
                }
            }
        }
        Err(if !saw_valid {
            StallReason::Idle
        } else if self.ready.iter().all(|r| r & unit_mask == 0) {
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
    /// its probe was refused, Pipeline if it is ready for a closed pipeline.
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

    /// The invariant on the ready memo, re-derived: `verdict(w)` is what a
    /// probe of warp `w` would return if the warp is reconverged, `None`
    /// otherwise, without side effects. The debug-build check after each
    /// unit's issue.
    pub fn ready_memo_holds(&self, now: u64, verdict: impl Fn(usize) -> Option<usize>) -> bool {
        let [alu, sfu, mem] = self.ready;
        let any = alu | sfu | mem;
        let live = self.cands_mask & self.eligible_mask;
        let disjoint = alu & sfu == 0 && (alu | sfu) & mem == 0;
        disjoint
            && any & (self.sb_wait_mask | !live) == 0
            && (0..self.ibuf_at.len()).filter(|w| any >> w & 1 != 0).all(|w| {
                now >= self.ibuf_at[w] && verdict(w).is_some_and(|c| self.ready[c] >> w & 1 != 0)
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

    /// Read and reset access for the rigs that hold the memos to a
    /// from-scratch probe (here and in `sm/issue_phase.rs`).
    impl IssueState {
        /// The ready classes holding warp `w`, and whether a scoreboard
        /// refusal is memoized for it.
        pub(crate) fn memo_of(&self, w: usize) -> (Vec<usize>, bool) {
            let held = (0..3).filter(|&c| self.ready[c] >> w & 1 != 0).collect();
            (held, self.sb_wait_mask >> w & 1 != 0)
        }

        /// Empty the ready memo, so every ready warp is probed again.
        pub(crate) fn forget_ready(&mut self) {
            self.ready = [0; 3];
        }
    }

    const SLOTS: usize = 8;
    const UNITS: u32 = 2;

    /// What the walk remembers of a live warp's next instruction.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Verdict {
        /// Still fetching, or fetched and not yet probed.
        None,
        SbWait,
        Ready(usize),
    }

    /// One warp slot of the from-scratch model. `truth` is what a probe of
    /// the warp's next instruction answers: it is drawn at launch and at
    /// the warp's own issue, and a writeback can only turn a refusal into a
    /// yes.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Slot {
        Empty,
        Live { verdict: Verdict, truth: Option<usize> },
        Parked { truth: Option<usize> },
        Exited,
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
        Launch { w: usize, lat: u64, truth: Option<usize> },
        Elapse(u64),
        Writeback { w: usize, longlat: bool, truth: Option<usize> },
        /// Order (`rotate` set: the policy's rotation moves), pick, and issue
        /// the pick with `effect`; `truth` is for its next instruction.
        Pick {
            unit: u32,
            open: [bool; 3],
            rotate: Option<usize>,
            effect: Effect,
            lat: u64,
            truth: Option<usize>,
        },
        Unpark { w: usize, lat: u64 },
        Retire { w: usize },
        Rebuild,
    }

    fn op(g: &mut Gen) -> Op {
        let w = g.gen_range(0..SLOTS);
        let lat = g.gen_range(0..4u64);
        let truth = g.gen_bool(0.6).then(|| g.gen_range(0..3usize));
        match g.gen_range(0..16u32) {
            0..=2 => Op::Launch { w, lat, truth },
            3..=4 => Op::Elapse(g.gen_range(1..3u64)),
            5..=6 => Op::Writeback { w, longlat: g.gen_bool(0.3), truth },
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
                truth,
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

        /// Every mask of `st`, derived from the per-slot states.
        fn agrees_with(&self, st: &IssueState) -> CaseResult {
            let verdict = |want: Verdict| {
                self.mask(|_, s| matches!(s, Slot::Live { verdict, .. } if verdict == want))
            };
            let cands = self.mask(|_, s| matches!(s, Slot::Live { .. } | Slot::Parked { .. }));
            prop_assert_eq!(st.cands_mask, cands, "candidates");
            prop_assert_eq!(st.eligible_mask, self.mask(|_, s| matches!(s, Slot::Live { .. })));
            prop_assert_eq!(st.sb_wait_mask, verdict(Verdict::SbWait), "scoreboard-wait memo");
            for c in 0..3 {
                prop_assert_eq!(st.ready[c], verdict(Verdict::Ready(c)), "ready memo {}", c);
            }
            prop_assert_eq!(st.longlat_mask, self.mask(|w, _| self.longlat[w]), "blocked");
            prop_assert_eq!(&st.ibuf_at[..], &self.ibuf_at[..], "fetch mirror");
            prop_assert_eq!(st.prof.probes, self.probes, "probes");
            prop_assert!(st.ready_memo_holds(u64::MAX, |w| match self.slots[w] {
                Slot::Live { truth, .. } => truth,
                _ => None,
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
    /// the ones derived from a per-slot enum model that replays the lazy
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
                    Op::Launch { w, lat, truth } if m.slots[w] == Slot::Empty => {
                        st.launch(w, now + lat);
                        m.slots[w] = Slot::Live { verdict: Verdict::None, truth };
                        (m.ibuf_at[w], m.longlat[w]) = (now + lat, false);
                    }
                    Op::Elapse(d) => now += d,
                    Op::Writeback { w, longlat, truth: released } => {
                        // Only a warp with writes in flight sees one: live,
                        // and (a ready instruction staying ready) never
                        // left blocked by it.
                        let Slot::Live { verdict, truth } = m.slots[w] else { continue };
                        let longlat = longlat && truth.is_none();
                        st.release_write(w, longlat);
                        m.longlat[w] = longlat;
                        let verdict = if verdict == Verdict::SbWait { Verdict::None } else { verdict };
                        m.slots[w] = Slot::Live { verdict, truth: truth.or(released) };
                    }
                    Op::Pick { unit, open, rotate, effect, lat, truth: next } => {
                        let in_unit = |w: usize| w as u32 % UNITS == unit;
                        let u = unit as usize;
                        if let Some(by) = rotate {
                            policy.by[u] = by;
                        }
                        let cands = m.mask(|w, s| {
                            in_unit(w) && matches!(s, Slot::Live { .. } | Slot::Parked { .. })
                        });
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
                        let truths: [Option<usize>; SLOTS] =
                            std::array::from_fn(|w| match m.slots[w] {
                                Slot::Live { truth, .. } => truth,
                                _ => None,
                            });
                        let truth_of = |w: usize| truths[w];
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
                        // The lazy walk: which warps it tests on the way.
                        for &w in &fetched {
                            let Slot::Live { verdict, truth } = &mut m.slots[w] else { continue };
                            if *verdict == Verdict::None {
                                *verdict = truth.map_or(Verdict::SbWait, Verdict::Ready);
                                m.probes += 1;
                            }
                            if Ok(w) == want {
                                break;
                            }
                        }
                        let got = st.pick(unit, now, open, truth_of);
                        prop_assert_eq!(got, want, "pick at {} on unit {}", now, unit);
                        m.agrees_with(&st)?;
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
                        m.slots[w] = Slot::Live { verdict: Verdict::None, truth: next };
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
                                m.slots[w] = Slot::Parked { truth: next };
                            }
                            Effect::Exit => {
                                st.exit(w);
                                m.slots[w] = Slot::Exited;
                            }
                        }
                    }
                    Op::Unpark { w, lat } => {
                        let Slot::Parked { truth } = m.slots[w] else { continue };
                        st.unpark(w, now + lat);
                        m.ibuf_at[w] = now + lat;
                        m.slots[w] = Slot::Live { verdict: Verdict::None, truth };
                    }
                    Op::Retire { w } if m.slots[w] == Slot::Exited => {
                        st.retire(w);
                        m.slots[w] = Slot::Empty;
                    }
                    Op::Rebuild => {
                        let (warps, sched) = m.restored();
                        st.rebuild(&warps, &sched);
                        for s in &mut m.slots {
                            if let Slot::Live { verdict, .. } = s {
                                *verdict = Verdict::None;
                            }
                        }
                        (m.ordered, m.probes) = ([None; UNITS as usize], 0);
                    }
                    Op::Launch { .. } | Op::Retire { .. } => continue,
                }
                m.agrees_with(&st)?;
            }
            Ok(())
        });
    }
}
