//! PRO — the Progress-aware warp scheduler (the paper's Algorithm 1 and the
//! thread-block state machine of Fig. 3).
//!
//! ### Summary of the algorithm
//!
//! Kernel execution has two phases: **fastTBPhase** (TBs still waiting in
//! the GPU-level thread block scheduler) and **slowTBPhase** (the last TB
//! has been assigned). A TB is classified:
//!
//! * `noWait` — default (fast phase),
//! * `barrierWait` — ≥1 warp parked at a barrier,
//! * `finishWait` — ≥1 warp finished (fast phase only),
//! * `finishNoWait` — merger of `noWait` + `finishWait` at the fast→slow
//!   transition,
//! * `barrierWait1` — `barrierWait` during the slow phase (drains into
//!   `finishNoWait` when the barrier opens).
//!
//! Priorities, best first — fast: `finishWait` (H) > `barrierWait` (M) >
//! `noWait` (L); slow: `barrierWait1` > `finishNoWait`.
//!
//! * `finishWait` TBs: more warps finished first (tie: more progress);
//!   their warps by **ascending** progress (help stragglers finish).
//! * `barrierWait` TBs: more warps at the barrier first (tie: more
//!   progress); warps ascending (push laggards to the barrier).
//! * `noWait` TBs (fast): **descending** progress — SRTF-like, finish the
//!   most-progressed TB to free its slot sooner; warps descending.
//! * `finishNoWait` TBs (slow): **ascending** progress — no new TBs are
//!   coming, so help the laggards; warps ascending.
//!
//! `noWait`/`finishNoWait` TBs and their warps are re-sorted every
//! `THRESHOLD` (default 1000) cycles; the waiting classes re-sort on each
//! membership event, exactly as Algorithm 1 calls
//! `sortFinishWaitStateTBs`/`sortBarrierWaitStateTBs` from the insert
//! procedures.
//!
//! ### Fidelity note (pseudocode vs. prose)
//!
//! Algorithm 1 line 59 writes `sortTBs(remTBs, INC_ORDER)` in both phases,
//! but §III.C.1's prose (and the Table IV discussion) states that in
//! fastTBPhase `noWait` TBs are prioritized in *decreasing* order of
//! progress. We follow the prose; see DESIGN.md §4.

use crate::codec::{self, ensure, CodecError, Snapshot};
use crate::{slot_bit, slot_mask, IssueInfo, SchedView, TbSlot, WarpScheduler, WarpSlot};

/// Tunables and ablation switches for [`Pro`].
#[derive(Debug, Clone, Copy)]
pub struct ProConfig {
    /// Re-sort period for `noWait`/`finishNoWait` TBs (paper: 1000 cycles).
    pub threshold: u64,
    /// Enable the `barrierWait` special handling (§III.C.3). Disabling
    /// reproduces the paper's scalarProd diagnostic (PRO-NB).
    pub handle_barriers: bool,
    /// Enable the `finishWait` special handling (§III.C.2).
    pub handle_finish: bool,
    /// Enable the fast→slow phase transition (§III.D). When disabled the
    /// scheduler stays in fast-phase rules for the whole kernel.
    pub use_slow_phase: bool,
}

impl Default for ProConfig {
    fn default() -> Self {
        ProConfig {
            threshold: 1000,
            handle_barriers: true,
            handle_finish: true,
            use_slow_phase: true,
        }
    }
}

/// TB classification (Fig. 3). `BarrierWait1` is the slow-phase barrier
/// state; `Empty` marks an unoccupied slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TbClass {
    /// Slot unoccupied.
    Empty,
    /// Default fast-phase state.
    NoWait,
    /// ≥1 warp at a barrier (fast phase).
    BarrierWait,
    /// ≥1 warp finished (fast phase).
    FinishWait,
    /// ≥1 warp at a barrier (slow phase).
    BarrierWait1,
    /// Slow-phase merged state.
    FinishNoWait,
    /// All warps finished (terminal).
    Finished,
}

/// The PRO policy for one SM.
#[derive(Debug)]
pub struct Pro {
    cfg: ProConfig,
    name: &'static str,
    /// Warp slots on the SM: what a restored warp order may name.
    max_warps: usize,
    class: Vec<TbClass>,
    /// `finishWait` TBs, best first.
    fin_order: Vec<TbSlot>,
    /// `barrierWait`/`barrierWait1` TBs, best first.
    bar_order: Vec<TbSlot>,
    /// `noWait` (fast) or `finishNoWait` (slow) TBs, best first.
    rem_order: Vec<TbSlot>,
    /// Cached warp priority order per TB slot.
    warp_order: Vec<Vec<WarpSlot>>,
    /// Every ranked (live, unfinished) warp of the SM, best first — the
    /// inverse of a per-slot rank table, rebuilt at the `begin_cycle` after
    /// its inputs moved. A unit's order is this list filtered to its
    /// candidates.
    by_rank: Vec<WarpSlot>,
    last_sort_cycle: u64,
    in_slow_phase: bool,
    scratch: Vec<WarpSlot>,
    /// Set by every mutation of the rank inputs (the three priority lists,
    /// the cached warp orders, warp finished flags) — i.e. the event hooks,
    /// the THRESHOLD re-sort and the fast→slow transition — and cleared by
    /// the `begin_cycle` that rebuilds `by_rank`. `on_issue` is
    /// deliberately not one of them: progress changes sit unseen until the
    /// next re-sort, which is the paper's own staleness window.
    needs_rank_rebuild: bool,
    /// `by_rank` rebuilds so far: every unit's order version, since `order()`
    /// reads nothing else but the candidates.
    rank_builds: u64,
}

crate::snapshot_enum! {
    TbClass, "TbClass tag" {
        0 => Empty,
        1 => NoWait,
        2 => BarrierWait,
        3 => FinishWait,
        4 => BarrierWait1,
        5 => FinishNoWait,
        6 => Finished,
    }
}

/// Warp-sort directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Least progress first.
    Asc,
    /// Most progress first.
    Desc,
}

impl Pro {
    /// Build for an SM with `max_warps` warp slots and `max_tbs` TB slots.
    pub fn new(max_warps: usize, max_tbs: usize, cfg: ProConfig) -> Self {
        let name = match (cfg.handle_barriers, cfg.handle_finish, cfg.use_slow_phase) {
            (true, true, true) => "PRO",
            (false, true, true) => "PRO-NB",
            (true, false, true) => "PRO-NF",
            (true, true, false) => "PRO-NS",
            _ => "PRO-custom",
        };
        Pro {
            cfg,
            name,
            max_warps,
            class: vec![TbClass::Empty; max_tbs],
            fin_order: Vec::with_capacity(max_tbs),
            bar_order: Vec::with_capacity(max_tbs),
            rem_order: Vec::with_capacity(max_tbs),
            warp_order: vec![Vec::new(); max_tbs],
            by_rank: Vec::with_capacity(max_warps),
            last_sort_cycle: 0,
            in_slow_phase: false,
            scratch: Vec::with_capacity(max_warps),
            needs_rank_rebuild: true,
            rank_builds: 0,
        }
    }

    /// Current classification of a TB slot (test observability).
    pub fn tb_class(&self, tb: TbSlot) -> TbClass {
        self.class[tb]
    }

    fn sort_warps_of(&mut self, tb: TbSlot, dir: Dir, view: &SchedView) {
        let order = &mut self.warp_order[tb];
        // Stable sort on a snapshot of current progress; ties keep warp
        // index order (ascending by construction at launch).
        match dir {
            Dir::Asc => order.sort_by_key(|&w| view.warps[w].progress),
            Dir::Desc => order.sort_by_key(|&w| std::cmp::Reverse(view.warps[w].progress)),
        }
    }

    /// `sortFinishWaitStateTBs`: desc #finished, tie desc progress, tie
    /// global index.
    fn sort_fin_order(&mut self, view: &SchedView) {
        self.fin_order.sort_by_key(|&t| {
            let tb = &view.tbs[t];
            (
                std::cmp::Reverse(tb.warps_finished),
                std::cmp::Reverse(tb.progress),
                tb.global_index,
            )
        });
    }

    /// `sortBarrierWaitStateTBs`: desc #at-barrier, tie desc progress, tie
    /// global index.
    fn sort_bar_order(&mut self, view: &SchedView) {
        self.bar_order.sort_by_key(|&t| {
            let tb = &view.tbs[t];
            (
                std::cmp::Reverse(tb.warps_at_barrier),
                std::cmp::Reverse(tb.progress),
                tb.global_index,
            )
        });
    }

    /// `sortTBs` over the remaining (noWait/finishNoWait) TBs, per phase.
    fn sort_rem_order(&mut self, view: &SchedView) {
        if self.in_slow_phase {
            self.rem_order.sort_by_key(|&t| {
                let tb = &view.tbs[t];
                (tb.progress, tb.global_index)
            });
        } else {
            self.rem_order.sort_by_key(|&t| {
                let tb = &view.tbs[t];
                (std::cmp::Reverse(tb.progress), tb.global_index)
            });
        }
    }

    fn rem_dir(&self) -> Dir {
        if self.in_slow_phase {
            Dir::Asc
        } else {
            Dir::Desc
        }
    }

    fn remove_everywhere(&mut self, tb: TbSlot) {
        self.fin_order.retain(|&t| t != tb);
        self.bar_order.retain(|&t| t != tb);
        self.rem_order.retain(|&t| t != tb);
    }

    /// Insert `tb` into `rem_order` at the position its *current* key
    /// deserves, without disturbing the (possibly stale) relative order of
    /// the existing members.
    fn insert_rem(&mut self, tb: TbSlot, view: &SchedView) {
        debug_assert!(!self.rem_order.contains(&tb));
        let better = |a: TbSlot, b: TbSlot| -> bool {
            let (ta, tbv) = (&view.tbs[a], &view.tbs[b]);
            if self.in_slow_phase {
                (ta.progress, ta.global_index) < (tbv.progress, tbv.global_index)
            } else {
                (std::cmp::Reverse(ta.progress), ta.global_index)
                    < (std::cmp::Reverse(tbv.progress), tbv.global_index)
            }
        };
        let pos = self
            .rem_order
            .iter()
            .position(|&t| better(tb, t))
            .unwrap_or(self.rem_order.len());
        self.rem_order.insert(pos, tb);
    }

    /// The fast→slow transition (Algorithm 1, `scheduleWarps` lines 36-40).
    fn transition_to_slow(&mut self, view: &SchedView) {
        self.needs_rank_rebuild = true;
        self.in_slow_phase = true;
        // mergeFinishAndNoWaitTBs: finishWait and noWait → finishNoWait.
        for t in 0..self.class.len() {
            match self.class[t] {
                TbClass::NoWait | TbClass::FinishWait => {
                    self.class[t] = TbClass::FinishNoWait;
                    if !self.rem_order.contains(&t) {
                        self.rem_order.push(t);
                    }
                }
                TbClass::BarrierWait => {
                    self.class[t] = TbClass::BarrierWait1;
                }
                _ => {}
            }
        }
        self.fin_order.clear();
        // finishNoWait TBs sorted ascending; warps ascending.
        self.sort_rem_order(view);
        for i in 0..self.rem_order.len() {
            let t = self.rem_order[i];
            self.sort_warps_of(t, Dir::Asc, view);
        }
        self.last_sort_cycle = view.cycle;
    }

    /// The ranked warps, best first (test observability: the oracle order
    /// is the candidates sorted by position in this list, unranked last).
    pub fn rank_order(&self) -> &[WarpSlot] {
        &self.by_rank
    }

    fn rebuild_ranks(&mut self, view: &SchedView) {
        self.rank_builds += 1;
        self.by_rank.clear();
        for list in [&self.fin_order, &self.bar_order, &self.rem_order] {
            for &t in list.iter() {
                for &w in &self.warp_order[t] {
                    if !view.warps[w].finished {
                        self.by_rank.push(w);
                    }
                }
            }
        }
    }
}

impl WarpScheduler for Pro {
    fn name(&self) -> &'static str {
        self.name
    }

    fn begin_cycle(&mut self, view: &SchedView) {
        // fastToSlowTBPhaseTransition()
        if self.cfg.use_slow_phase
            && !self.in_slow_phase
            && !view.tbs_waiting_in_tb_scheduler
        {
            self.transition_to_slow(view);
        }
        // Periodic re-sort of the remaining TBs and their warps.
        if view.cycle.saturating_sub(self.last_sort_cycle) >= self.cfg.threshold {
            self.needs_rank_rebuild = true;
            self.last_sort_cycle = view.cycle;
            self.sort_rem_order(view);
            let dir = self.rem_dir();
            for i in 0..self.rem_order.len() {
                let t = self.rem_order[i];
                self.sort_warps_of(t, dir, view);
            }
        }
        // The rank table is a pure function of the priority lists, the
        // cached warp orders and the finished flags — all of which only
        // move through paths that queue a rebuild. Any other cycle keeps
        // last cycle's table (and the engine keeps last cycle's order),
        // which removes PRO's whole per-cycle O(W) walk.
        if self.needs_rank_rebuild {
            self.rebuild_ranks(view);
            self.needs_rank_rebuild = false;
        }
    }

    fn order(
        &mut self,
        _unit: u32,
        _view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        out.clear();
        // Ranked candidates in rank order, then the unranked ones (a warp
        // launched or relaunched since the last rebuild) by ascending slot.
        let mut left = slot_mask(candidates);
        for &w in &self.by_rank {
            if left & slot_bit(w) != 0 {
                left &= !slot_bit(w);
                out.push(w);
            }
        }
        while left != 0 {
            out.push(left.trailing_zeros() as WarpSlot);
            left &= left - 1;
        }
    }

    /// An event between sibling units only queues a rebuild, so the table
    /// — and this version — hold until the next `begin_cycle`, as in the
    /// eager implementation.
    fn order_version(&self, _unit: u32) -> Option<u64> {
        Some(self.rank_builds)
    }

    fn on_issue(&mut self, _unit: u32, _slot: WarpSlot, _info: IssueInfo, _view: &SchedView) {
        // Progress accounting lives in the SM-maintained view; nothing to do.
    }

    fn on_barrier_arrive(&mut self, _slot: WarpSlot, tb: TbSlot, view: &SchedView) {
        if !self.cfg.handle_barriers {
            // PRO-NB: barrier traffic is invisible — no state touched, so
            // the cached orders stay valid.
            return;
        }
        self.needs_rank_rebuild = true;
        // insertBarrierWarp (the SM has already incremented warps_at_barrier).
        if view.tbs[tb].warps_at_barrier == 1 {
            let entering = match self.class[tb] {
                TbClass::NoWait => Some(TbClass::BarrierWait),
                TbClass::FinishNoWait => Some(TbClass::BarrierWait1),
                // A finishWait TB keeps its (higher) class; barrier counts
                // still influence nothing until it returns to noWait.
                _ => None,
            };
            if let Some(c) = entering {
                self.remove_everywhere(tb);
                self.class[tb] = c;
                self.bar_order.push(tb);
                self.sort_warps_of(tb, Dir::Asc, view);
            }
        }
        self.sort_bar_order(view);
    }

    fn on_barrier_release(&mut self, tb: TbSlot, view: &SchedView) {
        if !self.cfg.handle_barriers {
            return;
        }
        self.needs_rank_rebuild = true;
        match self.class[tb] {
            TbClass::BarrierWait => {
                self.bar_order.retain(|&t| t != tb);
                // fastTBPhase check at release time (Algorithm 1 line 24-30).
                if self.cfg.use_slow_phase && self.in_slow_phase {
                    self.class[tb] = TbClass::FinishNoWait;
                    self.sort_warps_of(tb, Dir::Asc, view);
                } else {
                    self.class[tb] = TbClass::NoWait;
                    self.sort_warps_of(tb, Dir::Desc, view);
                }
                self.insert_rem(tb, view);
            }
            TbClass::BarrierWait1 => {
                self.bar_order.retain(|&t| t != tb);
                self.class[tb] = TbClass::FinishNoWait;
                self.sort_warps_of(tb, Dir::Asc, view);
                self.insert_rem(tb, view);
            }
            _ => {}
        }
        self.sort_bar_order(view);
    }

    fn on_warp_finish(&mut self, _slot: WarpSlot, tb: TbSlot, view: &SchedView) {
        // Unconditional even under the ablations: `rebuild_ranks` skips
        // finished warps, so any finish shifts every later warp's rank.
        self.needs_rank_rebuild = true;
        // insertFinishWarp (the SM has already incremented warps_finished).
        let tbs = &view.tbs[tb];
        if tbs.warps_finished == tbs.num_warps {
            // setTBFinished — slot drains; on_tb_finish clears it.
            self.class[tb] = TbClass::Finished;
            self.remove_everywhere(tb);
            return;
        }
        if !self.cfg.handle_finish {
            return;
        }
        if tbs.warps_finished == 1 {
            // fastTBPhase ← TBsWaitingInThrdBlkSched(); only promote in the
            // fast phase.
            let fast = !self.cfg.use_slow_phase || !self.in_slow_phase;
            if fast && self.class[tb] == TbClass::NoWait {
                self.remove_everywhere(tb);
                self.class[tb] = TbClass::FinishWait;
                self.fin_order.push(tb);
            }
            self.sort_warps_of(tb, Dir::Asc, view);
        }
        self.sort_fin_order(view);
    }

    fn on_tb_launch(&mut self, tb: TbSlot, view: &SchedView) {
        self.needs_rank_rebuild = true;
        self.class[tb] = if self.cfg.use_slow_phase && self.in_slow_phase {
            TbClass::FinishNoWait
        } else {
            TbClass::NoWait
        };
        // Collect the TB's warp slots in index order.
        self.warp_order[tb].clear();
        self.scratch.clear();
        for (w, ws) in view.warps.iter().enumerate() {
            if ws.active && ws.tb_slot == tb {
                self.scratch.push(w);
            }
        }
        self.scratch.sort_by_key(|&w| view.warps[w].index_in_tb);
        self.warp_order[tb].extend_from_slice(&self.scratch);
        self.insert_rem(tb, view);
    }

    fn on_tb_finish(&mut self, tb: TbSlot, _view: &SchedView) {
        self.needs_rank_rebuild = true;
        self.class[tb] = TbClass::Empty;
        self.remove_everywhere(tb);
        self.warp_order[tb].clear();
    }

    fn tb_priority_trace(&self, view: &SchedView) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        for list in [&self.fin_order, &self.bar_order, &self.rem_order] {
            for &t in list.iter() {
                out.push(view.tbs[t].global_index);
            }
        }
        Some(out)
    }

    // `by_rank` and `scratch` are cycle-scoped scratch (rebuilt by the next
    // `begin_cycle`), so the snapshot carries only the durable state: the
    // classification, the three priority lists, the cached warp orders and
    // the phase/sort clocks.
    fn save_state(&self, w: &mut codec::Writer) {
        self.class.save(w);
        self.fin_order.save(w);
        self.bar_order.save(w);
        self.rem_order.save(w);
        self.warp_order.save(w);
        w.put_u64(self.last_sort_cycle);
        w.put_bool(self.in_slow_phase);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), CodecError> {
        let max_tbs = self.class.len();
        self.class = Snapshot::load(r)?;
        ensure(self.class.len() == max_tbs, "PRO TB slot count")?;
        self.fin_order = Snapshot::load(r)?;
        self.bar_order = Snapshot::load(r)?;
        self.rem_order = Snapshot::load(r)?;
        // The lists index `class`, `warp_order` and the view's TB table, and
        // the hooks keep a TB on at most one of them.
        let mut listed = vec![false; max_tbs];
        for &t in self.fin_order.iter().chain(&self.bar_order).chain(&self.rem_order) {
            ensure(t < max_tbs && !std::mem::replace(&mut listed[t], true), "PRO TB slot")?;
        }
        self.warp_order = Snapshot::load(r)?;
        ensure(self.warp_order.len() == max_tbs, "PRO warp_order length")?;
        let max_warps = self.max_warps;
        ensure(self.warp_order.iter().flatten().all(|&w| w < max_warps), "PRO warp slot")?;
        self.last_sort_cycle = r.get_u64()?;
        self.in_slow_phase = r.get_bool()?;
        // `by_rank` was not serialized (it is derived state): the first
        // `begin_cycle` rebuilds it from the restored lists.
        self.needs_rank_rebuild = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ViewFixture;
    use crate::WarpScheduler;

    /// Launch all TBs of the fixture into the policy.
    fn launch_all(p: &mut Pro, f: &ViewFixture) {
        for t in 0..f.tbs.len() {
            p.on_tb_launch(t, &f.view());
        }
    }

    fn ordered(p: &mut Pro, f: &ViewFixture) -> Vec<WarpSlot> {
        let mut out = Vec::new();
        p.begin_cycle(&f.view());
        let all = f.all_slots();
        p.order(0, &f.view(), &all, &mut out);
        out
    }

    #[test]
    fn launch_classifies_nowait() {
        let f = ViewFixture::grid(3, 2);
        let mut p = Pro::new(6, 3, ProConfig::default());
        launch_all(&mut p, &f);
        for t in 0..3 {
            assert_eq!(p.tb_class(t), TbClass::NoWait);
        }
    }

    #[test]
    fn fast_phase_nowait_tbs_rank_by_descending_progress() {
        let mut f = ViewFixture::grid(3, 2);
        let mut p = Pro::new(6, 3, ProConfig::default());
        launch_all(&mut p, &f);
        f.tbs[0].progress = 10;
        f.tbs[1].progress = 30;
        f.tbs[2].progress = 20;
        f.cycle = 1000; // trigger THRESHOLD re-sort
        let out = ordered(&mut p, &f);
        // TB1's warps (2,3) first, then TB2 (4,5), then TB0 (0,1).
        assert_eq!(out, vec![2, 3, 4, 5, 0, 1]);
    }

    #[test]
    fn fast_phase_warps_within_nowait_tb_rank_by_descending_progress() {
        let mut f = ViewFixture::grid(1, 4);
        let mut p = Pro::new(4, 1, ProConfig::default());
        launch_all(&mut p, &f);
        f.warps[0].progress = 5;
        f.warps[1].progress = 20;
        f.warps[2].progress = 10;
        f.warps[3].progress = 1;
        f.cycle = 1000;
        let out = ordered(&mut p, &f);
        assert_eq!(out, vec![1, 2, 0, 3]);
    }

    #[test]
    fn nowait_order_is_stale_between_thresholds() {
        let mut f = ViewFixture::grid(2, 1);
        let mut p = Pro::new(2, 2, ProConfig::default());
        launch_all(&mut p, &f);
        f.tbs[0].progress = 10;
        f.tbs[1].progress = 30;
        f.cycle = 1000;
        assert_eq!(ordered(&mut p, &f), vec![1, 0]);
        // Progress flips, but before the next threshold the order persists.
        f.tbs[0].progress = 100;
        f.cycle = 1500;
        assert_eq!(ordered(&mut p, &f), vec![1, 0], "order is a snapshot");
        f.cycle = 2000;
        assert_eq!(ordered(&mut p, &f), vec![0, 1], "re-sorted at threshold");
    }

    #[test]
    fn barrier_arrival_promotes_tb_to_medium_band() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = Pro::new(4, 2, ProConfig::default());
        launch_all(&mut p, &f);
        // TB0 has much more progress — would lead noWait.
        f.tbs[0].progress = 100;
        f.cycle = 1000;
        assert_eq!(ordered(&mut p, &f)[0], 0);
        // Now a warp of TB1 reaches the barrier.
        f.warps[3].at_barrier = true;
        f.tbs[1].warps_at_barrier = 1;
        p.on_barrier_arrive(3, 1, &f.view());
        assert_eq!(p.tb_class(1), TbClass::BarrierWait);
        let out = ordered(&mut p, &f);
        // TB1's warps now outrank TB0's despite less progress. Within TB1,
        // ascending progress: warp2 (progress 0) before warp3.
        assert_eq!(out[0], 2);
        assert!(out.iter().position(|&w| w == 2).unwrap() < out.iter().position(|&w| w == 0).unwrap());
    }

    #[test]
    fn barrier_wait_warps_rank_ascending_progress() {
        let mut f = ViewFixture::grid(1, 4);
        let mut p = Pro::new(4, 1, ProConfig::default());
        launch_all(&mut p, &f);
        f.warps[0].progress = 40;
        f.warps[1].progress = 10;
        f.warps[2].progress = 30;
        f.warps[3].progress = 20;
        f.warps[0].at_barrier = true;
        f.tbs[0].warps_at_barrier = 1;
        p.on_barrier_arrive(0, 0, &f.view());
        let out = ordered(&mut p, &f);
        // Ascending progress: w1(10), w3(20), w2(30), w0(40).
        assert_eq!(out, vec![1, 3, 2, 0]);
    }

    #[test]
    fn multiple_barrier_tbs_rank_by_warps_at_barrier() {
        let mut f = ViewFixture::grid(2, 3);
        let mut p = Pro::new(6, 2, ProConfig::default());
        launch_all(&mut p, &f);
        // TB0: one warp at barrier; TB1: two warps.
        f.tbs[0].warps_at_barrier = 1;
        p.on_barrier_arrive(0, 0, &f.view());
        f.tbs[1].warps_at_barrier = 1;
        p.on_barrier_arrive(3, 1, &f.view());
        f.tbs[1].warps_at_barrier = 2;
        p.on_barrier_arrive(4, 1, &f.view());
        let trace = p.tb_priority_trace(&f.view()).unwrap();
        assert_eq!(trace[0], 1, "TB with more warps at barrier leads");
        assert_eq!(trace[1], 0);
    }

    #[test]
    fn barrier_release_returns_to_nowait_in_fast_phase() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = Pro::new(4, 2, ProConfig::default());
        launch_all(&mut p, &f);
        f.tbs[0].warps_at_barrier = 1;
        p.on_barrier_arrive(0, 0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::BarrierWait);
        f.tbs[0].warps_at_barrier = 0;
        p.on_barrier_release(0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::NoWait);
    }

    #[test]
    fn finish_wait_outranks_barrier_wait() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = Pro::new(4, 2, ProConfig::default());
        launch_all(&mut p, &f);
        // TB0 → barrierWait, TB1 → finishWait.
        f.tbs[0].warps_at_barrier = 1;
        p.on_barrier_arrive(0, 0, &f.view());
        f.warps[3].finished = true;
        f.tbs[1].warps_finished = 1;
        p.on_warp_finish(3, 1, &f.view());
        assert_eq!(p.tb_class(1), TbClass::FinishWait);
        let trace = p.tb_priority_trace(&f.view()).unwrap();
        assert_eq!(trace[0], 1, "finishWait band precedes barrierWait band");
        // Finished warps are excluded from the issue order.
        let out = ordered(&mut p, &f);
        assert!(!out.contains(&3) || !f.warps[3].finished);
        assert_eq!(out[0], 2, "TB1's unfinished warp leads");
    }

    #[test]
    fn finish_wait_warps_rank_ascending_progress() {
        let mut f = ViewFixture::grid(1, 4);
        let mut p = Pro::new(4, 1, ProConfig::default());
        launch_all(&mut p, &f);
        f.warps[1].progress = 50;
        f.warps[2].progress = 10;
        f.warps[3].progress = 30;
        f.warps[0].finished = true;
        f.tbs[0].warps_finished = 1;
        p.on_warp_finish(0, 0, &f.view());
        let out = ordered(&mut p, &f);
        assert_eq!(out, vec![2, 3, 1], "least progress first, finished warp gone");
    }

    #[test]
    fn multiple_finish_tbs_rank_by_warps_finished_then_progress() {
        let mut f = ViewFixture::grid(3, 3);
        let mut p = Pro::new(9, 3, ProConfig::default());
        launch_all(&mut p, &f);
        // TB0: 1 finished; TB1: 2 finished; TB2: 1 finished, more progress.
        f.tbs[0].warps_finished = 1;
        f.tbs[0].progress = 5;
        p.on_warp_finish(0, 0, &f.view());
        f.tbs[1].warps_finished = 1;
        p.on_warp_finish(3, 1, &f.view());
        f.tbs[1].warps_finished = 2;
        p.on_warp_finish(4, 1, &f.view());
        f.tbs[2].warps_finished = 1;
        f.tbs[2].progress = 50;
        p.on_warp_finish(6, 2, &f.view());
        let trace = p.tb_priority_trace(&f.view()).unwrap();
        assert_eq!(&trace[..3], &[1, 2, 0], "more finished first, then progress");
    }

    #[test]
    fn transition_to_slow_merges_and_flips_order() {
        let mut f = ViewFixture::grid(3, 1);
        let mut p = Pro::new(3, 3, ProConfig::default());
        launch_all(&mut p, &f);
        f.tbs[0].progress = 10;
        f.tbs[1].progress = 30;
        f.tbs[2].progress = 20;
        // finishWait TB in fast phase:
        f.tbs[1].warps_finished = 0; // not actually finishing warps: craft FinishWait via event
        f.cycle = 1000;
        let _ = ordered(&mut p, &f);
        assert!(!p.in_slow_phase);
        // Last TB assigned → slow phase.
        f.fast_phase = false;
        f.cycle = 1001;
        let out = ordered(&mut p, &f);
        assert!(p.in_slow_phase);
        for t in 0..3 {
            assert_eq!(p.tb_class(t), TbClass::FinishNoWait);
        }
        // Ascending progress now: TB0(10), TB2(20), TB1(30).
        assert_eq!(out, vec![0, 2, 1]);
    }

    #[test]
    fn slow_phase_finish_wait_tbs_merge_and_lose_priority() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = Pro::new(4, 2, ProConfig::default());
        launch_all(&mut p, &f);
        // TB0 gets a finished warp in fast phase → finishWait (H).
        f.warps[0].finished = true;
        f.tbs[0].warps_finished = 1;
        f.tbs[0].progress = 100;
        p.on_warp_finish(0, 0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::FinishWait);
        // Transition: merged; highest progress now means LOWEST priority.
        f.fast_phase = false;
        f.cycle = 1;
        let out = ordered(&mut p, &f);
        assert_eq!(p.tb_class(0), TbClass::FinishNoWait);
        assert_eq!(out[0], 2, "low-progress TB1 leads in slow phase");
        assert_eq!(out, vec![2, 3, 1]);
    }

    #[test]
    fn barrier_wait_becomes_barrier_wait1_in_slow_phase() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = Pro::new(4, 2, ProConfig::default());
        launch_all(&mut p, &f);
        f.tbs[0].warps_at_barrier = 1;
        p.on_barrier_arrive(0, 0, &f.view());
        f.fast_phase = false;
        f.cycle = 1;
        let _ = ordered(&mut p, &f);
        assert_eq!(p.tb_class(0), TbClass::BarrierWait1);
        // Release → finishNoWait, not noWait.
        f.tbs[0].warps_at_barrier = 0;
        p.on_barrier_release(0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::FinishNoWait);
    }

    #[test]
    fn slow_phase_barrier_tbs_outrank_finish_no_wait() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = Pro::new(4, 2, ProConfig::default());
        launch_all(&mut p, &f);
        f.fast_phase = false;
        f.cycle = 1;
        let _ = ordered(&mut p, &f);
        // TB1 hits a barrier in slow phase.
        f.tbs[1].warps_at_barrier = 1;
        p.on_barrier_arrive(2, 1, &f.view());
        assert_eq!(p.tb_class(1), TbClass::BarrierWait1);
        let trace = p.tb_priority_trace(&f.view()).unwrap();
        assert_eq!(trace[0], 1);
    }

    #[test]
    fn tb_finish_frees_slot_and_relaunch_works() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = Pro::new(4, 2, ProConfig::default());
        launch_all(&mut p, &f);
        // Finish both warps of TB0.
        f.tbs[0].warps_finished = 1;
        p.on_warp_finish(0, 0, &f.view());
        f.tbs[0].warps_finished = 2;
        p.on_warp_finish(1, 0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::Finished);
        p.on_tb_finish(0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::Empty);
        // Relaunch a new TB into slot 0.
        f.tbs[0].global_index = 7;
        f.tbs[0].warps_finished = 0;
        f.warps[0].finished = false;
        f.warps[1].finished = false;
        p.on_tb_launch(0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::NoWait);
        let trace = p.tb_priority_trace(&f.view()).unwrap();
        assert!(trace.contains(&7));
    }

    #[test]
    fn ablation_no_barrier_keeps_tb_in_nowait() {
        let mut f = ViewFixture::grid(2, 2);
        let cfg = ProConfig {
            handle_barriers: false,
            ..ProConfig::default()
        };
        let mut p = Pro::new(4, 2, cfg);
        launch_all(&mut p, &f);
        f.tbs[0].warps_at_barrier = 1;
        p.on_barrier_arrive(0, 0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::NoWait);
    }

    #[test]
    fn ablation_no_finish_keeps_tb_in_nowait() {
        let mut f = ViewFixture::grid(2, 2);
        let cfg = ProConfig {
            handle_finish: false,
            ..ProConfig::default()
        };
        let mut p = Pro::new(4, 2, cfg);
        launch_all(&mut p, &f);
        f.warps[0].finished = true;
        f.tbs[0].warps_finished = 1;
        p.on_warp_finish(0, 0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::NoWait);
        // But full-TB completion still terminates.
        f.warps[1].finished = true;
        f.tbs[0].warps_finished = 2;
        p.on_warp_finish(1, 0, &f.view());
        assert_eq!(p.tb_class(0), TbClass::Finished);
    }

    #[test]
    fn ablation_no_slow_phase_keeps_descending_order() {
        let mut f = ViewFixture::grid(2, 1);
        let cfg = ProConfig {
            use_slow_phase: false,
            ..ProConfig::default()
        };
        let mut p = Pro::new(2, 2, cfg);
        launch_all(&mut p, &f);
        f.tbs[0].progress = 10;
        f.tbs[1].progress = 30;
        f.fast_phase = false;
        f.cycle = 1000;
        let out = ordered(&mut p, &f);
        assert!(!p.in_slow_phase);
        assert_eq!(out, vec![1, 0], "still SRTF-style descending");
    }

    #[test]
    fn order_is_always_a_permutation_of_candidates() {
        let mut f = ViewFixture::grid(3, 2);
        let mut p = Pro::new(6, 3, ProConfig::default());
        launch_all(&mut p, &f);
        f.tbs[1].warps_at_barrier = 1;
        p.on_barrier_arrive(2, 1, &f.view());
        p.begin_cycle(&f.view());
        let cands = vec![1, 3, 5];
        let mut out = Vec::new();
        p.order(0, &f.view(), &cands, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, cands);
    }

    #[test]
    fn trace_lists_all_live_tbs_best_first() {
        let mut f = ViewFixture::grid(3, 1);
        let mut p = Pro::new(3, 3, ProConfig::default());
        launch_all(&mut p, &f);
        f.tbs[0].progress = 1;
        f.tbs[1].progress = 3;
        f.tbs[2].progress = 2;
        f.cycle = 1000;
        let _ = ordered(&mut p, &f);
        let trace = p.tb_priority_trace(&f.view()).unwrap();
        assert_eq!(trace, vec![1, 2, 0]);
    }
}
