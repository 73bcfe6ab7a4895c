//! Two-Level (TL) warp scheduling — Narasiman et al., MICRO-2011, as
//! implemented by GPGPU-Sim's `two_level_active` scheduler; the paper's
//! second baseline (PRO's geomean gain over it is a row of
//! `pro_bench::paper::CLAIMS`).
//!
//! Warps are split into a bounded **active set** and a **pending queue**.
//! Only active warps are considered for issue, round-robin. When an active
//! warp blocks on a long-latency operation (an outstanding global load), it
//! is demoted to the pending queue and the oldest pending warp that is not
//! itself blocked is promoted. The staggering of group execution makes
//! groups reach long-latency instructions at different times — the effect
//! PRO generalizes with per-TB/per-warp progress priorities.

use crate::codec::{self, ensure, Snapshot};
use crate::{slot_bit, slot_mask, IssueInfo, SchedView, WarpScheduler, WarpSlot};
use std::collections::VecDeque;

#[derive(Debug, Default)]
struct UnitState {
    active: Vec<WarpSlot>,
    pending: VecDeque<WarpSlot>,
    last_issued: Option<WarpSlot>,
    /// Membership bitsets of `active` and `pending`: derived, so a
    /// rebalance tests membership in O(1) and skips the passes that have
    /// nothing to do. Never serialized; a restore rebuilds them.
    active_mask: u64,
    pending_mask: u64,
    /// Events that moved this unit's queues or round-robin start since it
    /// was built: an issue of its own, any warp finishing. Neither this nor
    /// `settled` is serialized: a restore drops every cached order, and the
    /// first `order()` after it sets `settled`.
    events: u64,
    /// The last rebalance reached a fixpoint: no active warp blocked and no
    /// free active slot a pending warp could take, so with unchanged
    /// candidates and blocked flags the next one moves nothing. False in
    /// the degenerate everything-blocked case, whose rebalance rotates
    /// blocked warps through the active set on every call.
    settled: bool,
}

impl UnitState {
    /// Append `w` to the active set (the caller took it off the pending
    /// queue).
    fn push_active(&mut self, w: WarpSlot) {
        self.active.push(w);
        self.pending_mask &= !slot_bit(w);
        self.active_mask |= slot_bit(w);
    }

    /// Append `w` to the pending queue (the caller took it off the active
    /// set, or it is new).
    fn push_pending(&mut self, w: WarpSlot) {
        self.pending.push_back(w);
        self.active_mask &= !slot_bit(w);
        self.pending_mask |= slot_bit(w);
    }
}

crate::snapshot_struct! {
    UnitState {
        active,
        pending,
        last_issued,
    }
    derived {
        active_mask = slot_mask(&active),
        pending_mask = slot_mask(&pending),
        events = 0,
        settled = false,
    }
    validate {
        ensure(active.iter().chain(&pending).all(|&w| w < 64), "TL warp slot")?;
        let members = slot_mask(active.iter().chain(&pending)).count_ones() as usize;
        ensure(members == active.len() + pending.len(), "TL duplicate warp slot")
    }
}

/// Two-level active/pending policy.
#[derive(Debug)]
pub struct TwoLevel {
    units: Vec<UnitState>,
    /// Maximum active-set size (GPGPU-Sim default 8).
    active_size: usize,
}

impl TwoLevel {
    /// `units` scheduler units; `active_size` warps may be active per unit.
    pub(crate) fn new(units: u32, active_size: usize) -> Self {
        TwoLevel {
            units: (0..units)
                .map(|_| UnitState {
                    active: Vec::with_capacity(active_size),
                    pending: VecDeque::with_capacity(64),
                    ..UnitState::default()
                })
                .collect(),
            active_size,
        }
    }

    /// Reconcile bookkeeping with the candidate set: drop vanished warps,
    /// adopt new ones into pending, demote blocked active warps, promote
    /// ready pending warps. Every pass is skipped when its membership mask
    /// says there is nothing to do, so a call at (or one issue away from) a
    /// fixpoint costs one pass over the candidates and one over the active
    /// set.
    fn rebalance(&mut self, unit: u32, view: &SchedView, candidates: &[WarpSlot]) {
        let u = &mut self.units[unit as usize];
        let cands = slot_mask(candidates);
        if (u.active_mask | u.pending_mask) & !cands != 0 {
            u.active.retain(|&w| cands & slot_bit(w) != 0);
            u.pending.retain(|&w| cands & slot_bit(w) != 0);
            u.active_mask &= cands;
            u.pending_mask &= cands;
        }
        if cands & !(u.active_mask | u.pending_mask) != 0 {
            for &w in candidates {
                if (u.active_mask | u.pending_mask) & slot_bit(w) == 0 {
                    u.push_pending(w);
                }
            }
        }
        // Demote active warps blocked on long-latency loads.
        let mut i = 0;
        while i < u.active.len() {
            let w = u.active[i];
            if view.warps[w].blocked_on_longlat {
                u.active.remove(i);
                u.push_pending(w);
            } else {
                i += 1;
            }
        }
        // Promote unblocked pending warps FIFO until the active set is full.
        let mut scanned = 0;
        let pending_len = u.pending.len();
        while u.active.len() < self.active_size && scanned < pending_len {
            scanned += 1;
            let w = u.pending.pop_front().expect("non-empty");
            if view.warps[w].blocked_on_longlat {
                u.pending.push_back(w);
            } else {
                u.push_active(w);
            }
        }
        // If everything is blocked, fill with blocked warps anyway so the
        // unit still reports a valid (if unissuable) order.
        while u.active.len() < self.active_size {
            match u.pending.pop_front() {
                Some(w) => u.push_active(w),
                None => break,
            }
        }
    }
}

impl WarpScheduler for TwoLevel {
    fn name(&self) -> &'static str {
        "TL"
    }

    fn order(
        &mut self,
        unit: u32,
        view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        self.rebalance(unit, view, candidates);
        let u = &mut self.units[unit as usize];
        u.settled = u.active.iter().all(|&w| !view.warps[w].blocked_on_longlat)
            && (u.active.len() == self.active_size || u.pending.is_empty());
        out.clear();
        // Round robin within the active set, starting after last issued.
        let start = u
            .last_issued
            .and_then(|last| u.active.iter().position(|&w| w == last))
            .map_or(0, |p| (p + 1) % u.active.len());
        out.extend_from_slice(&u.active[start..]);
        out.extend_from_slice(&u.active[..start]);
        // Pending warps trail, FIFO (they can still issue if all actives
        // cannot — "loose" fallback, matching GPGPU-Sim behaviour where the
        // unit would otherwise idle).
        out.extend(u.pending.iter().copied());
    }

    /// Blocked-flag changes are the engine's to see (`order_reads_longlat`);
    /// off a fixpoint the next rebalance moves the queues, so no version.
    fn order_version(&self, unit: u32) -> Option<u64> {
        let u = &self.units[unit as usize];
        u.settled.then_some(u.events)
    }

    fn order_reads_longlat(&self) -> bool {
        true
    }

    fn on_issue(&mut self, unit: u32, slot: WarpSlot, info: IssueInfo, _view: &SchedView) {
        let u = &mut self.units[unit as usize];
        u.events += 1;
        u.last_issued = Some(slot);
        // The warp will block shortly; demote it eagerly so the unit
        // rotates to another group member next cycle.
        if info.is_global_load && u.active_mask & slot_bit(slot) != 0 {
            u.active.retain(|&w| w != slot);
            u.push_pending(slot);
        }
    }

    fn on_warp_finish(&mut self, slot: WarpSlot, _tb: usize, _view: &SchedView) {
        let bit = slot_bit(slot);
        for u in &mut self.units {
            u.events += 1;
            if u.active_mask & bit != 0 {
                u.active.retain(|&w| w != slot);
                u.active_mask &= !bit;
            }
            if u.pending_mask & bit != 0 {
                u.pending.retain(|&w| w != slot);
                u.pending_mask &= !bit;
            }
            if u.last_issued == Some(slot) {
                u.last_issued = None;
            }
        }
    }

    fn save_state(&self, w: &mut codec::Writer) {
        self.units.save(w);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        let units: Vec<UnitState> = Snapshot::load(r)?;
        ensure(units.len() == self.units.len(), "TL unit count")?;
        self.units = units;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ViewFixture;

    fn load_info() -> IssueInfo {
        IssueInfo {
            active_threads: 32,
            is_global_load: true,
        }
    }

    #[test]
    fn active_set_is_bounded() {
        let f = ViewFixture::grid(4, 4); // 16 warps
        let mut s = TwoLevel::new(1, 8);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(s.units[0].active.len(), 8);
        assert_eq!(out.len(), 16, "pending warps trail the order");
        assert_eq!(&out[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn global_load_issue_demotes_warp() {
        let f = ViewFixture::grid(4, 4);
        let mut s = TwoLevel::new(1, 8);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        s.on_issue(0, 0, load_info(), &f.view());
        assert!(!s.units[0].active.contains(&0));
        // Next order() promotes warp 8 to fill the hole.
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert!(s.units[0].active.contains(&8));
    }

    #[test]
    fn blocked_warps_are_demoted_on_rebalance() {
        let mut f = ViewFixture::grid(2, 8); // 16 warps
        let mut s = TwoLevel::new(1, 4);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(s.units[0].active, vec![0, 1, 2, 3]);
        f.warps[1].blocked_on_longlat = true;
        f.warps[2].blocked_on_longlat = true;
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        let active = &s.units[0].active;
        assert!(!active.contains(&1));
        assert!(!active.contains(&2));
        assert_eq!(active.len(), 4, "holes refilled from pending");
    }

    #[test]
    fn round_robin_within_active_set() {
        let f = ViewFixture::grid(1, 4);
        let mut s = TwoLevel::new(1, 4);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        s.on_issue(
            0,
            1,
            IssueInfo {
                active_threads: 32,
                is_global_load: false,
            },
            &f.view(),
        );
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out, vec![2, 3, 0, 1]);
    }

    #[test]
    fn finished_warps_leave_both_queues() {
        let f = ViewFixture::grid(1, 4);
        let mut s = TwoLevel::new(1, 2);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        s.on_warp_finish(0, 0, &f.view());
        s.order(0, &f.view(), &[1, 2, 3], &mut out);
        assert!(!out.contains(&0));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn stable_active_set_reports_clean() {
        let f = ViewFixture::grid(4, 4); // 16 warps, active set of 8
        let mut s = TwoLevel::new(1, 8);
        let mut out = Vec::new();
        assert_eq!(s.order_version(0), None, "no rebalance yet");
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        let v = s.order_version(0);
        assert!(v.is_some(), "full unblocked active set is a fixpoint");
        s.on_issue(
            0,
            0,
            IssueInfo {
                active_threads: 32,
                is_global_load: false,
            },
            &f.view(),
        );
        assert_ne!(s.order_version(0), v, "rotation moved");
    }

    #[test]
    fn degenerate_all_blocked_state_has_no_version() {
        // With every warp blocked the rebalance rotates blocked warps
        // through the active set on each call — never a fixpoint, so the
        // unit must keep recomputing.
        let mut f = ViewFixture::grid(1, 4);
        for w in &mut f.warps {
            w.blocked_on_longlat = true;
        }
        let mut s = TwoLevel::new(1, 2);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(s.order_version(0), None);
        let first = out.clone();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_ne!(first, out, "the degenerate state really does rotate");
    }

    #[test]
    fn all_blocked_still_produces_full_order() {
        let mut f = ViewFixture::grid(1, 4);
        for w in &mut f.warps {
            w.blocked_on_longlat = true;
        }
        let mut s = TwoLevel::new(1, 2);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
