//! Greedy Then Oldest (GTO) — the strongest baseline in the paper's
//! evaluation (PRO's geomean gain over it is a row of
//! `pro_bench::paper::CLAIMS`).
//!
//! The unit keeps issuing the *same* warp for as long as it can issue
//! ("greedy"); when it cannot, the remaining warps are prioritized oldest
//! first, where a warp's age is the launch cycle of its thread block
//! (earlier-launched TB = older), with the warp slot index breaking ties.
//! Greediness plus age creates the unequal progress that hides long
//! latencies — but, as §IV notes, GTO has no notion of barriers or of TB
//! residency, which is where PRO wins.

use crate::codec::{self, ensure, Snapshot};
use crate::{IssueInfo, SchedView, TbSlot, WarpScheduler, WarpSlot};

/// A unit's candidates sorted oldest first, and the candidate slice that
/// sort was computed from (both empty when nothing is cached: the sorted
/// empty slice is the empty slice). The sort key `(TB launch cycle, slot)`
/// only moves at a TB launch, so between launches the oldest-first base of
/// an unchanged candidate slice is a copy. Derived state: never
/// serialized, dropped by `load_state`.
#[derive(Debug)]
struct AgeCache {
    input: Vec<WarpSlot>,
    sorted: Vec<WarpSlot>,
}

/// Greedy-then-oldest policy.
#[derive(Debug)]
pub struct Gto {
    /// Per-unit: the warp currently held greedily.
    greedy: Vec<Option<WarpSlot>>,
    /// TB launches seen: each rewrites a launch cycle, every unit's primary
    /// sort key. With the greedy head, a unit's order version.
    launches: u64,
    ages: Vec<AgeCache>,
}

impl Gto {
    /// `units` = scheduler units per SM.
    pub(crate) fn new(units: u32) -> Self {
        Gto {
            greedy: vec![None; units as usize],
            launches: 0,
            ages: (0..units)
                .map(|_| AgeCache {
                    input: Vec::with_capacity(64),
                    sorted: Vec::with_capacity(64),
                })
                .collect(),
        }
    }

    fn drop_age_caches(&mut self) {
        for a in &mut self.ages {
            a.input.clear();
            a.sorted.clear();
        }
    }
}

impl WarpScheduler for Gto {
    fn name(&self) -> &'static str {
        "GTO"
    }

    fn order(
        &mut self,
        unit: u32,
        view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        let age = &mut self.ages[unit as usize];
        if age.input != candidates {
            age.input.clear();
            age.input.extend_from_slice(candidates);
            age.sorted.clear();
            age.sorted.extend_from_slice(candidates);
            // Oldest first: (TB launch cycle, slot index).
            age.sorted.sort_by_key(|&w| {
                let tb = view.warps[w].tb_slot;
                (view.tbs[tb].launched_at, w)
            });
        }
        out.clear();
        out.extend_from_slice(&age.sorted);
        // The greedy warp, if still a candidate, jumps to the front.
        if let Some(g) = self.greedy[unit as usize] {
            if let Some(pos) = out.iter().position(|&w| w == g) {
                out[..=pos].rotate_right(1);
            }
        }
    }

    fn order_version(&self, unit: u32) -> Option<u64> {
        let head = self.greedy[unit as usize].map_or(0, |g| g as u64 + 1);
        Some(self.launches << 8 | head)
    }

    fn on_issue(&mut self, unit: u32, slot: WarpSlot, _info: IssueInfo, _view: &SchedView) {
        self.greedy[unit as usize] = Some(slot);
    }

    fn on_warp_finish(&mut self, slot: WarpSlot, _tb: usize, _view: &SchedView) {
        for g in &mut self.greedy {
            if *g == Some(slot) {
                *g = None;
            }
        }
    }

    fn on_tb_launch(&mut self, _tb: TbSlot, _view: &SchedView) {
        self.launches += 1;
        self.drop_age_caches();
    }

    fn save_state(&self, w: &mut codec::Writer) {
        self.greedy.save(w);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        let greedy: Vec<Option<WarpSlot>> = Snapshot::load(r)?;
        ensure(greedy.len() == self.greedy.len(), "GTO unit count")?;
        self.greedy = greedy;
        self.drop_age_caches();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ViewFixture;

    fn info() -> IssueInfo {
        IssueInfo {
            active_threads: 32,
            is_global_load: false,
        }
    }

    #[test]
    fn default_order_is_oldest_first() {
        let mut f = ViewFixture::grid(2, 2);
        f.tbs[0].launched_at = 100;
        f.tbs[1].launched_at = 50; // TB 1 older
        let mut s = Gto::new(1);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        // TB1's warps (slots 2,3) first, then TB0's (0,1).
        assert_eq!(out, vec![2, 3, 0, 1]);
    }

    #[test]
    fn issued_warp_becomes_greedy_head() {
        let f = ViewFixture::grid(2, 2);
        let mut s = Gto::new(1);
        let mut out = Vec::new();
        s.on_issue(0, 3, info(), &f.view());
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out[0], 3);
        // Rest still oldest-first.
        assert_eq!(&out[1..], &[0, 1, 2]);
    }

    #[test]
    fn greedy_resets_when_warp_finishes() {
        let f = ViewFixture::grid(2, 2);
        let mut s = Gto::new(1);
        let mut out = Vec::new();
        s.on_issue(0, 3, info(), &f.view());
        s.on_warp_finish(3, 1, &f.view());
        s.order(0, &f.view(), &[0, 1, 2], &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn greedy_warp_not_in_candidates_is_ignored() {
        let f = ViewFixture::grid(2, 2);
        let mut s = Gto::new(1);
        let mut out = Vec::new();
        s.on_issue(0, 3, info(), &f.view());
        s.order(0, &f.view(), &[0, 2], &mut out);
        assert_eq!(out, vec![0, 2]);
    }

    #[test]
    fn tie_broken_by_slot_index() {
        let f = ViewFixture::grid(2, 2); // both TBs launched_at = 0
        let mut s = Gto::new(1);
        let mut out = Vec::new();
        s.order(0, &f.view(), &[2, 0, 3, 1], &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn units_hold_independent_greedy_warps() {
        let f = ViewFixture::grid(2, 2);
        let mut s = Gto::new(2);
        let mut out = Vec::new();
        s.on_issue(0, 2, info(), &f.view());
        s.on_issue(1, 1, info(), &f.view());
        s.order(0, &f.view(), &[0, 2], &mut out);
        assert_eq!(out, vec![2, 0]);
        s.order(1, &f.view(), &[1, 3], &mut out);
        assert_eq!(out, vec![1, 3]);
    }

    #[test]
    fn age_order_is_cached_until_a_launch_or_a_restore() {
        let mut f = ViewFixture::grid(2, 2);
        f.tbs[0].launched_at = 100;
        f.tbs[1].launched_at = 50;
        let mut s = Gto::new(1);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out, vec![2, 3, 0, 1]);
        // A different candidate slice is sorted afresh.
        s.order(0, &f.view(), &[0, 3], &mut out);
        assert_eq!(out, vec![3, 0]);
        // TB 1's slot is relaunched later than TB 0: the hook drops the
        // cached ages even though the candidates are the same.
        f.tbs[1].launched_at = 200;
        s.on_tb_launch(1, &f.view());
        s.order(0, &f.view(), &[0, 3], &mut out);
        assert_eq!(out, vec![0, 3]);
        // Restoring state into a policy that has ordered before drops them
        // too: the restored run's launch cycles are not the ones cached.
        let mut w = codec::Writer::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        f.tbs[1].launched_at = 10;
        s.load_state(&mut codec::Reader::new(&bytes)).unwrap();
        s.order(0, &f.view(), &[0, 3], &mut out);
        assert_eq!(out, vec![3, 0]);
    }

    #[test]
    fn version_moves_with_greedy_changes_and_tb_launches() {
        let f = ViewFixture::grid(2, 2);
        let mut s = Gto::new(2);
        let mut out = Vec::new();
        let v = s.order_version(0);
        s.order(0, &f.view(), &[0, 2], &mut out);
        assert_eq!(s.order_version(0), v, "order() leaves the version alone");
        s.on_issue(0, 2, info(), &f.view());
        let head = s.order_version(0);
        assert_ne!(head, v, "new greedy head");
        // Greedily re-issuing the same warp changes nothing.
        s.on_issue(0, 2, info(), &f.view());
        assert_eq!(s.order_version(0), head, "same greedy head, same version");
        // The greedy warp finishing resets that unit only.
        let other = s.order_version(1);
        s.on_warp_finish(2, 1, &f.view());
        assert_ne!(s.order_version(0), head);
        assert_eq!(s.order_version(1), other);
        // A TB launch rewrites a launch cycle: every unit's key changes.
        let (v0, v1) = (s.order_version(0), s.order_version(1));
        s.on_tb_launch(0, &f.view());
        assert!(s.order_version(0) != v0 && s.order_version(1) != v1);
    }
}
