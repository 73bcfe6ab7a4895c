//! OWL-lite — a CTA-aware baseline in the spirit of Jog et al.'s OWL
//! (ASPLOS 2013), which the paper's related-work section contrasts with
//! PRO. OWL's core scheduling idea is to concentrate issue bandwidth on a
//! small *priority group* of CTAs (always the same ones) so their warps
//! stay ahead and the rest arrive at long-latency instructions later;
//! the full system also adds cache-aware group rotation, which is out of
//! scope here.
//!
//! This implementation prioritizes resident TBs by launch order (oldest
//! first), with round robin among the warps of the leading group of
//! `group_size` TBs, then the remaining TBs' warps in TB order. It gives
//! the shootout a CTA-granular baseline between LRR (no structure) and
//! PRO (dynamic progress-based structure).

use crate::codec::{self, ensure, Snapshot};
use crate::dirty::DirtyMask;
use crate::{IssueInfo, SchedView, TbSlot, WarpScheduler, WarpSlot};

/// CTA-priority policy.
#[derive(Debug)]
pub struct OwlLite {
    group_size: usize,
    /// Per-unit rotation cursor within the priority group.
    last_issued: Vec<Option<WarpSlot>>,
    /// Order inputs: the rotation cursor (per unit) and the occupied-TB
    /// launch ranking (all units, via TB launch/finish).
    dirty: DirtyMask,
}

impl OwlLite {
    /// `group_size` = number of TBs in the always-prioritized group.
    pub fn new(units: u32, group_size: usize) -> Self {
        OwlLite {
            group_size: group_size.max(1),
            last_issued: vec![None; units as usize],
            dirty: DirtyMask::all(),
        }
    }
}

impl WarpScheduler for OwlLite {
    fn name(&self) -> &'static str {
        "OWL"
    }

    fn order(
        &mut self,
        unit: u32,
        view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        self.dirty.clear(unit);
        out.clear();
        out.extend_from_slice(candidates);
        // Rank TBs by launch time; the oldest `group_size` resident TBs are
        // the priority group.
        let mut tb_rank: Vec<(u64, usize)> = view
            .tbs
            .iter()
            .enumerate()
            .filter(|(_, t)| t.occupied)
            .map(|(i, t)| (t.launched_at, i))
            .collect();
        tb_rank.sort_unstable();
        let rank_of = |tb: usize| -> usize {
            tb_rank
                .iter()
                .position(|&(_, t)| t == tb)
                .unwrap_or(usize::MAX)
        };
        out.sort_by_key(|&w| {
            let tb = view.warps[w].tb_slot;
            let r = rank_of(tb);
            // Priority group first (rank < group_size), then the rest.
            let band = usize::from(r >= self.group_size);
            (band, r, w)
        });
        // Round robin inside the priority band: rotate past the last issued
        // warp if it leads the list.
        if let Some(last) = self.last_issued[unit as usize] {
            if let Some(pos) = out.iter().position(|&w| w == last) {
                let band_end = out
                    .iter()
                    .position(|&w| rank_of(view.warps[w].tb_slot) >= self.group_size)
                    .unwrap_or(out.len());
                if pos < band_end {
                    out[..band_end].rotate_left((pos + 1) % band_end.max(1));
                }
            }
        }
    }

    fn order_dirty(&mut self, unit: u32) -> bool {
        self.dirty.is_dirty(unit)
    }

    fn on_issue(&mut self, unit: u32, slot: WarpSlot, _info: IssueInfo, _view: &SchedView) {
        let u = unit as usize;
        if self.last_issued[u] != Some(slot) {
            self.last_issued[u] = Some(slot);
            self.dirty.mark(unit);
        }
    }

    fn on_warp_finish(&mut self, slot: WarpSlot, _tb: usize, _view: &SchedView) {
        for (u, l) in self.last_issued.iter_mut().enumerate() {
            if *l == Some(slot) {
                *l = None;
                self.dirty.mark(u as u32);
            }
        }
    }

    fn on_tb_launch(&mut self, _tb: TbSlot, _view: &SchedView) {
        self.dirty.mark_all();
    }

    fn on_tb_finish(&mut self, _tb: TbSlot, _view: &SchedView) {
        // Freeing a slot shifts the launch-order rank of every younger TB,
        // which can move warps across the priority-band boundary.
        self.dirty.mark_all();
    }

    fn save_state(&self, w: &mut codec::Writer) {
        self.last_issued.save(w);
        self.dirty.save(w);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        let last_issued: Vec<Option<WarpSlot>> = Snapshot::load(r)?;
        ensure(last_issued.len() == self.last_issued.len(), "OWL unit count")?;
        self.last_issued = last_issued;
        self.dirty = Snapshot::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ViewFixture;

    #[test]
    fn oldest_tbs_form_the_priority_group() {
        let mut f = ViewFixture::grid(3, 2);
        f.tbs[0].launched_at = 30;
        f.tbs[1].launched_at = 10; // oldest
        f.tbs[2].launched_at = 20;
        let mut s = OwlLite::new(1, 1);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        // TB1's warps (slots 2,3) lead; then TB2 (4,5); then TB0 (0,1).
        assert_eq!(out, vec![2, 3, 4, 5, 0, 1]);
    }

    #[test]
    fn rotation_within_the_group() {
        let f = ViewFixture::grid(2, 3); // both launched at 0; group = 1 TB
        let mut s = OwlLite::new(1, 1);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(&out[..3], &[0, 1, 2], "TB0's warps lead");
        s.on_issue(
            0,
            0,
            IssueInfo {
                active_threads: 32,
                is_global_load: false,
            },
            &f.view(),
        );
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(&out[..3], &[1, 2, 0], "rotated past the issued warp");
        assert_eq!(&out[3..], &[3, 4, 5], "non-group TB order stable");
    }

    #[test]
    fn output_is_a_permutation() {
        let f = ViewFixture::grid(4, 2);
        let mut s = OwlLite::new(2, 2);
        let mut out = Vec::new();
        let cands = vec![1, 2, 5, 6];
        s.order(1, &f.view(), &cands, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, cands);
    }

    #[test]
    fn dirty_tracks_cursor_and_tb_residency() {
        let f = ViewFixture::grid(2, 2);
        let mut s = OwlLite::new(2, 1);
        let mut out = Vec::new();
        s.order(0, &f.view(), &[0, 2], &mut out);
        s.order(1, &f.view(), &[1, 3], &mut out);
        assert!(!s.order_dirty(0) && !s.order_dirty(1));
        s.on_issue(
            0,
            0,
            IssueInfo {
                active_threads: 32,
                is_global_load: false,
            },
            &f.view(),
        );
        assert!(s.order_dirty(0) && !s.order_dirty(1), "cursor is per unit");
        // Residency changes re-rank every TB for every unit.
        s.order(0, &f.view(), &[0, 2], &mut out);
        s.on_tb_finish(1, &f.view());
        assert!(s.order_dirty(0) && s.order_dirty(1));
    }
}
