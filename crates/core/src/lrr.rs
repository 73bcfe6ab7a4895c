//! Loose Round Robin (LRR) — the GPU's default scheduler and the paper's
//! primary baseline.
//!
//! Every warp has equal priority: each scheduler unit remembers the last
//! warp it issued and starts the next cycle's search from the following
//! slot, wrapping around. "Loose" because a warp that cannot issue is simply
//! skipped rather than stalling the unit. The paper's §II.A observation —
//! all warps make near-equal progress and hit long-latency instructions
//! together — is a direct consequence of this rotation.

use crate::codec::{self, ensure, Snapshot};
use crate::{IssueInfo, SchedView, WarpScheduler, WarpSlot};

/// Loose round-robin policy.
#[derive(Debug)]
pub struct Lrr {
    max_warps: usize,
    /// Per-unit: slot after which the rotation starts — the only input of
    /// a unit's order besides its candidates, so also its version.
    last_issued: Vec<usize>,
}

impl Lrr {
    /// `max_warps` = warp slots per SM, `units` = scheduler units per SM.
    pub fn new(max_warps: usize, units: u32) -> Self {
        Lrr {
            max_warps,
            last_issued: vec![max_warps.saturating_sub(1); units as usize],
        }
    }
}

impl WarpScheduler for Lrr {
    fn name(&self) -> &'static str {
        "LRR"
    }

    fn order(
        &mut self,
        unit: u32,
        _view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        let m = self.max_warps.max(1);
        let start = (self.last_issued[unit as usize] + 1) % m;
        rotate_from(candidates, start, m, out);
    }

    fn order_version(&self, unit: u32) -> Option<u64> {
        Some(self.last_issued[unit as usize] as u64)
    }

    fn on_issue(&mut self, unit: u32, slot: WarpSlot, _info: IssueInfo, _view: &SchedView) {
        self.last_issued[unit as usize] = slot;
    }

    fn save_state(&self, w: &mut codec::Writer) {
        self.last_issued.save(w);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        let last_issued: Vec<usize> = Snapshot::load(r)?;
        // One rotation cursor per unit, each a warp slot.
        ensure(last_issued.len() == self.last_issued.len(), "LRR unit count")?;
        ensure(last_issued.iter().all(|&w| w < self.max_warps.max(1)), "LRR warp slot")?;
        self.last_issued = last_issued;
        Ok(())
    }
}

/// Fill `out` with `candidates` in round-robin order over the slot
/// numbering `0..m`, starting at slot `start`: the first candidate ≥ `start`
/// comes first, wrapping around, empty slots skipped.
///
/// The engine hands candidates over in ascending slot order, for which this
/// is a rotation at the first slot ≥ `start`. Any other input (unsorted,
/// duplicated, or a slot outside `0..m`) takes the general definition, a
/// stable sort by distance from `start`.
fn rotate_from(candidates: &[WarpSlot], start: usize, m: usize, out: &mut Vec<WarpSlot>) {
    out.clear();
    let ascending = candidates.windows(2).all(|p| p[0] < p[1]);
    if ascending && candidates.last().is_none_or(|&w| w < m) {
        let split = candidates.partition_point(|&w| w < start);
        out.extend_from_slice(&candidates[split..]);
        out.extend_from_slice(&candidates[..split]);
    } else {
        out.extend_from_slice(candidates);
        out.sort_by_key(|&w| (w + m - start) % m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ViewFixture;
    use crate::IssueInfo;

    fn info() -> IssueInfo {
        IssueInfo {
            active_threads: 32,
            is_global_load: false,
        }
    }

    #[test]
    fn initial_order_starts_at_slot_zero() {
        let f = ViewFixture::grid(2, 3);
        let mut s = Lrr::new(6, 1);
        let mut out = Vec::new();
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn rotation_advances_past_issued_warp() {
        let f = ViewFixture::grid(2, 3);
        let mut s = Lrr::new(6, 1);
        let mut out = Vec::new();
        s.on_issue(0, 2, info(), &f.view());
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out, vec![3, 4, 5, 0, 1, 2]);
    }

    #[test]
    fn wraps_around_at_last_slot() {
        let f = ViewFixture::grid(2, 3);
        let mut s = Lrr::new(6, 1);
        let mut out = Vec::new();
        s.on_issue(0, 5, info(), &f.view());
        s.order(0, &f.view(), &f.all_slots(), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn units_rotate_independently() {
        let f = ViewFixture::grid(2, 4);
        let mut s = Lrr::new(8, 2);
        let mut out = Vec::new();
        // Unit 0 owns even slots, unit 1 odd slots.
        let even: Vec<_> = (0..8).step_by(2).collect();
        let odd: Vec<_> = (1..8).step_by(2).collect();
        s.on_issue(0, 4, info(), &f.view());
        s.order(0, &f.view(), &even, &mut out);
        assert_eq!(out, vec![6, 0, 2, 4]);
        s.order(1, &f.view(), &odd, &mut out);
        assert_eq!(out, vec![1, 3, 5, 7], "unit 1 unaffected by unit 0 issue");
    }

    #[test]
    fn order_is_a_permutation_of_candidates() {
        let f = ViewFixture::grid(3, 2);
        let mut s = Lrr::new(6, 1);
        let mut out = Vec::new();
        let cands = vec![1, 3, 5];
        s.on_issue(0, 3, info(), &f.view());
        s.order(0, &f.view(), &cands, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, cands);
        assert_eq!(out[0], 5, "first candidate after the issued slot");
    }

    #[test]
    fn version_is_the_rotation_cursor() {
        let f = ViewFixture::grid(2, 3);
        let mut s = Lrr::new(6, 2);
        let mut out = Vec::new();
        let v0 = s.order_version(0);
        s.order(0, &f.view(), &[0, 2, 4], &mut out);
        assert_eq!(s.order_version(0), v0, "order() leaves the version alone");
        // Re-issuing the warp the cursor already points at keeps it.
        s.on_issue(0, 2, info(), &f.view());
        let v2 = s.order_version(0);
        assert_ne!(v2, v0, "cursor moved");
        s.on_issue(0, 2, info(), &f.view());
        assert_eq!(s.order_version(0), v2, "same cursor position, same version");
        assert_eq!(s.order_version(1), v0, "other unit untouched");
        s.on_issue(0, 4, info(), &f.view());
        assert_ne!(s.order_version(0), v2, "cursor moved");
    }

    #[test]
    fn zero_max_warps_does_not_panic() {
        // The modulus guard must be consistent between `start` and the
        // sort key (a raw `% 0` would panic on any candidate).
        let f = ViewFixture::grid(1, 1);
        let mut s = Lrr::new(0, 1);
        let mut out = Vec::new();
        s.order(0, &f.view(), &[], &mut out);
        assert!(out.is_empty());
    }
}
