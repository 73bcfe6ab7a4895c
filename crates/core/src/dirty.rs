//! Per-unit dirty bits backing the [`WarpScheduler::order_dirty`]
//! contract (DESIGN.md §15).
//!
//! A policy marks a unit dirty whenever an event it observes could change
//! that unit's `order()` permutation, and clears the bit inside `order()`
//! once the permutation has been recomputed. Most events (TB launches,
//! barrier traffic, warp finishes) are unit-agnostic, so marking all units
//! at once is the common case; `on_issue` is the per-unit exception.
//!
//! [`WarpScheduler::order_dirty`]: crate::WarpScheduler::order_dirty


/// Bitmask of scheduler units whose cached order may be stale. Supports up
/// to 64 units — far above any SM configuration in the workspace (2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyMask {
    bits: u64,
}

impl DirtyMask {
    /// All units dirty — the only safe initial state.
    pub fn all() -> Self {
        DirtyMask { bits: !0 }
    }

    /// Mark one unit's order as possibly changed.
    #[inline]
    pub fn mark(&mut self, unit: u32) {
        self.bits |= 1u64 << (unit as u64 & 63);
    }

    /// Mark every unit (unit-agnostic events: TB launch, barrier, finish).
    #[inline]
    pub fn mark_all(&mut self) {
        self.bits = !0;
    }

    /// Clear one unit's bit — called from inside `order()` after the
    /// permutation for that unit has been recomputed.
    #[inline]
    pub fn clear(&mut self, unit: u32) {
        self.bits &= !(1u64 << (unit as u64 & 63));
    }

    /// Is this unit's cached order possibly stale?
    #[inline]
    pub fn is_dirty(&self, unit: u32) -> bool {
        self.bits & (1u64 << (unit as u64 & 63)) != 0
    }

    /// Is any unit dirty? Note `mark_all` sets bits for units that may
    /// not exist, so this only returns `false` once every bit — real or
    /// phantom — has been cleared; policies that need an "anything
    /// changed" signal keep a separate flag (see `Pro`).
    #[inline]
    pub fn any(&self) -> bool {
        self.bits != 0
    }
}

crate::snapshot_struct! {
    DirtyMask {
        bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{self, Snapshot};

    #[test]
    fn starts_all_dirty_and_clears_per_unit() {
        let mut d = DirtyMask::all();
        assert!(d.is_dirty(0) && d.is_dirty(1) && d.any());
        d.clear(0);
        assert!(!d.is_dirty(0));
        assert!(d.is_dirty(1), "clearing unit 0 leaves unit 1 dirty");
        d.clear(1);
        // Higher bits stay set but the observable units are clean.
        assert!(!d.is_dirty(0) && !d.is_dirty(1));
    }

    #[test]
    fn mark_is_per_unit_and_mark_all_is_total() {
        let mut d = DirtyMask::all();
        d.clear(0);
        d.clear(1);
        d.mark(1);
        assert!(!d.is_dirty(0) && d.is_dirty(1));
        d.mark_all();
        assert!(d.is_dirty(0) && d.is_dirty(1));
    }

    #[test]
    fn snapshot_round_trip() {
        let mut d = DirtyMask::all();
        d.clear(1);
        let mut w = codec::Writer::new();
        d.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = codec::Reader::new(&bytes);
        let back = DirtyMask::load(&mut r).unwrap();
        assert_eq!(back, d);
    }
}
