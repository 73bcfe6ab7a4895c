//! Checkpoint encoding of an SM's live microarchitectural state: for each
//! TB slot the kernel can use, whether it is occupied and, if so, what its
//! TB and warps did that a launch does not determine; then the pipelines.
//! Everything else is derived on restore — by `Sm::occupy`, the code a
//! launch runs, and by [`crate::issue::IssueState::rebuild`] for the issue
//! path.

use super::lsu::LsuEntry;
use super::{Sm, SmStats};
use crate::scoreboard::WriteSet;
use pro_core::codec::{ensure, CodecError, Reader, Snapshot, Writer};
use pro_core::{snapshot_struct, TbState, WarpState};
use pro_isa::WARP_SIZE;
use pro_mem::{load_hist, save_hist};

impl Sm {
    /// Serialize all live microarchitectural state into `w`.
    ///
    /// Must be called at a cycle boundary (between ticks). The kernel
    /// binding (program, params, launch geometry) is *not* encoded, nor is
    /// anything it determines: [`Sm::restore_snapshot`] expects
    /// [`Sm::begin_kernel`] to have rebound the same kernel first.
    pub fn save_snapshot(&self, w: &mut Writer) {
        for (slot, tb) in self.sched_tbs[..self.usable_tb_slots()].iter().enumerate() {
            w.put_bool(tb.occupied);
            if !tb.occupied {
                continue;
            }
            w.put_u32(tb.global_index);
            w.put_u64(tb.launched_at);
            self.shared[slot].save_words(w);
            self.first_warp_finish[slot].save(w);
            for warp in self.warp_slots(slot) {
                self.warps[warp].save_state(w);
                let WarpState { progress, at_barrier, finished, blocked_on_longlat, .. } = self.sched_warps[warp];
                (progress, at_barrier, finished, blocked_on_longlat).save(w);
            }
        }
        // Writeback events, canonically ordered by (time, seq): slab slots
        // are an allocation artifact, so they are re-packed on restore
        // while the (time, seq) keys — which fully determine pop order —
        // round-trip exactly.
        self.wb_events.save_snapshot(w);
        self.lsu.save(w);
        w.put_u64(self.sfu_free_at);
        self.access_map.save(w);
        w.put_u64(self.next_access);
        self.stats.save(w);
    }

    /// Restore state written by [`Sm::save_snapshot`] into an SM that has
    /// just bound the same kernel via [`Sm::begin_kernel`], for a run that
    /// resumes at cycle `now`.
    ///
    /// A resident TB is laid out by `Sm::occupy`, as a launch lays it
    /// out, before its recorded state is read over it; the TB's progress
    /// and its counts of warps at the barrier and finished are then those
    /// of its warps. Nothing read is held to anything here but what a
    /// decoder needs not to panic: the restore holds the whole machine to
    /// its invariants once every section is decoded ([`Sm::check`]).
    pub fn restore_snapshot(&mut self, r: &mut Reader<'_>, now: u64) -> Result<(), CodecError> {
        self.sched_warps.fill(WarpState::default());
        self.sched_tbs.fill(TbState::default());
        self.live_tbs = 0;
        for slot in 0..self.usable_tb_slots() {
            if !r.get_bool()? {
                continue;
            }
            let global_index = r.get_u32()?;
            // Laid out as if launched at cycle 0: the warps' fetch cycles
            // are read over it, and the run loop holds the launch cycle to
            // its run.
            self.occupy(slot, global_index, 0);
            self.sched_tbs[slot].launched_at = r.get_u64()?;
            self.shared[slot].load_words(r)?;
            self.first_warp_finish[slot] = Snapshot::load(r)?;
            for w in self.warp_slots(slot) {
                self.warps[w].load_state(r)?;
                let state = &mut self.sched_warps[w];
                (state.progress, state.at_barrier, state.finished, state.blocked_on_longlat) = Snapshot::load(r)?;
            }
            let sums = self.warp_sums(slot);
            let tb = &mut self.sched_tbs[slot];
            (tb.progress, tb.warps_at_barrier, tb.warps_finished) = sums;
        }
        self.wb_events.restore_snapshot(r, now)?;
        self.lsu = Snapshot::load(r)?;
        self.sfu_free_at = r.get_u64()?;
        self.access_map = Snapshot::load(r)?;
        self.next_access = r.get_u64()?;
        self.stats = SmStats::load(r)?;
        // Derived, not serialized: the order caches restart empty, so the
        // first cycle recomputes what the snapshotted engine held.
        self.issue.rebuild(&self.warps, &self.sched_warps);
        Ok(())
    }
}

snapshot_struct! {
    SmStats {
        issued,
        idle,
        scoreboard,
        pipeline,
        unit_cycles,
        instructions,
        thread_instructions,
        wld_cycles,
        tbs_completed,
        ready_warp_sum,
        ready_samples,
        ready_hist via (save_hist, load_hist),
        disparity_hist via (save_hist, load_hist),
    }
}

// By hand: the line array is fixed-size in memory and length-prefixed on the
// wire, and both of its bounds are checked before anything is read into it.
impl Snapshot for LsuEntry {
    fn save(&self, w: &mut Writer) {
        match self {
            LsuEntry::Global { access, lines, len, next, is_write } => {
                w.put_u8(0);
                w.put_u64(*access);
                // Same bytes as the `Vec<u64>` this field used to be.
                w.put_u64(*len as u64);
                for line in &lines[..*len] {
                    w.put_u64(*line);
                }
                w.put_usize(*next);
                w.put_bool(*is_write);
            }
            LsuEntry::Shared { warp, remaining, wb } => {
                w.put_u8(1);
                w.put_usize(*warp);
                w.put_u32(*remaining);
                wb.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => {
                let access = r.get_u64()?;
                let len = r.get_usize()?;
                ensure(len <= WARP_SIZE, "LSU entry line count")?;
                let mut lines = [0; WARP_SIZE];
                for line in &mut lines[..len] {
                    *line = r.get_u64()?;
                }
                let next = r.get_usize()?;
                ensure(next < len, "LSU entry progress")?;
                Ok(LsuEntry::Global {
                    access,
                    lines,
                    len,
                    next,
                    is_write: r.get_bool()?,
                })
            }
            1 => Ok(LsuEntry::Shared {
                warp: r.get_usize()?,
                remaining: r.get_u32()?,
                wb: WriteSet::load(r)?,
            }),
            _ => Err(CodecError::BadValue("LSU entry tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsu_entry_keeps_the_vec_byte_layout_and_bounds_its_length() {
        let lines = [0x1000u64, 0x80, 0x2000];
        let mut w = Writer::new();
        LsuEntry::global(7, &lines, false).save(&mut w);
        let bytes = w.into_bytes();
        // Tag, access id, then exactly what `Vec<u64>::save` writes.
        let mut want = Writer::new();
        want.put_u8(0);
        want.put_u64(7);
        lines.to_vec().save(&mut want);
        want.put_usize(0);
        want.put_bool(false);
        assert_eq!(bytes, want.into_bytes());
        let LsuEntry::Global { lines: back, len, .. } =
            LsuEntry::load(&mut Reader::new(&bytes)).unwrap()
        else {
            panic!("global entry expected");
        };
        assert_eq!(&back[..len], &lines);

        // A length no warp can produce is refused before anything is read
        // into the fixed-size line array.
        let mut bad = Writer::new();
        bad.put_u8(0);
        bad.put_u64(7);
        bad.put_u64(WARP_SIZE as u64 + 1);
        assert!(matches!(
            LsuEntry::load(&mut Reader::new(&bad.into_bytes())),
            Err(CodecError::BadValue(_))
        ));
    }
}
