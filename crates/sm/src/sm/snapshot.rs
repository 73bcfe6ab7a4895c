//! Checkpoint encoding of an SM's live microarchitectural state. The issue
//! path's [`crate::issue::IssueState`] is derived and not part of it:
//! a restore rebuilds it from the warps it has just loaded.

use super::lsu::LsuEntry;
use super::{Sm, SmStats};
use crate::scoreboard::WriteSet;
use crate::shared::SharedMem;
use crate::warp::Warp;
use pro_core::codec::{ensure, CodecError, Reader, Snapshot, Writer};
use pro_core::{snapshot_struct, TbState};
use pro_isa::WARP_SIZE;
use pro_mem::{load_hist, save_hist, AccessId};

impl Sm {
    /// Serialize all live microarchitectural state into `w`.
    ///
    /// Must be called at a cycle boundary (between ticks); the kernel
    /// binding itself (program, params, launch geometry) is *not* encoded —
    /// [`Sm::restore_snapshot`] expects [`Sm::begin_kernel`] to have rebound
    /// the same kernel first, and cross-checks the geometry.
    pub fn save_snapshot(&self, w: &mut Writer) {
        w.put_u64(self.warps_per_tb as u64);
        w.put_u32(self.threads_per_tb);
        self.warps.save(w);
        self.shared.save(w);
        self.sched_warps.save(w);
        self.sched_tbs.save(w);
        w.put_u32(self.used_threads);
        w.put_u32(self.used_shared);
        w.put_u32(self.used_regs);
        w.put_u32(self.live_tbs);
        // Writeback events, canonically ordered by (time, seq): slab slots
        // are an allocation artifact, so they are re-packed on restore
        // while the (time, seq) keys — which fully determine pop order —
        // round-trip exactly. Same byte layout as the pre-calendar heap.
        self.wb_events.save_snapshot(w);
        self.lsu.save(w);
        w.put_u64(self.sfu_free_at);
        self.access_map.save(w);
        w.put_u64(self.next_access);
        self.first_warp_finish.save(w);
        self.stats.save(w);
    }

    /// Restore state written by [`Sm::save_snapshot`].
    ///
    /// The SM must already have the same kernel bound via
    /// [`Sm::begin_kernel`]; geometry mismatches (different kernel or SM
    /// configuration) are rejected as [`CodecError::BadValue`].
    pub fn restore_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let warps_per_tb = r.get_usize()?;
        let threads_per_tb = r.get_u32()?;
        if warps_per_tb != self.warps_per_tb || threads_per_tb != self.threads_per_tb {
            return Err(CodecError::BadValue("snapshot kernel geometry mismatch"));
        }
        let warps: Vec<Warp> = Snapshot::load(r)?;
        ensure(warps.len() == self.cfg.max_warps, "snapshot warp slot count")?;
        // A warp indexes the TB slots with the one and fetches at the other.
        let (max_warps, max_tbs) = (self.cfg.max_warps, self.cfg.max_tbs);
        let table = self.table.clone().expect("kernel bound");
        let program = table.program();
        ensure(warps.iter().all(|w| w.tb_slot < max_tbs), "snapshot warp TB slot")?;
        // (A free slot keeps what its last warp left, perhaps another kernel's.)
        let fetchable = |w: &Warp| !w.valid || w.simt.pcs_within(program.instrs.len());
        ensure(warps.iter().all(fetchable), "snapshot SIMT entry PC")?;
        let shared: Vec<SharedMem> = Snapshot::load(r)?;
        ensure(shared.len() == self.cfg.max_tbs, "snapshot TB slot count")?;
        self.warps = warps;
        self.shared = shared;
        self.sched_warps = Snapshot::load(r)?;
        self.sched_tbs = Snapshot::load(r)?;
        if self.sched_warps.len() != self.cfg.max_warps
            || self.sched_tbs.len() != self.cfg.max_tbs
        {
            return Err(CodecError::BadValue("snapshot scheduler view size"));
        }
        ensure(self.sched_warps.iter().all(|w| w.tb_slot < max_tbs), "snapshot scheduler view TB slot")?;
        // What `launch_tb` derives from the kernel's geometry, held to it: a
        // live warp's place in its TB (its thread ids) and its TB's in the
        // grid, the register file its operands index, a resident TB's warp
        // count and its shared memory of the program's size.
        let tbs = &self.sched_tbs;
        let mut live = self.warps.iter().enumerate().filter(|(_, w)| w.valid);
        let placed = |(slot, w): (usize, &Warp)| {
            let index = w.index_in_tb as usize;
            index < warps_per_tb && slot == w.tb_slot * warps_per_tb + index
        };
        ensure(live.clone().all(placed), "snapshot warp index in its TB")?;
        let mut resident = tbs.iter().zip(&self.shared).filter(|(t, _)| t.occupied);
        let in_grid = |t: &TbState| t.global_index < self.nctaid && t.num_warps as usize == warps_per_tb;
        ensure(resident.clone().all(|(t, _)| in_grid(t)), "snapshot TB block index or warp count")?;
        let in_block = |w: &Warp| tbs[w.tb_slot].occupied && tbs[w.tb_slot].global_index == w.ctaid;
        ensure(live.clone().all(|(_, w)| in_block(w)), "snapshot warp block index")?;
        ensure(live.all(|(_, w)| w.sized_for(program)), "snapshot warp register file")?;
        let shared_bytes = program.shared_bytes.next_multiple_of(4);
        ensure(resident.all(|(_, s)| s.size() == shared_bytes), "snapshot shared memory size")?;
        self.used_threads = r.get_u32()?;
        self.used_shared = r.get_u32()?;
        self.used_regs = r.get_u32()?;
        self.live_tbs = r.get_u32()?;
        // `can_accept_tb` answers from this count; hold it to the slots.
        let (usable, beyond) = self.sched_tbs.split_at(self.usable_tb_slots());
        if usable.iter().filter(|t| t.occupied).count() != self.live_tbs as usize
            || beyond.iter().any(|t| t.occupied)
        {
            return Err(CodecError::BadValue("snapshot resident TB count"));
        }
        // A barrier opens and a TB retires on these two counts: hold them to
        // the flags of the TB's warps, which they count.
        let counted = |(slot, t): (usize, &TbState)| {
            let warps = &self.warps[slot * warps_per_tb..][..warps_per_tb];
            let count = |flag: fn(&Warp) -> bool| warps.iter().filter(|w| w.valid && flag(w)).count();
            t.warps_at_barrier as usize == count(|w| w.at_barrier)
                && t.warps_finished as usize == count(|w| w.finished)
        };
        let mut resident = usable.iter().enumerate().filter(|(_, t)| t.occupied);
        ensure(resident.all(counted), "snapshot TB barrier or finished warp count")?;
        self.wb_events.restore_snapshot(r)?;
        self.lsu = Snapshot::load(r)?;
        self.sfu_free_at = r.get_u64()?;
        self.access_map = Snapshot::load(r)?;
        // A release indexes the warp slots when its writeback or its load's
        // completion arrives.
        let shared_ops = self.lsu.iter().filter_map(|e| match e {
            LsuEntry::Shared { warp, .. } => Some(*warp),
            LsuEntry::Global { .. } => None,
        });
        let writebacks = self.wb_events.iter().map(|(_, _, release)| release.0);
        let loads = self.access_map.values().map(|release| release.0);
        let mut released = shared_ops.chain(writebacks).chain(loads);
        ensure(released.all(|warp| warp < max_warps), "snapshot release warp slot")?;
        // A load the LSU is still sending completes like any other, and the
        // next one issued must not take the id of one in flight.
        let mut sending = self.lsu.iter().filter_map(|e| match e {
            LsuEntry::Global { access, is_write: false, .. } => Some(access),
            _ => None,
        });
        ensure(sending.all(|a| self.access_map.contains_key(a)), "snapshot LSU load without a release")?;
        self.next_access = r.get_u64()?;
        ensure(self.access_map.keys().all(|&a| a < self.next_access), "snapshot next access id")?;
        self.first_warp_finish = Snapshot::load(r)?;
        ensure(self.first_warp_finish.len() == self.cfg.max_tbs, "snapshot WLD tracker size")?;
        self.stats = SmStats::load(r)?;
        // Derived, not serialized (the policies invalidate or restore their
        // dirty bits symmetrically, so the orders come back the same).
        self.issue.rebuild(&self.warps, &self.sched_warps);
        Ok(())
    }

    /// Every load this SM holds registers for, with the lines of it the LSU
    /// has still to send: this section's half of the restore-time pairing
    /// with the memory hierarchy's ([`pro_mem::MemSubsystem::check_loads`]).
    pub fn loads_in_flight(&self) -> impl Iterator<Item = (AccessId, u32)> + '_ {
        self.access_map.keys().map(|&load| {
            let unsent = self.lsu.iter().map(|e| match e {
                LsuEntry::Global { access, len, next, is_write: false, .. } if *access == load => {
                    (len - next) as u32
                }
                _ => 0,
            });
            (load, unsent.sum())
        })
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
