//! The invariants of an SM's state: facts two of its structures hold, or
//! it and the memory side of its loads, at every cycle boundary. A restore
//! holds the SMs it decoded to them, and a debug build's run holds the
//! running ones every `CHECK_PERIOD` cycles (`Gpu::check`).

use super::issue_phase::verdict_from_scratch;
use super::lsu::LsuEntry;
use super::Sm;
use crate::scoreboard::Scoreboard;
use pro_core::{Slot, Violation, WarpState};
use pro_mem::LoadLedger;

impl Sm {
    /// Hold the SM to its invariants at the cycle boundary `now`, and take
    /// its loads out of `loads`, which [`pro_mem::MemSubsystem::check`]
    /// filled. At the first that fails, the [`Violation`] names it:
    /// * a resident TB runs one of the grid's blocks, its warps' SIMT
    ///   entries are PCs of the program, its progress and its counts of
    ///   warps at the barrier and finished are its warps', and some warp of
    ///   it can still issue — within the cycle it happens in, the last exit
    ///   retires a TB and the last live warp's arrival opens its barrier;
    /// * each writeback, shared-memory access and load in flight releases
    ///   registers of a warp slot, and a warp's scoreboard holds exactly the
    ///   registers they will release (the loads' as long-latency), so no
    ///   bit waits on a release that never comes; a warp is blocked on a
    ///   long-latency write iff its scoreboard says so;
    /// * a load the LSU is still sending completes like any other, and the
    ///   next one issued will not take the id of one in flight;
    /// * the issue path's masks and fetch mirror are the warps'
    ///   (`IssueState::rebuild`), and each verdict it holds is what a
    ///   probe would find ([`crate::IssueState::ready_memo_holds`]);
    /// * the lines the LSU has still to send of each load are lines the
    ///   memory side is due, and a load the SM holds registers for has no
    ///   other line due, or has completed.
    pub fn check(&self, now: u64, loads: &mut LoadLedger) -> Result<(), Violation> {
        let fail = |invariant, slot| Err(Violation { invariant, sm: Some(self.id), slot, cycle: now });
        let instrs = self.table.as_ref().map_or(0, |t| t.program().instrs.len());
        for (t, tb) in self.sched_tbs[..self.usable_tb_slots()].iter().enumerate() {
            if !tb.occupied {
                continue;
            }
            if tb.global_index >= self.nctaid {
                return fail("snapshot TB block index", Some(Slot::Tb(t)));
            }
            if let Some(w) = self.warp_slots(t).find(|&w| !self.warps[w].simt.pcs_within(instrs)) {
                return fail("snapshot SIMT entry PC", Some(Slot::Warp(w)));
            }
            let (progress, at_barrier, finished) = self.warp_sums(t);
            if (tb.progress, tb.warps_at_barrier, tb.warps_finished) != (progress, at_barrier, finished) {
                return fail("TB counts not its warps'", Some(Slot::Tb(t)));
            }
            if at_barrier + finished >= tb.num_warps {
                return fail("snapshot TB that can never progress", Some(Slot::Tb(t)));
            }
        }

        // One pass over every release in flight. Warp slots number at most
        // 64 (the issue path's bitsets), so their scoreboards fit the stack.
        let mut held = [Scoreboard::default(); 64];
        let writebacks = self.wb_events.iter().map(|(_, _, &(w, ws))| (w, ws, false));
        let shared_ops = self.lsu.iter().filter_map(|e| match *e {
            LsuEntry::Shared { warp, wb, .. } => Some((warp, wb, false)),
            LsuEntry::Global { .. } => None,
        });
        let in_flight = self.access_map.values().map(|&(w, ws)| (w, ws, true));
        for (w, ws, longlat) in writebacks.chain(shared_ops).chain(in_flight) {
            if w >= self.cfg.max_warps {
                return fail("snapshot release warp slot", Some(Slot::Warp(w)));
            }
            held[w].add(ws, longlat);
        }
        for (w, (warp, state)) in self.warps.iter().zip(&self.sched_warps).enumerate() {
            if warp.scoreboard != held[w] {
                return fail("scoreboard bits not the writes in flight", Some(Slot::Warp(w)));
            }
            if state.blocked_on_longlat != held[w].longlat_pending() {
                return fail("long-latency flag not the scoreboard's", Some(Slot::Warp(w)));
            }
        }

        let unpaired = || fail("mem load not paired with its SM's", None);
        for e in &self.lsu {
            if let LsuEntry::Global { access, len, next, is_write: false, .. } = *e {
                if !self.access_map.contains_key(&access) {
                    return fail("snapshot LSU load without a release", None);
                }
                match loads.due.get_mut(&(self.id, access)) {
                    Some(Some(due)) if *due as usize >= len - next => *due -= (len - next) as u32,
                    _ => return unpaired(),
                }
            }
        }
        if self.access_map.keys().any(|&a| a >= self.next_access) {
            return fail("snapshot next access id", None);
        }

        if let Err(w) = self.issue.check(&self.warps, &self.sched_warps) {
            return fail("issue masks not the warps'", Some(Slot::Warp(w)));
        }
        if let Some(table) = &self.table {
            if !self.issue.ready_memo_holds(now, |w| verdict_from_scratch(&self.warps[w], table)) {
                return fail("ready memo a probe would not repeat", None);
            }
        }

        for &access in self.access_map.keys() {
            if !matches!(loads.due.remove(&(self.id, access)), Some(None | Some(0))) {
                return unpaired();
            }
        }
        Ok(())
    }

    /// What TB slot `tb`'s progress and its counts of warps at the barrier
    /// and finished are: its warps' progress summed, and its warps flagged.
    pub(super) fn warp_sums(&self, tb: usize) -> (u64, u32, u32) {
        let warps = &self.sched_warps[self.warp_slots(tb)];
        let progress = warps.iter().fold(0u64, |p, w| p.wrapping_add(w.progress));
        let count = |flag: fn(&WarpState) -> bool| warps.iter().filter(|w| flag(w)).count() as u32;
        (progress, count(|w| w.at_barrier), count(|w| w.finished))
    }
}
