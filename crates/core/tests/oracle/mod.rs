//! The from-scratch `order()` bodies of TL, GTO and PRO, kept as reference
//! implementations: the property test that includes this module drives
//! each in lockstep with the incremental policy that replaced it. Nothing
//! here is compiled into the library.

use pro_core::codec::{self, Snapshot};
use pro_core::{
    IssueInfo, Pro, ProConfig, SchedView, SchedulerKind, TbSlot, WarpScheduler, WarpSlot,
};
use std::collections::VecDeque;

/// The reference policy for `kind`, or `None` when `kind`'s `order()` was
/// never rewritten.
pub fn scratch(
    kind: SchedulerKind,
    max_warps: usize,
    max_tbs: usize,
    units: u32,
) -> Option<Box<dyn WarpScheduler>> {
    match kind {
        SchedulerKind::Tl => Some(Box::new(ScratchTl::new(units, 8))),
        SchedulerKind::Gto => Some(Box::new(ScratchGto::new(units))),
        SchedulerKind::Pro => Some(Box::new(ScratchPro::new(Pro::new(
            max_warps,
            max_tbs,
            ProConfig::default(),
        )))),
        _ => None,
    }
}

#[derive(Debug)]
struct UnitState {
    active: VecDeque<WarpSlot>,
    pending: VecDeque<WarpSlot>,
    last_issued: Option<WarpSlot>,
}

/// Two-level as it stood before the membership masks: every `order()`
/// reconciles its queues against the candidates by linear search.
#[derive(Debug)]
pub struct ScratchTl {
    units: Vec<UnitState>,
    /// Maximum active-set size (GPGPU-Sim default 8).
    active_size: usize,
}

impl ScratchTl {
    /// `units` scheduler units; `active_size` warps may be active per unit.
    pub fn new(units: u32, active_size: usize) -> Self {
        ScratchTl {
            units: (0..units)
                .map(|_| UnitState {
                    active: VecDeque::new(),
                    pending: VecDeque::new(),
                    last_issued: None,
                })
                .collect(),
            active_size,
        }
    }

    /// Reconcile bookkeeping with the candidate set: drop vanished warps,
    /// adopt new ones into pending, demote blocked active warps, promote
    /// ready pending warps.
    fn rebalance(&mut self, unit: u32, view: &SchedView, candidates: &[WarpSlot]) {
        let u = &mut self.units[unit as usize];
        let is_candidate = |w: WarpSlot| candidates.contains(&w);
        u.active.retain(|&w| is_candidate(w));
        u.pending.retain(|&w| is_candidate(w));
        for &w in candidates {
            if !u.active.contains(&w) && !u.pending.contains(&w) {
                u.pending.push_back(w);
            }
        }
        // Demote active warps blocked on long-latency loads.
        let mut i = 0;
        while i < u.active.len() {
            let w = u.active[i];
            if view.warps[w].blocked_on_longlat {
                u.active.remove(i);
                u.pending.push_back(w);
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
                u.active.push_back(w);
            }
        }
        // If everything is blocked, fill with blocked warps anyway so the
        // unit still reports a valid (if unissuable) order.
        while u.active.len() < self.active_size {
            match u.pending.pop_front() {
                Some(w) => u.active.push_back(w),
                None => break,
            }
        }
    }
}

impl WarpScheduler for ScratchTl {
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
        let u = &self.units[unit as usize];
        out.clear();
        // Round robin within the active set, starting after last issued.
        let n = u.active.len();
        let start = match u.last_issued {
            Some(last) => u
                .active
                .iter()
                .position(|&w| w == last)
                .map(|p| (p + 1) % n.max(1))
                .unwrap_or(0),
            None => 0,
        };
        for i in 0..n {
            out.push(u.active[(start + i) % n]);
        }
        // Pending warps trail, FIFO (they can still issue if all actives
        // cannot — "loose" fallback, matching GPGPU-Sim behaviour where the
        // unit would otherwise idle).
        out.extend(u.pending.iter().copied());
    }

    fn order_reads_longlat(&self) -> bool {
        true
    }

    fn on_issue(&mut self, unit: u32, slot: WarpSlot, info: IssueInfo, _view: &SchedView) {
        let u = &mut self.units[unit as usize];
        u.last_issued = Some(slot);
        if info.is_global_load {
            // The warp will block shortly; demote it eagerly so the unit
            // rotates to another group member next cycle.
            if let Some(pos) = u.active.iter().position(|&w| w == slot) {
                u.active.remove(pos);
                u.pending.push_back(slot);
            }
        }
    }

    fn on_warp_finish(&mut self, slot: WarpSlot, _tb: usize, _view: &SchedView) {
        for u in &mut self.units {
            u.active.retain(|&w| w != slot);
            u.pending.retain(|&w| w != slot);
            if u.last_issued == Some(slot) {
                u.last_issued = None;
            }
        }
    }

    fn save_state(&self, w: &mut codec::Writer) {
        w.put_u64(self.units.len() as u64);
        for u in &self.units {
            u.active.save(w);
            u.pending.save(w);
            u.last_issued.save(w);
        }
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        let n = r.get_usize()?;
        if n != self.units.len() {
            return Err(codec::CodecError::BadValue("TL unit count"));
        }
        for u in &mut self.units {
            u.active = Snapshot::load(r)?;
            u.pending = Snapshot::load(r)?;
            u.last_issued = Snapshot::load(r)?;
        }
        Ok(())
    }
}


/// Greedy-then-oldest as it stood before the cached age order: every
/// `order()` sorts the candidates by `(TB launch cycle, slot)`.
#[derive(Debug)]
pub struct ScratchGto {
    /// Per-unit: the warp currently held greedily.
    greedy: Vec<Option<WarpSlot>>,
}

impl ScratchGto {
    /// `units` = scheduler units per SM.
    pub fn new(units: u32) -> Self {
        ScratchGto {
            greedy: vec![None; units as usize],
        }
    }
}

impl WarpScheduler for ScratchGto {
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
        out.clear();
        out.extend_from_slice(candidates);
        // Oldest first: (TB launch cycle, slot index).
        out.sort_by_key(|&w| {
            let tb = view.warps[w].tb_slot;
            (view.tbs[tb].launched_at, w)
        });
        // The greedy warp, if still a candidate, jumps to the front.
        if let Some(g) = self.greedy[unit as usize] {
            if let Some(pos) = out.iter().position(|&w| w == g) {
                out[..=pos].rotate_right(1);
            }
        }
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

    fn save_state(&self, w: &mut codec::Writer) {
        self.greedy.save(w);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        self.greedy = Snapshot::load(r)?;
        Ok(())
    }
}

/// PRO with the `order()` it had before the inverse rank table: the
/// candidates sorted by `(rank, slot)`, unranked warps last. Everything but
/// `order()` is the real policy; the per-slot rank table is refreshed from
/// the policy's ranked list at `begin_cycle`, the only point that list moves.
#[derive(Debug)]
pub struct ScratchPro {
    inner: Pro,
    rank: [u32; 64],
}

impl ScratchPro {
    pub fn new(inner: Pro) -> Self {
        ScratchPro {
            inner,
            rank: [u32::MAX; 64],
        }
    }
}

impl WarpScheduler for ScratchPro {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_cycle(&mut self, view: &SchedView) {
        self.inner.begin_cycle(view);
        self.rank = [u32::MAX; 64];
        for (r, &w) in self.inner.rank_order().iter().enumerate() {
            self.rank[w] = r as u32;
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
        out.extend_from_slice(candidates);
        let rank = &self.rank;
        out.sort_by_key(|&w| (rank[w], w));
    }

    fn on_issue(&mut self, unit: u32, slot: WarpSlot, info: IssueInfo, view: &SchedView) {
        self.inner.on_issue(unit, slot, info, view);
    }

    fn on_barrier_arrive(&mut self, slot: WarpSlot, tb: TbSlot, view: &SchedView) {
        self.inner.on_barrier_arrive(slot, tb, view);
    }

    fn on_barrier_release(&mut self, tb: TbSlot, view: &SchedView) {
        self.inner.on_barrier_release(tb, view);
    }

    fn on_warp_finish(&mut self, slot: WarpSlot, tb: TbSlot, view: &SchedView) {
        self.inner.on_warp_finish(slot, tb, view);
    }

    fn on_tb_launch(&mut self, tb: TbSlot, view: &SchedView) {
        self.inner.on_tb_launch(tb, view);
    }

    fn on_tb_finish(&mut self, tb: TbSlot, view: &SchedView) {
        self.inner.on_tb_finish(tb, view);
    }

    fn save_state(&self, w: &mut codec::Writer) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        self.inner.load_state(r)
    }
}
