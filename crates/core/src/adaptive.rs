//! PRO-AD — the adaptive variant the paper sketches as future work (§IV):
//! *"we would like to dynamically enable or disable special handling of
//! barrier statements, long latency statements, etc., by profiling each
//! application."*
//!
//! Implementation: **epoch dueling**. Two complete PRO instances run in
//! lockstep — one with barrier special-handling enabled, one without; both
//! receive every event so their internal TB state machines stay coherent
//! with the hardware. During a short probe window the scheduler alternates
//! which instance drives issue, measuring issue throughput (instructions
//! per unit-cycle) per epoch; afterwards it locks in the faster mode for
//! the rest of the kernel. On barrier-free kernels both modes are
//! identical, so the probe is harmless; on barrier-pathological kernels
//! (the paper's scalarProd case) it recovers the PRO-NB win automatically.

use crate::codec::{self, CodecError, Snapshot};
use crate::pro::{Pro, ProConfig};
use crate::{IssueInfo, SchedView, TbSlot, WarpScheduler, WarpSlot};

/// Cycles per probe epoch.
const EPOCH_CYCLES: u64 = 2000;
/// Probe epochs per mode (the whole probe is twice as many).
const PROBES_PER_MODE: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Probing: alternating epochs.
    Probe,
    /// Locked on barrier handling enabled.
    LockedOn,
    /// Locked off.
    LockedOff,
}

crate::snapshot_enum! {
    Mode, "PRO-AD mode tag" {
        0 => Probe,
        1 => LockedOn,
        2 => LockedOff,
    }
}

/// The adaptive policy.
#[derive(Debug)]
pub struct ProAdaptive {
    with_barriers: Pro,
    without_barriers: Pro,
    mode: Mode,
    epoch_start: u64,
    epoch_index: u32,
    issued_this_epoch: u64,
    cycles_this_epoch: u64,
    // accumulated (issued, cycles) per mode during probing
    on_score: (u64, u64),
    off_score: (u64, u64),
    started: bool,
}

impl ProAdaptive {
    /// Build for an SM with `max_warps`/`max_tbs` slots: two instances of
    /// the paper's PRO that differ in barrier handling only.
    pub(crate) fn new(max_warps: usize, max_tbs: usize) -> Self {
        let on = ProConfig::default();
        let off = ProConfig {
            handle_barriers: false,
            ..on
        };
        ProAdaptive {
            with_barriers: Pro::new(max_warps, max_tbs, on),
            without_barriers: Pro::new(max_warps, max_tbs, off),
            mode: Mode::Probe,
            epoch_start: 0,
            epoch_index: 0,
            issued_this_epoch: 0,
            cycles_this_epoch: 0,
            on_score: (0, 0),
            off_score: (0, 0),
            started: false,
        }
    }

    /// Which instance currently drives issue ordering?
    fn active_is_on(&self) -> bool {
        match self.mode {
            Mode::LockedOn => true,
            Mode::LockedOff => false,
            // Alternate per epoch: even epochs ON, odd epochs OFF.
            Mode::Probe => self.epoch_index.is_multiple_of(2),
        }
    }

    /// The instance that currently drives issue ordering.
    fn driver(&self) -> &Pro {
        if self.active_is_on() {
            &self.with_barriers
        } else {
            &self.without_barriers
        }
    }

    fn roll_epoch(&mut self, now: u64) {
        if self.mode != Mode::Probe {
            return;
        }
        if !self.started {
            self.started = true;
            self.epoch_start = now;
            return;
        }
        if now - self.epoch_start < EPOCH_CYCLES {
            return;
        }
        // Close the epoch.
        let score = (self.issued_this_epoch, self.cycles_this_epoch.max(1));
        if self.epoch_index.is_multiple_of(2) {
            self.on_score.0 += score.0;
            self.on_score.1 += score.1;
        } else {
            self.off_score.0 += score.0;
            self.off_score.1 += score.1;
        }
        self.issued_this_epoch = 0;
        self.cycles_this_epoch = 0;
        self.epoch_start = now;
        self.epoch_index += 1;
        if self.epoch_index >= 2 * PROBES_PER_MODE {
            // Decide: higher issue throughput wins; tie → keep handling on
            // (the paper's default behaviour).
            let on_ipc = self.on_score.0 as f64 / self.on_score.1.max(1) as f64;
            let off_ipc = self.off_score.0 as f64 / self.off_score.1.max(1) as f64;
            self.mode = if off_ipc > on_ipc {
                Mode::LockedOff
            } else {
                Mode::LockedOn
            };
        }
    }
}

impl WarpScheduler for ProAdaptive {
    fn name(&self) -> &'static str {
        "PRO-AD"
    }

    fn begin_cycle(&mut self, view: &SchedView) {
        self.roll_epoch(view.cycle);
        self.cycles_this_epoch += 1;
        self.with_barriers.begin_cycle(view);
        self.without_barriers.begin_cycle(view);
    }

    fn order(
        &mut self,
        unit: u32,
        view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        if self.active_is_on() {
            self.with_barriers.order(unit, view, candidates, out);
        } else {
            self.without_barriers.order(unit, view, candidates, out);
        }
    }

    /// The driving instance's version and which instance that is: an epoch
    /// roll that flips the driver moves it though neither instance saw an
    /// event.
    fn order_version(&self, unit: u32) -> Option<u64> {
        let on = self.active_is_on() as u64;
        self.driver().order_version(unit).map(|v| v << 1 | on)
    }

    fn on_issue(&mut self, unit: u32, slot: WarpSlot, info: IssueInfo, view: &SchedView) {
        self.issued_this_epoch += 1;
        self.with_barriers.on_issue(unit, slot, info, view);
        self.without_barriers.on_issue(unit, slot, info, view);
    }

    fn on_barrier_arrive(&mut self, slot: WarpSlot, tb: TbSlot, view: &SchedView) {
        self.with_barriers.on_barrier_arrive(slot, tb, view);
        self.without_barriers.on_barrier_arrive(slot, tb, view);
    }

    fn on_barrier_release(&mut self, tb: TbSlot, view: &SchedView) {
        self.with_barriers.on_barrier_release(tb, view);
        self.without_barriers.on_barrier_release(tb, view);
    }

    fn on_warp_finish(&mut self, slot: WarpSlot, tb: TbSlot, view: &SchedView) {
        self.with_barriers.on_warp_finish(slot, tb, view);
        self.without_barriers.on_warp_finish(slot, tb, view);
    }

    fn on_tb_launch(&mut self, tb: TbSlot, view: &SchedView) {
        self.with_barriers.on_tb_launch(tb, view);
        self.without_barriers.on_tb_launch(tb, view);
    }

    fn on_tb_finish(&mut self, tb: TbSlot, view: &SchedView) {
        self.with_barriers.on_tb_finish(tb, view);
        self.without_barriers.on_tb_finish(tb, view);
    }

    fn tb_priority_trace(&self, view: &SchedView) -> Option<Vec<u32>> {
        self.driver().tb_priority_trace(view)
    }

    fn save_state(&self, w: &mut codec::Writer) {
        self.with_barriers.save_state(w);
        self.without_barriers.save_state(w);
        self.mode.save(w);
        w.put_u64(self.epoch_start);
        w.put_u32(self.epoch_index);
        w.put_u64(self.issued_this_epoch);
        w.put_u64(self.cycles_this_epoch);
        self.on_score.save(w);
        self.off_score.save(w);
        w.put_bool(self.started);
    }

    fn load_state(&mut self, r: &mut codec::Reader<'_>) -> Result<(), CodecError> {
        self.with_barriers.load_state(r)?;
        self.without_barriers.load_state(r)?;
        self.mode = Snapshot::load(r)?;
        self.epoch_start = r.get_u64()?;
        self.epoch_index = r.get_u32()?;
        self.issued_this_epoch = r.get_u64()?;
        self.cycles_this_epoch = r.get_u64()?;
        self.on_score = Snapshot::load(r)?;
        self.off_score = Snapshot::load(r)?;
        self.started = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ViewFixture;

    /// The locked decision, `None` while probing.
    fn decision(p: &ProAdaptive) -> Option<bool> {
        match p.mode {
            Mode::Probe => None,
            Mode::LockedOn => Some(true),
            Mode::LockedOff => Some(false),
        }
    }

    #[test]
    fn probing_alternates_then_locks() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = ProAdaptive::new(4, 2);
        for t in 0..2 {
            p.on_tb_launch(t, &f.view());
        }
        assert_eq!(decision(&p), None);
        assert!(p.active_is_on(), "epoch 0 probes with handling ON");
        // Make the OFF epochs strictly better: issue events only when OFF.
        let epochs = 2 * PROBES_PER_MODE as u64 + 1;
        for c in 0..epochs * (EPOCH_CYCLES + 1) {
            f.cycle = c;
            p.begin_cycle(&f.view());
            if !p.active_is_on() && decision(&p).is_none() {
                p.on_issue(
                    0,
                    0,
                    IssueInfo {
                        active_threads: 32,
                        is_global_load: false,
                    },
                    &f.view(),
                );
            }
        }
        assert_eq!(decision(&p), Some(false), "OFF mode had higher throughput");
    }

    #[test]
    fn ties_keep_barrier_handling_enabled() {
        let mut f = ViewFixture::grid(1, 2);
        let mut p = ProAdaptive::new(2, 1);
        p.on_tb_launch(0, &f.view());
        // No issues at all → both modes score zero → tie → ON.
        for c in 0..5 * (EPOCH_CYCLES + 1) {
            f.cycle = c;
            p.begin_cycle(&f.view());
        }
        assert_eq!(decision(&p), Some(true));
    }

    #[test]
    fn order_is_a_permutation_in_both_modes() {
        let mut f = ViewFixture::grid(2, 3);
        let mut p = ProAdaptive::new(6, 2);
        for t in 0..2 {
            p.on_tb_launch(t, &f.view());
        }
        let mut out = Vec::new();
        for c in [0u64, 2500] {
            f.cycle = c;
            p.begin_cycle(&f.view());
            p.order(0, &f.view(), &f.all_slots(), &mut out);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, f.all_slots());
        }
    }

    #[test]
    fn both_instances_track_barrier_state() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = ProAdaptive::new(4, 2);
        for t in 0..2 {
            p.on_tb_launch(t, &f.view());
        }
        f.tbs[0].warps_at_barrier = 1;
        p.on_barrier_arrive(0, 0, &f.view());
        // The ON instance promotes TB0; the OFF instance does not. The
        // trace under mode ON should lead with TB0.
        let trace = p.tb_priority_trace(&f.view()).unwrap();
        assert_eq!(trace[0], 0);
    }

    #[test]
    fn epoch_flip_dirties_even_without_events() {
        let mut f = ViewFixture::grid(2, 2);
        let mut p = ProAdaptive::new(4, 2);
        for t in 0..2 {
            p.on_tb_launch(t, &f.view());
        }
        // The probe starts off the periodic re-sort's beat (THRESHOLD = 1000),
        // so the first epoch ends on a cycle where neither instance re-sorts
        // and the only change is the driver itself.
        let start = 300;
        f.cycle = start;
        p.begin_cycle(&f.view());
        f.cycle = EPOCH_CYCLES; // a re-sort, not yet an epoch end
        p.begin_cycle(&f.view());
        assert!(p.active_is_on());
        let (v, off) = (p.order_version(0), p.without_barriers.order_version(0));
        f.cycle = start + EPOCH_CYCLES;
        p.begin_cycle(&f.view());
        assert!(!p.active_is_on(), "odd probe epoch drives OFF");
        assert_eq!(p.without_barriers.order_version(0), off, "the OFF instance did not rebuild");
        assert_ne!(p.order_version(0), v, "driver changed → cached order invalid");
    }
}
