//! # pro-core — the PRO progress-aware warp scheduler and its baselines
//!
//! This crate is the Rust implementation of the paper's primary
//! contribution: **PRO**, a warp scheduling algorithm that dynamically
//! prioritizes thread blocks (TBs) and warps by the *progress* they have
//! made (Anantpur & Govindarajan, IPDPS 2015), together with the three
//! baselines it is evaluated against:
//!
//! * [`lrr::Lrr`] — Loose Round Robin,
//! * [`gto::Gto`] — Greedy Then Oldest,
//! * [`tl::TwoLevel`] — the two-level scheduler of Narasiman et al.
//!   (MICRO-2011) as implemented in GPGPU-Sim,
//! * [`pro::Pro`] — the paper's algorithm (Algorithm 1 + Fig. 3 state
//!   machine), with ablation switches ([`pro::ProConfig`]).
//!
//! The crate is deliberately **substrate-free**: it defines the dynamic
//! state a scheduler is allowed to observe ([`WarpState`], [`TbState`],
//! [`SchedView`]) and the [`WarpScheduler`] trait through which the SM model
//! drives it. Scheduling is a two-step contract, exactly as in GPGPU-Sim:
//! every cycle each scheduler unit asks the policy for a *priority order*
//! over its warps ([`WarpScheduler::order`]), then the issue logic walks
//! that order and issues the first warp that can actually issue. Events
//! (issue, barrier arrival/release, warp/TB finish, TB launch) are fed back
//! so policies can maintain internal structures — PRO's TB state machine
//! lives entirely behind these hooks.

//!
//! Substrate-independent utility modules also live here so the whole
//! workspace stays free of external dependencies: [`rng`] (the
//! deterministic PRNG behind every stochastic input), [`prop`] (the
//! in-repo property-testing harness), [`fxhash`] (a fast deterministic
//! `HashMap` hasher for hot paths), [`pool`] (a deterministic scoped
//! fork-join pool used to parallelize independent simulation runs) and
//! [`calq`] (the bucketed calendar event queue behind the simulation
//! hot path's timing-event scheduling).

pub mod adaptive;
pub mod bdelta;
pub mod calq;
pub mod codec;
pub mod fuzz;
pub mod fxhash;
pub mod gto;
pub mod lrr;
pub mod pool;
pub mod pro;
pub mod prop;
pub mod rng;
pub mod tl;

pub use adaptive::ProAdaptive;
pub use calq::CalQueue;
pub use codec::{
    write_container, CodecError, ContainerKind, FileReader, Reader, Slot, Snapshot, Violation, Writer,
};
pub use fuzz::Fuzz;
pub use fxhash::{FxHashMap, FxHashSet};
pub use gto::Gto;
pub use lrr::Lrr;
pub use pro::{Pro, ProConfig};
pub use tl::TwoLevel;

/// Index of a warp's hardware slot within an SM (0..max_warps).
pub type WarpSlot = usize;

/// Index of a thread block's hardware slot within an SM (0..max_tbs).
pub type TbSlot = usize;

/// Bit of warp slot `w` in the `u64` membership sets the policies keep
/// beside their queues (the engine packs warp slots the same way, which
/// bounds an SM at 64 of them).
#[inline]
pub(crate) fn slot_bit(w: WarpSlot) -> u64 {
    assert!(w < 64, "warp slot {w} does not fit a u64 membership set");
    1u64 << w
}

/// Membership set of a sequence of warp slots.
#[inline]
pub(crate) fn slot_mask<'a>(slots: impl IntoIterator<Item = &'a WarpSlot>) -> u64 {
    slots.into_iter().fold(0, |m, &w| m | slot_bit(w))
}

/// Dynamic, scheduler-visible state of one warp slot. Maintained by the SM;
/// read-only for policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarpState {
    /// Slot holds a live (launched, unfinished) warp.
    pub active: bool,
    /// Owning TB slot.
    pub tb_slot: TbSlot,
    /// Warp index within its TB (0..warps_per_tb).
    pub index_in_tb: u32,
    /// Progress: instructions executed summed over constituent threads
    /// (incremented by the active-thread count at each issue — §III.E).
    pub progress: u64,
    /// Warp is parked at a barrier.
    pub at_barrier: bool,
    /// Warp has executed `exit` in all lanes.
    pub finished: bool,
    /// Warp is blocked on an outstanding global-memory load (scoreboard
    /// hazard on a long-latency destination). Used by the two-level
    /// scheduler's demotion rule.
    pub blocked_on_longlat: bool,
}

/// Dynamic, scheduler-visible state of one TB slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct TbState {
    /// Slot holds a live TB.
    pub occupied: bool,
    /// The TB's global index within the grid.
    pub global_index: u32,
    /// Progress: instructions executed summed over all the TB's threads.
    pub progress: u64,
    /// Number of warps in this TB.
    pub num_warps: u32,
    /// Warps currently waiting at the barrier.
    pub warps_at_barrier: u32,
    /// Warps that have finished execution.
    pub warps_finished: u32,
    /// Cycle at which the TB was launched onto the SM (GTO's age).
    pub launched_at: u64,
}

/// Everything a policy may observe when ordering warps.
#[derive(Debug, Clone, Copy)]
pub struct SchedView<'a> {
    /// Current simulation cycle.
    pub cycle: u64,
    /// Warp slots (index = [`WarpSlot`]).
    pub warps: &'a [WarpState],
    /// TB slots (index = [`TbSlot`]).
    pub tbs: &'a [TbState],
    /// `TBsWaitingInThrdBlkSched()` from Algorithm 1: true while the global
    /// thread block scheduler still has unassigned TBs for this kernel —
    /// i.e. the kernel is in **fastTBPhase**.
    pub tbs_waiting_in_tb_scheduler: bool,
}

/// Information about an instruction at the moment it issues, for policies
/// that react to instruction kinds (two-level demotes on long-latency ops).
#[derive(Debug, Clone, Copy)]
pub struct IssueInfo {
    /// Number of active threads in the warp at issue (progress increment).
    pub active_threads: u32,
    /// The instruction is a global-memory load (long latency class).
    pub is_global_load: bool,
}

/// A warp scheduling policy for one SM (shared by that SM's scheduler
/// units, which is what lets PRO coordinate TB-level priorities across
/// units).
pub trait WarpScheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &'static str;

    /// Called once per SM per cycle, before any [`WarpScheduler::order`]
    /// call for that cycle. Policies with periodic work (PRO's
    /// THRESHOLD-cycle re-sort) hook here.
    fn begin_cycle(&mut self, _view: &SchedView) {}

    /// Fill `out` with `candidates` reordered best-first for scheduler unit
    /// `unit`. `candidates` are the live warp slots assigned to the unit
    /// (the SM partitions warps across units; filtering for issuability
    /// happens afterwards in the issue logic): distinct slots below 64, the
    /// bound the policies' `u64` membership sets share with the engine's.
    /// Implementations must output a permutation of `candidates`.
    fn order(
        &mut self,
        unit: u32,
        view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    );

    /// The version `unit`'s order is at: a fresh [`WarpScheduler::order`]
    /// call for `unit` returns the same permutation as the last one made
    /// under the same version, for the same candidate slice and (where
    /// [`WarpScheduler::order_reads_longlat`] is true) the same
    /// long-latency blocked set. `None`, the default, promises nothing.
    ///
    /// The engine caches each unit's last order with the version read right
    /// after that `order()` call, and reuses it verbatim without calling
    /// `order()` while this returns the same `Some` and the other inputs are
    /// unchanged. A version therefore moves with whatever `order()` reads
    /// besides those inputs, and only through the event hooks and
    /// [`WarpScheduler::begin_cycle`]; a policy whose next `order()` would
    /// move its own state under unchanged inputs answers `None`.
    fn order_version(&self, _unit: u32) -> Option<u64> {
        None
    }

    /// Does [`WarpScheduler::order`] consult
    /// [`WarpState::blocked_on_longlat`]? The engine flips those flags on
    /// memory writebacks without a policy hook, so policies that read them
    /// (two-level's demotion logic) return `true` here and the engine adds
    /// the unit's blocked-warp set to its order-reuse fingerprint.
    fn order_reads_longlat(&self) -> bool {
        false
    }

    /// A warp issued an instruction.
    fn on_issue(&mut self, _unit: u32, _slot: WarpSlot, _info: IssueInfo, _view: &SchedView) {}

    /// A warp arrived at a barrier (paper: `insertBarrierWarp`).
    fn on_barrier_arrive(&mut self, _slot: WarpSlot, _tb: TbSlot, _view: &SchedView) {}

    /// All warps of TB `tb` reached the barrier; they are released this
    /// cycle.
    fn on_barrier_release(&mut self, _tb: TbSlot, _view: &SchedView) {}

    /// A warp finished execution (paper: `insertFinishWarp`).
    fn on_warp_finish(&mut self, _slot: WarpSlot, _tb: TbSlot, _view: &SchedView) {}

    /// A new TB was launched onto the SM.
    fn on_tb_launch(&mut self, _tb: TbSlot, _view: &SchedView) {}

    /// A TB finished and its slot is being freed.
    fn on_tb_finish(&mut self, _tb: TbSlot, _view: &SchedView) {}

    /// The priority-ordered TB global indices as the policy currently sees
    /// them (best first). `None` for policies without a TB-level concept.
    /// PRO implements this; it regenerates the paper's Table IV.
    fn tb_priority_trace(&self, _view: &SchedView) -> Option<Vec<u32>> {
        None
    }

    /// Serialize the policy's internal dynamic state for a checkpoint.
    /// Stateless policies keep the default no-op; stateful ones must write
    /// everything [`WarpScheduler::load_state`] needs to continue
    /// bit-identically.
    fn save_state(&self, _w: &mut codec::Writer) {}

    /// Restore internal state previously written by
    /// [`WarpScheduler::save_state`] into a freshly built policy of the
    /// same kind and geometry.
    fn load_state(&mut self, _r: &mut codec::Reader<'_>) -> Result<(), codec::CodecError> {
        Ok(())
    }
}

/// The scheduling policies available to the simulator, benches and
/// examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Loose round robin.
    Lrr,
    /// Greedy then oldest.
    Gto,
    /// Two-level (Narasiman et al.), active-set size 8.
    Tl,
    /// PRO with the paper's defaults (THRESHOLD = 1000).
    Pro,
    /// PRO with barrier special-handling disabled (the paper's scalarProd
    /// diagnostic, §IV).
    ProNoBarrier,
    /// PRO with finishWait special-handling disabled (ablation).
    ProNoFinish,
    /// PRO that never enters the slow phase (ablation).
    ProNoSlowPhase,
    /// Adaptive PRO (the paper's §IV future work): probes whether barrier
    /// special-handling helps this kernel and locks the better mode.
    ProAdaptive,
}

impl SchedulerKind {
    /// All kinds, for sweeps.
    pub const ALL: [SchedulerKind; 8] = [
        SchedulerKind::Lrr,
        SchedulerKind::Gto,
        SchedulerKind::Tl,
        SchedulerKind::Pro,
        SchedulerKind::ProNoBarrier,
        SchedulerKind::ProNoFinish,
        SchedulerKind::ProNoSlowPhase,
        SchedulerKind::ProAdaptive,
    ];

    /// The paper's four evaluated schedulers.
    pub const PAPER: [SchedulerKind; 4] = [
        SchedulerKind::Tl,
        SchedulerKind::Lrr,
        SchedulerKind::Gto,
        SchedulerKind::Pro,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Lrr => "LRR",
            SchedulerKind::Gto => "GTO",
            SchedulerKind::Tl => "TL",
            SchedulerKind::Pro => "PRO",
            SchedulerKind::ProNoBarrier => "PRO-NB",
            SchedulerKind::ProNoFinish => "PRO-NF",
            SchedulerKind::ProNoSlowPhase => "PRO-NS",
            SchedulerKind::ProAdaptive => "PRO-AD",
        }
    }

    /// Instantiate the policy for an SM with `max_warps` warp slots,
    /// `max_tbs` TB slots and `units` scheduler units.
    pub fn build(&self, max_warps: usize, max_tbs: usize, units: u32) -> Box<dyn WarpScheduler> {
        match self {
            SchedulerKind::Lrr => Box::new(Lrr::new(max_warps, units)),
            SchedulerKind::Gto => Box::new(Gto::new(units)),
            SchedulerKind::Tl => Box::new(TwoLevel::new(units, 8)),
            SchedulerKind::Pro => Box::new(Pro::new(max_warps, max_tbs, ProConfig::default())),
            SchedulerKind::ProNoBarrier => Box::new(Pro::new(
                max_warps,
                max_tbs,
                ProConfig {
                    handle_barriers: false,
                    ..ProConfig::default()
                },
            )),
            SchedulerKind::ProNoFinish => Box::new(Pro::new(
                max_warps,
                max_tbs,
                ProConfig {
                    handle_finish: false,
                    ..ProConfig::default()
                },
            )),
            SchedulerKind::ProNoSlowPhase => Box::new(Pro::new(
                max_warps,
                max_tbs,
                ProConfig {
                    use_slow_phase: false,
                    ..ProConfig::default()
                },
            )),
            SchedulerKind::ProAdaptive => Box::new(ProAdaptive::new(max_warps, max_tbs)),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Builders for hand-crafted [`SchedView`]s used across policy tests.
    use super::*;

    /// Mutable backing store for a view.
    #[derive(Debug, Clone, Default)]
    pub struct ViewFixture {
        pub cycle: u64,
        pub warps: Vec<WarpState>,
        pub tbs: Vec<TbState>,
        pub fast_phase: bool,
    }

    impl ViewFixture {
        /// `tbs` TBs each with `warps_per_tb` warps, slots assigned
        /// contiguously, all live with zero progress.
        pub(crate) fn grid(tbs: usize, warps_per_tb: usize) -> Self {
            let mut f = ViewFixture {
                cycle: 0,
                warps: vec![WarpState::default(); tbs * warps_per_tb],
                tbs: vec![TbState::default(); tbs],
                fast_phase: true,
            };
            for t in 0..tbs {
                f.tbs[t] = TbState {
                    occupied: true,
                    global_index: t as u32,
                    progress: 0,
                    num_warps: warps_per_tb as u32,
                    warps_at_barrier: 0,
                    warps_finished: 0,
                    launched_at: 0,
                };
                for w in 0..warps_per_tb {
                    f.warps[t * warps_per_tb + w] = WarpState {
                        active: true,
                        tb_slot: t,
                        index_in_tb: w as u32,
                        progress: 0,
                        at_barrier: false,
                        finished: false,
                        blocked_on_longlat: false,
                    };
                }
            }
            f
        }

        pub(crate) fn view(&self) -> SchedView<'_> {
            SchedView {
                cycle: self.cycle,
                warps: &self.warps,
                tbs: &self.tbs,
                tbs_waiting_in_tb_scheduler: self.fast_phase,
            }
        }

        /// All schedulable warp slots (single scheduler unit): live and not
        /// finished — the same filtering the SM applies before calling
        /// `order`.
        pub(crate) fn all_slots(&self) -> Vec<WarpSlot> {
            (0..self.warps.len())
                .filter(|&w| self.warps[w].active && !self.warps[w].finished)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        for kind in SchedulerKind::ALL {
            let s = kind.build(48, 8, 2);
            assert_eq!(s.name(), kind.name());
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(SchedulerKind::Pro.to_string(), "PRO");
        assert_eq!(SchedulerKind::ProNoBarrier.to_string(), "PRO-NB");
    }
}
