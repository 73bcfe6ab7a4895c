//! The event storm the policy properties share: a random fixture of TBs and
//! warps, and the events an SM delivers to a policy, applied to the fixture
//! and to two policies in lockstep. `prop_dirty.rs` holds incremental
//! policies to their from-scratch oracles with it; `pro-sm`'s
//! `order_reuse.rs` (which includes this file by path, as `pro-core` cannot
//! see `pro-sm`) holds `IssueState::order`'s reuse to a recompute.

use pro_core::prop::{any, vec_of, Strategy, StrategyExt};
use pro_core::{IssueInfo, SchedView, TbState, WarpScheduler, WarpSlot, WarpState};

pub const WARPS_PER_TB: usize = 4;
pub const UNITS: u32 = 2;

#[derive(Debug, Clone)]
pub struct Fixture {
    pub warps: Vec<WarpState>,
    pub tbs: Vec<TbState>,
    pub fast: bool,
    pub cycle: u64,
}

impl Fixture {
    pub fn view(&self) -> SchedView<'_> {
        SchedView {
            cycle: self.cycle,
            warps: &self.warps,
            tbs: &self.tbs,
            tbs_waiting_in_tb_scheduler: self.fast,
        }
    }
}

/// Strategy: a random 2-6 TB fixture, warps spread across both units.
pub fn arb_fixture() -> impl Strategy<Value = Fixture> {
    (
        2usize..7,
        vec_of((any::<u16>(), any::<bool>()), 24..25),
        vec_of(any::<u16>(), 6..7),
        0u64..10_000,
    )
        .prop_map(|(ntbs, wflags, tbprog, cycle)| {
            let mut warps = vec![WarpState::default(); ntbs * WARPS_PER_TB];
            let mut tbs = vec![TbState::default(); ntbs];
            for t in 0..ntbs {
                tbs[t] = TbState {
                    occupied: true,
                    global_index: t as u32,
                    progress: tbprog[t] as u64,
                    num_warps: WARPS_PER_TB as u32,
                    warps_at_barrier: 0,
                    warps_finished: 0,
                    launched_at: t as u64 * 7,
                };
                for w in 0..WARPS_PER_TB {
                    let slot = t * WARPS_PER_TB + w;
                    let (prog, blocked) = wflags[slot % wflags.len()];
                    warps[slot] = WarpState {
                        active: true,
                        tb_slot: t,
                        index_in_tb: w as u32,
                        progress: prog as u64,
                        at_barrier: false,
                        finished: false,
                        blocked_on_longlat: blocked,
                    };
                }
            }
            Fixture {
                warps,
                tbs,
                fast: true,
                cycle,
            }
        })
}

/// A unit's candidate list: its live, unfinished warps in ascending slot
/// order, as the engine's bitset walk hands them over.
pub fn candidates(f: &Fixture, unit: u32) -> Vec<WarpSlot> {
    let live = |(w, warp): &(usize, &WarpState)| *w as u32 % UNITS == unit && warp.active && !warp.finished;
    f.warps.iter().enumerate().filter(live).map(|(w, _)| w).collect()
}

/// Deliver one fixture-mutating event to both policies. Mirrors the storm
/// harness in `prop_sched.rs`, with one addition the engine performs
/// without any policy hook: `blocked_on_longlat` flips (event 3), which is
/// what the `order_reads_longlat` fingerprint must absorb for two-level.
pub fn apply_event(
    f: &mut Fixture,
    pols: &mut [&mut dyn WarpScheduler; 2],
    ev: u8,
    x: usize,
    extra: u8,
) {
    let slot = x % f.warps.len();
    let tb = f.warps[slot].tb_slot;
    match ev {
        1 => {
            // Barrier arrive, releasing the TB once everyone is parked.
            if f.warps[slot].active && !f.warps[slot].at_barrier && !f.warps[slot].finished {
                f.warps[slot].at_barrier = true;
                f.tbs[tb].warps_at_barrier += 1;
                for p in pols.iter_mut() {
                    p.on_barrier_arrive(slot, tb, &SchedView {
                        cycle: f.cycle,
                        warps: &f.warps,
                        tbs: &f.tbs,
                        tbs_waiting_in_tb_scheduler: f.fast,
                    });
                }
                if f.tbs[tb].warps_at_barrier + f.tbs[tb].warps_finished == f.tbs[tb].num_warps {
                    for w in 0..f.warps.len() {
                        if f.warps[w].active && f.warps[w].tb_slot == tb {
                            f.warps[w].at_barrier = false;
                        }
                    }
                    f.tbs[tb].warps_at_barrier = 0;
                    for p in pols.iter_mut() {
                        p.on_barrier_release(tb, &SchedView {
                            cycle: f.cycle,
                            warps: &f.warps,
                            tbs: &f.tbs,
                            tbs_waiting_in_tb_scheduler: f.fast,
                        });
                    }
                }
            }
        }
        2 => {
            // Finish a warp, retiring the TB when it is the last one.
            if f.warps[slot].active && !f.warps[slot].finished && !f.warps[slot].at_barrier {
                f.warps[slot].finished = true;
                f.tbs[tb].warps_finished += 1;
                for p in pols.iter_mut() {
                    p.on_warp_finish(slot, tb, &SchedView {
                        cycle: f.cycle,
                        warps: &f.warps,
                        tbs: &f.tbs,
                        tbs_waiting_in_tb_scheduler: f.fast,
                    });
                }
                if f.tbs[tb].warps_finished == f.tbs[tb].num_warps {
                    for p in pols.iter_mut() {
                        p.on_tb_finish(tb, &SchedView {
                            cycle: f.cycle,
                            warps: &f.warps,
                            tbs: &f.tbs,
                            tbs_waiting_in_tb_scheduler: f.fast,
                        });
                    }
                    for w in 0..f.warps.len() {
                        if f.warps[w].tb_slot == tb {
                            f.warps[w] = WarpState::default();
                        }
                    }
                    f.tbs[tb] = TbState::default();
                }
            }
        }
        3 => {
            // A memory writeback (or new miss) flips the long-latency flag
            // with NO policy hook — exactly what the engine does.
            if f.warps[slot].active && !f.warps[slot].finished {
                f.warps[slot].blocked_on_longlat = !f.warps[slot].blocked_on_longlat;
            }
        }
        4 => {
            f.cycle += 500;
        }
        6 => {
            // A TB finishes and a fresh one takes its slot before the next
            // order: the same warp slots come back under a new launch cycle
            // and global index. (An empty slot is simply filled.)
            let tb = x % f.tbs.len();
            if f.tbs[tb].occupied {
                apply_event(f, pols, 9, x, extra);
            }
            if !f.tbs[tb].occupied {
                f.tbs[tb] = TbState {
                    occupied: true,
                    global_index: 100 + extra as u32,
                    num_warps: WARPS_PER_TB as u32,
                    launched_at: f.cycle,
                    ..TbState::default()
                };
                for i in 0..WARPS_PER_TB {
                    f.warps[tb * WARPS_PER_TB + i] = WarpState {
                        active: true,
                        tb_slot: tb,
                        index_in_tb: i as u32,
                        ..WarpState::default()
                    };
                }
                for p in pols.iter_mut() {
                    p.on_tb_launch(tb, &f.view());
                }
            }
        }
        9 => {
            // Run a whole TB to completion (warps parked at a barrier stay).
            let tb = x % f.tbs.len();
            for i in 0..WARPS_PER_TB {
                apply_event(f, pols, 2, tb * WARPS_PER_TB + i, extra);
            }
        }
        _ => {
            // Out-of-band issue (no fresh order this cycle).
            if f.warps[slot].active && !f.warps[slot].finished && !f.warps[slot].at_barrier {
                issue(f, pols, (slot as u32) % UNITS, slot, extra & 1 == 0);
            }
        }
    }
}

pub fn issue(f: &mut Fixture, pols: &mut [&mut dyn WarpScheduler; 2], unit: u32, slot: WarpSlot, load: bool) {
    f.warps[slot].progress += 32;
    let tb = f.warps[slot].tb_slot;
    f.tbs[tb].progress += 32;
    if load {
        f.warps[slot].blocked_on_longlat = true;
    }
    let view = SchedView {
        cycle: f.cycle,
        warps: &f.warps,
        tbs: &f.tbs,
        tbs_waiting_in_tb_scheduler: f.fast,
    };
    for p in pols.iter_mut() {
        p.on_issue(
            unit,
            slot,
            IssueInfo {
                active_threads: 32,
                is_global_load: load,
            },
            &view,
        );
    }
}
