//! Property-based tests of the `order_dirty` reuse contract (DESIGN.md
//! §15): for every policy, an engine that caches each unit's last order
//! and reuses it while the policy reports clean (and the unit's candidate
//! and blocked fingerprints are unchanged) must produce exactly the
//! orderings of an engine that recomputes from scratch every cycle. Runs
//! on the in-repo `pro_core::prop` harness, lockstep like `prop_calq.rs`.
//!
//! TL, GTO and PRO produce their orders incrementally (membership masks, a
//! cached age order, an inverse rank table); `oracle/` keeps the
//! from-scratch bodies they replaced, and a second storm holds each policy
//! to its oracle step by step.

mod oracle;

use pro_core::prop::{any, check, vec_of, Config, Strategy, StrategyExt};
use pro_core::{
    prop_assert_eq, IssueInfo, Pro, ProConfig, SchedView, SchedulerKind, TbState,
    WarpScheduler, WarpSlot, WarpState,
};

const WARPS_PER_TB: usize = 4;
const UNITS: u32 = 2;

#[derive(Debug, Clone)]
struct Fixture {
    warps: Vec<WarpState>,
    tbs: Vec<TbState>,
    fast: bool,
    cycle: u64,
}

impl Fixture {
    fn view(&self) -> SchedView<'_> {
        SchedView {
            cycle: self.cycle,
            warps: &self.warps,
            tbs: &self.tbs,
            tbs_waiting_in_tb_scheduler: self.fast,
        }
    }
}

/// Strategy: a random 2-6 TB fixture, warps spread across both units.
fn arb_fixture() -> impl Strategy<Value = Fixture> {
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

/// The engine's per-unit issue-order cache, mirrored exactly: last order,
/// candidate bitset, blocked bitset, and a validity flag (`IssueState::order`
/// keeps the same four alongside each scheduler unit).
struct OrderCache {
    bufs: [Vec<WarpSlot>; 2],
    cands: [u64; 2],
    blocked: [u64; 2],
    valid: [bool; 2],
    reuses: u64,
    recomputes: u64,
}

impl OrderCache {
    fn new() -> Self {
        OrderCache {
            bufs: [Vec::new(), Vec::new()],
            cands: [0; 2],
            blocked: [0; 2],
            valid: [false; 2],
            reuses: 0,
            recomputes: 0,
        }
    }
}

/// A unit's candidate list (ascending slot order, like the engine's bitset
/// walk) plus the candidate and blocked fingerprints the engine compares.
fn unit_inputs(f: &Fixture, unit: u32) -> (Vec<WarpSlot>, u64, u64) {
    let mut cands = Vec::new();
    let (mut cbits, mut bbits) = (0u64, 0u64);
    for (w, warp) in f.warps.iter().enumerate() {
        if w as u32 % UNITS != unit || !warp.active {
            continue;
        }
        if warp.blocked_on_longlat {
            bbits |= 1 << w;
        }
        if !warp.finished {
            cands.push(w);
            cbits |= 1 << w;
        }
    }
    (cands, cbits, bbits)
}

/// Deliver one fixture-mutating event to both policies. Mirrors the storm
/// harness in `prop_sched.rs`, with one addition the engine performs
/// without any policy hook: `blocked_on_longlat` flips (event 3), which is
/// what the `order_reads_longlat` fingerprint must absorb for two-level.
fn apply_event(
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

fn issue(f: &mut Fixture, pols: &mut [&mut dyn WarpScheduler; 2], unit: u32, slot: WarpSlot, load: bool) {
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

/// The core lockstep property: drive a scratch instance (order() every
/// unit-cycle) and an incremental instance (engine reuse condition) of the
/// same policy through identical event storms; every unit-cycle must see
/// identical orderings, whether reused or recomputed. Tick events issue
/// the order's front warp *between* sibling units, which is exactly the
/// mid-cycle window where PRO's deferred rank rebuild must keep the unit
/// dirty (DESIGN.md §15).
#[test]
fn reused_orders_match_scratch_recomputes_for_every_policy() {
    check(
        Config::default(),
        (arb_fixture(), vec_of((0u8..6, 0usize..48, any::<u8>()), 0..48)),
        |(f0, events): &(Fixture, Vec<(u8, usize, u8)>)| {
            for kind in SchedulerKind::ALL {
                let mut f = f0.clone();
                let mut scratch = kind.build(f.warps.len(), f.tbs.len(), UNITS);
                let mut inc = kind.build(f.warps.len(), f.tbs.len(), UNITS);
                for t in 0..f.tbs.len() {
                    scratch.on_tb_launch(t, &f.view());
                    inc.on_tb_launch(t, &f.view());
                }
                let mut cache = OrderCache::new();
                let mut scratch_out = Vec::new();
                for &(ev, x, extra) in events {
                    if ev != 0 {
                        let mut pols: [&mut dyn WarpScheduler; 2] =
                            [scratch.as_mut(), inc.as_mut()];
                        apply_event(&mut f, &mut pols, ev, x, extra);
                        continue;
                    }
                    // Tick: one simulated cycle with a fresh order per unit.
                    f.cycle += 1;
                    if extra & 0x80 != 0 {
                        // The TB scheduler drained; the phase flip is only
                        // ever observed at a cycle boundary (SM contract).
                        f.fast = false;
                    }
                    scratch.begin_cycle(&f.view());
                    inc.begin_cycle(&f.view());
                    for unit in 0..UNITS {
                        let u = unit as usize;
                        let (cands, cbits, bbits) = unit_inputs(&f, unit);
                        scratch.order(unit, &f.view(), &cands, &mut scratch_out);
                        // The engine's exact reuse condition (`IssueState::order`).
                        let reuse = cache.valid[u]
                            && cache.cands[u] == cbits
                            && (!inc.order_reads_longlat() || cache.blocked[u] == bbits)
                            && !inc.order_dirty(unit);
                        if reuse {
                            cache.reuses += 1;
                        } else {
                            inc.order(unit, &f.view(), &cands, &mut cache.bufs[u]);
                            cache.cands[u] = cbits;
                            cache.blocked[u] = bbits;
                            cache.valid[u] = true;
                            cache.recomputes += 1;
                        }
                        prop_assert_eq!(
                            &cache.bufs[u],
                            &scratch_out,
                            "{} unit {} cycle {} (reused={})",
                            kind.name(),
                            unit,
                            f.cycle,
                            reuse
                        );
                        // Sometimes issue the front runnable warp before the
                        // sibling unit orders — the engine does this, and it
                        // is the window for PRO's deferred-rank hazard.
                        if extra & (1 << u) != 0 {
                            let front = cache.bufs[u].iter().copied().find(|&w| {
                                let warp = &f.warps[w];
                                warp.active
                                    && !warp.finished
                                    && !warp.at_barrier
                                    && !warp.blocked_on_longlat
                            });
                            if let Some(w) = front {
                                let mut pols: [&mut dyn WarpScheduler; 2] =
                                    [scratch.as_mut(), inc.as_mut()];
                                issue(&mut f, &mut pols, unit, w, extra & 4 != 0);
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

fn state_bytes(p: &dyn WarpScheduler) -> Vec<u8> {
    let mut w = pro_core::Writer::new();
    p.save_state(&mut w);
    w.into_bytes()
}

/// TL, GTO and PRO against the from-scratch `order()` bodies they replaced
/// (`oracle/`): the same storm into both, every emitted permutation equal
/// and — since TL's `order()` moves its queues — the serialized state equal
/// after every step. On top of the events above the storm retires TBs and
/// relaunches into their slots (6, 9), hides warps from the candidate slice and
/// brings them back (7), hands the candidates over reversed or rotated, and
/// sends the incremental policy through `save_state` → fresh policy →
/// `load_state` (8) while the oracle carries on, so whatever the policy
/// derives after a restore must reproduce what it held before.
#[test]
fn incremental_orders_equal_their_from_scratch_oracles() {
    check(
        Config::default(),
        (arb_fixture(), vec_of((0u8..10, 0usize..48, any::<u8>()), 0..64)),
        |(f0, events): &(Fixture, Vec<(u8, usize, u8)>)| {
            let (nw, nt) = (f0.warps.len(), f0.tbs.len());
            for kind in [SchedulerKind::Tl, SchedulerKind::Gto, SchedulerKind::Pro] {
                let mut f = f0.clone();
                let mut want = oracle::scratch(kind, nw, nt, UNITS).expect("has an oracle");
                let mut got = kind.build(nw, nt, UNITS);
                for t in 0..nt {
                    want.on_tb_launch(t, &f.view());
                    got.on_tb_launch(t, &f.view());
                }
                let mut hidden = 0u64;
                let (mut want_out, mut got_out) = (Vec::new(), vec![99; 3]);
                for (step, &(ev, x, extra)) in events.iter().enumerate() {
                    match ev {
                        0 => {
                            f.cycle += 1;
                            if extra & 0x80 != 0 {
                                f.fast = false;
                            }
                            want.begin_cycle(&f.view());
                            got.begin_cycle(&f.view());
                            for unit in 0..UNITS {
                                let (mut cands, _, _) = unit_inputs(&f, unit);
                                cands.retain(|&w| hidden >> w & 1 == 0);
                                if extra & 8 != 0 {
                                    cands.reverse();
                                }
                                if extra & 16 != 0 && !cands.is_empty() {
                                    let by = x % cands.len();
                                    cands.rotate_left(by);
                                }
                                want.order(unit, &f.view(), &cands, &mut want_out);
                                got.order(unit, &f.view(), &cands, &mut got_out);
                                prop_assert_eq!(
                                    &got_out,
                                    &want_out,
                                    "{} unit {} step {} candidates {:?}",
                                    kind.name(),
                                    unit,
                                    step,
                                    cands
                                );
                                if extra & 32 != 0 {
                                    // A launch lands between sibling units:
                                    // PRO orders warps it has not ranked yet.
                                    let mut pols: [&mut dyn WarpScheduler; 2] =
                                        [want.as_mut(), got.as_mut()];
                                    apply_event(&mut f, &mut pols, 6, x, extra);
                                }
                                if extra & (1 << unit) != 0 {
                                    let front = got_out.iter().copied().find(|&w| {
                                        !f.warps[w].at_barrier && !f.warps[w].blocked_on_longlat
                                    });
                                    if let Some(w) = front {
                                        let mut pols: [&mut dyn WarpScheduler; 2] =
                                            [want.as_mut(), got.as_mut()];
                                        issue(&mut f, &mut pols, unit, w, extra & 4 != 0);
                                    }
                                }
                            }
                        }
                        7 => hidden ^= 1 << (x % nw),
                        8 => {
                            let bytes = state_bytes(got.as_ref());
                            got = kind.build(nw, nt, UNITS);
                            got.load_state(&mut pro_core::Reader::new(&bytes))
                                .expect("own state loads");
                        }
                        _ => {
                            let mut pols: [&mut dyn WarpScheduler; 2] =
                                [want.as_mut(), got.as_mut()];
                            apply_event(&mut f, &mut pols, ev, x, extra);
                        }
                    }
                    prop_assert_eq!(
                        state_bytes(got.as_ref()),
                        state_bytes(want.as_ref()),
                        "{} state after step {} (event {})",
                        kind.name(),
                        step,
                        ev
                    );
                }
            }
            Ok(())
        },
    );
}

/// Regression: PRO defers rank rebuilds to `begin_cycle`, so an `order()`
/// computed while a rebuild is queued (an event landed between sibling
/// units) is deliberately stale and must NOT report clean — next cycle's
/// recompute would see the rebuilt table. This is the exact hazard the
/// deferred-clear in `Pro::order` guards.
#[test]
fn pro_stays_dirty_while_a_rank_rebuild_is_queued() {
    let mut f = Fixture {
        warps: vec![WarpState::default(); 3 * WARPS_PER_TB],
        tbs: vec![TbState::default(); 3],
        fast: true,
        cycle: 100,
    };
    for t in 0..3 {
        f.tbs[t] = TbState {
            occupied: true,
            global_index: t as u32,
            progress: 0,
            num_warps: WARPS_PER_TB as u32,
            warps_at_barrier: 0,
            warps_finished: 0,
            launched_at: t as u64,
        };
        for w in 0..WARPS_PER_TB {
            let slot = t * WARPS_PER_TB + w;
            f.warps[slot] = WarpState {
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
    let mut pro = Pro::new(f.warps.len(), f.tbs.len(), ProConfig::default());
    for t in 0..3 {
        pro.on_tb_launch(t, &f.view());
    }
    pro.begin_cycle(&f.view());
    let mut out = Vec::new();
    let (cands0, _, _) = unit_inputs(&f, 0);
    pro.order(0, &f.view(), &cands0, &mut out);
    assert!(!pro.order_dirty(0), "clean after an in-sync recompute");
    // Unit 0 retires a warp mid-cycle: the class change queues a rank
    // rebuild that only lands at the next begin_cycle.
    f.warps[0].finished = true;
    f.tbs[0].warps_finished = 1;
    pro.on_warp_finish(0, 0, &f.view());
    let (cands1, _, _) = unit_inputs(&f, 1);
    pro.order(1, &f.view(), &cands1, &mut out);
    assert!(
        pro.order_dirty(1),
        "an order computed from a stale rank table must stay dirty"
    );
    // Once begin_cycle lands the rebuild, a recompute goes clean again.
    f.cycle += 1;
    pro.begin_cycle(&f.view());
    pro.order(1, &f.view(), &cands1, &mut out);
    assert!(!pro.order_dirty(1), "clean after the rebuilt-table recompute");
}

/// LRR's order is defined as "sort the candidates by distance from the
/// slot after the last issued one". The implementation rotates instead
/// when the candidates arrive ascending (as the engine hands them over) and
/// falls back to the sort otherwise; both must equal the definition for
/// any candidate set and any cursor.
#[test]
fn lrr_rotation_equals_the_sort_it_replaced() {
    use pro_core::Lrr;
    const MAX_WARPS: usize = 48;
    let info = IssueInfo {
        active_threads: 32,
        is_global_load: false,
    };
    check(
        Config::default(),
        (
            arb_fixture(),
            any::<u64>(),            // candidate set, one bit per slot
            vec_of(0usize..80, 0..12), // or an arbitrary list, maybe unsorted/out of range
            any::<bool>(),
            0usize..MAX_WARPS,
            any::<bool>(),
        ),
        |(f, bits, list, use_list, cursor, moved)| {
            let cands: Vec<WarpSlot> = if *use_list {
                list.clone()
            } else {
                (0..MAX_WARPS).filter(|w| bits >> w & 1 != 0).collect()
            };
            let mut lrr = Lrr::new(MAX_WARPS, UNITS);
            if *moved {
                lrr.on_issue(1, *cursor, info, &f.view());
            }
            let last = if *moved { *cursor } else { MAX_WARPS - 1 };
            let start = (last + 1) % MAX_WARPS;
            let mut want = cands.clone();
            want.sort_by_key(|&w| (w + MAX_WARPS - start) % MAX_WARPS);
            let mut got = vec![99; 3]; // stale contents must be replaced
            lrr.order(1, &f.view(), &cands, &mut got);
            prop_assert_eq!(got, want);
            Ok(())
        },
    );
}
