//! Property-based tests of the incremental `order()` bodies (DESIGN.md
//! §15). TL, GTO and PRO produce their orders incrementally (membership
//! masks, a cached age order, an inverse rank table); `oracle/` keeps the
//! from-scratch bodies they replaced, and a storm (`storm/`, on the in-repo
//! `pro_core::prop` harness, lockstep like `prop_calq.rs`) holds each policy
//! to its oracle step by step. The `order_version` reuse contract itself is
//! tested where the engine's reuse condition lives: `pro-sm`'s
//! `tests/order_reuse.rs`.

mod oracle;
mod storm;

use pro_core::prop::{any, check, vec_of, Config};
use pro_core::{
    prop_assert_eq, IssueInfo, Pro, ProConfig, SchedulerKind, TbState, WarpScheduler, WarpSlot,
    WarpState,
};
use storm::{apply_event, arb_fixture, candidates, issue, Fixture, UNITS, WARPS_PER_TB};

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
                                let mut cands = candidates(&f, unit);
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

/// PRO defers rank rebuilds to `begin_cycle`, so an event between sibling
/// units (unit 0 retires a warp, then unit 1 orders) leaves the rank table,
/// and with it the order version, as it was: unit 1's order is last
/// cycle's, and the engine may reuse it. The next cycle's rebuild moves the
/// version of both units.
#[test]
fn pro_keeps_its_order_version_until_a_queued_rank_rebuild_lands() {
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
                progress: (slot as u64 * 7) % 5,
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
    let (mut out0, mut out1) = (Vec::new(), Vec::new());
    let cands1 = candidates(&f, 1);
    pro.order(0, &f.view(), &candidates(&f, 0), &mut out0);
    pro.order(1, &f.view(), &cands1, &mut out1);
    let (v0, v1) = (pro.order_version(0), pro.order_version(1));
    // Unit 0 retires a warp mid-cycle: the class change queues a rank
    // rebuild that only lands at the next begin_cycle.
    f.warps[0].finished = true;
    f.tbs[0].warps_finished = 1;
    pro.on_warp_finish(0, 0, &f.view());
    assert_eq!(pro.order_version(1), v1, "an event between sibling units keeps unit 1's version");
    let mut again = Vec::new();
    pro.order(1, &f.view(), &cands1, &mut again);
    assert_eq!(again, out1, "so a recompute under it is the order the engine reuses");
    // The rebuild lands: both units' cached orders are invalid.
    f.cycle += 1;
    pro.begin_cycle(&f.view());
    assert_ne!(pro.order_version(0), v0, "the rebuild moves unit 0's version");
    assert_ne!(pro.order_version(1), v1, "the rebuild moves unit 1's version");
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
