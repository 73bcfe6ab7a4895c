//! The `order_version` reuse contract (DESIGN.md §15), held against the
//! code that relies on it: for every policy, the orders [`IssueState::order`]
//! keeps — reused while the policy's order version and the unit's candidate
//! and blocked sets are unchanged — must be exactly those of a policy
//! instance that recomputes from scratch every unit-cycle. The storm is
//! `pro-core`'s (`crates/core/tests/storm`, included by path).

#[path = "../../core/tests/storm/mod.rs"]
mod storm;

use pro_core::prop::{any, check, vec_of, Config};
use pro_core::{prop_assert_eq, SchedulerKind, WarpScheduler, WarpState};
use pro_sm::{IssueState, Scoreboard};
use storm::{apply_event, arb_fixture, candidates, issue, Fixture, UNITS};

/// Tell `state` what an event did to the warps, through the mutators the
/// SM reports the same changes with.
fn report(state: &mut IssueState, was: &[WarpState], now: &[WarpState]) {
    let candidate = |s: &WarpState| s.active && !s.finished;
    for (w, (was, now)) in was.iter().zip(now).enumerate() {
        if !now.active {
            if was.active {
                state.retire(w);
            }
            continue;
        }
        match (candidate(was), candidate(now)) {
            (false, true) => state.launch(w, 0),
            (true, false) => state.exit(w),
            _ => {}
        }
        if now.blocked_on_longlat {
            state.block_longlat(w);
        } else {
            state.release_write(w, &Scoreboard::default());
        }
    }
}

/// Drive a scratch instance (`order()` every unit-cycle) and an incremental
/// instance (behind the production `IssueState::order`) of the same policy
/// through identical event storms; every unit-cycle must see identical
/// orderings, whether reused or recomputed. Tick events issue the order's
/// front warp *between* sibling units, which is exactly the mid-cycle window
/// where PRO's rank table (and so its version) is deliberately stale.
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
                let mut state = IssueState::new(f.warps.len(), UNITS);
                report(&mut state, &vec![WarpState::default(); f.warps.len()], &f.warps);
                let mut scratch_out = Vec::new();
                for &(ev, x, extra) in events {
                    let was = f.warps.clone();
                    if ev != 0 {
                        let mut pols: [&mut dyn WarpScheduler; 2] = [scratch.as_mut(), inc.as_mut()];
                        apply_event(&mut f, &mut pols, ev, x, extra);
                        report(&mut state, &was, &f.warps);
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
                        scratch.order(unit, &f.view(), &candidates(&f, unit), &mut scratch_out);
                        let reads_longlat = inc.order_reads_longlat();
                        let reused = state.prof().orders_reused;
                        state.order(unit, inc.as_mut(), &f.view(), reads_longlat);
                        prop_assert_eq!(
                            state.last_order(unit),
                            &scratch_out[..],
                            "{} unit {} cycle {} (reused={})",
                            kind.name(),
                            unit,
                            f.cycle,
                            state.prof().orders_reused > reused
                        );
                        // Sometimes issue the front runnable warp before the
                        // sibling unit orders — the engine does this, and it
                        // is the window where PRO's ranks lag its events.
                        if extra & (1 << unit) != 0 {
                            let front = state.last_order(unit).iter().copied().find(|&w| {
                                let warp = &f.warps[w];
                                !warp.at_barrier && !warp.blocked_on_longlat
                            });
                            if let Some(w) = front {
                                let was = f.warps.clone();
                                let mut pols: [&mut dyn WarpScheduler; 2] = [scratch.as_mut(), inc.as_mut()];
                                issue(&mut f, &mut pols, unit, w, extra & 4 != 0);
                                report(&mut state, &was, &f.warps);
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
