//! The issue half of an SM's cycle: each scheduler unit orders its warps,
//! picks the first that can issue and turns what it executed into timing,
//! or classifies the stall. The pick runs on [`crate::issue::IssueState`],
//! which this code keeps told of every architectural event.

use super::lsu::LsuEntry;
use super::{sched_view, Sm, TickReport};
use crate::decode::{IssueMeta, IssueTable};
use crate::issue::NextInstr;
use crate::scoreboard::WriteSet;
use crate::warp::{ExecEffect, LaunchCtx, Warp};
use pro_core::{IssueInfo, WarpScheduler, WarpState};
use pro_mem::{GlobalMem, MemSubsystem};
use pro_trace::{req_id, Event as TraceEvent, EventClass, StallReason, Tracer};

/// What one issue phase lends each of its scheduler units.
pub(super) struct IssueCx<'a> {
    pub(super) now: u64,
    pub(super) table: &'a IssueTable,
    gmem: &'a mut GlobalMem,
    mem: &'a mut MemSubsystem,
    pub(super) policy: &'a mut dyn WarpScheduler,
    pub(super) fast_phase: bool,
    reads_longlat: bool,
    report: &'a mut TickReport,
    pub(super) tracer: &'a mut dyn Tracer,
    // Whether `tracer` subscribed to the per-unit-cycle event classes,
    // asked once per phase.
    trace_stall: bool,
    trace_issue: bool,
    trace_simt: bool,
    trace_sb: bool,
}

/// Pop `warp`'s (slot `w`) SIMT entries whose reconvergence point its pc
/// has reached — the one place the issue phase does so, so a pop is
/// published as `SimtReconverge` whichever of its walks performs it.
#[inline]
fn reconverge(warp: &mut Warp, sm: u32, w: usize, cx: &mut IssueCx) {
    if !cx.trace_simt {
        warp.simt.reconverge();
        return;
    }
    let depth_before = warp.simt.depth();
    warp.simt.reconverge();
    if warp.simt.depth() < depth_before {
        let pc = warp.pc();
        cx.tracer.emit(cx.now, &TraceEvent::SimtReconverge { sm, warp: w as u32, pc });
    }
}

/// `warp`'s next instruction and whether its scoreboard lets it go: the
/// verdict [`crate::issue::IssueState::decide`] takes and a probe finds.
/// The caller has popped the SIMT entries due, or checked there are none.
#[inline]
fn next_instr(warp: &Warp, table: &IssueTable) -> (NextInstr, bool) {
    let next = NextInstr::of(table.at(warp.pc()));
    (next, next.ready(&warp.scoreboard))
}

/// What a probe of `warp` would find, without its side effects: `None` if
/// its SIMT top is at a reconvergence point, else [`next_instr`]. What
/// [`crate::issue::IssueState::ready_memo_holds`] holds the verdicts to.
pub(super) fn verdict_from_scratch(warp: &Warp, table: &IssueTable) -> Option<(NextInstr, bool)> {
    (!warp.simt.at_reconvergence()).then(|| next_instr(warp, table))
}

impl Sm {
    /// Second half of a cycle: scheduler ordering and instruction issue,
    /// one scheduler unit after the other.
    ///
    /// Global loads and stores act on `gmem` as they issue and a load
    /// registers with `mem` at once, so whatever issues next — this SM's
    /// next unit, then the SMs the GPU ticks after this one — sees them.
    /// Registration schedules no memory event and draws no sequence number,
    /// so the next SM's [`Sm::mem_phase`] does not depend on it.
    #[allow(clippy::too_many_arguments)]
    pub fn issue_phase(
        &mut self,
        now: u64,
        gmem: &mut GlobalMem,
        mem: &mut MemSubsystem,
        policy: &mut dyn WarpScheduler,
        fast_phase: bool,
        report: &mut TickReport,
        tracer: &mut dyn Tracer,
    ) {
        policy.begin_cycle(&self.sched_view(now, fast_phase));
        // The table moves out for the phase and back, so the units borrow it
        // beside `&mut self` without touching the shared refcount.
        let table = self.table.take().expect("kernel bound");
        let mut cx = IssueCx {
            now,
            table: &table,
            gmem,
            mem,
            fast_phase,
            reads_longlat: policy.order_reads_longlat(),
            policy,
            report,
            trace_stall: tracer.wants(EventClass::Stall),
            trace_issue: tracer.wants(EventClass::Issue),
            trace_simt: tracer.wants(EventClass::Simt),
            trace_sb: tracer.wants(EventClass::Scoreboard),
            tracer,
        };
        for unit in 0..self.cfg.units {
            self.issue_unit(unit, &mut cx);
            debug_assert!(self.issue.ready_memo_holds(now, |w| verdict_from_scratch(&self.warps[w], &table)));
            self.stats.unit_cycles += 1;
        }
        self.table = Some(table);
    }

    /// One scheduler unit's cycle (paper Algorithm 1): order the warps,
    /// issue the first that can.
    fn issue_unit(&mut self, unit: u32, cx: &mut IssueCx) {
        let view = sched_view(&self.sched_warps, &self.sched_tbs, cx.now, cx.fast_phase);
        self.issue.order(unit, cx.policy, &view, cx.reads_longlat);
        if cx.now & 63 == 0 {
            self.sample_ready_warps(unit, cx);
        }
        match self.pick_warp(unit, cx) {
            Ok(w) => self.issue_warp(unit, w, cx),
            Err(reason) => self.report_stall(unit, reason, cx),
        }
    }

    /// Ready-warp occupancy sample (paper §III: the size of the ready pool
    /// is what lets a scheduler hide latency).
    fn sample_ready_warps(&mut self, unit: u32, cx: &mut IssueCx) {
        let mut ready = 0u64;
        let mut m = self.issue.fetched(unit, cx.now);
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            let warp = &mut self.warps[w];
            reconverge(warp, self.id, w, cx);
            if warp.scoreboard.clear_of(cx.table.at(warp.pc()).hazard) {
                ready += 1;
            }
        }
        self.stats.ready_warp_sum += ready;
        self.stats.ready_samples += 1;
        self.stats.ready_hist.observe(ready);
    }

    /// [`crate::issue::IssueState::pick`] over this SM's warps: a probe
    /// reconverges the warp and tests its next instruction's decoded
    /// hazards; the pipelines open this unit-cycle are the SFU past its
    /// initiation interval and an LSU queue with room.
    fn pick_warp(&mut self, unit: u32, cx: &mut IssueCx) -> Result<usize, StallReason> {
        let open = [true, cx.now >= self.sfu_free_at, self.lsu.len() < self.cfg.lsu_queue];
        let Sm { issue, warps, id, .. } = self;
        issue.pick(unit, cx.now, open, |w| {
            let warp = &mut warps[w];
            reconverge(warp, *id, w, cx);
            next_instr(warp, cx.table)
        })
    }

    /// Take warp `w`'s verdict on its next instruction while the warp is in
    /// cache — at its launch and right after its issue — unless its SIMT
    /// top is at a reconvergence point: that pop is the walk's, so the
    /// warp stays untested until a probe.
    pub(super) fn decide_next(&mut self, w: usize, table: &IssueTable) {
        let warp = &self.warps[w];
        if !warp.simt.at_reconvergence() {
            let (next, _) = next_instr(warp, table);
            self.issue.decide(w, next, &warp.scoreboard);
        }
    }

    /// Nothing issued: count the unit-cycle under GPGPU-Sim's stall class
    /// (§II.B of the paper) and, for a tracer that asked, attribute it.
    fn report_stall(&mut self, unit: u32, reason: StallReason, cx: &mut IssueCx) {
        match reason {
            StallReason::Idle => self.stats.idle += 1,
            StallReason::Scoreboard => self.stats.scoreboard += 1,
            StallReason::Pipeline => self.stats.pipeline += 1,
        }
        if !cx.trace_stall {
            return;
        }
        let (now, sm) = (cx.now, self.id);
        cx.tracer.emit(now, &TraceEvent::UnitStall { sm, unit, reason });
        // Per-warp attribution: the failed pick left a verdict for every
        // fetched live warp, so each candidate's reason is a mask read.
        for &w in self.issue.last_order(unit) {
            let reason = self.issue.stall_reason(w, now);
            debug_assert_eq!(reason, self.stall_reason_from_scratch(w, now, cx.table), "warp {w}");
            cx.tracer.emit(now, &TraceEvent::WarpStall { sm, warp: w as u32, reason });
        }
    }

    /// [`crate::issue::IssueState::stall_reason`] re-derived from the warp
    /// itself: its scheduler flags, fetch time and next instruction against
    /// its scoreboard. The debug-build oracle beside the mask read.
    fn stall_reason_from_scratch(&self, w: usize, now: u64, table: &IssueTable) -> StallReason {
        let (warp, state) = (&self.warps[w], &self.sched_warps[w]);
        if state.at_barrier || state.finished || !state.active || now < warp.ibuf_ready_at {
            StallReason::Idle
        } else if !table.at(warp.pc()).ready(&warp.scoreboard) {
            StallReason::Scoreboard
        } else {
            StallReason::Pipeline
        }
    }

    /// Warp `w` issues: execute its instruction, account for it, start the
    /// next fetch and [`Sm::dispatch`] the effect.
    fn issue_warp(&mut self, unit: u32, w: usize, cx: &mut IssueCx) {
        let (now, sm) = (cx.now, self.id);
        let WarpState { tb_slot: tb, index_in_tb, .. } = self.sched_warps[w];
        let ctx = LaunchCtx {
            params: &self.params,
            ntid: self.threads_per_tb,
            nctaid: self.nctaid,
            ctaid: self.sched_tbs[tb].global_index,
            index_in_tb,
        };
        let issue_pc = self.warps[w].pc();
        let depth_before = self.warps[w].simt.depth();
        let (effect, active) = self.warps[w].execute(
            cx.table.program(),
            &ctx,
            cx.gmem,
            &mut self.shared[tb],
            &mut self.lines_buf,
        );
        if cx.trace_issue {
            cx.tracer.emit(
                now,
                &TraceEvent::WarpIssue {
                    sm,
                    unit: unit as u16,
                    warp: w as u16,
                    tb_slot: tb as u16,
                    pc: issue_pc,
                    active: active as u16,
                },
            );
        }
        if cx.trace_simt && self.warps[w].simt.depth() > depth_before {
            cx.tracer.emit(now, &TraceEvent::SimtDiverge { sm, warp: w as u32, pc: issue_pc });
        }
        self.stats.issued += 1;
        self.stats.instructions += 1;
        self.stats.thread_instructions += active as u64;
        // Progress accounting (paper §III.E: += active threads).
        self.sched_warps[w].progress += active as u64;
        self.sched_tbs[tb].progress += active as u64;
        self.warps[w].ibuf_ready_at = now + self.cfg.fetch_lat;
        self.issue.issued(w, now + self.cfg.fetch_lat);

        let reserved = self.dispatch(w, tb, effect, cx.table.at(issue_pc), cx);
        if effect != ExecEffect::Exit {
            self.decide_next(w, cx.table);
        }
        if let (Some(longlat), true) = (reserved, cx.trace_sb) {
            cx.tracer.emit(now, &TraceEvent::ScoreboardSet { sm, warp: w as u32, longlat });
        }
        cx.policy.on_issue(
            unit,
            w,
            IssueInfo {
                active_threads: active,
                is_global_load: matches!(effect, ExecEffect::GlobalLoad),
            },
            &self.sched_view(now, cx.fast_phase),
        );
    }

    /// Turn the `effect` of the instruction (`meta`) warp `w` of TB slot
    /// `tb` just executed into timing: scoreboard reservations with their
    /// writeback events, LSU entries over the lines it left in `lines_buf`,
    /// the barrier and exit bookkeeping. `Some(longlat)` if it reserved
    /// registers.
    fn dispatch(
        &mut self,
        w: usize,
        tb: usize,
        effect: ExecEffect,
        meta: &IssueMeta,
        cx: &mut IssueCx,
    ) -> Option<bool> {
        let now = cx.now;
        let ws = meta.write;
        if let ExecEffect::GlobalStore { changed: true }
        | ExecEffect::SharedStore { changed: true, .. }
        | ExecEffect::SharedAtomic { changed: true, .. } = effect
        {
            self.last_progress = now;
        }
        match effect {
            ExecEffect::Alu => {
                if ws.is_empty() {
                    return None;
                }
                self.warps[w].scoreboard.reserve(ws, false);
                self.wb_events.push(now + self.cfg.alu_lat(meta.lat), (w, ws));
                Some(false)
            }
            ExecEffect::Sfu => {
                self.sfu_free_at = now + self.cfg.sfu_ii;
                self.warps[w].scoreboard.reserve(ws, false);
                self.wb_events.push(now + self.cfg.sfu_lat, (w, ws));
                Some(false)
            }
            ExecEffect::GlobalLoad => {
                let access = self.next_access;
                self.next_access += 1;
                self.warps[w].scoreboard.reserve(ws, true);
                self.sched_warps[w].blocked_on_longlat = true;
                self.issue.block_longlat(w);
                cx.mem.begin_load(now, self.id, access, self.lines_buf.len() as u32);
                self.trace_coalesce(w, req_id(self.id, access), false, cx);
                self.access_map.insert(access, (w, ws));
                self.lsu.push_back(LsuEntry::global(access, &self.lines_buf, false));
                Some(true)
            }
            ExecEffect::GlobalStore { .. } => {
                // Stores are fire-and-forget: no request id.
                self.trace_coalesce(w, u64::MAX, true, cx);
                self.lsu.push_back(LsuEntry::global(u64::MAX, &self.lines_buf, true));
                None
            }
            ExecEffect::SharedLoad { occupancy } | ExecEffect::SharedAtomic { occupancy, .. } => {
                self.warps[w].scoreboard.reserve(ws, false);
                self.lsu.push_back(LsuEntry::Shared { warp: w, remaining: occupancy, wb: ws });
                Some(false)
            }
            ExecEffect::SharedStore { occupancy, .. } => {
                self.lsu.push_back(LsuEntry::Shared {
                    warp: w,
                    remaining: occupancy,
                    wb: WriteSet::EMPTY,
                });
                None
            }
            ExecEffect::Barrier => {
                self.arrive_at_barrier(w, tb, cx);
                None
            }
            ExecEffect::Exit => {
                self.finish_warp(w, tb, cx);
                None
            }
            ExecEffect::Branch | ExecEffect::Nop => None,
        }
    }

    fn trace_coalesce(&self, w: usize, req: u64, store: bool, cx: &mut IssueCx) {
        if cx.tracer.wants(EventClass::Mem) {
            cx.tracer.emit(
                cx.now,
                &TraceEvent::Coalesce {
                    sm: self.id,
                    warp: w as u32,
                    req,
                    lines: self.lines_buf.len() as u32,
                    store,
                },
            );
        }
    }

    /// Warp `w` issued a `Bar`: park it and count it at its TB's barrier,
    /// which it may be the last arrival of.
    fn arrive_at_barrier(&mut self, w: usize, tb: usize, cx: &mut IssueCx) {
        let now = cx.now;
        self.sched_warps[w].at_barrier = true;
        self.issue.park(w);
        self.sched_tbs[tb].warps_at_barrier += 1;
        if cx.tracer.wants(EventClass::Barrier) {
            cx.tracer.emit(
                now,
                &TraceEvent::BarrierArrive {
                    sm: self.id,
                    tb_slot: tb as u32,
                    warp: w as u32,
                },
            );
        }
        cx.policy.on_barrier_arrive(w, tb, &self.sched_view(now, cx.fast_phase));
        self.maybe_release_barrier(tb, cx);
    }

    /// Release TB slot `tb`'s barrier once every unfinished warp of the TB
    /// has arrived: the parked warps re-fetch.
    fn maybe_release_barrier(&mut self, tb: usize, cx: &mut IssueCx) {
        let now = cx.now;
        let t = &self.sched_tbs[tb];
        if t.warps_at_barrier == 0 || t.warps_at_barrier + t.warps_finished < t.num_warps {
            return;
        }
        self.last_progress = now;
        if cx.tracer.wants(EventClass::Barrier) {
            cx.tracer.emit(
                now,
                &TraceEvent::BarrierRelease {
                    sm: self.id,
                    tb_slot: tb as u32,
                },
            );
        }
        for w in self.warp_slots(tb) {
            if self.sched_warps[w].at_barrier {
                self.sched_warps[w].at_barrier = false;
                self.warps[w].ibuf_ready_at = now + self.cfg.fetch_lat;
                self.issue.unpark(w, now + self.cfg.fetch_lat);
            }
        }
        self.sched_tbs[tb].warps_at_barrier = 0;
        cx.policy.on_barrier_release(tb, &self.sched_view(now, cx.fast_phase));
    }

    /// Warp `w` issued its `Exit`: mark it finished; the last one retires
    /// the TB.
    fn finish_warp(&mut self, w: usize, tb: usize, cx: &mut IssueCx) {
        let now = cx.now;
        self.last_progress = now;
        self.sched_warps[w].finished = true;
        self.issue.exit(w);
        self.sched_tbs[tb].warps_finished += 1;
        let first = *self.first_warp_finish[tb].get_or_insert(now);
        cx.policy.on_warp_finish(w, tb, &self.sched_view(now, cx.fast_phase));
        if self.sched_tbs[tb].warps_finished == self.sched_tbs[tb].num_warps {
            cx.report.finished_tbs.push(self.sched_tbs[tb]);
            self.stats.wld_cycles += now - first;
            self.stats.tbs_completed += 1;
            self.retire_tb(tb, cx);
        } else {
            // A finishing warp can be the last arrival a barrier was
            // waiting on.
            self.maybe_release_barrier(tb, cx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::Rig;
    use super::*;
    use pro_core::SchedulerKind;
    use pro_isa::{CmpOp, Kernel, LaunchConfig, ProgramBuilder, Special, Src, Ty};
    /// 16 warps, each issuing 12 independent global loads back to back:
    /// the 8-entry LSU queue stays full while the warps stay ready.
    fn lsu_saturating_kernel() -> Kernel {
        let mut b = ProgramBuilder::new("lsu_sat");
        let (g, a, acc) = (b.reg(), b.reg(), b.reg());
        let vs: Vec<_> = (0..12).map(|_| b.reg()).collect();
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        for (i, &v) in vs.iter().enumerate() {
            b.ld_global(v, a, i as i32 * 4096);
        }
        b.mov(acc, Src::Imm(0));
        for &v in &vs {
            b.iadd(acc, acc, v);
        }
        b.st_global(acc, a, 0);
        b.exit();
        Kernel::new(b.build().unwrap(), LaunchConfig::linear(2, 512), vec![0])
    }

    /// Independent SFU ops: every warp is ready while the unit's
    /// initiation interval refuses it.
    fn sfu_saturating_kernel() -> Kernel {
        let mut b = ProgramBuilder::new("sfu_sat");
        let r = b.reg();
        let ds: Vec<_> = (0..8).map(|_| b.reg()).collect();
        b.mov(r, Src::imm_f32(0.5));
        for &d in &ds {
            b.sfu(pro_isa::SfuOp::Sin, d, r);
        }
        b.exit();
        Kernel::new(b.build().unwrap(), LaunchConfig::linear(2, 256), vec![])
    }

    /// Divergent if/else blocks on both sides of a barrier, with a load
    /// and a shared-memory round trip.
    fn barrier_divergent_kernel() -> Kernel {
        let mut b = ProgramBuilder::new("bar_div");
        let sh = b.shared_alloc(1024);
        let (g, a, v, t, s) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        let p0 = b.pred();
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.ld_global(v, a, 0);
        b.and(t, g, Src::Imm(1));
        b.setp(CmpOp::Eq, Ty::S32, p0, t, Src::Imm(0));
        for _ in 0..3 {
            b.if_else(
                p0,
                |b| {
                    b.iadd(v, v, Src::Imm(3));
                },
                |b| {
                    b.imad(v, v, Src::Imm(5), Src::Imm(1));
                },
            );
        }
        b.mov(t, Src::Special(Special::Tid));
        b.imad(s, t, Src::Imm(4), Src::Imm(sh));
        b.st_shared(v, s, 0);
        b.bar();
        b.ld_shared(t, s, 0);
        b.if_else(
            p0,
            |b| {
                b.iadd(v, v, t);
            },
            |b| {
                b.sfu(pro_isa::SfuOp::Sin, v, t);
            },
        );
        b.st_global(v, a, 0);
        b.exit();
        Kernel::new(b.build().unwrap(), LaunchConfig::linear(4, 256), vec![0])
    }

    /// Run `kernel` under `kind`, launching TBs as slots free up. With
    /// `forget` every verdict is dropped before every cycle, so each fetched
    /// warp is probed again as it was before verdicts were kept; without,
    /// every verdict is held to a from-scratch probe after every cycle.
    fn run_memo_rig(kernel: &Kernel, kind: SchedulerKind, forget: bool) -> Rig {
        let check = !forget;
        let blocks = kernel.launch.num_blocks();
        let mut rig = Rig::new(kernel, kind);
        let (mut next, mut done) = (0u32, 0u32);
        let (mut pipe_full_held, mut unfetched_held) = (0u64, 0u64);
        while done < blocks {
            while next < blocks && rig.sm.can_accept_tb() {
                rig.launch(next);
                next += 1;
            }
            if forget {
                rig.sm.issue.forget_verdicts();
            }
            let issued_before = rig.sm.stats.issued;
            let mut rep = TickReport::default();
            rig.mem.tick(rig.now);
            rig.sm.tick(
                rig.now,
                &mut rig.gmem,
                &mut rig.mem,
                rig.policy.as_mut(),
                next < blocks,
                &mut rep,
            );
            done += rep.finished_tbs.len() as u32;
            if check {
                let sm = &rig.sm;
                let table = sm.table.as_ref().unwrap();
                // A cycle in which nothing issued walked every fetched warp,
                // so each of them must hold a verdict; otherwise the lazy
                // walk may have left some untested.
                let complete = sm.stats.issued == issued_before;
                for w in 0..sm.cfg.max_warps {
                    let (memo, waiting) = sm.issue.memo_of(w);
                    let ctx = format!("{kind:?} cycle {} warp {w}", rig.now);
                    let (warp, sw) = (&sm.warps[w], &sm.sched_warps[w]);
                    let candidate = sw.active && !sw.finished;
                    let fetched = candidate && !sw.at_barrier && rig.now >= warp.ibuf_ready_at;
                    if memo.is_empty() && !waiting {
                        assert!(!(complete && fetched), "{ctx}: fetched warp without a verdict");
                        continue;
                    }
                    assert!(candidate, "{ctx}: verdict on a slot that is not a candidate");
                    match verdict_from_scratch(warp, table) {
                        None => panic!("{ctx}: verdict on a warp due to reconverge"),
                        Some((next, true)) => {
                            assert!(!waiting && memo == [next.class()], "{ctx}: ready in {memo:?}, {waiting}")
                        }
                        Some((_, false)) => assert!(waiting && memo.is_empty(), "{ctx}: refused in {memo:?}"),
                    }
                    pipe_full_held += memo.iter().filter(|&&c| c > 0).count() as u64;
                    unfetched_held += u64::from(!fetched);
                }
            }
            rig.now += 1;
            assert!(rig.now < 400_000, "{kind:?} did not finish");
        }
        if check {
            assert!(pipe_full_held > 0, "{kind:?}: no verdict waited on a full pipeline");
            assert!(unfetched_held > 0, "{kind:?}: no verdict was taken before its fetch");
        }
        rig
    }

    #[test]
    fn ready_memo_agrees_with_a_from_scratch_probe_and_changes_no_stat() {
        use SchedulerKind::{Gto, Lrr, Pro, Tl};
        for kernel in [lsu_saturating_kernel(), sfu_saturating_kernel(), barrier_divergent_kernel()] {
            for kind in [Lrr, Gto, Pro, Tl] {
                let memo = run_memo_rig(&kernel, kind, false);
                let reprobe = run_memo_rig(&kernel, kind, true);
                let name = &kernel.program.name;
                assert_eq!(memo.now, reprobe.now, "{name} {kind:?}: finish cycle");
                assert_eq!(memo.sm.stats, reprobe.sm.stats, "{name} {kind:?}");
                assert!(memo.sm.stats.pipeline > 0, "{name} {kind:?}: no pipeline stall");
                let (m, r) = (memo.sm.issue_prof(), reprobe.sm.issue_prof());
                assert_eq!(
                    (m.orders_reused, m.orders_recomputed),
                    (r.orders_reused, r.orders_recomputed),
                    "{name} {kind:?}: the verdicts moved a counter they do not own"
                );
                assert!(m.probes < r.probes, "{name} {kind:?}: {} !< {}", m.probes, r.probes);
                assert_eq!(r.ready_hits, 0, "dropped verdicts serve nothing");
            }
        }
    }
}
