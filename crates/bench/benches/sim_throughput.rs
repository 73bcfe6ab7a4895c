//! Microbenchmarks of the simulator's own hot paths — the overhead budget
//! that keeps the full Table II sweep tractable: cache lookups, FR-FCFS
//! arbitration, and the per-cycle ordering cost of each scheduling policy
//! (PRO's sorting is the paper's "few tens of cycles" hardware claim; here
//! it is nanoseconds of host time).
//!
//! These inner loops are sub-microsecond, so each timed iteration batches
//! `BATCH` operations and the reported time is per batch.

use pro_bench::runner::Runner;
use pro_core::{SchedView, SchedulerKind, TbState, WarpScheduler, WarpState};

#[path = "../../core/tests/oracle/mod.rs"]
mod oracle;
#[path = "../../sm/tests/oracle/mod.rs"]
mod pick_oracle;
use pro_mem::{Cache, CacheConfig, DramChannel, DramConfig};
use std::hint::black_box;

/// Operations per timed iteration for the component microbenches.
const BATCH: u32 = 10_000;

fn bench_cache(r: &mut Runner) {
    let mut cache: Cache<u64> = Cache::new(CacheConfig::l1_16k());
    for line in 0..64u64 {
        cache.access(line, 0);
        cache.fill(line);
    }
    let mut i = 0u64;
    r.bench("l1_hit_lookup_x10k", || {
        for _ in 0..BATCH {
            i = (i + 1) % 64;
            black_box(cache.access(i, 0));
        }
    });

    let mut chan: DramChannel<u32> = DramChannel::new(DramConfig::default());
    let mut now = 0u64;
    let mut line = 0u64;
    r.bench("dram_frfcfs_tick_x10k", || {
        for _ in 0..BATCH {
            if chan.can_accept() {
                line = line.wrapping_add(97);
                chan.push(now, line, 0);
            }
            let res = chan.tick(now);
            now += 1;
            black_box(res);
        }
    });
}

fn bench_policy_order(r: &mut Runner) {
    // 8 TBs x 6 warps = 48 warps, the full Fermi complement.
    let warps: Vec<WarpState> = (0..48)
        .map(|w| WarpState {
            active: true,
            tb_slot: w / 6,
            index_in_tb: (w % 6) as u32,
            progress: (w as u64 * 37) % 911,
            at_barrier: false,
            finished: false,
            blocked_on_longlat: w % 5 == 0,
        })
        .collect();
    let tbs: Vec<TbState> = (0..8)
        .map(|t| TbState {
            occupied: true,
            global_index: t as u32,
            progress: (t as u64 * 131) % 1777,
            num_warps: 6,
            warps_at_barrier: 0,
            warps_finished: 0,
            launched_at: t as u64,
        })
        .collect();
    let candidates: Vec<usize> = (0..48).step_by(2).collect();
    for kind in SchedulerKind::PAPER {
        let mut policy = kind.build(48, 8, 2);
        // PRO needs TB-launch events before ordering.
        {
            let view = SchedView {
                cycle: 0,
                warps: &warps,
                tbs: &tbs,
                tbs_waiting_in_tb_scheduler: true,
            };
            for t in 0..8 {
                policy.on_tb_launch(t, &view);
            }
        }
        let mut out = Vec::with_capacity(48);
        let mut cycle = 0u64;
        r.bench(&format!("policy_order/{}_x10k", kind.name()), || {
            for _ in 0..BATCH {
                cycle += 1;
                let view = SchedView {
                    cycle,
                    warps: &warps,
                    tbs: &tbs,
                    tbs_waiting_in_tb_scheduler: true,
                };
                policy.begin_cycle(&view);
                policy.order(0, &view, &candidates, &mut out);
                black_box(out.len());
            }
        });
    }
}

/// One cycle of the recorded warp-state trace.
#[derive(Clone, Copy)]
enum Ev {
    /// Quiet cycle: the common stall-heavy case.
    None,
    /// A unit issued: cursor/greedy movement plus progress.
    Issue { unit: u32, slot: usize },
    /// A long-latency block or release (no policy hook — the engine
    /// fingerprints these for `order_reads_longlat` policies).
    Flip { slot: usize },
}

/// The recorded warp-state trace behind the `issue/` and `order/` rows —
/// sparse issue events, long-latency block/unblock flips, progress drift at
/// stall-heavy rates — over a full SM (8 TBs x 6 warps, two units). Every
/// row replays the same precomputed schedule from the same seed, so rows
/// differ only in ordering cost.
struct IssueTrace {
    schedule: Vec<Ev>,
    base_warps: Vec<WarpState>,
    tbs: Vec<TbState>,
    /// Per-unit candidates; static across the trace (no launch/finish
    /// events), so the engine's candidate-set check is vacuous and elided.
    cands: Vec<Vec<usize>>,
}

impl IssueTrace {
    const UNITS: u32 = 2;
    const WARPS: usize = 48;

    fn record() -> Self {
        // ~1/16 of cycles issue, ~1/32 flip a blocked bit: the density the
        // shootout's memory-bound kernels sustain in steady state.
        let mut rng = pro_core::rng::SplitMix64::new(0x15c0_de01);
        let schedule = (0..BATCH)
            .map(|_| match rng.gen_range(0u32..64) {
                0..=3 => {
                    let unit = rng.gen_range(0u32..Self::UNITS);
                    let slot = rng.gen_range(0usize..Self::WARPS / 2) * 2 + unit as usize;
                    Ev::Issue { unit, slot }
                }
                4..=5 => Ev::Flip {
                    slot: rng.gen_range(0usize..Self::WARPS),
                },
                _ => Ev::None,
            })
            .collect();
        let base_warps = (0..Self::WARPS)
            .map(|w| WarpState {
                active: true,
                tb_slot: w / 6,
                index_in_tb: (w % 6) as u32,
                progress: (w as u64 * 37) % 911,
                at_barrier: false,
                finished: false,
                blocked_on_longlat: w % 5 == 0,
            })
            .collect();
        let tbs = (0..8)
            .map(|t| TbState {
                occupied: true,
                global_index: t as u32,
                progress: (t as u64 * 131) % 1777,
                num_warps: 6,
                warps_at_barrier: 0,
                warps_finished: 0,
                launched_at: t as u64,
            })
            .collect();
        let cands = (0..Self::UNITS as usize)
            .map(|u| (u..Self::WARPS).step_by(Self::UNITS as usize).collect())
            .collect();
        IssueTrace {
            schedule,
            base_warps,
            tbs,
            cands,
        }
    }

    fn view<'a>(&'a self, cycle: u64, warps: &'a [WarpState]) -> SchedView<'a> {
        SchedView {
            cycle,
            warps,
            tbs: &self.tbs,
            tbs_waiting_in_tb_scheduler: true,
        }
    }

    fn launch(&self, policy: &mut dyn WarpScheduler) {
        for t in 0..self.tbs.len() {
            policy.on_tb_launch(t, &self.view(0, &self.base_warps));
        }
    }

    /// Apply one recorded event to the warp state and the policy.
    fn apply(&self, ev: Ev, cycle: u64, warps: &mut [WarpState], policy: &mut dyn WarpScheduler) {
        match ev {
            Ev::None => {}
            Ev::Issue { unit, slot } => {
                warps[slot].progress += 32;
                let info = pro_core::IssueInfo {
                    active_threads: 32,
                    is_global_load: false,
                };
                policy.on_issue(unit, slot, info, &self.view(cycle, warps));
            }
            Ev::Flip { slot } => {
                warps[slot].blocked_on_longlat = !warps[slot].blocked_on_longlat;
            }
        }
    }

    /// One pass over the trace calling `order()` for every unit-cycle.
    fn replay_every_cycle(
        &self,
        policy: &mut dyn WarpScheduler,
        warps: &mut [WarpState],
        cycle: &mut u64,
        out: &mut Vec<usize>,
    ) {
        for &ev in &self.schedule {
            *cycle += 1;
            self.apply(ev, *cycle, warps, policy);
            let view = self.view(*cycle, warps);
            policy.begin_cycle(&view);
            for unit in 0..Self::UNITS {
                policy.order(unit, &view, &self.cands[unit as usize], out);
                black_box(out.len());
            }
        }
    }

    /// Time [`IssueTrace::replay_every_cycle`] on a freshly launched policy.
    fn bench_every_cycle(
        &self,
        r: &mut Runner,
        name: &str,
        mut policy: Box<dyn WarpScheduler>,
    ) -> Option<pro_bench::runner::Summary> {
        let mut warps = self.base_warps.clone();
        self.launch(policy.as_mut());
        let mut out = Vec::with_capacity(Self::WARPS);
        let mut cycle = 0u64;
        r.bench(name, || {
            self.replay_every_cycle(policy.as_mut(), &mut warps, &mut cycle, &mut out)
        })
    }
}

/// The incremental issue path (DESIGN.md §15) against the eager one, per
/// policy: the recorded trace replayed through `order()` two ways. The
/// *scratch* flavor reorders every unit-cycle, which is what the engine did
/// before the `order_dirty` contract; the *incremental* flavor mirrors the
/// engine's reuse condition (policy clean + candidate set unchanged +
/// blocked set unchanged when `order_reads_longlat`) and skips the call
/// when it holds.
fn bench_issue_path(r: &mut Runner, trace: &IssueTrace) {
    const UNITS: u32 = IssueTrace::UNITS;
    let unit_mask =
        |u: usize| -> u64 { trace.cands[u].iter().fold(0u64, |m, &w| m | 1u64 << w) };

    for kind in SchedulerKind::ALL {
        let scratch = trace.bench_every_cycle(
            r,
            &format!("issue/scratch_{}_x10k", kind.name()),
            kind.build(IssueTrace::WARPS, 8, UNITS),
        );

        // Incremental flavor: the engine's reuse condition, same trace.
        let mut warps = trace.base_warps.clone();
        let mut policy = kind.build(IssueTrace::WARPS, 8, UNITS);
        trace.launch(policy.as_mut());
        let mut longlat_mask = trace
            .base_warps
            .iter()
            .enumerate()
            .fold(0u64, |m, (w, ws)| m | (ws.blocked_on_longlat as u64) << w);
        let mut cached_blocked = [0u64; UNITS as usize];
        let mut cached_valid = [false; UNITS as usize];
        let mut out = Vec::with_capacity(IssueTrace::WARPS);
        let mut cycle = 0u64;
        let (mut reused, mut total) = (0u64, 0u64);
        let incr = r.bench(&format!("issue/incremental_{}_x10k", kind.name()), || {
            for &ev in &trace.schedule {
                cycle += 1;
                trace.apply(ev, cycle, &mut warps, policy.as_mut());
                if let Ev::Flip { slot } = ev {
                    longlat_mask ^= 1u64 << slot;
                }
                let view = trace.view(cycle, &warps);
                policy.begin_cycle(&view);
                let reads_longlat = policy.order_reads_longlat();
                for unit in 0..UNITS {
                    let u = unit as usize;
                    total += 1;
                    let blocked = longlat_mask & unit_mask(u);
                    if cached_valid[u]
                        && (!reads_longlat || cached_blocked[u] == blocked)
                        && !policy.order_dirty(unit)
                    {
                        reused += 1;
                        black_box(out.len());
                        continue;
                    }
                    policy.order(unit, &view, &trace.cands[u], &mut out);
                    cached_blocked[u] = blocked;
                    cached_valid[u] = true;
                    black_box(out.len());
                }
            }
        });
        if let (Some(s), Some(i)) = (scratch, incr) {
            println!(
                "ISSUE replay {}: reuse {:.1}% of unit-cycles, speedup {:.2}x \
                 (median {} -> {})",
                kind.name(),
                100.0 * reused as f64 / total.max(1) as f64,
                s.median_ns as f64 / i.median_ns.max(1) as f64,
                pro_bench::runner::human_ns(s.median_ns),
                pro_bench::runner::human_ns(i.median_ns),
            );
        }
    }
}

/// The ready memo (DESIGN.md §15) against the walk it replaced, on the
/// recorded LSU-saturated trace of `crates/sm/tests/oracle`: ready warps
/// wait behind a queue that opens one cycle in six, so the re-probing walk
/// tests each of them every cycle and the memo walk tests a warp once per
/// instruction. `pick_oracle.rs` holds the two to identical picks.
fn bench_pipe_full(r: &mut Runner) {
    use pick_oracle::{pick_production, pick_reprobe, PipeFullModel};
    let base = PipeFullModel::record(BATCH as usize);
    let mut run = |name: &str, pick: pick_oracle::Pick| {
        let mut probes = 0;
        let summary = r.bench(&format!("issue/pipe_full_{name}_x10k"), || {
            let mut m = base.clone();
            for now in 0..m.cycles() {
                black_box(m.step(now, pick).ok());
            }
            probes = m.probes;
        });
        summary.map(|s| (s.median_ns, probes))
    };
    if let (Some((memo_ns, memo_probes)), Some((reprobe_ns, reprobe_probes))) =
        (run("memo", pick_production), run("reprobe", pick_reprobe))
    {
        println!(
            "PIPE-FULL replay: probes {reprobe_probes} -> {memo_probes}, speedup {:.2}x \
             (median {} -> {})",
            reprobe_ns as f64 / memo_ns.max(1) as f64,
            pro_bench::runner::human_ns(reprobe_ns),
            pro_bench::runner::human_ns(memo_ns),
        );
    }
}

/// What one `order()` call costs now against the from-scratch body it
/// replaced (`crates/core/tests/oracle`, the reference the lockstep storms
/// in `prop_dirty.rs` use): TL's membership masks against its linear-search
/// rebalance, GTO's cached age order against the sort, PRO's inverse rank
/// table against the sort by rank. Same recorded trace as `issue/`, an
/// `order()` every unit-cycle, so these rows are the micro-layer twin of the
/// end-to-end `paper_matrix` number.
fn bench_order_bodies(r: &mut Runner, trace: &IssueTrace) {
    for (kind, tag, new, old) in [
        (SchedulerKind::Tl, "tl", "incremental", "scratch"),
        (SchedulerKind::Gto, "gto", "cached", "sort"),
        (SchedulerKind::Pro, "pro", "inverse", "sort"),
    ] {
        let reference = oracle::scratch(kind, IssueTrace::WARPS, 8, IssueTrace::UNITS)
            .expect("rewritten policies have a reference");
        let now = trace.bench_every_cycle(
            r,
            &format!("order/{tag}_{new}_x10k"),
            kind.build(IssueTrace::WARPS, 8, IssueTrace::UNITS),
        );
        let was = trace.bench_every_cycle(r, &format!("order/{tag}_{old}_x10k"), reference);
        if let (Some(n), Some(w)) = (now, was) {
            println!(
                "ORDER replay {}: {old} {} -> {new} {} ({:.2}x)",
                kind.name(),
                pro_bench::runner::human_ns(w.median_ns),
                pro_bench::runner::human_ns(n.median_ns),
                w.median_ns as f64 / n.median_ns.max(1) as f64,
            );
        }
    }
}

/// Row-at-a-time functional execution (DESIGN.md §16) against the per-lane
/// interpretation it replaced: the same operands through the scalar
/// `eval_*` with the opcode matched in every lane, and through the row
/// evaluator that matches it once per warp. The divergent rows use a
/// half-empty mask, where the row form still evaluates all 32 lanes and
/// blends. `order/` times LRR's order (the cursor moves before every call,
/// as when a unit issues every cycle) next to the sort it used to be.
fn bench_exec_rows(r: &mut Runner) {
    use pro_isa::exec::{alu_row, cmp_row, eval_alu, eval_cmp, Row};
    use pro_isa::{AluOp, CmpOp, Ty, FULL_MASK, WARP_SIZE};

    // Operands that are ordinary f32 values as well as integers: random
    // bits would make `FMul` produce denormals, whose microcode assist
    // (hundreds of cycles) would swamp both sides of the comparison.
    let a: Row = std::array::from_fn(|l| (1.0 + l as f32).to_bits());
    let b: Row = std::array::from_fn(|l| (0.5 + 0.25 * l as f32).to_bits());
    let c: Row = [3; WARP_SIZE];
    // A compute kernel's mix: address arithmetic, multiply-add, float.
    const OPS: [AluOp; 4] = [AluOp::IAdd, AluOp::IMad, AluOp::Shl, AluOp::FMul];
    for (tag, mask) in [("", FULL_MASK), ("_divergent", 0x0F0F_3301)] {
        let mut dst: Row = [0; WARP_SIZE];
        r.bench(&format!("exec/alu_scalar{tag}_x10k"), || {
            for i in 0..BATCH as usize {
                let op = black_box(OPS[i % OPS.len()]);
                for l in 0..WARP_SIZE {
                    if mask & (1 << l) != 0 {
                        dst[l] = eval_alu(op, a[l], b[l], c[l]);
                    }
                }
                black_box(&mut dst);
            }
        });
        r.bench(&format!("exec/alu_row{tag}_x10k"), || {
            for i in 0..BATCH as usize {
                alu_row(black_box(OPS[i % OPS.len()]), &mut dst, &a, &b, &c, mask);
                black_box(&mut dst);
            }
        });
    }
    r.bench("exec/setp_scalar_x10k", || {
        let mut acc = 0u32;
        for _ in 0..BATCH {
            let (cmp, ty) = black_box((CmpOp::Lt, Ty::S32));
            let mut bits = 0u32;
            for l in 0..WARP_SIZE {
                bits |= (eval_cmp(cmp, ty, a[l], b[l]) as u32) << l;
            }
            acc ^= bits;
        }
        acc
    });
    r.bench("exec/setp_row_x10k", || {
        let mut acc = 0u32;
        for _ in 0..BATCH {
            let (cmp, ty) = black_box((CmpOp::Lt, Ty::S32));
            acc ^= cmp_row(cmp, ty, black_box(&a), &b);
        }
        acc
    });

    let warps = vec![WarpState::default(); 48];
    let tbs = vec![TbState::default(); 8];
    let view = SchedView {
        cycle: 0,
        warps: &warps,
        tbs: &tbs,
        tbs_waiting_in_tb_scheduler: true,
    };
    let info = pro_core::IssueInfo {
        active_threads: 32,
        is_global_load: false,
    };
    let candidates: Vec<usize> = (0..48).step_by(2).collect();
    let mut out = Vec::with_capacity(48);
    let mut lrr = SchedulerKind::Lrr.build(48, 8, 2);
    r.bench("order/lrr_rotate_x10k", || {
        for i in 0..BATCH as usize {
            lrr.on_issue(0, candidates[i % candidates.len()], info, &view);
            lrr.order(0, &view, &candidates, &mut out);
            black_box(out.len());
        }
    });
    r.bench("order/lrr_sort_x10k", || {
        for i in 0..BATCH as usize {
            let start = (candidates[i % candidates.len()] + 1) % 48;
            out.clear();
            out.extend_from_slice(black_box(&candidates));
            out.sort_by_key(|&w| (w + 48 - start) % 48);
            black_box(out.len());
        }
    });
}

/// The event-queue hot path at the recorded depth profile: an identical
/// replayed push/pop trace driven into the structure the simulator used
/// to carry (a `BinaryHeap` of `(time, seq, idx)` keys over an
/// append-only payload pool) and into [`pro_core::calq::CalQueue`]. The
/// trace is synthesized to match the `host/mem.evq.*` gauges at shootout
/// scale — bursty pushes at GTX480 latencies (interconnect 40, L2 20–30,
/// DRAM ≤ 160 end to end) holding a few hundred events live — and both
/// structures replay it from the same precomputed schedule, so the rows
/// differ only in queue cost.
fn bench_event_queue(r: &mut Runner) {
    use pro_core::calq::CalQueue;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Precompute the depth trace once: per cycle, a burst of 0..9 pushes
    // with latencies from the config tables. Average ~4 pushes/cycle at
    // ~90-cycle latency holds ~350-500 events live — the recorded
    // host/mem.evq.depth band (p99 ≈ 512 at shootout scale).
    const LATS: [u64; 6] = [40, 60, 70, 90, 120, 160];
    let mut rng = pro_core::rng::SplitMix64::new(0x5eed_ca1e);
    let schedule: Vec<Vec<u64>> = (0..BATCH)
        .map(|_| {
            (0..rng.gen_range(0u32..9))
                .map(|_| LATS[rng.gen_range(0usize..LATS.len())])
                .collect()
        })
        .collect();

    // The pre-calendar structure, verbatim: heap keys carry an index into
    // an append-only pool that is never compacted within a kernel.
    struct HeapEvq {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        pool: Vec<u64>,
        seq: u64,
    }
    let mut heap = HeapEvq {
        heap: BinaryHeap::new(),
        pool: Vec::new(),
        seq: 0,
    };
    let mut hnow = 0u64;
    r.bench("evq/heap_push_pop_x10k", || {
        for lats in &schedule {
            hnow += 1;
            while let Some(&Reverse((t, _, idx))) = heap.heap.peek() {
                if t > hnow {
                    break;
                }
                heap.heap.pop();
                black_box(heap.pool[idx as usize]);
            }
            for &lat in lats {
                let idx = heap.pool.len() as u32;
                heap.pool.push(hnow ^ lat);
                heap.seq += 1;
                heap.heap.push(Reverse((hnow + lat, heap.seq, idx)));
            }
        }
        // No pool reclamation — the structure being modeled never reused
        // a slot within a kernel, so the pool keeps growing across
        // iterations exactly as it did across a long launch.
    });

    let mut cal: CalQueue<u64> = CalQueue::new();
    let mut cnow = 0u64;
    r.bench("evq/calendar_push_pop_x10k", || {
        for lats in &schedule {
            cnow += 1;
            while let Some((_, _, v)) = cal.pop_due(cnow) {
                black_box(v);
            }
            for &lat in lats {
                cal.push(cnow + lat, cnow ^ lat);
            }
        }
    });
    println!(
        "EVQ replay: {} pushes over {} cycles; calendar live hwm {} / pool {} slots / {} buckets",
        schedule.iter().map(Vec::len).sum::<usize>(),
        BATCH,
        cal.live_hwm(),
        cal.pool_slots(),
        cal.bucket_count(),
    );
}

/// The tracing overhead budget: the same full launch with the bus off
/// (NoopTracer — the default `Gpu::launch` path), with a preallocated ring
/// subscribed to every class, and with classic timeline tracing on. The
/// noop and timeline rows bound the cost existing callers pay; the ring
/// row is the price of full-fidelity capture.
fn bench_trace_overhead(r: &mut Runner) {
    use pro_sim::isa::{Kernel, LaunchConfig, ProgramBuilder};
    use pro_sim::{Gpu, GpuConfig, TraceOptions};
    use pro_trace::RingTracer;

    fn kernel(base: u64) -> Kernel {
        let mut b = ProgramBuilder::new("trace_overhead");
        let (g, a, v) = (b.reg(), b.reg(), b.reg());
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.ld_global(v, a, 0);
        b.imul(v, v, pro_sim::isa::Src::Reg(v));
        b.bar();
        b.st_global(v, a, 0);
        b.exit();
        Kernel::new(
            b.build().expect("valid kernel"),
            LaunchConfig::linear(16, 128),
            vec![base as u32],
        )
    }

    let run = |tracer: &mut dyn pro_trace::Tracer, trace: TraceOptions| -> u64 {
        let mut gpu = Gpu::new(GpuConfig::small(4), 4 << 20);
        let base = gpu.gmem.alloc(16 * 128 * 4);
        gpu.launch_traced(&kernel(base), SchedulerKind::Pro, trace, tracer)
            .expect("launch completes")
            .cycles
    };

    r.bench("launch/noop_tracer", || {
        run(&mut pro_trace::NoopTracer, TraceOptions::default())
    });
    r.bench("launch/timeline_only", || {
        run(
            &mut pro_trace::NoopTracer,
            TraceOptions {
                timeline: true,
                ..Default::default()
            },
        )
    });
    // One ring across iterations: steady-state emission, no allocation.
    let mut ring = RingTracer::new(1 << 20);
    r.bench("launch/ring_tracer_all_classes", || {
        ring.clear();
        run(&mut ring, TraceOptions::default())
    });
    // The host profiler's whole budget: two Instant reads per phase per
    // cycle plus queue-depth sampling. Compare against launch/noop_tracer
    // (the same run with prof_off) for the overhead ratio.
    r.bench("launch/prof_off", || {
        run(&mut pro_trace::NoopTracer, TraceOptions::default())
    });
    r.bench("launch/prof_on", || {
        run(
            &mut pro_trace::NoopTracer,
            TraceOptions {
                host_prof: true,
                ..Default::default()
            },
        )
    });
}

/// Wall-clock speedup of the one parallel layer: the inter-run experiment
/// pool (`--jobs`, a grid of independent simulations fanned out on
/// [`pro_core::pool`]), timed at 1 thread and at 4 with a `SPEEDUP` line
/// reporting the ratio of medians.
fn bench_parallel_speedup(r: &mut Runner) {
    use pro_sim::isa::{Kernel, LaunchConfig, ProgramBuilder};
    use pro_sim::{Gpu, GpuConfig, TraceOptions};

    fn kernel(base: u64) -> Kernel {
        let mut b = ProgramBuilder::new("parallel_speedup");
        let (g, a, v) = (b.reg(), b.reg(), b.reg());
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.ld_global(v, a, 0);
        b.imul(v, v, pro_sim::isa::Src::Reg(v));
        b.bar();
        b.st_global(v, a, 0);
        b.exit();
        Kernel::new(
            b.build().expect("valid kernel"),
            LaunchConfig::linear(16, 128),
            vec![base as u32],
        )
    }

    let run_one = || -> u64 {
        let mut gpu = Gpu::new(GpuConfig::small(4), 4 << 20);
        let base = gpu.gmem.alloc(16 * 128 * 4);
        gpu.launch(&kernel(base), SchedulerKind::Pro, TraceOptions::default())
            .expect("launch completes")
            .cycles
    };

    // A multi-kernel grid of 8 independent simulations on the experiment
    // pool — the layer behind `repro --jobs N`.
    let grid: Vec<u32> = (0..8).collect();
    let g1 = r.bench("grid8/jobs_1", || {
        black_box(pro_core::pool::run(1, &grid, |_| run_one()))
    });
    let g4 = r.bench("grid8/jobs_4", || {
        black_box(pro_core::pool::run(4, &grid, |_| run_one()))
    });
    if let (Some(a), Some(b)) = (g1, g4) {
        println!(
            "SPEEDUP grid8_jobs_4_over_1 {:.2}x (median {} -> {})",
            a.median_ns as f64 / b.median_ns.max(1) as f64,
            pro_bench::runner::human_ns(a.median_ns),
            pro_bench::runner::human_ns(b.median_ns),
        );
    }
}

/// Checkpointing cost: the same launch writing full snapshots every
/// interval versus a delta chain (dirty gmem pages + bdelta'd sections).
/// The rows time the whole launch including serialization and disk writes;
/// a BYTES line reports how much each flavor leaves on disk, which is the
/// ratio EXPERIMENTS.md tracks at default workload scale.
fn bench_checkpoint(r: &mut Runner) {
    use pro_sim::isa::{Kernel, LaunchConfig, ProgramBuilder};
    use pro_sim::{CheckpointOptions, Gpu, GpuConfig, TraceOptions};

    fn kernel(base: u64) -> Kernel {
        let mut b = ProgramBuilder::new("checkpoint_bench");
        let (g, a, v) = (b.reg(), b.reg(), b.reg());
        b.global_tid(g);
        b.buf_addr(a, 0, g, 0);
        b.ld_global(v, a, 0);
        b.imul(v, v, pro_sim::isa::Src::Reg(v));
        b.bar();
        b.st_global(v, a, 0);
        b.exit();
        Kernel::new(
            b.build().expect("valid kernel"),
            LaunchConfig::linear(16, 128),
            vec![base as u32],
        )
    }

    let run_ckpt = |delta: bool, dir: &std::path::Path| -> u64 {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("bench checkpoint dir");
        let mut gpu = Gpu::new(GpuConfig::small(4), 4 << 20);
        let base = gpu.gmem.alloc(16 * 128 * 4);
        let path = if delta {
            dir.to_path_buf()
        } else {
            dir.join("full.ckpt")
        };
        let status = gpu
            .launch_checkpointed(
                &kernel(base),
                SchedulerKind::Pro,
                TraceOptions::default(),
                &CheckpointOptions {
                    every: 100,
                    path: Some(path),
                    delta,
                    ..Default::default()
                },
            )
            .expect("checkpointed launch completes");
        match status {
            pro_sim::LaunchStatus::Completed(res) => res.cycles,
            pro_sim::LaunchStatus::Paused(_) => unreachable!("no pause requested"),
        }
    };

    let dir = std::env::temp_dir().join(format!("pro_bench_ckpt_{}", std::process::id()));
    r.bench("checkpoint_full", || black_box(run_ckpt(false, &dir)));
    // The full flavor rewrites one file per boundary; its size IS the cost
    // of every capture. The chain accumulates base + one delta per
    // boundary, so the per-capture cost is the average delta.
    let full_bytes = std::fs::metadata(dir.join("full.ckpt")).map(|m| m.len()).unwrap_or(0);
    r.bench("checkpoint_delta", || black_box(run_ckpt(true, &dir)));
    let base_bytes = std::fs::metadata(dir.join("base.ckpt")).map(|m| m.len()).unwrap_or(0);
    let (delta_bytes, n_deltas) = std::fs::read_dir(&dir)
        .map(|it| {
            it.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("delta-"))
                .filter_map(|e| e.metadata().ok())
                .fold((0u64, 0u64), |(b, n), m| (b + m.len(), n + 1))
        })
        .unwrap_or((0, 0));
    println!(
        "BYTES per capture: checkpoint_full {full_bytes} B (rewritten in place), \
         checkpoint_delta base {base_bytes} B + {n_deltas} deltas avg {} B",
        delta_bytes.checked_div(n_deltas).unwrap_or(0),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let mut r = Runner::from_args("components");
    bench_cache(&mut r);
    bench_event_queue(&mut r);
    bench_policy_order(&mut r);
    let trace = IssueTrace::record();
    bench_issue_path(&mut r, &trace);
    bench_pipe_full(&mut r);
    bench_order_bodies(&mut r, &trace);
    bench_exec_rows(&mut r);
    bench_trace_overhead(&mut r);
    bench_parallel_speedup(&mut r);
    bench_checkpoint(&mut r);
    r.finish();
}
