//! Direct probes: one component of one crate driven in a loop, outside the
//! simulator's run loop, so a layer's own cost has a number that does not
//! depend on the rest. They time host work only; nothing here is simulated
//! time. Every probe is seeded with a constant, so it does the same work in
//! every run and on every workload.
//!
//! Public names this file is bound to (see `adapter.rs` for the rest):
//!
//! * pro-core: `SchedulerKind::build`, `WarpScheduler::{on_tb_launch,
//!   on_issue, begin_cycle, order}`, `SchedView`, `WarpState`, `TbState`,
//!   `IssueInfo`, `calq::CalQueue::{new, push, pop_due}`, `codec::crc32`,
//!   `bdelta::{encode, apply}`, `pool::run`
//! * pro-sm: `Sm::{new, begin_kernel, can_accept_tb, launch_tb, tick, busy}`,
//!   `SmConfig::gtx480`, `TickReport`
//! * pro-mem: `MemSubsystem::{new, begin_load, access_line, tick,
//!   drain_completions}`, `MemConfig::gtx480`, `AccessOutcome`,
//!   `Cache::{new, access, fill}`, `CacheConfig::l1_16k`, `cache::Lookup`,
//!   `DramChannel::{new, can_accept, push, tick}`, `DramConfig::default`,
//!   `coalesce_lines`, `coalesce::{unit_stride, strided}`
//! * pro-isa: `exec::eval_alu`, `AluOp`, `interp::run_kernel`

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use pro_sim::core::calq::CalQueue;
use pro_sim::core::codec::crc32;
use pro_sim::core::rng::SplitMix64;
use pro_sim::core::{bdelta, pool, IssueInfo, SchedView, TbState, WarpState};
use pro_sim::isa::exec::eval_alu;
use pro_sim::isa::interp::run_kernel;
use pro_sim::isa::AluOp;
use pro_sim::mem::cache::Lookup;
use pro_sim::mem::coalesce::{strided, unit_stride};
use pro_sim::mem::{
    coalesce_lines, AccessOutcome, Cache, CacheConfig, DramChannel, DramConfig, GlobalMem,
    MemConfig, MemSubsystem,
};
use pro_sim::smx::{Sm, SmConfig, TickReport};
use pro_workloads::{registry, Scale};

use super::{table_workload, Backend, Policy};

/// The kernel the probes that need a real program use: small (100 TBs,
/// ~6 k cycles), with global loads, barriers and arithmetic.
pub const PROBE_KERNEL: &str = "laplace3d";

/// Fastest of `rounds` of (nanoseconds one `batch` call takes) / (the
/// operation count it returns). Fastest, not median: interference only adds
/// time (see `measure::fastest`).
fn ns_per_op(rounds: usize, mut batch: impl FnMut() -> u64) -> f64 {
    (0..rounds)
        .map(|_| {
            let t = Instant::now();
            let ops = batch();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn mb_per_s(bytes: usize, ns_per_call: f64) -> f64 {
    bytes as f64 / 1e6 / (ns_per_call / 1e9)
}

/// How much work each probe does: `rounds` timed batches (the fastest is
/// reported) of `batch` operations.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub rounds: usize,
    pub batch: u32,
}

/// `WarpScheduler::order` for unit 0 of a full SM (48 warps in 8 TBs, two
/// units), with one `on_issue` between calls so the order is never clean.
pub fn order_ns_per_call(policy: Policy, e: Effort) -> f64 {
    const WARPS: usize = 48;
    let mut warps: Vec<WarpState> = (0..WARPS)
        .map(|w| WarpState {
            active: true,
            tb_slot: w / 6,
            index_in_tb: (w % 6) as u32,
            progress: (w as u64 * 37) % 911,
            blocked_on_longlat: w % 5 == 0,
            ..WarpState::default()
        })
        .collect();
    let tbs: Vec<TbState> = (0..8)
        .map(|t| TbState {
            occupied: true,
            global_index: t as u32,
            progress: (t as u64 * 131) % 1777,
            num_warps: 6,
            launched_at: t as u64,
            ..TbState::default()
        })
        .collect();
    let candidates: Vec<usize> = (0..WARPS).step_by(2).collect();
    let mut sched = policy.build(WARPS, 8, 2);
    fn view<'a>(cycle: u64, warps: &'a [WarpState], tbs: &'a [TbState]) -> SchedView<'a> {
        SchedView {
            cycle,
            warps,
            tbs,
            tbs_waiting_in_tb_scheduler: true,
        }
    }
    for t in 0..8 {
        sched.on_tb_launch(t, &view(0, &warps, &tbs));
    }
    let info = IssueInfo {
        active_threads: 32,
        is_global_load: false,
    };
    let mut out = Vec::with_capacity(WARPS);
    let mut cycle = 0u64;
    ns_per_op(e.rounds, || {
        for _ in 0..e.batch {
            cycle += 1;
            let slot = candidates[(cycle as usize * 7) % candidates.len()];
            warps[slot].progress += 32;
            let v = view(cycle, &warps, &tbs);
            sched.on_issue(0, slot, info, &v);
            sched.begin_cycle(&v);
            sched.order(0, &v, &candidates, &mut out);
            black_box(out.len());
        }
        e.batch as u64
    })
}

/// `CalQueue` push + `pop_due` under the memory system's depth profile:
/// bursts of 0-8 pushes a cycle at GTX480 latencies, a few hundred live.
pub fn calq_ns_per_op(e: Effort) -> f64 {
    const LATS: [u64; 6] = [40, 60, 70, 90, 120, 160];
    let mut rng = SplitMix64::new(0x5eed_ca1e);
    let schedule: Vec<Vec<u64>> = (0..e.batch)
        .map(|_| {
            (0..rng.gen_range(0u32..9))
                .map(|_| LATS[rng.gen_range(0usize..LATS.len())])
                .collect()
        })
        .collect();
    let mut q: CalQueue<u64> = CalQueue::new();
    let mut now = 0u64;
    ns_per_op(e.rounds, || {
        let mut ops = 0u64;
        for lats in &schedule {
            now += 1;
            while let Some((_, _, v)) = q.pop_due(now) {
                black_box(v);
                ops += 1;
            }
            for &lat in lats {
                q.push(now + lat, now ^ lat);
                ops += 1;
            }
        }
        ops
    })
}

fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

pub fn crc32_mb_s(e: Effort) -> f64 {
    let buf = random_bytes(1 << 20, 0x000c_4c32);
    mb_per_s(
        buf.len(),
        ns_per_op(e.rounds, || {
            black_box(crc32(black_box(&buf)));
            1
        }),
    )
}

/// `bdelta::{encode, apply}` throughput in MB/s of the new image: a 256 KiB
/// image with 64 scattered byte edits and a 100-byte insertion, the shape of
/// one SM section between two checkpoints.
pub fn bdelta_mb_s(e: Effort) -> Result<(f64, f64), String> {
    let old = random_bytes(256 << 10, 0x00bd_e17a);
    let mut new = old.clone();
    let mut rng = SplitMix64::new(0xed17);
    for _ in 0..64 {
        let i = rng.gen_range(0usize..new.len());
        new[i] ^= 0x5a;
    }
    let insert = random_bytes(100, 0x1257);
    let mid = new.len() / 2;
    new.splice(mid..mid, insert);
    let delta = bdelta::encode(&old, &new);
    if bdelta::apply(&old, &delta).map_err(|e| e.to_string())? != new {
        return Err("bdelta apply(encode(old, new)) != new".into());
    }
    let encode = ns_per_op(e.rounds, || {
        black_box(bdelta::encode(black_box(&old), black_box(&new)));
        1
    });
    let apply = ns_per_op(e.rounds, || {
        black_box(bdelta::apply(black_box(&old), black_box(&delta)).ok());
        1
    });
    Ok((mb_per_s(new.len(), encode), mb_per_s(new.len(), apply)))
}

/// `pool::run` over 8 CPU-bound items: time with one job / time with two.
pub fn pool_jobs2_speedup(e: Effort) -> f64 {
    let buf = random_bytes(1 << 20, 0x9001);
    let items: Vec<u32> = (0..8).collect();
    let work = |i: &u32| (0..2).fold(*i, |acc, _| acc ^ crc32(black_box(&buf)));
    let run = |jobs: usize| {
        ns_per_op(e.rounds, || {
            black_box(pool::run(jobs, &items, work));
            1
        })
    };
    run(1) / run(2)
}

/// One `Sm` with its `MemSubsystem`, stepped with `Sm::tick` until the
/// first 24 thread blocks of the probe kernel have run; ns per tick.
pub fn sm_tick_ns_per_call(e: Effort) -> f64 {
    const TBS: u32 = 24;
    let cfg = SmConfig::gtx480();
    ns_per_op(e.rounds, || {
        let mut gmem = GlobalMem::new(64 << 20);
        let built = table_workload(PROBE_KERNEL).build_scaled(&mut gmem, Scale::default());
        let mut mem = MemSubsystem::new(MemConfig::gtx480(), 1);
        let mut sched = Policy::Pro.build(cfg.max_warps, cfg.max_tbs, cfg.units);
        let mut sm = Sm::new(0, cfg);
        sm.begin_kernel(&built.kernel);
        let (mut next_tb, mut now, mut ticks) = (0u32, 0u64, 0u64);
        let mut report = TickReport::default();
        // Setup above is a few hundred microseconds against ~100 ms of ticks.
        loop {
            while next_tb < TBS && sm.can_accept_tb() {
                sm.launch_tb(next_tb, now, sched.as_mut(), next_tb + 1 < TBS);
                next_tb += 1;
            }
            if next_tb == TBS && !sm.busy() {
                break;
            }
            report.finished_tbs.clear();
            mem.tick(now);
            sm.tick(
                now,
                &mut gmem,
                &mut mem,
                sched.as_mut(),
                next_tb < TBS,
                &mut report,
            );
            now += 1;
            ticks += 1;
            assert!(ticks < 10_000_000, "probe SM never drained");
        }
        ticks
    })
}

/// `MemSubsystem` fed one line a cycle from each of 14 SMs — half a
/// streaming sweep (misses to DRAM), half reuse of a 64-line hot set (L1
/// hits) — with `tick` and `drain_completions` every cycle; ns per accepted
/// line, everything included.
pub fn mem_subsystem_ns_per_line(e: Effort) -> f64 {
    const SMS: u32 = 14;
    let mut rng = SplitMix64::new(0x3e3_5b5);
    let mut mem = MemSubsystem::new(MemConfig::gtx480(), SMS as usize);
    let mut pending: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); SMS as usize];
    let (mut now, mut next_id, mut stream) = (0u64, 0u64, 1u64 << 20);
    ns_per_op(e.rounds, || {
        let mut accepted = 0u64;
        for _ in 0..e.batch {
            mem.tick(now);
            for sm in 0..SMS {
                let q = &mut pending[sm as usize];
                if q.is_empty() {
                    let line = if rng.gen_bool(0.5) {
                        stream += 1;
                        stream
                    } else {
                        rng.gen_range(0u64..64)
                    };
                    next_id += 1;
                    mem.begin_load(now, sm, next_id, 1);
                    q.push_back((next_id, line));
                }
                let (id, line) = q[0];
                if mem.access_line(now, sm, id, line, false) == AccessOutcome::Accepted {
                    q.pop_front();
                    accepted += 1;
                }
                black_box(mem.drain_completions(sm).count());
            }
            now += 1;
        }
        accepted
    })
}

/// `Cache::access` on a 16 KiB L1: three hits to resident lines for every
/// miss that allocates and is filled at once.
pub fn cache_access_ns(e: Effort) -> f64 {
    let mut cache: Cache<u64> = Cache::new(CacheConfig::l1_16k());
    for line in 0..64u64 {
        cache.access(line, 0);
        cache.fill(line);
    }
    let (mut i, mut fresh) = (0u64, 1u64 << 16);
    ns_per_op(e.rounds, || {
        for _ in 0..e.batch {
            i += 1;
            if i % 4 == 0 {
                fresh += 1;
                if cache.access(fresh, i) == Lookup::MissAllocated {
                    black_box(cache.fill(fresh));
                }
            } else {
                black_box(cache.access(i % 64, i));
            }
        }
        e.batch as u64
    })
}

/// `DramChannel::tick` (FR-FCFS arbitration) with the queue kept fed.
pub fn dram_tick_ns(e: Effort) -> f64 {
    let mut chan: DramChannel<u32> = DramChannel::new(DramConfig::default());
    let (mut now, mut line) = (0u64, 0u64);
    ns_per_op(e.rounds, || {
        for _ in 0..e.batch {
            if chan.can_accept() {
                line = line.wrapping_add(97);
                chan.push(now, line, 0);
            }
            black_box(chan.tick(now));
            now += 1;
        }
        e.batch as u64
    })
}

/// `coalesce_lines` over a unit-stride, a 128-byte-stride and a scattered
/// warp access in turn (1, 32 and ~30 transactions).
pub fn coalesce_ns_per_call(e: Effort) -> f64 {
    let mut rng = SplitMix64::new(0xc0a1);
    let scattered: [u64; 32] = std::array::from_fn(|_| rng.gen_range(0u64..1 << 24) * 4);
    let patterns = [unit_stride(0x1000), strided(0x8000, 128), scattered];
    let mut out = Vec::with_capacity(32);
    ns_per_op(e.rounds, || {
        for i in 0..e.batch {
            coalesce_lines(black_box(&patterns[i as usize % 3]), u32::MAX, &mut out);
            black_box(out.len());
        }
        e.batch as u64
    })
}

/// `eval_alu` over a rotation of integer and float operations.
pub fn eval_alu_ns(e: Effort) -> f64 {
    const OPS: [AluOp; 8] = [
        AluOp::IAdd,
        AluOp::IMad,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::FAdd,
        AluOp::FFma,
        AluOp::IMin,
        AluOp::I2F,
    ];
    let mut acc = 0x1234_5678u32;
    ns_per_op(e.rounds, || {
        for i in 0..e.batch {
            acc = eval_alu(
                black_box(OPS[i as usize % OPS.len()]),
                acc,
                i | 1,
                0x9e37_79b9,
            );
        }
        black_box(acc);
        e.batch as u64
    })
}

/// The scalar reference interpreter over the whole probe kernel; ns per
/// call of `run_kernel`. Divide by the kernel's thread-instruction count
/// (the simulator's `sm.thread_instructions`) for ns per thread-instruction.
pub fn interp_ns_per_run(e: Effort) -> Result<f64, String> {
    let mut failure = None;
    let ns = ns_per_op(e.rounds.min(3), || {
        let mut gmem = GlobalMem::new(64 << 20);
        let built = table_workload(PROBE_KERNEL).build_scaled(&mut gmem, Scale::default());
        if let Err(err) = run_kernel(&built.kernel, &mut Backend(&mut gmem), 5_000_000) {
            failure = Some(err.to_string());
        }
        1
    });
    failure.map_or(Ok(ns), Err)
}

/// Building all 25 Table II kernels for a one-block grid (program
/// construction and validation, next to no input data); microseconds each.
pub fn build_us_per_program(e: Effort) -> f64 {
    let workloads = registry();
    ns_per_op(e.rounds, || {
        let mut gmem = GlobalMem::new(64 << 20);
        for w in &workloads {
            black_box((w.build)(&mut gmem, 1).kernel.program.instrs.len());
        }
        workloads.len() as u64
    }) / 1e3
}
