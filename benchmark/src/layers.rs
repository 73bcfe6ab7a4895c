//! Per-layer metrics: what the traced pass and the probes say about each
//! crate. A layer is a crate; the prefix of a metric's name is its layer
//! (`workloads.`, `sim.`, `sm.`, `core.`, `mem.`, `isa.`, `trace.`).
//!
//! Three sources, all outside the simulator's own code:
//! * counters of the workload's cells, exact and the same in every run;
//! * host time of the benchmark's spans around each call into a crate, and
//!   the `host/*` phase timers the simulator publishes under `host_prof`;
//! * probes — direct ones that drive a single component
//!   (`adapter/components.rs`), and launch-level ones that run the probe
//!   kernel through one use of the run loop. Probes do the same work on
//!   every workload.

use crate::adapter::components::{self as direct, Effort};
use crate::adapter::{self, CellStats, LaunchMode, Policy};
use crate::measure::{
    fastest, first_stats, peak, pro_speedup_vs, probe_cell, sum_of_medians_s, sum_s, total, Runner,
    Traced, Values,
};
use crate::workloads::{Cell, Mode};

/// `golden/digests.json`: result digest per `kernel/POLICY`, captured at the
/// commit that added the benchmark.
const GOLDEN_DIGESTS: &str = include_str!("../golden/digests.json");

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Table II cells whose result digest differs from the golden one (or has
/// none). A change meant only to speed up the simulator must leave this 0.
fn digest_changed_cells(cells: &[Cell], stats: &[Option<&CellStats>]) -> Result<f64, String> {
    let golden =
        adapter::json::parse(GOLDEN_DIGESTS).map_err(|e| format!("golden/digests.json: {e}"))?;
    let changed = cells
        .iter()
        .filter(|c| c.is_table())
        .filter(|c| {
            let want = golden.get(&c.key()).and_then(|j| j.as_u64());
            let got = stats[c.id as usize].map(|s| s.digest as u64);
            want.is_none() || want != got
        })
        .count();
    Ok(changed as f64)
}

/// Metrics of the workload's own cells. `cells` in id order.
pub fn from_traced_pass(cells: &[Cell], t: &Traced) -> Result<Values, String> {
    let mut v = Values::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let stats = first_stats(&t.profiled);
    let sum = |name: &str| total(&stats, name) as f64;
    let cycles = sum("cycles");

    // Spans around the calls into each crate (profiler off): each cell's
    // fastest launch, the median of its short set-up and checking spans.
    let launch_s = sum_s(fastest(&t.plain), |s| s.launch_ns);
    put(
        "workloads.build.s",
        sum_of_medians_s(&t.plain, |s| s.build_ns),
    );
    put(
        "workloads.verify.s",
        sum_of_medians_s(&t.plain, |s| s.verify_ns),
    );
    put(
        "sim.gpu_new.s",
        sum_of_medians_s(&t.plain, |s| s.gpu_new_ns),
    );
    put("sim.launch.s", launch_s);
    put(
        "sim.launch.cpu_s",
        sum_s(fastest(&t.plain), |s| s.launch_cpu_ns),
    );
    put("sim.ns_per_cycle", ratio(launch_s * 1e9, cycles));
    put(
        "sim.ns_per_winstr",
        ratio(launch_s * 1e9, sum("sm.instructions")),
    );

    // What the other uses of the run loop cost against a plain launch of
    // the same kernel under the same policy (1 where every cell is plain).
    let plain_twin_s: f64 = fastest(&t.plain)
        .iter()
        .zip(cells)
        .map(|(s, c)| match t.plain_launch_ns.get(&c.key()) {
            Some(twin) => twin.iter().min().map_or(0.0, |ns| *ns as f64 / 1e9),
            None => s.launch_ns as f64 / 1e9,
        })
        .sum();
    put("sim.mode_slowdown_x", ratio(launch_s, plain_twin_s));

    // The simulator's own phase timers: each cell's fastest profiled launch,
    // so that the shares of one cell come from one launch.
    let profiled = fastest(&t.profiled);
    put(
        "sim.prof_overhead_x",
        ratio(sum_s(profiled.iter().copied(), |s| s.launch_ns), launch_s),
    );
    let host_ns = |name: &str| {
        sum_s(profiled.iter().copied(), |s| {
            s.stats().map_or(0, |st| st.get(name))
        }) * 1e9
    };
    let wall_ns = host_ns("host/wall.ns");
    let mut other = 1.0;
    for phase in ["mem", "issue", "merge", "snapshot_write"] {
        let ns = host_ns(&format!("host/phase.{phase}.ns"));
        put(&format!("sim.phase.{phase}.share"), ratio(ns, wall_ns));
        other -= ratio(ns, wall_ns);
        if phase != "snapshot_write" {
            put(
                &format!("sim.phase.{phase}.ns_per_cycle"),
                ratio(ns, cycles),
            );
        }
    }
    put("sim.phase.other.share", other);
    put(
        "sim.digest_changed_cells",
        digest_changed_cells(cells, &stats)?,
    );

    // pro-sm counters.
    let stalls = sum("sm.stall.idle") + sum("sm.stall.scoreboard") + sum("sm.stall.pipeline");
    put("sm.unit_cycles", sum("sm.unit_cycles"));
    put("sm.issued", sum("sm.issued"));
    put(
        "sm.issue_slot_util",
        ratio(sum("sm.issued"), sum("sm.unit_cycles")),
    );
    put("sm.ipc", ratio(sum("sm.instructions"), cycles));
    put("sm.stall.idle_frac", ratio(sum("sm.stall.idle"), stalls));
    put(
        "sm.stall.scoreboard_frac",
        ratio(sum("sm.stall.scoreboard"), stalls),
    );
    put(
        "sm.stall.pipeline_frac",
        ratio(sum("sm.stall.pipeline"), stalls),
    );
    let (reused, recomputed) = (
        sum("host/issue/orders_reused"),
        sum("host/issue/orders_recomputed"),
    );
    put("sm.issue.orders_reused", reused);
    put("sm.issue.orders_recomputed", recomputed);
    put("sm.issue.reuse_frac", ratio(reused, reused + recomputed));
    put("sm.issue.mask_skips", sum("host/issue/mask_skips"));
    put("sm.lsuq.hwm", peak(&stats, "host/sm.lsuq.hwm") as f64);

    // pro-core: the paper's contribution, as speedups (0 = the workload
    // does not run that baseline).
    put(
        "core.pro_speedup_vs_tl",
        pro_speedup_vs(Policy::Tl, cells, &stats).unwrap_or(0.0),
    );
    put(
        "core.pro_speedup_vs_gto",
        pro_speedup_vs(Policy::Gto, cells, &stats).unwrap_or(0.0),
    );

    // pro-mem counters.
    put("mem.loads", sum("mem.loads"));
    put(
        "mem.l1.miss_rate",
        ratio(
            sum("mem.l1.misses"),
            sum("mem.l1.hits") + sum("mem.l1.misses"),
        ),
    );
    put(
        "mem.l2.miss_rate",
        ratio(
            sum("mem.l2.misses"),
            sum("mem.l2.hits") + sum("mem.l2.misses"),
        ),
    );
    put(
        "mem.dram.row_hit_rate",
        ratio(
            sum("mem.dram.row_hits"),
            sum("mem.dram.row_hits") + sum("mem.dram.row_misses"),
        ),
    );
    put(
        "mem.avg_load_latency_cyc",
        ratio(sum("mem.load_latency_sum"), sum("mem.loads_completed")),
    );
    put("mem.l1.mshr_rejections", sum("mem.l1.mshr_rejections"));
    put("mem.evq.pushed", sum("host/mem.evq.pushed"));
    put("mem.evq.hwm", peak(&stats, "host/mem.evq.hwm") as f64);
    put(
        "mem.evq.pool_slots",
        peak(&stats, "host/mem.evq.pool_slots") as f64,
    );
    put("mem.l2q.hwm", peak(&stats, "host/mem.l2q.hwm") as f64);
    Ok(v)
}

/// Fastest launch time in ns of the probe kernel under PRO through `mode`,
/// and the last launch's by-products.
fn probe_launches(
    runner: &mut Runner,
    mode: Mode,
    rounds: usize,
) -> Result<(f64, adapter::Launched), String> {
    let cell = probe_cell(Policy::Pro, mode);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..rounds {
        let s = runner.run_cell(&cell, false);
        times.push(s.launch_ns as f64);
        last = s.launched;
    }
    let last = last.ok_or_else(|| format!("probe launch [{}] failed", mode.name()))?;
    Ok((times.into_iter().fold(f64::INFINITY, f64::min), last))
}

/// The probes. `effort` sizes the direct ones; the launch-level ones run
/// `effort.rounds` launches each.
pub fn from_probes(runner: &mut Runner, effort: Effort) -> Result<Values, String> {
    let mut v = Values::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let span = runner.rec.open("probes", None);
    let rounds = effort.rounds;

    // Launch-level probes: the probe kernel under PRO, one use of the run
    // loop each, against a plain launch.
    let (plain_ns, plain) = probe_launches(runner, Mode::Plain, rounds)?;
    let (ring_ns, ring) = probe_launches(runner, Mode::Ring, rounds)?;
    let ring_events = ring.events.unwrap_or(0) as f64;
    put("trace.ring.events", ring_events);
    put(
        "trace.ring.ns_per_event",
        ratio(ring_ns - plain_ns, ring_events),
    );
    put("trace.ring.overhead_x", ratio(ring_ns, plain_ns));
    let (jsonl_ns, jsonl) = probe_launches(runner, Mode::Jsonl, rounds.min(2))?;
    put("trace.jsonl.bytes", jsonl.bytes.unwrap_or(0) as f64);
    put(
        "trace.jsonl.ns_per_event",
        ratio(jsonl_ns - plain_ns, jsonl.events.unwrap_or(0) as f64),
    );
    let (ckpt_ns, ckpt) = probe_launches(runner, Mode::Checkpointed, rounds)?;
    let captures = ckpt.captures.unwrap_or(0) as f64;
    put("sim.ckpt.captures", captures);
    put(
        "sim.ckpt.bytes_per_capture",
        ratio(ckpt.bytes.unwrap_or(0) as f64, captures),
    );
    put("sim.ckpt.overhead_x", ratio(ckpt_ns, plain_ns));

    // Pause at half time and resume on a fresh GPU, timed apart.
    let spec = probe_cell(Policy::Pro, Mode::Plain).kernel;
    let half = plain.stats.cycles() / 2;
    let (mut pause_ns, mut resume_ns) = (u64::MAX, u64::MAX);
    for _ in 0..rounds {
        let mut dev = adapter::new_device(&spec);
        let built = adapter::build(&mut dev, &spec);
        let (paused, ns) = runner.rec.time("probe.pause", || {
            adapter::launch_until(&mut dev, &built, Policy::Pro, half, false)
        });
        pause_ns = pause_ns.min(ns);
        let mut dev = adapter::new_device(&spec);
        let built = adapter::build(&mut dev, &spec);
        let (resumed, ns) = runner.rec.time("probe.resume", || {
            adapter::resume(&mut dev, &built, Policy::Pro, &paused?, false)
        });
        resume_ns = resume_ns.min(ns);
        let same = resumed?.stats.digest == plain.stats.digest;
        runner.checks.check(same, || {
            "probe: resumed result differs from the uninterrupted one".to_string()
        });
    }
    put("sim.ckpt.pause.s", pause_ns as f64 / 1e9);
    put("sim.ckpt.resume.s", resume_ns as f64 / 1e9);

    // The phase-split engine on two worker threads (informational: it has
    // only ever been measured slower than serial).
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut workers_ns = u64::MAX;
    for _ in 0..rounds {
        let mut dev = adapter::new_device_workers(&spec, workers);
        let built = adapter::build(&mut dev, &spec);
        let (r, ns) = runner.rec.time("probe.sm_workers2", || {
            adapter::launch(&mut dev, &built, Policy::Pro, LaunchMode::Plain, false)
        });
        workers_ns = workers_ns.min(ns);
        let same = r?.stats.digest == plain.stats.digest;
        runner.checks.check(same, || {
            "probe: sm_workers result differs from serial".to_string()
        });
    }
    put(
        "sim.sm_workers2.slowdown_x",
        ratio(workers_ns as f64, plain_ns),
    );

    // Direct probes, one component each, each under a span of its name.
    let mut probe = |name: &'static str, f: &dyn Fn() -> f64| {
        let x = runner.rec.time(name, f).0;
        v.insert(name.to_string(), x);
    };
    probe("core.order.lrr.ns_per_call", &|| {
        direct::order_ns_per_call(Policy::Lrr, effort)
    });
    probe("core.order.gto.ns_per_call", &|| {
        direct::order_ns_per_call(Policy::Gto, effort)
    });
    probe("core.order.tl.ns_per_call", &|| {
        direct::order_ns_per_call(Policy::Tl, effort)
    });
    probe("core.order.pro.ns_per_call", &|| {
        direct::order_ns_per_call(Policy::Pro, effort)
    });
    probe("core.calq.ns_per_op", &|| direct::calq_ns_per_op(effort));
    probe("core.codec.crc32.mb_s", &|| direct::crc32_mb_s(effort));
    probe("core.pool.jobs2.speedup_x", &|| {
        direct::pool_jobs2_speedup(effort)
    });
    probe("sm.tick.ns_per_call", &|| {
        direct::sm_tick_ns_per_call(effort)
    });
    probe("mem.subsystem.ns_per_line", &|| {
        direct::mem_subsystem_ns_per_line(effort)
    });
    probe("mem.cache.access.ns", &|| direct::cache_access_ns(effort));
    probe("mem.dram.tick.ns", &|| direct::dram_tick_ns(effort));
    probe("mem.coalesce.ns_per_call", &|| {
        direct::coalesce_ns_per_call(effort)
    });
    probe("isa.exec.eval_alu.ns", &|| direct::eval_alu_ns(effort));
    probe("isa.build.us_per_program", &|| {
        direct::build_us_per_program(effort)
    });
    let (bdelta, _) = runner
        .rec
        .time("core.bdelta", || direct::bdelta_mb_s(effort));
    let (encode_mb_s, apply_mb_s) = bdelta?;
    v.insert("core.bdelta.encode.mb_s".to_string(), encode_mb_s);
    v.insert("core.bdelta.apply.mb_s".to_string(), apply_mb_s);
    let (interp_ns, _) = runner
        .rec
        .time("isa.interp", || direct::interp_ns_per_run(effort));
    let thread_instrs = plain.stats.get("sm.thread_instructions") as f64;
    v.insert(
        "isa.interp.ns_per_thread_instr".to_string(),
        ratio(interp_ns?, thread_instrs),
    );

    runner.rec.close(span);
    Ok(v)
}
