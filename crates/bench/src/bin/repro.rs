//! `repro` — regenerate every table and figure of the PRO paper.
//!
//! ```text
//! repro <command> [--full-scale] [--quick] [--jobs N]
//! commands: config workloads fig1 fig2 fig4 fig5 table3 table4 ablation all
//! ```
//!
//! `--full-scale` runs the exact Table II grid sizes (slow);
//! `--quick` restricts kernel sweeps to one kernel per application.
//!
//! Parallelism — host-side only, never changes results: `--jobs N` runs
//! independent (kernel × scheduler) simulations on `N` pool threads (0 or
//! unset = all cores). Output is byte-identical at any `N` because results
//! are collected in submission order.
//!
//! Long runs — checkpoint & resume (the `json` sweep):
//!
//! * `--checkpoint-path DIR` writes per-cell state into `DIR`: a `.ckpt`
//!   snapshot refreshed mid-run and a `.done` result once the cell
//!   finishes (format: DESIGN.md §12).
//! * `--checkpoint-every N` sets the snapshot interval in cycles
//!   (default 50000).
//! * `--checkpoint-delta` switches each cell to a delta chain — a
//!   `.chain/` directory holding one full `base.ckpt` plus numbered
//!   deltas that carry only the gmem pages written since the previous
//!   capture. Far cheaper per interval; restore replays base-then-deltas
//!   and is still bit-identical.
//! * `--checkpoint-keep N` caps a chain at `N` files: when the cap is
//!   reached the next capture rewrites a fresh full base and prunes the
//!   old deltas (only after the new base is fsynced and renamed).
//! * `--resume DIR` re-runs the sweep against an existing `DIR`: finished
//!   cells load their `.done`, interrupted cells resume from `.ckpt` or
//!   the longest valid prefix of their chain, and the aggregate JSON is
//!   byte-identical to an uninterrupted run. State recorded for a
//!   different kernel/config/scheduler aborts with a clear error rather
//!   than being silently discarded.

use pro_bench::{geomean_finite, parallel_map, ratio, run_cell_with, speedup, AppTotals, Cell};
use pro_core::SchedulerKind;
use pro_sim::{GpuConfig, TraceOptions};
use pro_workloads::{apps, registry, Scale, Workload};

/// Every `--option` the CLI understands; anything else is refused so a
/// typo (or a removed flag) cannot silently run with defaults.
const OPTIONS: &[&str] = &[
    "--full-scale",
    "--quick",
    "--config",
    "--jobs",
    "--checkpoint-path",
    "--checkpoint-every",
    "--checkpoint-delta",
    "--checkpoint-keep",
    "--resume",
    "--heartbeat",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro <config|workloads|fig1|fig2|fig4|fig5|table3|table4|ablation|sweep|wld|cache|ready|occupancy|synthsweep|svg|json|shootout|dram|all> \
         | disasm <kernel> | trace [kernel] [tl|lrr|gto|pro] | trace-report <file.jsonl> \
         [--full-scale] [--quick] [--config FILE] [--jobs N] \
         [--checkpoint-path DIR] [--checkpoint-every N] [--checkpoint-delta] \
         [--checkpoint-keep N] [--resume DIR] [--heartbeat SECS]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let unknown = |a: &&String| a.starts_with("--") && !OPTIONS.contains(&a.as_str());
    if let Some(bad) = args.iter().find(unknown) {
        eprintln!("unknown option {bad}");
        usage();
    }
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let scale = if args.iter().any(|a| a == "--full-scale") {
        Scale::Full
    } else {
        Scale::default()
    };
    let quick = args.iter().any(|a| a == "--quick");
    // Optional --config <path>: override the simulated machine for every
    // experiment run in this invocation.
    let mut machine_override: Option<GpuConfig> = None;
    if let Some(pos) = args.iter().position(|a| a == "--config") {
        let path = args
            .get(pos + 1)
            .unwrap_or_else(|| {
                eprintln!("--config requires a path");
                std::process::exit(2);
            })
            .clone();
        match pro_sim::load_config(std::path::Path::new(&path)) {
            Ok(cfg) => machine_override = Some(cfg),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(cfg) = machine_override {
        set_machine(cfg);
    }
    // Optional --jobs <N>: experiment-pool width (independent simulations).
    if let Some(n) = flag_value(&args, "--jobs") {
        pro_core::pool::set_default_jobs(n);
    }
    // Checkpoint/resume knobs for the `json` sweep. `--resume DIR` implies
    // checkpointing into the same directory.
    let ckpt_dir = flag_str(&args, "--checkpoint-path").or_else(|| flag_str(&args, "--resume"));
    let ckpt_every = flag_value(&args, "--checkpoint-every").unwrap_or(0) as u64;
    let ckpt_delta = args.iter().any(|a| a == "--checkpoint-delta");
    let ckpt_keep = flag_value(&args, "--checkpoint-keep").unwrap_or(0);
    // Live telemetry: `--heartbeat N` rewrites status.json at most every N
    // seconds while the `json` sweep runs (DESIGN.md §13).
    let heartbeat = flag_value(&args, "--heartbeat").map(|n| n as u64);
    match cmd {
        "config" => config(),
        "workloads" => workloads(scale),
        "fig1" => fig1(scale, quick),
        "fig2" => fig2(scale),
        "fig4" => fig4(scale, quick),
        "fig5" => fig5(scale, quick),
        "table3" => table3(scale, quick),
        "table4" => table4(scale),
        "ablation" => ablation(scale),
        "sweep" => sweep(scale),
        "wld" => wld(scale),
        "cache" => cache(scale),
        "synthsweep" => synthsweep(),
        "svg" => svg_figs(scale, quick),
        "json" => json_export(
            scale,
            quick,
            ckpt_dir.as_deref(),
            ckpt_every,
            ckpt_delta,
            ckpt_keep,
            heartbeat,
        ),
        "shootout" => shootout(scale, quick),
        "dram" => dram_ablation(scale),
        "disasm" => disasm(args.get(1).map(String::as_str).unwrap_or("")),
        "ready" => ready(scale),
        "occupancy" => occupancy(scale),
        "trace" => trace_cmd(scale, &args),
        "trace-report" => trace_report(&args),
        "all" => {
            config();
            workloads(scale);
            fig1(scale, quick);
            fig2(scale);
            fig4(scale, quick);
            fig5(scale, quick);
            table3(scale, quick);
            table4(scale);
            ablation(scale);
            sweep(scale);
            wld(scale);
            cache(scale);
            ready(scale);
            occupancy(scale);
            synthsweep();
            dram_ablation(scale);
        }
        _ => usage(),
    }
}

/// Parse `--name N` from the argument list (None if absent or malformed).
fn flag_value(args: &[String], name: &str) -> Option<usize> {
    let pos = args.iter().position(|a| a == name)?;
    match args.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) => Some(n),
        None => {
            eprintln!("{name} requires a non-negative integer");
            std::process::exit(2);
        }
    }
}

/// Parse `--name VALUE` (a string argument) from the argument list.
fn flag_str(args: &[String], name: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == name)?;
    match args.get(pos + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("{name} requires a value");
            std::process::exit(2);
        }
    }
}

/// Machine-aware wrappers around the pro-bench runners.
fn run_cell(w: &Workload, sched: SchedulerKind, scale: Scale) -> Cell {
    run_cell_with(w, sched, scale, machine(), TraceOptions::default())
}

fn run_apps(sched: SchedulerKind, scale: Scale, quick: bool) -> Vec<(&'static str, AppTotals)> {
    let kernels = kernels(quick);
    let cells = parallel_map(&kernels, |w| run_cell(w, sched, scale));
    let mut out: Vec<(&'static str, AppTotals)> = Vec::new();
    for c in &cells {
        let slot = match out.iter_mut().find(|(a, _)| *a == c.app) {
            Some((_, t)) => t,
            None => {
                out.push((c.app, AppTotals::default()));
                &mut out.last_mut().expect("just pushed").1
            }
        };
        slot.add(&c.result);
    }
    out
}

/// The machine model all experiments in this process run on (default:
/// the paper's GTX480; overridden by `--config`).
static MACHINE: std::sync::OnceLock<GpuConfig> = std::sync::OnceLock::new();

fn set_machine(cfg: GpuConfig) {
    let _ = MACHINE.set(cfg);
}

fn machine() -> GpuConfig {
    *MACHINE.get_or_init(GpuConfig::gtx480)
}

/// The kernels a sweep runs: all of Table II, or with `--quick` the first
/// of each application.
fn kernels(quick: bool) -> Vec<Workload> {
    if quick {
        apps().into_iter().map(|(_, ks)| ks[0]).collect()
    } else {
        registry()
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Table I.
fn config() {
    header("Table I: GPGPU-Sim-equivalent configuration (Rust simulator)");
    let c = machine();
    println!("Architecture                      NVIDIA Fermi GTX480 (modelled)");
    println!("Number of SMs                     {}", c.num_sms);
    println!("Max Thread Blocks per SM          {}", c.sm.max_tbs);
    println!("Max Threads per Core              {}", c.sm.max_threads);
    println!("Shared Memory per Core            {} KB", c.sm.shared_capacity / 1024);
    println!("L1-Cache per Core                 {} KB", c.mem.l1.bytes / 1024);
    println!(
        "L2-Cache                          {} KB ({} partitions)",
        c.mem.l2.bytes * c.mem.partitions as u64 / 1024,
        c.mem.partitions
    );
    println!("Max Registers per Core            {}", c.sm.regs_per_sm);
    println!("Number of Schedulers              {}", c.sm.units);
    println!("DRAM Scheduler                    FR-FCFS");
}

/// Table II.
fn workloads(scale: Scale) {
    header("Table II: Benchmark applications");
    println!(
        "{:<22} {:<32} {:>8} {:>9}",
        "Application", "Kernel", "TBs", "run TBs"
    );
    for w in registry() {
        println!(
            "{:<22} {:<32} {:>8} {:>9}",
            w.app,
            w.kernel,
            w.table2_tbs,
            w.effective_tbs(scale)
        );
    }
}

/// Fig. 1: stall breakdown per app for TL, LRR, GTO.
fn fig1(scale: Scale, quick: bool) {
    header("Fig. 1: stall type breakdown (% of stall cycles) for TL / LRR / GTO");
    let mut per_sched: Vec<(SchedulerKind, Vec<(&'static str, AppTotals)>)> = Vec::new();
    for s in [SchedulerKind::Tl, SchedulerKind::Lrr, SchedulerKind::Gto] {
        per_sched.push((s, run_apps(s, scale, quick)));
    }
    println!(
        "{:<14} {:>23} {:>23} {:>23}",
        "", "TL (pipe/idle/sb)", "LRR (pipe/idle/sb)", "GTO (pipe/idle/sb)"
    );
    let napps = per_sched[0].1.len();
    for i in 0..napps {
        let app = per_sched[0].1[i].0;
        print!("{app:<14}");
        for (_, rows) in &per_sched {
            let t = rows[i].1;
            let tot = t.total().max(1) as f64;
            print!(
                "   {:>5.1}% {:>5.1}% {:>5.1}%",
                100.0 * t.pipeline as f64 / tot,
                100.0 * t.idle as f64 / tot,
                100.0 * t.scoreboard as f64 / tot
            );
        }
        println!();
    }
    // Shape check the paper asserts: LRR has the highest idle share.
    let idle_share = |rows: &[(&str, AppTotals)]| {
        let (mut i, mut t) = (0u64, 0u64);
        for (_, a) in rows {
            i += a.idle;
            t += a.total();
        }
        i as f64 / t.max(1) as f64
    };
    println!(
        "\n[aggregate idle share] TL {:.1}%  LRR {:.1}%  GTO {:.1}%",
        100.0 * idle_share(&per_sched[0].1),
        100.0 * idle_share(&per_sched[1].1),
        100.0 * idle_share(&per_sched[2].1)
    );
}

/// Fig. 2: TB execution timeline on SM 0, LRR vs PRO (LPS kernel).
///
/// The paper's figure shows ~18 TBs on one SM (≈3 residency batches). LPS
/// has 100 TBs; running it on a 4-SM slice of the GPU gives SM 0 a
/// comparable ~25-TB share without changing per-SM behaviour.
fn fig2(scale: Scale) {
    header("Fig. 2: thread block execution on one SM — LRR vs PRO (4-SM slice)");
    let w = registry()
        .into_iter()
        .find(|w| w.kernel == "laplace3d")
        .expect("LPS present");
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let cell = run_cell_with(
            &w,
            sched,
            scale,
            GpuConfig::small(4),
            TraceOptions {
                timeline: true,
                ..Default::default()
            },
        );
        let mut spans: Vec<_> = cell
            .result
            .timeline
            .iter()
            .filter(|s| s.sm == 0)
            .collect();
        spans.sort_by_key(|s| s.start);
        println!("\n--- {} (SM 0, {} TBs, kernel total {} cycles) ---",
            sched,
            spans.len(),
            cell.result.cycles
        );
        println!("{:<6} {:>10} {:>10} {:>10}", "TB", "start", "end", "duration");
        for s in &spans {
            println!(
                "{:<6} {:>10} {:>10} {:>10}",
                s.global_index,
                s.start,
                s.end,
                s.end - s.start
            );
        }
        // Batching metric: how many TBs end within 5% of another TB's end.
        let mut ends: Vec<u64> = spans.iter().map(|s| s.end).collect();
        ends.sort_unstable();
        let span_total = ends.last().copied().unwrap_or(1);
        let batched = ends
            .windows(2)
            .filter(|w| w[1] - w[0] < span_total / 20)
            .count();
        println!("[batching] {batched}/{} adjacent completions within 5% of runtime", ends.len().saturating_sub(1));
        // ASCII Gantt (60 columns ≈ the kernel's runtime).
        let total = cell.result.cycles.max(1);
        println!("      0{}{}", " ".repeat(54), total);
        for s in &spans {
            let c0 = (s.start * 60 / total) as usize;
            let c1 = ((s.end * 60 / total) as usize).max(c0 + 1);
            println!(
                "{:>5} {}{}",
                s.global_index,
                " ".repeat(c0),
                "█".repeat(c1 - c0)
            );
        }
    }
}

/// Fig. 4: speedups of PRO over TL, LRR, GTO per kernel.
fn fig4(scale: Scale, quick: bool) {
    header("Fig. 4: PRO speedup over TL / LRR / GTO (cycles ratio, >1 = PRO faster)");
    println!(
        "{:<32} {:>9} {:>9} {:>9} {:>12}",
        "Kernel", "vs TL", "vs LRR", "vs GTO", "PRO cycles"
    );
    let mut vs_tl = Vec::new();
    let mut vs_lrr = Vec::new();
    let mut vs_gto = Vec::new();
    let ws = kernels(quick);
    let jobs: Vec<(pro_workloads::Workload, SchedulerKind)> = ws
        .iter()
        .flat_map(|w| SchedulerKind::PAPER.into_iter().map(move |s| (*w, s)))
        .collect();
    let cells = pro_bench::parallel_map(&jobs, |(w, s)| run_cell(w, *s, scale));
    for (i, w) in ws.iter().enumerate() {
        let tl = &cells[i * 4];
        let lrr = &cells[i * 4 + 1];
        let gto = &cells[i * 4 + 2];
        let pro = &cells[i * 4 + 3];
        let (a, b, c) = (
            speedup(&tl.result, &pro.result),
            speedup(&lrr.result, &pro.result),
            speedup(&gto.result, &pro.result),
        );
        vs_tl.push(a);
        vs_lrr.push(b);
        vs_gto.push(c);
        println!(
            "{:<32} {:>9.3} {:>9.3} {:>9.3} {:>12}",
            w.kernel, a, b, c, pro.result.cycles
        );
    }
    println!(
        "{:<32} {:>9.3} {:>9.3} {:>9.3}   (paper: 1.13 / 1.12 / 1.02)",
        "GEOMEAN",
        geomean_finite(vs_tl),
        geomean_finite(vs_lrr),
        geomean_finite(vs_gto)
    );
}

/// Fig. 5: total stall ratios baseline/PRO per application.
fn fig5(scale: Scale, quick: bool) {
    header("Fig. 5: stall-cycle improvement (baseline stalls / PRO stalls)");
    let pro = run_apps(SchedulerKind::Pro, scale, quick);
    let tl = run_apps(SchedulerKind::Tl, scale, quick);
    let lrr = run_apps(SchedulerKind::Lrr, scale, quick);
    let gto = run_apps(SchedulerKind::Gto, scale, quick);
    println!(
        "{:<14} {:>8} {:>8} {:>8}",
        "Application", "TL/PRO", "LRR/PRO", "GTO/PRO"
    );
    let (mut rt, mut rl, mut rg) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pro.len() {
        let app = pro[i].0;
        let p = pro[i].1.total();
        let (a, b, c) = (
            ratio(tl[i].1.total(), p),
            ratio(lrr[i].1.total(), p),
            ratio(gto[i].1.total(), p),
        );
        rt.push(a);
        rl.push(b);
        rg.push(c);
        println!("{app:<14} {a:>8.2} {b:>8.2} {c:>8.2}");
    }
    println!(
        "{:<14} {:>8.2} {:>8.2} {:>8.2}   (paper: 1.32 / 1.19 / 1.04)",
        "GEOMEAN",
        geomean_finite(rt),
        geomean_finite(rl),
        geomean_finite(rg)
    );
}

/// Table III: stall cycles of PRO per type + per-type ratios vs baselines.
fn table3(scale: Scale, quick: bool) {
    header("Table III: stall-cycle detail (PRO absolute; ratios baseline/PRO)");
    let pro = run_apps(SchedulerKind::Pro, scale, quick);
    let tl = run_apps(SchedulerKind::Tl, scale, quick);
    let lrr = run_apps(SchedulerKind::Lrr, scale, quick);
    let gto = run_apps(SchedulerKind::Gto, scale, quick);
    println!(
        "{:<14} | {:>10} {:>10} {:>10} | {:>21} | {:>21} | {:>21}",
        "", "PRO Pipe", "PRO Idle", "PRO SB", "TL p/i/s/total", "LRR p/i/s/total", "GTO p/i/s/total"
    );
    let fmt4 = |b: &AppTotals, p: &AppTotals| {
        format!(
            "{:>4.2} {:>4.2} {:>4.2} {:>5.2}",
            ratio(b.pipeline, p.pipeline),
            ratio(b.idle, p.idle),
            ratio(b.scoreboard, p.scoreboard),
            ratio(b.total(), p.total())
        )
    };
    let mut geos: [Vec<f64>; 12] = Default::default();
    for i in 0..pro.len() {
        let p = pro[i].1;
        println!(
            "{:<14} | {:>10} {:>10} {:>10} | {:>21} | {:>21} | {:>21}",
            pro[i].0,
            p.pipeline,
            p.idle,
            p.scoreboard,
            fmt4(&tl[i].1, &p),
            fmt4(&lrr[i].1, &p),
            fmt4(&gto[i].1, &p)
        );
        for (j, b) in [&tl[i].1, &lrr[i].1, &gto[i].1].into_iter().enumerate() {
            geos[j * 4].push(ratio(b.pipeline, p.pipeline));
            geos[j * 4 + 1].push(ratio(b.idle, p.idle));
            geos[j * 4 + 2].push(ratio(b.scoreboard, p.scoreboard));
            geos[j * 4 + 3].push(ratio(b.total(), p.total()));
        }
    }
    let g = |i: usize| geomean_finite(geos[i].clone());
    println!(
        "{:<14} | {:>32} | {:>4.2} {:>4.2} {:>4.2} {:>5.2} | {:>4.2} {:>4.2} {:>4.2} {:>5.2} | {:>4.2} {:>4.2} {:>4.2} {:>5.2}",
        "GEOMEAN", "(paper TL: 0.70 2.40 1.58 1.32)",
        g(0), g(1), g(2), g(3),
        g(4), g(5), g(6), g(7),
        g(8), g(9), g(10), g(11)
    );
}

/// Table IV: PRO's sorted TB order on SM 0 over time, for AES.
fn table4(scale: Scale) {
    header("Table IV: PRO sorted TB order (AES, SM 0, sampled every 1000 cycles)");
    let w = registry()
        .into_iter()
        .find(|w| w.kernel == "aesEncrypt128")
        .expect("AES present");
    let cell = run_cell_with(
        &w,
        SchedulerKind::Pro,
        scale,
        GpuConfig::gtx480(),
        TraceOptions {
            tb_order_period: 1000,
            ..Default::default()
        },
    );
    println!("{:<8}  TB global indices (highest priority first)", "Cycle");
    let mut changes = 0;
    let mut prev: Option<Vec<u32>> = None;
    for snap in cell.result.tb_order.iter().take(20) {
        let order: Vec<String> = snap.order.iter().map(|g| g.to_string()).collect();
        println!("{:<8}  {}", snap.cycle, order.join(" "));
        if let Some(p) = &prev {
            if *p != snap.order {
                changes += 1;
            }
        }
        prev = Some(snap.order.clone());
    }
    println!("[order changed {changes} times across the shown samples]");
}

/// §IV diagnostic: barrier-handling ablation on barrier-heavy kernels,
/// including the PRO-AD adaptive variant (the paper's future work).
fn ablation(scale: Scale) {
    header("Ablation: PRO variants on barrier-heavy kernels (ratio vs PRO, >1 = variant faster)");
    let names = [
        "scalarProdGPU",
        "MonteCarloOneBlockPerOption",
        "dynproc_kernel",
        "bpnn_layerforward",
    ];
    println!(
        "{:<32} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "Kernel", "PRO", "PRO-NB", "PRO-NF", "PRO-NS", "PRO-AD"
    );
    for name in names {
        let w = registry()
            .into_iter()
            .find(|w| w.kernel == name)
            .expect("kernel present");
        let base = run_cell(&w, SchedulerKind::Pro, scale).result.cycles;
        let mut row = format!("{name:<32} {base:>10}");
        for s in [
            SchedulerKind::ProNoBarrier,
            SchedulerKind::ProNoFinish,
            SchedulerKind::ProNoSlowPhase,
            SchedulerKind::ProAdaptive,
        ] {
            let c = run_cell(&w, s, scale).result.cycles;
            row.push_str(&format!(" {:>9.3}x", base as f64 / c as f64));
        }
        println!("{row}");
    }
    println!("(paper: disabling barrier handling sped scalarProd up by ~11%)");
}

/// Design-choice sweep: PRO's THRESHOLD re-sort period (paper uses 1000).
fn sweep(scale: Scale) {
    use pro_core::{Pro, ProConfig};
    use pro_sim::Gpu;
    header("Sweep: PRO THRESHOLD (re-sort period) sensitivity, cycles per kernel");
    let thresholds = [100u64, 500, 1000, 2000, 5000, 20000];
    print!("{:<32}", "Kernel");
    for t in thresholds {
        print!(" {t:>9}");
    }
    println!();
    for name in ["aesEncrypt128", "laplace3d", "render", "scalarProdGPU"] {
        let w = registry()
            .into_iter()
            .find(|w| w.kernel == name)
            .expect("kernel present");
        print!("{name:<32}");
        for t in thresholds {
            let cfg = machine();
            let mut gpu = Gpu::new(cfg, w.recommended_gmem(scale));
            let built = w.build_scaled(&mut gpu.gmem, scale);
            let r = gpu
                .launch_custom(
                    &built.kernel,
                    &mut || {
                        Box::new(Pro::new(
                            cfg.sm.max_warps,
                            cfg.sm.max_tbs,
                            ProConfig {
                                threshold: t,
                                ..ProConfig::default()
                            },
                        ))
                    },
                    TraceOptions::default(),
                )
                .expect("run completes");
            print!(" {:>9}", r.cycles);
        }
        println!();
    }
    println!("(paper uses THRESHOLD = 1000; flat rows mean PRO is robust to the choice)");
}

/// Warp-level divergence report: mean cycles between a TB's first and last
/// warp completion (§II.B). Note the two-sided effect: PRO *creates* warp
/// progress disparity on purpose in the noWait phase (staggering
/// long-latency arrival), then shrinks the TB's tail via finishWait
/// prioritization — so its first-to-last gap can exceed LRR's even while
/// the TB as a whole completes sooner (compare with `repro fig4`).
fn wld(scale: Scale) {
    header("Warp-level divergence: mean (last−first) warp-finish gap per TB, cycles");
    let kernels = ["render", "kernel", "findRageK", "bpnn_layerforward", "scalarProdGPU"];
    println!(
        "{:<32} {:>9} {:>9} {:>9} {:>9}",
        "Kernel", "TL", "LRR", "GTO", "PRO"
    );
    for name in kernels {
        let w = registry()
            .into_iter()
            .find(|w| w.kernel == name)
            .expect("kernel present");
        print!("{name:<32}");
        for s in SchedulerKind::PAPER {
            let cell = run_cell(&w, s, scale);
            print!(" {:>9.0}", cell.result.sm.avg_wld());
        }
        println!();
    }
    println!("(gap is intentional under PRO's unequal-progress design; see fig4 for net effect)");
}

/// Cache behaviour per scheduler — the paper attributes PRO's few
/// slowdowns to "the increase in L1 and L2 cache miss rates" (§IV). This
/// report shows the L1/L2 miss rates each scheduler induces.
fn cache(scale: Scale) {
    header("Cache miss rates by scheduler (L1% / L2%)");
    let kernels = [
        "histogram256Kernel", // a PRO slowdown in our Fig. 4
        "inverseCNDKernel",   // another
        "aesEncrypt128",      // a PRO win
        "findK",              // latency-bound pointer chase
    ];
    println!(
        "{:<28} {:>13} {:>13} {:>13} {:>13}",
        "Kernel", "TL", "LRR", "GTO", "PRO"
    );
    for name in kernels {
        let w = registry()
            .into_iter()
            .find(|w| w.kernel == name)
            .expect("kernel present");
        print!("{name:<28}");
        for s in SchedulerKind::PAPER {
            let m = run_cell(&w, s, scale).result.mem;
            print!(
                "   {:>4.1}% {:>4.1}%",
                100.0 * m.l1.miss_rate(),
                100.0 * m.l2.miss_rate()
            );
        }
        println!();
    }
    println!("(the paper attributes PRO's rare slowdowns to elevated miss rates)");
}

/// Beyond the paper: sweep the synthetic-kernel generator's barrier-density
/// and memory-intensity knobs and watch where PRO's advantage over LRR
/// peaks. Each cell averages 3 random kernels per knob setting.
fn synthsweep() {
    use pro_sim::Gpu;
    use pro_workloads::synth::{generate, SynthParams};
    header("Synthetic workload-space sweep: PRO speedup over LRR by knob");
    let run = |p: SynthParams, s: SchedulerKind| -> u64 {
        let mut gpu = Gpu::new(machine(), 32 << 20);
        let k = generate(&mut gpu.gmem, p);
        gpu.launch(&k.kernel, s, TraceOptions::default())
            .expect("synth runs")
            .cycles
    };
    println!("{:<26} {:>10}", "knob", "PRO/LRR");
    for (label, mem, barrier) in [
        ("compute only", 0.05, 0.0),
        ("mem 0.3", 0.3, 0.0),
        ("mem 0.6", 0.6, 0.0),
        ("mem 0.3 + barrier 0.2", 0.3, 0.2),
        ("mem 0.3 + barrier 0.4", 0.3, 0.4),
        ("barrier 0.5 only", 0.05, 0.5),
    ] {
        let mut speedups = Vec::new();
        for seed in 0..3u64 {
            let p = SynthParams {
                seed: seed * 1000 + 17,
                blocks: 224,
                threads: 192,
                statements: 12,
                mem_prob: mem,
                barrier_prob: barrier,
                scatter_prob: 0.4,
                sfu_prob: 0.05,
                branch_prob: 0.15,
                loop_prob: 0.1,
                max_trip: 8,
            };
            let lrr = run(p, SchedulerKind::Lrr);
            let pro = run(p, SchedulerKind::Pro);
            speedups.push(lrr as f64 / pro as f64);
        }
        println!("{:<26} {:>9.3}x", label, geomean_finite(speedups));
    }
    println!("(each row: geomean over 3 random kernels at 224 TBs x 192 threads)");
}

/// Write SVG renderings of Fig. 2 (Gantt) and Fig. 4 (bars) to the
/// current directory.
fn svg_figs(scale: Scale, quick: bool) {
    use pro_bench::svg::{barchart, gantt, BarGroup};
    header("SVG figures: fig2_lrr.svg, fig2_pro.svg, fig4.svg");
    // Fig. 2 Gantt per scheduler.
    let w = registry()
        .into_iter()
        .find(|w| w.kernel == "laplace3d")
        .expect("LPS present");
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let cell = run_cell_with(
            &w,
            sched,
            scale,
            GpuConfig::small(4),
            TraceOptions {
                timeline: true,
                ..Default::default()
            },
        );
        let spans: Vec<_> = cell
            .result
            .timeline
            .iter()
            .copied()
            .filter(|s| s.sm == 0)
            .collect();
        let svg = gantt(
            &format!("Fig. 2: LPS thread blocks on SM 0 under {sched}"),
            &spans,
            cell.result.cycles,
        );
        let path = format!("fig2_{}.svg", sched.name().to_lowercase());
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {path}");
    }
    // Fig. 4 bar chart.
    let ws = kernels(quick);
    let jobs: Vec<(pro_workloads::Workload, SchedulerKind)> = ws
        .iter()
        .flat_map(|w| SchedulerKind::PAPER.into_iter().map(move |s| (*w, s)))
        .collect();
    let cells = pro_bench::parallel_map(&jobs, |(w, s)| run_cell(w, *s, scale));
    let groups: Vec<BarGroup> = ws
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let pro = cells[i * 4 + 3].result.cycles as f64;
            BarGroup {
                label: w.kernel.to_string(),
                values: vec![
                    cells[i * 4].result.cycles as f64 / pro,
                    cells[i * 4 + 1].result.cycles as f64 / pro,
                    cells[i * 4 + 2].result.cycles as f64 / pro,
                ],
            }
        })
        .collect();
    let svg = barchart(
        "Fig. 4: PRO speedup over TL / LRR / GTO",
        &["vs TL", "vs LRR", "vs GTO"],
        &groups,
    );
    std::fs::write("fig4.svg", svg).expect("write svg");
    println!("wrote fig4.svg");
    // Fig. 1 stacked stall shares per app under LRR.
    use pro_bench::svg::{stacked_bars, StackedBar};
    let rows = run_apps(SchedulerKind::Lrr, scale, quick);
    let bars: Vec<StackedBar> = rows
        .iter()
        .map(|(app, t)| StackedBar {
            label: app.to_string(),
            segments: vec![t.pipeline as f64, t.idle as f64, t.scoreboard as f64],
        })
        .collect();
    let svg = stacked_bars(
        "Fig. 1(b): stall type shares under LRR",
        &["pipeline", "idle", "scoreboard"],
        &bars,
    );
    std::fs::write("fig1_lrr.svg", svg).expect("write svg");
    println!("wrote fig1_lrr.svg");
}

/// Dump every (kernel × scheduler) result as JSON on stdout. With a
/// checkpoint directory, cells persist `.done`/`.ckpt` state there and a
/// crashed worker is retried from its last snapshot; the aggregate output
/// is byte-identical either way. `--heartbeat N` additionally rewrites a
/// `status.json` (in the checkpoint directory if given, else the cwd) at
/// most every `N` seconds — the JSON on stdout is unaffected, and the
/// heartbeat lines go to stderr.
#[allow(clippy::too_many_arguments)]
fn json_export(
    scale: Scale,
    quick: bool,
    ckpt_dir: Option<&str>,
    every: u64,
    delta: bool,
    keep: usize,
    heartbeat: Option<u64>,
) {
    use pro_bench::heartbeat::Heartbeat;
    use pro_bench::sweep::cell_stem;
    let ws = kernels(quick);
    let jobs: Vec<(pro_workloads::Workload, SchedulerKind)> = ws
        .iter()
        .flat_map(|w| SchedulerKind::PAPER.into_iter().map(move |s| (*w, s)))
        .collect();
    // The checkpoint directory must exist before the heartbeat's initial
    // status write lands in it.
    let dir = ckpt_dir.map(|d| {
        let dir = std::path::PathBuf::from(d);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
            eprintln!("{}: {e}", dir.display());
            std::process::exit(2);
        });
        dir
    });
    let hb: Option<std::sync::Arc<Heartbeat>> = heartbeat.map(|secs| {
        let status = dir
            .as_deref()
            .unwrap_or_else(|| std::path::Path::new("."))
            .join("status.json");
        std::sync::Arc::new(Heartbeat::new(status, secs, jobs.len() as u64))
    });
    let cells = match &dir {
        None => pro_bench::parallel_map(&jobs, |(w, s)| {
            let cell = match &hb {
                Some(hb) => pro_bench::sweep::run_cell_monitored(
                    w,
                    *s,
                    scale,
                    machine(),
                    TraceOptions::default(),
                    Some(hb.progress_fn(cell_stem(w, *s))),
                ),
                None => run_cell(w, *s, scale),
            };
            if let Some(hb) = &hb {
                hb.cell_finished();
            }
            cell
        }),
        Some(dir) => pro_bench::parallel_map_recover(&jobs, |(w, s)| {
            let progress = hb.as_ref().map(|hb| hb.progress_fn(cell_stem(w, *s)));
            let cell = pro_bench::sweep::run_cell_recoverable(
                w,
                *s,
                scale,
                machine(),
                TraceOptions::default(),
                dir,
                every,
                delta,
                keep,
                progress,
            );
            if let Some(hb) = &hb {
                hb.cell_finished();
            }
            cell
        }),
    };
    if let Some(hb) = &hb {
        hb.finish();
    }
    println!("{}", pro_bench::json::export_cells(&cells));
}

/// 9-policy shootout: every scheduler in [`SchedulerKind::ALL`] across the
/// workload matrix, run with the host profiler on
/// ([`TraceOptions::host_prof`]). Prints one aligned row per policy —
/// simulated-side stall attribution next to host-side cost (wall clock,
/// run-loop phase shares, event-queue depth) — and writes the same numbers
/// to `shootout.json` for tooling.
fn shootout(scale: Scale, quick: bool) {
    use pro_bench::json::{num, obj, s, unum, Json};
    use pro_trace::Metrics;
    header("Shootout: 9 warp-scheduling policies — stalls vs host cost");
    let ws = kernels(quick);
    let trace = TraceOptions {
        host_prof: true,
        ..Default::default()
    };
    let jobs: Vec<(pro_workloads::Workload, SchedulerKind)> = ws
        .iter()
        .flat_map(|w| SchedulerKind::ALL.into_iter().map(move |s| (*w, s)))
        .collect();
    let cells = parallel_map(&jobs, |(w, s)| run_cell_with(w, *s, scale, machine(), trace));

    // Per-policy aggregate: simulated counters sum plainly; the host-side
    // registries fold through `Metrics::merge` (counters add — correct for
    // nanosecond and event totals — and histograms merge bucket-wise).
    // High-water marks are max'd by hand since adding them is meaningless.
    struct Row {
        sched: SchedulerKind,
        cycles: u64,
        instructions: u64,
        idle: u64,
        scoreboard: u64,
        pipeline: u64,
        evq_hwm: u64,
        host: Metrics,
        vs_lrr: Vec<f64>,
    }
    let mut rows: Vec<Row> = SchedulerKind::ALL
        .into_iter()
        .map(|sched| Row {
            sched,
            cycles: 0,
            instructions: 0,
            idle: 0,
            scoreboard: 0,
            pipeline: 0,
            evq_hwm: 0,
            host: Metrics::new(),
            vs_lrr: Vec::new(),
        })
        .collect();
    let nsched = SchedulerKind::ALL.len();
    for (wi, _) in ws.iter().enumerate() {
        let lrr_cycles = cells[wi * nsched].result.cycles;
        for (si, row) in rows.iter_mut().enumerate() {
            let c = &cells[wi * nsched + si];
            debug_assert_eq!(c.sched, row.sched);
            row.cycles += c.result.cycles;
            row.instructions += c.result.sm.instructions;
            row.idle += c.result.sm.idle;
            row.scoreboard += c.result.sm.scoreboard;
            row.pipeline += c.result.sm.pipeline;
            row.evq_hwm = row
                .evq_hwm
                .max(c.result.metrics.counter("host/mem.evq.hwm").unwrap_or(0));
            row.host.merge(&c.result.metrics);
            row.vs_lrr.push(lrr_cycles as f64 / c.result.cycles as f64);
        }
    }

    println!(
        "{:<8} {:>7} {:>6} | {:>6} {:>6} {:>6} | {:>9} {:>6} {:>6} {:>6} {:>12} {:>6} | {:>7} {:>7} {:>7}",
        "Policy", "vsLRR", "IPC", "idle%", "sb%", "pipe%", "wall ms", "mem%", "issue%", "reuse%",
        "probes/issue", "merge%", "evq p50", "evq p99", "evq hwm"
    );
    let mut json_rows = Vec::new();
    for row in &rows {
        let stalls = (row.idle + row.scoreboard + row.pipeline).max(1) as f64;
        let wall = row.host.counter("host/wall.ns").unwrap_or(0);
        let phase = |p: &str| row.host.counter(&format!("host/phase.{p}.ns")).unwrap_or(0);
        let share = |ns: u64| 100.0 * ns as f64 / wall.max(1) as f64;
        let evq_p50 = row
            .host
            .hist("host/mem.evq.depth")
            .map_or(0, |h| h.quantile_bound(0.5));
        let evq_p99 = row
            .host
            .hist("host/mem.evq.depth")
            .map_or(0, |h| h.quantile_bound(0.99));
        let vs_lrr = geomean_finite(row.vs_lrr.iter().copied());
        // Incremental issue path (DESIGN.md §15): what fraction of
        // unit-cycles reused last cycle's scheduler order verbatim.
        let reused = row.host.counter("host/issue/orders_reused").unwrap_or(0);
        let recomputed = row.host.counter("host/issue/orders_recomputed").unwrap_or(0);
        let mask_skips = row.host.counter("host/issue/mask_skips").unwrap_or(0);
        let reuse_pct = 100.0 * reused as f64 / (reused + recomputed).max(1) as f64;
        // Warps the walk tested per issued instruction: 1 would be one
        // probe per instruction, the excess is scoreboard refusals.
        let probes = row.host.counter("host/issue/probes").unwrap_or(0);
        let ready_hits = row.host.counter("host/issue/ready_hits").unwrap_or(0);
        println!(
            "{:<8} {:>6.3}x {:>6.2} | {:>5.1}% {:>5.1}% {:>5.1}% | {:>9.1} {:>5.1}% {:>5.1}% {:>5.1}% {:>12.2} {:>5.1}% | {:>7} {:>7} {:>7}",
            row.sched.name(),
            vs_lrr,
            row.instructions as f64 / row.cycles.max(1) as f64,
            100.0 * row.idle as f64 / stalls,
            100.0 * row.scoreboard as f64 / stalls,
            100.0 * row.pipeline as f64 / stalls,
            wall as f64 / 1e6,
            share(phase("mem")),
            share(phase("issue")),
            reuse_pct,
            probes as f64 / row.instructions.max(1) as f64,
            share(phase("merge")),
            evq_p50,
            evq_p99,
            row.evq_hwm,
        );
        json_rows.push(obj(vec![
            ("policy", s(row.sched.name())),
            ("vs_lrr_geomean", num(vs_lrr)),
            ("cycles", unum(row.cycles)),
            ("instructions", unum(row.instructions)),
            ("idle", unum(row.idle)),
            ("scoreboard", unum(row.scoreboard)),
            ("pipeline", unum(row.pipeline)),
            ("host_wall_ns", unum(wall)),
            ("host_mem_phase_ns", unum(phase("mem"))),
            ("host_issue_phase_ns", unum(phase("issue"))),
            ("host_merge_phase_ns", unum(phase("merge"))),
            ("issue_orders_reused", unum(reused)),
            ("issue_orders_recomputed", unum(recomputed)),
            ("issue_mask_skips", unum(mask_skips)),
            ("issue_probes", unum(probes)),
            ("issue_ready_hits", unum(ready_hits)),
            ("evq_depth_p50", unum(evq_p50)),
            ("evq_depth_p99", unum(evq_p99)),
            ("evq_depth_hwm", unum(row.evq_hwm)),
        ]));
    }
    let doc = obj(vec![
        ("kernels", unum(ws.len() as u64)),
        ("policies", Json::Arr(json_rows)),
    ]);
    std::fs::write("shootout.json", format!("{doc}")).expect("write shootout.json");
    println!("\n(stall shares are of total stall unit-cycles; host %s are of host wall time)");
    println!("wrote shootout.json");
}

/// Substrate ablation: Table I names FR-FCFS as the DRAM scheduler. Show
/// what it buys — row-hit rate and kernel runtime — against plain FCFS on
/// memory-bound kernels.
fn dram_ablation(scale: Scale) {
    use pro_sim::Gpu;
    header("DRAM scheduler ablation: FR-FCFS (Table I) vs plain FCFS, PRO runs");
    println!(
        "{:<32} {:>12} {:>12} {:>9} {:>9}",
        "Kernel", "FR-FCFS cyc", "FCFS cyc", "FR rowhit", "FC rowhit"
    );
    for name in ["convolutionRowsKernel", "bpnn_adjust_weights_cuda", "kernel", "findK"] {
        let w = registry()
            .into_iter()
            .find(|w| w.kernel == name)
            .expect("kernel present");
        let mut row = format!("{name:<32}");
        let mut rates = Vec::new();
        for policy in [pro_sim::mem::DramPolicy::FrFcfs, pro_sim::mem::DramPolicy::Fcfs] {
            let mut cfg = machine();
            cfg.mem.dram.policy = policy;
            let mut gpu = Gpu::new(cfg, w.recommended_gmem(scale));
            let built = w.build_scaled(&mut gpu.gmem, scale);
            let r = gpu
                .launch(&built.kernel, SchedulerKind::Pro, TraceOptions::default())
                .expect("runs");
            row.push_str(&format!(" {:>12}", r.cycles));
            rates.push(r.mem.dram.row_hit_rate());
        }
        for rate in rates {
            row.push_str(&format!(" {:>8.1}%", 100.0 * rate));
        }
        println!("{row}");
    }
    println!("(FR-FCFS should match or beat FCFS via row-buffer locality)");
}

/// Print a workload's VPTX disassembly and static instruction mix.
fn disasm(name: &str) {
    let Some(w) = registry().into_iter().find(|w| w.kernel == name) else {
        eprintln!("unknown kernel `{name}`; pick one of:");
        for w in registry() {
            eprintln!("  {}", w.kernel);
        }
        std::process::exit(2);
    };
    let mut gmem = pro_sim::mem::GlobalMem::new(256 << 20);
    let built = (w.build)(&mut gmem, 4);
    let p = &built.kernel.program;
    println!("{}", p.disassemble());
    let m = p.mix();
    println!(
        "# static mix: {} alu, {} sfu, {} global-mem, {} shared-mem, {} barriers, {} ctrl",
        m.alu, m.sfu, m.global_mem, m.shared_mem, m.barriers, m.ctrl
    );
    println!(
        "# footprint: {} regs/thread, {} preds, {} B shared, {} threads/TB, {} TBs (Table II)",
        p.regs, p.preds, p.shared_bytes, w.threads_per_tb, w.table2_tbs
    );
}

/// Ready-warp occupancy: mean warps per scheduler unit that are eligible
/// to issue (fetched + hazard-free). §III's causal mechanism: PRO's
/// prioritization should keep this pool larger than LRR's around
/// long-latency phases.
fn ready(scale: Scale) {
    header("Ready-warp occupancy: mean issuable warps per scheduler unit");
    let kernels = ["aesEncrypt128", "sha1_overlap", "findK", "scalarProdGPU", "render"];
    println!(
        "{:<32} {:>8} {:>8} {:>8} {:>8}",
        "Kernel", "TL", "LRR", "GTO", "PRO"
    );
    for name in kernels {
        let w = registry()
            .into_iter()
            .find(|w| w.kernel == name)
            .expect("kernel present");
        print!("{name:<32}");
        for s in SchedulerKind::PAPER {
            let cell = run_cell(&w, s, scale);
            print!(" {:>8.2}", cell.result.sm.avg_ready_warps());
        }
        println!();
    }
    println!("(larger pool = more latency-hiding headroom; paper §III)");
}

/// Per-SM utilization heatmap over the kernel's lifetime: each row is an
/// SM, each column ~2% of the runtime, brightness = issue rate. The LRR
/// tail (dark right edge on every SM at batch boundaries) vs PRO's
/// smoother fade-out is the §II.C residency effect at a glance.
fn occupancy(scale: Scale) {
    header("Per-SM utilization heatmap (issue rate over time): LRR vs PRO");
    const GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let w = registry()
        .into_iter()
        .find(|w| w.kernel == "laplace3d")
        .expect("LPS present");
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let mut cfg = machine();
        cfg.num_sms = cfg.num_sms.min(8); // keep the chart readable
        // Pick a period ≈ runtime/50.
        let probe = run_cell_with(&w, sched, scale, cfg, TraceOptions::default());
        let period = (probe.result.cycles / 50).max(1);
        let cell = run_cell_with(
            &w,
            sched,
            scale,
            cfg,
            TraceOptions {
                utilization_period: period,
                ..Default::default()
            },
        );
        println!(
            "
--- {} ({} cycles, {} cycles/column) ---",
            sched, cell.result.cycles, period
        );
        let peak = cell
            .result
            .utilization
            .iter()
            .flat_map(|r| r.iter().copied())
            .max()
            .unwrap_or(1)
            .max(1);
        for (i, row) in cell.result.utilization.iter().enumerate() {
            let line: String = row
                .iter()
                .map(|&v| GLYPHS[(v * 8 / peak) as usize])
                .collect();
            println!("SM{i:<2} {line}");
        }
    }
}

/// Structured tracing: run one kernel with the event bus wide open and
/// export the stream twice — JSONL for `trace-report`, Chrome trace_event
/// JSON for ui.perfetto.dev / chrome://tracing.
fn trace_cmd(scale: Scale, args: &[String]) {
    use pro_trace::{
        aggregate, chrome_trace, ClassSet, EventClass, JsonlTracer, RingTracer, Tee,
    };
    use pro_sim::Gpu;
    let mut rest = args.iter().skip(1).filter(|a| !a.starts_with("--"));
    let name = rest.next().map(String::as_str).unwrap_or("laplace3d");
    let sched_name = rest.next().map(String::as_str).unwrap_or("pro");
    let Some(sched) = SchedulerKind::PAPER
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(sched_name))
    else {
        eprintln!("unknown scheduler `{sched_name}` (pick tl, lrr, gto or pro)");
        std::process::exit(2);
    };
    let Some(w) = registry().into_iter().find(|w| w.kernel == name) else {
        eprintln!("unknown kernel `{name}`; see `repro workloads`");
        std::process::exit(2);
    };
    header(&format!("Structured trace: {name} under {sched} (4-SM slice)"));
    // The 4-SM slice keeps the full-fidelity stream at demo size (a few
    // MB); the event schema is identical at any machine size.
    let cfg = GpuConfig::small(4);
    let mut gpu = Gpu::new(cfg, w.recommended_gmem(scale));
    let built = w.build_scaled(&mut gpu.gmem, scale);
    let mut jsonl = JsonlTracer::new(Vec::<u8>::new());
    // The Chrome export only needs TB spans, memory lifecycle and barrier
    // instants; a class-filtered ring keeps it allocation-free mid-run.
    let mut ring = RingTracer::with_classes(
        1 << 20,
        ClassSet::of(&[EventClass::Tb, EventClass::Mem, EventClass::Barrier]),
    );
    let mut tee = Tee::new(&mut jsonl, &mut ring);
    let r = gpu
        .launch_traced(&built.kernel, sched, TraceOptions::default(), &mut tee)
        .expect("traced run completes");
    println!("{}", r.summary());

    let lines = jsonl.lines_written;
    let text = String::from_utf8(jsonl.into_inner()).expect("jsonl is utf-8");
    let base = format!("trace_{}_{}", name, sched.name().to_lowercase());
    let jsonl_path = format!("{base}.jsonl");
    std::fs::write(&jsonl_path, &text).expect("write jsonl");
    if ring.total_emitted() > ring.len() as u64 {
        println!(
            "[ring] kept newest {} of {} chrome-lane events",
            ring.len(),
            ring.total_emitted()
        );
    }
    let chrome = chrome_trace(name, ring.records(), r.cycles);
    let chrome_path = format!("{base}.chrome.json");
    std::fs::write(&chrome_path, &chrome).expect("write chrome json");
    println!("wrote {jsonl_path} ({lines} lines) and {chrome_path} (load into ui.perfetto.dev)\n");

    // Reduce the stream straight back and cross-check it against the
    // simulator's own counters — the bus and the stats must agree exactly.
    let (reports, bad) = aggregate(&text);
    for rep in &reports {
        print!("{}", rep.render());
    }
    if bad > 0 {
        println!("[{bad} unparseable lines]");
    }
    if let Some(rep) = reports.first() {
        let tot = rep.total_stalls().max(1) as f64;
        let dev = (rep.idle as f64 / tot - r.idle_frac())
            .abs()
            .max((rep.scoreboard as f64 / tot - r.scoreboard_frac()).abs())
            .max((rep.pipeline as f64 / tot - r.pipeline_frac()).abs());
        println!("[cross-check] max |trace - counters| stall-share deviation: {dev:.1e}");
        // The bus and the counters measure the same machine; any real
        // disagreement is a tracing bug and must fail the run, not just
        // print — CI greps rot, exit codes don't.
        if dev > 1e-6 {
            eprintln!("error: trace/counter stall shares diverge (deviation {dev:.1e} > 1e-6)");
            std::process::exit(1);
        }
    }
}

/// Reduce a JSONL trace (written by `repro trace` or any [`pro_trace::JsonlTracer`])
/// back to per-kernel stall/memory reports.
fn trace_report(args: &[String]) {
    let Some(path) = args.iter().skip(1).find(|a| !a.starts_with("--")) else {
        eprintln!("usage: repro trace-report <file.jsonl>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    };
    let (reports, bad) = pro_trace::aggregate(&text);
    if reports.is_empty() {
        eprintln!("{path}: no KernelBegin/KernelEnd markers found");
        std::process::exit(2);
    }
    for rep in &reports {
        print!("{}", rep.render());
    }
    if bad > 0 {
        println!("[{bad} unparseable lines]");
    }
}
