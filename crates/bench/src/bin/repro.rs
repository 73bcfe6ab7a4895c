//! `repro` — regenerate every table and figure of the PRO paper.
//!
//! ```text
//! repro <command> [--full-scale] [--quick] [--config FILE] [--jobs N]
//! ```
//!
//! The commands are the rows of [`COMMANDS`] (described one by one in
//! `pro_bench`'s crate documentation), plus `all`.
//!
//! `--full-scale` runs the exact Table II grid sizes (slow);
//! `--quick` restricts kernel sweeps to one kernel per application.
//!
//! Parallelism — host-side only, never changes results: `--jobs N` runs
//! independent (kernel × scheduler) simulations on `N` pool threads (0 or
//! unset = all cores). Output is byte-identical at any `N` because results
//! are collected in submission order.

use pro_bench::paper::{self, idle_share, order_changes, Evidence, Kind, Speedups, Stalls, Summary};
use pro_bench::{geomean_finite, pairs, parallel_map, run_cell, Cell, Experiment, Grid};
use pro_core::SchedulerKind;
use pro_sim::{GpuConfig, TraceOptions};
use pro_workloads::{find, registry, Scale, Workload};

/// Every `--option` the CLI understands, with what its value is for the
/// ones that take one; anything else is refused so a typo (or a removed
/// flag) cannot silently run with defaults.
const OPTIONS: &[(&str, Option<&str>)] = &[
    ("--full-scale", None),
    ("--quick", None),
    ("--config", Some("a path")),
    ("--jobs", Some("a non-negative integer")),
    ("--seeds", Some("a positive integer")),
];

/// One `repro` command: its name, its operands as the usage line shows
/// them, what runs it, and whether `repro all` does.
type Command = (&'static str, &'static str, fn(&mut Experiment, &[String]), bool);

/// Every command but `all`, which runs the marked ones in this order. The
/// usage line, the dispatch and `all` read this table and nothing else.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("config", "", |exp, _| config(exp), true),
    ("workloads", "", |exp, _| workloads(exp), true),
    ("fig1", "", |exp, _| fig1(exp), true),
    ("fig2", "", |exp, _| fig2(exp), true),
    ("fig4", "", |exp, _| fig4(exp), true),
    ("fig5", "", |exp, _| fig5(exp), true),
    ("table3", "", |exp, _| table3(exp), true),
    ("table4", "", |exp, _| table4(exp), true),
    ("ablation", "", |exp, _| ablation(exp), true),
    ("sweep", "", |exp, _| sweep(exp), true),
    ("wld", "", |exp, _| wld(exp), true),
    ("cache", "", |exp, _| cache(exp), true),
    ("ready", "", |exp, _| ready(exp), true),
    ("occupancy", "", |exp, _| occupancy(exp), true),
    ("synthsweep", "", |exp, _| synthsweep(exp), true),
    ("dram", "", |exp, _| dram_ablation(exp), true),
    ("svg", "", |exp, _| svg_figs(exp), false),
    ("correlate", "", |exp, _| correlate(exp), false),
    ("sensitivity", "", |exp, _| sensitivity(exp), false),
    ("envelope", "", |exp, _| envelope(exp), false),
    ("json", "", |exp, _| json_export(exp), false),
    ("shootout", "", |exp, _| shootout(exp), false),
    ("disasm", " <kernel>", |_, ops| disasm(ops), false),
    ("trace", " [kernel] [tl|lrr|gto|pro]", |exp, ops| trace_cmd(exp, ops), false),
    ("trace-report", " <file.jsonl>", |_, ops| trace_report(ops), false),
];

fn usage() -> ! {
    let commands: Vec<String> = COMMANDS.iter().map(|(name, operands, ..)| format!("{name}{operands}")).collect();
    eprintln!(
        "usage: repro <{} | all> [--full-scale] [--quick] [--config FILE] [--jobs N] [--seeds N]",
        commands.join(" | ")
    );
    std::process::exit(2);
}

/// The command line, parsed once: a value-taking option consumes its
/// value, so what is left over really is the command and its operands.
struct Cli {
    /// The command, then its operands.
    positionals: Vec<String>,
    /// The options given, each with its value if it takes one.
    options: Vec<(&'static str, Option<String>)>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Cli {
        let mut cli = Cli {
            positionals: Vec::new(),
            options: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                cli.positionals.push(arg);
                continue;
            }
            let Some(&(name, takes)) = OPTIONS.iter().find(|(name, _)| *name == arg) else {
                eprintln!("unknown option {arg}");
                usage();
            };
            let value = takes.map(|what| {
                args.next_if(|v| !v.starts_with("--")).unwrap_or_else(|| {
                    eprintln!("{name} requires {what}");
                    std::process::exit(2);
                })
            });
            cli.options.push((name, value));
        }
        cli
    }

    fn has(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| *n == name)
    }

    /// The value given to `name`, if the option is present.
    fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.options.iter().find(|(n, _)| *n == name)?;
        value.as_deref()
    }

    /// [`Cli::value`] as a count.
    fn count(&self, name: &str) -> Option<usize> {
        self.value(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} requires a non-negative integer");
                std::process::exit(2);
            })
        })
    }
}

fn main() {
    let cli = Cli::parse(std::env::args().skip(1));
    let (cmd, operands) = match cli.positionals.split_first() {
        Some((cmd, operands)) => (cmd.as_str(), operands),
        None => usage(),
    };
    // Optional --config <path>: override the simulated machine for every
    // experiment run in this invocation.
    let machine = match cli.value("--config") {
        None => GpuConfig::gtx480(),
        Some(path) => pro_sim::load_config(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }),
    };
    let scale = if cli.has("--full-scale") {
        Scale::Full
    } else {
        Scale::default()
    };
    let exp = &mut Experiment::new(scale, cli.has("--quick"), machine);
    // Optional --jobs <N>: experiment-pool width (independent simulations).
    if let Some(n) = cli.count("--jobs") {
        exp.jobs = n;
    }
    // Optional --seeds <N>: random orders per kernel in `repro envelope`.
    if let Some(n) = cli.count("--seeds") {
        if n == 0 {
            eprintln!("--seeds requires a positive integer");
            std::process::exit(2);
        }
        exp.seeds = n as u64;
    }
    if cmd == "all" {
        for (.., run, _) in COMMANDS.iter().filter(|(.., in_all)| *in_all) {
            run(exp, operands);
        }
    } else if let Some((.., run, _)) = COMMANDS.iter().find(|(name, ..)| *name == cmd) {
        run(exp, operands);
    } else {
        usage();
    }
}

/// The Table II kernels called `names`, in that order.
fn named(names: &[&str]) -> Vec<Workload> {
    names
        .iter()
        .map(|name| find(name).expect("kernel present"))
        .collect()
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Table I.
fn config(exp: &Experiment) {
    header("Table I: GPGPU-Sim-equivalent configuration (Rust simulator)");
    let c = exp.machine;
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
fn workloads(exp: &Experiment) {
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
            w.effective_tbs(exp.scale)
        );
    }
}

/// Fig. 1: stall breakdown per app for TL, LRR, GTO.
fn fig1(exp: &mut Experiment) {
    header("Fig. 1: stall type breakdown (% of stall cycles) for TL / LRR / GTO");
    let grid = exp.cells(
        &exp.kernels(),
        &[SchedulerKind::Tl, SchedulerKind::Lrr, SchedulerKind::Gto],
    );
    let per_sched = [0, 1, 2].map(|s| grid.app_totals(s));
    println!(
        "{:<14} {:>23} {:>23} {:>23}",
        "", "TL (pipe/idle/sb)", "LRR (pipe/idle/sb)", "GTO (pipe/idle/sb)"
    );
    for (i, (app, _)) in per_sched[0].iter().enumerate() {
        print!("{app:<14}");
        for rows in &per_sched {
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
    let [tl, lrr, gto] = per_sched.each_ref().map(|rows| 100.0 * idle_share(rows.iter().map(|(_, t)| t)));
    println!("\n[aggregate idle share] TL {tl:.1}%  LRR {lrr:.1}%  GTO {gto:.1}%");
}

/// Fig. 2: TB execution timeline on SM 0, LRR vs PRO (LPS kernel).
///
/// The paper's figure shows ~18 TBs on one SM (≈3 residency batches). LPS
/// has 100 TBs; running it on a 4-SM slice of the GPU gives SM 0 a
/// comparable ~25-TB share without changing per-SM behaviour.
fn fig2(exp: &Experiment) {
    header("Fig. 2: thread block execution on one SM — LRR vs PRO (4-SM slice)");
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let (mut spans, cycles) = paper::fig2_timeline(exp, sched);
        spans.sort_by_key(|s| s.start);
        println!("\n--- {sched} (SM 0, {} TBs, kernel total {cycles} cycles) ---", spans.len());
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
        let total = cycles.max(1);
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
fn fig4(exp: &mut Experiment) {
    header("Fig. 4: PRO speedup over TL / LRR / GTO (cycles ratio, >1 = PRO faster)");
    println!(
        "{:<32} {:>9} {:>9} {:>9} {:>12}",
        "Kernel", "vs TL", "vs LRR", "vs GTO", "PRO cycles"
    );
    let grid = exp.cells(&exp.kernels(), &SchedulerKind::PAPER);
    let fig = Speedups::of(&grid);
    for ((kernel, [a, b, c]), row) in fig.kernels.iter().zip(grid.rows()) {
        println!("{kernel:<32} {a:>9.3} {b:>9.3} {c:>9.3} {:>12}", row[3].result.cycles);
    }
    let [a, b, c] = fig.geomean;
    println!(
        "{:<32} {a:>9.3} {b:>9.3} {c:>9.3}   (paper: {:.2} / {:.2} / {:.2})",
        "GEOMEAN",
        paper::paper("fig4.geomean_vs_tl"),
        paper::paper("fig4.geomean_vs_lrr"),
        paper::paper("fig4.geomean_vs_gto")
    );
}

/// Fig. 5: total stall ratios baseline/PRO per application.
fn fig5(exp: &mut Experiment) {
    header("Fig. 5: stall-cycle improvement (baseline stalls / PRO stalls)");
    let stalls = Stalls::of(&exp.cells(&exp.kernels(), &SchedulerKind::PAPER));
    println!(
        "{:<14} {:>8} {:>8} {:>8}",
        "Application", "TL/PRO", "LRR/PRO", "GTO/PRO"
    );
    let total = |ratios: [f64; 4]| ratios[3];
    for (app, t) in &stalls.apps {
        let [a, b, c] = [0, 1, 2].map(|base| total(Stalls::ratios(t, base)));
        println!("{app:<14} {a:>8.2} {b:>8.2} {c:>8.2}");
    }
    let [a, b, c] = stalls.geomean.map(total);
    println!(
        "{:<14} {a:>8.2} {b:>8.2} {c:>8.2}   (paper: {:.2} / {:.2} / {:.2})",
        "GEOMEAN",
        paper::paper("fig5.tl"),
        paper::paper("fig5.lrr"),
        paper::paper("fig5.gto")
    );
}

/// Table III: stall cycles of PRO per type + per-type ratios vs baselines.
fn table3(exp: &mut Experiment) {
    header("Table III: stall-cycle detail (PRO absolute; ratios baseline/PRO)");
    let stalls = Stalls::of(&exp.cells(&exp.kernels(), &SchedulerKind::PAPER));
    println!(
        "{:<14} | {:>10} {:>10} {:>10} | {:>21} | {:>21} | {:>21}",
        "", "PRO Pipe", "PRO Idle", "PRO SB", "TL p/i/s/total", "LRR p/i/s/total", "GTO p/i/s/total"
    );
    let fmt4 = |[p, i, s, total]: [f64; 4]| format!("{p:>4.2} {i:>4.2} {s:>4.2} {total:>5.2}");
    for (app, t) in &stalls.apps {
        let p = t[3];
        let [a, b, c] = [0, 1, 2].map(|base| fmt4(Stalls::ratios(t, base)));
        println!(
            "{app:<14} | {:>10} {:>10} {:>10} | {a:>21} | {b:>21} | {c:>21}",
            p.pipeline, p.idle, p.scoreboard
        );
    }
    let stated = ["table3.tl_pipeline", "table3.tl_idle", "table3.tl_scoreboard", "fig5.tl"]
        .map(|id| format!("{:.2}", paper::paper(id)));
    let [a, b, c] = stalls.geomean.map(fmt4);
    println!(
        "{:<14} | {:>32} | {a} | {b} | {c}",
        "GEOMEAN",
        format!("(paper TL: {})", stated.join(" "))
    );
}

/// Table IV: PRO's sorted TB order on SM 0 over time, for AES.
fn table4(exp: &Experiment) {
    header("Table IV: PRO sorted TB order (AES, SM 0, sampled every 1000 cycles)");
    let samples = paper::tb_order_cell(exp).result.tb_order;
    let shown = &samples[..samples.len().min(20)];
    println!("{:<8}  TB global indices (highest priority first)", "Cycle");
    for snap in shown {
        let order: Vec<String> = snap.order.iter().map(|g| g.to_string()).collect();
        println!("{:<8}  {}", snap.cycle, order.join(" "));
    }
    println!("[order changed {} times across the shown samples]", order_changes(shown));
}

/// §IV diagnostic: barrier-handling ablation on barrier-heavy kernels,
/// including the PRO-AD adaptive variant (the paper's future work).
fn ablation(exp: &mut Experiment) {
    header("Ablation: PRO variants on barrier-heavy kernels (ratio vs PRO, >1 = variant faster)");
    let kernels = named(&[
        "scalarProdGPU",
        "MonteCarloOneBlockPerOption",
        "dynproc_kernel",
        "bpnn_layerforward",
    ]);
    println!(
        "{:<32} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "Kernel", "PRO", "PRO-NB", "PRO-NF", "PRO-NS", "PRO-AD"
    );
    let grid = exp.cells(
        &kernels,
        &[
            SchedulerKind::Pro,
            SchedulerKind::ProNoBarrier,
            SchedulerKind::ProNoFinish,
            SchedulerKind::ProNoSlowPhase,
            SchedulerKind::ProAdaptive,
        ],
    );
    for cells in grid.rows() {
        let base = cells[0].result.cycles;
        let mut row = format!("{:<32} {base:>10}", cells[0].kernel);
        for variant in &cells[1..] {
            let c = variant.result.cycles;
            row.push_str(&format!(" {:>9.3}x", base as f64 / c as f64));
        }
        println!("{row}");
    }
    let stated = 100.0 * (paper::paper("ablation.no_barrier") - 1.0);
    println!("(paper: disabling barrier handling sped scalarProd up by ~{stated:.0}%)");
}

/// The PRO cells of `kernels` × `variants` (kernel-major) for an ablation
/// whose variant `stock` is what the experiment's own machine does: that
/// column is the store's PRO cell, every other variant runs on the pool
/// through `run`.
fn with_stock_column<V: Copy + PartialEq + Sync>(
    exp: &mut Experiment,
    kernels: &[Workload],
    variants: &[V],
    stock: V,
    run: impl Fn(&Workload, V) -> Cell + Sync,
) -> Vec<Cell> {
    let jobs: Vec<(usize, V)> = (0..kernels.len())
        .flat_map(|k| variants.iter().map(move |&v| (k, v)))
        .collect();
    let ran = parallel_map(exp.jobs, &jobs, |&(k, v)| (v != stock).then(|| run(&kernels[k], v)));
    let stored = exp.cells(kernels, &[SchedulerKind::Pro]);
    let cells = jobs.iter().zip(ran);
    cells.map(|(&(k, _), ran)| ran.unwrap_or_else(|| stored.cells()[k].clone())).collect()
}

/// Design-choice sweep: PRO's THRESHOLD re-sort period (paper uses 1000).
fn sweep(exp: &mut Experiment) {
    use pro_core::{Pro, ProConfig, WarpScheduler};
    use pro_sim::{Policy, Run};
    header("Sweep: PRO THRESHOLD (re-sort period) sensitivity, cycles per kernel");
    let thresholds = [100u64, 500, 1000, 2000, 5000, 20000];
    print!("{:<32}", "Kernel");
    for t in thresholds {
        print!(" {t:>9}");
    }
    println!();
    let kernels = named(&["aesEncrypt128", "laplace3d", "render", "scalarProdGPU"]);
    let (cfg, scale) = (exp.machine, exp.scale);
    let stock = ProConfig::default().threshold;
    let cells = with_stock_column(exp, &kernels, &thresholds, stock, |w, threshold| {
        run_cell(w, SchedulerKind::Pro, scale, cfg, |gpu, k| {
            let mut factory = || -> Box<dyn WarpScheduler> {
                let pro = ProConfig {
                    threshold,
                    ..ProConfig::default()
                };
                Box::new(Pro::new(cfg.sm.max_warps, cfg.sm.max_tbs, pro))
            };
            Ok(gpu.run(k, Run::new(Policy::Factory(&mut factory)))?.expect_completed())
        })
    });
    for row in cells.chunks(thresholds.len()) {
        print!("{:<32}", row[0].kernel);
        for cell in row {
            print!(" {:>9}", cell.result.cycles);
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
fn wld(exp: &mut Experiment) {
    header("Warp-level divergence: mean (last−first) warp-finish gap per TB, cycles");
    let kernels = named(&["render", "kernel", "findRageK", "bpnn_layerforward", "scalarProdGPU"]);
    println!(
        "{:<32} {:>9} {:>9} {:>9} {:>9}",
        "Kernel", "TL", "LRR", "GTO", "PRO"
    );
    for row in exp.cells(&kernels, &SchedulerKind::PAPER).rows() {
        print!("{:<32}", row[0].kernel);
        for cell in row {
            print!(" {:>9.0}", cell.result.sm.avg_wld());
        }
        println!();
    }
    println!("(gap is intentional under PRO's unequal-progress design; see fig4 for net effect)");
}

/// Cache behaviour per scheduler — the paper attributes PRO's few
/// slowdowns to "the increase in L1 and L2 cache miss rates" (§IV). This
/// report shows the L1/L2 miss rates each scheduler induces.
fn cache(exp: &mut Experiment) {
    header("Cache miss rates by scheduler (L1% / L2%)");
    let kernels = named(&[
        "histogram256Kernel", // a PRO slowdown in our Fig. 4
        "inverseCNDKernel",   // another
        "aesEncrypt128",      // a PRO win
        "findK",              // latency-bound pointer chase
    ]);
    println!(
        "{:<28} {:>13} {:>13} {:>13} {:>13}",
        "Kernel", "TL", "LRR", "GTO", "PRO"
    );
    for row in exp.cells(&kernels, &SchedulerKind::PAPER).rows() {
        print!("{:<28}", row[0].kernel);
        for cell in row {
            let m = &cell.result.mem;
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
fn synthsweep(exp: &Experiment) {
    use pro_workloads::synth::{self, SynthParams};
    header("Synthetic workload-space sweep: PRO speedup over LRR by knob");
    let machine = exp.machine;
    let run = |p: SynthParams, s: SchedulerKind| -> u64 {
        synth::run(machine, p, |gpu, k| gpu.launch(k, s, TraceOptions::default()))
            .unwrap_or_else(|e| panic!("synthetic kernel {:#x} under {s}: {e}", p.seed))
            .cycles
    };
    let knobs = [
        ("compute only", 0.05, 0.0),
        ("mem 0.3", 0.3, 0.0),
        ("mem 0.6", 0.6, 0.0),
        ("mem 0.3 + barrier 0.2", 0.3, 0.2),
        ("mem 0.3 + barrier 0.4", 0.3, 0.4),
        ("barrier 0.5 only", 0.05, 0.5),
    ];
    // Per knob: each seed under LRR then PRO.
    const SEEDS: u64 = 3;
    let mut jobs = Vec::new();
    for (_, mem, barrier) in knobs {
        for seed in 0..SEEDS {
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
            jobs.extend([(p, SchedulerKind::Lrr), (p, SchedulerKind::Pro)]);
        }
    }
    let cycles = parallel_map(exp.jobs, &jobs, |&(p, s)| run(p, s));
    println!("{:<26} {:>10}", "knob", "PRO/LRR");
    for ((label, ..), runs) in knobs.iter().zip(cycles.chunks(2 * SEEDS as usize)) {
        let speedups = runs.chunks(2).map(|pair| pair[0] as f64 / pair[1] as f64);
        println!("{:<26} {:>9.3}x", label, geomean_finite(speedups));
    }
    println!("(each row: geomean over 3 random kernels at 224 TBs x 192 threads)");
}

/// Write SVG renderings of Fig. 2 (Gantt) and Fig. 4 (bars) to the
/// current directory.
fn svg_figs(exp: &mut Experiment) {
    use pro_bench::svg::{barchart, gantt, BarGroup};
    header("SVG figures: fig2_lrr.svg, fig2_pro.svg, fig4.svg");
    // Fig. 2 Gantt per scheduler, in retire order.
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let (spans, cycles) = paper::fig2_timeline(exp, sched);
        let svg = gantt(&format!("Fig. 2: LPS thread blocks on SM 0 under {sched}"), &spans, cycles);
        let path = format!("fig2_{}.svg", sched.name().to_lowercase());
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {path}");
    }
    // Fig. 4 bar chart.
    let grid = exp.cells(&exp.kernels(), &SchedulerKind::PAPER);
    let groups: Vec<BarGroup> = Speedups::of(&grid)
        .kernels
        .iter()
        .map(|(kernel, vs)| BarGroup {
            label: kernel.to_string(),
            values: vs.to_vec(),
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
    let bars: Vec<StackedBar> = grid
        .app_totals(1)
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

/// Every claim of the paper beside what this build measures, then how far
/// they agree: the signed error of each scalar claim, whether each ordinal
/// claim's order holds (its measure is the margin), and the summary.
fn correlate(exp: &mut Experiment) {
    header("Correlate: the paper's claims (pro_bench::paper::CLAIMS) against this build");
    let evidence = Evidence::gather(exp);
    let rows = paper::correlate(&evidence);
    println!(
        "{:<26} {:<10} {:<32} {:>9} {:>8}  Source",
        "Claim", "Figure", "Paper", "Measured", "Error"
    );
    for row in &rows {
        let c = row.claim;
        let places = if c.unit == "count" { 0 } else { 3 };
        let (stated, measured) = match c.kind {
            Kind::Scalar(v) if c.unit == "x" => (format!("{v:.2}x"), format!("{:.places$}", row.measured)),
            Kind::Scalar(v) => (format!("{v:.0}"), format!("{:.places$}", row.measured)),
            Kind::Ordinal(order) => (order.to_string(), format!("{:+.3}", row.measured)),
        };
        let error = match (row.error(), row.held()) {
            (Some(e), _) => format!("{e:+.places$}"),
            (None, Some(true)) => "held".to_string(),
            (None, _) => "missed".to_string(),
        };
        println!("{:<26} {:<10} {stated:<32} {measured:>9} {error:>8}  {}", c.id, c.figure, c.source);
    }
    let sum = Summary::of(&rows, &evidence.fig4);
    let [tl, lrr, gto] = sum.slower;
    println!("\n[summary] mean |error| over the {} ratio claims: {:.3}", sum.ratio_claims, sum.mean_abs_error);
    println!("[summary] ordinal claims held: {} of {}", sum.held, sum.ordinal);
    println!(
        "[summary] kernels where PRO is slower: {tl} of {n} vs TL, {lrr} vs LRR, {gto} vs GTO",
        n = evidence.fig4.kernels.len()
    );
}

/// Which substrate latency moves the paper's numbers: every key of
/// [`paper::LATENCIES`] at ×½ and ×2 of the experiment's machine, one
/// [`Experiment`] each. Per variant, the change in the Fig. 4 geomeans and
/// in `correlate`'s summary; then PRO's speedup over TL, under each variant,
/// on every kernel PRO loses to TL on the stock machine.
fn sensitivity(exp: &mut Experiment) {
    header("Sensitivity: the claims with one latency at x1/2 and x2");
    let stock = Evidence::gather(exp);
    let base = Summary::of(&paper::correlate(&stock), &stock.fig4);
    let variants: Vec<(&str, u64, Evidence)> = paper::LATENCIES
        .iter()
        .flat_map(|&(key, read)| {
            let v = read(&exp.machine);
            [(key, (v / 2).max(1)), (key, v * 2)]
        })
        .map(|(key, value)| {
            let evidence = Evidence::gather_with(exp, key, value).unwrap_or_else(|e| {
                eprintln!("sensitivity: {key} = {value}: {e}");
                std::process::exit(2);
            });
            (key, value, evidence)
        })
        .collect();
    let signed = |d: usize, b: usize| format!("{:+}", d as i64 - b as i64);
    println!(
        "{:<15} {:>6}  {:>7} {:>7} {:>7}  {:>7} {:>5}  {:>17}",
        "key", "value", "TL", "LRR", "GTO", "|error|", "held", "slower TL/LRR/GTO"
    );
    let [tl, lrr, gto] = stock.fig4.geomean;
    let [s_tl, s_lrr, s_gto] = base.slower;
    println!(
        "{:<15} {:>6}  {tl:>7.3} {lrr:>7.3} {gto:>7.3}  {:>7.3} {:>5}  {:>17}",
        "(stock)",
        "",
        base.mean_abs_error,
        format!("{}/{}", base.held, base.ordinal),
        format!("{s_tl}/{s_lrr}/{s_gto}")
    );
    for (key, value, e) in &variants {
        let [tl, lrr, gto] = [0, 1, 2].map(|b| e.fig4.geomean[b] - stock.fig4.geomean[b]);
        let s = Summary::of(&paper::correlate(e), &e.fig4);
        let slower = [0, 1, 2].map(|b| signed(s.slower[b], base.slower[b])).join("/");
        println!(
            "{key:<15} {value:>6}  {tl:>+7.3} {lrr:>+7.3} {gto:>+7.3}  {:>+7.3} {:>5}  {slower:>17}",
            s.mean_abs_error - base.mean_abs_error,
            signed(s.held, base.held),
        );
    }
    // Every variant runs the experiment's kernels, in its order.
    let kernels = &stock.fig4.kernels;
    let losers: Vec<usize> = (0..kernels.len()).filter(|&k| kernels[k].1[0] < 1.0).collect();
    println!("\nPRO's speedup over TL on the kernels it loses to TL on the stock machine:");
    for (i, &k) in losers.iter().enumerate() {
        println!("  k{} = {}", i + 1, kernels[k].0);
    }
    let speedups = |e: &Evidence| -> String { losers.iter().map(|&k| format!(" {:>6.3}", e.fig4.kernels[k].1[0])).collect() };
    let columns: String = (1..=losers.len()).map(|i| format!(" {:>6}", format!("k{i}"))).collect();
    println!("{:<15} {:>6} {columns}", "key", "value");
    println!("{:<15} {:>6} {}", "(stock)", "", speedups(&stock));
    for (key, value, e) in &variants {
        println!("{key:<15} {value:>6} {}", speedups(e));
    }
}

/// The schedule-space envelope of every kernel: the best of the built-in
/// policies, PRO's rank among them, and the spread of `--seeds` random
/// orders, flagging the kernels where a random order beats every policy.
fn envelope(exp: &mut Experiment) {
    header("Envelope: cycles under every policy and under random warp orders");
    let kernels = exp.kernels();
    let rows = pro_bench::envelope::envelope(exp, &kernels, exp.seeds);
    println!(
        "{:<32} {:>7} {:>9} {:>9} {:>5}  {:>9} {:>9} {:>9}",
        "Kernel", "best", "cycles", "PRO", "rank", "Fuzz min", "median", "max"
    );
    for e in &rows {
        let ((best, cycles), pro) = (e.best(), e.pro());
        let (min, median, max) = e.fuzz_spread();
        let flag = if e.fuzz_beats_every_policy() { "  *" } else { "" };
        println!(
            "{:<32} {:>7} {cycles:>9} {pro:>9} {:>5}  {min:>9} {median:>9} {max:>9}{flag}",
            e.kernel,
            best.name(),
            format!("{}/{}", e.pro_rank(), e.policies.len()),
        );
    }
    let beaten = rows.iter().filter(|e| e.fuzz_beats_every_policy()).count();
    println!(
        "
* a random order beats every policy: {beaten} of {} kernels ({} seeds, {} policies)",
        rows.len(),
        exp.seeds,
        SchedulerKind::ALL.len()
    );
}

/// Dump every (kernel × scheduler) result as JSON on stdout.
fn json_export(exp: &mut Experiment) {
    let grid = exp.cells(&exp.kernels(), &SchedulerKind::PAPER);
    println!("{}", pro_bench::json::export_cells(grid.cells().iter().copied()));
}

/// 8-policy shootout: every scheduler in [`SchedulerKind::ALL`] across the
/// workload matrix, run with the host profiler on
/// ([`TraceOptions::host_prof`]). Prints one aligned row per policy —
/// simulated-side stall attribution next to host-side cost (wall clock,
/// run-loop phase shares, event-queue depth) — and writes the same numbers
/// to `shootout.json` for tooling.
fn shootout(exp: &Experiment) {
    use pro_trace::{Json, Metrics};
    header("Shootout: 8 warp-scheduling policies — stalls vs host cost");
    let ws = exp.kernels();
    let trace = TraceOptions {
        host_prof: true,
        ..Default::default()
    };
    // Profiled cells carry `host/*` metrics, so the store does not keep
    // them; the grid is built and read the same way.
    let cells = parallel_map(exp.jobs, &pairs(&ws, &SchedulerKind::ALL), |(w, s)| {
        run_cell(w, *s, exp.scale, exp.machine, |gpu, k| gpu.launch(k, *s, trace))
    });
    let grid = Grid::new(cells.iter().collect(), SchedulerKind::ALL.len());

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
    for kernel in grid.rows() {
        let lrr_cycles = kernel[0].result.cycles;
        for (row, c) in rows.iter_mut().zip(kernel) {
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
        "{:<8} {:>7} {:>6} | {:>6} {:>6} {:>6} | {:>9} {:>6} {:>6} {:>6} {:>12} {:>8} | {:>7} {:>7} {:>7}",
        "Policy", "vsLRR", "IPC", "idle%", "sb%", "pipe%", "wall ms", "mem%", "issue%", "reuse%",
        "probes/issue", "tbsched%", "evq p50", "evq p99", "evq hwm"
    );
    let n = |v: u64| Json::Num(v as f64);
    let mut json_rows = Vec::new();
    for row in &rows {
        let stalls = (row.idle + row.scoreboard + row.pipeline).max(1) as f64;
        let wall = row.host.counter("host/wall.ns").unwrap_or(0);
        let phase = |p: &str| row.host.counter(&format!("host/phase.{p}.ns")).unwrap_or(0);
        let share = |ns: u64| 100.0 * ns as f64 / wall.max(1) as f64;
        // `HostPhase::TbSched`, which the registry publishes under the name
        // of the merge phase it replaced.
        let tbsched = phase("merge");
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
            "{:<8} {:>6.3}x {:>6.2} | {:>5.1}% {:>5.1}% {:>5.1}% | {:>9.1} {:>5.1}% {:>5.1}% {:>5.1}% {:>12.2} {:>7.1}% | {:>7} {:>7} {:>7}",
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
            share(tbsched),
            evq_p50,
            evq_p99,
            row.evq_hwm,
        );
        json_rows.push(vec![
            ("policy", Json::Str(row.sched.name().into())),
            ("vs_lrr_geomean", Json::Num(vs_lrr)),
            ("cycles", n(row.cycles)),
            ("instructions", n(row.instructions)),
            ("idle", n(row.idle)),
            ("scoreboard", n(row.scoreboard)),
            ("pipeline", n(row.pipeline)),
            ("host_wall_ns", n(wall)),
            ("host_mem_phase_ns", n(phase("mem"))),
            ("host_issue_phase_ns", n(phase("issue"))),
            ("host_tbsched_phase_ns", n(tbsched)),
            ("issue_orders_reused", n(reused)),
            ("issue_orders_recomputed", n(recomputed)),
            ("issue_mask_skips", n(mask_skips)),
            ("issue_probes", n(probes)),
            ("issue_ready_hits", n(ready_hits)),
            ("evq_depth_p50", n(evq_p50)),
            ("evq_depth_p99", n(evq_p99)),
            ("evq_depth_hwm", n(row.evq_hwm)),
        ]);
    }
    let doc = format!("{{\"kernels\":{},\"policies\":{}}}", ws.len(), pro_bench::json::objects(json_rows));
    std::fs::write("shootout.json", doc).expect("write shootout.json");
    println!("\n(stall shares are of total stall unit-cycles; host %s are of host wall time)");
    println!("wrote shootout.json");
}

/// Substrate ablation: Table I names FR-FCFS as the DRAM scheduler. Show
/// what it buys — row-hit rate and kernel runtime — against plain FCFS on
/// memory-bound kernels.
fn dram_ablation(exp: &mut Experiment) {
    use pro_sim::mem::DramPolicy;
    header("DRAM scheduler ablation: FR-FCFS (Table I) vs plain FCFS, PRO runs");
    println!(
        "{:<32} {:>12} {:>12} {:>9} {:>9}",
        "Kernel", "FR-FCFS cyc", "FCFS cyc", "FR rowhit", "FC rowhit"
    );
    let kernels = named(&["convolutionRowsKernel", "bpnn_adjust_weights_cuda", "kernel", "findK"]);
    let (scale, machine) = (exp.scale, exp.machine);
    let policies = [DramPolicy::FrFcfs, DramPolicy::Fcfs];
    let stock = machine.mem.dram.policy;
    let cells = with_stock_column(exp, &kernels, &policies, stock, |w, policy| {
        let mut cfg = machine;
        cfg.mem.dram.policy = policy;
        let pro = SchedulerKind::Pro;
        run_cell(w, pro, scale, cfg, |gpu, k| gpu.launch(k, pro, TraceOptions::default()))
    });
    for row in cells.chunks(policies.len()) {
        let mut line = format!("{:<32}", row[0].kernel);
        for cell in row {
            line.push_str(&format!(" {:>12}", cell.result.cycles));
        }
        for cell in row {
            line.push_str(&format!(" {:>8.1}%", 100.0 * cell.result.mem.dram.row_hit_rate()));
        }
        println!("{line}");
    }
    println!("(FR-FCFS should match or beat FCFS via row-buffer locality)");
}

/// Print a workload's VPTX disassembly and static instruction mix.
fn disasm(operands: &[String]) {
    let name = operands.first().map_or("", String::as_str);
    let Some(w) = find(name) else {
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
fn ready(exp: &mut Experiment) {
    header("Ready-warp occupancy: mean issuable warps per scheduler unit");
    let kernels = named(&["aesEncrypt128", "sha1_overlap", "findK", "scalarProdGPU", "render"]);
    println!(
        "{:<32} {:>8} {:>8} {:>8} {:>8}",
        "Kernel", "TL", "LRR", "GTO", "PRO"
    );
    for row in exp.cells(&kernels, &SchedulerKind::PAPER).rows() {
        print!("{:<32}", row[0].kernel);
        for cell in row {
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
fn occupancy(exp: &Experiment) {
    header("Per-SM utilization heatmap (issue rate over time): LRR vs PRO");
    const GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let w = find("laplace3d").expect("LPS present");
    let mut cfg = exp.machine;
    cfg.num_sms = cfg.num_sms.min(8); // keep the chart readable
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let run = |trace| run_cell(&w, sched, exp.scale, cfg, |gpu, k| gpu.launch(k, sched, trace));
        // Pick a period ≈ runtime/50.
        let period = (run(TraceOptions::default()).result.cycles / 50).max(1);
        let cell = run(TraceOptions {
            utilization_period: period,
            ..Default::default()
        });
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
fn trace_cmd(exp: &Experiment, operands: &[String]) {
    use pro_trace::{
        aggregate, chrome_trace, ClassSet, EventClass, JsonlTracer, RingTracer, Tee,
    };
    let name = operands.first().map_or("laplace3d", String::as_str);
    let sched_name = operands.get(1).map_or("pro", String::as_str);
    let Some(sched) = SchedulerKind::PAPER
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(sched_name))
    else {
        eprintln!("unknown scheduler `{sched_name}` (pick tl, lrr, gto or pro)");
        std::process::exit(2);
    };
    let Some(w) = find(name) else {
        eprintln!("unknown kernel `{name}`; see `repro workloads`");
        std::process::exit(2);
    };
    header(&format!("Structured trace: {name} under {sched} (4-SM slice)"));
    // The 4-SM slice keeps the full-fidelity stream at demo size (a few
    // MB); the event schema is identical at any machine size.
    let mut jsonl = JsonlTracer::new(Vec::<u8>::new());
    // The Chrome export only needs TB spans, memory lifecycle and barrier
    // instants; a class-filtered ring keeps it allocation-free mid-run.
    let mut ring = RingTracer::with_classes(
        1 << 20,
        ClassSet::of(&[EventClass::Tb, EventClass::Mem, EventClass::Barrier]),
    );
    let mut tee = Tee::new(&mut jsonl, &mut ring);
    let r = run_cell(&w, sched, exp.scale, exp.four_sm_slice(), |gpu, k| {
        gpu.launch_traced(k, sched, TraceOptions::default(), &mut tee)
    })
    .result;
    println!("{}", r.summary());

    let lines = jsonl.lines_written;
    if let Some(e) = jsonl.error() {
        eprintln!("error: the JSONL stream failed after {lines} lines: {e}");
        std::process::exit(1);
    }
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
fn trace_report(operands: &[String]) {
    let Some(path) = operands.first() else {
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
