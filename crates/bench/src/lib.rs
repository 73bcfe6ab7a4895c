//! # pro-bench — experiment harness for every table and figure in the paper
//!
//! The `repro` binary regenerates each evaluation artifact. Its commands
//! are the rows of one table in `src/bin/repro.rs` (`COMMANDS`: name,
//! function, whether `repro all` runs it), listed here in that order:
//!
//! | command            | paper artifact |
//! |--------------------|----------------|
//! | `repro config`     | Table I (simulator configuration) |
//! | `repro workloads`  | Table II (kernels and TB counts) |
//! | `repro fig1`       | Fig. 1 — stall breakdown for TL / LRR / GTO |
//! | `repro fig2`       | Fig. 2 — TB timeline, LRR vs PRO |
//! | `repro fig4`       | Fig. 4 — PRO speedup per kernel + geomean |
//! | `repro fig5`       | Fig. 5 — total-stall ratios per app + geomean |
//! | `repro table3`     | Table III — per-app stall cycles and ratios |
//! | `repro table4`     | Table IV — PRO's sorted TB order over time (AES) |
//! | `repro ablation`   | §IV diagnostic — PRO vs PRO-NB/NF/NS/AD |
//!
//! Extension experiments beyond the paper's artifacts:
//!
//! | command            | experiment |
//! |--------------------|------------|
//! | `repro sweep`      | PRO THRESHOLD sensitivity (design-choice sweep) |
//! | `repro wld`        | warp-level divergence (first/last warp finish gap) |
//! | `repro cache`      | L1/L2 miss rates per scheduler |
//! | `repro ready`      | mean issuable warps per scheduler unit |
//! | `repro occupancy`  | per-SM issue-rate heatmap over time, LRR vs PRO |
//! | `repro synthsweep` | PRO-vs-LRR across the synthetic workload space |
//! | `repro dram`       | FR-FCFS vs FCFS DRAM scheduling (Table I ablation) |
//!
//! `repro all` runs the sixteen above, in that order. Not part of it:
//!
//! | command            | what it does |
//! |--------------------|--------------|
//! | `repro svg`        | SVG renderings of Fig. 1, Fig. 2 and Fig. 4 |
//! | `repro correlate`  | every claim of [`paper::CLAIMS`] beside this build's value |
//! | `repro sensitivity` | the claims with each latency of [`paper::LATENCIES`] at ×½ and ×2 |
//! | `repro envelope`   | each kernel under every policy and `--seeds N` random orders ([`envelope`]) |
//! | `repro json`       | machine-readable dump of every (kernel × sched) run |
//! | `repro shootout`   | 8-policy matrix with stall attribution + host cost |
//! | `repro disasm`     | VPTX disassembly and static mix of one kernel |
//! | `repro trace`      | JSONL + Chrome trace_event export of one traced run |
//! | `repro trace-report` | reduce a JSONL trace back to per-kernel reports |
//!
//! `repro` builds one [`Experiment`] per process and every command borrows
//! it: the commands that read the paper's (kernel × policy) matrix — `fig1`,
//! `fig4`, `fig5`, `table3`, `wld`, `cache`, `ready`, `ablation`, half of
//! `svg`, `json`, `correlate`, one column each of `sweep` and `dram` — are
//! formatting over [`Experiment::cells`] (the paper's figures through the
//! reductions of [`paper`]), which simulates a cell the first time any of
//! them asks for it; the rest, whose machine, policy parameters or traces
//! differ, call [`run_cell`] themselves. Either way a launch goes through
//! `pro-workloads`' runner ([`Workload::run`], `synth::run`), which hands
//! back counters only from a run whose output it has checked.
//!
//! Host cost is not measured here: that is the repository benchmark's job
//! (`benchmark/`, end to end and per layer), with `repro shootout` for the
//! per-policy view.

pub mod envelope;
pub mod json;
pub mod paper;
pub mod svg;

use std::collections::{HashMap, HashSet};

use pro_core::SchedulerKind;
use pro_isa::Kernel;
use pro_sim::{geomean, Gpu, GpuConfig, RunResult, SimError, TraceOptions};
use pro_workloads::{apps, registry, Scale, Workload};

/// Results of one (workload, scheduler) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload kernel name.
    pub kernel: &'static str,
    /// Application name.
    pub app: &'static str,
    /// Scheduler.
    pub sched: SchedulerKind,
    /// Simulation outcome.
    pub result: RunResult,
}

impl Cell {
    /// The cell of `w` under `sched` with outcome `result`.
    pub(crate) fn new(w: &Workload, sched: SchedulerKind, result: RunResult) -> Self {
        Cell {
            kernel: w.kernel,
            app: w.app,
            sched,
            result,
        }
    }
}

/// One cell through the one runner ([`Workload::run`]): `launch` is a plain
/// [`Gpu::launch`] with whatever traces the caller wants. A simulation
/// error or a wrong result panics: no experiment may report numbers from
/// it.
pub fn run_cell(
    w: &Workload,
    sched: SchedulerKind,
    scale: Scale,
    cfg: GpuConfig,
    launch: impl FnOnce(&mut Gpu, &Kernel) -> Result<RunResult, SimError>,
) -> Cell {
    let result = w.run(cfg, scale, launch).unwrap_or_else(|e| panic!("{} under {sched}: {e}", w.kernel));
    Cell::new(w, sched, result)
}

/// The job list of a `kernels` × `policies` request: kernel-major,
/// policy-minor — the order [`Grid`] reads cells back in.
pub fn pairs(kernels: &[Workload], policies: &[SchedulerKind]) -> Vec<(Workload, SchedulerKind)> {
    kernels
        .iter()
        .flat_map(|w| policies.iter().map(move |&s| (*w, s)))
        .collect()
}

/// The experiment context `repro` builds once per process and lends to
/// every subcommand: the grid scale, `--quick`, the simulated machine, and
/// a store of the cells finished so far. The paper's evaluation is one
/// (kernel × policy) matrix read four ways; [`Experiment::cells`] is the one
/// read, so a process simulates each cell at most once however many
/// figures it prints.
pub struct Experiment {
    /// Grid-size scaling (`--full-scale` or the default cap).
    pub scale: Scale,
    /// `--quick`: sweeps take the first kernel of each application.
    pub quick: bool,
    /// The machine every experiment runs on (the paper's GTX480, or the
    /// `--config` file).
    pub machine: GpuConfig,
    /// `--jobs`: the worker threads that simulate missing cells, `0` for
    /// one per core ([`parallel_map`]).
    pub jobs: usize,
    /// `--seeds`: the random orders `repro envelope` runs per kernel.
    pub seeds: u64,
    /// Finished cells by (kernel, policy) — only those simulated on
    /// `machine` at `scale` with default [`TraceOptions`], so the key
    /// needs nothing else. Never iterated: output order comes from the
    /// request, not from the order the store filled in.
    done: HashMap<(&'static str, SchedulerKind), Cell>,
}

impl Experiment {
    /// A context with an empty store.
    pub fn new(scale: Scale, quick: bool, machine: GpuConfig) -> Self {
        Experiment {
            scale,
            quick,
            machine,
            jobs: 0,
            seeds: 8,
            done: HashMap::new(),
        }
    }

    /// The 4-SM slice of the machine that Fig. 2 and `repro trace` run on:
    /// SM 0 of it holds a share of the grid comparable to the paper's
    /// Fig. 2, and a full-fidelity trace stays at demo size.
    pub fn four_sm_slice(&self) -> GpuConfig {
        GpuConfig { num_sms: 4, ..self.machine }
    }

    /// The kernels a sweep runs: all of Table II, or with `--quick` the
    /// first of each application.
    pub fn kernels(&self) -> Vec<Workload> {
        if self.quick {
            apps().into_iter().map(|(_, ks)| ks[0]).collect()
        } else {
            registry()
        }
    }

    /// The cells of `kernels` × `policies`, simulating on the experiment
    /// pool ([`parallel_map`]) whichever of them no earlier request did.
    pub fn cells(&mut self, kernels: &[Workload], policies: &[SchedulerKind]) -> Grid<'_> {
        let (scale, machine) = (self.scale, self.machine);
        self.cells_with(kernels, policies, |w, s| {
            run_cell(w, s, scale, machine, |gpu, k| {
                gpu.launch(k, s, TraceOptions::default())
            })
        })
    }

    /// [`Experiment::cells`] with the missing cells simulated by `runner`,
    /// which must produce what the default runner would — this machine and
    /// scale, default [`TraceOptions`] — and may observe on the way (the
    /// tests' call counter).
    fn cells_with(
        &mut self,
        kernels: &[Workload],
        policies: &[SchedulerKind],
        runner: impl Fn(&Workload, SchedulerKind) -> Cell + Sync,
    ) -> Grid<'_> {
        let wanted = pairs(kernels, policies);
        let mut queued = HashSet::new();
        let missing: Vec<(Workload, SchedulerKind)> = wanted
            .iter()
            .filter(|(w, s)| !self.done.contains_key(&(w.kernel, *s)) && queued.insert((w.kernel, *s)))
            .copied()
            .collect();
        let fresh = parallel_map(self.jobs, &missing, |(w, s)| runner(w, *s));
        for ((w, s), cell) in missing.iter().zip(fresh) {
            self.done.insert((w.kernel, *s), cell);
        }
        let cells = wanted.iter().map(|(w, s)| &self.done[&(w.kernel, *s)]);
        Grid::new(cells.collect(), policies.len())
    }
}

/// The cells of one kernels × policies request, borrowed from wherever
/// they are kept, in [`pairs`] order.
pub struct Grid<'a> {
    cells: Vec<&'a Cell>,
    policies: usize,
}

impl<'a> Grid<'a> {
    /// A grid over `cells` laid out as [`pairs`] orders them, `policies`
    /// to a kernel.
    pub fn new(cells: Vec<&'a Cell>, policies: usize) -> Self {
        assert!(policies > 0 && cells.len().is_multiple_of(policies), "ragged grid");
        Grid { cells, policies }
    }

    /// Every cell, kernel-major and policy-minor.
    pub fn cells(&self) -> &[&'a Cell] {
        &self.cells
    }

    /// One slice per kernel, in request order: that kernel's cells in the
    /// order the policies were asked for.
    pub fn rows(&self) -> impl Iterator<Item = &[&'a Cell]> {
        self.cells.chunks(self.policies)
    }

    /// Column `policy` summed per application, applications in the order
    /// their first kernel appears (paper: "numbers reported are per
    /// application, not per kernel").
    pub fn app_totals(&self, policy: usize) -> Vec<(&'static str, AppTotals)> {
        let mut out: Vec<(&'static str, AppTotals)> = Vec::new();
        for row in self.rows() {
            let c = row[policy];
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
}

/// Map `f` over `items` on up to `jobs` threads of the experiment pool
/// ([`pro_core::pool`], `0` = one per core), preserving submission order.
/// Each item is an independent simulation, so results are deterministic
/// regardless of thread count.
pub fn parallel_map<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    pro_core::pool::run(jobs, items, f)
}

/// Per-application cycle and stall totals (kernels of an app summed), as
/// the paper reports for Figs. 1/5 and Table III.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppTotals {
    /// Sum of kernel cycle counts.
    pub cycles: u64,
    /// Idle stall unit-cycles.
    pub idle: u64,
    /// Scoreboard stall unit-cycles.
    pub scoreboard: u64,
    /// Pipeline stall unit-cycles.
    pub pipeline: u64,
}

impl AppTotals {
    /// Total stalls.
    pub fn total(&self) -> u64 {
        self.idle + self.scoreboard + self.pipeline
    }

    /// Accumulate a kernel's results.
    pub(crate) fn add(&mut self, r: &RunResult) {
        self.cycles += r.cycles;
        self.idle += r.sm.idle;
        self.scoreboard += r.sm.scoreboard;
        self.pipeline += r.sm.pipeline;
    }
}

/// Speedup of `b` over `a` interpreted as cycles: `a.cycles / b.cycles`
/// (>1 means `b` is faster).
pub(crate) fn speedup(a: &RunResult, b: &RunResult) -> f64 {
    a.cycles as f64 / b.cycles as f64
}

/// Ratio helper guarding zero denominators.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        if num == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        num as f64 / den as f64
    }
}

/// Geomean over an iterator of ratios, skipping non-finite values.
pub fn geomean_finite(vals: impl IntoIterator<Item = f64>) -> f64 {
    geomean(vals.into_iter().filter(|v| v.is_finite() && *v > 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(0, 0), 1.0);
        assert_eq!(ratio(5, 0), f64::INFINITY);
        assert_eq!(ratio(6, 3), 2.0);
    }

    #[test]
    fn geomean_finite_skips_infinities() {
        let g = geomean_finite([2.0, f64::INFINITY, 2.0]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    fn named(kernels: &[&str]) -> Vec<Workload> {
        kernels.iter().map(|k| pro_workloads::find(k).unwrap()).collect()
    }

    /// A store on a 2-SM machine at 8 TBs per kernel, and a runner for it
    /// that logs every (kernel, policy) it is asked to simulate.
    struct Counted {
        exp: Experiment,
        log: std::sync::Mutex<Vec<(&'static str, SchedulerKind)>>,
    }

    impl Counted {
        fn new() -> Self {
            Counted {
                exp: Experiment::new(Scale::Capped(8), false, GpuConfig::small(2)),
                log: std::sync::Mutex::default(),
            }
        }

        /// `kernels` × `policies` through the store, as (kernel, policy,
        /// cycles) in the order the grid hands them back.
        fn read(
            &mut self,
            kernels: &[&str],
            policies: &[SchedulerKind],
        ) -> Vec<(&'static str, SchedulerKind, u64)> {
            let kernels = named(kernels);
            let (scale, machine, log) = (self.exp.scale, self.exp.machine, &self.log);
            let grid = self.exp.cells_with(&kernels, policies, |w, s| {
                log.lock().unwrap().push((w.kernel, s));
                run_cell(w, s, scale, machine, |gpu, k| gpu.launch(k, s, TraceOptions::default()))
            });
            grid.cells().iter().map(|c| (c.kernel, c.sched, c.result.cycles)).collect()
        }

        fn simulated(&self) -> Vec<(&'static str, SchedulerKind)> {
            self.log.lock().unwrap().clone()
        }
    }

    use SchedulerKind::{Gto, Lrr, Pro};

    #[test]
    fn overlapping_requests_simulate_each_cell_once() {
        let mut store = Counted::new();
        store.read(&["cenergy", "laplace3d"], &[Lrr, Pro]);
        assert_eq!(store.simulated().len(), 4);
        // Two of these four were just run, and one kernel is asked for twice.
        store.read(&["laplace3d", "laplace3d", "scalarProdGPU"], &[Pro, Gto]);
        assert_eq!(store.simulated().len(), 7);
        store.read(&["cenergy", "laplace3d", "scalarProdGPU"], &[Lrr, Gto, Pro]);
        let ran = store.simulated();
        assert_eq!(ran.len(), 9, "3 kernels x 3 policies: {ran:?}");
        let distinct: HashSet<_> = ran.iter().collect();
        assert_eq!(distinct.len(), 9, "a cell was simulated twice: {ran:?}");
        store.read(&["scalarProdGPU", "cenergy"], &[Gto, Lrr]);
        assert_eq!(store.simulated().len(), 9, "everything asked for was in the store");
    }

    #[test]
    fn cells_come_back_in_request_order_whatever_was_cached() {
        let mut warm = Counted::new();
        warm.read(&["laplace3d"], &[Pro]);
        warm.read(&["scalarProdGPU", "cenergy"], &[Lrr]);
        let kernels = ["scalarProdGPU", "laplace3d", "cenergy"];
        let got = warm.read(&kernels, &[Pro, Lrr]);
        let order: Vec<_> = got.iter().map(|&(k, s, _)| (k, s)).collect();
        let want: Vec<_> = kernels.iter().flat_map(|&k| [(k, Pro), (k, Lrr)]).collect();
        assert_eq!(order, want);
        // The same request against an empty store: same cells, same numbers.
        assert_eq!(got, Counted::new().read(&kernels, &[Pro, Lrr]));
    }

    #[test]
    fn app_totals_are_the_sum_over_each_apps_kernels() {
        // Two backprop kernels around one LPS kernel: an application's
        // kernels need not be adjacent in a request.
        let kernels = named(&["bpnn_layerforward", "laplace3d", "bpnn_adjust_weights_cuda"]);
        let mut exp = Experiment::new(Scale::Capped(8), false, GpuConfig::small(2));
        let grid = exp.cells(&kernels, &[Lrr, Pro]);
        for (col, sched) in [Lrr, Pro].into_iter().enumerate() {
            let totals = grid.app_totals(col);
            let apps: Vec<_> = totals.iter().map(|(app, _)| *app).collect();
            assert_eq!(apps, ["backprop", "LPS"]);
            for (app, total) in totals {
                let mut sum = AppTotals::default();
                for c in grid.cells().iter().filter(|c| c.app == app && c.sched == sched) {
                    sum.add(&c.result);
                }
                assert_eq!(total, sum, "{app} under {sched}");
                assert!(total.cycles > 0);
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(3, &items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_map_empty_input() {
        let items: Vec<u64> = vec![];
        assert!(parallel_map(3, &items, |&x| x).is_empty());
    }
}
