//! Running cells and reducing their samples to metrics.
//!
//! One *rep* runs every cell of the workload once, serially. Per cell the
//! spans are `cell > {gpu_new, build, launch, verify}`; only `launch` counts
//! towards `wall_s`, `gpu_new + build` is set-up, `verify` is the benchmark's
//! own checking. Host-time metrics sum, over the cells, each cell's median
//! across the reps.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, BuiltKernel, CellStats, Device, KernelSpec, LaunchMode, Launched, Policy,
};
use crate::procfs::cpu_ns;
use crate::spans::Recorder;
use crate::workloads::{Cell, Mode, CKPT_EVERY};

/// The paper's Fig. 4 geomean speedups of PRO over each baseline, as quoted
/// in EXPERIMENTS.md. The only reference results this model is checked
/// against.
pub const PAPER_GEOMEANS: [(Policy, f64); 3] =
    [(Policy::Tl, 1.13), (Policy::Lrr, 1.12), (Policy::Gto, 1.02)];

/// Output checks: every one attempted, and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reader.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(what());
            }
        }
    }
}

/// Host time and results of one cell in one rep.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub gpu_new_ns: u64,
    pub build_ns: u64,
    pub launch_ns: u64,
    pub launch_cpu_ns: u64,
    pub verify_ns: u64,
    /// `None` when the launch failed.
    pub launched: Option<Launched>,
}

impl Sample {
    pub fn setup_ns(&self) -> u64 {
        self.gpu_new_ns + self.build_ns
    }

    pub fn stats(&self) -> Option<&CellStats> {
        self.launched.as_ref().map(|l| &l.stats)
    }
}

/// Everything a run carries from cell to cell.
pub struct Runner {
    pub rec: Recorder,
    pub checks: Checks,
    /// Scalar-interpreter outputs of the generated kernels, by kernel seed.
    oracles: HashMap<u64, Vec<u32>>,
    /// First result seen for each `kernel/POLICY`: later reps and the other
    /// uses of the run loop must reproduce it bit for bit.
    reference: HashMap<String, CellStats>,
    ckpt_dir: PathBuf,
}

impl Runner {
    /// `scratch` is a directory this run may create, fill and remove.
    pub fn new(cells: &[Cell], scratch: PathBuf) -> Result<Runner, String> {
        let mut oracles = HashMap::new();
        for cell in cells {
            if let KernelSpec::Synth(s) = &cell.kernel {
                if let Entry::Vacant(slot) = oracles.entry(s.seed) {
                    slot.insert(adapter::oracle_output(s)?);
                }
            }
        }
        Ok(Runner {
            rec: Recorder::new(),
            checks: Checks::default(),
            oracles,
            reference: HashMap::new(),
            ckpt_dir: scratch,
        })
    }

    fn setup(&mut self, spec: &KernelSpec, s: &mut Sample) -> (Device, BuiltKernel) {
        let (mut dev, ns) = self.rec.time("gpu_new", || adapter::new_device(spec));
        s.gpu_new_ns += ns;
        let (built, ns) = self.rec.time("build", || adapter::build(&mut dev, spec));
        s.build_ns += ns;
        (dev, built)
    }

    fn timed_launch<R>(&mut self, s: &mut Sample, f: impl FnOnce() -> R) -> R {
        let cpu = cpu_ns();
        let (r, ns) = self.rec.time("launch", f);
        s.launch_ns += ns;
        s.launch_cpu_ns += cpu_ns().saturating_sub(cpu);
        r
    }

    /// Run one cell: fresh GPU, build, launch through the cell's mode,
    /// verify, compare with the reference result.
    pub fn run_cell(&mut self, cell: &Cell, host_prof: bool) -> Sample {
        let span = self.rec.open("cell", Some(cell.id));
        let mut s = Sample::default();
        let key = cell.key();
        let (mut dev, mut built) = self.setup(&cell.kernel, &mut s);
        let ckpt_dir = self.ckpt_dir.clone();
        let mode = match cell.mode {
            Mode::Plain => Some(LaunchMode::Plain),
            Mode::Ring => Some(LaunchMode::Ring),
            Mode::Jsonl => Some(LaunchMode::Jsonl),
            Mode::Checkpointed => Some(LaunchMode::Checkpointed {
                dir: &ckpt_dir,
                every: CKPT_EVERY,
            }),
            Mode::PauseResume => None,
        };
        let launched = match (mode, self.reference.get(&key).map(CellStats::cycles)) {
            (Some(mode), _) => {
                let r = self.timed_launch(&mut s, || {
                    adapter::launch(&mut dev, &built, cell.policy, mode, host_prof)
                });
                if cell.mode == Mode::Checkpointed {
                    let _ = std::fs::remove_dir_all(&ckpt_dir);
                }
                r
            }
            (None, None) => Err("no uninterrupted result to take the half-time from".to_string()),
            (None, Some(cycles)) => self
                .timed_launch(&mut s, || {
                    adapter::launch_until(&mut dev, &built, cell.policy, cycles / 2, host_prof)
                })
                .and_then(|paused| {
                    (dev, built) = self.setup(&cell.kernel, &mut s);
                    self.timed_launch(&mut s, || {
                        adapter::resume(&mut dev, &built, cell.policy, &paused, host_prof)
                    })
                }),
        };
        let what = || format!("{key} [{}]", cell.mode.name());
        match launched {
            Err(e) => self
                .checks
                .check(false, || format!("{}: launch failed: {e}", what())),
            Ok(l) => {
                self.checks.check(true, String::new);
                let oracle = match &cell.kernel {
                    KernelSpec::Synth(spec) => self.oracles.get(&spec.seed).map(Vec::as_slice),
                    KernelSpec::Table(_) => None,
                };
                let (verdict, ns) = self
                    .rec
                    .time("verify", || adapter::verify(&dev, &built, oracle));
                s.verify_ns = ns;
                self.checks.check(verdict.is_ok(), || {
                    format!("{}: wrong output: {}", what(), verdict.unwrap_err())
                });
                if matches!(cell.mode, Mode::Ring | Mode::Jsonl) {
                    self.checks.check(l.events.is_some_and(|n| n > 0), || {
                        format!("{}: tracer saw no event", what())
                    });
                }
                match self.reference.get(&key) {
                    Some(first) => self.checks.check(first.digest == l.stats.digest, || {
                        format!("{}: result differs from the first result for {key}", what())
                    }),
                    None => {
                        self.reference.insert(key, l.stats.clone());
                    }
                }
                s.launched = Some(l);
            }
        }
        self.rec.close(span);
        s
    }
}

/// Samples of a pass, indexed `[cell.id][rep]`.
pub type Samples = Vec<Vec<Sample>>;

/// Call `rep` until `budget` is used: at least once, and once more only
/// while the time left is more than half a rep. Returns the number of reps.
fn repeat_for(budget: Duration, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        rep();
        reps += 1;
        let used = start.elapsed();
        if used + used / (2 * reps) >= budget {
            return reps as usize;
        }
    }
}

/// Cell id of launches that belong to no cell of the workload (warm-up,
/// probes).
pub const NO_CELL: u32 = u32::MAX;

/// Untimed launches of the probe kernel under each policy the workload
/// uses, so that rep 1 does not pay for cold host caches and lazy
/// allocation.
pub fn warm_up(runner: &mut Runner, cells: &[Cell]) {
    let span = runner.rec.open("warm_up", None);
    let mut seen = Vec::new();
    for policy in cells.iter().map(|c| c.policy) {
        if !seen.contains(&policy) {
            seen.push(policy);
            runner.run_cell(&probe_cell(policy, Mode::Plain), false);
        }
    }
    runner.rec.close(span);
}

/// The probe kernel as a cell outside the workload.
pub fn probe_cell(policy: Policy, mode: Mode) -> Cell {
    Cell {
        id: NO_CELL,
        kernel: KernelSpec::Table(adapter::components::PROBE_KERNEL),
        policy,
        mode,
    }
}

/// The untraced pass: whole reps for `budget`, host profiler off.
pub fn untraced_pass(runner: &mut Runner, cells: &[Cell], budget: Duration) -> Samples {
    let mut samples: Samples = vec![Vec::new(); cells.len()];
    repeat_for(budget, || {
        let span = runner.rec.open("rep", None);
        for cell in cells {
            samples[cell.id as usize].push(runner.run_cell(cell, false));
        }
        runner.rec.close(span);
    });
    samples
}

/// What the traced pass collects.
pub struct Traced {
    /// Host profiler off.
    pub plain: Samples,
    /// Host profiler on: the same cells, each right after its plain twin.
    pub profiled: Samples,
    /// Per `kernel/POLICY` of a cell that is not a plain launch: the times
    /// of a plain `Gpu::launch` of the same kernel under the same policy.
    pub plain_launch_ns: HashMap<String, Vec<u64>>,
}

/// The traced pass: whole reps for `budget`; each cell runs with the host
/// profiler off and then on, so the two are measured under the same
/// conditions and their ratio is the profiler's overhead.
pub fn traced_pass(runner: &mut Runner, cells: &[Cell], budget: Duration) -> Traced {
    let mut t = Traced {
        plain: vec![Vec::new(); cells.len()],
        profiled: vec![Vec::new(); cells.len()],
        plain_launch_ns: HashMap::new(),
    };
    repeat_for(budget, || {
        let span = runner.rec.open("rep", None);
        for cell in cells {
            // Groups of observed cells start with their ring cell.
            if cell.mode == Mode::Ring {
                let twin = Cell {
                    mode: Mode::Plain,
                    id: NO_CELL,
                    ..cell.clone()
                };
                let ns = runner.run_cell(&twin, false).launch_ns;
                t.plain_launch_ns.entry(cell.key()).or_default().push(ns);
            }
            t.plain[cell.id as usize].push(runner.run_cell(cell, false));
            t.profiled[cell.id as usize].push(runner.run_cell(cell, true));
        }
        runner.rec.close(span);
    });
    t
}

/// Each cell's fastest launch among its reps, indexed by cell id like
/// `samples`.
///
/// Interference from the machine's other tenants only ever adds time, and on
/// the box this was written on it comes in phases of several seconds during
/// which every launch runs 1.3-1.5 x slower, so a cell's median follows the
/// machine's mood while its minimum follows the code. Reps put a cell's
/// samples a whole rep apart, which is what gives the minimum its chance.
pub fn fastest(samples: &[Vec<Sample>]) -> Vec<&Sample> {
    samples
        .iter()
        .map(|reps| {
            reps.iter()
                .min_by_key(|s| s.launch_ns)
                .expect("a pass runs every cell in every rep")
        })
        .collect()
}

pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Σ of `f` over `picked` samples, in seconds.
pub fn sum_s<'a>(picked: impl IntoIterator<Item = &'a Sample>, f: impl Fn(&Sample) -> u64) -> f64 {
    picked.into_iter().map(|s| f(s) as f64).sum::<f64>() / 1e9
}

/// Σ over cells of the median over reps of `f`, in seconds: for the short
/// set-up and checking spans.
pub fn sum_of_medians_s(samples: &[Vec<Sample>], f: impl Fn(&Sample) -> u64) -> f64 {
    let cell_median =
        |reps: &Vec<Sample>| median(&mut reps.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    samples.iter().map(cell_median).sum::<f64>() / 1e9
}

/// The first rep's counters per cell (they are the same in every rep, which
/// `Runner::run_cell` checks), `None` where the launch failed.
pub fn first_stats(samples: &[Vec<Sample>]) -> Vec<Option<&CellStats>> {
    samples
        .iter()
        .map(|reps| reps.first().and_then(Sample::stats))
        .collect()
}

/// Σ of counter `name` over the cells.
pub fn total(stats: &[Option<&CellStats>], name: &str) -> u64 {
    stats.iter().flatten().map(|s| s.get(name)).sum()
}

/// Max of counter `name` over the cells.
pub fn peak(stats: &[Option<&CellStats>], name: &str) -> u64 {
    stats
        .iter()
        .flatten()
        .map(|s| s.get(name))
        .max()
        .unwrap_or(0)
}

/// Geomean over the workload's Table II kernels of cycles(`baseline`) /
/// cycles(PRO); `None` when the workload does not run `baseline`.
/// `cells` must be in id order so the floating-point sum does not depend on
/// the seed's shuffle.
pub fn pro_speedup_vs(
    baseline: Policy,
    cells: &[Cell],
    stats: &[Option<&CellStats>],
) -> Option<f64> {
    let cycles = |c: &Cell| stats[c.id as usize].map(|s| s.cycles() as f64);
    let logs: Vec<f64> = cells
        .iter()
        .filter(|c| c.is_table() && c.policy == Policy::Pro)
        .filter_map(|pro| {
            let base = cells
                .iter()
                .find(|c| c.policy == baseline && c.kernel == pro.kernel && c.mode == pro.mode)?;
            Some((cycles(base)? / cycles(pro)?).ln())
        })
        .collect();
    (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// Mean of |measured - paper| over the PRO-vs-baseline geomeans of the
/// baselines this workload runs.
pub fn fig4_geomean_abs_err(cells: &[Cell], stats: &[Option<&CellStats>]) -> f64 {
    let errs: Vec<f64> = PAPER_GEOMEANS
        .iter()
        .filter_map(|(base, paper)| Some((pro_speedup_vs(*base, cells, stats)? - paper).abs()))
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The end-to-end metrics of an untraced pass. `cells` in id order.
///
/// `wall_s`, `sim_cycles` and the two fidelity metrics cover the Table II
/// cells, which are the same work for every seed; the two rates cover every
/// cell, generated kernels included, and are normalised by the work done.
pub fn end_to_end(cells: &[Cell], samples: &Samples, peak_rss_mb: f64) -> Values {
    let stats = first_stats(samples);
    let table: Vec<Option<&CellStats>> = cells
        .iter()
        .map(|c| stats[c.id as usize].filter(|_| c.is_table()))
        .collect();
    let best = fastest(samples);
    let table_best = cells
        .iter()
        .filter(|c| c.is_table())
        .map(|c| best[c.id as usize]);
    let all_s = sum_s(best.iter().copied(), |s| s.launch_ns);
    let mut v = Values::new();
    let mut put = |k: &str, x: f64| v.insert(k.to_string(), x);
    put("wall_s", sum_s(table_best, |s| s.launch_ns));
    put("sim_kcps", total(&stats, "cycles") as f64 / all_s / 1e3);
    put(
        "sim_kwips",
        total(&stats, "sm.instructions") as f64 / all_s / 1e3,
    );
    put("setup_s", sum_of_medians_s(samples, Sample::setup_ns));
    put("peak_rss_mb", peak_rss_mb);
    put("sim_cycles", total(&table, "cycles") as f64);
    put(
        "pro_speedup_vs_lrr",
        pro_speedup_vs(Policy::Lrr, cells, &stats).unwrap_or(0.0),
    );
    put("fig4_geomean_abs_err", fig4_geomean_abs_err(cells, &stats));
    v
}
