//! The paper's evaluation as data: every claim it makes about its figures
//! and tables, declared once in [`CLAIMS`], and one reduction per read of
//! the (kernel × policy) matrix that the figures format and the claims
//! measure.
//!
//! - [`Speedups`] — Fig. 4: PRO's speedup over each baseline per kernel,
//!   with the geomeans (`repro fig4`, `repro svg`).
//! - [`Stalls`] — Figs. 1 and 5 and Table III: each application's stall
//!   totals under the four policies, with PRO's stall ratios against each
//!   baseline; Fig. 5's geomeans are Table III's total columns
//!   (`repro fig5`, `repro table3`). [`idle_share`] is Fig. 1's aggregate.
//! - [`order_changes`] — Table IV's count over [`tb_order_cell`]'s samples.
//! - [`fig2_timeline`] — Fig. 2's TB spans on one SM (`repro fig2`, `repro svg`).
//!
//! `repro correlate` puts each claim beside what this build measures
//! ([`Evidence::gather`], [`correlate`], [`Summary`]); the `(paper …)`
//! suffixes of the other commands print from [`CLAIMS`] through [`paper`].
//! `repro sensitivity` reads the same evidence on machines that differ
//! from the experiment's in one latency ([`LATENCIES`],
//! [`Evidence::gather_with`]).

use pro_core::SchedulerKind;
use pro_sim::{ConfigError, GpuConfig, TbOrderSnapshot, TbSpan, TraceOptions};
use pro_workloads::find;

use crate::{geomean_finite, ratio, run_cell, speedup, AppTotals, Cell, Experiment, Grid};

/// PRO's baselines, in the column order of every figure and of
/// [`SchedulerKind::PAPER`] (whose fourth column is PRO).
const TL: usize = 0;
const LRR: usize = 1;
const GTO: usize = 2;
const PRO: usize = 3;

/// The stall types of a [`Stalls::ratios`] row, in Table III's order.
const PIPELINE: usize = 0;
const IDLE: usize = 1;
const SCOREBOARD: usize = 2;
const TOTAL: usize = 3;

/// The kernels the per-kernel claims name, which [`Evidence::gather`]
/// requests on their own so that `--quick` still measures them.
const SCALAR_PROD: &str = "scalarProdGPU";
const MERGE_HIST64: &str = "mergeHistogram64Kernel";

/// Fig. 4: PRO's speedup (baseline cycles / PRO cycles) over TL, LRR and
/// GTO per kernel, and the geomean of each column.
#[derive(Debug, Clone, Default)]
pub struct Speedups {
    /// Per kernel, in request order: its name and PRO's speedup over TL,
    /// LRR and GTO.
    pub kernels: Vec<(&'static str, [f64; 3])>,
    /// The geomean of each column.
    pub geomean: [f64; 3],
}

impl Speedups {
    /// The speedups of a grid whose columns are [`SchedulerKind::PAPER`].
    pub fn of(grid: &Grid<'_>) -> Speedups {
        let kernels: Vec<_> = grid
            .rows()
            .map(|row| {
                assert!(row.iter().map(|c| c.sched).eq(SchedulerKind::PAPER), "not a TL/LRR/GTO/PRO grid");
                (row[PRO].kernel, [TL, LRR, GTO].map(|b| speedup(&row[b].result, &row[PRO].result)))
            })
            .collect();
        let geomean = [TL, LRR, GTO].map(|b| geomean_finite(kernels.iter().map(|(_, s)| s[b])));
        Speedups { kernels, geomean }
    }

    /// PRO's speedups on `kernel`, which the grid must hold.
    fn on(&self, kernel: &str) -> [f64; 3] {
        let found = self.kernels.iter().find(|(k, _)| *k == kernel);
        found.unwrap_or_else(|| panic!("{kernel} was not requested")).1
    }

    /// The kernels on which PRO is slower than baseline `b`.
    fn slower(&self, b: usize) -> usize {
        self.kernels.iter().filter(|(_, s)| s[b] < 1.0).count()
    }

    /// PRO's smallest speedup over baseline `b`.
    fn worst(&self, b: usize) -> f64 {
        self.kernels.iter().map(|(_, s)| s[b]).fold(f64::INFINITY, f64::min)
    }
}

/// Figs. 1 and 5 and Table III: each application's stall totals under the
/// four policies, and the geomean over the applications of every
/// baseline/PRO stall ratio.
#[derive(Debug, Clone, Default)]
pub struct Stalls {
    /// Per application, in the order its first kernel appears: its totals
    /// under TL, LRR, GTO and PRO.
    pub apps: Vec<(&'static str, [AppTotals; 4])>,
    /// `geomean[b][s]` is the geomean of [`Stalls::ratios`]`(_, b)[s]`:
    /// baseline `b` (TL, LRR, GTO) and stall type `s` (pipeline, idle,
    /// scoreboard, total). The total column is Fig. 5's.
    pub geomean: [[f64; 4]; 3],
}

impl Stalls {
    /// The stalls of a grid whose columns are [`SchedulerKind::PAPER`].
    pub fn of(grid: &Grid<'_>) -> Stalls {
        let columns = [TL, LRR, GTO, PRO].map(|s| grid.app_totals(s));
        let apps: Vec<_> = (0..columns[PRO].len())
            .map(|i| (columns[PRO][i].0, [TL, LRR, GTO, PRO].map(|s| columns[s][i].1)))
            .collect();
        let geomean = [TL, LRR, GTO].map(|b| {
            [PIPELINE, IDLE, SCOREBOARD, TOTAL]
                .map(|s| geomean_finite(apps.iter().map(|(_, t)| Stalls::ratios(t, b)[s])))
        });
        Stalls { apps, geomean }
    }

    /// Baseline `b`'s stalls over PRO's in one application's `totals`:
    /// pipeline, idle, scoreboard and total.
    pub fn ratios(totals: &[AppTotals; 4], b: usize) -> [f64; 4] {
        let (base, pro) = (&totals[b], &totals[PRO]);
        [
            ratio(base.pipeline, pro.pipeline),
            ratio(base.idle, pro.idle),
            ratio(base.scoreboard, pro.scoreboard),
            ratio(base.total(), pro.total()),
        ]
    }

    /// Application `app`'s totals under `sched`, one of the grid's four.
    pub fn under(&self, app: &str, sched: SchedulerKind) -> AppTotals {
        let column = SchedulerKind::PAPER.iter().position(|&s| s == sched).expect("a paper scheduler");
        self.app(app)[column]
    }

    /// Application `app`'s totals, which the grid must hold.
    fn app(&self, app: &str) -> &[AppTotals; 4] {
        let found = self.apps.iter().find(|(a, _)| *a == app);
        &found.unwrap_or_else(|| panic!("{app} was not requested")).1
    }

    /// The share of idle stalls among all stalls under baseline `b`, over
    /// every application.
    fn idle_share(&self, b: usize) -> f64 {
        idle_share(self.apps.iter().map(|(_, t)| &t[b]))
    }
}

/// Fig. 1's aggregate idle share: idle stalls over all stalls, summed over
/// `totals`.
pub fn idle_share<'a>(totals: impl IntoIterator<Item = &'a AppTotals>) -> f64 {
    let (mut idle, mut all) = (0u64, 0u64);
    for t in totals {
        idle += t.idle;
        all += t.total();
    }
    idle as f64 / all.max(1) as f64
}

/// Table IV: how many times PRO's TB order differs from the sample before.
pub fn order_changes(samples: &[TbOrderSnapshot]) -> usize {
    samples.windows(2).filter(|pair| pair[0].order != pair[1].order).count()
}

/// Table IV's run: AES under PRO on the experiment's machine, SM 0's TB
/// order sampled every THRESHOLD (1000) cycles.
pub fn tb_order_cell(exp: &Experiment) -> Cell {
    let w = find("aesEncrypt128").expect("AES present");
    let trace = TraceOptions {
        tb_order_period: 1000,
        ..Default::default()
    };
    run_cell(&w, SchedulerKind::Pro, exp.scale, exp.machine, |gpu, k| {
        gpu.launch(k, SchedulerKind::Pro, trace)
    })
}

/// Fig. 2's run: LPS under `sched` on the experiment's [four-SM
/// slice](Experiment::four_sm_slice), which gives SM 0 about the paper's
/// share of TBs. Returns SM 0's TB spans in retire order and the kernel's
/// cycles.
pub fn fig2_timeline(exp: &Experiment, sched: SchedulerKind) -> (Vec<TbSpan>, u64) {
    let w = find("laplace3d").expect("LPS present");
    let trace = TraceOptions {
        timeline: true,
        ..Default::default()
    };
    let r = run_cell(&w, sched, exp.scale, exp.four_sm_slice(), |gpu, k| gpu.launch(k, sched, trace)).result;
    (r.timeline.into_iter().filter(|s| s.sm == 0).collect(), r.cycles)
}

/// What the paper states: a value, or for an ordinal claim the order it
/// asserts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A number in the claim's unit.
    Scalar(f64),
    /// An order; the claim's measure is the margin by which it holds.
    Ordinal(&'static str),
}

/// One claim of the paper about its evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Stable name, `<figure>.<what>`.
    pub id: &'static str,
    /// The figure or table that shows it.
    pub figure: &'static str,
    /// Scalar with the paper's value, or ordinal with its order.
    pub kind: Kind,
    /// The unit of the value (or of an ordinal claim's margin): `x` for a
    /// ratio, `count`, `share`.
    pub unit: &'static str,
    /// The paper's statement.
    pub source: &'static str,
    /// This build's value; for an ordinal claim, the margin by which the
    /// order holds (positive) or fails.
    pub measure: fn(&Evidence) -> f64,
}

/// Every claim `repro correlate` checks. Table III's TL and GTO total
/// columns are Fig. 5's geomeans, so they appear once, as `fig5.*`.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    Claim { id: "fig1.idle_order", figure: "Fig. 1", kind: Kind::Ordinal("LRR > TL > GTO"), unit: "share",
        source: "LRR has the largest share of Idle stalls, then TL, then GTO",
        measure: |e| (e.stalls.idle_share(LRR) - e.stalls.idle_share(TL))
            .min(e.stalls.idle_share(TL) - e.stalls.idle_share(GTO)) },
    Claim { id: "fig4.geomean_vs_tl", figure: "Fig. 4", kind: Kind::Scalar(1.13), unit: "x",
        source: "PRO's geomean speedup over TL is 1.13x", measure: |e| e.fig4.geomean[TL] },
    Claim { id: "fig4.geomean_vs_lrr", figure: "Fig. 4", kind: Kind::Scalar(1.12), unit: "x",
        source: "PRO's geomean speedup over LRR is 1.12x", measure: |e| e.fig4.geomean[LRR] },
    Claim { id: "fig4.geomean_vs_gto", figure: "Fig. 4", kind: Kind::Scalar(1.02), unit: "x",
        source: "PRO's geomean speedup over GTO is 1.02x", measure: |e| e.fig4.geomean[GTO] },
    Claim { id: "fig4.scalarprod_vs_tl", figure: "Fig. 4", kind: Kind::Scalar(1.6), unit: "x",
        source: "PRO's largest win over TL is 1.6x, on scalarProd", measure: |e| e.picked.on(SCALAR_PROD)[TL] },
    Claim { id: "fig4.scalarprod_vs_lrr", figure: "Fig. 4", kind: Kind::Scalar(1.94), unit: "x",
        source: "PRO's largest win over LRR is 1.94x, on scalarProd", measure: |e| e.picked.on(SCALAR_PROD)[LRR] },
    Claim { id: "fig4.merge_hist64_vs_gto", figure: "Fig. 4", kind: Kind::Scalar(1.16), unit: "x",
        source: "PRO's largest win over GTO is 16%, on mergeHistogram64Kernel",
        measure: |e| e.picked.on(MERGE_HIST64)[GTO] },
    Claim { id: "fig4.slower_than_tl", figure: "Fig. 4", kind: Kind::Scalar(3.0), unit: "count",
        source: "PRO is slower than TL on 3 kernels", measure: |e| e.fig4.slower(TL) as f64 },
    Claim { id: "fig4.slower_than_lrr", figure: "Fig. 4", kind: Kind::Scalar(4.0), unit: "count",
        source: "PRO is slower than LRR on 4 kernels", measure: |e| e.fig4.slower(LRR) as f64 },
    Claim { id: "fig4.worst_vs_tl", figure: "Fig. 4", kind: Kind::Scalar(0.96), unit: "x",
        source: "PRO's worst loss to TL is 4%", measure: |e| e.fig4.worst(TL) },
    Claim { id: "fig4.worst_vs_lrr", figure: "Fig. 4", kind: Kind::Scalar(0.93), unit: "x",
        source: "PRO's worst loss to LRR is 7%", measure: |e| e.fig4.worst(LRR) },
    Claim { id: "fig5.tl", figure: "Fig. 5", kind: Kind::Scalar(1.32), unit: "x",
        source: "TL has 1.32x PRO's stall cycles (geomean over the applications)",
        measure: |e| e.stalls.geomean[TL][TOTAL] },
    Claim { id: "fig5.lrr", figure: "Fig. 5", kind: Kind::Scalar(1.19), unit: "x",
        source: "LRR has 1.19x PRO's stall cycles", measure: |e| e.stalls.geomean[LRR][TOTAL] },
    Claim { id: "fig5.gto", figure: "Fig. 5", kind: Kind::Scalar(1.04), unit: "x",
        source: "GTO has 1.04x PRO's stall cycles", measure: |e| e.stalls.geomean[GTO][TOTAL] },
    Claim { id: "table3.tl_pipeline", figure: "Table III", kind: Kind::Scalar(0.70), unit: "x",
        source: "against TL, PRO pays a little in Pipeline stalls (0.70x)",
        measure: |e| e.stalls.geomean[TL][PIPELINE] },
    Claim { id: "table3.tl_idle", figure: "Table III", kind: Kind::Scalar(2.40), unit: "x",
        source: "against TL, PRO cuts Idle stalls 2.40x", measure: |e| e.stalls.geomean[TL][IDLE] },
    Claim { id: "table3.tl_scoreboard", figure: "Table III", kind: Kind::Scalar(1.58), unit: "x",
        source: "against TL, PRO cuts Scoreboard stalls 1.58x", measure: |e| e.stalls.geomean[TL][SCOREBOARD] },
    Claim { id: "table3.lrr_idle", figure: "Table III", kind: Kind::Scalar(3.21), unit: "x",
        source: "against LRR, PRO cuts Idle stalls 3.21x", measure: |e| e.stalls.geomean[LRR][IDLE] },
    Claim { id: "table3.top_apps", figure: "Table III", kind: Kind::Ordinal("STO, AES, b+tree, hotspot first"),
        unit: "x", source: "STO, AES, b+tree and hotspot gain the most (total stalls against TL)",
        measure: |e| top_apps_margin(e, &["STO", "AES", "b+tree", "hotspot"]) },
    Claim { id: "table3.pathfinder_loss", figure: "Table III", kind: Kind::Ordinal("pathfinder < 1"),
        unit: "x", source: "pathfinder is a loss (total stalls against TL)",
        measure: |e| 1.0 - Stalls::ratios(e.stalls.app("pathfinder"), TL)[TOTAL] },
    Claim { id: "table4.order_changes", figure: "Table IV", kind: Kind::Scalar(7.0), unit: "count",
        source: "AES's TB order changes 7 times in 16 samples",
        measure: |e| order_changes(&e.tb_order[..e.tb_order.len().min(16)]) as f64 },
    Claim { id: "ablation.no_barrier", figure: "§IV", kind: Kind::Scalar(1.11), unit: "x",
        source: "disabling barrier handling sped scalarProd up by about 11%", measure: |e| e.no_barrier },
];

/// How far the smallest TL/PRO total-stall ratio of `apps` lies above the
/// largest of every other application's.
fn top_apps_margin(e: &Evidence, apps: &[&str]) -> f64 {
    let (mut named, mut rest) = (f64::INFINITY, f64::NEG_INFINITY);
    for (app, totals) in &e.stalls.apps {
        let r = Stalls::ratios(totals, TL)[TOTAL];
        if apps.contains(app) {
            named = named.min(r);
        } else {
            rest = rest.max(r);
        }
    }
    named - rest
}

/// The paper's value for the scalar claim `id`.
pub fn paper(id: &str) -> f64 {
    match claim(id).kind {
        Kind::Scalar(v) => v,
        Kind::Ordinal(_) => panic!("{id} is an ordinal claim"),
    }
}

/// The claim called `id`.
pub fn claim(id: &str) -> &'static Claim {
    CLAIMS.iter().find(|c| c.id == id).unwrap_or_else(|| panic!("no claim {id}"))
}

/// What the claims are measured on: the experiment's matrix through the
/// reductions above, and the runs of `repro table4` and `repro ablation`.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    /// Fig. 4 over the experiment's kernels.
    pub fig4: Speedups,
    /// Fig. 4 over the kernels the per-kernel claims name.
    pub picked: Speedups,
    /// The stall reduction over the experiment's kernels.
    pub stalls: Stalls,
    /// Table IV's samples.
    pub tb_order: Vec<TbOrderSnapshot>,
    /// PRO-NB's speedup over PRO on scalarProd.
    pub no_barrier: f64,
}

impl Evidence {
    /// Read every claim's cells: the store's TL/LRR/GTO/PRO matrix, the
    /// named kernels' rows, the ablation's scalarProd cells and Table IV's
    /// run.
    pub fn gather(exp: &mut Experiment) -> Evidence {
        let grid = exp.cells(&exp.kernels(), &SchedulerKind::PAPER);
        let (fig4, stalls) = (Speedups::of(&grid), Stalls::of(&grid));
        let picked = [SCALAR_PROD, MERGE_HIST64].map(|k| find(k).expect("kernel present"));
        let ablation = exp.cells(&picked[..1], &[SchedulerKind::Pro, SchedulerKind::ProNoBarrier]);
        let no_barrier = speedup(&ablation.cells()[0].result, &ablation.cells()[1].result);
        let picked = Speedups::of(&exp.cells(&picked, &SchedulerKind::PAPER));
        let tb_order = tb_order_cell(exp).result.tb_order;
        Evidence { fig4, picked, stalls, tb_order, no_barrier }
    }

    /// [`Evidence::gather`] on `exp`'s machine with the `.cfg` key `key`
    /// set to `value`, in a new experiment at `exp`'s scale, kernels and
    /// `--jobs`; or why that machine fails the configuration check.
    pub fn gather_with(exp: &Experiment, key: &str, value: u64) -> Result<Evidence, ConfigError> {
        let machine = pro_sim::parse_config(&format!("{key} = {value}"), exp.machine)?;
        let mut on = Experiment::new(exp.scale, exp.quick, machine);
        on.jobs = exp.jobs;
        Ok(Evidence::gather(&mut on))
    }
}

/// One claim beside what this build measures.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The claim.
    pub claim: &'static Claim,
    /// Its measure over the evidence.
    pub measured: f64,
}

impl Row {
    /// Measured minus the paper's value, for a scalar claim.
    pub fn error(&self) -> Option<f64> {
        match self.claim.kind {
            Kind::Scalar(paper) => Some(self.measured - paper),
            Kind::Ordinal(_) => None,
        }
    }

    /// Whether an ordinal claim's order holds.
    pub fn held(&self) -> Option<bool> {
        match self.claim.kind {
            Kind::Scalar(_) => None,
            Kind::Ordinal(_) => Some(self.measured > 0.0),
        }
    }
}

/// Every claim of [`CLAIMS`] measured on `evidence`, in table order.
pub fn correlate(evidence: &Evidence) -> Vec<Row> {
    CLAIMS.iter().map(|claim| Row { claim, measured: (claim.measure)(evidence) }).collect()
}

/// The agreement of a set of rows in three numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean |error| over the scalar claims in unit `x`.
    pub mean_abs_error: f64,
    /// How many claims that mean is over.
    pub ratio_claims: usize,
    /// Ordinal claims that held.
    pub held: usize,
    /// Ordinal claims.
    pub ordinal: usize,
    /// Kernels on which PRO is slower than TL, LRR and GTO.
    pub slower: [usize; 3],
}

impl Summary {
    /// The summary of `rows`, with the losses counted over `fig4`.
    pub fn of(rows: &[Row], fig4: &Speedups) -> Summary {
        let errors: Vec<f64> = rows.iter().filter(|r| r.claim.unit == "x").filter_map(Row::error).collect();
        let verdicts: Vec<bool> = rows.iter().filter_map(Row::held).collect();
        Summary {
            mean_abs_error: errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len().max(1) as f64,
            ratio_claims: errors.len(),
            held: verdicts.iter().filter(|&&h| h).count(),
            ordinal: verdicts.len(),
            slower: [TL, LRR, GTO].map(|b| fig4.slower(b)),
        }
    }
}

/// Reads one latency of a machine.
type Latency = fn(&GpuConfig) -> u64;

/// The `.cfg` latency keys `repro sensitivity` varies, each with the field
/// it sets. A variant is built through [`pro_sim::parse_config`], so this
/// table only reads the value it scales.
#[rustfmt::skip]
pub const LATENCIES: [(&str, Latency); 14] = [
    ("fetch_lat", |c| c.sm.fetch_lat),
    ("lat_int_simple", |c| c.sm.lat_int_simple),
    ("lat_int_mul", |c| c.sm.lat_int_mul),
    ("lat_float", |c| c.sm.lat_float),
    ("lat_convert", |c| c.sm.lat_convert),
    ("sfu_lat", |c| c.sm.sfu_lat),
    ("sfu_ii", |c| c.sm.sfu_ii),
    ("shared_lat", |c| c.sm.shared_lat),
    ("l1_hit_lat", |c| c.mem.l1_hit_lat),
    ("l2_lat", |c| c.mem.l2_lat),
    ("icnt_lat", |c| c.mem.icnt_lat),
    ("dram_t_cas", |c| c.mem.dram.t_cas),
    ("dram_t_rp_rcd", |c| c.mem.dram.t_rp_rcd),
    ("dram_t_burst", |c| c.mem.dram.t_burst),
];

#[cfg(test)]
mod tests {
    use super::*;
    use pro_workloads::Scale;
    use std::collections::HashSet;

    #[test]
    fn claim_ids_are_unique_and_suffix_values_are_declared() {
        let ids: HashSet<_> = CLAIMS.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), CLAIMS.len());
        for id in ["fig4.geomean_vs_tl", "fig5.lrr", "table3.tl_scoreboard", "ablation.no_barrier"] {
            assert!(paper(id) > 0.0, "{id}");
        }
    }

    #[test]
    fn order_changes_count_differing_neighbours() {
        let at = |cycle, order: &[u32]| TbOrderSnapshot { cycle, order: order.to_vec() };
        let samples = [at(1, &[0, 1]), at(2, &[0, 1]), at(3, &[1, 0]), at(4, &[0, 1])];
        assert_eq!(order_changes(&samples), 2);
        assert_eq!(order_changes(&samples[..1]), 0);
    }

    #[test]
    fn table_iv_runs_on_the_experiments_machine() {
        let two_sms = Experiment::new(Scale::Capped(8), true, GpuConfig::small(2));
        let cell = tb_order_cell(&two_sms);
        let aes = find("aesEncrypt128").unwrap();
        let on = |machine| {
            let trace = TraceOptions { tb_order_period: 1000, ..Default::default() };
            run_cell(&aes, SchedulerKind::Pro, two_sms.scale, machine, |gpu, k| gpu.launch(k, SchedulerKind::Pro, trace))
        };
        let (small, gtx480) = (on(two_sms.machine).result, on(GpuConfig::gtx480()).result);
        assert_eq!((cell.result.cycles, &cell.result.tb_order), (small.cycles, &small.tb_order));
        assert_ne!(cell.result.cycles, gtx480.cycles, "two SMs ran AES as fast as fourteen");
    }

    #[test]
    fn every_claim_is_measured_and_the_summary_is_its_rows() {
        let mut exp = Experiment::new(Scale::Capped(8), true, GpuConfig::small(2));
        let evidence = Evidence::gather(&mut exp);
        let rows = correlate(&evidence);
        assert_eq!(rows.len(), CLAIMS.len());
        for row in &rows {
            assert!(row.measured.is_finite(), "{}: {}", row.claim.id, row.measured);
        }
        let summary = Summary::of(&rows, &evidence.fig4);
        let errors: Vec<f64> = rows
            .iter()
            .filter(|r| r.claim.unit == "x" && matches!(r.claim.kind, Kind::Scalar(_)))
            .map(|r| (r.measured - paper(r.claim.id)).abs())
            .collect();
        assert_eq!(summary.ratio_claims, errors.len());
        assert!((summary.mean_abs_error - errors.iter().sum::<f64>() / errors.len() as f64).abs() < 1e-12);
        let ordinal = CLAIMS.iter().filter(|c| matches!(c.kind, Kind::Ordinal(_))).count();
        assert_eq!(summary.ordinal, ordinal);
        assert!(summary.held <= ordinal);
        assert_eq!(summary.slower[0], evidence.fig4.kernels.iter().filter(|(_, s)| s[0] < 1.0).count());
    }

    #[test]
    fn every_latency_key_reads_the_field_the_config_file_sets() {
        for (key, read) in LATENCIES {
            let machine = pro_sim::parse_config(&format!("{key} = 7"), GpuConfig::gtx480()).unwrap();
            assert_eq!(read(&machine), 7, "{key}");
            assert_ne!(read(&GpuConfig::gtx480()), 7, "{key}");
        }
    }

    #[test]
    fn a_sensitivity_row_is_the_runs_of_its_one_key_machine() {
        let exp = Experiment::new(Scale::Capped(8), true, GpuConfig::small(2));
        let row = Evidence::gather_with(&exp, "l2_lat", 40).unwrap();
        let mut machine = exp.machine;
        machine.mem.l2_lat = 40;
        let kernels = exp.kernels();
        assert_eq!(row.fig4.kernels.len(), kernels.len());
        for (w, &(name, speedups)) in kernels.iter().zip(&row.fig4.kernels) {
            let cycles = SchedulerKind::PAPER.map(|s| {
                let r = w.run(machine, exp.scale, |gpu, k| gpu.launch(k, s, TraceOptions::default()));
                r.unwrap().cycles
            });
            assert_eq!(name, w.kernel);
            assert_eq!(speedups, [TL, LRR, GTO].map(|b| cycles[b] as f64 / cycles[PRO] as f64), "{name}");
        }
    }
}
