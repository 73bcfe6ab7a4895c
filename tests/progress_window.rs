//! How long a correct launch goes without progress: the margin a window
//! that stops a spinning launch early must leave.
//!
//! Progress is what `SimError::Timeout`'s `last_progress` counts: a warp
//! exits, a barrier opens, a TB retires, or a store or shared atomic
//! changes a word. A tracer sees the first three but not whether a store
//! changed its word, so [`Quiet`] measures two stretches that bracket the
//! engine's: one that counts every store as progress and one that counts
//! none.
//!
//! `cargo test --release -p pro-sim --test progress_window -- --ignored
//! --nocapture` prints the longest of both over the 25 Table II kernels
//! under all eight policies, at the default scale and at full scale.

use pro_core::pool;
use pro_sim::isa::{Instr, Program};
use pro_sim::trace::{Event, EventClass, Tracer};
use pro_sim::{Gpu, GpuConfig, SchedulerKind, SimError, TraceOptions};
use pro_workloads::{find, registry, Scale, Workload};

/// The longest stretches of cycles without progress, counting every
/// store and atomic as progress (`[0]`) or none (`[1]`).
struct Quiet {
    /// Whether an issue at each pc stores: `St` (either space) or `Atom`.
    stores: Vec<bool>,
    exits: Vec<bool>,
    last: [u64; 2],
    longest: [u64; 2],
}

impl Quiet {
    fn new(program: &Program) -> Self {
        let is = |f: fn(&Instr) -> bool| program.instrs.iter().map(f).collect();
        Quiet {
            stores: is(|i| matches!(i, Instr::St { .. } | Instr::Atom { .. })),
            exits: is(|i| matches!(i, Instr::Exit)),
            last: [0; 2],
            longest: [0; 2],
        }
    }

    fn progress(&mut self, which: usize, cycle: u64) {
        self.longest[which] = self.longest[which].max(cycle - self.last[which]);
        self.last[which] = cycle;
    }
}

impl Tracer for Quiet {
    fn wants(&self, class: EventClass) -> bool {
        matches!(class, EventClass::Issue | EventClass::Barrier | EventClass::Tb)
    }

    fn emit(&mut self, cycle: u64, ev: &Event) {
        let (store, other) = match *ev {
            Event::WarpIssue { pc, .. } => (self.stores[pc as usize], self.exits[pc as usize]),
            Event::BarrierRelease { .. } | Event::TbComplete { .. } => (false, true),
            _ => (false, false),
        };
        if store || other {
            self.progress(0, cycle);
        }
        if other {
            self.progress(1, cycle);
        }
    }

    fn on_kernel_begin(&mut self, _name: &str, cycle: u64) {
        self.last = [cycle; 2];
    }
}

/// `w` under `sched` at `scale` on `cfg`, watched by a [`Quiet`].
fn watch(w: &Workload, sched: SchedulerKind, scale: Scale, cfg: GpuConfig) -> (Quiet, Result<u64, SimError>) {
    let mut gpu = Gpu::new(cfg, w.recommended_gmem(scale));
    let built = w.build_scaled(&mut gpu.gmem, scale);
    let mut quiet = Quiet::new(&built.kernel.program);
    let run = gpu.launch_traced(&built.kernel, sched, TraceOptions::default(), &mut quiet);
    if run.is_ok() {
        (built.verify)(&gpu.gmem).unwrap();
    }
    (quiet, run.map(|r| r.cycles))
}

#[test]
fn the_engines_last_progress_lies_between_the_tracers_bounds() {
    // laplace3d stops three quarters of the way through: its timeout names
    // the engine's last progress, which no store-blind count passes and
    // every-store count trails.
    let (w, scale, cfg) = (find("laplace3d").unwrap(), Scale::Capped(8), GpuConfig::small(2));
    let (_, done) = watch(&w, SchedulerKind::Pro, scale, cfg);
    let cap = GpuConfig { max_cycles: done.unwrap() * 3 / 4, ..cfg };
    let (quiet, err) = watch(&w, SchedulerKind::Pro, scale, cap);
    let Err(SimError::Timeout { last_progress, .. }) = err else { panic!("wanted a timeout, got {err:?}") };
    assert!(quiet.last[1] <= last_progress && last_progress <= quiet.last[0], "{:?} vs {last_progress}", quiet.last);
    assert!(0 < quiet.last[1], "nothing progressed");
}

#[test]
#[ignore = "simulates 400 launches; run with --release -- --ignored --nocapture"]
fn longest_stretch_without_progress_over_the_paper_matrix() {
    let cells: Vec<(Workload, SchedulerKind)> =
        registry().into_iter().flat_map(|w| SchedulerKind::ALL.map(|s| (w, s))).collect();
    for scale in [Scale::default(), Scale::Full] {
        let runs = pool::run(0, &cells, |&(w, s)| {
            let (quiet, cycles) = watch(&w, s, scale, GpuConfig::gtx480());
            (quiet.longest, cycles.unwrap())
        });
        for (which, what) in ["every store counted", "no store counted"].iter().enumerate() {
            let ((w, s), (longest, cycles)) =
                cells.iter().zip(&runs).max_by_key(|(_, (longest, _))| longest[which]).unwrap();
            println!(
                "{scale:?}, {what}: {} cycles without progress, {} under {s:?} ({cycles} cycles in all)",
                longest[which], w.kernel
            );
        }
    }
}
