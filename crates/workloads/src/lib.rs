//! # pro-workloads — the paper's Table II benchmark kernels, rebuilt in VPTX
//!
//! The paper evaluates 25 kernels from the GPGPU-Sim, Rodinia and CUDA-SDK
//! suites. CUDA sources and PTX are unavailable to this reproduction, so
//! each kernel is re-created as a VPTX program that matches the original
//! along the axes a warp scheduler can observe (DESIGN.md §6):
//!
//! * instruction mix (ALU / FP / SFU / memory / barrier),
//! * global-memory intensity and coalescing quality,
//! * barrier cadence and shared-memory usage,
//! * warp-level divergence (per-thread trip-count skew, guarded regions),
//! * grid size: **thread block counts are Table II's values**, optionally
//!   scaled down (powers of two) for simulation speed while keeping the
//!   grid comfortably larger than GPU residency so both of PRO's execution
//!   phases are exercised.
//!
//! Every kernel is *functionally real*: it computes a defined result that
//! [`Workload::build`]'s verifier checks against a host reference, which is
//! what lets the test suite assert scheduler-independence of results.
//!
//! [`Workload::run`] (and [`synth::run`] for generated kernels) is the one
//! way to run a kernel outside a test: build on a fresh GPU, launch, check
//! the output — a result comes back only from a run that was right.
//!
//! One [`Workload`] = one Table II row. [`registry`] returns all 25 in
//! table order; [`apps()`] groups them into the 15 applications used by
//! Figs. 1/5 and Table III.

pub mod apps;
pub mod common;
pub mod synth;

use pro_isa::Kernel;
use pro_mem::GlobalMem;
use pro_sim::{Gpu, GpuConfig, RunResult, SimError};

/// Verifier over final device memory.
pub type VerifyFn = Box<dyn Fn(&GlobalMem) -> Result<(), String>>;

/// A kernel instance bound to buffers in device memory.
pub struct Built {
    /// The launchable kernel.
    pub kernel: Kernel,
    /// Checks device memory after the launch against a host reference,
    /// computed at build time from the inputs in device memory.
    pub verify: VerifyFn,
}

/// Grid-size scaling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table II thread-block counts, exactly.
    Full,
    /// Halve the TB count until it is ≤ the cap (default 300 — ~2.7× the
    /// GTX480's 112-TB residency, so the fast and slow phases both occur).
    Capped(u32),
}

impl Default for Scale {
    fn default() -> Self {
        Scale::Capped(300)
    }
}

/// One Table II row: an application kernel with its grid size.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Application name (Table II column 1).
    pub app: &'static str,
    /// Kernel name (Table II column 2).
    pub kernel: &'static str,
    /// Thread blocks (Table II column 3).
    pub table2_tbs: u32,
    /// Threads per block (chosen to match the original kernel's shape).
    pub threads_per_tb: u32,
    /// Build the kernel against device memory for a given TB count.
    pub build: fn(&mut GlobalMem, u32) -> Built,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("app", &self.app)
            .field("kernel", &self.kernel)
            .field("table2_tbs", &self.table2_tbs)
            .finish()
    }
}

impl Workload {
    /// TB count under a scaling policy.
    pub fn effective_tbs(&self, scale: Scale) -> u32 {
        match scale {
            Scale::Full => self.table2_tbs,
            Scale::Capped(cap) => {
                let mut t = self.table2_tbs;
                while t > cap {
                    t /= 2;
                }
                t.max(1)
            }
        }
    }

    /// Build at the scaled grid size.
    pub fn build_scaled(&self, gmem: &mut GlobalMem, scale: Scale) -> Built {
        (self.build)(gmem, self.effective_tbs(scale))
    }

    /// The one way to run a Table II kernel: build it at `scale` in the
    /// memory of a fresh `cfg` GPU, let `launch` run it there (a plain
    /// [`Gpu::launch`], or whatever policy, traces and tracer the caller
    /// wants), then check device memory against the host reference. No
    /// counters come back from a launch that failed or computed the wrong
    /// thing.
    pub fn run(
        &self,
        cfg: GpuConfig,
        scale: Scale,
        launch: impl FnOnce(&mut Gpu, &Kernel) -> Result<RunResult, SimError>,
    ) -> Result<RunResult, RunError> {
        let mut gpu = Gpu::new(cfg, self.recommended_gmem(scale));
        let built = self.build_scaled(&mut gpu.gmem, scale);
        let result = launch(&mut gpu, &built.kernel)?;
        (built.verify)(&gpu.gmem).map_err(RunError::WrongResult)?;
        Ok(result)
    }

    /// Device-memory recommendation for a run of this workload.
    pub fn recommended_gmem(&self, scale: Scale) -> u64 {
        // Generous flat budget: the largest full-scale kernels (convSep at
        // 18432 TBs) stay under 192 MB; scaled runs need far less.
        match scale {
            Scale::Full => 256 << 20,
            Scale::Capped(_) => 64 << 20,
        }
    }
}

/// All 25 Table II kernels, in table order.
pub fn registry() -> Vec<Workload> {
    apps::all()
}

/// The Table II row whose kernel is named `kernel`, if there is one
/// (kernel names are unique across the table).
pub fn find(kernel: &str) -> Option<Workload> {
    registry().into_iter().find(|w| w.kernel == kernel)
}

/// The 15 applications (Fig. 1/5, Table III rows), each with its kernels.
pub fn apps() -> Vec<(&'static str, Vec<Workload>)> {
    let mut out: Vec<(&'static str, Vec<Workload>)> = Vec::new();
    for w in registry() {
        match out.iter_mut().find(|(a, _)| *a == w.app) {
            Some((_, v)) => v.push(w),
            None => out.push((w.app, vec![w])),
        }
    }
    out
}

/// Why [`Workload::run`] or [`synth::run`] has no result to hand back.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The simulation did not finish.
    Sim(SimError),
    /// The launch finished and left the wrong result in device memory.
    WrongResult(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::WrongResult(why) => write!(f, "functional verification failed: {why}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table2() {
        let r = registry();
        assert_eq!(r.len(), 25, "Table II has 25 kernels");
        // Spot-check the table's TB counts.
        let find = |k: &str| r.iter().find(|w| w.kernel == k).unwrap().table2_tbs;
        assert_eq!(find("aesEncrypt128"), 257);
        assert_eq!(find("kernel"), 256); // BFS
        assert_eq!(find("laplace3d"), 100);
        assert_eq!(find("executeThirdLayer"), 2800);
        assert_eq!(find("findK"), 10000);
        assert_eq!(find("convolutionRowsKernel"), 18432);
        assert_eq!(find("mergeHistogram64Kernel"), 64);
        assert_eq!(find("scalarProdGPU"), 128);
    }

    #[test]
    fn apps_group_to_15() {
        let a = apps();
        assert_eq!(a.len(), 15, "Fig. 1/5 and Table III have 15 applications");
        let nn = a.iter().find(|(n, _)| *n == "NN").unwrap();
        assert_eq!(nn.1.len(), 4);
        let hist = a.iter().find(|(n, _)| *n == "histogram").unwrap();
        assert_eq!(hist.1.len(), 4);
    }

    fn lrr(gpu: &mut Gpu, kernel: &Kernel) -> Result<RunResult, SimError> {
        gpu.launch(kernel, pro_sim::SchedulerKind::Lrr, Default::default())
    }

    #[test]
    fn a_run_whose_host_reference_disagrees_has_no_result() {
        let real = find("scalarProdGPU").unwrap();
        let run = |w: Workload| w.run(GpuConfig::small(2), Scale::Capped(4), lrr);
        assert!(run(real).unwrap().cycles > 0);
        // The same kernel, checked against a reference that sees another
        // first dot product (its exponent's top bit flipped) than was stored.
        let disagreeing = Workload {
            build: |gmem, tbs| {
                let built = (apps::scalarprod::WORKLOAD.build)(gmem, tbs);
                let out = built.kernel.params[2] as u64;
                let verify: VerifyFn = Box::new(move |gmem| {
                    let mut seen = gmem.clone();
                    seen.write(out, gmem.read(out) ^ 0x4000_0000);
                    (built.verify)(&seen)
                });
                Built { kernel: built.kernel, verify }
            },
            ..real
        };
        let err = run(disagreeing).unwrap_err();
        assert!(matches!(err, RunError::WrongResult(_)), "{err:?}");
        assert!(err.to_string().starts_with("functional verification failed: "), "{err}");
    }

    #[test]
    fn a_run_that_does_not_finish_is_a_simulation_error() {
        let w = find("scalarProdGPU").unwrap();
        let cfg = GpuConfig { max_cycles: 100, ..GpuConfig::small(2) };
        let err = w.run(cfg, Scale::Capped(4), lrr).unwrap_err();
        assert!(matches!(err, RunError::Sim(SimError::Timeout { .. })), "{err:?}");
    }

    #[test]
    fn scaling_caps_by_halving() {
        let w = find("convolutionRowsKernel").unwrap();
        assert_eq!(w.effective_tbs(Scale::Full), 18432);
        let t = w.effective_tbs(Scale::Capped(300));
        assert!(t <= 300 && t > 150, "halving lands in (cap/2, cap]: {t}");
        // Small grids are untouched.
        let s = find("scalarProdGPU").unwrap();
        assert!(find("no such kernel").is_none());
        assert_eq!(s.effective_tbs(Scale::default()), 128);
    }
}
