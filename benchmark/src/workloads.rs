//! The four workloads: which cells each runs and how `--seed` shapes them.
//!
//! A *cell* is one launch of one kernel under one policy through one use of
//! the run loop. All workloads are closed loop with one client: the next cell
//! starts when the previous one has finished. Every cell gets a fresh GPU, so
//! the modelled caches start empty.
//!
//! The seed does two things. It picks the generated kernels of
//! `compute_dense` and `memory_bound`, so the simulator also runs programs
//! nobody tuned for; and it shuffles the order of the cells (of whole
//! kernel x policy groups in `observed_run`), so no cell always runs behind
//! the same neighbour. The Table II cells are the same for every seed, which
//! is why the simulated-cycle and fidelity metrics are computed over them
//! only and repeat exactly.

use crate::adapter::{KernelSpec, Policy, SplitMix64, SynthSpec, PAPER_POLICIES};

#[cfg(test)]
pub const NAMES: [&str; 4] = [
    "compute_dense",
    "memory_bound",
    "paper_matrix",
    "observed_run",
];

/// How a cell drives the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Gpu::launch`.
    Plain,
    /// `launch_traced` into a `RingTracer`.
    Ring,
    /// `launch_checkpointed`, delta chain every [`CKPT_EVERY`] cycles.
    Checkpointed,
    /// Pause at half time, resume on a fresh GPU.
    PauseResume,
    /// `launch_traced` into a `JsonlTracer` over a sink.
    Jsonl,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Ring => "ring",
            Mode::Checkpointed => "ckpt",
            Mode::PauseResume => "pause_resume",
            Mode::Jsonl => "jsonl",
        }
    }
}

/// Cycles between delta checkpoints in `Mode::Checkpointed` cells.
pub const CKPT_EVERY: u64 = 2000;

#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the workload's canonical (unshuffled) list; the key for
    /// spans, samples and rep-to-rep comparison.
    pub id: u32,
    pub kernel: KernelSpec,
    pub policy: Policy,
    pub mode: Mode,
}

impl Cell {
    /// `kernel/POLICY`, the key into `golden/digests.json`.
    pub fn key(&self) -> String {
        format!("{}/{}", self.kernel.label(), self.policy.name())
    }

    pub fn is_table(&self) -> bool {
        matches!(self.kernel, KernelSpec::Table(_))
    }
}

const LRR_GTO_PRO: [Policy; 3] = [Policy::Lrr, Policy::Gto, Policy::Pro];
const LRR_PRO: [Policy; 2] = [Policy::Lrr, Policy::Pro];

/// High IPC (10-26), few dead cycles: the issue path does the work.
const COMPUTE_KERNELS: [&str; 6] = [
    "aesEncrypt128",
    "sha1_overlap",
    "dynproc_kernel",
    "cenergy",
    "bpnn_layerforward",
    "findK",
];

/// Low IPC (2-8), scoreboard-stalled: the memory system and the cycles that
/// issue nothing do the work. (scalarProdGPU, the extreme case at IPC 2, costs
/// as much host time as all of these together and is left out so that a rep
/// stays short enough to repeat.)
const MEMORY_KERNELS: [&str; 6] = [
    "executeFourthLayer",
    "kernel",
    "render",
    "MonteCarloOneBlockPerOption",
    "bpnn_adjust_weights_cuda",
    "histogram64Kernel",
];

/// The cheaper kernel(s) of 11 of Table II's 15 applications: the whole
/// 25 x 4 matrix takes 20-28 s of host time, one sample a cell, which cannot
/// be measured steadily in a run; these take about a fifth of that.
/// `--full-matrix` runs the whole matrix once.
const MATRIX_KERNELS: [&str; 14] = [
    "cenergy",
    "laplace3d",
    "executeSecondLayer",
    "executeThirdLayer",
    "sha1_overlap",
    "bpnn_layerforward",
    "findRageK",
    "findK",
    "calculate_temp",
    "convolutionRowsKernel",
    "convolutionColumnsKernel",
    "histogram64Kernel",
    "mergeHistogram64Kernel",
    "inverseCNDKernel",
];

/// A memory-bound, a barrier-heavy and a compute-bound kernel.
const OBSERVED_KERNELS: [&str; 3] = ["executeFirstLayer", "laplace3d", "findK"];

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// `n` generated kernels picked by `seed`; `salt` keeps the two seeded
/// workloads from sharing kernels.
fn synth_kernels(
    n: usize,
    seed: u64,
    salt: u64,
    statements: u32,
    mem_prob: f64,
    scatter_prob: f64,
) -> Vec<KernelSpec> {
    let mut rng = SplitMix64::new(seed ^ salt);
    (0..n)
        .map(|_| {
            KernelSpec::Synth(SynthSpec {
                seed: rng.next_u64(),
                statements,
                mem_prob,
                scatter_prob,
            })
        })
        .collect()
}

/// The cells of `workload` in the order `seed` runs them, or `None` for an
/// unknown name. `smoke` cuts the list to one small kernel.
pub fn cells(workload: &str, seed: u64, smoke: bool) -> Option<Vec<Cell>> {
    let table = |names: &[&'static str]| -> Vec<KernelSpec> {
        names.iter().map(|n| KernelSpec::Table(n)).collect()
    };
    // Groups of cells that stay together and in order when shuffled.
    let plain =
        |kernels: Vec<KernelSpec>, policies: &[Policy]| -> Vec<Vec<(KernelSpec, Policy, Mode)>> {
            kernels
                .iter()
                .flat_map(|k| policies.iter().map(move |p| vec![(*k, *p, Mode::Plain)]))
                .collect()
        };
    let synth = if smoke { 1 } else { 3 };
    let groups = match workload {
        "compute_dense" => {
            let mut kernels = table(if smoke { &["findK"] } else { &COMPUTE_KERNELS });
            kernels.extend(synth_kernels(synth, seed, 0xC0DE, 36, 0.05, 0.2));
            plain(kernels, &LRR_GTO_PRO)
        }
        "memory_bound" => {
            let mut kernels = table(if smoke {
                &["histogram64Kernel"]
            } else {
                &MEMORY_KERNELS
            });
            kernels.extend(synth_kernels(synth, seed, 0x3E30, 12, 0.6, 0.7));
            plain(kernels, &LRR_GTO_PRO)
        }
        "paper_matrix" => {
            let kernels = table(if smoke {
                &["mergeHistogram64Kernel"]
            } else {
                &MATRIX_KERNELS
            });
            plain(kernels, &PAPER_POLICIES)
        }
        "full_matrix" => {
            let kernels = crate::adapter::table2_kernels()
                .into_iter()
                .map(KernelSpec::Table)
                .collect();
            plain(kernels, &PAPER_POLICIES)
        }
        "observed_run" => {
            let kernels = table(if smoke {
                &["laplace3d"]
            } else {
                &OBSERVED_KERNELS
            });
            kernels
                .iter()
                .flat_map(|k| {
                    LRR_PRO.iter().map(move |p| {
                        let mut modes = vec![Mode::Ring, Mode::Checkpointed, Mode::PauseResume];
                        if *k == KernelSpec::Table("laplace3d") {
                            modes.push(Mode::Jsonl);
                        }
                        modes.into_iter().map(|m| (*k, *p, m)).collect()
                    })
                })
                .collect()
        }
        _ => return None,
    };
    let mut id = 0;
    let mut groups: Vec<Vec<Cell>> = groups
        .into_iter()
        .map(|g| {
            g.into_iter()
                .map(|(kernel, policy, mode)| {
                    id += 1;
                    Cell {
                        id: id - 1,
                        kernel,
                        policy,
                        mode,
                    }
                })
                .collect()
        })
        .collect();
    shuffle(&mut groups, &mut SplitMix64::new(seed ^ 0x5_4F_FF_1E));
    Some(groups.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(cells: &[Cell]) -> Vec<u32> {
        cells.iter().map(|c| c.id).collect()
    }

    #[test]
    fn same_seed_same_cells_other_seed_other_order_and_kernels() {
        for w in NAMES {
            let a = cells(w, 1, false).unwrap();
            assert_eq!(a, cells(w, 1, false).unwrap(), "{w}: seed 1 twice");
            let b = cells(w, 2, false).unwrap();
            assert_ne!(ids(&a), ids(&b), "{w}: the seed shuffles the order");
            let mut sorted = ids(&b);
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..a.len() as u32).collect::<Vec<_>>(),
                "{w}: ids are dense"
            );
            let table = |cs: &[Cell]| {
                let mut t: Vec<_> = cs.iter().filter(|c| c.is_table()).cloned().collect();
                t.sort_by_key(|c| c.id);
                t
            };
            assert_eq!(
                table(&a),
                table(&b),
                "{w}: Table II cells do not depend on the seed"
            );
        }
        let synth = |seed| -> Vec<Cell> {
            cells("memory_bound", seed, false)
                .unwrap()
                .into_iter()
                .filter(|c| !c.is_table())
                .collect()
        };
        assert_eq!(synth(1).len(), 9);
        assert!(synth(1)
            .iter()
            .all(|c| !synth(2).iter().any(|d| d.kernel == c.kernel)));
    }

    #[test]
    fn sizes_and_grouping() {
        assert_eq!(cells("compute_dense", 1, false).unwrap().len(), 27);
        assert_eq!(cells("memory_bound", 1, false).unwrap().len(), 27);
        assert_eq!(cells("paper_matrix", 1, false).unwrap().len(), 56);
        assert_eq!(cells("full_matrix", 1, false).unwrap().len(), 100);
        let observed = cells("observed_run", 3, false).unwrap();
        assert_eq!(observed.len(), 3 * 2 * 3 + 2);
        // Each kernel x policy group stays together, ring first: the later
        // modes compare against the group's first result.
        for pair in observed.windows(2) {
            if pair[0].key() == pair[1].key() {
                assert_eq!(pair[1].id, pair[0].id + 1);
            } else {
                assert_eq!(pair[1].mode, Mode::Ring);
            }
        }
        assert!(cells("nope", 1, false).is_none());
        for w in NAMES {
            assert!(
                cells(w, 1, true).unwrap().len() <= 8,
                "{w}: smoke list is short"
            );
        }
    }
}
