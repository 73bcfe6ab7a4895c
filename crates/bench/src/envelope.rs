//! The schedule-space envelope (`repro envelope`): how far a kernel's
//! cycle count moves across every built-in policy and across random warp
//! orders. `repro correlate` says how far each claim is from the paper; the
//! envelope says whose the distance is. If no order makes a kernel much
//! faster, no PRO fix reproduces a large claimed speedup on it: the gap is
//! the substrate's. If a random order beats every policy, the substrate has
//! a lockstep artefact that no policy avoids.

use crate::{parallel_map, Experiment};
use pro_core::{Fuzz, SchedulerKind, WarpScheduler};
use pro_sim::{Policy, Run};
use pro_workloads::Workload;

/// One kernel's envelope: its cycles under each policy and each random
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Table II kernel name.
    pub kernel: &'static str,
    /// Cycles under each of [`SchedulerKind::ALL`], in that order.
    pub policies: Vec<u64>,
    /// Cycles under the `Fuzz` policy, one run per seed, ascending.
    pub fuzz: Vec<u64>,
}

impl Envelope {
    /// The fastest policy and its cycles; the first of [`SchedulerKind::ALL`]
    /// on a tie.
    pub fn best(&self) -> (SchedulerKind, u64) {
        let (i, &cycles) = self.policies.iter().enumerate().min_by_key(|&(i, &c)| (c, i)).expect("policies ran");
        (SchedulerKind::ALL[i], cycles)
    }

    /// PRO's cycles.
    pub fn pro(&self) -> u64 {
        self.policies[SchedulerKind::ALL.iter().position(|&k| k == SchedulerKind::Pro).expect("PRO is built in")]
    }

    /// PRO's rank among the policies: 1 plus the number strictly faster.
    pub fn pro_rank(&self) -> usize {
        1 + self.policies.iter().filter(|&&c| c < self.pro()).count()
    }

    /// The random orders' minimum, median (the lower middle of an even
    /// count) and maximum cycles.
    pub fn fuzz_spread(&self) -> (u64, u64, u64) {
        let n = self.fuzz.len();
        (self.fuzz[0], self.fuzz[(n - 1) / 2], self.fuzz[n - 1])
    }

    /// Does some random order finish before every policy?
    pub fn fuzz_beats_every_policy(&self) -> bool {
        self.fuzz[0] < self.best().1
    }
}

/// The envelopes of `kernels` on `exp`'s machine and scale, `seeds` random
/// orders each. The policy cells come through [`Experiment::cells`]; the
/// random runs go on the experiment pool. Seed `s` gives the `Fuzz`
/// instance of SM `i` the stream `s << 16 | i`, so SMs draw different
/// orders and every run repeats.
pub fn envelope(exp: &mut Experiment, kernels: &[Workload], seeds: u64) -> Vec<Envelope> {
    assert!(seeds > 0, "the envelope needs at least one random order");
    let policies: Vec<Vec<u64>> = {
        let grid = exp.cells(kernels, &SchedulerKind::ALL);
        grid.cells().chunks(SchedulerKind::ALL.len()).map(|row| row.iter().map(|c| c.result.cycles).collect()).collect()
    };
    let (cfg, scale) = (exp.machine, exp.scale);
    let runs: Vec<(Workload, u64)> = kernels.iter().flat_map(|&w| (0..seeds).map(move |s| (w, s))).collect();
    let fuzz = parallel_map(exp.jobs, &runs, |&(w, seed)| {
        let mut sm = 0u64;
        let mut factory = || -> Box<dyn WarpScheduler> {
            sm += 1;
            Box::new(Fuzz::new(seed << 16 | (sm - 1)))
        };
        let run = w.run(cfg, scale, |gpu, k| Ok(gpu.run(k, Run::new(Policy::Factory(&mut factory)))?.expect_completed()));
        run.unwrap_or_else(|e| panic!("{} under Fuzz seed {seed}: {e}", w.kernel)).cycles
    });
    kernels
        .iter()
        .zip(policies)
        .zip(fuzz.chunks(seeds as usize))
        .map(|((w, policies), fuzz)| {
            let mut fuzz = fuzz.to_vec();
            fuzz.sort_unstable();
            Envelope { kernel: w.kernel, policies, fuzz }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pro_sim::GpuConfig;
    use pro_workloads::{find, Scale};

    /// One small kernel on two SMs, two random orders: the cycles of every
    /// policy and seed are pinned, and so is what the view reads off them.
    /// (On the full machine random orders beat every policy on this kernel;
    /// on two SMs TL does not lose to them.)
    #[test]
    fn the_envelope_of_one_small_kernel_is_pinned() {
        let mut exp = Experiment::new(Scale::default(), true, GpuConfig::small(2));
        let kernel = find("mergeHistogram64Kernel").expect("kernel present");
        let [e] = <[Envelope; 1]>::try_from(envelope(&mut exp, &[kernel], 2)).expect("one row");
        assert_eq!(e.policies, [7160, 7142, 6952, 7613, 8154, 7011, 7628, 7188], "LRR GTO TL PRO PRO-NB PRO-NF PRO-NS PRO-AD");
        assert_eq!(e.fuzz, [7499, 7596], "cycles under the two Fuzz seeds, ascending");
        assert_eq!(e.best(), (SchedulerKind::Tl, 6952));
        assert_eq!((e.pro(), e.pro_rank()), (7613, 6));
        assert_eq!(e.fuzz_spread(), (7499, 7499, 7596));
        assert!(!e.fuzz_beats_every_policy());
        // The flag is raised by the random minimum alone.
        let beaten = Envelope { fuzz: vec![6951, 9000], ..e };
        assert!(beaten.fuzz_beats_every_policy());
    }
}
