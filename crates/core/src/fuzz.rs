//! A deterministic pseudo-random scheduler used to stress simulator
//! invariants in tests: any *valid* policy (one that outputs a permutation
//! of its candidates) must drive every kernel to completion with identical
//! functional results. Fuzz deliberately produces adversarial orders.

use crate::rng::SplitMix64;
use crate::{IssueInfo, SchedView, WarpScheduler, WarpSlot};

/// Deterministic chaos: orders warps by a per-cycle [`SplitMix64`] stream.
/// It keeps the default `order_version` of `None`: every `order()` draws
/// from the stream, so a reused order would skip draws.
#[derive(Debug)]
pub struct Fuzz {
    rng: SplitMix64,
}

impl Fuzz {
    /// Seeded construction — the same seed reproduces the same schedule.
    pub fn new(seed: u64) -> Self {
        Fuzz {
            rng: SplitMix64::new(seed),
        }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

impl WarpScheduler for Fuzz {
    fn name(&self) -> &'static str {
        "FUZZ"
    }

    fn order(
        &mut self,
        _unit: u32,
        _view: &SchedView,
        candidates: &[WarpSlot],
        out: &mut Vec<WarpSlot>,
    ) {
        out.clear();
        out.extend_from_slice(candidates);
        // Fisher-Yates with the deterministic stream.
        for i in (1..out.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            out.swap(i, j);
        }
    }

    fn on_issue(&mut self, _unit: u32, _slot: WarpSlot, _info: IssueInfo, _view: &SchedView) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ViewFixture;

    #[test]
    fn output_is_a_permutation() {
        let f = ViewFixture::grid(4, 4);
        let mut s = Fuzz::new(42);
        let mut out = Vec::new();
        for _ in 0..100 {
            s.order(0, &f.view(), &f.all_slots(), &mut out);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, f.all_slots());
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let f = ViewFixture::grid(2, 4);
        let (mut a, mut b) = (Fuzz::new(7), Fuzz::new(7));
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for _ in 0..50 {
            a.order(0, &f.view(), &f.all_slots(), &mut oa);
            b.order(0, &f.view(), &f.all_slots(), &mut ob);
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let f = ViewFixture::grid(2, 8);
        let (mut a, mut b) = (Fuzz::new(1), Fuzz::new(2));
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        let mut same = true;
        for _ in 0..10 {
            a.order(0, &f.view(), &f.all_slots(), &mut oa);
            b.order(0, &f.view(), &f.all_slots(), &mut ob);
            if oa != ob {
                same = false;
            }
        }
        assert!(!same);
    }
}
