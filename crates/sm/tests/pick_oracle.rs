//! The verdict walk (the production `IssueState::pick`) and the re-probing
//! walk it replaced must pick the same warp every cycle of a recorded
//! LSU-saturated trace, the verdict walk without probing at all.

mod oracle;
use oracle::{pick_production, pick_reprobe, PipeFullModel};

#[test]
fn memo_and_reprobe_walks_pick_the_same_warps() {
    let mut memo = PipeFullModel::record(10_000);
    let mut reprobe = memo.clone();
    let (mut issues, mut pipe_full) = (0u64, 0u64);
    for now in 0..memo.cycles() {
        let probes_before = reprobe.probes;
        let picked = memo.step(now, pick_production);
        assert_eq!(picked, reprobe.step(now, pick_reprobe), "cycle {now}");
        issues += picked.is_ok() as u64;
        // A cycle the old walk tested warps in and still issued nothing.
        pipe_full += (picked.is_err() && reprobe.probes > probes_before) as u64;
    }
    assert!(issues > 1_000, "the trace must keep issuing: {issues}");
    assert!(pipe_full > 5_000, "the trace must be pipeline-bound: {pipe_full}");
    // The stream never diverges, so every verdict is taken at launch, issue
    // or release, and the walk tests nothing; the old one tested each
    // waiting warp every cycle.
    assert_eq!(memo.probes, 0, "{} probes for {issues} issues", memo.probes);
    assert!(reprobe.probes > 10 * issues, "{} probes for {issues} issues", reprobe.probes);
}
