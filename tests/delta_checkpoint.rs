//! Delta-checkpoint chains: periodic captures that write only the state
//! that changed (dirty gmem pages), linked `base.ckpt` → `delta-NNNNNN.ckpt`
//! by sequence number and parent CRC. Restoring the chain — base image plus
//! every delta folded in — must be **bit-identical** to the uninterrupted
//! run and to a full-snapshot restore of the same cycle: counters, output
//! memory, concatenated JSONL trace bytes. Corrupt or truncated tail deltas
//! shorten the chain instead of killing the restore.

use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, Run, SchedulerKind, SimError,
    SnapshotChain, TraceOptions,
};
use pro_workloads::{find, Scale};
use pro_core::codec::CodecError;
use std::path::{Path, PathBuf};

mod common;
use common::{
    assert_same, cfg, fresh_gpu, pause_of, resume_run, straight_run, traced_run, KERNEL, SCALE,
};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pro_delta_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Run traced with a delta chain until a pause *on* a periodic boundary, so
/// the chain tip and the returned full snapshot describe the same cycle.
/// Returns (pre-pause trace bytes, pause snapshot).
fn chained_prefix(
    sched: SchedulerKind,
    dir: &Path,
    every: u64,
    boundaries: u64,
) -> (Vec<u8>, GpuSnapshot) {
    let ckpt = CheckpointOptions {
        every,
        path: Some(dir.to_path_buf()),
        delta: true,
        pause_at: every * boundaries,
    };
    let (status, trace, _) = traced_run(sched, Some(&ckpt), None);
    (trace, pause_of(status))
}

#[test]
fn chain_restore_is_bit_identical_to_straight_and_full_restore() {
    // The tentpole guarantee, LRR and PRO: base+deltas replay equals the
    // uncheckpointed run byte for byte — and equals a full-snapshot restore
    // of the same cycle.
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let what = format!("{sched}");
        let (base, base_trace, base_mem) = straight_run(sched);
        let every = (base.cycles / 8).max(1);
        let dir = temp_dir(&format!("bitident_{sched}"));
        let (pre_trace, pause_snap) = chained_prefix(sched, &dir, every, 6);

        // "Crash": everything dropped, chain reloaded from disk.
        let chain = SnapshotChain::load_dir(&dir).expect("chain on disk");
        assert_eq!(chain.deltas(), 5, "{what}: base + 5 deltas expected");

        let (r, post_trace, mem) = resume_run((&chain).into(), sched);
        assert_same(&base, &r, &what);
        assert_eq!(base_mem, mem, "{what}: output memory");
        let mut trace = pre_trace.clone();
        trace.extend_from_slice(&post_trace);
        assert_eq!(
            base_trace, trace,
            "{what}: concatenated JSONL trace bytes diverged"
        );

        // Full-snapshot restore of the same cycle must agree with the
        // chain restore on everything, including trace bytes.
        let (rf, full_trace, _) = resume_run((&pause_snap).into(), sched);
        assert_same(&r, &rf, &format!("{what}: chain vs full restore"));
        assert_eq!(
            post_trace, full_trace,
            "{what}: chain and full restores emitted different trace bytes"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_lone_snapshot_and_a_chain_of_one_restore_identically() {
    // One restore path: the base container handed over as a lone snapshot
    // and as a chain that happens to have no deltas yet is the same prior
    // state, and both continue into the uninterrupted run.
    let sched = SchedulerKind::Pro;
    let (base, base_trace, base_mem) = straight_run(sched);
    let dir = temp_dir("chain_of_one");
    let (pre_trace, _) = chained_prefix(sched, &dir, (base.cycles / 4).max(1), 1);
    let chain = SnapshotChain::load_dir(&dir).expect("chain on disk");
    assert_eq!(chain.deltas(), 0, "one boundary: a base and nothing else");

    let (as_chain, chain_trace, chain_mem) = resume_run((&chain).into(), sched);
    let (as_lone, lone_trace, lone_mem) = resume_run((&chain.containers[0]).into(), sched);
    assert_same(&as_chain, &as_lone, "chain of one vs lone snapshot");
    assert_eq!(chain_mem, lone_mem, "output memory");
    assert_eq!(chain_trace, lone_trace, "JSONL suffix");
    assert_same(&base, &as_lone, "lone snapshot vs straight run");
    assert_eq!(base_mem, lone_mem, "straight run's output memory");
    assert_eq!(base_trace, [pre_trace, lone_trace].concat(), "straight run's trace bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_bare_delta_is_refused_and_leaves_the_gpu_reusable() {
    let sched = SchedulerKind::Lrr;
    let (base, _, _) = straight_run(sched);
    let dir = temp_dir("bare_delta");
    chained_prefix(sched, &dir, (base.cycles / 8).max(1), 2);
    let chain = SnapshotChain::load_dir(&dir).expect("chain on disk");
    assert_eq!(chain.deltas(), 1);

    let (mut gpu, kernel) = fresh_gpu();
    let run = Run { resume: Some((&chain.containers[1]).into()), ..Run::new(sched) };
    match gpu.run(&kernel, run) {
        Err(SimError::Snapshot(CodecError::Mismatch(why))) => {
            assert!(why.contains("bare delta container"), "{why}")
        }
        other => panic!("a delta without its base must be refused, got {other:?}"),
    }
    let r = gpu.launch(&kernel, sched, TraceOptions::default()).unwrap();
    assert_eq!(r.cycles, base.cycles, "GPU survived the refused resume");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_or_truncated_tail_falls_back_to_valid_prefix() {
    // A damaged tail delta must cost only the cycles since the previous
    // valid link — the restore still completes and still matches the
    // uninterrupted run's result.
    let sched = SchedulerKind::Pro;
    let (base, _, base_mem) = straight_run(sched);
    let every = (base.cycles / 8).max(1);

    // CRC flip in the newest delta.
    let dir = temp_dir("crcflip");
    chained_prefix(sched, &dir, every, 6);
    let tail = dir.join("delta-000005.ckpt");
    let mut bytes = std::fs::read(&tail).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&tail, &bytes).unwrap();
    let chain = SnapshotChain::load_dir(&dir).expect("prefix survives");
    assert_eq!(chain.deltas(), 4, "flipped tail discarded");
    let (r, _, mem) = resume_run((&chain).into(), sched);
    assert_same(&base, &r, "crc-flip fallback");
    assert_eq!(base_mem, mem, "crc-flip fallback: output memory");
    std::fs::remove_dir_all(&dir).unwrap();

    // Torn write: tail delta truncated mid-file.
    let dir = temp_dir("torn");
    chained_prefix(sched, &dir, every, 6);
    let tail = dir.join("delta-000005.ckpt");
    let bytes = std::fs::read(&tail).unwrap();
    std::fs::write(&tail, &bytes[..bytes.len() / 3]).unwrap();
    let chain = SnapshotChain::load_dir(&dir).expect("prefix survives");
    assert_eq!(chain.deltas(), 4, "truncated tail discarded");
    let (r, _, mem) = resume_run((&chain).into(), sched);
    assert_same(&base, &r, "truncation fallback");
    assert_eq!(base_mem, mem, "truncation fallback: output memory");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delta_is_at_least_5x_smaller_than_full() {
    // The acceptance bar: at the default workload scale with a 1000-cycle
    // interval, a delta checkpoint is ≥5× smaller than the full snapshot
    // of the same run. Sizes and write times land in EXPERIMENTS.md; run
    // with --nocapture to reproduce the numbers.
    let w = find(KERNEL).unwrap();
    let mut gpu = Gpu::new(cfg(), w.recommended_gmem(Scale::default()));
    let built = w.build_scaled(&mut gpu.gmem, Scale::default());
    let dir = temp_dir("sizes");
    let trace = TraceOptions {
        host_prof: true,
        ..Default::default()
    };
    let status = gpu
        .launch_checkpointed(
            &built.kernel,
            SchedulerKind::Lrr,
            trace,
            &CheckpointOptions {
                every: 1000,
                path: Some(dir.clone()),
                delta: true,
                ..Default::default()
            },
        )
        .unwrap();
    let r = status.expect_completed();

    let base_size = std::fs::metadata(dir.join("base.ckpt")).unwrap().len();
    let mut delta_sizes: Vec<u64> = Vec::new();
    for seq in 1u64.. {
        let Ok(md) = std::fs::metadata(dir.join(format!("delta-{seq:06}.ckpt"))) else {
            break;
        };
        delta_sizes.push(md.len());
    }
    assert!(
        !delta_sizes.is_empty(),
        "run too short for a delta at every=1000 ({} cycles)",
        r.cycles
    );
    let max_delta = *delta_sizes.iter().max().unwrap();
    let sum: u64 = delta_sizes.iter().sum();
    let avg_delta = sum / delta_sizes.len() as u64;
    let write_ns = r.metrics.counter("host/phase.snapshot_write.ns").unwrap_or(0);
    let write_calls = r
        .metrics
        .counter("host/phase.snapshot_write.calls")
        .unwrap_or(0);
    println!(
        "delta-vs-full (laplace3d, default scale, every=1000): \
         full={base_size} B, deltas n={} avg={avg_delta} B max={max_delta} B, \
         full/avg={:.1}x full/max={:.1}x, snapshot_write {} calls {} ns total",
        delta_sizes.len(),
        base_size as f64 / avg_delta as f64,
        base_size as f64 / max_delta as f64,
        write_calls,
        write_ns,
    );
    assert!(
        base_size >= 5 * max_delta,
        "delta not ≥5x smaller: full={base_size} B, largest delta={max_delta} B"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_identity_api_accepts_own_and_refuses_foreign() {
    // The identity check every resume runs: right config+kernel+scheduler
    // restores, anything else is a typed Mismatch before any state moves.
    let pro = SchedulerKind::Pro;
    let (mut gpu, kernel) = fresh_gpu();
    let ckpt = CheckpointOptions { pause_at: 200, ..Default::default() };
    let snap = pause_of(gpu.launch_checkpointed(&kernel, pro, TraceOptions::default(), &ckpt).unwrap());
    let resume = |gpu: &mut Gpu, kernel, sched| {
        gpu.run(kernel, Run { resume: Some((&snap).into()), ..Run::new(sched) })
    };
    let refused = |status| matches!(status, Err(SimError::Snapshot(CodecError::Mismatch(_))));

    let (mut own, _) = fresh_gpu();
    assert!(matches!(resume(&mut own, &kernel, pro), Ok(LaunchStatus::Completed(_))));
    let (mut own, _) = fresh_gpu();
    assert!(refused(resume(&mut own, &kernel, SchedulerKind::Lrr)), "another scheduler");
    let mut other_machine = Gpu::new(GpuConfig::small(2), 64 << 20);
    (find(KERNEL).unwrap().build)(&mut other_machine.gmem, SCALE);
    assert!(refused(resume(&mut other_machine, &kernel, pro)), "another machine");
    let mut own = Gpu::new(cfg(), 64 << 20);
    let other = (find("scalarProdGPU").unwrap().build)(&mut own.gmem, SCALE);
    assert!(refused(resume(&mut own, &other.kernel, pro)), "another kernel");
}
