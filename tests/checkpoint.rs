//! Checkpoint/resume correctness: a launch paused mid-grid, snapshotted,
//! restored into a *fresh* GPU (simulating a new process) and continued
//! must be **bit-identical** to the uninterrupted run — cycle counts, stall
//! attribution, per-SM counters, memory statistics, trace streams and
//! output memory.

use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, LaunchStatus, Run, RunResult, SchedulerKind,
    SimError, TraceOptions,
};
use pro_trace::{ClassSet, JsonlTracer};
use pro_workloads::find;
use pro_core::codec::{CodecError, FileReader, FileWriter, Reader, Snapshot, Writer};
use pro_sim::mem::cache::Lookup;
use pro_sim::mem::{Cache, DramChannel, MemConfig};
use std::collections::VecDeque;

const KERNEL: &str = "laplace3d";
const SCALE: u32 = 16;

fn cfg() -> GpuConfig {
    GpuConfig::small(4)
}

fn trace_opts() -> TraceOptions {
    TraceOptions {
        timeline: true,
        tb_order_period: 500,
        utilization_period: 100,
        ..Default::default()
    }
}

/// Build the test workload into a fresh GPU, returning (gpu, kernel).
fn fresh_gpu() -> (Gpu, pro_sim::isa::Kernel) {
    let w = find(KERNEL).unwrap();
    let mut gpu = Gpu::new(cfg(), 64 << 20);
    let built = (w.build)(&mut gpu.gmem, SCALE);
    (gpu, built.kernel)
}

/// The uninterrupted reference run: result, JSONL trace bytes, output memory.
fn straight_run(sched: SchedulerKind) -> (RunResult, Vec<u8>, Vec<u32>) {
    let (mut gpu, kernel) = fresh_gpu();
    let mut jsonl = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let r = gpu
        .launch_traced(&kernel, sched, trace_opts(), &mut jsonl)
        .unwrap();
    let out = gpu.gmem.read_slice(0, 4096);
    (r, jsonl.into_inner(), out)
}

/// Pause at `pause_at`, then resume in a *fresh* GPU. Returns the final
/// result, the concatenated (pre-pause + post-resume) trace bytes, and the
/// output memory of the resumed GPU.
fn split_run(sched: SchedulerKind, pause_at: u64) -> (RunResult, Vec<u8>, Vec<u32>) {
    let (mut gpu, kernel) = fresh_gpu();
    let mut jsonl1 = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let status = gpu
        .run(
            &kernel,
            Run {
                trace: trace_opts(),
                ckpt: Some(&CheckpointOptions {
                    pause_at,
                    ..Default::default()
                }),
                tracer: Some(&mut jsonl1),
                ..Run::new(sched)
            },
        )
        .unwrap();
    let snap = match status {
        LaunchStatus::Paused(s) => s,
        LaunchStatus::Completed(_) => panic!("expected a pause at cycle {pause_at}"),
    };
    // A fresh GPU, as a new process would build it: workload inputs are
    // re-allocated, then the snapshot overwrites all of device memory.
    let (mut gpu2, kernel2) = fresh_gpu();
    let mut jsonl2 = JsonlTracer::with_classes(Vec::<u8>::new(), ClassSet::ALL);
    let status = gpu2
        .run(
            &kernel2,
            Run {
                trace: trace_opts(),
                tracer: Some(&mut jsonl2),
                resume: Some((&snap).into()),
                ..Run::new(sched)
            },
        )
        .unwrap();
    let r = match status {
        LaunchStatus::Completed(r) => r,
        LaunchStatus::Paused(_) => panic!("resume paused without a pause_at"),
    };
    let mut trace = jsonl1.into_inner();
    trace.extend_from_slice(&jsonl2.into_inner());
    let out = gpu2.gmem.read_slice(0, 4096);
    (r, trace, out)
}

fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.kernel, b.kernel, "{what}: kernel");
    assert_eq!(a.scheduler, b.scheduler, "{what}: scheduler");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.sm, b.sm, "{what}: aggregate SM stats");
    assert_eq!(a.per_sm, b.per_sm, "{what}: per-SM stats");
    assert_eq!(a.mem, b.mem, "{what}: memory stats");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline");
    assert_eq!(a.tb_order, b.tb_order, "{what}: tb order trace");
    assert_eq!(a.utilization, b.utilization, "{what}: utilization");
    // `host/*` metrics are wall-clock measurements of the host and vary
    // run to run by nature; every determinism gate compares the simulated
    // namespace only (tests/host_prof.rs pins the exclusion itself).
    let sim = |m: &pro_trace::Metrics| {
        (
            m.counters()
                .iter()
                .filter(|(n, _)| !n.starts_with("host/"))
                .cloned()
                .collect::<Vec<_>>(),
            m.hists()
                .iter()
                .filter(|(n, _)| !n.starts_with("host/"))
                .cloned()
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(sim(&a.metrics), sim(&b.metrics), "{what}: metrics");
}

#[test]
fn resume_is_bit_identical_serial_and_parallel() {
    // The tentpole guarantee: pause → snapshot → restore in a fresh GPU →
    // continue equals the uninterrupted run byte for byte, for LRR and PRO.
    for sched in [SchedulerKind::Lrr, SchedulerKind::Pro] {
        let (base, base_trace, base_mem) = straight_run(sched);
        let pause_at = base.cycles / 2;
        assert!(pause_at > 0, "workload too short to split");
        let (r, trace, mem) = split_run(sched, pause_at);
        assert_same(&base, &r, &format!("{sched}"));
        assert_eq!(base_mem, mem, "{sched}: output memory");
        assert_eq!(
            base_trace, trace,
            "{sched}: concatenated JSONL trace bytes diverged"
        );
    }
}

#[test]
fn dirty_order_state_round_trips_for_every_tracking_policy() {
    // The incremental issue path (DESIGN.md §15) added serialized
    // dirty-order masks to LRR/GTO/OWL/TL (PRO forces all-dirty on load
    // and re-derives its rank table), plus host-side candidate bitsets,
    // the warp ready-mask, and per-unit cached orders — all of which are
    // *derived* state that `restore_snapshot` drops and rebuilds. A pause
    // that lands mid-kernel, with stalled warps memoized in the ready-mask
    // and half the units holding reusable cached orders, must still resume
    // bit-identically: LRR and PRO are pinned by the tests above, the
    // remaining tracking policies here.
    for sched in [SchedulerKind::Gto, SchedulerKind::Tl, SchedulerKind::Owl] {
        let (base, base_trace, base_mem) = straight_run(sched);
        // An odd cut point, away from TB-launch boundaries, maximizes the
        // chance of non-trivial sb-wait/longlat masks at the snapshot.
        let pause_at = base.cycles / 3 + 1;
        assert!(pause_at > 0 && pause_at < base.cycles);
        let (r, trace, mem) = split_run(sched, pause_at);
        assert_same(&base, &r, &format!("{sched} dirty-state round trip"));
        assert_eq!(base_mem, mem, "{sched}: output memory");
        assert_eq!(base_trace, trace, "{sched}: concatenated trace bytes");
    }
}

#[test]
fn periodic_checkpoint_file_recovers_a_run() {
    // Periodic checkpoints into one file, each replacing the last: pretend
    // the process died and restart from the file on disk.
    let dir = std::env::temp_dir().join(format!("pro_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cell.ckpt");

    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let (mut gpu, kernel) = fresh_gpu();
    // Pause late so several periodic checkpoints have landed first.
    let status = gpu
        .launch_checkpointed(
            &kernel,
            SchedulerKind::Pro,
            trace_opts(),
            &CheckpointOptions {
                every: base.cycles / 8,
                path: Some(path.clone()),
                pause_at: base.cycles * 3 / 4,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(matches!(status, LaunchStatus::Paused(_)));
    // "Crash": drop everything, reload the last checkpoint from disk.
    drop(gpu);
    let snap = GpuSnapshot::read_from(&path).unwrap();
    snap.validate().unwrap();
    let (mut gpu2, kernel2) = fresh_gpu();
    let r = gpu2
        .resume(
            &snap,
            &kernel2,
            SchedulerKind::Pro,
            trace_opts(),
            &CheckpointOptions::default(),
        )
        .unwrap();
    match r {
        LaunchStatus::Completed(r) => assert_same(&base, &r, "recovered run"),
        LaunchStatus::Paused(_) => panic!("recovery paused unexpectedly"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_snapshot_is_rejected_cleanly() {
    let (base, _, _) = straight_run(SchedulerKind::Lrr);
    let (mut gpu, kernel) = fresh_gpu();
    let status = gpu
        .launch_checkpointed(
            &kernel,
            SchedulerKind::Lrr,
            TraceOptions::default(),
            &CheckpointOptions {
                pause_at: base.cycles / 2,
                ..Default::default()
            },
        )
        .unwrap();
    let snap = match status {
        LaunchStatus::Paused(s) => s,
        _ => panic!("expected pause"),
    };
    // Flip one payload byte: the per-section CRC must catch it, as a typed
    // error — not a panic, not a silently wrong simulation.
    let mut bytes = snap.into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let bad = GpuSnapshot::from_bytes(bytes);
    let (mut gpu2, kernel2) = fresh_gpu();
    let err = gpu2
        .resume(
            &bad,
            &kernel2,
            SchedulerKind::Lrr,
            TraceOptions::default(),
            &CheckpointOptions::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(CodecError::CrcMismatch { .. })),
        "wanted a CRC error, got {err:?}"
    );
    // The rejected GPU is still usable for a normal launch.
    let r = gpu2
        .launch(&kernel2, SchedulerKind::Lrr, TraceOptions::default())
        .unwrap();
    assert_eq!(r.cycles, base.cycles, "GPU survived the rejected resume");
}

#[test]
fn mismatched_resume_is_rejected() {
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let (mut gpu, kernel) = fresh_gpu();
    let status = gpu
        .launch_checkpointed(
            &kernel,
            SchedulerKind::Pro,
            TraceOptions::default(),
            &CheckpointOptions {
                pause_at: base.cycles / 2,
                ..Default::default()
            },
        )
        .unwrap();
    let snap = match status {
        LaunchStatus::Paused(s) => s,
        _ => panic!("expected pause"),
    };
    // Wrong scheduler.
    let (mut gpu2, kernel2) = fresh_gpu();
    let err = gpu2
        .resume(
            &snap,
            &kernel2,
            SchedulerKind::Lrr,
            TraceOptions::default(),
            &CheckpointOptions::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(CodecError::Mismatch(_))),
        "wrong scheduler must be refused, got {err:?}"
    );
    // Wrong kernel.
    let w = find("scalarProdGPU").unwrap();
    let mut gpu3 = Gpu::new(cfg(), 64 << 20);
    let other = (w.build)(&mut gpu3.gmem, SCALE);
    let err = gpu3
        .resume(
            &snap,
            &other.kernel,
            SchedulerKind::Pro,
            TraceOptions::default(),
            &CheckpointOptions::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(CodecError::Mismatch(_))),
        "wrong kernel must be refused, got {err:?}"
    );
    // Wrong trace options: the snapshot (taken with the timeline off) holds
    // no start cycle for the TBs in flight, which the timeline needs when
    // they complete. The refused GPU still resumes with the right options.
    let timeline = TraceOptions { timeline: true, ..Default::default() };
    let (mut gpu4, kernel4) = fresh_gpu();
    let err = gpu4
        .resume(&snap, &kernel4, SchedulerKind::Pro, timeline, &CheckpointOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(CodecError::Mismatch(_))),
        "timeline switched on at resume must be refused, got {err:?}"
    );
    let resumed = gpu4
        .resume(
            &snap,
            &kernel4,
            SchedulerKind::Pro,
            TraceOptions::default(),
            &CheckpointOptions::default(),
        )
        .unwrap();
    match resumed {
        LaunchStatus::Completed(r) => assert_eq!(r.cycles, base.cycles),
        LaunchStatus::Paused(_) => panic!("resume paused without a pause_at"),
    }
    // And the mirror: paused with the timeline on, resumed with it off.
    let (mut gpu5, kernel5) = fresh_gpu();
    let pause = CheckpointOptions { pause_at: base.cycles / 2, ..Default::default() };
    let LaunchStatus::Paused(with_timeline) = gpu5
        .launch_checkpointed(&kernel5, SchedulerKind::Pro, timeline, &pause)
        .unwrap()
    else {
        panic!("expected pause");
    };
    let (mut gpu6, kernel6) = fresh_gpu();
    let err = gpu6
        .resume(
            &with_timeline,
            &kernel6,
            SchedulerKind::Pro,
            TraceOptions::default(),
            &CheckpointOptions::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(CodecError::Mismatch(_))),
        "timeline switched off at resume must be refused, got {err:?}"
    );
}

#[test]
fn run_result_snapshot_roundtrip() {
    // A serialized RunResult is what a result digest is taken over; the
    // round trip must preserve every field bit for bit.
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let mut w = pro_core::codec::Writer::new();
    base.save(&mut w);
    let bytes = w.into_bytes();
    let mut r = pro_core::codec::Reader::new(&bytes);
    let back = RunResult::load(&mut r).unwrap();
    r.finish().unwrap();
    assert_same(&base, &back, "RunResult codec");
    // The re-interned scheduler name is the canonical &'static str.
    assert_eq!(back.scheduler, SchedulerKind::Pro.name());
}

/// Pause `sched` on the test workload after `pause_at` cycles.
fn paused(sched: SchedulerKind, trace: TraceOptions, pause_at: u64) -> GpuSnapshot {
    let (mut gpu, kernel) = fresh_gpu();
    let ckpt = CheckpointOptions { pause_at, ..Default::default() };
    match gpu.launch_checkpointed(&kernel, sched, trace, &ckpt).unwrap() {
        LaunchStatus::Paused(s) => s,
        LaunchStatus::Completed(_) => panic!("expected a pause at cycle {pause_at}"),
    }
}

#[test]
fn container_bytes_are_pinned_for_every_policy() {
    // The wire format as constants: the CRC-32 of a mid-grid pause container
    // (every section populated — in-flight TB starts, MSHRs, outstanding
    // loads, LSU entries, scheduler state) under each of the nine policies,
    // and of one finished `RunResult`'s encoding. Recorded before the
    // serializers were rewritten as declarations; a change here is a format
    // change and needs a `FORMAT_VERSION` bump, not a new constant.
    // In `SchedulerKind::ALL` order.
    const CONTAINER_CRC: [u32; 9] = [
        0x41E0_B9CD, // LRR
        0x45DC_C62E, // GTO
        0xC0EE_322D, // TL
        0x80A0_C114, // OWL
        0xAFEC_B41B, // PRO
        0x007F_6BA9, // PRO-NB
        0xB344_BED5, // PRO-NF
        0x02E1_C6B7, // PRO-NS
        0xE0C8_979B, // PRO-AD
    ];
    const RUN_RESULT_CRC: u32 = 0x6F5A_BC94;
    assert_eq!(pro_core::codec::FORMAT_VERSION, 2);
    for (sched, want) in SchedulerKind::ALL.into_iter().zip(CONTAINER_CRC) {
        let got = pro_core::codec::crc32(paused(sched, trace_opts(), 1500).as_bytes());
        assert_eq!(got, want, "{sched}: pause container bytes moved (got {got:#010X})");
    }
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let mut w = pro_core::codec::Writer::new();
    base.save(&mut w);
    let got = pro_core::codec::crc32(&w.into_bytes());
    assert_eq!(got, RUN_RESULT_CRC, "RunResult encoding moved (got {got:#010X})");
}

/// Container section ids (DESIGN.md §12).
const SEC_LOOP: u32 = 2;
const SEC_MEM: u32 = 4;
const SEC_SM0: u32 = 10;

/// The parsed container with section `id`'s payload replaced, rebuilt
/// through `FileWriter` so every CRC in the result is valid.
fn with_section(parsed: &FileReader, id: u32, payload: &[u8]) -> GpuSnapshot {
    let mut out = FileWriter::new();
    for sec in parsed.section_ids() {
        let bytes = if sec == id { payload } else { parsed.section_bytes(sec).unwrap() };
        out.add_section_bytes(sec, bytes.to_vec());
    }
    GpuSnapshot::from_bytes(out.finish())
}

fn encode(value: &impl Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    value.save(&mut w);
    w.into_bytes()
}

/// Offset of the first occurrence of `needle`.
fn find_bytes(haystack: &[u8], needle: &[u8]) -> usize {
    haystack.windows(needle.len()).position(|w| w == needle).expect("pattern not in section")
}

/// A GPU that must refuse hostile prior state with a typed error and stay
/// launchable afterwards.
struct Victim {
    gpu: Gpu,
    kernel: pro_sim::isa::Kernel,
    sched: SchedulerKind,
    base_cycles: u64,
}

impl Victim {
    fn refuses(&mut self, bad: &GpuSnapshot, what: &str) -> CodecError {
        let no_ckpt = CheckpointOptions::default();
        match self.gpu.resume(bad, &self.kernel, self.sched, trace_opts(), &no_ckpt) {
            Err(SimError::Snapshot(e)) => e,
            other => panic!("{what}: wanted a snapshot error, got {other:?}"),
        }
    }

    fn still_launches(&mut self, what: &str) {
        let r = self.gpu.launch(&self.kernel, self.sched, TraceOptions::default()).unwrap();
        assert_eq!(r.cycles, self.base_cycles, "{what}: GPU did not survive the rejected resume");
    }
}

/// The victim, and a mid-grid pause container (parsed) under `sched` to
/// corrupt.
fn victim_and_pause(sched: SchedulerKind) -> (Victim, FileReader) {
    let (mut gpu, kernel) = fresh_gpu();
    let base_cycles = gpu.launch(&kernel, sched, TraceOptions::default()).unwrap().cycles;
    let snap = paused(sched, trace_opts(), base_cycles / 2);
    (Victim { gpu, kernel, sched, base_cycles }, FileReader::parse(snap.as_bytes()).unwrap())
}

#[test]
fn truncated_sections_with_valid_crcs_are_refused() {
    // `corrupted_snapshot_is_rejected_cleanly` flips a byte and so only ever
    // meets the CRC check. Here every CRC is right and a section simply
    // stops early, at 64 evenly spaced lengths: the decoders run out of
    // bytes part-way through restoring in place, which must be a typed
    // error that leaves the same GPU able to run the kernel.
    let (mut victim, snap) = victim_and_pause(SchedulerKind::Pro);
    for id in [SEC_LOOP, SEC_MEM, SEC_SM0 + 1] {
        let full = snap.section_bytes(id).unwrap();
        assert!(full.len() >= 64, "section {id} too short to sample");
        for i in 0..64 {
            let cut = full.len() * i / 64;
            let what = format!("section {id} cut to {cut} of {} bytes", full.len());
            victim.refuses(&with_section(&snap, id, &full[..cut]), &what);
            if i % 16 == 0 {
                victim.still_launches(&what);
            }
        }
        victim.still_launches(&format!("after every cut of section {id}"));
    }
}

#[test]
fn hostile_memory_geometry_is_refused() {
    // The MEM section embeds each cache's and DRAM channel's geometry, and
    // the model divides by it: a container whose checksums are right but
    // whose geometry is not must be an error, not a division by zero or an
    // empty set met by a fill thousands of cycles into the resumed run.
    let (mut victim, snap) = victim_and_pause(SchedulerKind::Pro);
    let mem = snap.section_bytes(SEC_MEM).unwrap().to_vec();
    let MemConfig { l1, dram, .. } = cfg().mem;
    let l1_at = find_bytes(&mem, &encode(&l1));
    let dram_at = find_bytes(&mem, &encode(&dram));
    // Field offsets inside the two encodings.
    let (ways_at, mshr_entries_at, sets_at) = (l1_at + 16, l1_at + 20, l1_at + 28);
    let row_bytes_at = dram_at + 5;

    let mut check = |what: &str, bad: Vec<u8>, want: fn(&CodecError) -> bool| {
        let err = victim.refuses(&with_section(&snap, SEC_MEM, &bad), what);
        assert!(want(&err), "{what}: refused, but with {err:?}");
        victim.still_launches(what);
    };
    let bad_value = |e: &CodecError| matches!(e, CodecError::BadValue(_));

    let mut zero_ways = mem.clone();
    zero_ways[ways_at..ways_at + 4].fill(0);
    check("an L1 with zero ways", zero_ways, bad_value);

    // Set 0 of the first L1 loses its ways: its count becomes zero and the
    // `ways` × (line u64, valid bool, last_use u64) after it are cut out.
    let mut empty_set = mem.clone();
    let set0_at = sets_at + 8;
    empty_set[set0_at..set0_at + 8].fill(0);
    empty_set.drain(set0_at + 8..set0_at + 8 + l1.ways as usize * 17);
    check("an L1 set with no ways", empty_set, bad_value);

    let mut zero_row = mem.clone();
    zero_row[row_bytes_at..row_bytes_at + 8].fill(0);
    check("a DRAM channel with zero-byte rows", zero_row, bad_value);

    // Well-formed, but not this machine's: META vouches for the machine and
    // the MEM section may not disagree with it.
    let mut other_l1 = mem.clone();
    other_l1[mshr_entries_at] ^= 0x40;
    check("an L1 with another MSHR count", other_l1, |e| matches!(e, CodecError::Mismatch(_)));
}

#[test]
fn out_of_range_pro_slots_are_refused() {
    // PRO's state closes each SM section: the TB classes, the three
    // priority lists, each TB's warp order, then the sort clock and the
    // phase latch. The lists index the class table and the warp orders
    // index the SM's warp slots on the first cycle after a restore.
    type ProState = (Vec<u8>, [Vec<u64>; 3], Vec<Vec<u64>>, (u64, bool));
    let (mut victim, snap) = victim_and_pause(SchedulerKind::Pro);
    let sm = cfg().sm;
    let sec = snap.section_bytes(SEC_SM0).unwrap();
    // The state starts at the last offset from which its layout parses to
    // exactly the end of the section with a class and a warp order per TB
    // slot.
    let parse = |at: usize| -> Result<ProState, CodecError> {
        let mut r = Reader::new(&sec[at..]);
        let state: ProState = Snapshot::load(&mut r)?;
        r.finish()?;
        Ok(state)
    };
    let (at, state) = (0..sec.len())
        .rev()
        .filter_map(|at| Some((at, parse(at).ok()?)))
        .find(|(_, s)| s.0.len() == sm.max_tbs && s.2.len() == sm.max_tbs)
        .expect("no PRO state at the end of the SM section");
    let resident = *state.1.iter().flatten().next().expect("no TB on any priority list");

    let mut hostile = |what: &str, edit: fn(&mut ProState, u64, u64)| {
        let mut state = state.clone();
        edit(&mut state, resident, sm.max_warps as u64);
        let bad = [&sec[..at], &encode(&state)[..]].concat();
        let err = victim.refuses(&with_section(&snap, SEC_SM0, &bad), what);
        assert!(matches!(err, CodecError::BadValue(_)), "{what}: refused, but with {err:?}");
        victim.still_launches(what);
    };
    hostile("a TB slot past the class table", |s, _, _| s.1[2].push(s.0.len() as u64));
    hostile("a TB on two priority lists", |s, resident, _| s.1[0].push(resident));
    hostile("a warp slot past the SM's", |s, _, max_warps| s.2[0].push(max_warps));
}

/// One row of a hostile-section table: `snap` with section `id` replaced by
/// the bytes given must be refused by the named `ensure` clause, and the
/// victim must launch afterwards.
fn hostile_rows<'a>(
    victim: &'a mut Victim,
    snap: &'a FileReader,
    id: u32,
) -> impl FnMut(&str, Vec<u8>, &'static str) + 'a {
    move |what, bad, clause| {
        let err = victim.refuses(&with_section(snap, id, &bad), what);
        assert_eq!(err, CodecError::BadValue(clause), "{what}");
        victim.still_launches(what);
    }
}

/// Overwrite the little-endian integer at `at`.
fn patched<const N: usize>(section: &[u8], at: usize, value: [u8; N]) -> Vec<u8> {
    let mut out = section.to_vec();
    out[at..at + N].copy_from_slice(&value);
    out
}

#[test]
fn out_of_range_indices_in_the_memory_section_are_refused() {
    // What the memory system holds in flight names an SM or a partition —
    // L2 input queues and MSHR waiters, DRAM requests, timing events — and
    // each name is an array index when its turn comes.
    type Txn = (u32, u64, bool);
    type Slice = (Cache<Txn>, VecDeque<Txn>);
    let (mut victim, snap) = victim_and_pause(SchedulerKind::Pro);
    let mem = snap.section_bytes(SEC_MEM).unwrap();
    let (no_sm, no_part) = (cfg().num_sms, cfg().mem.partitions);
    let mut check = hostile_rows(&mut victim, &snap, SEC_MEM);

    // The section opens with the L1s, then the L2 slices and the DRAM
    // channels (public types, or tuples with a private struct's layout);
    // the event queue follows.
    let mut r = Reader::new(mem);
    let _: Vec<Cache<u64>> = Snapshot::load(&mut r).unwrap();
    let slices_at = mem.len() - r.remaining();
    let decode = |r: &mut Reader<'_>| -> (Vec<Slice>, Vec<DramChannel<u32>>) {
        (Snapshot::load(r).unwrap(), Snapshot::load(r).unwrap())
    };
    decode(&mut r);
    let events_at = mem.len() - r.remaining();

    // Events are `(time, seq, tag, index, ..)`: tag 0 (an L2 arrival)
    // carries a transaction, tags 1 to 3 (DRAM done, line returning, L1 hit)
    // an index and a `u64` each — so a DRAM completion stands in for the
    // other two. The first read to arrive and the first line DRAM returns:
    let (mut read, mut dram_done) = (None, None);
    for _ in 0..r.get_u64().unwrap() {
        let tag_at = mem.len() - r.remaining() + 16;
        let (_, _, tag, (part, line)): (u64, u64, u8, (u32, u64)) = Snapshot::load(&mut r).unwrap();
        if tag == 0 && !r.get_bool().unwrap() {
            read.get_or_insert(tag_at);
        } else if tag == 1 {
            dram_done.get_or_insert((tag_at, part, line));
        }
    }
    let read = read.expect("no read on its way to the L2");
    let (dram_done, part, line) = dram_done.expect("no line on its way back from DRAM");
    let event = "mem event SM or partition index";
    check("an L2 arrival from an SM past the last", patched(mem, read + 1, no_sm.to_le_bytes()), event);
    for (tag, index, what) in [
        (1, no_part, "a DRAM completion for a partition past the last"),
        (2, no_sm, "a line returning to an SM past the last"),
        (3, no_sm, "an L1 hit on an SM past the last"),
    ] {
        check(what, patched(&patched(mem, dram_done, [tag]), dram_done + 1, index.to_le_bytes()), event);
    }

    let edited = |edit: &dyn Fn(&mut Slice, &mut DramChannel<u32>)| {
        let (mut slices, mut drams) = decode(&mut Reader::new(&mem[slices_at..]));
        edit(&mut slices[part as usize], &mut drams[part as usize]);
        [&mem[..slices_at], &encode(&slices), &encode(&drams), &mem[events_at..]].concat()
    };
    assert_eq!(edited(&|_, _| ()), mem, "the mirror types do not match the section");
    check(
        "a queued L2 read from an SM past the last",
        edited(&|slice, _| slice.1.push_front((no_sm, line, false))),
        "mem transaction SM index",
    );
    check(
        "an L2 miss waiting for an SM past the last",
        edited(&|slice, _| {
            let miss = slice.0.access(line, (no_sm, line, false));
            assert!(matches!(miss, Lookup::MissAllocated | Lookup::MissMerged), "{miss:?}");
        }),
        "mem transaction SM index",
    );
    check(
        "a DRAM request for a partition past the last",
        edited(&|_, dram| dram.push(0, line, no_part)),
        "DRAM request partition index",
    );
}

#[test]
fn out_of_range_slots_and_pcs_in_an_sm_section_are_refused() {
    // An SM section names TB slots (each warp's, and its entry in the
    // scheduler's view), warp slots (whose registers a writeback, a load in
    // flight or a shared-memory access will release) and PCs (the SIMT
    // stack's entries): array indices all, the cycle after a restore.
    type WarpView = (bool, u64, u32, (u64, bool, bool, bool));
    type TbView = (bool, u32, u64, (u32, u32, u32, u64));
    type Release = (u64, (u128, u32));
    // Under GTO, which reads the view's TB slots (PRO keeps its own lists).
    let (mut victim, snap) = victim_and_pause(SchedulerKind::Gto);
    let sm = cfg().sm;
    let (no_tb, no_warp) = ((sm.max_tbs as u64).to_le_bytes(), (sm.max_warps as u64).to_le_bytes());
    let sec = snap.section_bytes(SEC_SM0).unwrap();
    let mut check = hostile_rows(&mut victim, &snap, SEC_SM0);

    // Geometry (`u64`, `u32`), the warp count, then warp 0: valid, its TB
    // slot (`u64`), two `u32`s, its SIMT stack's depth and bottom entry.
    let (valid_at, tb_slot_at, pc_at) = (20, 21, 45);
    assert_eq!(sec[valid_at], 1, "warp slot 0 is empty");
    check("a warp in a TB slot past the last", patched(sec, tb_slot_at, no_tb), "snapshot warp TB slot");
    let past_the_end = patched(sec, pc_at, u32::MAX.to_le_bytes());
    check("a SIMT entry past the program's end", past_the_end, "snapshot SIMT entry PC");

    // The scheduler's view is the first place a warp-slot array and a
    // TB-slot array of the machine's sizes parse back to back.
    let word = |at: usize| u64::from_le_bytes(sec[at..at + 8].try_into().unwrap());
    let (view_at, after_view) = (0..sec.len() - 8)
        .filter(|&at| word(at) == sm.max_warps as u64)
        .find_map(|at| {
            let mut r = Reader::new(&sec[at..]);
            let view: (Vec<WarpView>, Vec<TbView>) = Snapshot::load(&mut r).ok()?;
            (view.1.len() == sm.max_tbs).then(|| (at, sec.len() - r.remaining()))
        })
        .expect("no scheduler view in the SM section");
    check(
        "a scheduler-view warp in a TB slot past the last",
        patched(sec, view_at + 8 + 1, no_tb),
        "snapshot scheduler view TB slot",
    );

    // Four `u32` resource counts, then the writeback events (count, then
    // `(time, seq, release)` each, then the sequence counter), the LSU
    // queue, a `u64`, and the loads in flight (count, then `(id, release)`).
    let wb_at = after_view + 16;
    let mut r = Reader::new(&sec[wb_at..]);
    let (writebacks, _): (Vec<(u64, u64, Release)>, u64) = Snapshot::load(&mut r).unwrap();
    let lsu_at = sec.len() - r.remaining();
    for _ in 0..r.get_u64().unwrap() {
        if r.get_u8().unwrap() == 0 {
            let _: (u64, Vec<u64>, u64, bool) = Snapshot::load(&mut r).unwrap();
        } else {
            let _: (u64, u32, (u128, u32)) = Snapshot::load(&mut r).unwrap();
        }
    }
    r.get_u64().unwrap();
    let loads_at = sec.len() - r.remaining();
    let loads: Vec<(u64, Release)> = Snapshot::load(&mut r).unwrap();
    assert!(!writebacks.is_empty() && !loads.is_empty(), "nothing in flight on SM 0");
    let release = "snapshot release warp slot";
    check("a writeback to a warp slot past the last", patched(sec, wb_at + 8 + 16, no_warp), release);
    check("a load in flight for a warp slot past the last", patched(sec, loads_at + 8 + 8, no_warp), release);

    // A shared-memory access, one cycle from done, at the head of the LSU
    // queue: tag, warp slot, cycles left, the registers it will write.
    let mut shared_op = sec[..lsu_at].to_vec();
    shared_op.extend((word(lsu_at) + 1).to_le_bytes());
    shared_op.push(1);
    shared_op.extend(encode(&(sm.max_warps as u64, 1u32, (1u128, 0u32))));
    shared_op.extend(&sec[lsu_at + 8..]);
    check("a shared-memory access by a warp slot past the last", shared_op, release);
}
