//! Checkpoint/resume correctness: a launch paused mid-grid, snapshotted,
//! restored into a *fresh* GPU (simulating a new process) and continued
//! must be **bit-identical** to the uninterrupted run — cycle counts, stall
//! attribution, per-SM counters, memory statistics, trace streams and
//! output memory.

use pro_sim::{
    CheckpointOptions, Gpu, GpuConfig, GpuSnapshot, Run, RunResult, SchedulerKind,
    SimError, TraceOptions,
};
use pro_workloads::find;
use pro_core::codec::{write_container, CodecError, FileReader, Reader, Snapshot, Writer};
use pro_sim::isa::Kernel;
use pro_sim::mem::cache::Lookup;
use pro_sim::mem::{Cache, DramChannel, MemConfig};
use pro_trace::{ClassSet, EventClass, Record, RingTracer};
use std::collections::{HashMap, VecDeque};

mod common;
use common::{
    assert_same, cfg, fresh_gpu, pause_of, paused, rebuild_from_events, resume_fresh, resume_run,
    straight_run, trace_opts, traced_run, KERNEL, SCALE,
};

/// Pause at `pause_at`, then resume in a *fresh* GPU. Returns the final
/// result, the concatenated (pre-pause + post-resume) trace bytes, and the
/// output memory of the resumed GPU.
fn split_run(sched: SchedulerKind, pause_at: u64) -> (RunResult, Vec<u8>, Vec<u32>) {
    let ckpt = CheckpointOptions { pause_at, ..Default::default() };
    let (status, mut trace, _) = traced_run(sched, Some(&ckpt), None);
    let (r, resumed_trace, out) = resume_run((&pause_of(status)).into(), sched);
    trace.extend_from_slice(&resumed_trace);
    (r, trace, out)
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
    // The incremental issue path (DESIGN.md §15) keeps host-side candidate
    // bitsets, the warp ready-mask and per-unit cached orders with the
    // order version each was built under, and PRO a rank table — all of
    // them *derived* state that no policy section carries and
    // `restore_snapshot` drops and rebuilds. A pause that lands mid-kernel,
    // with stalled warps memoized in the ready-mask and half the units
    // holding reusable cached orders, must still resume bit-identically:
    // LRR and PRO are pinned by the tests above, the remaining policies
    // with an order version here.
    for sched in [SchedulerKind::Gto, SchedulerKind::Tl] {
        let (base, base_trace, base_mem) = straight_run(sched);
        // An odd cut point, away from TB-launch boundaries, maximizes the
        // chance of non-trivial sb-wait/longlat masks at the snapshot.
        let pause_at = base.cycles / 3 + 1;
        assert!(pause_at > 0 && pause_at < base.cycles);
        let (r, trace, mem) = split_run(sched, pause_at);
        assert_same(&base, &r, &format!("{sched} order-reuse round trip"));
        assert_eq!(base_mem, mem, "{sched}: output memory");
        assert_eq!(base_trace, trace, "{sched}: concatenated trace bytes");
    }
}

#[test]
fn a_periodic_interval_without_a_delta_chain_is_refused() {
    // A periodic checkpoint grows a delta chain and has no other form: an
    // interval, or a path, without `delta` is refused before the launch
    // touches the GPU, which then runs as if it had never been asked.
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let dir = std::env::temp_dir().join(format!("pro_ckpt_{}", std::process::id()));
    let (mut gpu, kernel) = fresh_gpu();
    let refused = [
        CheckpointOptions { every: base.cycles / 8, path: Some(dir.join("cell.ckpt")), ..Default::default() },
        CheckpointOptions { path: Some(dir.clone()), pause_at: base.cycles / 2, ..Default::default() },
    ];
    for ckpt in &refused {
        let err = gpu.launch_checkpointed(&kernel, SchedulerKind::Pro, trace_opts(), ckpt).unwrap_err();
        assert!(matches!(err, SimError::CheckpointIo(_)), "{ckpt:?}: {err}");
    }
    assert!(!dir.exists(), "a refused launch wrote nothing");
    let r = gpu.launch(&kernel, SchedulerKind::Pro, trace_opts()).unwrap();
    assert_same(&base, &r, "a launch after the refusals");
}

#[test]
fn corrupted_snapshot_is_rejected_cleanly() {
    let (base, _, _) = straight_run(SchedulerKind::Lrr);
    let snap = paused(SchedulerKind::Lrr, TraceOptions::default(), base.cycles / 2);
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
    let snap = paused(SchedulerKind::Pro, TraceOptions::default(), base.cycles / 2);
    // Wrong scheduler.
    let err = resume_fresh(&snap, SchedulerKind::Lrr, TraceOptions::default()).unwrap_err();
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
}

#[test]
fn a_timeline_switched_on_at_resume_holds_the_spans_retired_after_the_pause() {
    // A container records no trace option, and a retiring TB's span starts
    // at the launch cycle its SM holds. So a pause taken with the timeline
    // off resumes with it on, and its spans are the straight run's spans of
    // the TBs that retired after the pause.
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let mut ends: Vec<u64> = base.timeline.iter().map(|tb| tb.end).collect();
    ends.sort_unstable();
    let pause_at = ends[ends.len() / 2];
    let snap = paused(SchedulerKind::Pro, TraceOptions::default(), pause_at);
    let timeline = TraceOptions { timeline: true, ..Default::default() };
    let r = resume_fresh(&snap, SchedulerKind::Pro, timeline).unwrap().expect_completed();
    let after: Vec<_> = base.timeline.iter().filter(|tb| tb.end >= pause_at).copied().collect();
    assert!(!after.is_empty() && after.len() < base.timeline.len(), "the pause is not mid-grid");
    assert!(after.iter().any(|tb| tb.start < pause_at), "no TB spans the pause");
    assert_eq!(r.timeline, after);
    assert_eq!(r.cycles, base.cycles);
}

#[test]
fn timeline_and_utilization_are_the_event_streams() {
    // The reference rebuilds both from the bus: spans from `TbLaunch` /
    // `TbComplete`, utilization rows from `WarpIssue`. The run derives them
    // from each retiring TB's launch cycle and each SM's issue counter,
    // straight and across a mid-grid pause, whose two streams concatenate.
    let period = trace_opts().utilization_period;
    for sched in [SchedulerKind::Lrr, SchedulerKind::Gto, SchedulerKind::Tl, SchedulerKind::Pro] {
        let mut ring = RingTracer::with_classes(1 << 16, ClassSet::of(&[EventClass::Tb, EventClass::Issue]));
        let mut run = |ckpt: Option<&CheckpointOptions>, resume: Option<&GpuSnapshot>| {
            let (mut gpu, kernel) = fresh_gpu();
            let resume = resume.map(Into::into);
            let run = Run { trace: trace_opts(), tracer: Some(&mut ring), ckpt, resume, ..Run::new(sched) };
            gpu.run(&kernel, run).unwrap()
        };
        let straight = run(None, None).expect_completed();
        let ckpt = CheckpointOptions { pause_at: straight.cycles / 2, ..Default::default() };
        let snap = pause_of(run(Some(&ckpt), None));
        let resumed = run(None, Some(&snap)).expect_completed();
        assert_eq!(ring.total_emitted(), ring.len() as u64, "{sched}: the ring wrapped");
        // The straight run's events, then the paused run's, then the resumed run's.
        let records: Vec<Record> = ring.records().collect();
        let (first, second) = records.split_at(records.len() / 2);
        for (what, got, events) in [("straight", &straight, first), ("resumed", &resumed, second)] {
            let (timeline, utilization) = rebuild_from_events(events.iter(), cfg().num_sms, period);
            assert_eq!(got.timeline, timeline, "{sched} {what}: timeline");
            assert_eq!(got.utilization, utilization, "{sched} {what}: utilization");
        }
    }
}

#[test]
fn run_result_snapshot_roundtrip() {
    // A serialized RunResult is what a result digest is taken over; the
    // round trip must preserve every field bit for bit.
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let bytes = encode(&base);
    let mut r = Reader::new(&bytes);
    let back = RunResult::load(&mut r).unwrap();
    r.finish().unwrap();
    assert_same(&base, &back, "RunResult codec");
    // The re-interned scheduler name is the canonical &'static str.
    assert_eq!(back.scheduler, SchedulerKind::Pro.name());
}

#[test]
fn container_bytes_are_pinned_for_every_policy() {
    // The wire format as constants: the CRC-32 of a mid-grid pause container
    // (every section populated — timeline spans, utilization rows, MSHRs,
    // outstanding loads, LSU entries, scheduler state) under each of the
    // eight policies, and of one finished `RunResult`'s encoding. A change
    // here is a format change and needs a `FORMAT_VERSION` bump, not a new
    // constant; these were recorded with version 6.
    // In `SchedulerKind::ALL` order.
    const CONTAINER_CRC: [u32; 8] = [
        0x116B_F5D0, // LRR
        0x52D7_0C4C, // GTO
        0x1228_34F0, // TL
        0x339E_02A5, // PRO
        0x8136_F2E8, // PRO-NB
        0x6F93_A7C1, // PRO-NF
        0xD43E_032F, // PRO-NS
        0xBDE0_D147, // PRO-AD
    ];
    const RUN_RESULT_CRC: u32 = 0x6F5A_BC94;
    assert_eq!(pro_core::codec::FORMAT_VERSION, 6);
    for (sched, want) in SchedulerKind::ALL.into_iter().zip(CONTAINER_CRC) {
        let got = pro_core::codec::crc32(paused(sched, trace_opts(), 1500).as_bytes());
        assert_eq!(got, want, "{sched}: pause container bytes moved (got {got:#010X})");
    }
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let got = pro_core::codec::crc32(&encode(&base));
    assert_eq!(got, RUN_RESULT_CRC, "RunResult encoding moved (got {got:#010X})");
}

#[test]
fn a_restore_is_what_the_run_holds_one_cycle_later() {
    // Restore is complete: what it derives instead of reading is what the
    // run itself maintains. Under every policy, a pause at cycle k resumed
    // in a fresh GPU and paused again at k + 1 is, byte for byte, the
    // straight run's pause at k + 1. Three points: the first cycle,
    // mid-grid, and the tail, where a TB slot has fallen free with no block
    // left to fill it.
    let run = |sched, prior: Option<&GpuSnapshot>, pause_at| {
        let (mut gpu, kernel) = fresh_gpu();
        let ckpt = CheckpointOptions { pause_at, ..Default::default() };
        let resume = prior.map(Into::into);
        gpu.run(&kernel, Run { trace: trace_opts(), ckpt: Some(&ckpt), resume, ..Run::new(sched) }).unwrap()
    };
    for sched in SchedulerKind::ALL {
        let base = run(sched, None, 0).expect_completed();
        let last_launch = base.timeline.iter().map(|tb| tb.start).max().unwrap();
        let retired = base.timeline.iter().map(|tb| tb.end).filter(|&end| end > last_launch);
        let tail = retired.min().expect("no TB retires after the last launch") + 1;
        assert!(tail + 1 < base.cycles, "{sched}: the run ends in its first free slot");
        for k in [1, base.cycles / 2, tail] {
            let resumed = pause_of(run(sched, Some(&pause_of(run(sched, None, k))), k + 1));
            let straight = pause_of(run(sched, None, k + 1));
            let (a, b) = (resumed.as_bytes(), straight.as_bytes());
            let first = a.iter().zip(b).position(|(x, y)| x != y);
            assert!(a == b, "{sched}: cycle {k} + 1 differs from byte {first:?} of {}", b.len());
        }
    }
}

#[test]
fn a_version_2_container_is_refused() {
    // No container of an earlier format is read — the first one with chain
    // headers, nor the last one, whose policy sections still carried order
    // reuse masks — and refusing one leaves the GPU launchable.
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Pro, None);
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    for version in [2u32, 5] {
        let what = format!("a version {version} container");
        let mut bytes = with_section(&snap, SEC_META, snap.section_bytes(SEC_META).unwrap()).into_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let err = victim.refuses(&GpuSnapshot::from_bytes(bytes), &what);
        assert_eq!(err, CodecError::BadVersion(version));
        victim.still_launches(&what);
    }
}

/// Container section ids (DESIGN.md §12).
const SEC_META: u32 = 1;
const SEC_LOOP: u32 = 2;
const SEC_GMEM: u32 = 3;
const SEC_MEM: u32 = 4;
const SEC_SM0: u32 = 10;

/// The parsed container with section `id`'s payload replaced, rebuilt
/// through `write_container` so every CRC in the result is valid.
fn with_section(parsed: &FileReader<'_>, id: u32, payload: &[u8]) -> GpuSnapshot {
    let sections: Vec<(u32, &[u8])> =
        parsed.sections().iter().map(|&(sec, bytes)| (sec, if sec == id { payload } else { bytes })).collect();
    GpuSnapshot::from_bytes(write_container(None, &sections))
}

fn encode(value: &impl Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    value.save(&mut w);
    w.into_bytes()
}

/// A GPU that must refuse hostile prior state with a typed error and stay
/// launchable afterwards.
struct Victim {
    gpu: Gpu,
    kernel: pro_sim::isa::Kernel,
    sched: SchedulerKind,
    /// What the pause was taken with, and the resume asks for.
    trace: TraceOptions,
    base_cycles: u64,
}

impl Victim {
    fn refuses(&mut self, bad: &GpuSnapshot, what: &str) -> CodecError {
        let no_ckpt = CheckpointOptions::default();
        match self.gpu.resume(bad, &self.kernel, self.sched, self.trace, &no_ckpt) {
            Err(SimError::Snapshot(e)) => e,
            other => panic!("{what}: wanted a snapshot error, got {other:?}"),
        }
    }

    fn still_launches(&mut self, what: &str) {
        let r = self.gpu.launch(&self.kernel, self.sched, TraceOptions::default()).unwrap();
        assert_eq!(r.cycles, self.base_cycles, "{what}: GPU did not survive the rejected resume");
    }
}

/// The victim, and a pause container under `sched` to corrupt: mid-grid,
/// or at the cycle `pause_at` names. Every trace accumulator is on, in the
/// pause and in the resumes.
fn victim_and_pause(sched: SchedulerKind, pause_at: Option<u64>) -> (Victim, GpuSnapshot) {
    let trace = trace_opts();
    let (mut gpu, kernel) = fresh_gpu();
    let base_cycles = gpu.launch(&kernel, sched, TraceOptions::default()).unwrap().cycles;
    let snap = paused(sched, trace, pause_at.unwrap_or(base_cycles / 2));
    (Victim { gpu, kernel, sched, trace, base_cycles }, snap)
}

#[test]
fn truncated_sections_with_valid_crcs_are_refused() {
    // `corrupted_snapshot_is_rejected_cleanly` flips a byte and so only ever
    // meets the CRC check. Here every CRC is right and a section simply
    // stops early, at 64 evenly spaced lengths: the decoders run out of
    // bytes part-way through restoring in place, which must be a typed
    // error that leaves the same GPU able to run the kernel.
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Pro, None);
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
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
fn a_gmem_section_that_decodes_badly_leaves_memory_as_it_was() {
    // Device memory is restored into the GPU's own store, last: every cut
    // and every bad header below passes its CRC, reaches that step after
    // the other sections restored, and must be refused before a word of
    // the store moves.
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Pro, None);
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    let full = snap.section_bytes(SEC_GMEM).unwrap();
    let words = (victim.gpu.gmem.capacity() / 4) as usize;
    let before = victim.gpu.gmem.read_slice(0, words);
    let mut bad: Vec<(String, Vec<u8>)> = (0..16)
        .map(|i| full.len() * i / 16)
        .map(|cut| (format!("GMEM cut to {cut} of {} bytes", full.len()), full[..cut].to_vec()))
        .collect();
    bad.push(("GMEM without its allocator cursor".into(), full[..full.len() - 8].to_vec()));
    bad.push(("GMEM one byte long".into(), [full, &[0]].concat()));
    bad.push(("GMEM of another store".into(), patched(full, 0, (words as u64 / 2).to_le_bytes())));
    bad.push(("GMEM used > total".into(), patched(full, 8, (words as u64 + 1).to_le_bytes())));
    for (what, payload) in bad {
        victim.refuses(&with_section(&snap, SEC_GMEM, &payload), &what);
        assert!(victim.gpu.gmem.words(0, words) == before, "{what}: device memory moved");
        victim.still_launches(&what);
    }
}

#[test]
fn a_container_from_another_machine_is_refused() {
    // A container holds no geometry: every cache, channel and queue is read
    // into the one the resuming GPU built. So META's fingerprint of the
    // machine is what keeps a pause from resuming on another, where one more
    // SM, one MSHR entry fewer or a slower row switch would read the same
    // bytes into a different machine.
    let (base, _, _) = straight_run(SchedulerKind::Pro);
    let snap = paused(SchedulerKind::Pro, TraceOptions::default(), base.cycles / 2);
    let (mut fewer_mshrs, mut slower_rows) = (cfg(), cfg());
    fewer_mshrs.mem.l1.mshr_entries -= 1;
    slower_rows.mem.dram.t_rp_rcd += 1;
    for machine in [GpuConfig::small(cfg().num_sms + 1), fewer_mshrs, slower_rows] {
        let mut gpu = Gpu::new(machine, 64 << 20);
        let kernel = (find(KERNEL).unwrap().build)(&mut gpu.gmem, SCALE).kernel;
        let no_ckpt = CheckpointOptions::default();
        let err = gpu.resume(&snap, &kernel, SchedulerKind::Pro, TraceOptions::default(), &no_ckpt).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(CodecError::Mismatch(_))), "{machine:?}: {err:?}");
        gpu.launch(&kernel, SchedulerKind::Pro, TraceOptions::default()).expect("the GPU still launches");
    }
}

#[test]
fn events_outside_their_queues_horizon_are_refused() {
    // An event queue's wheel spans the longest latency its owner schedules
    // at, which the machine fixes, from the cycle the run resumes at; every
    // event a run holds at a boundary lies within it. Restored outside it,
    // an event would sit in the bucket of another cycle and be delivered
    // then (a debug build panics on the foreign timestamp). The first
    // pending event of the memory system and of SM 0's writebacks, moved a
    // million cycles out and back to cycle 0.
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Pro, None);
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    let horizon = "event outside the queue's horizon";
    let moved = |sec: &[u8], at: usize| {
        let time = u64::from_le_bytes(sec[at..at + 8].try_into().unwrap());
        [patched(sec, at, (time + 1_000_000).to_le_bytes()), patched(sec, at, 0u64.to_le_bytes())]
    };
    let mem = snap.section_bytes(SEC_MEM).unwrap();
    let [late, early] = moved(mem, mem_layout(mem).events_at + 8);
    {
        let mut check = hostile_rows(&mut victim, &snap, SEC_MEM);
        check("a memory event a million cycles out", late, horizon);
        check("a memory event at cycle 0", early, horizon);
    }
    let sec = snap.section_bytes(SEC_SM0).unwrap();
    let SmLayout { wb_at, in_flight, .. } = sm_layout(sec, &victim.kernel);
    assert!(in_flight > 0, "no writeback in flight on SM 0");
    let [late, early] = moved(sec, wb_at + 8);
    let mut check = hostile_rows(&mut victim, &snap, SEC_SM0);
    check("a writeback a million cycles out", late, horizon);
    check("a writeback at cycle 0", early, horizon);
}

#[test]
fn out_of_range_pro_slots_are_refused() {
    // PRO's state closes each SM section: the TB classes, the three
    // priority lists, each TB's warp order, then the sort clock and the
    // phase latch. The lists index the class table and the warp orders
    // index the SM's warp slots on the first cycle after a restore.
    type ProState = (Vec<u8>, [Vec<u64>; 3], Vec<Vec<u64>>, (u64, bool));
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Pro, None);
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
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
/// the bytes given must be refused by the named check — an invariant of
/// the decoded machine (`Gpu::check`), or a bound a decoder or the restore's
/// run-loop check holds (`ensure`) — and the victim must launch afterwards.
fn hostile_rows<'a>(
    victim: &'a mut Victim,
    snap: &'a FileReader<'_>,
    id: u32,
) -> impl FnMut(&str, Vec<u8>, &'static str) + 'a {
    move |what, bad, name| {
        let err = victim.refuses(&with_section(snap, id, &bad), what);
        let refused_by = match &err {
            CodecError::Violation(v) => v.invariant,
            CodecError::BadValue(clause) => clause,
            _ => panic!("{what}: refused by no named check: {err:?}"),
        };
        assert_eq!(refused_by, name, "{what}: {err}");
        victim.still_launches(what);
    }
}

/// Overwrite the little-endian integer at `at`.
fn patched<const N: usize>(section: &[u8], at: usize, value: [u8; N]) -> Vec<u8> {
    let mut out = section.to_vec();
    out[at..at + N].copy_from_slice(&value);
    out
}

type Txn = (u32, u64, bool);
type Slice = (Cache<Txn>, VecDeque<Txn>);

/// The L1s a memory section opens with, read into caches of the test
/// machine's geometry (the section holds none of its own).
fn decode_l1s(r: &mut Reader<'_>) -> Vec<Cache<u64>> {
    let read = |_| {
        let mut l1 = Cache::new(cfg().mem.l1);
        l1.load_state(r).unwrap();
        l1
    };
    (0..cfg().num_sms).map(read).collect()
}

fn encode_l1s(l1s: &[Cache<u64>]) -> Vec<u8> {
    let mut w = Writer::new();
    l1s.iter().for_each(|l1| l1.save_state(&mut w));
    w.into_bytes()
}

/// Where things are in a memory section: it opens with the L1s, then the
/// L2 slices and the DRAM channels (the machine's caches and channels, or
/// tuples with a private struct's layout); the event queue follows, then
/// the loads in flight.
struct MemLayout {
    slices_at: usize,
    events_at: usize,
    /// The tag byte of the first read on its way to the L2.
    read: usize,
    /// The tag byte of the first DRAM completion, its partition and line.
    dram_done: (usize, u32, u64),
    /// Every line on its way to the L2, back from DRAM or to an SM.
    moving: Vec<u64>,
    /// The tag byte, SM and line of every read on its way to the L2 and
    /// every line on its way back to an SM.
    fetches: Vec<(usize, u32, u64)>,
    /// `outstanding`, then `completions`.
    loads_at: usize,
}

fn decode_l2(r: &mut Reader<'_>) -> (Vec<Slice>, Vec<DramChannel<u32>>) {
    let MemConfig { partitions, l2, dram, .. } = cfg().mem;
    let mut slices = Vec::new();
    for _ in 0..partitions {
        let mut cache = Cache::new(l2);
        cache.load_state(r).unwrap();
        slices.push((cache, Snapshot::load(r).unwrap()));
    }
    let read = |_| {
        let mut channel = DramChannel::new(dram);
        channel.load_state(r).unwrap();
        channel
    };
    (slices, (0..partitions).map(read).collect())
}

fn encode_l2(slices: &[Slice], drams: &[DramChannel<u32>]) -> Vec<u8> {
    let mut w = Writer::new();
    for (cache, in_q) in slices {
        cache.save_state(&mut w);
        in_q.save(&mut w);
    }
    drams.iter().for_each(|channel| channel.save_state(&mut w));
    w.into_bytes()
}

fn mem_layout(mem: &[u8]) -> MemLayout {
    let mut r = Reader::new(mem);
    decode_l1s(&mut r);
    let slices_at = mem.len() - r.remaining();
    decode_l2(&mut r);
    let events_at = mem.len() - r.remaining();
    // Events are `(time, seq, tag, index, ..)`: tag 0 (an L2 arrival)
    // carries a transaction, tags 1 to 3 (DRAM done, line returning, L1 hit)
    // an index and a `u64` each — so a DRAM completion stands in for the
    // other two.
    let (mut read, mut dram_done, mut moving, mut fetches) = (None, None, Vec::new(), Vec::new());
    for _ in 0..r.get_u64().unwrap() {
        let tag_at = mem.len() - r.remaining() + 16;
        let (_, _, tag, (index, line)): (u64, u64, u8, (u32, u64)) = Snapshot::load(&mut r).unwrap();
        if tag == 0 && !r.get_bool().unwrap() {
            read.get_or_insert(tag_at);
            fetches.push((tag_at, index, line));
        } else if tag == 1 {
            dram_done.get_or_insert((tag_at, index, line));
        } else if tag == 2 {
            fetches.push((tag_at, index, line));
        }
        if tag < 3 {
            moving.push(line);
        }
    }
    r.get_u64().unwrap(); // the queue's sequence counter
    MemLayout {
        slices_at,
        events_at,
        read: read.expect("no read on its way to the L2"),
        dram_done: dram_done.expect("no line on its way back from DRAM"),
        moving,
        fetches,
        loads_at: mem.len() - r.remaining(),
    }
}

#[test]
fn out_of_range_indices_in_the_memory_section_are_refused() {
    // What the memory system holds in flight names an SM or a partition —
    // L2 input queues and MSHR waiters, DRAM requests, timing events — and
    // each name is an array index when its turn comes.
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Pro, None);
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    let mem = snap.section_bytes(SEC_MEM).unwrap();
    let (no_sm, no_part) = (cfg().num_sms, cfg().mem.partitions);
    let mut check = hostile_rows(&mut victim, &snap, SEC_MEM);
    let MemLayout { slices_at, events_at, read, dram_done: (dram_done, part, line), .. } = mem_layout(mem);

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
        let (mut slices, mut drams) = decode_l2(&mut Reader::new(&mem[slices_at..]));
        edit(&mut slices[part as usize], &mut drams[part as usize]);
        [&mem[..slices_at], &encode_l2(&slices, &drams), &mem[events_at..]].concat()
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

type Release = (u64, (u128, u32));

/// Where things are in an SM section: for each TB slot the kernel can use,
/// its occupancy and, if occupied, its block (`u32`), launch cycle, shared
/// memory words, first-finish cycle and its warps; then the writeback
/// events (count, `(time, seq, release)` each, the sequence counter), the
/// LSU queue, a `u64`, the loads in flight (count, then `(id, release)`),
/// the next access id and the SM's statistics.
struct SmLayout {
    /// The block of each occupied TB slot, then its launch cycle.
    blocks_at: Vec<usize>,
    /// The first occupied slot's first warp: its SIMT stack's depth, then
    /// its entries.
    warp0_at: usize,
    /// Each warp of that TB: its progress (`u64`), then its barrier, exited
    /// and long-latency flags.
    flags_at: Vec<usize>,
    wb_at: usize,
    lsu_at: usize,
    loads_at: usize,
    next_access_at: usize,
    /// Writebacks or loads in flight, whichever are fewer.
    in_flight: usize,
}

fn sm_layout(sec: &[u8], kernel: &Kernel) -> SmLayout {
    let (sm, program) = (cfg().sm, &kernel.program);
    let warps = kernel.launch.warps_per_block() as usize;
    // A warp's SIMT stack, scoreboard and fetch cycle; its register and
    // predicate words; its progress and three flags.
    type WarpHead = (Vec<(u32, u32, u32)>, (u128, u32, u128), u64);
    let files = 32 * program.regs as usize + program.preds as usize;
    let mut r = Reader::new(sec);
    let at = |r: &Reader<'_>| sec.len() - r.remaining();
    let (mut blocks_at, mut warp0_at, mut flags_at) = (Vec::new(), None, Vec::new());
    for _ in 0..sm.max_tbs.min(sm.max_warps / warps) {
        if !r.get_bool().unwrap() {
            continue;
        }
        blocks_at.push(at(&r));
        let _: (u32, u64) = Snapshot::load(&mut r).unwrap();
        for _ in 0..program.shared_bytes.div_ceil(4) {
            r.get_u32().unwrap();
        }
        let _: Option<u64> = Snapshot::load(&mut r).unwrap();
        for _ in 0..warps {
            warp0_at.get_or_insert(at(&r));
            let _: WarpHead = Snapshot::load(&mut r).unwrap();
            for _ in 0..files {
                r.get_u32().unwrap();
            }
            if blocks_at.len() == 1 {
                flags_at.push(at(&r));
            }
            let _: (u64, bool, bool, bool) = Snapshot::load(&mut r).unwrap();
        }
    }
    let wb_at = at(&r);
    let (writebacks, _): (Vec<(u64, u64, Release)>, u64) = Snapshot::load(&mut r).unwrap();
    let lsu_at = at(&r);
    for _ in 0..r.get_u64().unwrap() {
        if r.get_u8().unwrap() == 0 {
            let _: (u64, Vec<u64>, u64, bool) = Snapshot::load(&mut r).unwrap();
        } else {
            let _: (u64, u32, (u128, u32)) = Snapshot::load(&mut r).unwrap();
        }
    }
    r.get_u64().unwrap();
    let loads_at = at(&r);
    let loads: Vec<(u64, Release)> = Snapshot::load(&mut r).unwrap();
    SmLayout {
        blocks_at,
        warp0_at: warp0_at.expect("no TB resident on the SM"),
        flags_at,
        wb_at,
        lsu_at,
        loads_at,
        next_access_at: at(&r),
        in_flight: writebacks.len().min(loads.len()),
    }
}

/// `sec` with one more entry (its bytes after the tag) at the head of the
/// LSU queue.
fn with_lsu_head(sec: &[u8], lsu_at: usize, tag: u8, entry: &[u8]) -> Vec<u8> {
    let queued = u64::from_le_bytes(sec[lsu_at..lsu_at + 8].try_into().unwrap());
    [&sec[..lsu_at], &(queued + 1).to_le_bytes(), &[tag], entry, &sec[lsu_at + 8..]].concat()
}

#[test]
fn out_of_range_slots_and_pcs_in_an_sm_section_are_refused() {
    // An SM section names warp slots (whose registers a writeback, a load in
    // flight or a shared-memory access will release) and PCs (the SIMT
    // stack's entries): array indices all, the cycle after a restore. (The
    // TB slot of a warp is where the section has it, not a value in it.)
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Gto, None);
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    let sm = cfg().sm;
    let no_warp = (sm.max_warps as u64).to_le_bytes();
    let sec = snap.section_bytes(SEC_SM0).unwrap();
    let SmLayout { warp0_at, wb_at, lsu_at, loads_at, in_flight, .. } = sm_layout(sec, &victim.kernel);
    let mut check = hostile_rows(&mut victim, &snap, SEC_SM0);
    assert!(in_flight > 0, "nothing in flight on SM 0");

    let past_the_end = patched(sec, warp0_at + 8, u32::MAX.to_le_bytes());
    check("a SIMT entry past the program's end", past_the_end, "snapshot SIMT entry PC");

    let release = "snapshot release warp slot";
    check("a writeback to a warp slot past the last", patched(sec, wb_at + 8 + 16, no_warp), release);
    check("a load in flight for a warp slot past the last", patched(sec, loads_at + 8 + 8, no_warp), release);
    // A shared-memory access, one cycle from done, at the head of the LSU
    // queue: warp slot, cycles left, the registers it will write.
    let shared_op = with_lsu_head(sec, lsu_at, 1, &encode(&(sm.max_warps as u64, 1u32, (1u128, 0u32))));
    check("a shared-memory access by a warp slot past the last", shared_op, release);
}

/// An access id no SM of the test run has issued.
const STRAY: u64 = 0xBAD_BAD;

#[test]
fn loads_the_two_sides_pair_wrongly_are_refused() {
    // A load in flight is held twice: by the memory section (`outstanding`
    // with its lines still due, then `completions`; its lines on their way
    // back as L1-hit events and L1 miss waiters) and by its SM's (the
    // registers to release, the lines the LSU has yet to send). Each side
    // looks the other's up by access id when a line or the load completes.
    // `outstanding`, then each SM's completions (one queue per SM, no count).
    type Loads = (HashMap<u64, (u32, u64)>, Vec<VecDeque<u64>>);
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Pro, None);
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    let mem = snap.section_bytes(SEC_MEM).unwrap();
    let MemLayout { slices_at, dram_done: (dram_done, _, line), moving, fetches, loads_at, .. } = mem_layout(mem);
    let mut r = Reader::new(&mem[loads_at..]);
    let outstanding = Snapshot::load(&mut r).unwrap();
    let loads: Loads = (outstanding, (0..cfg().num_sms).map(|_| Snapshot::load(&mut r).unwrap()).collect());
    let stats_at = mem.len() - r.remaining();
    let (&oldest, _) = loads.0.iter().min_by_key(|(_, &(_, begun))| begun).expect("no load in flight");
    {
        let mut check = hostile_rows(&mut victim, &snap, SEC_MEM);
        // The first DRAM completion rewritten as an L1 hit for `access` of `sm`.
        let l1_hit = |mem: &[u8], sm: u32, access: u64| {
            let hit = patched(&patched(mem, dram_done, [3]), dram_done + 1, sm.to_le_bytes());
            patched(&hit, dram_done + 5, access.to_le_bytes())
        };
        let with_loads = |edit: &dyn Fn(&mut Loads)| {
            let mut loads = loads.clone();
            edit(&mut loads);
            let completions: Vec<u8> = loads.1.iter().flat_map(encode).collect();
            [&mem[..loads_at], &encode(&loads.0), &completions, &mem[stats_at..]].concat()
        };
        assert_eq!(with_loads(&|_| ()), mem, "the mirror types do not match the section");

        let unexpected = "mem line completion without an outstanding load";
        check("an L1 hit for a load that is not outstanding", l1_hit(mem, 0, STRAY), unexpected);
        let mut l1s = decode_l1s(&mut Reader::new(mem));
        let (waiting, missed) = moving
            .iter()
            .find_map(|&line| Some((l1s.iter().position(|l1| l1.has_pending(line))?, line)))
            .expect("no L1 waits for a line");
        assert_eq!(l1s[waiting].access(missed, STRAY), Lookup::MissMerged);
        let stray_waiter = [&encode_l1s(&l1s), &mem[slices_at..]].concat();
        check("an L1 miss waiter that is not outstanding", stray_waiter, unexpected);
        let one_too_many = l1_hit(mem, (oldest >> 40) as u32, oldest & ((1 << 40) - 1));
        check("one more L1 hit than the load has lines left", one_too_many, unexpected);
        // The read an L1 miss sent towards the L2, or the line on its way
        // back, redirected to another line. Parent: the load waiting on the
        // miss never completed, and the run went on to `max_cycles`: a
        // `Timeout` after 200 M cycles (53 s in a release build; the run
        // takes 2 446 cycles).
        let l1s = decode_l1s(&mut Reader::new(mem));
        let awaited = fetches.iter().find(|&&(_, sm, line)| l1s[sm as usize].has_pending(line));
        let &(fetch_at, ..) = awaited.expect("no fetch an L1 waits for");
        let no_fetch = patched(mem, fetch_at + 5, STRAY.to_le_bytes());
        check("an L1 miss with no fetch on its way", no_fetch, "mem L1 miss with no fetch on its way");

        let unclaimed = "mem load no SM waits for";
        let stray_done = with_loads(&|l| l.1[0].push_back(STRAY));
        check("a completion no SM waits for", stray_done, unclaimed);
        let stray_load = with_loads(&|l| assert!(l.0.insert(STRAY, (1, 0)).is_none()));
        check("a load about to complete that no SM waits for", l1_hit(&stray_load, 0, STRAY), unclaimed);
        let unpaired = "mem load not paired with its SM's";
        check("a load with a line nobody will send", with_loads(&|l| l.0.get_mut(&oldest).unwrap().0 += 1), unpaired);
        let from_the_future = with_loads(&|l| l.0.get_mut(&oldest).unwrap().1 = u64::MAX);
        check("a load begun after the pause", from_the_future, "mem load begun after the snapshot");
    }

    let sec = snap.section_bytes(SEC_SM0).unwrap();
    let SmLayout { lsu_at, loads_at, next_access_at, in_flight, .. } = sm_layout(sec, &victim.kernel);
    let mut check = hostile_rows(&mut victim, &snap, SEC_SM0);
    assert!(in_flight > 0, "nothing in flight on SM 0");
    // A one-line load at the head of the LSU queue: id, lines, lines sent,
    // not a store.
    let sending = with_lsu_head(sec, lsu_at, 0, &encode(&(STRAY, vec![line], 0u64, false)));
    check("an LSU load whose registers nobody holds", sending, "snapshot LSU load without a release");
    // The oldest load's 36 bytes (id, warp slot, write set): its id handed
    // out again, and the load cut out.
    let oldest: [u8; 8] = sec[loads_at + 8..loads_at + 16].try_into().unwrap();
    let reused = patched(sec, next_access_at, oldest);
    check("a next access id that a load in flight carries", reused, "snapshot next access id");
    let held = u64::from_le_bytes(sec[loads_at..loads_at + 8].try_into().unwrap());
    // Its warp still has the registers pending, which the SM holds to its
    // releases before it pairs its loads with the memory side's.
    let forgotten = [&sec[..loads_at], &(held - 1).to_le_bytes(), &sec[loads_at + 8 + 36..]].concat();
    check("a load in flight whose registers the SM forgot", forgotten, "scoreboard bits not the writes in flight");
}

#[test]
fn sm_state_off_the_kernels_geometry_is_refused() {
    // Of what a TB launch takes from the kernel, a TB slot records only its
    // block: each warp's index in its TB and its block, its register file,
    // the TB's warp count and its shared memory are laid out from the
    // kernel again on restore. The block must be one of the grid's, whose
    // ids its threads compute with. Paused before any warp has issued.
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Gto, Some(1));
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    let sec = snap.section_bytes(SEC_SM0).unwrap();
    let SmLayout { blocks_at, .. } = sm_layout(sec, &victim.kernel);
    let mut check = hostile_rows(&mut victim, &snap, SEC_SM0);
    let past_the_grid = patched(sec, blocks_at[0], u32::MAX.to_le_bytes());
    check("a TB past the grid's last block", past_the_grid, "snapshot TB block index");
}

#[test]
fn a_resident_tb_that_can_never_progress_is_refused() {
    // A TB retires in the cycle its last warp exits, and its barrier opens
    // in the cycle its last live warp arrives: between two cycles some warp
    // of every resident TB can still issue. Restored otherwise, nothing
    // wakes the TB, and the grid never drains. Paused before any warp has
    // issued. Parent (each row): the TB stayed resident, and the resumed
    // run went on to `max_cycles`: a `Timeout` after 200 M cycles (then a
    // panic on the GPU's next launch).
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Gto, Some(1));
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    let sec = snap.section_bytes(SEC_SM0).unwrap();
    let SmLayout { flags_at, .. } = sm_layout(sec, &victim.kernel);
    assert!(flags_at.len() > 1, "one warp per TB");
    let mut check = hostile_rows(&mut victim, &snap, SEC_SM0);
    // Sets flag 0 (at the barrier) or 1 (exited) of each warp at `warps`.
    let flagged = |sec: &[u8], warps: &[usize], flag: usize| {
        warps.iter().fold(sec.to_vec(), |sec, &at| patched(&sec, at + 8 + flag, [1]))
    };
    let stuck = "snapshot TB that can never progress";
    check("a resident TB whose warps have all exited", flagged(sec, &flags_at, 1), stuck);
    check("a resident TB whose warps all wait at its barrier", flagged(sec, &flags_at, 0), stuck);
    let one_exited = flagged(sec, &flags_at[..1], 1);
    check("a resident TB with one warp exited, the rest at its barrier", flagged(&one_exited, &flags_at[1..], 0), stuck);
}

#[test]
fn a_scoreboard_bit_nothing_will_release_is_refused() {
    // A warp's scoreboard holds exactly the registers its writes in flight
    // will release: writebacks, shared-memory accesses, loads. A bit no
    // release will clear stalls every instruction that reads it for good.
    // A hundred cycles in, the first warp on SM 0 waits on a load for one
    // operand of its next instruction; its other operand is pending too
    // here, with nothing in flight to write it. Parent: accepted; the warp
    // never issued again, and the resumed run went on to `max_cycles`: a
    // `Timeout` after 200 M cycles with its TB pending (67 s in a release
    // build).
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Gto, Some(100));
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    let sec = snap.section_bytes(SEC_SM0).unwrap();
    let SmLayout { warp0_at, .. } = sm_layout(sec, &victim.kernel);
    // The warp's SIMT stack (its top the next PC), then its scoreboard's
    // pending registers.
    let mut r = Reader::new(&sec[warp0_at..]);
    let stack: Vec<(u32, u32, u32)> = Snapshot::load(&mut r).unwrap();
    let pending_at = sec.len() - r.remaining();
    let pending = u128::from_le_bytes(sec[pending_at..pending_at + 16].try_into().unwrap());
    let next = &victim.kernel.program.instrs[stack.last().unwrap().0 as usize];
    let free = next.src_regs().find(|reg| pending >> reg.0 & 1 == 0);
    let read = free.expect("the next instruction reads no register that is free");
    let stuck = patched(sec, pending_at, (pending | 1 << read.0).to_le_bytes());
    let mut check = hostile_rows(&mut victim, &snap, SEC_SM0);
    check("a scoreboard bit that nothing will release", stuck, "scoreboard bits not the writes in flight");
}

/// The run loop's section: the Table IV samples, the spans of the TBs
/// retired while the timeline was on, and a utilization row per SM.
type Loop = (Vec<(u64, Vec<u32>)>, Vec<(u32, u32, u64, u64)>, Vec<Vec<u64>>);

/// `edit` applied to the decoded run-loop section of `snap`.
fn with_loop(snap: &FileReader<'_>, edit: &dyn Fn(&mut Loop)) -> Vec<u8> {
    let sec = snap.section_bytes(SEC_LOOP).unwrap();
    let mut lp: Loop = Snapshot::load(&mut Reader::new(sec)).unwrap();
    assert_eq!(encode(&lp), sec, "the mirror type does not match the section");
    edit(&mut lp);
    encode(&lp)
}

#[test]
fn run_loop_state_off_the_grid_or_the_sms_is_refused() {
    // The run loop derives what it does not accumulate from the SMs and the
    // clock: blocks go out in index order, so those dispatched are those
    // retired plus those resident, and a retiring TB's span starts at its
    // launch cycle. It launches blocks from that count, indexes its
    // utilization rows by SM and subtracts the start cycle from the clock
    // and from each launch cycle. Each is held to the grid, the SMs and the
    // clock. What the parent commit did with each row is in the row's
    // comment.
    let blocks = SCALE;
    // Two cycles in: 4 SMs have taken a TB each cycle, half the grid waits,
    // and no warp has issued: a copy computes with its block id.
    let (mut victim, pause) = victim_and_pause(SchedulerKind::Pro, Some(2));
    let snap = FileReader::parse(pause.as_bytes()).unwrap();
    {
        let mut check = hostile_rows(&mut victim, &snap, SEC_LOOP);
        // Parent: refused by the same clause, then the recorder's.
        let extra_row = with_loop(&snap, &|lp| lp.2.push(Vec::new()));
        check("a utilization row for an SM past the last", extra_row, "snapshot utilization row count");
    }
    {
        // The cycle coordinates close the META section: cycle, start cycle.
        let meta = snap.section_bytes(SEC_META).unwrap();
        let mut check = hostile_rows(&mut victim, &snap, SEC_META);
        // Parent: `now - start_cycle` underflowed on the first cycle (panic).
        let begun_later = patched(meta, meta.len() - 8, 3u64.to_le_bytes());
        check("a launch that began after its snapshot", begun_later, "snapshot taken before its launch began");
    }
    let (sm0, sm1) = (snap.section_bytes(SEC_SM0).unwrap(), snap.section_bytes(SEC_SM0 + 1).unwrap());
    let SmLayout { blocks_at: on0, next_access_at, .. } = sm_layout(sm0, &victim.kernel);
    let on1 = sm_layout(sm1, &victim.kernel).blocks_at;
    assert!(on0.len() > 1, "one TB resident on SM 0");
    let block = |sec: &[u8], at: usize| -> [u8; 4] { sec[at..at + 4].try_into().unwrap() };
    let mut check = hostile_rows(&mut victim, &snap, SEC_SM0);
    // `tbs_completed`, the ninth of the statistics after the next access id.
    let retired_at = next_access_at + 8 + 8 * 8;
    // Parent: the queue held the count; the run completed with SM 0's TB
    // count 16 too high (mis-run).
    let retired = patched(sm0, retired_at, u64::from(blocks).to_le_bytes());
    check("more TBs retired than the grid has", retired, "snapshot TBs dispatched past the grid");
    let resident = "snapshot resident blocks not distinct dispatched ones";
    // Parent: refused, as a block the queue still held.
    check("a resident block not yet dispatched", patched(sm0, on0[0], (blocks - 1).to_le_bytes()), resident);
    // Parent: the replaced block never ran; completed in 2 472 cycles, not
    // 2 446, with 1 024 output words wrong (mis-run).
    check("a block resident on two SMs", patched(sm0, on0[0], block(sm1, on1[0])), resident);
    // Parent: likewise, in 2 428 cycles, 1 024 output words wrong (mis-run).
    check("a block resident in two slots of one SM", patched(sm0, on0[1], block(sm0, on0[0])), resident);
    // Parent: accepted. PRO does not read the launch cycle and the span took
    // its start from the recorder's copy, so the run completed as the
    // straight run (a debug build overflowed `launched_at + fetch_lat`
    // laying the TB out). Without the check the span starts after it ends.
    let from_the_future = patched(sm0, on0[0] + 4, u64::MAX.to_le_bytes());
    check("a TB launched after the pause", from_the_future, "snapshot TB launched outside its run");
}

#[test]
fn a_pause_after_another_kernel_resumes() {
    // A free warp slot keeps what its last warp left — after a longer
    // kernel, a SIMT stack with PCs this program does not have. Free slots
    // are not written, and only live warps are held to the program.
    let build = |gpu: &mut Gpu, name: &str| (find(name).unwrap().build)(&mut gpu.gmem, SCALE).kernel;
    let no_trace = TraceOptions::default;
    let mut gpu = Gpu::new(cfg(), 64 << 20);
    let kernel = build(&mut gpu, "inverseCNDKernel");
    let base = gpu.launch(&kernel, SchedulerKind::Pro, no_trace()).unwrap();
    let longer = build(&mut gpu, "scalarProdGPU");
    assert!(longer.program.instrs.len() > kernel.program.instrs.len());
    gpu.launch(&longer, SchedulerKind::Pro, no_trace()).unwrap();
    let ckpt = CheckpointOptions { pause_at: base.cycles / 2, ..Default::default() };
    let snap = pause_of(gpu.launch_checkpointed(&kernel, SchedulerKind::Pro, no_trace(), &ckpt).unwrap());
    let mut fresh = Gpu::new(cfg(), 64 << 20);
    let kernel = build(&mut fresh, "inverseCNDKernel");
    let resumed = fresh.resume(&snap, &kernel, SchedulerKind::Pro, no_trace(), &CheckpointOptions::default());
    assert_eq!(resumed.expect("a valid snapshot resumes").expect_completed().cycles, base.cycles);
}

