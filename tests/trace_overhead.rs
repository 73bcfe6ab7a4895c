//! Proof that tracing is pay-for-what-you-use:
//!
//! * with the bus disabled ([`NoopTracer`] — the plain [`Gpu::launch`]
//!   path), no event is constructed and no extra heap allocation happens;
//! * a [`PanicTracer`] (wants no class but panics on any `emit`)
//!   survives a full launch, proving every emission site is gated;
//! * a preallocated [`RingTracer`] captures every class without a single
//!   additional allocation over the untraced run;
//! * traced and untraced runs produce bit-identical statistics — the
//!   observer does not perturb the simulation.
//!
//! The same counting allocator also pins the calendar event queue's
//! steady-state contract: once the slab and wheel are warm, push/pop
//! never touches the heap (resize and slab growth are amortized outside
//! the per-cycle loop).
//!
//! The allocation counter is a `#[global_allocator]` wrapper with a
//! per-thread count; this file is its own test binary and each test
//! measures only its own thread, so neither sibling tests nor the
//! parallel libtest harness can pollute a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pro_sim::isa::{Kernel, LaunchConfig, ProgramBuilder, Src};
use pro_sim::trace::{PanicTracer, RingTracer, Tracer};
use pro_sim::{Gpu, GpuConfig, RunResult, SchedulerKind, TraceOptions};

struct CountingAlloc;

thread_local! {
    /// Per-thread allocation count. Everything a test measures runs
    /// serially on its own thread, while the libtest harness (and any
    /// sibling test) allocates concurrently on others — a process-global
    /// counter would pick that noise up into measured windows. The cell
    /// is const-initialized and `Drop`-free, so bumping it from inside
    /// the allocator can never recurse or touch TLS destructors.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed on *this thread* while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let r = f();
    (ALLOCS.with(|c| c.get()) - before, r)
}

fn kernel(gpu: &mut Gpu, tbs: u32) -> Kernel {
    kernel_reps(gpu, tbs, 1)
}

/// One fixed load/barrier/store frame around `reps` ALU instructions:
/// memory traffic, barrier count, and resident-warp shape are identical
/// across rep counts — only the number of issue cycles grows. Any
/// per-cycle allocation then shows up as a count difference.
fn kernel_reps(gpu: &mut Gpu, tbs: u32, reps: usize) -> Kernel {
    let base = gpu.gmem.alloc(u64::from(tbs) * 64 * 4);
    let mut b = ProgramBuilder::new("overhead");
    let (g, a, v) = (b.reg(), b.reg(), b.reg());
    b.global_tid(g);
    b.buf_addr(a, 0, g, 0);
    b.ld_global(v, a, 0);
    for _ in 0..reps {
        b.imul(v, v, Src::Reg(v));
    }
    b.bar();
    b.st_global(v, a, 0);
    b.exit();
    Kernel::new(
        b.build().expect("valid kernel"),
        LaunchConfig::linear(tbs, 64),
        vec![base as u32],
    )
}

fn run(tracer: &mut dyn Tracer) -> RunResult {
    let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 20);
    let k = kernel(&mut gpu, 8);
    gpu.launch_traced(&k, SchedulerKind::Pro, TraceOptions::default(), tracer)
        .expect("completes")
}

/// Strip a result down to the fields that must be observer-independent.
fn fingerprint(r: &RunResult) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.cycles,
        r.sm.issued,
        r.sm.idle,
        r.sm.scoreboard,
        r.sm.pipeline,
        r.mem.l1.misses,
        r.mem.dram.row_hits,
    )
}

#[test]
fn disabled_bus_survives_panic_tracer() {
    // PanicTracer::emit panics: completing at all proves no emission site
    // runs when `wants()` answers false.
    let r = run(&mut PanicTracer);
    assert!(r.cycles > 0);
}

#[test]
fn noop_and_panic_and_ring_runs_are_bit_identical() {
    let noop = run(&mut pro_sim::trace::NoopTracer);
    let panic = run(&mut PanicTracer);
    let mut ring = RingTracer::new(1 << 20);
    let ringed = run(&mut ring);
    assert_eq!(fingerprint(&noop), fingerprint(&panic));
    assert_eq!(fingerprint(&noop), fingerprint(&ringed));
    assert!(ring.total_emitted() > 0, "ring actually observed the run");
}

#[test]
fn tracing_adds_zero_allocations() {
    // Warm up: lazy statics, allocator pools, page-fault noise.
    let _ = run(&mut pro_sim::trace::NoopTracer);

    let (a_noop, _) = allocs_during(|| run(&mut pro_sim::trace::NoopTracer));
    let (a_noop2, _) = allocs_during(|| run(&mut pro_sim::trace::NoopTracer));
    assert_eq!(
        a_noop, a_noop2,
        "untraced launch allocation count must be deterministic"
    );

    // A preallocated ring subscribed to every class: same simulation, same
    // allocation count — emitting into the ring never touches the heap.
    let mut ring = RingTracer::new(1 << 20);
    let (a_ring, _) = allocs_during(|| run(&mut ring));
    assert_eq!(
        a_ring, a_noop,
        "ring-traced launch allocated beyond the preallocated buffer"
    );
}

#[test]
fn calendar_queue_steady_state_allocates_nothing() {
    use pro_sim::core::calq::CalQueue;
    let mut q: CalQueue<u64> = CalQueue::new();
    // Warm up past the latency-pattern transient so the slab has grown to
    // the live high-water mark and every bucket has been touched.
    for now in 0..512u64 {
        while q.pop_due(now).is_some() {}
        q.push(now + 1 + (now % 90), now);
        q.push(now + 40, now);
    }
    // 100k cycles of the simulator's access pattern — drain due events,
    // schedule a couple more — recycling slots through the free list.
    let (n, checksum) = allocs_during(|| {
        let mut x = 0u64;
        for now in 512..512 + 100_000u64 {
            while let Some((_, _, v)) = q.pop_due(now) {
                x ^= v;
            }
            q.push(now + 1 + (now % 90), now);
            q.push(now + 40, now);
        }
        x
    });
    assert_eq!(
        n, 0,
        "steady-state calendar-queue push/pop touched the allocator {n} times"
    );
    assert_ne!(checksum, 0, "the loop really popped events");
    assert!(
        q.pool_slots() <= q.live_hwm(),
        "slab {} slots exceeds live high-water {}",
        q.pool_slots(),
        q.live_hwm()
    );
}

#[test]
fn issue_phase_steady_state_allocates_nothing_per_cycle() {
    // The incremental issue path (DESIGN.md §15) preallocates everything at
    // kernel begin: per-unit order buffers, the candidate/ready bitsets,
    // and the cached-order fingerprints are all fixed-size. Reuse hits,
    // recomputes, and ready-mask skips must therefore stay off the heap —
    // a kernel that runs 8x more issue cycles over the same resident-warp
    // shape has to allocate exactly as much as the short one.
    let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 20);
    let short = kernel_reps(&mut gpu, 8, 8);
    let long = kernel_reps(&mut gpu, 8, 512);
    for sched in SchedulerKind::PAPER {
        // Warm-up: allocator pools, lazy statics, metric-name interning.
        let _ = gpu.launch(&short, sched, TraceOptions::default()).unwrap();
        let _ = gpu.launch(&long, sched, TraceOptions::default()).unwrap();
        let (a_short, r_short) =
            allocs_during(|| gpu.launch(&short, sched, TraceOptions::default()).unwrap());
        let (a_long, r_long) =
            allocs_during(|| gpu.launch(&long, sched, TraceOptions::default()).unwrap());
        assert!(
            r_long.cycles > 2 * r_short.cycles,
            "{sched}: long kernel must run many more cycles ({} vs {})",
            r_long.cycles,
            r_short.cycles
        );
        assert_eq!(
            a_short, a_long,
            "{sched}: issue-phase allocations grew with cycle count — \
             something in the incremental issue path touches the heap per cycle"
        );
    }
}

/// `reps` global load → add → global store rounds over one resident-warp
/// shape: only the number of memory warp-instructions grows with `reps`.
/// Every round loads the same line (an L1 hit after the first) and stores
/// to another buffer, so the number of cache misses — each of which
/// allocates an MSHR waiter list in `pro-mem` — does not grow with it.
fn kernel_mem_reps(gpu: &mut Gpu, tbs: u32, reps: usize) -> Kernel {
    let bytes = u64::from(tbs) * 64 * 4;
    let src = gpu.gmem.alloc(bytes);
    let dst = gpu.gmem.alloc(bytes);
    let mut b = ProgramBuilder::new("mem_overhead");
    let (g, a, o, v) = (b.reg(), b.reg(), b.reg(), b.reg());
    b.global_tid(g);
    b.buf_addr(a, 0, g, 0);
    b.buf_addr(o, 1, g, 0);
    for _ in 0..reps {
        b.ld_global(v, a, 0);
        b.iadd(v, v, Src::Imm(1));
        b.st_global(v, o, 0);
    }
    b.exit();
    Kernel::new(
        b.build().expect("valid kernel"),
        LaunchConfig::linear(tbs, 64),
        vec![src as u32, dst as u32],
    )
}

#[test]
fn memory_instruction_issue_allocates_nothing_per_instruction() {
    // The twin of the test above, which holds memory traffic constant and
    // so cannot see a per-memory-instruction allocation: here the number
    // of global loads and stores grows 16x over the same resident-warp
    // shape. An LSU entry carries its line addresses inline, so queueing
    // one must not touch the heap. (Two TBs only: with more warps the
    // store backlog in `pro-mem`'s per-launch queues peaks higher in the
    // long kernel, and their capacity doubling would show as a handful of
    // allocations that have nothing to do with the issue path.)
    let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 20);
    let few = kernel_mem_reps(&mut gpu, 2, 4);
    let many = kernel_mem_reps(&mut gpu, 2, 64);
    for sched in [SchedulerKind::Lrr, SchedulerKind::Gto, SchedulerKind::Pro] {
        let _ = gpu.launch(&few, sched, TraceOptions::default()).unwrap();
        let _ = gpu.launch(&many, sched, TraceOptions::default()).unwrap();
        let (a_few, r_few) =
            allocs_during(|| gpu.launch(&few, sched, TraceOptions::default()).unwrap());
        let (a_many, r_many) =
            allocs_during(|| gpu.launch(&many, sched, TraceOptions::default()).unwrap());
        assert!(
            r_many.mem.loads >= 16 * r_few.mem.loads && r_few.mem.loads > 0,
            "{sched}: the long kernel must issue 16x the loads ({} vs {})",
            r_many.mem.loads,
            r_few.mem.loads
        );
        assert_eq!(
            a_few, a_many,
            "{sched}: allocations grew with the number of global loads/stores — \
             issuing a memory instruction touches the heap"
        );
    }
}

/// One full launch with the host profiler toggled.
fn run_prof(tbs: u32, host_prof: bool) -> RunResult {
    let mut gpu = Gpu::new(GpuConfig::small(2), 1 << 20);
    let k = kernel(&mut gpu, tbs);
    gpu.launch(
        &k,
        SchedulerKind::Pro,
        TraceOptions {
            host_prof,
            ..Default::default()
        },
    )
    .expect("completes")
}

#[test]
fn host_profiler_hot_path_allocates_nothing_per_cycle() {
    // The profiler's only allocations are the end-of-run publish step
    // (metric-name strings, registry growth) — a constant. Per-cycle work
    // (Instant reads, Hist16 observes, queue-depth sampling) must stay off
    // the heap, so the profiled-minus-unprofiled allocation delta cannot
    // depend on how long the kernel runs.
    let _ = run_prof(2, false);
    let _ = run_prof(2, true);

    let (short_off, _) = allocs_during(|| run_prof(2, false));
    let (short_on, r_short) = allocs_during(|| run_prof(2, true));
    let (long_off, r_off) = allocs_during(|| run_prof(24, false));
    let (long_on, r_on) = allocs_during(|| run_prof(24, true));
    assert!(
        r_on.cycles > r_short.cycles,
        "long kernel must simulate more cycles than the short one"
    );
    assert_eq!(fingerprint(&r_off), fingerprint(&r_on), "observer effect");
    assert_eq!(
        short_on - short_off,
        long_on - long_off,
        "profiler allocations grew with cycle count — something allocates on the hot path"
    );
}
