//! What a resume costs the heap: a restore decodes device memory into the
//! resuming GPU's own store instead of building a second one beside it.
//!
//! The counter is a `#[global_allocator]` wrapper with per-thread counts
//! of bytes; this file is its own test binary and the test measures only
//! its own thread, so the parallel libtest harness cannot pollute the
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pro_sim::{CheckpointOptions, Gpu, GpuConfig, LaunchStatus, SchedulerKind, TraceOptions};
use pro_workloads::{find, Built, Scale};

struct CountingAlloc;

thread_local! {
    /// Bytes asked for on this thread (a `realloc` counts its new size).
    /// Const-initialized and `Drop`-free, so bumping it from inside the
    /// allocator never recurses.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while running `f`.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (BYTES.with(Cell::get) - before, r)
}

/// laplace3d at the default scale, built into a fresh GTX480.
fn fresh() -> (Gpu, Built) {
    let (w, scale) = (find("laplace3d").unwrap(), Scale::default());
    let mut gpu = Gpu::new(GpuConfig::gtx480(), w.recommended_gmem(scale));
    let built = w.build_scaled(&mut gpu.gmem, scale);
    (gpu, built)
}

#[test]
fn a_resume_decodes_device_memory_into_the_gpus_own_store() {
    let (sched, trace) = (SchedulerKind::Pro, TraceOptions::default());
    let (mut gpu, built) = fresh();
    let cycles = gpu.launch(&built.kernel, sched, trace).unwrap().cycles;

    let (mut gpu, built) = fresh();
    let pause = CheckpointOptions { pause_at: cycles / 2, ..Default::default() };
    let Ok(LaunchStatus::Paused(snap)) = gpu.launch_checkpointed(&built.kernel, sched, trace, &pause) else {
        panic!("the run finished before its pause");
    };

    let (mut gpu, built) = fresh();
    let store = gpu.gmem.capacity();
    let no_ckpt = CheckpointOptions::default();
    let (allocated, status) = bytes_during(|| gpu.resume(&snap, &built.kernel, sched, trace, &no_ckpt));
    assert_eq!(status.unwrap().expect_completed().cycles, cycles, "the resume ran another course");
    (built.verify)(&gpu.gmem).unwrap();
    // Before the restore decoded into the GPU's own store it allocated a
    // second one (64 MiB here) and 69.4 MB in all.
    assert!(
        allocated < 6_940_000,
        "the resume allocated {allocated} bytes beside a {store}-byte store"
    );
}
