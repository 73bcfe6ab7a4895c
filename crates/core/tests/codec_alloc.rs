//! What a snapshot container costs the heap: parsing one borrows every
//! section from the bytes it parsed, and writing one allocates its output
//! once, sized for the whole container.
//!
//! The counter is a `#[global_allocator]` wrapper with per-thread counts
//! of allocations and bytes; this file is its own test binary and each
//! test measures only its own thread, so the parallel libtest harness
//! cannot pollute a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pro_core::codec::{write_container, FileReader};

struct CountingAlloc;

thread_local! {
    /// Allocations (a `realloc` counts as one) and the bytes they asked
    /// for on this thread. Const-initialized and `Drop`-free, so bumping
    /// them from inside the allocator never recurses.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
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

/// `(allocations, bytes)` made on this thread while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    ((ALLOCS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1), r)
}

const MIB: usize = 1 << 20;

/// A 1 MiB section between two small ones, and its container.
fn sections() -> (Vec<u8>, Vec<u8>) {
    let big: Vec<u8> = (0..MIB).map(|i| (i * 7 + i / 251) as u8).collect();
    let bytes = write_container(None, &[(1, b"meta"), (2, &big), (3, &[9; 40])]);
    (big, bytes)
}

#[test]
fn parsing_a_container_borrows_its_sections() {
    let (big, bytes) = sections();
    let ((_, allocated), same) = allocs_during(|| {
        let parsed = FileReader::parse(&bytes).unwrap();
        parsed.section_bytes(2).unwrap() == &big[..]
    });
    assert!(same, "section 2 read back other bytes");
    assert!(allocated < MIB as u64, "parsing allocated {allocated} bytes for a {MIB}-byte section");
}

#[test]
fn writing_a_container_allocates_its_output_once() {
    let (big, _) = sections();
    let ((allocs, allocated), bytes) =
        allocs_during(|| write_container(Some((4, 0xDEAD_BEEF)), &[(1, b"meta"), (2, &big), (3, &[9; 40])]));
    assert_eq!(allocs, 1, "writing a container allocated {allocs} times");
    assert_eq!(allocated, bytes.len() as u64, "the one buffer is not the container's size");
    assert_eq!(bytes.capacity(), bytes.len());
}
