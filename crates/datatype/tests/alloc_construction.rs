//! Allocation test for regular-type construction: building and committing
//! `vector(n, 1, 2, f64)` allocates the same bytes whatever `n` is. Its
//! properties are computed in closed form and commit materializes nothing,
//! so a regression that walks or collects the blocks costs O(n) bytes and
//! fails here. One test per binary: a concurrent test would allocate into
//! the same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nonctg_datatype::Datatype;

/// Counts bytes requested from the allocator (frees are ignored: we
/// measure allocation churn, not live footprint).
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCATED.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated while building and committing `vector(n, 1, 2, f64)`.
fn vector_commit_bytes(n: usize) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let d = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
    let after = ALLOCATED.load(Ordering::Relaxed);
    assert_eq!(d.size(), n as u64 * 8);
    after - before
}

#[test]
fn vector_build_and_commit_allocate_independently_of_count() {
    let _ = vector_commit_bytes(8);
    let small = vector_commit_bytes(8);
    let large = vector_commit_bytes(8 << 20);
    assert_eq!(
        small, large,
        "vector(8,1,2) allocated {small} bytes but vector(8 Mi,1,2) {large}: \
         construction or commit is materializing per-block state"
    );
}
