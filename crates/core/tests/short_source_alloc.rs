//! A send whose source buffer is shorter than its type's span fails with
//! the pack engine's `OutOfBounds` before it stages anything: no route
//! may take (and zero-fill) a payload-sized staging buffer first. Its own
//! test binary, because the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nonctg_core::datatype::{Datatype, DatatypeError};
use nonctg_core::{Comm, CoreError, Result, Universe};
use nonctg_simnet::Platform;

/// Counts bytes requested from the allocator (frees are ignored).
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

const PAYLOAD: usize = 64 << 20;

/// A send of `PAYLOAD` bytes from the given source.
type SendFn = fn(&mut Comm, &[u8]) -> Result<()>;

/// Run `send` on rank 0 of a pair over a 64-byte source; return its
/// error and the bytes allocated while it ran.
fn rejected(platform: Platform, send: SendFn) -> (CoreError, u64) {
    let mut results = Universe::run(platform, 2, move |comm| {
        if comm.rank() != 0 {
            return None;
        }
        let src = [0u8; 64];
        let before = ALLOCATED.load(Ordering::Relaxed);
        let err = send(comm, &src).unwrap_err();
        Some((err, ALLOCATED.load(Ordering::Relaxed) - before))
    });
    results.swap_remove(0).unwrap()
}

fn out_of_bounds(needed_to: i64) -> CoreError {
    CoreError::Datatype(DatatypeError::OutOfBounds { needed_from: 0, needed_to, buffer_len: 64 })
}

#[test]
fn short_sources_fail_before_staging() {
    let quiet = || {
        let mut p = Platform::skx_impi().without_pipeline();
        p.jitter_sigma = 0.0;
        p
    };
    let cases: [(&str, SendFn, i64); 3] = [
        ("contiguous", |c, src| c.send(src, 0, &Datatype::byte(), PAYLOAD, 1, 0), PAYLOAD as i64),
        (
            "derived",
            |c, src| {
                let t = Datatype::vector(PAYLOAD, 1, 2, &Datatype::byte())?.commit();
                c.send(src, 0, &t, 1, 1, 0)
            },
            2 * PAYLOAD as i64 - 1,
        ),
        (
            "bsend",
            |c, src| {
                c.buffer_attach(PAYLOAD + 64)?;
                c.bsend(src, 0, &Datatype::byte(), PAYLOAD, 1, 0)
            },
            PAYLOAD as i64,
        ),
    ];
    let runs: Vec<_> = cases.map(|(name, send, to)| (name, rejected(quiet(), send), to)).into();
    for (name, (err, _), needed_to) in &runs {
        assert_eq!(*err, out_of_bounds(*needed_to), "{name}");
    }
    for (name, (_, allocated), _) in &runs {
        assert!(*allocated < 64 << 10, "{name}: a rejected send allocated {allocated} bytes");
    }
}
