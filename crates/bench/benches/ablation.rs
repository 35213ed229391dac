//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **strided fast path** — pack a vector (fast path) vs the identical
//!    layout wrapped so `strided_form` cannot recognize it (generic walk);
//! 2. **compiled pack plan** — pack a committed type (compiled plan) vs the
//!    same type uncommitted (uncompiled segment walk);
//! 3. **online coalescing** — segment iteration with and without merging
//!    adjacent runs, on a type built from mergeable blocks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nonctg_datatype::{as_bytes, pack_into, Datatype, SegIter};
use std::hint::black_box;

/// The paper's layout (every other f64) hidden inside a struct so the
/// strided recognizer rejects it and packing walks segments generically.
fn vector_disguised(n: usize) -> Datatype {
    let v = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap();
    Datatype::structure(&[(1, 0, v)]).unwrap()
}

fn bench_strided_fast_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_strided_fast_path");
    g.sample_size(20);
    let n = 1usize << 16;
    let src: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
    let mut out = vec![0u8; n * 8];
    let fast = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap(); // uncommitted: no plan
    let generic = vector_disguised(n);
    assert!(nonctg_datatype::strided_form(&generic).is_none(), "disguise failed");

    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("with_fast_path", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &fast, 1, &mut out).unwrap());
    });
    g.bench_function("generic_walk", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &generic, 1, &mut out).unwrap());
    });
    g.finish();
}

fn bench_compiled_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_compiled_plan");
    g.sample_size(20);
    // An irregular type: committed it packs through a compiled plan,
    // uncommitted through the uncompiled segment walk.
    let nblocks = 1usize << 12;
    let blocks: Vec<(usize, i64)> =
        (0..nblocks).map(|j| (2usize, (j * 5 + j % 2) as i64)).collect();
    let uncompiled = Datatype::indexed(&blocks, &Datatype::f64()).unwrap();
    let compiled = Datatype::indexed(&blocks, &Datatype::f64()).unwrap().commit();
    assert!(nonctg_datatype::plan_for(&compiled, 1).is_some());
    let span = (uncompiled.true_ub()) as usize + 64;
    let src: Vec<u8> = (0..span).map(|i| i as u8).collect();
    let bytes = uncompiled.size() as usize;
    let mut out = vec![0u8; bytes];

    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("compiled_plan", |b| {
        b.iter(|| pack_into(black_box(&src), 0, &compiled, 1, &mut out).unwrap());
    });
    g.bench_function("uncompiled_walk", |b| {
        b.iter(|| pack_into(black_box(&src), 0, &uncompiled, 1, &mut out).unwrap());
    });
    g.finish();
}

fn bench_coalescing(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_online_coalescing");
    g.sample_size(20);
    // Blocks that frequently abut: coalescing merges runs of them.
    let nblocks = 1usize << 14;
    let blocks: Vec<(usize, i64)> = (0..nblocks)
        .map(|j| (1usize, (j + j / 4) as i64)) // 3 of 4 adjacent
        .collect();
    let d = Datatype::indexed(&blocks, &Datatype::f64()).unwrap();

    g.bench_function("coalesced_iteration", |b| {
        b.iter(|| SegIter::new(black_box(&d), 1).count());
    });
    g.bench_function("raw_iteration", |b| {
        b.iter(|| SegIter::new_raw(black_box(&d), 1).count());
    });
    // Report the compression the design buys.
    let merged = SegIter::new(&d, 1).count();
    let raw = SegIter::new_raw(&d, 1).count();
    eprintln!("coalescing: {raw} raw segments -> {merged} merged");
    g.finish();
}

criterion_group!(benches, bench_strided_fast_path, bench_compiled_plan, bench_coalescing);
criterion_main!(benches);
