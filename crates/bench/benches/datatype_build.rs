//! Benchmarks of datatype construction, commit, and segment iteration —
//! the bookkeeping a real MPI pays per `MPI_Type_*`/`MPI_Type_commit`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nonctg_datatype::{ArrayOrder, Datatype, SegIter};
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("construct");
    g.sample_size(30);
    g.bench_function("vector", |b| {
        b.iter(|| Datatype::vector(black_box(1 << 20), 1, 2, &Datatype::f64()).unwrap());
    });
    g.bench_function("subarray_3d", |b| {
        b.iter(|| {
            Datatype::subarray(
                black_box(&[64, 64, 64]),
                &[32, 32, 32],
                &[16, 16, 16],
                ArrayOrder::C,
                &Datatype::f64(),
            )
            .unwrap()
        });
    });
    for &nblocks in &[1usize << 10, 1 << 14] {
        let blocks: Vec<(usize, i64)> = (0..nblocks).map(|j| (2usize, 5 * j as i64)).collect();
        g.bench_with_input(BenchmarkId::new("indexed", nblocks), &blocks, |b, blocks| {
            b.iter(|| Datatype::indexed(black_box(blocks), &Datatype::f64()).unwrap());
        });
    }
    g.finish();
}

fn bench_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit");
    g.sample_size(30);
    // Commit only sets a flag, whatever the block count.
    g.bench_function("vector", |b| {
        b.iter_with_setup(
            || Datatype::vector(1 << 24, 1, 2, &Datatype::f64()).unwrap(),
            |d| d.commit(),
        );
    });
    g.finish();
}

fn bench_segment_iteration(c: &mut Criterion) {
    let mut g = c.benchmark_group("segiter");
    g.sample_size(20);
    let nested = {
        let inner = Datatype::vector(64, 2, 4, &Datatype::f64()).unwrap();
        Datatype::hvector(256, 1, 4096, &inner).unwrap()
    };
    g.bench_function("nested_vector_walk", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for blk in SegIter::new(black_box(&nested), 1) {
                total += blk.len;
            }
            total
        });
    });
    let sub = Datatype::subarray(&[256, 256], &[256, 128], &[0, 64], ArrayOrder::C, &Datatype::f64())
        .unwrap();
    g.bench_function("subarray_walk", |b| {
        b.iter(|| SegIter::new(black_box(&sub), 1).count());
    });
    g.finish();
}

criterion_group!(benches, bench_construction, bench_commit, bench_segment_iteration);
criterion_main!(benches);
