//! Wall-clock benchmarks of the pack engine — the §4.3 claim ("MPI_Pack
//! is as efficient as a user-coded copying loop") tested against *this*
//! implementation: the engine's strided fast path must keep up with a
//! hand-written gather loop, and the generic segment walk must stay
//! within a small factor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nonctg_datatype::{
    as_bytes, available_tiers, pack_into, pack_into_uncompiled, simd_tier,
    ArrayOrder, Datatype, PackPlan,
};
use std::hint::black_box;

fn hand_gather_stride2(src: &[f64], dst: &mut [f64]) {
    for (i, d) in dst.iter_mut().enumerate() {
        *d = src[2 * i];
    }
}

fn bench_pack_vs_hand_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack_vs_hand_loop");
    g.sample_size(20);
    for &n in &[1usize << 12, 1 << 16, 1 << 20] {
        let src: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        let mut out = vec![0u8; n * 8];
        let mut outf = vec![0.0f64; n];

        g.throughput(Throughput::Bytes((n * 8) as u64));
        g.bench_with_input(BenchmarkId::new("hand_loop", n), &n, |b, _| {
            b.iter(|| hand_gather_stride2(black_box(&src), black_box(&mut outf)));
        });
        g.bench_with_input(BenchmarkId::new("pack_strided_path", n), &n, |b, _| {
            b.iter(|| {
                pack_into(black_box(as_bytes(&src)), 0, &vec_t, 1, black_box(&mut out)).unwrap()
            });
        });
    }
    g.finish();
}

fn bench_pack_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack_paths");
    g.sample_size(20);
    let n = 1usize << 16;
    let src: Vec<f64> = (0..4 * n).map(|i| i as f64).collect();
    let mut out = vec![0u8; n * 8];

    // contiguous: one memcpy
    let contig = Datatype::contiguous(n, &Datatype::f64()).unwrap().commit();
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("contiguous_memcpy", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &contig, 1, &mut out).unwrap());
    });

    // strided: vector / subarray (fast path)
    let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
    g.bench_function("vector_stride2", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &vec_t, 1, &mut out).unwrap());
    });
    let sub_t = Datatype::subarray(&[n, 2], &[n, 1], &[0, 0], ArrayOrder::C, &Datatype::f64())
        .unwrap()
        .commit();
    g.bench_function("subarray_stride2", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &sub_t, 1, &mut out).unwrap());
    });

    // blocked strided: bigger memcpy units
    let blk = Datatype::vector(n / 64, 64, 128, &Datatype::f64()).unwrap().commit();
    g.bench_function("vector_block64", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &blk, 1, &mut out).unwrap());
    });

    // irregular: generic segment walk
    let blocks: Vec<(usize, i64)> = (0..n / 4)
        .map(|j| (4usize, (j * 16 + (j % 3)) as i64))
        .collect();
    let idx = Datatype::indexed(&blocks, &Datatype::f64()).unwrap().commit();
    g.bench_function("indexed_generic_walk", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &idx, 1, &mut out).unwrap());
    });
    g.finish();
}

/// Compiled plan (cached kernel program) vs. the per-call uncompiled
/// engine, across the paper's three non-contiguous shapes.
fn bench_plan_vs_uncompiled(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_vs_uncompiled");
    g.sample_size(20);
    for &n in &[1usize << 12, 1 << 16, 1 << 20] {
        let src: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        let mut out = vec![0u8; n * 8];
        g.throughput(Throughput::Bytes((n * 8) as u64));
        g.bench_with_input(BenchmarkId::new("strided_uncompiled", n), &n, |b, _| {
            b.iter(|| {
                pack_into_uncompiled(black_box(as_bytes(&src)), 0, &vec_t, 1, &mut out).unwrap()
            });
        });
        g.bench_with_input(BenchmarkId::new("strided_plan_cached", n), &n, |b, _| {
            b.iter(|| {
                pack_into(black_box(as_bytes(&src)), 0, &vec_t, 1, &mut out).unwrap()
            });
        });
    }

    // Subarray and struct shapes at 2^16 elements.
    let n = 1usize << 16;
    let src: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
    let mut out = vec![0u8; n * 8];
    g.throughput(Throughput::Bytes((n * 8) as u64));
    let sub_t = Datatype::subarray(&[n / 64, 128], &[n / 64, 64], &[0, 32], ArrayOrder::C, &Datatype::f64())
        .unwrap()
        .commit();
    g.bench_function("subarray_uncompiled", |b| {
        b.iter(|| pack_into_uncompiled(black_box(as_bytes(&src)), 0, &sub_t, 1, &mut out).unwrap());
    });
    g.bench_function("subarray_plan_cached", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &sub_t, 1, &mut out).unwrap());
    });
    let st_t = Datatype::structure(&[(1, 0, Datatype::i32()), (1, 8, Datatype::f64())])
        .unwrap()
        .commit();
    let st_count = n * 8 / 12;
    let st_src: Vec<u8> = (0..st_count * 16).map(|i| i as u8).collect();
    g.throughput(Throughput::Bytes((st_count * 12) as u64));
    g.bench_function("struct_uncompiled", |b| {
        b.iter(|| {
            pack_into_uncompiled(black_box(&st_src), 0, &st_t, st_count, &mut out).unwrap()
        });
    });
    g.bench_function("struct_plan_cached", |b| {
        b.iter(|| pack_into(black_box(&st_src), 0, &st_t, st_count, &mut out).unwrap());
    });
    g.finish();
}

/// The runtime-dispatched kernel tiers head to head through the forced
/// plan hook, on the shapes the SIMD kernels target: the 8-byte strided
/// gather, the pshufb struct record, an odd-block (loose-16) vector,
/// and streaming stores on vs. off at a past-LLC payload.
fn bench_simd_tiers(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_tiers");
    g.sample_size(10);

    let n = 1usize << 17; // 1 MB packed
    let src: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
    let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap();
    let plan = PackPlan::compile(&vec_t, 1).unwrap();
    let mut out = vec![0u8; n * 8];
    g.throughput(Throughput::Bytes((n * 8) as u64));
    for tier in available_tiers() {
        g.bench_with_input(BenchmarkId::new("strided8_1MB", tier.name()), &tier, |b, &t| {
            b.iter(|| {
                plan.pack_into_forced(black_box(as_bytes(&src)), 0, &mut out, t, false).unwrap()
            });
        });
    }

    let st_t = Datatype::structure(&[(1, 0, Datatype::i32()), (1, 8, Datatype::f64())]).unwrap();
    let count = (1usize << 20) / 12;
    let st_src: Vec<u8> = (0..count * 16).map(|i| i as u8).collect();
    let st_plan = PackPlan::compile(&st_t, count).unwrap();
    let mut st_out = vec![0u8; count * 12];
    g.throughput(Throughput::Bytes((count * 12) as u64));
    for tier in available_tiers() {
        g.bench_with_input(BenchmarkId::new("struct_record_1MB", tier.name()), &tier, |b, &t| {
            b.iter(|| {
                st_plan.pack_into_forced(black_box(&st_src), 0, &mut st_out, t, false).unwrap()
            });
        });
    }

    // 3-byte blocks at stride 7: the loose-16 overlapping-store kernel.
    let nb = (1usize << 20) / 3;
    let loose_t = Datatype::vector(nb, 3, 7, &Datatype::byte()).unwrap();
    let loose_src: Vec<u8> = (0..nb * 7 + 16).map(|i| i as u8).collect();
    let loose_plan = PackPlan::compile(&loose_t, 1).unwrap();
    let mut loose_out = vec![0u8; nb * 3];
    g.throughput(Throughput::Bytes((nb * 3) as u64));
    for tier in available_tiers() {
        g.bench_with_input(BenchmarkId::new("loose3_1MB", tier.name()), &tier, |b, &t| {
            b.iter(|| {
                loose_plan
                    .pack_into_forced(black_box(&loose_src), 0, &mut loose_out, t, false)
                    .unwrap()
            });
        });
    }

    // Streaming stores on vs. off at 64 MB (past any LLC) on the
    // process-selected tier; identical on tiers without NT kernels.
    let nbig = 8usize << 20;
    let big: Vec<f64> = (0..2 * nbig).map(|i| i as f64).collect();
    let big_plan = PackPlan::compile(&Datatype::vector(nbig, 1, 2, &Datatype::f64()).unwrap(), 1)
        .unwrap();
    let mut big_out = vec![0u8; nbig * 8];
    g.throughput(Throughput::Bytes((nbig * 8) as u64));
    for stream in [false, true] {
        g.bench_function(format!("strided8_64MB_stream_{stream}"), |b| {
            b.iter(|| {
                let src = black_box(as_bytes(&big));
                big_plan.pack_into_forced(src, 0, &mut big_out, simd_tier(), stream).unwrap()
            });
        });
    }
    g.finish();
}

fn bench_unpack(c: &mut Criterion) {
    let mut g = c.benchmark_group("unpack");
    g.sample_size(20);
    let n = 1usize << 16;
    let packed: Vec<u8> = (0..n * 8).map(|i| i as u8).collect();
    let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
    let mut dst = vec![0u8; 2 * n * 8];
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("unpack_stride2", |b| {
        b.iter(|| {
            nonctg_datatype::unpack_from(black_box(&packed), &vec_t, 1, &mut dst, 0).unwrap()
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pack_vs_hand_loop,
    bench_pack_paths,
    bench_plan_vs_uncompiled,
    bench_simd_tiers,
    bench_unpack
);
criterion_main!(benches);
