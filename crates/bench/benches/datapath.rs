//! Wall-clock benchmarks of the send datapath: monolithic vs. pipelined
//! chunked rendezvous across message sizes, and the pool-backed eager
//! path. Virtual-time results are identical by construction (see
//! `chunk_props`); this group tracks what the pipelining actually buys
//! in host wall-clock, which is what figure regeneration time is made of.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nonctg_core::Universe;
use nonctg_datatype::{as_bytes, Datatype};
use nonctg_simnet::Platform;

/// One strided-vector rendezvous ping (plus a zero-byte ack so both ranks
/// finish together) through a fresh two-rank universe.
fn vector_ping(platform: &Platform, bytes: usize) {
    let elems = bytes / 8;
    Universe::run_pair(platform.clone(), move |comm| {
        if comm.rank() == 0 {
            let src = vec![1.0f64; 2 * elems];
            let t = Datatype::vector(elems, 1, 2, &Datatype::f64()).unwrap().commit();
            comm.send(as_bytes(&src), 0, &t, 1, 1, 1).unwrap();
            let mut ack = [0.0f64; 0];
            comm.recv_slice(&mut ack, Some(1), Some(2)).unwrap();
        } else {
            let mut dst = vec![0.0f64; elems];
            comm.recv_slice(&mut dst, Some(0), Some(1)).unwrap();
            comm.send_slice::<f64>(&[], 0, 2).unwrap();
        }
        comm.wtime()
    });
}

fn bench_rendezvous(c: &mut Criterion) {
    let mut g = c.benchmark_group("datapath");
    g.sample_size(10);
    let mono = Platform::skx_impi().without_pipeline();
    // Threshold 1 streams every size so the small points compare the two
    // paths too; the chunk size is the production default (256 KiB).
    let chunked = Platform::skx_impi().with_pipeline(1, 256 << 10);
    for shift in [16usize, 20, 24, 27] {
        let bytes = 1usize << shift;
        g.throughput(Throughput::Bytes(bytes as u64));
        g.bench_with_input(BenchmarkId::new("monolithic", bytes), &bytes, |b, &n| {
            b.iter(|| vector_ping(&mono, n));
        });
        g.bench_with_input(BenchmarkId::new("chunked", bytes), &bytes, |b, &n| {
            b.iter(|| vector_ping(&chunked, n));
        });
    }
    g.finish();
}

fn bench_eager_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("datapath_eager");
    g.sample_size(10);
    let platform = Platform::skx_impi();
    // 32 contiguous eager ping-pongs inside one universe: after the first,
    // every payload buffer comes out of the fabric pool with its bytes
    // intact (no memset), so this tracks the zero-copy staging win.
    let elems = 2048; // 16 KiB — below every platform's eager limit.
    g.throughput(Throughput::Bytes((32 * elems * 8) as u64));
    g.bench_function("pooled_32x16KiB", |b| {
        b.iter(|| {
            Universe::run_pair(platform.clone(), move |comm| {
                let src = vec![1.0f64; elems];
                let mut dst = vec![0.0f64; elems];
                for _ in 0..32 {
                    if comm.rank() == 0 {
                        comm.send_slice(&src, 1, 1).unwrap();
                        comm.recv_slice(&mut dst, Some(1), Some(2)).unwrap();
                    } else {
                        comm.recv_slice(&mut dst, Some(0), Some(1)).unwrap();
                        comm.send_slice(&src, 0, 2).unwrap();
                    }
                }
                comm.wtime()
            })
        });
    });
    g.finish();
}

criterion_group!(benches, bench_rendezvous, bench_eager_pool);
criterion_main!(benches);
