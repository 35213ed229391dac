//! Differential property tests of the pipelined chunked datapath: for any
//! strided message, chunk size, receive-side datatype and fault seed, the
//! chunked rendezvous path must deliver byte-identical payloads and
//! bit-equal virtual times compared to the monolithic path.
//!
//! The chunked path is forced with `Platform::with_pipeline(1, chunk)`
//! (threshold of one byte streams every eligible rendezvous send) and the
//! baseline with `Platform::without_pipeline()`. Jitter stays ON: bit-equal
//! times prove both paths consume the same jitter draws in the same order.

use nonctg_core::{Comm, EventKind, TraceEvent, Universe};
use nonctg_datatype::{as_bytes, as_bytes_mut, pack_into_uncompiled, Datatype};
use nonctg_simnet::{Datapath, FaultPlan, Platform};
use proptest::prelude::*;

/// How rank 1 receives the strided payload. The first four receive
/// plans are one dense run, so a streamed send gathers straight into the
/// receive buffer on both ranks; the rest gather into a staging buffer
/// that the receiver then unpacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecvMode {
    /// Contiguous `recv_slice` — the receive plan is dense.
    Contiguous,
    /// Contiguous `f64` receive at byte `origin = 16` of a larger buffer.
    ContiguousAtOrigin,
    /// Contiguous `recv_slice` into a buffer five elements larger than
    /// the payload.
    Oversized,
    /// A one-block `hindexed` of the whole payload at byte 24: a dense
    /// type with a non-zero lower bound.
    DenseLowerBound,
    /// The sender's vector type: chunk cuts land on receive-plan
    /// boundaries.
    SameVector,
    /// A coarser vector type with twice the blocklength: the sender's
    /// chunk alignment is finer than the receiver's, so cuts straddle
    /// receive blocks.
    CoarseVector,
    /// A coarser vector type whose instance size does not divide the sent
    /// byte count: the posted receive consumes only the whole instances
    /// (`fit < total`) and the trailing partial instance is dropped.
    PartialTrailing,
}

#[derive(Debug, Clone)]
struct Case {
    /// Number of vector blocks on the sender (always even, for CoarseVector).
    blocks: usize,
    /// Sender blocklength in f64 elements.
    blocklen: usize,
    /// Extra stride beyond the blocklength (>= 1 keeps the type non-contiguous).
    gap: usize,
    /// Pipeline chunk size in bytes; deliberately includes values that are
    /// not multiples of the block size.
    chunk: u64,
    recv_mode: RecvMode,
    /// Fault seed; `None` runs fault-free.
    fault_seed: Option<u64>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        2usize..240,
        1usize..5,
        1usize..4,
        prop_oneof![Just(64u64), 65u64..4096, Just(1u64 << 16)],
        prop_oneof![
            Just(RecvMode::Contiguous),
            Just(RecvMode::ContiguousAtOrigin),
            Just(RecvMode::Oversized),
            Just(RecvMode::DenseLowerBound),
            Just(RecvMode::SameVector),
            Just(RecvMode::CoarseVector),
            Just(RecvMode::PartialTrailing),
        ],
        prop_oneof![Just(None), (0u64..1_000).prop_map(Some)],
    )
        .prop_map(|(half, blocklen, gap, chunk, recv_mode, fault_seed)| Case {
            // PartialTrailing sends one extra block so the sent byte count
            // is not a multiple of the receive instance size.
            blocks: match recv_mode {
                RecvMode::PartialTrailing => 2 * half + 1,
                _ => 2 * half,
            },
            blocklen,
            gap,
            chunk,
            recv_mode,
            fault_seed,
        })
}

fn platform_for(case: &Case, chunked: bool) -> Platform {
    // Jitter stays at the platform default: identical draw sequences are
    // part of what the differential test proves.
    let mut p = Platform::skx_impi();
    p = if chunked {
        p.with_pipeline(1, case.chunk)
    } else {
        p.without_pipeline()
    };
    if let Some(seed) = case.fault_seed {
        // Delays and corruption stress the retry/backoff charges and the
        // corrupt-byte placement mid-stream; a low transient-failure rate
        // exercises the pre-send retry loop without ever escalating to a
        // persistent failure (which would wedge the receiver).
        p = p.with_fault_plan(
            FaultPlan::quiet(seed)
                .with_send_failures(0.05)
                .with_delays(0.15, 2e-6)
                .with_corruption(0.15),
        );
    }
    p.with_deadlock_timeout(5.0)
}

/// One ssend/recv exchange: rank 0 sends the strided payload and
/// returns nothing, rank 1 receives it as `case.recv_mode` says and
/// returns its whole receive buffer.
fn exchange(comm: &mut nonctg_core::Comm, case: &Case) -> Vec<u8> {
    let stride = (case.blocklen + case.gap) as i64;
    let n_elems = case.blocks * case.blocklen;
    if comm.rank() == 0 {
        let extent = (case.blocks - 1) * stride as usize + case.blocklen;
        let src: Vec<f64> = (0..extent).map(|e| e as f64 + 0.25).collect();
        let t = Datatype::vector(case.blocks, case.blocklen, stride, &Datatype::f64())
            .unwrap()
            .commit();
        // Synchronous mode rendezvouses at every size, so even small
        // payloads take the streaming path once the threshold is 1.
        comm.ssend(as_bytes(&src), 0, &t, 1, 1, 7).unwrap();
        return Vec::new();
    }
    match case.recv_mode {
        RecvMode::Contiguous => {
            let mut buf = vec![0.0f64; n_elems];
            comm.recv_slice(&mut buf, Some(0), Some(7)).unwrap();
            as_bytes(&buf).to_vec()
        }
        RecvMode::ContiguousAtOrigin => {
            let mut buf = vec![0.0f64; n_elems + 2];
            comm.recv(
                as_bytes_mut(&mut buf),
                16,
                &Datatype::f64(),
                n_elems,
                Some(0),
                Some(7),
            )
            .unwrap();
            as_bytes(&buf).to_vec()
        }
        RecvMode::Oversized => {
            let mut buf = vec![0.0f64; n_elems + 5];
            comm.recv_slice(&mut buf, Some(0), Some(7)).unwrap();
            as_bytes(&buf).to_vec()
        }
        RecvMode::DenseLowerBound => {
            let mut buf = vec![0.0f64; n_elems + 3];
            let t = Datatype::hindexed(&[(n_elems, 24)], &Datatype::f64())
                .unwrap()
                .commit();
            comm.recv(as_bytes_mut(&mut buf), 0, &t, 1, Some(0), Some(7))
                .unwrap();
            as_bytes(&buf).to_vec()
        }
        RecvMode::SameVector => {
            let extent = (case.blocks - 1) * stride as usize + case.blocklen;
            let mut buf = vec![0.0f64; extent];
            let t = Datatype::vector(case.blocks, case.blocklen, stride, &Datatype::f64())
                .unwrap()
                .commit();
            comm.recv(as_bytes_mut(&mut buf), 0, &t, 1, Some(0), Some(7))
                .unwrap();
            as_bytes(&buf).to_vec()
        }
        RecvMode::CoarseVector => {
            let rb = 2 * case.blocklen;
            let rcount = case.blocks / 2;
            let rstride = (rb + 1) as i64;
            let extent = (rcount - 1) * rstride as usize + rb;
            let mut buf = vec![0.0f64; extent];
            let t = Datatype::vector(rcount, rb, rstride, &Datatype::f64())
                .unwrap()
                .commit();
            comm.recv(as_bytes_mut(&mut buf), 0, &t, 1, Some(0), Some(7))
                .unwrap();
            as_bytes(&buf).to_vec()
        }
        RecvMode::PartialTrailing => {
            // One instance covers blocks-1 sender blocks; posting
            // count=2 leaves capacity for the incoming bytes while
            // only one whole instance fits them (fit < total).
            let rb = 2 * case.blocklen;
            let rcount = (case.blocks - 1) / 2;
            let rstride = (rb + 1) as i64;
            let ext = (rcount - 1) * rstride as usize + rb;
            let mut buf = vec![0.0f64; 2 * ext];
            let t = Datatype::vector(rcount, rb, rstride, &Datatype::f64())
                .unwrap()
                .commit();
            comm.recv(as_bytes_mut(&mut buf), 0, &t, 2, Some(0), Some(7))
                .unwrap();
            as_bytes(&buf).to_vec()
        }
    }
}

/// Runs one ssend/recv exchange and returns (receiver buffer bytes,
/// sender wtime bits, receiver wtime bits).
fn run_case(p: Platform, case: Case) -> (Vec<u8>, u64, u64) {
    let results = Universe::run(p, 2, move |comm| {
        let buf = exchange(comm, &case);
        (buf, comm.wtime().to_bits())
    });
    let mut it = results.into_iter();
    let (_, t0) = it.next().unwrap();
    let (buf, t1) = it.next().unwrap();
    (buf, t0, t1)
}

/// The `Chunk` markers each rank traced in one exchange.
fn chunk_markers(case: Case) -> Vec<Vec<TraceEvent>> {
    Universe::run(platform_for(&case, true), 2, move |comm| {
        comm.enable_trace();
        exchange(comm, &case);
        comm.take_trace()
            .into_iter()
            .filter(|e| e.kind == EventKind::Chunk)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked vs. monolithic: identical received bytes (including any
    /// injected corruption, which must land on the same byte) and
    /// bit-equal virtual clocks on both ranks.
    #[test]
    fn chunked_matches_monolithic(case in arb_case()) {
        let (buf_c, s_c, r_c) = run_case(platform_for(&case, true), case.clone());
        let (buf_m, s_m, r_m) = run_case(platform_for(&case, false), case.clone());
        prop_assert_eq!(buf_c, buf_m, "payload bytes diverged: {:?}", case);
        prop_assert_eq!(s_c, s_m, "sender wtime diverged: {:?}", case);
        prop_assert_eq!(r_c, r_m, "receiver wtime diverged: {:?}", case);
    }
}

/// Pinned regression (oracle-discovered class): a chunk cut straddling the
/// `fit` boundary. Sender streams 7 blocks of one f64 (56 bytes, cuts on
/// the 8-byte send grid); receiver posts two instances of
/// vector(2, 3, 4, f64) — 48-byte instances, so fit = 48 < total = 56 and
/// the receive grid cuts at 24/48. With a 40-byte pipeline chunk the
/// second chunk [40, 56) crosses both 48 and the send grid.
#[test]
fn carry_across_fit_boundary_matches_monolithic() {
    let case = Case {
        blocks: 7,
        blocklen: 1,
        gap: 1,
        chunk: 40,
        recv_mode: RecvMode::PartialTrailing,
        fault_seed: None,
    };
    let (buf_c, s_c, r_c) = run_case(platform_for(&case, true), case.clone());
    let (buf_m, s_m, r_m) = run_case(platform_for(&case, false), case.clone());
    assert_eq!(buf_c, buf_m, "payload bytes diverged");
    assert_eq!((s_c, r_c), (s_m, r_m), "virtual clocks diverged");
}

/// The default configuration: a standard derived `send` streams, and its
/// virtual time is bit-equal to the monolithic path.
#[test]
fn default_threshold_send_is_bit_equal() {
    let elems = 1 << 20; // 8 MiB packed: 32 chunks of the default 256 KiB.
    let run = |p: Platform| {
        Universe::run(p, 2, move |comm| {
            if comm.rank() == 0 {
                let src: Vec<f64> = (0..2 * elems).map(|e| e as f64).collect();
                let t = Datatype::vector(elems, 1, 2, &Datatype::f64())
                    .unwrap()
                    .commit();
                comm.send(as_bytes(&src), 0, &t, 1, 1, 3).unwrap();
                (0u64, comm.wtime().to_bits())
            } else {
                let mut buf = vec![0.0f64; elems];
                comm.recv_slice(&mut buf, Some(0), Some(3)).unwrap();
                let sum = buf.iter().sum::<f64>();
                (sum.to_bits(), comm.wtime().to_bits())
            }
        })
    };
    // Default platform (env-driven threshold, one byte unless overridden)
    // vs. explicitly disabled pipeline.
    let chunked = run(Platform::skx_impi());
    let mono = run(Platform::skx_impi().without_pipeline());
    assert_eq!(chunked, mono);
}

/// Pinned regression: a contiguous receive under fault seed 203 takes the
/// direct gather, and the send's corrupt byte must land in it exactly as
/// in the monolithic path.
#[test]
fn direct_gather_flips_the_corrupt_byte() {
    for (blocks, chunk) in [(96, 64), (200, 1000), (478, 4096)] {
        let case = Case {
            blocks,
            blocklen: 2,
            gap: 1,
            chunk,
            recv_mode: RecvMode::Contiguous,
            fault_seed: Some(203),
        };
        let (buf_c, s_c, r_c) = run_case(platform_for(&case, true), case.clone());
        let (buf_m, s_m, r_m) = run_case(platform_for(&case, false), case.clone());
        assert_eq!(buf_c, buf_m, "payload bytes diverged: {case:?}");
        assert_eq!((s_c, r_c), (s_m, r_m), "virtual clocks diverged: {case:?}");
    }
}

/// Every receive mode gathers on both ranks: one marker per non-empty
/// chunk across the two ranks, each index once, carrying the payload.
#[test]
fn every_receive_mode_gathers_on_both_ranks() {
    let modes = [
        RecvMode::Contiguous,
        RecvMode::ContiguousAtOrigin,
        RecvMode::Oversized,
        RecvMode::DenseLowerBound,
        RecvMode::SameVector,
        RecvMode::CoarseVector,
        RecvMode::PartialTrailing,
    ];
    for recv_mode in modes {
        // 64 blocks of 2 f64 (65 for the partial trailing instance):
        // 1024 or 1040 bytes over 128-byte chunks, every chunk non-empty
        // since the cuts land on the 16-byte block grid.
        let blocks = if recv_mode == RecvMode::PartialTrailing {
            65
        } else {
            64
        };
        let case = Case {
            blocks,
            blocklen: 2,
            gap: 1,
            chunk: 128,
            recv_mode,
            fault_seed: None,
        };
        let total = blocks * 2 * 8;
        let markers = chunk_markers(case);
        let mut seqs: Vec<u32> = markers.iter().flatten().map(|e| e.seq.unwrap()).collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            (0..total.div_ceil(128) as u32).collect::<Vec<_>>(),
            "{recv_mode:?}"
        );
        let bytes: usize = markers.iter().flatten().map(|e| e.bytes).sum();
        assert_eq!(bytes, total, "{recv_mode:?}");
    }
}

/// Rank 0 runs `send`, rank 1 runs `recv`, both traced; returns the sorted
/// `Chunk` sequence numbers of both ranks together.
fn chunk_seqs(
    p: Platform,
    send: impl Fn(&mut Comm) + Send + Sync,
    recv: impl Fn(&mut Comm) + Send + Sync,
) -> Vec<u32> {
    let per_rank = Universe::run(p, 2, |comm| {
        comm.enable_trace();
        if comm.rank() == 0 {
            send(comm);
        } else {
            recv(comm);
        }
        comm.take_trace()
            .into_iter()
            .filter(|e| e.kind == EventKind::Chunk)
            .map(|e| e.seq.unwrap())
            .collect::<Vec<_>>()
    });
    let mut seqs = per_rank.concat();
    seqs.sort_unstable();
    seqs
}

/// Every other `f64` of a `2 * elems`-element source.
fn every_other_f64(elems: usize) -> (Vec<f64>, Datatype) {
    let src = (0..2 * elems).map(|e| e as f64).collect();
    let t = Datatype::vector(elems, 1, 2, &Datatype::f64()).unwrap().commit();
    (src, t)
}

/// On the default platform a 1 MiB derived rendezvous into a contiguous
/// receive moves through the handoff: four 256 KiB chunks, each gathered
/// once across the two ranks.
#[test]
fn default_derived_rendezvous_rides_the_handoff() {
    let elems = (1 << 20) / 8;
    let (src, t) = every_other_f64(elems);
    let seqs = chunk_seqs(
        Platform::skx_impi(),
        |comm| comm.send(as_bytes(&src), 0, &t, 1, 1, 5).unwrap(),
        |comm| {
            let mut buf = vec![0.0f64; elems];
            comm.recv_slice(&mut buf, Some(0), Some(5)).unwrap();
            assert!(buf.iter().enumerate().all(|(i, &v)| v == (2 * i) as f64));
        },
    );
    assert_eq!(seqs, [0, 1, 2, 3]);
}

/// An eager derived send at the eager limit and a 1 MiB buffered send
/// complete without a rendezvous, so neither streams.
#[test]
fn eager_and_buffered_sends_do_not_stream() {
    let p = Platform::skx_impi();
    let eager = (64 << 10) / 8;
    assert!((eager * 8) as u64 <= p.eager_threshold(false), "must be eager");
    let (src, t) = every_other_f64(eager);
    let seqs = chunk_seqs(
        p.clone(),
        |comm| comm.send(as_bytes(&src), 0, &t, 1, 1, 5).unwrap(),
        |comm| {
            let mut buf = vec![0.0f64; eager];
            comm.recv_slice(&mut buf, Some(0), Some(5)).unwrap();
        },
    );
    assert_eq!(seqs, []);

    let big = (1 << 20) / 8;
    let (src, t) = every_other_f64(big);
    let seqs = chunk_seqs(
        p,
        |comm| {
            comm.buffer_attach(Comm::bsend_size(&t, 1).unwrap()).unwrap();
            comm.bsend(as_bytes(&src), 0, &t, 1, 1, 5).unwrap();
        },
        |comm| {
            let mut buf = vec![0.0f64; big];
            comm.recv_slice(&mut buf, Some(0), Some(5)).unwrap();
            assert!(buf.iter().enumerate().all(|(i, &v)| v == (2 * i) as f64));
        },
    );
    assert_eq!(seqs, []);
}

/// A zero-count derived `ssend` rendezvouses with nothing to gather: it
/// stays on the whole-payload mover and completes.
#[test]
fn zero_count_derived_ssend_completes() {
    let (_, t) = every_other_f64(4);
    let seqs = chunk_seqs(
        Platform::skx_impi().with_deadlock_timeout(5.0),
        |comm| comm.ssend(&[], 0, &t, 0, 1, 5).unwrap(),
        |comm| {
            let st = comm.recv(&mut [], 0, &t, 0, Some(0), Some(5)).unwrap();
            assert_eq!(st.bytes, 0);
        },
    );
    assert_eq!(seqs, []);
}

/// A forced iovec send moves its bytes through the handoff too: the
/// oracle's payload arrives in a contiguous and in a derived receive, in
/// four chunks each. Iovec sends take no chunk faults, so a plan that
/// faults every chunk leaves `chunk_retries` at zero.
#[test]
fn iovec_send_rides_the_handoff_without_chunk_faults() {
    // 512 regions of 2 KiB: 1 MiB packed, under the iovec region cap.
    let t = Datatype::vector(512, 256, 320, &Datatype::f64()).unwrap().commit();
    let extent = t.extent() as usize;
    let src: Vec<u8> = (0..extent).map(|i| (i * 131 + 7) as u8).collect();
    let mut oracle = vec![0u8; t.size() as usize];
    pack_into_uncompiled(&src, 0, &t, 1, &mut oracle).unwrap();
    let faulty = FaultPlan::quiet(3).with_chunk_faults(1.0, 0.0);
    let base = Platform::skx_impi().with_datapath(Datapath::Iov).with_deadlock_timeout(5.0);
    for p in [base.clone(), base.with_fault_plan(faulty)] {
        for derived in [false, true] {
            let seqs = chunk_seqs(
                p.clone(),
                |comm| {
                    comm.send(&src, 0, &t, 1, 1, 5).unwrap();
                    assert_eq!(comm.fault_stats().chunk_retries, 0);
                },
                |comm| {
                    let got = if derived {
                        let mut buf = vec![0u8; extent];
                        comm.recv(&mut buf, 0, &t, 1, Some(0), Some(5)).unwrap();
                        let mut packed = vec![0u8; oracle.len()];
                        pack_into_uncompiled(&buf, 0, &t, 1, &mut packed).unwrap();
                        packed
                    } else {
                        let mut buf = vec![0u8; oracle.len()];
                        comm.recv_bytes(&mut buf, Some(0), Some(5)).unwrap();
                        buf
                    };
                    assert!(got == oracle, "iovec bytes differ from the oracle");
                },
            );
            assert_eq!(seqs, [0, 1, 2, 3], "derived receive: {derived}");
        }
    }
}
