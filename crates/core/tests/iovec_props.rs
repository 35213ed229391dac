//! Property tests of the zero-copy iovec datapath: whatever engine moves
//! the bytes — staged pack, direct region scatter, or a fault-demoted
//! mixture — the receiver's buffer must be bit-identical, including under
//! chaos fault plans.

use nonctg_core::datatype::Datatype;
use nonctg_core::selector::{self, select, CrossoverTable, RegionShape, SendKind};
use nonctg_core::datatype::DatatypeError;
use nonctg_core::{CoreError, FaultStats, Universe};
use nonctg_simnet::{Datapath, FaultPlan, Platform};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that read the process-wide selector counters: an
/// auto-mode send running concurrently in another test would show up in
/// their deltas.
fn selector_counters_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // The guarded value is `()`, so a panic in another holder leaves
    // nothing inconsistent behind.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn quiet() -> Platform {
    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    p
}

/// Build a strided byte vector type and a patterned source buffer big
/// enough for `count` regions of `blocklen` bytes at `stride`.
fn vector_case(count: usize, blocklen: usize, stride: usize) -> (Datatype, Vec<u8>) {
    let src_len = (count - 1) * stride + blocklen;
    let src: Vec<u8> = (0..src_len).map(|i| (i.wrapping_mul(131) + 7) as u8).collect();
    let t = Datatype::vector(count, blocklen, stride as i64, &Datatype::byte())
        .unwrap()
        .commit();
    (t, src)
}

/// Pingpong one strided message 0 -> 1 -> 0 on `platform`; return
/// (rank-0 round-trip receive buffer, rank-1 receive buffer, rank-0
/// fault stats). The receive buffers start from distinct sentinels so
/// untouched gap bytes are distinguishable per rank.
fn pingpong(
    platform: Platform,
    dtype: Datatype,
    src: Vec<u8>,
) -> (Vec<u8>, Vec<u8>, FaultStats) {
    let n = src.len();
    let mut results = Universe::run_supervised(platform, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send(&src, 0, &dtype, 1, 1, 0)?;
            let mut back = vec![0xAAu8; n];
            comm.recv(&mut back, 0, &dtype, 1, Some(1), Some(1))?;
            Ok((back, comm.fault_stats()))
        } else {
            let mut buf = vec![0xBBu8; n];
            comm.recv(&mut buf, 0, &dtype, 1, Some(0), Some(0))?;
            comm.send(&buf, 0, &dtype, 1, 0, 1)?;
            Ok((buf, comm.fault_stats()))
        }
    });
    let (r1, _) = results.pop().unwrap().unwrap();
    let (r0, stats0) = results.pop().unwrap().unwrap();
    (r0, r1, stats0)
}

/// Strided blocks of `got` must match `src`; gap bytes must keep `fill`.
fn assert_layout(src: &[u8], got: &[u8], count: usize, blocklen: usize, stride: usize, fill: u8) {
    for r in 0..count {
        let lo = r * stride;
        assert_eq!(&got[lo..lo + blocklen], &src[lo..lo + blocklen], "region {r}");
        let gap_hi = if r + 1 < count { lo + stride } else { got.len() };
        for (i, &b) in got[lo + blocklen..gap_hi].iter().enumerate() {
            assert_eq!(b, fill, "gap byte {i} after region {r} was touched");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forced-iovec and forced-pack pingpongs deliver bit-identical
    /// buffers on both ranks, across region shapes that straddle the
    /// eager limit, the selector crossover, and the region cap.
    #[test]
    fn forced_iov_matches_forced_pack(
        count in 1usize..600,
        blocklen in 1usize..2048,
        gap in 0usize..512,
    ) {
        let stride = blocklen + gap;
        let (t, src) = vector_case(count, blocklen, stride);
        let (p0, p1, _) =
            pingpong(quiet().with_datapath(Datapath::Pack), t.clone(), src.clone());
        let (i0, i1, _) =
            pingpong(quiet().with_datapath(Datapath::Iov), t, src.clone());
        prop_assert_eq!(&p1, &i1, "rank-1 buffers diverge");
        prop_assert_eq!(&p0, &i0, "round-trip buffers diverge");
        assert_layout(&src, &i1, count, blocklen, stride, 0xBB);
        assert_layout(&src, &i0, count, blocklen, stride, 0xAA);
    }

    /// Under a chaos fault plan the iovec path still delivers every
    /// payload byte (demoting to pack where the ladder says so), and the
    /// pack reference sees the same bytes.
    #[test]
    fn chaos_seeds_preserve_iovec_payloads(seed in 0u64..24) {
        let (count, blocklen, stride) = (256usize, 512usize, 768usize);
        let (t, src) = vector_case(count, blocklen, stride);
        let chaos = FaultPlan::chaos(seed);
        let iov = quiet().with_datapath(Datapath::Iov).with_fault_plan(chaos.clone());
        let pack = quiet().with_datapath(Datapath::Pack).with_fault_plan(chaos);
        let (i0, i1, _) = pingpong(iov, t.clone(), src.clone());
        let (p0, p1, _) = pingpong(pack, t, src.clone());
        assert_layout(&src, &i1, count, blocklen, stride, 0xBB);
        assert_layout(&src, &i0, count, blocklen, stride, 0xAA);
        prop_assert_eq!(&i1, &p1);
        prop_assert_eq!(&i0, &p0);
    }
}

/// With the pool exhausted the fault ladder demotes iovec sends to the
/// staged pack path, counts the demotion, and still delivers intact.
#[test]
fn pool_exhaustion_demotes_iovec_to_pack() {
    let (count, blocklen, stride) = (256usize, 512usize, 768usize);
    let (t, src) = vector_case(count, blocklen, stride);
    let p = quiet()
        .with_datapath(Datapath::Iov)
        .with_fault_plan(FaultPlan::quiet(3).with_pool_exhaustion(1.0));
    let (r0, r1, stats0) = pingpong(p, t, src.clone());
    assert!(stats0.iovec_demotions >= 1, "no demotion recorded: {stats0:?}");
    assert_layout(&src, &r1, count, blocklen, stride, 0xBB);
    assert_layout(&src, &r0, count, blocklen, stride, 0xAA);
}

/// In auto mode a long-region rendezvous workload actually routes
/// through the selector to iovec, and matches the forced-pack result.
#[test]
fn auto_mode_selects_iovec_for_long_regions() {
    let (count, blocklen, stride) = (256usize, 512usize, 768usize);
    let (t, src) = vector_case(count, blocklen, stride);
    let _serial = selector_counters_lock();
    let base = nonctg_core::selector_counters();
    let (a0, a1, _) = pingpong(quiet(), t.clone(), src.clone());
    let delta = nonctg_core::selector_counters().delta_since(&base);
    assert!(delta.iov >= 2, "selector never chose iovec: {delta:?}");
    let (p0, p1, _) = pingpong(quiet().with_datapath(Datapath::Pack), t, src);
    assert_eq!(a1, p1);
    assert_eq!(a0, p0);
}

/// The paper's every-other-f64 workloads (8-byte regions) must keep
/// selecting pack: the zero-copy path never silently changes the
/// figures the repo reproduces.
#[test]
fn auto_mode_keeps_pack_for_paper_workloads() {
    let (count, blocklen, stride) = (32 * 1024usize, 8usize, 16usize);
    let (t, src) = vector_case(count, blocklen, stride);
    let _serial = selector_counters_lock();
    let base = nonctg_core::selector_counters();
    let (_, r1, _) = pingpong(quiet(), t, src.clone());
    let delta = nonctg_core::selector_counters().delta_since(&base);
    assert_eq!(delta.iov, 0, "8-byte regions must not take iovec: {delta:?}");
    assert_layout(&src, &r1, count, blocklen, stride, 0xBB);
}

/// Virtual seconds (max over ranks) of one strided send 0 -> 1 of
/// `count` regions of `blocklen` bytes at `stride`.
fn send_time(platform: Platform, count: usize, blocklen: usize, stride: usize) -> f64 {
    let (dtype, src) = vector_case(count, blocklen, stride);
    let n = src.len();
    let times = Universe::run(platform, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send(&src, 0, &dtype, 1, 1, 0).unwrap();
        } else {
            let mut buf = vec![0u8; n];
            comm.recv(&mut buf, 0, &dtype, 1, Some(0), Some(0)).unwrap();
        }
        comm.wtime()
    });
    times.into_iter().fold(0.0f64, f64::max)
}

/// For long regions the zero-copy path must be faster in virtual time
/// than the staged pack path — the perf claim the selector encodes.
#[test]
fn iovec_is_faster_for_long_regions() {
    let time = |engine| send_time(quiet().with_datapath(engine), 256, 4096, 4608);
    let (pack, iov) = (time(Datapath::Pack), time(Datapath::Iov));
    assert!(iov < pack, "iovec not faster: iov={iov:e} pack={pack:e}");
}

/// The one selection policy: a forced engine wins outright, and the
/// selector asks for the region shape only of an iovec-eligible send.
#[test]
fn select_asks_for_the_shape_only_when_eligible() {
    let p = Platform::skx_impi();
    let plain = SendKind::default();
    let (big, eager) = (1 << 20, p.eager_threshold(false));
    let long = || Some(RegionShape::uniform(16));
    assert_eq!(select(&p, big, plain, long), Datapath::Iov);
    for (bytes, kind) in [(eager, plain), (big, SendKind { buffered: true, ..plain })] {
        let chosen = select(&p, bytes, kind, || panic!("shape of an ineligible send"));
        assert_eq!(chosen, Datapath::Pack, "{bytes} {kind:?}");
    }
    // A synchronous send is a rendezvous even below the eager limit.
    let sync = SendKind { synchronous: true, ..plain };
    assert_eq!(select(&p, eager, sync, long), Datapath::Iov);
    let forced = p.with_datapath(Datapath::Elem);
    let chosen = select(&forced, big, plain, || panic!("shape of a forced send"));
    assert_eq!(chosen, Datapath::Elem);
}

/// The selector's seeded crossovers are calibrated against the cost
/// model: on every platform, a 900-region send (under the iovec cap, and
/// rendezvous-sized everywhere) is timed through forced pack and forced
/// iovec at region lengths straddling the seeded `iov_min_region_bytes`.
/// `choose_shape` must pick the measured winner wherever the engines differ by
/// more than 10% (the crossover itself is a near-tie), and the measured
/// crossover must stay within a factor of two of the seeded one; a cost
/// model change that moves it further must re-seed the table.
#[test]
fn seeded_crossover_tracks_the_cost_model() {
    const REGIONS: usize = 900;
    const LENS: [usize; 8] = [96, 128, 160, 192, 256, 512, 1024, 4096];
    const TIE: f64 = 0.10;
    for p in Platform::all() {
        let name = p.id.name();
        let forced = |engine| {
            let mut q = p.clone().with_datapath(engine);
            q.jitter_sigma = 0.0;
            q
        };
        let mut measured = None;
        for region in LENS {
            let pack_s = send_time(forced(Datapath::Pack), REGIONS, region, 2 * region);
            let iov_s = send_time(forced(Datapath::Iov), REGIONS, region, 2 * region);
            if iov_s < pack_s {
                measured.get_or_insert(region as u64);
            }
            if (pack_s - iov_s).abs() / pack_s.min(iov_s) > TIE {
                let winner = if iov_s < pack_s {
                    Datapath::Iov
                } else {
                    Datapath::Pack
                };
                let shape = RegionShape::uniform(REGIONS as u64);
                let chosen = selector::choose_shape(p.id, (REGIONS * region) as u64, Some(shape));
                assert_eq!(
                    chosen, winner,
                    "{name}: selector picked {chosen:?} but {winner:?} wins at region={region} \
                     (pack {pack_s:.3e}s, iov {iov_s:.3e}s)"
                );
            }
        }
        let seeded = CrossoverTable::seeded(p.id).iov_min_region_bytes;
        let measured = measured.unwrap_or_else(|| panic!("{name}: iovec never overtook pack"));
        assert!(
            (seeded / 2..=seeded * 2).contains(&measured),
            "{name}: measured crossover {measured} B drifted from seeded {seeded} B"
        );
    }
}

/// A bad user buffer fails the forced iovec datapath with exactly the
/// typed error the pack datapath returns, before any byte moves: a short
/// source on the send side; a short buffer or a negative displacement on
/// the receive side, whose buffer is left untouched.
#[test]
fn iovec_bad_buffers_fail_like_pack() {
    let t = Datatype::vector(256, 4096, 8192, &Datatype::byte()).unwrap().commit();
    let span = 255 * 8192 + 4096;
    let oob = |from: i64, to: usize, len: usize| {
        CoreError::Datatype(DatatypeError::OutOfBounds {
            needed_from: from,
            needed_to: to as i64,
            buffer_len: len,
        })
    };

    // Send side: a source 8 bytes short. Rank 1 posts nothing, so a send
    // that fails before posting leaves no one waiting.
    let short_send = |path: Datapath| {
        let t = t.clone();
        let mut results = Universe::run_supervised(quiet().with_datapath(path), 2, move |comm| {
            if comm.rank() == 0 {
                Ok(comm.send(&vec![1u8; span - 8], 0, &t, 1, 1, 0).err())
            } else {
                Ok(None)
            }
        });
        results.swap_remove(0)
    };
    let pack = short_send(Datapath::Pack);
    assert_eq!(pack, Ok(Some(oob(0, span, span - 8))));
    assert_eq!(short_send(Datapath::Iov), pack);

    // Receive side: a valid send into `len` bytes laid out by `rtype`.
    let recv_into = |path: Datapath, rtype: &Datatype, len: usize| {
        let (t, rtype) = (t.clone(), rtype.clone());
        let mut results = Universe::run_supervised(quiet().with_datapath(path), 2, move |comm| {
            if comm.rank() == 0 {
                comm.send(&vec![1u8; span], 0, &t, 1, 1, 0)?;
                Ok(None)
            } else {
                let mut buf = vec![0xAAu8; len];
                let err = comm.recv(&mut buf, 0, &rtype, 1, Some(0), Some(0)).err();
                // The rejected receive left the message queued: take it,
                // or the sender's rendezvous never completes.
                comm.recv(&mut vec![0u8; span], 0, &t, 1, Some(0), Some(0))?;
                Ok(Some((err, buf)))
            }
        });
        let (err, buf) = results.pop().unwrap().unwrap().unwrap();
        assert!(buf.iter().all(|&b| b == 0xAA), "{path:?}: receive buffer was written");
        err
    };
    let shifted = Datatype::hindexed(&[(1, -8192)], &t).unwrap().commit();
    for (rtype, len, want) in [
        (&t, span - 8, oob(0, span, span - 8)),
        (&shifted, span, oob(-8192, span - 8192, span)),
    ] {
        let pack = recv_into(Datapath::Pack, rtype, len);
        assert_eq!(pack, Some(want));
        assert_eq!(recv_into(Datapath::Iov, rtype, len), pack);
    }
}
