//! Regression tests for two latent bugs flushed out by the ddtbench
//! application kernels:
//!
//! 1. Region-cap overflow: a plan that lowers to more than
//!    `iov_max_regions()` descriptors must deterministically demote a
//!    forced-iovec send to the staged pack path (counted in the existing
//!    demotion counter) and must never be chosen by the selector.
//! 2. Skew blindness: the selector used to price descriptors by mean
//!    region length, over-favouring iovec on layouts that mix a few huge
//!    regions with hundreds of sub-cacheline ones (LAMMPS atom
//!    exchange). Sub-line regions now pay the full per-descriptor cost,
//!    so forced-iovec is never faster than auto on such layouts.

use nonctg_core::datatype::Datatype;
use nonctg_core::{EventKind, FaultStats, Universe};
use nonctg_simnet::{Datapath, Platform};

fn quiet() -> Platform {
    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    p
}

/// `nblocks` non-mergeable byte blocks of `blocklen` separated by
/// one-byte gaps, plus a patterned source buffer covering the extent.
fn gapped_blocks(nblocks: usize, blocklen: usize) -> (Datatype, Vec<u8>) {
    let blocks: Vec<(usize, i64)> = (0..nblocks)
        .map(|i| (blocklen, (i * (blocklen + 1)) as i64))
        .collect();
    let t = Datatype::indexed(&blocks, &Datatype::byte()).unwrap().commit();
    let extent = t.extent() as usize;
    let src: Vec<u8> = (0..extent).map(|i| (i.wrapping_mul(181) + 3) as u8).collect();
    (t, src)
}

/// The skewed LAMMPS-like shape: a few multi-KiB blocks among hundreds
/// of sub-cacheline ones, totalling past the eager limit so the
/// rendezvous datapath choice is exercised.
fn skewed_blocks() -> (Datatype, Vec<u8>) {
    let mut blocks: Vec<(usize, i64)> = Vec::new();
    let mut disp = 0i64;
    for i in 0..706usize {
        let len = if i % 120 == 0 { 2048 } else { 3 }; // 6 big + 700 tiny f64 runs
        blocks.push((len, disp));
        disp += len as i64 + 1; // gap prevents coalescing
    }
    let t = Datatype::indexed(&blocks, &Datatype::f64()).unwrap().commit();
    let extent = t.extent() as usize;
    let src: Vec<u8> = (0..extent).map(|i| (i.wrapping_mul(97) + 11) as u8).collect();
    (t, src)
}

/// One-way send 0 -> 1; returns (rank-1 buffer, rank-0 fault stats,
/// max virtual time across ranks, rank-0 trace event kinds). Which rank
/// gathers a chunk of a streamed send is a race, so the `Chunk` markers
/// are left out of the kinds and checked here instead: across both ranks
/// every chunk index appears exactly once.
fn one_way(
    platform: Platform,
    dtype: Datatype,
    src: Vec<u8>,
) -> (Vec<u8>, FaultStats, f64, Vec<EventKind>) {
    let n = src.len();
    let mut results = Universe::run_supervised(platform, 2, move |comm| {
        comm.enable_trace();
        let buf = if comm.rank() == 0 {
            comm.send(&src, 0, &dtype, 1, 1, 0)?;
            Vec::new()
        } else {
            let mut buf = vec![0u8; n];
            comm.recv(&mut buf, 0, &dtype, 1, Some(0), Some(0))?;
            buf
        };
        let (chunks, rest): (Vec<_>, Vec<_>) =
            comm.take_trace().into_iter().partition(|e| e.kind == EventKind::Chunk);
        let kinds = rest.into_iter().map(|e| e.kind).collect();
        let seqs: Vec<u32> = chunks.into_iter().map(|e| e.seq.unwrap()).collect();
        Ok((buf, comm.fault_stats(), comm.wtime(), kinds, seqs))
    });
    let (r1, _, t1, _, seqs1) = results.pop().unwrap().unwrap();
    let (_, stats0, t0, trace, seqs0) = results.pop().unwrap().unwrap();
    let mut seqs = [seqs0, seqs1].concat();
    seqs.sort_unstable();
    assert!(seqs.iter().copied().eq(0..seqs.len() as u32), "chunk indices {seqs:?}");
    (r1, stats0, t0.max(t1), trace)
}

/// Gather the payload bytes a receiver buffer should hold for a
/// gapped-blocks layout, for comparison against a pack reference.
fn assert_blocks(src: &[u8], got: &[u8], blocks: &[(usize, i64)]) {
    for &(len, disp) in blocks {
        let lo = disp as usize;
        assert_eq!(&got[lo..lo + len], &src[lo..lo + len], "block at {disp}");
    }
}

/// At exactly the region cap, forced-iovec goes through the zero-copy
/// path without demotion; one region past the cap it deterministically
/// demotes to pack, increments the demotion counter, and still delivers
/// bit-identical bytes.
#[test]
fn forced_iov_demotes_past_region_cap() {
    let cap = nonctg_core::iov_max_regions();
    let blocklen = 128usize; // cap * 128 B comfortably exceeds the eager limit

    let (t_at, src_at) = gapped_blocks(cap, blocklen);
    let (r_at, stats_at, _, trace_at) =
        one_way(quiet().with_datapath(Datapath::Iov), t_at, src_at.clone());
    assert_eq!(
        stats_at.iovec_demotions, 0,
        "a plan at the cap must not demote: {stats_at:?}"
    );
    // A forced engine skips the selector: no `Select`, no staging.
    assert_eq!(trace_at, [EventKind::Send]);
    let blocks_at: Vec<(usize, i64)> =
        (0..cap).map(|i| (blocklen, (i * (blocklen + 1)) as i64)).collect();
    assert_blocks(&src_at, &r_at, &blocks_at);

    let (t_over, src_over) = gapped_blocks(cap + 1, blocklen);
    let (r_iov, stats_over, _, trace_over) =
        one_way(quiet().with_datapath(Datapath::Iov), t_over.clone(), src_over.clone());
    assert!(
        stats_over.iovec_demotions >= 1,
        "cap+1 regions must demote the forced-iovec send: {stats_over:?}"
    );
    assert_eq!(trace_over, [EventKind::Demote, EventKind::Stage, EventKind::Send]);
    let (r_pack, _, _, _) = one_way(quiet().with_datapath(Datapath::Pack), t_over, src_over);
    assert_eq!(r_iov, r_pack, "demoted send must match the pack reference");
}

/// The selector never picks iovec for a layout past the region cap: the
/// plan's bounded region list is `None`, so auto mode lands on pack.
#[test]
fn selector_never_chooses_iovec_past_region_cap() {
    let cap = nonctg_core::iov_max_regions();
    let (t, src) = gapped_blocks(cap + 1, 128);
    let base = nonctg_core::selector_counters();
    let (_, stats, _, _) = one_way(quiet(), t, src);
    let delta = nonctg_core::selector_counters().delta_since(&base);
    assert_eq!(delta.iov, 0, "selector chose iovec past the cap: {delta:?}");
    assert_eq!(
        stats.iovec_demotions, 0,
        "auto mode must route around the cap without a demotion event: {stats:?}"
    );
}

/// On a skewed layout (6 multi-KiB regions among 700 sub-cacheline
/// ones) the shape-aware selector keeps pack, and forcing iovec is no
/// faster than auto — the regression the mean-region-length selector
/// used to exhibit.
#[test]
fn forced_iov_not_faster_than_auto_on_skewed_layout() {
    let (t, src) = skewed_blocks();
    assert!(t.size() > 64 * 1024, "layout must exceed the eager limit");

    let base = nonctg_core::selector_counters();
    let (auto_buf, _, auto_time, _) = one_way(quiet(), t.clone(), src.clone());
    let delta = nonctg_core::selector_counters().delta_since(&base);
    assert_eq!(delta.iov, 0, "skewed layout must not select iovec: {delta:?}");
    assert!(delta.pack >= 1, "skewed layout should select pack: {delta:?}");

    let (iov_buf, _, iov_time, _) = one_way(quiet().with_datapath(Datapath::Iov), t, src);
    assert_eq!(auto_buf, iov_buf, "datapaths disagree on payload bytes");
    assert!(
        iov_time >= auto_time,
        "forced iovec beat auto on a skewed layout: iov={iov_time:e} auto={auto_time:e}"
    );
}
