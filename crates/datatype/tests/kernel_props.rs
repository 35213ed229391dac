//! Differential property tests for the SIMD gather/scatter kernel tier:
//! every runnable tier (AVX2, SSE2, NEON, scalar, off), with streaming
//! stores both forced on and off, must be byte-identical to a naive
//! per-block oracle — across random alignments, block lengths from zero
//! to ~3 vector widths, negative strides, and misaligned heads/tails —
//! and whole compiled plans forced through each tier must produce
//! byte-identical packed buffers and unpacked destinations.
//!
//! The kernels are selected once per process in production
//! (`NONCTG_SIMD`); these tests bypass that via the `*_checked` /
//! `*_forced` hooks so one run covers every tier the host can execute.

use nonctg_datatype::{
    available_tiers, gather_checked, pack_size, scatter_checked, ArrayOrder, Datatype, PackPlan,
    SimdTier,
};
use proptest::prelude::*;

/// Naive gather oracle: one `copy_from_slice` per block.
fn naive_gather(src: &[u8], first: i64, stride: i64, bl: usize, nblocks: usize) -> Vec<u8> {
    let mut out = vec![0u8; nblocks * bl];
    for j in 0..nblocks {
        let off = (first + j as i64 * stride) as usize;
        out[j * bl..(j + 1) * bl].copy_from_slice(&src[off..off + bl]);
    }
    out
}

/// Naive scatter oracle: the dual of [`naive_gather`]; bytes of `dst`
/// outside the blocks are left untouched.
fn naive_scatter(input: &[u8], dst: &mut [u8], first: i64, stride: i64, bl: usize) {
    for (j, block) in input.chunks_exact(bl).enumerate() {
        let off = (first + j as i64 * stride) as usize;
        dst[off..off + bl].copy_from_slice(block);
    }
}

/// Valid strided-access parameters by construction: a source buffer of
/// pseudo-random bytes with a random head offset (`first`), a stride
/// that may run forward (with gap or overlap) or backward, and a block
/// length spanning 0..96 bytes (three AVX2 widths).
#[derive(Debug, Clone)]
struct StridedCase {
    src: Vec<u8>,
    first: i64,
    stride: i64,
    bl: usize,
    nblocks: usize,
}

fn arb_strided() -> impl Strategy<Value = StridedCase> {
    (
        0usize..97,     // bl: 0..=96, three vector widths
        0usize..49,     // nblocks
        -17i64..33,     // stride - bl: negative = overlap, backward runs
        0usize..32,     // head misalignment
        proptest::bool::ANY, // reverse: walk blocks backwards
        0u64..u64::MAX, // content seed
    )
        .prop_map(|(bl, nblocks, gap, head, reverse, seed)| {
            let stride_abs = (bl as i64 + gap).max(bl.max(1) as i64);
            let span = if nblocks == 0 {
                0
            } else {
                (nblocks - 1) as i64 * stride_abs + bl as i64
            };
            let (first, stride) = if reverse {
                (head as i64 + span - bl as i64, -stride_abs)
            } else {
                (head as i64, stride_abs)
            };
            let len = head + span as usize + 24; // tail slack past the last block
            let mut x = seed | 1;
            let src: Vec<u8> = (0..len)
                .map(|_| {
                    // xorshift: cheap deterministic noise.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            StridedCase { src, first, stride, bl, nblocks }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every tier × {cached, streaming} gather matches the naive oracle
    /// (and therefore every other tier) byte for byte.
    #[test]
    fn gather_all_tiers_match_oracle(case in arb_strided()) {
        let StridedCase { src, first, stride, bl, nblocks } = case;
        let expect = naive_gather(&src, first, stride, bl, nblocks);
        for tier in available_tiers() {
            for stream in [false, true] {
                let got = gather_checked(tier, stream, &src, first, stride, bl, nblocks)
                    .expect("constructed case is in-bounds");
                prop_assert_eq!(
                    &got, &expect,
                    "tier {} stream {} diverged (bl={}, stride={}, first={}, n={})",
                    tier.name(), stream, bl, stride, first, nblocks
                );
            }
        }
    }

    /// Every tier's scatter matches the naive oracle, including the gap
    /// bytes it must not touch (whole-destination comparison).
    #[test]
    fn scatter_all_tiers_match_oracle(case in arb_strided()) {
        let StridedCase { src, first, stride, bl, nblocks } = case;
        prop_assume!(bl > 0);
        // Reuse the gathered bytes as scatter input; `src` doubles as
        // the pre-filled destination pattern.
        let input = naive_gather(&src, first, stride, bl, nblocks);
        let mut expect = src.clone();
        naive_scatter(&input, &mut expect, first, stride, bl);
        for tier in available_tiers() {
            let mut got = src.clone();
            prop_assert!(scatter_checked(tier, &input, &mut got, first, stride, bl));
            prop_assert_eq!(
                &got, &expect,
                "tier {} scatter diverged (bl={}, stride={}, first={}, n={})",
                tier.name(), bl, stride, first, nblocks
            );
        }
    }

    /// Out-of-bounds parameters are rejected by every tier, never
    /// executed: the checked hooks return None/false without touching
    /// memory.
    #[test]
    fn checked_hooks_reject_out_of_bounds(case in arb_strided(), overshoot in 1usize..64) {
        let StridedCase { src, first, stride, bl, nblocks } = case;
        prop_assume!(nblocks > 0 && bl > 0);
        // Truncate the buffer so the last block's tail falls outside.
        let span = first.max(first + (nblocks - 1) as i64 * stride) as usize + bl;
        let cut = span.saturating_sub(overshoot.min(bl - 1).max(1)).min(src.len());
        let short = &src[..cut];
        for tier in available_tiers() {
            prop_assert!(
                gather_checked(tier, false, short, first, stride, bl, nblocks).is_none()
            );
            let input = vec![0xCDu8; nblocks * bl];
            let mut dst = short.to_vec();
            let before = dst.clone();
            prop_assert!(!scatter_checked(tier, &input, &mut dst, first, stride, bl));
            prop_assert_eq!(&dst, &before, "rejected scatter wrote to dst");
        }
    }
}

/// A plannable type zoo for the plan-level tier equivalence test:
/// strided vectors (the NT-store targets), odd block lengths (the
/// loose-16 kernel), small structs (the pshufb record kernel), and
/// subarrays with 16-byte-multiple rows.
fn arb_plan_type() -> impl Strategy<Value = Datatype> {
    prop_oneof![
        // Strided vector over f64: bl 8 — the NT 8-byte kernel.
        (1usize..64, 1usize..5, 0i64..4).prop_map(|(n, bl, gap)| {
            Datatype::vector(n, bl, bl as i64 + gap, &Datatype::f64()).unwrap()
        }),
        // Strided vector over i32: bl 4.
        (1usize..64, 1usize..5, 0i64..4).prop_map(|(n, bl, gap)| {
            Datatype::vector(n, bl, bl as i64 + gap, &Datatype::i32()).unwrap()
        }),
        // Byte vector with odd block lengths: the loose-16 kernel.
        (1usize..48, 1usize..15, 1i64..17).prop_map(|(n, bl, gap)| {
            Datatype::vector(n, bl, bl as i64 + gap, &Datatype::byte()).unwrap()
        }),
        // The paper's interleaved struct {double, int}: record kernel.
        (1usize..5).prop_map(|pad| {
            Datatype::structure(&[
                (1, 0, Datatype::f64()),
                (1, 8, Datatype::i32()),
                (0, 12 + pad as i64, Datatype::byte()),
            ])
            .unwrap()
        }),
        // 2-D subarray with 16-byte-multiple rows: the NT 16x kernel.
        (1usize..6, 1usize..4, 0usize..2).prop_map(|(rows, cols16, start)| {
            let cols = cols16 * 16;
            Datatype::subarray(
                &[rows + start, cols + 16],
                &[rows, cols],
                &[start, 0],
                ArrayOrder::C,
                &Datatype::byte(),
            )
            .unwrap()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole plans forced through every tier × {stream on, off} produce
    /// byte-identical packed buffers and unpacked destinations to the
    /// `Off` tier (pure memcpy ops).
    #[test]
    fn forced_tiers_pack_and_unpack_identically(
        d in arb_plan_type(),
        count in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let plan = PackPlan::compile(&d, count).expect("zoo types are plannable");
        let total = pack_size(&d, count).unwrap();
        let origin = (-d.true_lb()).max(0) as usize;
        let len = origin + d.true_ub().max(0) as usize + d.extent() as usize * count + 64;
        let mut x = seed | 1;
        let src: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();

        let mut reference = vec![0u8; total];
        plan.pack_into_forced(&src, origin, &mut reference, SimdTier::Off, false).unwrap();
        let mut ref_dst = vec![0u8; len];
        ref_dst.copy_from_slice(&src);
        plan.unpack_from_forced(&reference, &mut ref_dst, origin, SimdTier::Off).unwrap();

        for tier in available_tiers() {
            for stream in [false, true] {
                let mut packed = vec![0u8; total];
                plan.pack_into_forced(&src, origin, &mut packed, tier, stream).unwrap();
                prop_assert_eq!(
                    &packed, &reference,
                    "pack diverged: tier {} stream {}",
                    tier.name(), stream
                );
                let mut dst = vec![0u8; len];
                dst.copy_from_slice(&src);
                plan.unpack_from_forced(&packed, &mut dst, origin, tier).unwrap();
                prop_assert_eq!(&dst, &ref_dst, "unpack diverged: tier {}", tier.name());
            }
        }
    }
}

/// The streaming threshold itself is environment-dependent, but forcing
/// `stream` through the hook must be equivalent at any size — pinned
/// here at one size well below any LLC so the cached path is the one
/// production would take.
#[test]
fn forced_stream_equals_cached_below_threshold() {
    let src: Vec<u8> = (0..4096).map(|i| (i % 253) as u8).collect();
    for tier in available_tiers() {
        let cached = gather_checked(tier, false, &src, 3, 24, 8, 128).unwrap();
        let streamed = gather_checked(tier, true, &src, 3, 24, 8, 128).unwrap();
        assert_eq!(cached, streamed, "tier {}", tier.name());
    }
}

/// Zero-block and zero-length edges: every tier returns an empty pack
/// without touching anything.
#[test]
fn zero_sized_cases_are_empty_on_all_tiers() {
    let src = vec![0u8; 64];
    for tier in available_tiers() {
        assert_eq!(gather_checked(tier, false, &src, 0, 8, 0, 0), Some(Vec::new()));
        assert_eq!(gather_checked(tier, false, &src, 0, 8, 4, 0), Some(Vec::new()));
        let mut dst = src.clone();
        assert!(scatter_checked(tier, &[], &mut dst, 0, 8, 4));
        assert_eq!(dst, src);
    }
}
