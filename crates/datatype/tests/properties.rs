//! Property-based tests of the datatype algebra and pack engine.

use nonctg_datatype::{
    pack, pack_size, strided_form, unpack_from, ArrayOrder, Block, Datatype, DatatypeError,
    Primitive, SegIter, Signature,
};
use proptest::prelude::*;

/// A small random type tree (depth <= 3) with bounded extents.
fn arb_datatype() -> impl Strategy<Value = Datatype> {
    let leaf = prop_oneof![
        Just(Datatype::f64()),
        Just(Datatype::i32()),
        Just(Datatype::byte()),
        Just(Datatype::primitive(Primitive::Int16)),
        Just(Datatype::complex128()),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            // contiguous
            (1usize..5, inner.clone())
                .prop_map(|(n, c)| Datatype::contiguous(n, &c).unwrap()),
            // vector with non-negative stride >= blocklen (non-overlapping)
            (1usize..5, 1usize..4, 0i64..4, inner.clone()).prop_map(|(n, bl, extra, c)| {
                Datatype::vector(n, bl, bl as i64 + extra, &c).unwrap()
            }),
            // indexed with increasing displacements
            (proptest::collection::vec((1usize..3, 0i64..4), 1..4), inner.clone()).prop_map(
                |(blocks, c)| {
                    let mut disp = 0i64;
                    let blocks: Vec<(usize, i64)> = blocks
                        .into_iter()
                        .map(|(bl, gap)| {
                            let d = disp;
                            disp += bl as i64 + gap;
                            (bl, d)
                        })
                        .collect();
                    Datatype::indexed(&blocks, &c).unwrap()
                }
            ),
            // 2-D subarray
            (1usize..4, 1usize..4, 0usize..3, proptest::bool::ANY, inner.clone()).prop_map(
                |(rows, cols, start, fortran, c)| {
                    let sizes = [rows + start, cols + start];
                    let subsizes = [rows, cols];
                    let starts = [start, start.min(sizes[1] - subsizes[1])];
                    let order = if fortran { ArrayOrder::Fortran } else { ArrayOrder::C };
                    Datatype::subarray(&sizes, &subsizes, &starts, order, &c).unwrap()
                }
            ),
            // struct of two fields at consecutive displacements
            (1usize..3, 1usize..3, inner.clone()).prop_map(|(a, b, c)| {
                let ext = c.extent() as i64;
                Datatype::structure(&[
                    (a, 0, c.clone()),
                    (b, a as i64 * ext, c.clone()),
                ])
                .unwrap()
            }),
        ]
    })
}

/// Children for the regular constructors: primitives, dense composites,
/// resized types with gaps or a negative lower bound, non-dense vectors,
/// a padded struct, and zero-size types.
fn arb_child() -> impl Strategy<Value = Datatype> {
    let f = Datatype::f64();
    let i = Datatype::i32();
    let empty = Datatype::contiguous(0, &f).unwrap();
    prop_oneof![
        Just(f.clone()),
        Just(Datatype::byte()),
        Just(Datatype::contiguous(3, &i).unwrap()),
        Just(Datatype::resized(&f, 0, 16).unwrap()),
        Just(Datatype::resized(&i, -4, 12).unwrap()),
        Just(Datatype::resized(&f, -8, 8).unwrap()),
        Just(Datatype::vector(3, 1, 2, &i).unwrap()),
        Just(Datatype::vector(2, 2, -3, &Datatype::byte()).unwrap()),
        Just(Datatype::structure(&[(1, 0, f.clone()), (1, 8, i.clone())]).unwrap()),
        Just(empty.clone()),
        Just(Datatype::resized(&empty, -8, 8).unwrap()),
    ]
}

/// Every cached property of a type.
type Props = (u64, i64, i64, i64, i64, usize, Option<Block>, u64, Signature, u32);

fn props(d: &Datatype) -> Props {
    (
        d.size(),
        d.lb(),
        d.ub(),
        d.true_lb(),
        d.true_ub(),
        d.align(),
        d.dense_block(),
        d.seg_count_hint(),
        d.signature().clone(),
        d.depth(),
    )
}

/// `count` blocks of `blocklen` child instances, `stride_bytes` apart, as
/// an explicit hindexed displacement list.
fn as_hindexed(count: usize, blocklen: usize, stride_bytes: i64, child: &Datatype) -> Datatype {
    let blocks: Vec<(usize, i64)> = (0..count).map(|j| (blocklen, j as i64 * stride_bytes)).collect();
    Datatype::hindexed(&blocks, child).unwrap()
}

/// Buffer sized to hold `count` instances with margin.
fn buffer_for(d: &Datatype, count: usize) -> usize {
    let span = d.extent() as usize * count + d.true_extent() as usize + 64;
    span.max(d.true_ub().max(0) as usize + d.extent() as usize * count + 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// size <= true_extent <= extent for non-overlapping constructions,
    /// and the signature byte count equals the size.
    #[test]
    fn size_and_extent_invariants(d in arb_datatype()) {
        prop_assert!(d.size() <= d.true_extent().max(d.size()));
        prop_assert!(d.true_extent() <= d.extent() || d.extent() == 0);
        prop_assert_eq!(d.signature().total_bytes(), d.size());
        prop_assert!(d.true_lb() >= d.lb());
        prop_assert!(d.true_ub() <= d.ub());
    }

    /// The streaming iterator's total byte count equals count * size, and
    /// its segments are disjoint and within the type's true bounds.
    #[test]
    fn segments_cover_exactly_size(d in arb_datatype(), count in 1usize..4) {
        let mut total = 0u64;
        let mut prev_end = i64::MIN;
        let mut monotone = true;
        for b in SegIter::new(&d, count as u64) {
            prop_assert!(b.len > 0);
            if b.offset < prev_end {
                monotone = false;
            }
            prev_end = b.offset + b.len as i64;
            total += b.len;
            prop_assert!(b.offset >= d.true_lb());
            prop_assert!(
                b.offset + b.len as i64
                    <= d.true_ub() + (count as i64 - 1) * d.extent() as i64
            );
        }
        prop_assert_eq!(total, d.size() * count as u64);
        // Our generators build non-overlapping types in address order.
        prop_assert!(monotone, "segments emitted out of order");
    }

    /// Segments after coalescing never abut (adjacent would have merged).
    #[test]
    fn coalescing_leaves_no_adjacent_segments(d in arb_datatype(), count in 1usize..4) {
        let segs: Vec<_> = SegIter::new(&d, count as u64).collect();
        for w in segs.windows(2) {
            prop_assert!(
                w[0].offset + w[0].len as i64 != w[1].offset,
                "adjacent segments not coalesced: {:?}", w
            );
        }
    }

    /// pack followed by unpack restores exactly the selected bytes and
    /// touches nothing else.
    #[test]
    fn pack_unpack_roundtrip(d in arb_datatype(), count in 1usize..3) {
        let len = buffer_for(&d, count);
        let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
        let origin = (-d.true_lb()).max(0) as usize;

        let packed = pack(&src, origin, &d, count).unwrap();
        prop_assert_eq!(packed.len(), pack_size(&d, count).unwrap());

        let mut dst = vec![0u8; len];
        unpack_from(&packed, &d, count, &mut dst, origin).unwrap();

        // Every selected byte restored; every unselected byte still zero.
        let mut selected = vec![false; len];
        for b in SegIter::new(&d, count as u64) {
            let from = (origin as i64 + b.offset) as usize;
            selected[from..from + b.len as usize].fill(true);
        }
        for i in 0..len {
            if selected[i] {
                prop_assert_eq!(dst[i], src[i], "byte {} corrupted", i);
            } else {
                prop_assert_eq!(dst[i], 0u8, "byte {} spuriously written", i);
            }
        }
    }

    /// The strided fast path and the generic segment walk agree.
    #[test]
    fn strided_fast_path_matches_generic(
        count in 1usize..20,
        blocklen in 1usize..5,
        extra in 0i64..6,
        inst in 1usize..3,
    ) {
        let d = Datatype::vector(count, blocklen, blocklen as i64 + extra, &Datatype::f64())
            .unwrap()
            .commit();
        prop_assume!(strided_form(&d).is_some());
        let len = buffer_for(&d, inst);
        let src: Vec<u8> = (0..len).map(|i| (i * 7 % 255) as u8).collect();
        let fast = pack(&src, 0, &d, inst).unwrap();
        // Generic path: walk segments manually.
        let mut slow = Vec::with_capacity(fast.len());
        for b in SegIter::new(&d, inst as u64) {
            let from = b.offset as usize;
            slow.extend_from_slice(&src[from..from + b.len as usize]);
        }
        prop_assert_eq!(fast, slow);
    }

    /// A vector and the equivalent 2-D subarray pack identical bytes.
    #[test]
    fn vector_equals_subarray_selection(
        count in 1usize..12,
        blocklen in 1usize..4,
        extra in 1usize..4,
    ) {
        let stride = blocklen + extra;
        let v = Datatype::vector(count, blocklen, stride as i64, &Datatype::f64()).unwrap();
        let s = Datatype::subarray(
            &[count, stride],
            &[count, blocklen],
            &[0, 0],
            ArrayOrder::C,
            &Datatype::f64(),
        )
        .unwrap();
        prop_assert_eq!(v.size(), s.size());
        let len = buffer_for(&v, 1).max(buffer_for(&s, 1));
        let src: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        prop_assert_eq!(pack(&src, 0, &v, 1).unwrap(), pack(&src, 0, &s, 1).unwrap());
    }

    /// An indexed type listing each block of a vector packs identically.
    #[test]
    fn vector_equals_indexed_blocks(
        count in 1usize..10,
        blocklen in 1usize..4,
        extra in 0i64..4,
    ) {
        let stride = blocklen as i64 + extra;
        let v = Datatype::vector(count, blocklen, stride, &Datatype::i32()).unwrap();
        let blocks: Vec<(usize, i64)> =
            (0..count).map(|j| (blocklen, j as i64 * stride)).collect();
        let ix = Datatype::indexed(&blocks, &Datatype::i32()).unwrap();
        prop_assert_eq!(v.size(), ix.size());
        prop_assert_eq!(v.lb(), ix.lb());
        prop_assert_eq!(v.ub(), ix.ub());
        let len = buffer_for(&v, 1);
        let src: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
        prop_assert_eq!(pack(&src, 0, &v, 1).unwrap(), pack(&src, 0, &ix, 1).unwrap());
    }

    /// Committing never changes observable properties.
    #[test]
    fn commit_is_transparent(d in arb_datatype()) {
        let size = d.size();
        let extent = d.extent();
        let hint = d.seg_count_hint();
        let c = d.commit();
        prop_assert_eq!(c.size(), size);
        prop_assert_eq!(c.extent(), extent);
        prop_assert_eq!(c.seg_count_hint(), hint);
    }

    /// seg_count_hint is an upper bound on the real coalesced segment
    /// count, and exact for non-adjacent regular types.
    #[test]
    fn seg_hint_is_upper_bound(d in arb_datatype()) {
        let real = SegIter::new(&d, 1).count() as u64;
        prop_assert!(
            real <= d.seg_count_hint(),
            "real {} > hint {}", real, d.seg_count_hint()
        );
    }

    /// Equal typemaps built different ways agree on every cached property:
    /// contiguous, vector and hvector (closed form) against the same blocks
    /// listed as hindexed byte displacements (one pass over the list).
    /// Strides are negative, zero, the block length, larger, or any byte
    /// count, including plus and minus the run length of a block.
    #[test]
    fn regular_constructors_match_hindexed(
        child in arb_child(),
        count in prop_oneof![Just(0usize), Just(1), Just(2), 3usize..7],
        blocklen in prop_oneof![Just(0usize), Just(1), 2usize..4],
        stride_kind in 0usize..4,
        mag in 1i64..5,
        byte_stride in -48i64..48,
    ) {
        let bl = blocklen as i64;
        let stride = [-mag, 0, bl, bl + mag][stride_kind];
        let ext = child.extent() as i64;
        let v = Datatype::vector(count, blocklen, stride, &child).unwrap();
        prop_assert_eq!(props(&v), props(&as_hindexed(count, blocklen, stride * ext, &child)));
        let run = child.size() as i64 * bl;
        for sb in [stride * ext, byte_stride, run, -run] {
            let h = Datatype::hvector(count, blocklen, sb, &child).unwrap();
            prop_assert_eq!(props(&h), props(&as_hindexed(count, blocklen, sb, &child)), "stride {}", sb);
        }
        let c = Datatype::contiguous(blocklen, &child).unwrap();
        prop_assert_eq!(props(&c), props(&as_hindexed(1, blocklen, 0, &child)));
    }
}

/// Regular constructions at the edge of the 64-bit range keep the `Result`
/// the per-block construction loop gave them, error variant included.
#[test]
fn hostile_regular_inputs_keep_their_results() {
    use DatatypeError::Overflow;
    type Summary = Result<(u64, i64, i64, i64, i64, Option<Block>, u64), DatatypeError>;
    fn summary(r: Result<Datatype, DatatypeError>) -> Summary {
        r.map(|d| (d.size(), d.lb(), d.ub(), d.true_lb(), d.true_ub(), d.dense_block(), d.seg_count_hint()))
    }
    let f64t = Datatype::f64();
    let low = Datatype::resized(&f64t, i64::MIN + 8, 16).unwrap();
    let empty = Datatype::contiguous(0, &f64t).unwrap();
    let big = i64::MAX / 8;
    let huge_bl = usize::MAX / 16;
    let empty_ok: Summary = Ok((0, 0, 0, 0, 0, Some(Block { offset: 0, len: 0 }), 0));
    let huge_dense: Summary = Ok((
        9223372036854775800,
        0,
        9223372036854775800,
        0,
        9223372036854775800,
        Some(Block { offset: 0, len: 9223372036854775800 }),
        1,
    ));
    let cases: Vec<(&str, Result<Datatype, DatatypeError>, Summary)> = vec![
        ("vector stride*extent overflows", Datatype::vector(2, 1, big + 1, &f64t), Err(Overflow)),
        ("vector stride*extent overflows at count 0", Datatype::vector(0, 1, i64::MAX, &f64t), Err(Overflow)),
        ("vector count 0, largest stride", Datatype::vector(0, 1, big, &f64t), empty_ok.clone()),
        ("vector count 1 still scales the stride", Datatype::vector(1, 1, i64::MAX, &f64t), Err(Overflow)),
        ("vector ub one past i64::MAX", Datatype::vector(2, 1, big, &f64t), Err(Overflow)),
        (
            "vector last offset just fits",
            Datatype::vector(3, 1, i64::MAX / 16, &f64t),
            Ok((24, 0, 9223372036854775800, 0, 9223372036854775800, None, 3)),
        ),
        (
            "vector negative stride just fits",
            Datatype::vector(3, 1, -(i64::MAX / 16), &f64t),
            Ok((24, -9223372036854775792, 8, -9223372036854775792, 8, None, 3)),
        ),
        ("vector fourth block overflows", Datatype::vector(4, 1, i64::MAX / 16, &f64t), Err(Overflow)),
        (
            "hvector count 1 ignores the stride",
            Datatype::hvector(1, 1, i64::MAX, &f64t),
            Ok((8, 0, 8, 0, 8, Some(Block { offset: 0, len: 8 }), 1)),
        ),
        (
            "hvector ub reaches i64::MAX",
            Datatype::hvector(2, 1, i64::MAX - 8, &f64t),
            Ok((16, 0, i64::MAX, 0, i64::MAX, None, 2)),
        ),
        ("hvector ub one past i64::MAX", Datatype::hvector(2, 1, i64::MAX - 7, &f64t), Err(Overflow)),
        (
            "hvector lb reaches i64::MIN",
            Datatype::hvector(2, 1, i64::MIN, &f64t),
            Ok((16, i64::MIN, 8, i64::MIN, 8, None, 2)),
        ),
        (
            "hvector count u64::MAX/size, stride i64::MIN",
            Datatype::hvector(usize::MAX / 8, 1, i64::MIN, &f64t),
            Err(Overflow),
        ),
        (
            "hvector blocklen 0 still checks offsets",
            Datatype::hvector(usize::MAX / 8, 0, i64::MAX, &f64t),
            Err(Overflow),
        ),
        ("hvector blocklen u64::MAX/size", Datatype::hvector(1, usize::MAX / 8, 0, &f64t), Err(Overflow)),
        ("hvector blocklen u64::MAX/(2 size)", Datatype::hvector(1, huge_bl, 0, &f64t), huge_dense.clone()),
        (
            "two overlapping huge blocks",
            Datatype::hvector(2, huge_bl, 0, &f64t),
            Ok((18446744073709551600, 0, 9223372036854775800, 0, 9223372036854775800, None, 2)),
        ),
        ("three huge blocks overflow size", Datatype::hvector(3, huge_bl, 0, &f64t), Err(Overflow)),
        (
            "chained huge blocks overflow ub",
            Datatype::hvector(2, huge_bl, (huge_bl * 8) as i64, &f64t),
            Err(Overflow),
        ),
        ("count*blocklen overflows", Datatype::hvector(4, 1 << 62, 0, &Datatype::byte()), Err(Overflow)),
        (
            "negative-lb child, lb reaches i64::MIN",
            Datatype::hvector(2, 1, -8, &low),
            Ok((16, i64::MIN, -9223372036854775784, -8, 8, None, 2)),
        ),
        ("negative-lb child, lb underflows", Datatype::hvector(2, 1, -16, &low), Err(Overflow)),
        (
            "negative-lb child, positive stride",
            Datatype::vector(3, 1, 1, &low),
            Ok((24, -9223372036854775800, -9223372036854775752, 0, 40, None, 3)),
        ),
        ("zero-extent child, largest stride", Datatype::vector(3, 1, i64::MAX, &empty), empty_ok.clone()),
        ("contiguous count u64::MAX/size", Datatype::contiguous(usize::MAX / 8, &f64t), Err(Overflow)),
        ("contiguous count u64::MAX/(2 size)", Datatype::contiguous(huge_bl, &f64t), huge_dense),
        ("contiguous of zero-size child, count u64::MAX", Datatype::contiguous(usize::MAX, &empty), empty_ok),
    ];
    for (name, built, expected) in cases {
        assert_eq!(summary(built), expected, "{name}");
    }
}

/// Deeply nested stress: five levels of composition over a realistic
/// footprint must keep all invariants, round-trip through the packed form,
/// and match the same tree built afresh.
#[test]
fn deep_nesting_stress() {
    use nonctg_datatype::layout_eq;

    // struct { 2 x i32; vector(3, 2, 5) of (contiguous 2 f64) } repeated
    // in an hvector, selected by an indexed type.
    let pair = Datatype::contiguous(2, &Datatype::f64()).unwrap();
    let vec3 = Datatype::vector(3, 2, 5, &pair).unwrap();
    let st = Datatype::structure(&[(2, 0, Datatype::i32()), (1, 16, vec3)]).unwrap();
    let hv = Datatype::hvector(4, 1, 512, &st).unwrap();
    let top = Datatype::indexed(&[(1, 0), (1, 2)], &hv).unwrap().commit();

    assert!(top.depth() >= 5);
    assert_eq!(top.signature().total_bytes(), top.size());
    let total: u64 = SegIter::new(&top, 1).map(|b| b.len).sum();
    assert_eq!(total, top.size());

    // Round-trip with margin for the full extent of both indexed blocks.
    let span = top.true_ub().max(top.ub()) as usize + 64;
    let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8 + 1).collect();
    let packed = pack(&src, 0, &top, 1).unwrap();
    let mut back = vec![0u8; span];
    unpack_from(&packed, &top, 1, &mut back, 0).unwrap();
    for b in SegIter::new(&top, 1) {
        let r = b.offset as usize..(b.offset + b.len as i64) as usize;
        assert_eq!(&back[r.clone()], &src[r]);
    }

    // The committed type has the typemap of an uncommitted rebuild.
    let fresh = Datatype::indexed(&[(1, 0), (1, 2)], &Datatype::hvector(4, 1, 512,
        &Datatype::structure(&[(2, 0, Datatype::i32()), (1, 16,
            Datatype::vector(3, 2, 5, &Datatype::contiguous(2, &Datatype::f64()).unwrap()).unwrap())]).unwrap()).unwrap()).unwrap();
    assert!(layout_eq(&top, &fresh));
}
