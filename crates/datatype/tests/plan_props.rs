//! Differential property tests: the compiled pack-plan engine must be
//! byte-identical to the uncompiled reference engine — struct and
//! subarray trees included.

use nonctg_datatype::{
    pack_into_uncompiled, pack_size, unpack_from_uncompiled, ArrayOrder, Datatype, PackPlan,
    Primitive,
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

/// Buffer sized to hold `count` instances with margin.
fn buffer_for(d: &Datatype, count: usize) -> usize {
    let span = d.extent() as usize * count + d.true_extent() as usize + 64;
    span.max(d.true_ub().max(0) as usize + d.extent() as usize * count + 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compiled plans exist for every generated tree and agree with the
    /// uncompiled engine byte-for-byte.
    #[test]
    fn plan_pack_matches_uncompiled(d in arb_datatype(), count in 1usize..3) {
        let plan = PackPlan::compile(&d, count).expect("generated trees are plannable");
        let total = pack_size(&d, count).unwrap();
        prop_assert_eq!(plan.packed_len(), total);

        let len = buffer_for(&d, count);
        let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
        let origin = (-d.true_lb()).max(0) as usize;

        let mut reference = vec![0u8; total];
        pack_into_uncompiled(&src, origin, &d, count, &mut reference).unwrap();

        let mut out = vec![0u8; total];
        plan.pack_into(&src, origin, &mut out).unwrap();
        prop_assert_eq!(&out, &reference, "plan pack diverged");
    }

    /// Same for unpack: scattered bytes and untouched gap bytes both
    /// match the uncompiled engine.
    #[test]
    fn plan_unpack_matches_uncompiled(d in arb_datatype(), count in 1usize..3) {
        let plan = PackPlan::compile(&d, count).expect("generated trees are plannable");
        let total = pack_size(&d, count).unwrap();
        let packed: Vec<u8> = (0..total).map(|i| (i % 249) as u8 + 1).collect();
        let len = buffer_for(&d, count);
        let origin = (-d.true_lb()).max(0) as usize;

        let mut reference = vec![0u8; len];
        unpack_from_uncompiled(&packed, &d, count, &mut reference, origin).unwrap();

        let mut out = vec![0u8; len];
        plan.unpack_from(&packed, &mut out, origin).unwrap();
        prop_assert_eq!(&out, &reference, "plan unpack diverged");
    }

    /// The public pack/unpack round-trips through the cached plan of a
    /// committed type: selected bytes restored, everything else untouched.
    #[test]
    fn committed_roundtrip_via_cache(d in arb_datatype(), count in 1usize..3) {
        let d = d.commit();
        let len = buffer_for(&d, count);
        let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
        let origin = (-d.true_lb()).max(0) as usize;

        let packed = nonctg_datatype::pack(&src, origin, &d, count).unwrap();
        let mut reference = vec![0u8; packed.len()];
        pack_into_uncompiled(&src, origin, &d, count, &mut reference).unwrap();
        prop_assert_eq!(&packed, &reference);

        let mut dst = vec![0u8; len];
        nonctg_datatype::unpack_from(&packed, &d, count, &mut dst, origin).unwrap();
        let mut ref_dst = vec![0u8; len];
        unpack_from_uncompiled(&packed, &d, count, &mut ref_dst, origin).unwrap();
        prop_assert_eq!(&dst, &ref_dst);
    }
}
