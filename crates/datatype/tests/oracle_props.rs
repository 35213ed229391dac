//! Differential property tests: every production engine (cached node
//! metadata, compiled pack plans, the uncompiled fallback, chunk
//! sub-ranges) against the naive typemap interpreter in
//! `nonctg_datatype::oracle`, over adversarially-constructed types —
//! zero-length blocks, negative strides, LB/UB-style padding, deep mixed
//! nests — plus deterministic pins for the classes the oracle has caught.

use nonctg_datatype::plan::PLAN_CACHE_CAP;
use nonctg_datatype::{check_type, ArrayOrder, Datatype};
use proptest::prelude::*;

fn leaf() -> impl Strategy<Value = Datatype> {
    prop_oneof![
        Just(Datatype::f64()),
        Just(Datatype::f32()),
        Just(Datatype::i32()),
        Just(Datatype::i64()),
        Just(Datatype::byte()),
        Just(Datatype::complex128()),
    ]
}

/// A subarray spec that is valid by construction: per dimension
/// `(size, subsize <= size, start <= size - subsize)`.
fn arb_subarray_dims() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((1usize..5, 0usize..5, 0usize..5), 1..3).prop_map(|dims| {
        dims.into_iter()
            .map(|(size, sub, start)| {
                let sub = sub.min(size);
                let start = if sub == size { 0 } else { start % (size - sub + 1) };
                (size, sub, start)
            })
            .collect()
    })
}

/// Adversarial datatype trees. Every constructor of the algebra appears,
/// with deliberately nasty parameters: zero counts and blocklengths,
/// negative (and overlapping) strides and displacements, struct fields
/// out of declaration order, resized LB/UB padding.
fn arb_type() -> impl Strategy<Value = Datatype> {
    leaf().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (0usize..4, inner.clone())
                .prop_map(|(c, t)| Datatype::contiguous(c, &t).unwrap()),
            (0usize..4, 0usize..4, -4i64..6, inner.clone())
                .prop_map(|(c, bl, s, t)| Datatype::vector(c, bl, s, &t).unwrap()),
            (0usize..4, 0usize..3, -40i64..64, inner.clone())
                .prop_map(|(c, bl, s, t)| Datatype::hvector(c, bl, s, &t).unwrap()),
            (proptest::collection::vec((0usize..4, -6i64..8), 0..4), inner.clone())
                .prop_map(|(blocks, t)| Datatype::indexed(&blocks, &t).unwrap()),
            (proptest::collection::vec((0usize..4, -48i64..64), 0..4), inner.clone())
                .prop_map(|(blocks, t)| Datatype::hindexed(&blocks, &t).unwrap()),
            (0usize..3, proptest::collection::vec(-6i64..8, 0..4), inner.clone())
                .prop_map(|(bl, d, t)| Datatype::indexed_block(bl, &d, &t).unwrap()),
            (proptest::collection::vec((0usize..3, -32i64..48, inner.clone()), 1..4))
                .prop_map(|fields| Datatype::structure(&fields).unwrap()),
            (arb_subarray_dims(), proptest::bool::ANY, inner.clone()).prop_map(|(dims, c_order, t)| {
                let sizes: Vec<usize> = dims.iter().map(|d| d.0).collect();
                let subsizes: Vec<usize> = dims.iter().map(|d| d.1).collect();
                let starts: Vec<usize> = dims.iter().map(|d| d.2).collect();
                let order = if c_order { ArrayOrder::C } else { ArrayOrder::Fortran };
                Datatype::subarray(&sizes, &subsizes, &starts, order, &t).unwrap()
            }),
            (inner, 0i64..24, 0u64..24).prop_map(|(t, pad_lo, pad_hi)| {
                // LB/UB-style padding: extend the envelope on both sides.
                let lb = t.lb() - pad_lo;
                let extent = (t.ub() - lb) as u64 + pad_hi;
                Datatype::resized(&t, lb, extent).unwrap()
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full battery over random adversarial types, counts, and seeds.
    #[test]
    fn engines_agree_with_oracle(t in arb_type(), count in 0usize..4, seed in 0u64..u64::MAX) {
        if let Err(r) = check_type(&t, count, seed) {
            prop_assert!(false, "{r}");
        }
    }
}

/// Zero-length blocks contribute no bytes, no bounds, and no signature.
#[test]
fn zero_length_blocks_pin() {
    let t = Datatype::indexed(&[(0, 5), (3, -2), (0, 0), (2, 4)], &Datatype::f64()).unwrap();
    check_type(&t, 3, 0xA5).unwrap();
    let empty = Datatype::vector(4, 0, 3, &Datatype::i32()).unwrap();
    assert_eq!(empty.size(), 0);
    check_type(&empty, 2, 0xA6).unwrap();
}

/// Negative strides walk blocks backwards through memory.
#[test]
fn negative_stride_pin() {
    let t = Datatype::vector(4, 2, -3, &Datatype::f64()).unwrap();
    assert!(t.lb() < 0);
    check_type(&t, 2, 0xB7).unwrap();
    let h = Datatype::hvector(3, 1, -40, &Datatype::i64()).unwrap();
    check_type(&h, 3, 0xB8).unwrap();
}

/// Resized LB/UB padding shifts the tiling origin and stretches the
/// inter-instance stride without touching the payload.
#[test]
fn lb_ub_padding_pin() {
    let body = Datatype::vector(3, 1, 2, &Datatype::f64()).unwrap();
    let t = Datatype::resized(&body, -16, 80).unwrap();
    assert_eq!((t.lb(), t.ub()), (-16, 64));
    check_type(&t, 3, 0xC9).unwrap();
}

/// Struct alignment padding (the MPI epsilon rule) must agree between the
/// oracle and the cached node bounds, including for misaligned fields.
#[test]
fn struct_epsilon_padding_pin() {
    let t = Datatype::structure(&[
        (1, 0, Datatype::i32()),
        (1, 5, Datatype::byte()),
        (2, 8, Datatype::f64()),
    ])
    .unwrap();
    assert_eq!(t.extent() % t.align() as u64, 0);
    check_type(&t, 2, 0xD1).unwrap();
}

/// Oracle-discovered bug, pinned: `type_map_preview` of a subarray whose
/// child does not tile densely used to reconstruct leaves from coalesced
/// segments, re-emitting whole children at segment offsets (duplicated
/// and spurious entries). The map of `subarray([4],[2],[1])` over
/// `vector(2,1,2,f64)` is exactly elements 1..3, i.e. two child copies at
/// byte offsets 24 and 48.
#[test]
fn subarray_sparse_child_typemap_pin() {
    let child = Datatype::vector(2, 1, 2, &Datatype::f64()).unwrap();
    let t = Datatype::subarray(&[4], &[2], &[1], ArrayOrder::C, &child).unwrap();
    let disps: Vec<i64> =
        t.type_map_preview(usize::MAX).iter().map(|e| e.displacement).collect();
    assert_eq!(disps, vec![24, 40, 48, 64]);
    check_type(&t, 2, 0xF2).unwrap();
}

/// Filling the compiled-plan LRU past its 128-entry capacity evicts the
/// oldest plans; re-checking those types recompiles them, and both the
/// cached and the recompiled plan must agree with the oracle.
#[test]
fn plan_cache_eviction_boundary() {
    let types: Vec<Datatype> = (0..PLAN_CACHE_CAP + 12)
        .map(|i| Datatype::vector(2 + i % 7, 1 + i % 3, 4, &Datatype::f64()).unwrap())
        .collect();
    for (i, t) in types.iter().enumerate() {
        check_type(t, 1 + i % 2, i as u64).unwrap();
    }
    // The first handful was evicted by now: exercise the recompile path.
    for (i, t) in types.iter().take(8).enumerate() {
        check_type(t, 2, 0xE000 + i as u64).unwrap();
    }
}
