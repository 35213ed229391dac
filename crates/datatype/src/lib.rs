//! # nonctg-datatype — an MPI-style derived-datatype engine
//!
//! A from-scratch reimplementation of the MPI derived-datatype machinery
//! that Eijkhout's *Performance of MPI sends of non-contiguous data*
//! exercises: type construction (`contiguous`, `vector`, `hvector`,
//! `indexed`, `hindexed`, `indexed_block`, `struct`, `subarray`,
//! `resized`), type-map algebra (size / extent / bounds / signatures,
//! O(1) per node for the regular constructors), streaming segment
//! iteration with block coalescing for arbitrarily large types, and a
//! pack/unpack engine with
//! contiguous, strided, and generic code paths.
//!
//! ## Quick example
//!
//! ```
//! use nonctg_datatype::Datatype;
//!
//! // every other f64 out of an array of 8 — the paper's workload
//! let every_other = Datatype::vector(4, 1, 2, &Datatype::f64())
//!     .unwrap()
//!     .commit();
//! assert_eq!(every_other.size(), 32);          // 4 doubles of payload
//! assert_eq!(every_other.extent(), 3 * 16 + 8); // spans 7 doubles
//!
//! let src: Vec<u8> = (0..8).flat_map(|i| (i as f64).to_le_bytes()).collect();
//! let packed = nonctg_datatype::pack(&src, 0, &every_other, 1).unwrap();
//! assert_eq!(packed.len(), 32);
//! ```

#![warn(missing_docs)]

mod builder;
mod describe;
mod error;
mod node;
mod primitive;
mod segiter;
mod signature;

pub mod kernels;
pub mod layouts;
pub mod normalize;
pub mod oracle;
pub mod pack;
pub mod plan;

pub use error::{DatatypeError, Result};
pub use kernels::{
    available_tiers, detected_tier, gather_checked, llc_threshold, scatter_checked, simd_tier,
    RecordField, RecordKernel, SimdTier,
};
pub use node::{ArrayOrder, Block, Datatype, Kind, StructField};
pub use pack::{
    pack, pack_into, pack_into_uncompiled, pack_size, pack_with_position,
    strided_form, unpack_from, unpack_from_uncompiled, unpack_with_position, Strided,
};
pub use plan::{
    cache_stats, pack_threads, parallel_threshold, plan_for, PackPlan, PlanCacheStats,
};
pub use describe::{layout_eq, TypeMapEntry};
pub use normalize::{norm_counters, NORMALIZE_LIST_CAP};
pub use oracle::{check_type, OracleReport, TypeOracle, ORACLE_ENTRY_CAP};
pub use primitive::{Primitive, Scalar};
pub use segiter::SegIter;
pub use signature::Signature;

/// Reinterpret a scalar slice as raw bytes (safe: all supported scalars are
/// plain-old-data with no padding).
pub fn as_bytes<T: Scalar>(data: &[T]) -> &[u8] {
    // SAFETY: T is a POD scalar (sealed set of integer/float types), so any
    // byte pattern is valid and there are no padding bytes.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Reinterpret a mutable scalar slice as raw bytes.
pub fn as_bytes_mut<T: Scalar>(data: &mut [T]) -> &mut [u8] {
    // SAFETY: as in `as_bytes`; scalars accept any byte pattern.
    unsafe {
        std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_bytes_roundtrip() {
        let v = [1.0f64, 2.0, 3.0];
        let b = as_bytes(&v);
        assert_eq!(b.len(), 24);
        assert_eq!(&b[0..8], &1.0f64.to_le_bytes());
    }

    #[test]
    fn as_bytes_mut_writes_through() {
        let mut v = [0u32; 2];
        as_bytes_mut(&mut v)[0..4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(v[0], 7);
    }
}
