//! Interleaved-record (struct) transpose kernel.
//!
//! A committed struct type with small fields compiles to a plan of tiny
//! `Copy` ops — for the paper's mixed struct, 4 + 8 bytes out of every
//! 16-byte extent. Executing that plan generically costs an op walk,
//! bounds arithmetic and two `split_at_mut` calls *per 12 packed bytes*,
//! which is the measured 1.5 GB/s struct-pack floor. This kernel lifts
//! the whole-instance loop for such plans into one call: scalar tiers
//! run a flat field loop with no per-instance slicing, and the AVX2 tier
//! compacts each instance with a single SSSE3 `pshufb` — load 16 source
//! bytes, shuffle the payload bytes to the front, one 16-byte store per
//! instance (ascending overlapping stores; the spill past `inst_size`
//! is rewritten by the next instance or the scalar remainder).
//!
//! Unpack (scatter) stays scalar per-field on every tier: a shuffle
//! *expansion* store would clobber the gap bytes between fields, and
//! struct padding must be left untouched (a documented, tested
//! guarantee).

use super::{scalar, Exec, SimdTier};

/// One field of a record: `len` bytes at instance-relative source
/// offset `src`, landing at packed offset `dst` within the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordField {
    /// Source offset relative to the instance origin (may be negative
    /// for types with a raised lower bound).
    pub src: i64,
    /// Destination offset within the packed instance.
    pub dst: u32,
    /// Field length in bytes.
    pub len: u32,
}

/// Compiled whole-instance transpose for a small all-`Copy` plan; built
/// by the plan compiler when a type qualifies (see [`RecordKernel::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordKernel {
    fields: Vec<RecordField>,
    inst_size: usize,
    extent: i64,
    /// Lowest field source offset: the 16-byte shuffle load window
    /// starts here.
    window_lo: i64,
    /// `pshufb` control bytes compacting the load window to the packed
    /// instance; present when the whole record fits one 16-byte window.
    shuf: Option<[u8; 16]>,
}

impl RecordKernel {
    /// Largest packed instance size a record kernel will handle.
    pub const MAX_INST: usize = 64;
    /// Largest field count a record kernel will handle.
    pub const MAX_FIELDS: usize = 16;

    /// Compile a record kernel, or `None` when the layout is outside the
    /// small-record envelope this kernel targets (larger plans do better
    /// under the generic executor's per-op kernels). `fields` must cover
    /// packed offsets `[0, inst_size)` contiguously in order, as plan
    /// `dst_off` tables do.
    pub fn new(fields: Vec<RecordField>, inst_size: usize, extent: i64) -> Option<RecordKernel> {
        if inst_size == 0
            || inst_size > Self::MAX_INST
            || extent <= 0
            || fields.is_empty()
            || fields.len() > Self::MAX_FIELDS
        {
            return None;
        }
        let mut covered = 0u64;
        for f in &fields {
            if f.dst as u64 != covered || f.len == 0 {
                return None;
            }
            covered += f.len as u64;
        }
        if covered != inst_size as u64 {
            return None;
        }
        let window_lo = fields.iter().map(|f| f.src).min().unwrap();
        let window_hi = fields.iter().map(|f| f.src + f.len as i64).max().unwrap();
        let shuf = if inst_size <= 16 && window_hi - window_lo <= 16 {
            let mut mask = [0x80u8; 16];
            for (j, m) in mask.iter_mut().enumerate().take(inst_size) {
                let f = fields
                    .iter()
                    .find(|f| (f.dst as usize) <= j && j < (f.dst + f.len) as usize)?;
                *m = (f.src + (j as i64 - f.dst as i64) - window_lo) as u8;
            }
            Some(mask)
        } else {
            None
        };
        Some(RecordKernel { fields, inst_size, extent, window_lo, shuf })
    }

    /// Packed bytes per instance.
    pub fn inst_size(&self) -> usize {
        self.inst_size
    }

    /// Whether the AVX2 tier runs this record through the `pshufb` path.
    pub fn has_shuffle(&self) -> bool {
        self.shuf.is_some()
    }

    /// Gather `n` consecutive whole instances, the first with user-buffer
    /// origin byte `base`, into `out` (`n * inst_size` bytes).
    ///
    /// # Safety
    /// Every field byte of every instance lies within `src` (plan-level
    /// `validate_user`); vector window overreads are guarded against
    /// `src.len()` internally.
    pub(crate) unsafe fn gather(&self, ex: Exec, src: &[u8], base: i64, n: usize, out: &mut [u8]) {
        debug_assert_eq!(out.len(), n * self.inst_size);
        let mut done = 0;
        #[cfg(target_arch = "x86_64")]
        if ex.tier == SimdTier::Avx2 {
            if let Some(mask) = self.shuf {
                // SAFETY: forwarded contract; AVX2 tier implies SSSE3.
                done = unsafe { self.gather_pshufb(src, base, n, out, mask) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = ex;
        // Scalar path / remainder: flat field loop, no per-instance
        // slicing or op-table walk.
        for i in done..n {
            let ibase = base + i as i64 * self.extent;
            let o = i * self.inst_size;
            for f in &self.fields {
                // SAFETY: field validated in-bounds by caller contract;
                // `o + dst + len <= out.len()` by construction.
                unsafe {
                    scalar::copy_run(
                        src.as_ptr().add((ibase + f.src) as usize),
                        out.as_mut_ptr().add(o + f.dst as usize),
                        f.len as usize,
                    );
                }
            }
        }
    }

    /// `pshufb` gather: returns how many leading instances were handled
    /// (the caller finishes the rest scalar). Stores overlap ascending;
    /// the spill past each packed instance is rewritten by the next
    /// store, and the guarded count keeps the final spill inside `out`
    /// where the scalar remainder rewrites it.
    ///
    /// # Safety
    /// As [`Self::gather`]; requires SSSE3 (AVX2 tier dispatch).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "ssse3")]
    unsafe fn gather_pshufb(
        &self,
        src: &[u8],
        base: i64,
        n: usize,
        out: &mut [u8],
        mask: [u8; 16],
    ) -> usize {
        use std::arch::x86_64::*;
        let start0 = base + self.window_lo;
        if start0 < 0 {
            return 0;
        }
        let start0 = start0 as usize;
        let extent = self.extent as usize;
        // Instances whose 16-byte load window is within `src`.
        let max_load = if start0 + 16 <= src.len() {
            (src.len() - 16 - start0) / extent + 1
        } else {
            0
        };
        // Instances whose 16-byte store is within `out`.
        let max_store = if out.len() >= 16 { (out.len() - 16) / self.inst_size + 1 } else { 0 };
        let m = n.min(max_load).min(max_store);
        // SAFETY: loads/stores guarded above; `out` exclusive.
        unsafe {
            let ctrl = _mm_loadu_si128(mask.as_ptr() as *const __m128i);
            let dst = out.as_mut_ptr();
            for i in 0..m {
                let v = _mm_loadu_si128(src.as_ptr().add(start0 + i * extent) as *const __m128i);
                _mm_storeu_si128(dst.add(i * self.inst_size) as *mut __m128i,
                    _mm_shuffle_epi8(v, ctrl));
            }
        }
        m
    }

    /// Scatter `n` consecutive whole instances from `input` back to the
    /// user buffer at `dst`. Scalar per-field on every tier — a shuffle
    /// expansion would clobber inter-field gap bytes, which must stay
    /// untouched.
    ///
    /// # Safety
    /// Every field byte of every instance lies within the allocation at
    /// `dst`, and no other thread concurrently writes those bytes.
    pub(crate) unsafe fn scatter(&self, input: &[u8], dst: *mut u8, base: i64, n: usize) {
        debug_assert_eq!(input.len(), n * self.inst_size);
        for i in 0..n {
            let ibase = base + i as i64 * self.extent;
            let o = i * self.inst_size;
            for f in &self.fields {
                // SAFETY: per contract; input bounds by construction.
                unsafe {
                    scalar::copy_run(
                        input.as_ptr().add(o + f.dst as usize),
                        dst.add((ibase + f.src) as usize),
                        f.len as usize,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::available_tiers;

    fn naive_gather(
        fields: &[RecordField],
        inst: usize,
        extent: i64,
        src: &[u8],
        base: i64,
        n: usize,
    ) -> Vec<u8> {
        let mut out = vec![0u8; n * inst];
        for i in 0..n {
            let ibase = base + i as i64 * extent;
            for f in fields {
                let s = (ibase + f.src) as usize;
                let d = i * inst + f.dst as usize;
                out[d..d + f.len as usize].copy_from_slice(&src[s..s + f.len as usize]);
            }
        }
        out
    }

    #[test]
    fn rejects_out_of_envelope_layouts() {
        let f = |src, dst, len| RecordField { src, dst, len };
        assert!(RecordKernel::new(vec![], 4, 8).is_none());
        assert!(RecordKernel::new(vec![f(0, 0, 4)], 4, 0).is_none());
        // Gap in packed coverage.
        assert!(RecordKernel::new(vec![f(0, 0, 4), f(8, 6, 2)], 8, 16).is_none());
        // Too large an instance.
        assert!(RecordKernel::new(vec![f(0, 0, 80)], 80, 96).is_none());
    }

    #[test]
    fn paper_struct_uses_shuffle_and_matches_naive_on_all_tiers() {
        // i32 at 0 + f64 at 8 in a 16-byte extent: the bench struct.
        let fields =
            vec![RecordField { src: 0, dst: 0, len: 4 }, RecordField { src: 8, dst: 4, len: 8 }];
        let rk = RecordKernel::new(fields.clone(), 12, 16).unwrap();
        assert!(rk.has_shuffle());
        let n = 129; // odd count exercises the scalar remainder
        let src: Vec<u8> = (0..n * 16 + 5).map(|i| (i * 31 + 7) as u8).collect();
        let want = naive_gather(&fields, 12, 16, &src, 3, n);
        for tier in available_tiers() {
            let mut out = vec![0u8; n * 12];
            // SAFETY: all fields in-bounds by construction.
            unsafe { rk.gather(Exec::no_stream(tier), &src, 3, n, &mut out) };
            assert_eq!(out, want, "tier {}", tier.name());
        }
    }

    #[test]
    fn scatter_round_trips_and_preserves_gap_bytes() {
        let fields =
            vec![RecordField { src: 0, dst: 0, len: 4 }, RecordField { src: 8, dst: 4, len: 8 }];
        let rk = RecordKernel::new(fields, 12, 16).unwrap();
        let n = 33;
        let src: Vec<u8> = (0..n * 16).map(|i| (i * 13 + 1) as u8).collect();
        let mut packed = vec![0u8; n * 12];
        // SAFETY: in-bounds by construction.
        unsafe { rk.gather(Exec::no_stream(crate::kernels::SimdTier::Scalar), &src, 0, n, &mut packed) };
        let mut back = vec![0xAAu8; src.len()];
        // SAFETY: in-bounds by construction; exclusive dst.
        unsafe { rk.scatter(&packed, back.as_mut_ptr(), 0, n) };
        for i in 0..n {
            assert_eq!(&back[i * 16..i * 16 + 4], &src[i * 16..i * 16 + 4]);
            assert_eq!(&back[i * 16 + 8..i * 16 + 16], &src[i * 16 + 8..i * 16 + 16]);
            // Gap bytes (struct padding) untouched.
            assert!(back[i * 16 + 4..i * 16 + 8].iter().all(|&b| b == 0xAA));
        }
    }

    #[test]
    fn wide_record_without_shuffle_still_matches() {
        // Three fields spanning a 40-byte window: no 16-byte shuffle.
        let fields = vec![
            RecordField { src: 0, dst: 0, len: 8 },
            RecordField { src: 16, dst: 8, len: 4 },
            RecordField { src: 32, dst: 12, len: 8 },
        ];
        let rk = RecordKernel::new(fields.clone(), 20, 48).unwrap();
        assert!(!rk.has_shuffle());
        let n = 17;
        let src: Vec<u8> = (0..n * 48).map(|i| (i * 3 + 11) as u8).collect();
        let want = naive_gather(&fields, 20, 48, &src, 0, n);
        for tier in available_tiers() {
            let mut out = vec![0u8; n * 20];
            // SAFETY: in-bounds by construction.
            unsafe { rk.gather(Exec::no_stream(tier), &src, 0, n, &mut out) };
            assert_eq!(out, want, "tier {}", tier.name());
        }
    }
}
