//! Scalar (autovectorization-friendly) kernels: the portable fallback
//! tier and the reference implementation the SIMD tiers are
//! differentially tested against. Fixed-block monomorphization gives the
//! compiler constant copy lengths, which it turns into straight-line
//! (often vectorized) moves.

/// memcpy with small constant-size fast paths: the tiny runs common in
/// struct plans compile to one or two moves instead of a libcall.
///
/// # Safety
/// `n` bytes readable at `src`, writable at `dst`, non-overlapping.
#[inline]
pub(crate) unsafe fn copy_run(src: *const u8, dst: *mut u8, n: usize) {
    use std::ptr::copy_nonoverlapping as cp;
    // SAFETY: per contract; the match only pins `n` to a constant.
    unsafe {
        match n {
            1 => cp(src, dst, 1),
            2 => cp(src, dst, 2),
            4 => cp(src, dst, 4),
            8 => cp(src, dst, 8),
            12 => cp(src, dst, 12),
            16 => cp(src, dst, 16),
            _ => cp(src, dst, n),
        }
    }
}

/// Scalar strided gather; `out.len()` selects the block count.
///
/// # Safety
/// Every source byte of every block must lie within the allocation at
/// `src` (the plan-level `validate_user` hull check).
pub(crate) unsafe fn gather(src: *const u8, first: i64, stride: i64, bl: usize, out: &mut [u8]) {
    // SAFETY: per contract.
    unsafe {
        match bl {
            4 => gather_fixed::<4>(src, first, stride, out),
            8 => gather_fixed::<8>(src, first, stride, out),
            16 => gather_fixed::<16>(src, first, stride, out),
            32 => gather_fixed::<32>(src, first, stride, out),
            64 => gather_fixed::<64>(src, first, stride, out),
            _ => {
                for (j, chunk) in out.chunks_exact_mut(bl).enumerate() {
                    let off = first + j as i64 * stride;
                    std::ptr::copy_nonoverlapping(src.add(off as usize), chunk.as_mut_ptr(), bl);
                }
            }
        }
    }
}

/// Fixed-block gather: the constant length lets the compiler emit
/// straight-line (vectorized) copies per block.
///
/// Blocks go four per loop iteration. With one 8-byte block per
/// iteration the loop is a few instructions long, and its speed depends
/// on where the linker places it: on a 2-core Xeon KVM guest the same
/// 64 KiB every-other-`f64` pack took 3 µs in one build and 6–8 µs in
/// another. Four blocks per branch narrowed that spread to 3–4.5 µs.
///
/// # Safety
/// See [`gather`].
unsafe fn gather_fixed<const BL: usize>(src: *const u8, first: i64, stride: i64, out: &mut [u8]) {
    let mut off = first;
    let mut copy = |block: &mut [u8]| {
        // SAFETY: per gather contract.
        unsafe { std::ptr::copy_nonoverlapping(src.add(off as usize), block.as_mut_ptr(), BL) };
        off += stride;
    };
    let mut quads = out.chunks_exact_mut(4 * BL);
    for quad in &mut quads {
        quad.chunks_exact_mut(BL).for_each(&mut copy);
    }
    quads.into_remainder().chunks_exact_mut(BL).for_each(copy);
}

/// Scalar strided scatter of whole `bl`-byte blocks from `input`.
///
/// # Safety
/// Every target byte must lie within the allocation at `dst`, and no
/// other thread may concurrently write those bytes.
pub(crate) unsafe fn scatter(input: &[u8], dst: *mut u8, first: i64, stride: i64, bl: usize) {
    // SAFETY: per contract.
    unsafe {
        match bl {
            4 => scatter_fixed::<4>(input, dst, first, stride),
            8 => scatter_fixed::<8>(input, dst, first, stride),
            16 => scatter_fixed::<16>(input, dst, first, stride),
            32 => scatter_fixed::<32>(input, dst, first, stride),
            64 => scatter_fixed::<64>(input, dst, first, stride),
            _ => {
                for (j, chunk) in input.chunks_exact(bl).enumerate() {
                    let off = (first + j as i64 * stride) as usize;
                    std::ptr::copy_nonoverlapping(chunk.as_ptr(), dst.add(off), bl);
                }
            }
        }
    }
}

/// Fixed-block scatter; see [`scatter`] for the safety contract.
unsafe fn scatter_fixed<const BL: usize>(input: &[u8], dst: *mut u8, first: i64, stride: i64) {
    for (j, chunk) in input.chunks_exact(BL).enumerate() {
        let off = (first + j as i64 * stride) as usize;
        // SAFETY: per scatter contract.
        unsafe { std::ptr::copy_nonoverlapping(chunk.as_ptr(), dst.add(off), BL) };
    }
}
