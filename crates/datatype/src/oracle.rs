//! A naive typemap interpreter used as a differential oracle.
//!
//! The MPI standard defines every derived datatype by its *type map*: the
//! ordered sequence of `(primitive, displacement)` pairs one instance
//! touches. This module re-derives that map by walking the [`Kind`] tree
//! with the most literal recursion possible — no segment coalescing, no
//! dense-run shortcuts, no compiled plans, no reuse of the cached node
//! properties. Everything the production engines compute (size, bounds,
//! extent, signature, packed bytes, unpacked layouts) is re-derived here
//! from the raw map, so the two implementations share no code paths and a
//! bug in either shows up as a disagreement.
//!
//! [`check_type`] runs the full differential battery for one `(type,
//! count, seed)` case: cached metadata vs. the map, the compiled pack-plan
//! engine and the uncompiled fallback vs. reference pack/unpack, chunk
//! sub-range pack/unpack at oracle-chosen cut points. Failures come back
//! as an [`OracleReport`] carrying a reproducible description of the case.

use crate::describe::TypeMapEntry;
use crate::node::{ArrayOrder, Datatype, Kind};
use crate::signature::Signature;

/// Hard cap on oracle typemap entries per instance; the naive walk is
/// O(entries), so adversarial inputs must stay bounded.
pub const ORACLE_ENTRY_CAP: usize = 1 << 16;

/// The flat typemap of one datatype instance, as derived by the naive
/// interpreter, together with independently re-derived bounds.
#[derive(Debug, Clone)]
pub struct TypeOracle {
    entries: Vec<TypeMapEntry>,
    lb: i64,
    ub: i64,
}

/// Minimal xorshift64* generator so oracle runs are reproducible from a
/// single seed without pulling in an RNG dependency.
#[derive(Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Naive per-kind bounds: `(lb, ub)` of one instance, recomputed from the
/// constructor arguments alone (including the resized override and the
/// struct alignment-padding rule), never read from the cached node.
fn bounds(t: &Datatype) -> (i64, i64) {
    match t.kind() {
        Kind::Primitive(p) => (0, p.size() as i64),
        Kind::Contiguous { count, child } => {
            block_bounds((0..*count).map(|i| (i as i64 * extent_of(child), 1)), child)
        }
        Kind::Vector { count, blocklen, stride, child } => {
            let ext = extent_of(child);
            block_bounds((0..*count).map(|j| (j as i64 * *stride * ext, *blocklen)), child)
        }
        Kind::Hvector { count, blocklen, stride_bytes, child } => {
            block_bounds((0..*count).map(|j| (j as i64 * *stride_bytes, *blocklen)), child)
        }
        Kind::Indexed { blocks, child } => {
            let ext = extent_of(child);
            block_bounds(blocks.iter().map(|&(bl, d)| (d * ext, bl)), child)
        }
        Kind::Hindexed { blocks, child } => {
            block_bounds(blocks.iter().map(|&(bl, d)| (d, bl)), child)
        }
        Kind::IndexedBlock { blocklen, displacements, child } => {
            let ext = extent_of(child);
            block_bounds(displacements.iter().map(|&d| (d * ext, *blocklen)), child)
        }
        Kind::Struct { fields } => {
            let mut any = false;
            let (mut lb, mut ub) = (0i64, 0i64);
            let mut align = 1i64;
            for f in fields.iter() {
                if f.blocklen == 0 {
                    continue;
                }
                let (clb, cub) = bounds(&f.datatype);
                let ext = cub - clb;
                let span = (f.blocklen as i64 - 1) * ext;
                let flb = f.displacement + clb;
                let fub = f.displacement + span + cub;
                if !any {
                    (lb, ub, any) = (flb, fub, true);
                } else {
                    lb = lb.min(flb);
                    ub = ub.max(fub);
                }
                align = align.max(f.datatype.align() as i64);
            }
            if !any {
                return (0, 0);
            }
            // MPI epsilon rule: pad the extent to the natural alignment.
            let raw = (ub - lb) as u64;
            (lb, lb + (raw.div_ceil(align as u64) * align as u64) as i64)
        }
        Kind::Subarray { sizes, child, .. } => {
            let full: i64 = sizes.iter().map(|&s| s as i64).product();
            (0, full * extent_of(child))
        }
        Kind::Resized { lb, extent, child } => {
            let _ = child; // data layout is the child's; only bounds change
            (*lb, *lb + *extent as i64)
        }
    }
}

/// Bounds of a sequence of `(byte_offset, blocklen)` blocks of `child`
/// instances tiling by the child extent. Empty sequences (and all-zero
/// blocklengths) collapse to `(0, 0)`.
fn block_bounds(blocks: impl Iterator<Item = (i64, u64)>, child: &Datatype) -> (i64, i64) {
    let (clb, cub) = bounds(child);
    let ext = cub - clb;
    let mut any = false;
    let (mut lb, mut ub) = (0i64, 0i64);
    for (off, bl) in blocks {
        if bl == 0 {
            continue;
        }
        let span = (bl as i64 - 1) * ext;
        let (blo, bhi) = (off + clb, off + span + cub);
        if !any {
            (lb, ub, any) = (blo, bhi, true);
        } else {
            lb = lb.min(blo);
            ub = ub.max(bhi);
        }
    }
    if any {
        (lb, ub)
    } else {
        (0, 0)
    }
}

/// One-instance extent from the naive bounds.
fn extent_of(t: &Datatype) -> i64 {
    let (lb, ub) = bounds(t);
    ub - lb
}

/// Appends the typemap of one instance of `t` at byte `base` in
/// constructor order. Returns `false` once the entry cap is exceeded.
fn emit(t: &Datatype, base: i64, out: &mut Vec<TypeMapEntry>) -> bool {
    if out.len() > ORACLE_ENTRY_CAP {
        return false;
    }
    match t.kind() {
        Kind::Primitive(p) => {
            out.push(TypeMapEntry { primitive: *p, displacement: base });
            out.len() <= ORACLE_ENTRY_CAP
        }
        Kind::Contiguous { count, child } => {
            emit_blocks((0..*count).map(|i| (i as i64 * extent_of(child), 1)), child, base, out)
        }
        Kind::Vector { count, blocklen, stride, child } => {
            let ext = extent_of(child);
            emit_blocks(
                (0..*count).map(|j| (j as i64 * *stride * ext, *blocklen)),
                child,
                base,
                out,
            )
        }
        Kind::Hvector { count, blocklen, stride_bytes, child } => {
            emit_blocks(
                (0..*count).map(|j| (j as i64 * *stride_bytes, *blocklen)),
                child,
                base,
                out,
            )
        }
        Kind::Indexed { blocks, child } => {
            let ext = extent_of(child);
            emit_blocks(blocks.iter().map(|&(bl, d)| (d * ext, bl)), child, base, out)
        }
        Kind::Hindexed { blocks, child } => {
            emit_blocks(blocks.iter().map(|&(bl, d)| (d, bl)), child, base, out)
        }
        Kind::IndexedBlock { blocklen, displacements, child } => {
            let ext = extent_of(child);
            emit_blocks(displacements.iter().map(|&d| (d * ext, *blocklen)), child, base, out)
        }
        Kind::Struct { fields } => {
            for f in fields.iter() {
                let ext = extent_of(&f.datatype);
                for k in 0..f.blocklen {
                    if !emit(&f.datatype, base + f.displacement + k as i64 * ext, out) {
                        return false;
                    }
                }
            }
            true
        }
        Kind::Subarray { sizes, subsizes, starts, order, child } => {
            // Element strides per dimension, recomputed naively.
            let n = sizes.len();
            let mut stride = vec![1i64; n];
            match order {
                ArrayOrder::C => {
                    for d in (0..n.saturating_sub(1)).rev() {
                        stride[d] = stride[d + 1] * sizes[d + 1] as i64;
                    }
                }
                ArrayOrder::Fortran => {
                    for d in 1..n {
                        stride[d] = stride[d - 1] * sizes[d - 1] as i64;
                    }
                }
            }
            // Iterate every selected index tuple with the innermost memory
            // dimension fastest, so entries come out in ascending offset.
            let fastest_last: Vec<usize> = match order {
                ArrayOrder::C => (0..n).collect(),
                ArrayOrder::Fortran => (0..n).rev().collect(),
            };
            let ext = extent_of(child);
            let total: u64 = subsizes.iter().product();
            let mut idx = vec![0u64; n];
            for _ in 0..total {
                let mut elem = 0i64;
                for d in 0..n {
                    elem += (starts[d] + idx[d]) as i64 * stride[d];
                }
                if !emit(child, base + elem * ext, out) {
                    return false;
                }
                // Odometer increment over `fastest_last`, last entry fastest.
                for &d in fastest_last.iter().rev() {
                    idx[d] += 1;
                    if idx[d] < subsizes[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
            true
        }
        Kind::Resized { child, .. } => emit(child, base, out),
    }
}

/// Emits `(byte_offset, blocklen)` blocks of `child` instances tiling by
/// the child extent, in sequence order.
fn emit_blocks(
    blocks: impl Iterator<Item = (i64, u64)>,
    child: &Datatype,
    base: i64,
    out: &mut Vec<TypeMapEntry>,
) -> bool {
    let ext = extent_of(child);
    for (off, bl) in blocks {
        for k in 0..bl {
            if !emit(child, base + off + k as i64 * ext, out) {
                return false;
            }
        }
    }
    true
}

impl TypeOracle {
    /// Interprets the type tree into a flat typemap. Returns `None` when
    /// one instance exceeds [`ORACLE_ENTRY_CAP`] entries.
    pub fn build(t: &Datatype) -> Option<TypeOracle> {
        let mut entries = Vec::new();
        if !emit(t, 0, &mut entries) {
            return None;
        }
        let (lb, ub) = bounds(t);
        Some(TypeOracle { entries, lb, ub })
    }

    /// The typemap entries of one instance, in constructor order.
    pub fn entries(&self) -> &[TypeMapEntry] {
        &self.entries
    }

    /// Reference lower bound.
    pub fn lb(&self) -> i64 {
        self.lb
    }

    /// Reference upper bound (including resized overrides and struct
    /// alignment padding).
    pub fn ub(&self) -> i64 {
        self.ub
    }

    /// Reference extent.
    pub fn extent(&self) -> i64 {
        self.ub - self.lb
    }

    /// Reference payload size: the sum of the primitive sizes in the map.
    pub fn size(&self) -> u64 {
        self.entries.iter().map(|e| e.primitive.size() as u64).sum()
    }

    /// Reference signature: the primitive multiset of the map.
    pub fn signature(&self) -> Signature {
        let mut sig = Signature::empty();
        for e in &self.entries {
            sig = sig.plus(&Signature::of(e.primitive)).expect("oracle signature overflow");
        }
        sig
    }

    /// The byte range `[lo, hi)` relative to the instance-0 origin touched
    /// by `count` instances; `(0, 0)` for empty maps.
    pub fn touched_span(&self, count: usize) -> (i64, i64) {
        if self.entries.is_empty() || count == 0 {
            return (0, 0);
        }
        let ext = self.extent();
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for i in 0..count as i64 {
            for e in &self.entries {
                let at = i * ext + e.displacement;
                lo = lo.min(at);
                hi = hi.max(at + e.primitive.size() as i64);
            }
        }
        (lo, hi)
    }

    /// Reference pack: walks the map entry by entry, instance by instance.
    /// Returns `None` if any entry falls outside `src`.
    pub fn pack(&self, src: &[u8], origin: usize, count: usize) -> Option<Vec<u8>> {
        let ext = self.extent();
        let mut out = Vec::with_capacity(self.size() as usize * count);
        for i in 0..count as i64 {
            for e in &self.entries {
                let at = origin as i64 + i * ext + e.displacement;
                let sz = e.primitive.size();
                if at < 0 || (at as usize) + sz > src.len() {
                    return None;
                }
                out.extend_from_slice(&src[at as usize..at as usize + sz]);
            }
        }
        Some(out)
    }

    /// Reference unpack: the exact inverse walk of [`TypeOracle::pack`].
    /// Returns `None` if `packed` is short or an entry falls outside `dst`.
    pub fn unpack(&self, packed: &[u8], dst: &mut [u8], origin: usize, count: usize) -> Option<()> {
        let ext = self.extent();
        let mut pos = 0usize;
        for i in 0..count as i64 {
            for e in &self.entries {
                let at = origin as i64 + i * ext + e.displacement;
                let sz = e.primitive.size();
                if at < 0 || (at as usize) + sz > dst.len() || pos + sz > packed.len() {
                    return None;
                }
                dst[at as usize..at as usize + sz].copy_from_slice(&packed[pos..pos + sz]);
                pos += sz;
            }
        }
        Some(())
    }
}

/// A differential disagreement, carrying everything needed to reproduce
/// the failing case by hand.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// `describe()` of the offending type.
    pub case: String,
    /// Instance count of the failing operation.
    pub count: usize,
    /// Seed that produced the buffer contents and cut points.
    pub seed: u64,
    /// Which differential disagreed, and how.
    pub what: String,
}

impl std::fmt::Display for OracleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oracle mismatch [count={} seed={}]: {}\n  type: {}",
            self.count, self.seed, self.what, self.case
        )
    }
}

/// Runs the full differential battery for one case. `Ok(())` means every
/// engine agreed with the naive interpreter; `Err` carries the first
/// disagreement. Types whose map exceeds [`ORACLE_ENTRY_CAP`] are skipped
/// (reported as `Ok`): the oracle is deliberately naive and unbounded
/// inputs belong to the production engines alone.
pub fn check_type(t: &Datatype, count: usize, seed: u64) -> Result<(), Box<OracleReport>> {
    let Some(oracle) = TypeOracle::build(t) else {
        return Ok(());
    };
    let fail = |what: String| {
        Err(Box::new(OracleReport { case: t.describe(), count, seed, what }))
    };

    // --- metadata ---------------------------------------------------------
    if oracle.size() != t.size() {
        return fail(format!("size: oracle {} vs node {}", oracle.size(), t.size()));
    }
    if (oracle.lb(), oracle.ub()) != (t.lb(), t.ub()) {
        return fail(format!(
            "bounds: oracle ({}, {}) vs node ({}, {})",
            oracle.lb(),
            oracle.ub(),
            t.lb(),
            t.ub()
        ));
    }
    if oracle.extent() as u64 != t.extent() {
        return fail(format!("extent: oracle {} vs node {}", oracle.extent(), t.extent()));
    }
    if oracle.signature() != *t.signature() {
        return fail(format!(
            "signature: oracle {:?} vs node {:?}",
            oracle.signature(),
            t.signature()
        ));
    }
    let preview = t.type_map_preview(usize::MAX);
    if preview != oracle.entries() {
        return fail(format!(
            "typemap: oracle {} entries vs preview {} entries (first divergence at {:?})",
            oracle.entries().len(),
            preview.len(),
            oracle
                .entries()
                .iter()
                .zip(preview.iter())
                .position(|(a, b)| a != b)
                .or(Some(oracle.entries().len().min(preview.len())))
        ));
    }

    // --- buffers ----------------------------------------------------------
    let t = t.clone().commit();
    let (lo, hi) = oracle.touched_span(count);
    let origin = usize::try_from((-lo).max(0)).unwrap() + 8;
    let buf_len = origin + usize::try_from(hi.max(0)).unwrap() + 8;
    let mut rng = XorShift::new(seed);
    let src: Vec<u8> = (0..buf_len).map(|_| rng.next() as u8).collect();
    let packed_len = oracle.size() as usize * count;

    // --- pack: reference vs compiled vs uncompiled ------------------------
    let Some(reference) = oracle.pack(&src, origin, count) else {
        return fail("reference pack fell outside its own computed span".into());
    };
    let mut compiled = vec![0u8; packed_len];
    if let Err(e) = crate::pack::pack_into(&src, origin, &t, count, &mut compiled) {
        return fail(format!("pack_into failed: {e}"));
    }
    if compiled != reference {
        return fail(format!(
            "packed bytes: compiled engine diverges from reference at byte {:?}",
            reference.iter().zip(compiled.iter()).position(|(a, b)| a != b)
        ));
    }
    let mut uncompiled = vec![0u8; packed_len];
    if let Err(e) = crate::pack::pack_into_uncompiled(&src, origin, &t, count, &mut uncompiled) {
        return fail(format!("pack_into_uncompiled failed: {e}"));
    }
    if uncompiled != reference {
        return fail(format!(
            "packed bytes: uncompiled engine diverges from reference at byte {:?}",
            reference.iter().zip(uncompiled.iter()).position(|(a, b)| a != b)
        ));
    }

    // --- unpack: reference vs engine --------------------------------------
    let mut dst_ref = vec![0u8; buf_len];
    if oracle.unpack(&reference, &mut dst_ref, origin, count).is_none() {
        return fail("reference unpack fell outside its own computed span".into());
    }
    let mut dst_eng = vec![0u8; buf_len];
    if let Err(e) = crate::pack::unpack_from(&reference, &t, count, &mut dst_eng, origin) {
        return fail(format!("unpack_from failed: {e}"));
    }
    if dst_eng != dst_ref {
        return fail(format!(
            "unpacked layout diverges from reference at byte {:?}",
            dst_ref.iter().zip(dst_eng.iter()).position(|(a, b)| a != b)
        ));
    }

    // --- chunk sub-ranges vs reference ------------------------------------
    if let Some(plan) = crate::plan::plan_for(&t, count) {
        if plan.packed_len() != packed_len {
            return fail(format!(
                "plan packed_len {} vs reference {}",
                plan.packed_len(),
                packed_len
            ));
        }
        // Oracle-chosen cut points: a handful of seeded positions snapped
        // to legal boundaries, always ending at packed_len.
        let mut cuts = vec![0u64];
        for _ in 0..4 {
            cuts.push(plan.align_chunk(rng.next() % (packed_len as u64 + 1)));
        }
        cuts.push(packed_len as u64);
        cuts.sort_unstable();
        cuts.dedup();

        let mut piecewise = vec![0u8; packed_len];
        for w in cuts.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            if let Err(e) =
                plan.pack_range_into(&src, origin, &mut piecewise[a..b], a as u64, b as u64)
            {
                return fail(format!("pack_range_into [{a}, {b}) failed: {e}"));
            }
        }
        if piecewise != reference {
            return fail(format!(
                "piecewise pack over cuts {:?} diverges from reference at byte {:?}",
                cuts,
                reference.iter().zip(piecewise.iter()).position(|(a, b)| a != b)
            ));
        }

        let mut dst_piece = vec![0u8; buf_len];
        for w in cuts.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            if let Err(e) =
                plan.unpack_range_from(&reference[a..b], &mut dst_piece, origin, a as u64, b as u64)
            {
                return fail(format!("unpack_range_from [{a}, {b}) failed: {e}"));
            }
        }
        if dst_piece != dst_ref {
            return fail(format!(
                "piecewise unpack over cuts {:?} diverges from reference at byte {:?}",
                cuts,
                dst_ref.iter().zip(dst_piece.iter()).position(|(a, b)| a != b)
            ));
        }
    }

    Ok(())
}
