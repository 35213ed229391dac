//! Canonical type normalization: collapse nested constructor trees into
//! minimal strided descriptors before plan compilation.
//!
//! Two structurally different construction histories frequently describe
//! the *same* byte layout — `vector(n, b, b)` is `contiguous(n*b)`, a
//! one-count wrapper is its child, an hvector whose byte stride is a
//! multiple of the child extent is a plain vector, and a subarray with a
//! single partial dimension is a strided vector in disguise. TEMPI
//! (arXiv:2012.14363) showed that canonicalizing such trees before
//! choosing a datapath is where most of the speedup of a smart engine
//! comes from: the canonical form compiles to fewer plan ops, is
//! recognized by the strided fast paths, and — crucially — lets
//! canonically-equal types share one compiled-plan cache entry.
//!
//! [`Datatype::normalized`] returns the canonical representative (which
//! may be the type itself), and [`Datatype::normalized_id`] an interned
//! process-unique id of the canonical *structure*, so separately built
//! but layout-identical types map to the same id. Every rewrite preserves
//! the typemap byte-for-byte **in typemap order** (pack output is
//! bit-identical) and the committed `(lb, extent)` pair (multi-instance
//! tiling is unchanged); when a rewrite would alter the bounds — e.g.
//! dropping struct padding — the result is wrapped in a `Resized` that
//! restores them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::error::Result;
use crate::node::{Datatype, Kind, StructField, TypeNode};

/// Rewrites that would materialize a displacement or block list longer
/// than this keep the original constructor instead (the canonical key
/// likewise falls back to node identity above this many entries).
pub const NORMALIZE_LIST_CAP: usize = 1 << 12;

static NORM_HITS: AtomicU64 = AtomicU64::new(0);
static NORM_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the per-node normalization cache: a hit means the
/// canonical form was already memoized on the node, a miss that the
/// rewrite pass actually ran. Surfaced through `plan::cache_stats`.
pub fn norm_counters() -> (u64, u64) {
    (NORM_HITS.load(Ordering::Relaxed), NORM_MISSES.load(Ordering::Relaxed))
}

/// Interner mapping canonical structure keys to process-unique ids.
fn interner() -> &'static Mutex<HashMap<String, u64>> {
    static I: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    I.get_or_init(|| Mutex::new(HashMap::new()))
}

fn intern(key: String) -> u64 {
    let mut map = interner().lock().expect("normalize interner poisoned");
    let next = map.len() as u64 + 1;
    *map.entry(key).or_insert(next)
}

impl Datatype {
    /// The canonical representative of this type's layout: same typemap in
    /// the same order, same `(lb, extent)`, minimal constructor tree.
    /// Memoized on the node, so repeated calls are O(1).
    pub fn normalized(&self) -> Datatype {
        match &self.norm_entry().1 {
            Some(rep) => rep.clone(),
            None => self.clone(),
        }
    }

    /// Interned id of the canonical structure. Separately built but
    /// layout-identical types share an id; this keys the compiled
    /// pack-plan cache so canonically-equal types share plan entries.
    pub fn normalized_id(&self) -> u64 {
        self.norm_entry().0
    }

    /// Whether normalization changed anything (i.e. this type was not
    /// already in canonical form).
    pub fn is_canonical(&self) -> bool {
        self.norm_entry().1.is_none()
    }

    fn norm_entry(&self) -> &(u64, Option<Datatype>) {
        if let Some(e) = self.node.norm.get() {
            NORM_HITS.fetch_add(1, Ordering::Relaxed);
            return e;
        }
        NORM_MISSES.fetch_add(1, Ordering::Relaxed);
        self.node.norm.get_or_init(|| compute_norm(self))
    }
}

/// Full normalization of one node: canonicalize children, reduce the root
/// to a fixpoint, re-impose the original bounds, intern the key.
fn compute_norm(d: &Datatype) -> (u64, Option<Datatype>) {
    let (reduced, changed) = match normalize_tree(d) {
        Ok(pair) => pair,
        // Arithmetic overflow in a rewrite: keep the original form.
        Err(_) => (d.clone(), false),
    };
    let rep = if changed {
        // Rewrites preserve the typemap but may shrink declared bounds
        // (struct padding, subarray full-array extents). Restore them so
        // `count > 1` tiling is unchanged.
        let guarded = if reduced.lb() != d.lb() || reduced.ub() != d.ub() {
            Datatype::resized(&reduced, d.lb(), d.extent()).unwrap_or_else(|_| d.clone())
        } else {
            reduced
        };
        debug_assert_eq!(guarded.size(), d.size());
        debug_assert_eq!(guarded.lb(), d.lb());
        debug_assert_eq!(guarded.ub(), d.ub());
        Some(guarded.commit())
    } else {
        None
    };
    let canonical = rep.as_ref().unwrap_or(d);
    let mut key = String::new();
    canon_key(canonical, &mut key);
    let id = intern(key);
    if let Some(rep) = &rep {
        // The representative is canonical by construction; memoize that so
        // nested lookups on it are O(1) and do not rewrite again.
        let _ = rep.node.norm.set((id, None));
    }
    (id, rep)
}

/// Canonicalize children, then reduce the root until no rule fires.
/// Returns the reduced type and whether anything changed.
fn normalize_tree(d: &Datatype) -> Result<(Datatype, bool)> {
    let (mut cur, mut changed) = with_norm_children(d)?;
    while let Some(next) = reduce_once(&cur)? {
        cur = next;
        changed = true;
    }
    Ok((cur, changed))
}

/// Rebuild `d` with canonicalized children (identity when no child moved).
fn with_norm_children(d: &Datatype) -> Result<(Datatype, bool)> {
    let rebuilt = match d.kind() {
        Kind::Primitive(_) => return Ok((d.clone(), false)),
        Kind::Contiguous { count, child } => {
            let c = child.normalized();
            if c.same_type(child) {
                return Ok((d.clone(), false));
            }
            Kind::Contiguous { count: *count, child: c }
        }
        Kind::Vector { count, blocklen, stride, child } => {
            let c = child.normalized();
            if c.same_type(child) {
                return Ok((d.clone(), false));
            }
            Kind::Vector { count: *count, blocklen: *blocklen, stride: *stride, child: c }
        }
        Kind::Hvector { count, blocklen, stride_bytes, child } => {
            let c = child.normalized();
            if c.same_type(child) {
                return Ok((d.clone(), false));
            }
            Kind::Hvector {
                count: *count,
                blocklen: *blocklen,
                stride_bytes: *stride_bytes,
                child: c,
            }
        }
        Kind::Indexed { blocks, child } => {
            let c = child.normalized();
            if c.same_type(child) {
                return Ok((d.clone(), false));
            }
            Kind::Indexed { blocks: blocks.clone(), child: c }
        }
        Kind::Hindexed { blocks, child } => {
            let c = child.normalized();
            if c.same_type(child) {
                return Ok((d.clone(), false));
            }
            Kind::Hindexed { blocks: blocks.clone(), child: c }
        }
        Kind::IndexedBlock { blocklen, displacements, child } => {
            let c = child.normalized();
            if c.same_type(child) {
                return Ok((d.clone(), false));
            }
            Kind::IndexedBlock {
                blocklen: *blocklen,
                displacements: displacements.clone(),
                child: c,
            }
        }
        Kind::Struct { fields } => {
            let norm: Vec<Datatype> = fields.iter().map(|f| f.datatype.normalized()).collect();
            if norm.iter().zip(fields.iter()).all(|(n, f)| n.same_type(&f.datatype)) {
                return Ok((d.clone(), false));
            }
            Kind::Struct {
                fields: fields
                    .iter()
                    .zip(norm)
                    .map(|(f, datatype)| StructField {
                        blocklen: f.blocklen,
                        displacement: f.displacement,
                        datatype,
                    })
                    .collect(),
            }
        }
        Kind::Subarray { sizes, subsizes, starts, order, child } => {
            let c = child.normalized();
            if c.same_type(child) {
                return Ok((d.clone(), false));
            }
            Kind::Subarray {
                sizes: sizes.clone(),
                subsizes: subsizes.clone(),
                starts: starts.clone(),
                order: *order,
                child: c,
            }
        }
        Kind::Resized { lb, extent, child } => {
            let c = child.normalized();
            if c.same_type(child) {
                return Ok((d.clone(), false));
            }
            Kind::Resized { lb: *lb, extent: *extent, child: c }
        }
    };
    Ok((TypeNode::build(rebuilt)?, true))
}

/// Whether `count > 1` and consecutive instances of `child` tile
/// seamlessly by the child extent with a dense body — the precondition
/// for merging instance runs across a block boundary.
fn child_tiles(child: &Datatype) -> bool {
    child.size() > 0
        && child
            .dense_block()
            .is_some_and(|b| b.len as i64 == child.extent_i64() && b.offset == 0)
}

fn cmul(a: i64, b: i64) -> Result<i64> {
    a.checked_mul(b).ok_or(crate::error::DatatypeError::Overflow)
}

fn cmulu(a: u64, b: u64) -> Result<u64> {
    a.checked_mul(b).ok_or(crate::error::DatatypeError::Overflow)
}

/// One local rewrite at the root (children are already canonical).
/// Returns `None` when no rule applies.
fn reduce_once(d: &Datatype) -> Result<Option<Datatype>> {
    let out = match d.kind() {
        // -- count-1 and nested-contiguous flattening ---------------------
        Kind::Contiguous { count: 1, child } => Some(child.clone()),
        Kind::Contiguous { count, child } => match child.kind() {
            Kind::Contiguous { count: n, child: inner } if *count > 0 && *n > 0 => {
                Some(TypeNode::build(Kind::Contiguous {
                    count: cmulu(*count, *n)?,
                    child: inner.clone(),
                })?)
            }
            _ => None,
        },

        // -- vector canonicalization --------------------------------------
        Kind::Vector { count, blocklen, stride, child } => {
            let (count, blocklen, stride) = (*count, *blocklen, *stride);
            if count == 0 || blocklen == 0 {
                None
            } else if count == 1 {
                Some(TypeNode::build(Kind::Contiguous { count: blocklen, child: child.clone() })?)
            } else if stride == blocklen as i64 {
                // stride == blocklen: blocks tile seamlessly.
                Some(TypeNode::build(Kind::Contiguous {
                    count: cmulu(count, blocklen)?,
                    child: child.clone(),
                })?)
            } else if let Kind::Contiguous { count: n, child: inner } = child.kind() {
                // Hoist a contiguous child into the block length.
                Some(TypeNode::build(Kind::Vector {
                    count,
                    blocklen: cmulu(blocklen, *n)?,
                    stride: cmul(stride, *n as i64)?,
                    child: inner.clone(),
                })?)
            } else {
                None
            }
        }

        // -- hvector: prefer element strides when the byte stride divides --
        Kind::Hvector { count, blocklen, stride_bytes, child } => {
            let (count, blocklen, sb) = (*count, *blocklen, *stride_bytes);
            let ext = child.extent_i64();
            if count == 0 || blocklen == 0 {
                None
            } else if count == 1 {
                Some(TypeNode::build(Kind::Contiguous { count: blocklen, child: child.clone() })?)
            } else if ext > 0 && sb % ext == 0 {
                Some(TypeNode::build(Kind::Vector {
                    count,
                    blocklen,
                    stride: sb / ext,
                    child: child.clone(),
                })?)
            } else {
                None
            }
        }

        // -- indexed flavors: drop empties, merge adjacent, find strides --
        Kind::Indexed { blocks, child } => reduce_indexed(blocks, child)?,
        Kind::Hindexed { blocks, child } => {
            let ext = child.extent_i64();
            if ext > 0 && blocks.iter().all(|&(_, o)| o % ext == 0) {
                // Byte displacements all divide the extent: an Indexed.
                let elems: Vec<(u64, i64)> = blocks.iter().map(|&(bl, o)| (bl, o / ext)).collect();
                Some(TypeNode::build(Kind::Indexed { blocks: elems.into(), child: child.clone() })?)
            } else {
                reduce_hindexed(blocks, child)?
            }
        }
        Kind::IndexedBlock { blocklen, displacements, child } => {
            let bl = *blocklen;
            if bl == 0 || displacements.is_empty() {
                None
            } else {
                let blocks: Vec<(u64, i64)> = displacements.iter().map(|&x| (bl, x)).collect();
                reduce_indexed(&blocks, child)?
            }
        }

        // -- single-field struct at displacement zero ---------------------
        Kind::Struct { fields } => {
            if fields.len() == 1 && fields[0].displacement == 0 && fields[0].blocklen > 0 {
                Some(TypeNode::build(Kind::Contiguous {
                    count: fields[0].blocklen,
                    child: fields[0].datatype.clone(),
                })?)
            } else {
                None
            }
        }

        // -- subarray: full selections and single-partial-dim strides -----
        Kind::Subarray { sizes, subsizes, starts, order, child } => {
            reduce_subarray(sizes, subsizes, starts, *order, child)?
        }

        // -- resized: collapse stacked resizes, drop no-ops ---------------
        Kind::Resized { lb, extent, child } => {
            if let Kind::Resized { child: inner, .. } = child.kind() {
                Some(TypeNode::build(Kind::Resized {
                    lb: *lb,
                    extent: *extent,
                    child: inner.clone(),
                })?)
            } else if *lb == child.lb() && *extent == child.extent() {
                Some(child.clone())
            } else {
                None
            }
        }

        Kind::Primitive(_) => None,
    };
    Ok(out)
}

/// Shared reduction for element-displacement block lists (`Indexed`, with
/// `IndexedBlock` routed through it).
fn reduce_indexed(blocks: &[(u64, i64)], child: &Datatype) -> Result<Option<Datatype>> {
    // Drop empty blocks and merge runs that are adjacent in typemap order:
    // block (bl, disp) spans bl child extents, so a successor starting at
    // disp + bl continues the same tiling seamlessly.
    let mut merged: Vec<(u64, i64)> = Vec::with_capacity(blocks.len());
    for &(bl, disp) in blocks {
        if bl == 0 {
            continue;
        }
        match merged.last_mut() {
            Some((pbl, pd)) if disp == *pd + *pbl as i64 => *pbl = pbl.checked_add(bl).ok_or(crate::error::DatatypeError::Overflow)?,
            _ => merged.push((bl, disp)),
        }
    }
    if merged.len() == blocks.len() && merged.iter().zip(blocks).all(|(a, b)| a == b) {
        // Nothing merged: still try the stride recognitions below, but only
        // if they fire; otherwise report "no change".
        return stride_of_blocks(&merged, child);
    }
    if merged.is_empty() {
        return Ok(Some(TypeNode::build(Kind::Contiguous { count: 0, child: child.clone() })?));
    }
    if let Some(t) = stride_of_blocks(&merged, child)? {
        return Ok(Some(t));
    }
    Ok(Some(TypeNode::build(Kind::Indexed { blocks: merged.into(), child: child.clone() })?))
}

/// Recognize a merged block list as contiguous or a uniform-stride vector.
fn stride_of_blocks(blocks: &[(u64, i64)], child: &Datatype) -> Result<Option<Datatype>> {
    if blocks.is_empty() {
        return Ok(None);
    }
    if blocks.len() == 1 && blocks[0].1 == 0 {
        return Ok(Some(TypeNode::build(Kind::Contiguous {
            count: blocks[0].0,
            child: child.clone(),
        })?));
    }
    let bl = blocks[0].0;
    if blocks.len() >= 2 && blocks.iter().all(|&(b, _)| b == bl) && blocks[0].1 == 0 {
        let s = blocks[1].1 - blocks[0].1;
        if s != 0
            && blocks.windows(2).all(|w| w[1].1 - w[0].1 == s)
        {
            return Ok(Some(TypeNode::build(Kind::Vector {
                count: blocks.len() as u64,
                blocklen: bl,
                stride: s,
                child: child.clone(),
            })?));
        }
    }
    Ok(None)
}

/// Reduction for byte-displacement block lists whose displacements do not
/// all divide the child extent.
fn reduce_hindexed(blocks: &[(u64, i64)], child: &Datatype) -> Result<Option<Datatype>> {
    let ext = child.extent_i64();
    let mut merged: Vec<(u64, i64)> = Vec::with_capacity(blocks.len());
    for &(bl, off) in blocks {
        if bl == 0 {
            continue;
        }
        match merged.last_mut() {
            Some((pbl, po)) if off == *po + cmul(*pbl as i64, ext)? => {
                *pbl = pbl.checked_add(bl).ok_or(crate::error::DatatypeError::Overflow)?
            }
            _ => merged.push((bl, off)),
        }
    }
    let unchanged = merged.len() == blocks.len() && merged.iter().zip(blocks).all(|(a, b)| a == b);
    if merged.is_empty() {
        return Ok(Some(TypeNode::build(Kind::Contiguous { count: 0, child: child.clone() })?));
    }
    if merged.len() == 1 && merged[0].1 == 0 {
        return Ok(Some(TypeNode::build(Kind::Contiguous {
            count: merged[0].0,
            child: child.clone(),
        })?));
    }
    let bl = merged[0].0;
    if merged.len() >= 2 && merged.iter().all(|&(b, _)| b == bl) && merged[0].1 == 0 {
        let s = merged[1].1 - merged[0].1;
        if s != 0 && merged.windows(2).all(|w| w[1].1 - w[0].1 == s) {
            return Ok(Some(TypeNode::build(Kind::Hvector {
                count: merged.len() as u64,
                blocklen: bl,
                stride_bytes: s,
                child: child.clone(),
            })?));
        }
    }
    if unchanged {
        return Ok(None);
    }
    Ok(Some(TypeNode::build(Kind::Hindexed { blocks: merged.into(), child: child.clone() })?))
}

/// Subarray reductions: a full selection is contiguous; a selection whose
/// runs form a single arithmetic progression is a vector (or an
/// indexed-block when the first run is offset). The caller's bound guard
/// restores the full-array extent afterwards.
fn reduce_subarray(
    sizes: &[u64],
    subsizes: &[u64],
    starts: &[u64],
    order: crate::node::ArrayOrder,
    child: &Datatype,
) -> Result<Option<Datatype>> {
    use crate::node::ArrayOrder;
    let ndims = sizes.len();
    let sel_elems = subsizes.iter().try_fold(1u64, |a, &s| cmulu(a, s))?;
    if sel_elems == 0 || child.size() == 0 {
        return Ok(None);
    }
    let full = subsizes == sizes;
    if full {
        return Ok(Some(TypeNode::build(Kind::Contiguous {
            count: sel_elems,
            child: child.clone(),
        })?));
    }
    if !child_tiles(child) {
        return Ok(None);
    }
    // Element strides per dimension, as in node::build_subarray.
    let mut stride = vec![1u64; ndims];
    match order {
        ArrayOrder::C => {
            for dim in (0..ndims.saturating_sub(1)).rev() {
                stride[dim] = cmulu(stride[dim + 1], sizes[dim + 1])?;
            }
        }
        ArrayOrder::Fortran => {
            for dim in 1..ndims {
                stride[dim] = cmulu(stride[dim - 1], sizes[dim - 1])?;
            }
        }
    }
    let dims_by_locality: Vec<usize> = match order {
        ArrayOrder::C => (0..ndims).collect(),
        ArrayOrder::Fortran => (0..ndims).rev().collect(),
    };
    // Innermost contiguous run, then at most one dimension may contribute
    // multiple runs for the layout to be a single arithmetic progression.
    let mut run_elems = 1u64;
    let mut outer_dims: Vec<usize> = Vec::new();
    let mut still_inner = true;
    for &dim in dims_by_locality.iter().rev() {
        if still_inner {
            if subsizes[dim] == sizes[dim] {
                run_elems = cmulu(run_elems, sizes[dim])?;
                continue;
            }
            run_elems = cmulu(run_elems, subsizes[dim])?;
            still_inner = false;
        } else if subsizes[dim] > 1 {
            outer_dims.push(dim);
        }
    }
    let mut first = 0i64;
    for dim in 0..ndims {
        first = first
            .checked_add(cmul(starts[dim] as i64, stride[dim] as i64)?)
            .ok_or(crate::error::DatatypeError::Overflow)?;
    }
    match outer_dims.as_slice() {
        [] => {
            // One run of run_elems elements at offset `first`.
            let t = if first == 0 {
                TypeNode::build(Kind::Contiguous { count: run_elems, child: child.clone() })?
            } else {
                TypeNode::build(Kind::Indexed {
                    blocks: vec![(run_elems, first)].into(),
                    child: child.clone(),
                })?
            };
            Ok(Some(t))
        }
        [dim] => {
            let nruns = subsizes[*dim];
            let s = stride[*dim] as i64;
            if first == 0 {
                Ok(Some(TypeNode::build(Kind::Vector {
                    count: nruns,
                    blocklen: run_elems,
                    stride: s,
                    child: child.clone(),
                })?))
            } else if nruns as usize <= NORMALIZE_LIST_CAP {
                let disps: Vec<i64> = (0..nruns)
                    .map(|k| cmul(k as i64, s).and_then(|o| {
                        o.checked_add(first).ok_or(crate::error::DatatypeError::Overflow)
                    }))
                    .collect::<Result<_>>()?;
                Ok(Some(TypeNode::build(Kind::IndexedBlock {
                    blocklen: run_elems,
                    displacements: disps.into(),
                    child: child.clone(),
                })?))
            } else {
                Ok(None)
            }
        }
        _ => Ok(None),
    }
}

/// Serialize the canonical structure into the interner key. Block lists
/// longer than [`NORMALIZE_LIST_CAP`] fall back to node identity (no
/// cross-type sharing, but bounded key size).
fn canon_key(d: &Datatype, out: &mut String) {
    match d.kind() {
        Kind::Primitive(p) => {
            let _ = write!(out, "p{p:?}");
        }
        Kind::Contiguous { count, child } => {
            let _ = write!(out, "c{count}(");
            canon_key(child, out);
            out.push(')');
        }
        Kind::Vector { count, blocklen, stride, child } => {
            let _ = write!(out, "v{count},{blocklen},{stride}(");
            canon_key(child, out);
            out.push(')');
        }
        Kind::Hvector { count, blocklen, stride_bytes, child } => {
            let _ = write!(out, "h{count},{blocklen},{stride_bytes}(");
            canon_key(child, out);
            out.push(')');
        }
        Kind::Indexed { blocks, child } => {
            if blocks.len() > NORMALIZE_LIST_CAP {
                let _ = write!(out, "u{}", d.type_id());
                return;
            }
            out.push('i');
            for (bl, disp) in blocks.iter() {
                let _ = write!(out, "{bl}@{disp},");
            }
            out.push('(');
            canon_key(child, out);
            out.push(')');
        }
        Kind::Hindexed { blocks, child } => {
            if blocks.len() > NORMALIZE_LIST_CAP {
                let _ = write!(out, "u{}", d.type_id());
                return;
            }
            out.push('x');
            for (bl, disp) in blocks.iter() {
                let _ = write!(out, "{bl}@{disp},");
            }
            out.push('(');
            canon_key(child, out);
            out.push(')');
        }
        Kind::IndexedBlock { blocklen, displacements, child } => {
            if displacements.len() > NORMALIZE_LIST_CAP {
                let _ = write!(out, "u{}", d.type_id());
                return;
            }
            let _ = write!(out, "b{blocklen}[");
            for disp in displacements.iter() {
                let _ = write!(out, "{disp},");
            }
            out.push_str("](");
            canon_key(child, out);
            out.push(')');
        }
        Kind::Struct { fields } => {
            if fields.len() > NORMALIZE_LIST_CAP {
                let _ = write!(out, "u{}", d.type_id());
                return;
            }
            out.push_str("s[");
            for f in fields.iter() {
                let _ = write!(out, "{}@{}:", f.blocklen, f.displacement);
                canon_key(&f.datatype, out);
                out.push(',');
            }
            out.push(']');
        }
        Kind::Subarray { sizes, subsizes, starts, order, child } => {
            let _ = write!(out, "a{sizes:?}{subsizes:?}{starts:?}{order:?}(");
            canon_key(child, out);
            out.push(')');
        }
        Kind::Resized { lb, extent, child } => {
            let _ = write!(out, "r{lb},{extent}(");
            canon_key(child, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::layout_eq;
    use crate::{Datatype, PackPlan};

    #[test]
    fn dense_vector_normalizes_to_contiguous() {
        let v = Datatype::vector(10, 4, 4, &Datatype::f64()).unwrap();
        let n = v.normalized();
        assert!(matches!(n.kind(), Kind::Contiguous { count: 40, .. }));
        assert!(layout_eq(&v, &n));
        assert_eq!(n.extent(), v.extent());
    }

    #[test]
    fn count_one_wrappers_flatten() {
        let f = Datatype::f64();
        let c1 = Datatype::contiguous(1, &f).unwrap();
        assert!(c1.normalized().same_type(&c1.normalized()));
        assert!(matches!(c1.normalized().kind(), Kind::Primitive(_)));
        let v1 = Datatype::vector(1, 6, 9, &f).unwrap();
        assert!(matches!(v1.normalized().kind(), Kind::Contiguous { count: 6, .. }));
    }

    #[test]
    fn nested_contiguous_merges() {
        let inner = Datatype::contiguous(4, &Datatype::i32()).unwrap();
        let outer = Datatype::contiguous(3, &inner).unwrap();
        let n = outer.normalized();
        assert!(matches!(n.kind(), Kind::Contiguous { count: 12, .. }));
        assert!(layout_eq(&outer, &n));
    }

    #[test]
    fn vector_of_contiguous_hoists() {
        let inner = Datatype::contiguous(2, &Datatype::f64()).unwrap();
        let v = Datatype::vector(5, 3, 7, &inner).unwrap();
        let n = v.normalized();
        match n.kind() {
            Kind::Vector { count: 5, blocklen: 6, stride: 14, child } => {
                assert!(matches!(child.kind(), Kind::Primitive(_)));
            }
            k => panic!("unexpected canonical kind {k:?}"),
        }
        assert!(layout_eq(&v, &n));
        assert_eq!(n.extent(), v.extent());
    }

    #[test]
    fn hvector_with_divisible_stride_becomes_vector() {
        let h = Datatype::hvector(6, 1, 16, &Datatype::f64()).unwrap();
        let n = h.normalized();
        assert!(matches!(n.kind(), Kind::Vector { count: 6, blocklen: 1, stride: 2, .. }));
        assert!(layout_eq(&h, &n));
        // And the canonical ids agree with the equivalent vector, whose
        // separately compiled program is the same.
        let v = Datatype::vector(6, 1, 2, &Datatype::f64()).unwrap();
        assert_eq!(h.normalized_id(), v.normalized_id());
        assert_eq!(PackPlan::compile(&n, 1), PackPlan::compile(&v.normalized(), 1));
    }

    #[test]
    fn indexed_adjacent_blocks_merge() {
        let i = Datatype::indexed(&[(2, 0), (3, 2), (1, 5)], &Datatype::i32()).unwrap();
        let n = i.normalized();
        assert!(matches!(n.kind(), Kind::Contiguous { count: 6, .. }));
        assert!(layout_eq(&i, &n));
    }

    #[test]
    fn uniform_indexed_becomes_vector() {
        let i = Datatype::indexed(&[(2, 0), (2, 5), (2, 10), (2, 15)], &Datatype::f64()).unwrap();
        let n = i.normalized();
        assert!(matches!(n.kind(), Kind::Vector { count: 4, blocklen: 2, stride: 5, .. }));
        assert!(layout_eq(&i, &n));
    }

    #[test]
    fn struct_single_field_keeps_padded_extent() {
        // One i32 field: contiguous body, but struct extent is padded.
        let s = Datatype::structure(&[(3, 0, Datatype::i32())]).unwrap();
        let n = s.normalized();
        assert!(layout_eq(&s, &n));
        assert_eq!(n.lb(), s.lb());
        assert_eq!(n.extent(), s.extent());
    }

    #[test]
    fn subarray_single_partial_dim_is_vector() {
        // 4x6 f64, select all 4 rows x 3 leading columns: 4 runs of 3.
        let s = Datatype::subarray(&[4, 6], &[4, 3], &[0, 0], crate::ArrayOrder::C, &Datatype::f64())
            .unwrap();
        let n = s.normalized();
        assert!(layout_eq(&s, &n));
        assert_eq!(n.extent(), s.extent());
        assert_eq!(n.lb(), 0);
        // Canonical form is a vector under a resized wrapper (full-array
        // extent restored).
        match n.kind() {
            Kind::Resized { child, .. } => {
                assert!(matches!(child.kind(), Kind::Vector { count: 4, blocklen: 3, stride: 6, .. }));
            }
            k => panic!("unexpected canonical kind {k:?}"),
        }
    }

    #[test]
    fn subarray_with_offset_start_uses_indexed_block() {
        let s = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], crate::ArrayOrder::C, &Datatype::f64())
            .unwrap();
        let n = s.normalized();
        assert!(layout_eq(&s, &n));
        assert_eq!(n.extent(), s.extent());
    }

    #[test]
    fn separately_built_equal_types_share_an_id() {
        let a = Datatype::vector(100, 1, 2, &Datatype::f64()).unwrap();
        let b = Datatype::vector(100, 1, 2, &Datatype::f64()).unwrap();
        assert_ne!(a.type_id(), b.type_id());
        assert_eq!(a.normalized_id(), b.normalized_id());
        // Equal layouts compile to equal programs, without sharing a plan.
        let pa = PackPlan::compile(&a.normalized(), 1);
        assert!(pa.is_some());
        assert_eq!(pa, PackPlan::compile(&b.normalized(), 1));
    }

    #[test]
    fn canonical_types_report_no_rewrite() {
        let v = Datatype::vector(8, 1, 2, &Datatype::f64()).unwrap();
        assert!(v.is_canonical());
        let dense = Datatype::vector(8, 2, 2, &Datatype::f64()).unwrap();
        assert!(!dense.is_canonical());
    }

    #[test]
    fn norm_counters_move() {
        let (_, m0) = norm_counters();
        let v = Datatype::vector(9, 1, 3, &Datatype::f64()).unwrap();
        let _ = v.normalized_id();
        let (h1, m1) = norm_counters();
        assert!(m1 > m0);
        let _ = v.normalized_id();
        let (h2, _) = norm_counters();
        assert!(h2 > h1);
    }

    #[test]
    fn resized_of_resized_collapses() {
        let base = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap();
        let r1 = Datatype::resized(&base, -8, 128).unwrap();
        let r2 = Datatype::resized(&r1, 0, 64).unwrap();
        let n = r2.normalized();
        assert!(layout_eq(&r2, &n));
        assert_eq!(n.lb(), 0);
        assert_eq!(n.extent(), 64);
        match n.kind() {
            Kind::Resized { child, .. } => assert!(matches!(child.kind(), Kind::Vector { .. })),
            k => panic!("unexpected canonical kind {k:?}"),
        }
    }
}
