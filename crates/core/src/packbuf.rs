//! `MPI_Pack` / `MPI_Unpack` / `MPI_Pack_size` equivalents on [`Comm`].
//!
//! These wrap the datatype crate's pack engine with the cost accounting
//! the paper's packing schemes exercise: each call pays a fixed library
//! overhead plus a gather exactly as fast as a user copy loop (§4.3) —
//! which is why packing-by-element is disastrous and packing-a-vector
//! matches manual copying.

use nonctg_datatype::{self as dt, Datatype};
use nonctg_simnet::Access;

use crate::comm::{CacheState, Comm};
use crate::error::Result;
use crate::p2p::check_span;

impl Comm {
    /// Upper bound (here: exact) packed size of `count` instances
    /// (`MPI_Pack_size`).
    pub fn pack_size(&self, dtype: &Datatype, count: usize) -> Result<usize> {
        Ok(dt::pack_size(dtype, count)?)
    }

    /// Warm the compiled pack-plan cache for `(dtype, count)` without
    /// moving data or advancing virtual time.
    ///
    /// Call before a timed loop so the first timed pack/send does not pay
    /// plan compilation — a wall-clock-only effect; the virtual-time cost
    /// model charges identically either way.
    pub fn pack_prepare(&self, dtype: &Datatype, count: usize) {
        let _ = dt::plan_for(dtype, count);
    }

    /// Pack `count` instances of `dtype` (read from `src` at byte
    /// `origin`) into `outbuf`, advancing `position` (`MPI_Pack`).
    ///
    /// Charges one library-call overhead plus the gather cost — calling
    /// this once per element reproduces the paper's packing(e) scheme.
    ///
    /// An explicit pack rides the same degradation ladder as the
    /// internal staging pack: an injected plan-compile failure falls
    /// back to the uncompiled interpreter, counted in
    /// [`crate::FaultStats`] and traced as a demotion. A `position` past
    /// the end of `outbuf`, too little room after it, or a `src` too
    /// short for the type is rejected before any fault decision, so a
    /// rejected call consumes no fault op and counts no demotion.
    pub fn pack(
        &mut self,
        src: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        outbuf: &mut [u8],
        position: &mut usize,
    ) -> Result<()> {
        dtype.require_committed()?;
        let bytes = dt::pack_size(dtype, count)? as u64;
        if *position > outbuf.len() {
            return Err(dt::DatatypeError::InvalidPosition {
                position: *position,
                buffer_len: outbuf.len(),
            }
            .into());
        }
        // The pack engine's own checks, in its order: room, then span.
        if bytes > 0 {
            let room = outbuf.len() - *position;
            if room < bytes as usize {
                return Err(dt::DatatypeError::BufferTooSmall {
                    needed: bytes as usize,
                    available: room,
                }
                .into());
            }
            check_span(src.len(), origin, dtype, count)?;
        }
        let access = Access::classify(dtype);
        let mut plan_failed = false;
        if !matches!(access, Access::Contiguous) {
            if let Some(fp) = self.platform().fault.clone() {
                let me = self.rank();
                let sup = std::sync::Arc::clone(&self.fabric().supervision);
                let op = sup.next_op(me);
                if fp.plan_compile_fails(me, op) {
                    plan_failed = true;
                    sup.with_faults(me, |s| s.plan_fallbacks += 1);
                    let t = self.wtime();
                    self.trace(crate::trace::EventKind::Demote, t, None, bytes as usize, None);
                }
            }
        }
        let written = if plan_failed {
            dt::pack_into_uncompiled(src, origin, dtype, count, &mut outbuf[*position..])?
        } else {
            dt::pack_into(src, origin, dtype, count, &mut outbuf[*position..])?
        };
        *position += written;
        let warm = self.is_warm();
        let t0 = self.wtime();
        let t = self.platform().pack_call_time(bytes, &access, warm);
        self.charge(t);
        self.cache = CacheState::Warm;
        self.trace(crate::trace::EventKind::Pack, t0, None, bytes as usize, None);
        Ok(())
    }

    /// Element-wise packing: exactly equivalent (in data *and* virtual
    /// time) to calling [`Comm::pack`] once per element with a primitive
    /// `elem` type, reading element `i` from byte
    /// `first_origin + i*stride_bytes` — but performs the data movement in
    /// one batched strided copy so the wall-clock cost stays sane at 10^8
    /// elements. This is the paper's packing(e) scheme.
    #[allow(clippy::too_many_arguments)]
    pub fn pack_elementwise(
        &mut self,
        src: &[u8],
        first_origin: usize,
        stride_bytes: usize,
        elem: &Datatype,
        n: usize,
        outbuf: &mut [u8],
        position: &mut usize,
    ) -> Result<()> {
        elem.require_committed()?;
        let sz = elem.size() as usize;
        // Real data movement, identical to n individual packs. Left
        // uncommitted on purpose: a fresh type per call would churn the
        // compiled-plan cache; the uncompiled strided path is used instead.
        let strided = Datatype::hvector(n, 1, stride_bytes as i64, elem)?;
        dt::pack_with_position(src, first_origin, &strided, 1, outbuf, position)?;
        // Virtual time: n library calls, each gathering one element. A
        // single element of a primitive type classifies as contiguous,
        // exactly as n separate `pack` calls would.
        let warm = self.is_warm();
        let t0 = self.wtime();
        let per_call = self.platform().pack_call_time(sz as u64, &Access::Contiguous, warm);
        self.charge(per_call * n as f64);
        self.cache = CacheState::Warm;
        self.trace(crate::trace::EventKind::Pack, t0, None, sz * n, None);
        Ok(())
    }

    /// Unpack from `inbuf` at `position` into `count` instances of `dtype`
    /// laid out in `dst` at byte `origin` (`MPI_Unpack`).
    pub fn unpack(
        &mut self,
        inbuf: &[u8],
        position: &mut usize,
        dtype: &Datatype,
        count: usize,
        dst: &mut [u8],
        origin: usize,
    ) -> Result<()> {
        dtype.require_committed()?;
        let bytes = dt::pack_size(dtype, count)? as u64;
        dt::unpack_with_position(inbuf, position, dtype, count, dst, origin)?;
        let access = Access::classify(dtype);
        let warm = self.is_warm();
        let t0 = self.wtime();
        let t = self.platform().pack_call_time(bytes, &access, warm);
        self.charge(t);
        self.cache = CacheState::Warm;
        self.trace(crate::trace::EventKind::Unpack, t0, None, bytes as usize, None);
        Ok(())
    }
}
