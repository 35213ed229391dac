//! Two-sided point-to-point communication: `send`, `bsend`, `recv`.
//!
//! Control flow mirrors a real MPI implementation:
//!
//! * messages at or below the eager threshold are deposited without a
//!   handshake (sender-determined availability);
//! * larger messages rendezvous — the sender blocks on a real back-channel
//!   until the receiver matches and reports the transfer completion time;
//! * non-contiguous datatypes are charged as staged through an internal
//!   buffer whose cost degrades beyond a few tens of MB (the paper's §4.1
//!   observation); in wall-clock every non-empty derived rendezvous (plan
//!   or iovec route) moves once, both ranks gathering chunks straight
//!   from the sender's buffer (see `handoff`);
//! * `bsend` stages through the user-attached buffer, completes locally,
//!   and the transfer proceeds asynchronously — at a measurable extra cost
//!   (§4.2).
//!
//! Payload bytes genuinely move; receivers can verify every byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, RecvTimeoutError};
use nonctg_datatype::{self as dt, Datatype, PackPlan, Primitive, Scalar};
use nonctg_simnet::{Access, Datapath, Platform};

use crate::comm::{CacheState, Comm};
use crate::error::{CoreError, Result};
use crate::fabric::{
    poll_slice, reply_channel, spin_round, Envelope, FaultStats, OpRecord, Payload, PooledBuf,
    Protocol, SPIN_ROUNDS,
};
use crate::handoff::{self, ChunkFaults, Gathered, Offer};
use crate::selector::{self, RegionShape, SendKind};
use crate::trace::EventKind;

/// Bytes of bookkeeping the attached buffer pays per buffered message
/// (`MPI_BSEND_OVERHEAD`).
pub const BSEND_OVERHEAD_BYTES: u64 = 64;

/// Maximum attempts of one send under injected transient faults: up to
/// `MAX_SEND_ATTEMPTS - 1` consecutive failures are absorbed by backoff
/// before the send surfaces [`CoreError::SendFailed`].
pub const MAX_SEND_ATTEMPTS: u32 = 5;

/// First retry backoff in virtual seconds; doubles per failed attempt.
const SEND_BACKOFF_BASE_S: f64 = 2e-6;

/// Per-chunk faults forecast for one send at or above which the transfer
/// is demoted from the pipelined chunk stream to the monolithic
/// whole-payload rendezvous (the graceful-degradation ladder's first
/// rung). Below the threshold the stream runs and re-packs each faulted
/// chunk individually.
pub const CHUNK_DEMOTE_THRESHOLD: usize = 3;

/// Completion information of a receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvStatus {
    /// Rank the message came from.
    pub source: usize,
    /// Its tag.
    pub tag: i32,
    /// Payload size in bytes.
    pub bytes: usize,
}

impl RecvStatus {
    /// Number of whole instances of `dtype` received (`MPI_Get_count`);
    /// `None` if the payload is not a whole multiple (MPI_UNDEFINED).
    pub fn count(&self, dtype: &Datatype) -> Option<usize> {
        let sz = dtype.size() as usize;
        if sz == 0 {
            return Some(0);
        }
        self.bytes.is_multiple_of(sz).then_some(self.bytes / sz)
    }

    /// Number of primitive elements received, counting elements of a
    /// trailing partial instance (`MPI_Get_elements`). `None` only when
    /// the payload does not align with the type's primitive boundaries.
    pub fn element_count(&self, dtype: &Datatype) -> Option<usize> {
        let sz = dtype.size() as usize;
        if sz == 0 {
            return Some(0);
        }
        let whole = self.bytes / sz;
        let mut elements = whole * dtype.signature().total_elements() as usize;
        let mut rem = self.bytes % sz;
        if rem > 0 {
            for e in dtype.type_map_preview(usize::MAX) {
                if rem == 0 {
                    break;
                }
                let psz = e.primitive.size();
                if rem < psz {
                    return None; // mid-primitive cut
                }
                rem -= psz;
                elements += 1;
            }
        }
        Some(elements)
    }
}

/// The user buffer attached with [`Comm::buffer_attach`].
#[derive(Debug)]
pub(crate) struct BsendBuffer {
    pub capacity: u64,
    pub in_use: Arc<AtomicU64>,
}

pub(crate) enum SendMode {
    Standard,
    /// Completes only once the receive is matched (`MPI_Ssend`): the
    /// rendezvous path regardless of message size.
    Synchronous,
    Buffered,
}

/// How a posted send completes: see [`Comm::complete_send`].
pub(crate) enum Completion {
    /// Locally complete at the given virtual time (eager/buffered path).
    Done(f64),
    /// Rendezvous in flight; the receiver reports the completion time.
    Pending(Receiver<f64>),
}

/// Releases a buffered-send reservation when dropped. Held by the receive
/// path from the moment the envelope leaves the mailbox, so *every* exit —
/// including the truncation and signature-mismatch error returns — gives
/// the sender its bsend buffer space back.
struct BsendReleaseGuard(Option<(Arc<AtomicU64>, u64)>);

impl Drop for BsendReleaseGuard {
    fn drop(&mut self) {
        if let Some((in_use, amount)) = self.0.take() {
            in_use.fetch_sub(amount, Ordering::AcqRel);
        }
    }
}

/// Check that every byte `count` instances of `dtype` touch from byte
/// `origin` lies inside a `len`-byte buffer — the span check the pack
/// engine runs before it touches a buffer, with the same error. Every
/// send and every receive runs it before anything else: a short source
/// fails before any staging, and a short destination fails before
/// matching, so the message stays queued for a corrected receive; an
/// explicit pack runs it before any fault decision.
pub(crate) fn check_span(len: usize, origin: usize, dtype: &Datatype, count: usize) -> Result<()> {
    let o = origin as i128;
    let from = o + dtype.true_lb() as i128;
    let to = o
        + dtype.true_ub() as i128
        + (count as i128 - 1) * (dtype.ub() as i128 - dtype.lb() as i128);
    if from < 0 || to > len as i128 {
        return Err(dt::DatatypeError::OutOfBounds {
            needed_from: from.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
            needed_to: to.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
            buffer_len: len,
        }
        .into());
    }
    Ok(())
}

/// How a send's payload moves: the engine boundary of mpicd's
/// `PackMethod::{Contiguous, Custom, MemRegions}`.
#[derive(Default)]
enum Route {
    /// A dense type, staged whole.
    Contiguous,
    /// A derived type gathered whole through its compiled plan.
    #[default]
    Plan,
    /// A derived type gathered whole by the uncompiled interpreter: the
    /// element engine, or the plan-compile fault rung.
    Uncompiled,
    /// A derived rendezvous charged as staged, whose bytes both ranks
    /// gather through the handoff in chunks of this plan.
    Stream(Arc<PackPlan>),
    /// Iovec: charged as a NIC gather of a region list of this shape; the
    /// bytes move through the handoff in chunks of this plan, as for
    /// [`Route::Stream`].
    Iov(Arc<PackPlan>, RegionShape),
}

/// Every choice one send makes, taken by [`decide_send`] before anything
/// is staged and applied by `send_impl` in one place.
#[derive(Default)]
struct SendDecision {
    /// Eager protocol (no handshake) rather than a rendezvous.
    eager: bool,
    route: Route,
    /// Pool rung: stage through owned buffers, never pooled ones.
    pool_fault: bool,
    /// The payload byte injected corruption flips in flight.
    corrupt_idx: Option<usize>,
    /// Exact charges, in this order: one doubling backoff per failed
    /// attempt, the injected delay, the link-degradation surcharge.
    backoffs: u32,
    delay: f64,
    link_surcharge: f64,
    /// Counters this send adds; `failed_sends` set means every attempt
    /// failed and the send surfaces [`CoreError::SendFailed`].
    faults: FaultStats,
    /// The auto-mode selector's choice (`None`: dense type or forced).
    selected: Option<Datapath>,
}

/// Decide how one send of `bytes` moves: protocol, route, fault rungs
/// and exact fault charges. Pure: every fault choice is a function of
/// (plan, rank, op), so a rerun of the same seed decides identically,
/// and nothing is charged, counted or traced here (an injected crash of
/// the rank panics here, as it would anywhere). The rungs that fired are
/// the nonzero counters of `faults`.
#[allow(clippy::too_many_arguments)]
fn decide_send(
    p: &Platform,
    me: usize,
    op: u64,
    dtype: &Datatype,
    count: usize,
    bytes: u64,
    access: &Access,
    mode: &SendMode,
) -> SendDecision {
    let contiguous = matches!(access, Access::Contiguous);
    let kind = SendKind {
        packed: dtype.signature().count(Primitive::Packed) > 0,
        synchronous: matches!(mode, SendMode::Synchronous),
        buffered: matches!(mode, SendMode::Buffered),
    };
    let eager = kind.eager(p, bytes);
    // Wall-clock pipelining: a derived-type rendezvous at or above the
    // threshold (by default every non-empty one) streams its payload in
    // chunks that both ranks gather at once. A buffered send completes
    // locally and so never streams.
    let route = if contiguous {
        Route::Contiguous
    } else if !eager && !kind.buffered && bytes >= p.effective_pipeline().threshold_bytes {
        dt::plan_for(dtype, count).map_or(Route::Plan, Route::Stream)
    } else {
        Route::Plan
    };
    let mut d = SendDecision { eager, route, ..SendDecision::default() };

    if let Some(plan) = &p.fault {
        if plan.should_crash(me, op) {
            panic!("fault plan: injected crash of rank {me} at op {op}");
        }
        let fault = plan.send_decision(me, op, bytes);
        if fault.is_persistent() || fault.transient_failures >= MAX_SEND_ATTEMPTS {
            // One backoff between consecutive attempts, then give up.
            d.backoffs = MAX_SEND_ATTEMPTS - 1;
            d.faults.failed_sends = 1;
            return d;
        }
        // Fewer failures are absorbed by retry; the send then proceeds
        // as if clean.
        d.backoffs = fault.transient_failures;
        d.faults.transient_retries = fault.transient_failures as u64;
        if fault.delay > 0.0 {
            d.delay = fault.delay;
            d.faults.delays = 1;
        }
        if fault.corrupt && bytes > 0 {
            d.corrupt_idx = Some(plan.corrupt_index(me, op, bytes as usize));
            d.faults.corruptions = 1;
        }
        // Sustained link degradation: a burst window multiplies the base
        // latency; the surcharge above 1x is charged.
        let lf = plan.latency_factor(op);
        if lf > 1.0 {
            d.link_surcharge = p.net.latency * (lf - 1.0);
            d.faults.link_degradations = 1;
        }
        // Plan compilation failure: the send falls back to the
        // uncompiled interpreter, which also rules out streaming (it
        // requires a compiled plan).
        if !contiguous && plan.plan_compile_fails(me, op) {
            d.route = Route::Uncompiled;
            d.faults.plan_fallbacks = 1;
        }
        // Chunk-fault forecast: repeated per-chunk faults in this op's
        // known chunk schedule demote the transfer to the whole-payload
        // rendezvous before any chunk machinery spins up. Below the
        // threshold the stream absorbs each fault by re-packing.
        if matches!(d.route, Route::Stream(_)) {
            let chunk = p.effective_pipeline().chunk_bytes.max(1);
            let faulty = (0..bytes.div_ceil(chunk))
                .filter(|&c| plan.chunk_decision(me, op, c).is_faulty())
                .count();
            if faulty >= CHUNK_DEMOTE_THRESHOLD {
                d.route = Route::Plan;
                d.faults.pipeline_demotions = 1;
            }
        }
        // Payload-pool exhaustion: staging falls back from recycled pool
        // buffers to owned allocations for this whole send.
        if plan.pool_exhausted(me, op) {
            d.pool_fault = true;
            d.faults.pool_exhaustions = 1;
        }
    }

    // Datapath selection (see `selector::select`). Iovec also needs a
    // compiled plan that lowers to a bounded region list: `Some(None)` is
    // one past the iovec cap (ddtbench WRF halos routinely are).
    if !contiguous {
        let compiled = !matches!(d.route, Route::Uncompiled);
        let lowered = (compiled && kind.iov_eligible(p, bytes))
            .then(|| dt::plan_for(dtype, count))
            .flatten()
            .map(|pl| {
                let shape = pl
                    .regions(selector::iov_max_regions())
                    .map(|r| RegionShape::of(&r, p.mem.cacheline));
                (pl, shape)
            });
        let shape = lowered.as_ref().and_then(|l| l.1);
        let choice = selector::select(p, bytes, kind, || shape);
        d.selected = (p.effective_datapath() == Datapath::Auto).then_some(choice);
        match (choice, lowered) {
            (Datapath::Iov, Some((plan, Some(shape)))) if !d.pool_fault => {
                d.route = Route::Iov(plan, shape)
            }
            // Iovec rung: without its staging pool, or past the region
            // cap, an iovec choice demotes to pack, counted and traced.
            // (Eager and plan-failure sends never were iovec-eligible and
            // stay silent; the latter already counts `plan_fallbacks`.)
            (Datapath::Iov, Some(_)) => d.faults.iovec_demotions = 1,
            // The uncompiled engine: no plan, no streaming.
            (Datapath::Elem, _) => d.route = Route::Uncompiled,
            _ => {}
        }
    }
    d
}

/// How a matched receive moves its payload into the user buffer: the
/// receive twin of [`Route`] (mpicd's `UnpackMethod`).
enum Mover {
    /// The unpack engine: a whole payload, or a streamed payload that
    /// both ranks first gather into a staging buffer.
    Unpack,
    /// The receive plan is one dense run, starting at this buffer byte,
    /// of exactly the streamed payload: both ranks gather it straight
    /// from the sender's buffer.
    Direct(usize),
}

/// The virtual-time charge of placing a payload that is not one
/// contiguous run (a contiguous receive is the NIC's direct deposit and
/// costs nothing extra).
enum ScatterCharge {
    /// A direct iovec scatter: exact per-region charges, no jitter — the
    /// iovec clock is a pure function of the region list's shape.
    Shaped(RegionShape),
    /// The unpack engine: the jittered scatter model of the type.
    Modeled,
}

/// Every choice one matched receive makes, taken by [`decide_recv`] and
/// applied by `Comm::recv` in one place.
struct RecvDecision {
    /// Virtual time the transfer completes.
    done: f64,
    /// Whole instances of the receive type the payload fills.
    incoming: usize,
    mover: Mover,
    scatter: Option<ScatterCharge>,
}

/// Decide how a matched receive completes: the truncation and signature
/// checks, the completion time per protocol, the mover and its scatter
/// charge. Pure: it reads the envelope and the receive type's plan, never
/// the clock, a counter, the tracer or the buffer. The caller has checked
/// the posted span, so every mover stays inside the buffer.
fn decide_recv(
    p: &Platform,
    t_post: f64,
    env: &Envelope,
    dtype: &Datatype,
    count: usize,
    origin: usize,
) -> Result<RecvDecision> {
    let total = env.payload.len();
    let capacity = dt::pack_size(dtype, count)?;
    if total > capacity {
        return Err(CoreError::Truncate { incoming: total, capacity });
    }
    // Signature check: MPI_PACKED/MPI_BYTE match anything of the right
    // size; otherwise the primitive multisets must agree.
    let recv_sig = dtype.signature().scaled(count as u64)?;
    let relaxed = env.sig.is_bytes_only() || recv_sig.is_bytes_only();
    if relaxed {
        if env.sig.total_bytes() > recv_sig.total_bytes() {
            return Err(CoreError::Truncate { incoming: total, capacity });
        }
    } else {
        // Allow a shorter matching prefix: count how many whole send
        // elements arrived; exact multiset match required at equal size.
        if total == capacity && !env.sig.matches(1, &recv_sig, 1) {
            return Err(CoreError::SignatureMismatch);
        }
        // Partial receive: only the byte check applies (MPI permits
        // receiving fewer elements than posted).
        if total < capacity && env.sig.total_bytes() > recv_sig.total_bytes() {
            return Err(CoreError::SignatureMismatch);
        }
    }

    let done = match &env.protocol {
        Protocol::Eager { avail } => *avail,
        Protocol::Rendezvous { sender_ready, wire, .. }
        | Protocol::AsyncRendezvous { sender_ready, wire } => {
            t_post.max(*sender_ready) + p.proto.rndv_extra + p.net.latency + *wire
        }
    };
    let incoming = if dtype.size() == 0 { 0 } else { total / dtype.size() as usize };
    let (mover, iov_shape) = match &env.payload {
        Payload::Whole(_) => (Mover::Unpack, None),
        Payload::Chunked(offer) => {
            let plan = dt::plan_for(dtype, incoming);
            let run = plan.as_ref().and_then(|pl| pl.regions(1));
            let mover = match run.as_deref() {
                Some(&[(off, len)]) if len as usize == total => {
                    Mover::Direct((origin as i64 + off) as usize)
                }
                _ => Mover::Unpack,
            };
            // An iovec payload is charged as scattered into the
            // receiver's own regions (the sender's only describe the
            // sender's layout); without a bounded list, as unpacked.
            let shape = plan
                .filter(|_| offer.iov())
                .and_then(|pl| pl.regions(selector::iov_max_regions()))
                .map(|r| RegionShape::of(&r, p.mem.cacheline));
            (mover, shape)
        }
    };
    let scatter = if dtype.is_contiguous_run(incoming as u64) {
        None
    } else {
        Some(iov_shape.map_or(ScatterCharge::Modeled, ScatterCharge::Shaped))
    };
    Ok(RecvDecision { done, incoming, mover, scatter })
}

impl Comm {
    // ------------------------------------------------------------------
    // sends
    // ------------------------------------------------------------------

    /// Standard send of `count` instances of `dtype` read from `buf`
    /// starting at byte `origin` (`MPI_Send`).
    pub fn send(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
    ) -> Result<()> {
        self.blocking_send(buf, origin, dtype, count, dst, tag, SendMode::Standard)
    }

    /// Synchronous send (`MPI_Ssend`): local completion implies the
    /// matching receive has started — the handshake happens at every size.
    pub fn ssend(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
    ) -> Result<()> {
        self.blocking_send(buf, origin, dtype, count, dst, tag, SendMode::Synchronous)
    }

    /// Synchronous send of a contiguous scalar slice.
    pub fn ssend_slice<T: Scalar>(&mut self, data: &[T], dst: usize, tag: i32) -> Result<()> {
        let t = Datatype::of::<T>();
        self.ssend(dt::as_bytes(data), 0, &t, data.len(), dst, tag)
    }

    /// Buffered send through the attached buffer (`MPI_Bsend`).
    pub fn bsend(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
    ) -> Result<()> {
        self.blocking_send(buf, origin, dtype, count, dst, tag, SendMode::Buffered)
    }

    /// Send a contiguous byte buffer (`MPI_Send` of `MPI_BYTE`s).
    pub fn send_bytes(&mut self, data: &[u8], dst: usize, tag: i32) -> Result<()> {
        let t = Datatype::byte();
        self.send(data, 0, &t, data.len(), dst, tag)
    }

    /// Send a contiguous buffer previously filled by [`Comm::pack`]
    /// (`MPI_Send` of `MPI_PACKED` — protocol quirks of packed sends
    /// apply, see the Cray model).
    pub fn send_packed(&mut self, data: &[u8], dst: usize, tag: i32) -> Result<()> {
        let t = Datatype::packed();
        self.send(data, 0, &t, data.len(), dst, tag)
    }

    /// Send a contiguous scalar slice.
    pub fn send_slice<T: Scalar>(&mut self, data: &[T], dst: usize, tag: i32) -> Result<()> {
        let t = Datatype::of::<T>();
        self.send(dt::as_bytes(data), 0, &t, data.len(), dst, tag)
    }

    /// Post a send in `mode`, wait for its completion and trace it.
    #[allow(clippy::too_many_arguments)]
    fn blocking_send(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
        mode: SendMode,
    ) -> Result<()> {
        let t0 = self.clock.now();
        let bytes = dt::pack_size(dtype, count)?;
        let kind = match mode {
            SendMode::Buffered => crate::trace::EventKind::Bsend,
            SendMode::Standard | SendMode::Synchronous => crate::trace::EventKind::Send,
        };
        let completion = self.send_impl(buf, origin, dtype, count, dst, tag, mode)?;
        self.complete_send(completion)?;
        self.trace(kind, t0, Some(dst), bytes, Some(tag));
        Ok(())
    }

    /// Post one send: validate it, take every decision up front
    /// ([`decide_send`]), apply the decision's charges, counters and
    /// trace events, then run its route.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_impl(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
        mode: SendMode,
    ) -> Result<Completion> {
        self.check_rank(dst)?;
        dtype.require_committed()?;
        let bytes = dt::pack_size(dtype, count)? as u64;
        // Every route reads the whole span, so a short source fails here:
        // before staging anything, consuming a fault op or counting.
        if bytes > 0 {
            check_span(buf.len(), origin, dtype, count)?;
        }
        let access = Access::classify(dtype);
        let warm = self.is_warm();
        let fabric = Arc::clone(self.fabric());
        let (p, sup) = (&fabric.platform, &fabric.supervision);

        let me = self.rank();
        sup.record_op(me, OpRecord { kind: "send", peer: Some(dst), bytes: bytes as usize });
        let op = sup.next_op(me);

        let d = decide_send(p, me, op, dtype, count, bytes, &access, &mode);
        // Fault charges are exact (no jitter draws), so the virtual clock
        // is identical whichever route runs.
        let mut backoff = SEND_BACKOFF_BASE_S;
        for _ in 0..d.backoffs {
            self.charge_exact(backoff);
            backoff *= 2.0;
        }
        self.charge_exact(d.delay);
        self.charge_exact(d.link_surcharge);
        if d.faults != FaultStats::default() {
            sup.with_faults(me, |s| s.absorb(d.faults));
        }
        if d.faults.failed_sends > 0 {
            return Err(CoreError::SendFailed { dst, attempts: MAX_SEND_ATTEMPTS });
        }
        if let Some(choice) = d.selected {
            selector::record(choice);
        }
        // The ladder's events in rung order: the plan or the pipeline rung
        // (never both), the pool rung, the selector, the iovec rung.
        let f = &d.faults;
        let events = [
            (f.plan_fallbacks + f.pipeline_demotions > 0, EventKind::Demote),
            (f.pool_exhaustions > 0, EventKind::Demote),
            (d.selected.is_some(), EventKind::Select),
            (f.iovec_demotions > 0, EventKind::Demote),
        ];
        for (_, kind) in events.into_iter().filter(|e| e.0) {
            let t = self.clock.now();
            self.trace(kind, t, Some(dst), bytes as usize, Some(tag));
        }
        let sig = dtype.signature().scaled(count as u64)?;

        let faults = |plan| ChunkFaults { plan, rank: me, op, corrupt_idx: d.corrupt_idx };
        match d.route {
            Route::Iov(plan, shape) => {
                // No staging gather is charged: the sender pays a
                // per-region descriptor cost and the modelled NIC
                // DMA-gathers the regions on the wire. Per-region charges
                // are exact (no jitter draws), so the iovec clock is a
                // pure function of the region list's shape. Iovec sends
                // take no chunk faults.
                self.charge_exact(p.send_overhead(false));
                self.charge_exact(p.iov_overhead_shaped(shape.n, shape.subline));
                self.cache = CacheState::Warm;
                let wire = p.iov_wire_time(bytes, shape.n) * self.jitter.factor();
                return self.stream_send(buf, origin, plan, wire, faults(None), true, dst, tag, sig);
            }
            Route::Stream(plan) => {
                // Charged exactly as the monolithic derived path below.
                let t_stage = self.clock.now();
                self.charge(p.staging_time(bytes, &access, warm));
                self.trace(EventKind::Stage, t_stage, None, bytes as usize, None);
                self.charge_exact(p.send_overhead(false));
                self.cache = CacheState::Warm;
                let wire = p.wire_time(bytes, 1.0) * self.jitter.factor();
                let f = faults(p.fault.clone());
                return self.stream_send(buf, origin, plan, wire, f, false, dst, tag, sig);
            }
            Route::Contiguous | Route::Plan | Route::Uncompiled => {}
        }

        // Real data movement: stage the payload contiguously. The type is
        // committed, so this runs the cached compiled plan; the staging
        // buffer comes from (and returns to) the fabric's payload pool,
        // so steady-state sends allocate nothing. Under pool exhaustion
        // the ladder drops to a plain owned allocation (never pooled).
        let mut packed = if d.pool_fault {
            PooledBuf::detached(vec![0u8; bytes as usize])
        } else {
            fabric.pool.take(bytes as usize)
        };
        if matches!(d.route, Route::Uncompiled) {
            dt::pack_into_uncompiled(buf, origin, dtype, count, &mut packed)?;
        } else {
            dt::pack_into(buf, origin, dtype, count, &mut packed)?;
        }
        if let Some(idx) = d.corrupt_idx {
            packed[idx] ^= 0xFF;
            // Corrupted payload bytes must never linger in a recycled
            // staging buffer: quarantine the allocation on drop.
            packed.poison();
        }
        let payload = Payload::Whole(packed);
        let mut bsend_release = None;
        let protocol = match mode {
            SendMode::Standard | SendMode::Synchronous if matches!(d.route, Route::Contiguous) => {
                // Reference path: NIC streams the buffer, reads overlap the
                // wire (paper §2.1, proportionality ~1).
                let inject = p.contiguous_injection(bytes) * self.jitter.factor();
                self.charge_exact(p.send_overhead(d.eager));
                self.cache = CacheState::Warm;
                if d.eager {
                    self.clock.advance(inject);
                    Protocol::Eager { avail: self.clock.now() + p.net.latency }
                } else {
                    let (tx, rx) = reply_channel();
                    let proto = Protocol::Rendezvous {
                        sender_ready: self.clock.now(),
                        // The pipelined injection *is* the transfer.
                        wire: inject,
                        reply: tx,
                    };
                    self.post(dst, tag, payload, sig, proto, None);
                    return Ok(Completion::Pending(rx));
                }
            }
            SendMode::Standard | SendMode::Synchronous => {
                // Derived-type path: MPI gathers into its internal buffer
                // (no overlap with the wire), then sends contiguously.
                let t_stage = self.clock.now();
                self.charge(p.staging_time(bytes, &access, warm));
                self.trace(crate::trace::EventKind::Stage, t_stage, None, bytes as usize, None);
                self.charge_exact(p.send_overhead(d.eager));
                self.cache = CacheState::Warm;
                let wire = p.wire_time(bytes, 1.0) * self.jitter.factor();
                if d.eager {
                    Protocol::Eager { avail: self.clock.now() + p.net.latency + wire }
                } else {
                    let (tx, rx) = reply_channel();
                    let proto = Protocol::Rendezvous {
                        sender_ready: self.clock.now(),
                        wire,
                        reply: tx,
                    };
                    self.post(dst, tag, payload, sig, proto, None);
                    return Ok(Completion::Pending(rx));
                }
            }
            SendMode::Buffered => {
                // Reserve attached-buffer space first (MPI_ERR_BUFFER).
                let needed = bytes + BSEND_OVERHEAD_BYTES;
                let release = self.reserve_bsend(needed)?;
                bsend_release = Some(release);
                // Stage through the attached buffer: same gather arithmetic
                // as the internal path (the user buffer does not avoid the
                // large-message bookkeeping, §4.2)...
                let t_stage = self.clock.now();
                let stage = p.staging_time(bytes, &access, warm);
                self.charge(stage);
                // ...plus Bsend's own accounting and extra internal copy.
                self.charge(p.bsend_extra(bytes));
                self.trace(crate::trace::EventKind::Stage, t_stage, None, bytes as usize, None);
                self.charge_exact(p.send_overhead(true));
                self.cache = CacheState::Warm;
                let wire = p.wire_time(bytes, 1.0) * self.jitter.factor();
                if d.eager {
                    Protocol::Eager { avail: self.clock.now() + p.net.latency + wire }
                } else {
                    // Local completion now; transfer rendezvouses on its own.
                    Protocol::AsyncRendezvous { sender_ready: self.clock.now(), wire }
                }
            }
        };

        self.post(dst, tag, payload, sig, protocol, bsend_release);
        Ok(Completion::Done(self.clock.now()))
    }

    /// Block until a posted send is complete; the clock advances to the
    /// completion time if it has not already passed it. A rendezvous
    /// spins briefly, then parks until the receiver's reply lands.
    ///
    /// Fails with [`CoreError::PeerFailed`] if the fabric is poisoned
    /// while the rendezvous is pending, or [`CoreError::Deadlock`] after
    /// the supervision timeout.
    pub(crate) fn complete_send(&mut self, completion: Completion) -> Result<()> {
        let rx = match completion {
            Completion::Done(t) => {
                self.clock.sync_to(t);
                return Ok(());
            }
            Completion::Pending(rx) => rx,
        };
        let sup = Arc::clone(&self.fabric().supervision);
        let me = self.rank();
        let deadline = Instant::now() + sup.timeout();
        sup.set_blocked(me, Some("rendezvous completion"));
        let mut spins = SPIN_ROUNDS;
        let res = loop {
            let now = Instant::now();
            if let Some(rank) = sup.failed_rank() {
                // A queued completion still wins over poison.
                if let Ok(done) = rx.try_recv() {
                    break Ok(done);
                }
                break Err(CoreError::PeerFailed { rank });
            }
            if now >= deadline {
                break Err(CoreError::deadlock("rendezvous completion"));
            }
            // Spin briefly before parking: rendezvous replies usually
            // land within microseconds of the wait.
            if spins > 0 {
                spins -= 1;
                if let Ok(done) = rx.try_recv() {
                    break Ok(done);
                }
                spin_round();
                continue;
            }
            let slice = (deadline - now).min(poll_slice());
            match rx.recv_timeout(slice) {
                Ok(done) => break Ok(done),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    // The receiver dropped the envelope without replying:
                    // its rank failed mid-receive.
                    break match sup.failed_rank() {
                        Some(rank) => Err(CoreError::PeerFailed { rank }),
                        None => Err(CoreError::deadlock("rendezvous completion")),
                    };
                }
            }
        };
        sup.set_blocked(me, None);
        let done = res.map_err(|e| self.fabric().enrich(e))?;
        self.clock.sync_to(done);
        Ok(())
    }

    fn post(
        &self,
        dst: usize,
        tag: i32,
        payload: Payload,
        sig: nonctg_datatype::Signature,
        protocol: Protocol,
        bsend_release: Option<(Arc<AtomicU64>, u64)>,
    ) {
        self.fabric().mailboxes[dst].push(Envelope {
            src: self.rank(),
            tag,
            payload,
            sig,
            protocol,
            bsend_release,
        });
    }

    /// Streamed rendezvous: post an envelope that offers the source, then
    /// gather alongside the receiver. The receiver answers with a buffer
    /// of exactly the payload (its own dense run, or a staging buffer it
    /// unpacks afterwards), and both ranks gather chunks straight into it
    /// (see `handoff`). A receive that fails after matching declines the
    /// offer; the rendezvous reply then carries its outcome to
    /// `complete_send`. The caller has issued every virtual charge of its
    /// route and drawn the jittered `wire`, so the cost model cannot tell
    /// the mover apart from the monolithic one; it has also checked the
    /// source span.
    #[allow(clippy::too_many_arguments)]
    fn stream_send(
        &mut self,
        buf: &[u8],
        origin: usize,
        plan: Arc<PackPlan>,
        wire: f64,
        faults: ChunkFaults,
        iov: bool,
        dst: usize,
        tag: i32,
        sig: nonctg_datatype::Signature,
    ) -> Result<Completion> {
        let (reply_tx, reply_rx) = reply_channel();
        let proto = Protocol::Rendezvous { sender_ready: self.clock.now(), wire, reply: reply_tx };
        let chunk = self.fabric().platform.effective_pipeline().chunk_bytes;
        let sup = Arc::clone(&self.fabric().supervision);
        let me = self.rank();
        let (mut side, offer) =
            handoff::post(buf, origin, plan, chunk, faults, iov, Arc::clone(&sup));
        self.post(dst, tag, Payload::Chunked(offer), sig, proto, None);

        let deadline = Instant::now() + sup.timeout();
        sup.set_blocked(me, Some("a matching receive"));
        let answered = side.await_answer(deadline);
        sup.set_blocked(me, None);
        answered.map_err(|e| self.fabric().enrich(e))?;
        self.gather_direct(|| side.gather_next(), dst, tag);
        side.finish().map_err(|e| self.fabric().enrich(e))?;
        Ok(Completion::Pending(reply_rx))
    }

    /// This rank's share of a streamed gather: claim and gather chunks
    /// until none is left, tracing each as one zero-width `Chunk` marker.
    /// Purely wall-clock: no virtual charges.
    fn gather_direct(&mut self, next: impl Fn() -> Option<Gathered>, peer: usize, tag: i32) {
        while let Some(g) = next() {
            let t_now = self.clock.now();
            self.trace_stream(
                crate::trace::EventKind::Chunk,
                t_now,
                Some(peer),
                g.bytes,
                Some(tag),
                Some(g.seq),
            );
        }
    }

    /// The receiver's side of a streamed payload: answer the sender's
    /// `offer` with `dst`, which holds exactly the payload, and gather
    /// alongside the sender until every chunk is in.
    fn gather_offer(&mut self, offer: Offer, dst: &mut [u8], src: usize, tag: i32) -> Result<()> {
        let side = offer.direct(dst, self.rank()).map_err(|e| self.fabric().enrich(e))?;
        self.gather_direct(|| side.gather_next(), src, tag);
        side.finish().map_err(|e| self.fabric().enrich(e))
    }

    fn reserve_bsend(&mut self, needed: u64) -> Result<(Arc<AtomicU64>, u64)> {
        let b = self
            .bsend
            .as_ref()
            .ok_or(CoreError::BufferAttachState("bsend without an attached buffer"))?;
        let in_use = b.in_use.load(Ordering::Acquire);
        let available = b.capacity.saturating_sub(in_use);
        if needed > available {
            return Err(CoreError::BsendBufferOverflow {
                needed: needed as usize,
                available: available as usize,
            });
        }
        b.in_use.fetch_add(needed, Ordering::AcqRel);
        Ok((Arc::clone(&b.in_use), needed))
    }

    // ------------------------------------------------------------------
    // buffer attach / detach
    // ------------------------------------------------------------------

    /// Attach `capacity` bytes of buffer space for buffered sends
    /// (`MPI_Buffer_attach`).
    pub fn buffer_attach(&mut self, capacity: usize) -> Result<()> {
        if self.bsend.is_some() {
            return Err(CoreError::BufferAttachState("a buffer is already attached"));
        }
        self.bsend = Some(BsendBuffer {
            capacity: capacity as u64,
            in_use: Arc::new(AtomicU64::new(0)),
        });
        Ok(())
    }

    /// Detach the buffered-send buffer (`MPI_Buffer_detach`). Returns its
    /// capacity.
    pub fn buffer_detach(&mut self) -> Result<usize> {
        match self.bsend.take() {
            Some(b) => Ok(b.capacity as usize),
            None => Err(CoreError::BufferAttachState("no buffer attached")),
        }
    }

    /// Space needed in the attached buffer for one buffered send.
    pub fn bsend_size(dtype: &Datatype, count: usize) -> Result<usize> {
        let size = dt::pack_size(dtype, count)?;
        size.checked_add(BSEND_OVERHEAD_BYTES as usize).ok_or(dt::DatatypeError::Overflow.into())
    }

    // ------------------------------------------------------------------
    // receives
    // ------------------------------------------------------------------

    /// Receive `count` instances of `dtype` into `buf` at byte `origin`
    /// (`MPI_Recv`). `src`/`tag` of `None` are the wildcards.
    ///
    /// Validate, match, decide ([`decide_recv`]), apply, execute: a bad
    /// buffer fails before matching and leaves the message queued, while
    /// a truncation or signature error consumes it, as in MPI.
    pub fn recv(
        &mut self,
        buf: &mut [u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<RecvStatus> {
        let t_post = self.clock.now();
        dtype.require_committed()?;
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let capacity = dt::pack_size(dtype, count)?;
        if capacity > 0 {
            check_span(buf.len(), origin, dtype, count)?;
        }
        let fabric = Arc::clone(self.fabric());
        let (p, sup) = (&fabric.platform, &fabric.supervision);

        let me = self.rank();
        sup.record_op(me, OpRecord { kind: "recv", peer: src, bytes: capacity });
        let op = sup.next_op(me);
        if let Some(plan) = &p.fault {
            if plan.should_crash(me, op) {
                panic!("fault plan: injected crash of rank {me} at op {op}");
            }
            if plan.should_crash_recv(me, op) {
                // Receiver-side crash: surfaces as a typed error rather
                // than a panic. Poisoning the fabric first means a sender
                // waiting on this rank observes `PeerFailed` instead of
                // hanging until its deadline.
                sup.with_faults(me, |s| s.recv_crashes += 1);
                sup.poison(me);
                return Err(fabric.enrich(CoreError::RankPanicked {
                    rank: me,
                    message: format!("fault plan: injected receiver crash at op {op}"),
                }));
            }
        }

        sup.set_blocked(me, Some("a matching message"));
        let res = fabric.mailboxes[me].match_recv(src, tag);
        sup.set_blocked(me, None);
        let mut env = res.map_err(|e| fabric.enrich(e))?;
        let _bsend_release = BsendReleaseGuard(env.bsend_release.take());
        let d = decide_recv(p, t_post, &env, dtype, count, origin)?;

        // The transfer completes (a rendezvous sender unblocks then too),
        // and the receive pays its overhead.
        if let Protocol::Rendezvous { reply, .. } = &env.protocol {
            let _ = reply.send(d.done);
        }
        self.clock.sync_to(d.done);
        self.charge_exact(p.proto.eager_overhead);

        // Real delivery into the user layout.
        let (total, n, env_src, env_tag) = (env.payload.len(), d.incoming, env.src, env.tag);
        let consumed = match (d.mover, env.payload) {
            (Mover::Unpack, Payload::Whole(data)) => dt::unpack_from(&data, dtype, n, buf, origin)?,
            (Mover::Direct(lo), Payload::Chunked(offer)) => {
                self.gather_offer(offer, &mut buf[lo..lo + total], env_src, env_tag)?;
                total
            }
            (Mover::Unpack, Payload::Chunked(offer)) => {
                let mut staging = fabric.pool.take(total);
                if offer.corrupts() {
                    // As for a whole payload: the corrupted bytes never
                    // return to the pool.
                    staging.poison();
                }
                self.gather_offer(offer, &mut staging, env_src, env_tag)?;
                dt::unpack_from(&staging, dtype, n, buf, origin)?
            }
            _ => unreachable!("decide_recv picks a mover for the payload it saw"),
        };
        crate::invariants::check_recv_conservation(total, consumed, dtype.size() as usize);

        // Charged after delivery: the chunk markers above keep their times.
        if let Some(scatter) = d.scatter {
            let t_scatter = self.clock.now();
            let warm = self.is_warm();
            match scatter {
                ScatterCharge::Shaped(shape) => self.charge_exact(
                    p.iov_scatter_time_shaped(total as u64, shape.n, shape.subline, warm),
                ),
                ScatterCharge::Modeled => {
                    self.charge(p.scatter_time(total as u64, &Access::classify(dtype), warm));
                }
            }
            self.trace(EventKind::Unstage, t_scatter, Some(env_src), total, Some(env_tag));
        }
        self.cache = CacheState::Warm;
        self.trace(EventKind::Recv, t_post, Some(env_src), total, Some(env_tag));
        Ok(RecvStatus { source: env_src, tag: env_tag, bytes: total })
    }

    /// Receive into a contiguous byte buffer.
    pub fn recv_bytes(
        &mut self,
        buf: &mut [u8],
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<RecvStatus> {
        let t = Datatype::byte();
        let n = buf.len();
        self.recv(buf, 0, &t, n, src, tag)
    }

    /// Receive into a contiguous scalar slice.
    pub fn recv_slice<T: Scalar>(
        &mut self,
        buf: &mut [T],
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<RecvStatus> {
        let t = Datatype::of::<T>();
        let n = buf.len();
        self.recv(dt::as_bytes_mut(buf), 0, &t, n, src, tag)
    }
}
