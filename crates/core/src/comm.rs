//! The per-rank communicator handle.
//!
//! A [`Comm`] is owned by exactly one rank thread. It bundles the rank id,
//! the shared fabric, the rank's virtual clock, its deterministic jitter
//! stream, and the cache-warmth state that models the paper's §4.6
//! flush/no-flush ablation. Every `Comm` is the world communicator of its
//! [`crate::Universe`]: there are no sub-communicators, so a rank id is
//! the world rank everywhere in the runtime.

use std::sync::Arc;

use nonctg_simnet::{Access, Jitter, Platform, VirtualClock};

use crate::error::{CoreError, Result};
use crate::fabric::{Fabric, FaultStats};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::{EventKind, TraceConfig, TraceEvent, TraceStats, Tracer};

/// Tracks whether recently-touched user data is still cache-resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// The caches were just flushed (or never touched).
    Cold,
    /// The working set of the previous operation may still be resident.
    Warm,
}

/// One rank's world communicator, handed to each rank by
/// [`crate::Universe::run`].
pub struct Comm {
    /// World rank.
    rank: usize,
    fabric: Arc<Fabric>,
    pub(crate) clock: VirtualClock,
    pub(crate) jitter: Jitter,
    pub(crate) cache: CacheState,
    pub(crate) bsend: Option<crate::p2p::BsendBuffer>,
    pub(crate) next_win_id: usize,
    pub(crate) tracer: Tracer,
    /// Aggregate counters/histograms; boxed so the disabled (`None`) case
    /// costs one pointer in the struct and one branch per operation.
    pub(crate) metrics: Option<Box<MetricsRegistry>>,
    /// Rank-local growable staging buffer, reused across calls (the
    /// schemes' pack buffers) instead of allocating per message.
    pub(crate) scratch: Vec<u8>,
}

impl Comm {
    pub(crate) fn new(fabric: Arc<Fabric>, rank: usize) -> Comm {
        let seed = fabric.platform.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9);
        let sigma = fabric.platform.jitter_sigma;
        Comm {
            rank,
            fabric,
            clock: VirtualClock::new(),
            jitter: Jitter::new(seed, sigma),
            cache: CacheState::Cold,
            bsend: None,
            next_win_id: 0,
            tracer: Tracer::default(),
            metrics: None,
            scratch: Vec::new(),
        }
    }

    /// Take the rank-local scratch buffer, grown (never shrunk) to at
    /// least `len` bytes. Return it with [`Comm::put_scratch`] so the
    /// allocation is reused by the next caller. Taking instead of
    /// borrowing keeps `&mut self` free for the operation that fills it.
    pub fn take_scratch(&mut self, len: usize) -> Vec<u8> {
        let mut s = std::mem::take(&mut self.scratch);
        if s.len() < len {
            s.resize(len, 0);
        }
        s
    }

    /// Return a buffer taken with [`Comm::take_scratch`].
    pub fn put_scratch(&mut self, s: Vec<u8>) {
        if s.capacity() > self.scratch.capacity() {
            self.scratch = s;
        }
    }

    /// This rank's id, `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    #[inline]
    pub fn size(&self) -> usize {
        self.fabric.nranks
    }

    /// The platform model this universe runs on.
    #[inline]
    pub fn platform(&self) -> &Platform {
        &self.fabric.platform
    }

    pub(crate) fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Current virtual time in seconds — the `MPI_Wtime` equivalent the
    /// ping-pong harness reads.
    #[inline]
    pub fn wtime(&self) -> f64 {
        self.clock.now()
    }

    /// Resolution of [`Comm::wtime`] as `MPI_Wtick` reports it.
    ///
    /// The paper's platforms resolve 1 microsecond; our virtual clock is
    /// exact, so this is metadata for harnesses that want to emulate the
    /// quantization rather than a property of `wtime` itself (see
    /// docs/MODEL.md §3).
    pub fn wtick(&self) -> f64 {
        1e-6
    }

    /// Whether the cache is modeled as warm for the next gather.
    #[inline]
    pub fn cache_state(&self) -> CacheState {
        self.cache
    }

    pub(crate) fn is_warm(&self) -> bool {
        self.cache == CacheState::Warm
    }

    /// Advance the local clock by a jittered model duration.
    pub(crate) fn charge(&mut self, seconds: f64) -> f64 {
        let dt = seconds * self.jitter.factor();
        self.clock.advance(dt);
        dt
    }

    /// Advance the local clock by an exact (unjittered) duration.
    pub(crate) fn charge_exact(&mut self, seconds: f64) {
        self.clock.advance(seconds);
    }

    /// Charge the cost of a *user-space* gather/copy loop of `payload`
    /// bytes with the given access pattern — the paper's "manual copying"
    /// scheme calls this around its real copy loop.
    pub fn charge_copy(&mut self, payload: u64, access: &Access) {
        let t0 = self.clock.now();
        let t = self.platform().gather_time(payload, access, self.is_warm());
        self.charge(t);
        self.cache = CacheState::Warm;
        self.trace(EventKind::Copy, t0, None, payload as usize, None);
    }

    /// Charge the cost of a user-space scatter (the receive-side analogue
    /// of [`Self::charge_copy`]).
    pub fn charge_scatter(&mut self, payload: u64, access: &Access) {
        let t0 = self.clock.now();
        let t = self.platform().scatter_time(payload, access, self.is_warm());
        self.charge(t);
        self.cache = CacheState::Warm;
        self.trace(EventKind::Copy, t0, None, payload as usize, None);
    }

    /// Rewrite a `bytes`-sized array to flush the caches, as the paper does
    /// between ping-pongs (§3.2). Advances the clock (outside any timed
    /// region) and marks the cache cold.
    ///
    /// Charged exactly (no jitter): the flush happens on every rank between
    /// iterations, and jittering it independently per rank would let the
    /// virtual clocks drift apart by far more than a small message takes —
    /// polluting the timings with artificial skew instead of message costs.
    pub fn flush_cache(&mut self, bytes: u64) {
        let t0 = self.clock.now();
        let t = self.platform().flush_time(bytes);
        self.charge_exact(t);
        self.cache = CacheState::Cold;
        self.trace(EventKind::Flush, t0, None, bytes as usize, None);
    }

    /// Synchronize all ranks; clocks advance to the barrier's completion
    /// (the max of all participants plus a small software cost).
    pub fn barrier(&mut self) -> Result<()> {
        let t0 = self.clock.now();
        let me = self.rank;
        self.fabric.supervision.set_blocked(me, Some("barrier participants"));
        let res = self.fabric.barrier.wait(t0);
        self.fabric.supervision.set_blocked(me, None);
        let t = res.map_err(|e| self.fabric.enrich(e))?;
        self.clock.sync_to(t);
        self.charge_exact(self.platform().proto.eager_overhead);
        self.trace(EventKind::Barrier, t0, None, 0, None);
        Ok(())
    }

    /// Counters of injected faults this rank has absorbed or surfaced
    /// (all zeros when the platform carries no fault plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fabric.supervision.fault_stats(self.rank)
    }

    /// Start recording a [`TraceEvent`] per operation on this rank, with
    /// ring capacity and sampling read from the environment
    /// (`NONCTG_TRACE_CAP`, `NONCTG_TRACE_SAMPLE`).
    pub fn enable_trace(&mut self) {
        self.tracer.enable();
    }

    /// Start tracing with an explicit [`TraceConfig`].
    pub fn enable_trace_with(&mut self, cfg: TraceConfig) {
        self.tracer.enable_with(cfg);
    }

    /// Stop tracing and return the recorded events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// Recording counters of the tracer (zeros when tracing is off).
    pub fn trace_stats(&self) -> TraceStats {
        self.tracer.stats()
    }

    /// Start collecting aggregate metrics on this rank (no-op if already
    /// enabled). Costs one branch per operation while enabled or not.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::new(MetricsRegistry::new()));
        }
    }

    /// Whether metrics collection is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Stop collecting and return this rank's [`MetricsSnapshot`]
    /// (including its fault counters and the plan-cache delta since
    /// [`Comm::enable_metrics`]), or `None` if collection was off.
    pub fn take_metrics(&mut self) -> Option<MetricsSnapshot> {
        let faults = self.fault_stats();
        self.metrics.take().map(|r| r.snapshot(faults))
    }

    /// Record an event ending now (no-op when tracing is off).
    #[inline]
    pub(crate) fn trace(
        &mut self,
        kind: EventKind,
        t_start: f64,
        peer: Option<usize>,
        bytes: usize,
        tag: Option<i32>,
    ) {
        self.trace_stream(kind, t_start, peer, bytes, tag, None);
    }

    /// [`Comm::trace`] with the chunk index of a streamed transfer (see
    /// [`TraceEvent::seq`]).
    #[inline]
    pub(crate) fn trace_stream(
        &mut self,
        kind: EventKind,
        t_start: f64,
        peer: Option<usize>,
        bytes: usize,
        tag: Option<i32>,
        seq: Option<u32>,
    ) {
        if self.tracer.enabled() {
            let t_end = self.clock.now();
            self.tracer.record(TraceEvent { kind, t_start, t_end, peer, bytes, tag, seq });
        }
        if let Some(m) = &mut self.metrics {
            m.record(kind, self.clock.now() - t_start, bytes);
        }
        // Oracle mode: every traced operation is a monotonicity checkpoint
        // of this rank's virtual clock.
        self.fabric.clock_ledger.tick(self.rank, self.clock.now());
    }

    /// Validate a peer rank.
    pub(crate) fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.size() {
            Err(CoreError::InvalidRank { rank, size: self.size() })
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("wtime", &self.wtime())
            .field("platform", &self.platform().id)
            .finish()
    }
}
