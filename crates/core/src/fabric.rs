//! The shared fabric: mailboxes, message envelopes, protocol metadata, and
//! the clock-combining barrier.
//!
//! Payload bytes always move for real (senders pack, receivers unpack and
//! can verify byte-for-byte); *time* is carried alongside as virtual-clock
//! stamps computed from the platform cost model. Rendezvous sends block the
//! sender on a real back-channel until the receiver matches, which keeps
//! virtual time causal without a global event queue.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use nonctg_datatype::Signature;
use nonctg_simnet::Platform;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{CoreError, Result};
use crate::handoff::Offer;
use crate::invariants::{AliasRegistry, ClockLedger};
use crate::rma::WindowState;

/// Longest slice a fabric wait sleeps before re-checking the poison flag.
/// Bounds how long a blocked peer can take to observe a rank failure, so
/// it stays well under a second; condvar notifications still end waits
/// immediately on the happy path. Configurable via `NONCTG_POLL_SLICE_MS`
/// (milliseconds, clamped to >= 1), resolved once per process.
pub(crate) fn poll_slice() -> Duration {
    static V: OnceLock<Duration> = OnceLock::new();
    *V.get_or_init(|| {
        let ms = std::env::var("NONCTG_POLL_SLICE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(20)
            .max(1);
        Duration::from_millis(ms)
    })
}

/// Bounded spin budget a fabric wait burns before its first park. Matches
/// arrive within microseconds on the hot path, so a short spin avoids
/// most condvar sleeps; the budget is small enough that a genuinely idle
/// wait parks almost immediately.
pub(crate) const SPIN_ROUNDS: u32 = 64;

/// One spin round between lock re-acquisitions.
#[inline]
pub(crate) fn spin_round() {
    for _ in 0..32 {
        std::hint::spin_loop();
    }
}

/// Bounded pool of reusable payload buffers, shared by every rank of one
/// fabric. Message staging (sends, bsend, streamed chunks) draws from it,
/// and buffers flow back automatically when the receiver drops the
/// envelope — including on error paths.
pub(crate) struct PayloadPool {
    bufs: Mutex<Vec<Vec<u8>>>,
    /// Fault-poisoned allocations, held alive (bounded by
    /// [`PayloadPool::QUARANTINE_CAP`]) so their addresses can never be
    /// recycled into a later transfer — and so the oracle recycling check
    /// in [`PayloadPool::take`] is precise, not racing the allocator.
    quarantine: Mutex<Vec<Vec<u8>>>,
    /// Oracle-mode ledger of lent-out buffer addresses (aliasing check).
    aliases: AliasRegistry,
}

impl PayloadPool {
    /// Buffers retained for reuse; beyond this, returned allocations are
    /// simply freed (bounds worst-case memory at a few in-flight payloads).
    const MAX_RETAINED: usize = 8;

    /// Poisoned allocations held in quarantine; beyond this the oldest is
    /// freed (its address may then lawfully re-enter circulation via the
    /// allocator, which is fine — only pool recycling is forbidden).
    const QUARANTINE_CAP: usize = 16;

    pub(crate) fn new() -> Arc<PayloadPool> {
        Arc::new(PayloadPool {
            bufs: Mutex::new(Vec::new()),
            quarantine: Mutex::new(Vec::new()),
            aliases: AliasRegistry::default(),
        })
    }

    /// Whether `ptr` is the address of a quarantined (poisoned) buffer.
    fn is_quarantined(&self, ptr: usize) -> bool {
        self.quarantine.lock().iter().any(|q| q.as_ptr() as usize == ptr)
    }

    /// A buffer of exactly `len` bytes (contents unspecified beyond being
    /// initialized), reusing a pooled allocation when one is available:
    /// the smallest retained one that holds `len` bytes, else the largest
    /// (which then grows). Best fit keeps a small chunk from taking, and
    /// a large payload from re-growing, the one large allocation.
    pub fn take(self: &Arc<Self>, len: usize) -> PooledBuf {
        let mut buf = {
            let mut bufs = self.bufs.lock();
            let fits = bufs
                .iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= len)
                .min_by_key(|(_, b)| b.capacity());
            let pick = fits.or_else(|| bufs.iter().enumerate().max_by_key(|(_, b)| b.capacity()));
            pick.map(|(i, _)| i).map(|i| bufs.swap_remove(i)).unwrap_or_default()
        };
        if buf.len() < len {
            buf.resize(len, 0);
        } else {
            buf.truncate(len);
        }
        // Empty buffers share the dangling sentinel pointer and can never
        // alias real payload bytes, so only allocations enter the ledger.
        if buf.capacity() > 0 {
            let ptr = buf.as_ptr() as usize;
            if crate::invariants::oracle_checks_enabled() && self.is_quarantined(ptr) {
                crate::invariants::violation(&format!(
                    "payload pool recycled fault-poisoned buffer {ptr:#x}"
                ));
            }
            self.aliases.lend(ptr);
        }
        PooledBuf { buf, pool: Some(Arc::clone(self)), poisoned: false }
    }

    fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let ptr = buf.as_ptr() as usize;
        if crate::invariants::oracle_checks_enabled() && self.is_quarantined(ptr) {
            crate::invariants::violation(&format!(
                "fault-poisoned buffer {ptr:#x} returned to the payload pool"
            ));
        }
        // Length is kept: `take` truncates or extends, so reusing a buffer
        // for an equal-or-smaller payload never pays a memset.
        let mut bufs = self.bufs.lock();
        if bufs.len() < Self::MAX_RETAINED {
            bufs.push(buf);
        }
    }

    /// Impound a fault-poisoned allocation so [`PayloadPool::take`] can
    /// never hand its bytes to a later transfer.
    fn impound(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut q = self.quarantine.lock();
        q.push(buf);
        if q.len() > Self::QUARANTINE_CAP {
            q.remove(0);
        }
    }
}

/// A payload buffer that returns its allocation to its [`PayloadPool`]
/// on drop — unless poisoned, in which case it is quarantined instead.
/// Derefs to `[u8]`.
pub(crate) struct PooledBuf {
    buf: Vec<u8>,
    pool: Option<Arc<PayloadPool>>,
    poisoned: bool,
}

impl PooledBuf {
    /// Wrap a plain vector without pool backing (the owned-buffer
    /// fallback when the pool is exhausted, and test scaffolding).
    pub fn detached(buf: Vec<u8>) -> PooledBuf {
        PooledBuf { buf, pool: None, poisoned: false }
    }

    /// Mark the buffer fault-poisoned: on drop its allocation goes to the
    /// pool's quarantine instead of back into circulation, so a corrupted
    /// or dropped chunk's bytes can never be recycled into a later
    /// transfer.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            if self.buf.capacity() > 0 {
                pool.aliases.give_back(self.buf.as_ptr() as usize);
            }
            let buf = std::mem::take(&mut self.buf);
            if self.poisoned {
                pool.impound(buf);
            } else {
                pool.put(buf);
            }
        }
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBuf({} B)", self.buf.len())
    }
}

/// Packed payload of a message: fully materialized, or streamed by a
/// gather the receiver runs alongside the sender.
#[derive(Debug)]
pub(crate) enum Payload {
    /// The whole packed message: eager and buffered sends, the contiguous
    /// reference, and derived sends that do not stream (zero bytes, the
    /// monolithic baseline, or a demoted or uncompiled route).
    Whole(PooledBuf),
    /// Every other derived rendezvous, plan or iovec route: the sender's
    /// source view, offered for a gather. The receiver answers with a
    /// buffer of exactly the payload (its own dense run, or a staging
    /// buffer it then unpacks) and both ranks gather chunks straight into
    /// it; see `handoff`.
    Chunked(Offer),
}

impl Payload {
    /// Total packed bytes of the message (known up front either way).
    pub fn len(&self) -> usize {
        match self {
            Payload::Whole(b) => b.len(),
            Payload::Chunked(offer) => offer.total(),
        }
    }
}

/// The last tracked operation a rank started, kept for watchdog reports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpRecord {
    /// Operation kind ("send", "recv", ...).
    pub kind: &'static str,
    /// Peer rank, if the operation has one.
    pub peer: Option<usize>,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Per-rank counters of injected faults the runtime absorbed or surfaced.
///
/// Read through [`crate::Comm::fault_stats`]; all zeros unless the
/// platform carries a [`nonctg_simnet::FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient send failures absorbed by retry-with-backoff.
    pub transient_retries: u64,
    /// Injected delivery delays charged to the virtual clock.
    pub delays: u64,
    /// Payloads corrupted in flight.
    pub corruptions: u64,
    /// Sends abandoned after the bounded retry budget.
    pub failed_sends: u64,
    /// Transfers demoted from the pipelined chunk stream to a whole
    /// (monolithic) rendezvous after repeated forecast chunk faults.
    pub pipeline_demotions: u64,
    /// Chunks re-packed and re-sent after an in-stream corruption/drop.
    pub chunk_retries: u64,
    /// Sends that fell back from pooled (zero-copy-style) staging to an
    /// owned buffer because the payload pool was exhausted.
    pub pool_exhaustions: u64,
    /// Sends that fell back to the uncompiled pack path after a pack-plan
    /// compile/allocation failure.
    pub plan_fallbacks: u64,
    /// Sends demoted from the zero-copy iovec datapath to the pack-plan
    /// path: after an injected payload-pool exhaustion, or because the
    /// plan lowers to more regions than the iovec cap.
    pub iovec_demotions: u64,
    /// Sends charged a sustained link-degradation latency surcharge.
    pub link_degradations: u64,
    /// Injected receiver-side crashes surfaced as typed errors.
    pub recv_crashes: u64,
    /// Always 0: every wait is blocking and bounded only by the
    /// supervision watchdog, which fails with [`CoreError::Deadlock`]
    /// instead. Kept so the `faults` key set of metrics reports, which
    /// benchmark and CI read, stays the same.
    pub timeouts: u64,
    /// Always 0: there are no requests to cancel. Kept for the same
    /// reason as [`FaultStats::timeouts`].
    pub cancels: u64,
}

impl FaultStats {
    /// Add another rank's counters into this one.
    pub fn absorb(&mut self, other: FaultStats) {
        self.transient_retries += other.transient_retries;
        self.delays += other.delays;
        self.corruptions += other.corruptions;
        self.failed_sends += other.failed_sends;
        self.pipeline_demotions += other.pipeline_demotions;
        self.chunk_retries += other.chunk_retries;
        self.pool_exhaustions += other.pool_exhaustions;
        self.plan_fallbacks += other.plan_fallbacks;
        self.iovec_demotions += other.iovec_demotions;
        self.link_degradations += other.link_degradations;
        self.recv_crashes += other.recv_crashes;
        self.timeouts += other.timeouts;
        self.cancels += other.cancels;
    }

    /// Total graceful demotions: every time the runtime swapped a faster
    /// datapath for a slower-but-correct one instead of failing.
    pub fn demotions(&self) -> u64 {
        self.pipeline_demotions + self.pool_exhaustions + self.plan_fallbacks + self.iovec_demotions
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Shared health state of one universe: the poison flag set when a rank
/// fails, the configured deadlock timeout, and per-rank bookkeeping the
/// watchdog dumps into [`CoreError::Deadlock`] reports.
pub(crate) struct Supervision {
    /// World rank + 1 of the first failed rank; 0 = all healthy.
    failed: AtomicUsize,
    /// Per-wait timeout before a blocked rank declares a deadlock.
    timeout: Duration,
    /// What each rank is currently blocked on (`None` = running).
    blocked: Vec<Mutex<Option<&'static str>>>,
    /// Last tracked operation each rank started.
    last_op: Vec<Mutex<Option<OpRecord>>>,
    /// Per-rank tracked-operation counters, keying fault-plan decisions.
    ops: Vec<AtomicU64>,
    /// Per-rank injected-fault counters.
    faults: Vec<Mutex<FaultStats>>,
}

impl Supervision {
    pub(crate) fn new(nranks: usize, timeout: Duration) -> Arc<Supervision> {
        Arc::new(Supervision {
            failed: AtomicUsize::new(0),
            timeout,
            blocked: (0..nranks).map(|_| Mutex::new(None)).collect(),
            last_op: (0..nranks).map(|_| Mutex::new(None)).collect(),
            ops: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            faults: (0..nranks).map(|_| Mutex::new(FaultStats::default())).collect(),
        })
    }

    /// Next operation index of `rank` (each rank's ops are numbered in
    /// program order, which is deterministic: one thread per rank).
    pub fn next_op(&self, rank: usize) -> u64 {
        self.ops[rank].fetch_add(1, Ordering::Relaxed)
    }

    /// Mutate `rank`'s fault counters.
    pub fn with_faults(&self, rank: usize, f: impl FnOnce(&mut FaultStats)) {
        if let Some(slot) = self.faults.get(rank) {
            f(&mut slot.lock());
        }
    }

    /// Snapshot `rank`'s fault counters.
    pub fn fault_stats(&self, rank: usize) -> FaultStats {
        self.faults.get(rank).map(|s| *s.lock()).unwrap_or_default()
    }

    /// The per-wait deadlock timeout in force.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// World rank of the first failed rank, if any.
    pub fn failed_rank(&self) -> Option<usize> {
        let v = self.failed.load(Ordering::Acquire);
        (v > 0).then(|| v - 1)
    }

    /// Mark `rank` failed. Only the first failure sticks; later ones keep
    /// the original culprit so every peer reports the same rank.
    pub fn poison(&self, rank: usize) {
        let _ = self.failed.compare_exchange(0, rank + 1, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Record what `rank` is blocked on (or `None` when it resumes).
    pub fn set_blocked(&self, rank: usize, what: Option<&'static str>) {
        if let Some(slot) = self.blocked.get(rank) {
            *slot.lock() = what;
        }
    }

    /// Record the operation `rank` just started.
    pub fn record_op(&self, rank: usize, op: OpRecord) {
        if let Some(slot) = self.last_op.get(rank) {
            *slot.lock() = Some(op);
        }
    }

    fn blocked_on(&self, rank: usize) -> Option<&'static str> {
        self.blocked.get(rank).and_then(|s| *s.lock())
    }

    fn last_op_of(&self, rank: usize) -> Option<OpRecord> {
        self.last_op.get(rank).and_then(|s| *s.lock())
    }
}

/// Timing metadata of a message, interpreted by the receiver.
#[derive(Debug)]
pub(crate) enum Protocol {
    /// Eager: the sender fully determined availability.
    Eager {
        /// Virtual time the payload is available at the receiver.
        avail: f64,
    },
    /// Rendezvous: transfer starts once both sides are ready; the sender
    /// blocks until the receiver reports the completion time back.
    Rendezvous {
        /// Virtual time the sender had the data staged and the RTS posted.
        sender_ready: f64,
        /// Pure wire time of the payload, precomputed by the sender.
        wire: f64,
        /// Back-channel for the sender's completion time.
        reply: Sender<f64>,
    },
    /// Asynchronous rendezvous (buffered sends): same timing rule as
    /// rendezvous but the sender has already returned.
    AsyncRendezvous {
        /// Virtual time the buffered data was ready to transfer.
        sender_ready: f64,
        /// Pure wire time of the payload.
        wire: f64,
    },
}

/// A message in flight or queued at the receiver.
#[derive(Debug)]
pub(crate) struct Envelope {
    /// Sender's rank.
    pub src: usize,
    pub tag: i32,
    /// Packed (contiguous) payload bytes, whole or streamed.
    pub payload: Payload,
    /// Total signature (already scaled by the send count).
    pub sig: Signature,
    pub protocol: Protocol,
    /// Released back to an attached bsend buffer when matched.
    pub bsend_release: Option<(Arc<AtomicU64>, u64)>,
}

#[derive(Default)]
struct MailboxInner {
    queue: Vec<Envelope>,
}

/// Per-rank incoming message queue.
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
    cond: Condvar,
    sup: Arc<Supervision>,
}

impl Mailbox {
    fn new(sup: Arc<Supervision>) -> Self {
        Mailbox { inner: Mutex::new(MailboxInner::default()), cond: Condvar::new(), sup }
    }

    /// Deposit an envelope and wake any waiting receiver.
    pub fn push(&self, env: Envelope) {
        let mut inner = self.inner.lock();
        inner.queue.push(env);
        self.cond.notify_all();
    }

    /// Blocking match: remove and return the first envelope matching
    /// `src`/`tag` (None = wildcard), preserving per-source order.
    ///
    /// Returns [`CoreError::PeerFailed`] as soon as the fabric is
    /// poisoned (a queued match still wins over poison, since the data is
    /// already here), or [`CoreError::Deadlock`] after the supervision
    /// timeout.
    pub fn match_recv(&self, src: Option<usize>, tag: Option<i32>) -> Result<Envelope> {
        let deadline = Instant::now() + self.sup.timeout();
        let mut spins = SPIN_ROUNDS;
        let mut inner = self.inner.lock();
        loop {
            let pos = inner
                .queue
                .iter()
                .position(|e| src.is_none_or(|s| s == e.src) && tag.is_none_or(|t| t == e.tag));
            if let Some(i) = pos {
                return Ok(inner.queue.remove(i));
            }
            if let Some(rank) = self.sup.failed_rank() {
                return Err(CoreError::PeerFailed { rank });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CoreError::deadlock("a matching message"));
            }
            // Spin-then-park: burn the bounded spin budget (lock released)
            // before the first condvar sleep.
            if spins > 0 {
                spins -= 1;
                MutexGuard::unlocked(&mut inner, spin_round);
                continue;
            }
            let slice = (deadline - now).min(poll_slice());
            let _ = self.cond.wait_for(&mut inner, slice);
        }
    }

    /// Snapshot of queued envelopes as `(src, tag, len)`, for watchdog
    /// reports.
    pub fn snapshot(&self) -> Vec<(usize, i32, usize)> {
        let inner = self.inner.lock();
        inner.queue.iter().map(|e| (e.src, e.tag, e.payload.len())).collect()
    }
}

struct BarrierState {
    generation: u64,
    arrived: usize,
    tmax: f64,
    result: f64,
}

/// A barrier that also max-combines the participants' virtual clocks.
pub(crate) struct SimBarrier {
    state: Mutex<BarrierState>,
    cond: Condvar,
    nranks: usize,
    sup: Arc<Supervision>,
}

impl SimBarrier {
    pub(crate) fn new(nranks: usize, sup: Arc<Supervision>) -> Self {
        SimBarrier {
            state: Mutex::new(BarrierState { generation: 0, arrived: 0, tmax: 0.0, result: 0.0 }),
            cond: Condvar::new(),
            nranks,
            sup,
        }
    }

    /// Enter with the local virtual time; returns the maximum across all
    /// participants once everyone has arrived.
    ///
    /// A poisoned fabric fails the wait with [`CoreError::PeerFailed`]
    /// (the failed rank can never arrive); the supervision timeout fails
    /// it with [`CoreError::Deadlock`].
    pub fn wait(&self, t_local: f64) -> Result<f64> {
        let deadline = Instant::now() + self.sup.timeout();
        let mut st = self.state.lock();
        let my_gen = st.generation;
        st.tmax = st.tmax.max(t_local);
        st.arrived += 1;
        if st.arrived == self.nranks {
            st.result = st.tmax;
            st.tmax = 0.0;
            st.arrived = 0;
            st.generation += 1;
            self.cond.notify_all();
            return Ok(st.result);
        }
        let mut spins = SPIN_ROUNDS;
        while st.generation == my_gen {
            if let Some(rank) = self.sup.failed_rank() {
                return Err(CoreError::PeerFailed { rank });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CoreError::deadlock("barrier participants"));
            }
            // Spin-then-park, as in `Mailbox::match_recv`.
            if spins > 0 {
                spins -= 1;
                MutexGuard::unlocked(&mut st, spin_round);
                continue;
            }
            let slice = (deadline - now).min(poll_slice());
            let _ = self.cond.wait_for(&mut st, slice);
        }
        Ok(st.result)
    }
}

/// All state shared between the ranks of one [`crate::Universe`] run.
pub(crate) struct Fabric {
    pub nranks: usize,
    pub platform: Platform,
    pub mailboxes: Vec<Mailbox>,
    /// The world barrier.
    pub barrier: SimBarrier,
    /// Registered one-sided windows, keyed by creation sequence number.
    pub windows: Mutex<HashMap<usize, Arc<WindowState>>>,
    /// Health state: poison flag, deadlock timeout, watchdog bookkeeping.
    pub supervision: Arc<Supervision>,
    /// Reusable payload staging buffers shared by all ranks.
    pub pool: Arc<PayloadPool>,
    /// Oracle-mode per-rank virtual-clock monotonicity ledger.
    pub clock_ledger: ClockLedger,
}

impl Fabric {
    pub fn new(platform: Platform, nranks: usize) -> Arc<Fabric> {
        let supervision = Supervision::new(nranks, platform.effective_deadlock_timeout());
        Arc::new(Fabric {
            nranks,
            mailboxes: (0..nranks).map(|_| Mailbox::new(Arc::clone(&supervision))).collect(),
            barrier: SimBarrier::new(nranks, Arc::clone(&supervision)),
            windows: Mutex::new(HashMap::new()),
            supervision,
            platform,
            pool: PayloadPool::new(),
            clock_ledger: ClockLedger::new(nranks),
        })
    }

    /// Per-rank diagnostics for watchdog reports: what each rank is
    /// blocked on, the last operation it started, and its queued mailbox
    /// envelopes.
    pub fn diagnostics(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("fabric state at timeout:");
        for rank in 0..self.nranks {
            let _ = write!(out, "\n  rank {rank}: ");
            match self.supervision.blocked_on(rank) {
                Some(what) => {
                    let _ = write!(out, "blocked on {what}");
                }
                None => out.push_str("running"),
            }
            if let Some(op) = self.supervision.last_op_of(rank) {
                let _ = write!(out, "; last op {}", op.kind);
                if let Some(peer) = op.peer {
                    let _ = write!(out, " peer {peer}");
                }
                let _ = write!(out, " ({} B)", op.bytes);
            }
            let queued = self.mailboxes[rank].snapshot();
            if queued.is_empty() {
                out.push_str("; mailbox empty");
            } else {
                let _ = write!(out, "; mailbox [");
                for (i, (src, tag, len)) in queued.iter().take(8).enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "src {src} tag {tag} len {len}");
                }
                if queued.len() > 8 {
                    let _ = write!(out, ", +{} more", queued.len() - 8);
                }
                out.push(']');
            }
        }
        out
    }

    /// Attach diagnostics to a bare [`CoreError::Deadlock`]; other errors
    /// pass through untouched.
    pub fn enrich(&self, e: CoreError) -> CoreError {
        match e {
            CoreError::Deadlock { waiting_for, report } if report.is_empty() => {
                CoreError::Deadlock { waiting_for, report: self.diagnostics() }
            }
            other => other,
        }
    }
}

/// Create the rendezvous back-channel.
pub(crate) fn reply_channel() -> (Sender<f64>, Receiver<f64>) {
    bounded(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup() -> Arc<Supervision> {
        Supervision::new(4, Duration::from_secs(5))
    }

    fn env(src: usize, tag: i32) -> Envelope {
        Envelope {
            src,
            tag,
            payload: Payload::Whole(PooledBuf::detached(Vec::new())),
            sig: Signature::empty(),
            protocol: Protocol::Eager { avail: 0.0 },
            bsend_release: None,
        }
    }

    #[test]
    fn payload_pool_reuses_allocations() {
        let pool = PayloadPool::new();
        let mut a = pool.take(1024);
        a[5] = 7;
        let ptr = a.as_ptr();
        let cap_ok = a.len() == 1024;
        assert!(cap_ok);
        drop(a);
        // Next take of equal-or-smaller size reuses the same allocation.
        let b = pool.take(512);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 512);
        drop(b);
        // Detached buffers never enter the pool.
        drop(PooledBuf::detached(vec![1, 2, 3]));
        let c = pool.take(8);
        assert_eq!(c.as_ptr(), ptr);
    }

    #[test]
    fn payload_pool_takes_the_best_fit() {
        let pool = PayloadPool::new();
        // Put the small allocation first: a LIFO pop would hand the large
        // one to the small request.
        let small = vec![0u8; 2 << 20];
        let large = vec![0u8; 64 << 20];
        let (small_ptr, large_ptr) = (small.as_ptr(), large.as_ptr());
        pool.put(small);
        pool.put(large);
        let a = pool.take(2 << 20);
        let b = pool.take(64 << 20);
        assert_eq!(a.as_ptr(), small_ptr);
        assert_eq!(b.as_ptr(), large_ptr);
        assert_eq!((a.len(), b.len()), (2 << 20, 64 << 20));
        drop((b, a));
        assert_eq!(pool.take(16).as_ptr(), small_ptr);

        // No retained buffer holds the request: the largest one grows.
        let pool = PayloadPool::new();
        let (tiny, mid) = (vec![0u8; 1024], vec![0u8; 4096]);
        let tiny_ptr = tiny.as_ptr();
        pool.put(tiny);
        pool.put(mid);
        let grown = pool.take(8192);
        assert_eq!(grown.len(), 8192);
        let left: Vec<*const u8> = pool.bufs.lock().iter().map(|b| b.as_ptr()).collect();
        assert_eq!(left, vec![tiny_ptr]);
    }

    #[test]
    fn poisoned_buffer_is_never_recycled() {
        let pool = PayloadPool::new();
        let mut a = pool.take(256);
        let poisoned_ptr = a.as_ptr() as usize;
        a.poison();
        drop(a);
        // The quarantined allocation must never come back out of the pool.
        assert!(pool.is_quarantined(poisoned_ptr));
        for _ in 0..32 {
            let b = pool.take(256);
            assert_ne!(b.as_ptr() as usize, poisoned_ptr);
        }
        // Healthy buffers still recycle as before.
        let c = pool.take(64);
        let healthy_ptr = c.as_ptr();
        drop(c);
        assert_eq!(pool.take(64).as_ptr(), healthy_ptr);
    }

    #[test]
    fn quarantine_is_bounded() {
        let pool = PayloadPool::new();
        for _ in 0..(PayloadPool::QUARANTINE_CAP + 10) {
            let mut b = PooledBuf {
                buf: vec![0u8; 32],
                pool: Some(Arc::clone(&pool)),
                poisoned: false,
            };
            b.poison();
            drop(b);
        }
        assert_eq!(pool.quarantine.lock().len(), PayloadPool::QUARANTINE_CAP);
    }

    #[test]
    fn fault_stats_absorb_and_demotions() {
        let mut a = FaultStats { pipeline_demotions: 2, pool_exhaustions: 1, ..Default::default() };
        let b = FaultStats {
            plan_fallbacks: 3,
            iovec_demotions: 6,
            chunk_retries: 5,
            timeouts: 1,
            cancels: 2,
            recv_crashes: 1,
            link_degradations: 7,
            ..Default::default()
        };
        a.absorb(b);
        assert_eq!(a.demotions(), 2 + 1 + 3 + 6);
        assert_eq!(a.chunk_retries, 5);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.cancels, 2);
        assert_eq!(a.recv_crashes, 1);
        assert_eq!(a.link_degradations, 7);
        assert!(!a.is_zero());
        assert!(FaultStats::default().is_zero());
    }

    #[test]
    fn mailbox_matches_by_source_and_tag() {
        let mb = Mailbox::new(sup());
        mb.push(env(0, 1));
        mb.push(env(1, 2));
        let got = mb.match_recv(Some(1), Some(2)).unwrap();
        assert_eq!((got.src, got.tag), (1, 2));
        let got = mb.match_recv(None, None).unwrap();
        assert_eq!((got.src, got.tag), (0, 1));
    }

    #[test]
    fn mailbox_preserves_order_per_source() {
        let mb = Mailbox::new(sup());
        mb.push(env(0, 7));
        mb.push(env(1, 7));
        mb.push(env(0, 8));
        // Same source: FIFO, even past another source's message.
        let first = mb.match_recv(Some(0), None).unwrap();
        assert_eq!(first.tag, 7);
        let second = mb.match_recv(Some(0), None).unwrap();
        assert_eq!(second.tag, 8);
        assert_eq!(mb.snapshot(), vec![(1, 7, 0)]);
    }

    #[test]
    fn mailbox_wakes_blocked_receiver() {
        let mb = Arc::new(Mailbox::new(sup()));
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.match_recv(Some(3), None).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        mb.push(env(3, 0));
        let got = h.join().unwrap();
        assert_eq!(got.src, 3);
    }

    #[test]
    fn barrier_combines_clocks() {
        let b = Arc::new(SimBarrier::new(3, sup()));
        let mut handles = Vec::new();
        for t in [1.0, 5.0, 3.0] {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || b.wait(t).unwrap()));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 5.0);
        }
    }

    #[test]
    fn barrier_reusable_across_generations() {
        let b = Arc::new(SimBarrier::new(2, sup()));
        for round in 0..5 {
            let b1 = Arc::clone(&b);
            let b2 = Arc::clone(&b);
            let base = round as f64 * 10.0;
            let h1 = std::thread::spawn(move || b1.wait(base + 1.0).unwrap());
            let h2 = std::thread::spawn(move || b2.wait(base + 2.0).unwrap());
            assert_eq!(h1.join().unwrap(), base + 2.0);
            assert_eq!(h2.join().unwrap(), base + 2.0);
        }
    }
}
