//! One-sided communication: windows, `put`, `get`, and active-target
//! synchronization with `fence`.
//!
//! Timing follows the paper's §2.5/§4.4 observations: puts dispense with
//! the rendezvous handshake (cheap per-transfer) but every epoch pays the
//! heavyweight fence synchronization, which dominates small messages.
//! Transfer completion is only guaranteed — and only charged — at the
//! closing fence, where all ranks' clocks max-combine with the pending
//! transfer times.
//!
//! Data is applied to the target window under a lock at call time; MPI
//! declares concurrent target access during an epoch erroneous, so this
//! early visibility is unobservable to correct programs.

use std::sync::Arc;

use nonctg_datatype::{self as dt, Datatype};
use nonctg_simnet::Access;

use crate::comm::{CacheState, Comm};
use crate::error::{CoreError, Result};
use crate::fabric::{SimBarrier, Supervision};
use parking_lot::Mutex;

/// Shared state of one window across all ranks.
pub struct WindowState {
    /// Per-rank exposed memory.
    pub(crate) mems: Vec<Mutex<Vec<u8>>>,
    /// Completion-time candidates of transfers issued this epoch.
    pub(crate) pending: Mutex<Vec<f64>>,
    /// Fence barrier (separate generations from the communicator barrier).
    pub(crate) barrier: SimBarrier,
}

impl WindowState {
    pub(crate) fn new(nranks: usize, sup: Arc<Supervision>) -> WindowState {
        WindowState {
            mems: (0..nranks).map(|_| Mutex::new(Vec::new())).collect(),
            pending: Mutex::new(Vec::new()),
            barrier: SimBarrier::new(nranks, sup),
        }
    }
}

/// A rank-local handle on a one-sided window (`MPI_Win`).
pub struct Window {
    state: Arc<WindowState>,
    rank: usize,
    in_epoch: bool,
}

impl Comm {
    /// Collectively create a window exposing `local_bytes` of zeroed memory
    /// on this rank (`MPI_Win_create` + allocation). Every rank must call
    /// this the same number of times, in the same order.
    pub fn win_create(&mut self, local_bytes: usize) -> Result<Window> {
        let id = self.next_win_id;
        self.next_win_id += 1;
        let state = {
            let mut wins = self.fabric().windows.lock();
            let n = self.size();
            let sup = Arc::clone(&self.fabric().supervision);
            Arc::clone(wins.entry(id).or_insert_with(|| Arc::new(WindowState::new(n, sup))))
        };
        *state.mems[self.rank()].lock() = vec![0u8; local_bytes];
        // Window creation is collective and synchronizing.
        self.barrier()?;
        Ok(Window { state, rank: self.rank(), in_epoch: false })
    }
}

impl Window {
    /// Size of this rank's exposed region.
    pub fn local_len(&self) -> usize {
        self.state.mems[self.rank].lock().len()
    }

    /// Read this rank's exposed memory (e.g. after a closing fence).
    pub fn read_local(&self, range: std::ops::Range<usize>) -> Result<Vec<u8>> {
        let mem = self.state.mems[self.rank].lock();
        if range.end > mem.len() {
            return Err(CoreError::RmaOutOfRange {
                offset: range.start,
                len: range.end - range.start,
                window: mem.len(),
            });
        }
        Ok(mem[range].to_vec())
    }

    /// Overwrite part of this rank's exposed memory (outside epochs).
    pub fn write_local(&self, offset: usize, data: &[u8]) -> Result<()> {
        let mut mem = self.state.mems[self.rank].lock();
        let end = offset + data.len();
        if end > mem.len() {
            return Err(CoreError::RmaOutOfRange { offset, len: data.len(), window: mem.len() });
        }
        mem[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Active-target fence (`MPI_Win_fence`): closes the previous epoch
    /// (completing all puts/gets) and opens a new one. Collective.
    pub fn fence(&mut self, comm: &mut Comm) -> Result<()> {
        let t0 = comm.wtime();
        let fabric = Arc::clone(comm.fabric());
        let (p, sup) = (&fabric.platform, &fabric.supervision);
        let me = comm.rank();
        sup.set_blocked(me, Some("fence participants"));
        let rounds = (|| -> Result<f64> {
            // Round 1: everyone has issued their epoch's operations.
            let t1 = self.state.barrier.wait(comm.clock.now())?;
            // All pending completion times are now visible.
            let pending_max = {
                let pend = self.state.pending.lock();
                pend.iter().copied().fold(t1, f64::max)
            };
            // Round 2: agree on the epoch completion time.
            let t2 = self.state.barrier.wait(pending_max)?;
            // Designated rank clears the pending list for the next epoch.
            if comm.rank() == 0 {
                self.state.pending.lock().clear();
            }
            // Round 3: nobody may add new operations until the clear happened.
            self.state.barrier.wait(t2)
        })();
        sup.set_blocked(me, None);
        let t3 = rounds.map_err(|e| comm.fabric().enrich(e))?;
        comm.clock.sync_to(t3);
        comm.charge_exact(p.fence_time(comm.size()));
        comm.trace(crate::trace::EventKind::Fence, t0, None, 0, None);
        self.in_epoch = true;
        Ok(())
    }

    /// One-sided put (`MPI_Put`): write `count` instances of `dtype`, read
    /// from `buf` at byte `origin`, into `target` rank's window at byte
    /// `target_disp`. Completes at the closing [`Window::fence`].
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &self,
        comm: &mut Comm,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        target: usize,
        target_disp: usize,
    ) -> Result<()> {
        if !self.in_epoch {
            return Err(CoreError::Rma("put outside a fence epoch"));
        }
        let t0 = comm.wtime();
        comm.check_rank(target)?;
        dtype.require_committed()?;
        let bytes = dt::pack_size(dtype, count)?;
        let fabric = Arc::clone(comm.fabric());
        let p = &fabric.platform;
        let access = Access::classify(dtype);
        let warm = comm.is_warm();

        // Real data: pack origin layout, deposit into the target window.
        let payload = dt::pack(buf, origin, dtype, count)?;
        {
            let mut mem = self.state.mems[target].lock();
            let end = target_disp + bytes;
            if end > mem.len() {
                return Err(CoreError::RmaOutOfRange {
                    offset: target_disp,
                    len: bytes,
                    window: mem.len(),
                });
            }
            mem[target_disp..end].copy_from_slice(&payload);
        }

        // Origin CPU is busy for the overhead plus any gather staging;
        // the wire part completes by the closing fence.
        let gather = match access {
            Access::Contiguous => 0.0,
            ref a => p.gather_time(bytes as u64, a, warm),
        };
        let t_work = comm.clock.now();
        comm.charge(p.rma.put_overhead + gather);
        if gather > 0.0 {
            // The overhead and the gather are charged as one jittered
            // quantity (splitting would draw two jitter factors and change
            // every figure); the Stage event takes the gather's
            // proportional share of the jittered interval.
            let t_now = comm.clock.now();
            let frac = gather / (p.rma.put_overhead + gather);
            let t_stage = t_now - (t_now - t_work) * frac;
            comm.trace(crate::trace::EventKind::Stage, t_stage, Some(target), bytes, None);
        }
        comm.cache = CacheState::Warm;

        let mut wire = p.wire_time(bytes as u64, p.rma.bw_factor);
        if bytes as u64 > p.proto.internal_buffer {
            wire *= p.rma.large_penalty;
            wire += bytes.div_ceil(p.proto.chunk_size.max(1) as usize) as f64
                * p.proto.chunk_overhead;
        }
        let done = comm.clock.now() + p.net.latency + wire * comm.jitter.factor();
        self.state.pending.lock().push(done);
        comm.trace(crate::trace::EventKind::Put, t0, Some(target), bytes, None);
        Ok(())
    }

    /// One-sided get (`MPI_Get`): read `bytes` from `target`'s window at
    /// `target_disp` into `buf` at `origin` with layout `dtype`×`count`.
    /// Data is valid only after the closing [`Window::fence`].
    #[allow(clippy::too_many_arguments)]
    pub fn get(
        &self,
        comm: &mut Comm,
        buf: &mut [u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        target: usize,
        target_disp: usize,
    ) -> Result<()> {
        if !self.in_epoch {
            return Err(CoreError::Rma("get outside a fence epoch"));
        }
        let t0 = comm.wtime();
        comm.check_rank(target)?;
        dtype.require_committed()?;
        let bytes = dt::pack_size(dtype, count)?;
        let fabric = Arc::clone(comm.fabric());
        let p = &fabric.platform;
        let access = Access::classify(dtype);

        let packed = {
            let mem = self.state.mems[target].lock();
            let end = target_disp + bytes;
            if end > mem.len() {
                return Err(CoreError::RmaOutOfRange {
                    offset: target_disp,
                    len: bytes,
                    window: mem.len(),
                });
            }
            mem[target_disp..end].to_vec()
        };
        dt::unpack_from(&packed, dtype, count, buf, origin)?;

        let scatter = match access {
            Access::Contiguous => 0.0,
            ref a => p.scatter_time(bytes as u64, a, comm.is_warm()),
        };
        let t_work = comm.clock.now();
        comm.charge(p.rma.put_overhead + scatter);
        if scatter > 0.0 {
            // Proportional share of the single jittered charge, as in put.
            let t_now = comm.clock.now();
            let frac = scatter / (p.rma.put_overhead + scatter);
            let t_scatter = t_now - (t_now - t_work) * frac;
            comm.trace(crate::trace::EventKind::Unstage, t_scatter, Some(target), bytes, None);
        }
        comm.cache = CacheState::Warm;

        let mut wire = p.wire_time(bytes as u64, p.rma.bw_factor);
        if bytes as u64 > p.proto.internal_buffer {
            wire *= p.rma.large_penalty;
            wire += bytes.div_ceil(p.proto.chunk_size.max(1) as usize) as f64
                * p.proto.chunk_overhead;
        }
        let done = comm.clock.now() + p.net.latency + wire * comm.jitter.factor();
        self.state.pending.lock().push(done);
        comm.trace(crate::trace::EventKind::Get, t0, Some(target), bytes, None);
        Ok(())
    }
}
