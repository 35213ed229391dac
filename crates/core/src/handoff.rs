//! The shared handoff of one streamed rendezvous, and the gather it
//! enables.
//!
//! Every non-empty, non-buffered derived rendezvous send (plan or iovec
//! route) posts its source view here, together with its envelope. The
//! receiver answers once, under the handoff's lock, with a destination
//! that holds exactly the payload: its own buffer when the receive plan
//! is one dense run, otherwise a staging buffer it unpacks afterwards.
//! Both ranks then take chunk indices `k` from one atomic cursor, and
//! each gathers `[cut(k), cut(k+1))` with `PackPlan::pack_range_into`
//! from the sender's buffer straight into that destination, on two
//! cores. A receive that fails after matching drops the offer
//! unanswered, which declines it: the sender gathers nothing.
//!
//! If the sender's deadline or the poison flag fires while the post is
//! still unanswered, the sender revokes it under the same lock. A
//! receiver that then matches the envelope gets a typed error and never
//! reads the source.
//!
//! # The lifetime invariant
//!
//! The raw source and destination views are dereferenced only while the
//! mode is `Direct`, and only between claiming a chunk index and marking
//! it done. Neither rank leaves before `done == n_chunks`: both leave
//! through a guard ([`SendSide`], [`RecvSide`]) whose `Drop` first
//! exhausts the claim cursor and then waits until every claimed chunk is
//! done. The sender's buffer is borrowed for the whole `send` and the
//! receiver's for the whole `recv`, and each guard carries that borrow,
//! so both buffers outlive every access — even when either rank errors
//! or unwinds mid-gather. This module holds all of `nonctg-core`'s
//! `unsafe`; the guards are crate-private and never leaked.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nonctg_datatype::PackPlan;
use nonctg_simnet::FaultPlan;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{CoreError, Result};
use crate::fabric::{poll_slice, spin_round, Supervision, SPIN_ROUNDS};

/// The fault injection a gathered chunk applies, keyed on the sender's
/// rank and operation.
pub(crate) struct ChunkFaults {
    /// The sender's fault plan, if any.
    pub plan: Option<FaultPlan>,
    /// The sender's world rank: keys every decision and owns the
    /// `chunk_retries` counter, whichever rank gathers the chunk.
    pub rank: usize,
    /// The send's operation index.
    pub op: u64,
    /// Payload byte the send's corruption fault flips, if any.
    pub corrupt_idx: Option<usize>,
}

/// The sender's user buffer, read by both ranks' gathers.
#[derive(Clone, Copy)]
struct Src {
    ptr: *const u8,
    len: usize,
}

/// Start of the receiver's destination, which holds exactly the payload's
/// bytes.
#[derive(Clone, Copy)]
struct Dst {
    ptr: *mut u8,
}

// SAFETY: the views are dereferenced only under the lifetime invariant of
// the module docs: the source only for shared reads, the destination only
// in disjoint claimed ranges, both only while their owners are inside
// `send`/`recv`.
unsafe impl Send for Src {}
unsafe impl Sync for Src {}
unsafe impl Send for Dst {}
unsafe impl Sync for Dst {}

enum Mode {
    /// Posted, not yet matched.
    Posted,
    /// Both ranks gather into the receiver's destination.
    Direct(Dst),
    /// The receive failed after matching and dropped the offer.
    Declined,
    /// The sender gave up before a receiver answered.
    Revoked,
}

/// One chunk a rank gathered: its index and byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Gathered {
    pub seq: u32,
    pub bytes: usize,
}

struct Handoff {
    mode: Mutex<Mode>,
    cond: Condvar,
    src: Src,
    origin: usize,
    plan: Arc<PackPlan>,
    total: usize,
    chunk: u64,
    n_chunks: u64,
    faults: ChunkFaults,
    /// Whether the send took the iovec route (its receive is charged
    /// as an iovec scatter).
    iov: bool,
    sup: Arc<Supervision>,
    /// Claim cursor: the next chunk index to hand out.
    next: AtomicU64,
    /// Chunks no rank touches any more (gathered or abandoned).
    done: AtomicU64,
    /// First failure of the gather; both ranks return it.
    failure: Mutex<Option<CoreError>>,
    /// Oracle mode: bytes gathered, and completions per chunk index.
    audit: Option<(AtomicU64, Vec<AtomicU8>)>,
}

/// Post `src` for a streamed send: `plan` gathers it from byte `origin`,
/// cut into `chunk`-byte pieces aligned with [`PackPlan::align_chunk`].
/// The caller has checked that the plan's span lies inside `src`. `iov`
/// marks an iovec-route send. Returns the sender's guard and the offer
/// that travels in the envelope.
pub(crate) fn post<'a>(
    src: &'a [u8],
    origin: usize,
    plan: Arc<PackPlan>,
    chunk: u64,
    faults: ChunkFaults,
    iov: bool,
    sup: Arc<Supervision>,
) -> (SendSide<'a>, Offer) {
    let total = plan.packed_len();
    let chunk = chunk.max(1);
    let n_chunks = (total as u64).div_ceil(chunk);
    let audit = crate::invariants::oracle_checks_enabled().then(|| {
        (
            AtomicU64::new(0),
            (0..n_chunks).map(|_| AtomicU8::new(0)).collect(),
        )
    });
    let h = Arc::new(Handoff {
        mode: Mutex::new(Mode::Posted),
        cond: Condvar::new(),
        src: Src {
            ptr: src.as_ptr(),
            len: src.len(),
        },
        origin,
        plan,
        total,
        chunk,
        n_chunks,
        faults,
        iov,
        sup,
        next: AtomicU64::new(0),
        done: AtomicU64::new(0),
        failure: Mutex::new(None),
        audit,
    });
    (
        SendSide {
            h: Arc::clone(&h),
            dst: None,
            _src: PhantomData,
        },
        Offer(h),
    )
}

impl Handoff {
    /// Packed position of chunk boundary `k`.
    fn cut(&self, k: u64) -> u64 {
        self.plan.align_chunk(k.saturating_mul(self.chunk))
    }

    fn fail(&self, e: CoreError) {
        self.failure.lock().get_or_insert(e);
    }

    /// Mark `n` chunks as no longer touched; the last one wakes joiners.
    fn complete(&self, n: u64) {
        if self.done.fetch_add(n, Ordering::AcqRel) + n == self.n_chunks {
            let _mode = self.mode.lock();
            self.cond.notify_all();
        }
    }

    /// Claim and gather chunks until one is non-empty; `None` once the
    /// cursor is exhausted or the gather failed.
    fn gather_next(&self, dst: Dst, rank: usize) -> Option<Gathered> {
        loop {
            let k = self.next.fetch_add(1, Ordering::AcqRel);
            if k >= self.n_chunks {
                return None;
            }
            let mut claim = Claim {
                h: self,
                k,
                rank,
                ok: false,
            };
            let (lo, hi) = (self.cut(k), self.cut(k + 1));
            if let Err(e) = self.gather(dst, k, lo, hi) {
                self.fail(e);
                drop(claim);
                self.exhaust(rank);
                return None;
            }
            claim.ok = true;
            drop(claim);
            if hi > lo {
                return Some(Gathered {
                    seq: k as u32,
                    bytes: (hi - lo) as usize,
                });
            }
        }
    }

    /// Gather packed bytes `[lo, hi)` (chunk `k`) into the destination,
    /// applying the chunk's injected faults.
    fn gather(&self, dst: Dst, k: u64, lo: u64, hi: u64) -> Result<()> {
        if hi <= lo {
            return Ok(());
        }
        let (lo, hi) = (lo as usize, hi as usize);
        // SAFETY: the sender is parked inside `send`, which borrows the
        // source for the whole call and cannot leave before this chunk is
        // done (module invariant); both ranks only read it.
        let src = unsafe { std::slice::from_raw_parts(self.src.ptr, self.src.len) };
        // SAFETY: `dst` covers the receiver's `total` payload bytes, which
        // `recv` borrows exclusively until this chunk is done (module
        // invariant), and `hi <= total`. Index `k` was handed out once by
        // the claim cursor, so no other slice of `[lo, hi)` exists.
        let out = unsafe { std::slice::from_raw_parts_mut(dst.ptr.add(lo), hi - lo) };
        self.plan
            .pack_range_into(src, self.origin, out, lo as u64, hi as u64)?;
        let f = &self.faults;
        if let Some(fp) = &f.plan {
            // A faulted chunk is corrupted in place and gathered again:
            // wall-clock work only, the virtual clock is untouched.
            let cf = fp.chunk_decision(f.rank, f.op, k);
            if cf.is_faulty() {
                if cf.corrupt {
                    out[fp.chunk_corrupt_byte(f.rank, f.op, k, out.len())] ^= 0xFF;
                }
                self.plan
                    .pack_range_into(src, self.origin, out, lo as u64, hi as u64)?;
                self.sup.with_faults(f.rank, |s| s.chunk_retries += 1);
            }
        }
        if let Some(idx) = f.corrupt_idx.filter(|i| (lo..hi).contains(i)) {
            out[idx - lo] ^= 0xFF;
        }
        if let Some((bytes, _)) = &self.audit {
            bytes.fetch_add((hi - lo) as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Close the cursor: chunks nobody claimed yet are abandoned by
    /// `rank` (a failure, unless every chunk was already claimed).
    fn exhaust(&self, rank: usize) {
        let claimed = self
            .next
            .swap(self.n_chunks, Ordering::AcqRel)
            .min(self.n_chunks);
        let skipped = self.n_chunks - claimed;
        if skipped > 0 {
            self.fail(CoreError::PeerFailed { rank });
            self.complete(skipped);
        }
    }

    /// Exhaust the cursor, then wait until no rank touches either buffer;
    /// the gather's outcome. Idempotent.
    fn join(&self, rank: usize) -> Result<()> {
        self.exhaust(rank);
        let mut spins = SPIN_ROUNDS;
        while self.done.load(Ordering::Acquire) < self.n_chunks {
            // At most one chunk gather away: spin, then park.
            if spins > 0 {
                spins -= 1;
                spin_round();
                continue;
            }
            let mut mode = self.mode.lock();
            if self.done.load(Ordering::Acquire) < self.n_chunks {
                let _ = self.cond.wait_for(&mut mode, poll_slice());
            }
        }
        if let Some(e) = self.failure.lock().clone() {
            return Err(e);
        }
        if let Some((bytes, finished)) = &self.audit {
            let bytes = bytes.load(Ordering::Acquire);
            if bytes != self.total as u64 {
                crate::invariants::violation(&format!(
                    "direct gather claimed {bytes} of {} payload bytes",
                    self.total
                ));
            }
            if let Some(k) = finished.iter().position(|c| c.load(Ordering::Acquire) != 1) {
                crate::invariants::violation(&format!(
                    "direct gather finished chunk {k} {} times",
                    finished[k].load(Ordering::Acquire)
                ));
            }
        }
        Ok(())
    }
}

/// A claimed chunk index: completes on drop, as abandoned by its rank
/// unless the gather finished.
struct Claim<'h> {
    h: &'h Handoff,
    k: u64,
    rank: usize,
    ok: bool,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.ok {
            if let Some((_, finished)) = &self.h.audit {
                finished[self.k as usize].fetch_add(1, Ordering::AcqRel);
            }
        } else {
            self.h.fail(CoreError::PeerFailed { rank: self.rank });
        }
        self.h.complete(1);
    }
}

/// The sender's end. Dropping it revokes an unanswered post, and joins a
/// gather.
pub(crate) struct SendSide<'a> {
    h: Arc<Handoff>,
    dst: Option<Dst>,
    _src: PhantomData<&'a [u8]>,
}

impl SendSide<'_> {
    /// Wait (spin, then park) for the receiver's answer: a destination to
    /// gather into, or a decline, after which there is nothing to gather.
    /// When `deadline` passes or the fabric is poisoned first, revoke the
    /// post and fail.
    pub(crate) fn await_answer(&mut self, deadline: Instant) -> Result<()> {
        let h = &self.h;
        let mut spins = SPIN_ROUNDS;
        let mut mode = h.mode.lock();
        loop {
            match *mode {
                Mode::Posted => {}
                Mode::Declined => return Ok(()),
                Mode::Direct(d) => {
                    self.dst = Some(d);
                    return Ok(());
                }
                Mode::Revoked => return Err(CoreError::deadlock("a matching receive")),
            }
            let now = Instant::now();
            let give_up = match h.sup.failed_rank() {
                Some(rank) => Some(CoreError::PeerFailed { rank }),
                None if now >= deadline => Some(CoreError::deadlock("a matching receive")),
                None => None,
            };
            if let Some(e) = give_up {
                *mode = Mode::Revoked;
                return Err(e);
            }
            if spins > 0 {
                spins -= 1;
                MutexGuard::unlocked(&mut mode, spin_round);
                continue;
            }
            let _ = h
                .cond
                .wait_for(&mut mode, (deadline - now).min(poll_slice()));
        }
    }

    /// Claim and gather the next chunk; `None` at once if declined.
    pub(crate) fn gather_next(&self) -> Option<Gathered> {
        self.h.gather_next(self.dst?, self.h.faults.rank)
    }

    /// Join the gather and return its outcome.
    pub(crate) fn finish(self) -> Result<()> {
        match self.dst {
            Some(_) => self.h.join(self.h.faults.rank),
            None => Ok(()),
        }
    }
}

impl Drop for SendSide<'_> {
    fn drop(&mut self) {
        let mut mode = self.h.mode.lock();
        match *mode {
            Mode::Posted => *mode = Mode::Revoked,
            Mode::Direct(_) => {
                drop(mode);
                let _ = self.h.join(self.h.faults.rank);
            }
            Mode::Declined | Mode::Revoked => {}
        }
    }
}

/// The receiver's end, carried by the envelope. Dropping it unanswered
/// declines it: the sender gathers nothing and learns the receive's
/// outcome from the rendezvous reply, which never comes.
pub(crate) struct Offer(Arc<Handoff>);

impl std::fmt::Debug for Offer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Offer({} B in {} chunks)", self.0.total, self.0.n_chunks)
    }
}

impl Offer {
    fn answer(&self, m: Mode) -> Result<()> {
        let mut mode = self.0.mode.lock();
        if !matches!(*mode, Mode::Posted) {
            // Only the sender's revocation gets here before an answer.
            return Err(match self.0.sup.failed_rank() {
                Some(rank) => CoreError::PeerFailed { rank },
                None => CoreError::deadlock("a sender that already gave up"),
            });
        }
        *mode = m;
        self.0.cond.notify_all();
        Ok(())
    }

    /// Packed bytes of the streamed payload.
    pub(crate) fn total(&self) -> usize {
        self.0.total
    }

    /// Whether the send took the iovec route.
    pub(crate) fn iov(&self) -> bool {
        self.0.iov
    }

    /// Whether the send's corruption fault flips a payload byte in the
    /// destination.
    pub(crate) fn corrupts(&self) -> bool {
        self.0.faults.corrupt_idx.is_some()
    }

    /// Answer with `dst`, which must hold exactly the payload: both ranks
    /// gather into it. `rank` is the receiver's world rank.
    pub(crate) fn direct(self, dst: &mut [u8], rank: usize) -> Result<RecvSide<'_>> {
        if dst.len() != self.0.total {
            return Err(CoreError::Truncate {
                incoming: self.0.total,
                capacity: dst.len(),
            });
        }
        let dst = Dst {
            ptr: dst.as_mut_ptr(),
        };
        self.answer(Mode::Direct(dst))?;
        Ok(RecvSide {
            h: Arc::clone(&self.0),
            dst,
            rank,
            _dst: PhantomData,
        })
    }
}

impl Drop for Offer {
    fn drop(&mut self) {
        let mut mode = self.0.mode.lock();
        if matches!(*mode, Mode::Posted) {
            *mode = Mode::Declined;
            self.0.cond.notify_all();
        }
    }
}

/// The receiver's end of a gather. Dropping it joins the gather.
pub(crate) struct RecvSide<'b> {
    h: Arc<Handoff>,
    dst: Dst,
    rank: usize,
    _dst: PhantomData<&'b mut [u8]>,
}

impl RecvSide<'_> {
    /// Claim and gather the next chunk.
    pub(crate) fn gather_next(&self) -> Option<Gathered> {
        self.h.gather_next(self.dst, self.rank)
    }

    /// Join the gather and return its outcome.
    pub(crate) fn finish(self) -> Result<()> {
        self.h.join(self.rank)
    }
}

impl Drop for RecvSide<'_> {
    fn drop(&mut self) {
        let _ = self.h.join(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use nonctg_datatype::Datatype;

    fn sup() -> Arc<Supervision> {
        Supervision::new(2, Duration::from_secs(5))
    }

    /// `vector(n, 1, 2)` of bytes: every other byte of a `2n`-byte source.
    fn every_other(n: usize) -> Arc<PackPlan> {
        let t = Datatype::vector(n, 1, 2, &Datatype::byte())
            .unwrap()
            .commit();
        Arc::new(PackPlan::compile(&t, 1).unwrap())
    }

    fn faults(corrupt_idx: Option<usize>) -> ChunkFaults {
        ChunkFaults {
            plan: None,
            rank: 0,
            op: 0,
            corrupt_idx,
        }
    }

    #[test]
    fn two_ranks_gather_every_chunk_once() {
        let n = 61;
        let src: Vec<u8> = (0..2 * n as u32).map(|i| i as u8).collect();
        let mut dst = vec![0u8; n];
        let (mut send, offer) = post(&src, 0, every_other(n), 4, faults(None), false, sup());
        let (sent, got) = std::thread::scope(|s| {
            let t = s.spawn(|| {
                assert_eq!(
                    send.await_answer(Instant::now() + Duration::from_secs(5)),
                    Ok(())
                );
                let mut seqs = Vec::new();
                while let Some(g) = send.gather_next() {
                    seqs.push(g);
                }
                send.finish().unwrap();
                seqs
            });
            let recv = offer.direct(&mut dst, 1).unwrap();
            let mut seqs = Vec::new();
            while let Some(g) = recv.gather_next() {
                seqs.push(g);
            }
            recv.finish().unwrap();
            (t.join().unwrap(), seqs)
        });
        let mut all: Vec<Gathered> = sent.into_iter().chain(got).collect();
        all.sort_by_key(|g| g.seq);
        assert_eq!(
            all.iter().map(|g| g.seq).collect::<Vec<_>>(),
            (0..16).collect::<Vec<_>>()
        );
        assert_eq!(all.iter().map(|g| g.bytes).sum::<usize>(), n);
        let want: Vec<u8> = src.iter().step_by(2).copied().collect();
        assert_eq!(dst, want);
    }

    #[test]
    fn corrupt_index_lands_in_its_chunk() {
        let n = 32;
        let src = vec![7u8; 2 * n];
        let mut dst = vec![0u8; n];
        let (send, offer) = post(&src, 0, every_other(n), 8, faults(Some(19)), false, sup());
        let recv = offer.direct(&mut dst, 1).unwrap();
        while recv.gather_next().is_some() {}
        recv.finish().unwrap();
        drop(send);
        assert_eq!(dst[19], 7 ^ 0xFF);
        assert_eq!(dst.iter().filter(|&&b| b == 7).count(), n - 1);
    }

    #[test]
    fn abandoned_chunks_fail_both_sides() {
        let n = 40;
        let src = vec![1u8; 2 * n];
        let mut dst = vec![0u8; n];
        let (mut send, offer) = post(&src, 0, every_other(n), 8, faults(None), false, sup());
        std::thread::scope(|s| {
            let recv = offer.direct(&mut dst, 1).unwrap();
            assert!(recv.gather_next().is_some());
            // The receiver leaves early: its guard abandons the rest.
            drop(recv);
            let t = s.spawn(move || {
                assert_eq!(
                    send.await_answer(Instant::now() + Duration::from_secs(5)),
                    Ok(())
                );
                assert_eq!(send.gather_next(), None);
                send.finish()
            });
            assert_eq!(t.join().unwrap(), Err(CoreError::PeerFailed { rank: 1 }));
        });
        assert_eq!(&dst[..8], &[1u8; 8]);
        assert_eq!(&dst[8..], &[0u8; 32]);
    }

    #[test]
    fn revoked_post_is_never_read() {
        let src = vec![3u8; 16];
        let mut dst = vec![0u8; 8];
        let (mut send, offer) = post(&src, 0, every_other(8), 4, faults(None), false, sup());
        assert!(matches!(
            send.await_answer(Instant::now()),
            Err(CoreError::Deadlock {
                waiting_for: "a matching receive",
                ..
            })
        ));
        drop(send);
        assert!(matches!(
            offer.direct(&mut dst, 1),
            Err(CoreError::Deadlock { .. })
        ));
        assert_eq!(dst, vec![0u8; 8]);
    }

    /// The staged case: a derived receive answers with an owned buffer
    /// of exactly the payload, gathers alongside the sender, then unpacks
    /// the buffer through its own plan.
    #[test]
    fn staged_gather_unpacks_into_a_derived_layout() {
        let n = 48;
        let src: Vec<u8> = (0..2 * n as u32).map(|i| i as u8).collect();
        let (mut send, offer) = post(&src, 0, every_other(n), 5, faults(None), false, sup());
        let mut staging = vec![0u8; offer.total()];
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                send.await_answer(Instant::now() + Duration::from_secs(5))?;
                while send.gather_next().is_some() {}
                send.finish()
            });
            let recv = offer.direct(&mut staging, 1).unwrap();
            while recv.gather_next().is_some() {}
            assert_eq!(recv.finish(), Ok(()));
            assert_eq!(t.join().unwrap(), Ok(()));
        });
        // Receive block j holds send bytes 4j and 4j + 2.
        let recv_t = Datatype::vector(n / 2, 2, 3, &Datatype::byte())
            .unwrap()
            .commit();
        let mut out = vec![0u8; 3 * n / 2 - 1];
        let plan = PackPlan::compile(&recv_t, 1).unwrap();
        assert_eq!(plan.unpack_from(&staging, &mut out, 0), Ok(n));
        for j in 0..n / 2 {
            assert_eq!(out[3 * j..3 * j + 2], [(4 * j) as u8, (4 * j + 2) as u8]);
        }
    }

    #[test]
    fn dropped_offer_declines() {
        let src = vec![0u8; 16];
        let (mut send, offer) = post(&src, 0, every_other(8), 4, faults(None), false, sup());
        drop(offer);
        assert_eq!(
            send.await_answer(Instant::now() + Duration::from_secs(5)),
            Ok(())
        );
        assert_eq!(send.gather_next(), None);
        assert_eq!(send.finish(), Ok(()));
    }
}
