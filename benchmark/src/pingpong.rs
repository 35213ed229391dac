//! The measurement protocol of the five ping-pong workloads.
//!
//! Two ranks are two threads of one long-lived `Universe`; buffers are
//! allocated and first-touched once, on the thread that uses them. Every
//! rep is a pair: the workload's ping-pong, timed on rank 0 from the send
//! to the zero-byte pong, then a contiguous ping-pong of the same payload,
//! timed separately — the interleaved reference `slowdown_x` divides by.
//! Rep counts are fixed by the [`Plan`], so message counts, cache counters
//! and virtual time repeat exactly.

use std::time::Instant;

use nonctg_core::selector::{selector_counters, SelectorCounters};
use nonctg_core::{Comm, CoreError, EventKind, FaultStats, TraceConfig, Universe};
use nonctg_datatype::{
    cache_stats, pack_into_uncompiled, unpack_from_uncompiled, Datatype, PlanCacheStats, TypeOracle,
};
use nonctg_schemes::{AppKernel, KernelWorkload};

use crate::gen;
use crate::spans::{Span, Spans, SLOT_PINGPONG};
use crate::spec::{Kind, Plan, DDT_BYTES, HARVEST_REPS, SPAN_MSGS, WIRE_REPS};
use crate::stats::{mix_slot, ns32, reduce, reduce_mix, Stat};

const PING: i32 = 1;
const PONG: i32 = 2;
/// Stream of the reference payload (variant `k`'s buffer is stream `k`).
const REF_STREAM: u64 = 1_000;

/// Which side holds the derived type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Derived send → contiguous receive.
    Gather,
    /// Contiguous send → derived receive.
    Scatter,
    /// Gather with a type built and committed inside every timed ping.
    Churn,
}

/// One message shape of a workload; reps cycle through the variants.
#[derive(Debug, Clone)]
pub struct Variant {
    /// What the variant is, for reports.
    pub label: String,
    /// The committed type (`None` under [`Traffic::Churn`]).
    pub dtype: Option<Datatype>,
    /// Vector count, for [`Traffic::Churn`].
    pub n: usize,
    /// Packed bytes per message.
    pub payload: usize,
    /// Bytes of the derived-side buffer.
    pub extent: usize,
}

/// Everything generated from the seed that a run sends.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which side holds the derived type.
    pub traffic: Traffic,
    /// The message shapes, in an order the seed does not touch: buffers are
    /// allocated in it, and the allocator's behaviour (so `peak_rss_mb`)
    /// must not depend on the seed.
    pub variants: Vec<Variant>,
    /// The seeded order of a round: rep `i` sends `variants[order[i % len]]`.
    pub order: Vec<usize>,
    /// The seed buffer contents derive from.
    pub seed: u64,
}

/// `vector(n,1,2,f64)`: every other element of `2n`.
pub fn every_other(n: usize) -> Result<Datatype, CoreError> {
    Ok(Datatype::vector(n, 1, 2, &Datatype::f64())?)
}

fn vector_variant(n: usize, dtype: Option<Datatype>) -> Variant {
    Variant {
        label: format!("vector({n},1,2,f64)"),
        dtype,
        n,
        payload: n * 8,
        extent: n * 16,
    }
}

impl Inputs {
    /// Build (and commit) the types of `kind` for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Result<Inputs, CoreError> {
        let kernels = || {
            AppKernel::ALL
                .into_iter()
                .map(|k| {
                    let w = KernelWorkload::sized(k, DDT_BYTES);
                    Variant {
                        label: k.key().to_string(),
                        dtype: Some(w.dtype),
                        n: 0,
                        payload: w.msg_bytes,
                        extent: w.extent,
                    }
                })
                .collect()
        };
        let kernel_order = || {
            let at = |k| {
                AppKernel::ALL
                    .iter()
                    .position(|a| *a == k)
                    .expect("a kernel of ALL")
            };
            gen::kernel_order(seed).into_iter().map(at).collect()
        };
        let (traffic, variants, order) = match kind {
            Kind::Vector { n } => return Inputs::vectors(&[n], seed),
            Kind::DdtGather => (Traffic::Gather, kernels(), kernel_order()),
            Kind::DdtScatter => (Traffic::Scatter, kernels(), kernel_order()),
            Kind::TypeChurn => (
                Traffic::Churn,
                gen::CHURN_COUNTS.map(|n| vector_variant(n, None)).collect(),
                gen::churn_counts(seed)
                    .into_iter()
                    .map(|n| n - gen::CHURN_COUNTS.start())
                    .collect(),
            ),
            Kind::PaperSweep => unreachable!("paper_sweep is not a ping-pong workload"),
        };
        Ok(Inputs {
            traffic,
            variants,
            order,
            seed,
        })
    }

    /// Gather traffic over `vector(n,1,2,f64)` for each `n`.
    pub fn vectors(ns: &[usize], seed: u64) -> Result<Inputs, CoreError> {
        let variants = ns
            .iter()
            .map(|&n| Ok(vector_variant(n, Some(every_other(n)?.commit()))))
            .collect::<Result<_, CoreError>>()?;
        Ok(Inputs {
            traffic: Traffic::Gather,
            variants,
            order: (0..ns.len()).collect(),
            seed,
        })
    }

    fn max_payload(&self) -> usize {
        self.variants.iter().map(|v| v.payload).max().unwrap_or(0)
    }

    /// Buffer a variant uses: churn shares one, sized for the largest count.
    fn slot(&self, k: usize) -> usize {
        if self.traffic == Traffic::Churn {
            0
        } else {
            k
        }
    }

    fn slots(&self) -> usize {
        if self.traffic == Traffic::Churn {
            1
        } else {
            self.variants.len()
        }
    }

    /// Bytes of the derived-side buffer behind `slot`.
    fn slot_extent(&self, slot: usize) -> usize {
        if self.traffic == Traffic::Churn {
            self.variants.iter().map(|v| v.extent).max().unwrap_or(0)
        } else {
            self.variants[slot].extent
        }
    }

    /// Bytes of the buffer rank 0 sends `slot` from.
    fn source_len(&self, slot: usize) -> usize {
        if self.traffic == Traffic::Scatter {
            self.variants[slot].payload
        } else {
            self.slot_extent(slot)
        }
    }

    /// The type whose oracle answers for `slot` (churn: the largest count,
    /// whose packed bytes every smaller count is a prefix of).
    fn slot_type(&self, slot: usize) -> Result<Datatype, CoreError> {
        Ok(match &self.variants[slot].dtype {
            Some(t) => t.clone(),
            None => every_other(self.slot_extent(slot) / 16)?.commit(),
        })
    }
}

/// Packed bytes a correct gather of `dtype` from `src` delivers: the naive
/// typemap oracle, or — past its 65 536-entry cap — the uncompiled
/// interpreter, which shares no code with the compiled plans and kernels.
pub fn expected_gather(dtype: &Datatype, src: &[u8]) -> Result<Vec<u8>, CoreError> {
    if let Some(out) = TypeOracle::build(dtype).and_then(|o| o.pack(src, 0, 1)) {
        return Ok(out);
    }
    let mut out = vec![0u8; dtype.size() as usize];
    pack_into_uncompiled(src, 0, dtype, 1, &mut out)?;
    Ok(out)
}

/// The `extent`-byte buffer a correct scatter of `packed` leaves behind,
/// starting from zeros; oracle choice as in [`expected_gather`].
pub fn expected_scatter(
    dtype: &Datatype,
    packed: &[u8],
    extent: usize,
) -> Result<Vec<u8>, CoreError> {
    let mut out = vec![0u8; extent];
    let by_oracle = TypeOracle::build(dtype).and_then(|o| o.unpack(packed, &mut out, 0, 1));
    if by_oracle.is_none() {
        out.fill(0);
        unpack_from_uncompiled(packed, dtype, 1, &mut out, 0)?;
    }
    Ok(out)
}

/// One block of timed reps, reduced.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// The workload's ping-pongs.
    pub work: Stat,
    /// The interleaved contiguous reference ping-pongs.
    pub reference: Stat,
    /// Payload bytes of the workload's pings.
    pub bytes: u64,
    /// `work.p50 / reference.p50`, or the workload's own ratio.
    pub slowdown: f64,
    /// Mean virtual seconds per workload ping-pong (`Comm::wtime` deltas).
    pub virt_mean: f64,
    /// FNV-1a digest of the bits of every virtual delta, in order.
    pub virt_digest: u64,
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix one word in.
    #[inline]
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What the traced pass adds.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The traced block.
    pub block: Block,
    /// Wall inside `Comm::send` of the ping, on rank 0.
    pub send_call: Stat,
    /// Wall inside `Comm::recv` of the ping, on rank 1 (waits for the sender).
    pub recv_call: Stat,
    /// Zero-byte contiguous ping-pongs in the same universe.
    pub wire: Stat,
    /// Ping-pongs of the count harvest.
    pub harvest_reps: usize,
    /// `TraceEvent`s by `EventKind` discriminant, both ranks, over the harvest.
    pub events: [u64; EventKind::COUNT],
    /// `Send` operations the library's metrics counted over the harvest.
    pub lib_sends: u64,
    /// Payload bytes of those sends.
    pub lib_send_bytes: u64,
    /// The spans of both ranks.
    pub spans: Vec<Span>,
}

/// The result of one run of a ping-pong workload.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Wall from before the types are built to the end of the warm-up.
    pub setup_s: f64,
    /// The untraced timed blocks.
    pub blocks: Vec<Block>,
    /// Workload samples of all blocks, kept only where a block is too short
    /// for its own 90th percentile.
    pub pooled: Vec<u32>,
    /// Ping-pongs run (workload and reference, warm-up and checks too).
    pub attempted: u64,
    /// Ping-pongs whose received bytes differed from the oracle's.
    pub failed: u64,
    /// Plan-cache and normalisation counters over the untraced blocks.
    pub cache: PlanCacheStats,
    /// Selector decisions over the untraced blocks.
    pub selector: SelectorCounters,
    /// Fault counters of both ranks at exit.
    pub faults: FaultStats,
    /// Present in the traced pass.
    pub traced: Option<Traced>,
}

enum Seg {
    Warm(usize),
    Block(usize),
    Check,
    Traced(usize),
    Wire(usize),
    Harvest(usize),
}

fn schedule(plan: &Plan) -> Vec<Seg> {
    let mut s = vec![Seg::Warm(plan.warm_reps)];
    for _ in 0..plan.blocks {
        s.extend([Seg::Block(plan.block_reps), Seg::Check]);
    }
    if plan.trace {
        s.extend([
            Seg::Traced(plan.block_reps),
            Seg::Check,
            Seg::Wire(WIRE_REPS),
            Seg::Harvest(HARVEST_REPS),
        ]);
    }
    s
}

/// What a rank hands back; each side fills its own fields.
#[derive(Default)]
struct RankOut {
    setup_s: f64,
    blocks: Vec<Block>,
    pooled: Vec<u32>,
    traced_block: Option<Block>,
    call: Option<Stat>,
    wire: Option<Stat>,
    attempted: u64,
    failed: u64,
    cache: PlanCacheStats,
    selector: SelectorCounters,
    faults: FaultStats,
    events: [u64; EventKind::COUNT],
    lib_sends: u64,
    lib_send_bytes: u64,
    spans: Vec<Span>,
}

fn harvest_on(comm: &mut Comm) {
    comm.enable_trace_with(TraceConfig {
        capacity: 1 << 16,
        sample: 1,
    });
    comm.enable_metrics();
}

fn harvest_off(comm: &mut Comm, out: &mut RankOut) {
    for ev in comm.take_trace() {
        out.events[ev.kind as usize] += 1;
    }
    if let Some(m) = comm.take_metrics() {
        out.lib_sends = m.ops_of(EventKind::Send);
        out.lib_send_bytes = m.bytes_of(EventKind::Send);
    }
}

// ---------------------------------------------------------------- rank 0

struct Sender<'a> {
    inp: &'a Inputs,
    bufs: Vec<Vec<u8>>,
    ref_src: Vec<u8>,
}

impl Sender<'_> {
    /// The workload's ping-pong for variant `k`. With `marks`, notes the
    /// instants after the type is ready, after `Comm::send` and after the
    /// pong.
    #[inline]
    fn ping(
        &self,
        comm: &mut Comm,
        k: usize,
        marks: Option<&mut [Instant; 3]>,
    ) -> Result<(), CoreError> {
        let v = &self.inp.variants[k];
        let buf = &self.bufs[self.inp.slot(k)];
        let fresh;
        let dtype = match &v.dtype {
            Some(t) => t,
            None => {
                fresh = every_other(v.n)?.commit();
                &fresh
            }
        };
        let ready = marks.is_some().then(Instant::now);
        match self.inp.traffic {
            Traffic::Gather | Traffic::Churn => comm.send(buf, 0, dtype, 1, 1, PING)?,
            Traffic::Scatter => comm.send_bytes(buf, 1, PING)?,
        }
        let sent = marks.is_some().then(Instant::now);
        comm.recv_bytes(&mut [], Some(1), Some(PONG))?;
        if let (Some(m), Some(ready), Some(sent)) = (marks, ready, sent) {
            *m = [ready, sent, Instant::now()];
        }
        Ok(())
    }

    #[inline]
    fn ref_ping(&self, comm: &mut Comm, k: usize) -> Result<(), CoreError> {
        comm.send_bytes(&self.ref_src[..self.inp.variants[k].payload], 1, PING)?;
        comm.recv_bytes(&mut [], Some(1), Some(PONG))?;
        Ok(())
    }
}

fn rank0(
    comm: &mut Comm,
    inp: &Inputs,
    plan: &Plan,
    t_setup: Instant,
    epoch: Instant,
) -> Result<RankOut, CoreError> {
    let nv = inp.order.len();
    let at = |i: usize| inp.order[i % nv];
    let mut tx = Sender {
        inp,
        bufs: Vec::new(),
        ref_src: vec![0u8; inp.max_payload()],
    };
    for slot in 0..inp.slots() {
        let mut b = vec![0u8; inp.source_len(slot)];
        gen::fill(&mut b, inp.seed, slot as u64);
        tx.bufs.push(b);
    }
    gen::fill(&mut tx.ref_src, inp.seed, REF_STREAM);
    if inp.traffic == Traffic::Gather {
        for v in &inp.variants {
            comm.pack_prepare(v.dtype.as_ref().expect("gather variants carry a type"), 1);
        }
    }

    let mut out = RankOut::default();
    let mut work = vec![0u32; plan.block_reps];
    let mut refs = vec![0u32; plan.block_reps];
    let pool = plan.block_reps < 100;
    if pool {
        out.pooled.reserve_exact(plan.blocks * plan.block_reps);
    }
    let mut sends = vec![0u32; if plan.trace { plan.block_reps } else { 0 }];
    let mut spans = Spans::new(epoch, 0, if plan.trace { 3 * SPAN_MSGS } else { 0 });
    let (mut cache0, mut sel0) = (cache_stats(), selector_counters());
    let mut i = 0usize;

    for seg in schedule(plan) {
        match seg {
            Seg::Warm(n) => {
                for _ in 0..n {
                    tx.ping(comm, at(i), None)?;
                    tx.ref_ping(comm, at(i))?;
                    i += 1;
                }
                out.attempted += 2 * n as u64;
                out.setup_s = t_setup.elapsed().as_secs_f64();
                (cache0, sel0) = (cache_stats(), selector_counters());
            }
            Seg::Check => {
                tx.ping(comm, at(i), None)?;
                tx.ref_ping(comm, at(i))?;
                i += 1;
                out.attempted += 2;
            }
            Seg::Block(n) | Seg::Traced(n) => {
                let traced = matches!(seg, Seg::Traced(_));
                let (mut bytes, mut virt, mut digest) = (0u64, 0.0f64, Digest::default());
                for j in 0..n {
                    let (k, slot) = (at(i), mix_slot(j, n, nv));
                    let v0 = comm.wtime();
                    let t0 = Instant::now();
                    let t1 = if traced {
                        let mut m = [t0; 3];
                        tx.ping(comm, k, Some(&mut m))?;
                        sends[slot] = ns32(m[1] - m[0]);
                        if j < SPAN_MSGS {
                            spans.message("pingpong", i, SLOT_PINGPONG, t0, m[2]);
                            spans.message("Comm::send", i, 1, m[0], m[1]);
                            spans.message("Comm::recv(pong)", i, 2, m[1], m[2]);
                        }
                        m[2]
                    } else {
                        tx.ping(comm, k, None)?;
                        Instant::now()
                    };
                    let dv = comm.wtime() - v0;
                    tx.ref_ping(comm, k)?;
                    let t2 = Instant::now();
                    work[slot] = ns32(t1 - t0);
                    refs[slot] = ns32(t2 - t1);
                    bytes += inp.variants[k].payload as u64;
                    virt += dv;
                    digest.push(dv.to_bits());
                    i += 1;
                }
                out.attempted += 2 * n as u64;
                if pool && !traced {
                    out.pooled.extend_from_slice(&work);
                }
                let (w, r) = (reduce_mix(&mut work, nv), reduce_mix(&mut refs, nv));
                let block = Block {
                    work: w,
                    reference: r,
                    bytes,
                    slowdown: w.p50 / r.p50,
                    virt_mean: virt / n as f64,
                    virt_digest: digest.0,
                };
                if traced {
                    out.traced_block = Some(block);
                    out.call = Some(reduce_mix(&mut sends, nv));
                } else {
                    out.blocks.push(block);
                    out.cache = cache_stats().delta_since(cache0);
                    out.selector = selector_counters().delta_since(&sel0);
                }
            }
            Seg::Wire(n) => {
                let mut wire = vec![0u32; n];
                for w in &mut wire {
                    let t0 = Instant::now();
                    comm.send_bytes(&[], 1, PING)?;
                    comm.recv_bytes(&mut [], Some(1), Some(PONG))?;
                    *w = ns32(t0.elapsed());
                }
                out.wire = Some(reduce(&mut wire));
            }
            Seg::Harvest(n) => {
                harvest_on(comm);
                for _ in 0..n {
                    tx.ping(comm, at(i), None)?;
                    i += 1;
                }
                harvest_off(comm, &mut out);
                out.attempted += n as u64;
            }
        }
    }
    out.faults = comm.fault_stats();
    out.spans = spans.v;
    Ok(out)
}

// ---------------------------------------------------------------- rank 1

struct Receiver<'a> {
    inp: &'a Inputs,
    dst: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    ref_dst: Vec<u8>,
}

impl Receiver<'_> {
    /// Where variant `k` lands and what must be there afterwards.
    fn target(&mut self, k: usize) -> (&mut [u8], &[u8]) {
        let (slot, v) = (self.inp.slot(k), &self.inp.variants[k]);
        match self.inp.traffic {
            Traffic::Scatter => (&mut self.dst[slot][..], &self.expected[slot][..]),
            _ => (
                &mut self.dst[0][..v.payload],
                &self.expected[slot][..v.payload],
            ),
        }
    }

    /// Receive the workload's ping of variant `k` and answer it. With
    /// `check`, the target is zeroed first and compared with the oracle's
    /// bytes afterwards; returns whether it matched.
    #[inline]
    fn pong(
        &mut self,
        comm: &mut Comm,
        k: usize,
        check: bool,
        mark: Option<&mut Instant>,
    ) -> Result<bool, CoreError> {
        let inp = self.inp;
        let (dst, expected) = self.target(k);
        if check {
            dst.fill(0);
        }
        match (inp.traffic, &inp.variants[k].dtype) {
            (Traffic::Scatter, Some(t)) => comm.recv(dst, 0, t, 1, Some(0), Some(PING))?,
            _ => comm.recv_bytes(dst, Some(0), Some(PING))?,
        };
        if let Some(m) = mark {
            *m = Instant::now();
        }
        let ok = !check || dst == expected;
        comm.send_bytes(&[], 0, PONG)?;
        Ok(ok)
    }

    #[inline]
    fn ref_pong(&mut self, comm: &mut Comm, k: usize, check: bool) -> Result<bool, CoreError> {
        let dst = &mut self.ref_dst[..self.inp.variants[k].payload];
        if check {
            dst.fill(0);
        }
        comm.recv_bytes(dst, Some(0), Some(PING))?;
        let ok = !check || gen::matches(dst, self.inp.seed, REF_STREAM);
        comm.send_bytes(&[], 0, PONG)?;
        Ok(ok)
    }
}

fn rank1(comm: &mut Comm, inp: &Inputs, plan: &Plan, epoch: Instant) -> Result<RankOut, CoreError> {
    let nv = inp.order.len();
    let at = |i: usize| inp.order[i % nv];
    let mut rx = Receiver {
        inp,
        dst: Vec::new(),
        expected: Vec::new(),
        ref_dst: vec![0u8; inp.max_payload()],
    };
    // Regenerate what rank 0 sends from the seed and ask the oracle what
    // must arrive. One scratch buffer, kept to the end of the run: freed
    // here, it would race rank 0's allocations and `peak_rss_mb` would
    // depend on who won (it moved `ddt_gather_1m` by 20%).
    let scratch_len = (0..inp.slots())
        .map(|s| inp.source_len(s))
        .max()
        .unwrap_or(0);
    let mut scratch = vec![0u8; scratch_len];
    for slot in 0..inp.slots() {
        let dtype = inp.slot_type(slot)?;
        let sent = &mut scratch[..inp.source_len(slot)];
        gen::fill(sent, inp.seed, slot as u64);
        if inp.traffic == Traffic::Scatter {
            let extent = inp.slot_extent(slot);
            rx.expected.push(expected_scatter(&dtype, sent, extent)?);
            rx.dst.push(vec![0u8; extent]);
            comm.pack_prepare(&dtype, 1);
        } else {
            rx.expected.push(expected_gather(&dtype, sent)?);
        }
    }
    if inp.traffic != Traffic::Scatter {
        rx.dst.push(vec![0u8; inp.max_payload()]);
    }

    let mut out = RankOut::default();
    let mut recvs = vec![0u32; if plan.trace { plan.block_reps } else { 0 }];
    let mut spans = Spans::new(epoch, 1, if plan.trace { 2 * SPAN_MSGS } else { 0 });
    let mut i = 0usize;
    for seg in schedule(plan) {
        match seg {
            Seg::Warm(n) => {
                for _ in 0..n {
                    out.failed += !rx.pong(comm, at(i), true, None)? as u64;
                    out.failed += !rx.ref_pong(comm, at(i), true)? as u64;
                    i += 1;
                }
            }
            Seg::Check => {
                out.failed += !rx.pong(comm, at(i), true, None)? as u64;
                out.failed += !rx.ref_pong(comm, at(i), true)? as u64;
                i += 1;
            }
            Seg::Block(n) => {
                for _ in 0..n {
                    rx.pong(comm, at(i), false, None)?;
                    rx.ref_pong(comm, at(i), false)?;
                    i += 1;
                }
            }
            Seg::Traced(n) => {
                for j in 0..n {
                    let t0 = Instant::now();
                    let mut t1 = t0;
                    rx.pong(comm, at(i), false, Some(&mut t1))?;
                    recvs[mix_slot(j, n, nv)] = ns32(t1 - t0);
                    if spans.v.len() + 2 <= spans.v.capacity() {
                        spans.message("Comm::recv", i, 3, t0, t1);
                        spans.message("Comm::send(pong)", i, 4, t1, Instant::now());
                    }
                    rx.ref_pong(comm, at(i), false)?;
                    i += 1;
                }
                out.call = Some(reduce_mix(&mut recvs, nv));
            }
            Seg::Wire(n) => {
                for _ in 0..n {
                    comm.recv_bytes(&mut [], Some(0), Some(PING))?;
                    comm.send_bytes(&[], 0, PONG)?;
                }
            }
            Seg::Harvest(n) => {
                harvest_on(comm);
                for _ in 0..n {
                    rx.pong(comm, at(i), false, None)?;
                    i += 1;
                }
                harvest_off(comm, &mut out);
            }
        }
    }
    out.faults = comm.fault_stats();
    out.spans = spans.v;
    drop(scratch);
    Ok(out)
}

/// Run one ping-pong workload once: set-up, warm-up, the plan's blocks.
pub fn run(kind: Kind, seed: u64, plan: &Plan, epoch: Instant) -> Result<Measured, CoreError> {
    let t_setup = Instant::now();
    let inp = Inputs::new(kind, seed)?;
    run_inputs(&inp, plan, t_setup, epoch)
}

/// [`run`] on inputs already built; `t_setup` is when building them began.
pub fn run_inputs(
    inp: &Inputs,
    plan: &Plan,
    t_setup: Instant,
    epoch: Instant,
) -> Result<Measured, CoreError> {
    let mut outs = Universe::run_supervised(crate::spec::platform(), 2, |comm| {
        if comm.rank() == 0 {
            rank0(comm, inp, plan, t_setup, epoch)
        } else {
            rank1(comm, inp, plan, epoch)
        }
    })
    .into_iter();
    let (r0, r1) = (outs.next().expect("rank 0"), outs.next().expect("rank 1"));
    // A failed rank poisons its peer; report the cause, not the echo.
    let (r0, r1) = match (r0, r1) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(CoreError::PeerFailed { .. }), Err(e)) | (Err(e), _) | (_, Err(e)) => return Err(e),
    };
    let mut faults = r0.faults;
    faults.absorb(r1.faults);
    let traced = match (r0.traced_block, r0.call, r1.call, r0.wire) {
        (Some(block), Some(send_call), Some(recv_call), Some(wire)) => {
            let mut events = r0.events;
            events.iter_mut().zip(r1.events).for_each(|(a, b)| *a += b);
            let mut spans = r0.spans;
            spans.extend(r1.spans);
            Some(Traced {
                block,
                send_call,
                recv_call,
                wire,
                harvest_reps: HARVEST_REPS,
                events,
                lib_sends: r0.lib_sends + r1.lib_sends,
                lib_send_bytes: r0.lib_send_bytes + r1.lib_send_bytes,
                spans,
            })
        }
        _ => None,
    };
    Ok(Measured {
        setup_s: r0.setup_s,
        blocks: r0.blocks,
        pooled: r0.pooled,
        attempted: r0.attempted,
        failed: r0.failed + r1.failed,
        cache: r0.cache,
        selector: r0.selector,
        faults,
        traced,
    })
}
