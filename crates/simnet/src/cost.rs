//! The cost model: how long each memory and network operation takes.
//!
//! This encodes the paper's §2 cost analysis as executable arithmetic:
//!
//! * a contiguous send streams memory into the NIC with near-full overlap
//!   (proportionality constant ~1);
//! * a gather copy reads more bytes than it writes (stride amplification)
//!   and must *finish* before the send starts (constant ~2-3);
//! * derived-type sends stage through MPI's internal buffer, whose
//!   bookkeeping degrades beyond a few tens of MB (§4.1);
//! * `MPI_Pack` costs the same as a user copy loop (§4.3);
//! * one-sided transfers replace the handshake with heavyweight fence
//!   synchronization (§4.4).

use nonctg_datatype::{strided_form, Datatype};

use crate::platform::Platform;

/// Fraction of a full MPI-call overhead paid per posted iovec region
/// descriptor (building one scatter/gather table entry and ringing the
/// doorbell is much cheaper than a whole library call).
const IOV_REGION_CALL_FRACTION: f64 = 0.25;

/// How a datatype walks user memory, as seen by the memory subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    /// One dense run.
    Contiguous,
    /// Regular blocks of `blocklen` bytes every `stride` bytes.
    Strided {
        /// Bytes per block.
        blocklen: u64,
        /// Bytes between block starts.
        stride: u64,
    },
    /// Irregular blocks averaging `avg_blocklen` bytes, defeating the
    /// hardware prefetchers.
    Irregular {
        /// Mean block length in bytes.
        avg_blocklen: f64,
    },
}

impl Access {
    /// Classify a datatype by inspecting its structure.
    pub fn classify(dtype: &Datatype) -> Access {
        if dtype.is_dense() {
            return Access::Contiguous;
        }
        if let Some(s) = strided_form(dtype) {
            if s.nblocks <= 1 {
                return Access::Contiguous;
            }
            return Access::Strided { blocklen: s.block_len, stride: s.stride.unsigned_abs() };
        }
        let nseg = dtype.seg_count_hint().max(1);
        Access::Irregular { avg_blocklen: dtype.size() as f64 / nseg as f64 }
    }

    /// Bytes of memory traffic read per payload byte gathered.
    ///
    /// * stride within a cache line: the whole stride region is swept;
    /// * stride beyond a line: whole lines are fetched per block;
    /// * irregular: like strided at line granularity, with a prefetch
    ///   inefficiency applied separately.
    pub fn read_amplification(&self, cacheline: u64) -> f64 {
        match *self {
            Access::Contiguous => 1.0,
            Access::Strided { blocklen, stride } => {
                if blocklen == 0 {
                    return 1.0;
                }
                if stride <= blocklen {
                    1.0
                } else if stride <= cacheline {
                    stride as f64 / blocklen as f64
                } else {
                    // Average lines touched per block, assuming random
                    // alignment: bl/line full lines plus one straddle.
                    let lines = (blocklen as f64 / cacheline as f64).ceil() + 0.5;
                    (lines * cacheline as f64 / blocklen as f64).max(1.0)
                }
            }
            Access::Irregular { avg_blocklen } => {
                let bl = avg_blocklen.max(1.0);
                let lines = (bl / cacheline as f64).ceil() + 0.5;
                (lines * cacheline as f64 / bl).max(1.0)
            }
        }
    }

    /// Extra multiplier (>= 1) on gather time for prefetch-hostile access.
    fn prefetch_penalty(&self, p: &Platform) -> f64 {
        match self {
            Access::Irregular { .. } => 1.0 / p.mem.irregular_prefetch_eff,
            _ => 1.0,
        }
    }
}

/// Sender-side completion and receiver-side availability are both derived
/// from these primitive costs; the runtime composes them per protocol.
impl Platform {
    /// Time for a user-space (or equally, MPI-internal) gather of `payload`
    /// bytes laid out per `access` into a contiguous buffer.
    ///
    /// `warm` selects the cache-resident read path (no flush between
    /// iterations and the working set fits in LLC).
    pub fn gather_time(&self, payload: u64, access: &Access, warm: bool) -> f64 {
        if payload == 0 {
            return 0.0;
        }
        let amp = access.read_amplification(self.mem.cacheline);
        let working_set = payload as f64 * amp;
        let warm_hit = warm && working_set <= self.mem.cache_size as f64;
        let read_cost = if warm_hit { amp / self.mem.warm_speedup } else { amp };
        // copy_bw is payload bandwidth of a 1:1 copy (2 traffic units).
        let traffic_units = read_cost + 1.0;
        payload as f64 * traffic_units / (2.0 * self.mem.copy_bw)
            * access.prefetch_penalty(self)
    }

    /// Scatter (unpack) cost — symmetric to [`Self::gather_time`] with the
    /// amplification on the write side.
    pub fn scatter_time(&self, payload: u64, access: &Access, warm: bool) -> f64 {
        // Write-allocate makes strided writes read the lines too; the same
        // amplification arithmetic applies.
        self.gather_time(payload, access, warm)
    }

    /// Cost of one `MPI_Pack`/`MPI_Unpack` *call* moving `payload` bytes:
    /// fixed call overhead plus a gather exactly as efficient as a user
    /// copy loop (paper §4.3).
    pub fn pack_call_time(&self, payload: u64, access: &Access, warm: bool) -> f64 {
        self.cpu.per_call_overhead + self.gather_time(payload, access, warm)
    }

    /// The eager/rendezvous switch point for a message; `packed` applies
    /// the Cray `MPI_PACKED` quirk (paper §4.5).
    pub fn eager_threshold(&self, packed: bool) -> u64 {
        if packed {
            (self.proto.eager_limit as f64 * self.proto.packed_eager_factor) as u64
        } else {
            self.proto.eager_limit
        }
    }

    /// Per-message sender software overhead for the chosen protocol.
    pub fn send_overhead(&self, eager: bool) -> f64 {
        if eager {
            self.proto.eager_overhead
        } else {
            self.proto.eager_overhead + self.proto.rndv_extra
        }
    }

    /// Pure wire time of `bytes` at the given bandwidth efficiency.
    pub fn wire_time(&self, bytes: u64, bw_factor: f64) -> f64 {
        bytes as f64 / (self.net.bw * bw_factor)
    }

    /// Injection time of a *contiguous* user buffer: the NIC streams reads
    /// and wire writes with `pipeline_eff` overlap, so the memory side
    /// mostly hides behind the wire (proportionality ~1, paper §2.1).
    pub fn contiguous_injection(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        // The DMA engine streams host memory independently of the scalar
        // core (KNL keeps its network peak despite weak cores, §4.8).
        let bottleneck = self.net.bw.min(self.net.dma_read_bw);
        bytes as f64 / bottleneck / self.net.pipeline_eff
    }

    /// Internal staging cost of sending a derived type directly: MPI
    /// gathers into its own buffer; beyond `internal_buffer` the transfer
    /// is chunked and the buffer bookkeeping degrades (paper §4.1).
    pub fn staging_time(&self, bytes: u64, access: &Access, warm: bool) -> f64 {
        let base = self.gather_time(bytes, access, warm);
        if bytes <= self.proto.internal_buffer {
            base
        } else {
            let chunks = bytes.div_ceil(self.proto.chunk_size.max(1));
            base * self.proto.large_degradation + chunks as f64 * self.proto.chunk_overhead
        }
    }

    /// Sender-side software cost of posting an iovec (region-list) send:
    /// building one DMA descriptor per region is a fraction of a full
    /// library call, paid on top of the usual protocol overhead. `subline`
    /// of the `nregions` descriptors cover less than one cache line.
    /// Sub-line regions fall off the NIC's batched descriptor fast path
    /// (the doorbell coalescer only chains line-aligned gather entries),
    /// so each costs a **full** per-call overhead instead of the batched
    /// [`IOV_REGION_CALL_FRACTION`].
    pub fn iov_overhead_shaped(&self, nregions: u64, subline: u64) -> f64 {
        let subline = subline.min(nregions);
        let batched = (nregions - subline) as f64 * IOV_REGION_CALL_FRACTION;
        self.cpu.per_call_overhead * (batched + subline as f64)
    }

    /// Wire time of an iovec send: the NIC DMA-gathers the user regions
    /// directly (no staging copy), but every region restarts the DMA read
    /// stream, costing roughly one cache line of dead read time — short
    /// regions therefore erode the zero-copy advantage.
    pub fn iov_wire_time(&self, bytes: u64, nregions: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let bottleneck = self.net.bw.min(self.net.dma_read_bw);
        let restart = nregions as f64 * self.mem.cacheline as f64 / self.net.dma_read_bw;
        bytes as f64 / bottleneck / self.net.pipeline_eff + restart
    }

    /// Receiver-side cost of scattering an iovec payload straight into
    /// the user regions: write-only placement (one traffic unit, not a
    /// copy's two) plus the same per-region descriptor bookkeeping as the
    /// sender. Like [`Self::iov_overhead_shaped`], each of the `subline`
    /// under-one-cacheline regions pays a full per-call overhead for its
    /// scatter descriptor instead of the batched fraction.
    pub fn iov_scatter_time_shaped(
        &self,
        bytes: u64,
        nregions: u64,
        subline: u64,
        warm: bool,
    ) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let bw = if warm && (bytes as f64) <= self.mem.cache_size as f64 {
            self.mem.copy_bw * self.mem.warm_speedup
        } else {
            self.mem.copy_bw
        };
        let subline = subline.min(nregions);
        let batched = (nregions - subline) as f64 * IOV_REGION_CALL_FRACTION;
        bytes as f64 / (2.0 * bw) + self.cpu.per_call_overhead * (batched + subline as f64)
    }

    /// Additional cost `MPI_Bsend` pays on top of a regular send of the
    /// staged data: buffer accounting plus (on the modeled MPIs) one more
    /// internal contiguous copy (paper §4.2: Bsend is *worse*).
    pub fn bsend_extra(&self, bytes: u64) -> f64 {
        let copy = if self.proto.bsend_extra_copy {
            bytes as f64 / self.mem.copy_bw
        } else {
            0.0
        };
        self.proto.bsend_overhead + copy
    }

    /// Cost of one `Win_fence` epoch boundary among `nranks` ranks.
    pub fn fence_time(&self, nranks: usize) -> f64 {
        let rounds = (nranks.max(2) as f64).log2().ceil().max(1.0);
        self.rma.fence_overhead * rounds
    }

    /// Transfer time of a put of `bytes` with user layout `access`:
    /// origin-side gather staging plus wire at RMA efficiency, with the
    /// platform's large-message RMA penalty.
    pub fn put_transfer_time(&self, bytes: u64, access: &Access, warm: bool) -> f64 {
        let gather = match access {
            Access::Contiguous => 0.0, // contiguous puts DMA directly
            other => self.gather_time(bytes, other, warm),
        };
        let mut wire = self.wire_time(bytes, self.rma.bw_factor);
        if bytes > self.proto.internal_buffer {
            wire *= self.rma.large_penalty;
            let chunks = bytes.div_ceil(self.proto.chunk_size.max(1));
            wire += chunks as f64 * self.proto.chunk_overhead;
        }
        self.rma.put_overhead + gather + wire
    }

    /// Time for the cache-flushing rewrite the harness performs between
    /// ping-pongs (outside the timed region, but it advances the clock).
    pub fn flush_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mem.copy_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonctg_datatype::ArrayOrder;

    fn skx() -> Platform {
        Platform::skx_impi()
    }

    #[test]
    fn classify_contiguous() {
        let d = Datatype::contiguous(100, &Datatype::f64()).unwrap();
        assert_eq!(Access::classify(&d), Access::Contiguous);
    }

    #[test]
    fn classify_vector() {
        let d = Datatype::vector(100, 1, 2, &Datatype::f64()).unwrap();
        assert_eq!(Access::classify(&d), Access::Strided { blocklen: 8, stride: 16 });
    }

    #[test]
    fn classify_subarray_as_strided() {
        let d = Datatype::subarray(&[64, 64], &[64, 32], &[0, 0], ArrayOrder::C, &Datatype::f64())
            .unwrap();
        assert_eq!(Access::classify(&d), Access::Strided { blocklen: 32 * 8, stride: 64 * 8 });
    }

    #[test]
    fn classify_indexed_as_irregular() {
        let d = Datatype::indexed(&[(1, 0), (1, 7), (1, 23)], &Datatype::f64()).unwrap();
        match Access::classify(&d) {
            Access::Irregular { avg_blocklen } => assert!((avg_blocklen - 8.0).abs() < 1e-9),
            other => panic!("expected irregular, got {other:?}"),
        }
    }

    #[test]
    fn stride_two_amplifies_reads_by_two() {
        let a = Access::Strided { blocklen: 8, stride: 16 };
        assert!((a.read_amplification(64) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn large_stride_costs_whole_lines() {
        let a = Access::Strided { blocklen: 8, stride: 4096 };
        // ceil(8/64)+0.5 = 1.5 lines -> 96/8 = 12x amplification
        assert!((a.read_amplification(64) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn wide_blocks_amortize_amplification() {
        let narrow = Access::Strided { blocklen: 8, stride: 4096 };
        let wide = Access::Strided { blocklen: 2048, stride: 4096 };
        assert!(
            wide.read_amplification(64) < narrow.read_amplification(64) / 5.0,
            "paper §4.7: larger blocks use cache lines better"
        );
    }

    #[test]
    fn gather_slower_than_contiguous_wire() {
        // The heart of the paper: gather+send ~2-3x the contiguous send.
        let p = skx();
        let bytes = 1u64 << 24;
        let access = Access::Strided { blocklen: 8, stride: 16 };
        let copy = p.gather_time(bytes, &access, false);
        let wire = p.contiguous_injection(bytes);
        let slowdown = (copy + wire) / wire;
        assert!(
            (2.0..4.0).contains(&slowdown),
            "slowdown {slowdown} outside the paper's 2-3x band"
        );
    }

    #[test]
    fn warm_cache_helps_intermediate_sizes() {
        let p = skx();
        let access = Access::Strided { blocklen: 8, stride: 16 };
        let mid = 1u64 << 20;
        assert!(p.gather_time(mid, &access, true) < p.gather_time(mid, &access, false));
        // but not huge working sets
        let big = 1u64 << 28;
        assert_eq!(p.gather_time(big, &access, true), p.gather_time(big, &access, false));
    }

    #[test]
    fn staging_degrades_past_internal_buffer() {
        let p = skx();
        let access = Access::Strided { blocklen: 8, stride: 16 };
        let under = p.proto.internal_buffer;
        let over = p.proto.internal_buffer * 4;
        let t_under = p.staging_time(under, &access, false);
        let t_over = p.staging_time(over, &access, false);
        // per-byte time must jump by roughly the degradation factor
        let per_under = t_under / under as f64;
        let per_over = t_over / over as f64;
        assert!(per_over > per_under * 1.5, "no large-message degradation modeled");
    }

    #[test]
    fn staging_equals_gather_below_buffer() {
        let p = skx();
        let access = Access::Strided { blocklen: 8, stride: 16 };
        let bytes = 1u64 << 20;
        assert_eq!(p.staging_time(bytes, &access, false), p.gather_time(bytes, &access, false));
    }

    #[test]
    fn bsend_always_costs_more() {
        let p = skx();
        for bytes in [1u64 << 10, 1 << 20, 1 << 28] {
            assert!(p.bsend_extra(bytes) > 0.0);
        }
    }

    #[test]
    fn fence_dwarfs_small_messages() {
        let p = skx();
        let small_wire = p.wire_time(1024, 1.0) + p.net.latency;
        assert!(
            2.0 * p.fence_time(2) > 4.0 * small_wire,
            "fences must dominate small one-sided transfers (paper §4.4)"
        );
    }

    #[test]
    fn mvapich_puts_much_slower_mid_size() {
        let mv = Platform::skx_mvapich();
        let im = Platform::skx_impi();
        let bytes = 1u64 << 22;
        let a = Access::Strided { blocklen: 8, stride: 16 };
        let t_mv = mv.put_transfer_time(bytes, &a, false);
        let t_im = im.put_transfer_time(bytes, &a, false);
        assert!(t_mv > 1.8 * t_im, "paper: mvapich one-sided several factors slower");
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        let p = skx();
        assert_eq!(p.gather_time(0, &Access::Contiguous, false), 0.0);
        assert_eq!(p.contiguous_injection(0), 0.0);
    }

    #[test]
    fn eager_threshold_packed_quirk() {
        let cray = Platform::ls5_craympich();
        assert_eq!(cray.eager_threshold(true), 2 * cray.eager_threshold(false));
        let skx = skx();
        assert_eq!(skx.eager_threshold(true), skx.eager_threshold(false));
    }

    #[test]
    fn iovec_beats_pack_for_large_regions() {
        // 64 KiB runs: the staging gather the pack path pays dwarfs the
        // per-region descriptor cost, so zero-copy must win clearly.
        let p = skx();
        let bytes = 16u64 << 20;
        let nregions = bytes / (64 << 10);
        let access = Access::Strided { blocklen: 64 << 10, stride: 128 << 10 };
        let pack = p.gather_time(bytes, &access, false) + p.wire_time(bytes, 1.0);
        let iov = p.iov_overhead_shaped(nregions, 0) + p.iov_wire_time(bytes, nregions);
        assert!(iov < 0.7 * pack, "iovec {iov} not clearly under pack {pack}");
    }

    #[test]
    fn iovec_loses_for_tiny_regions() {
        // 8-byte runs: one descriptor per element costs far more than the
        // gather it avoids (the classic iovec pathology).
        let p = skx();
        let bytes = 1u64 << 20;
        let nregions = bytes / 8;
        let access = Access::Strided { blocklen: 8, stride: 16 };
        let pack = p.gather_time(bytes, &access, false) + p.wire_time(bytes, 1.0);
        let iov = p.iov_overhead_shaped(nregions, 0) + p.iov_wire_time(bytes, nregions);
        assert!(iov > 2.0 * pack, "iovec {iov} should lose to pack {pack} at 8B regions");
    }

    #[test]
    fn iov_scatter_cheaper_than_unpack_for_large_regions() {
        let p = skx();
        let bytes = 16u64 << 20;
        let nregions = bytes / (64 << 10);
        let access = Access::Strided { blocklen: 64 << 10, stride: 128 << 10 };
        let unpack = p.scatter_time(bytes, &access, false);
        let direct = p.iov_scatter_time_shaped(bytes, nregions, 0, false);
        assert!(direct < unpack, "direct scatter {direct} >= unpack {unpack}");
    }

    #[test]
    fn iov_zero_bytes_cost_nothing() {
        let p = skx();
        assert_eq!(p.iov_wire_time(0, 0), 0.0);
        assert_eq!(p.iov_scatter_time_shaped(0, 0, 0, true), 0.0);
        assert_eq!(p.iov_overhead_shaped(0, 0), 0.0);
    }

    #[test]
    fn subline_regions_pay_full_descriptor_cost() {
        let p = skx();
        let n = 1000u64;
        let batched = p.iov_overhead_shaped(n, 0);
        // Every sub-line region costs 4x its batched descriptor price.
        let full = p.iov_overhead_shaped(n, n);
        assert!((full - 4.0 * batched).abs() <= 1e-18, "{full}");
        // Mixed lists sit strictly between.
        let mixed = p.iov_overhead_shaped(n, n / 2);
        assert!(batched < mixed && mixed < full);
        // A subline count above n clamps instead of underflowing.
        assert_eq!(p.iov_overhead_shaped(4, 9), p.iov_overhead_shaped(4, 4));
    }

    #[test]
    fn elementwise_calls_dominate() {
        // packing(e): one call per 8-byte element is far slower than one
        // call on the whole vector (paper §2.6/§4.3).
        let p = skx();
        let n = 1u64 << 16;
        let a = Access::Strided { blocklen: 8, stride: 16 };
        let elementwise: f64 = n as f64 * p.pack_call_time(8, &a, false);
        let single = p.pack_call_time(n * 8, &a, false);
        assert!(elementwise > 5.0 * single);
    }
}
