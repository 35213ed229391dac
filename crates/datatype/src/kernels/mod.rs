//! Runtime-dispatched SIMD gather/scatter kernels for the compiled-plan
//! executor.
//!
//! The plan executor in [`crate::plan`] turns every pack into a stream of
//! three primitive memory operations: dense copies, fixed-block strided
//! gathers/scatters, and (for multi-field struct layouts) a per-instance
//! record transpose. This module owns the machine-level implementations
//! of those primitives, organized as *tiers*:
//!
//! * [`SimdTier::Avx2`] — 256-bit kernels plus an SSSE3 `pshufb` record
//!   transpose and non-temporal streaming stores (x86_64, detected).
//! * [`SimdTier::Sse2`] — 128-bit kernels and streaming stores (x86_64
//!   baseline, always available there).
//! * [`SimdTier::Neon`] — 128-bit kernels (aarch64 baseline).
//! * [`SimdTier::Scalar`] — autovectorization-friendly scalar loops; the
//!   portable fallback and the differential-testing reference.
//! * [`SimdTier::Off`] — bypass this module's fast paths entirely (plain
//!   per-op scalar execution, no record kernel, no streaming stores).
//!
//! The tier is detected once per process with
//! `std::arch::is_x86_feature_detected!` (see [`simd_tier`]) and can be
//! overridden with `NONCTG_SIMD=avx2|sse2|neon|scalar|off`; a request for
//! a tier the CPU cannot run degrades to the detected tier. Streaming
//! (non-temporal) stores engage when a pack's total packed output exceeds
//! the probed last-level-cache size (see [`llc_threshold`], override
//! `NONCTG_LLC_BYTES`): past that point the output cannot be cached
//! usefully, and regular stores would evict the source data being
//! gathered — the cause of the 64 MB strided-pack cliff.
//!
//! Everything here is a **wall-clock** engine swap: kernels are
//! byte-for-byte equivalent across tiers (proven by the differential
//! proptests in `tests/kernel_props.rs` and the oracle battery), and the
//! virtual-time cost model never sees which tier ran.

use std::sync::OnceLock;

mod record;
mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use record::{RecordField, RecordKernel};

/// Kernel implementation tier, from widest to narrowest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// 256-bit AVX2 kernels + SSSE3 record transpose + streaming stores.
    Avx2,
    /// 128-bit SSE2 kernels + streaming stores (x86_64 baseline).
    Sse2,
    /// 128-bit NEON kernels (aarch64 baseline).
    Neon,
    /// Autovectorization-friendly scalar loops (portable reference).
    Scalar,
    /// Disable the kernel layer: plain per-op scalar execution only.
    Off,
}

impl SimdTier {
    /// Stable lowercase key, matching the `NONCTG_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Avx2 => "avx2",
            SimdTier::Sse2 => "sse2",
            SimdTier::Neon => "neon",
            SimdTier::Scalar => "scalar",
            SimdTier::Off => "off",
        }
    }

    /// Parse a `NONCTG_SIMD` value.
    pub fn parse(s: &str) -> Option<SimdTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "avx2" => Some(SimdTier::Avx2),
            "sse2" => Some(SimdTier::Sse2),
            "neon" => Some(SimdTier::Neon),
            "scalar" => Some(SimdTier::Scalar),
            "off" | "0" | "none" => Some(SimdTier::Off),
            _ => None,
        }
    }

    /// Whether this tier's kernels can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            SimdTier::Scalar | SimdTier::Off => true,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => true,
            #[cfg(target_arch = "aarch64")]
            SimdTier::Neon => true,
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }

    /// Whether this tier has non-temporal (streaming) store kernels.
    pub fn has_streaming(self) -> bool {
        matches!(self, SimdTier::Avx2 | SimdTier::Sse2)
    }
}

/// The widest tier the current CPU supports, ignoring any override.
pub fn detected_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdTier::Avx2
        } else {
            SimdTier::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdTier::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdTier::Scalar
    }
}

/// The tier the pack engine uses, resolved once per process: the
/// `NONCTG_SIMD` override when set and runnable on this CPU, else the
/// detected tier (see [`detected_tier`]).
pub fn simd_tier() -> SimdTier {
    static V: OnceLock<SimdTier> = OnceLock::new();
    *V.get_or_init(|| {
        match std::env::var("NONCTG_SIMD").ok().and_then(|s| SimdTier::parse(&s)) {
            Some(t) if t.is_supported() => t,
            _ => detected_tier(),
        }
    })
}

/// Every tier runnable (and therefore differentially testable) in this
/// process, widest first. Always ends with `Scalar, Off`.
pub fn available_tiers() -> Vec<SimdTier> {
    [SimdTier::Avx2, SimdTier::Sse2, SimdTier::Neon, SimdTier::Scalar, SimdTier::Off]
        .into_iter()
        .filter(|t| t.is_supported())
        .collect()
}

/// Parse "32768K" / "36M"-style sysfs cache size strings into bytes.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1usize << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1usize << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1usize),
    };
    digits.trim().parse::<usize>().ok()?.checked_mul(mult)
}

/// Probe the last-level (highest-level unified or data) cache size of
/// cpu0 from sysfs. `None` when sysfs is absent or unparsable.
fn probe_llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for idx in 0..10 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else { break };
        let level: u32 = level.trim().parse().ok()?;
        let ty = std::fs::read_to_string(format!("{dir}/type")).ok()?;
        if !matches!(ty.trim(), "Unified" | "Data") {
            continue;
        }
        let size = parse_cache_size(&std::fs::read_to_string(format!("{dir}/size")).ok()?)?;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, s)| s)
}

/// Packed-output size (bytes) at which gather kernels switch to
/// non-temporal streaming stores: the probed last-level-cache size
/// (fallback 8 MiB when sysfs is unavailable), overridable with
/// `NONCTG_LLC_BYTES`. The probed value is capped at 32 MiB: virtualized
/// guests report the host's entire shared L3 (this repo's 1-vCPU CI
/// host claims 260 MB), and no single pack thread effectively owns more
/// than a few dozen MiB of a shared cache — past that, regular stores
/// are evicting other tenants, not hitting. Resolved once per process.
pub fn llc_threshold() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("NONCTG_LLC_BYTES")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or_else(|| probe_llc_bytes().unwrap_or(8 << 20).min(32 << 20))
            .max(1)
    })
}

/// Per-pack execution context, fixed at the top of a pack/unpack call
/// and threaded through the plan executor to every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// The kernel tier to dispatch to.
    pub tier: SimdTier,
    /// Whether gather kernels should use non-temporal stores (set when
    /// the whole pack's output exceeds [`llc_threshold`] and the tier
    /// has streaming kernels). Meaningless for scatter (unpack) — the
    /// scattered writes are not contiguous.
    pub stream: bool,
}

impl Exec {
    /// Context for a pack producing `packed_len` total bytes under the
    /// process-default tier.
    pub fn for_pack(packed_len: usize) -> Exec {
        Exec::with_tier(simd_tier(), packed_len)
    }

    /// Context with an explicit tier (differential tests, benches).
    pub fn with_tier(tier: SimdTier, packed_len: usize) -> Exec {
        Exec { tier, stream: tier.has_streaming() && packed_len >= llc_threshold() }
    }

    /// Context that never streams (unpack side).
    pub fn no_stream(tier: SimdTier) -> Exec {
        Exec { tier, stream: false }
    }
}

/// Dense-run copy shared by every tier (small constant sizes inlined).
///
/// # Safety
/// `n` bytes readable at `src`, writable at `dst`, non-overlapping.
#[inline]
pub(crate) unsafe fn copy_run(src: *const u8, dst: *mut u8, n: usize) {
    // SAFETY: forwarded contract.
    unsafe { scalar::copy_run(src, dst, n) }
}

/// Gather whole blocks of `bl` bytes at constant `stride`, starting at
/// absolute byte `first` of `src`, into `out` (`out.len()` is a whole
/// number of blocks and selects the count). Dispatches on `ex.tier`;
/// `ex.stream` selects non-temporal stores where the tier has them.
///
/// # Safety
/// Every source byte of every block must lie within `src` — callers rely
/// on the plan-level `validate_user` hull check. (SIMD paths that read
/// *past* a block's end guard those overreads against `src.len()`
/// themselves; only the blocks proper are the caller's contract.)
pub(crate) unsafe fn gather_blocks(
    ex: Exec,
    src: &[u8],
    first: i64,
    stride: i64,
    bl: usize,
    out: &mut [u8],
) {
    match ex.tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Sse2 => {
            // SAFETY: forwarded contract.
            unsafe { x86::gather(ex, src, first, stride, bl, out) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => {
            // SAFETY: forwarded contract.
            unsafe { neon::gather(src, first, stride, bl, out) }
        }
        // SAFETY: forwarded contract.
        _ => unsafe { scalar::gather(src.as_ptr(), first, stride, bl, out) },
    }
}

/// Scatter whole blocks of `bl` bytes from `input` to constant-stride
/// positions starting at absolute byte `first` of the allocation at
/// `dst`. Scatter writes are never streamed (they are not contiguous)
/// and never overread, so every tier shares the scalar fixed-block
/// kernels, which autovectorize; the tier is taken for symmetry and
/// future aarch64 specializations.
///
/// # Safety
/// Every target byte must lie within the allocation at `dst`, and no
/// other thread may concurrently write those bytes.
pub(crate) unsafe fn scatter_blocks(
    ex: Exec,
    input: &[u8],
    dst: *mut u8,
    first: i64,
    stride: i64,
    bl: usize,
) {
    let _ = ex;
    // SAFETY: forwarded contract.
    unsafe { scalar::scatter(input, dst, first, stride, bl) }
}

/// Bounds-checked gather for differential tests: validates every block
/// (and the kernel contract) against `src`, then runs the unsafe kernel
/// for `tier`/`stream`. Returns `None` if any block falls outside `src`.
pub fn gather_checked(
    tier: SimdTier,
    stream: bool,
    src: &[u8],
    first: i64,
    stride: i64,
    bl: usize,
    nblocks: usize,
) -> Option<Vec<u8>> {
    if bl == 0 || nblocks == 0 {
        // The kernels require bl > 0; a degenerate gather packs nothing.
        return Some(Vec::new());
    }
    for j in 0..nblocks as i64 {
        let off = first.checked_add(j.checked_mul(stride)?)?;
        if off < 0 || (off as usize).checked_add(bl)? > src.len() {
            return None;
        }
    }
    let mut out = vec![0u8; nblocks.checked_mul(bl)?];
    let ex = Exec { tier, stream: stream && tier.has_streaming() };
    // SAFETY: every block validated in-bounds above.
    unsafe { gather_blocks(ex, src, first, stride, bl, &mut out) };
    Some(out)
}

/// Bounds-checked scatter for differential tests; the dual of
/// [`gather_checked`]. Returns `false` (leaving `dst` untouched) if any
/// block falls outside `dst`.
pub fn scatter_checked(
    tier: SimdTier,
    input: &[u8],
    dst: &mut [u8],
    first: i64,
    stride: i64,
    bl: usize,
) -> bool {
    if bl == 0 || !input.len().is_multiple_of(bl) {
        return false;
    }
    let nblocks = input.len() / bl;
    for j in 0..nblocks as i64 {
        let Some(off) = first.checked_add(j.wrapping_mul(stride)) else { return false };
        if off < 0 || (off as usize).saturating_add(bl) > dst.len() {
            return false;
        }
    }
    let ex = Exec::no_stream(tier);
    // SAFETY: every block validated in-bounds above; `&mut dst` is
    // exclusive.
    unsafe { scatter_blocks(ex, input, dst.as_mut_ptr(), first, stride, bl) };
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference gather: the semantics every kernel must match.
    fn naive_gather(src: &[u8], first: i64, stride: i64, bl: usize, nblocks: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(nblocks * bl);
        for j in 0..nblocks as i64 {
            let off = (first + j * stride) as usize;
            out.extend_from_slice(&src[off..off + bl]);
        }
        out
    }

    fn naive_scatter(input: &[u8], dst: &mut [u8], first: i64, stride: i64, bl: usize) {
        for (j, chunk) in input.chunks_exact(bl).enumerate() {
            let off = (first + j as i64 * stride) as usize;
            dst[off..off + bl].copy_from_slice(chunk);
        }
    }

    fn src_bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 13) as u8).collect()
    }

    #[test]
    fn tier_parse_round_trips() {
        for t in [SimdTier::Avx2, SimdTier::Sse2, SimdTier::Neon, SimdTier::Scalar, SimdTier::Off]
        {
            assert_eq!(SimdTier::parse(t.name()), Some(t));
        }
        assert_eq!(SimdTier::parse("AVX2"), Some(SimdTier::Avx2));
        assert_eq!(SimdTier::parse("bogus"), None);
    }

    #[test]
    fn detected_tier_is_supported_and_listed() {
        let d = detected_tier();
        assert!(d.is_supported());
        let avail = available_tiers();
        assert_eq!(avail.first(), Some(&d));
        assert_eq!(&avail[avail.len() - 2..], &[SimdTier::Scalar, SimdTier::Off]);
    }

    #[test]
    fn cache_size_strings_parse() {
        assert_eq!(parse_cache_size("32768K"), Some(32768 << 10));
        assert_eq!(parse_cache_size(" 36M\n"), Some(36 << 20));
        assert_eq!(parse_cache_size("1234"), Some(1234));
        assert_eq!(parse_cache_size("junk"), None);
    }

    /// Every available tier, with and without streaming, agrees with the
    /// naive gather across block lengths and misaligned heads/tails.
    #[test]
    fn gather_all_tiers_match_naive() {
        let src = src_bytes(4096);
        for &bl in &[1usize, 2, 3, 4, 5, 7, 8, 11, 12, 13, 16, 24, 32, 48, 64, 96] {
            for &stride in &[bl as i64, bl as i64 + 1, bl as i64 + 5, 2 * bl as i64 + 3] {
                for &first in &[0i64, 1, 3, 13] {
                    let nblocks = (((src.len() as i64 - first - bl as i64) / stride.max(1)) + 1)
                        .clamp(0, 40) as usize;
                    let want = naive_gather(&src, first, stride, bl, nblocks);
                    for tier in available_tiers() {
                        for stream in [false, true] {
                            let got = gather_checked(tier, stream, &src, first, stride, bl, nblocks)
                                .expect("in-bounds");
                            assert_eq!(
                                got,
                                want,
                                "tier {} stream {stream} bl {bl} stride {stride} first {first}",
                                tier.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Negative strides (descending block addresses) are exact on every
    /// tier.
    #[test]
    fn gather_negative_stride_matches_naive() {
        let src = src_bytes(1024);
        let (bl, stride, first, nblocks) = (8usize, -24i64, 960i64, 40usize);
        let want = naive_gather(&src, first, stride, bl, nblocks);
        for tier in available_tiers() {
            let got =
                gather_checked(tier, true, &src, first, stride, bl, nblocks).expect("in-bounds");
            assert_eq!(got, want, "tier {}", tier.name());
        }
    }

    #[test]
    fn gather_checked_rejects_out_of_bounds() {
        let src = src_bytes(64);
        assert!(gather_checked(SimdTier::Scalar, false, &src, 0, 16, 8, 5).is_none());
        assert!(gather_checked(SimdTier::Scalar, false, &src, -1, 16, 8, 1).is_none());
    }

    #[test]
    fn scatter_all_tiers_match_naive() {
        let packed = src_bytes(31 * 12);
        for &bl in &[4usize, 8, 12, 16, 64] {
            let n = packed.len() / bl;
            let input = &packed[..n * bl];
            let stride = bl as i64 + 9;
            let mut want = vec![0xEEu8; (n as i64 * stride) as usize + bl];
            naive_scatter(input, &mut want, 3, stride, bl);
            for tier in available_tiers() {
                let mut got = vec![0xEEu8; want.len()];
                assert!(scatter_checked(tier, input, &mut got, 3, stride, bl));
                assert_eq!(got, want, "tier {} bl {bl}", tier.name());
            }
        }
    }

    #[test]
    fn scatter_checked_rejects_out_of_bounds() {
        let input = src_bytes(32);
        let mut dst = vec![0u8; 40];
        assert!(!scatter_checked(SimdTier::Scalar, &input, &mut dst, 0, 16, 8, ));
        assert!(!scatter_checked(SimdTier::Scalar, &input, &mut dst, -2, 8, 8));
        // Untouched on rejection.
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn exec_stream_follows_tier_capability() {
        let big = usize::MAX;
        for tier in [SimdTier::Neon, SimdTier::Scalar, SimdTier::Off] {
            assert!(!Exec::with_tier(tier, big).stream, "{}", tier.name());
        }
        assert!(Exec::with_tier(SimdTier::Avx2, big).stream);
        assert!(!Exec::with_tier(SimdTier::Avx2, 0).stream);
    }
}
