//! The adaptive datapath selector: pack plan vs zero-copy iovec vs
//! element copies, per message.
//!
//! A non-contiguous send can move its bytes three ways:
//!
//! * **pack** — gather through the compiled [`nonctg_datatype::PackPlan`]
//!   into a staging buffer, send contiguously, unpack at the receiver;
//! * **iov** — ship the plan's `(offset, len)` region list and let the
//!   NIC DMA-gather/scatter the user regions directly (no staging copy,
//!   but a per-region descriptor cost);
//! * **elem** — the uncompiled per-segment engine, which skips plan
//!   compilation entirely and wins only for tiny messages.
//!
//! The selector picks per `(platform, byte size, region shape)` from a
//! [`CrossoverTable`] seeded from a virtual-time calibration probe (pinned
//! by `seeded_crossover_tracks_the_cost_model` in `tests/iovec_props.rs`):
//! iovec wins once the mean region length clears the platform's
//! measured crossover, because the per-region descriptor cost amortizes
//! while the avoided gather copy scales with the payload. Decisions are
//! observable through [`EventKind::Select`](crate::trace::EventKind)
//! trace events and the process-wide [`selector_counters`].
//!
//! Overrides, strongest first: `Platform::with_datapath` (in-process),
//! the `NONCTG_DATAPATH` environment variable (pack|iov|elem|auto), then
//! the table itself (`NONCTG_IOV_CROSSOVER`, `NONCTG_ELEM_CUTOFF`,
//! `NONCTG_IOV_MAX_REGIONS`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use nonctg_simnet::{Datapath, Platform, PlatformId};

/// Default cap on how many regions an iovec send may carry; region lists
/// beyond this fall back to the pack path (descriptor tables stop
/// fitting the NIC's scatter/gather queue). Override with
/// `NONCTG_IOV_MAX_REGIONS`.
pub const DEFAULT_IOV_MAX_REGIONS: usize = 1024;

/// The iovec region-count cap in force: `NONCTG_IOV_MAX_REGIONS` when
/// set and positive, else [`DEFAULT_IOV_MAX_REGIONS`]. Resolved once.
pub fn iov_max_regions() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("NONCTG_IOV_MAX_REGIONS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_IOV_MAX_REGIONS)
    })
}

/// Measured pack/iovec/element crossovers for one platform.
///
/// Seeded per installation from a virtual-time calibration probe, which
/// `seeded_crossover_tracks_the_cost_model` (`tests/iovec_props.rs`)
/// re-runs: the region length where zero-copy iovec overtakes the staged
/// pack, and the message size under which the uncompiled element engine
/// beats both compiled paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossoverTable {
    /// Messages at or under this many bytes route to the element engine
    /// (plan compilation and staging don't amortize).
    pub elem_max_bytes: u64,
    /// Mean region length at or above which iovec beats pack.
    pub iov_min_region_bytes: u64,
}

impl CrossoverTable {
    /// Calibration-seeded table for one installation.
    ///
    /// The per-region descriptor cost scales with the CPU's call
    /// overhead while the avoided gather scales with copy bandwidth, so
    /// the weak-core KNL needs longer regions before iovec pays off.
    pub fn seeded(id: PlatformId) -> CrossoverTable {
        match id {
            PlatformId::SkxImpi => {
                CrossoverTable { elem_max_bytes: 256, iov_min_region_bytes: 160 }
            }
            PlatformId::SkxMvapich => {
                CrossoverTable { elem_max_bytes: 256, iov_min_region_bytes: 160 }
            }
            PlatformId::Ls5CrayMpich => {
                CrossoverTable { elem_max_bytes: 256, iov_min_region_bytes: 160 }
            }
            PlatformId::KnlImpi => {
                CrossoverTable { elem_max_bytes: 256, iov_min_region_bytes: 192 }
            }
        }
    }

    /// The table in force: the seeded values with any `NONCTG_IOV_CROSSOVER`
    /// / `NONCTG_ELEM_CUTOFF` (bytes) environment overrides applied.
    /// Overrides are resolved once per process.
    pub fn effective(id: PlatformId) -> CrossoverTable {
        static IOV: OnceLock<Option<u64>> = OnceLock::new();
        static ELEM: OnceLock<Option<u64>> = OnceLock::new();
        let env_u64 = |name: &str| {
            std::env::var(name).ok().and_then(|v| v.trim().parse::<u64>().ok())
        };
        let mut t = Self::seeded(id);
        if let Some(v) = IOV.get_or_init(|| env_u64("NONCTG_IOV_CROSSOVER")) {
            t.iov_min_region_bytes = *v;
        }
        if let Some(v) = ELEM.get_or_init(|| env_u64("NONCTG_ELEM_CUTOFF")) {
            t.elem_max_bytes = *v;
        }
        t
    }
}

/// Shape summary of an iovec region list: the descriptor count plus how
/// many of those regions are shorter than one cacheline. Sub-line
/// descriptors fall off the NIC's batched fast path and each cost a full
/// per-call overhead instead of the batched quarter (see
/// `Platform::iov_overhead_shaped`), so a skewed layout mixing a few long
/// regions with many tiny ones is far more expensive than its *mean*
/// region length suggests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionShape {
    /// Total regions in the list.
    pub n: u64,
    /// Regions shorter than the platform cacheline.
    pub subline: u64,
}

impl RegionShape {
    /// Summarize a concrete `(offset, len)` region list against a
    /// platform's cacheline size.
    pub fn of(regions: &[(i64, u64)], cacheline: u64) -> RegionShape {
        let subline = regions.iter().filter(|&&(_, len)| len < cacheline).count() as u64;
        RegionShape { n: regions.len() as u64, subline }
    }

    /// A list of `n` regions all at or above the cacheline — the shape
    /// the calibration probe sweeps and the legacy mean-length rule
    /// assumed for everything.
    pub fn uniform(n: u64) -> RegionShape {
        RegionShape { n, subline: 0 }
    }

    /// Descriptor-cost-weighted region count: a sub-line region costs a
    /// full per-call overhead, 4x the batched fraction a cacheline-sized
    /// one pays, so it counts as 4 descriptors. This is the per-region
    /// model the cost tables charge; dividing `bytes` by it replaces the
    /// variance-blind mean.
    pub fn weighted(&self) -> u64 {
        self.n + 3 * self.subline
    }
}

/// Pick the engine for one non-contiguous send of `bytes` payload, given
/// the [`RegionShape`] of its bounded region list (`None` = no compiled
/// plan or the list blew the [`iov_max_regions`] cap, which rules iovec
/// out). Pure in its inputs: the same `(platform id, bytes, shape)`
/// always selects the same engine, so recorded selections are
/// reproducible across runs and sharding.
///
/// The iovec rule charges by the descriptor model rather than the naive
/// mean region length: `bytes / shape.weighted()` must clear the
/// platform crossover. For uniform lists the two agree; on high-variance
/// layouts (LAMMPS mixes 24 B and 4 KiB regions) the weighted statistic
/// correctly prices the swarm of tiny descriptors the mean hides.
pub fn choose_shape(id: PlatformId, bytes: u64, shape: Option<RegionShape>) -> Datapath {
    let table = CrossoverTable::effective(id);
    if bytes <= table.elem_max_bytes {
        return Datapath::Elem;
    }
    if let Some(s) = shape {
        let w = s.weighted();
        if w > 0 && bytes / w >= table.iov_min_region_bytes {
            return Datapath::Iov;
        }
    }
    Datapath::Pack
}

/// What one send is, as far as its protocol and the zero-copy path are
/// concerned. `Default` is a standard send of a type without
/// `MPI_PACKED` bytes: the send the sweeps' selection mirrors model.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendKind {
    /// The type carries `MPI_PACKED` bytes (the packed eager limit applies).
    pub packed: bool,
    /// `MPI_Ssend`: a rendezvous at every size.
    pub synchronous: bool,
    /// `MPI_Bsend`: completes locally, so it never gathers in place.
    pub buffered: bool,
}

impl SendKind {
    /// Whether a send of `bytes` runs the eager protocol on `platform`.
    pub fn eager(self, platform: &Platform, bytes: u64) -> bool {
        !self.synchronous && bytes <= platform.eager_threshold(self.packed)
    }

    /// Whether the send may take the zero-copy iovec path at all: a
    /// rendezvous that waits for its receiver.
    pub fn iov_eligible(self, platform: &Platform, bytes: u64) -> bool {
        !self.eager(platform, bytes) && !self.buffered
    }
}

/// The engine one non-contiguous send of `bytes` takes. A forced engine
/// (`Platform::with_datapath` or `NONCTG_DATAPATH`) wins outright;
/// otherwise [`choose_shape`] decides on the send's region shape, which
/// `shape` is asked for only when the send is
/// [iovec-eligible](SendKind::iov_eligible). The runtime and the sweeps'
/// mirrors of it all decide through this one function.
pub fn select(
    platform: &Platform,
    bytes: u64,
    kind: SendKind,
    shape: impl FnOnce() -> Option<RegionShape>,
) -> Datapath {
    match platform.effective_datapath() {
        Datapath::Auto => {
            let shape = if kind.iov_eligible(platform, bytes) { shape() } else { None };
            choose_shape(platform.id, bytes, shape)
        }
        forced => forced,
    }
}

static SEL_PACK: AtomicU64 = AtomicU64::new(0);
static SEL_IOV: AtomicU64 = AtomicU64::new(0);
static SEL_ELEM: AtomicU64 = AtomicU64::new(0);

/// Process-wide tallies of selector decisions (auto mode only — forced
/// datapaths bypass the selector and are not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectorCounters {
    /// Sends routed to the pack-plan engine.
    pub pack: u64,
    /// Sends routed to the zero-copy iovec engine.
    pub iov: u64,
    /// Sends routed to the uncompiled element engine.
    pub elem: u64,
}

impl SelectorCounters {
    /// Total decisions recorded.
    pub fn total(&self) -> u64 {
        self.pack + self.iov + self.elem
    }

    /// Counter deltas since an earlier snapshot (saturating, so a
    /// concurrent [`reset_selector_counters`] cannot underflow).
    pub fn delta_since(&self, base: &SelectorCounters) -> SelectorCounters {
        SelectorCounters {
            pack: self.pack.saturating_sub(base.pack),
            iov: self.iov.saturating_sub(base.iov),
            elem: self.elem.saturating_sub(base.elem),
        }
    }
}

/// Record one auto-mode selector decision.
pub(crate) fn record(choice: Datapath) {
    match choice {
        Datapath::Pack => SEL_PACK.fetch_add(1, Ordering::Relaxed),
        Datapath::Iov => SEL_IOV.fetch_add(1, Ordering::Relaxed),
        Datapath::Elem => SEL_ELEM.fetch_add(1, Ordering::Relaxed),
        Datapath::Auto => 0,
    };
}

/// Snapshot the process-wide selector decision counters.
pub fn selector_counters() -> SelectorCounters {
    SelectorCounters {
        pack: SEL_PACK.load(Ordering::Relaxed),
        iov: SEL_IOV.load(Ordering::Relaxed),
        elem: SEL_ELEM.load(Ordering::Relaxed),
    }
}

/// Reset the selector decision counters to zero (tests).
pub fn reset_selector_counters() {
    SEL_PACK.store(0, Ordering::Relaxed);
    SEL_IOV.store(0, Ordering::Relaxed);
    SEL_ELEM.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The selector's choice for a uniform list of `n` regions.
    fn choose_uniform(id: PlatformId, bytes: u64, n: Option<u64>) -> Datapath {
        choose_shape(id, bytes, n.map(RegionShape::uniform))
    }

    #[test]
    fn tiny_messages_go_elementwise() {
        for id in PlatformId::ALL {
            assert_eq!(choose_uniform(id, 64, Some(8)), Datapath::Elem);
            assert_eq!(choose_uniform(id, 256, None), Datapath::Elem);
        }
    }

    #[test]
    fn long_regions_go_iovec() {
        for id in PlatformId::ALL {
            // 4 KiB mean regions are far beyond every platform's
            // crossover.
            assert_eq!(choose_uniform(id, 1 << 20, Some(256)), Datapath::Iov);
        }
    }

    #[test]
    fn short_regions_and_capped_lists_go_pack() {
        for id in PlatformId::ALL {
            // 8-byte regions: descriptor cost dominates.
            assert_eq!(choose_uniform(id, 1 << 20, Some(1 << 17)), Datapath::Pack);
            // No bounded region list at all.
            assert_eq!(choose_uniform(id, 1 << 20, None), Datapath::Pack);
        }
    }

    #[test]
    fn skewed_layouts_price_subline_descriptors() {
        // LAMMPS-shaped skew: 6 x 16 KiB blocks + 700 x 24 B records.
        // The mean region length (163 B) clears the skx crossover (160),
        // but 700 sub-line descriptors each cost a full call overhead —
        // the weighted statistic keeps the send on the pack path.
        let bytes = 6 * 16384u64 + 700 * 24;
        let shape = RegionShape { n: 706, subline: 700 };
        assert_eq!(choose_shape(PlatformId::SkxImpi, bytes, Some(shape)), Datapath::Pack);
        // A uniform list of the same total and count (the mean-length
        // view of the same message) would take iovec.
        assert_eq!(choose_uniform(PlatformId::SkxImpi, bytes, Some(706)), Datapath::Iov);
    }

    #[test]
    fn region_shape_of_counts_sublines() {
        let regions = [(0i64, 24u64), (64, 4096), (8192, 63), (16384, 64)];
        let s = RegionShape::of(&regions, 64);
        assert_eq!(s, RegionShape { n: 4, subline: 2 });
        assert_eq!(s.weighted(), 4 + 3 * 2);
        assert_eq!(RegionShape::uniform(9).weighted(), 9);
    }

    #[test]
    fn knl_needs_longer_regions_than_skx() {
        let skx = CrossoverTable::seeded(PlatformId::SkxImpi);
        let knl = CrossoverTable::seeded(PlatformId::KnlImpi);
        assert!(knl.iov_min_region_bytes > skx.iov_min_region_bytes);
    }

    #[test]
    fn counters_record_and_reset() {
        // Other tests' sends may bump the process-wide counters
        // concurrently, so assert lower bounds, not exact deltas.
        let base = selector_counters();
        record(Datapath::Pack);
        record(Datapath::Iov);
        record(Datapath::Iov);
        record(Datapath::Elem);
        record(Datapath::Auto); // never counted
        let now = selector_counters().delta_since(&base);
        assert!(now.pack >= 1 && now.iov >= 2 && now.elem >= 1);
        assert!(now.total() >= 4);
    }

    #[test]
    fn decisions_are_deterministic() {
        for id in PlatformId::ALL {
            for bytes in [300u64, 1 << 12, 1 << 20, 1 << 26] {
                for n in [1u64, 64, 4096] {
                    assert_eq!(
                        choose_uniform(id, bytes, Some(n)),
                        choose_uniform(id, bytes, Some(n)),
                    );
                }
            }
        }
    }
}
