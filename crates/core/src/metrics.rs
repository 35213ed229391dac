//! Per-rank operation metrics: counters and duration histograms.
//!
//! Where tracing ([`crate::trace`]) keeps individual events, metrics keep
//! *aggregates*: monotonic per-[`EventKind`] operation/byte counters, busy
//! time, and fixed-bucket log2 duration histograms — bounded memory no
//! matter how long a run is. Collection is off by default; when enabled,
//! every operation is fed from the same chokepoint as tracing
//! ([`crate::Comm::trace`]), so the hot path pays exactly one branch per
//! operation when metrics are off.
//!
//! A rank's registry is drained into a [`MetricsSnapshot`] with
//! [`crate::Comm::take_metrics`]; snapshots from different ranks merge
//! into one run-wide view. The snapshot also carries this rank's
//! [`FaultStats`] and the process-global datatype plan-cache delta
//! (hits/misses/evictions/compile time) accumulated while the registry
//! was live.

use std::fmt::Write as _;

use nonctg_datatype::plan::{self, PlanCacheStats};

use crate::fabric::FaultStats;
use crate::selector::{self, SelectorCounters};
use crate::trace::EventKind;

/// Number of per-kind slots in a registry (one per [`EventKind`]).
pub const N_KINDS: usize = EventKind::COUNT;

/// Version stamp of the metrics JSON document layout. Bumped whenever a
/// field is renamed, retyped, or removed (additions are compatible);
/// external consumers should reject documents from a different major
/// version rather than guessing.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Fixed-bucket histogram of durations on a log2-nanosecond scale.
///
/// Bucket `i` counts observations in `[2^i, 2^(i+1))` nanoseconds
/// (bucket 0 also absorbs sub-nanosecond values); the last bucket is
/// open-ended. 40 buckets span ~1 ns to ~18 minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; Histogram::NBUCKETS],
}

impl Histogram {
    /// Number of buckets.
    pub const NBUCKETS: usize = 40;

    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram { buckets: [0; Histogram::NBUCKETS] }
    }

    /// Record one duration (in seconds).
    #[inline]
    pub fn observe(&mut self, seconds: f64) {
        let ns = seconds * 1e9;
        let idx = if ns < 2.0 {
            0
        } else {
            (ns.log2() as usize).min(Self::NBUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// `[lower, upper)` bounds of bucket `i`, in seconds.
    pub fn bounds(i: usize) -> (f64, f64) {
        let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 * 1e-9 };
        (lo, (1u64 << (i + 1)) as f64 * 1e-9)
    }

    /// Upper bound (seconds) of the bucket where the cumulative count
    /// first reaches `q` (0..=1) of the total; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bounds(i).1;
            }
        }
        Self::bounds(Self::NBUCKETS - 1).1
    }

    /// Add another histogram's counts into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The live per-rank collector. Created by [`crate::Comm::enable_metrics`],
/// drained by [`crate::Comm::take_metrics`].
#[derive(Debug)]
pub(crate) struct MetricsRegistry {
    ops: [u64; N_KINDS],
    bytes: [u64; N_KINDS],
    busy: [f64; N_KINDS],
    hist: [Histogram; N_KINDS],
    /// Plan-cache counters at enable time; the snapshot reports the delta.
    plan_base: PlanCacheStats,
    /// Selector counters at enable time; the snapshot reports the delta.
    selector_base: SelectorCounters,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            ops: [0; N_KINDS],
            bytes: [0; N_KINDS],
            busy: [0.0; N_KINDS],
            hist: [Histogram::new(); N_KINDS],
            plan_base: plan::cache_stats(),
            selector_base: selector::selector_counters(),
        }
    }

    #[inline]
    pub fn record(&mut self, kind: EventKind, seconds: f64, bytes: usize) {
        let i = kind as usize;
        self.ops[i] += 1;
        self.bytes[i] += bytes as u64;
        self.busy[i] += seconds;
        self.hist[i].observe(seconds);
    }

    pub fn snapshot(&self, faults: FaultStats) -> MetricsSnapshot {
        MetricsSnapshot {
            ranks: 1,
            ops: self.ops,
            bytes: self.bytes,
            busy: self.busy,
            hist: self.hist,
            faults,
            plan_cache: plan::cache_stats().delta_since(self.plan_base),
            selector: selector::selector_counters().delta_since(&self.selector_base),
        }
    }
}

/// A mergeable point-in-time view of one or more ranks' metrics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// How many rank snapshots were merged into this one.
    pub ranks: usize,
    /// Operation count per [`EventKind`] discriminant.
    pub ops: [u64; N_KINDS],
    /// Payload bytes per kind.
    pub bytes: [u64; N_KINDS],
    /// Busy virtual seconds per kind.
    pub busy: [f64; N_KINDS],
    /// Duration histogram per kind.
    pub hist: [Histogram; N_KINDS],
    /// Injected-fault counters (summed across merged ranks).
    pub faults: FaultStats,
    /// Datatype plan-cache activity while metrics were enabled. The cache
    /// is process-global, so merging takes the element-wise maximum
    /// rather than summing the same events once per rank.
    pub plan_cache: PlanCacheStats,
    /// Adaptive-datapath selector decisions (auto mode only) while
    /// metrics were enabled. Like the plan cache, the counters are
    /// process-global, so merging takes the element-wise maximum.
    pub selector: SelectorCounters,
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            ranks: 0,
            ops: [0; N_KINDS],
            bytes: [0; N_KINDS],
            busy: [0.0; N_KINDS],
            hist: [Histogram::new(); N_KINDS],
            faults: FaultStats::default(),
            plan_cache: PlanCacheStats::default(),
            selector: SelectorCounters::default(),
        }
    }
}

impl MetricsSnapshot {
    /// Operation count of one kind.
    pub fn ops_of(&self, kind: EventKind) -> u64 {
        self.ops[kind as usize]
    }

    /// Payload bytes of one kind.
    pub fn bytes_of(&self, kind: EventKind) -> u64 {
        self.bytes[kind as usize]
    }

    /// Busy seconds of one kind.
    pub fn busy_of(&self, kind: EventKind) -> f64 {
        self.busy[kind as usize]
    }

    /// Total operations across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Fold another snapshot (typically another rank's) into this one.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.ranks += other.ranks;
        for i in 0..N_KINDS {
            self.ops[i] += other.ops[i];
            self.bytes[i] += other.bytes[i];
            self.busy[i] += other.busy[i];
            self.hist[i].merge(&other.hist[i]);
        }
        self.faults.absorb(other.faults);
        let p = &mut self.plan_cache;
        p.size = p.size.max(other.plan_cache.size);
        p.hits = p.hits.max(other.plan_cache.hits);
        p.misses = p.misses.max(other.plan_cache.misses);
        p.evictions = p.evictions.max(other.plan_cache.evictions);
        p.compile_nanos = p.compile_nanos.max(other.plan_cache.compile_nanos);
        p.norm_hits = p.norm_hits.max(other.plan_cache.norm_hits);
        p.norm_misses = p.norm_misses.max(other.plan_cache.norm_misses);
        let sel = &mut self.selector;
        sel.pack = sel.pack.max(other.selector.pack);
        sel.iov = sel.iov.max(other.selector.iov);
        sel.elem = sel.elem.max(other.selector.elem);
    }

    /// Serialize as a self-contained JSON document (hand-rolled — the
    /// workspace deliberately carries no serialization dependency).
    ///
    /// Kinds with zero operations are omitted; nonzero histogram buckets
    /// are emitted as `[lower_ns, upper_ns, count]` triples.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {METRICS_SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"ranks\": {},", self.ranks);
        s.push_str("  \"kinds\": {\n");
        let mut first = true;
        for kind in EventKind::ALL {
            let i = kind as usize;
            if self.ops[i] == 0 {
                continue;
            }
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "    \"{}\": {{\"count\": {}, \"bytes\": {}, \"busy_s\": {:e}, \"p50_s\": {:e}, \"p99_s\": {:e}, \"hist_ns\": [",
                kind.label(),
                self.ops[i],
                self.bytes[i],
                self.busy[i],
                self.hist[i].quantile(0.5),
                self.hist[i].quantile(0.99),
            );
            let mut first_b = true;
            for b in 0..Histogram::NBUCKETS {
                let c = self.hist[i].bucket(b);
                if c == 0 {
                    continue;
                }
                if !first_b {
                    s.push_str(", ");
                }
                first_b = false;
                let (lo, hi) = Histogram::bounds(b);
                let _ = write!(s, "[{}, {}, {}]", (lo * 1e9) as u64, (hi * 1e9) as u64, c);
            }
            s.push_str("]}");
        }
        s.push_str("\n  },\n");
        let f = &self.faults;
        let _ = writeln!(
            s,
            "  \"faults\": {{\"transient_retries\": {}, \"delays\": {}, \"corruptions\": {}, \"failed_sends\": {}, \"pipeline_demotions\": {}, \"chunk_retries\": {}, \"pool_exhaustions\": {}, \"plan_fallbacks\": {}, \"iovec_demotions\": {}, \"link_degradations\": {}, \"recv_crashes\": {}, \"timeouts\": {}, \"cancels\": {}, \"demotions\": {}}},",
            f.transient_retries,
            f.delays,
            f.corruptions,
            f.failed_sends,
            f.pipeline_demotions,
            f.chunk_retries,
            f.pool_exhaustions,
            f.plan_fallbacks,
            f.iovec_demotions,
            f.link_degradations,
            f.recv_crashes,
            f.timeouts,
            f.cancels,
            f.demotions()
        );
        let p = &self.plan_cache;
        let _ = writeln!(
            s,
            "  \"plan_cache\": {{\"size\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"compile_s\": {:e}, \"norm_hits\": {}, \"norm_misses\": {}}},",
            p.size,
            p.hits,
            p.misses,
            p.evictions,
            p.compile_nanos as f64 * 1e-9,
            p.norm_hits,
            p.norm_misses
        );
        let sel = &self.selector;
        let _ = writeln!(
            s,
            "  \"selector\": {{\"pack\": {}, \"iov\": {}, \"elem\": {}, \"total\": {}}}",
            sel.pack,
            sel.iov,
            sel.elem,
            sel.total()
        );
        s.push('}');
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        h.observe(1e-9); // bucket 0
        h.observe(1e-6); // ~2^10 ns
        h.observe(1e-3); // ~2^20 ns
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket(0), 1);
        assert!(h.quantile(0.5) >= 1e-6);
        assert!(h.quantile(1.0) >= 1e-3);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.observe(1e-6);
        b.observe(1e-6);
        b.observe(1e-3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn registry_records_and_snapshots() {
        let mut r = MetricsRegistry::new();
        r.record(EventKind::Send, 1e-6, 4096);
        r.record(EventKind::Send, 2e-6, 4096);
        r.record(EventKind::Pack, 5e-7, 1024);
        let s = r.snapshot(FaultStats::default());
        assert_eq!(s.ranks, 1);
        assert_eq!(s.ops_of(EventKind::Send), 2);
        assert_eq!(s.bytes_of(EventKind::Send), 8192);
        assert!((s.busy_of(EventKind::Send) - 3e-6).abs() < 1e-15);
        assert_eq!(s.total_ops(), 3);
    }

    #[test]
    fn snapshots_merge_across_ranks() {
        let mut r0 = MetricsRegistry::new();
        let mut r1 = MetricsRegistry::new();
        r0.record(EventKind::Send, 1e-6, 100);
        r1.record(EventKind::Recv, 2e-6, 100);
        let mut s = r0.snapshot(FaultStats { transient_retries: 2, ..Default::default() });
        s.merge(&r1.snapshot(FaultStats { transient_retries: 1, ..Default::default() }));
        assert_eq!(s.ranks, 2);
        assert_eq!(s.ops_of(EventKind::Send), 1);
        assert_eq!(s.ops_of(EventKind::Recv), 1);
        assert_eq!(s.faults.transient_retries, 3);
    }

    #[test]
    fn json_surfaces_demotion_counters() {
        let r = MetricsRegistry::new();
        let s = r.snapshot(FaultStats {
            pipeline_demotions: 2,
            pool_exhaustions: 1,
            plan_fallbacks: 1,
            timeouts: 4,
            ..Default::default()
        });
        let j = s.to_json();
        assert!(j.contains("\"pipeline_demotions\": 2"), "{j}");
        assert!(j.contains("\"timeouts\": 4"), "{j}");
        assert!(j.contains("\"demotions\": 4"), "{j}");
    }

    #[test]
    fn json_includes_only_active_kinds() {
        let mut r = MetricsRegistry::new();
        r.record(EventKind::Unpack, 1e-6, 64);
        let j = r.snapshot(FaultStats::default()).to_json();
        assert!(j.contains(&format!("\"schema_version\": {METRICS_SCHEMA_VERSION}")), "{j}");
        assert!(j.contains("\"unpack\""));
        assert!(!j.contains("\"bsend\""));
        assert!(j.contains("\"plan_cache\""));
        assert!(j.contains("\"faults\""));
        assert!(j.contains("\"selector\""));
        assert!(j.contains("\"norm_hits\""));
    }

    #[test]
    fn json_surfaces_iovec_demotions_and_selector_counts() {
        let r = MetricsRegistry::new();
        let mut s = r.snapshot(FaultStats { iovec_demotions: 3, ..Default::default() });
        s.selector = SelectorCounters { pack: 5, iov: 2, elem: 1 };
        let j = s.to_json();
        assert!(j.contains("\"iovec_demotions\": 3"), "{j}");
        assert!(j.contains("\"demotions\": 3"), "{j}");
        assert!(j.contains("\"selector\": {\"pack\": 5, \"iov\": 2, \"elem\": 1, \"total\": 8}"), "{j}");
    }

    #[test]
    fn merged_selector_counters_take_elementwise_max() {
        // Selector counters are process-global: two ranks' snapshots see
        // the same counters, so merging must not double-count.
        let mut a = MetricsSnapshot {
            ranks: 1,
            selector: SelectorCounters { pack: 4, iov: 1, elem: 0 },
            ..Default::default()
        };
        let b = MetricsSnapshot {
            ranks: 1,
            selector: SelectorCounters { pack: 3, iov: 2, elem: 1 },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.selector, SelectorCounters { pack: 4, iov: 2, elem: 1 });
    }
}
