//! Message-size sweeps over schemes — the data behind the paper's figures.
//!
//! Three runners share one point format:
//! [`run_sweep`] (sequential), [`run_sweep_parallel`] (same results, less
//! wall-clock), and [`run_sweep_resilient`] (fault-tolerant: per-point
//! retries, failed points marked instead of aborting the sweep, optional
//! JSON checkpointing and resume).

use std::path::PathBuf;
use std::str::FromStr;

use nonctg_core::selector::{self, RegionShape, SendKind};
use nonctg_core::FaultStats;
use nonctg_simnet::{Datapath, Platform, PlatformId};

use crate::checkpoint;
use crate::pingpong::{run_scheme, try_run_scheme, PingPongConfig};
use crate::scheme::Scheme;
use crate::workload::Workload;

/// Configuration of a full sweep (one paper figure).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Schemes to run, in legend order.
    pub schemes: Vec<Scheme>,
    /// Smallest message payload in bytes (rounded to whole elements).
    pub min_bytes: usize,
    /// Largest message payload in bytes.
    pub max_bytes: usize,
    /// Geometric step between message sizes (2 = doubling).
    pub step: usize,
    /// Measurement protocol; repetitions adapt to message size.
    pub base: PingPongConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            schemes: Scheme::ALL.to_vec(),
            min_bytes: 1 << 10,
            max_bytes: 1 << 28,
            step: 2,
            base: PingPongConfig::default(),
        }
    }
}

impl SweepConfig {
    /// The message sizes (bytes) this sweep visits.
    pub fn sizes(&self) -> Vec<usize> {
        assert!(self.step >= 2, "step must be >= 2");
        let mut out = Vec::new();
        let mut b = self.min_bytes.max(Workload::ELEM);
        while b <= self.max_bytes {
            out.push(b);
            match b.checked_mul(self.step) {
                Some(n) => b = n,
                None => break,
            }
        }
        out
    }
}

/// Outcome of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// Measured successfully.
    Ok,
    /// Every measurement attempt failed; time/bandwidth/slowdown are NaN/0.
    Failed,
    /// Not measured (scheme disabled after repeated failures); values NaN/0.
    Skipped,
}

impl PointStatus {
    /// Stable lowercase key used in checkpoints and reports.
    pub fn key(self) -> &'static str {
        match self {
            PointStatus::Ok => "ok",
            PointStatus::Failed => "failed",
            PointStatus::Skipped => "skipped",
        }
    }
}

impl FromStr for PointStatus {
    type Err = String;
    fn from_str(s: &str) -> Result<PointStatus, String> {
        match s {
            "ok" => Ok(PointStatus::Ok),
            "failed" => Ok(PointStatus::Failed),
            "skipped" => Ok(PointStatus::Skipped),
            other => Err(format!("unknown point status '{other}'")),
        }
    }
}

/// One (scheme, size) point of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The scheme measured.
    pub scheme: Scheme,
    /// Message payload in bytes.
    pub msg_bytes: usize,
    /// Mean ping-pong time (outlier-rejected), seconds. NaN if not Ok.
    pub time: f64,
    /// Effective bandwidth, bytes/second. 0.0 if not Ok.
    pub bandwidth: f64,
    /// Time relative to the reference scheme at the same size
    /// (1.0 for the reference itself; NaN if the reference was not run
    /// or this point was not measured).
    pub slowdown: f64,
    /// Whether this point was actually measured.
    pub status: PointStatus,
    /// The datapath engine in force for this point's non-contiguous
    /// sends: the platform's forced engine when overridden, else what
    /// the adaptive selector picks for this layout at this size. A pure
    /// function of (platform, layout, size) — serial, parallel, sharded,
    /// and resumed sweeps all record the same value.
    pub selected: Datapath,
    /// Fault counters attributed to this point: every attempt of its
    /// measurement, including failed ones. The sweep total is the sum of
    /// these, so a resume that re-measures a point replaces — never
    /// re-adds — its contribution.
    pub faults: SweepFaults,
}

impl SweepPoint {
    fn unmeasured(scheme: Scheme, msg_bytes: usize, status: PointStatus) -> SweepPoint {
        SweepPoint {
            scheme,
            msg_bytes,
            time: f64::NAN,
            bandwidth: 0.0,
            slowdown: f64::NAN,
            status,
            selected: Datapath::Auto,
            faults: SweepFaults::default(),
        }
    }
}

/// The engine the runtime's datapath machinery uses for a point of this
/// workload, by the runtime's own policy (`selector::select`) over the
/// workload's region list: one uniform region per element, none past the
/// iovec cap. Pure in (platform, layout, size), so recorded selections
/// are reproducible across runs, shards, and resumes.
fn selected_for(platform: &Platform, w: &Workload) -> Datapath {
    let n = w.elems();
    let shape = || (n <= nonctg_core::iov_max_regions()).then(|| RegionShape::uniform(n as u64));
    selector::select(platform, w.msg_bytes() as u64, SendKind::default(), shape)
}

/// Cumulative fault-injection counters over every measurement a sweep
/// performed, including failed attempts. Checkpointed alongside the
/// points, so a resumed run keeps counting from where the interrupted
/// one stopped instead of resetting to zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepFaults {
    /// Transient send failures absorbed by retry-with-backoff.
    pub transient_retries: u64,
    /// Injected delivery delays charged to virtual clocks.
    pub delays: u64,
    /// Payloads corrupted in flight.
    pub corruptions: u64,
    /// Sends abandoned after the bounded retry budget.
    pub failed_sends: u64,
    /// Ranks that came back in error from failed measurement attempts
    /// (each poisons its universe's fabric; see `nonctg_core::fabric`).
    pub poisoned_peers: u64,
    /// Graceful demotions down the degradation ladder (pipelined →
    /// monolithic, pooled → owned buffers, compiled → uncompiled plan,
    /// iovec → pack), summed over every rank and attempt.
    pub demotions: u64,
    /// Chunks re-packed after a mid-pipeline corruption or drop.
    pub chunk_retries: u64,
    /// Operations charged a link-degradation latency surcharge.
    pub link_degradations: u64,
    /// Injected receiver-side crashes (typed errors, not panics).
    pub recv_crashes: u64,
}

impl SweepFaults {
    /// The counters of a single measurement, as a per-point attribution.
    pub fn from_stats(f: FaultStats) -> SweepFaults {
        let mut s = SweepFaults::default();
        s.absorb(f);
        s
    }

    /// Per-counter saturating difference: the part of `self` not covered
    /// by `other`. Used on resume to keep totals from checkpoints written
    /// before per-point attribution (where points carry zero counters).
    pub fn saturating_sub(&self, other: &SweepFaults) -> SweepFaults {
        SweepFaults {
            transient_retries: self.transient_retries.saturating_sub(other.transient_retries),
            delays: self.delays.saturating_sub(other.delays),
            corruptions: self.corruptions.saturating_sub(other.corruptions),
            failed_sends: self.failed_sends.saturating_sub(other.failed_sends),
            poisoned_peers: self.poisoned_peers.saturating_sub(other.poisoned_peers),
            demotions: self.demotions.saturating_sub(other.demotions),
            chunk_retries: self.chunk_retries.saturating_sub(other.chunk_retries),
            link_degradations: self.link_degradations.saturating_sub(other.link_degradations),
            recv_crashes: self.recv_crashes.saturating_sub(other.recv_crashes),
        }
    }

    /// Fold one measurement's per-rank counters into the sweep totals.
    pub fn absorb(&mut self, f: FaultStats) {
        self.transient_retries += f.transient_retries;
        self.delays += f.delays;
        self.corruptions += f.corruptions;
        self.failed_sends += f.failed_sends;
        self.demotions += f.demotions();
        self.chunk_retries += f.chunk_retries;
        self.link_degradations += f.link_degradations;
        self.recv_crashes += f.recv_crashes;
    }

    /// Add another sweep's totals into this one (checkpoint resume).
    pub fn merge(&mut self, other: SweepFaults) {
        self.transient_retries += other.transient_retries;
        self.delays += other.delays;
        self.corruptions += other.corruptions;
        self.failed_sends += other.failed_sends;
        self.poisoned_peers += other.poisoned_peers;
        self.demotions += other.demotions;
        self.chunk_retries += other.chunk_retries;
        self.link_degradations += other.link_degradations;
        self.recv_crashes += other.recv_crashes;
    }

    /// Whether every counter is zero (a fault-free sweep).
    pub fn is_zero(&self) -> bool {
        *self == SweepFaults::default()
    }
}

/// A complete sweep: every scheme over every size.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The platform this ran on.
    pub platform: PlatformId,
    /// Points in (size-major, legend-order) sequence.
    pub points: Vec<SweepPoint>,
    /// Fault counters accumulated over every measurement.
    pub faults: SweepFaults,
}

impl Sweep {
    /// Points of one scheme, in increasing size.
    pub fn series(&self, scheme: Scheme) -> Vec<SweepPoint> {
        let mut v: Vec<SweepPoint> =
            self.points.iter().copied().filter(|p| p.scheme == scheme).collect();
        v.sort_by_key(|p| p.msg_bytes);
        v
    }

    /// The distinct message sizes, increasing.
    pub fn sizes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.points.iter().map(|p| p.msg_bytes).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Look up a point.
    pub fn get(&self, scheme: Scheme, msg_bytes: usize) -> Option<&SweepPoint> {
        self.points.iter().find(|p| p.scheme == scheme && p.msg_bytes == msg_bytes)
    }

    /// Serialize to checkpoint JSON (see [`crate::checkpoint`]).
    pub fn to_checkpoint_json(&self) -> String {
        checkpoint::to_json(self)
    }

    /// Parse a checkpoint written by [`Sweep::to_checkpoint_json`]. A
    /// checkpoint stamped with an unsupported schema version is rejected
    /// with [`checkpoint::CheckpointError::VersionMismatch`].
    pub fn from_checkpoint_json(s: &str) -> Result<Sweep, checkpoint::CheckpointError> {
        checkpoint::from_json(s)
    }

    /// Per-sweep health report: point outcomes plus the degradation
    /// ladder's counters, for the chaos-mode summary line.
    pub fn health(&self) -> SweepHealth {
        let mut h = SweepHealth { faults: self.faults, ..SweepHealth::default() };
        for p in &self.points {
            match p.status {
                PointStatus::Ok => h.ok += 1,
                PointStatus::Failed => h.failed += 1,
                PointStatus::Skipped => h.skipped += 1,
            }
            if p.faults.demotions > 0 {
                h.demoted_points += 1;
            }
        }
        h
    }
}

/// Outcome summary of one sweep under fault injection: how many points
/// measured, failed, or were skipped, and how hard the runtime had to
/// lean on the graceful-degradation ladder to get there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepHealth {
    /// Points measured successfully.
    pub ok: usize,
    /// Points whose every attempt failed.
    pub failed: usize,
    /// Points skipped after a scheme exhausted its failure budget.
    pub skipped: usize,
    /// Points whose measurement involved at least one demotion.
    pub demoted_points: usize,
    /// The sweep's cumulative fault counters.
    pub faults: SweepFaults,
}

impl std::fmt::Display for SweepHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sweep health: {} ok, {} failed, {} skipped ({} points demoted)",
            self.ok, self.failed, self.skipped, self.demoted_points
        )?;
        let v = &self.faults;
        writeln!(
            f,
            "  faults: {} transient retries, {} delays, {} corruptions, {} failed sends, \
             {} poisoned peers",
            v.transient_retries, v.delays, v.corruptions, v.failed_sends, v.poisoned_peers
        )?;
        write!(
            f,
            "  ladder: {} demotions, {} chunk retries, {} degraded-link ops, {} receiver crashes",
            v.demotions, v.chunk_retries, v.link_degradations, v.recv_crashes
        )
    }
}

/// Per-size-group slowdown pass: the reference time is taken from the
/// group's own measured Reference point (wherever it sits in legend
/// order), so slowdowns never depend on scheme ordering or on a stale
/// reference from an earlier size.
pub(crate) fn apply_slowdowns(group: &mut [SweepPoint]) {
    let ref_time = group
        .iter()
        .find(|p| p.scheme == Scheme::Reference && p.status == PointStatus::Ok)
        .map(|p| p.time)
        .unwrap_or(f64::NAN);
    for p in group.iter_mut() {
        p.slowdown = if p.status == PointStatus::Ok { p.time / ref_time } else { f64::NAN };
    }
}

/// Run a sweep, invoking `progress` after each measured size group.
pub fn run_sweep_with(
    platform: &Platform,
    cfg: &SweepConfig,
    mut progress: impl FnMut(&SweepPoint),
) -> Sweep {
    let mut points = Vec::new();
    let mut faults = SweepFaults::default();
    for bytes in cfg.sizes() {
        let elems = bytes / Workload::ELEM;
        let w = Workload::every_other(elems);
        let selected = selected_for(platform, &w);
        let pp = cfg.base.clone().adaptive(bytes);
        let mut group: Vec<SweepPoint> = Vec::with_capacity(cfg.schemes.len());
        for &scheme in &cfg.schemes {
            let r = run_scheme(platform, scheme, &w, &pp);
            let pf = SweepFaults::from_stats(r.faults);
            faults.merge(pf);
            group.push(SweepPoint {
                scheme,
                msg_bytes: w.msg_bytes(),
                time: r.time(),
                bandwidth: r.bandwidth(),
                slowdown: f64::NAN,
                status: PointStatus::Ok,
                selected,
                faults: pf,
            });
        }
        apply_slowdowns(&mut group);
        for p in group {
            progress(&p);
            points.push(p);
        }
    }
    Sweep { platform: platform.id, points, faults }
}

/// Run a sweep silently.
pub fn run_sweep(platform: &Platform, cfg: &SweepConfig) -> Sweep {
    run_sweep_with(platform, cfg, |_| {})
}

/// The canonical (msg_bytes, scheme) work list of a sweep, in the exact
/// order the sequential path measures it. Sizes are rounded to whole
/// elements exactly as the sequential path does.
fn work_list(cfg: &SweepConfig) -> Vec<(usize, Scheme)> {
    cfg.sizes()
        .into_iter()
        .map(|bytes| Workload::every_other(bytes / Workload::ELEM).msg_bytes())
        .flat_map(|bytes| cfg.schemes.iter().map(move |&s| (bytes, s)))
        .collect()
}

/// One measured point: (time, bandwidth, absorbed fault counters),
/// parked in a mutex slot until assembly.
type PointSlot = std::sync::Mutex<Option<(f64, f64, FaultStats)>>;

/// Measure one work-list point in its own fabric universe.
fn measure_point(
    platform: &Platform,
    cfg: &SweepConfig,
    bytes: usize,
    scheme: Scheme,
) -> (f64, f64, FaultStats) {
    let w = Workload::every_other(bytes / Workload::ELEM);
    let pp = cfg.base.clone().adaptive(bytes);
    let r = run_scheme(platform, scheme, &w, &pp);
    (r.time(), r.bandwidth(), r.faults)
}

/// Fold measured results back into canonical order, one size group at a
/// time, so every group's slowdowns come from its own reference point.
fn assemble_in_order(
    platform: &Platform,
    work: &[(usize, Scheme)],
    results: &[PointSlot],
) -> Sweep {
    let mut points = Vec::with_capacity(work.len());
    let mut faults = SweepFaults::default();
    let mut i = 0;
    while i < work.len() {
        let bytes = work[i].0;
        let selected = selected_for(platform, &Workload::every_other(bytes / Workload::ELEM));
        let mut group = Vec::new();
        while i < work.len() && work[i].0 == bytes {
            let (time, bandwidth, f) = results[i].lock().unwrap().expect("measured point");
            let pf = SweepFaults::from_stats(f);
            faults.merge(pf);
            group.push(SweepPoint {
                scheme: work[i].1,
                msg_bytes: bytes,
                time,
                bandwidth,
                slowdown: f64::NAN,
                status: PointStatus::Ok,
                selected,
                faults: pf,
            });
            i += 1;
        }
        apply_slowdowns(&mut group);
        points.extend(group);
    }
    Sweep { platform: platform.id, points, faults }
}

/// Run a sweep with up to `jobs` (scheme, size) points measured
/// concurrently. Each point runs in its own universe, so results are
/// identical to the sequential [`run_sweep`] — only wall-clock changes.
pub fn run_sweep_parallel(platform: &Platform, cfg: &SweepConfig, jobs: usize) -> Sweep {
    let jobs = jobs.max(1);
    if jobs == 1 {
        return run_sweep(platform, cfg);
    }
    // Work list in deterministic order; results slot by index.
    let work = work_list(cfg);
    let results: Vec<PointSlot> =
        (0..work.len()).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= work.len() {
                    break;
                }
                let (bytes, scheme) = work[i];
                *results[i].lock().unwrap() = Some(measure_point(platform, cfg, bytes, scheme));
            });
        }
    });

    assemble_in_order(platform, &work, &results)
}

/// Run a sweep split into `shards` statically-partitioned slices: shard
/// `k` measures every `shards`-th point of the canonical work list on its
/// own rank pair. Unlike [`run_sweep_parallel`]'s dynamic queue, each
/// shard's workload is fixed up front — the set of points a given worker
/// thread measures does not depend on scheduling. Every point still runs
/// in its own deterministically-seeded fabric universe and results merge
/// in canonical order, so the sweep is bit-equal to the serial run; only
/// wall-clock changes.
pub fn run_sweep_sharded(platform: &Platform, cfg: &SweepConfig, shards: usize) -> Sweep {
    let shards = shards.max(1);
    if shards == 1 {
        return run_sweep(platform, cfg);
    }
    let work = work_list(cfg);
    let results: Vec<PointSlot> =
        (0..work.len()).map(|_| std::sync::Mutex::new(None)).collect();

    // Shard *slices* are a partitioning contract, not a thread count:
    // spawning more threads than cores oversubscribes the host (each
    // measured point spins up its own universe with per-rank threads),
    // which is how 4-way sharding measured 0.84x serial on a 1-core CI
    // host. Run the `shards` fixed slices on at most
    // `available_parallelism` threads; on a 1-core host that degenerates
    // to the caller's thread processing every slice in order, i.e.
    // serial execution with zero spawn or contention overhead. Which
    // thread runs a slice never affects its measurements (each point is
    // its own deterministically-seeded universe), so the merge stays
    // bit-identical to the serial sweep.
    let conc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(shards);
    let run_slice = |shard: usize| {
        // Round-robin slice: spreads every message size across all
        // shards, so no shard ends up with only the largest sizes.
        let mut i = shard;
        while i < work.len() {
            let (bytes, scheme) = work[i];
            *results[i].lock().unwrap() = Some(measure_point(platform, cfg, bytes, scheme));
            i += shards;
        }
    };
    if conc <= 1 {
        for shard in 0..shards {
            run_slice(shard);
        }
    } else {
        std::thread::scope(|scope| {
            for t in 0..conc {
                let run_slice = &run_slice;
                scope.spawn(move || {
                    // Thread t owns slices t, t+conc, t+2*conc, ...
                    let mut shard = t;
                    while shard < shards {
                        run_slice(shard);
                        shard += conc;
                    }
                });
            }
        });
    }

    assemble_in_order(platform, &work, &results)
}

/// Robustness knobs of a [`run_sweep_resilient`] run.
#[derive(Debug, Clone, Default)]
pub struct Resilience {
    /// Extra measurement attempts per point after the first one fails.
    /// Retries re-seed the platform's fault plan deterministically
    /// (`seed + attempt`), so transient chaos does not recur identically
    /// while genuinely persistent faults still do.
    pub retries: usize,
    /// Write the sweep-so-far to this JSON file after every completed
    /// size group (a checkpoint only ever contains finalized points).
    pub checkpoint: Option<PathBuf>,
    /// A prior partial sweep (e.g. parsed from a checkpoint): its Ok
    /// points are reused instead of re-measured; Failed and Skipped
    /// points are re-attempted.
    pub resume: Option<Sweep>,
    /// Stop measuring a scheme after this many of its points have
    /// failed; its remaining points are marked Skipped without running.
    /// `None` keeps trying every point.
    pub skip_scheme_after: Option<usize>,
}

/// The platform for a given measurement attempt: attempt 0 runs the plan
/// as configured, retries shift the fault seed so a transient schedule
/// does not repeat verbatim.
fn reseeded(platform: &Platform, attempt: usize) -> Platform {
    let mut p = platform.clone();
    if attempt > 0 {
        if let Some(plan) = &mut p.fault {
            plan.seed = plan.seed.wrapping_add(attempt as u64);
        }
    }
    p
}

/// Run a fault-tolerant sweep: points that keep failing are recorded as
/// [`PointStatus::Failed`] gaps rather than aborting the whole sweep, and
/// progress survives a crash of the harness itself via the optional
/// checkpoint file. Invokes `progress` after each finalized point.
pub fn run_sweep_resilient_with(
    platform: &Platform,
    cfg: &SweepConfig,
    res: &Resilience,
    mut progress: impl FnMut(&SweepPoint),
) -> Sweep {
    let mut points: Vec<SweepPoint> = Vec::new();
    // The sweep total is the sum of per-point counters of the points
    // actually emitted: reused points contribute their checkpointed
    // counters, re-measured points contribute fresh ones — a point is
    // never counted twice across resumes. Checkpoints written before
    // per-point attribution carry zero per-point counters; their prior
    // total survives as an unattributed remainder (which can still
    // double-count re-measured points of such legacy files — that is
    // exactly the bug per-point attribution fixes going forward).
    let mut faults = res
        .resume
        .as_ref()
        .map(|s| {
            let attributed =
                s.points.iter().fold(SweepFaults::default(), |mut a, p| {
                    a.merge(p.faults);
                    a
                });
            s.faults.saturating_sub(&attributed)
        })
        .unwrap_or_default();
    let mut failures = vec![0usize; cfg.schemes.len()];
    for bytes in cfg.sizes() {
        let elems = bytes / Workload::ELEM;
        let w = Workload::every_other(elems);
        let selected = selected_for(platform, &w);
        let pp = cfg.base.clone().adaptive(bytes);
        let mut group: Vec<SweepPoint> = Vec::with_capacity(cfg.schemes.len());
        for (si, &scheme) in cfg.schemes.iter().enumerate() {
            if let Some(prev) = res
                .resume
                .as_ref()
                .and_then(|s| s.get(scheme, w.msg_bytes()))
                .filter(|p| p.status == PointStatus::Ok)
            {
                faults.merge(prev.faults);
                group.push(*prev);
                continue;
            }
            if res.skip_scheme_after.is_some_and(|limit| failures[si] >= limit) {
                let mut pt = SweepPoint::unmeasured(scheme, w.msg_bytes(), PointStatus::Skipped);
                pt.selected = selected;
                group.push(pt);
                continue;
            }
            let mut measured = None;
            let mut pf = SweepFaults::default();
            for attempt in 0..=res.retries {
                let p = reseeded(platform, attempt);
                match try_run_scheme(&p, scheme, &w, &pp) {
                    Ok(r) => {
                        pf.absorb(r.faults);
                        measured = Some((r.time(), r.bandwidth()));
                        break;
                    }
                    Err(e) => pf.poisoned_peers += e.failures.len() as u64,
                }
            }
            faults.merge(pf);
            group.push(match measured {
                Some((time, bandwidth)) => SweepPoint {
                    scheme,
                    msg_bytes: w.msg_bytes(),
                    time,
                    bandwidth,
                    slowdown: f64::NAN,
                    status: PointStatus::Ok,
                    selected,
                    faults: pf,
                },
                None => {
                    failures[si] += 1;
                    let mut p = SweepPoint::unmeasured(scheme, w.msg_bytes(), PointStatus::Failed);
                    p.selected = selected;
                    p.faults = pf;
                    p
                }
            });
        }
        apply_slowdowns(&mut group);
        for p in group {
            progress(&p);
            points.push(p);
        }
        if let Some(path) = &res.checkpoint {
            let partial = Sweep { platform: platform.id, points: points.clone(), faults };
            if let Err(e) = std::fs::write(path, partial.to_checkpoint_json()) {
                eprintln!("warning: could not write checkpoint {}: {e}", path.display());
            }
        }
    }
    Sweep { platform: platform.id, points, faults }
}

/// [`run_sweep_resilient_with`] without a progress callback.
pub fn run_sweep_resilient(platform: &Platform, cfg: &SweepConfig, res: &Resilience) -> Sweep {
    run_sweep_resilient_with(platform, cfg, res, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonctg_simnet::FaultPlan;

    fn quiet() -> Platform {
        let mut p = Platform::skx_impi();
        p.jitter_sigma = 0.0;
        p
    }

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            schemes: vec![Scheme::Reference, Scheme::Copying, Scheme::VectorType],
            min_bytes: 1 << 10,
            max_bytes: 1 << 14,
            step: 4,
            base: PingPongConfig { reps: 3, flush: false, flush_bytes: 0, verify: true },
        }
    }

    #[test]
    fn sizes_are_geometric() {
        let cfg = tiny_cfg();
        assert_eq!(cfg.sizes(), vec![1024, 4096, 16384]);
    }

    #[test]
    fn sweep_covers_schemes_and_sizes() {
        let sweep = run_sweep(&quiet(), &tiny_cfg());
        assert_eq!(sweep.points.len(), 3 * 3);
        assert_eq!(sweep.sizes(), vec![1024, 4096, 16384]);
        for s in [Scheme::Reference, Scheme::Copying, Scheme::VectorType] {
            assert_eq!(sweep.series(s).len(), 3);
        }
        assert!(sweep.points.iter().all(|p| p.status == PointStatus::Ok));
    }

    #[test]
    fn reference_slowdown_is_one() {
        let sweep = run_sweep(&quiet(), &tiny_cfg());
        for p in sweep.series(Scheme::Reference) {
            assert!((p.slowdown - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn noncontiguous_slowdowns_exceed_one() {
        let sweep = run_sweep(&quiet(), &tiny_cfg());
        for s in [Scheme::Copying, Scheme::VectorType] {
            for p in sweep.series(s) {
                assert!(p.slowdown > 1.0, "{s} at {} bytes: {}", p.msg_bytes, p.slowdown);
            }
        }
    }

    /// Regression: slowdowns must not depend on where Reference sits in
    /// legend order (the old single-pass computation used a stale or
    /// missing reference time when Reference was not first).
    #[test]
    fn slowdowns_independent_of_reference_position() {
        let mut last_cfg = tiny_cfg();
        last_cfg.schemes = vec![Scheme::Copying, Scheme::VectorType, Scheme::Reference];
        let canonical = run_sweep(&quiet(), &tiny_cfg());
        let reordered = run_sweep(&quiet(), &last_cfg);
        for p in &reordered.points {
            let q = canonical.get(p.scheme, p.msg_bytes).unwrap();
            assert!(p.slowdown.is_finite(), "{} @ {}: NaN slowdown", p.scheme, p.msg_bytes);
            assert_eq!(p.slowdown, q.slowdown, "{} @ {}", p.scheme, p.msg_bytes);
        }
        for p in reordered.series(Scheme::Reference) {
            assert!((p.slowdown - 1.0).abs() < 1e-12);
        }
    }

    /// Without Reference in the scheme set, slowdowns are NaN — never a
    /// stale value carried over from another size or scheme.
    #[test]
    fn missing_reference_yields_nan_slowdowns() {
        let mut cfg = tiny_cfg();
        cfg.schemes = vec![Scheme::Copying, Scheme::VectorType];
        for sweep in [run_sweep(&quiet(), &cfg), run_sweep_parallel(&quiet(), &cfg, 4)] {
            assert_eq!(sweep.points.len(), 6);
            for p in &sweep.points {
                assert_eq!(p.status, PointStatus::Ok);
                assert!(p.time.is_finite());
                assert!(p.slowdown.is_nan(), "{} @ {}: {}", p.scheme, p.msg_bytes, p.slowdown);
            }
        }
    }

    #[test]
    fn progress_callback_fires_per_point() {
        let mut n = 0;
        run_sweep_with(&quiet(), &tiny_cfg(), |_| n += 1);
        assert_eq!(n, 9);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        // Reference deliberately NOT first: the parallel assembly must
        // agree with the sequential path anyway.
        let mut cfg = tiny_cfg();
        cfg.schemes = vec![Scheme::Copying, Scheme::Reference, Scheme::VectorType];
        let seq = run_sweep(&quiet(), &cfg);
        let par = run_sweep_parallel(&quiet(), &cfg, 4);
        assert_eq!(seq.points.len(), par.points.len());
        for (a, b) in seq.points.iter().zip(par.points.iter()) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.msg_bytes, b.msg_bytes);
            assert_eq!(a.time, b.time, "{} @ {}", a.scheme, a.msg_bytes);
            assert_eq!(a.slowdown, b.slowdown);
            assert_eq!(a.status, b.status);
        }
    }

    #[test]
    fn sharded_sweep_matches_sequential_bit_for_bit() {
        // Reference deliberately NOT first, and a shard count that does
        // not divide the work list evenly.
        let mut cfg = tiny_cfg();
        cfg.schemes = vec![Scheme::Copying, Scheme::Reference, Scheme::VectorType];
        let seq = run_sweep(&quiet(), &cfg);
        for shards in [2, 4, 7] {
            let sh = run_sweep_sharded(&quiet(), &cfg, shards);
            assert_eq!(seq.points.len(), sh.points.len());
            for (a, b) in seq.points.iter().zip(sh.points.iter()) {
                assert_eq!(a.scheme, b.scheme);
                assert_eq!(a.msg_bytes, b.msg_bytes);
                assert_eq!(
                    a.time.to_bits(),
                    b.time.to_bits(),
                    "{} @ {} ({shards} shards)",
                    a.scheme,
                    a.msg_bytes
                );
                assert_eq!(a.bandwidth.to_bits(), b.bandwidth.to_bits());
                assert_eq!(a.slowdown.to_bits(), b.slowdown.to_bits());
                assert_eq!(a.status, b.status);
            }
        }
    }

    /// The recorded datapath is a pure function of (platform, layout,
    /// size): identical across serial/sharded/resilient runners, Pack for
    /// the paper's 8-byte-region workload, and pinned by a forced engine.
    #[test]
    fn selected_engine_is_pure_and_tracks_forcing() {
        let seq = run_sweep(&quiet(), &tiny_cfg());
        // Every-other f64 regions are 8 bytes: far under every
        // platform's iovec crossover, so the selector keeps pack.
        assert!(seq.points.iter().all(|p| p.selected == Datapath::Pack), "{:?}", seq.points);
        let sh = run_sweep_sharded(&quiet(), &tiny_cfg(), 3);
        let res = run_sweep_resilient(&quiet(), &tiny_cfg(), &Resilience::default());
        for ((a, b), c) in seq.points.iter().zip(sh.points.iter()).zip(res.points.iter()) {
            assert_eq!(a.selected, b.selected);
            assert_eq!(a.selected, c.selected);
        }
        let forced = run_sweep(&quiet().with_datapath(Datapath::Iov), &tiny_cfg());
        assert!(forced.points.iter().all(|p| p.selected == Datapath::Iov));
    }

    #[test]
    fn bandwidth_grows_with_size_for_reference() {
        let sweep = run_sweep(&quiet(), &tiny_cfg());
        let series = sweep.series(Scheme::Reference);
        assert!(series.last().unwrap().bandwidth > series.first().unwrap().bandwidth);
    }

    /// A persistent fault on one (rank, size band) marks exactly the
    /// affected points Failed — the sweep completes, with gaps.
    #[test]
    fn resilient_sweep_marks_persistent_faults_failed() {
        // Pings of 1024 payload bytes from rank 0 always fail; pongs are
        // zero-byte so the other sizes are untouched.
        let p = quiet().with_fault_plan(FaultPlan::quiet(5).with_persistent_failure(0, 1, 2048));
        let mut cfg = tiny_cfg();
        cfg.schemes = vec![Scheme::Reference, Scheme::Copying];
        let res = Resilience { retries: 1, ..Resilience::default() };
        let sweep = run_sweep_resilient(&p, &cfg, &res);
        assert_eq!(sweep.points.len(), 6);
        for point in &sweep.points {
            if point.msg_bytes <= 2048 {
                assert_eq!(point.status, PointStatus::Failed, "{point:?}");
                assert!(point.time.is_nan() && point.slowdown.is_nan());
                assert_eq!(point.bandwidth, 0.0);
            } else {
                assert_eq!(point.status, PointStatus::Ok, "{point:?}");
                assert!(point.time.is_finite());
            }
        }
    }

    /// Resume re-runs only the points missing or failed in the prior
    /// sweep; Ok points are reused verbatim without re-measuring. Reused
    /// points carry a sentinel time, so any re-measured point is
    /// detectable — the test counts exactly which points re-executed.
    #[test]
    fn resume_reruns_only_missing_points() {
        const SENTINEL: f64 = 1e9;
        let platform = quiet();
        let cfg = tiny_cfg();
        let full = run_sweep_resilient(&platform, &cfg, &Resilience::default());

        // Prior run: drop one size group entirely, fail one point, and
        // stamp everything that remains Ok with the sentinel.
        let mut prior = full.clone();
        prior.points.retain(|p| p.msg_bytes != 4096);
        let fail_at = prior
            .points
            .iter()
            .position(|p| p.scheme == Scheme::VectorType && p.msg_bytes == 1024)
            .unwrap();
        prior.points[fail_at] =
            SweepPoint::unmeasured(Scheme::VectorType, 1024, PointStatus::Failed);
        for p in &mut prior.points {
            if p.status == PointStatus::Ok {
                p.time = SENTINEL;
            }
        }

        let res = Resilience { resume: Some(prior), ..Resilience::default() };
        let resumed = run_sweep_resilient(&platform, &cfg, &res);

        assert_eq!(resumed.points.len(), full.points.len());
        let reexecuted: Vec<(Scheme, usize)> = resumed
            .points
            .iter()
            .filter(|p| p.time != SENTINEL)
            .map(|p| (p.scheme, p.msg_bytes))
            .collect();
        let expected: Vec<(Scheme, usize)> = full
            .points
            .iter()
            .filter(|p| p.msg_bytes == 4096 || (p.scheme == Scheme::VectorType && p.msg_bytes == 1024))
            .map(|p| (p.scheme, p.msg_bytes))
            .collect();
        assert_eq!(reexecuted, expected, "wrong set of points re-executed");
        // Re-measured points agree bit-for-bit with the uninterrupted
        // run (the simulator is deterministic); all points come back Ok.
        for (a, b) in resumed.points.iter().zip(full.points.iter()) {
            assert_eq!(a.status, PointStatus::Ok);
            if a.time != SENTINEL {
                assert_eq!(a.time, b.time, "{} @ {}", a.scheme, a.msg_bytes);
            }
        }
    }

    /// The resume path must not re-measure reused points: give the resumed
    /// sweep doctored times and verify they survive verbatim.
    #[test]
    fn resume_does_not_remeasure_ok_points() {
        let platform = quiet();
        let mut cfg = tiny_cfg();
        cfg.schemes = vec![Scheme::Reference, Scheme::Copying];
        let mut prior = run_sweep_resilient(&platform, &cfg, &Resilience::default());
        for p in &mut prior.points {
            p.time = 42.0;
            p.bandwidth = 7.0;
        }
        let res = Resilience { resume: Some(prior), ..Resilience::default() };
        let resumed = run_sweep_resilient(&platform, &cfg, &res);
        for p in &resumed.points {
            assert_eq!(p.time, 42.0, "{} @ {} was re-measured", p.scheme, p.msg_bytes);
            assert_eq!(p.bandwidth, 7.0);
            // Slowdowns are recomputed from the (doctored) group times.
            assert_eq!(p.slowdown, 1.0);
        }
    }

    /// Checkpoints are written after every size group and the final file
    /// round-trips through the resume path.
    #[test]
    fn checkpoint_file_tracks_progress_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("nonctg-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let platform = quiet();
        let mut cfg = tiny_cfg();
        cfg.schemes = vec![Scheme::Reference, Scheme::Copying];
        let res = Resilience { checkpoint: Some(path.clone()), ..Resilience::default() };
        let sweep = run_sweep_resilient(&platform, &cfg, &res);

        let text = std::fs::read_to_string(&path).unwrap();
        let back = Sweep::from_checkpoint_json(&text).unwrap();
        assert_eq!(back.points.len(), sweep.points.len());
        for (a, b) in back.points.iter().zip(sweep.points.iter()) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.msg_bytes, b.msg_bytes);
            assert_eq!(a.time, b.time);
            assert_eq!(a.status, b.status);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    /// skip_scheme_after stops burning retries on a scheme that keeps
    /// failing: later sizes of that scheme come back Skipped.
    #[test]
    fn failing_scheme_is_skipped_after_budget() {
        // Rank 0's sends of any size always fail → every scheme's pings
        // fail, every point of every scheme fails or is skipped.
        let p = quiet()
            .with_fault_plan(FaultPlan::quiet(9).with_persistent_failure(0, 1, u64::MAX));
        let mut cfg = tiny_cfg();
        cfg.schemes = vec![Scheme::Copying];
        let res = Resilience { skip_scheme_after: Some(1), ..Resilience::default() };
        let sweep = run_sweep_resilient(&p, &cfg, &res);
        let series = sweep.series(Scheme::Copying);
        assert_eq!(series[0].status, PointStatus::Failed);
        assert!(series[1..].iter().all(|pt| pt.status == PointStatus::Skipped), "{series:?}");
    }

    /// Resume must not double-count fault counters of re-measured points.
    /// A persistently failing point fails again (deterministically) on
    /// every resume; its poisoned-peer count must replace the prior
    /// attempt's contribution, not add to it — resuming a finished sweep
    /// any number of times reports the totals of the uninterrupted run.
    #[test]
    fn resume_twice_keeps_fault_totals_idempotent() {
        let p = quiet().with_fault_plan(
            FaultPlan::quiet(5).with_persistent_failure(0, 1, 2048).with_delays(0.3, 1e-6),
        );
        let mut cfg = tiny_cfg();
        cfg.schemes = vec![Scheme::Reference, Scheme::Copying];
        let full = run_sweep_resilient(&p, &cfg, &Resilience::default());
        assert!(full.faults.poisoned_peers > 0, "persistent failure must poison: {:?}", full.faults);
        // Totals are exactly the sum of per-point attributions.
        let attributed = full.points.iter().fold(SweepFaults::default(), |mut a, pt| {
            a.merge(pt.faults);
            a
        });
        assert_eq!(full.faults, attributed);

        let res = Resilience { resume: Some(full.clone()), ..Resilience::default() };
        let once = run_sweep_resilient(&p, &cfg, &res);
        assert_eq!(once.faults, full.faults, "first resume inflated fault totals");
        let res = Resilience { resume: Some(once), ..Resilience::default() };
        let twice = run_sweep_resilient(&p, &cfg, &res);
        assert_eq!(twice.faults, full.faults, "second resume inflated fault totals");
    }

    /// A crash mid-sweep leaves a checkpoint holding only the finished
    /// size groups (and exactly their fault counters). Resuming must end
    /// with the same totals as the uninterrupted run.
    #[test]
    fn resume_after_mid_sweep_crash_reports_exact_fault_totals() {
        let p = quiet().with_fault_plan(
            FaultPlan::quiet(77).with_send_failures(0.05).with_delays(0.2, 5e-6),
        );
        let res = Resilience { retries: 2, ..Resilience::default() };
        let full = run_sweep_resilient(&p, &tiny_cfg(), &res);
        assert!(!full.faults.is_zero());

        // Simulate the crash: keep only the first size group, with the
        // fault totals a per-group checkpoint would have recorded there.
        let mut prior = full.clone();
        prior.points.retain(|pt| pt.msg_bytes == 1024);
        prior.faults = prior.points.iter().fold(SweepFaults::default(), |mut a, pt| {
            a.merge(pt.faults);
            a
        });
        let res = Resilience { retries: 2, resume: Some(prior), ..Resilience::default() };
        let resumed = run_sweep_resilient(&p, &tiny_cfg(), &res);
        assert_eq!(resumed.faults, full.faults);
        for (a, b) in resumed.points.iter().zip(full.points.iter()) {
            assert_eq!(a.faults, b.faults, "{} @ {}", a.scheme, a.msg_bytes);
        }
    }

    /// The same fault seed produces bit-identical resilient sweeps.
    #[test]
    fn resilient_sweep_deterministic_for_same_seed() {
        let run = || {
            let p = quiet().with_fault_plan(
                FaultPlan::quiet(77).with_send_failures(0.05).with_delays(0.05, 5e-6),
            );
            let res = Resilience { retries: 2, ..Resilience::default() };
            run_sweep_resilient(&p, &tiny_cfg(), &res)
        };
        let a = run();
        let b = run();
        assert_eq!(a.points.len(), b.points.len());
        for (x, y) in a.points.iter().zip(b.points.iter()) {
            assert_eq!(x.scheme, y.scheme);
            assert_eq!(x.msg_bytes, y.msg_bytes);
            assert_eq!(x.status, y.status);
            assert!(
                x.time == y.time || (x.time.is_nan() && y.time.is_nan()),
                "{} @ {}: {} vs {}",
                x.scheme,
                x.msg_bytes,
                x.time,
                y.time
            );
        }
    }
}
