//! The per-layer numbers of the traced pass. A layer is a crate; every
//! timing here is the median of calls into that crate's public functions,
//! timed from this file, on the workload's own message shapes. Where a
//! workload cycles through several shapes the value is their mean — the
//! per-message average of a round.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nonctg_core::selector::{choose_shape, RegionShape};
use nonctg_core::{iov_max_regions, EventKind, Universe};
use nonctg_datatype::{pack_into, plan_for, unpack_from, Datatype, PackPlan};
use nonctg_schemes::{run_scheme, AppKernel, KernelWorkload, PingPongConfig, Scheme, Workload};
use nonctg_simnet::Access;

use crate::gen;
use crate::pingpong::{every_other, Measured};
use crate::spans::Spans;
use crate::spec::{platform, Kind, DDT_BYTES, SWEEP_BYTES};
use crate::stats::{cv_pct, median};

/// Every per-layer metric: `(name, unit, better)`. `BENCHMARK.json` lists
/// the same names; `tests/contract.rs` keeps the two in step.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("datatype.build_ns", "ns", "lower"),
    ("datatype.commit_ns", "ns", "lower"),
    ("datatype.normalize_ns", "ns", "lower"),
    ("datatype.plan_compile_ns", "ns", "lower"),
    ("datatype.plan_lookup_ns", "ns", "lower"),
    ("datatype.iovec_lower_ns", "ns", "lower"),
    ("datatype.pack_ns", "ns", "lower"),
    ("datatype.unpack_ns", "ns", "lower"),
    ("datatype.pack_gbps", "GB/s", "higher"),
    ("datatype.unpack_gbps", "GB/s", "higher"),
    ("datatype.pack_roofline_pct", "%", "higher"),
    ("datatype.unpack_roofline_pct", "%", "higher"),
    ("datatype.plan_ops", "count", "lower"),
    ("datatype.regions", "count", "lower"),
    ("datatype.plan_cache_hit_ratio", "ratio", "higher"),
    ("datatype.norm_hit_ratio", "ratio", "higher"),
    ("simnet.classify_ns", "ns", "lower"),
    ("simnet.platform_clone_ns", "ns", "lower"),
    ("simnet.virt_rtt_us", "us", "lower"),
    ("simnet.virt_digest48", "count", "lower"),
    ("core.send_call_ns", "ns", "lower"),
    ("core.recv_call_ns", "ns", "lower"),
    ("core.wire_rtt_ns", "ns", "lower"),
    ("core.ref_rtt_us", "us", "lower"),
    ("core.p2p_self_ns", "ns", "lower"),
    ("core.pack_call_ns", "ns", "lower"),
    ("core.unpack_call_ns", "ns", "lower"),
    ("core.selector_ns", "ns", "lower"),
    ("core.universe_spawn_us", "us", "lower"),
    ("core.msgs", "count", "lower"),
    ("core.payload_bytes", "B", "lower"),
    ("core.chunks_per_msg", "count", "lower"),
    ("core.trace_events_per_msg", "count", "lower"),
    ("core.iov_selected_ratio", "ratio", "higher"),
    ("core.demotions", "count", "lower"),
    ("core.failed_ops", "count", "lower"),
    ("schemes.point_wall_us", "us", "lower"),
    ("schemes.spinup_share_pct", "%", "lower"),
    ("schemes.verify_share_pct", "%", "lower"),
    ("bench.timer_ns", "ns", "lower"),
    ("bench.memcpy_gbps", "GB/s", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.block_cv_pct", "%", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.span_count", "count", "higher"),
];

/// Per-layer counts that must repeat exactly between two runs of one seed.
pub const EXACT: [&str; 9] = [
    "core.msgs",
    "core.payload_bytes",
    "core.chunks_per_msg",
    "core.trace_events_per_msg",
    "core.iov_selected_ratio",
    "datatype.plan_ops",
    "datatype.regions",
    "datatype.plan_cache_hit_ratio",
    "simnet.virt_digest48",
];

/// Median ns of `f(prep())`, timing `f` alone. The first call warms up and
/// sizes the sample so the whole thing takes about `budget`; sample counts
/// never feed a reported count.
fn med_ns_fresh<T>(budget: Duration, mut prep: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut one = || {
        let x = prep();
        let t0 = Instant::now();
        f(x);
        t0.elapsed().as_nanos() as f64
    };
    let t_all = Instant::now();
    one();
    let est = (t_all.elapsed().as_nanos() as f64).max(1.0);
    let n = ((budget.as_nanos() as f64 / est) as usize).clamp(1, 4001) | 1;
    let samples: Vec<f64> = (0..n).map(|_| one()).collect();
    median(&samples)
}

/// Median ns per call of `f`, timed in batches of `batch` calls so that
/// calls shorter than the timer still resolve.
fn med_ns(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let batched = |()| (0..batch).for_each(|_| f());
    med_ns_fresh(budget, || (), batched) / batch as f64
}

const MICRO: Duration = Duration::from_millis(20);
const MACRO: Duration = Duration::from_millis(120);

/// One message shape the layers are timed on.
#[derive(Clone, Copy)]
enum Shape {
    /// `vector(n,1,2,f64)`.
    Vector(usize),
    /// A ddtbench layout at [`DDT_BYTES`].
    Kernel(AppKernel),
}

impl Shape {
    /// A fresh type. The layout constructors commit internally, so for a
    /// kernel `datatype.build_ns` includes the commit and
    /// `datatype.commit_ns` is the idempotent second commit.
    fn make(self) -> Datatype {
        match self {
            Shape::Vector(n) => every_other(n).expect("vector type"),
            Shape::Kernel(k) => KernelWorkload::sized(k, DDT_BYTES).dtype,
        }
    }

    /// `(payload, buffer)` bytes of one message.
    fn sizes(self) -> (usize, usize) {
        match self {
            Shape::Vector(n) => (n * 8, n * 16),
            Shape::Kernel(k) => {
                let w = KernelWorkload::sized(k, DDT_BYTES);
                (w.msg_bytes, w.extent)
            }
        }
    }
}

fn shapes(kind: Kind, seed: u64) -> Vec<Shape> {
    match kind {
        Kind::Vector { n } => vec![Shape::Vector(n)],
        Kind::DdtGather | Kind::DdtScatter => gen::kernel_order(seed).map(Shape::Kernel).to_vec(),
        Kind::TypeChurn => vec![
            Shape::Vector(*gen::CHURN_COUNTS.start()),
            Shape::Vector(*gen::CHURN_COUNTS.end()),
        ],
        Kind::PaperSweep => SWEEP_BYTES.iter().map(|b| Shape::Vector(b / 8)).collect(),
    }
}

/// Timings and counts of one case.
#[derive(Default, Clone, Copy)]
struct CaseNumbers {
    build: f64,
    commit: f64,
    normalize: f64,
    compile: f64,
    lookup: f64,
    lower: f64,
    pack: f64,
    unpack: f64,
    memcpy: f64,
    classify: f64,
    selector: f64,
    pack_call: f64,
    unpack_call: f64,
    plan_ops: f64,
    regions: f64,
    payload: f64,
}

fn measure_case(c: Shape, seed: u64, spans: &mut Spans) -> CaseNumbers {
    let (payload, extent) = c.sizes();
    let mut n = CaseNumbers {
        payload: payload as f64,
        ..Default::default()
    };
    let p = platform();

    n.build = med_ns(MACRO, 1, || drop(black_box(c.make())));
    // A type is committed (and normalised) for the first time only once,
    // so each call gets a fresh one, made outside the timer.
    n.commit = med_ns_fresh(MACRO, || c.make(), |t| drop(black_box(t.commit())));
    n.normalize = med_ns_fresh(
        MACRO,
        || c.make().commit(),
        |t| {
            black_box(t.normalized_id());
        },
    );
    let fresh = spans.time("Datatype::build", || c.make());
    let t = spans.time("Datatype::commit", || fresh.commit());
    n.compile = med_ns(MACRO, 1, || {
        drop(black_box(PackPlan::compile(&t.normalized(), 1)))
    });
    let plan = spans
        .time("plan_for", || plan_for(&t, 1))
        .expect("every workload type compiles to a plan");
    n.lookup = med_ns(MICRO, 64, || drop(black_box(plan_for(black_box(&t), 1))));
    let cap = iov_max_regions();
    n.lower = med_ns(MICRO, 1, || drop(black_box(plan.regions(cap))));
    n.plan_ops = plan.op_count() as f64;
    let regions = plan.regions(usize::MAX);
    n.regions = regions.as_ref().map_or(0.0, |r| r.len() as f64);
    n.classify = med_ns(MICRO, 64, || {
        black_box(Access::classify(black_box(&t)));
    });
    let shape = plan
        .regions(cap)
        .map(|r| RegionShape::of(&r, p.mem.cacheline));
    n.selector = med_ns(MICRO, 64, || {
        black_box(choose_shape(
            p.id,
            black_box(payload as u64),
            black_box(shape),
        ));
    });

    let mut src = vec![0u8; extent];
    gen::fill(&mut src, seed, 0);
    let mut packed = vec![0u8; payload];
    let mut copy = vec![0u8; payload];
    spans
        .time("pack_into", || pack_into(&src, 0, &t, 1, &mut packed))
        .expect("pack");
    n.pack = med_ns(MACRO, 1, || {
        black_box(pack_into(black_box(&src), 0, &t, 1, &mut packed)).expect("pack");
    });
    spans
        .time("unpack_from", || unpack_from(&packed, &t, 1, &mut src, 0))
        .expect("unpack");
    n.unpack = med_ns(MACRO, 1, || {
        black_box(unpack_from(black_box(&packed), &t, 1, &mut src, 0)).expect("unpack");
    });
    n.memcpy = med_ns(MACRO, 1, || {
        black_box(&mut copy).copy_from_slice(black_box(&packed))
    });

    // `Comm::pack`/`unpack` need a communicator: a one-rank universe.
    (n.pack_call, n.unpack_call) = Universe::run(p, 1, |comm| {
        let (mut src, mut out) = (src.clone(), vec![0u8; payload]);
        let pack = med_ns(MACRO, 1, || {
            comm.pack(&src, 0, &t, 1, &mut out, &mut 0)
                .expect("Comm::pack");
        });
        let unpack = med_ns(MACRO, 1, || {
            comm.unpack(&out, &mut 0, &t, 1, &mut src, 0)
                .expect("Comm::unpack");
        });
        (pack, unpack)
    })
    .pop()
    .expect("one rank");
    n
}

fn mean(cases: &[CaseNumbers], f: impl Fn(&CaseNumbers) -> f64) -> f64 {
    cases.iter().map(f).sum::<f64>() / cases.len() as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Measure every per-layer metric of `kind`, in [`PER_LAYER`] order. `m`
/// must come from a traced run; the spans recorded here join its own.
pub fn measure(kind: Kind, seed: u64, m: &mut Measured, epoch: Instant) -> Vec<f64> {
    let mut spans = Spans::new(epoch, 0, 64);
    let shapes = shapes(kind, seed);
    let per_case: Vec<CaseNumbers> = shapes
        .iter()
        .map(|&c| measure_case(c, seed, &mut spans))
        .collect();
    let avg = |f: fn(&CaseNumbers) -> f64| mean(&per_case, f);
    let gbps = |ns: fn(&CaseNumbers) -> f64| mean(&per_case, |c| c.payload / ns(c));

    let p = platform();
    let clone_ns = med_ns(MICRO, 64, || {
        black_box(black_box(&p).clone());
    });
    let timer_ns = med_ns(MICRO, 64, || {
        black_box(Instant::now().elapsed());
    });
    spans.time("Universe::run_pair", || {
        Universe::run_pair(platform(), |_| ())
    });
    let spawn_ns = med_ns(MACRO, 1, || {
        Universe::run_pair(platform(), |_| ());
    });
    let (mid, _) = shapes[shapes.len() / 2].sizes();
    let w = Workload::every_other(mid / 8);
    let cfg = PingPongConfig::default().adaptive(mid);
    spans.time("run_scheme", || {
        run_scheme(&p, Scheme::VectorType, &w, &cfg)
    });
    let point_ns = med_ns(MACRO, 1, || {
        drop(run_scheme(&p, Scheme::VectorType, &w, &cfg))
    });
    let unverified = PingPongConfig {
        verify: false,
        ..cfg.clone()
    };
    let point_unverified_ns = med_ns(MACRO, 1, || {
        drop(run_scheme(&p, Scheme::VectorType, &w, &unverified))
    });

    let t = m
        .traced
        .as_mut()
        .expect("per-layer metrics come from the traced pass");
    t.spans.append(&mut spans.v);
    let plain_p50: Vec<f64> = m.blocks.iter().map(|b| b.work.p50).collect();
    let untraced_p50 = median(&plain_p50);
    let (pack_ns, memcpy_gbps) = (avg(|c| c.pack), gbps(|c| c.memcpy));
    let (pack_gbps, unpack_gbps) = (gbps(|c| c.pack), gbps(|c| c.unpack));
    // Only a derived send packs inside `Comm::send`. Self time subtracts a
    // mean over shapes, so it starts from the mean of the calls too.
    let packs_in_send = !matches!(kind, Kind::DdtScatter);
    let reps = t.harvest_reps as f64;
    let lookups = m.cache.hits + m.cache.misses;
    let norm_lookups = m.cache.norm_hits + m.cache.norm_misses;

    let values = vec![
        avg(|c| c.build),
        avg(|c| c.commit),
        avg(|c| c.normalize),
        avg(|c| c.compile),
        avg(|c| c.lookup),
        avg(|c| c.lower),
        pack_ns,
        avg(|c| c.unpack),
        pack_gbps,
        unpack_gbps,
        100.0 * pack_gbps / memcpy_gbps,
        100.0 * unpack_gbps / memcpy_gbps,
        avg(|c| c.plan_ops),
        avg(|c| c.regions),
        ratio(m.cache.hits, lookups),
        ratio(m.cache.norm_hits, norm_lookups),
        avg(|c| c.classify),
        clone_ns,
        t.block.virt_mean * 1e6,
        (t.block.virt_digest & ((1 << 48) - 1)) as f64,
        t.send_call.p50,
        t.recv_call.p50,
        t.wire.p50,
        t.block.reference.p50 / 1e3,
        t.send_call.mean - if packs_in_send { pack_ns } else { 0.0 },
        avg(|c| c.pack_call),
        avg(|c| c.unpack_call),
        avg(|c| c.selector),
        spawn_ns / 1e3,
        t.lib_sends as f64,
        t.lib_send_bytes as f64,
        t.events[EventKind::Chunk as usize] as f64 / 2.0 / reps,
        t.events.iter().sum::<u64>() as f64 / reps,
        ratio(m.selector.iov, m.selector.total()),
        m.faults.demotions() as f64,
        m.failed as f64,
        point_ns / 1e3,
        100.0 * spawn_ns / point_ns,
        100.0 * (point_ns - point_unverified_ns) / point_ns,
        timer_ns,
        memcpy_gbps,
        100.0 * (t.block.work.p50 - untraced_p50) / untraced_p50,
        cv_pct(&plain_p50),
        t.block.work.n as f64,
        t.spans.len() as f64,
    ];
    assert_eq!(values.len(), PER_LAYER.len());
    values
}
