//! `paper_sweep`: what a `figures` user pays. All eight schemes at four
//! sizes through `nonctg_schemes::run_scheme`, each call spinning up its
//! own universe and buffers, flush and verify on.
//!
//! A rep is one pass over the 32 points; a sample is one call's wall time
//! divided by its ping-pongs. The sweep takes no seeded input: the schemes
//! crate generates its own source arrays, as it does for `figures`.

use std::time::Instant;

use nonctg_core::{CoreError, EventKind, FaultStats};
use nonctg_schemes::{
    try_run_scheme, try_run_scheme_observed, Observe, PingPongConfig, Scheme, Workload,
};

use crate::pingpong::{self, Block, Digest, Inputs, Measured};
use crate::spans::Spans;
use crate::spec::{platform, Plan, SWEEP_BYTES};
use crate::stats::{mix_slot, ns32, reduce, reduce_mix};

/// The 32 `(scheme, payload bytes)` points of one pass.
pub fn points() -> Vec<(Scheme, usize)> {
    SWEEP_BYTES
        .iter()
        .flat_map(|&b| Scheme::ALL.into_iter().map(move |s| (s, b)))
        .collect()
}

fn config(bytes: usize) -> PingPongConfig {
    PingPongConfig::default().adaptive(bytes)
}

#[derive(Default)]
struct Passes {
    work: Vec<u32>,
    refs: Vec<u32>,
    bytes: u64,
    wall_ref: f64,
    wall_other: f64,
    virt: f64,
    virt_n: usize,
    digest: Digest,
}

struct Tally {
    attempted: u64,
    failed: u64,
    faults: FaultStats,
}

/// One pass; `spans` wraps every `run_scheme` call in a span.
fn pass(acc: &mut Passes, tally: &mut Tally, mut spans: Option<&mut Spans>) {
    let p = platform();
    for (scheme, bytes) in points() {
        let (cfg, w) = (config(bytes), Workload::every_other(bytes / 8));
        let t0 = Instant::now();
        let res = match spans.as_deref_mut() {
            Some(s) => s.time("run_scheme", || try_run_scheme(&p, scheme, &w, &cfg)),
            None => try_run_scheme(&p, scheme, &w, &cfg),
        };
        let wall = t0.elapsed();
        tally.attempted += cfg.reps as u64;
        // A failed point keeps its place among the samples (the run is
        // reported incorrect anyway), so each point's samples stay aligned.
        let sample = ns32(wall / cfg.reps as u32);
        acc.work.push(sample);
        acc.bytes += bytes as u64;
        let Ok(res) = res else {
            tally.failed += cfg.reps as u64;
            continue;
        };
        tally.faults.absorb(res.faults);
        if scheme == Scheme::Reference {
            acc.refs.push(sample);
            acc.wall_ref += wall.as_secs_f64();
        } else {
            acc.wall_other += wall.as_secs_f64();
        }
        for t in &res.times {
            acc.virt += t;
            acc.digest.push(t.to_bits());
        }
        acc.virt_n += res.times.len();
    }
}

fn block(
    passes: usize,
    tally: &mut Tally,
    pooled: &mut Vec<u32>,
    mut spans: Option<&mut Spans>,
) -> Block {
    let mut acc = Passes::default();
    for _ in 0..passes {
        pass(&mut acc, tally, spans.as_deref_mut());
    }
    pooled.extend_from_slice(&acc.work);
    let others = (Scheme::ALL.len() - 1) as f64;
    // Samples arrive pass by pass; `reduce_mix` wants them point by point.
    let (n, shapes) = (acc.work.len(), points().len());
    let mut by_point = vec![0u32; n];
    for (j, s) in acc.work.iter().enumerate() {
        by_point[mix_slot(j, n, shapes)] = *s;
    }
    Block {
        work: reduce_mix(&mut by_point, shapes),
        reference: reduce(&mut acc.refs),
        bytes: acc.bytes,
        slowdown: acc.wall_other / (others * acc.wall_ref),
        virt_mean: acc.virt / acc.virt_n as f64,
        virt_digest: acc.digest.0,
    }
}

/// Event and send counts of one pass with `Comm::enable_trace` and
/// `enable_metrics` on: `(ping-pongs, events by kind, sends, send bytes)`.
fn harvest() -> (usize, [u64; EventKind::COUNT], u64, u64) {
    let p = platform();
    let (mut reps, mut events, mut sends, mut send_bytes) = (0, [0u64; EventKind::COUNT], 0, 0);
    for (scheme, bytes) in points() {
        let cfg = config(bytes);
        let Ok(run) = try_run_scheme_observed(
            &p,
            scheme,
            &Workload::every_other(bytes / 8),
            &cfg,
            Observe::ALL,
        ) else {
            continue;
        };
        reps += cfg.reps;
        for ev in run.events.iter().flatten() {
            events[ev.kind as usize] += 1;
        }
        if let Some(m) = run.metrics {
            sends += m.ops_of(EventKind::Send);
            send_bytes += m.bytes_of(EventKind::Send);
        }
    }
    (reps, events, sends, send_bytes)
}

/// Run the sweep once: warm-up passes, then the plan's blocks.
///
/// The traced pass wraps every `run_scheme` call of one more block in a
/// span. `run_scheme`'s own sends cannot be timed from outside it, so the
/// `core.*` call timers of the traced pass come from a vector-type
/// ping-pong over the sweep's four sizes in one universe.
pub fn run(seed: u64, plan: &Plan, epoch: Instant) -> Result<Measured, CoreError> {
    let t_setup = Instant::now();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        faults: FaultStats::default(),
    };
    let mut warm = Passes::default();
    for _ in 0..plan.warm_reps {
        pass(&mut warm, &mut tally, None);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (cache0, sel0) = (
        nonctg_datatype::cache_stats(),
        nonctg_core::selector_counters(),
    );
    let mut pooled = Vec::with_capacity(plan.blocks * plan.block_reps * points().len());
    let blocks: Vec<Block> = (0..plan.blocks)
        .map(|_| block(plan.block_reps, &mut tally, &mut pooled, None))
        .collect();
    let cache = nonctg_datatype::cache_stats().delta_since(cache0);
    let selector = nonctg_core::selector_counters().delta_since(&sel0);

    let traced = if plan.trace {
        let mut spans = Spans::new(epoch, 0, plan.block_reps * points().len());
        let traced_block = block(
            plan.block_reps,
            &mut tally,
            &mut Vec::new(),
            Some(&mut spans),
        );
        let sizes: Vec<usize> = SWEEP_BYTES.iter().map(|b| b / 8).collect();
        let probe_plan = Plan {
            blocks: 0,
            block_reps: 2_000,
            warm_reps: 200,
            setups: 1,
            trace: true,
        };
        let probe = pingpong::run_inputs(
            &Inputs::vectors(&sizes, seed)?,
            &probe_plan,
            Instant::now(),
            epoch,
        )?;
        tally.attempted += probe.attempted;
        tally.failed += probe.failed;
        let mut t = probe.traced.expect("the probe plan is traced");
        t.block = traced_block;
        (t.harvest_reps, t.events, t.lib_sends, t.lib_send_bytes) = harvest();
        spans.v.append(&mut t.spans);
        t.spans = spans.v;
        Some(t)
    } else {
        None
    };
    Ok(Measured {
        setup_s,
        blocks,
        pooled,
        attempted: tally.attempted,
        failed: tally.failed,
        cache,
        selector,
        faults: tally.faults,
        traced,
    })
}
