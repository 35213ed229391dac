//! The repo's benchmark: six workloads, six end-to-end metrics, and a
//! measurement protocol that repeats. See `README.md` for what is measured
//! and why, and `../BENCHMARK.json` for the contract with the driver.
//!
//! It touches no product code: everything is timed through the public
//! functions of `nonctg-datatype`, `nonctg-simnet`, `nonctg-core` and
//! `nonctg-schemes`, from this package's own files.

#![warn(missing_docs)]

pub mod env;
pub mod gen;
pub mod layers;
pub mod pingpong;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sweep;

use std::time::Instant;

use nonctg_core::CoreError;

use pingpong::Measured;
use report::Outcome;
use spec::{Kind, Plan, Workload};

fn run_kind(kind: Kind, seed: u64, plan: &Plan, epoch: Instant) -> Result<Measured, CoreError> {
    match kind {
        Kind::PaperSweep => sweep::run(seed, plan, epoch),
        _ => pingpong::run(kind, seed, plan, epoch),
    }
}

/// One run of one workload and everything it measured.
#[derive(Debug, Clone)]
pub struct Run {
    /// What the result line says.
    pub outcome: Outcome,
    /// The blocks and counters behind it.
    pub measured: Measured,
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// The quantile `rtt_p90_us` is (0.9 in every reported mode).
    pub tail_q: f64,
}

/// One run of one workload, as the driver asks for it: the set-up repeated
/// `plan.setups` times (all but the last torn down after the warm-up),
/// then the measured blocks; with `plan.trace`, the per-layer pass.
pub fn run_workload(w: &Workload, seed: u64, plan: &Plan) -> Result<Run, CoreError> {
    let epoch = Instant::now();
    let (mut setups, mut attempted, mut failed) = (Vec::new(), 0, 0);
    for _ in 1..plan.setups {
        let m = run_kind(w.kind, seed, &plan.setup_only(), epoch)?;
        setups.push(m.setup_s);
        attempted += m.attempted;
        failed += m.failed;
    }
    let mut m = run_kind(w.kind, seed, plan, epoch)?;
    setups.push(m.setup_s);
    m.attempted += attempted;
    m.failed += failed;
    let (values, tail_q) = report::end_to_end(&m, &setups, env::peak_rss_mb());
    let outcome = if plan.trace {
        let values = layers::measure(w.kind, seed, &mut m, epoch);
        report::outcome(w.kind, &m, layers::PER_LAYER.map(|l| (l.0, l.1)), &values)
    } else {
        report::outcome(
            w.kind,
            &m,
            spec::END_TO_END.map(|e| (e.name, e.unit)),
            &values,
        )
    };
    Ok(Run {
        outcome,
        measured: m,
        setups,
        tail_q,
    })
}
