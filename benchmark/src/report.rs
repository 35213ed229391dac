//! From blocks to the numbers a run reports, and the result line the
//! driver reads.

use std::fmt::Write as _;

use nonctg_core::FaultStats;

use crate::pingpong::{Block, Measured};
use crate::spec::Kind;
use crate::stats::{cv_pct, grouped_tail, median};

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// No operation failed.
    pub correct: bool,
    /// Operations run: one is one ping-pong, workload or reference.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, unit, value)`.
    pub metrics: Vec<(String, String, f64)>,
}

/// Injected-fault events that are not demotions; all zero on a clean run.
fn fault_events(f: &FaultStats) -> u64 {
    f.transient_retries
        + f.delays
        + f.corruptions
        + f.failed_sends
        + f.chunk_retries
        + f.link_degradations
        + f.recv_crashes
        + f.timeouts
        + f.cancels
}

/// Whether virtual time is the same function of the messages in the first
/// block as in the last.
///
/// `paper_sweep` starts every point in a fresh universe, so its per-block
/// digests must be bit-identical. A long-lived universe keeps drawing from
/// one jitter stream on a clock that keeps growing, so its per-rep deltas
/// never repeat bit for bit; there the block means must agree within six
/// standard errors of the platform's own jitter.
pub fn virtual_time_holds(kind: Kind, blocks: &[Block], jitter_sigma: f64) -> bool {
    let (Some(first), Some(last)) = (blocks.first(), blocks.last()) else {
        return true;
    };
    if kind == Kind::PaperSweep {
        return first.virt_digest == last.virt_digest;
    }
    let tol =
        (6.0 * std::f64::consts::SQRT_2 * jitter_sigma / (first.work.n as f64).sqrt()).max(1e-9);
    (first.virt_mean - last.virt_mean).abs() <= tol * first.virt_mean
}

/// Operations that failed: oracle mismatches, plus one for any non-zero
/// fault counter and one for virtual time that moved between blocks.
pub fn failed_ops(kind: Kind, m: &Measured) -> u64 {
    let sigma = crate::spec::platform().jitter_sigma;
    m.failed
        + (fault_events(&m.faults) + m.faults.demotions() > 0) as u64
        + !virtual_time_holds(kind, &m.blocks, sigma) as u64
}

/// The six end-to-end values, in [`END_TO_END`] order, and the quantile the
/// tail metric is. Every timing is the median over blocks of the block's
/// statistic; where single blocks are too short for the tail, over groups
/// of blocks.
pub fn end_to_end(m: &Measured, setups: &[f64], peak_rss_mb: f64) -> ([f64; 6], f64) {
    let over_blocks = |f: fn(&Block) -> f64| median(&m.blocks.iter().map(f).collect::<Vec<_>>());
    let (p90, q) = if m.blocks.iter().all(|b| b.work.tail_q == 0.9) {
        (over_blocks(|b| b.work.tail), 0.9)
    } else {
        grouped_tail(&m.pooled, m.blocks[0].work.n)
    };
    let values = [
        median(setups),
        over_blocks(|b| b.work.p50) / 1e3,
        p90 / 1e3,
        over_blocks(|b| b.bytes as f64 / b.work.sum as f64),
        over_blocks(|b| b.slowdown),
        peak_rss_mb,
    ];
    (values, q)
}

/// Spread of the block medians: the run's own noise reading.
pub fn block_cv_pct(m: &Measured) -> f64 {
    cv_pct(&m.blocks.iter().map(|b| b.work.p50).collect::<Vec<_>>())
}

/// The outcome of a run that reports `values` for `metrics`
/// (`(name, unit)` pairs, in the same order).
pub fn outcome<'a>(
    kind: Kind,
    m: &Measured,
    metrics: impl IntoIterator<Item = (&'a str, &'a str)>,
    values: &[f64],
) -> Outcome {
    let failed = failed_ops(kind, m);
    Outcome {
        correct: failed == 0,
        attempted: m.attempted,
        failed,
        metrics: metrics
            .into_iter()
            .zip(values)
            .map(|((n, u), v)| (n.into(), u.into(), *v))
            .collect(),
    }
}

impl Outcome {
    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// Parse a line [`Outcome::to_json`] wrote (the set runner reads its
    /// children's result lines with this; it is not a JSON parser).
    pub fn from_json(line: &str) -> Option<Outcome> {
        let field = |key: &str| {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let body = line.split_once("\"metrics\": {")?.1;
        let mut metrics = Vec::new();
        for part in body.split("\"}").filter(|p| p.contains("\"value\": ")) {
            let (name, rest) = part
                .trim_start_matches([',', ' '])
                .strip_prefix('"')?
                .split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            metrics.push((name.to_string(), unit.to_string(), value.parse().ok()?));
        }
        Some(Outcome {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), "s".into(), 0.28125),
                ("goodput_gbps".into(), "GB/s".into(), 3.9871e-3),
                (
                    "simnet.virt_digest48".into(),
                    "count".into(),
                    281474976710655.0,
                ),
            ],
        };
        let line = o.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.28125, \"unit\": \"s\"}"));
        assert_eq!(Outcome::from_json(&line), Some(o));
        assert_eq!(Outcome::from_json("cargo: warning"), None);
    }
}
