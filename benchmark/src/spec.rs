//! What the benchmark is: its workloads, its metrics and their bounds, and
//! the fixed rep counts of a run. `../BENCHMARK.json` repeats the workload
//! and metric tables for the driver; `tests/contract.rs` keeps the two in
//! step.

use nonctg_simnet::Platform;

/// Blocks of a reported run.
pub const BLOCKS: usize = 9;
/// Blocks of a `--quick` run (tests and CI only, never for reported numbers).
pub const QUICK_BLOCKS: usize = 3;
/// Seconds one `--quick` block is sized for.
pub const QUICK_BLOCK_SECONDS: f64 = 0.3;
/// Set-ups per reported run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// `--seconds` when not given (`run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u32 = 10;
/// Untraced blocks the traced pass measures next to its one traced block,
/// for `bench.trace_overhead_pct` and `bench.block_cv_pct`.
pub const TRACE_PLAIN_BLOCKS: usize = 4;
/// Ping-pongs the traced pass runs with `Comm::enable_trace` on.
pub const HARVEST_REPS: usize = 64;
/// Zero-byte ping-pongs behind `core.wire_rtt_ns`.
pub const WIRE_REPS: usize = 20_000;
/// Messages of the traced block whose spans are kept (bounds the file).
pub const SPAN_MSGS: usize = 2_000;

/// The platform model every workload runs on: `skx-impi` with the default
/// datapath (`auto`) and the default pipeline spec.
pub fn platform() -> Platform {
    Platform::skx_impi()
}

/// What one workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `vector(n,1,2,f64)` → contiguous receive.
    Vector {
        /// Blocks (= `f64` elements) per message.
        n: usize,
    },
    /// The four ddtbench layouts at 1 MiB, derived send → contiguous receive.
    DdtGather,
    /// The four ddtbench layouts at 1 MiB, contiguous send → derived receive.
    DdtScatter,
    /// A fresh `vector(n_i,1,2,f64)` built and committed per message.
    TypeChurn,
    /// `Scheme::ALL` × four sizes through `nonctg_schemes::run_scheme`.
    PaperSweep,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the set, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// What it sends.
    pub kind: Kind,
    /// Reps (workload ping-pong + interleaved reference ping-pong; for
    /// `paper_sweep`, passes over the 32 points) per second on the
    /// reference host. Only sizes the fixed counts; never read at run time
    /// to decide when to stop.
    pub reps_per_second: f64,
    /// Warm-up reps, sized for about a quarter of a second: every one is
    /// checked against the oracle, which costs more than a timed rep.
    pub warm_reps: usize,
    /// Rep counts are multiples of this, so every block sees the same mix.
    pub round: usize,
}

/// Payload target of the ddtbench layouts.
pub const DDT_BYTES: usize = 1 << 20;
/// Sizes of `paper_sweep`, bytes. They stop at 2 MiB because fresh 16 MiB
/// buffers per point made pass time drift 10%.
pub const SWEEP_BYTES: [usize; 4] = [1 << 10, 16 << 10, 256 << 10, 2 << 20];

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "eager_pingpong_1k",
        why: "1 KiB strided eager send: ~10 ns of copying under microseconds of per-message bookkeeping and fabric post/match/wake, so fixed cost does all the work and the pack kernel none",
        kind: Kind::Vector { n: 128 },
        reps_per_second: 128_000.0,
        warm_reps: 32_000,
        round: 1,
    },
    Workload {
        name: "large_stream_64m",
        why: "64 MiB strided send from a 128 MiB extent (2x/4x the 32 MiB llc_threshold): chunked rendezvous, NT-store kernels and staging pool do the work, per-message bookkeeping none",
        kind: Kind::Vector { n: 8 << 20 },
        // Sized so that three blocks pool 102 samples: enough for a p90.
        reps_per_second: 30.6,
        warm_reps: 4,
        round: 1,
    },
    Workload {
        name: "ddt_gather_1m",
        why: "lammps/milc/nas/wrf layouts at 1 MiB round-robin, derived send to contiguous recv: indexed, struct, subarray and nested-vector pack kernels with four plans live and the selector deciding",
        kind: Kind::DdtGather,
        reps_per_second: 1_830.0,
        warm_reps: 400,
        round: 4,
    },
    Workload {
        name: "ddt_scatter_1m",
        why: "the same four layouts, contiguous send to derived recv: unpack/scatter and receiver-side plan lookup, so a gather gain bought with a scatter loss shows here and nowhere else",
        kind: Kind::DdtScatter,
        reps_per_second: 1_830.0,
        warm_reps: 64,
        round: 4,
    },
    Workload {
        name: "type_churn_64k",
        why: "every message builds and commits a fresh vector type (512 distinct counts, 4x the plan LRU): builder, commit, normalize and plan compile do the work; work moved from send into commit shows as a cost",
        kind: Kind::TypeChurn,
        reps_per_second: 3_150.0,
        warm_reps: 512,
        round: 512,
    },
    Workload {
        name: "paper_sweep",
        why: "all eight schemes x 1 KiB..2 MiB through run_scheme with flush and verify on: what a figures user pays, and the only cover of bsend, one-sided, packing(e), subarray and per-point universe spin-up",
        kind: Kind::PaperSweep,
        reps_per_second: 2.6,
        warm_reps: 1,
        round: 1,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric and the relative worsening that counts as a
/// regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndMetric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The six end-to-end metrics, the same on every workload. Each bound is at
/// least three times the widest spread (quartile distance over median of
/// ten runs, ten seeds) the reference host showed on any workload, capped
/// at the contract's 0.25; `README.md` has the numbers.
pub const END_TO_END: [EndToEndMetric; 6] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "rtt_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEndMetric {
        name: "rtt_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "goodput_gbps",
        unit: "GB/s",
        better: Better::Higher,
        bound: 0.16,
    },
    EndToEndMetric {
        name: "slowdown_x",
        unit: "x",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The fixed counts of one run. A pure function of the workload and the
/// command line, so message counts, cache counters and virtual time repeat
/// exactly from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Untraced timed blocks.
    pub blocks: usize,
    /// Reps per block.
    pub block_reps: usize,
    /// Warm-up reps, every one checked against the oracle.
    pub warm_reps: usize,
    /// Times the whole set-up is done (`setup_s` is the median).
    pub setups: usize,
    /// Whether this is the traced pass: one more block with spans and call
    /// timers, then the count harvest and the wire floor.
    pub trace: bool,
}

fn round_to(reps: f64, round: usize) -> usize {
    ((reps / round as f64).round() as usize).max(1) * round
}

impl Plan {
    /// The plan of `w` for a run of `seconds` (split over [`BLOCKS`]
    /// blocks), or for `--quick`.
    pub fn new(w: &Workload, seconds: u32, quick: bool, trace: bool) -> Plan {
        let (blocks, block_s) = if quick {
            (QUICK_BLOCKS, QUICK_BLOCK_SECONDS)
        } else {
            (BLOCKS, seconds as f64 / BLOCKS as f64)
        };
        Plan {
            blocks: if trace {
                TRACE_PLAIN_BLOCKS.min(blocks)
            } else {
                blocks
            },
            block_reps: round_to(w.reps_per_second * block_s, w.round),
            warm_reps: w.warm_reps,
            setups: if quick || trace { 1 } else { SETUPS },
            trace,
        }
    }

    /// The same plan with no measured block: one more set-up.
    pub fn setup_only(self) -> Plan {
        Plan {
            blocks: 0,
            trace: false,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_fixed_counts_in_whole_rounds() {
        for w in &WORKLOADS {
            let p = Plan::new(w, DEFAULT_SECONDS, false, false);
            assert_eq!(p, Plan::new(w, DEFAULT_SECONDS, false, false));
            assert_eq!((p.blocks, p.setups), (BLOCKS, SETUPS));
            assert_eq!(p.block_reps % w.round, 0, "{}", w.name);
            assert_eq!(w.warm_reps % w.round, 0, "{}", w.name);
            let q = Plan::new(w, DEFAULT_SECONDS, true, false);
            assert_eq!(q.blocks, QUICK_BLOCKS);
            assert!(q.block_reps <= p.block_reps);
        }
    }
}
