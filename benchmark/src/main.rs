//! Command line of the benchmark. Three modes:
//!
//! * `--workload NAME [--trace 0|1]` — one run of one workload, the form
//!   the driver uses; the last line of stdout is the result object.
//! * no `--workload` — the whole set, each workload in a process of its own
//!   (so `peak_rss_mb` is that workload's), `--trace 1` for the traced set.
//! * `--aa` — the same code against itself: medians of alternating runs
//!   against the bounds, exact counts of two traced passes for equality.

use std::process::{Command, ExitCode, Stdio};

use nonctg_benchmark::layers::{EXACT, PER_LAYER};
use nonctg_benchmark::report::{block_cv_pct, Outcome};
use nonctg_benchmark::spec::{self, Plan, Workload, DEFAULT_SECONDS, END_TO_END, WORKLOADS};
use nonctg_benchmark::stats::median;
use nonctg_benchmark::{env, gen, run_workload, spans};

const USAGE: &str = "usage: nonctg-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--aa] [--list]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    quick: bool,
    aa: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        aa: false,
        list: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--quick" => a.quick = true,
            "--aa" => a.aa = true,
            "--list" => a.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// One workload in this process; prints the configuration, every metric by
/// name and unit, and the result object as the last line.
fn single(w: &Workload, a: &Args) -> ExitCode {
    let plan = Plan::new(w, a.seconds, a.quick, a.trace);
    for (k, v) in env::config(a.seed) {
        println!("config: {k}={v}");
    }
    println!(
        "plan: workload={} blocks={} block_reps={} warm_reps={} setups={} trace={}",
        w.name, plan.blocks, plan.block_reps, plan.warm_reps, plan.setups, plan.trace as u8
    );
    let run = match run_workload(w, a.seed, &plan) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{}: operation failed: {e}", w.name);
            return ExitCode::from(1);
        }
    };
    let m = &run.measured;
    let us = |f: fn(&nonctg_benchmark::pingpong::Block) -> f64| {
        m.blocks
            .iter()
            .map(|b| format!("{:.3}", f(b) / 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("blocks: rtt_p50_us=[{}]", us(|b| b.work.p50));
    println!("blocks: ref_p50_us=[{}]", us(|b| b.reference.p50));
    println!(
        "blocks: timed_ms=[{}]",
        us(|b| (b.work.sum + b.reference.sum) as f64 / 1e3)
    );
    println!(
        "blocks: cv_pct={:.3} samples_per_block={} tail_quantile={:.4} setups_s={:?}",
        block_cv_pct(m),
        m.blocks.first().map_or(0, |b| b.work.n),
        run.tail_q,
        run.setups
    );
    let digests: Vec<String> = m
        .blocks
        .iter()
        .map(|b| format!("{:016x}", b.virt_digest))
        .collect();
    println!("virtual: digest_by_block=[{}]", digests.join(" "));
    if let Some(t) = &m.traced {
        match spans::write(w.name, a.seed, &t.spans) {
            Ok(path) => println!("trace: {} spans -> {}", t.spans.len(), path.display()),
            Err(e) => {
                eprintln!("{}: cannot write span file: {e}", w.name);
                return ExitCode::from(1);
            }
        }
    }
    for (name, unit, value) in &run.outcome.metrics {
        println!("{:<20} {name:<32} {value:>18.6} {unit}", w.name);
    }
    println!("{}", run.outcome.to_json());
    if run.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run `w` in a child process of this executable; echo its output.
fn child(w: &Workload, a: &Args, trace: bool) -> Option<Outcome> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &a.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let outcome = text.lines().last().and_then(Outcome::from_json)?;
    (out.status.success() && outcome.correct).then_some(outcome)
}

/// Runs per side of an A/A comparison. The bounds are sized for medians of
/// several runs (the driver takes ten): single runs of the same code differ
/// by up to 13% on the reference host, which drifts by the second.
const AA_RUNS: usize = 3;

/// The same code against itself: per workload, two sides run alternately
/// [`AA_RUNS`] times each (so slow host drift hits both alike) and are
/// compared by their medians; then one traced pass per side, whose exact
/// counts must be identical. The gap of a metric is how much worse the
/// second side read than the first, as a share of the first.
fn aa(a: &Args) -> ExitCode {
    let mut ok = true;
    let mut report = format!(
        "\n{:<20} {:<32} {:>18} {:>18} {:>8} {:>6}\n",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for w in &WORKLOADS {
        let mut sides: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..AA_RUNS {
            for side in &mut sides {
                side.extend(child(w, a, false));
            }
        }
        let traced = [child(w, a, true), child(w, a, true)];
        let ([Some(first), Some(second)], true) =
            (&traced, sides.iter().all(|s| s.len() == AA_RUNS))
        else {
            report += &format!("{:<20} failed\n", w.name);
            ok = false;
            continue;
        };
        let mid = |side: &[Outcome], name: &str| {
            median(
                &side
                    .iter()
                    .map(|o| o.value(name).unwrap_or(f64::NAN))
                    .collect::<Vec<_>>(),
            )
        };
        for e in &END_TO_END {
            let (x, y) = (mid(&sides[0], e.name), mid(&sides[1], e.name));
            let gap = if e.better == spec::Better::Lower {
                y - x
            } else {
                x - y
            } / x;
            let within = gap.abs() <= e.bound;
            ok &= within;
            let mark = if within { "" } else { "  EXCEEDS" };
            report += &format!(
                "{:<20} {:<32} {x:>18.6} {y:>18.6} {gap:>+8.4} {:>6.2}{mark}\n",
                w.name, e.name, e.bound
            );
        }
        for name in EXACT {
            let (x, y) = (first.value(name), second.value(name));
            let same = x.is_some() && x == y;
            ok &= same;
            let (x, y) = (x.unwrap_or(f64::NAN), y.unwrap_or(f64::NAN));
            let mark = if same { "" } else { "  DIFFERS" };
            report += &format!(
                "{:<20} {name:<32} {x:>18} {y:>18} {:>8}{mark}\n",
                w.name, "exact"
            );
        }
        let cv = |o: &Outcome| o.value("bench.block_cv_pct").unwrap_or(f64::NAN);
        report += &format!(
            "{:<20} {:<32} {:>18.3} {:>18.3}\n",
            w.name,
            "bench.block_cv_pct",
            cv(first),
            cv(second)
        );
    }
    println!(
        "{report}\nA/A: {}",
        if ok {
            "within bounds, counts identical"
        } else {
            "FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.list {
        for w in &WORKLOADS {
            println!("{:<20} {}", w.name, w.why);
        }
        for e in &END_TO_END {
            println!(
                "{:<20} {} ({} is better, bound {})",
                e.name,
                e.unit,
                e.better.word(),
                e.bound
            );
        }
        for (name, unit, better) in &PER_LAYER {
            println!("{name:<32} {unit} ({better} is better)");
        }
        return ExitCode::SUCCESS;
    }
    let set_vars = env::nonctg_vars();
    if !set_vars.is_empty() {
        eprintln!(
            "refusing to measure with {} set: they change the datapath",
            set_vars.join(", ")
        );
        return ExitCode::from(2);
    }
    if a.aa {
        return aa(&a);
    }
    match &a.workload {
        Some(name) => match spec::workload(name) {
            Some(w) => single(w, &a),
            None => {
                eprintln!("unknown workload '{name}'\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => {
            // The whole set; every workload runs even after one has failed.
            let failed = WORKLOADS
                .iter()
                .filter(|w| child(w, &a, a.trace).is_none())
                .count();
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}
