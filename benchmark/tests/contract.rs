//! `../BENCHMARK.json` and the command line, as the driver sees them.

use std::process::Command;

use nonctg_benchmark::layers::PER_LAYER;
use nonctg_benchmark::report::Outcome;
use nonctg_benchmark::spec::{DEFAULT_SECONDS, END_TO_END, WORKLOADS};

/// `BENCHMARK.json` with every run of whitespace collapsed to one space.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn benchmark_json_repeats_the_tables_of_the_source() {
    let json = benchmark_json();
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('"'), "{}", w.name);
        let entry = format!("{{ \"name\": \"{}\", \"why\": \"{}\" }}", w.name, w.why);
        assert!(
            json.contains(&entry),
            "workload {} differs from BENCHMARK.json",
            w.name
        );
    }
    for e in &END_TO_END {
        let entry = format!(
            "{{ \"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {} }}",
            e.name,
            e.unit,
            e.better.word(),
            e.bound
        );
        assert!(
            json.contains(&entry),
            "metric {} differs from BENCHMARK.json",
            e.name
        );
        assert!(e.bound <= 0.25);
    }
    for (name, unit, better) in &PER_LAYER {
        let entry =
            format!("{{ \"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\" }}");
        assert!(
            json.contains(&entry),
            "per-layer metric {name} differs from BENCHMARK.json"
        );
    }
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists something the source lacks"
    );
    assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    assert!(json.contains("\"paths\": [ \"benchmark\" ]"));
}

fn bench() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_nonctg-benchmark"));
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("NONCTG_")) {
        c.env_remove(k);
    }
    c
}

#[test]
fn quick_run_prints_every_end_to_end_metric_and_the_result_line_last() {
    let out = bench()
        .args([
            "--workload",
            "eager_pingpong_1k",
            "--seed",
            "5",
            "--seconds",
            "10",
            "--trace",
            "0",
            "--quick",
        ])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let o = Outcome::from_json(text.lines().last().expect("a last line")).expect("a result line");
    assert!(o.correct && o.failed == 0 && o.attempted > 0);
    let names: Vec<&str> = o.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|e| e.name));
    for (name, unit, value) in &o.metrics {
        assert!(*value > 0.0 && value.is_finite(), "{name} = {value}");
        assert!(
            text.contains(&format!("{name:<32}")) && text.contains(unit),
            "{name} is printed by name and unit"
        );
    }
    assert!(text.contains("config: simd_tier=") && text.contains("config: seed=5"));
    // Harness memory is constant: a 1 KiB ping-pong stays small.
    assert!(o.value("peak_rss_mb").expect("peak_rss_mb") < 16.0);
}

#[test]
fn refuses_datapath_knobs_and_unknown_workloads() {
    let knob = bench()
        .args(["--workload", "eager_pingpong_1k", "--quick"])
        .env("NONCTG_DATAPATH", "pack")
        .output()
        .expect("run");
    assert_eq!(knob.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&knob.stderr).contains("NONCTG_DATAPATH"));
    assert!(knob.stdout.is_empty());
    let unknown = bench()
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run");
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty());
}
