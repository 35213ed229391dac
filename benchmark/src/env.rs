//! Environment hygiene and the resolved configuration, so two result sets
//! can be checked for like-with-like before they are compared.

use std::path::{Path, PathBuf};

use nonctg_datatype::{llc_threshold, pack_threads, parallel_threshold, simd_tier};

/// The `NONCTG_*` variables that are set. Sixteen of them change the
/// datapath; the benchmark refuses to run under any.
pub fn nonctg_vars() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NONCTG_"))
        .collect();
    v.sort();
    v
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// This package's directory: `benchmark/` of the checkout the command runs
/// in (the driver's case), else where the manifest was at build time.
pub fn package_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// The commit a git checkout is at, read from `.git` without running git;
/// `unknown` where the checkout is not a repository (the driver's is not).
fn git_sha() -> String {
    let git = package_dir().join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The resolved configuration as `key=value` pairs.
pub fn config(seed: u64) -> Vec<(&'static str, String)> {
    let p = crate::spec::platform();
    let pipe = p.effective_pipeline();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("platform", p.id.name().to_string()),
        ("datapath", p.effective_datapath().name().to_string()),
        ("pipeline_threshold", pipe.threshold_bytes.to_string()),
        ("pipeline_chunk", pipe.chunk_bytes.to_string()),
        ("simd_tier", simd_tier().name().to_string()),
        ("llc_threshold", llc_threshold().to_string()),
        ("pack_threads", pack_threads().to_string()),
        ("parallel_threshold", parallel_threshold().to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu_model()),
        ("seed", seed.to_string()),
        ("git", git_sha()),
    ]
}
