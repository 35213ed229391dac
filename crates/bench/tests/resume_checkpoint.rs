//! Regression tests for `figures --resume` checkpoint loading: a corrupt
//! checkpoint must produce a loud warning naming the file and the parse
//! error (it used to be silently discarded), a schema-version mismatch
//! stays fatal, and the normal paths (missing file, valid checkpoint,
//! platform mismatch) keep their behavior.

use std::path::PathBuf;

use nonctg_bench::{load_resume_checkpoint, ResumeLoad};
use nonctg_schemes::{PointStatus, Sweep, SweepPoint};
use nonctg_simnet::{Datapath, PlatformId};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nonctg-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn sample_sweep(platform: PlatformId) -> Sweep {
    let point = |scheme, msg_bytes: usize, time: f64| SweepPoint {
        scheme,
        msg_bytes,
        time,
        bandwidth: msg_bytes as f64 / time,
        slowdown: 1.0,
        status: PointStatus::Ok,
        selected: Datapath::Pack,
        faults: Default::default(),
    };
    Sweep {
        platform,
        points: vec![
            point(nonctg_schemes::Scheme::Reference, 1024, 1e-5),
            point(nonctg_schemes::Scheme::VectorType, 1024, 2e-5),
        ],
        faults: Default::default(),
    }
}

#[test]
fn missing_checkpoint_is_a_quiet_fresh_start() {
    let path = tmp("does-not-exist.json");
    std::fs::remove_file(&path).ok();
    assert!(matches!(
        load_resume_checkpoint(&path, PlatformId::SkxImpi),
        ResumeLoad::Fresh
    ));
}

#[test]
fn valid_checkpoint_resumes_with_its_points() {
    let path = tmp("valid.json");
    std::fs::write(&path, sample_sweep(PlatformId::SkxImpi).to_checkpoint_json()).unwrap();
    match load_resume_checkpoint(&path, PlatformId::SkxImpi) {
        ResumeLoad::Resumed(s) => {
            assert_eq!(s.platform, PlatformId::SkxImpi);
            assert_eq!(s.points.len(), 2);
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
}

#[test]
fn platform_mismatch_warns_and_starts_fresh() {
    let path = tmp("wrong-platform.json");
    std::fs::write(&path, sample_sweep(PlatformId::KnlImpi).to_checkpoint_json()).unwrap();
    match load_resume_checkpoint(&path, PlatformId::SkxImpi) {
        ResumeLoad::FreshWithWarning(msg) => {
            assert!(msg.contains("wrong-platform.json"), "no file name: {msg}");
            assert!(msg.contains("knl-impi") && msg.contains("skx-impi"), "{msg}");
        }
        other => panic!("expected FreshWithWarning, got {other:?}"),
    }
}

/// The pinned bug: `CheckpointError::Parse` used to be swallowed with no
/// mention of what was wrong. A corrupt checkpoint must start fresh with
/// a warning that names the file AND carries the parse error.
#[test]
fn corrupt_checkpoint_warns_loudly_with_file_and_error() {
    let path = tmp("corrupt.json");
    std::fs::write(&path, "{\"schema_version\": 1, \"platform\": \"skx-impi\", ").unwrap();
    match load_resume_checkpoint(&path, PlatformId::SkxImpi) {
        ResumeLoad::FreshWithWarning(msg) => {
            assert!(msg.contains("corrupt.json"), "warning must name the file: {msg}");
            assert!(msg.to_lowercase().contains("corrupt checkpoint"), "{msg}");
            // The parse error itself must survive into the warning (it is
            // the only clue to what happened to the file).
            let parse_err = match Sweep::from_checkpoint_json(
                &std::fs::read_to_string(&path).unwrap(),
            ) {
                Err(nonctg_schemes::CheckpointError::Parse(m)) => m,
                other => panic!("fixture should be a Parse error, got {other:?}"),
            };
            assert!(msg.contains(&parse_err), "parse error missing from warning: {msg}");
        }
        other => panic!("expected FreshWithWarning, got {other:?}"),
    }
}

#[test]
fn version_mismatch_is_fatal() {
    let path = tmp("future-version.json");
    let text = sample_sweep(PlatformId::SkxImpi)
        .to_checkpoint_json()
        .replace("\"schema_version\": 1", "\"schema_version\": 999");
    std::fs::write(&path, text).unwrap();
    match load_resume_checkpoint(&path, PlatformId::SkxImpi) {
        ResumeLoad::Fatal(msg) => {
            assert!(msg.contains("future-version.json"), "{msg}");
            assert!(msg.contains("999"), "{msg}");
        }
        other => panic!("expected Fatal, got {other:?}"),
    }
}

/// A checkpoint from a newer build that was cut off mid-write is still a
/// version mismatch (fatal), not a corrupt file to silently replace: the
/// leading stamp is read before the truncated body fails to parse.
#[test]
fn truncated_future_version_is_fatal() {
    let path = tmp("truncated-future.json");
    std::fs::write(
        &path,
        "{\"schema_version\": 999, \"platform\": \"skx-impi\", \"points\": [",
    )
    .unwrap();
    match load_resume_checkpoint(&path, PlatformId::SkxImpi) {
        ResumeLoad::Fatal(msg) => {
            assert!(msg.contains("truncated-future.json"), "{msg}");
            assert!(msg.contains("999"), "{msg}");
        }
        other => panic!("expected Fatal, got {other:?}"),
    }
}
