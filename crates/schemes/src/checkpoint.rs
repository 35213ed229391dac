//! JSON checkpointing of sweeps against a fixed schema. Writing is
//! hand-formatted; reading parses through the workspace's one JSON reader
//! ([`parse_json`], in `json.rs`) and then checks the schema on the
//! [`Value`] tree.
//!
//! Format:
//!
//! ```json
//! {
//!   "platform": "skx-impi",
//!   "points": [
//!     {"scheme": "vector", "msg_bytes": 1024, "time": 1.2e-5,
//!      "bandwidth": 8.5e7, "slowdown": 1.3, "status": "ok"}
//!   ]
//! }
//! ```
//!
//! Non-finite values (failed/skipped points) are written as `null` and
//! read back as NaN. Finite values use Rust's shortest round-trip float
//! formatting, so a rewrite of a parsed checkpoint is bit-identical.

use std::str::FromStr;

use nonctg_simnet::{Datapath, PlatformId};

use crate::json::{parse_json, Value};
use crate::scheme::Scheme;
use crate::sweep::{PointStatus, Sweep, SweepFaults, SweepPoint};

/// Version stamp of the checkpoint schema. Bumped on any incompatible
/// layout change; a reader confronted with a different version refuses
/// with [`CheckpointError::VersionMismatch`] instead of misparsing.
/// Checkpoints without the stamp (written before versioning) read as
/// version 1.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// Why a checkpoint could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint declares a schema version this build cannot read.
    VersionMismatch {
        /// Version stamped into the file.
        found: u64,
        /// Version this build writes and reads.
        supported: u64,
    },
    /// The document is not a checkpoint this parser understands.
    Parse(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint schema version {found} is not supported (this build reads \
                 version {supported}); re-run without --resume to start fresh"
            ),
            CheckpointError::Parse(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<String> for CheckpointError {
    fn from(msg: String) -> CheckpointError {
        CheckpointError::Parse(msg)
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Serialize a sweep to checkpoint JSON.
pub fn to_json(sweep: &Sweep) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {CHECKPOINT_SCHEMA_VERSION},\n"));
    out.push_str("  \"platform\": \"");
    out.push_str(sweep.platform.name());
    out.push_str("\",\n  \"points\": [");
    for (i, p) in sweep.points.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"msg_bytes\": {}, \"time\": {}, \
             \"bandwidth\": {}, \"slowdown\": {}, \"status\": \"{}\"{}{}}}",
            p.scheme.key(),
            p.msg_bytes,
            num(p.time),
            num(p.bandwidth),
            num(p.slowdown),
            p.status.key(),
            // Recorded datapath engine; "auto" (unrecorded) is omitted so
            // checkpoints written before the selector keep their shape.
            if p.selected == Datapath::Auto {
                String::new()
            } else {
                format!(", \"selected\": \"{}\"", p.selected.name())
            },
            // Per-point fault attribution (resume bookkeeping); omitted
            // when zero so fault-free checkpoints keep the legacy shape.
            if p.faults.is_zero() {
                String::new()
            } else {
                format!(", \"faults\": {}", faults_json(&p.faults))
            },
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!("  \"fault_stats\": {}\n", faults_json(&sweep.faults)));
    out.push_str("}\n");
    out
}

fn faults_json(f: &SweepFaults) -> String {
    format!(
        "{{\"transient_retries\": {}, \"delays\": {}, \
         \"corruptions\": {}, \"failed_sends\": {}, \"poisoned_peers\": {}, \
         \"demotions\": {}, \"chunk_retries\": {}, \"link_degradations\": {}, \
         \"recv_crashes\": {}}}",
        f.transient_retries,
        f.delays,
        f.corruptions,
        f.failed_sends,
        f.poisoned_peers,
        f.demotions,
        f.chunk_retries,
        f.link_degradations,
        f.recv_crashes,
    )
}

fn parse_error(msg: impl std::fmt::Display) -> CheckpointError {
    CheckpointError::Parse(format!("checkpoint parse error: {msg}"))
}

fn members<'v>(v: &'v Value, what: &str) -> Result<&'v [(String, Value)], CheckpointError> {
    match v {
        Value::Obj(members) => Ok(members),
        _ => Err(parse_error(format!("{what} must be an object"))),
    }
}

fn string<'v>(v: &'v Value, key: &str) -> Result<&'v str, CheckpointError> {
    v.as_str()
        .ok_or_else(|| parse_error(format!("'{key}' must be a string")))
}

/// A JSON number, or `null` read as NaN.
fn number_or_null(v: &Value, key: &str) -> Result<f64, CheckpointError> {
    match v {
        Value::Null => Ok(f64::NAN),
        _ => v
            .as_f64()
            .ok_or_else(|| parse_error(format!("'{key}' must be a number or null"))),
    }
}

/// A non-negative integer (sizes, counters, the version stamp).
fn counter(v: &Value, key: &str) -> Result<u64, CheckpointError> {
    match v.as_f64() {
        Some(x) if x.is_finite() && x >= 0.0 => Ok(x as u64),
        _ => Err(parse_error(format!(
            "'{key}' must be a non-negative integer"
        ))),
    }
}

fn check_version(v: &Value) -> Result<(), CheckpointError> {
    let found = counter(v, "schema_version")?;
    if found != CHECKPOINT_SCHEMA_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found,
            supported: CHECKPOINT_SCHEMA_VERSION,
        });
    }
    Ok(())
}

fn point(v: &Value) -> Result<SweepPoint, CheckpointError> {
    let mut scheme = None;
    let mut msg_bytes = None;
    let mut time = f64::NAN;
    let mut bandwidth = f64::NAN;
    let mut slowdown = f64::NAN;
    let mut status = None;
    // Absent in checkpoints written before the datapath selector.
    let mut selected = Datapath::Auto;
    // Absent in checkpoints written before per-point attribution.
    let mut faults = SweepFaults::default();
    for (key, v) in members(v, "a point")? {
        match key.as_str() {
            "scheme" => scheme = Some(Scheme::from_str(string(v, key)?)?),
            "msg_bytes" => msg_bytes = Some(counter(v, key)? as usize),
            "time" => time = number_or_null(v, key)?,
            "bandwidth" => bandwidth = number_or_null(v, key)?,
            "slowdown" => slowdown = number_or_null(v, key)?,
            "status" => status = Some(PointStatus::from_str(string(v, key)?)?),
            "selected" => selected = Datapath::from_str(string(v, key)?)?,
            "faults" => faults = fault_stats(v)?,
            other => return Err(parse_error(format!("unknown point key '{other}'"))),
        }
    }
    let missing = |key: &str| parse_error(format!("point missing '{key}'"));
    Ok(SweepPoint {
        scheme: scheme.ok_or_else(|| missing("scheme"))?,
        msg_bytes: msg_bytes.ok_or_else(|| missing("msg_bytes"))?,
        time,
        bandwidth,
        slowdown,
        status: status.ok_or_else(|| missing("status"))?,
        selected,
        faults,
    })
}

fn fault_stats(v: &Value) -> Result<SweepFaults, CheckpointError> {
    let mut f = SweepFaults::default();
    for (key, v) in members(v, "fault_stats")? {
        let slot = match key.as_str() {
            "transient_retries" => &mut f.transient_retries,
            "delays" => &mut f.delays,
            "corruptions" => &mut f.corruptions,
            "failed_sends" => &mut f.failed_sends,
            "poisoned_peers" => &mut f.poisoned_peers,
            // v2 ladder counters; absent in older checkpoints (zeros).
            "demotions" => &mut f.demotions,
            "chunk_retries" => &mut f.chunk_retries,
            "link_degradations" => &mut f.link_degradations,
            "recv_crashes" => &mut f.recv_crashes,
            other => return Err(parse_error(format!("unknown fault_stats key '{other}'"))),
        };
        *slot = counter(v, key)?;
    }
    Ok(f)
}

/// Parse checkpoint JSON back into a [`Sweep`].
pub fn from_json(s: &str) -> Result<Sweep, CheckpointError> {
    let doc = match parse_json(s) {
        Ok(doc) => doc,
        Err(e) => {
            // `to_json` writes the version stamp first. A truncated file
            // from another schema must still be refused as a version
            // mismatch, not read as corrupt (which starts fresh), so read
            // the leading member on its own before failing on the body.
            let head = &s[..s.find(',').unwrap_or(s.len())];
            let head = parse_json(&format!("{head}}}")).ok();
            if let Some(v) = head.as_ref().and_then(|h| h.get("schema_version")) {
                check_version(v)?;
            }
            return Err(parse_error(e));
        }
    };
    // Unversioned checkpoints (written before the stamp) read as version 1.
    if let Some(v) = doc.get("schema_version") {
        check_version(v)?;
    }
    let mut platform = None;
    let mut points = Vec::new();
    // Absent in checkpoints written before fault accounting: zeros.
    let mut faults = SweepFaults::default();
    for (key, v) in members(&doc, "a checkpoint")? {
        match key.as_str() {
            "schema_version" => {}
            "platform" => platform = Some(PlatformId::from_str(string(v, key)?)?),
            "points" => {
                let items = v
                    .as_array()
                    .ok_or_else(|| parse_error("'points' must be an array"))?;
                points = items.iter().map(point).collect::<Result<_, _>>()?;
            }
            "fault_stats" => faults = fault_stats(v)?,
            other => return Err(parse_error(format!("unknown top-level key '{other}'"))),
        }
    }
    Ok(Sweep {
        platform: platform.ok_or_else(|| parse_error("checkpoint missing 'platform'"))?,
        points,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sweep {
        Sweep {
            platform: PlatformId::SkxImpi,
            points: vec![
                SweepPoint {
                    scheme: Scheme::Reference,
                    msg_bytes: 1024,
                    time: 1.25e-5,
                    bandwidth: 8.192e7,
                    slowdown: 1.0,
                    status: PointStatus::Ok,
                    selected: Datapath::Pack,
                    faults: SweepFaults { transient_retries: 3, delays: 1, ..Default::default() },
                },
                SweepPoint {
                    scheme: Scheme::VectorType,
                    msg_bytes: 1024,
                    time: f64::NAN,
                    bandwidth: 0.0,
                    slowdown: f64::NAN,
                    status: PointStatus::Failed,
                    selected: Datapath::Auto,
                    faults: SweepFaults {
                        failed_sends: 2,
                        poisoned_peers: 4,
                        demotions: 5,
                        chunk_retries: 2,
                        link_degradations: 7,
                        recv_crashes: 1,
                        ..Default::default()
                    },
                },
            ],
            faults: SweepFaults {
                transient_retries: 3,
                delays: 1,
                corruptions: 0,
                failed_sends: 2,
                poisoned_peers: 4,
                demotions: 5,
                chunk_retries: 2,
                link_degradations: 7,
                recv_crashes: 1,
            },
        }
    }

    #[test]
    fn round_trips_including_nan() {
        let json = to_json(&sample());
        let back = from_json(&json).unwrap();
        assert_eq!(back.platform, PlatformId::SkxImpi);
        assert_eq!(back.points.len(), 2);
        let a = &back.points[0];
        assert_eq!((a.scheme, a.msg_bytes, a.status), (Scheme::Reference, 1024, PointStatus::Ok));
        assert_eq!(a.time, 1.25e-5);
        assert_eq!(a.slowdown, 1.0);
        let b = &back.points[1];
        assert_eq!(b.status, PointStatus::Failed);
        assert!(b.time.is_nan() && b.slowdown.is_nan());
        assert_eq!(back.faults, sample().faults);
        // Per-point fault attribution round-trips too.
        assert_eq!(a.faults, sample().points[0].faults);
        assert_eq!(b.faults, sample().points[1].faults);
        // The recorded datapath round-trips; unrecorded stays "auto" and
        // is omitted from the serialized form.
        assert_eq!(a.selected, Datapath::Pack);
        assert_eq!(b.selected, Datapath::Auto);
        assert_eq!(json.matches("\"selected\"").count(), 1, "{json}");
        // A rewrite of the parsed sweep is bit-identical.
        assert_eq!(to_json(&back), json);
    }

    /// Every datapath value except the "auto" sentinel round-trips
    /// through its checkpoint key.
    #[test]
    fn selected_engines_round_trip() {
        for dp in [Datapath::Pack, Datapath::Iov, Datapath::Elem] {
            let mut sweep = sample();
            sweep.points[0].selected = dp;
            let back = from_json(&to_json(&sweep)).unwrap();
            assert_eq!(back.points[0].selected, dp);
        }
        let bad = "{\"platform\": \"skx-impi\", \"points\": [\
            {\"scheme\": \"reference\", \"msg_bytes\": 8, \"time\": 1.0, \
             \"bandwidth\": 8.0, \"slowdown\": 1.0, \"status\": \"ok\", \
             \"selected\": \"warp\"}]}";
        assert!(from_json(bad).unwrap_err().to_string().contains("warp"));
    }

    /// Points without per-point counters (fault-free, or written by the
    /// pre-attribution schema) serialize without a "faults" key and parse
    /// back with zero counters — legacy checkpoints stay readable.
    #[test]
    fn zero_point_faults_omit_the_key() {
        let mut sweep = sample();
        for p in &mut sweep.points {
            p.faults = SweepFaults::default();
        }
        let json = to_json(&sweep);
        assert!(!json.contains("\"faults\""), "{json}");
        let legacy = "{\"platform\": \"skx-impi\", \"points\": [\
            {\"scheme\": \"reference\", \"msg_bytes\": 1024, \"time\": 1.0, \
             \"bandwidth\": 1024.0, \"slowdown\": 1.0, \"status\": \"ok\"}]}";
        let back = from_json(legacy).unwrap();
        assert!(back.points[0].faults.is_zero());
    }

    #[test]
    fn empty_points_round_trip() {
        let sweep = Sweep {
            platform: PlatformId::KnlImpi,
            points: Vec::new(),
            faults: SweepFaults::default(),
        };
        let back = from_json(&to_json(&sweep)).unwrap();
        assert!(back.points.is_empty());
        assert_eq!(back.platform, PlatformId::KnlImpi);
        assert!(back.faults.is_zero());
    }

    /// Checkpoints written before fault accounting (no "fault_stats"
    /// key) still parse, with zero counters.
    #[test]
    fn missing_fault_stats_defaults_to_zero() {
        let json = "{\"platform\": \"skx-impi\", \"points\": []}";
        let back = from_json(json).unwrap();
        assert!(back.faults.is_zero());
    }

    #[test]
    fn garbage_is_rejected_with_context() {
        assert!(from_json("").is_err());
        assert!(from_json("{}").unwrap_or(sample()).points.is_empty() || from_json("{}").is_err());
        assert!(from_json("{\"platform\": \"mars\", \"points\": []}").is_err());
        let err = from_json("{\"platform\": \"skx-impi\", \"points\": [{\"bogus\": 1}]}")
            .unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    /// Unknown keys are refused at every level, naming the key.
    #[test]
    fn unknown_keys_are_named() {
        for (doc, key) in [
            (
                "{\"platform\": \"skx-impi\", \"points\": [], \"extra\": 1}",
                "extra",
            ),
            (
                "{\"platform\": \"skx-impi\", \"fault_stats\": {\"gremlins\": 1}}",
                "gremlins",
            ),
        ] {
            let err = from_json(doc).unwrap_err();
            assert!(matches!(err, CheckpointError::Parse(_)), "{err:?}");
            assert!(err.to_string().contains(key), "{err}");
        }
    }

    /// The version stamp is checked before a truncated body fails: a cut
    /// file from another schema is a mismatch, one from this schema is a
    /// parse error.
    #[test]
    fn truncated_checkpoints_keep_their_version_verdict() {
        let cut = |v: u64| {
            format!("{{\"schema_version\": {v}, \"platform\": \"skx-impi\", \"points\": [{{\"sch")
        };
        assert!(matches!(
            from_json(&cut(99)),
            Err(CheckpointError::VersionMismatch { found: 99, .. })
        ));
        assert!(matches!(from_json(&cut(1)), Err(CheckpointError::Parse(_))));
    }

    /// New checkpoints carry the schema version; checkpoints written
    /// before versioning (no stamp) still read, and a stamp from a
    /// different version is a typed rejection, not a parse panic.
    #[test]
    fn schema_version_is_written_checked_and_optional() {
        let json = to_json(&sample());
        assert!(
            json.contains(&format!("\"schema_version\": {CHECKPOINT_SCHEMA_VERSION}")),
            "{json}"
        );
        // Unversioned (legacy) checkpoints parse as version 1.
        let legacy = "{\"platform\": \"skx-impi\", \"points\": []}";
        assert!(from_json(legacy).is_ok());
        // A future version is rejected with the typed variant.
        let future = "{\"schema_version\": 99, \"platform\": \"skx-impi\", \"points\": []}";
        match from_json(future) {
            Err(CheckpointError::VersionMismatch { found: 99, supported }) => {
                assert_eq!(supported, CHECKPOINT_SCHEMA_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let msg = from_json(future).unwrap_err().to_string();
        assert!(msg.contains("99") && msg.contains("--resume"), "{msg}");
    }
}
