//! Trace-export round trip: a synthetic [`ObservedRun`] is converted to
//! spans, exported as Chrome-tracing JSON, then parsed back with the
//! workspace's JSON reader (`nonctg_schemes::parse_json`). The
//! assertions pin what downstream viewers rely on: one `X` record per
//! trace event, `thread_name` metadata for every rank, non-negative
//! durations with timestamps monotone per track, and the `seq` chunk
//! annotations surviving verbatim.

use nonctg_bench::events_to_spans;
use nonctg_core::{EventKind, FaultStats, TraceEvent};
use nonctg_report::chrome_trace_json;
use nonctg_schemes::{parse_json, ObservedRun, PingPongResult, Scheme, Value};

fn ev(kind: EventKind, t_start: f64, t_end: f64, bytes: usize) -> TraceEvent {
    TraceEvent {
        kind,
        t_start,
        t_end,
        peer: Some(1),
        bytes,
        tag: Some(17),
        seq: None,
    }
}

/// Two ranks of a one-rep streamed ping: pack + send on rank 0, recv +
/// unpack on rank 1, and the four zero-width chunk markers of one gather
/// split between them (each chunk index on exactly one rank).
fn synthetic_run() -> ObservedRun {
    let chunk = |seq: u32, peer: usize| TraceEvent {
        seq: Some(seq),
        peer: Some(peer),
        ..ev(EventKind::Chunk, 1.0, 1.0, 256)
    };
    let (tx0, tx1, rx0, rx1) = (chunk(0, 1), chunk(2, 1), chunk(1, 0), chunk(3, 0));

    let rank0 = vec![
        ev(EventKind::Pack, 0.0, 1.0, 1024),
        ev(EventKind::Send, 1.0, 3.0, 1024),
        tx0,
        tx1,
    ];
    let rank1 = vec![
        ev(EventKind::Recv, 0.5, 3.0, 1024),
        rx0,
        rx1,
        ev(EventKind::Unpack, 3.0, 3.5, 1024),
    ];
    ObservedRun {
        result: PingPongResult {
            scheme: Scheme::PackingVector,
            msg_bytes: 1024,
            times: vec![3.5],
            faults: FaultStats::default(),
        },
        events: vec![rank0, rank1],
        windows: vec![(0.0, 3.5)],
        metrics: None,
    }
}

/// The `X` (complete-event) records of a parsed trace document.
fn complete_events(doc: &Value) -> Vec<&Value> {
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect()
}

#[test]
fn export_round_trips_counts_tracks_and_timestamps() {
    let run = synthetic_run();
    let spans = events_to_spans(&run.events);
    let names = vec!["rank 0".to_string(), "rank 1".to_string()];
    let json = chrome_trace_json(&spans, "roundtrip", &names);

    let doc = parse_json(&json).expect("export parses as JSON");
    let events = complete_events(&doc);
    let total: usize = run.events.iter().map(Vec::len).sum();
    assert_eq!(events.len(), total, "one X record per trace event");

    // thread_name metadata names every rank that has events.
    let metas: Vec<(f64, &str)> = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
        .map(|e| {
            (
                e.get("tid").and_then(Value::as_f64).unwrap(),
                e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str).unwrap(),
            )
        })
        .collect();
    assert_eq!(metas, vec![(0.0, "rank 0"), (1.0, "rank 1")]);

    // Per track: timestamps non-decreasing in emission order, durations
    // non-negative, and every record carries a bytes argument.
    for track in [0.0, 1.0] {
        let mut last = f64::NEG_INFINITY;
        let mut seen = 0usize;
        for e in &events {
            if e.get("tid").and_then(Value::as_f64) != Some(track) {
                continue;
            }
            seen += 1;
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            let dur = e.get("dur").and_then(Value::as_f64).unwrap();
            assert!(ts >= last, "track {track}: ts went backwards ({ts} < {last})");
            assert!(dur >= 0.0, "track {track}: negative duration");
            assert!(e.get("args").and_then(|a| a.get("bytes")).is_some());
            last = ts;
        }
        assert_eq!(seen, 4, "track {track} event count");
    }
}

#[test]
fn chunk_seq_survives_the_round_trip() {
    let run = synthetic_run();
    let spans = events_to_spans(&run.events);
    let json = chrome_trace_json(&spans, "roundtrip", &[]);
    let doc = parse_json(&json).expect("export parses as JSON");

    let chunk_args: Vec<(f64, f64)> = complete_events(&doc)
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("chunk"))
        .map(|e| {
            let args = e.get("args").unwrap();
            (
                e.get("tid").and_then(Value::as_f64).unwrap(),
                args.get("seq").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    assert_eq!(chunk_args, vec![(0.0, 0.0), (0.0, 2.0), (1.0, 1.0), (1.0, 3.0)]);

    // Unstreamed events must not grow the annotation.
    for e in complete_events(&doc) {
        if e.get("name").and_then(Value::as_str) != Some("chunk") {
            assert!(e.get("args").unwrap().get("seq").is_none());
        }
    }
}
