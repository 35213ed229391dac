//! Critical-path and pipeline-bubble analysis of an instrumented run,
//! recorded under `analysis_out/`.
//!
//! Runs a two-rank derived → derived ping-pong with tracing on: rank 0
//! sends every other `f64` of a [`OBS_ELEMS`]-element array
//! (`vector(n, 1, 2, f64)`), rank 1 receives it with twice the
//! blocklength (`vector(n / 2, 2, 3, f64)`) and answers with an empty
//! pong. The run is forced through the staged (pack) datapath with a
//! small chunk size, so each transfer streams: rank 1 answers with a
//! staging buffer, both ranks gather chunks into it (one `chunk` marker
//! per chunk, on the rank that gathered it), and rank 1 unpacks it. Then
//! the analyzer:
//!
//! 1. computes the virtual-time **critical path** through the traced
//!    event DAG and *asserts* its edge sum is bit-equal to the run's
//!    traced elapsed time (the edges tile the run exactly — any gap or
//!    overlap is a bug in the tracer or the analyzer);
//! 2. *asserts* that the `chunk` markers of both ranks cover every chunk
//!    index of every transfer exactly once, and that each transfer's
//!    markers sum to the payload;
//! 3. computes the **pipeline report** for the receiver — stall time and
//!    bubble time (asserted to partition the receiver's elapsed window
//!    exactly);
//! 4. writes `analysis.json`, `gantt.svg`, and `gantt.txt`, and prints
//!    the ASCII gantt.
//!
//! Exits non-zero if any invariant fails.
//!
//! Usage: `analyze [OUT_DIR]` (default `analysis_out`).

use std::fs;
use std::path::PathBuf;

use nonctg_bench::{events_to_spans, OBS_ELEMS};
use nonctg_core::datatype::{as_bytes, as_bytes_mut, Datatype};
use nonctg_core::{TraceEvent, Universe};
use nonctg_report::analysis::{critical_path, gantt_ascii, gantt_svg, pipeline_report};
use nonctg_report::Span;
use nonctg_simnet::Platform;

/// Chunk size forced for this run: about 128 KiB over the 4 MiB packed
/// payload yields a 32-chunk stream, long enough that both ranks gather.
/// The extra 8 bytes put odd cuts off the receiver's 16-byte block grid.
const CHUNK_BYTES: &str = "131080";
/// Ping-pong repetitions.
const REPS: usize = 3;

fn set_default(key: &str, value: &str) {
    if std::env::var_os(key).is_none() {
        std::env::set_var(key, value);
    }
}

fn main() {
    let out_dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| "analysis_out".into()));

    // Must happen before any platform/selector use: both specs are
    // resolved once per process.
    set_default("NONCTG_PIPELINE_CHUNK", CHUNK_BYTES);
    set_default("NONCTG_DATAPATH", "pack");

    let platform = Platform::skx_impi();
    let events = derived_pingpong(&platform);
    let spans = events_to_spans(&events);
    let names: Vec<String> = (0..events.len()).map(|r| format!("rank {r}")).collect();
    let (lo, hi) = events
        .iter()
        .flatten()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), e| (lo.min(e.t_start), hi.max(e.t_end)));
    let trace_elapsed = if lo < hi { hi - lo } else { 0.0 };
    println!(
        "{} derived ping-pong: {} events over {} ranks, {:.3e} s virtual",
        platform.id.name(),
        spans.len(),
        events.len(),
        trace_elapsed
    );

    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("  ok   {what}");
        } else {
            eprintln!("  FAIL {what}");
            failures += 1;
        }
    };

    // -- critical path ------------------------------------------------
    let path = critical_path(&spans).expect("trace has no positive-width spans");
    let elapsed = trace_elapsed;
    check(
        path.edge_sum().to_bits() == elapsed.to_bits(),
        "critical-path edge sum bit-equal to traced elapsed time",
    );
    println!(
        "  critical path: {} edges, {:.3e} s ({:.1}% idle)",
        path.edges.len(),
        path.elapsed(),
        100.0 * path.idle_total() / path.elapsed()
    );
    for (track, busy) in path.by_track() {
        println!("    rank {track}: {busy:.3e} s on path");
    }
    for (phase, secs) in path.by_phase() {
        println!("    {phase:>8}: {secs:.3e} s");
    }

    // -- chunk coverage -----------------------------------------------
    let payload = OBS_ELEMS / 2 * 8;
    let chunk = platform.effective_pipeline().chunk_bytes as usize;
    let every_index: Vec<u32> = (0..payload.div_ceil(chunk) as u32).collect();
    let transfers = chunk_transfers(&spans, payload);
    let per_rank: Vec<usize> = (0..2)
        .map(|r| spans.iter().filter(|s| s.track == r && s.name == "chunk").count())
        .collect();
    println!(
        "  chunks: {} transfers of {} B in {} chunks; rank 0 gathered {}, rank 1 {}",
        transfers.len(),
        payload,
        every_index.len(),
        per_rank[0],
        per_rank[1]
    );
    check(transfers.len() == REPS, "one group of chunk markers per transfer");
    check(
        transfers.iter().all(|(seqs, _)| *seqs == every_index),
        "both ranks' chunk markers cover every chunk index of every transfer exactly once",
    );
    check(
        transfers.iter().all(|&(_, bytes)| bytes == payload),
        "each transfer's chunk markers sum to the payload",
    );

    // -- pipeline report ----------------------------------------------
    let receiver = 1;
    let report = pipeline_report(&spans, &path, receiver)
        .expect("no chunk markers — the stream did not engage");
    println!(
        "  pipeline: {} chunks, receiver on path {:.3e} s, stall {:.3e} s, bubbles {:.3e} s",
        report.chunks, report.critical_on_receiver_s, report.stall_s, report.bubble_s,
    );
    check(report.tiling_exact, "clipped critical path tiles the receiver window bit-exactly");
    check(
        (report.critical_on_receiver_s + report.bubble_s).to_bits()
            == report.receiver_elapsed_s.to_bits(),
        "receiver's critical share + bubbles partition its elapsed time",
    );
    check(report.bubble_s > 0.0, "bubbles are visible (receiver never owns the whole window)");

    // -- artifacts ----------------------------------------------------
    fs::create_dir_all(&out_dir).expect("create analysis output dir");
    let seqs: Vec<String> = transfers
        .iter()
        .map(|(seqs, bytes)| format!("{{\"seqs\": {seqs:?}, \"bytes\": {bytes}}}"))
        .collect();
    let json = format!(
        "{{\n\"critical_path\": {},\n\"pipeline\": {},\n\"chunks\": {{\"payload_bytes\": {payload}, \
         \"chunk_bytes\": {chunk}, \"transfers\": [{}]}}\n}}\n",
        path.to_json().trim_end(),
        report.to_json(),
        seqs.join(", ")
    );
    fs::write(out_dir.join("analysis.json"), json).expect("write analysis.json");
    fs::write(out_dir.join("gantt.svg"), gantt_svg(&spans, &path, &names)).expect("write gantt.svg");
    let art = gantt_ascii(&spans, &path, 100);
    fs::write(out_dir.join("gantt.txt"), &art).expect("write gantt.txt");
    print!("{art}");
    println!("wrote {}/analysis.json, gantt.svg, gantt.txt", out_dir.display());

    if failures > 0 {
        eprintln!("{failures} invariant(s) failed");
        std::process::exit(1);
    }
}

/// Each streamed transfer's chunk markers, both ranks merged: the sorted
/// chunk indices and the bytes they carry. A rank traces a transfer's
/// markers before the `payload`-byte send or receive that carries them,
/// so on each track that span closes the transfer.
fn chunk_transfers(spans: &[Span], payload: usize) -> Vec<(Vec<u32>, usize)> {
    let mut transfers: Vec<(Vec<u32>, usize)> = Vec::new();
    for track in 0..2 {
        let mut i = 0;
        for s in spans.iter().filter(|s| s.track == track) {
            if s.name == "chunk" {
                if transfers.len() <= i {
                    transfers.resize_with(i + 1, Default::default);
                }
                transfers[i].0.extend(s.seq);
                transfers[i].1 += s.bytes;
            } else if matches!(s.name.as_str(), "send" | "recv") && s.bytes == payload {
                i += 1;
            }
        }
    }
    for (seqs, _) in &mut transfers {
        seqs.sort_unstable();
    }
    transfers
}

/// Run the traced derived → derived ping-pong; each rank's events.
fn derived_pingpong(platform: &Platform) -> Vec<Vec<TraceEvent>> {
    let n = OBS_ELEMS / 2;
    let results = Universe::run_supervised(platform.clone(), 2, move |comm| {
        let send_t = Datatype::vector(n, 1, 2, &Datatype::f64())?.commit();
        let recv_t = Datatype::vector(n / 2, 2, 3, &Datatype::f64())?.commit();
        let src: Vec<f64> = (0..2 * n - 1).map(|i| i as f64).collect();
        let mut dst = vec![0.0f64; (n / 2 - 1) * 3 + 2];
        comm.enable_trace();
        comm.barrier()?;
        for _ in 0..REPS {
            if comm.rank() == 0 {
                comm.send(as_bytes(&src), 0, &send_t, 1, 1, 0)?;
                comm.recv_bytes(&mut [], Some(1), Some(1))?;
            } else {
                comm.recv(as_bytes_mut(&mut dst), 0, &recv_t, 1, Some(0), Some(0))?;
                // Receive block j holds send elements 2j and 2j + 1.
                for j in (0..n / 2).step_by(997) {
                    assert_eq!(dst[3 * j..3 * j + 2], [(4 * j) as f64, (4 * j + 2) as f64]);
                }
                comm.send_bytes(&[], 0, 1)?;
            }
        }
        comm.barrier()?;
        Ok(comm.take_trace())
    });
    results
        .into_iter()
        .map(|r| r.expect("instrumented ping-pong failed"))
        .collect()
}
