//! Tests of the v2 fault model's graceful-degradation ladder: every
//! injected fault either degrades to a slower-but-correct datapath
//! (counted in [`FaultStats`]) or surfaces as a typed error — never a
//! hang, never silent corruption.

use std::time::{Duration, Instant};

use nonctg_core::datatype::{Datatype, DatatypeError};
use nonctg_core::{set_oracle_checks, CoreError, EventKind, FaultStats, Universe};
use nonctg_simnet::{FaultPlan, Platform};

/// A quiet platform with a short deadlock timeout so any regression
/// towards "stall until the watchdog" fails fast and visibly.
fn short_timeout(seconds: f64) -> Platform {
    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    p.with_deadlock_timeout(seconds)
}

/// The event kinds of a trace, in order: the sender's decision record
/// as it shows (each `Demote` and `Select` where the ladder took it).
fn kinds(comm: &mut nonctg_core::Comm) -> Vec<EventKind> {
    comm.take_trace().into_iter().map(|e| e.kind).collect()
}

/// Send `payload` from rank 0 to rank 1 under `plan` on `platform`;
/// return (sender stats, receiver stats, received bytes, sender trace).
fn send_once(
    platform: Platform,
    plan: FaultPlan,
    payload: Vec<u8>,
) -> (FaultStats, FaultStats, Vec<u8>, Vec<EventKind>) {
    let n = payload.len();
    let p = platform.with_fault_plan(plan);
    let mut results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.enable_trace();
            comm.send_bytes(&payload, 1, 0)?;
            Ok((comm.fault_stats(), Vec::new(), kinds(comm)))
        } else {
            let mut buf = vec![0u8; n];
            comm.recv_bytes(&mut buf, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf, Vec::new()))
        }
    });
    let (rstats, buf, _) = results.pop().unwrap().unwrap();
    let (sstats, _, trace) = results.pop().unwrap().unwrap();
    (sstats, rstats, buf, trace)
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 131 + 7) as u8).collect()
}

/// Send one strided-vector message (packed size `count * 16` bytes) from
/// rank 0 to rank 1; return (sender stats, source, received buffer,
/// sender trace). Only non-contiguous types take the pipelined (chunked)
/// datapath, so the chunk-fault rungs must ride a derived type.
fn send_vector_once(
    platform: Platform,
    plan: FaultPlan,
    count: usize,
) -> (FaultStats, Vec<u8>, Vec<u8>, Vec<EventKind>) {
    let (blocklen, stride) = (16usize, 32i64);
    let src_len = (count - 1) * stride as usize + blocklen;
    let src = pattern(src_len);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let p = platform.with_fault_plan(plan);
    let src_for_run = src.clone();
    let mut results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.enable_trace();
            comm.send(&src_for_run, 0, &vtype, 1, 1, 0)?;
            Ok((comm.fault_stats(), Vec::new(), kinds(comm)))
        } else {
            let mut buf = vec![0u8; src_len];
            comm.recv(&mut buf, 0, &vtype, 1, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf, Vec::new()))
        }
    });
    let (_, got, _) = results.pop().unwrap().unwrap();
    let (sstats, _, trace) = results.pop().unwrap().unwrap();
    (sstats, src, got, trace)
}

/// Assert every strided block of `got` matches `src`.
fn assert_blocks_equal(src: &[u8], got: &[u8], count: usize) {
    let (blocklen, stride) = (16usize, 32usize);
    for b in 0..count {
        let at = b * stride;
        assert_eq!(&got[at..at + blocklen], &src[at..at + blocklen], "block {b} corrupted");
    }
}

/// Rung 1: payload-pool exhaustion falls back to owned (detached)
/// staging buffers — the send still succeeds bit-exactly and the
/// fallback is counted.
#[test]
fn pool_exhaustion_falls_back_to_owned_buffers() {
    set_oracle_checks(true);
    let payload = pattern(1 << 20);
    let plan = FaultPlan::quiet(5).with_pool_exhaustion(1.0);
    let (sstats, _, got, trace) = send_once(short_timeout(5.0), plan, payload.clone());
    assert_eq!(got, payload, "payload corrupted by pool fallback");
    assert!(sstats.pool_exhaustions >= 1, "fallback not counted: {sstats:?}");
    assert!(sstats.demotions() >= 1, "demotions() must roll up pool faults");
    assert_eq!(trace, [EventKind::Demote, EventKind::Send]);
}

/// Rung 2: a pack-plan compile failure on a derived type falls back to
/// the uncompiled interpreter — payload bit-exact, fallback counted.
#[test]
fn plan_compile_failure_falls_back_to_uncompiled_pack() {
    let (count, blocklen, stride) = (4096usize, 16usize, 32i64);
    let src_len = (count - 1) * stride as usize + blocklen;
    let src = pattern(src_len);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let plan = FaultPlan::quiet(6).with_plan_failures(1.0);
    let p = short_timeout(5.0).with_fault_plan(plan);
    let src_for_run = src.clone();
    let vt = vtype.clone();
    let results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.enable_trace();
            comm.send(&src_for_run, 0, &vt, 1, 1, 0)?;
            Ok((comm.fault_stats(), Vec::new(), kinds(comm)))
        } else {
            let mut buf = vec![0u8; src_len];
            comm.recv(&mut buf, 0, &vt, 1, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf, Vec::new()))
        }
    });
    let (sstats, _, trace) = results[0].as_ref().unwrap();
    let (_, got, _) = results[1].as_ref().unwrap();
    assert!(sstats.plan_fallbacks >= 1, "plan fallback not counted: {sstats:?}");
    // The uncompiled fallback rules out streaming and iovec; the
    // selector still runs (and picks pack) after the demotion.
    assert_eq!(trace, &[EventKind::Demote, EventKind::Select, EventKind::Stage, EventKind::Send]);
    for b in 0..count {
        let at = b * stride as usize;
        assert_eq!(
            &got[at..at + blocklen],
            &src[at..at + blocklen],
            "block {b} corrupted by uncompiled fallback"
        );
    }
}

/// Rung 3: a faulted chunk mid-stream is corrupted in place and gathered
/// again: the derived receive still sees bit-exact data.
#[test]
fn chunk_faults_retry_and_quarantine() {
    set_oracle_checks(true);
    // A 128 KiB packed vector over 16 KiB chunks = 8 chunk ordinals; a
    // low corruption probability keeps the faulty forecast below the
    // demote threshold so the stream proceeds and retries per chunk.
    let platform = short_timeout(5.0).with_pipeline(64 << 10, 16 << 10);
    let count = (128 << 10) / 16;
    let plan = FaultPlan::quiet(9).with_chunk_faults(0.25, 0.0);
    let (sstats, src, got, trace) = send_vector_once(platform, plan, count);
    assert_blocks_equal(&src, &got, count);
    assert!(sstats.chunk_retries >= 1, "no chunk retried at p=0.25: {sstats:?}");
    assert_eq!(sstats.pipeline_demotions, 0, "stream should not demote: {sstats:?}");
    // No rung demotes. Which rank gathers a chunk is a race, so only the
    // decisions around the `Chunk` markers are exact.
    let decisions: Vec<_> = trace.into_iter().filter(|&k| k != EventKind::Chunk).collect();
    assert_eq!(decisions, [EventKind::Select, EventKind::Stage, EventKind::Send]);
}

/// Rung 3 on the direct gather: a contiguous receive makes both ranks
/// gather the stream straight into its buffer, and whichever rank gathers
/// a faulted chunk corrupts and re-gathers it. The retries land on the
/// sender's counters, exactly as many as a derived receive's staged
/// gather takes for the same chunk grid, and the receiver still sees
/// bit-exact data.
#[test]
fn chunk_faults_retry_on_the_direct_gather() {
    set_oracle_checks(true);
    let platform = short_timeout(5.0).with_pipeline(64 << 10, 16 << 10);
    let count = (128 << 10) / 16;
    let plan = FaultPlan::quiet(9).with_chunk_faults(0.25, 0.0);
    let (staged, _, _, _) = send_vector_once(platform.clone(), plan.clone(), count);
    let (blocklen, stride) = (16usize, 32i64);
    let src = pattern((count - 1) * stride as usize + blocklen);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let src_for_run = src.clone();
    let mut results = Universe::run_supervised(platform.with_fault_plan(plan), 2, move |comm| {
        if comm.rank() == 0 {
            comm.enable_trace();
            comm.send(&src_for_run, 0, &vtype, 1, 1, 0)?;
            Ok((comm.fault_stats(), Vec::new(), kinds(comm)))
        } else {
            let mut buf = vec![0u8; count * blocklen];
            comm.recv_bytes(&mut buf, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf, Vec::new()))
        }
    });
    let (rstats, got, _) = results.pop().unwrap().unwrap();
    let (sstats, _, trace) = results.pop().unwrap().unwrap();
    let packed: Vec<u8> = src.chunks(stride as usize).flat_map(|b| &b[..blocklen]).copied().collect();
    assert_eq!(got, packed, "direct gather delivered wrong bytes");
    assert!(sstats.chunk_retries >= 1, "no chunk retried at p=0.25: {sstats:?}");
    assert_eq!(sstats.chunk_retries, staged.chunk_retries, "direct and staged retries differ");
    assert_eq!(rstats.chunk_retries, 0, "retries belong to the sender: {rstats:?}");
    // Which rank gathers a chunk is a race, so only the decisions around
    // the `Chunk` markers are exact.
    let decisions: Vec<_> = trace.into_iter().filter(|&k| k != EventKind::Chunk).collect();
    assert_eq!(decisions, [EventKind::Select, EventKind::Stage, EventKind::Send]);
}

/// A streamed send whose receiver arrives only after the sender's
/// deadline: the sender revokes its post and fails with a deadlock error,
/// and the late receive fails with a typed error without reading the
/// source — into a dense buffer (which would gather directly) and into a
/// derived one (which would gather into a staging buffer) alike.
#[test]
fn late_receive_of_a_revoked_stream_fails_typed() {
    for dense in [true, false] {
        let (count, blocklen, stride) = (8192usize, 16usize, 32i64);
        let src_len = (count - 1) * stride as usize + blocklen;
        let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
        let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
        let platform = short_timeout(0.2).with_pipeline(1, 16 << 10);
        let mut results = Universe::run_supervised(platform, 2, move |comm| {
            if comm.rank() == 0 {
                let mut src = pattern(src_len);
                let sent = comm.ssend(&src, 0, &vtype, 1, 1, 0);
                // What any later read of the source would deliver.
                src.fill(0xEE);
                gate.wait();
                gate.wait(); // `src` stays alive until the receive is over
                Ok((sent, Vec::new()))
            } else {
                gate.wait();
                let mut buf = vec![0u8; src_len];
                let got = if dense {
                    comm.recv_bytes(&mut buf[..count * blocklen], Some(0), Some(0))
                } else {
                    comm.recv(&mut buf, 0, &vtype, 1, Some(0), Some(0))
                };
                gate.wait();
                Ok((got.map(|_| ()), buf))
            }
        });
        let (received, buf) = results.pop().unwrap().unwrap();
        let (sent, _) = results.pop().unwrap().unwrap();
        assert!(
            matches!(sent, Err(CoreError::Deadlock { waiting_for: "a matching receive", .. })),
            "sender outcome: {sent:?}"
        );
        assert!(
            matches!(received, Err(CoreError::Deadlock { waiting_for: "a sender that already gave up", .. })),
            "receiver outcome (dense {dense}): {received:?}"
        );
        assert!(buf.iter().all(|&b| b == 0), "receive wrote bytes of a revoked source");
    }
}

/// Rung 4: a storm of chunk faults demotes the pipelined stream to one
/// monolithic whole-rendezvous transfer — still bit-exact, demotion
/// counted.
#[test]
fn chunk_fault_storm_demotes_to_monolithic() {
    set_oracle_checks(true);
    let platform = short_timeout(5.0).with_pipeline(64 << 10, 16 << 10);
    let count = (128 << 10) / 16;
    let plan = FaultPlan::quiet(4).with_chunk_faults(0.9, 0.9);
    let (sstats, src, got, trace) = send_vector_once(platform, plan, count);
    assert_blocks_equal(&src, &got, count);
    assert!(sstats.pipeline_demotions >= 1, "storm did not demote: {sstats:?}");
    assert_eq!(sstats.chunk_retries, 0, "demoted send must not stream chunks");
    assert_eq!(trace, [EventKind::Demote, EventKind::Select, EventKind::Stage, EventKind::Send]);
}

/// Stacked rungs trace in decision order: the chunk forecast demotes the
/// stream, the exhausted pool demotes staging, the selector picks iovec
/// for the 4 KiB regions, and the pool rung then demotes iovec to pack.
#[test]
fn stacked_rungs_trace_in_decision_order() {
    set_oracle_checks(true);
    let (count, blocklen, stride) = (32usize, 4096usize, 8192i64);
    let src_len = (count - 1) * stride as usize + blocklen;
    let src = pattern(src_len);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let plan = FaultPlan::quiet(4).with_chunk_faults(0.9, 0.9).with_pool_exhaustion(1.0);
    let p = short_timeout(5.0).with_pipeline(64 << 10, 16 << 10).with_fault_plan(plan);
    let src_for_run = src.clone();
    let mut results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.enable_trace();
            comm.send(&src_for_run, 0, &vtype, 1, 1, 0)?;
            Ok((comm.fault_stats(), Vec::new(), kinds(comm)))
        } else {
            let mut buf = vec![0u8; src_len];
            comm.recv(&mut buf, 0, &vtype, 1, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf, Vec::new()))
        }
    });
    let (_, got, _) = results.pop().unwrap().unwrap();
    let (sstats, _, trace) = results.pop().unwrap().unwrap();
    for b in 0..count {
        let at = b * stride as usize;
        assert_eq!(&got[at..at + blocklen], &src[at..at + blocklen], "block {b} corrupted");
    }
    assert_eq!(
        (sstats.pipeline_demotions, sstats.pool_exhaustions, sstats.iovec_demotions),
        (1, 1, 1),
        "{sstats:?}"
    );
    assert_eq!(
        trace,
        [
            EventKind::Demote,
            EventKind::Demote,
            EventKind::Select,
            EventKind::Demote,
            EventKind::Stage,
            EventKind::Send,
        ]
    );
}

/// The last rung: a send whose every attempt fails surfaces `SendFailed`
/// after the full backoff schedule, counted once and traced not at all.
#[test]
fn exhausted_retries_fail_typed_and_untraced() {
    let plan = FaultPlan::quiet(3).with_persistent_failure(0, 64, 64);
    let p = short_timeout(5.0).with_fault_plan(plan);
    let results = Universe::run_supervised(p, 2, |comm| {
        if comm.rank() == 0 {
            comm.enable_trace();
            let sent = comm.send_bytes(&[1u8; 64], 1, 0);
            Ok(Some((sent, comm.fault_stats(), kinds(comm), comm.wtime())))
        } else {
            Ok(None)
        }
    });
    let (sent, stats, trace, t) = results[0].as_ref().unwrap().clone().unwrap();
    assert!(
        matches!(sent, Err(CoreError::SendFailed { dst: 1, attempts: nonctg_core::MAX_SEND_ATTEMPTS })),
        "{sent:?}"
    );
    assert_eq!(stats.failed_sends, 1, "{stats:?}");
    assert_eq!(trace, []);
    // 2 + 4 + 8 + 16 µs of backoff between the five attempts.
    assert!((t - 30e-6).abs() < 1e-12, "backoff charged {t}");
}

/// An explicit `MPI_Pack` call rides the same ladder as the internal
/// staging pack: a plan-compile failure falls back to the uncompiled
/// interpreter with identical output, counted as a demotion. A call
/// rejected for its position, a short output buffer or a short source is
/// not a demotion: it is refused before any fault decision, with the
/// fault-free engine's error.
#[test]
fn explicit_pack_rides_the_ladder() {
    let (count, blocklen, stride) = (512usize, 16usize, 32i64);
    let src_len = (count - 1) * stride as usize + blocklen;
    let src = pattern(src_len);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let packed_len = count * blocklen;
    let expected = {
        let mut buf = vec![0u8; packed_len];
        nonctg_core::datatype::pack_into(&src, 0, &vtype, 1, &mut buf).unwrap();
        buf
    };
    let plan = FaultPlan::quiet(14).with_plan_failures(1.0);
    let p = short_timeout(5.0).with_fault_plan(plan);
    // What the fault-free engine says of a short source and of an output
    // buffer with 16 bytes too little room.
    let short_src = &src[..src_len - 8];
    let mut room = vec![0u8; packed_len - 16];
    let fault_free = |s: &[u8], out: &mut [u8]| {
        CoreError::Datatype(nonctg_core::datatype::pack_into(s, 0, &vtype, 1, out).unwrap_err())
    };
    let want_src = fault_free(short_src, &mut vec![0u8; packed_len]);
    let want_room = fault_free(&src, &mut room);
    assert!(matches!(want_src, CoreError::Datatype(DatatypeError::OutOfBounds { .. })));
    assert!(matches!(want_room, CoreError::Datatype(DatatypeError::BufferTooSmall { .. })));
    let src_for_run = src.clone();
    let results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.enable_trace();
            let mut out = vec![0u8; packed_len];
            let mut pos = out.len() + 1;
            let err = comm.pack(&src_for_run, 0, &vtype, 1, &mut out, &mut pos).unwrap_err();
            assert!(
                matches!(err, CoreError::Datatype(DatatypeError::InvalidPosition { .. })),
                "unexpected error: {err:?}"
            );
            let mut pos = 0usize;
            let short = &src_for_run[..src_len - 8];
            assert_eq!(comm.pack(short, 0, &vtype, 1, &mut out, &mut pos), Err(want_src.clone()));
            let mut pos = 16usize;
            assert_eq!(
                comm.pack(&src_for_run, 0, &vtype, 1, &mut out, &mut pos),
                Err(want_room.clone())
            );
            let rejected = comm.fault_stats();
            assert_eq!(rejected.plan_fallbacks, 0, "rejected pack counted a demotion");
            let trace = kinds(comm);
            assert!(!trace.contains(&EventKind::Demote), "rejected pack traced {trace:?}");
            let mut pos = 0usize;
            comm.pack(&src_for_run, 0, &vtype, 1, &mut out, &mut pos)?;
            assert_eq!(pos, packed_len);
            Ok((comm.fault_stats(), out))
        } else {
            Ok((comm.fault_stats(), Vec::new()))
        }
    });
    let (stats, out) = results[0].as_ref().unwrap();
    assert_eq!(out, &expected, "uncompiled pack fallback produced different bytes");
    assert!(stats.plan_fallbacks >= 1, "explicit pack did not demote: {stats:?}");
}

/// An injected receiver-side crash mid-stream surfaces as a typed
/// `RankPanicked` on the victim; senders observe `PeerFailed` (or have
/// already completed eagerly) — never a hang.
#[test]
fn recv_crash_is_typed_and_never_hangs() {
    let plan = FaultPlan::quiet(12).with_recv_crash(1, 2);
    let p = short_timeout(5.0).with_fault_plan(plan);
    let start = Instant::now();
    let results = Universe::run_supervised(p, 2, |comm| {
        if comm.rank() == 0 {
            for step in 0..4 {
                comm.send_bytes(&vec![step as u8; 1 << 20], 1, step)?;
            }
        } else {
            for step in 0..4 {
                let mut buf = vec![0u8; 1 << 20];
                comm.recv_bytes(&mut buf, Some(0), Some(step))?;
            }
        }
        Ok(comm.fault_stats().recv_crashes)
    });
    assert!(start.elapsed() < Duration::from_secs(1), "recv crash hung the pair");
    match &results[1] {
        Err(CoreError::RankPanicked { rank: 1, message }) => {
            assert!(message.contains("injected receiver crash"), "message: {message}");
        }
        other => panic!("victim outcome: {other:?}"),
    }
    assert!(
        matches!(results[0], Ok(_) | Err(CoreError::PeerFailed { rank: 1 })),
        "sender outcome: {:?}",
        results[0]
    );
}

/// A link-degradation burst inflates virtual latency for the window's
/// ops (deterministically, via exact charges) and is counted.
#[test]
fn link_degradation_charges_and_counts() {
    let run = |plan: Option<FaultPlan>| {
        let mut p = short_timeout(5.0);
        if let Some(plan) = plan {
            p = p.with_fault_plan(plan);
        }
        Universe::run_supervised(p, 2, |comm| {
            comm.enable_trace();
            for step in 0..16 {
                if comm.rank() == 0 {
                    comm.send_bytes(&[7u8; 256], 1, step)?;
                    let mut buf = [0u8; 256];
                    comm.recv_bytes(&mut buf, Some(1), Some(step))?;
                } else {
                    let mut buf = [0u8; 256];
                    comm.recv_bytes(&mut buf, Some(0), Some(step))?;
                    comm.send_bytes(&[9u8; 256], 0, step)?;
                }
            }
            Ok((comm.fault_stats(), comm.wtime(), kinds(comm)))
        })
        .into_iter()
        .map(|r| r.unwrap())
        .collect::<Vec<_>>()
    };
    let clean = run(None);
    let degraded = run(Some(FaultPlan::quiet(2).with_link_degradation(0, 7, 8.0)));
    let hits: u64 = degraded.iter().map(|(s, _, _)| s.link_degradations).sum();
    assert!(hits >= 1, "no op landed in the degradation window");
    assert!(
        degraded[0].1 > clean[0].1,
        "degradation did not inflate virtual time: {} vs {}",
        degraded[0].1,
        clean[0].1
    );
    // The surcharge is a charge, not a rung: it traces nothing.
    assert_eq!(degraded[0].2, clean[0].2);
    assert_eq!(&degraded[0].2[..2], [EventKind::Send, EventKind::Recv]);
}

/// The whole ladder is deterministic: identical chaos seeds produce
/// identical fault counters and identical virtual clocks.
#[test]
fn ladder_is_deterministic_under_chaos() {
    let run = || {
        let platform = short_timeout(5.0)
            .with_pipeline(64 << 10, 16 << 10)
            .with_fault_plan(FaultPlan::chaos(77));
        Universe::run_supervised(platform, 2, |comm| {
            for step in 0..12 {
                let payload = pattern(96 << 10);
                if comm.rank() == 0 {
                    comm.send_bytes(&payload, 1, step)?;
                } else {
                    let mut buf = vec![0u8; payload.len()];
                    comm.recv_bytes(&mut buf, Some(0), Some(step))?;
                    assert_eq!(buf, payload, "silent corruption at step {step}");
                }
            }
            Ok((comm.fault_stats(), comm.wtime()))
        })
        .into_iter()
        .map(|r| r.unwrap())
        .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos ladder not reproducible");
}
