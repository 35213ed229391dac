//! A receive whose buffer cannot hold its posted span is an argument
//! error, raised before matching: it fails with the pack engine's
//! `OutOfBounds`, writes nothing, consumes no fault-plan op, traces
//! nothing and leaves the message queued for a corrected receive.
//! Truncation and signature errors are raised after matching and
//! consume the message, as MPI specifies.

use nonctg_core::datatype::{Datatype, DatatypeError};
use nonctg_core::{Comm, CoreError, Result, Universe};
use nonctg_simnet::{Datapath, FaultPlan, Platform};

/// An eager message.
const EAGER: usize = 1 << 10;
/// A rendezvous message, below the streaming threshold.
const RENDEZVOUS: usize = 1 << 20;
/// A derived send at the streaming threshold; a dense receive takes it
/// by direct gather.
const STREAMED: usize = 4 << 20;

/// Jitter off, streaming pinned at 4 MiB in 1 MiB chunks whatever the
/// environment says, the pack engine forced, and a deadlock timeout that
/// turns a lost message into a prompt error.
fn quiet() -> Platform {
    let mut p = Platform::skx_impi()
        .with_pipeline(STREAMED as u64, 1 << 20)
        .with_datapath(Datapath::Pack)
        .with_deadlock_timeout(10.0);
    p.jitter_sigma = 0.0;
    p
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

fn oob(needed_from: i64, needed_to: usize, buffer_len: usize) -> CoreError {
    CoreError::Datatype(DatatypeError::OutOfBounds {
        needed_from,
        needed_to: needed_to as i64,
        buffer_len,
    })
}

/// Every other 64-byte block of a source twice the payload.
fn streamed_type() -> Datatype {
    Datatype::vector(STREAMED / 64, 64, 128, &Datatype::byte()).unwrap().commit()
}

/// The bytes rank 1 receives for the message of `tag`.
fn payload(tag: i32) -> Vec<u8> {
    match tag {
        0 => pattern(EAGER),
        1 => pattern(RENDEZVOUS),
        _ => pattern(2 * STREAMED).chunks(128).flat_map(|c| c[..64].to_vec()).collect(),
    }
}

/// Post a receive of `bytes` bytes through `dtype` into a `len`-byte
/// buffer of 0xAA; return its error, and check that it wrote nothing,
/// left the clock alone and traced nothing.
fn rejected(comm: &mut Comm, len: usize, dtype: &Datatype, tag: i32) -> CoreError {
    let mut buf = vec![0xAAu8; len];
    let t = comm.wtime();
    let err = comm.recv(&mut buf, 0, dtype, 1, Some(0), Some(tag)).unwrap_err();
    assert!(buf.iter().all(|&b| b == 0xAA), "tag {tag}: receive buffer was written");
    assert_eq!(comm.wtime(), t, "tag {tag}: a rejected receive advanced the clock");
    assert!(comm.take_trace().is_empty(), "tag {tag}: a rejected receive traced events");
    err
}

#[test]
fn rejected_receives_leave_the_message_queued() {
    let results = Universe::run_supervised(quiet(), 2, |comm| {
        if comm.rank() == 0 {
            comm.send_bytes(&pattern(EAGER), 1, 0)?;
            comm.send_bytes(&pattern(RENDEZVOUS), 1, 1)?;
            comm.send(&pattern(2 * STREAMED), 0, &streamed_type(), 1, 1, 2)?;
            return Ok(());
        }
        comm.enable_trace();
        for (tag, bytes) in [(0, EAGER), (1, RENDEZVOUS), (2, STREAMED)] {
            let dense = Datatype::contiguous(bytes, &Datatype::byte())?.commit();
            // Eight bytes short.
            let short = rejected(comm, bytes - 8, &dense, tag);
            assert_eq!(short, oob(0, bytes, bytes - 8), "tag {tag}");
            // Displaced one cache line before the buffer.
            let shifted = Datatype::hindexed(&[(1, -64)], &dense)?.commit();
            let before = rejected(comm, bytes, &shifted, tag);
            assert_eq!(before, oob(-64, bytes - 64, bytes), "tag {tag}");
            // The corrected receive gets the whole message.
            let mut buf = vec![0u8; bytes];
            let st = comm.recv(&mut buf, 0, &dense, 1, Some(0), Some(tag))?;
            assert_eq!((st.source, st.tag, st.bytes), (0, tag, bytes));
            assert!(buf == payload(tag), "tag {tag}: received bytes differ");
            comm.take_trace();
        }
        Ok(())
    });
    for (rank, r) in results.into_iter().enumerate() {
        assert_eq!(r, Ok(()), "rank {rank}");
    }
}

/// Rank 1's two receives under a plan that crashes its receives from op
/// 1 on, after an optional rejected receive: the outcome of each.
fn crash_outcomes(reject_first: bool) -> (Result<usize>, Result<usize>) {
    let p = quiet().with_fault_plan(FaultPlan::quiet(5).with_recv_crash(1, 1));
    let mut results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send_bytes(&pattern(EAGER), 1, 0)?;
            comm.send_bytes(&pattern(EAGER), 1, 1)?;
            return Ok(None);
        }
        if reject_first {
            let mut short = vec![0u8; EAGER / 2];
            let err = comm.recv(&mut short, 0, &Datatype::byte(), EAGER, Some(0), Some(0));
            assert_eq!(err.unwrap_err(), oob(0, EAGER, EAGER / 2));
        }
        let mut buf = vec![0u8; EAGER];
        let first = comm.recv_bytes(&mut buf, Some(0), Some(0)).map(|s| s.bytes);
        let second = comm.recv_bytes(&mut buf, Some(0), Some(1)).map(|s| s.bytes);
        Ok(Some((first, second)))
    });
    results.pop().unwrap().unwrap().unwrap()
}

#[test]
fn rejected_receives_consume_no_fault_op() {
    let clean = crash_outcomes(false);
    assert_eq!(clean.0, Ok(EAGER));
    match &clean.1 {
        Err(CoreError::RankPanicked { rank: 1, message }) => {
            assert!(message.contains("receiver crash at op 1"), "message: {message}");
        }
        other => panic!("second receive: {other:?}"),
    }
    assert_eq!(crash_outcomes(true), clean);
}

#[test]
fn truncation_and_signature_errors_consume_the_message() {
    let results = Universe::run_supervised(quiet(), 2, |comm| {
        if comm.rank() == 0 {
            for tag in 0..2 {
                comm.send_slice(&[tag as f64, 1.0], 1, tag)?;
                comm.send_slice(&[tag as f64 + 10.0, 2.0], 1, tag)?;
            }
            return Ok(());
        }
        let mut one = [0.0f64; 1];
        let err = comm.recv_slice(&mut one, Some(0), Some(0)).unwrap_err();
        assert_eq!(err, CoreError::Truncate { incoming: 16, capacity: 8 });
        let mut ints = [0i32; 4];
        let err = comm.recv_slice(&mut ints, Some(0), Some(1)).unwrap_err();
        assert_eq!(err, CoreError::SignatureMismatch);
        // Each failed receive took its message: the next one gets the
        // second message of the tag.
        for tag in 0..2 {
            let mut two = [0.0f64; 2];
            comm.recv_slice(&mut two, Some(0), Some(tag))?;
            assert_eq!(two, [tag as f64 + 10.0, 2.0], "tag {tag}");
        }
        Ok(())
    });
    for (rank, r) in results.into_iter().enumerate() {
        assert_eq!(r, Ok(()), "rank {rank}");
    }
}

/// A streamed send whose receive fails after matching: a truncating
/// receive, dense or derived, drops the sender's offer unanswered. The
/// receiver gets `Truncate`, the sender the deadlock error of a
/// rendezvous whose reply never comes, and neither waits for its
/// deadline.
#[test]
fn truncated_streamed_receives_decline_the_offer() {
    let (count, blocklen, stride) = (4096usize, 16usize, 32i64);
    let packed = count * blocklen;
    let src_len = (count - 1) * stride as usize + blocklen;
    let timeout = 20.0;
    for dense in [true, false] {
        let platform = quiet().with_pipeline(1, 16 << 10).with_deadlock_timeout(timeout);
        let started = std::time::Instant::now();
        let mut results = Universe::run_supervised(platform, 2, move |comm| {
            let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte())?.commit();
            if comm.rank() == 0 {
                return Ok(comm.ssend(&pattern(src_len), 0, &vtype, 1, 1, 0));
            }
            let mut buf = vec![0u8; src_len];
            let got = if dense {
                comm.recv_bytes(&mut buf[..packed - 16], Some(0), Some(0))
            } else {
                let half =
                    Datatype::vector(count / 2, blocklen, stride, &Datatype::byte())?.commit();
                comm.recv(&mut buf, 0, &half, 1, Some(0), Some(0))
            };
            assert!(buf.iter().all(|&b| b == 0), "a failed receive wrote bytes");
            Ok(got.map(|_| ()))
        });
        let elapsed = started.elapsed().as_secs_f64();
        let received = results.pop().unwrap().unwrap();
        let sent = results.pop().unwrap().unwrap();
        let capacity = if dense { packed - 16 } else { packed / 2 };
        assert_eq!(received, Err(CoreError::Truncate { incoming: packed, capacity }));
        assert!(
            matches!(sent, Err(CoreError::Deadlock { waiting_for: "rendezvous completion", .. })),
            "sender outcome (dense {dense}): {sent:?}"
        );
        assert!(elapsed < timeout / 2.0, "took {elapsed} s (dense {dense})");
    }
}
