//! Deterministic schedule-permutation fuzzer: the same program run under
//! deliberately skewed thread interleavings must produce bit-identical
//! virtual results, with every fabric invariant check enabled.
//!
//! Wall-clock staggering perturbs *only* the OS schedule — which rank's
//! thread gets to post, match, pack, and gather first — so any divergence
//! in payload bytes or virtual clocks is a real ordering bug in the
//! fabric (lost chunk, misattributed charge, aliased pool buffer), not
//! jitter. Each permutation also re-runs the streamed-gather and
//! payload-pool paths under the `NONCTG_ORACLE` assertions, so an interleaving that
//! corrupts state panics instead of silently producing a lucky result.

use std::time::Duration;

use nonctg_core::datatype::{as_bytes, as_bytes_mut, Datatype};
use nonctg_core::simnet::Platform;
use nonctg_core::{set_oracle_checks, Comm, Universe};

/// Serializes the tests in this file: `set_oracle_checks` is a process
/// global, so a test flipping it must not overlap another run.
static TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());

const NRANKS: usize = 4;
/// Small pipeline threshold so the streamed (chunked) datapath runs even
/// for test-sized payloads, with several chunks per message.
const PIPE_THRESHOLD: u64 = 4096;
const PIPE_CHUNK: u64 = 1024;

fn platform() -> Platform {
    let mut p = Platform::skx_impi().with_pipeline(PIPE_THRESHOLD, PIPE_CHUNK);
    p.jitter_sigma = 0.0;
    p.with_deadlock_timeout(10.0)
}

/// FNV-1a over a byte slice: cheap, deterministic payload fingerprint.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic per-permutation stagger: how long each rank sleeps
/// before its first operation, in milliseconds. SplitMix64 keyed by the
/// permutation index, so every run of the test sees the same schedules.
fn stagger_ms(perm: u64, rank: usize) -> u64 {
    let mut x = perm
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(rank as u64 + 1);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    (x ^ (x >> 31)) % 40
}

/// The program under test: a ring of streamed derived-type rendezvous
/// sends (several chunks each), then a burst of eager traffic, then an
/// all-to-one collect. Returns this rank's virtual fingerprint: the
/// FNV hash of everything it received and the exact bits of its final
/// virtual clock.
fn workload(comm: &mut Comm, perm: u64) -> (u64, u64) {
    let rank = comm.rank();
    let size = comm.size();
    std::thread::sleep(Duration::from_millis(stagger_ms(perm, rank)));

    // Strided type: 96 blocks of 2 f64s every 3 → 1536 payload bytes per
    // instance; 6 instances = 9216 packed bytes > threshold, 9 chunks.
    let t = Datatype::vector(96, 2, 3, &Datatype::f64()).unwrap().commit();
    let count = 6;
    let elems = (t.extent() as usize / 8) * count + 8;
    let src: Vec<f64> = (0..elems).map(|i| (rank * 10_000 + i) as f64 * 0.5).collect();
    let mut ring_buf = vec![0.0f64; elems];

    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;
    // Split by parity so the blocking ssends can't deadlock the ring.
    if rank.is_multiple_of(2) {
        comm.ssend(as_bytes(&src), 0, &t, count, right, 7).unwrap();
        comm.recv(as_bytes_mut(&mut ring_buf), 0, &t, count, Some(left), Some(7)).unwrap();
    } else {
        comm.recv(as_bytes_mut(&mut ring_buf), 0, &t, count, Some(left), Some(7)).unwrap();
        comm.ssend(as_bytes(&src), 0, &t, count, right, 7).unwrap();
    }
    let mut hash = fnv(as_bytes(&ring_buf));

    // Eager burst: each rank sends a small distinct message to every
    // other rank, then receives in rank order (no wildcards, so matching
    // is fully determined however the envelopes race in).
    for peer in 0..size {
        if peer != rank {
            let msg: Vec<i32> = (0..16).map(|i| (rank * 100 + peer * 10 + i) as i32).collect();
            comm.send_slice(&msg, peer, 20 + rank as i32).unwrap();
        }
    }
    for peer in 0..size {
        if peer != rank {
            let mut got = vec![0i32; 16];
            comm.recv_slice(&mut got, Some(peer), Some(20 + peer as i32)).unwrap();
            hash = hash.wrapping_mul(31).wrapping_add(fnv(as_bytes(&got)));
        }
    }

    comm.barrier().unwrap();
    (hash, comm.wtime().to_bits())
}

/// Across permuted schedules, every rank's received bytes and final
/// virtual clock are bit-identical — and no interleaving trips the
/// streamed-gather, pool-aliasing, conservation, or clock invariants.
#[test]
fn permuted_schedules_are_virtually_identical() {
    let _serial = TOGGLE.lock().unwrap();
    set_oracle_checks(true);
    let baseline = Universe::run(platform(), NRANKS, |comm| workload(comm, 0));
    assert_eq!(baseline.len(), NRANKS);
    for perm in 1..5u64 {
        let run = Universe::run(platform(), NRANKS, move |comm| workload(comm, perm));
        assert_eq!(
            run, baseline,
            "schedule permutation {perm} diverged from the baseline virtual outcome"
        );
    }
}

/// The invariant layer itself: a violation must abort the run rather
/// than let a corrupted stream complete. Exercised by the public knob
/// only (checks off → the same workload is identical too, as a control).
#[test]
fn checks_off_matches_checks_on() {
    let _serial = TOGGLE.lock().unwrap();
    set_oracle_checks(true);
    let audited = Universe::run(platform(), NRANKS, |comm| workload(comm, 3));
    set_oracle_checks(false);
    let bare = Universe::run(platform(), NRANKS, |comm| workload(comm, 3));
    set_oracle_checks(true);
    assert_eq!(audited, bare, "enabling the oracle checks changed virtual results");
}
