//! Property tests of the runtime: random message schedules must deliver
//! every byte correctly, keep virtual time causal, and stay deterministic.

use nonctg_core::Universe;
use nonctg_datatype::{as_bytes, Datatype};
use nonctg_simnet::Platform;
use proptest::prelude::*;

fn quiet() -> Platform {
    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    p
}

/// A random two-rank schedule: a list of (elems, tag, strided) messages
/// sent 0 -> 1 in order, with tags drawn from a small set so some collide.
#[derive(Debug, Clone)]
struct Msg {
    elems: usize,
    tag: i32,
    strided: bool,
}

fn arb_schedule() -> impl Strategy<Value = Vec<Msg>> {
    proptest::collection::vec(
        (1usize..5000, 0i32..3, proptest::bool::ANY)
            .prop_map(|(elems, tag, strided)| Msg { elems, tag, strided }),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every message of a random schedule arrives intact and in per-tag
    /// order, whatever mixture of eager/rendezvous/strided paths it takes.
    #[test]
    fn random_schedules_deliver_everything(schedule in arb_schedule()) {
        let sched = schedule.clone();
        let oks = Universe::run(quiet(), 2, move |comm| {
            if comm.rank() == 0 {
                for (i, m) in sched.iter().enumerate() {
                    let marker = i as f64 * 1000.0;
                    if m.strided {
                        let src: Vec<f64> =
                            (0..2 * m.elems).map(|e| marker + e as f64).collect();
                        let t = Datatype::vector(m.elems, 1, 2, &Datatype::f64())
                            .unwrap()
                            .commit();
                        comm.send(as_bytes(&src), 0, &t, 1, 1, m.tag).unwrap();
                    } else {
                        let src: Vec<f64> =
                            (0..m.elems).map(|e| marker + (2 * e) as f64).collect();
                        comm.send_slice(&src, 1, m.tag).unwrap();
                    }
                }
                true
            } else {
                // Receive in per-tag order: for each tag, messages must
                // arrive in send order. Receive round-robin by original
                // schedule order using explicit tags.
                let mut last_time = 0.0f64;
                for (i, m) in sched.iter().enumerate() {
                    let marker = i as f64 * 1000.0;
                    let mut buf = vec![0.0f64; m.elems];
                    let st = comm.recv_slice(&mut buf, Some(0), Some(m.tag)).unwrap();
                    assert_eq!(st.bytes, m.elems * 8);
                    // Contents: element e == marker + 2e (strided picks the
                    // even elements; contiguous was built that way).
                    for (e, &v) in buf.iter().enumerate() {
                        assert_eq!(v, marker + (2 * e) as f64, "msg {i} elem {e}");
                    }
                    let now = comm.wtime();
                    assert!(now >= last_time, "virtual time went backwards");
                    last_time = now;
                }
                true
            }
        });
        prop_assert!(oks.iter().all(|&b| b));
    }

    /// The same schedule runs to identical virtual times every time, with
    /// jitter enabled (seeded) or disabled.
    #[test]
    fn schedules_are_deterministic(schedule in arb_schedule(), jitter in proptest::bool::ANY) {
        let platform = if jitter { Platform::skx_impi() } else { quiet() };
        let run = |sched: Vec<Msg>, p: Platform| {
            Universe::run(p, 2, move |comm| {
                if comm.rank() == 0 {
                    for m in &sched {
                        let src = vec![1.0f64; m.elems];
                        comm.send_slice(&src, 1, m.tag).unwrap();
                    }
                } else {
                    for m in &sched {
                        let mut buf = vec![0.0f64; m.elems];
                        comm.recv_slice(&mut buf, Some(0), Some(m.tag)).unwrap();
                    }
                }
                comm.wtime()
            })
        };
        let a = run(schedule.clone(), platform.clone());
        let b = run(schedule, platform);
        prop_assert_eq!(a, b);
    }

    /// Bigger messages never complete faster (monotone cost model), for
    /// both the eager and rendezvous regimes of every scheme path.
    #[test]
    fn cost_is_monotone_in_size(base in 64usize..32768) {
        let time_of = |elems: usize| {
            let (t, _) = Universe::run_pair(quiet(), move |comm| {
                if comm.rank() == 0 {
                    let src = vec![0.5f64; elems];
                    let t0 = comm.wtime();
                    comm.send_slice(&src, 1, 0).unwrap();
                    let mut z = [0u8; 0];
                    comm.recv_bytes(&mut z, Some(1), Some(1)).unwrap();
                    comm.wtime() - t0
                } else {
                    let mut buf = vec![0.0f64; elems];
                    comm.recv_slice(&mut buf, Some(0), Some(0)).unwrap();
                    comm.send_bytes(&[], 0, 1).unwrap();
                    0.0
                }
            });
            t
        };
        let small = time_of(base);
        let large = time_of(base * 4);
        prop_assert!(large >= small, "4x payload was faster: {small} vs {large}");
    }
}
