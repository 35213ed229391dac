//! Tests of communicator contexts and `Comm::split`.

use nonctg_core::{ReduceOp, Universe};
use nonctg_simnet::Platform;

fn quiet() -> Platform {
    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    p
}

#[test]
fn split_into_halves() {
    Universe::run(quiet(), 6, |comm| {
        let color = (comm.rank() / 3) as i64;
        let mut sub = comm.split(color, comm.rank() as i64).unwrap().expect("member");
        assert_eq!(sub.size(), 3);
        assert_eq!(sub.rank(), comm.rank() % 3);
        assert_eq!(sub.world_rank(), comm.rank());
        // Communication stays inside the half.
        let mut v = [1u64];
        sub.allreduce(&mut v, ReduceOp::Sum).unwrap();
        assert_eq!(v[0], 3);
    });
}

#[test]
fn key_reorders_ranks() {
    Universe::run(quiet(), 4, |comm| {
        // Reverse order via descending keys.
        let key = -(comm.rank() as i64);
        let sub = comm.split(0, key).unwrap().expect("member");
        assert_eq!(sub.rank(), 3 - comm.rank());
    });
}

#[test]
fn undefined_color_excluded() {
    Universe::run(quiet(), 4, |comm| {
        let color = if comm.rank() == 3 { -1 } else { 0 };
        let sub = comm.split(color, 0).unwrap();
        if comm.rank() == 3 {
            assert!(sub.is_none());
        } else {
            let mut sub = sub.expect("member");
            assert_eq!(sub.size(), 3);
            let mut v = [sub.rank() as u64];
            sub.allreduce(&mut v, ReduceOp::Sum).unwrap();
            assert_eq!(v[0], 3);
        }
    });
}

#[test]
fn messages_do_not_cross_contexts() {
    Universe::run(quiet(), 4, |comm| {
        // Two disjoint pair-communicators with identical local ranks/tags.
        let color = (comm.rank() / 2) as i64;
        let mut sub = comm.split(color, comm.rank() as i64).unwrap().expect("member");
        let partner = 1 - sub.rank();
        // Everyone sends its color; a cross-context leak would deliver the
        // other pair's (different) value.
        let payload = [color as f64];
        let mut got = [f64::NAN];
        sub.sendrecv_slices(&payload, &mut got, partner, 7).unwrap();
        assert_eq!(got[0], color as f64, "world rank {}", comm.rank());
    });
}

#[test]
fn nested_splits() {
    Universe::run(quiet(), 8, |comm| {
        let mut half = comm.split((comm.rank() / 4) as i64, 0).unwrap().expect("half");
        assert_eq!(half.size(), 4);
        let mut quarter = half.split((half.rank() / 2) as i64, 0).unwrap().expect("quarter");
        assert_eq!(quarter.size(), 2);
        let mut v = [quarter.world_rank() as u64];
        quarter.allreduce(&mut v, ReduceOp::Sum).unwrap();
        // Each quarter holds consecutive world ranks {2k, 2k+1}.
        let base = (comm.rank() / 2) * 2;
        assert_eq!(v[0], (base + base + 1) as u64);
    });
}

#[test]
fn windows_are_per_communicator() {
    Universe::run(quiet(), 4, |comm| {
        let color = (comm.rank() / 2) as i64;
        let mut sub = comm.split(color, comm.rank() as i64).unwrap().expect("member");
        let mut win = sub.win_create(8).unwrap();
        win.fence(&mut sub).unwrap();
        if sub.rank() == 0 {
            let t = nonctg_datatype::Datatype::f64();
            let v = [color as f64 + 10.0];
            win.put(&mut sub, nonctg_datatype::as_bytes(&v), 0, &t, 1, 1, 0).unwrap();
        }
        win.fence(&mut sub).unwrap();
        if sub.rank() == 1 {
            let raw = win.read_local(0..8).unwrap();
            let got = f64::from_le_bytes(raw.try_into().unwrap());
            assert_eq!(got, color as f64 + 10.0, "window leaked across contexts");
        }
    });
}

#[test]
fn repeated_splits_get_distinct_contexts() {
    Universe::run(quiet(), 2, |comm| {
        let a = comm.split(0, 0).unwrap().expect("a");
        let b = comm.split(0, 0).unwrap().expect("b");
        assert_ne!(a.context(), b.context());
        assert_ne!(a.context(), comm.context());
    });
}

#[test]
fn collectives_work_inside_split() {
    Universe::run(quiet(), 6, |comm| {
        let mut sub = comm.split((comm.rank() % 2) as i64, 0).unwrap().expect("member");
        // bcast within the subgroup from its rank 0.
        let mut v = if sub.rank() == 0 { [sub.world_rank() as f64] } else { [0.0] };
        sub.bcast(&mut v, 0).unwrap();
        // Subgroup 0 = world ranks {0,2,4} rooted at 0; subgroup 1 = {1,3,5} at 1.
        assert_eq!(v[0], (comm.rank() % 2) as f64);
    });
}

#[test]
fn dup_is_independent_context() {
    Universe::run(quiet(), 2, |comm| {
        let mut dup = comm.dup().unwrap();
        assert_eq!(dup.rank(), comm.rank());
        assert_eq!(dup.size(), comm.size());
        assert_ne!(dup.context(), comm.context());
        // Same-tag messages on the two communicators do not cross.
        if comm.rank() == 0 {
            comm.send_slice(&[1.0f64], 1, 5).unwrap();
            dup.send_slice(&[2.0f64], 1, 5).unwrap();
        } else {
            let mut b = [0.0f64; 1];
            // Receive on the duplicate FIRST: it must get the dup message.
            dup.recv_slice(&mut b, Some(0), Some(5)).unwrap();
            assert_eq!(b[0], 2.0);
            comm.recv_slice(&mut b, Some(0), Some(5)).unwrap();
            assert_eq!(b[0], 1.0);
        }
    });
}

#[test]
fn status_count_and_elements() {
    use nonctg_datatype::Datatype;
    Universe::run(quiet(), 2, |comm| {
        if comm.rank() == 0 {
            comm.send_slice(&[1.0f64, 2.0, 3.0], 1, 0).unwrap();
        } else {
            // Post a larger receive; 3 of 8 elements arrive.
            let mut buf = vec![0.0f64; 8];
            let st = comm.recv_slice(&mut buf, Some(0), Some(0)).unwrap();
            let f64_t = Datatype::f64();
            assert_eq!(st.count(&f64_t), Some(3));
            assert_eq!(st.element_count(&f64_t), Some(3));
            // As pairs: one whole pair plus a partial with 1 element.
            let pair = Datatype::contiguous(2, &f64_t).unwrap();
            assert_eq!(st.count(&pair), None, "3 doubles are not whole pairs");
            assert_eq!(st.element_count(&pair), Some(3));
        }
    });
}

#[test]
fn split_clock_continues_rank_timeline() {
    Universe::run(quiet(), 2, |comm| {
        comm.flush_cache(8 << 20); // advance the parent clock
        let t_parent = comm.wtime();
        assert!(t_parent > 0.0);
        let sub = comm.split(0, comm.rank() as i64).unwrap().expect("member");
        assert!(
            sub.wtime() >= t_parent,
            "sub-communicator clock regressed: {} < {t_parent}",
            sub.wtime()
        );
    });
}
