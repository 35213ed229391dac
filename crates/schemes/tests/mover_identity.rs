//! The wall-clock mover never shows in virtual time: each ddtbench layout
//! at 1 MiB, sent derived → contiguous and contiguous → derived, gives
//! bit-identical `wtime` on both ranks and the oracle's bytes whether the
//! derived rendezvous streams through the handoff (the default) or ships
//! one monolithic buffer (`Platform::without_pipeline`).

use nonctg_core::datatype::pack_into_uncompiled;
use nonctg_core::Universe;
use nonctg_schemes::{AppKernel, KernelWorkload};
use nonctg_simnet::Platform;

/// Rank 1's buffer, packed back through the layout when the receive was
/// derived, and both ranks' final `wtime` bits.
type Outcome = (Vec<u8>, [u64; 2]);

fn one_way(p: Platform, w: &KernelWorkload, derived_send: bool) -> Outcome {
    let (a, b) = Universe::run_pair(p, |comm| {
        let src = w.make_source();
        let expected = w.expected(&src);
        let got = if comm.rank() == 0 {
            if derived_send {
                comm.send(&src, 0, &w.dtype, 1, 1, 0).unwrap();
            } else {
                comm.send_bytes(&expected, 1, 0).unwrap();
            }
            Vec::new()
        } else if derived_send {
            let mut buf = vec![0u8; w.msg_bytes];
            comm.recv_bytes(&mut buf, Some(0), Some(0)).unwrap();
            buf
        } else {
            let mut buf = vec![0u8; w.extent];
            comm.recv(&mut buf, 0, &w.dtype, 1, Some(0), Some(0)).unwrap();
            let mut packed = vec![0u8; w.msg_bytes];
            pack_into_uncompiled(&buf, 0, &w.dtype, 1, &mut packed).unwrap();
            packed
        };
        if comm.rank() == 1 {
            assert!(got == expected, "{}: bytes differ from the oracle", w.kernel);
        }
        (got, comm.wtime().to_bits())
    });
    (b.0, [a.1, b.1])
}

#[test]
fn handoff_and_monolithic_movers_share_virtual_time() {
    for kernel in AppKernel::ALL {
        let w = KernelWorkload::sized(kernel, 1 << 20);
        for derived_send in [true, false] {
            let streamed = one_way(Platform::skx_impi(), &w, derived_send);
            let whole = one_way(Platform::skx_impi().without_pipeline(), &w, derived_send);
            assert_eq!(streamed, whole, "{kernel}, derived send: {derived_send}");
        }
    }
}
