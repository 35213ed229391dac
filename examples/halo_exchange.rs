//! Halo exchange on a 2-D grid — the FEM/stencil boundary transfer the
//! paper's introduction motivates.
//!
//! Four ranks own quadrants of a square grid of `f64` cells. Each rank
//! exchanges its boundary row (contiguous in memory) and boundary column
//! (non-contiguous: one element per row) with its neighbors. Column halos
//! are described by subarray datatypes — no manual packing — and received
//! directly into the ghost column with a derived receive type.
//!
//! ```text
//! cargo run --release --example halo_exchange
//! ```

use nonctg::core::{Comm, Universe};
use nonctg::datatype::{as_bytes, as_bytes_mut, ArrayOrder, Datatype};
use nonctg::simnet::Platform;

/// Interior size per rank (cells per side), plus a one-cell ghost ring.
const N: usize = 64;
const W: usize = N + 2; // row width with ghosts

/// Index into the local (ghosted) grid.
fn at(row: usize, col: usize) -> usize {
    row * W + col
}

fn run(comm: &mut Comm) -> f64 {
    let rank = comm.rank();
    // Row-major addressing on the 2x2 rank grid.
    let (my_r, my_c) = (rank / 2, rank % 2);
    let rank_of = |r: usize, c: usize| r * 2 + c;

    // Local grid with ghost ring; interior initialized to a rank-tagged
    // pattern so neighbors can verify provenance.
    let mut grid = vec![0.0f64; W * W];
    for r in 1..=N {
        for c in 1..=N {
            grid[at(r, c)] = (rank * 1_000_000 + r * 1000 + c) as f64;
        }
    }

    // A column of the interior: N elements, one per row -> stride W.
    let col_t = Datatype::subarray(&[N, W], &[N, 1], &[0, 0], ArrayOrder::C, &Datatype::f64())
        .expect("column type")
        .commit();
    let row_t = Datatype::contiguous(N, &Datatype::f64()).expect("row type").commit();

    let tag_row = 10;
    let tag_col = 20;

    // East-west exchange (columns, non-contiguous).
    if my_c == 0 {
        let east = rank_of(my_r, 1);
        // send my east boundary column (col N), receive ghost col N+1
        let send_origin = at(1, N) * 8;
        comm.send(as_bytes(&grid), send_origin, &col_t, 1, east, tag_col).expect("send col");
        let recv_origin = at(1, N + 1) * 8;
        comm.recv(as_bytes_mut(&mut grid), recv_origin, &col_t, 1, Some(east), Some(tag_col))
            .expect("recv col");
    } else {
        let west = rank_of(my_r, 0);
        let recv_origin = at(1, 0) * 8;
        comm.recv(as_bytes_mut(&mut grid), recv_origin, &col_t, 1, Some(west), Some(tag_col))
            .expect("recv col");
        let send_origin = at(1, 1) * 8;
        comm.send(as_bytes(&grid), send_origin, &col_t, 1, west, tag_col).expect("send col");
    }

    // North-south exchange (rows, contiguous).
    if my_r == 0 {
        let south = rank_of(1, my_c);
        let send_origin = at(N, 1) * 8;
        comm.send(as_bytes(&grid), send_origin, &row_t, 1, south, tag_row).expect("send row");
        let recv_origin = at(N + 1, 1) * 8;
        comm.recv(as_bytes_mut(&mut grid), recv_origin, &row_t, 1, Some(south), Some(tag_row))
            .expect("recv row");
    } else {
        let north = rank_of(0, my_c);
        let recv_origin = at(0, 1) * 8;
        comm.recv(as_bytes_mut(&mut grid), recv_origin, &row_t, 1, Some(north), Some(tag_row))
            .expect("recv row");
        let send_origin = at(1, 1) * 8;
        comm.send(as_bytes(&grid), send_origin, &row_t, 1, north, tag_row).expect("send row");
    }

    // Verify a ghost cell: the east ghost column of rank (r,0) must hold
    // the west boundary column of rank (r,1), and so on.
    if my_c == 0 {
        let neighbor = rank_of(my_r, 1);
        let got = grid[at(5, N + 1)];
        let want = (neighbor * 1_000_000 + 5 * 1000 + 1) as f64;
        assert_eq!(got, want, "rank {rank}: east ghost mismatch");
    }
    if my_r == 1 {
        let neighbor = rank_of(0, my_c);
        let got = grid[at(0, 5)];
        let want = (neighbor * 1_000_000 + N * 1000 + 5) as f64;
        assert_eq!(got, want, "rank {rank}: north ghost mismatch");
    }

    comm.barrier().expect("barrier");
    comm.wtime()
}

fn main() {
    let times = Universe::run(Platform::skx_impi(), 4, run);
    println!("halo exchange on a 2x2 rank grid of {N}x{N} tiles: all ghosts verified");
    println!("virtual completion time: {:.2} us", times[0] * 1e6);
    println!(
        "(column halos moved as subarray datatypes — no manual packing, \
         received straight into the ghost column)"
    );
}
