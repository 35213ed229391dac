//! Distributed 2-D Jacobi iteration — the kind of application the paper's
//! benchmark informs, built end-to-end on this stack:
//!
//! * a 2x2 process grid over a square domain;
//! * row halos exchanged as contiguous types, column halos as *subarray*
//!   derived types (no manual packing — the paper's §5 advice);
//! * deadlock-free neighbor exchange with blocking `send`/`recv` pairs
//!   (the lower rank of each pair sends first);
//! * convergence decided with an `allreduce(Max)` of the local residuals.
//!
//! Solves Laplace's equation with fixed boundary values and verifies the
//! distributed result against a single-rank reference run.
//!
//! ```text
//! cargo run --release --example jacobi_stencil
//! ```

use nonctg::core::{Comm, ReduceOp, Universe};
use nonctg::datatype::{as_bytes, as_bytes_mut, ArrayOrder, Datatype};
use nonctg::simnet::Platform;

const N: usize = 64; // interior cells per rank per side
const W: usize = N + 2; // with ghost ring
const PGRID: usize = 2; // 2x2 ranks
const TOL: f64 = 1e-3;
const MAX_ITERS: usize = 10_000;

fn at(r: usize, c: usize) -> usize {
    r * W + c
}

/// Boundary condition on the global domain edge: u = 100 on the top edge,
/// 0 elsewhere.
fn apply_global_boundary(grid: &mut [f64], my_r: usize) {
    if my_r == 0 {
        for c in 0..W {
            grid[at(0, c)] = 100.0;
        }
    }
}

struct Neighbors {
    north: Option<usize>,
    south: Option<usize>,
    west: Option<usize>,
    east: Option<usize>,
}

fn neighbors(rank: usize) -> Neighbors {
    let (r, c) = (rank / PGRID, rank % PGRID);
    Neighbors {
        north: (r > 0).then(|| (r - 1) * PGRID + c),
        south: (r + 1 < PGRID).then(|| (r + 1) * PGRID + c),
        west: (c > 0).then(|| r * PGRID + c - 1),
        east: (c + 1 < PGRID).then(|| r * PGRID + c + 1),
    }
}

/// Swap one halo with `peer`: send `dtype` read at byte `send` of `grid`,
/// receive `dtype` into byte `recv`. The lower rank sends first and the
/// higher receives first, so each pair is deadlock-free at any message
/// size, and the send never aliases the ghost region being received.
fn swap_halo(
    comm: &mut Comm,
    grid: &mut [f64],
    dtype: &Datatype,
    send: usize,
    recv: usize,
    peer: usize,
    tag: i32,
) {
    let send_first = comm.rank() < peer;
    if send_first {
        comm.send(as_bytes(grid), send, dtype, 1, peer, tag).expect("halo exchange");
    }
    comm.recv(as_bytes_mut(grid), recv, dtype, 1, Some(peer), Some(tag)).expect("halo exchange");
    if !send_first {
        comm.send(as_bytes(grid), send, dtype, 1, peer, tag).expect("halo exchange");
    }
}

fn exchange_halos(comm: &mut Comm, grid: &mut [f64], col_t: &Datatype, row_t: &Datatype) {
    let nb = neighbors(comm.rank());
    // North/south rows (contiguous).
    if let Some(n) = nb.north {
        swap_halo(comm, grid, row_t, at(1, 1) * 8, at(0, 1) * 8, n, 10);
    }
    if let Some(s) = nb.south {
        swap_halo(comm, grid, row_t, at(N, 1) * 8, at(N + 1, 1) * 8, s, 10);
    }
    // West/east columns (subarray derived type, stride W).
    if let Some(w) = nb.west {
        swap_halo(comm, grid, col_t, at(1, 1) * 8, at(1, 0) * 8, w, 11);
    }
    if let Some(e) = nb.east {
        swap_halo(comm, grid, col_t, at(1, N) * 8, at(1, N + 1) * 8, e, 11);
    }
}

fn jacobi_distributed(comm: &mut Comm) -> (Vec<f64>, usize, f64) {
    let my_r = comm.rank() / PGRID;
    let mut grid = vec![0.0f64; W * W];
    let mut next = vec![0.0f64; W * W];
    apply_global_boundary(&mut grid, my_r);
    apply_global_boundary(&mut next, my_r);

    let col_t = Datatype::subarray(&[N, W], &[N, 1], &[0, 0], ArrayOrder::C, &Datatype::f64())
        .expect("col type")
        .commit();
    let row_t = Datatype::contiguous(N, &Datatype::f64()).expect("row type").commit();

    let mut iters = 0;
    let mut residual = f64::INFINITY;
    while iters < MAX_ITERS && residual > TOL {
        exchange_halos(comm, &mut grid, &col_t, &row_t);
        let mut local_max = 0.0f64;
        for r in 1..=N {
            for c in 1..=N {
                // Ghost cells hold either a neighbor's halo or the global
                // boundary value, so every interior cell updates uniformly.
                let v = 0.25
                    * (grid[at(r - 1, c)] + grid[at(r + 1, c)] + grid[at(r, c - 1)]
                        + grid[at(r, c + 1)]);
                local_max = local_max.max((v - grid[at(r, c)]).abs());
                next[at(r, c)] = v;
            }
        }
        std::mem::swap(&mut grid, &mut next);
        let mut res = [local_max];
        comm.allreduce(&mut res, ReduceOp::Max).expect("allreduce");
        residual = res[0];
        iters += 1;
    }
    (grid, iters, residual)
}

/// Single-rank reference on the full (2N)x(2N) domain.
fn jacobi_reference() -> Vec<f64> {
    let g = PGRID * N;
    let gw = g + 2;
    let mut grid = vec![0.0f64; gw * gw];
    let mut next = grid.clone();
    for c in 0..gw {
        grid[c] = 100.0;
        next[c] = 100.0;
    }
    let mut residual = f64::INFINITY;
    let mut iters = 0;
    while iters < MAX_ITERS && residual > TOL {
        let mut local_max = 0.0f64;
        for r in 1..=g {
            for c in 1..=g {
                let i = r * gw + c;
                let v = 0.25 * (grid[i - gw] + grid[i + gw] + grid[i - 1] + grid[i + 1]);
                local_max = local_max.max((v - grid[i]).abs());
                next[i] = v;
            }
        }
        std::mem::swap(&mut grid, &mut next);
        residual = local_max;
        iters += 1;
    }
    grid
}

fn main() {
    let results = Universe::run(Platform::skx_impi(), PGRID * PGRID, |comm| {
        let t0 = comm.wtime();
        let (grid, iters, residual) = jacobi_distributed(comm);
        (comm.rank(), grid, iters, residual, comm.wtime() - t0)
    });

    let reference = jacobi_reference();
    let g = PGRID * N;
    let gw = g + 2;

    // Verify every rank's interior against the reference solution.
    let mut max_err = 0.0f64;
    for (rank, grid, _, _, _) in &results {
        let (pr, pc) = (rank / PGRID, rank % PGRID);
        for r in 1..=N {
            for c in 1..=N {
                let gr = pr * N + r; // 1-based global interior row
                let gc = pc * N + c;
                let err = (grid[at(r, c)] - reference[gr * gw + gc]).abs();
                max_err = max_err.max(err);
            }
        }
    }
    let (_, _, iters, residual, vtime) = &results[0];
    println!("2-D Jacobi on a {g}x{g} domain over {} ranks:", PGRID * PGRID);
    println!("  stopped after {iters} iterations (residual {residual:.2e})");
    println!("  distributed vs single-rank max |error| = {max_err:.3e}");
    println!("  virtual time: {:.2} ms", vtime * 1e3);
    assert!(max_err < 1e-9, "distributed solution diverged from reference");
    println!("  verified ✓ (column halos were subarray datatypes, convergence via allreduce)");
}
