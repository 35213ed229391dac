//! Collective operations over the whole universe: broadcast and
//! reduce/allreduce.
//!
//! Implemented *on top of* the point-to-point layer (like any MPI's
//! fallback collectives), so every virtual-time property of the p2p cost
//! model — eager limits, rendezvous, staging — carries over. Tree-shaped
//! algorithms give the expected `O(log P)` latency scaling:
//!
//! * `bcast`: binomial tree;
//! * `reduce`: binomial tree with per-hop combine cost;
//! * `allreduce`: reduce + bcast.
//!
//! All collectives accept a tag space of their own so they never match
//! user point-to-point traffic.

use nonctg_datatype::Scalar;

use crate::comm::Comm;
use crate::error::Result;

/// Tag base reserved for collectives (outside the typical user range).
const COLL_TAG: i32 = i32::MAX - 1024;

/// A binary combining operation for reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Elementwise product.
    Prod,
}

impl ReduceOp {
    fn combine_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Prod => a * b,
        }
    }
}

/// Trait for element types usable in reductions.
pub trait Reducible: Scalar {
    /// Combine two values under `op`.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

impl Reducible for f64 {
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
        op.combine_f64(a, b)
    }
}

impl Reducible for f32 {
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
        op.combine_f64(a as f64, b as f64) as f32
    }
}

macro_rules! impl_reducible_int {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                }
            }
        }
    )*};
}

impl_reducible_int!(i8, u8, i16, u16, i32, u32, i64, u64);

impl Comm {
    /// Broadcast `buf` from `root` to every rank (binomial tree).
    pub fn bcast<T: Scalar>(&mut self, buf: &mut [T], root: usize) -> Result<()> {
        self.check_rank(root)?;
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        // Virtual rank with the root rotated to 0.
        let vrank = (self.rank() + size - root) % size;
        let tag = COLL_TAG;

        // Receive from the parent: vrank minus its lowest set bit.
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                let parent = (vrank - mask + root) % size;
                self.recv_slice(buf, Some(parent), Some(tag))?;
                break;
            }
            mask <<= 1;
        }
        // Forward to children at descending offsets below that bit.
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < size {
                let child = (vrank + mask + root) % size;
                self.send_slice(buf, child, tag)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Reduce elementwise onto `root` (binomial tree). `inout` holds this
    /// rank's contribution on entry and, on the root, the result on exit.
    pub fn reduce<T: Reducible>(
        &mut self,
        inout: &mut [T],
        op: ReduceOp,
        root: usize,
    ) -> Result<()> {
        self.check_rank(root)?;
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        let vrank = (self.rank() + size - root) % size;
        let tag = COLL_TAG + 3;
        let mut recvbuf = inout.to_vec();
        let mut mask = 1usize;
        // Binomial reduction: at round k, ranks with bit k set send to
        // their partner and retire.
        while mask < size {
            if vrank & mask != 0 {
                let vdst = vrank & !mask;
                let dst = (vdst + root) % size;
                self.send_slice(inout, dst, tag)?;
                return Ok(()); // retired; only root holds the result
            } else if vrank + mask < size {
                let vsrc = vrank | mask;
                let src = (vsrc + root) % size;
                self.recv_slice(&mut recvbuf, Some(src), Some(tag))?;
                // Combine cost: one pass over the data.
                let bytes = std::mem::size_of_val(inout) as u64;
                let t = self.platform().gather_time(
                    bytes,
                    &nonctg_simnet::Access::Contiguous,
                    self.is_warm(),
                );
                self.charge(t);
                for (a, b) in inout.iter_mut().zip(recvbuf.iter()) {
                    *a = T::combine(op, *a, *b);
                }
            }
            mask <<= 1;
        }
        Ok(())
    }

    /// Allreduce: reduce to rank 0 then broadcast.
    pub fn allreduce<T: Reducible>(&mut self, inout: &mut [T], op: ReduceOp) -> Result<()> {
        self.reduce(inout, op, 0)?;
        self.bcast(inout, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;
    use nonctg_simnet::Platform;

    fn quiet() -> Platform {
        let mut p = Platform::skx_impi();
        p.jitter_sigma = 0.0;
        p
    }

    #[test]
    fn bcast_reaches_all_ranks() {
        for nranks in [1usize, 2, 3, 4, 7, 8] {
            for root in [0, nranks - 1] {
                Universe::run(quiet(), nranks, move |comm| {
                    let mut buf = if comm.rank() == root {
                        vec![42.0f64, 7.0, root as f64]
                    } else {
                        vec![0.0; 3]
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    assert_eq!(buf, vec![42.0, 7.0, root as f64], "rank {}", comm.rank());
                });
            }
        }
    }

    #[test]
    fn bcast_latency_scales_logarithmically() {
        let time_for = |nranks: usize| {
            let times = Universe::run(quiet(), nranks, move |comm| {
                let mut buf = vec![1.0f64; 16];
                comm.barrier().unwrap();
                let t0 = comm.wtime();
                comm.bcast(&mut buf, 0).unwrap();
                comm.barrier().unwrap();
                comm.wtime() - t0
            });
            times[0]
        };
        let t2 = time_for(2);
        let t16 = time_for(16);
        assert!(t16 < t2 * 6.0, "binomial bcast should be ~log2: {t2} vs {t16}");
        assert!(t16 > t2, "more ranks must cost more: {t2} vs {t16}");
    }

    #[test]
    fn reduce_sums_on_root() {
        for nranks in [2usize, 3, 5, 8] {
            Universe::run(quiet(), nranks, move |comm| {
                let mut v = vec![comm.rank() as f64 + 1.0, 1.0];
                comm.reduce(&mut v, ReduceOp::Sum, 0).unwrap();
                if comm.rank() == 0 {
                    let expect: f64 = (1..=nranks).map(|r| r as f64).sum();
                    assert_eq!(v, vec![expect, nranks as f64]);
                }
            });
        }
    }

    #[test]
    fn reduce_min_max_prod() {
        Universe::run(quiet(), 4, |comm| {
            let r = comm.rank() as i64;
            let mut mn = [r + 10];
            comm.reduce(&mut mn, ReduceOp::Min, 0).unwrap();
            let mut mx = [r];
            comm.reduce(&mut mx, ReduceOp::Max, 0).unwrap();
            let mut pr = [r + 1];
            comm.reduce(&mut pr, ReduceOp::Prod, 0).unwrap();
            if comm.rank() == 0 {
                assert_eq!(mn[0], 10);
                assert_eq!(mx[0], 3);
                assert_eq!(pr[0], 24);
            }
        });
    }

    #[test]
    fn allreduce_agrees_everywhere() {
        Universe::run(quiet(), 6, |comm| {
            let mut v = [comm.rank() as u64, 1];
            comm.allreduce(&mut v, ReduceOp::Sum).unwrap();
            assert_eq!(v, [15, 6]);
        });
        for nranks in [2usize, 4] {
            Universe::run(quiet(), nranks, |comm| {
                let mut empty: [f64; 0] = [];
                comm.allreduce(&mut empty, ReduceOp::Sum).unwrap();
            });
        }
    }

    #[test]
    fn collectives_do_not_cross_match_user_tags() {
        Universe::run(quiet(), 2, |comm| {
            if comm.rank() == 0 {
                // A user message posted *before* the collective must not be
                // stolen by it.
                comm.send_slice(&[9.0f64], 1, 5).unwrap();
                let mut b = vec![0.0f64; 1];
                comm.bcast(&mut b, 1).unwrap();
                assert_eq!(b[0], 3.0);
            } else {
                let mut b = vec![3.0f64; 1];
                comm.bcast(&mut b, 1).unwrap();
                let mut user = [0.0f64; 1];
                comm.recv_slice(&mut user, Some(0), Some(5)).unwrap();
                assert_eq!(user[0], 9.0);
            }
        });
    }
}
