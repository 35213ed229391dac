//! The block reducer: every timing the benchmark reports is the median,
//! over a run's blocks, of a per-block statistic.
//!
//! Samples are `u32` nanoseconds in one preallocated buffer per block that
//! is sorted in place, reduced to a [`Stat`] and reused, so the harness
//! holds constant memory however long it measures.

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1).
pub const TAIL_MIN_BEYOND: usize = 10;

/// The reduction of one block's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Sample count.
    pub n: usize,
    /// Median, ns.
    pub p50: f64,
    /// The tail percentile, ns: the 90th when the block supports it.
    pub tail: f64,
    /// The quantile `tail` actually is (0.9 unless the block was too short).
    pub tail_q: f64,
    /// Mean, ns.
    pub mean: f64,
    /// Sum of all samples, ns.
    pub sum: u64,
}

/// Median of sorted samples (mean of the two middle ones for even `n`).
pub fn median_sorted(sorted: &[u32]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

/// Nearest-rank `q`-quantile of sorted samples, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u32], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile out of range: {q}");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (rank + TAIL_MIN_BEYOND <= n).then(|| sorted[rank - 1] as f64)
}

/// The `q`-quantile when the sample supports it; otherwise the highest
/// quantile that still has [`TAIL_MIN_BEYOND`] samples beyond it, and the
/// median when even that does not exist. Returns `(value, quantile used)`.
pub fn tail(sorted: &[u32], q: f64) -> (f64, f64) {
    if let Some(v) = percentile(sorted, q) {
        return (v, q);
    }
    let n = sorted.len();
    if n > 2 * TAIL_MIN_BEYOND {
        let rank = n - TAIL_MIN_BEYOND;
        (sorted[rank - 1] as f64, rank as f64 / n as f64)
    } else {
        (median_sorted(sorted), 0.5)
    }
}

/// Sort `samples` in place and reduce them.
pub fn reduce(samples: &mut [u32]) -> Stat {
    samples.sort_unstable();
    let sum: u64 = samples.iter().map(|&s| s as u64).sum();
    let (tail, tail_q) = tail(samples, 0.9);
    Stat {
        n: samples.len(),
        p50: median_sorted(samples),
        tail,
        tail_q,
        mean: sum as f64 / samples.len() as f64,
        sum,
    }
}

/// Reduce a block whose samples belong to `shapes` message shapes, laid out
/// shape by shape in equal runs. The median of a mix of shapes sits in the
/// gap between two of them and jumps with the smallest shift in their
/// shares, so `p50` is instead the median over the shapes of each shape's
/// own median; everything else is over the whole block.
pub fn reduce_mix(samples: &mut [u32], shapes: usize) -> Stat {
    assert!(
        shapes > 0 && samples.len().is_multiple_of(shapes),
        "{} samples in {shapes} shapes",
        samples.len()
    );
    let per_shape: Vec<f64> = samples
        .chunks_mut(samples.len() / shapes)
        .map(|c| {
            c.sort_unstable();
            median_sorted(c)
        })
        .collect();
    Stat {
        p50: median(&per_shape),
        ..reduce(samples)
    }
}

/// Where sample `j` of a block of `n` goes so that [`reduce_mix`] finds the
/// samples of each of `shapes` round-robin shapes side by side.
#[inline]
pub fn mix_slot(j: usize, n: usize, shapes: usize) -> usize {
    (j % shapes) * (n / shapes) + j / shapes
}

/// The tail of a run whose blocks are too short for their own: blocks are
/// pooled in groups just large enough for the 90th percentile to have ten
/// samples beyond it, and the groups' tails reduced by their median.
/// `pooled` holds every block's samples, block after block. Returns
/// `(value, quantile used)`.
pub fn grouped_tail(pooled: &[u32], block_n: usize) -> (f64, f64) {
    let blocks = pooled.len() / block_n.max(1);
    let per_group = (10 * TAIL_MIN_BEYOND)
        .div_ceil(block_n.max(1))
        .min(blocks.max(1));
    let groups = (blocks / per_group).max(1);
    let tails: Vec<(f64, f64)> = (0..groups)
        .map(|g| {
            let end = if g + 1 == groups {
                pooled.len()
            } else {
                (g + 1) * per_group * block_n
            };
            let mut s = pooled[g * per_group * block_n..end].to_vec();
            s.sort_unstable();
            tail(&s, 0.9)
        })
        .collect();
    let q = tails.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
    (median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()), q)
}

/// Median of a few values (block statistics, repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Coefficient of variation of `values`, in percent.
pub fn cv_pct(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    100.0 * var.sqrt() / mean
}

/// Saturating `Duration` → `u32` nanoseconds (4.29 s; no sample of this
/// benchmark comes near it).
pub fn ns32(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let s: Vec<u32> = (1..=109).collect();
        // rank ceil(0.9*109)=99, 10 beyond: allowed.
        assert_eq!(percentile(&s, 0.9), Some(99.0));
        let s: Vec<u32> = (1..=99).collect();
        // rank 90, only 9 beyond: refused.
        assert_eq!(percentile(&s, 0.9), None);
        assert_eq!(percentile(&s[..9], 0.5), None);
    }

    #[test]
    fn tail_degrades_to_highest_supported_quantile() {
        let s: Vec<u32> = (1..=45).collect();
        let (v, q) = tail(&s, 0.9);
        assert_eq!(v, 35.0);
        assert!((q - 35.0 / 45.0).abs() < 1e-12);
        let s: Vec<u32> = (1..=20).collect();
        assert_eq!(tail(&s, 0.9), (10.5, 0.5));
    }

    #[test]
    fn reduce_sorts_and_summarises() {
        let mut s: Vec<u32> = (1..=200).rev().collect();
        let st = reduce(&mut s);
        assert_eq!((st.n, st.p50, st.tail, st.tail_q), (200, 100.5, 180.0, 0.9));
        assert_eq!(st.sum, 200 * 201 / 2);
        assert_eq!(st.mean, 100.5);
    }

    #[test]
    fn workload_value_is_median_of_block_medians() {
        // One slow block must not move the reported value.
        let mut blocks: Vec<Vec<u32>> = (0..9).map(|b| vec![100 + b; 150]).collect();
        blocks[4] = vec![10_000; 150];
        let p50s: Vec<f64> = blocks.iter_mut().map(|b| reduce(b).p50).collect();
        assert_eq!(median(&p50s), 105.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn mixed_shapes_report_the_median_shape_not_the_gap_between_two() {
        // Four shapes, 25 samples each, round-robin; shape medians 10, 20, 30, 40.
        let n = 100;
        let mut s = vec![0u32; n];
        for j in 0..n {
            s[mix_slot(j, n, 4)] = 10 * (j as u32 % 4 + 1);
        }
        assert!(s[..25].iter().all(|&v| v == 10) && s[75..].iter().all(|&v| v == 40));
        let st = reduce_mix(&mut s, 4);
        assert_eq!((st.p50, st.n, st.sum), (25.0, 100, 2500));
        // One shape: the plain reduction.
        let mut a: Vec<u32> = (1..=200).rev().collect();
        let mut b = a.clone();
        assert_eq!(reduce_mix(&mut a, 1), reduce(&mut b));
    }

    #[test]
    fn short_blocks_pool_into_groups_that_support_the_tail() {
        // Nine blocks of 34: groups of three (102 samples), median of three tails.
        let pooled: Vec<u32> = (0..9)
            .flat_map(|b| (1..=34).map(move |v| v + 100 * (b / 3)))
            .collect();
        let (v, q) = grouped_tail(&pooled, 34);
        assert_eq!(q, 0.9);
        assert_eq!(v, 131.0);
        // Nine blocks of 96: pairs, the last group takes the odd block.
        let pooled = vec![7u32; 9 * 96];
        assert_eq!(grouped_tail(&pooled, 96), (7.0, 0.9));
        // Too short even pooled: the highest supported quantile, and says so.
        let pooled: Vec<u32> = (1..=45).collect();
        let (v, q) = grouped_tail(&pooled, 15);
        assert_eq!(v, 35.0);
        assert!(q < 0.9);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(cv_pct(&[4.0, 4.0, 4.0]), 0.0);
        assert!((cv_pct(&[9.0, 11.0]) - 10.0).abs() < 1e-12);
    }
}
