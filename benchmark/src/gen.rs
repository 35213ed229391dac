//! Seeded inputs. The library under test only ever sees what this module
//! generates from `--seed`: buffer contents, the order of the ddtbench
//! kernels within a round, and the `type_churn_64k` count sequence.

use nonctg_schemes::AppKernel;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20200518;

/// SplitMix64: small, fast, and good enough to make buffers incompressible
/// and permutations unbiased.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Fill `buf` with the bytes of `(seed, stream)`.
pub fn fill(buf: &mut [u8], seed: u64, stream: u64) {
    let mut r = Rng::new(seed, stream);
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&r.next_u64().to_le_bytes());
    }
    let tail = chunks.into_remainder();
    let last = r.next_u64().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Whether `buf` holds exactly what [`fill`] would write — checks a
/// received contiguous payload without keeping a second copy of it.
pub fn matches(buf: &[u8], seed: u64, stream: u64) -> bool {
    let mut r = Rng::new(seed, stream);
    let mut chunks = buf.chunks_exact(8);
    let body = chunks.by_ref().all(|c| c == r.next_u64().to_le_bytes());
    let tail = chunks.remainder();
    body && tail == &r.next_u64().to_le_bytes()[..tail.len()]
}

/// First and last vector count of `type_churn_64k`.
pub const CHURN_COUNTS: std::ops::RangeInclusive<usize> = 7_681..=8_192;

/// The 512 distinct `type_churn_64k` counts in seeded order: four times
/// the 128-entry plan LRU, so cycling through them never hits the cache.
pub fn churn_counts(seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = CHURN_COUNTS.collect();
    Rng::new(seed, 0xC4).shuffle(&mut v);
    v
}

/// The four ddtbench kernels in the seeded order of one round.
pub fn kernel_order(seed: u64) -> [AppKernel; 4] {
    let mut k = AppKernel::ALL;
    Rng::new(seed, 0xDD).shuffle(&mut k);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (mut a, mut b, mut c) = (vec![0u8; 1021], vec![0u8; 1021], vec![0u8; 1021]);
        fill(&mut a, 7, 1);
        fill(&mut b, 7, 1);
        fill(&mut c, 8, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(matches(&a, 7, 1));
        assert!(!matches(&a, 7, 2));
        a[1020] ^= 1;
        assert!(!matches(&a, 7, 1));
        assert_eq!(churn_counts(7), churn_counts(7));
        assert_ne!(churn_counts(7), churn_counts(8));
        assert_eq!(kernel_order(7), kernel_order(7));
    }

    #[test]
    fn churn_counts_are_the_512_distinct_values() {
        let mut v = churn_counts(3);
        assert_eq!(v.len(), 512);
        v.sort_unstable();
        assert_eq!(v, CHURN_COUNTS.collect::<Vec<_>>());
    }
}
