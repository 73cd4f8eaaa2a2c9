//! Workload generators for the Masstree evaluation (§6.1 and §7 of the
//! paper): uniformly random 1-to-10-byte decimal keys, Zipfian-popularity
//! MYCSB mixes, shared-prefix key-length sweeps, the skewed-partition
//! router of §6.6, and 8-byte alphabetical keys for the hash-table
//! comparison.

pub mod decimal;
pub mod keylen;
pub mod mycsb;
pub mod skew;
pub mod zipf;

pub use decimal::{alpha_key, decimal_key, DecimalKeys};
pub use keylen::PrefixedKeys;
pub use mycsb::{Mix, MycsbOp, MycsbWorkload};
pub use skew::SkewRouter;
pub use zipf::Zipfian;

/// A small, fast, seedable PRNG (splitmix64) used by all generators so
/// workloads are reproducible across runs and threads.
#[derive(Clone, Debug)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Rng64 {
            state: seed ^ 0x9e3779b97f4a7c15,
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift rejection-free mapping; bias is negligible for
        // benchmark bounds (≪ 2^64).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = Rng64::new(3);
        let mut seen = [false; 16];
        for _ in 0..10_000 {
            seen[r.below(16) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(11);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
