//! Zipfian popularity distribution, as used by YCSB [Cooper et al. 2010]
//! and the paper's MYCSB workloads (§7).
//!
//! Implements the Gray et al. rejection-free inversion method (the same
//! algorithm YCSB uses): draw `u ∈ [0,1)` and map it through the
//! generalized harmonic numbers. Items are returned as ranks in
//! `[0, n)` with rank 0 the most popular; callers scatter ranks over the
//! key space to avoid accidental key-order locality.

/// A Zipfian generator over `[0, n)` with exponent `theta`
/// (YCSB default 0.99).
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
}

impl Zipfian {
    /// YCSB's default skew.
    pub const YCSB_THETA: f64 = 0.99;

    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0 && theta > 0.0 && theta < 1.0);
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for moderate n; for huge n, sample-and-extrapolate
        // would be needed, but benchmark key counts stay within reach.
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Maps a uniform draw `u ∈ [0,1)` to a rank (0 = most popular).
    #[inline]
    pub fn rank_for(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Draws a rank using the provided RNG.
    #[inline]
    pub fn sample(&self, rng: &mut crate::Rng64) -> u64 {
        self.rank_for(rng.f64())
    }

    /// Scatters a rank over the item space so popular keys are not
    /// adjacent in key order (YCSB's fnv-hash scatter).
    #[inline]
    pub fn scatter(&self, rank: u64) -> u64 {
        // FNV-1a 64-bit over the rank's bytes.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in rank.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h % self.n
    }

    /// Theoretical probability of the most popular item.
    pub fn top_probability(&self) -> f64 {
        1.0 / self.zetan
    }

    #[allow(dead_code)]
    fn zeta2(&self) -> f64 {
        self.zeta2theta
    }

    /// Draws a rank and scatters it over the item space in one step —
    /// the usual way to turn a popularity draw into a key id.
    #[inline]
    pub fn sample_scattered(&self, rng: &mut crate::Rng64) -> u64 {
        self.scatter(self.sample(rng))
    }
}

/// A reproducible stream of point-get key ids over `[0, n)`: Zipfian
/// with exponent `theta` (ranks scattered over the id space), or uniform
/// when `theta == 0`, so skewed and uniform runs share the key population.
#[derive(Clone, Debug)]
pub struct PointGets {
    dist: Option<Zipfian>,
    n: u64,
    rng: crate::Rng64,
}

impl PointGets {
    /// `theta == 0.0` means uniform; otherwise Zipfian (YCSB range,
    /// `0 < theta < 1`).
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        PointGets {
            dist: (theta > 0.0).then(|| Zipfian::new(n, theta)),
            n,
            rng: crate::Rng64::new(seed),
        }
    }

    /// The next key id in `[0, n)`.
    #[inline]
    pub fn next_key(&mut self) -> u64 {
        match &self.dist {
            Some(z) => z.sample_scattered(&mut self.rng),
            None => self.rng.below(self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    #[test]
    fn ranks_in_range() {
        let z = Zipfian::new(1000, Zipfian::YCSB_THETA);
        let mut rng = Rng64::new(1);
        for _ in 0..100_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed() {
        let z = Zipfian::new(10_000, Zipfian::YCSB_THETA);
        let mut rng = Rng64::new(2);
        let mut counts = vec![0u64; 10_000];
        const N: u64 = 1_000_000;
        for _ in 0..N {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let p0 = counts[0] as f64 / N as f64;
        let expect = z.top_probability();
        assert!(
            (p0 - expect).abs() / expect < 0.1,
            "rank0 popularity {p0} vs theory {expect}"
        );
        // Rank 0 must dominate the median rank by orders of magnitude.
        assert!(counts[0] > 100 * counts[5000].max(1));
    }

    #[test]
    fn zipf_monotone_decreasing_head() {
        let z = Zipfian::new(1000, Zipfian::YCSB_THETA);
        let mut rng = Rng64::new(3);
        let mut counts = vec![0u64; 1000];
        for _ in 0..500_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        assert!(counts[10] > counts[100]);
    }

    #[test]
    fn point_gets_uniform_and_zipf_stay_in_range() {
        let mut u = PointGets::new(1000, 0.0, 1);
        let mut z = PointGets::new(1000, Zipfian::YCSB_THETA, 1);
        let mut ucounts = vec![0u64; 1000];
        let mut zcounts = vec![0u64; 1000];
        for _ in 0..200_000 {
            ucounts[u.next_key() as usize] += 1;
            zcounts[z.next_key() as usize] += 1;
        }
        // Uniform: no key dominates. Zipf: one (scattered) key does.
        let umax = *ucounts.iter().max().unwrap();
        let zmax = *zcounts.iter().max().unwrap();
        assert!(umax < 1000, "uniform max {umax}");
        assert!(zmax > 10_000, "zipf max {zmax}");
    }

    #[test]
    fn scatter_is_a_fixed_mapping_within_range() {
        let z = Zipfian::new(777, Zipfian::YCSB_THETA);
        for r in 0..777 {
            let s = z.scatter(r);
            assert!(s < 777);
            assert_eq!(s, z.scatter(r));
        }
    }
}
