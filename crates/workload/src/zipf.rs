//! A seeded Zipf(s) sampler over `{0, …, n−1}` via inverse-CDF lookup.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Zipf distribution with exponent `s` over a domain of `n` items: item `k`
/// (0-based) has probability proportional to `1/(k+1)^s`. `s = 0` is
/// uniform; `s ≈ 1` matches word frequencies; `s > 1` is heavy skew.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SmallRng,
}

impl Zipf {
    /// Creates a sampler.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Self {
            cdf,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Domain size.
    pub fn domain(&self) -> usize {
        self.cdf.len()
    }

    /// Draws the next item.
    pub fn sample(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact probability of item `k`, read off the sampler's CDF table.
    fn pmf(z: &Zipf, k: usize) -> f64 {
        if k == 0 {
            z.cdf[0]
        } else {
            z.cdf[k] - z.cdf[k - 1]
        }
    }

    #[test]
    fn uniform_when_s_zero() {
        let mut z = Zipf::new(10, 0.0, 1);
        let mut counts = vec![0u32; 10];
        for _ in 0..20_000 {
            counts[z.sample()] += 1;
        }
        for &c in &counts {
            assert!((1700..=2300).contains(&c), "count {c}");
        }
    }

    #[test]
    fn skew_concentrates_mass() {
        let mut z = Zipf::new(1000, 1.5, 2);
        let mut head = 0;
        let n = 50_000;
        for _ in 0..n {
            if z.sample() < 10 {
                head += 1;
            }
        }
        // With s=1.5 the top-10 items carry the large majority of mass.
        assert!(head as f64 / n as f64 > 0.7, "head mass {head}");
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(100, 1.0, 0);
        let total: f64 = (0..100).map(|k| pmf(&z, k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for k in 1..100 {
            assert!(pmf(&z, k) <= pmf(&z, k - 1) + 1e-15);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Zipf::new(50, 1.0, 9);
        let mut b = Zipf::new(50, 1.0, 9);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn empirical_matches_pmf() {
        let mut z = Zipf::new(20, 1.0, 4);
        let mut counts = [0u32; 20];
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample()] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let expected = pmf(&z, k) * n as f64;
            let got = count as f64;
            assert!(
                (got - expected).abs() < 5.0 * expected.sqrt().max(10.0),
                "item {k}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn samples_stay_in_the_domain() {
        for s in [0.0, 1.0, 3.0] {
            let mut z = Zipf::new(7, s, 3);
            assert_eq!(z.domain(), 7);
            let mut seen = [false; 7];
            for _ in 0..5_000 {
                let k = z.sample();
                assert!(k < 7, "s={s} drew {k}");
                seen[k] = true;
            }
            // Item 0 is always the mode; at s = 0 every item turns up.
            assert!(seen[0]);
            if s == 0.0 {
                assert!(seen.iter().all(|&b| b));
            }
        }
    }
}
