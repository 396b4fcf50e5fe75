//! HyperLogLog distinct-count sketch (Flajolet et al.), with the classic
//! small- and large-range corrections.
//!
//! NSB's canonical example of "sampling cannot, sketches can": a uniform
//! sample is provably unable to estimate `COUNT(DISTINCT …)` well, while a
//! 2-kilobyte HLL answers it to ~2% regardless of data size.

use aqp_mergeable::MergeError;

use crate::hash::{hash_bytes, mix64};

/// A HyperLogLog sketch with `2^precision` registers.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates a sketch; `precision` in `4..=16` (m = 2^precision registers,
    /// relative standard error ≈ 1.04/√m).
    ///
    /// # Panics
    /// Panics if `precision` is outside `4..=16`.
    pub fn new(precision: u8) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "precision must be in 4..=16, got {precision}"
        );
        Self {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// The number of registers m.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.registers.len()
    }

    /// Analytic relative standard error ≈ 1.04/√m.
    pub fn relative_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// Inserts an item by bytes.
    pub fn insert(&mut self, item: &[u8]) {
        self.insert_hashed(hash_bytes(item));
    }

    /// Inserts a pre-hashed item. A second mix decorrelates from upstream
    /// hash choices.
    pub fn insert_hashed(&mut self, item_hash: u64) {
        let h = mix64(item_hash ^ 0x9e37_79b9_7f4a_7c15);
        let p = self.precision as u32;
        let idx = (h >> (64 - p)) as usize;
        let rest = h << p;
        // Rank = position of the leftmost 1-bit in the remaining bits (+1).
        let rank = if rest == 0 {
            (64 - p + 1) as u8
        } else {
            (rest.leading_zeros() + 1) as u8
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Distinct-count estimate with small-range (linear counting) and
    /// large-range corrections.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range: linear counting on empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
            raw
        } else if raw <= (1u64 << 32) as f64 / 30.0 {
            raw
        } else {
            // Large-range correction for 32-bit hash collisions does not
            // apply to 64-bit hashes in practice; keep raw.
            raw
        }
    }

    /// Codec accessor: the precision parameter.
    pub fn precision_for_codec(&self) -> u8 {
        self.precision
    }

    /// Codec accessor: the raw register array.
    pub fn registers_for_codec(&self) -> &[u8] {
        &self.registers
    }

    /// Codec constructor: reassembles a sketch from its raw parts.
    /// Returns `None` when the register array does not match the declared
    /// precision.
    pub fn from_codec_parts(precision: u8, registers: Vec<u8>) -> Option<Self> {
        if !(4..=16).contains(&precision) || registers.len() != 1usize << precision {
            return None;
        }
        Some(Self {
            precision,
            registers,
        })
    }

    /// Merges another sketch of the same precision (register-wise max).
    /// Equivalent to sketching the union of the two streams; leaves `self`
    /// untouched and returns a typed error on precision mismatch.
    pub fn merge(&mut self, other: &HyperLogLog) -> Result<(), MergeError> {
        if self.precision != other.precision {
            return Err(MergeError::Incompatible {
                kind: "hyperloglog",
                expected: format!("precision {}", self.precision),
                found: format!("precision {}", other.precision),
            });
        }
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(hll: &mut HyperLogLog, range: std::ops::Range<u64>) {
        for i in range {
            hll.insert(&i.to_le_bytes());
        }
    }

    #[test]
    fn accuracy_within_analytic_error() {
        for &n in &[100u64, 10_000, 1_000_000] {
            let mut hll = HyperLogLog::new(12); // rel err ≈ 1.6%
            fill(&mut hll, 0..n);
            let est = hll.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(
                rel < 5.0 * hll.relative_error(),
                "n={n} est={est} rel={rel}"
            );
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(12);
        for _ in 0..100 {
            fill(&mut hll, 0..1000);
        }
        let est = hll.estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.1, "est {est}");
    }

    #[test]
    fn empty_estimates_zero() {
        let hll = HyperLogLog::new(10);
        assert_eq!(hll.estimate(), 0.0);
    }

    #[test]
    fn small_range_linear_counting() {
        let mut hll = HyperLogLog::new(12);
        fill(&mut hll, 0..10);
        let est = hll.estimate();
        assert!((est - 10.0).abs() < 1.5, "small-range est {est}");
    }

    #[test]
    fn higher_precision_is_more_accurate() {
        let trials = 20;
        let mse = |p: u8| -> f64 {
            let mut total = 0.0;
            for t in 0..trials {
                let mut hll = HyperLogLog::new(p);
                for i in 0..50_000u64 {
                    hll.insert(&(i.wrapping_mul(t + 1)).to_le_bytes());
                }
                // distinct ≈ 50k per trial (multiplication by t+1 is a
                // bijection mod 2^64 for odd t+1; even t+1 loses some).
                let est = hll.estimate();
                let err = (est - 50_000.0) / 50_000.0;
                total += err * err;
            }
            total / trials as f64
        };
        // p=14 should beat p=6 comfortably on average.
        assert!(mse(14) < mse(6));
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        fill(&mut a, 0..60_000);
        fill(&mut b, 40_000..100_000);
        a.merge(&b).unwrap();
        let est = a.estimate();
        assert!(
            (est - 100_000.0).abs() / 100_000.0 < 0.05,
            "union est {est}"
        );
    }

    #[test]
    fn merge_idempotent() {
        let mut a = HyperLogLog::new(10);
        fill(&mut a, 0..1000);
        let before = a.estimate();
        let copy = a.clone();
        a.merge(&copy).unwrap();
        assert_eq!(a.estimate(), before);
    }

    #[test]
    fn merge_rejects_mismatch_without_panicking() {
        let mut a = HyperLogLog::new(10);
        let snapshot = a.clone();
        let err = a.merge(&HyperLogLog::new(11)).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::Incompatible {
                    kind: "hyperloglog",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(a, snapshot, "failed merge must leave self unchanged");
    }

    #[test]
    #[should_panic(expected = "precision must be in 4..=16")]
    fn precision_bounds() {
        HyperLogLog::new(3);
    }

    #[test]
    fn fixed_space_regardless_of_cardinality() {
        let mut hll = HyperLogLog::new(12);
        let before = hll.size_bytes();
        fill(&mut hll, 0..1_000_000);
        assert_eq!(hll.size_bytes(), before);
        assert_eq!(hll.size_bytes(), 4096);
    }
}
