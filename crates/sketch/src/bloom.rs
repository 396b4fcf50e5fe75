//! Bloom filter: approximate set membership with no false negatives.

use aqp_mergeable::MergeError;

use crate::hash::{hash_bytes, hash_with_seed};

/// A Bloom filter with `m` bits and `k` hash functions.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    inserted: u64,
    seed: u64,
}

impl BloomFilter {
    /// Creates a filter with explicit parameters.
    ///
    /// # Panics
    /// Panics if `num_bits == 0` or `num_hashes == 0`.
    pub fn new(num_bits: usize, num_hashes: u32, seed: u64) -> Self {
        assert!(
            num_bits > 0 && num_hashes > 0,
            "bits and hashes must be positive"
        );
        Self {
            bits: vec![0; num_bits.div_ceil(64)],
            num_bits,
            num_hashes,
            inserted: 0,
            seed,
        }
    }

    /// Creates a filter sized for `expected_items` at a target
    /// false-positive rate: `m = −n·ln(p)/ln(2)²`, `k = (m/n)·ln(2)`.
    pub fn with_rate(expected_items: usize, fp_rate: f64, seed: u64) -> Self {
        assert!(expected_items > 0, "expected_items must be positive");
        assert!(fp_rate > 0.0 && fp_rate < 1.0, "fp_rate must be in (0,1)");
        let ln2 = std::f64::consts::LN_2;
        let m = (-(expected_items as f64) * fp_rate.ln() / (ln2 * ln2)).ceil() as usize;
        let k = ((m as f64 / expected_items as f64) * ln2).round().max(1.0) as u32;
        Self::new(m.max(64), k, seed)
    }

    /// Bits in the filter.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Items inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Expected false-positive rate at the current load:
    /// `(1 − e^{−kn/m})^k`.
    pub fn expected_fp_rate(&self) -> f64 {
        let k = self.num_hashes as f64;
        let n = self.inserted as f64;
        let m = self.num_bits as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: &[u8]) {
        let h = hash_bytes(item);
        for i in 0..self.num_hashes {
            let bit = (hash_with_seed(h, self.seed ^ i as u64) % self.num_bits as u64) as usize;
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Membership test: `false` is definitive, `true` may be a false
    /// positive.
    pub fn contains(&self, item: &[u8]) -> bool {
        let h = hash_bytes(item);
        (0..self.num_hashes).all(|i| {
            let bit = (hash_with_seed(h, self.seed ^ i as u64) % self.num_bits as u64) as usize;
            self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Merges a filter with identical parameters (bit-wise set union).
    /// Returns a typed error on parameter mismatch.
    pub fn merge(&mut self, other: &BloomFilter) -> Result<(), MergeError> {
        if (self.num_bits, self.num_hashes, self.seed)
            != (other.num_bits, other.num_hashes, other.seed)
        {
            return Err(MergeError::Incompatible {
                kind: "bloom",
                expected: format!(
                    "{} bits, {} hashes, seed {}",
                    self.num_bits, self.num_hashes, self.seed
                ),
                found: format!(
                    "{} bits, {} hashes, seed {}",
                    other.num_bits, other.num_hashes, other.seed
                ),
            });
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        self.inserted += other.inserted;
        Ok(())
    }

    /// Codec accessor: the hash seed.
    pub fn seed_for_codec(&self) -> u64 {
        self.seed
    }

    /// Codec accessor: the raw 64-bit words of the bit array.
    pub fn words_for_codec(&self) -> &[u64] {
        &self.bits
    }

    /// Codec constructor: reassembles a filter from its raw parts.
    /// Returns `None` when the word array does not match the declared size.
    pub fn from_codec_parts(
        num_bits: usize,
        num_hashes: u32,
        seed: u64,
        inserted: u64,
        bits: Vec<u64>,
    ) -> Option<Self> {
        if num_bits == 0 || num_hashes == 0 || bits.len() != num_bits.div_ceil(64) {
            return None;
        }
        Some(Self {
            bits,
            num_bits,
            num_hashes,
            inserted,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_rate(1000, 0.01, 1);
        for i in 0..1000u64 {
            bf.insert(&i.to_le_bytes());
        }
        for i in 0..1000u64 {
            assert!(bf.contains(&i.to_le_bytes()), "false negative at {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut bf = BloomFilter::with_rate(10_000, 0.01, 2);
        for i in 0..10_000u64 {
            bf.insert(&i.to_le_bytes());
        }
        let fps = (10_000..110_000u64)
            .filter(|i| bf.contains(&i.to_le_bytes()))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "fp rate {rate}");
        assert!((bf.expected_fp_rate() - 0.01).abs() < 0.01);
    }

    #[test]
    fn empty_contains_nothing() {
        let bf = BloomFilter::new(1024, 3, 0);
        assert!(!bf.contains(b"anything"));
        assert_eq!(bf.expected_fp_rate(), 0.0);
    }

    #[test]
    fn merge_is_union() {
        let mut a = BloomFilter::new(4096, 4, 5);
        let mut b = BloomFilter::new(4096, 4, 5);
        a.insert(b"left");
        b.insert(b"right");
        a.merge(&b).unwrap();
        assert!(a.contains(b"left") && a.contains(b"right"));
        assert_eq!(a.inserted(), 2);
    }

    #[test]
    fn merge_rejects_mismatch_without_panicking() {
        let mut a = BloomFilter::new(4096, 4, 1);
        let snapshot = a.clone();
        let err = a.merge(&BloomFilter::new(4096, 4, 2)).unwrap_err();
        assert!(
            matches!(err, MergeError::Incompatible { kind: "bloom", .. }),
            "{err}"
        );
        assert_eq!(a, snapshot, "failed merge must leave self unchanged");
    }

    #[test]
    fn sizing_math() {
        let bf = BloomFilter::with_rate(1000, 0.01, 0);
        // ~9.6 bits/item, ~7 hashes.
        assert!((9000..11000).contains(&bf.num_bits()), "{}", bf.num_bits());
        assert!((6..=8).contains(&bf.num_hashes()));
    }
}
