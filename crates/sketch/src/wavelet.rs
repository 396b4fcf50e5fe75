//! Haar wavelet synopsis for range aggregates.
//!
//! The wavelet synopsis keeps the `B` largest (normalized) Haar
//! coefficients of a value vector and reconstructs any prefix/range sum
//! from them. It concentrates error where the signal is smooth and spends
//! coefficients where it is not — the classic alternative to histograms in
//! NSB's synopsis family.

use aqp_mergeable::MergeError;

/// A truncated Haar wavelet decomposition of a (zero-padded) vector.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletSynopsis {
    /// Original (un-padded) length.
    len: usize,
    /// Padded power-of-two length.
    padded: usize,
    /// Retained `(index, coefficient)` pairs of the normalized transform.
    coefficients: Vec<(u32, f64)>,
}

impl WaveletSynopsis {
    /// Builds a synopsis of `data` keeping the `keep` largest-magnitude
    /// coefficients.
    ///
    /// # Panics
    /// Panics if `data` is empty or `keep == 0`.
    pub fn build(data: &[f64], keep: usize) -> Self {
        assert!(!data.is_empty(), "cannot transform an empty vector");
        assert!(keep > 0, "must keep at least one coefficient");
        let padded = data.len().next_power_of_two();
        let mut buf = vec![0.0; padded];
        buf[..data.len()].copy_from_slice(data);
        forward_haar(&mut buf);
        // Rank coefficients by magnitude and keep the top `keep`.
        let mut ranked: Vec<(u32, f64)> = buf
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0.0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        ranked.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
        ranked.truncate(keep);
        ranked.sort_by_key(|&(i, _)| i);
        Self {
            len: data.len(),
            padded,
            coefficients: ranked,
        }
    }

    /// Number of retained coefficients.
    pub fn num_coefficients(&self) -> usize {
        self.coefficients.len()
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.coefficients.len() * (4 + 8)
    }

    /// Reconstructs the full (approximate) vector.
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut buf = vec![0.0; self.padded];
        for &(i, c) in &self.coefficients {
            buf[i as usize] = c;
        }
        inverse_haar(&mut buf);
        buf.truncate(self.len);
        buf
    }

    /// Approximate value at index `i`.
    pub fn point(&self, i: usize) -> f64 {
        assert!(i < self.len, "index {i} out of bounds");
        self.reconstruct()[i]
    }

    /// Approximate sum over indices `[a, b]` (inclusive, clamped).
    pub fn range_sum(&self, a: usize, b: usize) -> f64 {
        let b = b.min(self.len.saturating_sub(1));
        if a > b {
            return 0.0;
        }
        self.reconstruct()[a..=b].iter().sum()
    }

    /// Merges a synopsis of the same vector length by coefficient-wise
    /// addition over the index union — the Haar transform is linear, so
    /// this is exactly the synopsis of the *summed* signal (when both
    /// sides kept every non-zero coefficient; with truncation the usual
    /// top-B error applies). The merged synopsis may retain more
    /// coefficients than either input; it is not re-truncated. Returns a
    /// typed error on length mismatch.
    pub fn merge(&mut self, other: &WaveletSynopsis) -> Result<(), MergeError> {
        if self.len != other.len || self.padded != other.padded {
            return Err(MergeError::Incompatible {
                kind: "wavelet",
                expected: format!("len {} (padded {})", self.len, self.padded),
                found: format!("len {} (padded {})", other.len, other.padded),
            });
        }
        let mut merged = Vec::with_capacity(self.coefficients.len() + other.coefficients.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.coefficients.len() || j < other.coefficients.len() {
            match (self.coefficients.get(i), other.coefficients.get(j)) {
                (Some(&(ia, ca)), Some(&(ib, cb))) if ia == ib => {
                    let c = ca + cb;
                    if c != 0.0 {
                        merged.push((ia, c));
                    }
                    i += 1;
                    j += 1;
                }
                (Some(&(ia, ca)), Some(&(ib, _))) if ia < ib => {
                    merged.push((ia, ca));
                    i += 1;
                }
                (Some(_), Some(&(ib, cb))) => {
                    merged.push((ib, cb));
                    j += 1;
                }
                (Some(&(ia, ca)), None) => {
                    merged.push((ia, ca));
                    i += 1;
                }
                (None, Some(&(ib, cb))) => {
                    merged.push((ib, cb));
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.coefficients = merged;
        Ok(())
    }
}

/// In-place normalized Haar transform (length must be a power of two).
fn forward_haar(data: &mut [f64]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut len = n;
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut tmp = vec![0.0; n];
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            tmp[i] = (data[2 * i] + data[2 * i + 1]) * inv_sqrt2;
            tmp[half + i] = (data[2 * i] - data[2 * i + 1]) * inv_sqrt2;
        }
        data[..len].copy_from_slice(&tmp[..len]);
        len = half;
    }
}

/// In-place inverse of [`forward_haar`].
fn inverse_haar(data: &mut [f64]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut tmp = vec![0.0; n];
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for i in 0..half {
            tmp[2 * i] = (data[i] + data[half + i]) * inv_sqrt2;
            tmp[2 * i + 1] = (data[i] - data[half + i]) * inv_sqrt2;
        }
        data[..len].copy_from_slice(&tmp[..len]);
        len *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coefficients_reconstruct_exactly() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 13) % 37) as f64).collect();
        let w = WaveletSynopsis::build(&data, 128);
        let r = w.reconstruct();
        for (a, b) in data.iter().zip(&r) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn haar_roundtrip() {
        let mut v: Vec<f64> = (0..64).map(|i| (i as f64).sin() * 5.0).collect();
        let orig = v.clone();
        forward_haar(&mut v);
        inverse_haar(&mut v);
        for (a, b) in orig.iter().zip(&v) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn transform_preserves_energy() {
        // Normalized Haar is orthonormal: ‖x‖² is invariant.
        let mut v: Vec<f64> = (0..128).map(|i| ((i * 7) % 23) as f64).collect();
        let e0: f64 = v.iter().map(|x| x * x).sum();
        forward_haar(&mut v);
        let e1: f64 = v.iter().map(|x| x * x).sum();
        assert!((e0 - e1).abs() / e0 < 1e-10);
    }

    #[test]
    fn smooth_signal_compresses_well() {
        // A piecewise-constant signal needs very few Haar coefficients.
        let mut data = vec![10.0; 256];
        for slot in data.iter_mut().skip(128) {
            *slot = 20.0;
        }
        let w = WaveletSynopsis::build(&data, 4);
        let r = w.reconstruct();
        for (a, b) in data.iter().zip(&r) {
            assert!((a - b).abs() < 1e-9, "piecewise-constant should be exact");
        }
    }

    #[test]
    fn range_sum_accuracy_grows_with_budget() {
        let data: Vec<f64> = (0..512)
            .map(|i| 100.0 + 50.0 * (i as f64 / 40.0).sin() + ((i * 37) % 11) as f64)
            .collect();
        let exact: f64 = data[100..300].iter().sum();
        let err = |b: usize| (WaveletSynopsis::build(&data, b).range_sum(100, 299) - exact).abs();
        assert!(err(256) <= err(8), "more coefficients must not hurt");
        assert!(err(256) / exact < 0.05);
    }

    #[test]
    fn point_queries() {
        let data = vec![5.0, 7.0, 1.0, 3.0];
        let w = WaveletSynopsis::build(&data, 4);
        for (i, &v) in data.iter().enumerate() {
            assert!((w.point(i) - v).abs() < 1e-10);
        }
    }

    #[test]
    fn non_power_of_two_padding() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let w = WaveletSynopsis::build(&data, 128);
        assert_eq!(w.reconstruct().len(), 100);
        let exact: f64 = data.iter().sum();
        assert!((w.range_sum(0, 99) - exact).abs() < 1e-6);
    }

    #[test]
    fn range_edge_cases() {
        let w = WaveletSynopsis::build(&[1.0, 2.0, 3.0], 4);
        assert_eq!(w.range_sum(2, 1), 0.0); // inverted range
        assert!((w.range_sum(0, 100) - 6.0).abs() < 1e-9); // clamped
    }

    #[test]
    fn space_accounting() {
        let data: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let w = WaveletSynopsis::build(&data, 32);
        assert!(w.num_coefficients() <= 32);
        assert_eq!(w.size_bytes(), w.num_coefficients() * 12);
    }

    #[test]
    fn merge_adds_signals() {
        // Full-budget synopses of two signals merge into the synopsis of
        // their sum, by linearity of the Haar transform.
        let a: Vec<f64> = (0..100).map(|i| ((i * 13) % 37) as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| ((i * 7) % 23) as f64).collect();
        let mut merged = WaveletSynopsis::build(&a, 128);
        merged.merge(&WaveletSynopsis::build(&b, 128)).unwrap();
        let r = merged.reconstruct();
        for i in 0..100 {
            assert!((r[i] - (a[i] + b[i])).abs() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn merge_rejects_length_mismatch_without_panicking() {
        let mut a = WaveletSynopsis::build(&[1.0, 2.0, 3.0], 4);
        let err = a
            .merge(&WaveletSynopsis::build(&[1.0, 2.0], 4))
            .unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::Incompatible {
                    kind: "wavelet",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        WaveletSynopsis::build(&[], 4);
    }
}
