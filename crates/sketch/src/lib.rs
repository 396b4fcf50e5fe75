//! The synopsis zoo of *Approximate Query Processing: No Silver Bullet*.
//!
//! NSB's first family of AQP techniques is the pre-computed synopsis: a
//! small data structure that answers **one class of aggregate** with
//! analytically bounded error, in space that does not grow with the data.
//! Their strength (tiny, fast, mergeable, guaranteed) and their weakness
//! (each answers only its own question — none of them runs your `WHERE`
//! clause) together make the paper's point.
//!
//! | Sketch | Answers | Error bound | Module |
//! |---|---|---|---|
//! | Count-Min | point frequency | `+εN` one-sided, ε = e/w | [`countmin`] |
//! | Count-Sketch | point frequency | `±ε√F₂` two-sided | [`countsketch`] |
//! | HyperLogLog | distinct count | `≈1.04/√m` relative | [`hll`] |
//! | KMV (K-minimum values) | distinct count | `≈1/√(k−2)` relative | [`kmv`] |
//! | AMS (tug-of-war) | second moment F₂ | `ε` with medians-of-means | [`ams`] |
//! | Greenwald–Khanna | quantiles | ε-approximate rank | [`quantile`] |
//! | Equi-width / equi-depth histograms | range aggregates | per-bucket uniformity | [`histogram`] |
//! | Haar wavelet synopsis | range aggregates | top-B coefficient energy | [`wavelet`] |
//! | Bloom filter | membership | false-positive rate `(1−e^{−kn/m})^k` | [`bloom`] |
//!
//! All sketches are mergeable through the workspace [`Partial`] contract
//! (an append-only delta folds in instead of a rebuild), and deterministic
//! given their seeds.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use aqp_mergeable::{MergeError, Partial};

pub mod ams;
pub mod bloom;
pub mod countmin;
pub mod countsketch;
pub mod hash;
pub mod histogram;
pub mod hll;
pub mod kmv;
pub mod quantile;
pub mod wavelet;

pub use ams::AmsSketch;
pub use bloom::BloomFilter;
pub use countmin::CountMinSketch;
pub use countsketch::CountSketch;
pub use histogram::{EquiDepthHistogram, EquiWidthHistogram};
pub use hll::HyperLogLog;
pub use kmv::KmvSketch;
pub use quantile::GkQuantiles;
pub use wavelet::WaveletSynopsis;

/// Hooks a sketch's inherent `merge` into the workspace-wide [`Partial`]
/// contract.
macro_rules! impl_partial {
    ($($ty:ty),* $(,)?) => {$(
        impl Partial for $ty {
            fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
                <$ty>::merge(self, other)
            }
        }
    )*};
}

impl_partial!(
    CountMinSketch,
    HyperLogLog,
    CountSketch,
    AmsSketch,
    KmvSketch,
    BloomFilter,
    GkQuantiles,
    EquiWidthHistogram,
    EquiDepthHistogram,
    WaveletSynopsis,
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// `fresh` fed the items `range`, one insert each.
    fn fed<T>(mut fresh: T, range: std::ops::Range<u64>, insert: impl Fn(&mut T, &[u8])) -> T {
        for i in range {
            insert(&mut fresh, &i.to_le_bytes());
        }
        fresh
    }

    fn values(range: std::ops::Range<u64>) -> Vec<f64> {
        range.map(|i| ((i * 37) % 101) as f64).collect()
    }

    fn gk(range: std::ops::Range<u64>) -> GkQuantiles {
        let mut gk = GkQuantiles::new(0.01);
        for x in values(range) {
            gk.insert(x);
        }
        gk
    }

    /// Two overlapping partials of every sketch type, handed to `check`
    /// one type at a time.
    macro_rules! for_every_sketch_pair {
        ($check:ident) => {{
            let (a, b) = (0..600u64, 400..1000u64);
            let cm = || CountMinSketch::new(128, 4, 9);
            $check(
                fed(cm(), a.clone(), |s, x| s.insert(x, 1)),
                fed(cm(), b.clone(), |s, x| s.insert(x, 1)),
                CountMinSketch::merge,
            );
            $check(
                fed(HyperLogLog::new(10), a.clone(), |s, x| s.insert(x)),
                fed(HyperLogLog::new(10), b.clone(), |s, x| s.insert(x)),
                HyperLogLog::merge,
            );
            let cs = || CountSketch::new(128, 5, 3);
            $check(
                fed(cs(), a.clone(), |s, x| s.insert(x, 1)),
                fed(cs(), b.clone(), |s, x| s.insert(x, -1)),
                CountSketch::merge,
            );
            let ams = || AmsSketch::new(64, 5, 4);
            $check(
                fed(ams(), a.clone(), |s, x| s.insert(x, 1)),
                fed(ams(), b.clone(), |s, x| s.insert(x, 1)),
                AmsSketch::merge,
            );
            $check(
                fed(KmvSketch::new(64), a.clone(), |s, x| s.insert(x)),
                fed(KmvSketch::new(64), b.clone(), |s, x| s.insert(x)),
                KmvSketch::merge,
            );
            let bf = || BloomFilter::new(4096, 4, 5);
            $check(
                fed(bf(), a.clone(), |s, x| s.insert(x)),
                fed(bf(), b.clone(), |s, x| s.insert(x)),
                BloomFilter::merge,
            );
            $check(gk(a.clone()), gk(b.clone()), GkQuantiles::merge);
            $check(
                EquiWidthHistogram::build_in_range(&values(a.clone()), 16, 0.0, 100.0),
                EquiWidthHistogram::build_in_range(&values(b.clone()), 16, 0.0, 100.0),
                EquiWidthHistogram::merge,
            );
            let ed = EquiDepthHistogram::build(&values(a.clone()), 8);
            $check(ed.clone(), ed, EquiDepthHistogram::merge);
            $check(
                WaveletSynopsis::build(&values(0..64), 16),
                WaveletSynopsis::build(&values(64..128), 16),
                WaveletSynopsis::merge,
            );
        }};
    }

    #[test]
    fn trait_merge_matches_inherent_merge_for_every_sketch() {
        // Drives each sketch purely through the contract: the result must
        // be the sketch's own merge, and must have absorbed the partial.
        type Inherent<T> = fn(&mut T, &T) -> Result<(), MergeError>;
        fn check<T: Partial + Clone + PartialEq + Debug>(a: T, b: T, inherent: Inherent<T>) {
            let mut via_trait = a.clone();
            Partial::merge(&mut via_trait, &b).unwrap();
            assert_ne!(via_trait, a, "merging a non-empty partial changed nothing");
            let mut direct = a;
            inherent(&mut direct, &b).unwrap();
            assert_eq!(via_trait, direct);
        }
        for_every_sketch_pair!(check);
    }

    #[test]
    fn every_sketch_refuses_a_mismatched_partial_through_the_trait() {
        fn refuses<T: Partial + Clone + PartialEq + Debug>(mut a: T, other: T, kind: &str) {
            let snapshot = a.clone();
            match Partial::merge(&mut a, &other) {
                Err(MergeError::Incompatible { kind: k, .. }) => assert_eq!(k, kind),
                other => panic!("{kind}: expected Incompatible, got {other:?}"),
            }
            assert_eq!(
                a, snapshot,
                "{kind}: failed merge must leave self unchanged"
            );
        }
        let data = values(0..100);
        refuses(
            CountMinSketch::new(64, 4, 1),
            CountMinSketch::new(64, 3, 1),
            "count-min",
        );
        refuses(HyperLogLog::new(10), HyperLogLog::new(12), "hyperloglog");
        refuses(
            CountSketch::new(64, 5, 1),
            CountSketch::new(32, 5, 1),
            "count-sketch",
        );
        refuses(AmsSketch::new(32, 5, 1), AmsSketch::new(32, 5, 2), "ams");
        refuses(KmvSketch::new(64), KmvSketch::new(128), "kmv");
        refuses(
            BloomFilter::new(4096, 4, 1),
            BloomFilter::new(4096, 3, 1),
            "bloom",
        );
        refuses(
            GkQuantiles::new(0.01),
            GkQuantiles::new(0.05),
            "gk-quantiles",
        );
        refuses(
            EquiWidthHistogram::build_in_range(&data, 8, 0.0, 100.0),
            EquiWidthHistogram::build_in_range(&data, 8, 0.0, 200.0),
            "equi-width-histogram",
        );
        refuses(
            EquiDepthHistogram::build(&data, 4),
            EquiDepthHistogram::build(&data[..50], 4),
            "equi-depth-histogram",
        );
        refuses(
            WaveletSynopsis::build(&data[..64], 8),
            WaveletSynopsis::build(&data[..32], 8),
            "wavelet",
        );
    }

    #[test]
    fn merge_keeps_a_fixed_size_sketch_fixed_size() {
        // A mergeable synopsis is tiny because its space does not grow
        // with the data: folding a delta in must not grow it either.
        fn same_size<T: Partial + Clone>(a: T, b: T, size: fn(&T) -> usize) {
            let before = size(&a);
            let mut merged = a;
            Partial::merge(&mut merged, &b).unwrap();
            assert_eq!(size(&merged), before);
        }
        let (a, b) = (0..5_000u64, 2_500..9_000u64);
        let cm = || CountMinSketch::new(256, 4, 1);
        same_size(
            fed(cm(), a.clone(), |s, x| s.insert(x, 1)),
            fed(cm(), b.clone(), |s, x| s.insert(x, 1)),
            CountMinSketch::size_bytes,
        );
        let cs = || CountSketch::new(256, 5, 1);
        same_size(
            fed(cs(), a.clone(), |s, x| s.insert(x, 1)),
            fed(cs(), b.clone(), |s, x| s.insert(x, 1)),
            CountSketch::size_bytes,
        );
        let ams = || AmsSketch::new(64, 5, 1);
        same_size(
            fed(ams(), a.clone(), |s, x| s.insert(x, 1)),
            fed(ams(), b.clone(), |s, x| s.insert(x, 1)),
            AmsSketch::size_bytes,
        );
        same_size(
            fed(HyperLogLog::new(12), a.clone(), |s, x| s.insert(x)),
            fed(HyperLogLog::new(12), b.clone(), |s, x| s.insert(x)),
            HyperLogLog::size_bytes,
        );
        let bf = || BloomFilter::new(8192, 4, 1);
        same_size(
            fed(bf(), a.clone(), |s, x| s.insert(x)),
            fed(bf(), b.clone(), |s, x| s.insert(x)),
            BloomFilter::size_bytes,
        );
        // KMV is full at k on both sides and stays at k.
        same_size(
            fed(KmvSketch::new(256), a.clone(), |s, x| s.insert(x)),
            fed(KmvSketch::new(256), b.clone(), |s, x| s.insert(x)),
            KmvSketch::num_retained,
        );
        same_size(
            EquiWidthHistogram::build_in_range(&values(a.clone()), 32, 0.0, 100.0),
            EquiWidthHistogram::build_in_range(&values(b), 32, 0.0, 100.0),
            EquiWidthHistogram::size_bytes,
        );
    }

    #[test]
    fn merging_into_a_fresh_sketch_reproduces_the_partial() {
        // The first delta folded into an empty synopsis must answer
        // exactly as the delta's own synopsis.
        fn reproduces<T: Partial + Clone + PartialEq + Debug>(fresh: T, partial: T) {
            let mut merged = fresh;
            Partial::merge(&mut merged, &partial).unwrap();
            assert_eq!(merged, partial);
        }
        let r = 0..3_000u64;
        let cm = || CountMinSketch::new(128, 4, 9);
        reproduces(cm(), fed(cm(), r.clone(), |s, x| s.insert(x, 2)));
        let hll = || HyperLogLog::new(12);
        reproduces(hll(), fed(hll(), r.clone(), |s, x| s.insert(x)));
        let cs = || CountSketch::new(128, 5, 3);
        reproduces(cs(), fed(cs(), r.clone(), |s, x| s.insert(x, -3)));
        let ams = || AmsSketch::new(64, 5, 4);
        reproduces(ams(), fed(ams(), r.clone(), |s, x| s.insert(x, 1)));
        reproduces(
            KmvSketch::new(64),
            fed(KmvSketch::new(64), r.clone(), |s, x| s.insert(x)),
        );
        let bf = || BloomFilter::new(1000, 4, 5);
        reproduces(bf(), fed(bf(), r.clone(), |s, x| s.insert(x)));
        let gk = self::gk(r);
        reproduces(GkQuantiles::new(0.01), gk.clone());
        let mut merged = GkQuantiles::new(0.01);
        merged.merge(&gk).unwrap();
        for phi in [0.01, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(merged.query(phi), gk.query(phi), "phi {phi}");
        }
    }

    #[test]
    fn merged_count_min_still_never_underestimates() {
        // Two partials over overlapping key sets: every merged estimate is
        // at least the item's total count, and within ε·N of it for all
        // but a δ share of items.
        let mut a = CountMinSketch::new(256, 5, 11);
        let mut b = CountMinSketch::new(256, 5, 11);
        let mut truth = vec![0u64; 3_000];
        for i in 0..20_000u64 {
            let item = (i * i) % 2_000;
            a.insert(&item.to_le_bytes(), 1);
            truth[item as usize] += 1;
            let item = 1_000 + (i * 7) % 2_000;
            b.insert(&item.to_le_bytes(), 2);
            truth[item as usize] += 2;
        }
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 60_000);
        let bound = a.error_bound();
        let mut over = 0;
        for (item, &t) in truth.iter().enumerate() {
            let est = a.estimate(&(item as u64).to_le_bytes());
            assert!(est >= t, "item {item}: estimate {est} < true {t}");
            if (est - t) as f64 > bound {
                over += 1;
            }
        }
        assert!(over <= truth.len() / 20, "{over} items past the ε·N bound");
    }

    #[test]
    fn turnstile_sketches_cancel_a_retraction_merged_in() {
        // Count-Sketch and AMS accept negative counts: a partial that
        // retracts every insert of another merges to the empty stream.
        let cs = || CountSketch::new(128, 5, 2);
        let mut ins = fed(cs(), 0..500, |s, x| s.insert(x, 3));
        let del = fed(cs(), 0..500, |s, x| s.insert(x, -3));
        ins.merge(&del).unwrap();
        for i in 0..500u64 {
            assert_eq!(ins.estimate(&i.to_le_bytes()), 0, "item {i}");
        }
        let ams = || AmsSketch::new(64, 5, 2);
        let mut ins = fed(ams(), 0..500, |s, x| s.insert(x, 2));
        assert!(ins.estimate_f2() > 0.0);
        ins.merge(&fed(ams(), 0..500, |s, x| s.insert(x, -2)))
            .unwrap();
        assert_eq!(ins.estimate_f2(), 0.0);
    }

    #[test]
    fn merged_bloom_filter_has_no_false_negatives() {
        let bf = || BloomFilter::with_rate(4_000, 0.01, 3);
        let mut a = fed(bf(), 0..2_000, |s, x| s.insert(x));
        a.merge(&fed(bf(), 2_000..4_000, |s, x| s.insert(x)))
            .unwrap();
        assert_eq!(a.inserted(), 4_000);
        assert!((0..4_000u64).all(|i| a.contains(&i.to_le_bytes())));
        let fp = (1_000_000..1_010_000u64)
            .filter(|i| a.contains(&i.to_le_bytes()))
            .count();
        assert!(
            fp < 300,
            "{fp} false positives in 10 000 probes at a 1 % target"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A merge succeeds exactly when the configurations agree; a
        /// refused merge is a typed error that leaves the receiver as it
        /// was, never a panic.
        #[test]
        fn mismatched_parameters_always_error_never_panic(
            (w1, w2) in (1usize..5, 1usize..5),
            (d1, d2) in (1usize..4, 1usize..4),
            (s1, s2) in (0u64..3, 0u64..3),
            (p1, p2) in (4u8..7, 4u8..7),
        ) {
            let same = (w1, d1, s1) == (w2, d2, s2);
            let mut cm = CountMinSketch::new(w1 * 16, d1, s1);
            cm.insert(b"x", 1);
            let snapshot = cm.clone();
            let r = cm.merge(&CountMinSketch::new(w2 * 16, d2, s2));
            prop_assert_eq!(r.is_ok(), same);
            prop_assert!(same || cm == snapshot);

            let mut cs = CountSketch::new(w1 * 16, d1, s1);
            cs.insert(b"x", 1);
            let snapshot = cs.clone();
            prop_assert_eq!(cs.merge(&CountSketch::new(w2 * 16, d2, s2)).is_ok(), same);
            prop_assert!(same || cs == snapshot);

            let mut ams = AmsSketch::new(w1 * 8, d1, s1);
            ams.insert(b"x", 1);
            let snapshot = ams.clone();
            prop_assert_eq!(ams.merge(&AmsSketch::new(w2 * 8, d2, s2)).is_ok(), same);
            prop_assert!(same || ams == snapshot);

            let mut bf = BloomFilter::new(w1 * 64, d1 as u32, s1);
            bf.insert(b"x");
            let snapshot = bf.clone();
            prop_assert_eq!(bf.merge(&BloomFilter::new(w2 * 64, d2 as u32, s2)).is_ok(), same);
            prop_assert!(same || bf == snapshot);

            let mut hll = HyperLogLog::new(p1);
            hll.insert(b"x");
            let snapshot = hll.clone();
            prop_assert_eq!(hll.merge(&HyperLogLog::new(p2)).is_ok(), p1 == p2);
            prop_assert!(p1 == p2 || hll == snapshot);

            let mut kmv = KmvSketch::new(w1 * 4);
            kmv.insert(b"x");
            let snapshot = kmv.clone();
            prop_assert_eq!(kmv.merge(&KmvSketch::new(w2 * 4)).is_ok(), w1 == w2);
            prop_assert!(w1 == w2 || kmv == snapshot);

            let mut gk = GkQuantiles::new(0.01 * w1 as f64);
            gk.insert(1.0);
            let snapshot = gk.clone();
            prop_assert_eq!(gk.merge(&GkQuantiles::new(0.01 * w2 as f64)).is_ok(), w1 == w2);
            prop_assert!(w1 == w2 || gk == snapshot);
        }

        /// Set-semantics sketches answer a union: absorbing a partial
        /// already merged in (the same delta folded twice) changes
        /// nothing — HLL registers and KMV minima stay, and a Bloom
        /// filter's bits keep every answer.
        #[test]
        fn set_sketches_absorb_a_repeated_partial(
            items in proptest::collection::vec(any::<u64>(), 0..400),
            cut in 0.0f64..1.0,
        ) {
            let at = (cut * items.len() as f64) as usize;
            let (left, right) = items.split_at(at);
            let hll = |xs: &[u64]| {
                let mut s = HyperLogLog::new(8);
                xs.iter().for_each(|x| s.insert(&x.to_le_bytes()));
                s
            };
            let kmv = |xs: &[u64]| {
                let mut s = KmvSketch::new(32);
                xs.iter().for_each(|x| s.insert(&x.to_le_bytes()));
                s
            };
            let bloom = |xs: &[u64]| {
                let mut s = BloomFilter::new(2048, 3, 7);
                xs.iter().for_each(|x| s.insert(&x.to_le_bytes()));
                s
            };
            let mut h = hll(left);
            h.merge(&hll(right)).unwrap();
            let once = h.clone();
            h.merge(&hll(right)).unwrap();
            prop_assert_eq!(&h, &once);
            let mut k = kmv(left);
            k.merge(&kmv(right)).unwrap();
            let once = k.clone();
            k.merge(&kmv(right)).unwrap();
            prop_assert_eq!(&k, &once);
            let mut b = bloom(left);
            b.merge(&bloom(right)).unwrap();
            let once = b.clone();
            b.merge(&bloom(right)).unwrap();
            for probe in items.iter().copied().chain(0..200) {
                let probe = probe.to_le_bytes();
                prop_assert_eq!(b.contains(&probe), once.contains(&probe));
            }
        }

        /// Greenwald–Khanna partials cut from one stream at any point
        /// merge to a summary within the widened merge bound.
        #[test]
        fn gk_merge_keeps_the_rank_error_budget_for_any_split(
            xs in proptest::collection::vec(-1e6f64..1e6, 200..2_000),
            cut in 0.0f64..1.0,
        ) {
            let eps = 0.02;
            let at = (cut * xs.len() as f64) as usize;
            let mut a = GkQuantiles::new(eps);
            let mut b = GkQuantiles::new(eps);
            xs[..at].iter().for_each(|&x| a.insert(x));
            xs[at..].iter().for_each(|&x| b.insert(x));
            a.merge(&b).unwrap();
            prop_assert_eq!(a.count(), xs.len() as u64);
            let mut sorted = xs.clone();
            sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let n = sorted.len() as f64;
            for phi in [0.05, 0.25, 0.5, 0.75, 0.95] {
                let q = a.query(phi).unwrap();
                let below = sorted.partition_point(|&x| x < q) as f64 / n;
                let upto = sorted.partition_point(|&x| x <= q) as f64 / n;
                // ε·n_self + 2ε·n_other ≤ 3ε·n, plus one rank of rounding.
                let miss = (below - phi).max(phi - upto).max(0.0);
                prop_assert!(miss <= 3.0 * eps + 1.0 / n, "phi {} rank miss {}", phi, miss);
            }
        }
    }
}
