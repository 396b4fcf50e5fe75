//! Property-based tests for the statistical foundations: distribution
//! identities, the group-coverage planner, and estimator algebra.

use proptest::prelude::*;

use aqp_stats::bounds::group_coverage_rate;
use aqp_stats::special::{erf, reg_inc_beta, reg_lower_gamma};
use aqp_stats::{ChiSquared, Estimate, Normal, StudentT};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Φ is monotone and Φ⁻¹ inverts it.
    #[test]
    fn normal_cdf_quantile_roundtrip(p in 1e-6f64..(1.0 - 1e-6)) {
        let x = Normal::quantile(p);
        let back = Normal::cdf(x);
        prop_assert!((back - p).abs() < 1e-8, "p={p} x={x} back={back}");
    }

    #[test]
    fn normal_cdf_monotone(a in -8.0f64..8.0, d in 1e-6f64..4.0) {
        prop_assert!(Normal::cdf(a + d) >= Normal::cdf(a));
    }

    /// Student-t is symmetric: F(−x) = 1 − F(x).
    #[test]
    fn t_symmetry(df in 1.0f64..200.0, x in 0.0f64..20.0) {
        let t = StudentT::new(df);
        prop_assert!((t.cdf(-x) - (1.0 - t.cdf(x))).abs() < 1e-10);
    }

    /// Student-t quantiles dominate normal quantiles in the upper tail
    /// (heavier tails), approaching them as df grows.
    #[test]
    fn t_dominates_normal(df in 1.0f64..500.0, p in 0.51f64..0.999) {
        let t = StudentT::new(df);
        prop_assert!(t.quantile(p) >= Normal::quantile(p) - 1e-9);
    }

    /// χ² CDF/quantile round-trip.
    #[test]
    fn chi2_roundtrip(df in 0.5f64..200.0, p in 1e-4f64..0.9999) {
        let c = ChiSquared::new(df);
        let x = c.quantile(p);
        prop_assert!(x > 0.0);
        prop_assert!((c.cdf(x) - p).abs() < 1e-7, "df={df} p={p} x={x}");
    }

    /// The two-sided critical value leaves `confidence` mass between ±z.
    #[test]
    fn two_sided_critical_covers_its_confidence(c in 0.01f64..0.999) {
        let z = Normal::two_sided_critical(c);
        prop_assert!(z > 0.0);
        prop_assert!((Normal::cdf(z) - Normal::cdf(-z) - c).abs() < 1e-8, "c={c} z={z}");
    }

    /// erf is odd, bounded by 1 and non-decreasing.
    #[test]
    fn erf_odd_bounded_monotone(x in -6.0f64..6.0, d in 1e-6f64..2.0) {
        prop_assert!((erf(-x) + erf(x)).abs() < 1e-12);
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!(erf(x + d) >= erf(x) - 1e-15);
    }

    /// P(a, ·) is a CDF in x: within [0, 1] and non-decreasing.
    #[test]
    fn lower_gamma_is_a_cdf(a in 0.1f64..50.0, x in 0.0f64..100.0, d in 1e-6f64..10.0) {
        let p = reg_lower_gamma(a, x);
        prop_assert!((0.0..=1.0).contains(&p), "a={a} x={x} p={p}");
        prop_assert!(reg_lower_gamma(a, x + d) >= p - 1e-12, "a={a} x={x} d={d}");
    }

    /// Reflection: I_x(a, b) = 1 − I_{1−x}(b, a).
    #[test]
    fn inc_beta_reflection(a in 0.1f64..50.0, b in 0.1f64..50.0, x in 0.0f64..1.0) {
        let i = reg_inc_beta(a, b, x);
        prop_assert!((0.0..=1.0).contains(&i));
        prop_assert!((i + reg_inc_beta(b, a, 1.0 - x) - 1.0).abs() < 1e-9, "a={a} b={b} x={x}");
    }

    /// The coverage rate meets its own union bound, and is monotone: larger
    /// groups need less, more groups or a smaller δ need more.
    #[test]
    fn coverage_rate_meets_union_bound(
        size in 1u64..100_000,
        groups in 1u64..10_000,
        delta in 0.001f64..0.5,
    ) {
        let q = group_coverage_rate(size, groups, delta);
        prop_assert!(q > 0.0 && q <= 1.0);
        let miss_any = groups as f64 * (1.0 - q).powf(size as f64);
        prop_assert!(miss_any <= delta * (1.0 + 1e-9), "q={q} miss={miss_any}");
        prop_assert!(group_coverage_rate(size * 2, groups, delta) <= q);
        prop_assert!(group_coverage_rate(size, groups * 2, delta) >= q);
        prop_assert!(group_coverage_rate(size, groups, delta / 2.0) >= q);
    }

    /// Estimator algebra: scaling and independent addition compose the way
    /// variances must.
    #[test]
    fn estimate_algebra(
        v1 in -1e6f64..1e6,
        var1 in 0.0f64..1e6,
        v2 in -1e6f64..1e6,
        var2 in 0.0f64..1e6,
        c in -100.0f64..100.0,
    ) {
        let a = Estimate::new(v1, var1, 100);
        let b = Estimate::new(v2, var2, 100);
        let s = a.add_independent(&b);
        prop_assert!((s.value - (v1 + v2)).abs() < 1e-9 * (1.0 + v1.abs() + v2.abs()));
        prop_assert!((s.variance - (var1 + var2)).abs() < 1e-9 * (1.0 + var1 + var2));
        let sc = a.scale(c);
        prop_assert!((sc.variance - var1 * c * c).abs() < 1e-9 * (1.0 + var1 * c * c));
        // CIs widen with confidence.
        if var1 > 0.0 {
            prop_assert!(a.ci(0.99).width() >= a.ci(0.9).width());
        }
    }

    /// A CLT interval always contains its own point estimate, and the
    /// width scales with the standard error.
    #[test]
    fn ci_contains_center(v in -1e9f64..1e9, var in 0.0f64..1e12, n in 2u64..1_000_000) {
        let e = Estimate::new(v, var, n);
        let ci = e.ci(0.95);
        prop_assert!(ci.contains(v));
        prop_assert!((ci.midpoint() - v).abs() <= 1e-6 * (1.0 + v.abs()));
    }
}
