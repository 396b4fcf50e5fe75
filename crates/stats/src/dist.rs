//! Probability distributions used for confidence-interval construction.
//!
//! Each distribution exposes a CDF and a quantile function (inverse CDF).
//! Quantiles use analytic initial guesses refined by Newton iterations on the
//! CDF, giving ~1e-10 accuracy across the range AQP needs.

use crate::special::{erf, reg_inc_beta, reg_lower_gamma};

/// The standard normal distribution N(0, 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Normal;

impl Normal {
    /// Cumulative distribution function Φ(x).
    pub fn cdf(x: f64) -> f64 {
        0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
    }

    /// Quantile function Φ⁻¹(p) via Acklam's rational approximation, refined
    /// with one Halley step for full double precision.
    ///
    /// # Panics
    /// Panics if `p` is outside the open interval (0, 1).
    pub fn quantile(p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "normal quantile requires p in (0,1), got {p}"
        );
        // Acklam's coefficients.
        #[allow(clippy::excessive_precision)]
        const A: [f64; 6] = [
            -3.969_683_028_665_376e1,
            2.209_460_984_245_205e2,
            -2.759_285_104_469_687e2,
            1.383_577_518_672_690e2,
            -3.066_479_806_614_716e1,
            2.506_628_277_459_239,
        ];
        const B: [f64; 5] = [
            -5.447_609_879_822_406e1,
            1.615_858_368_580_409e2,
            -1.556_989_798_598_866e2,
            6.680_131_188_771_972e1,
            -1.328_068_155_288_572e1,
        ];
        const C: [f64; 6] = [
            -7.784_894_002_430_293e-3,
            -3.223_964_580_411_365e-1,
            -2.400_758_277_161_838,
            -2.549_732_539_343_734,
            4.374_664_141_464_968,
            2.938_163_982_698_783,
        ];
        const D: [f64; 4] = [
            7.784_695_709_041_462e-3,
            3.224_671_290_700_398e-1,
            2.445_134_137_142_996,
            3.754_408_661_907_416,
        ];
        const P_LOW: f64 = 0.024_25;
        let x = if p < P_LOW {
            let q = (-2.0 * p.ln()).sqrt();
            (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        } else if p <= 1.0 - P_LOW {
            let q = p - 0.5;
            let r = q * q;
            (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
                / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
        } else {
            let q = (-2.0 * (1.0 - p).ln()).sqrt();
            -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        };
        // One Halley refinement step.
        let e = Self::cdf(x) - p;
        let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
        x - u / (1.0 + x * u / 2.0)
    }

    /// The two-sided critical value `z` such that P(|Z| ≤ z) = `confidence`.
    pub fn two_sided_critical(confidence: f64) -> f64 {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        Self::quantile(0.5 + confidence / 2.0)
    }
}

/// Student's *t* distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    df: f64,
}

impl StudentT {
    /// Creates a Student-t distribution.
    ///
    /// # Panics
    /// Panics if `df <= 0`.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "Student-t requires df > 0, got {df}");
        Self { df }
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.df
    }

    /// Probability density function.
    fn pdf(&self, x: f64) -> f64 {
        let v = self.df;
        let ln_c = crate::special::ln_gamma((v + 1.0) / 2.0)
            - crate::special::ln_gamma(v / 2.0)
            - 0.5 * (v * std::f64::consts::PI).ln();
        (ln_c - (v + 1.0) / 2.0 * (1.0 + x * x / v).ln()).exp()
    }

    /// Cumulative distribution function, through the incomplete beta.
    pub fn cdf(&self, x: f64) -> f64 {
        let v = self.df;
        if x == 0.0 {
            return 0.5;
        }
        let ib = reg_inc_beta(v / 2.0, 0.5, v / (v + x * x));
        if x > 0.0 {
            1.0 - 0.5 * ib
        } else {
            0.5 * ib
        }
    }

    /// Quantile function: normal-start Newton iteration on the CDF.
    ///
    /// # Panics
    /// Panics if `p` is outside (0, 1).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "t quantile requires p in (0,1), got {p}"
        );
        if (p - 0.5).abs() < 1e-16 {
            return 0.0;
        }
        // Symmetry: solve for the upper half only.
        if p < 0.5 {
            return -self.quantile(1.0 - p);
        }
        // Initial guess: the normal quantile, inflated by the Cornish–Fisher
        // leading correction for heavy tails.
        let z = Normal::quantile(p);
        let v = self.df;
        let guess = z + (z * z * z + z) / (4.0 * v);
        bracketed_newton(|x| self.cdf(x), |x| self.pdf(x), p, guess.max(1e-8), 0.0)
    }

    /// Two-sided critical value `t` with P(|T| ≤ t) = `confidence`.
    pub fn two_sided_critical(&self, confidence: f64) -> f64 {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        self.quantile(0.5 + confidence / 2.0)
    }
}

/// Chi-squared distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    df: f64,
}

impl ChiSquared {
    /// Creates a chi-squared distribution.
    ///
    /// # Panics
    /// Panics if `df <= 0`.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "chi-squared requires df > 0, got {df}");
        Self { df }
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.df
    }

    /// Probability density function.
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let k = self.df / 2.0;
        ((k - 1.0) * x.ln() - x / 2.0 - k * 2.0f64.ln() - crate::special::ln_gamma(k)).exp()
    }

    /// Cumulative distribution function, through the incomplete gamma.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        reg_lower_gamma(self.df / 2.0, x / 2.0)
    }

    /// Quantile function: Wilson–Hilferty start, Newton refinement.
    ///
    /// # Panics
    /// Panics if `p` is outside (0, 1).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "chi2 quantile requires p in (0,1), got {p}"
        );
        let v = self.df;
        // Wilson–Hilferty approximation.
        let z = Normal::quantile(p);
        let c = 2.0 / (9.0 * v);
        let guess = (v * (1.0 - c + z * c.sqrt()).powi(3)).max(1e-8);
        bracketed_newton(|x| self.cdf(x), |x| self.pdf(x), p, guess, 0.0)
    }
}

/// Solves `cdf(x) = p` for `x > floor` by Newton's method confined to a
/// bracket. The bracket's upper end is found by doubling from the initial
/// guess; any Newton step leaving the bracket falls back to bisection, so the
/// iteration cannot diverge even where the density is tiny.
fn bracketed_newton(
    cdf: impl Fn(f64) -> f64,
    pdf: impl Fn(f64) -> f64,
    p: f64,
    guess: f64,
    floor: f64,
) -> f64 {
    let mut lo = floor;
    let mut hi = guess.max(floor + 1e-8);
    // Expand the upper bracket until it encloses the quantile.
    for _ in 0..1100 {
        if cdf(hi) >= p {
            break;
        }
        lo = hi;
        hi = hi * 2.0 + 1.0;
    }
    let mut x = guess.clamp(lo + (hi - lo) * 1e-6, hi - (hi - lo) * 1e-6);
    for _ in 0..200 {
        let f = cdf(x) - p;
        if f > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        let d = pdf(x);
        let mut next = if d > 0.0 { x - f / d } else { f64::NAN };
        if !(next > lo && next < hi) {
            next = 0.5 * (lo + hi);
        }
        if (next - x).abs() <= 1e-14 * (1.0 + x.abs()) {
            return next;
        }
        x = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn normal_cdf_reference() {
        close(Normal::cdf(0.0), 0.5, 1e-14);
        close(Normal::cdf(1.0), 0.841_344_746_068_542_9, 1e-10);
        close(Normal::cdf(-1.96), 0.024_997_895_148_220_43, 1e-8);
        close(Normal::cdf(2.575_829), 0.995, 1e-6);
    }

    #[test]
    fn normal_quantile_reference() {
        close(Normal::quantile(0.975), 1.959_963_984_540_054, 1e-10);
        close(Normal::quantile(0.5), 0.0, 1e-12);
        close(Normal::quantile(0.995), 2.575_829_303_548_901, 1e-10);
        close(Normal::quantile(0.05), -1.644_853_626_951_472, 1e-10);
    }

    #[test]
    fn normal_quantile_tails() {
        // Deep tails should still round-trip through the CDF.
        for &p in &[1e-10, 1e-6, 1e-3, 0.999, 1.0 - 1e-6] {
            let x = Normal::quantile(p);
            close(Normal::cdf(x), p, 1e-9);
        }
    }

    #[test]
    fn normal_two_sided_critical() {
        close(
            Normal::two_sided_critical(0.95),
            1.959_963_984_540_054,
            1e-9,
        );
        close(
            Normal::two_sided_critical(0.99),
            2.575_829_303_548_901,
            1e-9,
        );
    }

    #[test]
    fn t_cdf_reference() {
        // With df → ∞, t approaches normal; with df = 1 it is Cauchy.
        let t1 = StudentT::new(1.0);
        close(t1.cdf(1.0), 0.75, 1e-10); // Cauchy CDF at 1.
        let t10 = StudentT::new(10.0);
        close(t10.cdf(0.0), 0.5, 1e-14);
        // Reference: P(T_10 <= 1.812461) = 0.95.
        close(t10.cdf(1.812_461_122_811_68), 0.95, 1e-9);
    }

    #[test]
    fn t_quantile_reference() {
        let t10 = StudentT::new(10.0);
        close(t10.quantile(0.95), 1.812_461_122_811_68, 1e-8);
        close(t10.quantile(0.975), 2.228_138_851_986_27, 1e-8);
        let t2 = StudentT::new(2.0);
        close(t2.quantile(0.975), 4.302_652_729_911_28, 1e-8);
        // Symmetry.
        close(t10.quantile(0.025), -t10.quantile(0.975), 1e-10);
    }

    #[test]
    fn t_converges_to_normal() {
        let t = StudentT::new(1e7);
        close(t.quantile(0.975), Normal::quantile(0.975), 1e-5);
    }

    #[test]
    fn t_quantile_roundtrip() {
        for &df in &[1.0, 3.0, 7.0, 30.0, 200.0] {
            let t = StudentT::new(df);
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.999] {
                let x = t.quantile(p);
                close(t.cdf(x), p, 1e-9);
            }
        }
    }

    #[test]
    fn chi2_cdf_reference() {
        let c2 = ChiSquared::new(2.0);
        // χ²(2) is Exp(1/2): CDF = 1 − e^{−x/2}.
        for &x in &[0.5, 1.0, 3.0, 10.0] {
            close(c2.cdf(x), 1.0 - (-x / 2.0f64).exp(), 1e-12);
        }
    }

    #[test]
    fn chi2_quantile_reference() {
        let c1 = ChiSquared::new(1.0);
        // χ²(1) 95th percentile = z_{0.975}² ≈ 3.84146.
        close(c1.quantile(0.95), 3.841_458_820_694_124, 1e-8);
        let c10 = ChiSquared::new(10.0);
        close(c10.quantile(0.95), 18.307_038_053_275_146, 1e-8);
    }

    #[test]
    fn chi2_quantile_roundtrip() {
        for &df in &[1.0, 4.0, 17.0, 100.0] {
            let c = ChiSquared::new(df);
            for &p in &[0.005, 0.05, 0.5, 0.95, 0.995] {
                let x = c.quantile(p);
                close(c.cdf(x), p, 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "p in (0,1)")]
    fn normal_quantile_rejects_zero() {
        Normal::quantile(0.0);
    }

    #[test]
    #[should_panic(expected = "df > 0")]
    fn t_rejects_nonpositive_df() {
        StudentT::new(0.0);
    }
}
