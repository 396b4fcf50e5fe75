//! Special functions underpinning the distribution implementations.
//!
//! All routines are implemented from first principles (Lanczos
//! approximation, power series, and continued fractions) so the crate has no
//! dependency on an external statistics library. Accuracies are on the order
//! of 1e-10 across the domains AQP needs (tail probabilities down to ~1e-12).

/// Natural log of the gamma function, via the Lanczos approximation (g = 7).
///
/// Accurate to ~15 significant digits for `x > 0`.
///
/// # Panics
/// Panics if `x <= 0` (the AQP layers only evaluate gamma on positive reals).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7, n = 9.
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Uses the power series for `x < a + 1` and the continued fraction for the
/// complementary function otherwise (Numerical Recipes §6.2 strategy).
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "reg_lower_gamma domain: a > 0, x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cont_frac(a, x)
    }
}

/// Series expansion of P(a, x); converges fast for x < a + 1.
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction expansion of Q(a, x) (modified Lentz's method).
fn gamma_cont_frac(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Continued-fraction evaluation with the symmetry transform for fast
/// convergence (Numerical Recipes §6.4).
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "reg_inc_beta requires a, b > 0");
    assert!((0.0..=1.0).contains(&x), "reg_inc_beta requires x in [0,1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cont_frac(a, b, x) / a
    } else {
        1.0 - front * beta_cont_frac(b, a, 1.0 - x) / b
    }
}

/// Lentz continued fraction for the incomplete beta.
fn beta_cont_frac(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Error function, computed through the incomplete gamma identity
/// `erf(x) = P(1/2, x²)` for `x ≥ 0` (odd extension for `x < 0`).
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        -erf(-x)
    } else {
        reg_lower_gamma(0.5, x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            close(ln_gamma(n as f64), fact.ln(), 1e-12);
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = √π / 2.
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn ln_gamma_reflection_small_x() {
        // Γ(0.25) ≈ 3.625609908.
        close(ln_gamma(0.25), 3.625_609_908_221_908f64.ln(), 1e-10);
    }

    #[test]
    fn incomplete_gamma_boundaries() {
        assert_eq!(reg_lower_gamma(2.0, 0.0), 0.0);
        close(reg_lower_gamma(1.0, 1e9), 1.0, 1e-12);
    }

    #[test]
    fn incomplete_gamma_exponential_identity() {
        // P(1, x) = 1 − e^{−x}.
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            close(reg_lower_gamma(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_complement() {
        // Around the branch switch x = a + 1 the series for P and the
        // continued fraction for Q both converge, and must sum to one.
        for &a in &[0.5, 1.0, 3.0, 10.0] {
            for &dx in &[-0.5, 0.0, 0.5, 2.0] {
                let x = a + 1.0 + dx;
                close(gamma_series(a, x) + gamma_cont_frac(a, x), 1.0, 1e-12);
            }
            // So P(a, x) is continuous where it changes branch.
            close(
                reg_lower_gamma(a, a + 1.0 - 1e-9),
                reg_lower_gamma(a, a + 1.0),
                1e-8,
            );
        }
    }

    #[test]
    fn erfc_right_tail_precision() {
        // Q(1/2, x²) = erfc(x); the continued fraction keeps full relative
        // accuracy in the tail, where 1 − P would cancel. erfc(3) ≈ 2.209e-5.
        let v = gamma_cont_frac(0.5, 9.0);
        assert!((v - 2.209_049_699_858_544e-5).abs() / v < 1e-8, "{v}");
    }

    #[test]
    fn erf_reference_values() {
        // Abramowitz & Stegun table values.
        close(erf(0.0), 0.0, 1e-15);
        close(erf(0.5), 0.520_499_877_813_046_5, 1e-10);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-10);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-10);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10);
    }

    #[test]
    fn inc_beta_symmetry_and_bounds() {
        assert_eq!(reg_inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(reg_inc_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 − I_{1−x}(b,a).
        for &x in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            close(
                reg_inc_beta(2.5, 4.0, x),
                1.0 - reg_inc_beta(4.0, 2.5, 1.0 - x),
                1e-12,
            );
        }
    }

    #[test]
    fn inc_beta_uniform_identity() {
        // I_x(1, 1) = x.
        for &x in &[0.0, 0.2, 0.5, 0.8, 1.0] {
            close(reg_inc_beta(1.0, 1.0, x), x, 1e-12);
        }
    }

    #[test]
    fn inc_beta_reference_value() {
        // I_{0.5}(2, 3) = 0.6875 (binomial CDF identity).
        close(reg_inc_beta(2.0, 3.0, 0.5), 0.6875, 1e-12);
    }
}
