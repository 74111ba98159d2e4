//! Special functions: log-gamma and the regularized incomplete beta
//! function, which the Student-t and F distributions are built on.
//!
//! Implementations follow the classic forms (Lanczos approximation for
//! `ln Γ`, Lentz's algorithm for the beta continued fraction) and are
//! accurate to ~1e-13 over the parameter ranges the DoE machinery uses.

use crate::{NumericError, Result};

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, 9 coefficients).
///
/// # Panics
///
/// Panics in debug builds if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + G + 0.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// # Errors
///
/// [`NumericError::InvalidArgument`] if `a <= 0`, `b <= 0`, or
/// `x ∉ [0, 1]`; [`NumericError::NoConvergence`] if the continued
/// fraction stalls.
pub fn beta_inc(a: f64, b: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || b <= 0.0 {
        return Err(NumericError::invalid(format!(
            "beta_inc requires a, b > 0 (got a={a}, b={b})"
        )));
    }
    if !(0.0..=1.0).contains(&x) {
        return Err(NumericError::invalid(format!(
            "beta_inc requires x in [0, 1], got {x}"
        )));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the symmetry relation to keep the continued fraction in its
    // rapidly converging region.
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok((front * beta_cf(a, b, x)? / a).clamp(0.0, 1.0))
    } else {
        Ok((1.0 - front * beta_cf(b, a, 1.0 - x)? / b).clamp(0.0, 1.0))
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> Result<f64> {
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
    for m in 1..500 {
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
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            return Ok(h);
        }
    }
    Err(NumericError::NoConvergence {
        routine: "beta_inc continued fraction",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n-1)!
        let factorials = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in factorials.iter().enumerate() {
            let n = (i + 1) as f64;
            assert!(
                (ln_gamma(n) - f.ln()).abs() < 1e-12,
                "ln_gamma({n}) vs ln({f})"
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        assert!((ln_gamma(1.5) - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for (a, b, x) in [(2.0, 3.0, 0.4), (0.5, 0.5, 0.3), (5.0, 1.0, 0.7)] {
            let lhs = beta_inc(a, b, x).unwrap();
            let rhs = 1.0 - beta_inc(b, a, 1.0 - x).unwrap();
            assert!((lhs - rhs).abs() < 1e-12, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1,1) = x
        for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((beta_inc(1.0, 1.0, x).unwrap() - x).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_inc_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry
        assert!((beta_inc(2.0, 2.0, 0.5).unwrap() - 0.5).abs() < 1e-12);
        // I_x(1, 2) = 1 - (1-x)^2
        let x = 0.3;
        assert!((beta_inc(1.0, 2.0, x).unwrap() - (1.0 - (1.0 - x) * (1.0 - x))).abs() < 1e-12);
    }

    #[test]
    fn beta_inc_rejects_bad_args() {
        assert!(beta_inc(-1.0, 1.0, 0.5).is_err());
        assert!(beta_inc(1.0, 0.0, 0.5).is_err());
        assert!(beta_inc(1.0, 1.0, 1.5).is_err());
    }
}
