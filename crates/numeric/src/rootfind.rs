//! Scalar root finding by Brent's method.
//!
//! The Student-t and F quantiles in [`crate::stats::dist`] invert their
//! CDFs with it.

use crate::{NumericError, Result};

/// Maximum iterations of Brent's method.
const MAX_ITER: usize = 200;

/// Finds a root of `f` in `[a, b]` using Brent's method (inverse quadratic
/// interpolation with bisection fallback).
///
/// # Errors
///
/// * [`NumericError::InvalidArgument`] if `f(a)` and `f(b)` do not bracket
///   a root (same sign) or the interval is malformed.
/// * [`NumericError::NoConvergence`] if the tolerance is not reached in
///   200 iterations (practically impossible for sane tolerances).
pub fn brent(f: impl Fn(f64) -> f64, a: f64, b: f64, tol: f64) -> Result<f64> {
    if !(a < b) {
        return Err(NumericError::invalid(format!("bad interval [{a}, {b}]")));
    }
    let (mut xa, mut xb) = (a, b);
    let mut fa = f(xa);
    let mut fb = f(xb);
    if fa == 0.0 {
        return Ok(xa);
    }
    if fb == 0.0 {
        return Ok(xb);
    }
    if fa * fb > 0.0 {
        return Err(NumericError::invalid(format!(
            "f({a}) and f({b}) have the same sign"
        )));
    }
    let mut xc = xa;
    let mut fc = fa;
    let mut d = xb - xa;
    let mut e = d;

    for _ in 0..MAX_ITER {
        if fb.abs() > fc.abs() {
            // Ensure b is the best approximation.
            xa = xb;
            xb = xc;
            xc = xa;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * xb.abs() + 0.5 * tol;
        let xm = 0.5 * (xc - xb);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(xb);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt inverse quadratic interpolation.
            let s = fb / fa;
            let (mut p, mut q);
            if xa == xc {
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                let qq = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * xm * qq * (qq - r) - (xb - xa) * (r - 1.0));
                q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            if 2.0 * p < (3.0 * xm * q - (tol1 * q).abs()).min((e * q).abs()) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        xa = xb;
        fa = fb;
        if d.abs() > tol1 {
            xb += d;
        } else {
            xb += tol1.copysign(xm);
        }
        fb = f(xb);
        if (fb > 0.0) == (fc > 0.0) {
            xc = xa;
            fc = fa;
            d = xb - xa;
            e = d;
        }
    }
    Err(NumericError::NoConvergence { routine: "brent" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_sqrt2_faster_than_bisect_tolerance() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-14).unwrap();
        assert!((r - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn brent_transcendental() {
        // x = cos(x) has root ~0.7390851332151607
        let r = brent(|x| x - x.cos(), 0.0, 1.0, 1e-14).unwrap();
        assert!((r - 0.7390851332151607).abs() < 1e-12);
    }

    #[test]
    fn endpoints_that_are_roots() {
        assert_eq!(brent(|x| x, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn non_bracketing_is_rejected() {
        assert!(brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12).is_err());
    }

    #[test]
    fn malformed_interval_is_rejected() {
        assert!(brent(|x| x, 1.0, 0.0, 1e-12).is_err());
        assert!(brent(|x| x, 1.0, 1.0, 1e-12).is_err());
    }

    #[test]
    fn brent_steep_function() {
        // Root of x^9 near 0: hard for naive interpolation.
        let r = brent(|x| x.powi(9) - 1e-9, 0.0, 2.0, 1e-15).unwrap();
        assert!((r - 1e-1).abs() < 1e-6);
    }
}
