//! Minimal complex arithmetic for AC (phasor) analysis.
//!
//! The harvester's analytic steady-state solution works with impedances
//! `Z(jω)`; this module provides just enough complex algebra for that,
//! with operator overloads matching `f64` ergonomics.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number `re + j·im`.
///
/// # Example
///
/// ```
/// use ehsim_numeric::complex::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// let w = z * Complex::i();
/// assert_eq!(w, Complex::new(-4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + j·im`.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The imaginary unit `j`.
    pub fn i() -> Self {
        Complex { re: 0.0, im: 1.0 }
    }

    /// A purely real number.
    pub fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `|z|`.
    pub fn abs(&self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    pub fn abs_sq(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians.
    pub fn arg(&self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when inverting exact zero.
    pub fn inv(&self) -> Self {
        let d = self.abs_sq();
        debug_assert!(d > 0.0, "inverting zero complex number");
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(2.0, -3.0);
        let w = Complex::new(-1.0, 4.0);
        assert_eq!(z + w, Complex::new(1.0, 1.0));
        assert_eq!(z - w, Complex::new(3.0, -7.0));
        assert_eq!(z * Complex::real(1.0), z);
        // (2-3j)(-1+4j) = -2+8j+3j+12 = 10+11j
        assert_eq!(z * w, Complex::new(10.0, 11.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let z = Complex::new(2.0, -3.0);
        let w = Complex::new(-1.0, 4.0);
        let q = (z * w) / w;
        assert!((q - z).abs() < 1e-12);
    }

    #[test]
    fn polar_quantities() {
        let z = Complex::new(0.0, 2.0);
        assert_eq!(z.abs(), 2.0);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Complex::i() * Complex::i(), Complex::real(-1.0));
    }

    #[test]
    fn inverse_and_scalar_ops() {
        let z = Complex::new(3.0, 4.0);
        let zi = z.inv();
        assert!((z * zi - Complex::real(1.0)).abs() < 1e-12);
        assert_eq!(z * 2.0, Complex::new(6.0, 8.0));
        assert_eq!(z / 2.0, Complex::new(1.5, 2.0));
        let from: Complex = 5.0.into();
        assert_eq!(from, Complex::real(5.0));
    }
}
