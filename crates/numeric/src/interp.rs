//! Piecewise-linear interpolation tables.
//!
//! The circuit crate's piecewise-linear source waveform
//! (`ehsim_circuit::waveform`) samples one.

use crate::{NumericError, Result};

/// A 1-D piecewise-linear lookup table over strictly increasing knots.
///
/// Evaluation outside the knot range clamps to the boundary values, which
/// is the physically sensible behaviour for device curves.
///
/// # Example
///
/// ```
/// use ehsim_numeric::LinearTable;
///
/// # fn main() -> Result<(), ehsim_numeric::NumericError> {
/// let eff = LinearTable::new(vec![0.0, 1.0, 2.0], vec![0.5, 0.9, 0.8])?;
/// assert!((eff.eval(0.5) - 0.7).abs() < 1e-12);
/// assert_eq!(eff.eval(-1.0), 0.5); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTable {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearTable {
    /// Builds a table from knot positions and values.
    ///
    /// # Errors
    ///
    /// * [`NumericError::Dimension`] if the vectors differ in length or
    ///   are empty.
    /// * [`NumericError::InvalidArgument`] if `xs` is not strictly
    ///   increasing or contains non-finite values.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(NumericError::dimension(
                "equal-length non-empty knot vectors",
                format!("xs: {}, ys: {}", xs.len(), ys.len()),
            ));
        }
        for w in xs.windows(2) {
            if !(w[0] < w[1]) {
                return Err(NumericError::invalid(format!(
                    "knots must be strictly increasing, found {} then {}",
                    w[0], w[1]
                )));
            }
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(NumericError::invalid("knots must be finite"));
        }
        Ok(LinearTable { xs, ys })
    }

    /// Builds a table by sampling `f` at `n` evenly spaced points on
    /// `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] if `n < 2` or `lo >= hi`.
    pub fn from_fn(lo: f64, hi: f64, n: usize, f: impl Fn(f64) -> f64) -> Result<Self> {
        if n < 2 {
            return Err(NumericError::invalid("need at least 2 sample points"));
        }
        if !(lo < hi) {
            return Err(NumericError::invalid(format!("bad range [{lo}, {hi}]")));
        }
        let xs: Vec<f64> = (0..n)
            .map(|i| lo + (hi - lo) * (i as f64) / ((n - 1) as f64))
            .collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        LinearTable::new(xs, ys)
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the table has no knots (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Domain `(min, max)` of the knots.
    pub fn domain(&self) -> (f64, f64) {
        (self.xs[0], self.xs[self.xs.len() - 1])
    }

    /// Evaluates the table at `x`, clamping outside the knot range; NaN
    /// for a NaN `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x.is_nan() {
            return f64::NAN;
        }
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // First knot at or above `x`: `xs[0] < x < xs[n - 1]`, so `idx`
        // lies in `1..n`.
        let idx = self.xs.partition_point(|&k| k < x);
        if self.xs[idx] == x {
            return self.ys[idx];
        }
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_interpolates_and_clamps() {
        let t = LinearTable::new(vec![0.0, 2.0], vec![0.0, 4.0]).unwrap();
        assert_eq!(t.eval(1.0), 2.0);
        assert_eq!(t.eval(-5.0), 0.0);
        assert_eq!(t.eval(5.0), 4.0);
    }

    #[test]
    fn eval_hits_knots_exactly() {
        let t = LinearTable::new(vec![0.0, 1.0, 3.0], vec![1.0, -1.0, 5.0]).unwrap();
        assert_eq!(t.eval(0.0), 1.0);
        assert_eq!(t.eval(1.0), -1.0);
        assert_eq!(t.eval(3.0), 5.0);
    }

    #[test]
    fn rejects_unsorted_and_ragged() {
        assert!(LinearTable::new(vec![1.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(LinearTable::new(vec![0.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(LinearTable::new(vec![0.0], vec![0.0, 1.0]).is_err());
        assert!(LinearTable::new(vec![], vec![]).is_err());
        assert!(LinearTable::new(vec![0.0, f64::NAN], vec![0.0, 1.0]).is_err());
    }

    #[test]
    fn from_fn_samples_evenly() {
        let t = LinearTable::from_fn(0.0, 1.0, 11, |x| x * x).unwrap();
        assert_eq!(t.len(), 11);
        // The table is exact at the sample points.
        assert!((t.eval(0.5) - 0.25).abs() < 1e-12);
        // Between samples there is linearisation error; for f'' = 2 the
        // midpoint error is exactly (h/2)^2 = 0.0025.
        assert!((t.eval(0.55) - 0.3025).abs() <= 0.0025 + 1e-12);
    }

    #[test]
    fn nan_evaluates_to_nan() {
        let t = LinearTable::new(vec![0.0, 1.0, 3.0], vec![1.0, -1.0, 5.0]).unwrap();
        assert!(t.eval(f64::NAN).is_nan());
    }

    #[test]
    fn domain_reports_range() {
        let t = LinearTable::new(vec![-1.0, 4.0], vec![0.0, 1.0]).unwrap();
        assert_eq!(t.domain(), (-1.0, 4.0));
    }
}
