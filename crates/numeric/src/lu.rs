//! LU factorisation with partial pivoting.
//!
//! This is the workhorse of the Newton–Raphson circuit engine: every NR
//! iteration refactors the Jacobian and back-substitutes — exactly the
//! cost profile the DATE'13 paper identifies as the bottleneck of
//! traditional analogue simulation.

use crate::matrix::Matrix;
use crate::{NumericError, Result};

/// An LU factorisation `P * A = L * U` with partial pivoting.
///
/// # Example
///
/// ```
/// use ehsim_numeric::{Lu, Matrix};
///
/// # fn main() -> Result<(), ehsim_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    piv: Vec<usize>,
    sign: f64,
}

/// Pivot magnitudes below this threshold are treated as singular.
const SINGULAR_TOL: f64 = 1e-300;

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`NumericError::Dimension`] if `a` is not square.
    /// * [`NumericError::Singular`] if a pivot underflows to zero.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(NumericError::dimension(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < SINGULAR_TOL || !max.is_finite() {
                return Err(NumericError::Singular);
            }
            if p != k {
                lu.swap_rows(p, k);
                piv.swap(p, k);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let upd = m * lu[(k, j)];
                    lu[(i, j)] -= upd;
                }
            }
        }
        Ok(Lu { lu, piv, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// The unit-lower-triangular factor `L`.
    pub fn l(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if j < i {
                self.lu[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// The upper-triangular factor `U`.
    pub fn u(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.lu[(i, j)] } else { 0.0 })
    }

    /// The row permutation `p` such that row `i` of `P·A` is row `p[i]`
    /// of `A`, making `L·U == P·A`.
    pub fn permutation(&self) -> &[usize] {
        &self.piv
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericError::dimension(
                format!("vector of length {n}"),
                format!("length {}", b.len()),
            ));
        }
        // Apply the row permutation.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(NumericError::dimension(
                format!("{n} rows"),
                format!("{} rows", b.rows()),
            ));
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.col(j))?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates errors from the per-column solves (cannot normally occur
    /// once factoring succeeded).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// One-shot convenience: solves `A x = b` by factoring `a`.
///
/// # Errors
///
/// Same as [`Lu::factor`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
    }

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        max_abs_diff(&a.matvec(x).unwrap(), b)
    }

    #[test]
    fn solve_small_system() {
        let a =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 10.0]]).unwrap();
        let b = [6.0, 15.0, 25.0];
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(Lu::factor(&a).unwrap_err(), NumericError::Singular);
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(NumericError::Dimension { .. })
        ));
    }

    #[test]
    fn determinant_of_known_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 8.0], &[4.0, 6.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() - (-14.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_tracks_pivots() {
        // This matrix needs a row swap; det must still be correct.
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() - (-6.0)).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = (&a * &inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(2)).unwrap() < 1e-12);
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]).unwrap();
        let x = Lu::factor(&a).unwrap().solve_matrix(&b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-14);
        assert!((x[(1, 1)] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic pseudo-random fill with a diagonally dominant bump
        // to guarantee solvability.
        let n = 25;
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 31 + j * 17 + 7) % 13) as f64 - 6.0;
            if i == j {
                v + 40.0
            } else {
                v
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(max_abs_diff(&x, &x_true) < 1e-9);
    }
}
