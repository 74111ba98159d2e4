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
/// The factors live in one row-major buffer: `L` (unit diagonal implied)
/// below the diagonal, `U` on and above it. [`Lu::refactor`] and
/// [`Lu::solve_into`] reuse a factorisation's buffers, so a caller that
/// factors a same-sized matrix many times (the Newton–Raphson engine
/// does so on every iteration) allocates nothing after the first call.
/// [`Lu::factor`] and [`Lu::solve`] are thin wrappers over them.
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
///
/// // The same factorisation, reused as a workspace.
/// let mut work = Lu::default();
/// let mut y = [0.0; 2];
/// work.refactor(&a)?;
/// work.solve_into(&[3.0, 5.0], &mut y)?;
/// assert_eq!(y, [x[0], x[1]]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
    sign: f64,
}

/// Pivot magnitudes below this threshold are treated as singular.
const SINGULAR_TOL: f64 = 1e-300;

/// The factorisation of the empty `0 x 0` matrix: a workspace for
/// [`Lu::refactor`] that has not factored anything yet.
impl Default for Lu {
    fn default() -> Self {
        Lu {
            n: 0,
            lu: Vec::new(),
            piv: Vec::new(),
            sign: 1.0,
        }
    }
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`NumericError::Dimension`] if `a` is not square.
    /// * [`NumericError::Singular`] if a pivot underflows to zero.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let mut lu = Lu::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factors `a` into this factorisation's buffers, replacing what
    /// they held. `a` may have any size; the buffers grow as needed and
    /// never shrink.
    ///
    /// Each entry sees the same operations in the same order as the
    /// textbook indexed kernel: the pivot is the first largest magnitude
    /// of its column, a sub-diagonal entry `a` becomes `m = a / pivot`,
    /// and a row with `m == 0` is skipped. A zero `a` stores `a * pivot`
    /// instead: the singularity test guarantees a finite, non-zero
    /// pivot, so that is the same signed zero as `a / pivot`.
    ///
    /// # Errors
    ///
    /// As [`Lu::factor`]. After an error this is the factorisation of the
    /// empty matrix, so a later solve reports a dimension mismatch
    /// instead of using a partial factorisation.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        self.n = 0;
        self.sign = 1.0;
        self.lu.clear();
        self.piv.clear();
        if !a.is_square() {
            return Err(NumericError::dimension(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        let n = a.rows();
        self.lu.extend_from_slice(a.as_slice());
        self.piv.extend(0..n);
        match eliminate(n, &mut self.lu, &mut self.piv) {
            Ok(sign) => {
                self.n = n;
                self.sign = sign;
                Ok(())
            }
            Err(e) => {
                self.lu.clear();
                self.piv.clear();
                Err(e)
            }
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Row `i` of the packed factors.
    fn packed_row(&self, i: usize) -> &[f64] {
        &self.lu[i * self.n..(i + 1) * self.n]
    }

    /// The unit-lower-triangular factor `L`.
    pub fn l(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if j < i {
                self.lu[i * n + j]
            } else {
                0.0
            }
        })
    }

    /// The upper-triangular factor `U`.
    pub fn u(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.lu[i * n + j] } else { 0.0 })
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
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-owned `x`, allocating nothing.
    ///
    /// Forward substitution accumulates each row of `L` from its first
    /// column; back substitution each row of `U` from just right of the
    /// diagonal, then divides by the diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if `b.len()` or `x.len()`
    /// differs from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(NumericError::dimension(
                    format!("vector of length {n}"),
                    format!("length {len}"),
                ));
            }
        }
        // Apply the row permutation.
        for (xi, &p) in x.iter_mut().zip(&self.piv) {
            *xi = b[p];
        }
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let (solved, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (l, xj) in self.packed_row(i)[..i].iter().zip(solved.iter()) {
                acc -= l * xj;
            }
            rest[0] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = self.packed_row(i);
            let (head, solved) = x.split_at_mut(i + 1);
            let mut acc = head[i];
            for (u, xj) in row[i + 1..].iter().zip(solved.iter()) {
                acc -= u * xj;
            }
            head[i] = acc / row[i];
        }
        Ok(())
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
        let mut rhs = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for (r, row) in rhs.iter_mut().zip(b.iter_rows()) {
                *r = row[j];
            }
            self.solve_into(&rhs, &mut col)?;
            for (i, &v) in col.iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[i * self.n + i];
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

/// The one elimination kernel: factors the `n x n` row-major `lu` in
/// place with partial pivoting, records the row swaps in `piv` and
/// returns the permutation's sign.
///
/// Each step swaps the pivot row into place, then splits the buffer
/// after it so the pivot row is read while the rows below are updated,
/// one row slice at a time.
fn eliminate(n: usize, lu: &mut [f64], piv: &mut [usize]) -> Result<f64> {
    let mut sign = 1.0;
    if n == 0 {
        return Ok(sign);
    }
    for k in 0..n {
        // Partial pivoting: pick the first largest magnitude in column k.
        let mut p = k;
        let mut max = lu[k * n + k].abs();
        for (i, row) in lu.chunks_exact(n).enumerate().skip(k + 1) {
            let v = row[k].abs();
            if v > max {
                max = v;
                p = i;
            }
        }
        if max < SINGULAR_TOL || !max.is_finite() {
            return Err(NumericError::Singular);
        }
        if p != k {
            let (upper, lower) = lu.split_at_mut(p * n);
            upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
            piv.swap(p, k);
            sign = -sign;
        }
        let (upper, lower) = lu.split_at_mut((k + 1) * n);
        let pivot_row = &upper[k * n..];
        let pivot = pivot_row[k];
        for row in lower.chunks_exact_mut(n) {
            let a = row[k];
            if a == 0.0 {
                row[k] = a * pivot;
                continue;
            }
            let m = a / pivot;
            row[k] = m;
            if m == 0.0 {
                continue;
            }
            for (x, u) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *x -= m * u;
            }
        }
    }
    Ok(sign)
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
