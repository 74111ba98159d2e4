//! Householder QR factorisation and least-squares solving.
//!
//! The DoE crate fits response-surface models by ordinary least squares;
//! QR is the numerically sound way to do that (forming the normal
//! equations squares the condition number). The factorisation also
//! exposes `(XᵀX)⁻¹ = R⁻¹R⁻ᵀ`, needed for coefficient covariance,
//! leverage, and PRESS statistics.

use crate::matrix::Matrix;
use crate::{NumericError, Result};

/// A Householder QR factorisation of an `m x n` matrix with `m >= n`.
///
/// # Example
///
/// ```
/// use ehsim_numeric::{Matrix, Qr};
///
/// # fn main() -> Result<(), ehsim_numeric::NumericError> {
/// // Fit y = a + b*x to three points on the line y = 1 + 2x.
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let qr = Qr::factor(&x)?;
/// let beta = qr.solve_least_squares(&[1.0, 3.0, 5.0])?;
/// assert!((beta[0] - 1.0).abs() < 1e-12);
/// assert!((beta[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factors: R in the upper triangle, Householder vectors below.
    qr: Matrix,
    /// Householder scalars `beta_k`.
    betas: Vec<f64>,
}

impl Qr {
    /// Factors `a` (must have at least as many rows as columns).
    ///
    /// # Errors
    ///
    /// * [`NumericError::Dimension`] if `a.rows() < a.cols()`.
    /// * [`NumericError::Singular`] if a column is (numerically) linearly
    ///   dependent on the previous ones, i.e. the model matrix is
    ///   rank-deficient.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(NumericError::dimension("rows >= cols", format!("{m}x{n}")));
        }
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        let scale = a.norm_max().max(1.0);

        for k in 0..n {
            // Build the Householder reflector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-13 * scale {
                return Err(NumericError::Singular);
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Normalise so v[k] == 1 (stored implicitly).
            let mut vtv = 1.0;
            for i in (k + 1)..m {
                let vi = qr[(i, k)] / v0;
                qr[(i, k)] = vi;
                vtv += vi * vi;
            }
            betas[k] = 2.0 / vtv;
            qr[(k, k)] = alpha;

            // Apply the reflector to the remaining columns.
            for j in (k + 1)..n {
                let mut dot = qr[(k, j)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, j)];
                }
                let tau = betas[k] * dot;
                qr[(k, j)] -= tau;
                for i in (k + 1)..m {
                    let upd = tau * qr[(i, k)];
                    qr[(i, j)] -= upd;
                }
            }
        }
        Ok(Qr { qr, betas })
    }

    /// Applies `Qᵀ` to a vector in place.
    fn apply_qt(&self, x: &mut [f64]) {
        let (m, n) = self.qr.shape();
        for k in 0..n {
            let mut dot = x[k];
            for i in (k + 1)..m {
                dot += self.qr[(i, k)] * x[i];
            }
            let tau = self.betas[k] * dot;
            x[k] -= tau;
            for i in (k + 1)..m {
                x[i] -= tau * self.qr[(i, k)];
            }
        }
    }

    /// Solves the least-squares problem `min ||A x - b||₂`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if `b.len() != self.rows()`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(NumericError::dimension(
                format!("vector of length {m}"),
                format!("length {}", b.len()),
            ));
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution on the leading n x n triangle.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            x[i] = acc / self.qr[(i, i)];
        }
        Ok(x)
    }

    /// Applies `Q` to a vector in place (reflectors in reverse order).
    fn apply_q(&self, x: &mut [f64]) {
        let (m, n) = self.qr.shape();
        for k in (0..n).rev() {
            let mut dot = x[k];
            for i in (k + 1)..m {
                dot += self.qr[(i, k)] * x[i];
            }
            let tau = self.betas[k] * dot;
            x[k] -= tau;
            for i in (k + 1)..m {
                x[i] -= tau * self.qr[(i, k)];
            }
        }
    }

    /// Returns the thin orthonormal factor `Q` (size `m x n`), so that
    /// `Q·R` reconstructs the factored matrix.
    pub fn q(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            let mut e = vec![0.0; m];
            e[j] = 1.0;
            self.apply_q(&mut e);
            for i in 0..m {
                q[(i, j)] = e[i];
            }
        }
        q
    }

    /// Returns the upper-triangular factor `R` (size `n x n`).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// Computes `(AᵀA)⁻¹ = R⁻¹ R⁻ᵀ`.
    ///
    /// This is the unscaled coefficient covariance matrix of an OLS fit.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Singular`] if `R` has a zero diagonal entry
    /// (cannot occur when `factor` succeeded).
    pub fn xtx_inverse(&self) -> Result<Matrix> {
        let n = self.qr.cols();
        // Solve R * Z = I  (Z = R^{-1}) by back substitution per column.
        let mut z = Matrix::zeros(n, n);
        for col in 0..n {
            for i in (0..=col).rev() {
                let mut acc = if i == col { 1.0 } else { 0.0 };
                for j in (i + 1)..=col {
                    acc -= self.qr[(i, j)] * z[(j, col)];
                }
                let d = self.qr[(i, i)];
                if d == 0.0 {
                    return Err(NumericError::Singular);
                }
                z[(i, col)] = acc / d;
            }
        }
        // (X^T X)^{-1} = Z * Z^T
        &z * &z.transpose()
    }

    /// Residual sum of squares for the given right-hand side, computed
    /// from the tail of `Qᵀ b` without forming the fitted values.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Dimension`] if `b.len() != self.rows()`.
    pub fn residual_sum_of_squares(&self, b: &[f64]) -> Result<f64> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(NumericError::dimension(
                format!("vector of length {m}"),
                format!("length {}", b.len()),
            ));
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        Ok(y[n..].iter().map(|v| v * v).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let qr = Qr::factor(&a).unwrap();
        let x = qr.solve_least_squares(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_regression() {
        // y = 2 + 3x with exact data: residual must vanish.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { xs[i] });
        let b: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let qr = Qr::factor(&a).unwrap();
        let beta = qr.solve_least_squares(&b).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-12);
        assert!((beta[1] - 3.0).abs() < 1e-12);
        assert!(qr.residual_sum_of_squares(&b).unwrap() < 1e-20);
    }

    #[test]
    fn least_squares_minimises_residual() {
        // Noisy data: LS solution must beat small perturbations of itself.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = [0.1, 0.9, 2.2, 2.8];
        let qr = Qr::factor(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        let rss = |x: &[f64]| -> f64 {
            let ax = a.matvec(x).unwrap();
            ax.iter()
                .zip(b.iter())
                .map(|(p, q)| (p - q) * (p - q))
                .sum()
        };
        let base = rss(&x);
        for d in [[1e-3, 0.0], [0.0, 1e-3], [-1e-3, 1e-3]] {
            let perturbed = [x[0] + d[0], x[1] + d[1]];
            assert!(rss(&perturbed) >= base);
        }
        assert!((qr.residual_sum_of_squares(&b).unwrap() - base).abs() < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular_and_consistent() {
        // Columns 1, i², sqrt(i+1) are linearly independent over 6 rows.
        let a = Matrix::from_fn(6, 3, |i, j| match j {
            0 => 1.0,
            1 => (i * i) as f64,
            _ => ((i + 1) as f64).sqrt(),
        });
        let qr = Qr::factor(&a).unwrap();
        let r = qr.r();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
        // A^T A == R^T R
        let ata = (&a.transpose() * &a).unwrap();
        let rtr = (&r.transpose() * &r).unwrap();
        assert!(ata.max_abs_diff(&rtr).unwrap() < 1e-9 * ata.norm_max());
    }

    #[test]
    fn xtx_inverse_matches_lu_inverse() {
        let a = Matrix::from_fn(8, 3, |i, j| {
            ((i * 7 + j * 3 + 1) % 5) as f64 + if i == j { 3.0 } else { 0.0 }
        });
        let qr = Qr::factor(&a).unwrap();
        let via_qr = qr.xtx_inverse().unwrap();
        let ata = (&a.transpose() * &a).unwrap();
        let via_lu = crate::lu::Lu::factor(&ata).unwrap().inverse().unwrap();
        assert!(via_qr.max_abs_diff(&via_lu).unwrap() < 1e-8 * via_lu.norm_max());
    }

    #[test]
    fn rank_deficient_is_detected() {
        // Second column is 2x the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        assert_eq!(Qr::factor(&a).unwrap_err(), NumericError::Singular);
    }

    #[test]
    fn underdetermined_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Qr::factor(&a),
            Err(NumericError::Dimension { .. })
        ));
    }
}
