//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! Used by the response-surface canonical analysis: the nature of a
//! fitted quadratic's stationary point (maximum / minimum / saddle) is
//! read off the eigenvalues of the quadratic-coefficient matrix `B`.

use crate::matrix::Matrix;
use crate::{NumericError, Result};
use std::cmp::Ordering;

/// Eigenvalues and eigenvectors of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `j` corresponds to
    /// `values[j]`.
    pub vectors: Matrix,
}

/// Computes the eigendecomposition of a symmetric matrix by the cyclic
/// Jacobi method.
///
/// Both triangles are read: the input is symmetrised as
/// `0.5 · (a[(i, j)] + a[(j, i)])`, so an asymmetric input is silently
/// replaced by its symmetric part, and a pair summing past `f64::MAX`
/// overflows to ±∞ there.
///
/// # Errors
///
/// * [`NumericError::Dimension`] if `a` is not square.
/// * [`NumericError::InvalidArgument`] if `a` holds a NaN or infinity.
/// * [`NumericError::NoConvergence`] if off-diagonal mass does not
///   vanish in 100 sweeps (practically impossible for symmetric input),
///   or if an input near `f64::MAX` overflows the rotations into NaN.
///
/// # Example
///
/// ```
/// use ehsim_numeric::{eigen::symmetric_eigen, Matrix};
///
/// # fn main() -> Result<(), ehsim_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let e = symmetric_eigen(&a)?;
/// assert!((e.values[0] - 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if !a.is_square() {
        return Err(NumericError::dimension(
            "square matrix",
            format!("{}x{}", a.rows(), a.cols()),
        ));
    }
    if !a.is_finite() {
        return Err(NumericError::invalid(
            "eigendecomposition of a non-finite matrix",
        ));
    }
    let n = a.rows();
    // Work on a symmetrised copy.
    let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut v = Matrix::identity(n);

    let off = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += m[(i, j)] * m[(i, j)];
                }
            }
        }
        s
    };

    let scale = m.norm_frobenius().max(1e-300);
    for _sweep in 0..100 {
        if off(&m).sqrt() < 1e-14 * scale {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation G(p, q, θ) on both sides.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    if off(&m).sqrt() >= 1e-10 * scale || (0..n).any(|i| m[(i, i)].is_nan()) {
        return Err(NumericError::NoConvergence {
            routine: "jacobi eigen",
        });
    }

    // Sort ascending by eigenvalue; no diagonal entry is NaN, so every
    // pair compares.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].partial_cmp(&m[(j, j)]).unwrap_or(Ordering::Equal));
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    Ok(SymmetricEigen { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::diagonal(&[3.0, 1.0, 2.0]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v = e.vectors.col(1).unwrap();
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[0] - v[1]).abs() < 1e-10 || (v[0] + v[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction() {
        let a =
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 5.0, 0.5], &[1.0, 0.5, 3.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        // A = V Λ Vᵀ
        let lambda = Matrix::diagonal(&e.values);
        let rec = (&(&e.vectors * &lambda).unwrap() * &e.vectors.transpose()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-10);
        // V orthonormal.
        let vtv = (&e.vectors.transpose() * &e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn indefinite_matrix_signs() {
        // Saddle: eigenvalues of opposite sign.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.values[0] < 0.0 && e.values[1] > 0.0);
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for a in [
                Matrix::from_rows(&[&[1.0, bad], &[bad, 2.0]]).unwrap(),
                Matrix::from_rows(&[&[bad, 0.0], &[0.0, 1.0]]).unwrap(),
            ] {
                assert!(matches!(
                    symmetric_eigen(&a),
                    Err(NumericError::InvalidArgument { .. })
                ));
            }
        }
    }

    #[test]
    fn overflow_to_nan_is_no_convergence() {
        // Finite, but symmetrising overflows to ±∞ and the first rotation
        // turns the diagonal into NaN.
        let big = f64::MAX;
        let a = Matrix::from_rows(&[&[big, big], &[big, -big]]).unwrap();
        assert!(matches!(
            symmetric_eigen(&a),
            Err(NumericError::NoConvergence { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
    }
}
