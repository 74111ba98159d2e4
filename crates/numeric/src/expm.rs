//! Matrix exponential via Padé scaling-and-squaring.
//!
//! The explicit linearized state-space circuit engine discretises each
//! piecewise-linear topology exactly as
//! `x[k+1] = e^{A h} x[k] + A⁻¹ (e^{A h} − I) B u` and caches the
//! exponential per topology, so this routine sits on the engine's
//! (infrequent) re-linearisation path.

use crate::lu::Lu;
use crate::matrix::Matrix;
use crate::{NumericError, Result};

/// Computes the matrix exponential `e^A` using the [6/6] Padé approximant
/// with scaling and squaring.
///
/// Accuracy is close to machine precision for the moderately sized,
/// moderately normed matrices produced by circuit discretisation.
///
/// # Errors
///
/// * [`NumericError::Dimension`] if `a` is not square.
/// * [`NumericError::InvalidArgument`] if `a` contains non-finite values.
/// * [`NumericError::Singular`] if the Padé denominator cannot be solved
///   (indicates a pathologically scaled input).
///
/// # Example
///
/// ```
/// use ehsim_numeric::{expm, Matrix};
///
/// # fn main() -> Result<(), ehsim_numeric::NumericError> {
/// // exp of a diagonal matrix is elementwise exp on the diagonal.
/// let a = Matrix::diagonal(&[0.0, 1.0_f64.ln()]);
/// let e = expm(&a)?;
/// assert!((e[(0, 0)] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn expm(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(NumericError::dimension(
            "square matrix",
            format!("{}x{}", a.rows(), a.cols()),
        ));
    }
    if !a.is_finite() {
        return Err(NumericError::invalid(
            "matrix exponential of a non-finite matrix",
        ));
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }

    // Scaling: find s with ||A / 2^s|| <= 0.25, the safe radius for the
    // [6/6] approximant in double precision.
    let norm = a.norm_inf();
    let s = if norm > 0.25 {
        ((norm / 0.25).log2().ceil() as i32).max(0) as u32 // lint:allow(D5): scaling exponent: ceil of a finite log2, clamped to >= 0
    } else {
        0
    };
    let scaled = a.scaled(1.0 / f64::powi(2.0, s as i32));

    // [6/6] Padé approximant coefficients b_k / b_0 with
    // b = [665280, 332640, 75600, 10080, 840, 42, 1].
    const C: [f64; 7] = [
        1.0,
        0.5,
        75600.0 / 665280.0,
        10080.0 / 665280.0,
        840.0 / 665280.0,
        42.0 / 665280.0,
        1.0 / 665280.0,
    ];

    let ident = Matrix::identity(n);
    let a2 = (&scaled * &scaled)?;
    let a4 = (&a2 * &a2)?;
    let a6 = (&a2 * &a4)?;

    // U = A (c1 I + c3 A^2 + c5 A^4),  V = c0 I + c2 A^2 + c4 A^4 + c6 A^6
    let mut u_inner = ident.scaled(C[1]);
    u_inner = (&u_inner + &a2.scaled(C[3]))?;
    u_inner = (&u_inner + &a4.scaled(C[5]))?;
    let u = (&scaled * &u_inner)?;

    let mut v = ident.scaled(C[0]);
    v = (&v + &a2.scaled(C[2]))?;
    v = (&v + &a4.scaled(C[4]))?;
    v = (&v + &a6.scaled(C[6]))?;

    // (V - U) R = (V + U)
    let denom = (&v - &u)?;
    let numer = (&v + &u)?;
    let mut r = Lu::factor(&denom)?.solve_matrix(&numer)?;

    // Undo the scaling by repeated squaring.
    for _ in 0..s {
        r = (&r * &r)?;
    }
    Ok(r)
}

/// Computes `Phi = e^{A h}` and `Gamma = ∫₀ʰ e^{A τ} dτ · B` in one shot
/// using the block-matrix trick
/// `exp([[A, B], [0, 0]] h) = [[Phi, Gamma], [0, I]]`.
///
/// This is the exact zero-order-hold discretisation of `ẋ = A x + B u`
/// and works even when `A` is singular.
///
/// # Errors
///
/// * [`NumericError::Dimension`] if `a` is not square or `b.rows() != a.rows()`.
/// * Propagates [`expm`] errors.
pub fn discretize_zoh(a: &Matrix, b: &Matrix, h: f64) -> Result<(Matrix, Matrix)> {
    if !a.is_square() {
        return Err(NumericError::dimension(
            "square matrix",
            format!("{}x{}", a.rows(), a.cols()),
        ));
    }
    if b.rows() != a.rows() {
        return Err(NumericError::dimension(
            format!("{} rows", a.rows()),
            format!("{} rows", b.rows()),
        ));
    }
    let n = a.rows();
    let m = b.cols();
    let mut block = Matrix::zeros(n + m, n + m);
    for i in 0..n {
        for j in 0..n {
            block[(i, j)] = a[(i, j)] * h;
        }
        for j in 0..m {
            block[(i, n + j)] = b[(i, j)] * h;
        }
    }
    let e = expm(&block)?;
    let phi = e.submatrix(0, n, 0, n)?;
    let gamma = e.submatrix(0, n, n, n + m)?;
    Ok((phi, gamma))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expm_zero_is_identity() {
        let e = expm(&Matrix::zeros(3, 3)).unwrap();
        assert!(e.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-15);
    }

    #[test]
    fn expm_diagonal() {
        let a = Matrix::diagonal(&[1.0, -2.0, 0.5]);
        let e = expm(&a).unwrap();
        for (i, &d) in [1.0f64, -2.0, 0.5].iter().enumerate() {
            assert!((e[(i, i)] - d.exp()).abs() < 1e-12 * d.exp().max(1.0));
        }
    }

    #[test]
    fn expm_rotation_matrix() {
        // exp([[0, -t], [t, 0]]) = [[cos t, -sin t], [sin t, cos t]]
        let t = 1.3;
        let a = Matrix::from_rows(&[&[0.0, -t], &[t, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - t.cos()).abs() < 1e-12);
        assert!((e[(0, 1)] + t.sin()).abs() < 1e-12);
        assert!((e[(1, 0)] - t.sin()).abs() < 1e-12);
        assert!((e[(1, 1)] - t.cos()).abs() < 1e-12);
    }

    #[test]
    fn expm_additivity_for_same_matrix() {
        // e^{2A} == (e^{A})^2 for any A.
        let a = Matrix::from_rows(&[&[0.1, 0.7], &[-0.4, 0.2]]).unwrap();
        let e1 = expm(&a.scaled(2.0)).unwrap();
        let e2 = {
            let e = expm(&a).unwrap();
            (&e * &e).unwrap()
        };
        assert!(e1.max_abs_diff(&e2).unwrap() < 1e-12);
    }

    #[test]
    fn expm_large_norm_uses_scaling() {
        let a = Matrix::from_rows(&[&[0.0, 30.0], &[-30.0, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - 30.0f64.cos()).abs() < 1e-9);
        assert!((e[(1, 0)] + 30.0f64.sin()).abs() < 1e-9); // sin(-30) entry
    }

    #[test]
    fn expm_rejects_nan() {
        let a = Matrix::from_rows(&[&[f64::NAN]]).unwrap();
        assert!(expm(&a).is_err());
    }

    #[test]
    fn discretize_zoh_scalar_decay() {
        // ẋ = -x + u, h = 0.1: phi = e^{-h}, gamma = 1 - e^{-h}.
        let a = Matrix::from_rows(&[&[-1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0]]).unwrap();
        let (phi, gamma) = discretize_zoh(&a, &b, 0.1).unwrap();
        assert!((phi[(0, 0)] - (-0.1f64).exp()).abs() < 1e-13);
        assert!((gamma[(0, 0)] - (1.0 - (-0.1f64).exp())).abs() < 1e-13);
    }

    #[test]
    fn discretize_zoh_singular_a() {
        // Pure integrator ẋ = u: phi = 1, gamma = h.
        let a = Matrix::zeros(1, 1);
        let b = Matrix::from_rows(&[&[1.0]]).unwrap();
        let (phi, gamma) = discretize_zoh(&a, &b, 0.25).unwrap();
        assert!((phi[(0, 0)] - 1.0).abs() < 1e-14);
        assert!((gamma[(0, 0)] - 0.25).abs() < 1e-14);
    }

    #[test]
    fn discretised_oscillator_conserves_energy() {
        // Undamped oscillator: the ZOH map must be a rotation (norm 1).
        let w = 2.0 * std::f64::consts::PI * 5.0;
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-w * w, 0.0]]).unwrap();
        let b = Matrix::zeros(2, 1);
        let (phi, _) = discretize_zoh(&a, &b, 1e-3).unwrap();
        // det(phi) == 1 for a Hamiltonian flow.
        let det = phi[(0, 0)] * phi[(1, 1)] - phi[(0, 1)] * phi[(1, 0)];
        assert!((det - 1.0).abs() < 1e-12);
    }
}
