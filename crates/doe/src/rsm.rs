//! Response-surface analysis of fitted quadratic models.
//!
//! Writes the fitted second-order polynomial as
//! `ŷ = b₀ + bᵀx + xᵀ B x` and analyses its stationary point: location
//! (`2 B xs = −b`), predicted value, and nature from the eigenvalues of
//! `B` (canonical analysis).

use crate::fit::FittedModel;
use crate::{DoeError, Result};
use ehsim_numeric::eigen::symmetric_eigen;
use ehsim_numeric::{Lu, Matrix};

/// Nature of a quadratic surface's stationary point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationaryKind {
    /// All eigenvalues negative: the point is a maximum.
    Maximum,
    /// All eigenvalues positive: the point is a minimum.
    Minimum,
    /// Mixed signs: a saddle (rising ridge in some directions).
    Saddle,
}

/// Canonical analysis of a fitted quadratic response surface.
#[derive(Debug, Clone)]
pub struct ResponseSurface {
    b0: f64,
    b: Vec<f64>,
    bmat: Matrix,
    stationary: Option<Vec<f64>>,
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

impl ResponseSurface {
    /// Extracts the quadratic structure from a fitted model.
    ///
    /// The model must contain the intercept and, for every quadratic
    /// coefficient used, the corresponding terms; missing quadratic or
    /// interaction terms are treated as zero (so reduced models work).
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if any term has degree > 2.
    pub fn from_fitted(model: &FittedModel) -> Result<Self> {
        let spec = model.spec();
        let k = spec.k();
        let mut b0 = 0.0;
        let mut b = vec![0.0; k];
        let mut bmat = Matrix::zeros(k, k);
        for (term, &coef) in spec.terms().iter().zip(model.coefficients()) {
            let active: Vec<usize> = term
                .powers()
                .iter()
                .enumerate()
                .filter(|(_, &p)| p > 0)
                .map(|(i, _)| i)
                .collect();
            match (term.degree(), active.as_slice()) {
                (0, _) => b0 = coef,
                (1, &[i]) => b[i] = coef,
                (2, &[i]) => bmat[(i, i)] = coef,
                (2, &[i, j]) => {
                    bmat[(i, j)] = coef / 2.0;
                    bmat[(j, i)] = coef / 2.0;
                }
                (d, _) => {
                    return Err(DoeError::invalid(format!(
                        "canonical analysis needs degree <= 2, found term of degree {d}"
                    )))
                }
            }
        }

        // Stationary point: 2 B xs = -b (None when B is singular —
        // a ridge system).
        let stationary = Lu::factor(&bmat.scaled(2.0))
            .ok()
            .and_then(|lu| lu.solve(&b.iter().map(|v| -v).collect::<Vec<_>>()).ok());

        let eig = symmetric_eigen(&bmat)?;
        Ok(ResponseSurface {
            b0,
            b,
            bmat,
            stationary,
            eigenvalues: eig.values,
            eigenvectors: eig.vectors,
        })
    }

    /// Intercept `b₀`.
    pub fn intercept(&self) -> f64 {
        self.b0
    }

    /// Linear coefficient vector `b`.
    pub fn linear_coeffs(&self) -> &[f64] {
        &self.b
    }

    /// Symmetric quadratic coefficient matrix `B`.
    pub fn quadratic_matrix(&self) -> &Matrix {
        &self.bmat
    }

    /// The stationary point in coded units, if `B` is non-singular.
    pub fn stationary_point(&self) -> Option<&[f64]> {
        self.stationary.as_deref()
    }

    /// Predicted response at the stationary point.
    pub fn stationary_value(&self) -> Option<f64> {
        self.stationary.as_ref().map(|x| self.eval(x))
    }

    /// Eigenvalues of `B` in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Principal-axis directions (columns).
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Classifies the stationary point; eigenvalues within `tol` of
    /// zero are treated as flat (ridge) directions and grouped with the
    /// dominant sign.
    pub fn kind(&self, tol: f64) -> StationaryKind {
        let pos = self.eigenvalues.iter().filter(|&&l| l > tol).count();
        let neg = self.eigenvalues.iter().filter(|&&l| l < -tol).count();
        if pos > 0 && neg > 0 {
            StationaryKind::Saddle
        } else if neg > 0 {
            StationaryKind::Maximum
        } else {
            StationaryKind::Minimum
        }
    }

    /// Evaluates the quadratic form `b₀ + bᵀx + xᵀBx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the factor count.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.b.len(), "dimension mismatch");
        let quad: f64 = x.iter().zip(self.bx(x)).map(|(a, c)| a * c).sum();
        let lin: f64 = self.b.iter().zip(x.iter()).map(|(a, c)| a * c).sum();
        self.b0 + lin + quad
    }

    /// Analytic gradient `b + 2 B x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the factor count.
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.b.len(), "dimension mismatch");
        self.b
            .iter()
            .zip(self.bx(x))
            .map(|(bi, bxi)| bi + 2.0 * bxi)
            .collect()
    }

    /// The rows of `B x`, each accumulated from 0.0 in column order as
    /// [`Matrix::matvec`] does.
    fn bx<'a>(&'a self, x: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        self.bmat
            .iter_rows()
            .map(move |row| row.iter().zip(x).fold(0.0, |acc, (a, c)| acc + a * c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::ccd::CentralComposite;
    use crate::fit::fit;
    use crate::model::ModelSpec;

    fn fit_surface(truth: impl Fn(&[f64]) -> f64, k: usize) -> ResponseSurface {
        let d = CentralComposite::rotatable(k)
            .unwrap()
            .with_center_points(3)
            .build()
            .unwrap();
        let y: Vec<f64> = d.points().iter().map(|p| truth(p)).collect();
        let m = fit(&ModelSpec::quadratic(k).unwrap(), d.points(), &y).unwrap();
        ResponseSurface::from_fitted(&m).unwrap()
    }

    #[test]
    fn recovers_maximum() {
        // Peak at (0.5, -0.25).
        let rs = fit_surface(
            |x| 10.0 - 2.0 * (x[0] - 0.5) * (x[0] - 0.5) - 4.0 * (x[1] + 0.25) * (x[1] + 0.25),
            2,
        );
        assert_eq!(rs.kind(1e-9), StationaryKind::Maximum);
        let s = rs.stationary_point().expect("nonsingular B");
        assert!((s[0] - 0.5).abs() < 1e-9, "{s:?}");
        assert!((s[1] + 0.25).abs() < 1e-9, "{s:?}");
        assert!((rs.stationary_value().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_minimum_and_saddle() {
        let rs_min = fit_surface(|x| x[0] * x[0] + x[1] * x[1], 2);
        assert_eq!(rs_min.kind(1e-9), StationaryKind::Minimum);
        let rs_saddle = fit_surface(|x| x[0] * x[0] - x[1] * x[1], 2);
        assert_eq!(rs_saddle.kind(1e-9), StationaryKind::Saddle);
    }

    #[test]
    fn eigenstructure_of_anisotropic_bowl() {
        let rs = fit_surface(|x| 3.0 * x[0] * x[0] + 1.0 * x[1] * x[1], 2);
        assert!((rs.eigenvalues()[0] - 1.0).abs() < 1e-9);
        assert!((rs.eigenvalues()[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn gradient_vanishes_at_stationary() {
        let rs = fit_surface(
            |x| 1.0 + x[0] - 2.0 * x[1] - x[0] * x[0] - 0.5 * x[1] * x[1] + 0.3 * x[0] * x[1],
            2,
        );
        let s = rs.stationary_point().unwrap().to_vec();
        let g = rs.gradient(&s);
        assert!(g.iter().all(|v| v.abs() < 1e-9), "{g:?}");
    }

    #[test]
    fn eval_matches_model_predict() {
        let d = CentralComposite::rotatable(3)
            .unwrap()
            .with_center_points(2)
            .build()
            .unwrap();
        let truth =
            |x: &[f64]| 2.0 - x[0] + 0.5 * x[2] + x[0] * x[1] - x[1] * x[1] + 0.2 * x[2] * x[2];
        let y: Vec<f64> = d.points().iter().map(|p| truth(p)).collect();
        let m = fit(&ModelSpec::quadratic(3).unwrap(), d.points(), &y).unwrap();
        let rs = ResponseSurface::from_fitted(&m).unwrap();
        for x in [[0.3, -0.7, 0.1], [1.0, 1.0, -1.0], [0.0, 0.0, 0.0]] {
            assert!((rs.eval(&x) - m.predict(&x)).abs() < 1e-9);
        }
    }

    #[test]
    fn reduced_model_missing_terms_ok() {
        // Model with no interactions at all.
        let d = CentralComposite::face_centered(2)
            .unwrap()
            .with_center_points(3)
            .build()
            .unwrap();
        let y: Vec<f64> = d.points().iter().map(|p| 1.0 - p[0] * p[0]).collect();
        let spec = ModelSpec::new(
            2,
            vec![
                crate::model::Term::intercept(2),
                crate::model::Term::quadratic(2, 0),
            ],
        )
        .unwrap();
        let m = fit(&spec, d.points(), &y).unwrap();
        let rs = ResponseSurface::from_fitted(&m).unwrap();
        // B is singular (x1 direction flat): no stationary point.
        assert!(rs.stationary_point().is_none());
        assert!((rs.eval(&[0.5, 123.0]) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn rejects_cubic_terms() {
        let spec = ModelSpec::new(
            1,
            vec![
                crate::model::Term::intercept(1),
                crate::model::Term::new(vec![3]),
            ],
        )
        .unwrap();
        let pts: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let y: Vec<f64> = pts.iter().map(|p| p[0].powi(3)).collect();
        let m = fit(&spec, &pts, &y).unwrap();
        assert!(ResponseSurface::from_fitted(&m).is_err());
    }
}
