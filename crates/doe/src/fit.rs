//! Ordinary least squares fitting of polynomial models.

use crate::model::ModelSpec;
use crate::{DoeError, Result};
use ehsim_numeric::stats::dist::StudentT;
use ehsim_numeric::{Matrix, Qr};

/// A fitted polynomial response model with the statistics needed for
/// inference and validation.
#[derive(Debug, Clone)]
pub struct FittedModel {
    spec: ModelSpec,
    coeffs: Vec<f64>,
    points: Vec<Vec<f64>>,
    responses: Vec<f64>,
    fitted: Vec<f64>,
    residuals: Vec<f64>,
    leverages: Vec<f64>,
    xtx_inv: Matrix,
    rss: f64,
    tss: f64,
    press: f64,
}

/// Fits `spec` to `(points, responses)` by QR-based least squares.
///
/// # Errors
///
/// * [`DoeError::InvalidArgument`] on dimension mismatches or fewer runs
///   than model terms.
/// * [`DoeError::RankDeficient`] if the design cannot estimate all
///   terms.
///
/// # Example
///
/// ```
/// use ehsim_doe::{fit::fit, model::ModelSpec};
///
/// # fn main() -> Result<(), ehsim_doe::DoeError> {
/// let points = vec![vec![-1.0], vec![0.0], vec![1.0]];
/// let y = vec![1.0, 2.0, 3.0]; // y = 2 + x
/// let m = fit(&ModelSpec::linear(1)?, &points, &y)?;
/// assert!((m.predict(&[0.5]) - 2.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fit(spec: &ModelSpec, points: &[Vec<f64>], responses: &[f64]) -> Result<FittedModel> {
    let n = points.len();
    let p = spec.n_terms();
    if responses.len() != n {
        return Err(DoeError::invalid(format!(
            "{n} points but {} responses",
            responses.len()
        )));
    }
    if n < p {
        return Err(DoeError::invalid(format!(
            "need at least as many runs ({n}) as model terms ({p})"
        )));
    }
    if !responses.iter().all(|v| v.is_finite()) {
        return Err(DoeError::invalid("responses must be finite"));
    }
    let x = spec.design_matrix(points)?;
    let qr = Qr::factor(&x)?;
    let coeffs = qr.solve_least_squares(responses)?;
    let xtx_inv = qr.xtx_inverse()?;

    let fitted: Vec<f64> = x
        .iter_rows()
        .map(|row| row.iter().zip(coeffs.iter()).map(|(a, b)| a * b).sum())
        .collect();
    let residuals: Vec<f64> = responses
        .iter()
        .zip(fitted.iter())
        .map(|(y, f)| y - f)
        .collect();
    let rss: f64 = residuals.iter().map(|e| e * e).sum();
    let y_mean = responses.iter().sum::<f64>() / n as f64;
    let tss: f64 = responses.iter().map(|y| (y - y_mean) * (y - y_mean)).sum();

    // Leverages h_i = x_iᵀ (XᵀX)⁻¹ x_i and PRESS.
    let mut leverages = Vec::with_capacity(n);
    let mut press = 0.0;
    for (e, row) in residuals.iter().zip(x.iter_rows()) {
        let tmp = xtx_inv.matvec(row)?;
        let h: f64 = row.iter().zip(tmp.iter()).map(|(a, b)| a * b).sum();
        leverages.push(h);
        let denom = (1.0 - h).max(1e-12);
        let e_loo = e / denom;
        press += e_loo * e_loo;
    }

    Ok(FittedModel {
        spec: spec.clone(),
        coeffs,
        points: points.to_vec(),
        responses: responses.to_vec(),
        fitted,
        residuals,
        leverages,
        xtx_inv,
        rss,
        tss,
        press,
    })
}

impl FittedModel {
    /// The model specification.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Estimated coefficients in term order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// The training points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// The training responses.
    pub fn responses(&self) -> &[f64] {
        &self.responses
    }

    /// Fitted values on the training points.
    pub fn fitted_values(&self) -> &[f64] {
        &self.fitted
    }

    /// Training residuals.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Leverages (hat-matrix diagonal).
    pub fn leverages(&self) -> &[f64] {
        &self.leverages
    }

    /// Number of training runs.
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Number of model terms.
    pub fn p(&self) -> usize {
        self.spec.n_terms()
    }

    /// Residual degrees of freedom `n - p`.
    pub fn df_residual(&self) -> usize {
        self.n() - self.p()
    }

    /// Residual sum of squares.
    pub fn rss(&self) -> f64 {
        self.rss
    }

    /// Total (corrected) sum of squares.
    pub fn tss(&self) -> f64 {
        self.tss
    }

    /// PRESS: the leave-one-out prediction error sum of squares.
    pub fn press(&self) -> f64 {
        self.press
    }

    /// Residual variance estimate `RSS/(n-p)`; 0 for saturated fits.
    pub fn sigma2(&self) -> f64 {
        let df = self.df_residual();
        if df == 0 {
            0.0
        } else {
            self.rss / df as f64
        }
    }

    /// Coefficient of determination R².
    pub fn r_squared(&self) -> f64 {
        if self.tss <= 0.0 {
            return 1.0;
        }
        1.0 - self.rss / self.tss
    }

    /// Adjusted R².
    pub fn adj_r_squared(&self) -> f64 {
        let n = self.n() as f64;
        let p = self.p() as f64;
        if self.tss <= 0.0 || n - p <= 0.0 {
            return self.r_squared();
        }
        1.0 - (1.0 - self.r_squared()) * (n - 1.0) / (n - p)
    }

    /// Predicted R² (from PRESS) — the headline generalisation metric
    /// for RSMs.
    pub fn predicted_r_squared(&self) -> f64 {
        if self.tss <= 0.0 {
            return 1.0;
        }
        1.0 - self.press / self.tss
    }

    /// Predicts the response at a coded point.
    ///
    /// The result has the bits of [`ModelSpec::expand_point`]`(x)` ·
    /// [`coefficients`](Self::coefficients) summed in term order with
    /// `Iterator::sum`, but no row is built: the monomials come from
    /// the exponent table the spec built once, and linear, interaction
    /// and quadratic terms cost multiplies, not `powi` calls.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of factors.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.spec.k(), "dimension mismatch");
        self.spec
            .monomials(x)
            .zip(self.coeffs.iter())
            .map(|(m, c)| m * c)
            .sum()
    }

    /// Predicts many points at once.
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Standard errors of the coefficients.
    pub fn coeff_std_errors(&self) -> Vec<f64> {
        let s2 = self.sigma2();
        (0..self.p())
            .map(|j| (s2 * self.xtx_inv[(j, j)]).max(0.0).sqrt())
            .collect()
    }

    /// t statistics of the coefficients (0 where the standard error
    /// vanishes).
    pub fn t_stats(&self) -> Vec<f64> {
        self.coeffs
            .iter()
            .zip(self.coeff_std_errors().iter())
            .map(|(c, se)| if *se > 0.0 { c / se } else { 0.0 })
            .collect()
    }

    /// Two-sided p-values of the coefficient t-tests.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] when there are no residual degrees
    /// of freedom.
    pub fn p_values(&self) -> Result<Vec<f64>> {
        let df = self.df_residual();
        if df == 0 {
            return Err(DoeError::invalid(
                "p-values undefined for a saturated model (no residual df)",
            ));
        }
        let t = StudentT::new(df as f64)?;
        Ok(self
            .t_stats()
            .iter()
            .map(|&ts| t.p_value_two_sided(ts))
            .collect())
    }

    /// `1 - alpha` confidence half-widths for the coefficients.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] for `alpha ∉ (0,1)` or a saturated
    /// model.
    pub fn coeff_confidence_halfwidths(&self, alpha: f64) -> Result<Vec<f64>> {
        if !(0.0 < alpha && alpha < 1.0) {
            return Err(DoeError::invalid(format!("alpha {alpha} not in (0,1)")));
        }
        let df = self.df_residual();
        if df == 0 {
            return Err(DoeError::invalid(
                "confidence intervals undefined for a saturated model",
            ));
        }
        let t = StudentT::new(df as f64)?;
        let q = t.quantile(1.0 - alpha / 2.0)?;
        Ok(self.coeff_std_errors().iter().map(|se| q * se).collect())
    }

    /// Unscaled coefficient covariance `(XᵀX)⁻¹`.
    pub fn xtx_inverse(&self) -> &Matrix {
        &self.xtx_inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::factorial::full_factorial_2k;

    #[test]
    fn exact_linear_recovery() {
        let pts = vec![
            vec![-1.0, -1.0],
            vec![1.0, -1.0],
            vec![-1.0, 1.0],
            vec![1.0, 1.0],
        ];
        let y: Vec<f64> = pts.iter().map(|p| 3.0 + 2.0 * p[0] - 1.5 * p[1]).collect();
        let m = fit(&ModelSpec::linear(2).unwrap(), &pts, &y).unwrap();
        assert!((m.coefficients()[0] - 3.0).abs() < 1e-12);
        assert!((m.coefficients()[1] - 2.0).abs() < 1e-12);
        assert!((m.coefficients()[2] + 1.5).abs() < 1e-12);
        assert!(m.r_squared() > 1.0 - 1e-12);
        assert!(m.rss() < 1e-20);
    }

    #[test]
    fn quadratic_recovery_on_ccd() {
        use crate::design::ccd::CentralComposite;
        let d = CentralComposite::rotatable(2)
            .unwrap()
            .with_center_points(3)
            .build()
            .unwrap();
        let truth = |x: &[f64]| {
            1.0 + 0.5 * x[0] - 0.8 * x[1] + 0.3 * x[0] * x[1] - 1.2 * x[0] * x[0]
                + 0.7 * x[1] * x[1]
        };
        let y: Vec<f64> = d.points().iter().map(|p| truth(p)).collect();
        let m = fit(&ModelSpec::quadratic(2).unwrap(), d.points(), &y).unwrap();
        for (c, expect) in m
            .coefficients()
            .iter()
            .zip([1.0, 0.5, -0.8, 0.3, -1.2, 0.7])
        {
            assert!((c - expect).abs() < 1e-9, "{c} vs {expect}");
        }
        // Perfect fit on noiseless data.
        assert!(m.predicted_r_squared() > 1.0 - 1e-9);
    }

    #[test]
    fn noisy_fit_statistics_behave() {
        // Deterministic pseudo-noise.
        let d = full_factorial_2k(3).unwrap().with_center_points(4);
        let y: Vec<f64> = d
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let noise = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                2.0 + 1.0 * p[0] + 0.1 * noise
            })
            .collect();
        let m = fit(&ModelSpec::linear(3).unwrap(), d.points(), &y).unwrap();
        assert!(m.r_squared() > 0.9 && m.r_squared() < 1.0);
        assert!(m.adj_r_squared() <= m.r_squared());
        assert!(m.predicted_r_squared() <= m.r_squared());
        assert!(m.sigma2() > 0.0);
        // x0 is strongly significant; x1, x2 are noise.
        let p = m.p_values().unwrap();
        assert!(p[1] < 0.001, "p(x0) = {}", p[1]);
        assert!(p[2] > 0.05, "p(x1) = {}", p[2]);
        let hw = m.coeff_confidence_halfwidths(0.05).unwrap();
        assert!(hw.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn leverage_sums_to_p() {
        let d = full_factorial_2k(2).unwrap().with_center_points(2);
        let y = vec![1.0, 2.0, 3.0, 4.0, 2.5, 2.5];
        let m = fit(&ModelSpec::linear(2).unwrap(), d.points(), &y).unwrap();
        let h_sum: f64 = m.leverages().iter().sum();
        assert!((h_sum - m.p() as f64).abs() < 1e-9);
    }

    #[test]
    fn saturated_fit_is_exact_but_uninferable() {
        let pts = vec![vec![-1.0], vec![1.0]];
        let y = vec![0.0, 2.0];
        let m = fit(&ModelSpec::linear(1).unwrap(), &pts, &y).unwrap();
        assert_eq!(m.df_residual(), 0);
        assert!(m.p_values().is_err());
        assert!((m.predict(&[0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        let spec = ModelSpec::linear(2).unwrap();
        assert!(fit(&spec, &[vec![0.0, 0.0]], &[1.0, 2.0]).is_err());
        assert!(fit(&spec, &[vec![0.0, 0.0]], &[1.0]).is_err()); // n < p
        let pts = vec![vec![0.0, 0.0]; 4];
        // All-identical points: rank deficient for linear terms.
        assert!(matches!(
            fit(&spec, &pts, &[1.0; 4]),
            Err(DoeError::RankDeficient)
        ));
        assert!(fit(
            &spec,
            &[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]],
            &[1.0, f64::NAN, 2.0]
        )
        .is_err());
    }
}
