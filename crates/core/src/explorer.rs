//! Instant design-space exploration on fitted surrogates: axis sweeps,
//! 2-D response surfaces, and terminal-friendly contour rendering.

use crate::flow::SurrogateSet;
use crate::{CoreError, Result};
use ehsim_numeric::Matrix;

/// A one-factor sweep of a surrogate prediction.
#[derive(Debug, Clone)]
pub struct Sweep1D {
    /// Physical factor values.
    pub xs: Vec<f64>,
    /// Predicted indicator values.
    pub ys: Vec<f64>,
    /// Name of the swept factor.
    pub factor: String,
    /// Name of the predicted indicator.
    pub indicator: String,
}

/// A two-factor response-surface grid.
#[derive(Debug, Clone)]
pub struct Sweep2D {
    /// Physical values of the first (x) factor.
    pub xs: Vec<f64>,
    /// Physical values of the second (y) factor.
    pub ys: Vec<f64>,
    /// Predictions: `z[(i, j)]` at `(ys[i], xs[j])`.
    pub z: Matrix,
    /// Name of the x factor.
    pub x_factor: String,
    /// Name of the y factor.
    pub y_factor: String,
    /// Name of the predicted indicator.
    pub indicator: String,
}

/// Sweeps one factor across its coded range with the remaining factors
/// held at `base` (coded units).
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] on bad indices, `n < 2`, or a
/// mismatched base point.
pub fn sweep_1d(
    surrogates: &SurrogateSet,
    indicator_idx: usize,
    factor_idx: usize,
    base: &[f64],
    n: usize,
) -> Result<Sweep1D> {
    let k = surrogates.space().k();
    if factor_idx >= k {
        return Err(CoreError::invalid(format!("no factor {factor_idx}")));
    }
    if base.len() != k {
        return Err(CoreError::invalid("base point has wrong dimension"));
    }
    if n < 2 {
        return Err(CoreError::invalid("need at least 2 sweep points"));
    }
    let factor = &surrogates.space().factors()[factor_idx];
    let indicator = surrogates
        .indicators()
        .get(indicator_idx)
        .ok_or_else(|| CoreError::invalid(format!("no indicator {indicator_idx}")))?;
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut point = base.to_vec();
    for i in 0..n {
        let coded = -1.0 + 2.0 * i as f64 / (n as f64 - 1.0);
        point[factor_idx] = coded;
        xs.push(factor.decode(coded));
        ys.push(surrogates.predict(indicator_idx, &point)?);
    }
    Ok(Sweep1D {
        xs,
        ys,
        factor: factor.name().to_string(),
        indicator: indicator.name().to_string(),
    })
}

/// Evaluates a 2-D response-surface grid over two factors with the
/// remaining factors held at `base` (coded units).
///
/// # Errors
///
/// Same conditions as [`sweep_1d`], plus identical factor indices.
pub fn sweep_2d(
    surrogates: &SurrogateSet,
    indicator_idx: usize,
    x_factor: usize,
    y_factor: usize,
    base: &[f64],
    n: usize,
) -> Result<Sweep2D> {
    let k = surrogates.space().k();
    if x_factor >= k || y_factor >= k {
        return Err(CoreError::invalid("factor index out of range"));
    }
    if x_factor == y_factor {
        return Err(CoreError::invalid("x and y factors must differ"));
    }
    if base.len() != k {
        return Err(CoreError::invalid("base point has wrong dimension"));
    }
    if n < 2 {
        return Err(CoreError::invalid("need at least 2 grid points per axis"));
    }
    let fx = &surrogates.space().factors()[x_factor];
    let fy = &surrogates.space().factors()[y_factor];
    let indicator = surrogates
        .indicators()
        .get(indicator_idx)
        .ok_or_else(|| CoreError::invalid(format!("no indicator {indicator_idx}")))?;

    let coded_axis: Vec<f64> = (0..n)
        .map(|i| -1.0 + 2.0 * i as f64 / (n as f64 - 1.0))
        .collect();
    let xs: Vec<f64> = coded_axis.iter().map(|&c| fx.decode(c)).collect();
    let ys: Vec<f64> = coded_axis.iter().map(|&c| fy.decode(c)).collect();
    let mut z = Matrix::zeros(n, n);
    let mut point = base.to_vec();
    for (i, &cy) in coded_axis.iter().enumerate() {
        for (j, &cx) in coded_axis.iter().enumerate() {
            point[x_factor] = cx;
            point[y_factor] = cy;
            z[(i, j)] = surrogates.predict(indicator_idx, &point)?;
        }
    }
    Ok(Sweep2D {
        xs,
        ys,
        z,
        x_factor: fx.name().to_string(),
        y_factor: fy.name().to_string(),
        indicator: indicator.name().to_string(),
    })
}

impl Sweep2D {
    /// Renders the surface as an ASCII density map (rows top-down by
    /// descending y), suitable for terminal output in the examples and
    /// experiment harnesses.
    pub fn ascii(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let n = self.xs.len();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..n {
            for j in 0..n {
                lo = lo.min(self.z[(i, j)]);
                hi = hi.max(self.z[(i, j)]);
            }
        }
        let range = (hi - lo).max(1e-300);
        let mut out = String::new();
        out.push_str(&format!(
            "{} over {} (x) vs {} (y); '@' = {:.4e}, ' ' = {:.4e}\n",
            self.indicator, self.x_factor, self.y_factor, hi, lo
        ));
        for i in (0..n).rev() {
            out.push_str(&format!("{:>9.3} |", self.ys[i]));
            for j in 0..n {
                let t = (self.z[(i, j)] - lo) / range;
                let idx = ((t * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                out.push(SHADES[idx] as char);
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>9} +{}\n{:>9}  {:<.3} … {:<.3}\n",
            "",
            "-".repeat(n),
            "",
            self.xs[0],
            self.xs[n - 1]
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Campaign, StandardFactors};
    use crate::flow::{DesignChoice, DoeFlow};
    use crate::indicators::Indicator;
    use crate::scenario::Scenario;

    fn surrogates() -> SurrogateSet {
        let campaign = Campaign::standard(
            StandardFactors::default(),
            Scenario::stationary_machine(300.0).unwrap(),
            vec![Indicator::PacketsPerHour],
        )
        .unwrap();
        DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 })
            .run(&campaign)
            .unwrap()
    }

    #[test]
    fn sweep_1d_shape_and_units() {
        let s = surrogates();
        let base = s.space().center();
        let sw = sweep_1d(&s, 0, 1, &base, 11).unwrap();
        assert_eq!(sw.xs.len(), 11);
        assert_eq!(sw.ys.len(), 11);
        // Physical axis spans the factor's range.
        assert!((sw.xs[0] - 2.0).abs() < 1e-9);
        assert!((sw.xs[10] - 30.0).abs() < 1e-9);
        assert_eq!(sw.factor, "task_period_s");
        assert_eq!(sw.indicator, "packets_per_hour");
    }

    #[test]
    fn sweep_2d_and_ascii() {
        let s = surrogates();
        let base = s.space().center();
        let sw = sweep_2d(&s, 0, 1, 0, &base, 12).unwrap();
        assert_eq!(sw.z.shape(), (12, 12));
        let art = sw.ascii();
        assert!(art.contains("packets_per_hour"));
        assert!(art.lines().count() >= 14);
    }

    #[test]
    fn validation_of_arguments() {
        let s = surrogates();
        let base = s.space().center();
        assert!(sweep_1d(&s, 0, 9, &base, 5).is_err());
        assert!(sweep_1d(&s, 9, 0, &base, 5).is_err());
        assert!(sweep_1d(&s, 0, 0, &base, 1).is_err());
        assert!(sweep_1d(&s, 0, 0, &[0.0], 5).is_err());
        assert!(sweep_2d(&s, 0, 1, 1, &base, 5).is_err());
    }
}
