//! Probability distributions: Student-t and Fisher F.
//!
//! Each distribution exposes `cdf`, `sf` (survival function) and
//! `quantile`. Quantiles are computed by Brent inversion of the CDF,
//! which is plenty fast for building ANOVA tables. `cdf` and `sf` return
//! NaN for a NaN argument.

use super::special::beta_inc;
use crate::rootfind::brent;
use crate::{NumericError, Result};

/// Acklam's rational approximation to the standard normal quantile,
/// which brackets [`StudentT::quantile`]'s root search.
fn standard_normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Student's t distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    df: f64,
}

impl StudentT {
    /// Creates a t distribution.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] if `df <= 0` or non-finite.
    pub fn new(df: f64) -> Result<Self> {
        if !(df > 0.0) || !df.is_finite() {
            return Err(NumericError::invalid(format!(
                "student-t requires df > 0, got {df}"
            )));
        }
        Ok(StudentT { df })
    }

    /// Cumulative distribution function via the incomplete beta function.
    pub fn cdf(&self, x: f64) -> f64 {
        let v = self.df;
        if x == 0.0 {
            return 0.5;
        }
        let ib = beta_inc(v / 2.0, 0.5, v / (v + x * x)).unwrap_or(f64::NAN);
        if x > 0.0 {
            1.0 - 0.5 * ib
        } else {
            0.5 * ib
        }
    }

    /// Survival function `1 - cdf(x)`.
    pub fn sf(&self, x: f64) -> f64 {
        self.cdf(-x)
    }

    /// Two-sided p-value for an observed statistic `t` (NaN for a NaN
    /// statistic).
    pub fn p_value_two_sided(&self, t: f64) -> f64 {
        let p = 2.0 * self.sf(t.abs());
        if p > 1.0 {
            1.0
        } else {
            p
        }
    }

    /// Quantile via Brent inversion of the CDF.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] if `p ∉ (0, 1)`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(0.0 < p && p < 1.0) {
            return Err(NumericError::invalid(format!(
                "quantile requires p in (0, 1), got {p}"
            )));
        }
        if (p - 0.5).abs() < 1e-15 {
            return Ok(0.0);
        }
        // Bracket using the normal quantile inflated for heavy tails.
        let z = standard_normal_quantile(p);
        let guess = z * (1.0 + 2.0 / self.df).sqrt();
        let half_width = 10.0 + guess.abs() * 10.0;
        brent(
            |x| self.cdf(x) - p,
            guess - half_width,
            guess + half_width,
            1e-12,
        )
    }
}

/// Fisher–Snedecor F distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FisherF {
    d1: f64,
    d2: f64,
}

impl FisherF {
    /// Creates an F distribution with numerator df `d1` and denominator
    /// df `d2`.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] if either df is non-positive or
    /// non-finite.
    pub fn new(d1: f64, d2: f64) -> Result<Self> {
        if !(d1 > 0.0) || !(d2 > 0.0) || !d1.is_finite() || !d2.is_finite() {
            return Err(NumericError::invalid(format!(
                "fisher-f requires d1, d2 > 0 (got d1={d1}, d2={d2})"
            )));
        }
        Ok(FisherF { d1, d2 })
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if x == f64::INFINITY {
            // The incomplete-beta argument below would be ∞/∞.
            return 1.0;
        }
        beta_inc(
            self.d1 / 2.0,
            self.d2 / 2.0,
            self.d1 * x / (self.d1 * x + self.d2),
        )
        .unwrap_or(f64::NAN)
    }

    /// Survival function `1 - cdf(x)` — the p-value of an F test.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        beta_inc(
            self.d2 / 2.0,
            self.d1 / 2.0,
            self.d2 / (self.d1 * x + self.d2),
        )
        .unwrap_or(f64::NAN)
    }

    /// Quantile via Brent inversion of the CDF.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] if `p ∉ (0, 1)`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(0.0 < p && p < 1.0) {
            return Err(NumericError::invalid(format!(
                "quantile requires p in (0, 1), got {p}"
            )));
        }
        // The CDF is monotone from 0 to 1; expand the bracket until it
        // contains p.
        let mut hi = 1.0;
        while self.cdf(hi) < p && hi < 1e12 {
            hi *= 4.0;
        }
        brent(|x| self.cdf(x) - p, 0.0, hi, 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn student_t_reference_values() {
        // t(10): P(T <= 1.812) ~ 0.95 (critical value for alpha=0.05)
        let t = StudentT::new(10.0).unwrap();
        assert!((t.cdf(1.812_461_122_811_676) - 0.95).abs() < 1e-9);
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-14);
        // Large df approaches the normal: Φ(1) = 0.8413447460685429.
        let t_big = StudentT::new(1e6).unwrap();
        assert!((t_big.cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-5);
    }

    #[test]
    fn student_t_quantile_inverts() {
        let t = StudentT::new(5.0).unwrap();
        for p in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let x = t.quantile(p).unwrap();
            assert!((t.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
        assert_eq!(t.quantile(0.5).unwrap(), 0.0);
    }

    #[test]
    fn student_t_two_sided_p() {
        let t = StudentT::new(20.0).unwrap();
        // |t| = 2.086 is the 0.05 two-sided critical value at df=20.
        assert!((t.p_value_two_sided(2.085_963_447_265_837) - 0.05).abs() < 1e-6);
        assert!((t.p_value_two_sided(-2.085_963_447_265_837) - 0.05).abs() < 1e-6);
    }

    #[test]
    fn fisher_f_reference_value() {
        // F(3, 12): the 0.95 quantile is 3.4903.
        let f = FisherF::new(3.0, 12.0).unwrap();
        assert!((f.quantile(0.95).unwrap() - 3.490_294_819_497_605).abs() < 1e-6);
        assert!((f.cdf(3.490_294_819_497_605) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn fisher_f_sf_complements_cdf() {
        let f = FisherF::new(4.0, 7.0).unwrap();
        for x in [0.1, 0.5, 1.0, 2.0, 10.0] {
            assert!((f.cdf(x) + f.sf(x) - 1.0).abs() < 1e-12);
        }
        assert_eq!(f.cdf(-1.0), 0.0);
        assert_eq!(f.sf(0.0), 1.0);
        assert_eq!(f.cdf(f64::INFINITY), 1.0);
        assert_eq!(f.sf(f64::INFINITY), 0.0);
    }

    #[test]
    fn fisher_f_equals_t_squared() {
        // If T ~ t(v) then T² ~ F(1, v).
        let v = 8.0;
        let t = StudentT::new(v).unwrap();
        let f = FisherF::new(1.0, v).unwrap();
        let x = 1.7;
        let p_t = t.cdf(x) - t.cdf(-x); // P(|T| <= x)
        let p_f = f.cdf(x * x);
        assert!((p_t - p_f).abs() < 1e-10);
    }

    #[test]
    fn nan_arguments_give_nan_not_a_panic() {
        let t = StudentT::new(6.0).unwrap();
        assert!(t.cdf(f64::NAN).is_nan());
        assert!(t.sf(f64::NAN).is_nan());
        assert!(t.p_value_two_sided(f64::NAN).is_nan());
        let f = FisherF::new(3.0, 9.0).unwrap();
        assert!(f.cdf(f64::NAN).is_nan());
        assert!(f.sf(f64::NAN).is_nan());
    }

    #[test]
    fn parameter_validation() {
        assert!(StudentT::new(0.0).is_err());
        assert!(FisherF::new(1.0, 0.0).is_err());
    }
}
