//! Design of experiments (DoE) and response-surface methodology (RSM).
//!
//! This crate is the statistical machinery behind the DATE'13 paper's
//! contribution: instead of optimising a sensor node by thousands of
//! costly simulations, a *moderate number* of simulation runs is planned
//! by a formal experimental design, a polynomial response-surface model
//! is fitted to the observed performance indicators, and from then on
//! the design space is explored on the model — practically instantly.
//!
//! Provided here, all built from scratch on `ehsim-numeric`:
//!
//! * **Designs** ([`design`]): full and fractional two-level
//!   factorials, central composite (rotatable / face-centred / custom
//!   α), Box–Behnken, seeded Latin hypercube sampling, and D-optimal
//!   point exchange.
//! * **Models** ([`model`]): polynomial model specifications (linear,
//!   two-factor interaction, full quadratic, custom term sets) expanded
//!   into design matrices.
//! * **Fitting** ([`mod@fit`]): ordinary least squares via Householder QR
//!   with coefficient covariance, t-tests, R²/adjusted/predicted R² and
//!   PRESS.
//! * **ANOVA** ([`anova`]): model significance F-test and, with
//!   replicated runs, the lack-of-fit test.
//! * **Diagnostics** ([`diagnostics`]): leverage, studentized
//!   residuals, Cook's distance, variance inflation factors.
//! * **Model reduction** ([`stepwise`]): hierarchy-respecting backward
//!   elimination.
//! * **Surfaces** ([`rsm`]): stationary-point and canonical analysis of
//!   fitted quadratics.
//! * **Optimisation** ([`optimize`]): multi-start projected gradient
//!   search on the fitted surface, and Derringer–Suich desirability for
//!   multi-response trade-offs.
//! * **Sequential refinement** ([`sequential`]): the classical
//!   Box–Wilson loop made budget-aware — screen, follow the path of
//!   steepest ascent, augment with fold-over/axial points where
//!   curvature appears, relocate and shrink the region of interest —
//!   against a memoizing evaluator so augmented designs never re-pay
//!   for points already run.
//!
//! # Example: fit and interrogate a response surface
//!
//! ```
//! use ehsim_doe::design::ccd::CentralComposite;
//! use ehsim_doe::model::ModelSpec;
//! use ehsim_doe::fit::fit;
//!
//! # fn main() -> Result<(), ehsim_doe::DoeError> {
//! // A 2-factor CCD, a synthetic quadratic truth, and a fitted RSM.
//! let design = CentralComposite::face_centered(2)?.with_center_points(3).build()?;
//! let truth = |x: &[f64]| 5.0 - x[0] * x[0] - 2.0 * x[1] * x[1] + x[0];
//! let y: Vec<f64> = design.points().iter().map(|p| truth(p)).collect();
//! let model = fit(&ModelSpec::quadratic(2)?, design.points(), &y)?;
//! assert!(model.r_squared() > 0.999);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anova;
pub mod design;
pub mod diagnostics;
pub mod fit;
pub mod model;
pub mod optimize;
pub mod rsm;
pub mod sequential;
pub mod stepwise;

pub use design::Design;
pub use fit::{fit, FittedModel};
pub use model::{ModelSpec, Term};
pub use rsm::ResponseSurface;
pub use sequential::{RefinementConfig, RefinementLoop, SequentialEvaluator};

use ehsim_numeric::NumericError;
use std::error::Error;
use std::fmt;

/// Errors produced by the DoE machinery.
#[derive(Debug, Clone)]
pub enum DoeError {
    /// A design or model argument violated its precondition.
    InvalidArgument {
        /// Description of the violated precondition.
        message: String,
    },
    /// The model matrix is rank-deficient for the given design (too few
    /// or collinear runs).
    RankDeficient,
    /// A numerical routine failed.
    Numeric(NumericError),
}

impl DoeError {
    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        DoeError::InvalidArgument {
            message: message.into(),
        }
    }
}

impl fmt::Display for DoeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DoeError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
            DoeError::RankDeficient => write!(
                f,
                "model matrix is rank deficient: the design cannot estimate all model terms"
            ),
            DoeError::Numeric(e) => write!(f, "numeric failure: {e}"),
        }
    }
}

impl Error for DoeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DoeError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for DoeError {
    fn from(e: NumericError) -> Self {
        match e {
            NumericError::Singular => DoeError::RankDeficient,
            other => DoeError::Numeric(other),
        }
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, DoeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        for e in [
            DoeError::invalid("x"),
            DoeError::RankDeficient,
            DoeError::Numeric(NumericError::invalid("z")),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn singular_maps_to_rank_deficient() {
        let e: DoeError = NumericError::Singular.into();
        assert!(matches!(e, DoeError::RankDeficient));
    }
}
