//! Numerical substrate for the `ehsim` workspace.
//!
//! This crate provides, from scratch, the numerical routines the rest of
//! the workspace calls, and nothing else:
//!
//! * the circuit engines (`ehsim-circuit`) factor their MNA systems with
//!   [`Matrix`] and [`Lu`], discretise the linearized state-space engine
//!   with [`expm()`] and [`expm::discretize_zoh`], and sample
//!   piecewise-linear sources from a [`LinearTable`];
//! * the harvester, power, node and circuit crates do their phasor
//!   arithmetic in [`Complex`];
//! * the DoE crate (`ehsim-doe`) fits response surfaces with [`Matrix`],
//!   [`Qr`] and [`Lu`], reads the canonical analysis off
//!   [`eigen::symmetric_eigen`], and builds coefficient t-tests and ANOVA
//!   tables from [`stats::StudentT`] and [`stats::FisherF`], whose
//!   quantiles invert the CDF with [`rootfind::brent`];
//! * the core crate's design-space explorer grids its surfaces in a
//!   [`Matrix`].
//!
//! No external numerical dependencies are used; the implementations follow
//! the classic algorithms (partial-pivoting LU, Householder QR, Padé
//! scaling-and-squaring `expm`, cyclic Jacobi, Lanczos log-gamma,
//! continued-fraction incomplete beta).
//!
//! # Example
//!
//! ```
//! use ehsim_numeric::{Matrix, Lu};
//!
//! # fn main() -> Result<(), ehsim_numeric::NumericError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = Lu::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod eigen;
pub mod expm;
pub mod interp;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod rootfind;
pub mod stats;

pub use complex::Complex;
pub use expm::expm;
pub use interp::LinearTable;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;

use std::error::Error;
use std::fmt;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// A matrix factorisation encountered a (numerically) singular matrix.
    Singular,
    /// Operand dimensions are incompatible.
    Dimension {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape actually supplied.
        got: String,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
    },
    /// An argument was outside the routine's domain.
    InvalidArgument {
        /// Description of the violated precondition.
        message: String,
    },
}

impl NumericError {
    /// Builds a [`NumericError::Dimension`] from shape descriptions.
    pub fn dimension(expected: impl Into<String>, got: impl Into<String>) -> Self {
        NumericError::Dimension {
            expected: expected.into(),
            got: got.into(),
        }
    }

    /// Builds a [`NumericError::InvalidArgument`] from a message.
    pub fn invalid(message: impl Into<String>) -> Self {
        NumericError::InvalidArgument {
            message: message.into(),
        }
    }
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::Singular => write!(f, "matrix is singular to working precision"),
            NumericError::Dimension { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            NumericError::NoConvergence { routine } => {
                write!(f, "routine `{routine}` failed to converge")
            }
            NumericError::InvalidArgument { message } => {
                write!(f, "invalid argument: {message}")
            }
        }
    }
}

impl Error for NumericError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, NumericError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_never_empty() {
        let errors = [
            NumericError::Singular,
            NumericError::dimension("3x3", "2x3"),
            NumericError::NoConvergence { routine: "brent" },
            NumericError::invalid("x must be positive"),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }
}
