//! Statistics: the Student-t and Fisher F distributions and the special
//! functions beneath them.
//!
//! The DoE crate's coefficient t-tests need Student-t tail probabilities
//! and quantiles (for confidence half-widths), and its ANOVA tables need
//! F-distribution tail probabilities — both built here on top of the
//! log-gamma and regularized incomplete beta functions.

pub mod dist;
pub mod special;

pub use dist::{FisherF, StudentT};
