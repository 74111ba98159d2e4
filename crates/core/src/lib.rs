//! The DATE'13 contribution: a DoE-based design flow for energy
//! management in sensor nodes powered by tunable energy harvesters.
//!
//! The toolkit wires together every substrate of the workspace:
//!
//! 1. A [`space::DesignSpace`] names the design factors (storage size,
//!    task period, retune threshold, radio power, …) with their physical
//!    ranges, mapped to/from coded `[-1, 1]` units.
//! 2. A [`experiment::Campaign`] runs the system-level node simulator at
//!    each design point of a chosen experimental design — in parallel —
//!    and collects the performance indicators.
//! 3. [`flow::DoeFlow`] fits one quadratic response-surface model per
//!    indicator, validates it against fresh simulations, and hands back
//!    a [`flow::SurrogateSet`].
//! 4. From there, exploration is *practically instant*: grid sweeps and
//!    contours ([`explorer`]), Pareto trade-off fronts ([`tradeoff`]),
//!    and constrained optimisation on the surface.
//! 5. For honest comparison, [`baselines`] implements the classical
//!    simulation-driven optimisers the paper argues against (grid
//!    search, Nelder–Mead, simulated annealing, genetic search), which
//!    pay one full simulation per objective evaluation.
//! 6. Because the paper's premise is a *tunable* harvester in a
//!    *changing* environment, a [`scenario::ScenarioEnsemble`] names
//!    several weighted vibration environments at once;
//!    [`experiment::EnsembleCampaign`] simulates a design across all of
//!    them in one batched pass, and
//!    [`flow::EnsembleSurrogateSet::optimize_robust`] returns tunings
//!    that are good across the ensemble (weighted-mean or worst-case),
//!    not just at one operating point.
//! 7. Where the budget matters more than a single global fit,
//!    [`sequential::SequentialCampaign`] spends it *adaptively*: the
//!    classical screen → steepest-ascent → augment-and-shrink RSM loop,
//!    run against a memoizing [`sequential::CachedEvaluator`] under a
//!    hard cap on fresh simulations, with a per-iteration audit trail.
//!
//! # Quickstart
//!
//! ```no_run
//! use ehsim_core::flow::{DoeFlow, DesignChoice};
//! use ehsim_core::experiment::{Campaign, StandardFactors};
//! use ehsim_core::indicators::Indicator;
//! use ehsim_core::scenario::Scenario;
//!
//! # fn main() -> Result<(), ehsim_core::CoreError> {
//! let campaign = Campaign::standard(
//!     StandardFactors::default(),
//!     Scenario::drifting_machine(3600.0)?,
//!     vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
//! )?;
//! let flow = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 });
//! let surrogates = flow.run(&campaign)?;
//! // Instant what-if: predicted packets/hour at a design point.
//! let x = surrogates.space().center();
//! let packets = surrogates.predict(0, &x)?;
//! println!("predicted packets/hour at centre: {packets:.1}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod experiment;
pub mod explorer;
pub mod fleet;
pub mod flow;
pub mod indicators;
pub mod report;
pub mod scenario;
pub mod sensitivity;
pub mod sequential;
pub mod space;
pub mod tradeoff;

pub use experiment::{
    Campaign, CampaignResult, EnsembleCampaign, EnsembleCampaignResult, StandardFactors,
};
pub use fleet::{FleetCampaign, FleetIndicator};
pub use flow::{DesignChoice, DoeFlow, EnsembleSurrogateSet, SurrogateSet};
pub use indicators::Indicator;
pub use scenario::{Scenario, ScenarioEnsemble};
pub use sequential::{CachedEvaluator, SequentialCampaign, SequentialOutcome};
pub use space::{DesignSpace, Factor};

use std::error::Error;
use std::fmt;

/// Errors produced by the design-flow toolkit.
#[derive(Debug)]
pub enum CoreError {
    /// An argument violated its precondition.
    InvalidArgument {
        /// Description of the violated precondition.
        message: String,
    },
    /// The underlying node simulator failed.
    Simulation(ehsim_node::NodeError),
    /// The fleet/network layer failed.
    Fleet(ehsim_net::NetError),
    /// The DoE machinery failed.
    Doe(ehsim_doe::DoeError),
    /// Writing a report file failed.
    Io(std::io::Error),
}

impl CoreError {
    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        CoreError::InvalidArgument {
            message: message.into(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
            CoreError::Simulation(e) => write!(f, "simulation failed: {e}"),
            CoreError::Fleet(e) => write!(f, "fleet failure: {e}"),
            CoreError::Doe(e) => write!(f, "doe failure: {e}"),
            CoreError::Io(e) => write!(f, "io failure: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Simulation(e) => Some(e),
            CoreError::Fleet(e) => Some(e),
            CoreError::Doe(e) => Some(e),
            CoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ehsim_node::NodeError> for CoreError {
    fn from(e: ehsim_node::NodeError) -> Self {
        CoreError::Simulation(e)
    }
}

impl From<ehsim_net::NetError> for CoreError {
    fn from(e: ehsim_net::NetError) -> Self {
        CoreError::Fleet(e)
    }
}

impl From<ehsim_doe::DoeError> for CoreError {
    fn from(e: ehsim_doe::DoeError) -> Self {
        CoreError::Doe(e)
    }
}

impl From<ehsim_vibration::VibrationError> for CoreError {
    fn from(e: ehsim_vibration::VibrationError) -> Self {
        let ehsim_vibration::VibrationError::InvalidArgument { message } = e;
        CoreError::InvalidArgument { message }
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Orders two values as `partial_cmp` does, but totally: −0.0 and +0.0
/// tie, and a NaN orders by its sign (positive above +∞, negative below
/// −∞) instead of aborting a sort.
pub(crate) fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    // `x + 0.0` is `x`, except that −0.0 becomes +0.0.
    (a + 0.0).total_cmp(&(b + 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<CoreError> = vec![
            CoreError::invalid("x"),
            CoreError::Simulation(ehsim_node::NodeError::Model("m".into())),
            CoreError::Doe(ehsim_doe::DoeError::RankDeficient),
            CoreError::Io(std::io::Error::new(std::io::ErrorKind::Other, "io")),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn cmp_f64_ties_signed_zeros_and_orders_nan() {
        use std::cmp::Ordering;
        assert_eq!(cmp_f64(-0.0, 0.0), Ordering::Equal);
        assert_eq!(cmp_f64(-1.0, -0.0), Ordering::Less);
        assert_eq!(cmp_f64(f64::INFINITY, f64::NAN), Ordering::Less);
        // A stable sort keeps tied zeros in order and survives a NaN.
        let mut v = [0.0, f64::NAN, -0.0, -2.0, 1.0];
        v.sort_by(|a, b| cmp_f64(*a, *b));
        assert_eq!(v[..4], [-2.0, 0.0, -0.0, 1.0]);
        assert!(v[1].is_sign_positive() && v[2].is_sign_negative());
        assert!(v[4].is_nan());
    }
}
