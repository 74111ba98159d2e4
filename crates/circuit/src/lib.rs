//! Analogue circuit simulation substrate for the `ehsim` workspace.
//!
//! The DATE'13 paper motivates its DoE approach with the cost of
//! *traditional analogue simulation* — Newton–Raphson iterations over a
//! modified-nodal-analysis (MNA) Jacobian at every time step — and leans
//! on the authors' earlier *explicit linearized state-space* technique
//! (IEEE TCAD 2012) that cuts one transient simulation's CPU time by
//! around two orders of magnitude. This crate implements **both**
//! engines over a shared netlist representation so the speed-up can be
//! measured honestly:
//!
//! * [`NewtonRaphsonEngine`] — implicit trapezoidal integration with a
//!   full Newton–Raphson solve (LU refactorisation per iteration) at
//!   every step; diodes use the exponential Shockley model with
//!   junction-voltage limiting. This is the reference, SPICE-like
//!   engine.
//! * [`LinearizedStateSpaceEngine`] — diodes become two-state
//!   piecewise-linear elements; for each conduction topology the circuit
//!   is linear time-invariant and is discretised *exactly* with a cached
//!   matrix exponential; steps are explicit matrix–vector products and
//!   topology changes are located by event interpolation.
//!
//! The netlist supports the elements needed to model a complete
//! harvester-powered node front-end: R, L, C, PWL/Shockley diodes,
//! independent sources with arbitrary waveforms, and current-controlled
//! voltage sources (used by the electromechanical transduction of the
//! harvester, where the mechanical side maps onto an equivalent RLC loop
//! via the force–voltage analogy).
//!
//! # Example: RC low-pass step response
//!
//! ```
//! use ehsim_circuit::{Netlist, SourceWaveform, TransientConfig, Probe};
//! use ehsim_circuit::newton::NewtonRaphsonEngine;
//!
//! # fn main() -> Result<(), ehsim_circuit::CircuitError> {
//! let mut nl = Netlist::new();
//! let vin = nl.node("in");
//! let vout = nl.node("out");
//! nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::Dc(1.0))?;
//! nl.resistor("R1", vin, vout, 1_000.0)?;
//! nl.capacitor("C1", vout, Netlist::GROUND, 1e-6, 0.0)?;
//!
//! let cfg = TransientConfig::new(5e-3, 1e-6)?;
//! let result = NewtonRaphsonEngine::default().simulate(
//!     &nl, &cfg, &[Probe::node_voltage("out")])?;
//! let v_end = *result.signal("v(out)").unwrap().last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-2); // fully charged after 5 tau
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac;
pub mod dc;
pub mod lss;
pub mod mna;
pub mod netlist;
pub mod newton;
pub mod probe;
pub mod waveform;

pub use lss::LinearizedStateSpaceEngine;
pub use netlist::{DiodeModel, ElementId, ElementKind, Netlist, NodeId};
pub use newton::NewtonRaphsonEngine;
pub use probe::{Probe, SimStats, TransientResult};
pub use waveform::SourceWaveform;

use ehsim_numeric::NumericError;
use std::error::Error;
use std::fmt;

/// Errors produced by netlist construction and simulation.
#[derive(Debug, Clone)]
pub enum CircuitError {
    /// The netlist is structurally invalid (detail in the message).
    InvalidNetlist {
        /// Description of the structural problem.
        message: String,
    },
    /// A numerical routine failed (singular Jacobian, etc.).
    Numeric(NumericError),
    /// The Newton–Raphson loop failed to converge.
    NoConvergence {
        /// Simulation time at which convergence failed.
        time: f64,
        /// Description of the failure.
        detail: String,
    },
    /// A probe referenced an unknown node or element.
    UnknownProbe {
        /// The offending name.
        name: String,
    },
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Description of the violated precondition.
        message: String,
    },
}

impl CircuitError {
    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        CircuitError::InvalidNetlist {
            message: message.into(),
        }
    }
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidNetlist { message } => {
                write!(f, "invalid netlist: {message}")
            }
            CircuitError::Numeric(e) => write!(f, "numeric failure: {e}"),
            CircuitError::NoConvergence { time, detail } => {
                write!(f, "no convergence at t = {time:.6e}: {detail}")
            }
            CircuitError::UnknownProbe { name } => {
                write!(f, "probe references unknown signal `{name}`")
            }
            CircuitError::InvalidConfig { message } => {
                write!(f, "invalid configuration: {message}")
            }
        }
    }
}

impl Error for CircuitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CircuitError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for CircuitError {
    fn from(e: NumericError) -> Self {
        CircuitError::Numeric(e)
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CircuitError>;

/// Largest accepted step count, `2^53`: the same bound as the node
/// simulator's tick count. Beyond it `t_end / dt` no longer counts steps
/// exactly, and the `as usize` cast in [`TransientConfig::steps`] would
/// saturate and turn the step loop into an effectively unbounded hang.
const MAX_STEPS: f64 = 9_007_199_254_740_992.0;

/// Shared transient-analysis configuration.
#[derive(Debug, Clone, Copy)]
pub struct TransientConfig {
    /// End time of the simulation (starts at `t = 0`).
    pub t_end: f64,
    /// Nominal time step.
    pub dt: f64,
    /// Record every `record_stride`-th step (1 = every step).
    pub record_stride: usize,
}

impl TransientConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidConfig`] if `t_end` or `dt` is not
    /// positive and finite, if `dt > t_end`, or if the run needs more
    /// than `2^53` steps.
    pub fn new(t_end: f64, dt: f64) -> Result<Self> {
        let valid = t_end.is_finite() && dt.is_finite() && 0.0 < dt && dt <= t_end;
        if !valid {
            return Err(CircuitError::InvalidConfig {
                message: format!("need finite 0 < dt <= t_end (got dt={dt}, t_end={t_end})"),
            });
        }
        let steps = t_end / dt;
        if steps > MAX_STEPS {
            return Err(CircuitError::InvalidConfig {
                message: format!(
                    "t_end={t_end} at dt={dt} needs {steps:.3e} steps, \
                     above the {MAX_STEPS:.3e}-step bound"
                ),
            });
        }
        Ok(TransientConfig {
            t_end,
            dt,
            record_stride: 1,
        })
    }

    /// Sets the recording stride (builder style).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidConfig`] if `stride == 0`.
    pub fn with_record_stride(mut self, stride: usize) -> Result<Self> {
        if stride == 0 {
            return Err(CircuitError::InvalidConfig {
                message: "record_stride must be >= 1".into(),
            });
        }
        self.record_stride = stride;
        Ok(self)
    }

    /// Number of time steps implied by the configuration.
    pub fn steps(&self) -> usize {
        let raw = self.t_end / self.dt;
        let rounded = raw.round();
        if (raw - rounded).abs() < 1e-9 * raw.max(1.0) {
            rounded as usize
        } else {
            raw.ceil() as usize // lint:allow(D5): ceil of a validated finite non-negative count is exact
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(TransientConfig::new(1.0, 1e-3).is_ok());
        assert!(TransientConfig::new(0.0, 1e-3).is_err());
        assert!(TransientConfig::new(1.0, 0.0).is_err());
        assert!(TransientConfig::new(1e-4, 1e-3).is_err());
        // Non-finite inputs and step counts past 2^53 would saturate
        // `steps()` at usize::MAX and hang both engines.
        assert!(TransientConfig::new(f64::INFINITY, 1e-3).is_err());
        assert!(TransientConfig::new(f64::NAN, 1e-3).is_err());
        assert!(TransientConfig::new(1.0, f64::NAN).is_err());
        assert!(TransientConfig::new(1e300, 1e-300).is_err());
        assert!(TransientConfig::new(MAX_STEPS * 4.0, 2.0).is_err());
        assert_eq!(
            TransientConfig::new(MAX_STEPS, 1.0).unwrap().steps() as f64,
            MAX_STEPS
        );
        assert!(TransientConfig::new(1.0, 1e-3)
            .unwrap()
            .with_record_stride(0)
            .is_err());
    }

    #[test]
    fn config_step_count() {
        let cfg = TransientConfig::new(1.0, 0.1).unwrap();
        assert_eq!(cfg.steps(), 10);
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<CircuitError> = vec![
            CircuitError::invalid("x"),
            CircuitError::Numeric(NumericError::Singular),
            CircuitError::NoConvergence {
                time: 1.0,
                detail: "d".into(),
            },
            CircuitError::UnknownProbe { name: "n".into() },
            CircuitError::InvalidConfig {
                message: "m".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
