//! Wireless sensor node energy model and system-level simulator.
//!
//! This crate closes the loop of the DATE'13 system: the tunable
//! harvester (via its analytic Thevenin equivalent), the voltage
//! multiplier and supercapacitor (via the behavioural power-path model),
//! and the node itself — MCU, radio, periodic sense/process/transmit
//! tasks, the adaptive *energy management* policy whose parameters the
//! DoE flow optimises, and the closed-loop *frequency tuning controller*
//! that retunes the harvester's resonance when the ambient vibration
//! drifts.
//!
//! [`SystemSimulator`] advances the whole node with a fixed tick
//! (default 100 ms) over hours or days of simulated time and produces
//! the performance indicators the paper's RSMs are built from: packets
//! delivered, uptime, brown-out margin, tuning overhead, harvested and
//! consumed energy.
//!
//! # Example
//!
//! ```
//! use ehsim_node::{NodeConfig, SystemSimulator};
//! use ehsim_vibration::Sine;
//!
//! # fn main() -> Result<(), ehsim_node::NodeError> {
//! let cfg = NodeConfig::default_node();
//! let src = Sine::new(0.8, 64.0).expect("valid source");
//! let metrics = SystemSimulator::new(cfg)?.run(&src, 600.0)?;
//! assert!(metrics.packets_delivered > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod dispatch;
pub mod mcu;
pub mod policy;
pub mod sim;
pub mod tuning;

pub use batch::{BatchSimulator, Excitation};
pub use mcu::{McuModel, RadioModel, TaskModel};
pub use policy::DutyCyclePolicy;
pub use sim::{
    NodeMetrics, PreparedSimulator, SystemSimulator, SystemTrace, MAX_TICKS, MIN_TASK_PERIOD_S,
};
pub use tuning::TuningController;

/// The adaptive runtime energy-management layer (re-exported
/// [`ehsim_policy`]): the [`energy_policy::EnergyPolicy`] trait, the
/// shipped [`PolicyKind`] implementations, and their observation/action
/// types.
pub use ehsim_policy as energy_policy;
pub use ehsim_policy::PolicyKind;

use ehsim_harvester::Harvester;
use ehsim_power::{Multiplier, Regulator, Supercap, Thresholds};
use std::error::Error;
use std::fmt;

/// Errors produced by the node models and simulator.
#[derive(Debug, Clone)]
pub enum NodeError {
    /// A parameter violated its precondition.
    InvalidParameter {
        /// Description of the violated precondition.
        message: String,
    },
    /// A sub-model failed.
    Model(String),
}

impl NodeError {
    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        NodeError::InvalidParameter {
            message: message.into(),
        }
    }
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::InvalidParameter { message } => {
                write!(f, "invalid node parameter: {message}")
            }
            NodeError::Model(m) => write!(f, "model failure: {m}"),
        }
    }
}

impl Error for NodeError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, NodeError>;

/// Complete configuration of a harvester-powered sensor node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The tunable harvester.
    pub harvester: Harvester,
    /// The voltage multiplier between harvester and storage.
    pub multiplier: Multiplier,
    /// Storage supercapacitor.
    pub storage: Supercap,
    /// Supply thresholds gating the node.
    pub thresholds: Thresholds,
    /// DC/DC regulator between storage and the node.
    pub regulator: Regulator,
    /// MCU power model.
    pub mcu: McuModel,
    /// Radio power model.
    pub radio: RadioModel,
    /// Periodic application task.
    pub task: TaskModel,
    /// Duty-cycle adaptation policy.
    pub policy: DutyCyclePolicy,
    /// Runtime energy-management policy layered on top of the
    /// duty-cycle schedule: observes the stored-energy and harvest
    /// state each tick and may stretch the task period or skip firings
    /// (see [`ehsim_policy`]). The default [`PolicyKind::Static`]
    /// never intervenes and is bit-identical to a policy-free
    /// simulator.
    pub energy_policy: PolicyKind,
    /// Closed-loop frequency tuning controller.
    pub tuning: TuningController,
    /// Initial storage voltage at `t = 0` (V).
    pub v_store0: f64,
    /// Initial actuator position in `[0, 1]`.
    pub initial_position: f64,
    /// Simulation tick (s).
    pub tick_s: f64,
}

impl NodeConfig {
    /// A realistic default node: the tunable 55–85 Hz microgenerator,
    /// 3-stage multiplier, 0.4 F supercapacitor starting at the
    /// cold-start threshold, a 10 s sensing period with energy-neutral
    /// adaptation, and an enabled tuning controller.
    pub fn default_node() -> Self {
        NodeConfig {
            harvester: Harvester::default_tunable(),
            multiplier: Multiplier::default(),
            storage: Supercap::default(),
            thresholds: Thresholds::default(),
            regulator: Regulator::default(),
            mcu: McuModel::default(),
            radio: RadioModel::default(),
            task: TaskModel::default(),
            policy: DutyCyclePolicy::default(),
            energy_policy: PolicyKind::Static,
            tuning: TuningController::default(),
            v_store0: Thresholds::default().v_on,
            initial_position: 0.5,
            tick_s: 0.1,
        }
    }

    /// Validates every sub-model.
    ///
    /// # Errors
    ///
    /// [`NodeError::InvalidParameter`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        self.harvester
            .validate()
            .map_err(|e| NodeError::invalid(e.to_string()))?;
        self.multiplier
            .validate()
            .map_err(|e| NodeError::invalid(e.to_string()))?;
        self.storage
            .validate()
            .map_err(|e| NodeError::invalid(e.to_string()))?;
        self.thresholds
            .validate()
            .map_err(|e| NodeError::invalid(e.to_string()))?;
        self.regulator
            .validate()
            .map_err(|e| NodeError::invalid(e.to_string()))?;
        self.mcu.validate()?;
        self.radio.validate()?;
        self.task.validate()?;
        self.policy.validate()?;
        {
            use ehsim_policy::EnergyPolicy as _;
            self.energy_policy
                .validate()
                .map_err(|e| NodeError::invalid(e.to_string()))?;
        }
        self.tuning.validate()?;
        if !(self.v_store0 >= 0.0) || self.v_store0 > self.storage.v_rated {
            return Err(NodeError::invalid(format!(
                "initial storage voltage {} outside [0, {}]",
                self.v_store0, self.storage.v_rated
            )));
        }
        if !(0.0..=1.0).contains(&self.initial_position) {
            return Err(NodeError::invalid(format!(
                "initial actuator position {} outside [0, 1]",
                self.initial_position
            )));
        }
        if !(self.tick_s > 0.0) || self.tick_s > 10.0 {
            return Err(NodeError::invalid(format!(
                "tick must be in (0, 10] s, got {}",
                self.tick_s
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        NodeConfig::default_node().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = NodeConfig::default_node();
        c.v_store0 = 100.0;
        assert!(c.validate().is_err());

        let mut c = NodeConfig::default_node();
        c.initial_position = 2.0;
        assert!(c.validate().is_err());

        let mut c = NodeConfig::default_node();
        c.tick_s = 0.0;
        assert!(c.validate().is_err());

        let mut c = NodeConfig::default_node();
        c.thresholds.v_off = 10.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!NodeError::invalid("x").to_string().is_empty());
        assert!(!NodeError::Model("y".into()).to_string().is_empty());
    }
}
