//! # ehsim — DoE-based design of energy-harvester-powered sensor nodes
//!
//! Umbrella crate re-exporting the entire `ehsim` workspace: a Rust
//! reproduction of *"DoE-based performance optimization of energy
//! management in sensor nodes powered by tunable energy-harvesters"*
//! (Kazmierski, Wang, Al-Hashimi, Merrett — DATE 2013).
//!
//! The workspace models a complete wireless sensor node powered by a
//! tunable electromagnetic vibration energy harvester, simulates it at
//! circuit and system level, and wraps the whole thing in a design-of-
//! experiments (DoE) flow: a moderate number of simulations builds
//! response-surface models (RSMs), after which design-space exploration
//! is practically instant.
//!
//! ## Crate map
//!
//! | module | underlying crate | contents |
//! |---|---|---|
//! | [`numeric`] | `ehsim-numeric` | dense LU/QR, symmetric eigen, `expm`, complex numbers, t/F distributions |
//! | [`circuit`] | `ehsim-circuit` | MNA netlists, Newton–Raphson and linearized state-space engines |
//! | [`vibration`] | `ehsim-vibration` | excitation sources: sines, drifts, noise, bursts, shocks |
//! | [`harvester`] | `ehsim-harvester` | tunable electromagnetic harvester model |
//! | [`power`] | `ehsim-power` | voltage multiplier, supercapacitor, regulator |
//! | [`policy`] | `ehsim-policy` | adaptive runtime energy-management policies |
//! | [`node`] | `ehsim-node` | sensor-node energy model and system simulator |
//! | [`net`] | `ehsim-net` | fleet layer: placement, radio energy model, routing, fleet simulator |
//! | [`doe`] | `ehsim-doe` | experimental designs, OLS/ANOVA, RSM, optimisation |
//! | [`core`] | `ehsim-core` | the DoE-based design flow toolkit, incl. scenario ensembles and robust optimisation |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end flow: define a design
//! space, run the experiment campaign, fit RSMs, and explore trade-offs
//! instantly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Doctest anchor for `docs/METHODOLOGY.md`: every rust block of the
/// methodology walkthrough is compiled (and, unless marked `no_run`,
/// executed) as part of this crate's test suite, so the documented
/// examples can never drift from the real APIs.
#[cfg(doctest)]
#[doc = include_str!("../docs/METHODOLOGY.md")]
pub struct MethodologyDoctests;

pub use ehsim_circuit as circuit;
pub use ehsim_core as core;
pub use ehsim_doe as doe;
pub use ehsim_harvester as harvester;
pub use ehsim_net as net;
pub use ehsim_node as node;
pub use ehsim_numeric as numeric;
pub use ehsim_policy as policy;
pub use ehsim_power as power;
pub use ehsim_vibration as vibration;
