//! Fleet-scale network layer: node placement, a per-bit radio energy
//! model, routing over a static topology, and a [`FleetSimulator`]
//! that composes thousands of node simulations under one deterministic
//! scheduler.
//!
//! The crate sits *above* `ehsim-node` and *below* `ehsim-core`: it
//! consumes prepared node simulations ([`ehsim_node::PreparedSimulator`]
//! / [`ehsim_node::BatchSimulator`]) and produces fleet-level metrics
//! ([`FleetMetrics`]) that `ehsim-core` threads through the DoE
//! machinery as responses. Everything here is deterministic: identical
//! [`FleetSpec`]s produce bit-identical [`FleetMetrics`] for any thread
//! count and any dispatch strategy.
//!
//! # Layout
//!
//! * [`placement`] — seeded uniform-random and grid node layouts.
//! * [`radio`] — the first-order per-bit radio energy model
//!   `E_tx = bits·(E_elec + ε_amp·d^τ)` (Zungeru et al.,
//!   arXiv:1208.4439) with a configurable path-loss exponent.
//! * [`topology`] — static connectivity within a radio range, min-hop
//!   (BFS) and energy-aware (Dijkstra) routing with typed
//!   unreachable-sink errors.
//! * [`fleet`] — the [`FleetSimulator`]: per-node vibration streams
//!   split from one fleet seed, a node phase on `ehsim-node`'s job
//!   queue and lane dispatcher, and the deterministic network-energy
//!   accounting pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod placement;
pub mod radio;
pub mod topology;

pub use fleet::{
    Dispatch, EpochAudit, FleetEnvironment, FleetMetrics, FleetNode, FleetOutcome, FleetSimulator,
    FleetSpec, NodeNetStats, PartitionPolicy, RoutingPolicy,
};
pub use placement::{Placement, Point};
pub use radio::{Link, RadioEnergyModel};
pub use topology::{Routes, Topology};

use std::error::Error;
use std::fmt;

/// Errors produced by the network layer.
#[derive(Debug, Clone)]
pub enum NetError {
    /// A parameter violated its precondition.
    InvalidParameter {
        /// Description of the violated precondition.
        message: String,
    },
    /// A node has no route to the sink.
    UnreachableSink {
        /// Index of the stranded node.
        node: usize,
    },
    /// An epoch's routing left part of the fleet with no path to the
    /// sink (surfaced under [`fleet::PartitionPolicy::Error`] instead
    /// of silently stranding the traffic).
    Partitioned {
        /// Route epoch (0-based) at which the partition appeared.
        epoch: usize,
        /// Smallest stranded node index.
        node: usize,
    },
    /// A node failed to prepare or to simulate; carries the failing
    /// node index and the node-level error. Prep reports the smallest
    /// failing node; a run reports the smallest failing node of the
    /// earliest route epoch in which any node fails.
    Node {
        /// Index of the failing node.
        node: usize,
        /// The underlying node-simulator error.
        source: ehsim_node::NodeError,
    },
}

impl NetError {
    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        NetError::InvalidParameter {
            message: message.into(),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidParameter { message } => {
                write!(f, "invalid network parameter: {message}")
            }
            NetError::UnreachableSink { node } => {
                write!(f, "node {node} has no route to the sink")
            }
            NetError::Partitioned { epoch, node } => {
                write!(
                    f,
                    "route epoch {epoch} left node {node} (and possibly others) \
                     with no route to the sink"
                )
            }
            NetError::Node { node, source } => write!(f, "node {node}: {source}"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Node { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;

/// SplitMix64 odd increment (the "golden gamma"); also the constant
/// `rand`'s `StdRng::seed_from_u64` expands seeds with.
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output mix (Steele et al., the `mix64` finalizer).
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives node `idx`'s vibration-stream seed from one fleet seed by
/// SplitMix64 stream-splitting: the fleet seed is first mixed into a
/// stream base (so related fleet seeds select unrelated streams), and
/// each node takes the SplitMix64 output at stream offset `idx + 1`
/// from that base.
///
/// Because the increment γ is odd, the pre-mix state
/// `base + (idx+1)·γ` is distinct for every `idx` at a fixed fleet
/// seed, and the bijective mix keeps it distinct — **no two nodes of
/// a fleet ever share a vibration stream**. Hashing the fleet seed
/// *before* adding the stream offset is load-bearing: a plain
/// `mix(fleet_seed + (idx+1)·γ)` aliases node `i+1` of fleet `s` with
/// node `i` of fleet `s + γ` (equal pre-mix states), exactly the
/// cross-fleet seed-reuse hazard this function exists to close.
pub fn node_seed(fleet_seed: u64, idx: usize) -> u64 {
    let base = splitmix64_mix(fleet_seed ^ 0x6A09_E667_F3BC_C909);
    let offset = (idx as u64).wrapping_add(1).wrapping_mul(SPLITMIX64_GAMMA);
    splitmix64_mix(base.wrapping_add(offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_seeds_distinct_within_fleet() {
        let seeds: HashSet<u64> = (0..4096).map(|i| node_seed(42, i)).collect();
        assert_eq!(seeds.len(), 4096);
    }

    #[test]
    fn node_seeds_do_not_alias_adjacent_fleets() {
        // The hazard an unmixed `seed + idx·γ` scheme has: fleet s at
        // node 1 equals fleet s+γ at node 0.
        let s = 7u64;
        assert_ne!(
            node_seed(s, 1),
            node_seed(s.wrapping_add(SPLITMIX64_GAMMA), 0)
        );
    }

    #[test]
    fn node_seed_is_deterministic() {
        assert_eq!(node_seed(123, 17), node_seed(123, 17));
        assert_ne!(node_seed(123, 17), node_seed(124, 17));
    }
}
