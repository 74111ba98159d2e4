//! The fleet simulator: thousands of node simulations composed with a
//! radio/routing layer under one deterministic scheduler.
//!
//! # Execution model: node phase × route epochs
//!
//! A [`FleetSimulator::run`] interleaves two phases over
//! [`FleetSpec::route_epochs`] equal time slices:
//!
//! 1. **Node phase** — every node's `ehsim-node` simulation runs
//!    against its own vibration stream (seeds split from the fleet
//!    seed via [`crate::node_seed`]). The nodes run as lanes of the
//!    batch kernel through `ehsim-node`'s lane dispatcher
//!    ([`dispatch::run_lanes`]), which groups them by `tick_s` and
//!    cuts each group into contiguous [`ehsim_node::BatchSimulator`]
//!    chunks of at most [`dispatch::MAX_BATCH_WIDTH`] lanes, so
//!    mixed-tick fleets run batched too. [`Dispatch::PerSim`] runs one
//!    [`PreparedSimulator`] per node instead — a width-1 batch of the
//!    same kernel — on the same deterministic queue. A lane's bits do
//!    not depend on the width of its batch, so **the node metrics do
//!    not depend on the dispatch strategy or the thread count**.
//!    Per-node failures are captured individually
//!    ([`FleetSimulator::run_nodes`]); the aggregate entry points
//!    surface a typed [`NetError::Node`].
//!
//! 2. **Network phase** — a sequential, node-index-ordered energy
//!    accounting pass per epoch. Packets originate at each node
//!    (`packets_delivered` of the node simulation — the node's own
//!    radio cost is already inside its energy trace) and flow to the
//!    sink along the epoch's routing tree: each pass walks every node's
//!    next-hop chain over relay energies computed once per route table,
//!    in `O(n)` memory. A relay's demand prices all traffic sent to it
//!    at [`RadioEnergyModel::hop_energy_j`] per packet, against its
//!    **headroom** — the stored energy above its brown-out threshold at
//!    the epoch boundary (zero once browned out), less what earlier
//!    epochs spent. A relay whose demand exceeds its headroom forwards
//!    only the fraction it can afford (a deterministic fluid
//!    approximation: each stream is scaled by the product of its
//!    relays' forwarding fractions) and its extrapolated exhaustion time
//!    feeds the fleet's first-node-death indicator. The fraction scales
//!    only the transmit energy; receive energy is paid on all arriving
//!    traffic, so such a relay spends more than its headroom.
//!
//! **Route repair**: at each epoch boundary, relays that have browned
//! out are excluded and the energy-aware routes are recomputed on the
//! surviving graph ([`crate::Topology::energy_aware_routes`]), with an
//! epoch-by-epoch audit trail ([`EpochAudit`]) in [`FleetMetrics`] and
//! a typed [`NetError::Partitioned`] — under
//! [`PartitionPolicy::Error`] — instead of silent stranding.
//! [`RoutingPolicy::MinHop`] stays deliberately oblivious: its routes
//! are computed once and never repaired, making it the static
//! baseline route repair is measured against.
//!
//! The node phase runs **once** per fleet run and is snapshotted at
//! every epoch boundary ([`dispatch::run_lanes`],
//! [`PreparedSimulator::run_checkpoints`]). The tick loop never
//! reads the run's duration (the vibration sources are pure functions
//! of time), so a boundary snapshot is bit-identical to a fresh run of
//! that prefix and per-epoch deltas are exact — at `route_epochs = 1`
//! the whole machinery collapses, bit for bit, to the original
//! single-accounting-pass fleet run (pinned by
//! `tests/fleet_equivalence.rs`). `E` epochs cost one node phase and
//! `E` accounting passes; a run-time node failure is reported for the
//! earliest epoch in which any node fails, at the smallest failing node
//! within it.
//!
//! The network phase is plain sequential float arithmetic in a fixed
//! order, so the full [`FleetMetrics`] record inherits the node
//! phase's bit-exactness contract: identical [`FleetSpec`]s give
//! bit-identical metrics for any thread count and dispatch.

use crate::topology::{Routes, Topology};
use crate::{NetError, Point, RadioEnergyModel, Result};
use ehsim_node::dispatch::{self, run_jobs, LaneRun};
use ehsim_node::{Excitation, NodeConfig, NodeError, NodeMetrics, PreparedSimulator, MAX_TICKS};
use ehsim_vibration::{FilteredNoise, VibrationSource};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::iter::successors;
use std::sync::Arc;

/// How packets are routed to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Fewest hops ([`Topology::min_hop_routes`]); oblivious to node
    /// energy state — routes may pass through browned-out relays,
    /// whose zero headroom then drops the traffic.
    MinHop,
    /// Cheapest total per-packet relay energy, never relaying through
    /// a browned-out node ([`Topology::energy_aware_routes`]).
    EnergyAware,
}

/// What a fleet run does when an epoch's routing leaves nodes with no
/// path to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Record stranded nodes in the [`EpochAudit`] trail and in
    /// [`FleetMetrics::unreachable_nodes`], and carry on — their
    /// traffic simply never arrives (the default, and the historical
    /// behaviour).
    Tolerate,
    /// Fail the run with a typed [`NetError::Partitioned`] naming the
    /// earliest affected epoch and its smallest stranded node — no
    /// silent stranding.
    Error,
}

/// Audit record of one route epoch — the per-epoch trail
/// [`FleetMetrics::epochs`] carries so a fleet run can show *when*
/// relays dropped out, *whether* repair rerouted around them, and
/// *what* each slice of the run actually delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochAudit {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Epoch start time (s).
    pub t_start_s: f64,
    /// Epoch end time (s).
    pub t_end_s: f64,
    /// Relays excluded from this epoch's routes (browned out by the
    /// epoch's end; always 0 under [`RoutingPolicy::MinHop`], which
    /// never excludes).
    pub excluded_relays: u32,
    /// Nodes newly browned out during this epoch (ascending indices).
    pub newly_browned: Vec<usize>,
    /// Whether routes were recomputed at this epoch's boundary (always
    /// `false` for epoch 0 — the initial routes — and under min-hop
    /// routing).
    pub rerouted: bool,
    /// Nodes with no route to the sink under this epoch's routes.
    pub unreachable_nodes: u32,
    /// Nodes that *lost* their route at this boundary — reachable
    /// under the previous epoch's routes, stranded under this one
    /// (ascending indices; empty for epoch 0).
    pub newly_stranded: Vec<usize>,
    /// Packets originated fleet-wide during this epoch.
    pub packets_originated: f64,
    /// Packets delivered to the sink during this epoch (fluid count).
    pub packets_delivered: f64,
}

/// One node of the fleet: its simulator configuration and position.
#[derive(Debug, Clone)]
pub struct FleetNode {
    /// Node-simulator configuration.
    pub config: NodeConfig,
    /// Position (m).
    pub position: Point,
}

/// A deterministic per-node vibration-environment factory: given a
/// node's stream seed (from [`crate::node_seed`]), produces that
/// node's [`VibrationSource`]. Cloning shares the factory.
#[derive(Clone)]
pub struct FleetEnvironment {
    label: String,
    make: Arc<dyn Fn(u64) -> Result<Arc<dyn VibrationSource>> + Send + Sync>,
}

impl FleetEnvironment {
    /// Wraps a seed-to-source factory under a display label. The
    /// factory is fallible (determinism rule D4: no `expect` in
    /// library code) — a draw outside a source's valid range surfaces
    /// as a typed [`NetError`] from [`FleetSimulator::new`] instead of
    /// aborting mid-prep.
    pub fn new(
        label: impl Into<String>,
        make: impl Fn(u64) -> Result<Arc<dyn VibrationSource>> + Send + Sync + 'static,
    ) -> Self {
        FleetEnvironment {
            label: label.into(),
            make: Arc::new(make),
        }
    }

    /// The canonical fleet environment: every node bolted to a
    /// different spot of the same nominal-64 Hz machinery floor. The
    /// stream seed drives the *spatial* variation — each mounting
    /// point sees its own dominant frequency (61–67 Hz) and vibration
    /// level (0.65–0.95 m/s² RMS) plus its own noise realisation — so
    /// two nodes of one fleet never share an excitation trajectory,
    /// and a node's harvester tuning actually has per-node work to do.
    pub fn factory_floor() -> Self {
        FleetEnvironment::new("factory-floor-64Hz", |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let resonance_hz = 64.0 + 6.0 * (rng.random::<f64>() - 0.5);
            let rms = 0.65 + 0.3 * rng.random::<f64>();
            let source = FilteredNoise::new(resonance_hz, 8.0, (40.0, 90.0), rms, 24, seed)
                .map_err(|e| {
                    NetError::invalid(format!("factory-floor source for stream seed {seed}: {e}"))
                })?;
            Ok(Arc::new(source) as Arc<dyn VibrationSource>)
        })
    }

    /// Display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Instantiates the source for one node's stream seed.
    ///
    /// # Errors
    ///
    /// Propagates the factory's typed error (e.g. a drawn parameter
    /// outside the source's valid range).
    pub fn source_for(&self, seed: u64) -> Result<Arc<dyn VibrationSource>> {
        (self.make)(seed)
    }
}

impl fmt::Debug for FleetEnvironment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetEnvironment")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// Complete, declarative description of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The nodes (configs + positions).
    pub nodes: Vec<FleetNode>,
    /// Sink position (m); the sink is mains-powered.
    pub sink: Point,
    /// Radio range linking vertices into the topology (m).
    pub range_m: f64,
    /// Per-bit radio energy model for relay traffic.
    pub radio: RadioEnergyModel,
    /// Application packet size on the air (bits).
    pub payload_bits: u64,
    /// Routing policy.
    pub routing: RoutingPolicy,
    /// Fleet master seed; per-node vibration streams are split from it
    /// via [`crate::node_seed`].
    pub fleet_seed: u64,
    /// Per-node vibration-environment factory.
    pub environment: FleetEnvironment,
    /// Simulated duration (s).
    pub duration_s: f64,
    /// Number of route epochs the run is sliced into, from 1 up to the
    /// run's tick count at the fleet's largest `tick_s`. At 1 the run
    /// reproduces the original static-routing accounting bit for bit;
    /// larger values buy mid-run route repair around browned-out
    /// relays. The node phase still runs once — it is snapshotted at
    /// every epoch boundary — so `E` epochs cost one node phase plus
    /// `E` accounting passes, and `E × n` snapshots of memory.
    pub route_epochs: usize,
    /// What to do when an epoch's routing leaves nodes stranded.
    pub on_partition: PartitionPolicy,
}

impl FleetSpec {
    /// A homogeneous fleet: one config replicated over `positions`.
    pub fn homogeneous(
        config: NodeConfig,
        positions: Vec<Point>,
        sink: Point,
        range_m: f64,
        duration_s: f64,
    ) -> Self {
        FleetSpec {
            nodes: positions
                .into_iter()
                .map(|position| FleetNode {
                    config: config.clone(),
                    position,
                })
                .collect(),
            sink,
            range_m,
            radio: RadioEnergyModel::typical(),
            payload_bits: 1024,
            routing: RoutingPolicy::EnergyAware,
            fleet_seed: 0x5EED_F1EE,
            environment: FleetEnvironment::factory_floor(),
            duration_s,
            route_epochs: 1,
            on_partition: PartitionPolicy::Tolerate,
        }
    }
}

/// Node-phase dispatch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Batch-kernel chunks grouped by `tick_s`
    /// ([`dispatch::run_lanes`]; the default).
    Auto,
    /// One [`PreparedSimulator::run_checkpoints`] job per node: a
    /// width-1 batch of the same kernel, which the differential suite
    /// compares [`Dispatch::Auto`]'s chunking against.
    PerSim,
}

/// Network-layer per-node account after a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeNetStats {
    /// Packets the node's own simulation delivered into the network.
    pub originated: f64,
    /// Packets from this node that reached the sink (fluid count).
    pub delivered: f64,
    /// Route length in hops, `None` if the sink is unreachable.
    pub hops_to_sink: Option<usize>,
    /// Relay energy demanded of this node by others' traffic (J).
    pub relay_demand_j: f64,
    /// Relay energy actually spent (after forwarding scaling) (J).
    pub relay_spent_j: f64,
    /// Energy headroom above brown-out at end of run (J); zero if the
    /// node browned out during the run.
    pub headroom_j: f64,
    /// Headroom left after relay spending (J).
    pub residual_j: f64,
    /// Whether the node browned out during its own simulation.
    pub browned_out: bool,
    /// Whether relay demand exhausted the node's headroom.
    pub dead: bool,
    /// Extrapolated relay-exhaustion time (s), when `dead`.
    pub death_s: Option<f64>,
}

/// Fleet-level indicators of one run — the DoE response record.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Simulated duration (s).
    pub duration_s: f64,
    /// Fleet size.
    pub n_nodes: usize,
    /// Total packets originated by node simulations.
    pub packets_originated: f64,
    /// Total packets that reached the sink (fluid count).
    pub packets_delivered: f64,
    /// `packets_delivered / packets_originated` (1 when nothing was
    /// originated).
    pub delivery_fraction: f64,
    /// Total relay energy spent fleet-wide (J).
    pub relay_energy_j: f64,
    /// Mean relay energy per forwarded packet-hop (J).
    pub mean_hop_relay_energy_j: f64,
    /// Earliest relay-exhaustion time (s); `duration_s` if no node
    /// died relaying.
    pub first_death_s: f64,
    /// Nodes whose relay demand exhausted their headroom.
    pub dead_nodes: u32,
    /// Nodes that browned out during their own simulation.
    pub browned_out_nodes: u32,
    /// Nodes with no route to the sink.
    pub unreachable_nodes: u32,
    /// Mean end-of-run residual headroom (J).
    pub residual_mean_j: f64,
    /// Population standard deviation of residual headroom (J) — the
    /// energy-balance spread across the fleet.
    pub residual_spread_j: f64,
    /// Worst per-node brown-out margin `min_v_store − v_off` (V).
    pub min_brownout_margin_v: f64,
    /// Mean per-node uptime fraction.
    pub mean_uptime_fraction: f64,
    /// Epoch boundaries at which routes were actually recomputed
    /// (exclusion set changed); 0 for a static-routing run.
    pub route_repairs: u32,
    /// The epoch-by-epoch audit trail (one entry per route epoch).
    pub epochs: Vec<EpochAudit>,
}

/// Everything a fleet run produces: raw node metrics, the network
/// accounts, and the fleet-level indicator record.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Phase-1 node-simulation metrics, node-indexed.
    pub per_node: Vec<NodeMetrics>,
    /// Phase-2 network accounts, node-indexed.
    pub net: Vec<NodeNetStats>,
    /// Fleet-level indicators.
    pub metrics: FleetMetrics,
}

/// Prepared, validated fleet: every node's simulator constructed once,
/// vibration streams split, topology built.
pub struct FleetSimulator {
    spec: FleetSpec,
    prepared: Vec<PreparedSimulator>,
    sources: Vec<Arc<dyn VibrationSource>>,
    topology: Topology,
}

impl FleetSimulator {
    /// Validates the spec, prepares every node simulator, derives
    /// per-node vibration streams and builds the topology — on one
    /// thread. Equivalent to [`FleetSimulator::prepare`]`(spec, 1)`.
    ///
    /// # Errors
    ///
    /// As [`FleetSimulator::prepare`].
    pub fn new(spec: FleetSpec) -> Result<Self> {
        Self::prepare(spec, 1)
    }

    /// Validates the spec and prepares every node — simulator
    /// construction *and* vibration-source instantiation fused into
    /// one per-node job — on the deterministic self-scheduling queue
    /// across `threads` workers, then builds the topology
    /// (grid-bucket, `O(n + links)`).
    ///
    /// **Determinism contract**: per-node preparation is *total* — a
    /// failure at node `i` never abandons the validation of any node
    /// `j > i` — and the surfaced error is always the **smallest
    /// failing node index**, whatever the thread count. (A node's
    /// config error takes precedence over its own environment error,
    /// since the config is validated first within the fused job; across
    /// nodes, only the index decides.)
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidParameter`] for an empty fleet, a
    /// non-positive payload, a duration that is not positive and finite
    /// or needs more than [`MAX_TICKS`] ticks at the fleet's smallest
    /// `tick_s`, zero route epochs or more route epochs than the run
    /// has ticks at the fleet's largest `tick_s`, an invalid topology,
    /// or an environment-factory failure (smallest failing node);
    /// [`NetError::Node`] (smallest failing index) if a node config
    /// fails preparation.
    pub fn prepare(spec: FleetSpec, threads: usize) -> Result<Self> {
        if spec.nodes.is_empty() {
            return Err(NetError::invalid("fleet needs at least one node"));
        }
        if spec.payload_bits == 0 {
            return Err(NetError::invalid("payload must be at least one bit"));
        }
        if !(spec.duration_s > 0.0) || !spec.duration_s.is_finite() {
            return Err(NetError::invalid(format!(
                "duration must be positive and finite, got {}",
                spec.duration_s
            )));
        }
        if spec.route_epochs == 0 {
            return Err(NetError::invalid(
                "route_epochs must be at least 1 (1 = static routing)",
            ));
        }
        let prepare_node = |i: usize| -> Result<(PreparedSimulator, Arc<dyn VibrationSource>)> {
            let prepared = PreparedSimulator::new(spec.nodes[i].config.clone())
                .map_err(|source| NetError::Node { node: i, source })?;
            let source = spec
                .environment
                .source_for(crate::node_seed(spec.fleet_seed, i))
                .map_err(|e| NetError::invalid(format!("node {i}: {e}")))?;
            Ok((prepared, source))
        };
        // Every node's own result lands in its slot, and the ascending
        // scan below reports the smallest failing node at any thread count.
        let results = run_jobs(spec.nodes.len(), threads, |i| {
            Ok::<_, NodeError>(prepare_node(i))
        })
        .map_err(scheduler_error)?;
        let mut prepared = Vec::with_capacity(spec.nodes.len());
        let mut sources: Vec<Arc<dyn VibrationSource>> = Vec::with_capacity(spec.nodes.len());
        for r in results {
            let (p, s) = r?;
            prepared.push(p);
            sources.push(s);
        }
        let ticks = prepared.iter().map(|p| p.config().tick_s);
        let min_tick_s = ticks.clone().fold(f64::INFINITY, f64::min);
        let max_tick_s = ticks.fold(0.0, f64::max);
        // Every node must be able to run the whole duration.
        let fine_ticks = (spec.duration_s / min_tick_s).round();
        if fine_ticks > MAX_TICKS {
            return Err(NetError::invalid(format!(
                "duration of {} s needs {fine_ticks:.3e} ticks at the fleet's smallest \
                 tick_s = {min_tick_s} s, above the {MAX_TICKS:.3e}-tick bound",
                spec.duration_s
            )));
        }
        // Every epoch must span at least one tick of the coarsest-ticking
        // node; more epochs would only add empty audits and snapshots.
        let run_ticks = (spec.duration_s / max_tick_s).round().max(1.0);
        if spec.route_epochs as f64 > run_ticks {
            return Err(NetError::invalid(format!(
                "route_epochs = {} exceeds the run's {run_ticks} ticks at its largest \
                 tick_s = {max_tick_s} s",
                spec.route_epochs
            )));
        }
        let positions: Vec<Point> = spec.nodes.iter().map(|n| n.position).collect();
        let topology = Topology::new(positions, spec.sink, spec.range_m)?;
        Ok(FleetSimulator {
            spec,
            prepared,
            sources,
            topology,
        })
    }

    /// The spec this simulator was built from.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Fleet size.
    pub fn node_count(&self) -> usize {
        self.prepared.len()
    }

    /// The prepared per-node simulators (oracle access for the
    /// differential suite).
    pub fn prepared(&self) -> &[PreparedSimulator] {
        &self.prepared
    }

    /// The per-node vibration sources, node-indexed (oracle access
    /// for the differential suite).
    pub fn sources(&self) -> &[Arc<dyn VibrationSource>] {
        &self.sources
    }

    /// Runs phase 1 only, returning each node's own `Result` — lane
    /// failures do not disturb other nodes.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidParameter`] only if the node scheduler itself
    /// fails; node failures are inside the returned vector.
    pub fn run_nodes(
        &self,
        threads: usize,
        dispatch: Dispatch,
    ) -> Result<Vec<ehsim_node::Result<NodeMetrics>>> {
        self.run_nodes_at(threads, dispatch, &[self.spec.duration_s])?
            .pop()
            .ok_or_else(|| NetError::invalid("node phase took no snapshot"))
    }

    /// End time (s) of every route epoch, in order. The last is
    /// `duration_s` itself — not `duration_s·E/E`, which need not
    /// round to the same bits.
    fn epoch_ends(&self) -> Vec<f64> {
        let epochs = self.spec.route_epochs;
        (1..=epochs)
            .map(|e| {
                if e == epochs {
                    self.spec.duration_s
                } else {
                    self.spec.duration_s * e as f64 / epochs as f64
                }
            })
            .collect()
    }

    /// Phase 1, run once to the last of `checkpoints` (nondecreasing
    /// durations) with every node snapshotted at each; indexed
    /// `[checkpoint][node]`. A node's snapshot at a checkpoint is
    /// bit-identical to a fresh run of that duration on either
    /// dispatch path (see [`PreparedSimulator::run_checkpoints`]).
    fn run_nodes_at(
        &self,
        threads: usize,
        dispatch: Dispatch,
        checkpoints: &[f64],
    ) -> Result<Vec<Vec<ehsim_node::Result<NodeMetrics>>>> {
        match dispatch {
            Dispatch::Auto => {
                let sources: Vec<&dyn VibrationSource> =
                    self.sources.iter().map(|s| s.as_ref()).collect();
                let run = LaneRun {
                    excitation: Excitation::PerLane(&sources),
                    checkpoints,
                };
                dispatch::run_lanes(&self.prepared, &[run], threads)
                    .map_err(scheduler_error)?
                    .pop()
                    .ok_or_else(|| NetError::invalid("node phase returned no run"))
            }
            Dispatch::PerSim => {
                // A rejected checkpoint list fails every snapshot, as on
                // the batched path.
                let nodes = run_jobs(self.prepared.len(), threads, |i| {
                    Ok::<_, NodeError>(
                        self.prepared[i]
                            .run_checkpoints(self.sources[i].as_ref(), checkpoints)
                            .unwrap_or_else(|e| vec![Err(e); checkpoints.len()]),
                    )
                })
                .map_err(scheduler_error)?;
                let mut snapshots = vec![Vec::new(); checkpoints.len()];
                for node in nodes {
                    for (snapshot, lane) in snapshots.iter_mut().zip(node) {
                        snapshot.push(lane);
                    }
                }
                Ok(snapshots)
            }
        }
    }

    /// Runs the fleet with auto dispatch.
    ///
    /// # Errors
    ///
    /// [`NetError::Node`] if any node simulation fails: the earliest
    /// route epoch in which a node fails, at the smallest failing node
    /// within it.
    pub fn run(&self, threads: usize) -> Result<FleetOutcome> {
        self.run_with_dispatch(threads, Dispatch::Auto)
    }

    /// Runs the fleet with an explicit dispatch strategy.
    ///
    /// # Errors
    ///
    /// As [`FleetSimulator::run`].
    pub fn run_with_dispatch(&self, threads: usize, dispatch: Dispatch) -> Result<FleetOutcome> {
        // One node phase, snapshotted at every epoch boundary. Each
        // snapshot is bit-identical to a fresh run of that epoch's
        // prefix, so per-epoch deltas in the accounting pass are exact.
        // Failures surface epoch-major: the earliest epoch with a
        // failing node wins, then the smallest node within it.
        let ends = self.epoch_ends();
        let mut snapshots: Vec<Vec<NodeMetrics>> = Vec::with_capacity(ends.len());
        for lanes in self.run_nodes_at(threads, dispatch, &ends)? {
            let mut snap = Vec::with_capacity(lanes.len());
            for (i, lane) in lanes.into_iter().enumerate() {
                match lane {
                    Ok(m) => snap.push(m),
                    Err(source) => return Err(NetError::Node { node: i, source }),
                }
            }
            snapshots.push(snap);
        }
        let (net, metrics) = self.network_accounting(&ends, &snapshots)?;
        let Some(per_node) = snapshots.pop() else {
            // route_epochs ≥ 1 is validated at prep; unreachable.
            return Err(NetError::invalid("fleet run produced no snapshots"));
        };
        Ok(FleetOutcome {
            per_node,
            net,
            metrics,
        })
    }

    /// The network phase: a sequential energy-accounting pass per
    /// route epoch over the node-phase boundary snapshots
    /// (`snapshots[e]` = every node's metrics at `ends[e]`, the end of
    /// epoch `e`; the last snapshot is the full run).
    ///
    /// With one snapshot this is exactly the original single-pass
    /// accounting — every epoch-generalised expression reduces bit
    /// for bit to its static form (pinned by
    /// `tests/fleet_equivalence.rs`).
    fn network_accounting(
        &self,
        ends: &[f64],
        snapshots: &[Vec<NodeMetrics>],
    ) -> Result<(Vec<NodeNetStats>, FleetMetrics)> {
        let Some(per_node) = snapshots.last() else {
            // route_epochs ≥ 1 is validated at prep; unreachable.
            return Err(NetError::invalid("network accounting needs snapshots"));
        };
        let n = per_node.len();
        let sink = self.topology.sink_index();
        let duration_s = self.spec.duration_s;
        let radio = &self.spec.radio;
        let bits = self.spec.payload_bits;

        let vpos = |v: usize| {
            if v == sink {
                self.topology.sink()
            } else {
                self.topology.position(v)
            }
        };
        let rx_j = radio.rx_energy_j(bits);

        // Cumulative state threaded across epochs.
        let mut spent = vec![0.0f64; n];
        let mut originated_total = vec![0.0f64; n];
        let mut delivered_total = vec![0.0f64; n];
        let mut demand_total = vec![0.0f64; n];
        let mut death_s: Vec<Option<f64>> = vec![None; n];
        let mut first_death_s = duration_s;
        let mut relay_hops = 0.0f64;
        let mut prev_packets: Vec<u64> = vec![0; n];
        let mut prev_browned = vec![false; n];
        // The route table, every vertex's hop count under it (`None`:
        // no route), and every node's per-packet energy to relay to its
        // next hop: rx + tx (pass 1) and tx alone (pass 2).
        let mut routes: Option<Routes> = None;
        let (mut hops, mut hop_j, mut tx_j) = (Vec::new(), Vec::new(), Vec::new());
        let mut route_repairs = 0u32;
        let mut audits: Vec<EpochAudit> = Vec::with_capacity(snapshots.len());
        let mut t_prev = 0.0f64;
        let mut last_headroom = vec![0.0f64; n];

        for (e, (snap, &t_end)) in snapshots.iter().zip(ends).enumerate() {
            // Brown-outs are cumulative (each snapshot is a prefix of
            // the next), so `browned` only ever grows across epochs.
            let browned: Vec<bool> = snap.iter().map(|m| m.brownout_count > 0).collect();
            let newly_browned: Vec<usize> =
                (0..n).filter(|&i| browned[i] && !prev_browned[i]).collect();

            // Route repair: energy-aware routes are recomputed
            // whenever the exclusion set changed; min-hop stays the
            // static baseline (computed once, never repaired).
            let recompute = match self.spec.routing {
                RoutingPolicy::MinHop => routes.is_none(),
                RoutingPolicy::EnergyAware => routes.is_none() || browned != prev_browned,
            };
            let rerouted = recompute && e > 0;
            let mut newly_stranded = Vec::new();
            if recompute {
                let r = match self.spec.routing {
                    RoutingPolicy::MinHop => self.topology.min_hop_routes(),
                    RoutingPolicy::EnergyAware => {
                        self.topology.energy_aware_routes(radio, bits, &browned)?
                    }
                };
                let prev_hops = std::mem::replace(&mut hops, r.hop_counts());
                if rerouted {
                    route_repairs += 1;
                    newly_stranded = (0..n)
                        .filter(|&i| prev_hops[i].is_some() && hops[i].is_none())
                        .collect();
                }
                (hop_j, tx_j) = (0..n)
                    .map(|u| {
                        let d = r.next_hop(u).map_or(0.0, |v| vpos(u).distance_m(&vpos(v)));
                        (radio.hop_energy_j(bits, d), radio.tx_energy_j(bits, d))
                    })
                    .unzip();
                routes = Some(r);
            }
            if self.spec.on_partition == PartitionPolicy::Error {
                if let Some(node) = (0..n).find(|&i| hops[i].is_none()) {
                    return Err(NetError::Partitioned { epoch: e, node });
                }
            }
            // Node `i`'s relays in hop order; `None` if it has no route.
            let relays = |i: usize| {
                let r = routes.as_ref().filter(|_| hops[i].is_some())?;
                Some(successors(r.next_hop(i), move |&v| r.next_hop(v)).take_while(|&v| v != sink))
            };

            // Headroom at this epoch's boundary: stored energy above
            // the brown-out threshold (zero once browned out), less
            // what earlier epochs' relaying already spent.
            let headroom: Vec<f64> = (0..n)
                .map(|i| {
                    if browned[i] {
                        0.0
                    } else {
                        let cfg = self.prepared[i].config();
                        (cfg.storage.energy_j(snap[i].final_v_store)
                            - cfg.storage.energy_j(cfg.thresholds.v_off))
                        .max(0.0)
                    }
                })
                .collect();
            let available: Vec<f64> = (0..n).map(|u| (headroom[u] - spent[u]).max(0.0)).collect();

            // Packets this epoch: exact prefix deltas.
            let originated: Vec<f64> = (0..n)
                .map(|i| snap[i].packets_delivered.saturating_sub(prev_packets[i]) as f64)
                .collect();

            // Pass 1 — relay demand at full (unscaled) epoch traffic.
            let mut demand = vec![0.0f64; n];
            for (i, &packets) in originated.iter().enumerate() {
                let Some(route) = relays(i) else { continue };
                for u in route {
                    demand[u] += packets * hop_j[u];
                }
            }

            // Forwarding fraction: what share of its demanded traffic
            // each relay can still afford.
            let scale: Vec<f64> = (0..n)
                .map(|u| {
                    if demand[u] > available[u] && demand[u] > 0.0 {
                        available[u] / demand[u]
                    } else {
                        1.0
                    }
                })
                .collect();

            // Pass 2 — fluid flow: each stream attenuates through its
            // relays' forwarding fractions; relays pay rx on what
            // arrives and tx on what they forward.
            let mut delivered = vec![0.0f64; n];
            for (i, &packets) in originated.iter().enumerate() {
                let Some(route) = relays(i) else { continue };
                let mut flow = packets;
                for u in route {
                    let arriving = flow;
                    flow *= scale[u];
                    spent[u] += arriving * rx_j + flow * tx_j[u];
                    relay_hops += arriving;
                }
                delivered[i] = flow;
            }

            // Relay death: extrapolated exhaustion time, within this
            // epoch, of over-demanded relays that had survived their
            // own duty cycle. First death wins per node.
            for u in 0..n {
                if !browned[u] && demand[u] > available[u] && death_s[u].is_none() {
                    let t = t_prev + (t_end - t_prev) * available[u] / demand[u];
                    if t < first_death_s {
                        first_death_s = t;
                    }
                    death_s[u] = Some(t);
                }
            }

            for i in 0..n {
                originated_total[i] += originated[i];
                delivered_total[i] += delivered[i];
                demand_total[i] += demand[i];
                prev_packets[i] = snap[i].packets_delivered;
            }
            audits.push(EpochAudit {
                epoch: e,
                t_start_s: t_prev,
                t_end_s: t_end,
                excluded_relays: match self.spec.routing {
                    RoutingPolicy::MinHop => 0,
                    RoutingPolicy::EnergyAware => browned.iter().filter(|&&b| b).count() as u32,
                },
                newly_browned,
                rerouted,
                unreachable_nodes: hops[..n].iter().filter(|h| h.is_none()).count() as u32,
                newly_stranded,
                packets_originated: originated.iter().sum(),
                packets_delivered: delivered.iter().sum(),
            });

            prev_browned = browned;
            last_headroom = headroom;
            t_prev = t_end;
        }

        let residual: Vec<f64> = (0..n)
            .map(|u| (last_headroom[u] - spent[u]).max(0.0))
            .collect();
        let residual_mean = residual.iter().sum::<f64>() / n as f64;
        let residual_spread = (residual
            .iter()
            .map(|r| (r - residual_mean) * (r - residual_mean))
            .sum::<f64>()
            / n as f64)
            .sqrt();

        let packets_originated: f64 = originated_total.iter().sum();
        let packets_delivered: f64 = delivered_total.iter().sum();
        let relay_energy_j: f64 = spent.iter().sum();
        let dead_nodes = death_s.iter().filter(|d| d.is_some()).count() as u32;
        let min_brownout_margin_v = (0..n)
            .map(|i| per_node[i].min_v_store - self.prepared[i].config().thresholds.v_off)
            .fold(f64::INFINITY, f64::min);
        let mean_uptime_fraction =
            per_node.iter().map(|m| m.uptime_fraction).sum::<f64>() / n as f64;

        let net: Vec<NodeNetStats> = (0..n)
            .map(|i| NodeNetStats {
                originated: originated_total[i],
                delivered: delivered_total[i],
                hops_to_sink: hops[i],
                relay_demand_j: demand_total[i],
                relay_spent_j: spent[i],
                headroom_j: last_headroom[i],
                residual_j: residual[i],
                browned_out: prev_browned[i],
                dead: death_s[i].is_some(),
                death_s: death_s[i],
            })
            .collect();

        let metrics = FleetMetrics {
            duration_s,
            n_nodes: n,
            packets_originated,
            packets_delivered,
            delivery_fraction: if packets_originated > 0.0 {
                packets_delivered / packets_originated
            } else {
                1.0
            },
            relay_energy_j,
            mean_hop_relay_energy_j: if relay_hops > 0.0 {
                relay_energy_j / relay_hops
            } else {
                0.0
            },
            first_death_s,
            dead_nodes,
            browned_out_nodes: prev_browned.iter().filter(|&&b| b).count() as u32,
            unreachable_nodes: hops[..n].iter().filter(|h| h.is_none()).count() as u32,
            residual_mean_j: residual_mean,
            residual_spread_j: residual_spread,
            min_brownout_margin_v,
            mean_uptime_fraction,
            route_repairs,
            epochs: audits,
        };
        Ok((net, metrics))
    }
}

/// `ehsim-node`'s queue and dispatcher fail as a whole only when a run
/// is malformed or a job slot goes unclaimed — never for one node.
fn scheduler_error(e: NodeError) -> NetError {
    NetError::invalid(format!("node scheduler: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;

    fn tiny_spec(n: usize, duration_s: f64) -> FleetSpec {
        let positions = Placement::UniformRandom {
            n,
            width_m: 60.0,
            height_m: 60.0,
            seed: 11,
        }
        .positions()
        .unwrap();
        let mut cfg = NodeConfig::default_node();
        cfg.tick_s = 0.5;
        FleetSpec::homogeneous(cfg, positions, Point::new(30.0, 30.0), 25.0, duration_s)
    }

    #[test]
    fn fleet_runs_and_accounts() {
        let fleet = FleetSimulator::new(tiny_spec(12, 30.0)).unwrap();
        let out = fleet.run(2).unwrap();
        assert_eq!(out.per_node.len(), 12);
        assert_eq!(out.net.len(), 12);
        let m = &out.metrics;
        assert!(m.packets_delivered <= m.packets_originated);
        assert!((0.0..=1.0).contains(&m.delivery_fraction));
        assert!(m.first_death_s <= m.duration_s);
        assert!(m.relay_energy_j >= 0.0);
    }

    #[test]
    fn thread_count_and_dispatch_do_not_change_bits() {
        let fleet = FleetSimulator::new(tiny_spec(10, 30.0)).unwrap();
        let base = fleet.run_with_dispatch(1, Dispatch::PerSim).unwrap();
        for (threads, dispatch) in [
            (1, Dispatch::Auto),
            (4, Dispatch::Auto),
            (4, Dispatch::PerSim),
        ] {
            let out = fleet.run_with_dispatch(threads, dispatch).unwrap();
            assert_eq!(
                base.metrics.packets_delivered.to_bits(),
                out.metrics.packets_delivered.to_bits()
            );
            assert_eq!(
                base.metrics.residual_spread_j.to_bits(),
                out.metrics.residual_spread_j.to_bits()
            );
            for (a, b) in base.per_node.iter().zip(&out.per_node) {
                assert_eq!(a.final_v_store.to_bits(), b.final_v_store.to_bits());
            }
        }
    }

    #[test]
    fn empty_fleet_and_zero_payload_rejected() {
        let mut spec = tiny_spec(3, 10.0);
        spec.payload_bits = 0;
        assert!(FleetSimulator::new(spec).is_err());
        let mut spec = tiny_spec(3, 10.0);
        spec.nodes.clear();
        assert!(FleetSimulator::new(spec).is_err());
        let mut spec = tiny_spec(3, 10.0);
        spec.duration_s = f64::INFINITY;
        assert!(FleetSimulator::new(spec).is_err());

        // Every node must fit the duration under the tick-count bound:
        // 1e16 s is 2e16 ticks at 0.5 s but 1e15 ticks at 10 s.
        let duration_ok = |duration_s: f64, ticks_s: [f64; 3]| {
            let mut spec = tiny_spec(3, duration_s);
            for (node, tick_s) in spec.nodes.iter_mut().zip(ticks_s) {
                node.config.tick_s = tick_s;
            }
            match FleetSimulator::new(spec) {
                Ok(_) => true,
                Err(NetError::InvalidParameter { .. }) => false,
                Err(other) => panic!("{duration_s} s: unexpected error {other:?}"),
            }
        };
        assert!(!duration_ok(1e300, [0.5; 3]));
        assert!(!duration_ok(1e16, [0.5, 10.0, 10.0]));
        assert!(duration_ok(1e16, [10.0; 3]));

        // Route epochs run from 1 to the tick count at the largest
        // tick_s: 10 s at 0.5 s is 20 ticks.
        let epochs_ok = |epochs: usize, coarse_tick_s: Option<f64>| {
            let mut spec = tiny_spec(3, 10.0);
            spec.route_epochs = epochs;
            if let Some(tick_s) = coarse_tick_s {
                spec.nodes[1].config.tick_s = tick_s;
            }
            match FleetSimulator::new(spec) {
                Ok(_) => true,
                Err(NetError::InvalidParameter { .. }) => false,
                Err(other) => panic!("{epochs} epochs: unexpected error {other:?}"),
            }
        };
        assert!(!epochs_ok(0, None));
        assert!(epochs_ok(20, None));
        assert!(!epochs_ok(21, None));
        assert!(!epochs_ok(100_000, None));
        assert!(!epochs_ok(usize::MAX, None));
        // One node on a 1 s tick leaves the run 10 ticks.
        assert!(epochs_ok(10, Some(1.0)));
        assert!(!epochs_ok(11, Some(1.0)));
    }
}
