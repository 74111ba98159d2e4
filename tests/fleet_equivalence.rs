//! Differential suite for the fleet simulator's node-phase dispatch.
//!
//! The contract under test: a [`FleetSimulator`] run — whatever the
//! dispatch strategy (auto, per-sim) and whatever the scheduler thread
//! count — is **bit-identical, node for node**, to a sequential oracle
//! loop that runs each node's simulation by hand through the frozen
//! reference tick loop, straight from the spec, with no fleet machinery
//! involved. This is the network-layer extension of the batch kernel's
//! lane-for-lane bit-exactness contract, checked across 1/2/8 threads
//! for both single-tick fleets and mixed-tick fleets (batched per tick
//! length), and through to the derived [`ehsim::net::FleetMetrics`]
//! record.

use ehsim::net::{
    node_seed, Dispatch, FleetEnvironment, FleetSimulator, FleetSpec, Placement, Point,
};
use ehsim::node::{NodeConfig, NodeMetrics, PolicyKind, SystemSimulator};

/// The oracle: `SystemSimulator::run_reference` per node, run
/// sequentially against the node's split vibration stream — no
/// `FleetSimulator`, no batch kernel, no scheduler. The reference loop
/// ignores the energy-policy hook, so every node must run the `Static`
/// policy.
fn oracle_metrics(spec: &FleetSpec) -> Vec<NodeMetrics> {
    spec.nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            assert_eq!(node.config.energy_policy, PolicyKind::Static, "node {i}");
            let sim = SystemSimulator::new(node.config.clone()).expect("oracle node prepares");
            let source = spec
                .environment
                .source_for(node_seed(spec.fleet_seed, i))
                .expect("oracle node source builds");
            sim.run_reference(source.as_ref(), spec.duration_s)
                .expect("oracle node runs")
        })
        .collect()
}

fn assert_metrics_bitwise_eq(a: &NodeMetrics, b: &NodeMetrics, node: usize, label: &str) {
    assert_eq!(
        a.packets_delivered, b.packets_delivered,
        "{label}: node {node} packets"
    );
    assert_eq!(
        a.brownout_count, b.brownout_count,
        "{label}: node {node} brownouts"
    );
    assert_eq!(
        a.retune_count, b.retune_count,
        "{label}: node {node} retunes"
    );
    assert_eq!(
        a.measurement_count, b.measurement_count,
        "{label}: node {node} measurements"
    );
    for (x, y, field) in [
        (a.uptime_fraction, b.uptime_fraction, "uptime_fraction"),
        (a.tuning_energy_j, b.tuning_energy_j, "tuning_energy_j"),
        (
            a.harvested_energy_j,
            b.harvested_energy_j,
            "harvested_energy_j",
        ),
        (
            a.consumed_energy_j,
            b.consumed_energy_j,
            "consumed_energy_j",
        ),
        (a.min_v_store, b.min_v_store, "min_v_store"),
        (a.final_v_store, b.final_v_store, "final_v_store"),
        (
            a.avg_harvest_power_w,
            b.avg_harvest_power_w,
            "avg_harvest_power_w",
        ),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: node {node} {field} differs ({x} vs {y})"
        );
    }
}

fn homogeneous_spec(n: usize) -> FleetSpec {
    let positions = Placement::UniformRandom {
        n,
        width_m: 80.0,
        height_m: 80.0,
        seed: 17,
    }
    .positions()
    .expect("valid placement");
    let mut cfg = NodeConfig::default_node();
    cfg.tick_s = 0.5;
    let mut spec = FleetSpec::homogeneous(cfg, positions, Point::new(40.0, 40.0), 30.0, 45.0);
    spec.environment = FleetEnvironment::factory_floor();
    spec
}

/// A mixed-tick fleet: same floor, but a third of the nodes run a
/// finer tick — auto dispatch must batch each tick length separately
/// without changing a bit.
fn mixed_tick_spec(n: usize) -> FleetSpec {
    let mut spec = homogeneous_spec(n);
    for (i, node) in spec.nodes.iter_mut().enumerate() {
        if i % 3 == 0 {
            node.config.tick_s = 0.25;
        }
    }
    spec
}

#[test]
fn batched_dispatch_is_bit_identical_to_oracle_across_threads() {
    let spec = homogeneous_spec(13);
    let oracle = oracle_metrics(&spec);
    let fleet = FleetSimulator::new(spec).expect("valid fleet");
    for threads in [1, 2, 8] {
        for (dispatch, label) in [(Dispatch::Auto, "auto"), (Dispatch::PerSim, "per-sim")] {
            let out = fleet
                .run_with_dispatch(threads, dispatch)
                .expect("fleet runs");
            assert_eq!(out.per_node.len(), oracle.len());
            for (i, (a, b)) in oracle.iter().zip(&out.per_node).enumerate() {
                assert_metrics_bitwise_eq(a, b, i, &format!("{label}@{threads}t"));
            }
        }
    }
}

#[test]
fn mixed_tick_fleet_is_bit_identical_to_oracle_across_threads() {
    let spec = mixed_tick_spec(11);
    let oracle = oracle_metrics(&spec);
    let fleet = FleetSimulator::new(spec).expect("valid fleet");
    for threads in [1, 2, 8] {
        for dispatch in [Dispatch::Auto, Dispatch::PerSim] {
            let out = fleet
                .run_with_dispatch(threads, dispatch)
                .expect("fleet runs");
            assert_eq!(out.per_node.len(), oracle.len());
            for (i, (a, b)) in oracle.iter().zip(&out.per_node).enumerate() {
                assert_metrics_bitwise_eq(a, b, i, &format!("mixed-{dispatch:?}@{threads}t"));
            }
        }
    }
}

#[test]
fn fleet_metrics_are_invariant_to_threads_and_dispatch() {
    let fleet = FleetSimulator::new(homogeneous_spec(13)).expect("valid fleet");
    let base = fleet
        .run_with_dispatch(1, Dispatch::PerSim)
        .expect("fleet runs");
    for threads in [1, 2, 8] {
        for dispatch in [Dispatch::Auto, Dispatch::PerSim] {
            let out = fleet
                .run_with_dispatch(threads, dispatch)
                .expect("fleet runs");
            let (m, n) = (&base.metrics, &out.metrics);
            for (a, b, field) in [
                (
                    m.packets_originated,
                    n.packets_originated,
                    "packets_originated",
                ),
                (
                    m.packets_delivered,
                    n.packets_delivered,
                    "packets_delivered",
                ),
                (m.relay_energy_j, n.relay_energy_j, "relay_energy_j"),
                (m.first_death_s, n.first_death_s, "first_death_s"),
                (m.residual_mean_j, n.residual_mean_j, "residual_mean_j"),
                (
                    m.residual_spread_j,
                    n.residual_spread_j,
                    "residual_spread_j",
                ),
                (
                    m.min_brownout_margin_v,
                    n.min_brownout_margin_v,
                    "min_brownout_margin_v",
                ),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{dispatch:?}@{threads}t: {field} differs ({a} vs {b})"
                );
            }
            for (i, (x, y)) in base.net.iter().zip(&out.net).enumerate() {
                assert_eq!(x, y, "{dispatch:?}@{threads}t: node {i} net stats differ");
            }
        }
    }
}

/// Per-node error capture: a fleet with one invalid node reports the
/// smallest failing node index through the aggregate entry point while
/// `run_nodes` captures the failure individually.
#[test]
fn smallest_failing_node_is_reported() {
    let mut spec = homogeneous_spec(9);
    // Zero-capacitance storage fails preparation.
    spec.nodes[4].config.storage.capacitance = 0.0;
    spec.nodes[7].config.storage.capacitance = 0.0;
    match FleetSimulator::new(spec) {
        Err(ehsim::net::NetError::Node { node, .. }) => assert_eq!(node, 4),
        Err(other) => panic!("expected smallest-failing-node error, got {other:?}"),
        Ok(_) => panic!("expected smallest-failing-node error, got a fleet"),
    }
}

// ---------------------------------------------------------------------------
// Route epochs, parallel prep, and the legacy static-accounting oracle
// ---------------------------------------------------------------------------

use ehsim::net::{NetError, RoutingPolicy, Topology};

/// A homogeneous fleet with one deliberately starved node: a small
/// supercap, no tuning controller (its startup actuation would empty
/// the cap instantly anyway), and a heavy fixed sensing duty, so the
/// node browns out partway through the run and the exclusion-set /
/// route-repair machinery has real work to do. The tick is unchanged,
/// so the whole fleet is one tick length.
fn starved_node_spec(n: usize) -> FleetSpec {
    let mut spec = homogeneous_spec(n);
    let cfg = &mut spec.nodes[3].config;
    cfg.policy = ehsim::node::DutyCyclePolicy::Fixed;
    cfg.tuning.enabled = false;
    cfg.storage.capacitance = 0.0015;
    cfg.task.period_s = 1.0;
    cfg.task.sense_power_w = 0.02;
    spec
}

/// A faithful reimplementation of the *original* (pre-route-epoch)
/// single-pass network accounting, straight from the spec: all-pairs
/// topology build, `O(V²)` reference Dijkstra, one headroom/demand/
/// flow pass over the full-run node metrics.
struct LegacyAccounts {
    originated: Vec<f64>,
    delivered: Vec<f64>,
    demand: Vec<f64>,
    spent: Vec<f64>,
    headroom: Vec<f64>,
    residual: Vec<f64>,
    hops: Vec<Option<usize>>,
    browned: Vec<bool>,
    death_s: Vec<Option<f64>>,
    first_death_s: f64,
    relay_hops: f64,
    residual_mean: f64,
    residual_spread: f64,
}

fn legacy_static_accounting(spec: &FleetSpec, per_node: &[NodeMetrics]) -> LegacyAccounts {
    let n = per_node.len();
    let positions: Vec<Point> = spec.nodes.iter().map(|nd| nd.position).collect();
    let topo =
        Topology::new_all_pairs(positions, spec.sink, spec.range_m).expect("oracle topology");
    let sink = topo.sink_index();
    let browned: Vec<bool> = per_node.iter().map(|m| m.brownout_count > 0).collect();
    let routes = match spec.routing {
        RoutingPolicy::MinHop => topo.min_hop_routes(),
        RoutingPolicy::EnergyAware => topo
            .energy_aware_routes_reference(&spec.radio, spec.payload_bits, &browned)
            .expect("oracle routes"),
    };
    let paths: Vec<Option<Vec<usize>>> = (0..n).map(|i| routes.path(i).ok()).collect();
    let vpos = |v: usize| {
        if v == sink {
            topo.sink()
        } else {
            topo.position(v)
        }
    };
    let hop_energy = |path: &[usize], j: usize| {
        let d = vpos(path[j]).distance_m(&vpos(path[j + 1]));
        spec.radio.hop_energy_j(spec.payload_bits, d)
    };

    let headroom: Vec<f64> = (0..n)
        .map(|i| {
            if browned[i] {
                0.0
            } else {
                let cfg = &spec.nodes[i].config;
                (cfg.storage.energy_j(per_node[i].final_v_store)
                    - cfg.storage.energy_j(cfg.thresholds.v_off))
                .max(0.0)
            }
        })
        .collect();
    let originated: Vec<f64> = (0..n)
        .map(|i| per_node[i].packets_delivered as f64)
        .collect();

    let mut demand = vec![0.0f64; n];
    for i in 0..n {
        let Some(path) = &paths[i] else { continue };
        for j in 1..path.len() - 1 {
            demand[path[j]] += originated[i] * hop_energy(path, j);
        }
    }
    let scale: Vec<f64> = (0..n)
        .map(|u| {
            if demand[u] > headroom[u] && demand[u] > 0.0 {
                headroom[u] / demand[u]
            } else {
                1.0
            }
        })
        .collect();

    let mut spent = vec![0.0f64; n];
    let mut delivered = vec![0.0f64; n];
    let mut relay_hops = 0.0f64;
    for i in 0..n {
        let Some(path) = &paths[i] else { continue };
        let mut flow = originated[i];
        for j in 1..path.len() - 1 {
            let u = path[j];
            let d = vpos(u).distance_m(&vpos(path[j + 1]));
            let arriving = flow;
            flow *= scale[u];
            spent[u] += arriving * spec.radio.rx_energy_j(spec.payload_bits)
                + flow * spec.radio.tx_energy_j(spec.payload_bits, d);
            relay_hops += arriving;
        }
        delivered[i] = flow;
    }

    let mut death_s: Vec<Option<f64>> = vec![None; n];
    let mut first_death_s = spec.duration_s;
    for u in 0..n {
        if !browned[u] && demand[u] > headroom[u] {
            let t = spec.duration_s * headroom[u] / demand[u];
            if t < first_death_s {
                first_death_s = t;
            }
            death_s[u] = Some(t);
        }
    }

    let residual: Vec<f64> = (0..n).map(|u| (headroom[u] - spent[u]).max(0.0)).collect();
    let residual_mean = residual.iter().sum::<f64>() / n as f64;
    let residual_spread = (residual
        .iter()
        .map(|r| (r - residual_mean) * (r - residual_mean))
        .sum::<f64>()
        / n as f64)
        .sqrt();

    LegacyAccounts {
        hops: paths
            .iter()
            .map(|p| p.as_ref().map(|p| p.len() - 1))
            .collect(),
        originated,
        delivered,
        demand,
        spent,
        headroom,
        residual,
        browned,
        death_s,
        first_death_s,
        relay_hops,
        residual_mean,
        residual_spread,
    }
}

/// The static-routing regression: a `route_epochs = 1` run reproduces
/// the original single-pass accounting **bit for bit** — metrics and
/// every per-node network account — for both routing policies, with
/// a browned-out node in the fleet so the exclusion and fluid-scaling
/// branches are genuinely exercised.
#[test]
fn single_epoch_run_reproduces_legacy_static_accounting() {
    for routing in [RoutingPolicy::EnergyAware, RoutingPolicy::MinHop] {
        let mut spec = starved_node_spec(13);
        spec.routing = routing;
        assert_eq!(spec.route_epochs, 1, "homogeneous() must default static");
        let fleet = FleetSimulator::new(spec.clone()).expect("valid fleet");
        let out = fleet.run(4).expect("fleet runs");
        assert!(
            out.per_node.iter().any(|m| m.brownout_count > 0),
            "{routing:?}: the starved node must brown out for this regression to bite"
        );
        let legacy = legacy_static_accounting(&spec, &out.per_node);

        assert_eq!(out.metrics.route_repairs, 0, "{routing:?}: static run");
        assert_eq!(out.metrics.epochs.len(), 1, "{routing:?}: one epoch");
        for (i, s) in out.net.iter().enumerate() {
            let label = format!("{routing:?} node {i}");
            assert_eq!(
                s.originated.to_bits(),
                legacy.originated[i].to_bits(),
                "{label} originated"
            );
            assert_eq!(
                s.delivered.to_bits(),
                legacy.delivered[i].to_bits(),
                "{label} delivered"
            );
            assert_eq!(
                s.relay_demand_j.to_bits(),
                legacy.demand[i].to_bits(),
                "{label} demand"
            );
            assert_eq!(
                s.relay_spent_j.to_bits(),
                legacy.spent[i].to_bits(),
                "{label} spent"
            );
            assert_eq!(
                s.headroom_j.to_bits(),
                legacy.headroom[i].to_bits(),
                "{label} headroom"
            );
            assert_eq!(
                s.residual_j.to_bits(),
                legacy.residual[i].to_bits(),
                "{label} residual"
            );
            assert_eq!(s.hops_to_sink, legacy.hops[i], "{label} hops");
            assert_eq!(s.browned_out, legacy.browned[i], "{label} browned");
            assert_eq!(s.dead, legacy.death_s[i].is_some(), "{label} dead");
            assert_eq!(
                s.death_s.map(f64::to_bits),
                legacy.death_s[i].map(f64::to_bits),
                "{label} death_s"
            );
        }
        let m = &out.metrics;
        let orig: f64 = legacy.originated.iter().sum();
        let del: f64 = legacy.delivered.iter().sum();
        let relay: f64 = legacy.spent.iter().sum();
        assert_eq!(m.packets_originated.to_bits(), orig.to_bits());
        assert_eq!(m.packets_delivered.to_bits(), del.to_bits());
        assert_eq!(m.relay_energy_j.to_bits(), relay.to_bits());
        let frac = if orig > 0.0 { del / orig } else { 1.0 };
        assert_eq!(m.delivery_fraction.to_bits(), frac.to_bits());
        let hop = if legacy.relay_hops > 0.0 {
            relay / legacy.relay_hops
        } else {
            0.0
        };
        assert_eq!(m.mean_hop_relay_energy_j.to_bits(), hop.to_bits());
        assert_eq!(m.first_death_s.to_bits(), legacy.first_death_s.to_bits());
        assert_eq!(m.residual_mean_j.to_bits(), legacy.residual_mean.to_bits());
        assert_eq!(
            m.residual_spread_j.to_bits(),
            legacy.residual_spread.to_bits()
        );
        assert_eq!(
            m.dead_nodes as usize,
            legacy.death_s.iter().filter(|d| d.is_some()).count()
        );
        assert_eq!(
            m.browned_out_nodes as usize,
            legacy.browned.iter().filter(|&&b| b).count()
        );
        assert_eq!(
            m.unreachable_nodes as usize,
            legacy.hops.iter().filter(|h| h.is_none()).count()
        );
    }
}

/// Route epochs keep the determinism contract: a multi-epoch run with
/// a mid-run brown-out and a real route repair is bit-identical —
/// metrics, audit trail, per-node accounts — across thread counts and
/// dispatch strategies.
#[test]
fn epoch_runs_are_bit_identical_across_threads_and_dispatch() {
    let mut spec = starved_node_spec(13);
    spec.route_epochs = 4;
    let fleet = FleetSimulator::new(spec).expect("valid fleet");
    let base = fleet
        .run_with_dispatch(1, Dispatch::PerSim)
        .expect("base run");
    assert!(
        base.metrics.route_repairs >= 1,
        "the starved node's brown-out must trigger a repair"
    );
    assert_eq!(base.metrics.epochs.len(), 4);
    for threads in [1, 2, 8] {
        for dispatch in [Dispatch::Auto, Dispatch::PerSim] {
            let out = fleet
                .run_with_dispatch(threads, dispatch)
                .expect("fleet runs");
            let label = format!("{dispatch:?}@{threads}t");
            assert_eq!(
                base.metrics.route_repairs, out.metrics.route_repairs,
                "{label}: route_repairs"
            );
            for (a, b) in base.metrics.epochs.iter().zip(&out.metrics.epochs) {
                assert_eq!(a.epoch, b.epoch, "{label}: epoch index");
                assert_eq!(a.newly_browned, b.newly_browned, "{label}: newly_browned");
                assert_eq!(
                    a.newly_stranded, b.newly_stranded,
                    "{label}: newly_stranded"
                );
                assert_eq!(a.rerouted, b.rerouted, "{label}: rerouted");
                assert_eq!(
                    a.packets_delivered.to_bits(),
                    b.packets_delivered.to_bits(),
                    "{label}: epoch {} delivered",
                    a.epoch
                );
                assert_eq!(
                    a.packets_originated.to_bits(),
                    b.packets_originated.to_bits(),
                    "{label}: epoch {} originated",
                    a.epoch
                );
            }
            for (x, y, field) in [
                (
                    base.metrics.packets_delivered,
                    out.metrics.packets_delivered,
                    "packets_delivered",
                ),
                (
                    base.metrics.relay_energy_j,
                    out.metrics.relay_energy_j,
                    "relay_energy_j",
                ),
                (
                    base.metrics.first_death_s,
                    out.metrics.first_death_s,
                    "first_death_s",
                ),
                (
                    base.metrics.residual_spread_j,
                    out.metrics.residual_spread_j,
                    "residual_spread_j",
                ),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: {field}");
            }
            for (i, (x, y)) in base.net.iter().zip(&out.net).enumerate() {
                assert_eq!(x, y, "{label}: node {i} net stats differ");
            }
            for (i, (a, b)) in base.per_node.iter().zip(&out.per_node).enumerate() {
                assert_metrics_bitwise_eq(a, b, i, &label);
            }
        }
    }
}

/// Parallel per-node preparation is bit-identical to sequential
/// preparation: same prepared fleet, same run output — for both the
/// single-tick and the mixed-tick fleet shapes.
#[test]
fn parallel_prep_is_bit_identical_to_sequential() {
    for (spec, what) in [
        (homogeneous_spec(13), "homogeneous"),
        (mixed_tick_spec(11), "mixed-tick"),
    ] {
        let seq = FleetSimulator::new(spec.clone()).expect("sequential prep");
        for threads in [2, 8] {
            let par = FleetSimulator::prepare(spec.clone(), threads).expect("parallel prep");
            assert_eq!(seq.node_count(), par.node_count(), "{what}: node count");
            let a = seq.run(2).expect("sequential-prep fleet runs");
            let b = par.run(2).expect("parallel-prep fleet runs");
            for (i, (x, y)) in a.per_node.iter().zip(&b.per_node).enumerate() {
                assert_metrics_bitwise_eq(x, y, i, &format!("{what} prep@{threads}t"));
            }
            assert_eq!(
                a.metrics.packets_delivered.to_bits(),
                b.metrics.packets_delivered.to_bits(),
                "{what} prep@{threads}t: packets_delivered"
            );
            assert_eq!(
                a.metrics.residual_spread_j.to_bits(),
                b.metrics.residual_spread_j.to_bits(),
                "{what} prep@{threads}t: residual_spread_j"
            );
            for (i, (x, y)) in a.net.iter().zip(&b.net).enumerate() {
                assert_eq!(x, y, "{what} prep@{threads}t: node {i} net stats");
            }
        }
    }
}

/// The smallest-failing-node contract holds for *parallel* prep at
/// every thread count: every node's result lands in its own slot and
/// the slots are scanned in node order, so the reported node is always
/// 4 — never 7, never a scheduling accident.
#[test]
fn smallest_failing_node_is_thread_count_invariant() {
    let mut spec = homogeneous_spec(9);
    spec.nodes[4].config.storage.capacitance = 0.0;
    spec.nodes[7].config.storage.capacitance = 0.0;
    for threads in [1, 2, 8] {
        match FleetSimulator::prepare(spec.clone(), threads) {
            Err(NetError::Node { node, .. }) => {
                assert_eq!(node, 4, "prep@{threads}t reported the wrong node")
            }
            Err(other) => panic!("prep@{threads}t: expected node error, got {other:?}"),
            Ok(_) => panic!("prep@{threads}t: expected node error, got a fleet"),
        }
    }
}

/// Environment-factory failures obey the same contract: with factory
/// failures at nodes 2 and 5 *and* a config failure at node 6, the
/// surfaced error is always node 2's environment error — across
/// every thread count, with no node's validation abandoned.
#[test]
fn env_factory_failure_reports_smallest_node_across_threads() {
    let mut spec = homogeneous_spec(9);
    spec.nodes[6].config.storage.capacitance = 0.0;
    let bad = [node_seed(spec.fleet_seed, 2), node_seed(spec.fleet_seed, 5)];
    let floor = FleetEnvironment::factory_floor();
    spec.environment = FleetEnvironment::new("failing-floor", move |seed| {
        if bad.contains(&seed) {
            Err(NetError::InvalidParameter {
                message: format!("synthetic factory failure for stream seed {seed}"),
            })
        } else {
            floor.source_for(seed)
        }
    });
    for threads in [1, 2, 8] {
        match FleetSimulator::prepare(spec.clone(), threads) {
            Err(NetError::InvalidParameter { message }) => {
                assert!(
                    message.starts_with("node 2:"),
                    "prep@{threads}t surfaced the wrong failure: {message}"
                );
            }
            Err(other) => panic!("prep@{threads}t: expected env error, got {other:?}"),
            Ok(_) => panic!("prep@{threads}t: expected env error, got a fleet"),
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-epoch fingerprints and the run-time error order
// ---------------------------------------------------------------------------

use ehsim::net::{EpochAudit, FleetOutcome};
use ehsim::vibration::{Envelope, VibrationSource};
use std::sync::Arc;

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
    fn opt_f64(&mut self, x: Option<f64>) {
        self.word(u64::from(x.is_some()));
        self.f64(x.unwrap_or(0.0));
    }
    fn usizes(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }
}

/// Hash of every result bit of a fleet run: each `FleetMetrics` field,
/// each `EpochAudit` field, each `NodeNetStats` and each per-node
/// `NodeMetrics`.
fn fleet_fingerprint(out: &FleetOutcome) -> u64 {
    let mut h = Fnv::new();
    let m = &out.metrics;
    for x in [
        m.duration_s,
        m.packets_originated,
        m.packets_delivered,
        m.delivery_fraction,
        m.relay_energy_j,
        m.mean_hop_relay_energy_j,
        m.first_death_s,
        m.residual_mean_j,
        m.residual_spread_j,
        m.min_brownout_margin_v,
        m.mean_uptime_fraction,
    ] {
        h.f64(x);
    }
    for x in [
        m.n_nodes as u64,
        u64::from(m.dead_nodes),
        u64::from(m.browned_out_nodes),
        u64::from(m.unreachable_nodes),
        u64::from(m.route_repairs),
    ] {
        h.word(x);
    }
    h.word(m.epochs.len() as u64);
    for a in &m.epochs {
        let EpochAudit {
            epoch,
            t_start_s,
            t_end_s,
            excluded_relays,
            newly_browned,
            rerouted,
            unreachable_nodes,
            newly_stranded,
            packets_originated,
            packets_delivered,
        } = a;
        h.word(*epoch as u64);
        h.f64(*t_start_s);
        h.f64(*t_end_s);
        h.word(u64::from(*excluded_relays));
        h.usizes(newly_browned);
        h.word(u64::from(*rerouted));
        h.word(u64::from(*unreachable_nodes));
        h.usizes(newly_stranded);
        h.f64(*packets_originated);
        h.f64(*packets_delivered);
    }
    for s in &out.net {
        h.f64(s.originated);
        h.f64(s.delivered);
        h.word(u64::from(s.hops_to_sink.is_some()));
        h.word(s.hops_to_sink.unwrap_or(0) as u64);
        h.f64(s.relay_demand_j);
        h.f64(s.relay_spent_j);
        h.f64(s.headroom_j);
        h.f64(s.residual_j);
        h.word(u64::from(s.browned_out));
        h.word(u64::from(s.dead));
        h.opt_f64(s.death_s);
    }
    for n in &out.per_node {
        h.f64(n.duration_s);
        h.word(n.packets_delivered);
        h.f64(n.uptime_fraction);
        h.word(u64::from(n.brownout_count));
        h.word(u64::from(n.retune_count));
        h.word(u64::from(n.measurement_count));
        h.f64(n.tuning_energy_j);
        h.f64(n.harvested_energy_j);
        h.f64(n.consumed_energy_j);
        h.f64(n.min_v_store);
        h.f64(n.final_v_store);
        h.f64(n.avg_harvest_power_w);
        h.opt_f64(n.time_to_first_packet_s);
    }
    h.0
}

/// A benchmark-shaped fleet: the e13 node (0.5 s tick, harvester tuned
/// to 64 Hz) on a fixed 0.5 s duty cycle with seeded 10–30 mF storage,
/// placed uniformly at the e13 density (0.025 nodes/m², 12 m range)
/// with the sink at the centre. Nodes drain at different rates, so
/// relays brown out in every epoch and route repair fires.
fn drained_fleet_spec(n: usize) -> FleetSpec {
    seeded_fleet_spec(n, 0.025, (0.01, 0.02))
}

/// The drained fleet's node and seeds at `density` nodes/m², with
/// storage drawn uniformly from `base_f + [0, span_f)` farads.
fn seeded_fleet_spec(n: usize, density: f64, (base_f, span_f): (f64, f64)) -> FleetSpec {
    let side_m = (n as f64 / density).sqrt();
    let positions = Placement::UniformRandom {
        n,
        width_m: side_m,
        height_m: side_m,
        seed: 0xF1EE7,
    }
    .positions()
    .expect("valid placement");
    let mut cfg = NodeConfig::default_node();
    cfg.tick_s = 0.5;
    cfg.initial_position = cfg.harvester.position_for_frequency(64.0);
    cfg.policy = ehsim::node::DutyCyclePolicy::Fixed;
    cfg.task.period_s = 0.5;
    let sink = Point::new(side_m / 2.0, side_m / 2.0);
    let mut spec = FleetSpec::homogeneous(cfg, positions, sink, 12.0, 30.0);
    for (i, node) in spec.nodes.iter_mut().enumerate() {
        // A uniform draw in [0, 1) from the top 53 bits of a split seed.
        let u = (node_seed(0xC570, i) >> 11) as f64 / (1u64 << 53) as f64;
        node.config.storage.capacitance = base_f + span_f * u;
    }
    spec.fleet_seed = 0x5EED_0013;
    spec
}

/// Pins every result bit of multi-epoch fleet runs to values captured
/// before the node phase was checkpointed (when every epoch boundary
/// re-simulated its prefix from tick 0). A change to the node phase,
/// the snapshot boundaries or the accounting moves these hashes.
#[test]
fn multi_epoch_fleet_bits_are_pinned() {
    for (epochs, want) in [
        (1usize, 0xa26a_f143_11ce_831fu64),
        (4, 0x57db_8337_af60_068e),
        (7, 0x9ee4_f224_f974_1692),
    ] {
        let mut spec = drained_fleet_spec(600);
        spec.route_epochs = epochs;
        let fleet = FleetSimulator::prepare(spec, 2).expect("valid fleet");
        for dispatch in [Dispatch::Auto, Dispatch::PerSim] {
            let out = fleet.run_with_dispatch(2, dispatch).expect("fleet runs");
            let m = &out.metrics;
            assert_eq!(m.epochs.len(), epochs);
            assert!(m.browned_out_nodes > 0, "relays must brown out");
            if epochs > 1 {
                assert!(m.route_repairs >= 1, "{epochs} epochs: repair must fire");
            }
            let got = fleet_fingerprint(&out);
            assert_eq!(
                got, want,
                "{epochs} epochs, {dispatch:?}: fingerprint {got:#018x}"
            );
        }
    }
}

/// The drained fleet thinned to 0.015 nodes/m² with 4–24 mF storage: the
/// graph has pockets that no route reaches, relays on thin bridges brown
/// out, and energy-aware repair strands nodes that had a route. These
/// are the accounting branches the drained fleet never reaches: there,
/// no node is ever unreachable or stranded.
fn sparse_fleet_spec(n: usize) -> FleetSpec {
    seeded_fleet_spec(n, 0.015, (0.004, 0.02))
}

/// Pins every result bit of the sparse fleet under both routing
/// policies, at 1 and 4 route epochs, to values captured when each
/// epoch's accounting still materialised every node's route as a path
/// vector. Unreachable and stranded nodes are asserted, so the pin
/// cannot pass over those branches vacuously.
#[test]
fn sparse_fleet_bits_are_pinned() {
    for (routing, epochs, want) in [
        (RoutingPolicy::EnergyAware, 1usize, 0x96f3_882f_c819_610du64),
        (RoutingPolicy::EnergyAware, 4, 0x117e_da48_f518_fc5d),
        (RoutingPolicy::MinHop, 1, 0xc24e_baf9_0d48_3f2f),
        (RoutingPolicy::MinHop, 4, 0xca9f_02f1_0829_1cbd),
    ] {
        let mut spec = sparse_fleet_spec(600);
        spec.routing = routing;
        spec.route_epochs = epochs;
        let fleet = FleetSimulator::prepare(spec, 2).expect("valid fleet");
        for dispatch in [Dispatch::Auto, Dispatch::PerSim] {
            let label = format!("{routing:?}, {epochs} epochs, {dispatch:?}");
            let out = fleet.run_with_dispatch(2, dispatch).expect("fleet runs");
            let m = &out.metrics;
            assert!(
                m.unreachable_nodes > 0,
                "{label}: nodes must be unreachable"
            );
            if routing == RoutingPolicy::EnergyAware && epochs > 1 {
                let stranded: usize = m.epochs.iter().map(|a| a.newly_stranded.len()).sum();
                assert!(stranded > 0, "{label}: repair must strand nodes");
            }
            let got = fleet_fingerprint(&out);
            assert_eq!(got, want, "{label}: fingerprint {got:#018x}");
        }
    }
}

/// Wraps a source and emits a non-finite envelope frequency from
/// `t_poison` on, which fails the node's simulation at that tick.
struct PoisonAfter {
    inner: Arc<dyn VibrationSource>,
    t_poison: f64,
}

impl VibrationSource for PoisonAfter {
    fn acceleration(&self, t: f64) -> f64 {
        self.inner.acceleration(t)
    }
    fn envelope(&self, t: f64) -> Envelope {
        let mut env = self.inner.envelope(t);
        if t >= self.t_poison {
            env.freq_hz = f64::INFINITY;
        }
        env
    }
}

/// Run-time node failures surface epoch-major: the earliest epoch in
/// which any node fails wins, then the smallest failing node within it.
/// Node 5 fails in epoch 0 and node 2 only in epoch 3, so the run
/// reports node 5 — never the smallest failing node over the whole run.
#[test]
fn run_time_node_error_is_earliest_epoch_then_smallest_node() {
    let mut spec = homogeneous_spec(9);
    spec.duration_s = 40.0;
    spec.route_epochs = 4;
    let early = node_seed(spec.fleet_seed, 5);
    let late = node_seed(spec.fleet_seed, 2);
    let floor = FleetEnvironment::factory_floor();
    spec.environment = FleetEnvironment::new("poisoned-floor", move |seed| {
        let inner = floor.source_for(seed)?;
        let t_poison = if seed == early {
            3.0
        } else if seed == late {
            35.0
        } else {
            return Ok(inner);
        };
        Ok(Arc::new(PoisonAfter { inner, t_poison }) as Arc<dyn VibrationSource>)
    });
    let fleet = FleetSimulator::new(spec).expect("valid fleet");
    for threads in [1, 2, 8] {
        for dispatch in [Dispatch::Auto, Dispatch::PerSim] {
            match fleet.run_with_dispatch(threads, dispatch) {
                Err(NetError::Node { node, .. }) => {
                    assert_eq!(node, 5, "{dispatch:?}@{threads}t reported the wrong node")
                }
                Err(other) => panic!("{dispatch:?}@{threads}t: expected node error, got {other:?}"),
                Ok(_) => panic!("{dispatch:?}@{threads}t: expected node error, got a run"),
            }
        }
    }
}
