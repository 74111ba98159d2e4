//! The route-repair fixture: a committed 4-node geometry in which a
//! relay browns out mid-run and tick-interleaved route repair
//! demonstrably pays off.
//!
//! Geometry (radio range 13 m, sink at the origin):
//!
//! ```text
//!   sink(0,0) ---10.0--- R(10,0) ---12.9--- S1(22.9,0)
//!        \                /   \
//!        10.2         8.06    12.8
//!          \            /       \
//!          A(2,-10) --9.22-- S2(11,-8)
//! ```
//!
//! * `S1` (node 0) can reach **only** the relay `R` — every other
//!   vertex is out of range.
//! * `S2` (node 1) reaches both `R` and `A`; via `R` is the cheaper
//!   energy-aware route (squared-distance sum 165 vs 189), so its
//!   initial route relays through `R` and repair must move it to `A`.
//! * `R` (node 2) carries a deliberately starved config — a small
//!   supercap and a heavy sense duty — so it browns out mid-run.
//! * `A` (node 3) and the sink survive throughout.
//!
//! Contracts pinned here:
//!
//! * the epoch-by-epoch audit shows `R` browning out in a *middle*
//!   epoch (it survives epoch 0) and routes being repaired at that
//!   boundary;
//! * a static-routing run (`route_epochs = 1`) of the same spec
//!   excludes `R` for the whole accounting pass — stranding `S1`
//!   completely — so the repaired run delivers **strictly more
//!   packets**, with `S1`'s pre-brown-out traffic the difference;
//! * the repaired run's full outcome (metrics, audit trail, per-node
//!   accounts) is bit-identical across 1/2/8 threads and every
//!   dispatch strategy.

use ehsim_net::{
    Dispatch, EpochAudit, FleetMetrics, FleetNode, FleetOutcome, FleetSimulator, FleetSpec, Point,
    RadioEnergyModel, RoutingPolicy, Topology,
};
use ehsim_node::NodeConfig;

const RANGE_M: f64 = 13.0;
const DURATION_S: f64 = 240.0;
const EPOCHS: usize = 4;

const S1: usize = 0;
const S2: usize = 1;
const RELAY: usize = 2;
const ALT: usize = 3;

fn fixture_spec(route_epochs: usize) -> FleetSpec {
    let mut cfg = NodeConfig::default_node();
    cfg.tick_s = 0.5;
    // Fixed duty cycle: every node fires at its nominal period, so
    // packets originate uniformly through the run and each epoch's
    // slice of traffic is predictable (the adaptive default would
    // front-load a silence then burst, muddying the per-epoch audit).
    cfg.policy = ehsim_node::DutyCyclePolicy::Fixed;

    // The relay's starved twin: a supercap two orders of magnitude
    // smaller and a sensing duty heavy enough (~130 µW net drain
    // against a ~14 µW harvest) that it browns out around t ≈ 133 s —
    // inside epoch 2 of 4 — after relaying faithfully through epochs
    // 0 and 1. Tuning is disabled because the startup retune's
    // actuation energy (~78 mJ) would empty the small cap instantly.
    // Same tick, so every node shares one batch.
    let mut relay_cfg = cfg.clone();
    relay_cfg.storage.capacitance = 0.008;
    relay_cfg.tuning.enabled = false;
    relay_cfg.task.period_s = 1.0;
    relay_cfg.task.sense_power_w = 0.02;

    let positions = [
        Point::new(22.9, 0.0),  // S1 — only neighbour is R
        Point::new(11.0, -8.0), // S2 — reaches R and A
        Point::new(10.0, 0.0),  // R — the browning relay
        Point::new(2.0, -10.0), // A — the repair detour
    ];
    let nodes = positions
        .iter()
        .enumerate()
        .map(|(i, &position)| FleetNode {
            config: if i == RELAY {
                relay_cfg.clone()
            } else {
                cfg.clone()
            },
            position,
        })
        .collect();

    let mut spec =
        FleetSpec::homogeneous(cfg, Vec::new(), Point::new(0.0, 0.0), RANGE_M, DURATION_S);
    spec.nodes = nodes;
    spec.route_epochs = route_epochs;
    spec.routing = RoutingPolicy::EnergyAware;
    spec
}

fn assert_audits_bit_identical(a: &EpochAudit, b: &EpochAudit, label: &str) {
    assert_eq!(a.epoch, b.epoch, "{label}: epoch index");
    assert_eq!(
        a.t_start_s.to_bits(),
        b.t_start_s.to_bits(),
        "{label}: epoch {} t_start",
        a.epoch
    );
    assert_eq!(
        a.t_end_s.to_bits(),
        b.t_end_s.to_bits(),
        "{label}: epoch {} t_end",
        a.epoch
    );
    assert_eq!(
        a.excluded_relays, b.excluded_relays,
        "{label}: epoch {} excluded_relays",
        a.epoch
    );
    assert_eq!(
        a.newly_browned, b.newly_browned,
        "{label}: epoch {} newly_browned",
        a.epoch
    );
    assert_eq!(
        a.rerouted, b.rerouted,
        "{label}: epoch {} rerouted",
        a.epoch
    );
    assert_eq!(
        a.unreachable_nodes, b.unreachable_nodes,
        "{label}: epoch {} unreachable_nodes",
        a.epoch
    );
    assert_eq!(
        a.newly_stranded, b.newly_stranded,
        "{label}: epoch {} newly_stranded",
        a.epoch
    );
    assert_eq!(
        a.packets_originated.to_bits(),
        b.packets_originated.to_bits(),
        "{label}: epoch {} packets_originated",
        a.epoch
    );
    assert_eq!(
        a.packets_delivered.to_bits(),
        b.packets_delivered.to_bits(),
        "{label}: epoch {} packets_delivered",
        a.epoch
    );
}

fn assert_fleet_metrics_bit_identical(a: &FleetMetrics, b: &FleetMetrics, label: &str) {
    for (x, y, field) in [
        (a.duration_s, b.duration_s, "duration_s"),
        (
            a.packets_originated,
            b.packets_originated,
            "packets_originated",
        ),
        (
            a.packets_delivered,
            b.packets_delivered,
            "packets_delivered",
        ),
        (
            a.delivery_fraction,
            b.delivery_fraction,
            "delivery_fraction",
        ),
        (a.relay_energy_j, b.relay_energy_j, "relay_energy_j"),
        (
            a.mean_hop_relay_energy_j,
            b.mean_hop_relay_energy_j,
            "mean_hop_relay_energy_j",
        ),
        (a.first_death_s, b.first_death_s, "first_death_s"),
        (a.residual_mean_j, b.residual_mean_j, "residual_mean_j"),
        (
            a.residual_spread_j,
            b.residual_spread_j,
            "residual_spread_j",
        ),
        (
            a.min_brownout_margin_v,
            b.min_brownout_margin_v,
            "min_brownout_margin_v",
        ),
        (
            a.mean_uptime_fraction,
            b.mean_uptime_fraction,
            "mean_uptime_fraction",
        ),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {field} ({x} vs {y})");
    }
    assert_eq!(a.n_nodes, b.n_nodes, "{label}: n_nodes");
    assert_eq!(a.dead_nodes, b.dead_nodes, "{label}: dead_nodes");
    assert_eq!(
        a.browned_out_nodes, b.browned_out_nodes,
        "{label}: browned_out_nodes"
    );
    assert_eq!(
        a.unreachable_nodes, b.unreachable_nodes,
        "{label}: unreachable_nodes"
    );
    assert_eq!(a.route_repairs, b.route_repairs, "{label}: route_repairs");
    assert_eq!(a.epochs.len(), b.epochs.len(), "{label}: epoch count");
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_audits_bit_identical(x, y, label);
    }
}

fn assert_outcomes_bit_identical(a: &FleetOutcome, b: &FleetOutcome, label: &str) {
    assert_fleet_metrics_bit_identical(&a.metrics, &b.metrics, label);
    assert_eq!(a.net.len(), b.net.len(), "{label}: net length");
    for (i, (x, y)) in a.net.iter().zip(&b.net).enumerate() {
        assert_eq!(
            x.originated.to_bits(),
            y.originated.to_bits(),
            "{label}: node {i} originated"
        );
        assert_eq!(
            x.delivered.to_bits(),
            y.delivered.to_bits(),
            "{label}: node {i} delivered"
        );
        assert_eq!(x.hops_to_sink, y.hops_to_sink, "{label}: node {i} hops");
        assert_eq!(
            x.relay_spent_j.to_bits(),
            y.relay_spent_j.to_bits(),
            "{label}: node {i} relay_spent_j"
        );
        assert_eq!(
            x.death_s.map(f64::to_bits),
            y.death_s.map(f64::to_bits),
            "{label}: node {i} death_s"
        );
        assert_eq!(x.browned_out, y.browned_out, "{label}: node {i} browned");
    }
    for (i, (x, y)) in a.per_node.iter().zip(&b.per_node).enumerate() {
        assert_eq!(
            x.packets_delivered, y.packets_delivered,
            "{label}: node {i} packets"
        );
        assert_eq!(
            x.final_v_store.to_bits(),
            y.final_v_store.to_bits(),
            "{label}: node {i} final_v_store"
        );
    }
}

/// The headline acceptance criterion: mid-run route repair reroutes
/// around the browned-out relay, so the repaired run delivers
/// **strictly more** packets than the static-routing run of the
/// *identical* spec.
#[test]
fn repaired_run_beats_static_routing() {
    let static_run = FleetSimulator::new(fixture_spec(1))
        .expect("static fixture prepares")
        .run(2)
        .expect("static fixture runs");
    let repaired = FleetSimulator::new(fixture_spec(EPOCHS))
        .expect("repaired fixture prepares")
        .run(2)
        .expect("repaired fixture runs");

    // Static routing excludes the (eventually browned) relay for the
    // whole accounting pass, stranding S1 from t = 0: its traffic
    // never arrives and it has no route.
    assert_eq!(static_run.metrics.route_repairs, 0);
    assert_eq!(static_run.metrics.epochs.len(), 1);
    assert_eq!(static_run.net[S1].delivered, 0.0);
    assert_eq!(static_run.net[S1].hops_to_sink, None);

    // The repaired run carried S1's traffic while the relay was
    // alive: strictly more delivered packets overall.
    assert!(repaired.net[S1].delivered > 0.0);
    assert!(
        repaired.metrics.packets_delivered > static_run.metrics.packets_delivered,
        "repair must beat static routing: {} vs {}",
        repaired.metrics.packets_delivered,
        static_run.metrics.packets_delivered
    );
    assert_eq!(repaired.metrics.route_repairs, 1);
}

/// The audit trail tells the story: the relay survives epoch 0,
/// browns out in a middle epoch, routes are repaired at exactly that
/// boundary, and S1 — whose only neighbour it was — is stranded from
/// then on.
#[test]
fn audit_trail_shows_midrun_brownout_and_repair() {
    let fleet = FleetSimulator::new(fixture_spec(EPOCHS)).expect("fixture prepares");
    let out = fleet.run(2).expect("fixture runs");
    let audits = &out.metrics.epochs;
    assert_eq!(audits.len(), EPOCHS);

    // Epoch 0: everyone alive, everyone reachable, no repair.
    assert_eq!(audits[0].excluded_relays, 0);
    assert_eq!(audits[0].unreachable_nodes, 0);
    assert!(!audits[0].rerouted);
    assert!(audits[0].newly_browned.is_empty());
    assert!(audits[0].packets_delivered > 0.0);

    // The relay browns out in a *middle* epoch — after relaying for
    // at least one full epoch, with at least one epoch of aftermath.
    let e = audits
        .iter()
        .position(|a| a.newly_browned.contains(&RELAY))
        .expect("the relay must brown out during the run");
    assert!(
        (1..EPOCHS - 1).contains(&e),
        "relay browned in epoch {e}, not mid-run"
    );
    assert_eq!(audits[e].newly_browned, vec![RELAY]);
    assert!(audits[e].rerouted, "brown-out must trigger a route repair");
    assert_eq!(audits[e].excluded_relays, 1);
    // S1 loses its only neighbour at exactly that boundary.
    assert_eq!(audits[e].newly_stranded, vec![S1]);
    assert_eq!(audits[e - 1].unreachable_nodes, 0);
    // The aftermath: the exclusion persists, nothing else reroutes.
    for a in &audits[e..] {
        assert_eq!(a.unreachable_nodes, 1);
        assert_eq!(a.excluded_relays, 1);
    }
    for a in &audits[e + 1..] {
        assert!(!a.rerouted);
        assert!(a.newly_stranded.is_empty());
    }
    // Delivery keeps flowing for the survivors after the repair.
    assert!(audits[EPOCHS - 1].packets_delivered > 0.0);
}

/// The topology-level view of the same story: with the relay alive,
/// S2's cheapest route goes through it; with the relay excluded, the
/// router moves S2 to the detour node and S1 has no route at all.
#[test]
fn repair_moves_s2_to_the_detour() {
    let spec = fixture_spec(EPOCHS);
    let positions: Vec<Point> = spec.nodes.iter().map(|n| n.position).collect();
    let topo = Topology::new(positions, spec.sink, spec.range_m).expect("fixture topology");
    let radio = RadioEnergyModel::typical();

    let before = topo
        .energy_aware_routes(&radio, spec.payload_bits, &[false; 4])
        .expect("routes with the relay alive");
    assert_eq!(before.next_hop(S1), Some(RELAY));
    assert_eq!(before.next_hop(S2), Some(RELAY));

    let mut blocked = [false; 4];
    blocked[RELAY] = true;
    let after = topo
        .energy_aware_routes(&radio, spec.payload_bits, &blocked)
        .expect("routes with the relay excluded");
    assert_eq!(after.next_hop(S2), Some(ALT), "S2 must reroute via A");
    assert_eq!(after.next_hop(S1), None, "S1's only neighbour is gone");
    assert!(after.is_reachable(ALT), "the detour node keeps its route");
}

/// Under [`PartitionPolicy::Error`] the stranding is a typed error
/// naming the first affected epoch and the smallest stranded node —
/// never a silent zero in the delivery column.
#[test]
fn partition_policy_error_names_epoch_and_node() {
    let mut spec = fixture_spec(EPOCHS);
    spec.on_partition = ehsim_net::PartitionPolicy::Error;
    let fleet = FleetSimulator::new(spec).expect("fixture prepares");
    match fleet.run(2) {
        Err(ehsim_net::NetError::Partitioned { epoch, node }) => {
            assert_eq!(node, S1);
            assert!((1..EPOCHS).contains(&epoch), "partition at epoch {epoch}");
        }
        other => panic!("expected a typed partition error, got {other:?}"),
    }
}

/// The repaired run — audit trail included — is bit-identical across
/// thread counts and every dispatch strategy.
#[test]
fn repaired_run_is_bit_identical_across_threads_and_dispatch() {
    let fleet = FleetSimulator::new(fixture_spec(EPOCHS)).expect("fixture prepares");
    let base = fleet
        .run_with_dispatch(1, Dispatch::PerSim)
        .expect("base run");
    assert_eq!(base.metrics.route_repairs, 1);
    for (threads, dispatch) in [
        (1, Dispatch::Auto),
        (2, Dispatch::Auto),
        (2, Dispatch::PerSim),
        (8, Dispatch::PerSim),
        (8, Dispatch::Auto),
    ] {
        let out = fleet
            .run_with_dispatch(threads, dispatch)
            .expect("variant run");
        assert_outcomes_bit_identical(
            &base,
            &out,
            &format!("threads={threads} dispatch={dispatch:?}"),
        );
    }
}
