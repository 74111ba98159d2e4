//! Implementation-independent oracles for the fleet's network
//! accounting, checked over random fleets.
//!
//! The differential suites pin the accounting's bits against earlier
//! code. These laws hold whatever the code looks like, for both routing
//! policies and any number of route epochs:
//!
//! * **The network creates no packets.** Per node,
//!   `delivered ≤ originated`, and per epoch audit,
//!   `packets_delivered ≤ packets_originated`, both exactly: forwarding
//!   fractions never exceed 1.
//! * **No relay spends more than it was asked for.**
//!   `relay_spent_j ≤ relay_demand_j` (to 1e-12 relative): demand is
//!   priced at full, unattenuated traffic.
//! * **A relay that kept up stays within its headroom.** In a
//!   single-epoch run, a relay that neither browned out nor died spent
//!   at most its headroom (to 1e-12 relative).
//! * **The audit trail adds up.** The epoch audits' originated and
//!   delivered packets sum to the fleet totals (to 1e-12 relative).
//! * **Hop counts are the final table's.** Every node's `hops_to_sink`
//!   equals [`Routes::hop_count`] on the final route table, rebuilt by
//!   the public router from the final browned-out set.
//!
//! The headroom law is not asserted for relays that browned out or died
//! relaying: the accounting charges receive energy on all the traffic
//! that arrives at a relay, including the share it cannot afford to
//! forward, so such relays end above their headroom.
//!
//! [`Routes::hop_count`]: ehsim_net::Routes::hop_count

use ehsim_net::{FleetSimulator, FleetSpec, PartitionPolicy, Placement, Point, RoutingPolicy};
use ehsim_node::{DutyCyclePolicy, NodeConfig};
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};

/// A uniform draw from `[lo, hi)`.
fn uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.unit_f64()
}

/// A random fleet of the drained-fleet shape: the e13 node (0.5 s tick,
/// harvester tuned to 64 Hz) on a fixed 0.5 s duty cycle, 30–300 nodes
/// placed uniformly at 0.012–0.025 nodes/m² with a 12 m range and the
/// sink at the centre, 4–30 mF storage per node, 1–4 route epochs over
/// 30 s, either routing policy.
fn random_fleet(rng: &mut TestRng) -> Result<FleetSpec, TestCaseError> {
    let n = 30 + rng.below(271);
    let side_m = (n as f64 / uniform(rng, 0.012, 0.025)).sqrt();
    let positions = Placement::UniformRandom {
        n,
        width_m: side_m,
        height_m: side_m,
        seed: rng.next_u64(),
    }
    .positions()
    .map_err(|e| TestCaseError::Fail(e.to_string()))?;
    let mut cfg = NodeConfig::default_node();
    cfg.tick_s = 0.5;
    cfg.initial_position = cfg.harvester.position_for_frequency(64.0);
    cfg.policy = DutyCyclePolicy::Fixed;
    cfg.task.period_s = 0.5;
    let sink = Point::new(side_m / 2.0, side_m / 2.0);
    let mut spec = FleetSpec::homogeneous(cfg, positions, sink, 12.0, 30.0);
    for node in &mut spec.nodes {
        node.config.storage.capacitance = uniform(rng, 0.004, 0.03);
    }
    spec.fleet_seed = rng.next_u64();
    spec.route_epochs = 1 + rng.below(4);
    spec.routing = if rng.below(2) == 0 {
        RoutingPolicy::MinHop
    } else {
        RoutingPolicy::EnergyAware
    };
    spec.on_partition = PartitionPolicy::Tolerate;
    Ok(spec)
}

/// `a ≤ b` to within `rel` of `b`'s magnitude.
fn le_rel(a: f64, b: f64, rel: f64) -> bool {
    a <= b + rel * b.abs()
}

/// Counts of the branches the random fleets reached, so the suite
/// cannot pass vacuously.
#[derive(Debug, Default)]
struct Reached {
    cases: usize,
    single_epoch: usize,
    repaired: usize,
    min_hop: usize,
    unreachable: usize,
    browned_relays: usize,
    dead_relays: usize,
    kept_up_relays: usize,
}

#[test]
fn relay_laws_hold_on_random_fleets() {
    let mut reached = Reached::default();
    proptest::run_cases(
        "relay_laws::relay_laws_hold_on_random_fleets",
        ProptestConfig::with_cases(48),
        |rng| {
            let spec = random_fleet(rng)?;
            let fail = |e: ehsim_net::NetError| TestCaseError::Fail(e.to_string());
            let fleet = FleetSimulator::prepare(spec.clone(), 2).map_err(fail)?;
            let out = fleet.run(2).map_err(fail)?;
            let m = &out.metrics;
            let label = format!(
                "{} nodes, {:?}, {} epochs",
                spec.nodes.len(),
                spec.routing,
                spec.route_epochs
            );

            for (i, s) in out.net.iter().enumerate() {
                prop_assert!(
                    s.delivered <= s.originated,
                    "{label}: node {i} delivered {} of {} packets",
                    s.delivered,
                    s.originated
                );
                prop_assert!(
                    le_rel(s.relay_spent_j, s.relay_demand_j, 1e-12),
                    "{label}: node {i} spent {} J of a {} J demand",
                    s.relay_spent_j,
                    s.relay_demand_j
                );
                if spec.route_epochs == 1 && !s.browned_out && !s.dead {
                    prop_assert!(
                        le_rel(s.relay_spent_j, s.headroom_j, 1e-12),
                        "{label}: node {i} kept up but spent {} J of a {} J headroom",
                        s.relay_spent_j,
                        s.headroom_j
                    );
                }
            }

            prop_assert_eq!(m.epochs.len(), spec.route_epochs);
            let (mut originated, mut delivered) = (0.0f64, 0.0f64);
            for a in &m.epochs {
                prop_assert!(
                    a.packets_delivered <= a.packets_originated,
                    "{label}: epoch {} delivered {} of {} packets",
                    a.epoch,
                    a.packets_delivered,
                    a.packets_originated
                );
                originated += a.packets_originated;
                delivered += a.packets_delivered;
            }
            for (sum, total, what) in [
                (originated, m.packets_originated, "originated"),
                (delivered, m.packets_delivered, "delivered"),
            ] {
                prop_assert!(
                    (sum - total).abs() <= 1e-12 * total.abs(),
                    "{label}: epoch audits sum to {sum} packets {what}, the fleet to {total}"
                );
            }

            let browned: Vec<bool> = out.net.iter().map(|s| s.browned_out).collect();
            let routes = match spec.routing {
                RoutingPolicy::MinHop => fleet.topology().min_hop_routes(),
                RoutingPolicy::EnergyAware => fleet
                    .topology()
                    .energy_aware_routes(&spec.radio, spec.payload_bits, &browned)
                    .map_err(fail)?,
            };
            for (i, s) in out.net.iter().enumerate() {
                prop_assert_eq!(s.hops_to_sink, routes.hop_count(i));
            }
            let unreachable = out.net.iter().filter(|s| s.hops_to_sink.is_none()).count();
            prop_assert_eq!(m.unreachable_nodes as usize, unreachable);

            reached.cases += 1;
            reached.single_epoch += usize::from(spec.route_epochs == 1);
            reached.repaired += usize::from(m.route_repairs > 0);
            reached.min_hop += usize::from(spec.routing == RoutingPolicy::MinHop);
            reached.unreachable += usize::from(unreachable > 0);
            let relays = || out.net.iter().filter(|s| s.relay_demand_j > 0.0);
            reached.browned_relays += relays().filter(|s| s.browned_out).count();
            reached.dead_relays += relays().filter(|s| s.dead).count();
            reached.kept_up_relays += relays()
                .filter(|s| spec.route_epochs == 1 && !s.browned_out && !s.dead)
                .count();
            Ok(())
        },
    );
    eprintln!("{reached:?}");
    assert!(
        reached.single_epoch >= 5
            && reached.repaired >= 5
            && reached.min_hop >= 5
            && reached.unreachable >= 5
            && reached.browned_relays > 0
            && reached.dead_relays > 0
            && reached.kept_up_relays > 0,
        "the random fleets missed a branch: {reached:?}"
    );
}
