//! Shared fixtures for the experiment harnesses and benches.
//!
//! Every table and figure of the (reconstructed) DATE'13 evaluation has
//! a binary in `src/bin/` that regenerates it:
//!
//! | binary | artefact |
//! |---|---|
//! | `e1_rsm_accuracy` | Table E1 — RSM accuracy vs fresh simulations |
//! | `e2_cpu_time` | Table E2 — CPU cost: NR vs LSS vs system sim vs RSM |
//! | `e3_surfaces` | Figure E3 — response surfaces (ASCII + CSV) |
//! | `e4_tradeoff` | Figure E4 — packets-vs-margin Pareto front |
//! | `e5_tuning_benefit` | Scenario E5 — tuning vs no tuning under drift |
//! | `e6_optimization` | Table E6 — DoE flow vs classical optimisers |
//! | `e7_speedup` | Figure E7 — engine speed-up vs horizon |
//! | `e8_design_ablation` | Table E8 — design choice vs accuracy/cost |
//! | `e9_robust_scenarios` | Table E9 — single-scenario vs robust optima across an ensemble |
//! | `e10_hotpath` | `BENCH_hotpath.json` — simulator ticks/sec (reference vs prepared vs batch widths) and campaign wall-clock vs thread count |
//! | `e11_policies` | Table E11 — DoE-optimised static tuning vs adaptive energy-management policies |
//! | `e12_sequential` | Table E12 + `BENCH_sequential.json` — one-shot CCD vs budget-matched sequential RSM refinement |
//! | `e13_fleet` | Table E13 — shared vs per-cluster harvester tuning for a 1k-node fleet's delivered-packet throughput |
//!
//! Criterion benches (`benches/`) time the same kernels statistically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ehsim_circuit::Netlist;
use ehsim_core::experiment::{
    Campaign, EnsembleCampaign, PolicyFactorSet, PolicyFactors, StandardFactors,
};
use ehsim_core::indicators::Indicator;
use ehsim_core::scenario::{Scenario, ScenarioEnsemble};
use ehsim_harvester::Harvester;
use ehsim_net::{Placement, Point, Topology};
use ehsim_node::NodeConfig;
use ehsim_power::frontend::build_frontend;
use ehsim_power::Multiplier;
use ehsim_vibration::Sine;
use std::sync::Arc;

/// The flagship campaign used across experiments: the four standard
/// factors, the drifting-machine scenario, packets + margin + tuning
/// overhead.
pub fn flagship_campaign(duration_s: f64) -> Campaign {
    Campaign::standard(
        StandardFactors::default(),
        Scenario::drifting_machine(duration_s).expect("valid duration"),
        vec![
            Indicator::PacketsPerHour,
            Indicator::BrownoutMarginV,
            Indicator::TuningOverheadFraction,
        ],
    )
    .expect("flagship campaign is valid")
}

/// The ensemble campaign used by the robust-optimisation experiment
/// (e9): the four standard factors over the seeded five-environment
/// "factory floor" ensemble, with packets and brown-out margin as the
/// responses.
pub fn flagship_ensemble(duration_s: f64) -> EnsembleCampaign {
    EnsembleCampaign::standard(
        StandardFactors::default(),
        ScenarioEnsemble::factory_floor(duration_s).expect("valid duration"),
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("flagship ensemble campaign is valid")
}

/// The extended ensemble of the adaptive-policy experiment (e11): the
/// five canonical "factory floor" environments plus the two
/// non-stationary workloads (`fading-64Hz` load fades,
/// `intermittent-64Hz` on/off machinery blocks) that runtime
/// energy-management policies are built for, carrying 37.5 % of the
/// normalised weight between them.
pub fn e11_ensemble(duration_s: f64) -> ScenarioEnsemble {
    let mut entries: Vec<(Scenario, f64)> = ScenarioEnsemble::factory_floor(duration_s)
        .expect("valid duration")
        .entries()
        .to_vec();
    // factory_floor weights sum to 1.0; adding 0.3 + 0.3 of raw weight
    // gives the two non-stationary environments 0.375 of the
    // normalised total.
    entries.push((
        Scenario::fading_machine(duration_s).expect("valid duration"),
        0.3,
    ));
    entries.push((
        Scenario::intermittent_machine(duration_s).expect("valid duration"),
        0.3,
    ));
    ScenarioEnsemble::new(entries).expect("static ensemble is valid")
}

/// The *(tuning × policy)* design problem of the adaptive-policy
/// experiment (e11), deliberately energy-constrained so runtime
/// adaptation has something to do: tens-of-millifarads storage (tens
/// of minutes of buffering, far less than the run horizon) and task
/// periods down to one second, where the node's demand can outrun the
/// ~10 µW on-resonance harvest several-fold. The harvester starts
/// pre-tuned to the ensemble's 64 Hz backbone (the closed-loop
/// controller stays enabled for in-run corrections). In this regime a
/// single static compromise tuning cannot satisfy a no-brown-out
/// guarantee in every environment of a non-stationary ensemble without
/// sacrificing most of the rich environments' throughput — which is
/// precisely the gap the adaptive-policy literature says runtime
/// policies close.
pub fn e11_factors(set: PolicyFactorSet) -> PolicyFactors {
    let mut factors = PolicyFactors::standard(set);
    factors.base.initial_position = factors.base.harvester.position_for_frequency(64.0);
    factors.c_store = (0.03, 0.1);
    factors.task_period = (1.0, 20.0);
    factors
}

/// The 3-environment ensemble of the sequential-refinement experiment
/// (e12): the stationary backbone plus the two non-stationary workloads
/// whose brown-out cliffs give the packet response the non-quadratic
/// structure a single global RSM fits poorly — exactly the regime where
/// adaptive budget allocation should pay.
pub fn e12_ensemble(duration_s: f64) -> ScenarioEnsemble {
    ScenarioEnsemble::new(vec![
        (
            Scenario::stationary_machine(duration_s).expect("valid duration"),
            0.40,
        ),
        (
            Scenario::fading_machine(duration_s).expect("valid duration"),
            0.35,
        ),
        (
            Scenario::intermittent_machine(duration_s).expect("valid duration"),
            0.25,
        ),
    ])
    .expect("static ensemble is valid")
}

/// The energy-constrained five-factor campaign both e12 arms share:
/// the e11 node pushed one notch leaner (smaller storage, sub-second
/// periods allowed) over the *(tuning × threshold-policy)* space —
/// storage size, task period, and the three hysteresis-throttling
/// parameters. In this regime the fastest period brown-out-cycles the
/// node in the lean environments, so the packet optimum sits on a
/// cliff-edged ridge a single global quadratic fits poorly — exactly
/// the structure a shrinking region of interest resolves best, and the
/// policy factors give the surface enough dimensionality that the
/// sequential loop's fractional screen and fold-over/axial
/// augmentation both engage.
pub fn e12_campaign(duration_s: f64) -> EnsembleCampaign {
    let mut factors = e11_factors(PolicyFactorSet::default_threshold());
    factors.c_store = (0.015, 0.06);
    factors.task_period = (0.5, 16.0);
    EnsembleCampaign::adaptive(
        factors,
        e12_ensemble(duration_s),
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("e12 campaign is valid")
}

/// Number of min-hop ring clusters in the e13 per-cluster tuning arm.
pub const E13_N_RINGS: usize = 3;

/// Placement, sink position, and radio range of the e13 fleet at a
/// given scale: constant-density (0.025 nodes/m²) seeded-uniform
/// placement in a side × side square with the mains-powered sink at
/// the centre and a 12 m radio range (≈ 11 expected neighbours per
/// node — connected, but multi-hop from the second shell outward).
/// Holding the density rather than the area fixed keeps hop depth and
/// relay load comparable between the smoke-scale and full-scale
/// fleets.
pub fn e13_placement(n: usize) -> (Vec<Point>, Point, f64) {
    let side_m = (n as f64 / 0.025).sqrt();
    let positions = Placement::UniformRandom {
        n,
        width_m: side_m,
        height_m: side_m,
        seed: 0xE13,
    }
    .positions()
    .expect("e13 placement is valid");
    (positions, Point::new(side_m / 2.0, side_m / 2.0), 12.0)
}

/// The e13 node baseline: the default node pre-tuned to the factory
/// floor's 64 Hz backbone on a 0.5 s tick — every candidate tuning
/// shares the tick, so an e13 fleet is one tick length and runs in
/// contiguous batch chunks.
pub fn e13_base_config() -> NodeConfig {
    let mut cfg = NodeConfig::default_node();
    cfg.tick_s = 0.5;
    cfg.initial_position = cfg.harvester.position_for_frequency(64.0);
    cfg
}

/// Min-hop ring clusters for the e13 per-cluster arm: ring 0 holds the
/// sink-adjacent relays that carry the whole fleet's traffic, ring 1
/// the two-hop shell, ring 2 everything deeper (plus any stranded
/// node). The assignment is purely a function of the topology —
/// positions, sink, range — so every candidate tuning of either arm
/// shares the same clusters.
pub fn e13_rings(topology: &Topology) -> Vec<usize> {
    let routes = topology.min_hop_routes();
    (0..topology.n_nodes())
        .map(|i| match routes.hop_count(i) {
            Some(hops) => (hops - 1).min(E13_N_RINGS - 1),
            None => E13_N_RINGS - 1,
        })
        .collect()
}

/// The circuit-level front-end netlist used by the engine experiments,
/// with the name of the storage-voltage signal.
pub fn frontend_netlist() -> (Netlist, String) {
    let h = Harvester::default_tunable();
    let pos = h.position_for_frequency(64.0);
    let fe = build_frontend(
        &h,
        pos,
        Arc::new(Sine::new(0.9, 64.0).expect("valid source")),
        &Multiplier::default(),
        100e-6,
        0.0,
        None,
    )
    .expect("frontend builds");
    (fe.netlist, format!("v({})", fe.store_node_name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let c = flagship_campaign(60.0);
        assert_eq!(c.space().k(), 4);
        let (nl, signal) = frontend_netlist();
        assert!(nl.node_count() > 10);
        assert!(signal.starts_with("v("));
    }

    #[test]
    fn e12_fixtures_build() {
        let e = e12_ensemble(120.0);
        assert_eq!(e.len(), 3);
        assert!((e.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let c = e12_campaign(120.0);
        assert_eq!(c.space().k(), 5);
        assert_eq!(c.indicators().len(), 2);
    }

    #[test]
    fn e13_fixtures_build() {
        let (positions, sink, range_m) = e13_placement(48);
        assert_eq!(positions.len(), 48);
        let side_m = (48.0f64 / 0.025).sqrt();
        assert!(positions
            .iter()
            .all(|p| (0.0..=side_m).contains(&p.x) && (0.0..=side_m).contains(&p.y)));
        let topology = Topology::new(positions, sink, range_m).expect("valid topology");
        let rings = e13_rings(&topology);
        assert_eq!(rings.len(), 48);
        assert!(rings.iter().all(|&r| r < E13_N_RINGS));
        // The centred sink must have at least one one-hop neighbour at
        // this density, and deeper rings must exist.
        assert!(rings.contains(&0));
        assert!(rings.contains(&(E13_N_RINGS - 1)));
        let cfg = e13_base_config();
        assert_eq!(cfg.tick_s, 0.5);
    }

    #[test]
    fn e11_ensemble_extends_factory_floor() {
        let e = e11_ensemble(300.0);
        assert_eq!(e.len(), 7);
        let labels = e.labels();
        assert!(labels.contains(&"fading-64Hz"));
        assert!(labels.contains(&"intermittent-64Hz"));
        let w = e.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The two non-stationary environments carry 0.6/1.6 of the
        // normalised weight.
        assert!((w[5] + w[6] - 0.375).abs() < 1e-12);
    }
}
