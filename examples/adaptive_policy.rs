//! Quickstart for the adaptive energy-management policy API.
//!
//! 1. Give a node a runtime policy (`Threshold`, `EnergyAware`) and
//!    watch it ride out a non-stationary environment that breaks the
//!    static configuration.
//! 2. Optimise the *policy parameters themselves* with the same DoE
//!    flow the paper uses for static tunings, via `PolicyFactors`.
//!
//! Run with: `cargo run --release --example adaptive_policy`

use ehsim::core::experiment::{EnsembleCampaign, PolicyFactorSet, PolicyFactors};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::{Scenario, ScenarioEnsemble};
use ehsim::doe::optimize::{Goal, RobustGoal};
use ehsim::node::{NodeConfig, PolicyKind, SystemSimulator};
use ehsim::policy::{EnergyAware, Threshold};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    println!("=== ehsim adaptive-policy quickstart ===\n");

    // A deliberately stressed node: modest storage, an ambitious 2 s
    // sampling period, pre-tuned to the 64 Hz machine it lives on.
    let mut base = NodeConfig::default_node();
    base.initial_position = base.harvester.position_for_frequency(64.0);
    base.storage.capacitance = 0.05;
    base.task.period_s = 2.0;
    base.policy = ehsim::node::DutyCyclePolicy::Fixed;

    // The environment: the machine's vibration level fades to 25 % for
    // a third of every run — no amount of frequency retuning helps.
    let scenario = Scenario::fading_machine(14400.0)?;

    // 1. Same node, three runtime policies.
    let policies = [
        ("static", PolicyKind::Static),
        (
            "threshold",
            PolicyKind::Threshold(Threshold {
                v_low: 2.9,
                v_high: 3.1,
                throttle_scale: 16.0,
                skip_while_throttled: false,
            }),
        ),
        (
            "energy-aware",
            PolicyKind::EnergyAware(EnergyAware::default()),
        ),
    ];
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12}",
        "policy", "packets/h", "uptime", "brownouts", "min Vstore"
    );
    for (name, policy) in policies {
        let mut cfg = base.clone();
        cfg.energy_policy = policy;
        let m =
            SystemSimulator::new(cfg)?.run(scenario.source().as_ref(), scenario.duration_s())?;
        println!(
            "{:<14} {:>10.0} {:>9.0}% {:>10} {:>11.2} V",
            name,
            m.packets_delivered as f64 * 3600.0 / m.duration_s,
            m.uptime_fraction * 100.0,
            m.brownout_count,
            m.min_v_store,
        );
    }

    // 2. Let the DoE flow pick the policy parameters: a (tuning ×
    //    policy) design space, one batched campaign over a small
    //    ensemble, then a constrained robust optimisation that demands
    //    a brown-out margin in *every* environment.
    println!("\noptimising threshold-policy parameters with the DoE flow...");
    let mut factors = PolicyFactors::standard(PolicyFactorSet::default_threshold());
    factors.base.initial_position = factors.base.harvester.position_for_frequency(64.0);
    factors.c_store = (0.03, 0.1);
    factors.task_period = (1.0, 20.0);
    let ensemble = ScenarioEnsemble::new(vec![
        (Scenario::stationary_machine(3600.0)?, 0.6),
        (Scenario::fading_machine(3600.0)?, 0.4),
    ])?;
    let campaign = EnsembleCampaign::adaptive(
        factors,
        ensemble,
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )?;
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 })
        .with_threads(4)
        .run_ensemble(&campaign)?;
    let best = surrogates.optimize_robust_constrained(
        0,
        Goal::Maximize,
        RobustGoal::WeightedMean,
        &[(1, 0.1)], // ≥ 0.1 V brown-out margin in every scenario
        42,
    )?;
    let physical = campaign.space().decode(&best.x);
    println!("DoE-optimised design point:");
    for (factor, value) in campaign.space().factors().iter().zip(&physical) {
        println!("  {:<16} = {value:.4}", factor.name());
    }
    println!("predicted packets/hour (weighted mean): {:.0}", best.value);
    Ok(())
}
