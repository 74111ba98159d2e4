//! Campaign-level batched-dispatch equivalence tests.
//!
//! `Campaign::run_design` / `EnsembleCampaign::run_design` run every
//! design point as a lane of the SoA batch kernel, grouped by tick
//! program. These tests pin the dispatch contract: responses are
//! bit-identical to the per-point `evaluate_coded` oracle for every
//! thread count, designs that mix tick lengths give identical results,
//! and a mid-run failure surfaces the per-sim error.

use ehsim_core::experiment::{
    Campaign, Configure, EnsembleCampaign, PolicyFactorSet, PolicyFactors, StandardFactors,
};
use ehsim_core::indicators::Indicator;
use ehsim_core::scenario::{Scenario, ScenarioEnsemble};
use ehsim_core::space::{DesignSpace, Factor};
use ehsim_doe::design::factorial::full_factorial_2k;
use ehsim_node::NodeConfig;
use ehsim_vibration::{Envelope, Sine, VibrationSource};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn indicators() -> Vec<Indicator> {
    vec![
        Indicator::PacketsPerHour,
        Indicator::UptimeFraction,
        Indicator::FinalStorageV,
        Indicator::EnergyBalanceJ,
    ]
}

fn assert_rows_bitwise_eq(got: &[Vec<f64>], want: &[Vec<f64>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: row {r} width");
        for (c, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: row {r} col {c}: {a} != {b}"
            );
        }
    }
}

#[test]
fn standard_campaign_matches_per_point_oracle_for_every_thread_count() {
    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::stationary_machine(600.0).unwrap(),
        indicators(),
    )
    .unwrap();
    let design = full_factorial_2k(4).unwrap();
    let oracle: Vec<Vec<f64>> = design
        .points()
        .iter()
        .map(|p| campaign.evaluate_coded(p).unwrap())
        .collect();
    for threads in THREAD_COUNTS {
        let result = campaign.run_design(&design, threads).unwrap();
        assert_eq!(result.sim_count, 16);
        assert_rows_bitwise_eq(
            &result.responses,
            &oracle,
            &format!("standard campaign, {threads} threads"),
        );
    }
}

#[test]
fn adaptive_policy_campaign_matches_per_point_oracle() {
    let campaign = Campaign::adaptive(
        PolicyFactors::standard(PolicyFactorSet::default_energy_aware()),
        Scenario::drifting_machine(600.0).unwrap(),
        indicators(),
    )
    .unwrap();
    let design = full_factorial_2k(5).unwrap();
    let oracle: Vec<Vec<f64>> = design
        .points()
        .iter()
        .map(|p| campaign.evaluate_coded(p).unwrap())
        .collect();
    for threads in THREAD_COUNTS {
        let result = campaign.run_design(&design, threads).unwrap();
        assert_rows_bitwise_eq(
            &result.responses,
            &oracle,
            &format!("adaptive campaign, {threads} threads"),
        );
    }
}

#[test]
fn ensemble_campaign_matches_oracle_and_is_thread_count_invariant() {
    let ensemble = ScenarioEnsemble::uniform(vec![
        Scenario::stationary_machine(600.0).unwrap(),
        Scenario::drifting_machine(900.0).unwrap(),
    ])
    .unwrap();
    let campaign =
        EnsembleCampaign::standard(StandardFactors::default(), ensemble, indicators()).unwrap();
    let design = full_factorial_2k(4).unwrap();

    let mut oracle_per_scenario = vec![Vec::new(); 2];
    let mut oracle_aggregate = Vec::new();
    for p in design.points() {
        let (per_scenario, aggregate) = campaign.evaluate_coded(p).unwrap();
        for (s, row) in per_scenario.into_iter().enumerate() {
            oracle_per_scenario[s].push(row);
        }
        oracle_aggregate.push(aggregate);
    }

    // 16 points over 8 threads run in 2-lane chunks; 32 threads exceed
    // the point count and run 1-lane chunks, one job per (point,
    // scenario) — both must match the oracle bit for bit.
    for threads in [1, 2, 8, 32] {
        let result = campaign.run_design(&design, threads).unwrap();
        assert_eq!(result.aggregate.sim_count, 32);
        for s in 0..2 {
            assert_rows_bitwise_eq(
                &result.per_scenario[s].responses,
                &oracle_per_scenario[s],
                &format!("ensemble scenario {s}, {threads} threads"),
            );
        }
        assert_rows_bitwise_eq(
            &result.aggregate.responses,
            &oracle_aggregate,
            &format!("ensemble aggregate, {threads} threads"),
        );
    }
}

#[test]
fn mixed_tick_design_matches_oracle() {
    // A configure that varies tick_s across the design box: two tick
    // programs, each batched on its own.
    let configure: Configure = Arc::new(|phys: &[f64]| {
        let mut cfg = NodeConfig::default_node();
        cfg.storage.capacitance = phys[0];
        cfg.task.period_s = phys[1];
        cfg.tick_s = if phys[0] > 0.2 { 0.25 } else { 0.2 };
        cfg
    });
    let space = DesignSpace::new(vec![
        Factor::new("c_store_f", 0.05, 0.5).unwrap(),
        Factor::new("task_period_s", 2.0, 30.0).unwrap(),
    ])
    .unwrap();
    let campaign = Campaign::new(
        space.clone(),
        configure.clone(),
        Scenario::stationary_machine(600.0).unwrap(),
        indicators(),
    )
    .unwrap();
    let design = full_factorial_2k(2).unwrap();
    let oracle: Vec<Vec<f64>> = design
        .points()
        .iter()
        .map(|p| campaign.evaluate_coded(p).unwrap())
        .collect();
    for threads in THREAD_COUNTS {
        let result = campaign.run_design(&design, threads).unwrap();
        assert_rows_bitwise_eq(
            &result.responses,
            &oracle,
            &format!("mixed-tick campaign, {threads} threads"),
        );
    }

    let ensemble = ScenarioEnsemble::uniform(vec![
        Scenario::stationary_machine(600.0).unwrap(),
        Scenario::drifting_machine(300.0).unwrap(),
    ])
    .unwrap();
    let campaign = EnsembleCampaign::new(space, configure, ensemble, indicators()).unwrap();
    let oracle: Vec<(Vec<Vec<f64>>, Vec<f64>)> = design
        .points()
        .iter()
        .map(|p| campaign.evaluate_coded(p).unwrap())
        .collect();
    for threads in THREAD_COUNTS {
        let result = campaign.run_design(&design, threads).unwrap();
        for s in 0..2 {
            let want: Vec<Vec<f64>> = oracle.iter().map(|(per, _)| per[s].clone()).collect();
            assert_rows_bitwise_eq(
                &result.per_scenario[s].responses,
                &want,
                &format!("mixed-tick ensemble scenario {s}, {threads} threads"),
            );
        }
        let want: Vec<Vec<f64>> = oracle.iter().map(|(_, agg)| agg.clone()).collect();
        assert_rows_bitwise_eq(
            &result.aggregate.responses,
            &want,
            &format!("mixed-tick ensemble aggregate, {threads} threads"),
        );
    }
}

/// A source whose envelope goes non-finite after `t_poison`, killing
/// the Thevenin stage mid-run.
#[derive(Debug)]
struct PoisonAfter {
    inner: Sine,
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

#[test]
fn mid_run_failure_surfaces_the_per_sim_error() {
    let scenario = Scenario::new(
        Arc::new(PoisonAfter {
            inner: Sine::new(0.9, 64.0).unwrap(),
            t_poison: 120.0,
        }),
        600.0,
        "poisoned",
    )
    .unwrap();
    let campaign = Campaign::standard(StandardFactors::default(), scenario, indicators()).unwrap();
    let design = full_factorial_2k(4).unwrap();
    // The shared source poisons every point at the same tick, so the
    // smallest failing job is point 0; the campaign error must be that
    // point's per-sim error, for any thread count.
    let want = campaign
        .evaluate_coded(&design.points()[0])
        .unwrap_err()
        .to_string();
    for threads in THREAD_COUNTS {
        let got = campaign
            .run_design(&design, threads)
            .unwrap_err()
            .to_string();
        assert_eq!(got, want, "{threads} threads");
    }
}
