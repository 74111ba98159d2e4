//! Integration tests for the scenario-ensemble subsystem: the batched
//! multi-scenario campaign, the weighted aggregation contract, and the
//! robust cross-scenario optimisation layer built on top of it.

use ehsim::core::experiment::{EnsembleCampaign, StandardFactors};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::{Scenario, ScenarioEnsemble};
use ehsim::doe::optimize::{Goal, RobustGoal};

fn ensemble_campaign(duration_s: f64) -> EnsembleCampaign {
    let ensemble = ScenarioEnsemble::new(vec![
        (Scenario::stationary_machine(duration_s).unwrap(), 0.5),
        (Scenario::drifting_machine(duration_s).unwrap(), 0.3),
        (Scenario::industrial_spectrum(duration_s).unwrap(), 0.2),
    ])
    .expect("valid ensemble");
    EnsembleCampaign::standard(
        StandardFactors::default(),
        ensemble,
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("valid campaign")
}

#[test]
fn batched_ensemble_pass_equals_sequential_single_scenario_campaigns() {
    let ec = ensemble_campaign(240.0);
    let design = DesignChoice::LatinHypercube { n: 12, seed: 3 }
        .build(4)
        .expect("design builds");
    let batched = ec.run_design(&design, 8).expect("batched pass");

    // Identity 1: each per-scenario slice of the batched pass is
    // bit-identical to a standalone single-scenario campaign.
    for s in 0..ec.ensemble().len() {
        let single = ec
            .campaign_for(s)
            .expect("scenario view")
            .run_design(&design, 8)
            .expect("single-scenario pass");
        assert_eq!(
            single.responses, batched.per_scenario[s].responses,
            "scenario {s} diverged between batched and sequential runs"
        );
    }

    // Identity 2: the aggregate is the hand-computed weighted mean of
    // the per-scenario responses, at every run and indicator.
    let w = ec.ensemble().weights();
    for run in 0..design.n_runs() {
        for i in 0..ec.indicators().len() {
            let want: f64 = (0..ec.ensemble().len())
                .map(|s| w[s] * batched.per_scenario[s].responses[run][i])
                .sum();
            let got = batched.aggregate.responses[run][i];
            assert!(
                (got - want).abs() < 1e-12,
                "run {run}, indicator {i}: aggregate {got} != weighted mean {want}"
            );
        }
    }
    assert_eq!(
        batched.aggregate.sim_count,
        design.n_runs() * ec.ensemble().len()
    );
}

#[test]
fn ensemble_flow_is_deterministic_across_invocations() {
    let fingerprint = || {
        let s = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 1 })
            .with_threads(8)
            .run_ensemble(&ensemble_campaign(240.0))
            .expect("flow runs");
        let robust = s
            .optimize_robust(0, Goal::Maximize, RobustGoal::WorstCase, 7)
            .expect("robust optimisation");
        let mut bits: Vec<u64> = robust.x.iter().map(|v| v.to_bits()).collect();
        bits.push(robust.value.to_bits());
        for sc in 0..s.n_scenarios() {
            for i in 0..s.indicators().len() {
                let x = s.space().center();
                bits.push(s.predict_scenario(sc, i, &x).expect("prediction").to_bits());
            }
        }
        bits
    };
    assert_eq!(fingerprint(), fingerprint());
}

#[test]
fn robust_optimum_dominates_single_scenario_optima_on_worst_case() {
    let s = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 })
        .with_threads(8)
        .run_ensemble(&ensemble_campaign(300.0))
        .expect("flow runs");
    let robust = s
        .optimize_robust(0, Goal::Maximize, RobustGoal::WorstCase, 42)
        .expect("robust optimisation");
    for sc in 0..s.n_scenarios() {
        let single = s
            .optimize_scenario(sc, 0, Goal::Maximize, 42)
            .expect("single optimisation");
        let single_worst = s
            .predict_robust(0, RobustGoal::WorstCase, Goal::Maximize, &single.x)
            .expect("worst-case prediction");
        assert!(
            robust.value >= single_worst - 1e-9,
            "scenario {sc}: robust floor {} below single-scenario floor {}",
            robust.value,
            single_worst
        );
    }
    // The weighted-mean optimum dominates everything on expected value.
    let mean_opt = s
        .optimize_robust(0, Goal::Maximize, RobustGoal::WeightedMean, 42)
        .expect("mean optimisation");
    let robust_mean = s
        .predict_robust(0, RobustGoal::WeightedMean, Goal::Maximize, &robust.x)
        .expect("mean prediction");
    assert!(mean_opt.value >= robust_mean - 1e-9);
}
