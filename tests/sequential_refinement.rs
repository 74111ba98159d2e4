//! Integration tests for the sequential adaptive DoE subsystem: the
//! hard evaluation budget, the bit-identity of cache replays, the
//! determinism of the audit trail across scheduler thread counts, and
//! the equal-budget comparison against the one-shot flow.

use ehsim::core::experiment::{EnsembleCampaign, PolicyFactorSet, PolicyFactors};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::{Scenario, ScenarioEnsemble};
use ehsim::core::sequential::{CachedEvaluator, SequentialCampaign};
use ehsim::doe::optimize::{Goal, RobustGoal};
use ehsim::doe::Design;

/// The fixture ensemble: stationary backbone plus the two
/// non-stationary workloads whose brown-out cliffs make the packet
/// response non-quadratic (a small copy of the e12 experiment's shape).
fn fixture_ensemble(duration_s: f64) -> ScenarioEnsemble {
    ScenarioEnsemble::new(vec![
        (Scenario::stationary_machine(duration_s).unwrap(), 0.40),
        (Scenario::fading_machine(duration_s).unwrap(), 0.35),
        (Scenario::intermittent_machine(duration_s).unwrap(), 0.25),
    ])
    .expect("valid ensemble")
}

/// Energy-constrained two-factor (tuning-only) fixture campaign.
fn fixture_campaign(duration_s: f64) -> EnsembleCampaign {
    let mut factors = PolicyFactors::standard(PolicyFactorSet::Static);
    factors.base.initial_position = factors.base.harvester.position_for_frequency(64.0);
    factors.c_store = (0.015, 0.06);
    factors.task_period = (0.5, 16.0);
    EnsembleCampaign::adaptive(
        factors,
        fixture_ensemble(duration_s),
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("valid campaign")
}

// (a) The budget is a hard ceiling: the loop never exceeds it for any
// budget, and the evaluator refuses an over-budget batch outright.
#[test]
fn budget_is_never_exceeded() {
    for budget in [5usize, 8, 11, 16] {
        let outcome = SequentialCampaign::new(fixture_campaign(60.0), 0, Goal::Maximize, budget)
            .expect("valid campaign")
            .with_threads(4)
            .run()
            .expect("runs within budget");
        assert!(
            outcome.evals_used <= budget,
            "budget {budget}: used {}",
            outcome.evals_used
        );
        assert_eq!(outcome.sims_used, outcome.evals_used * 3);
        // The audit's per-iteration fresh counts close the ledger.
        let audited: usize = outcome.report.iterations.iter().map(|r| r.n_fresh).sum();
        assert_eq!(audited, outcome.evals_used, "audit ledger must close");
    }
    // Direct evaluator-level refusal, with nothing simulated.
    let mut ev = CachedEvaluator::new(fixture_campaign(60.0), 2).with_budget(1);
    assert!(ev.evaluate(&[vec![0.0, 0.0], vec![0.5, 0.5]]).is_err());
    assert_eq!(ev.fresh_evals(), 0, "refused batch must not simulate");
}

// (b) Cache-hit replays are bit-identical to fresh runs.
#[test]
fn cache_replays_are_bit_identical_to_fresh_runs() {
    let points = vec![vec![0.3, -0.7], vec![-1.0, 1.0], vec![0.0, 0.0]];
    let mut cached = CachedEvaluator::new(fixture_campaign(90.0), 4);
    let first = cached.evaluate(&points).expect("fresh batch");
    let replay = cached.evaluate(&points).expect("replay batch");
    assert_eq!(cached.fresh_evals(), 3);
    assert_eq!(cached.cache_hits(), 3);
    // Replay vs the evaluator's own fresh pass: exact bits.
    for (f, r) in first.iter().zip(replay.iter()) {
        for (fs, rs) in f.per_scenario.iter().zip(r.per_scenario.iter()) {
            for (fv, rv) in fs.iter().zip(rs.iter()) {
                assert_eq!(fv.to_bits(), rv.to_bits());
            }
        }
    }
    // Replay vs an independent fresh evaluator (new cache, different
    // thread count): still exact bits.
    let mut fresh = CachedEvaluator::new(fixture_campaign(90.0), 1);
    let independent = fresh.evaluate(&points).expect("independent batch");
    assert_eq!(first, independent);
}

// (c) The audit trail is deterministic across 1/2/8 scheduler threads.
#[test]
fn audit_trail_is_deterministic_across_thread_counts() {
    let run = |threads: usize| {
        SequentialCampaign::new(fixture_campaign(90.0), 0, Goal::Maximize, 14)
            .expect("valid campaign")
            .with_threads(threads)
            .run()
            .expect("sequential campaign runs")
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    for other in [&two, &eight] {
        assert_eq!(one.audit_lines(), other.audit_lines());
        assert_eq!(one.best_coded, other.best_coded);
        assert_eq!(one.best_objective.to_bits(), other.best_objective.to_bits());
        assert_eq!(one.evals_used, other.evals_used);
        assert_eq!(one.cache_hits, other.cache_hits);
    }
    // The audit rendering carries every iteration.
    assert_eq!(one.audit_lines().len(), one.report.iterations.len());
}

// (d) Sequential matches or beats the one-shot CCD optimum at an equal
// evaluation budget on the fixture ensemble, with a nonzero cache-hit
// rate, both candidates fresh-sim verified.
#[test]
fn sequential_matches_or_beats_one_shot_at_equal_budget() {
    let campaign = fixture_campaign(120.0);
    let ccd = DesignChoice::FaceCenteredCcd { center_points: 3 };
    let budget = ccd.build(2).expect("ccd builds").n_runs();

    let surrogates = DoeFlow::new(ccd)
        .with_threads(4)
        .run_ensemble(&campaign)
        .expect("one-shot flow runs");
    let oneshot = surrogates
        .optimize_robust(0, Goal::Maximize, RobustGoal::WeightedMean, 42)
        .expect("robust optimisation");

    let outcome = SequentialCampaign::new(campaign.clone(), 0, Goal::Maximize, budget)
        .expect("valid campaign")
        .with_threads(4)
        .run()
        .expect("sequential campaign runs");
    assert!(outcome.evals_used <= budget, "equal budget violated");
    assert!(outcome.cache_hits > 0, "cache-hit rate must be nonzero");
    assert!(outcome.cache_hit_rate > 0.0);

    // Fresh verification of both candidates in one batched pass.
    let verify_design = Design::new(
        2,
        vec![oneshot.x.clone(), outcome.best_coded.clone()],
        "verify",
    )
    .expect("finite candidates");
    let verify = campaign
        .run_design(&verify_design, 4)
        .expect("verification sims");
    let oneshot_verified = verify.aggregate.responses[0][0];
    let sequential_verified = verify.aggregate.responses[1][0];
    assert!(
        sequential_verified >= oneshot_verified - 1e-9,
        "sequential {sequential_verified} must match or beat one-shot {oneshot_verified} \
         at the same {budget}-evaluation budget"
    );
    // The sequential claim is a simulated point: fresh verification
    // reproduces it bit-for-bit.
    assert_eq!(
        sequential_verified.to_bits(),
        outcome.best_objective.to_bits()
    );
}
