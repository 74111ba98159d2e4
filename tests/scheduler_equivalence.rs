//! Equivalence suite for the deterministic self-scheduling campaign
//! scheduler: `ehsim-node`'s job queue and lane dispatcher must be
//! bit-identical to the sequential path for both [`Campaign`] and
//! [`EnsembleCampaign`] at any thread count, and must surface the same
//! (first-in-job-order) error regardless of how jobs land on workers.

use ehsim::core::experiment::{Campaign, EnsembleCampaign, StandardFactors};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::{Scenario, ScenarioEnsemble};
use ehsim::doe::design::factorial::full_factorial_2k;
use ehsim::doe::Design;
use ehsim::vibration::{Envelope, Sine, VibrationSource};
use std::sync::Arc;

fn campaign(duration_s: f64) -> Campaign {
    Campaign::standard(
        StandardFactors::default(),
        Scenario::stationary_machine(duration_s).unwrap(),
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("valid campaign")
}

/// An ensemble whose scenarios differ 6× in duration, so static
/// contiguous chunking would leave most workers idle behind the worker
/// that drew the long jobs — exactly the imbalance the self-scheduling
/// queue exists to absorb.
fn lopsided_ensemble() -> EnsembleCampaign {
    let ensemble = ScenarioEnsemble::new(vec![
        (Scenario::stationary_machine(60.0).unwrap(), 0.4),
        (Scenario::drifting_machine(360.0).unwrap(), 0.4),
        (Scenario::industrial_spectrum(120.0).unwrap(), 0.2),
    ])
    .expect("valid ensemble");
    EnsembleCampaign::standard(
        StandardFactors::default(),
        ensemble,
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("valid campaign")
}

fn assert_rows_bitwise_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{what}: row {i} width");
        for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: row {i} col {j}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn campaign_is_bit_identical_across_thread_counts() {
    let c = campaign(300.0);
    let d = full_factorial_2k(4).expect("design");
    let sequential = c.run_design(&d, 1).expect("sequential run");
    // The sequential path must itself equal per-point evaluation.
    for (i, point) in d.points().iter().enumerate() {
        let y = c.evaluate_coded(point).expect("point eval");
        assert_rows_bitwise_eq(
            &[y],
            &[sequential.responses[i].clone()],
            &format!("sequential vs evaluate_coded, point {i}"),
        );
    }
    for threads in [2, 8] {
        let parallel = c.run_design(&d, threads).expect("parallel run");
        assert_rows_bitwise_eq(
            &sequential.responses,
            &parallel.responses,
            &format!("{threads} threads"),
        );
        assert_eq!(sequential.coded, parallel.coded);
        assert_eq!(sequential.physical, parallel.physical);
    }
}

#[test]
fn ensemble_campaign_is_bit_identical_across_thread_counts() {
    let ec = lopsided_ensemble();
    let d = full_factorial_2k(4).expect("design");
    let sequential = ec.run_design(&d, 1).expect("sequential run");
    for threads in [2, 8] {
        let parallel = ec.run_design(&d, threads).expect("parallel run");
        for s in 0..3 {
            assert_rows_bitwise_eq(
                &sequential.per_scenario[s].responses,
                &parallel.per_scenario[s].responses,
                &format!("scenario {s}, {threads} threads"),
            );
        }
        assert_rows_bitwise_eq(
            &sequential.aggregate.responses,
            &parallel.aggregate.responses,
            &format!("aggregate, {threads} threads"),
        );
    }
}

#[test]
fn first_error_in_job_order_is_thread_count_invariant() {
    // A configure hook that poisons two specific design points with
    // *distinguishable* invalid configs: job order says the tick error
    // (earlier point) must win, never the capacitance error, no matter
    // how the queue interleaves.
    let factors = StandardFactors::default();
    let space = factors.space().expect("space");
    let configure: ehsim::core::experiment::Configure = Arc::new(move |phys: &[f64]| {
        let mut cfg = factors.config_for(phys);
        // Mark points via the task-period coordinate (decoded exactly).
        if (phys[1] - factors.task_period.0).abs() < 1e-9 {
            // Low task-period corner(s): invalid tick.
            cfg.tick_s = -7.0;
        }
        if (phys[3] - factors.tx_power.1).abs() < 1e-9 {
            // High TX corner(s): invalid capacitance.
            cfg.storage.capacitance = -3.0;
        }
        cfg
    });
    // Points: index 0 valid, index 1 capacitance-poisoned, index 2
    // tick-poisoned, index 3 both (tick reported first by validate),
    // remaining valid. First failing job is index 1.
    let coded = vec![
        vec![0.0, 0.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, 1.0],
        vec![0.0, -1.0, 0.0, 0.0],
        vec![0.0, -1.0, 0.0, 1.0],
        vec![0.5, 0.5, 0.0, 0.0],
        vec![-0.5, 0.5, 0.0, 0.0],
    ];
    let design = Design::new(4, coded, "error-ordering").expect("design");
    let c = Campaign::new(
        space,
        configure,
        Scenario::stationary_machine(30.0).unwrap(),
        vec![Indicator::PacketsPerHour],
    )
    .expect("campaign");
    let mut messages = Vec::new();
    for threads in [1, 2, 4, 8] {
        let err = c
            .run_design(&design, threads)
            .expect_err("poisoned design must fail");
        messages.push(format!("{err}"));
    }
    // Job 1 (capacitance) is the smallest failing index: its message
    // must surface for every thread count.
    for m in &messages {
        assert!(
            m.contains("supercap") || m.contains("capacitance"),
            "expected the job-1 capacitance error, got: {m}"
        );
        assert_eq!(m, &messages[0], "error must be thread-count invariant");
    }
}

#[test]
fn lopsided_ensemble_parallel_pass_matches_per_scenario_campaigns() {
    // Cross-check the batched queue against independent single-scenario
    // campaigns (each themselves parallel): same numbers, bit for bit.
    let ec = lopsided_ensemble();
    let d = full_factorial_2k(4).expect("design");
    let batched = ec.run_design(&d, 8).expect("batched run");
    for s in 0..3 {
        let single = ec
            .campaign_for(s)
            .expect("scenario campaign")
            .run_design(&d, 4)
            .expect("single-scenario run");
        assert_rows_bitwise_eq(
            &single.responses,
            &batched.per_scenario[s].responses,
            &format!("scenario {s} vs dedicated campaign"),
        );
    }
}

/// A source whose envelope frequency goes non-finite from `t_poison`
/// on, which fails every node's harvester model at that tick.
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

/// Mixed error order across an ensemble: run-time failures and prepare
/// failures compete in point-major, scenario-minor job order. Every
/// point fails at run time against the poisoned scenario, and one
/// point's config fails to prepare (which fails its first job).
#[test]
fn mixed_prepare_and_run_time_errors_follow_job_order() {
    let poisoned = Scenario::new(
        Arc::new(PoisonAfter {
            inner: Sine::new(0.9, 64.0).expect("valid sine"),
            t_poison: 30.0,
        }),
        120.0,
        "poisoned",
    )
    .expect("valid scenario");
    let ensemble =
        ScenarioEnsemble::uniform(vec![Scenario::stationary_machine(120.0).unwrap(), poisoned])
            .expect("valid ensemble");
    let factors = StandardFactors::default();
    let space = factors.space().expect("space");
    // The point with coded TX power +1 gets an invalid capacitance.
    let configure: ehsim::core::experiment::Configure = Arc::new(move |phys: &[f64]| {
        let mut cfg = factors.config_for(phys);
        if (phys[3] - factors.tx_power.1).abs() < 1e-9 {
            cfg.storage.capacitance = -3.0;
        }
        cfg
    });
    let ec = EnsembleCampaign::new(space, configure, ensemble, vec![Indicator::PacketsPerHour])
        .expect("campaign");
    let design_with_bad_point = |bad: usize| {
        let coded: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                let tx = if i == bad { 1.0 } else { 0.0 };
                vec![-0.5 + 0.2 * i as f64, 0.3, -0.2, tx]
            })
            .collect();
        Design::new(4, coded, "mixed-error-order").expect("design")
    };

    // Bad point at index 3: job 1 (point 0 × poisoned) fails at run
    // time before job 6 (point 3 × stationary) fails to prepare.
    let design = design_with_bad_point(3);
    let want = ec
        .campaign_for(1)
        .expect("poisoned campaign")
        .evaluate_coded(&design.points()[0])
        .expect_err("point 0 fails against the poisoned scenario")
        .to_string();
    assert!(want.contains("model failure"), "unexpected oracle: {want}");
    for threads in [1, 2, 8] {
        let got = ec
            .run_design(&design, threads)
            .expect_err("poisoned ensemble must fail")
            .to_string();
        assert_eq!(got, want, "bad point 3, {threads} threads");
    }

    // Bad point at index 0: its prepare failure is job 0.
    let design = design_with_bad_point(0);
    let want = ec
        .campaign_for(0)
        .expect("stationary campaign")
        .evaluate_coded(&design.points()[0])
        .expect_err("point 0 fails to prepare")
        .to_string();
    assert!(
        want.contains("supercap") || want.contains("capacitance"),
        "unexpected oracle: {want}"
    );
    for threads in [1, 2, 8] {
        let got = ec
            .run_design(&design, threads)
            .expect_err("poisoned ensemble must fail")
            .to_string();
        assert_eq!(got, want, "bad point 0, {threads} threads");
    }
}
