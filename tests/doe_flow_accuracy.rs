//! End-to-end accuracy of the DoE flow (experiment E1 in test form):
//! surrogates built from a moderate number of simulations must predict
//! fresh simulations with small error, and the whole flow must be
//! deterministic.

use ehsim::core::experiment::{Campaign, StandardFactors};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::Scenario;
use ehsim::doe::optimize::Goal;

fn campaign(duration: f64) -> Campaign {
    Campaign::standard(
        StandardFactors::default(),
        Scenario::drifting_machine(duration).unwrap(),
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("valid campaign")
}

#[test]
fn rsm_predicts_fresh_simulations() {
    let c = campaign(1800.0);
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(8)
        .run(&c)
        .expect("flow succeeds");
    // Training fit is strong.
    assert!(
        surrogates.model(0).r_squared() > 0.9,
        "packets R² = {}",
        surrogates.model(0).r_squared()
    );
    assert!(
        surrogates.model(1).r_squared() > 0.95,
        "margin R² = {}",
        surrogates.model(1).r_squared()
    );
    // Validation against 15 fresh LHS simulations: errors are a modest
    // fraction of the response range ("high accuracy" claim). The
    // packet-rate response crosses the brown-out cliff at small storage
    // sizes, which a quadratic cannot capture exactly — it is the worst
    // case and still stays below a third of the range.
    let rows = surrogates.validate(&c, 15, 99, 8).expect("validation runs");
    for row in &rows {
        assert!(
            row.rmse_pct_of_range < 30.0,
            "{}: rmse {}% of range",
            row.indicator,
            row.rmse_pct_of_range
        );
    }
    // The brown-out margin surface is nearly exact.
    assert!(
        rows[1].rmse_pct_of_range < 10.0,
        "margin rmse {}%",
        rows[1].rmse_pct_of_range
    );
}

#[test]
fn flow_is_deterministic() {
    let c = campaign(600.0);
    let flow = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 }).with_threads(4);
    let a = flow.run(&c).expect("first run");
    let b = flow.run(&c).expect("second run");
    assert_eq!(a.campaign_result().responses, b.campaign_result().responses);
    for i in 0..a.indicators().len() {
        assert_eq!(a.model(i).coefficients(), b.model(i).coefficients());
    }
}

#[test]
fn optimum_on_surface_verifies_in_simulation() {
    let c = campaign(1800.0);
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(8)
        .run(&c)
        .expect("flow succeeds");
    let best = surrogates
        .optimize_constrained(0, Goal::Maximize, &[(1, 0.2)], 7)
        .expect("optimisation runs");
    let simulated = c.evaluate_coded(&best.x).expect("verification sim");
    // The model's predicted packet rate holds up in simulation.
    let rel_err = (best.value - simulated[0]).abs() / simulated[0].max(1.0);
    assert!(
        rel_err < 0.15,
        "predicted {} vs simulated {} ({}% error)",
        best.value,
        simulated[0],
        100.0 * rel_err
    );
    // And the constraint actually holds (with slack for model error).
    assert!(
        simulated[1] > 0.0,
        "margin constraint violated: {}",
        simulated[1]
    );
}

#[test]
fn stepwise_reduction_keeps_accuracy() {
    let c = campaign(900.0);
    let full = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(8)
        .run(&c)
        .expect("full flow");
    let reduced = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_stepwise(0.05)
        .with_threads(8)
        .run(&c)
        .expect("reduced flow");
    // The reduced margin model uses fewer terms…
    assert!(reduced.model(1).p() <= full.model(1).p());
    // …but predicts essentially the same surface at probe points.
    for x in [
        [0.0, 0.0, 0.0, 0.0],
        [0.5, -0.5, 0.3, -0.7],
        [-0.8, 0.8, -0.2, 0.4],
    ] {
        let a = full.predict(1, &x).expect("full prediction");
        let b = reduced.predict(1, &x).expect("reduced prediction");
        assert!((a - b).abs() < 0.15, "full {a} vs reduced {b} at {x:?}");
    }
}
