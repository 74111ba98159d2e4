//! Full-stack pipeline smoke tests: every public layer of the
//! workspace composed together, from vibration input to a validated
//! optimised design.

use ehsim::core::experiment::{Campaign, Configure, StandardFactors};
use ehsim::core::explorer::{sweep_1d, sweep_2d};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::Scenario;
use ehsim::core::space::{DesignSpace, Factor};
use ehsim::core::tradeoff::pareto_front;
use ehsim::doe::anova::{anova, lack_of_fit};
use ehsim::doe::optimize::Goal;
use ehsim::doe::rsm::ResponseSurface;
use ehsim::node::NodeConfig;
use std::sync::Arc;

#[test]
fn custom_campaign_over_policy_parameters() {
    // A bespoke design problem over *energy-management* parameters:
    // tuning check interval and measurement cost — the knobs the paper's
    // title points at.
    let space = DesignSpace::new(vec![
        Factor::new("check_interval_s", 30.0, 600.0).expect("factor"),
        Factor::new("measure_energy_uj", 20.0, 500.0).expect("factor"),
    ])
    .expect("space");
    let configure: Configure = Arc::new(|phys: &[f64]| {
        let mut cfg = NodeConfig::default_node();
        cfg.tick_s = 0.25;
        cfg.tuning.check_interval_s = phys[0];
        cfg.tuning.measure_energy_j = phys[1] * 1e-6;
        cfg.initial_position = cfg.harvester.position_for_frequency(58.0);
        cfg
    });
    let campaign = Campaign::new(
        space,
        configure,
        Scenario::drifting_machine(1800.0).unwrap(),
        vec![Indicator::EnergyBalanceJ, Indicator::RetuneCount],
    )
    .expect("campaign");
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(8)
        .run(&campaign)
        .expect("flow");
    // Energy balance must degrade as measurements get more expensive.
    let cheap = surrogates.predict(0, &[0.0, -1.0]).expect("predict");
    let dear = surrogates.predict(0, &[0.0, 1.0]).expect("predict");
    assert!(
        cheap > dear,
        "cheap measurement {cheap} J vs expensive {dear} J"
    );
}

#[test]
fn anova_and_canonical_analysis_on_real_surfaces() {
    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::drifting_machine(1800.0).unwrap(),
        vec![Indicator::BrownoutMarginV],
    )
    .expect("campaign");
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 4 })
        .with_threads(8)
        .run(&campaign)
        .expect("flow");
    let model = surrogates.model(0);
    // The margin response is strongly explained by the factors.
    let table = anova(model).expect("anova");
    assert!(table.p_value < 1e-6, "model F p-value {}", table.p_value);
    // Lack-of-fit is defined thanks to the centre replicates.
    let lof = lack_of_fit(model).expect("lof computes");
    assert!(lof.is_some());
    // Canonical analysis executes on the fitted quadratic.
    let rs = ResponseSurface::from_fitted(model).expect("surface");
    assert_eq!(rs.eigenvalues().len(), 4);
}

#[test]
fn exploration_tools_compose() {
    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::stationary_machine(600.0).unwrap(),
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("campaign");
    let surrogates = DoeFlow::new(DesignChoice::BoxBehnken { center_points: 3 })
        .with_threads(8)
        .run(&campaign)
        .expect("flow");
    let base = surrogates.space().center();
    let s1 = sweep_1d(&surrogates, 0, 1, &base, 15).expect("1d");
    assert_eq!(s1.xs.len(), 15);
    let s2 = sweep_2d(&surrogates, 0, 0, 1, &base, 10).expect("2d");
    assert!(!s2.ascii().is_empty());
    let front = pareto_front(
        &surrogates,
        &[(0, Goal::Maximize), (1, Goal::Maximize)],
        600,
        3,
    )
    .expect("front");
    assert!(!front.is_empty());
}
