//! Wall-clock isolation: the `wall` durations recorded by campaigns
//! and flows are reporting-only. Two runs of the same seeded work read
//! different clock values, yet every response bit, every RSM
//! coefficient, and every CSV byte must be identical — this is the
//! property the `lint:allow(D2)` annotations in `ehsim-core` and
//! `ehsim-circuit` assert in prose, checked mechanically.

use ehsim::core::experiment::{Campaign, StandardFactors};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::report::write_csv;
use ehsim::core::scenario::Scenario;
use ehsim::doe::design::lhs::latin_hypercube;

fn small_campaign() -> Campaign {
    Campaign::standard(
        StandardFactors::default(),
        Scenario::industrial_spectrum(60.0).unwrap(),
        vec![Indicator::PacketsPerHour, Indicator::FinalStorageV],
    )
    .expect("campaign")
}

#[test]
fn campaign_csv_bytes_are_independent_of_the_clock() {
    let campaign = small_campaign();
    let design = latin_hypercube(4, 8, 42).expect("design");
    let a = campaign.run_design(&design, 2).expect("first run");
    // Burn a little wall time so the two runs cannot share a clock
    // reading even on a coarse timer.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let b = campaign.run_design(&design, 2).expect("second run");

    // The runs observed the clock independently...
    assert_ne!(a.wall, b.wall, "distinct runs read distinct wall times");

    // ...but every result bit is identical.
    assert_eq!(a.coded, b.coded);
    assert_eq!(a.physical, b.physical);
    for (ra, rb) in a.responses.iter().zip(&b.responses) {
        for (va, vb) in ra.iter().zip(rb) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    // And the CSV rendered from each result is byte-identical: the
    // wall duration has no path into the report.
    let dir = std::env::temp_dir().join(format!("ehsim-wall-iso-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let headers = ["x0", "x1", "x2", "x3", "pph", "vstore"];
    let render = |result: &ehsim::core::experiment::CampaignResult, name: &str| {
        let rows: Vec<Vec<f64>> = result
            .physical
            .iter()
            .zip(&result.responses)
            .map(|(p, r)| p.iter().chain(r).copied().collect())
            .collect();
        let path = dir.join(name);
        write_csv(&path, &headers, &rows).expect("csv writes");
        std::fs::read(&path).expect("csv reads back")
    };
    let csv_a = render(&a, "a.csv");
    let csv_b = render(&b, "b.csv");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(csv_a, csv_b, "CSV bytes must not depend on wall time");
}

#[test]
fn rsm_inputs_are_independent_of_the_clock() {
    let campaign = small_campaign();
    let flow = DoeFlow::new(DesignChoice::LatinHypercube { n: 20, seed: 7 }).with_threads(2);
    let first = flow.run(&campaign).expect("first flow");
    std::thread::sleep(std::time::Duration::from_millis(5));
    let second = flow.run(&campaign).expect("second flow");
    for i in 0..2 {
        let ca = first.model(i).coefficients();
        let cb = second.model(i).coefficients();
        assert_eq!(ca.len(), cb.len());
        for (a, b) in ca.iter().zip(cb) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "RSM coefficients must not depend on wall time"
            );
        }
    }
}
