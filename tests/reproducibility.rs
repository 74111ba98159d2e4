//! Reproducibility: every stochastic component in the workspace is
//! seeded, so identical inputs must yield bit-identical outputs across
//! the entire stack.

use ehsim::core::baselines::{genetic, simulated_annealing};
use ehsim::core::experiment::{Campaign, StandardFactors};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::Scenario;
use ehsim::doe::design::doptimal::d_optimal_grid;
use ehsim::doe::design::lhs::latin_hypercube;
use ehsim::doe::model::ModelSpec;
use ehsim::node::{NodeConfig, SystemSimulator};
use ehsim::vibration::{BandNoise, VibrationSource};

#[test]
fn noise_sources_are_seeded() {
    let a = BandNoise::new(60.0, 8.0, 1.0, 24, 9).expect("valid");
    let b = BandNoise::new(60.0, 8.0, 1.0, 24, 9).expect("valid");
    for k in 0..100 {
        let t = k as f64 * 0.37e-3;
        assert_eq!(a.acceleration(t), b.acceleration(t));
    }
}

#[test]
fn designs_are_seeded() {
    assert_eq!(
        latin_hypercube(4, 25, 77).expect("lhs").points(),
        latin_hypercube(4, 25, 77).expect("lhs").points()
    );
    let spec = ModelSpec::quadratic(3).expect("spec");
    assert_eq!(
        d_optimal_grid(&spec, 12, 3).expect("d-opt").points(),
        d_optimal_grid(&spec, 12, 3).expect("d-opt").points()
    );
}

#[test]
fn node_simulation_is_bit_deterministic() {
    let cfg = NodeConfig::default_node();
    let noise = BandNoise::new(64.0, 4.0, 0.9, 16, 5).expect("valid");
    let sim = SystemSimulator::new(cfg).expect("valid config");
    let a = sim.run(&noise, 900.0).expect("run");
    let b = sim.run(&noise, 900.0).expect("run");
    assert_eq!(a, b);
}

#[test]
fn campaign_is_deterministic_across_thread_counts() {
    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::industrial_spectrum(300.0).unwrap(),
        vec![Indicator::PacketsPerHour, Indicator::FinalStorageV],
    )
    .expect("campaign");
    let design = latin_hypercube(4, 10, 31).expect("design");
    let one = campaign.run_design(&design, 1).expect("serial");
    let many = campaign.run_design(&design, 8).expect("parallel");
    assert_eq!(one.responses, many.responses);
}

/// Runs a small seeded DoE flow and renders every RSM coefficient as
/// its exact bit pattern.
fn rsm_coefficient_fingerprint() -> String {
    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::industrial_spectrum(120.0).unwrap(),
        vec![Indicator::PacketsPerHour, Indicator::FinalStorageV],
    )
    .expect("campaign");
    let surrogates = DoeFlow::new(DesignChoice::LatinHypercube { n: 20, seed: 77 })
        .with_threads(4)
        .run(&campaign)
        .expect("flow runs");
    let mut bits = Vec::new();
    for i in 0..2 {
        for c in surrogates.model(i).coefficients() {
            bits.push(format!("{:016x}", c.to_bits()));
        }
    }
    bits.join(",")
}

/// Same RNG seed → bit-identical RSM coefficients, not just within one
/// process but across *fresh* processes: the test re-executes its own
/// test binary twice in child mode and compares the exact coefficient
/// bit patterns (guards against address-dependent iteration order,
/// uninitialised state, or time-seeded randomness sneaking in).
#[test]
fn rsm_coefficients_are_bit_identical_across_processes() {
    const CHILD_FLAG: &str = "EHSIM_REPRO_CHILD";
    if std::env::var_os(CHILD_FLAG).is_some() {
        println!("coeffs:{}", rsm_coefficient_fingerprint());
        return;
    }

    let exe = std::env::current_exe().expect("test binary path");
    let spawn_child = || -> String {
        let out = std::process::Command::new(&exe)
            .args([
                "rsm_coefficients_are_bit_identical_across_processes",
                "--exact",
                "--nocapture",
            ])
            .env(CHILD_FLAG, "1")
            .output()
            .expect("child test process runs");
        assert!(
            out.status.success(),
            "child process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The libtest harness writes its own "test ... ok" text around
        // (and sometimes onto the same line as) our println, so locate
        // the marker anywhere in the stream.
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let start = stdout.find("coeffs:").expect("child printed a fingerprint");
        stdout[start..]
            .split_whitespace()
            .next()
            .expect("fingerprint is non-empty")
            .to_string()
    };

    let first = spawn_child();
    let second = spawn_child();
    assert_eq!(first, second, "fresh processes disagree on RSM bits");
    assert_eq!(
        first,
        format!("coeffs:{}", rsm_coefficient_fingerprint()),
        "parent process disagrees with children"
    );
}

#[test]
fn stochastic_optimisers_are_seeded() {
    let peak = |x: &[f64]| -> f64 { -(x[0] - 0.3) * (x[0] - 0.3) - x[1] * x[1] };
    let mut f1 = |x: &[f64]| peak(x);
    let mut f2 = |x: &[f64]| peak(x);
    assert_eq!(
        simulated_annealing(&mut f1, 2, 150, 21).expect("sa"),
        simulated_annealing(&mut f2, 2, 150, 21).expect("sa")
    );
    let mut f3 = |x: &[f64]| peak(x);
    let mut f4 = |x: &[f64]| peak(x);
    assert_eq!(
        genetic(&mut f3, 2, 10, 5, 8).expect("ga"),
        genetic(&mut f4, 2, 10, 5, 8).expect("ga")
    );
}
