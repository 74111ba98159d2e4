//! Experiment E2 — Table: CPU time of one design-point evaluation at
//! each level of the simulation/modelling hierarchy.
//!
//! The paper's core economic argument, measured level by level on the
//! host: a Newton–Raphson transient of the circuit-level front end, the
//! linearized state-space transient of the same netlist, a system-level
//! simulation of an hour, and one prediction of the fitted RSM
//! (averaged over a million calls). The table states each cost and the
//! ratios between them; this binary claims no figure it does not
//! measure.

use ehsim_bench::{flagship_campaign, frontend_netlist};
use ehsim_circuit::{LinearizedStateSpaceEngine, NewtonRaphsonEngine, TransientConfig};
use ehsim_core::flow::{DesignChoice, DoeFlow};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    println!("E2 — CPU time per design-point evaluation\n");
    run(1.0, 3600.0, 1_000_000, 8);
}

/// The experiment body, scale-parameterised so the smoke test can run a
/// tiny configuration through the identical code path.
fn run(circuit_horizon_s: f64, system_duration_s: f64, n_rsm_evals: usize, threads: usize) {
    let (nl, _) = frontend_netlist();

    // Circuit level.
    let t0 = Instant::now();
    let nr = NewtonRaphsonEngine::default()
        .simulate(
            &nl,
            &TransientConfig::new(circuit_horizon_s, 2e-5).expect("cfg"),
            &[],
        )
        .expect("nr runs");
    let nr_wall = t0.elapsed();

    let t1 = Instant::now();
    let lss = LinearizedStateSpaceEngine::default()
        .simulate(
            &nl,
            &TransientConfig::new(circuit_horizon_s, 2e-4).expect("cfg"),
            &[],
        )
        .expect("lss runs");
    let lss_wall = t1.elapsed();

    // System level.
    let campaign = flagship_campaign(system_duration_s);
    let t2 = Instant::now();
    let _ = campaign
        .evaluate_coded(&[0.0, 0.0, 0.0, 0.0])
        .expect("system sim runs");
    let sys_wall = t2.elapsed();

    // RSM evaluation, amortised over a million calls.
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(threads)
        .run(&campaign)
        .expect("flow runs");
    let model = surrogates.model(0);
    let t3 = Instant::now();
    let n_eval = n_rsm_evals.max(1);
    let mut acc = 0.0;
    for i in 0..n_eval {
        let x = [
            (i % 17) as f64 / 8.5 - 1.0,
            (i % 13) as f64 / 6.5 - 1.0,
            (i % 11) as f64 / 5.5 - 1.0,
            (i % 7) as f64 / 3.5 - 1.0,
        ];
        acc += model.predict(black_box(&x));
    }
    black_box(acc);
    let rsm_each = t3.elapsed() / n_eval as u32;

    println!(
        "{:<44} {:>14} {:>16}",
        "evaluation method", "wall-clock", "vs NR circuit"
    );
    println!("{}", "-".repeat(78));
    let base = nr_wall.as_secs_f64();
    for (name, wall) in [
        (
            format!("circuit transient, Newton-Raphson ({circuit_horizon_s} s sim)"),
            nr_wall,
        ),
        (
            format!("circuit transient, linearized SS ({circuit_horizon_s} s sim)"),
            lss_wall,
        ),
        (
            format!("system-level node simulation ({system_duration_s} s sim)"),
            sys_wall,
        ),
        ("RSM evaluation (one prediction)".to_string(), rsm_each),
    ] {
        println!(
            "{:<44} {:>14.3?} {:>15.0}x",
            name,
            wall,
            base / wall.as_secs_f64().max(1e-12)
        );
    }
    println!(
        "\ncircuit engines: NR performed {} LU factorisations, LSS {} \
         (plus {} cached matrix exponentials)",
        nr.stats.lu_factorizations, lss.stats.lu_factorizations, lss.stats.expm_evaluations
    );
    println!(
        "\nflow economics: one RSM build = {} system simulations \
         ({:.2?} total); afterwards a full 10^6-point design-space sweep \
         costs {:.2?} — simulation-driven exploration of the same sweep \
         would take ~{:.0} hours.",
        surrogates.campaign_result().sim_count,
        surrogates.build_wall(),
        rsm_each * 1_000_000,
        1e6 * sys_wall.as_secs_f64() / 3600.0
    );
}

#[cfg(test)]
mod smoke {
    #[test]
    fn e2_runs_on_a_tiny_configuration() {
        super::run(0.005, 60.0, 500, 2);
    }
}
