//! Engine showdown: traditional Newton–Raphson transient analysis vs
//! the explicit linearized state-space technique, on the full
//! circuit-level front-end (tunable harvester → Cockcroft–Walton
//! multiplier → storage capacitor).
//!
//! This is the motivation of the DATE'13 paper made concrete: the same
//! netlist and the same excitation under both engines, with the cost of
//! each as measured on the host printed side by side.
//!
//! Run with: `cargo run --release --example engine_showdown`

use ehsim::circuit::{LinearizedStateSpaceEngine, NewtonRaphsonEngine, Probe, TransientConfig};
use ehsim::harvester::Harvester;
use ehsim::power::frontend::build_frontend;
use ehsim::power::Multiplier;
use ehsim::vibration::Sine;
use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    println!("=== engine showdown: Newton-Raphson vs linearized state-space ===\n");

    let harvester = Harvester::default_tunable();
    let pos = harvester.position_for_frequency(64.0);
    let source = Arc::new(Sine::new(0.9, 64.0)?);
    let fe = build_frontend(
        &harvester,
        pos,
        source,
        &Multiplier::default(),
        100e-6,
        0.0,
        None,
    )?;
    let probe = Probe::NodeVoltage(fe.store_node_name.clone());
    let signal = format!("v({})", fe.store_node_name);

    let t_end = 1.0;
    println!("netlist: full harvester + 3-stage CW multiplier + storage");
    println!("simulating {t_end} s of circuit time with both engines\n");

    // Traditional engine: implicit trapezoidal + NR, small steps for the
    // diode exponentials.
    let t0 = Instant::now();
    let nr_cfg = TransientConfig::new(t_end, 2e-5)?.with_record_stride(50)?;
    let nr = NewtonRaphsonEngine::default().simulate(&fe.netlist, &nr_cfg, &[probe.clone()])?;
    let nr_wall = t0.elapsed();

    // Linearized state-space engine: exact per-topology discretisation,
    // larger steps.
    let t1 = Instant::now();
    let lss_cfg = TransientConfig::new(t_end, 2e-4)?.with_record_stride(5)?;
    let lss = LinearizedStateSpaceEngine::default().simulate(&fe.netlist, &lss_cfg, &[probe])?;
    let lss_wall = t1.elapsed();

    let v_nr = *nr.signal(&signal).unwrap().last().unwrap();
    let v_lss = *lss.signal(&signal).unwrap().last().unwrap();

    println!(
        "{:<28} {:>16} {:>18}",
        "", "newton-raphson", "linearized-ss"
    );
    println!("{}", "-".repeat(64));
    println!(
        "{:<28} {:>16.3?} {:>18.3?}",
        "wall-clock", nr_wall, lss_wall
    );
    println!(
        "{:<28} {:>16} {:>18}",
        "time steps", nr.stats.steps, lss.stats.steps
    );
    println!(
        "{:<28} {:>16} {:>18}",
        "LU factorisations", nr.stats.lu_factorizations, lss.stats.lu_factorizations
    );
    println!(
        "{:<28} {:>16} {:>18}",
        "NR iterations", nr.stats.nr_iterations, lss.stats.nr_iterations
    );
    println!(
        "{:<28} {:>16} {:>18}",
        "matrix exponentials", nr.stats.expm_evaluations, lss.stats.expm_evaluations
    );
    println!(
        "{:<28} {:>16} {:>18}",
        "topology changes",
        "-",
        lss.stats.topology_changes.to_string()
    );
    println!(
        "{:<28} {:>16.4} {:>18.4}",
        "final storage voltage (V)", v_nr, v_lss
    );
    println!(
        "\nspeed-up: {:.0}x wall-clock, {:.0}x fewer LU factorisations, \
         result agreement {:.2}%",
        nr_wall.as_secs_f64() / lss_wall.as_secs_f64().max(1e-9),
        nr.stats.lu_factorizations as f64 / lss.stats.lu_factorizations.max(1) as f64,
        100.0 * (1.0 - (v_nr - v_lss).abs() / v_nr.abs().max(1e-9))
    );
    Ok(())
}
