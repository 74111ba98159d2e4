//! Design-space exploration: response surfaces and trade-off fronts,
//! rendered in the terminal — the "adjust a wide range of system
//! parameters and evaluate the effect almost instantly" workflow of the
//! DATE'13 paper.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use ehsim::core::experiment::{Campaign, StandardFactors};
use ehsim::core::explorer::{sweep_1d, sweep_2d};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::Scenario;
use ehsim::core::tradeoff::pareto_front;
use ehsim::doe::optimize::Goal;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    println!("=== design-space exploration on response surfaces ===\n");

    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::drifting_machine(3600.0)?,
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )?;
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(8)
        .run(&campaign)?;
    println!(
        "built surrogates from {} simulations in {:.2?}\n",
        surrogates.campaign_result().sim_count,
        surrogates.build_wall()
    );

    // A 2-D response surface: packets/hour over storage size x period.
    let t0 = Instant::now();
    let surface = sweep_2d(&surrogates, 0, 1, 0, &surrogates.space().center(), 28)?;
    println!("{}", surface.ascii());
    println!("(28x28 surface evaluated in {:.1?})\n", t0.elapsed());

    // A 1-D slice: brown-out margin vs task period.
    let sweep = sweep_1d(&surrogates, 1, 1, &surrogates.space().center(), 9)?;
    println!("brown-out margin vs {}:", sweep.factor);
    for (x, y) in sweep.xs.iter().zip(sweep.ys.iter()) {
        let bar_len = ((y + 1.0) * 20.0).clamp(0.0, 60.0) as usize;
        println!("  {x:>6.1} s  {y:+.3} V  |{}", "#".repeat(bar_len));
    }

    // The packet-rate vs robustness Pareto front.
    let t1 = Instant::now();
    let front = pareto_front(
        &surrogates,
        &[(0, Goal::Maximize), (1, Goal::Maximize)],
        4000,
        7,
    )?;
    println!(
        "\nPareto front (packets/hour vs brown-out margin), {} points from 4000 \
         candidates in {:.1?}:",
        front.len(),
        t1.elapsed()
    );
    println!(
        "{:>12} {:>10}   {:>9} {:>9} {:>9} {:>9}",
        "packets/h", "margin(V)", "c_store", "period", "thresh", "tx_dbm"
    );
    let step = (front.len() / 12).max(1);
    for p in front.iter().step_by(step) {
        println!(
            "{:>12.1} {:>10.3}   {:>9.3} {:>9.2} {:>9.2} {:>9.1}",
            p.objectives[0],
            p.objectives[1],
            p.physical[0],
            p.physical[1],
            p.physical[2],
            p.physical[3]
        );
    }
    Ok(())
}
