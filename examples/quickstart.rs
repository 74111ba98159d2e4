//! Quickstart: the complete DoE-based design flow in one sitting.
//!
//! 1. Define the design problem (four factors over the default node).
//! 2. Plan a face-centred central composite design (27 + 3 runs).
//! 3. Simulate every design point (the only expensive part).
//! 4. Fit quadratic response-surface models for the indicators.
//! 5. Explore the design space *instantly*: what-ifs, optimisation.
//!
//! Run with: `cargo run --release --example quickstart`

use ehsim::core::experiment::{Campaign, StandardFactors};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::Scenario;
use ehsim::doe::optimize::Goal;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    println!("=== ehsim quickstart: DoE-based node design ===\n");

    // 1. The design problem: storage size, task period, retune
    //    threshold, TX power — evaluated on one hour of a machine that
    //    drifts from 58 Hz to 70 Hz.
    let factors = StandardFactors::default();
    let campaign = Campaign::standard(
        factors,
        Scenario::drifting_machine(3600.0)?,
        vec![
            Indicator::PacketsPerHour,
            Indicator::BrownoutMarginV,
            Indicator::TuningOverheadFraction,
        ],
    )?;
    println!("design space:\n{}", campaign.space());

    // 2–4. Run the flow: design, simulate (in parallel), fit.
    let t0 = Instant::now();
    let flow = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 }).with_threads(8);
    let surrogates = flow.run(&campaign)?;
    println!(
        "campaign: {} simulations in {:.2?} ({:.1} ms each)\n",
        surrogates.campaign_result().sim_count,
        t0.elapsed(),
        t0.elapsed().as_secs_f64() * 1e3 / surrogates.campaign_result().sim_count as f64,
    );

    for (i, ind) in surrogates.indicators().iter().enumerate() {
        let m = surrogates.model(i);
        println!(
            "RSM[{ind}]: R² = {:.4}, adjusted = {:.4}, predicted = {:.4}",
            m.r_squared(),
            m.adj_r_squared(),
            m.predicted_r_squared()
        );
    }

    // 5. Instant exploration: each prediction is one polynomial
    //    evaluation (~nanoseconds vs ~milliseconds per simulation).
    println!("\n--- instant what-ifs (coded units) ---");
    let t1 = Instant::now();
    let mut n_predictions = 0usize;
    for c_store in [-1.0, 0.0, 1.0] {
        for period in [-1.0, 0.0, 1.0] {
            let x = [c_store, period, 0.0, 0.0];
            let pph = surrogates.predict(0, &x)?;
            let margin = surrogates.predict(1, &x)?;
            n_predictions += 2;
            println!(
                "  c_store={c_store:+.0}, period={period:+.0}: {pph:7.1} packets/h, margin {margin:+.3} V"
            );
        }
    }
    println!("  ({n_predictions} predictions in {:.1?})", t1.elapsed());

    // Constrained optimisation on the surface: maximise packet rate
    // while keeping 0.2 V of brown-out margin.
    let best = surrogates.optimize_constrained(0, Goal::Maximize, &[(1, 0.2)], 42)?;
    let physical = surrogates.space().decode(&best.x);
    println!("\n--- optimised design (margin ≥ 0.2 V) ---");
    for (f, v) in surrogates.space().factors().iter().zip(&physical) {
        println!("  {:<22} = {v:.3}", f.name());
    }
    println!("  predicted packets/hour = {:.1}", best.value);
    println!(
        "  predicted margin       = {:+.3} V",
        surrogates.predict(1, &best.x)?
    );

    // Verify the optimum with one fresh simulation.
    let simulated = campaign.evaluate_coded(&best.x)?;
    println!(
        "  simulated packets/hour = {:.1} (model error {:+.1}%)",
        simulated[0],
        100.0 * (best.value - simulated[0]) / simulated[0].max(1e-9)
    );
    Ok(())
}
