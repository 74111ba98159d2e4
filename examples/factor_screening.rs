//! Factor screening: which design parameters actually matter?
//!
//! Runs the DoE flow and prints the standardised-effects ranking (the
//! classic "Pareto of effects") plus the physical main-effect swings for
//! each performance indicator — the first question a designer asks
//! before committing to an optimisation.
//!
//! Run with: `cargo run --release --example factor_screening`

use ehsim::core::experiment::{Campaign, StandardFactors};
use ehsim::core::flow::{DesignChoice, DoeFlow};
use ehsim::core::indicators::Indicator;
use ehsim::core::scenario::Scenario;
use ehsim::core::sensitivity::{effects_ranking, main_effect_ranges};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    println!("=== factor screening on the flagship design problem ===\n");
    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::drifting_machine(3600.0)?,
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )?;
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(8)
        .run(&campaign)?;

    for (idx, ind) in surrogates.indicators().iter().enumerate() {
        println!("--- {ind} ---");
        println!(
            "{:<40} {:>12} {:>8} {:>10}",
            "term", "coeff", "|t|", "p-value"
        );
        println!("{}", "-".repeat(74));
        let ranking = effects_ranking(&surrogates, idx)?;
        for e in ranking.iter().take(8) {
            let bar = "#".repeat((e.t_abs.min(40.0)) as usize);
            println!(
                "{:<40} {:>12.4} {:>8.2} {:>10.2e}  {bar}",
                e.term, e.coefficient, e.t_abs, e.p_value
            );
        }
        println!("\nmain-effect swings (others at centre):");
        for (name, lo, hi) in main_effect_ranges(&surrogates, idx, 21)? {
            println!(
                "  {name:<22} {lo:>10.3} … {hi:>10.3}  (swing {:.3})",
                hi - lo
            );
        }
        println!();
    }
    println!(
        "screening reading: storage capacitance dominates robustness; the task \
         period dominates throughput; the retune threshold matters through its \
         interaction with the drift; TX power is second-order at this range."
    );
    Ok(())
}
