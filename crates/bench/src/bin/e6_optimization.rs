//! Experiment E6 — Table: the DoE/RSM flow vs classical
//! simulation-driven optimisers, at matched objective quality.
//!
//! Task: maximise packets/hour subject to a non-negative brown-out
//! margin. The classical methods pay one full system simulation per
//! probe; the DoE flow pays a fixed campaign and optimises on the
//! surface for free.

use ehsim_bench::flagship_campaign;
use ehsim_core::baselines::{genetic, grid_search, nelder_mead, simulated_annealing};
use ehsim_core::flow::{DesignChoice, DoeFlow};
use ehsim_doe::optimize::Goal;
use std::time::Instant;

fn main() {
    println!("E6 — optimisation cost comparison (maximise packets/h, margin >= 0)\n");
    run(1800.0, 3, 60, 8);
}

/// The experiment body, scale-parameterised so the smoke test can run a
/// tiny configuration through the identical code path. `grid_levels`
/// sets the grid-search resolution and `evals` the budget of each
/// sequential optimiser.
fn run(duration_s: f64, grid_levels: usize, evals: usize, threads: usize) {
    let ga_generations = (evals / 10).max(1);
    let campaign = flagship_campaign(duration_s);

    // The penalised simulation objective every classical method sees.
    let sim_calls = std::cell::Cell::new(0usize);
    let mut objective = |x: &[f64]| -> f64 {
        sim_calls.set(sim_calls.get() + 1);
        let y = campaign.evaluate_coded(x).expect("simulation runs");
        let packets = y[0];
        let margin = y[1];
        if margin < 0.0 {
            packets - 2000.0 * (-margin)
        } else {
            packets
        }
    };

    let mut labels: Vec<String> = Vec::new();
    let mut table: Vec<Vec<f64>> = Vec::new();

    // DoE flow.
    let t0 = Instant::now();
    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(threads)
        .run(&campaign)
        .expect("flow runs");
    let best = surrogates
        .optimize_constrained(0, Goal::Maximize, &[(1, 0.0)], 42)
        .expect("surface optimisation");
    let verify = campaign.evaluate_coded(&best.x).expect("verification");
    let doe_wall = t0.elapsed();
    labels.push("doe-rsm flow".into());
    table.push(vec![
        (surrogates.campaign_result().sim_count + 1) as f64,
        verify[0],
        verify[1],
        doe_wall.as_secs_f64(),
    ]);

    // Classical methods, budget-matched to roughly 2-3x the DoE cost.
    {
        sim_calls.set(0);
        let t = Instant::now();
        let out = grid_search(&mut objective, 4, grid_levels).expect("grid runs");
        let y = campaign.evaluate_coded(&out.best).expect("verify");
        labels.push(format!("grid {grid_levels}^4"));
        table.push(vec![
            (sim_calls.get() + 1) as f64,
            y[0],
            y[1],
            t.elapsed().as_secs_f64(),
        ]);
    }
    {
        sim_calls.set(0);
        let t = Instant::now();
        let out = nelder_mead(&mut objective, 4, evals).expect("nelder-mead runs");
        let y = campaign.evaluate_coded(&out.best).expect("verify");
        labels.push(format!("nelder-mead ({evals} evals)"));
        table.push(vec![
            (sim_calls.get() + 1) as f64,
            y[0],
            y[1],
            t.elapsed().as_secs_f64(),
        ]);
    }
    {
        sim_calls.set(0);
        let t = Instant::now();
        let out = simulated_annealing(&mut objective, 4, evals, 7).expect("annealing runs");
        let y = campaign.evaluate_coded(&out.best).expect("verify");
        labels.push(format!("sim-annealing ({evals} evals)"));
        table.push(vec![
            (sim_calls.get() + 1) as f64,
            y[0],
            y[1],
            t.elapsed().as_secs_f64(),
        ]);
    }
    {
        sim_calls.set(0);
        let t = Instant::now();
        let out = genetic(&mut objective, 4, 10, ga_generations, 13).expect("genetic runs");
        let y = campaign.evaluate_coded(&out.best).expect("verify");
        labels.push(format!("genetic (10x{ga_generations})"));
        table.push(vec![
            (sim_calls.get() + 1) as f64,
            y[0],
            y[1],
            t.elapsed().as_secs_f64(),
        ]);
    }

    println!(
        "{:<26} {:>10} {:>14} {:>12} {:>10}",
        "method", "sim calls", "packets/h", "margin (V)", "wall (s)"
    );
    println!("{}", "-".repeat(78));
    for (label, row) in labels.iter().zip(table.iter()) {
        println!(
            "{:<26} {:>10.0} {:>14.1} {:>12.3} {:>10.2}",
            label, row[0], row[1], row[2], row[3]
        );
    }
    println!("\n{}", verdict(&labels, &table));
}

/// The closing sentence, read off the table (rows: sim calls,
/// packets/h, margin, wall; the DoE flow first). The DoE claim holds
/// only when its verified design is feasible (margin >= 0) and delivers
/// at least the packets/h of every feasible classical design; otherwise
/// the sentence names the feasible design with the most packets/h.
fn verdict(labels: &[String], table: &[Vec<f64>]) -> String {
    let feasible = |row: &[f64]| row[2] >= 0.0;
    let doe = &table[0];
    if feasible(doe)
        && table[1..]
            .iter()
            .filter(|r| feasible(r))
            .all(|r| r[1] <= doe[1])
    {
        return "the DoE flow reaches comparable or better feasible designs from a \
                fixed, parallelisable simulation budget — and every *further* \
                trade-off question afterwards is free, whereas each classical \
                method restarts from zero."
            .into();
    }
    let best = labels
        .iter()
        .zip(table)
        .filter(|(_, row)| feasible(row))
        .max_by(|a, b| a.1[1].total_cmp(&b.1[1]));
    match best {
        Some((label, row)) => format!(
            "the feasible design with the most packets/h ({:.1}) comes from {label}, \
             not from the DoE flow.",
            row[1]
        ),
        None => "no method reached a feasible design (margin >= 0).".into(),
    }
}

#[cfg(test)]
mod smoke {
    #[test]
    fn e6_runs_on_a_tiny_configuration() {
        super::run(60.0, 2, 10, 2);
    }

    #[test]
    fn verdict_follows_the_table() {
        let labels = ["doe", "grid", "nm"].map(String::from);
        let verdict = |rows: [(f64, f64); 3]| {
            let table: Vec<Vec<f64>> = rows.iter().map(|&(p, m)| vec![1.0, p, m, 0.0]).collect();
            super::verdict(&labels, &table)
        };
        // An infeasible classical design may deliver more.
        let claim = verdict([(120.0, 0.1), (120.0, 0.2), (200.0, -0.1)]);
        assert!(claim.starts_with("the DoE flow reaches"), "{claim}");
        let beaten = verdict([(120.0, 0.1), (130.0, 0.0), (60.0, 0.3)]);
        assert!(beaten.contains("(130.0) comes from grid"), "{beaten}");
        let infeasible = verdict([(300.0, -0.1), (60.0, 0.0), (90.0, 0.3)]);
        assert!(infeasible.contains("(90.0) comes from nm"), "{infeasible}");
        let none = verdict([(300.0, -0.1), (60.0, -0.2), (90.0, -0.3)]);
        assert!(none.starts_with("no method"), "{none}");
    }
}
