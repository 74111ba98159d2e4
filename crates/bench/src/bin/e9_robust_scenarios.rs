//! Experiment E9 — Table: single-scenario optima vs robust
//! cross-scenario optima over a weighted vibration-environment
//! ensemble.
//!
//! The paper's case for a *tunable* harvester is precisely that the
//! vibration environment changes; a tuning optimised for one
//! environment can collapse in another. This experiment builds one
//! batched DoE campaign across the five-environment "factory floor"
//! ensemble, fits per-scenario response surfaces, and compares:
//!
//! * the best design for each individual scenario,
//! * the weighted-mean robust optimum (best expected packets/hour),
//! * the worst-case (min-max) robust optimum (best guaranteed floor),
//!
//! each verified with fresh simulations against every scenario.
//!
//! Output: a fixed-width table on stdout and
//! `e9_robust_scenarios.csv` (one row per candidate × scenario, plus
//! `summary/*` rows per candidate). The CSV contains no wall-clock
//! values, so two invocations produce bit-identical files.

use ehsim_bench::flagship_ensemble;
use ehsim_core::flow::{DesignChoice, DoeFlow};
use ehsim_core::report::write_labeled_csv;
use ehsim_doe::optimize::{Goal, RobustGoal};
use ehsim_doe::Design;
use std::path::PathBuf;

fn main() {
    println!("E9 — robust optimisation across a scenario ensemble\n");
    run(1200.0, 8, PathBuf::from("target"));
}

/// The experiment body, scale-parameterised so the smoke test can run a
/// tiny configuration through the identical code path.
fn run(duration_s: f64, threads: usize, out_dir: PathBuf) {
    let campaign = flagship_ensemble(duration_s);
    let n_scen = campaign.ensemble().len();
    let weights = campaign.ensemble().weights();

    let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
        .with_threads(threads)
        .run_ensemble(&campaign)
        .expect("ensemble flow runs");
    println!(
        "campaign: {} design points x {} scenarios = {} simulations ({:.2} s wall)\n",
        surrogates.design().n_runs(),
        n_scen,
        surrogates.campaign_result().aggregate.sim_count,
        surrogates.build_wall().as_secs_f64()
    );

    // Candidate tunings: each scenario's own optimum, then the two
    // robust aggregates. Packets/hour is indicator 0.
    let mut candidates: Vec<(String, Vec<f64>)> = Vec::new();
    for s in 0..n_scen {
        let opt = surrogates
            .optimize_scenario(s, 0, Goal::Maximize, 42)
            .expect("single-scenario optimisation");
        candidates.push((
            format!("best-for/{}", surrogates.scenario_labels()[s]),
            opt.x,
        ));
    }
    let mean_opt = surrogates
        .optimize_robust(0, Goal::Maximize, RobustGoal::WeightedMean, 42)
        .expect("weighted-mean optimisation");
    candidates.push(("robust/weighted-mean".into(), mean_opt.x));
    let worst_opt = surrogates
        .optimize_robust(0, Goal::Maximize, RobustGoal::WorstCase, 42)
        .expect("worst-case optimisation");
    candidates.push(("robust/worst-case".into(), worst_opt.x));

    // Verify every candidate with fresh simulations in every scenario —
    // batched through the same (candidate × scenario) thread pool as
    // the campaign itself.
    let verify_design = Design::new(
        campaign.space().k(),
        candidates.iter().map(|(_, x)| x.clone()).collect(),
        "e9-verify",
    )
    .expect("candidate points are finite");
    let verify = campaign
        .run_design(&verify_design, threads)
        .expect("verification sims");

    let mut csv_labels: Vec<String> = Vec::new();
    let mut csv_rows: Vec<Vec<f64>> = Vec::new();
    let mut summary: Vec<(String, f64, f64, f64)> = Vec::new(); // label, worst, mean, min margin
    for (c, (label, x)) in candidates.iter().enumerate() {
        let mut worst = f64::INFINITY;
        let mut min_margin = f64::INFINITY;
        for s in 0..n_scen {
            let packets = verify.per_scenario[s].responses[c][0];
            let margin = verify.per_scenario[s].responses[c][1];
            worst = worst.min(packets);
            min_margin = min_margin.min(margin);
            csv_labels.push(format!("{label}/{}", surrogates.scenario_labels()[s]));
            csv_rows.push(vec![
                weights[s],
                packets,
                margin,
                surrogates
                    .predict_scenario(s, 0, x)
                    .expect("rsm prediction"),
            ]);
        }
        let mean = verify.aggregate.responses[c][0];
        csv_labels.push(format!("summary/{label}"));
        csv_rows.push(vec![1.0, worst, mean, min_margin]);
        summary.push((label.clone(), worst, mean, min_margin));
    }

    println!(
        "{:<34} {:>14} {:>14} {:>14}",
        "candidate tuning", "worst pkt/h", "mean pkt/h", "min margin V"
    );
    println!("{}", "-".repeat(80));
    for (label, worst, mean, margin) in &summary {
        println!("{label:<34} {worst:>14.1} {mean:>14.1} {margin:>14.3}");
    }

    let robust_worst = summary[n_scen + 1].1;
    let dominated = summary[..n_scen].iter().all(|row| robust_worst >= row.1);
    println!(
        "\nworst-case robust optimum beats every single-scenario optimum on the \
         guaranteed packets/hour floor: {dominated}"
    );
    println!("{}", verdict(&summary, n_scen));

    let path = out_dir.join("e9_robust_scenarios.csv");
    write_labeled_csv(
        &path,
        &[
            "candidate_scenario",
            "weight",
            "packets_per_hour_sim",
            "brownout_margin_v_sim",
            "packets_per_hour_rsm",
        ],
        &csv_labels,
        &csv_rows,
    )
    .expect("csv writes");
    println!("\nwrote {} ({} rows)", path.display(), csv_rows.len());
}

/// The closing sentence, read off the verified summary rows (label,
/// worst, mean, min margin; the `n_scen` single-scenario optima, then
/// the weighted-mean and the worst-case robust optima). The min-max
/// trade-off is claimed only when the table shows both halves of it:
/// the worst-case optimum's floor is at least every single-scenario
/// optimum's, and its mean is below the best single-scenario mean.
fn verdict(summary: &[(String, f64, f64, f64)], n_scen: usize) -> String {
    let (singles, robust) = summary.split_at(n_scen.min(summary.len()));
    let Some((_, robust_worst, robust_mean, _)) = robust.get(1) else {
        return "the table has no worst-case robust optimum to compare.".into();
    };
    if let Some((label, worst, _, _)) = singles.iter().find(|row| !(*robust_worst >= row.1)) {
        return format!(
            "the min-max tuning does not hold the highest floor: {label} keeps \
             {worst:.1} packets/hour in its worst scenario, the min-max tuning \
             {robust_worst:.1}."
        );
    }
    let best_mean = singles
        .iter()
        .map(|row| row.2)
        .fold(f64::NEG_INFINITY, f64::max);
    if *robust_mean < best_mean {
        format!(
            "a tuning chased for one environment pays for it in the others; the \
             min-max tuning gives up peak rate (mean {robust_mean:.1} vs \
             {best_mean:.1} packets/hour) for a floor that holds across the whole \
             ensemble ({robust_worst:.1} packets/hour)."
        )
    } else {
        format!(
            "the min-max tuning holds the highest floor ({robust_worst:.1} \
             packets/hour) and gives up no mean rate: its mean {robust_mean:.1} \
             packets/hour is at least every single-scenario optimum's."
        )
    }
}

#[cfg(test)]
mod smoke {
    #[test]
    fn e9_runs_and_its_csv_is_deterministic() {
        let out_a = std::env::temp_dir().join("ehsim_e9_smoke_a");
        let out_b = std::env::temp_dir().join("ehsim_e9_smoke_b");
        for d in [&out_a, &out_b] {
            std::fs::create_dir_all(d).expect("temp dir");
            super::run(60.0, 4, d.clone());
        }
        let a = std::fs::read(out_a.join("e9_robust_scenarios.csv")).expect("csv a");
        let b = std::fs::read(out_b.join("e9_robust_scenarios.csv")).expect("csv b");
        assert!(!a.is_empty());
        assert_eq!(a, b, "e9 CSV must be bit-identical across invocations");
    }

    #[test]
    fn verdict_follows_the_table() {
        let table = |rows: [(f64, f64); 4]| -> Vec<(String, f64, f64, f64)> {
            let labels = ["best-for/a", "best-for/b", "robust/mean", "robust/worst"];
            labels
                .iter()
                .zip(rows)
                .map(|(l, (worst, mean))| (l.to_string(), worst, mean, 0.1))
                .collect()
        };
        // Higher floor, lower mean: the trade-off sentence holds.
        let v = super::verdict(
            &table([(10.0, 90.0), (20.0, 80.0), (25.0, 85.0), (30.0, 70.0)]),
            2,
        );
        assert!(v.contains("for a floor that holds"), "{v}");
        assert!(v.contains("mean 70.0 vs 90.0"), "{v}");
        // A single-scenario optimum keeps a higher floor.
        let v = super::verdict(
            &table([(10.0, 90.0), (40.0, 80.0), (25.0, 85.0), (30.0, 70.0)]),
            2,
        );
        assert!(
            v.contains("does not hold the highest floor: best-for/b keeps 40.0"),
            "{v}"
        );
        // Highest floor at no cost in mean rate.
        let v = super::verdict(
            &table([(10.0, 60.0), (20.0, 65.0), (25.0, 85.0), (30.0, 70.0)]),
            2,
        );
        assert!(v.contains("gives up no mean rate"), "{v}");
        assert!(!v.contains("floor that holds"), "{v}");
    }
}
