//! Experiment E11 — Table: DoE-optimised static tuning vs
//! DoE-optimised *adaptive* energy-management policies.
//!
//! The paper optimises static tunings; the adaptive-policy literature
//! (Sharma et al., arXiv:0809.3908; Srivastava & Koksal,
//! arXiv:1009.0569) argues the real win is a runtime policy that adapts
//! consumption to the stored-energy state. This experiment closes the
//! loop between the two: the *parameters of the adaptive policy* are
//! themselves optimised by the paper's DoE/RSM flow, over the same
//! design family and simulation budget per factor as the static
//! baseline.
//!
//! Three arms, one per `PolicyFactorSet` family — `static` (tuning
//! factors only), `threshold` (hysteresis bands), `energy-aware`
//! (harvest-tracking pacing) — are each DoE-optimised for
//! weighted-mean packets/hour across an extended "factory floor"
//! ensemble: the five canonical environments plus two new
//! *non-stationary* ones (`fading-64Hz`, whose vibration level fades
//! with machine load, and `intermittent-64Hz`, long on/off machinery
//! blocks). Every optimised arm is then verified with fresh
//! simulations in every scenario.
//!
//! Output: a fixed-width table on stdout and `e11_policies.csv` (one
//! row per arm × scenario plus `summary/*` rows per arm). The CSV
//! contains no wall-clock values, so two invocations produce
//! bit-identical files. Pass `--smoke` for the seconds-scale variant
//! CI runs.

use ehsim_bench::{e11_ensemble, e11_factors};
use ehsim_core::experiment::{EnsembleCampaign, PolicyFactorSet};
use ehsim_core::flow::{DesignChoice, DoeFlow};
use ehsim_core::indicators::Indicator;
use ehsim_core::report::write_labeled_csv;
use ehsim_doe::optimize::{Goal, RobustGoal};
use ehsim_doe::Design;
use std::path::PathBuf;

/// CSV column header, shared with the smoke test and asserted by CI.
pub const CSV_HEADER: [&str; 6] = [
    "candidate_scenario",
    "weight",
    "packets_per_hour_sim",
    "brownout_margin_v_sim",
    "uptime_fraction_sim",
    "packets_per_hour_rsm",
];

/// Per-scenario brown-out margin floor (V) enforced by the constrained
/// optimisation: the energy-neutral-operation guarantee every arm must
/// honour in *every* environment of the ensemble.
const MARGIN_FLOOR_V: f64 = 0.10;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("E11 — static tuning vs adaptive energy-management policies\n");
    if smoke {
        run(90.0, 4, PathBuf::from("target"));
    } else {
        run(28800.0, 8, PathBuf::from("target"));
    }
}

/// One verified arm: label, per-scenario responses, summary stats.
struct Arm {
    label: &'static str,
    /// `per_scenario[s] = (packets, margin, uptime, rsm_packets)`.
    per_scenario: Vec<(f64, f64, f64, f64)>,
    worst_packets: f64,
    mean_packets: f64,
    mean_uptime: f64,
    min_margin: f64,
}

/// The experiment body, scale-parameterised so the smoke test can run a
/// tiny configuration through the identical code path.
fn run(duration_s: f64, threads: usize, out_dir: PathBuf) {
    let ensemble = e11_ensemble(duration_s);
    let n_scen = ensemble.len();
    let weights = ensemble.weights();
    let labels: Vec<String> = ensemble.labels().iter().map(|l| l.to_string()).collect();
    let indicators = vec![
        Indicator::PacketsPerHour,
        Indicator::BrownoutMarginV,
        Indicator::UptimeFraction,
    ];

    let families = [
        PolicyFactorSet::Static,
        PolicyFactorSet::default_threshold(),
        PolicyFactorSet::default_energy_aware(),
    ];

    let mut arms: Vec<Arm> = Vec::new();
    for set in families {
        let label = set.label();
        let factors = e11_factors(set);
        let campaign = EnsembleCampaign::adaptive(factors, ensemble.clone(), indicators.clone())
            .expect("valid campaign");
        let surrogates = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
            .with_threads(threads)
            .run_ensemble(&campaign)
            .expect("ensemble flow runs");
        // Maximise expected packets subject to a brown-out-margin
        // floor in every scenario — the energy-neutral-operation
        // objective of the adaptive-EM literature. Without the floor
        // the packet optimum is a degenerate "storage miner" that
        // brown-out-cycles through every environment.
        let opt = surrogates
            .optimize_robust_constrained(
                0,
                Goal::Maximize,
                RobustGoal::WeightedMean,
                &[(1, MARGIN_FLOOR_V)],
                42,
            )
            .expect("constrained weighted-mean optimisation");
        let physical = campaign.space().decode(&opt.x);
        let described: Vec<String> = campaign
            .space()
            .factors()
            .iter()
            .zip(physical.iter())
            .map(|(f, v)| format!("{}={v:.4}", f.name()))
            .collect();
        println!(
            "arm `{label}`: {} design points x {n_scen} scenarios = {} simulations\n  optimum: {}",
            surrogates.design().n_runs(),
            surrogates.campaign_result().aggregate.sim_count,
            described.join(", "),
        );

        // Verify the optimised arm with fresh simulations everywhere.
        let verify_design = Design::new(
            campaign.space().k(),
            vec![opt.x.clone()],
            &format!("e11-verify-{label}"),
        )
        .expect("candidate point is finite");
        let verify = campaign
            .run_design(&verify_design, threads)
            .expect("verification sims");
        let per_scenario: Vec<(f64, f64, f64, f64)> = (0..n_scen)
            .map(|s| {
                (
                    verify.per_scenario[s].responses[0][0],
                    verify.per_scenario[s].responses[0][1],
                    verify.per_scenario[s].responses[0][2],
                    surrogates
                        .predict_scenario(s, 0, &opt.x)
                        .expect("rsm prediction"),
                )
            })
            .collect();
        let worst_packets = per_scenario
            .iter()
            .map(|r| r.0)
            .fold(f64::INFINITY, f64::min);
        let min_margin = per_scenario
            .iter()
            .map(|r| r.1)
            .fold(f64::INFINITY, f64::min);
        let mean_packets = verify.aggregate.responses[0][0];
        let mean_uptime = verify.aggregate.responses[0][2];
        arms.push(Arm {
            label,
            per_scenario,
            worst_packets,
            mean_packets,
            mean_uptime,
            min_margin,
        });
    }

    println!(
        "\n{:<16} {:>14} {:>14} {:>14}",
        "arm", "worst pkt/h", "mean pkt/h", "min margin V"
    );
    println!("{}", "-".repeat(62));
    for arm in &arms {
        println!(
            "{:<16} {:>14.1} {:>14.1} {:>14.3}",
            arm.label, arm.worst_packets, arm.mean_packets, arm.min_margin
        );
    }

    // Per-scenario static-vs-adaptive comparison: the adaptive claim is
    // that a runtime policy wins where the environment is
    // non-stationary without giving up the stationary case.
    let static_arm = &arms[0];
    println!(
        "\n{:<22} {:>12} {:>12} {:>12} {:>10}",
        "scenario", "static", "threshold", "energy-aware", "best/static"
    );
    println!("{}", "-".repeat(74));
    for s in 0..n_scen {
        let stat = static_arm.per_scenario[s].0;
        let thr = arms[1].per_scenario[s].0;
        let ea = arms[2].per_scenario[s].0;
        let best = thr.max(ea);
        println!(
            "{:<22} {:>12.1} {:>12.1} {:>12.1} {:>9.2}x",
            labels[s],
            stat,
            thr,
            ea,
            best / stat.max(1e-9)
        );
    }

    let thr = &arms[1];
    let gains: Vec<f64> = (0..n_scen)
        .map(|s| 100.0 * (thr.per_scenario[s].0 / static_arm.per_scenario[s].0.max(1e-9) - 1.0))
        .collect();
    println!(
        "\n{}",
        verdict(
            100.0 * (thr.mean_packets / static_arm.mean_packets.max(1e-9) - 1.0),
            &labels,
            &gains,
        )
    );

    // CSV artefact (no wall-clock values anywhere).
    let mut csv_labels: Vec<String> = Vec::new();
    let mut csv_rows: Vec<Vec<f64>> = Vec::new();
    for arm in &arms {
        for s in 0..n_scen {
            let (packets, margin, uptime, rsm) = arm.per_scenario[s];
            csv_labels.push(format!("{}/{}", arm.label, labels[s]));
            csv_rows.push(vec![weights[s], packets, margin, uptime, rsm]);
        }
        // Summary row semantics: worst packets, minimum margin, mean
        // uptime in the shared columns; the RSM column carries the
        // weighted-mean packets the arm was optimised for.
        csv_labels.push(format!("summary/{}", arm.label));
        csv_rows.push(vec![
            1.0,
            arm.worst_packets,
            arm.min_margin,
            arm.mean_uptime,
            arm.mean_packets,
        ]);
    }
    let path = out_dir.join("e11_policies.csv");
    write_labeled_csv(&path, &CSV_HEADER, &csv_labels, &csv_rows).expect("csv writes");
    println!("\nwrote {} ({} rows)", path.display(), csv_rows.len());
}

/// The closing sentence, read off the verified table: the threshold
/// arm's weighted-mean packet gain over the static tuning, then the (at
/// most two) scenarios with the largest per-scenario gains, each with
/// its sign, whichever environments those are.
fn verdict(mean_gain_pct: f64, labels: &[String], gains_pct: &[f64]) -> String {
    let mut order: Vec<usize> = (0..gains_pct.len().min(labels.len())).collect();
    order.sort_by(|&a, &b| gains_pct[b].total_cmp(&gains_pct[a]));
    let largest: Vec<String> = order
        .iter()
        .take(2)
        .map(|&s| format!("{} ({:+.0}%)", labels[s], gains_pct[s]))
        .collect();
    let head = format!(
        "under the same {MARGIN_FLOOR_V} V per-scenario margin floor, DoE-optimised \
         adaptive throttling delivers {mean_gain_pct:+.0}% expected packets vs the best \
         static tuning"
    );
    match largest.as_slice() {
        [] => format!("{head}."),
        [one] => format!("{head}; its per-scenario gain is {one}."),
        _ => format!(
            "{head}; its largest per-scenario gains are in {}.",
            largest.join(" and ")
        ),
    }
}

#[cfg(test)]
mod smoke {
    #[test]
    fn e11_runs_and_its_csv_is_deterministic() {
        let out_a = std::env::temp_dir().join("ehsim_e11_smoke_a");
        let out_b = std::env::temp_dir().join("ehsim_e11_smoke_b");
        for d in [&out_a, &out_b] {
            std::fs::create_dir_all(d).expect("temp dir");
            super::run(60.0, 4, d.clone());
        }
        let a = std::fs::read(out_a.join("e11_policies.csv")).expect("csv a");
        let b = std::fs::read(out_b.join("e11_policies.csv")).expect("csv b");
        assert!(!a.is_empty());
        assert_eq!(a, b, "e11 CSV must be bit-identical across invocations");
        // Header and row shape: 3 arms x (7 scenarios + summary).
        let text = String::from_utf8(a).expect("utf8 csv");
        let mut lines = text.lines();
        assert_eq!(lines.next().expect("header"), super::CSV_HEADER.join(","));
        assert_eq!(lines.count(), 3 * 8, "unexpected row count");
    }

    #[test]
    fn verdict_names_the_largest_measured_gains() {
        let labels = [
            "stationary-64Hz",
            "drifting",
            "fading-64Hz",
            "intermittent-64Hz",
        ]
        .map(String::from);
        // A stationary environment gains most; a non-stationary one loses.
        let v = super::verdict(12.4, &labels, &[31.0, 2.0, 9.6, -7.0]);
        assert!(v.contains("+12% expected packets"), "{v}");
        assert!(
            v.contains("gains are in stationary-64Hz (+31%) and fading-64Hz (+10%)."),
            "{v}"
        );
        assert!(!v.contains("intermittent"), "{v}");
        // Every gain negative: the signs are printed as measured.
        let v = super::verdict(-5.0, &labels[2..], &[-3.0, -8.0]);
        assert!(v.contains("-5% expected packets"), "{v}");
        assert!(
            v.contains("fading-64Hz (-3%) and intermittent-64Hz (-8%)"),
            "{v}"
        );
        let v = super::verdict(1.0, &labels[..1], &[1.0]);
        assert!(
            v.ends_with("its per-scenario gain is stationary-64Hz (+1%)."),
            "{v}"
        );
    }
}
