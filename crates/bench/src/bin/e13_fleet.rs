//! Experiment E13 — Table: shared vs per-cluster harvester tuning for
//! a fleet's delivered-packet throughput.
//!
//! The paper tunes *one* node with the DoE/RSM flow. At fleet scale
//! the question changes shape: the nodes nearest the sink relay the
//! whole network's traffic, so a single fleet-wide tuning either
//! over-provisions the leaf shells or starves the relay core. This
//! experiment runs the paper's flow at both granularities over a
//! 1k-node fleet (constant-density uniform placement, energy-aware
//! routing, per-bit radio energy model):
//!
//! * **shared arm** — one (C_store, task-period) pair for every node,
//!   optimised on a face-centred CCD + quadratic RSM, maximising the
//!   relay-attenuation-weighted delivered-packet throughput subject to
//!   a per-node brown-out-margin floor (exact-penalty composition, as
//!   in e11);
//! * **per-cluster arm** — one pair per min-hop ring (sink-adjacent
//!   relays / two-hop shell / deep shell), refined by coordinate
//!   descent: each ring gets its own CCD + RSM + constrained optimum
//!   with the other rings frozen, and a ring's update is accepted only
//!   if a **fresh fleet simulation** beats the incumbent while
//!   honouring the floor. The descent starts at the shared optimum, so
//!   the per-cluster candidate can only match or beat it.
//!
//! Both arms' reported numbers are fresh-simulation verified — the RSM
//! column is printed next to them precisely so the surrogate error is
//! visible. Output: a fixed-width table on stdout and `e13_fleet.csv`;
//! the CSV contains no wall-clock values and every fleet response is
//! bit-identical for any worker-thread count, so two invocations (at
//! any thread counts) produce byte-identical files. Pass `--smoke` for
//! the seconds-scale variant CI runs.

use ehsim_bench::{e13_base_config, e13_placement, e13_rings, E13_N_RINGS};
use ehsim_core::fleet::{ConfigureFleet, FleetCampaign, FleetIndicator};
use ehsim_core::report::write_labeled_csv;
use ehsim_core::space::{DesignSpace, Factor};
use ehsim_doe::design::ccd::CentralComposite;
use ehsim_doe::optimize::{optimize_fn, Goal};
use ehsim_doe::{Design, FittedModel};
use ehsim_net::{Dispatch, FleetSimulator, FleetSpec, Point, RadioEnergyModel, Topology};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// CSV column header, shared with the smoke test and asserted by CI.
pub const CSV_HEADER: [&str; 9] = [
    "candidate",
    "c_store_f",
    "task_period_s",
    "delivered_per_hour_sim",
    "delivery_fraction_sim",
    "min_margin_v_sim",
    "first_death_frac_sim",
    "residual_spread_mj_sim",
    "delivered_per_hour_rsm",
];

/// Fleet-wide brown-out-margin floor (V) enforced by the constrained
/// optimisation: no node of the fleet may graze its cut-off rail, so
/// the packet optimum cannot be a relay-core storage miner.
const MARGIN_FLOOR_V: f64 = 0.05;

/// Indicator order shared by every campaign in this binary; the CSV
/// columns and the objective/constraint indices below depend on it.
const OBJECTIVE: usize = 0; // DeliveredPerHour
const CONSTRAINT: usize = 2; // MinBrownoutMarginV

fn indicators() -> Vec<FleetIndicator> {
    vec![
        FleetIndicator::DeliveredPerHour,
        FleetIndicator::DeliveryFraction,
        FleetIndicator::MinBrownoutMarginV,
        FleetIndicator::FirstDeathFraction,
        FleetIndicator::ResidualSpreadMj,
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("E13 — shared vs per-cluster harvester tuning at fleet scale\n");
    if smoke {
        run(48, 120.0, 2, PathBuf::from("target"));
        bench_fleet(true, 4, Path::new("target"));
    } else {
        run(1000, 600.0, 8, PathBuf::from("target"));
        bench_fleet(false, 8, Path::new("target"));
    }
}

/// The (C_store, task-period) tuning space every ring shares — the e11
/// static-arm ranges.
fn tuning_space() -> DesignSpace {
    DesignSpace::new(vec![
        Factor::new("c_store_f", 0.03, 0.1).expect("valid factor"),
        Factor::new("task_period_s", 1.0, 20.0).expect("valid factor"),
    ])
    .expect("valid space")
}

/// Builds the point-to-fleet mapping: every node takes the tuning of
/// its ring from `ring_codes` (coded units), except that the campaign
/// point overrides ring `target` — or every ring when `target` is
/// `None` (the shared arm).
#[allow(clippy::too_many_arguments)]
fn make_configure(
    positions: Vec<Point>,
    sink: Point,
    range_m: f64,
    duration_s: f64,
    space: DesignSpace,
    rings: Vec<usize>,
    ring_codes: Vec<[f64; 2]>,
    target: Option<usize>,
) -> ConfigureFleet {
    Arc::new(move |coded: &[f64]| {
        let mut spec = FleetSpec::homogeneous(
            e13_base_config(),
            positions.clone(),
            sink,
            range_m,
            duration_s,
        );
        for (node, &ring) in spec.nodes.iter_mut().zip(&rings) {
            let code = if target.map_or(true, |t| t == ring) {
                [coded[0], coded[1]]
            } else {
                ring_codes[ring]
            };
            let phys = space.decode(&code);
            node.config.storage.capacitance = phys[0];
            node.config.task.period_s = phys[1];
        }
        spec
    })
}

/// Fits the campaign's RSMs and returns the constrained optimum of the
/// exact-penalty composition: delivered throughput, minus a penalty
/// steep enough (100× the observed response range) that no admissible
/// gain can pay for a floor violation.
fn constrained_optimum(campaign: &FleetCampaign, design: &Design) -> (Vec<f64>, Vec<FittedModel>) {
    let result = campaign.run_design(design).expect("design simulates");
    let models = campaign.fit_quadratic(&result).expect("quadratic fits");
    let delivered = result.response_column(OBJECTIVE);
    let (lo, hi) = delivered
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let penalty_scale = 100.0 * (hi - lo).max(1.0);
    let objective = |x: &[f64]| {
        let value = models[OBJECTIVE].predict(x);
        let margin = models[CONSTRAINT].predict(x);
        if margin < MARGIN_FLOOR_V {
            value - penalty_scale * (MARGIN_FLOOR_V - margin)
        } else {
            value
        }
    };
    let opt = optimize_fn(&objective, 2, (-1.0, 1.0), Goal::Maximize, 42, 16)
        .expect("constrained optimisation");
    (opt.x, models)
}

/// One CSV/table row: label, physical tuning, fresh-sim indicator
/// vector, RSM-predicted throughput.
struct Row {
    label: String,
    physical: Vec<f64>,
    sim: Vec<f64>,
    rsm: f64,
}

/// The experiment body, scale-parameterised so the smoke test can run a
/// tiny fleet through the identical code path.
fn run(n_nodes: usize, duration_s: f64, threads: usize, out_dir: PathBuf) {
    let (positions, sink, range_m) = e13_placement(n_nodes);
    let space = tuning_space();
    let design = CentralComposite::face_centered(2)
        .expect("2-factor CCD")
        .with_center_points(1)
        .build()
        .expect("valid design");

    // Ring clusters are a function of the topology alone — compute
    // them once from a throwaway baseline fleet.
    let baseline = FleetSimulator::new(FleetSpec::homogeneous(
        e13_base_config(),
        positions.clone(),
        sink,
        range_m,
        duration_s,
    ))
    .expect("baseline fleet is valid");
    let rings = e13_rings(baseline.topology());
    let ring_sizes: Vec<usize> = (0..E13_N_RINGS)
        .map(|r| rings.iter().filter(|&&x| x == r).count())
        .collect();
    println!(
        "fleet: {n_nodes} nodes, {duration_s:.0} s horizon, {} design points/ring, \
         rings {ring_sizes:?} (sink-adjacent -> deep)",
        design.n_runs(),
    );

    // ---- Shared arm: one tuning for the whole fleet. ----
    let center = [0.0, 0.0];
    let shared_campaign = FleetCampaign::new(
        space.clone(),
        make_configure(
            positions.clone(),
            sink,
            range_m,
            duration_s,
            space.clone(),
            rings.clone(),
            vec![center; E13_N_RINGS],
            None,
        ),
        indicators(),
    )
    .expect("valid campaign")
    .with_threads(threads);
    let (shared_x, shared_models) = constrained_optimum(&shared_campaign, &design);
    let shared_sim = shared_campaign
        .evaluate_coded(&shared_x)
        .expect("shared verification sim");
    let mut rows = vec![Row {
        label: "shared/optimum".into(),
        physical: space.decode(&shared_x),
        sim: shared_sim.clone(),
        rsm: shared_models[OBJECTIVE].predict(&shared_x),
    }];

    // ---- Per-cluster arm: coordinate descent over the rings,
    // starting from the shared optimum so the verified result can only
    // match or beat it. ----
    let mut ring_codes = vec![[shared_x[0], shared_x[1]]; E13_N_RINGS];
    let mut incumbent = shared_sim.clone();
    let mut any_accepted = false;
    for ring in 0..E13_N_RINGS {
        let campaign = FleetCampaign::new(
            space.clone(),
            make_configure(
                positions.clone(),
                sink,
                range_m,
                duration_s,
                space.clone(),
                rings.clone(),
                ring_codes.clone(),
                Some(ring),
            ),
            indicators(),
        )
        .expect("valid campaign")
        .with_threads(threads);
        let (ring_x, ring_models) = constrained_optimum(&campaign, &design);
        let candidate = campaign
            .evaluate_coded(&ring_x)
            .expect("ring verification sim");
        let accepted =
            candidate[OBJECTIVE] > incumbent[OBJECTIVE] && candidate[CONSTRAINT] >= MARGIN_FLOOR_V;
        println!(
            "ring {ring} ({} nodes): candidate {:.1} pkt/h vs incumbent {:.1} -> {}",
            ring_sizes[ring],
            candidate[OBJECTIVE],
            incumbent[OBJECTIVE],
            if accepted { "accepted" } else { "rejected" },
        );
        if accepted {
            ring_codes[ring] = [ring_x[0], ring_x[1]];
            incumbent = candidate;
            any_accepted = true;
        }
        rows.push(Row {
            label: format!("per-cluster/ring-{ring}"),
            physical: space.decode(&ring_codes[ring]),
            sim: incumbent.clone(),
            rsm: ring_models[OBJECTIVE].predict(&ring_codes[ring].to_vec()),
        });
    }

    // ---- Report. ----
    let gain = incumbent[OBJECTIVE] / rows[0].sim[OBJECTIVE].max(1e-9) - 1.0;
    println!(
        "\n{:<22} {:>9} {:>9} {:>12} {:>9} {:>9} {:>11}",
        "candidate", "C_store", "period s", "pkt/h (sim)", "deliv", "margin V", "pkt/h (rsm)"
    );
    println!("{}", "-".repeat(88));
    for row in &rows {
        println!(
            "{:<22} {:>9.4} {:>9.2} {:>12.1} {:>9.3} {:>9.3} {:>11.1}",
            row.label,
            row.physical[0],
            row.physical[1],
            row.sim[OBJECTIVE],
            row.sim[1],
            row.sim[CONSTRAINT],
            row.rsm,
        );
    }
    let why = if any_accepted && gain > 0.0 {
        "the sink-adjacent relay ring and the leaf shells want different \
         storage/duty points, and one shared tuning has to split the difference"
    } else {
        "no ring's candidate beat the shared optimum, so the fleet keeps the \
         shared tuning"
    };
    println!(
        "\nper-cluster tuning delivers {:+.1}% throughput over the shared optimum \
         under the same {MARGIN_FLOOR_V} V fleet-wide margin floor (both fresh-sim \
         verified): {why}.",
        100.0 * gain,
    );

    // CSV artefact (no wall-clock values anywhere). The `summary/gain`
    // row reuses the columns: tuning columns are zero, the sim columns
    // carry the final per-cluster fleet's indicators, and the RSM
    // column carries the verified throughput gain as a fraction.
    let mut csv_labels: Vec<String> = Vec::new();
    let mut csv_rows: Vec<Vec<f64>> = Vec::new();
    for row in &rows {
        csv_labels.push(row.label.clone());
        let mut cols = row.physical.clone();
        cols.extend_from_slice(&row.sim);
        cols.push(row.rsm);
        csv_rows.push(cols);
    }
    csv_labels.push("summary/gain".into());
    let mut summary = vec![0.0, 0.0];
    summary.extend_from_slice(&incumbent);
    summary.push(gain);
    csv_rows.push(summary);
    let path = out_dir.join("e13_fleet.csv");
    write_labeled_csv(&path, &CSV_HEADER, &csv_labels, &csv_rows).expect("csv writes");
    println!("\nwrote {} ({} rows)", path.display(), csv_rows.len());
}

// ---------------------------------------------------------------------------
// BENCH_fleet.json — topology-build and fleet-tick throughput
// ---------------------------------------------------------------------------

/// Asserts that the grid-bucket topology build is **bit-identical** to
/// the all-pairs oracle — link set, link order, link distances, and
/// both routers' parents and costs — and returns the link count. Runs
/// *before* any timing: the speedup number is only meaningful for a
/// kernel proven equivalent.
fn assert_grid_matches_all_pairs(positions: &[Point], sink: Point, range_m: f64) -> usize {
    let grid = Topology::new(positions.to_vec(), sink, range_m).expect("grid build");
    let oracle = Topology::new_all_pairs(positions.to_vec(), sink, range_m).expect("oracle build");
    assert_eq!(grid.link_count(), oracle.link_count(), "link counts differ");
    for v in 0..=grid.n_nodes() {
        let (a, b) = (grid.neighbors(v), oracle.neighbors(v));
        assert_eq!(a.len(), b.len(), "vertex {v}: degree differs");
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.from, x.to), (y.from, y.to), "vertex {v}: link differs");
            assert_eq!(
                x.distance_m.to_bits(),
                y.distance_m.to_bits(),
                "vertex {v}: link distance differs"
            );
        }
    }
    let radio = RadioEnergyModel::typical();
    let blocked = vec![false; grid.n_nodes()];
    let (mh_g, mh_o) = (grid.min_hop_routes(), oracle.min_hop_routes());
    let ea_g = grid
        .energy_aware_routes(&radio, 1024, &blocked)
        .expect("grid energy-aware routes");
    let ea_o = oracle
        .energy_aware_routes_reference(&radio, 1024, &blocked)
        .expect("oracle reference routes");
    for v in 0..=grid.n_nodes() {
        assert_eq!(mh_g.next_hop(v), mh_o.next_hop(v), "min-hop parent {v}");
        assert_eq!(
            ea_g.next_hop(v),
            ea_o.next_hop(v),
            "energy-aware parent {v}"
        );
        assert_eq!(
            ea_g.cost(v).map(f64::to_bits),
            ea_o.cost(v).map(f64::to_bits),
            "energy-aware cost {v}"
        );
    }
    grid.link_count()
}

struct TopoBuildPoint {
    n: usize,
    links: usize,
    grid_builds_per_sec: f64,
    all_pairs_builds_per_sec: Option<f64>,
    speedup: Option<f64>,
    /// Whether the build was replayed against the all-pairs oracle;
    /// `None` where no replay ran.
    bit_identical: Option<bool>,
}

struct FleetTickPoint {
    n: usize,
    duration_s: f64,
    node_ticks_per_sec: f64,
}

/// The scaling benchmark behind `BENCH_fleet.json`: grid-bucket vs
/// all-pairs topology build at 1k/10k nodes (bit-identity asserted
/// in-binary before any clock starts, ≥ 20× required at 10k), a
/// 100k-node grid-only build, and batched fleet node-phase throughput
/// (the node phase alone, best of 3).
fn bench_fleet(smoke: bool, threads: usize, out_dir: &Path) {
    println!("\nfleet-layer scaling — topology build and node-phase throughput");

    // --- topology build: grid vs all-pairs oracle -------------------
    let mut topo_points: Vec<TopoBuildPoint> = Vec::new();
    let (grid_reps, oracle_reps) = if smoke { (10, 3) } else { (15, 5) };
    println!(
        "{:<10} {:>10} {:>16} {:>16} {:>9}",
        "n", "links", "grid builds/s", "oracle builds/s", "speedup"
    );
    println!("{}", "-".repeat(66));
    for n in [1_000usize, 10_000] {
        let (positions, sink, range_m) = e13_placement(n);
        let links = assert_grid_matches_all_pairs(&positions, sink, range_m);
        // Best-of-N timing on both sides: each build is deterministic,
        // so the minimum wall time is the least-noise estimate and the
        // ratio stays stable under scheduler jitter.
        let mut t_grid = f64::INFINITY;
        for _ in 0..grid_reps {
            let start = Instant::now();
            let t = Topology::new(positions.clone(), sink, range_m).expect("grid build");
            t_grid = t_grid.min(start.elapsed().as_secs_f64());
            assert_eq!(t.link_count(), links);
        }
        let mut t_oracle = f64::INFINITY;
        for _ in 0..oracle_reps {
            let start = Instant::now();
            let t =
                Topology::new_all_pairs(positions.clone(), sink, range_m).expect("oracle build");
            t_oracle = t_oracle.min(start.elapsed().as_secs_f64());
            assert_eq!(t.link_count(), links);
        }
        let speedup = t_oracle / t_grid;
        println!(
            "{:<10} {:>10} {:>16.1} {:>16.1} {:>8.1}x",
            n,
            links,
            1.0 / t_grid,
            1.0 / t_oracle,
            speedup
        );
        if n == 10_000 {
            assert!(
                speedup >= 20.0,
                "grid-bucket build must be at least 20x the all-pairs oracle \
                 at 10k nodes; measured {speedup:.1}x"
            );
        }
        topo_points.push(TopoBuildPoint {
            n,
            links,
            grid_builds_per_sec: 1.0 / t_grid,
            all_pairs_builds_per_sec: Some(1.0 / t_oracle),
            speedup: Some(speedup),
            bit_identical: Some(true),
        });
    }
    // 100k: grid-only (the all-pairs oracle would take ~100x the 10k
    // cost; equivalence at this scale rests on the differential
    // property suite, not an in-binary replay).
    {
        let n = 100_000usize;
        let (positions, sink, range_m) = e13_placement(n);
        let start = Instant::now();
        let built = Topology::new(positions.clone(), sink, range_m).expect("100k grid build");
        let links = built.link_count();
        drop(built);
        let mut t_grid = start.elapsed().as_secs_f64();
        let reps = if smoke { 1 } else { 3 };
        for _ in 0..reps {
            let start = Instant::now();
            let t = Topology::new(positions.clone(), sink, range_m).expect("100k grid build");
            t_grid = t_grid.min(start.elapsed().as_secs_f64());
            assert_eq!(t.link_count(), links);
        }
        println!(
            "{:<10} {:>10} {:>16.1} {:>16} {:>9}",
            n,
            links,
            1.0 / t_grid,
            "-",
            "-"
        );
        topo_points.push(TopoBuildPoint {
            n,
            links,
            grid_builds_per_sec: 1.0 / t_grid,
            all_pairs_builds_per_sec: None,
            speedup: None,
            bit_identical: None,
        });
    }

    // --- fleet node-phase throughput --------------------------------
    let mut tick_points: Vec<FleetTickPoint> = Vec::new();
    let fleet_sizes: &[usize] = if smoke { &[1_000] } else { &[1_000, 10_000] };
    let duration_s = 30.0;
    println!("\n{:<10} {:>12} {:>18}", "n", "duration s", "node-ticks/s");
    println!("{}", "-".repeat(42));
    for &n in fleet_sizes {
        let (positions, sink, range_m) = e13_placement(n);
        let spec = FleetSpec::homogeneous(e13_base_config(), positions, sink, range_m, duration_s);
        let tick_s = spec.nodes[0].config.tick_s;
        let fleet = FleetSimulator::prepare(spec, threads).expect("bench fleet prepares");
        // Warm once (allocators, caches), then time the node phase alone
        // (no routing or accounting), best of 3 like the builds above.
        fleet.run(threads).expect("warm-up run");
        let mut wall = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let nodes = fleet
                .run_nodes(threads, Dispatch::Auto)
                .expect("timed node phase");
            wall = wall.min(start.elapsed().as_secs_f64());
            assert_eq!(nodes.len(), n);
            assert!(nodes.iter().all(Result::is_ok), "a bench node failed");
        }
        let node_ticks = n as f64 * (duration_s / tick_s);
        println!("{:<10} {:>12.0} {:>18.0}", n, duration_s, node_ticks / wall);
        tick_points.push(FleetTickPoint {
            n,
            duration_s,
            node_ticks_per_sec: node_ticks / wall,
        });
    }

    // --- machine-readable artefact ----------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"generated_by\": \"e13_fleet\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"topology_build\": [\n");
    for (i, p) in topo_points.iter().enumerate() {
        let sep = if i + 1 == topo_points.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"n\": {}, \"links\": {}, \"grid_builds_per_sec\": {}, \
             \"all_pairs_builds_per_sec\": {}, \"speedup\": {}, \
             \"bit_identical\": {}}}{sep}\n",
            p.n,
            p.links,
            json_num(p.grid_builds_per_sec),
            p.all_pairs_builds_per_sec.map_or("null".into(), json_num),
            p.speedup.map_or("null".into(), json_num),
            p.bit_identical.map_or("null".into(), |b| b.to_string()),
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"fleet_tick\": [\n");
    for (i, p) in tick_points.iter().enumerate() {
        let sep = if i + 1 == tick_points.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"n\": {}, \"duration_s\": {}, \"node_ticks_per_sec\": {}}}{sep}\n",
            p.n,
            json_num(p.duration_s),
            json_num(p.node_ticks_per_sec),
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    let path = out_dir.join("BENCH_fleet.json");
    std::fs::write(&path, &json).expect("BENCH_fleet.json writes");
    println!("\nwrote {}", path.display());
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod smoke {
    /// Two invocations at *different* worker-thread counts must write
    /// byte-identical CSVs: the fleet layer's determinism contract,
    /// end to end through the DoE flow and the artefact writer.
    #[test]
    fn e13_runs_and_its_csv_is_thread_count_invariant() {
        let out_a = std::env::temp_dir().join("ehsim_e13_smoke_a");
        let out_b = std::env::temp_dir().join("ehsim_e13_smoke_b");
        for (d, threads) in [(&out_a, 1), (&out_b, 4)] {
            std::fs::create_dir_all(d).expect("temp dir");
            super::run(48, 60.0, threads, d.clone());
        }
        let a = std::fs::read(out_a.join("e13_fleet.csv")).expect("csv a");
        let b = std::fs::read(out_b.join("e13_fleet.csv")).expect("csv b");
        assert!(!a.is_empty());
        assert_eq!(
            a, b,
            "e13 CSV must be bit-identical across invocations and thread counts"
        );
        // Header and row shape: shared + one row per ring + summary.
        let text = String::from_utf8(a).expect("utf8 csv");
        let mut lines = text.lines();
        assert_eq!(lines.next().expect("header"), super::CSV_HEADER.join(","));
        assert_eq!(
            lines.count(),
            1 + ehsim_bench::E13_N_RINGS + 1,
            "unexpected row count"
        );
    }
}
