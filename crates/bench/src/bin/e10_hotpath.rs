//! Experiment E10 — hot-path microbenchmarks seeding the repo's
//! performance trajectory.
//!
//! Three measurements, all taken *in the same run* so speed-ups are
//! always relative to a baseline recorded on the same machine:
//!
//! 1. **Ticks per second** of the system simulator on the stationary
//!    64 Hz scenario, for two implementations: the pre-refactor
//!    reference path (`SystemSimulator::run_reference` — per-tick
//!    validation, no memoization) and the prepared path
//!    (`PreparedSimulator::run` — a width-1 batch of the tick kernel:
//!    validate-once, Thevenin memoization, bit-identical results).
//! 2. **Batched campaign throughput** (`batch_ticks_per_sec`): 64
//!    campaign-style design points run through the SoA batch kernel at
//!    widths 1/4/16/64, versus two per-sim baselines on the *same*
//!    workload: the pre-refactor reference path and the per-sim
//!    campaign shape (one `SystemSimulator` per job, as
//!    `evaluate_coded` runs). Every pass must reproduce the reference
//!    bits — asserted via a shared checksum.
//! 3. **Campaign wall-clock** of a 16-point factorial over the
//!    stationary scenario under the deterministic self-scheduling
//!    queue, at fixed thread counts (1/2/4/8).
//!
//! Output: fixed-width tables on stdout and a machine-readable
//! `target/BENCH_hotpath.json` (schema documented in the README; no
//! nested wall-clock values leak into any CSV artefact, so the
//! determinism contract is untouched). Pass `--smoke` for a
//! seconds-scale run with the identical code path — used by CI, which
//! uploads the JSON as an artifact and asserts it parses.

use ehsim_core::experiment::{Campaign, StandardFactors};
use ehsim_core::indicators::Indicator;
use ehsim_core::scenario::Scenario;
use ehsim_doe::design::factorial::full_factorial_2k;
use ehsim_node::{BatchSimulator, NodeConfig, PreparedSimulator, SystemSimulator};
use ehsim_vibration::Sine;
use std::path::PathBuf;
use std::time::Instant;

/// Lane widths of the batched-kernel series.
const BATCH_WIDTHS: [usize; 4] = [1, 4, 16, 64];

/// Design points in the batched-kernel series — one full maximal batch.
const BATCH_CONFIGS: usize = 64;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("E10 — hot-path microbenchmarks\n");
    if smoke {
        run(60.0, 2, 30.0, &[1, 2], true, PathBuf::from("target"));
    } else {
        run(
            1800.0,
            20,
            3600.0,
            &[1, 2, 4, 8],
            false,
            PathBuf::from("target"),
        );
    }
}

/// One timed pass: returns (seconds, metrics checksum) for `reps`
/// simulations of `sim_duration_s` seconds.
fn time_reps(reps: usize, mut sim: impl FnMut() -> f64) -> (f64, f64) {
    let start = Instant::now();
    let mut checksum = 0.0;
    for _ in 0..reps {
        checksum += sim();
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// The experiment body, scale-parameterised so the smoke test and CI
/// run the identical code path on a tiny configuration.
fn run(
    sim_duration_s: f64,
    reps: usize,
    campaign_duration_s: f64,
    thread_counts: &[usize],
    smoke: bool,
    out_dir: PathBuf,
) {
    // --- 1. ticks/sec microbench, stationary scenario ---------------
    let cfg = NodeConfig::default_node();
    let src = Sine::new(0.9, 64.0).expect("valid source");
    let n_ticks = (sim_duration_s / cfg.tick_s).round() as u64;

    let reference_sim = SystemSimulator::new(cfg.clone()).expect("valid config");
    let exact_sim = PreparedSimulator::new(cfg.clone()).expect("valid config");

    // Warm-up pass so first-touch effects hit no timed section.
    let m_ref = reference_sim
        .run_reference(&src, sim_duration_s)
        .expect("reference run");
    let m_exact = exact_sim.run(&src, sim_duration_s).expect("exact run");
    assert_eq!(
        m_ref.harvested_energy_j.to_bits(),
        m_exact.harvested_energy_j.to_bits(),
        "prepared run must be bit-identical to the reference"
    );

    // The baseline re-constructs the simulator per repetition, the way
    // campaigns instantiate one simulator per job.
    let (t_ref, c_ref) = time_reps(reps, || {
        SystemSimulator::new(cfg.clone())
            .expect("valid config")
            .run_reference(&src, sim_duration_s)
            .expect("reference run")
            .harvested_energy_j
    });
    let (t_exact, c_exact) = time_reps(reps, || {
        exact_sim
            .run(&src, sim_duration_s)
            .expect("exact run")
            .harvested_energy_j
    });
    assert_eq!(c_ref.to_bits(), c_exact.to_bits());

    let total_ticks = (reps as u64 * n_ticks) as f64;
    let tps_ref = total_ticks / t_ref;
    let tps_exact = total_ticks / t_exact;

    println!("ticks/sec — stationary-64Hz, {n_ticks} ticks x {reps} reps");
    println!(
        "{:<28} {:>14} {:>10}",
        "implementation", "ticks/sec", "speedup"
    );
    println!("{}", "-".repeat(56));
    for (name, tps) in [
        ("reference (pre-refactor)", tps_ref),
        ("prepared (width-1 batch)", tps_exact),
    ] {
        println!("{:<28} {:>14.0} {:>9.2}x", name, tps, tps / tps_ref);
    }

    // --- 2. batched SoA kernel vs the per-sim campaign shape --------
    // 64 design points spread across the standard design box — one
    // tick length, as a campaign hands the dispatcher. Two per-sim
    // baselines on the same workload: the pre-refactor reference path
    // (the 1.00x anchor) and the pre-dispatch campaign shape (construct
    // one simulator per job). The batch series re-chunks the same
    // configs at each width; each pass must reproduce the reference
    // bits — asserted via the checksum.
    let factors = StandardFactors::default();
    let span = (BATCH_CONFIGS - 1) as f64;
    let batch_cfgs: Vec<NodeConfig> = (0..BATCH_CONFIGS)
        .map(|i| {
            let f = i as f64 / span;
            factors.config_for(&[
                0.05 + f * 0.45,
                2.0 + (((i * 7) % BATCH_CONFIGS) as f64 / span) * 28.0,
                0.25 + f * 3.75,
                -10.0 + (((i * 13) % BATCH_CONFIGS) as f64 / span) * 14.0,
            ])
        })
        .collect();
    let batch_tick_s = factors.base.tick_s;
    let batch_ticks_per_cfg = (sim_duration_s / batch_tick_s).round() as u64;
    let batch_total_ticks = (BATCH_CONFIGS as u64 * batch_ticks_per_cfg) as f64;
    let reps_batch = (reps / 4).max(2);

    // Warm-up + bit-identity oracle: the maximal batch, lane for lane
    // against the reference run.
    let lane_metrics = BatchSimulator::from_configs(batch_cfgs.clone())
        .expect("homogeneous batch")
        .run(&src, sim_duration_s)
        .expect("batch run");
    for (i, (cfg, m)) in batch_cfgs.iter().zip(&lane_metrics).enumerate() {
        let solo = SystemSimulator::new(cfg.clone())
            .and_then(|sim| sim.run_reference(&src, sim_duration_s))
            .expect("reference run");
        assert_eq!(
            solo.harvested_energy_j.to_bits(),
            m.harvested_energy_j.to_bits(),
            "lane {i} must be bit-identical to its reference run"
        );
        assert_eq!(solo.packets_delivered, m.packets_delivered);
        assert_eq!(solo.final_v_store.to_bits(), m.final_v_store.to_bits());
    }

    let (t_pref, c_pref) = time_reps(reps_batch, || {
        let mut acc = 0.0;
        for cfg in &batch_cfgs {
            acc += SystemSimulator::new(cfg.clone())
                .expect("valid config")
                .run_reference(&src, sim_duration_s)
                .expect("reference run")
                .harvested_energy_j;
        }
        acc
    });
    let tps_pref = reps_batch as f64 * batch_total_ticks / t_pref;
    let (t_psim, c_psim) = time_reps(reps_batch, || {
        let mut acc = 0.0;
        for cfg in &batch_cfgs {
            acc += SystemSimulator::new(cfg.clone())
                .expect("valid config")
                .run(&src, sim_duration_s)
                .expect("per-sim run")
                .harvested_energy_j;
        }
        acc
    });
    let tps_psim = reps_batch as f64 * batch_total_ticks / t_psim;
    assert_eq!(
        c_psim.to_bits(),
        c_pref.to_bits(),
        "per-sim runs must reproduce the reference bits"
    );

    println!(
        "\nbatched kernel — {BATCH_CONFIGS} campaign configs, \
         {batch_ticks_per_cfg} ticks each x {reps_batch} reps, bits equal"
    );
    println!(
        "{:<28} {:>14} {:>9} {:>9}",
        "implementation", "ticks/sec", "vs ref", "vs sim"
    );
    println!("{}", "-".repeat(64));
    for (name, tps) in [("per-sim reference", tps_pref), ("per-sim", tps_psim)] {
        println!(
            "{:<28} {:>14.0} {:>8.2}x {:>8.2}x",
            name,
            tps,
            tps / tps_pref,
            tps / tps_psim
        );
    }
    // (width, ticks/sec, speedup vs per-sim, vs reference)
    let mut batch_series: Vec<(usize, f64, f64, f64)> = Vec::new();
    for width in BATCH_WIDTHS {
        let (t, c) = time_reps(reps_batch, || {
            let mut acc = 0.0;
            for chunk in batch_cfgs.chunks(width) {
                let batch =
                    BatchSimulator::from_configs(chunk.to_vec()).expect("homogeneous batch");
                for m in batch.run(&src, sim_duration_s).expect("batch run") {
                    acc += m.harvested_energy_j;
                }
            }
            acc
        });
        assert_eq!(
            c.to_bits(),
            c_pref.to_bits(),
            "width-{width} batch must reproduce the reference bits"
        );
        let tps = reps_batch as f64 * batch_total_ticks / t;
        println!(
            "{:<28} {:>14.0} {:>8.2}x {:>8.2}x",
            format!("batch width {width}"),
            tps,
            tps / tps_pref,
            tps / tps_psim
        );
        batch_series.push((width, tps, tps / tps_psim, tps / tps_pref));
    }

    // --- 3. campaign wall-clock scaling -----------------------------
    let campaign = Campaign::standard(
        StandardFactors::default(),
        Scenario::stationary_machine(campaign_duration_s).expect("valid duration"),
        vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
    )
    .expect("valid campaign");
    let design = full_factorial_2k(4).expect("design");
    println!("\ncampaign wall-clock — 2^4 factorial, {campaign_duration_s} s scenario");
    println!("{:<10} {:>6} {:>12}", "threads", "jobs", "wall ms");
    println!("{}", "-".repeat(30));
    let mut scaling: Vec<(usize, usize, f64)> = Vec::new();
    let mut first_responses: Option<Vec<Vec<f64>>> = None;
    for &threads in thread_counts {
        let res = campaign
            .run_design(&design, threads)
            .expect("campaign runs");
        let wall_ms = res.wall.as_secs_f64() * 1e3;
        println!("{:<10} {:>6} {:>12.1}", threads, res.sim_count, wall_ms);
        match &first_responses {
            None => first_responses = Some(res.responses.clone()),
            Some(expect) => assert_eq!(
                expect, &res.responses,
                "scheduler must be thread-count invariant"
            ),
        }
        scaling.push((threads, res.sim_count, wall_ms));
    }

    // --- 4. machine-readable artefact -------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 5,\n");
    json.push_str("  \"generated_by\": \"e10_hotpath\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"ticks_microbench\": {\n");
    json.push_str("    \"scenario\": \"stationary-64Hz\",\n");
    json.push_str(&format!("    \"sim_ticks_per_rep\": {n_ticks},\n"));
    json.push_str(&format!("    \"reps\": {reps},\n"));
    json.push_str(&format!(
        "    \"baseline_ticks_per_sec\": {},\n",
        json_num(tps_ref)
    ));
    json.push_str(&format!(
        "    \"prepared_exact_ticks_per_sec\": {},\n",
        json_num(tps_exact)
    ));
    json.push_str(&format!(
        "    \"speedup_exact_vs_baseline\": {}\n",
        json_num(tps_exact / tps_ref)
    ));
    json.push_str("  },\n");
    json.push_str("  \"batch_microbench\": {\n");
    json.push_str("    \"scenario\": \"stationary-64Hz\",\n");
    json.push_str(&format!("    \"configs\": {BATCH_CONFIGS},\n"));
    json.push_str(&format!(
        "    \"sim_ticks_per_config\": {batch_ticks_per_cfg},\n"
    ));
    json.push_str(&format!("    \"reps\": {reps_batch},\n"));
    json.push_str(&format!(
        "    \"per_sim_reference_ticks_per_sec\": {},\n",
        json_num(tps_pref)
    ));
    json.push_str(&format!(
        "    \"per_sim_exact_ticks_per_sec\": {},\n",
        json_num(tps_psim)
    ));
    json.push_str("    \"batch_ticks_per_sec\": [\n");
    for (i, (width, tps, vs_sim, vs_ref)) in batch_series.iter().enumerate() {
        let sep = if i + 1 == batch_series.len() { "" } else { "," };
        json.push_str(&format!(
            "      {{\"width\": {width}, \"ticks_per_sec\": {}, \
             \"speedup_vs_per_sim\": {}, \"speedup_vs_reference\": {}}}{sep}\n",
            json_num(*tps),
            json_num(*vs_sim),
            json_num(*vs_ref)
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"campaign_scaling\": [\n");
    for (i, (threads, jobs, wall_ms)) in scaling.iter().enumerate() {
        let sep = if i + 1 == scaling.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"jobs\": {jobs}, \"wall_ms\": {}}}{sep}\n",
            json_num(*wall_ms)
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    let path = out_dir.join("BENCH_hotpath.json");
    std::fs::write(&path, &json).expect("json writes");
    println!("\nwrote {}", path.display());
    let (hl_width, _, hl_vs_sim, hl_vs_ref) = *batch_series
        .iter()
        .max_by(|a, b| a.3.total_cmp(&b.3))
        .expect("non-empty series");
    println!(
        "headline: width-{hl_width} batch kernel at {hl_vs_ref:.2}x the per-sim \
         reference baseline ({hl_vs_sim:.2}x the per-sim shape), equal bits"
    );
}

/// JSON-safe float formatting (the Rust shortest-roundtrip repr is
/// valid JSON for finite values; non-finite values become null).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod smoke {
    /// Minimal JSON well-formedness checker (objects, arrays, strings,
    /// numbers, booleans, null) — enough to assert the artefact's
    /// schema parses without a serde dependency.
    fn skip_ws(s: &[u8], mut i: usize) -> usize {
        while i < s.len() && (s[i] as char).is_whitespace() {
            i += 1;
        }
        i
    }

    fn parse_value(s: &[u8], i: usize) -> Result<usize, String> {
        let i = skip_ws(s, i);
        match s.get(i) {
            Some(b'{') => parse_seq(s, i, b'}', true),
            Some(b'[') => parse_seq(s, i, b']', false),
            Some(b'"') => parse_string(s, i),
            Some(b't') => expect_lit(s, i, b"true"),
            Some(b'f') => expect_lit(s, i, b"false"),
            Some(b'n') => expect_lit(s, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut j = i + 1;
                while j < s.len()
                    && (s[j].is_ascii_digit() || matches!(s[j], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    j += 1;
                }
                std::str::from_utf8(&s[i..j])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(|_| j)
                    .ok_or_else(|| format!("bad number at {i}"))
            }
            other => Err(format!("unexpected {other:?} at {i}")),
        }
    }

    fn parse_string(s: &[u8], i: usize) -> Result<usize, String> {
        let mut j = i + 1;
        while j < s.len() && s[j] != b'"' {
            j += if s[j] == b'\\' { 2 } else { 1 };
        }
        if j < s.len() {
            Ok(j + 1)
        } else {
            Err(format!("unterminated string at {i}"))
        }
    }

    fn expect_lit(s: &[u8], i: usize, lit: &[u8]) -> Result<usize, String> {
        if s[i..].starts_with(lit) {
            Ok(i + lit.len())
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn parse_seq(s: &[u8], i: usize, close: u8, keyed: bool) -> Result<usize, String> {
        let mut i = skip_ws(s, i + 1);
        if s.get(i) == Some(&close) {
            return Ok(i + 1);
        }
        loop {
            if keyed {
                i = parse_string(s, skip_ws(s, i))?;
                i = skip_ws(s, i);
                if s.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at {i}"));
                }
                i += 1;
            }
            i = parse_value(s, i)?;
            i = skip_ws(s, i);
            match s.get(i) {
                Some(b',') => i = skip_ws(s, i + 1),
                Some(c) if *c == close => return Ok(i + 1),
                other => return Err(format!("expected ',' or close, got {other:?} at {i}")),
            }
        }
    }

    fn assert_json_parses(text: &str) {
        let bytes = text.as_bytes();
        let end = parse_value(bytes, 0).expect("BENCH_hotpath.json must parse");
        assert_eq!(skip_ws(bytes, end), bytes.len(), "trailing garbage");
    }

    #[test]
    fn e10_runs_and_emits_parsable_schema() {
        let out = std::env::temp_dir().join("ehsim_e10_smoke");
        std::fs::create_dir_all(&out).expect("temp dir");
        super::run(20.0, 1, 20.0, &[1, 2], true, out.clone());
        let text = std::fs::read_to_string(out.join("BENCH_hotpath.json")).expect("json file");
        assert_json_parses(&text);
        for key in [
            "\"schema_version\"",
            "\"ticks_microbench\"",
            "\"baseline_ticks_per_sec\"",
            "\"prepared_exact_ticks_per_sec\"",
            "\"speedup_exact_vs_baseline\"",
            "\"batch_microbench\"",
            "\"per_sim_reference_ticks_per_sec\"",
            "\"per_sim_exact_ticks_per_sec\"",
            "\"batch_ticks_per_sec\"",
            "\"speedup_vs_per_sim\"",
            "\"speedup_vs_reference\"",
            "\"campaign_scaling\"",
            "\"wall_ms\"",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }
}
