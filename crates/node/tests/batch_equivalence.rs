//! Batched-kernel equivalence suite. [`PreparedSimulator::run`] is a
//! width-1 batch of the same kernel, so two oracles apply:
//!
//! * under the `Static` energy policy, every lane must be bit-identical
//!   to the frozen reference loop
//!   ([`SystemSimulator::run_reference`]), which checks the tick
//!   program itself, and mid-run failures must carry its error text;
//! * for every policy, a lane of a width-W batch must be bit-identical
//!   to the same lane run alone (width 1), which checks chunking and
//!   lane independence.
//!
//! The suite covers batch widths, duty-cycle policies, energy policies
//! and workloads, and the smallest-failing-lane-index contract.

use ehsim_node::energy_policy::{EnergyAware, PolicyKind, Threshold};
use ehsim_node::{
    BatchSimulator, DutyCyclePolicy, Excitation, NodeConfig, NodeError, NodeMetrics,
    PreparedSimulator, SystemSimulator,
};
use ehsim_vibration::{DriftSchedule, Envelope, Sine, VibrationSource};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A one-checkpoint run of a batch with one source per lane.
fn run_per_lane(
    batch: &BatchSimulator,
    sources: &[&dyn VibrationSource],
    duration_s: f64,
) -> Vec<Result<NodeMetrics, NodeError>> {
    let mut snapshots = batch
        .run_checkpoints(Excitation::PerLane(sources), &[duration_s])
        .unwrap();
    assert_eq!(snapshots.len(), 1, "one checkpoint, one snapshot");
    snapshots.pop().unwrap()
}

fn assert_metrics_bitwise_eq(a: &NodeMetrics, b: &NodeMetrics, what: &str) {
    assert_eq!(a.packets_delivered, b.packets_delivered, "{what}");
    assert_eq!(a.brownout_count, b.brownout_count, "{what}");
    assert_eq!(a.retune_count, b.retune_count, "{what}");
    assert_eq!(a.measurement_count, b.measurement_count, "{what}");
    for (x, y, f) in [
        (a.duration_s, b.duration_s, "duration"),
        (a.uptime_fraction, b.uptime_fraction, "uptime"),
        (a.tuning_energy_j, b.tuning_energy_j, "tuning_energy"),
        (a.harvested_energy_j, b.harvested_energy_j, "harvested"),
        (a.consumed_energy_j, b.consumed_energy_j, "consumed"),
        (a.min_v_store, b.min_v_store, "min_v"),
        (a.final_v_store, b.final_v_store, "final_v"),
        (a.avg_harvest_power_w, b.avg_harvest_power_w, "avg_harvest"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {f}: {x} vs {y}");
    }
    assert_eq!(a.time_to_first_packet_s, b.time_to_first_packet_s, "{what}");
}

fn resonant_sine(cfg: &NodeConfig, amp: f64) -> Sine {
    let f = cfg.harvester.resonant_frequency(cfg.initial_position);
    Sine::new(amp, f).expect("valid source")
}

/// The frozen oracle's run of `cfg`. It predates the energy-policy
/// hook, so it applies only to `Static` configurations.
fn reference(
    cfg: &NodeConfig,
    source: &dyn VibrationSource,
    duration_s: f64,
) -> Result<NodeMetrics, NodeError> {
    assert_eq!(cfg.energy_policy, PolicyKind::Static, "oracle needs Static");
    SystemSimulator::new(cfg.clone())?.run_reference(source, duration_s)
}

/// The fixture matrix: every duty-cycle policy family × every energy
/// policy family × {stationary, weak, cold-start, drifting} workloads.
fn fixture_cases() -> Vec<(NodeConfig, Box<dyn VibrationSource>)> {
    let duty_policies = [
        DutyCyclePolicy::Fixed,
        DutyCyclePolicy::StorageLinear { max_stretch: 6.0 },
        DutyCyclePolicy::default(),
    ];
    let energy_policies = [
        PolicyKind::Static,
        PolicyKind::Threshold(Threshold {
            v_low: 2.8,
            v_high: 3.2,
            throttle_scale: 8.0,
            skip_while_throttled: true,
        }),
        PolicyKind::EnergyAware(EnergyAware::default()),
    ];
    let mut cases: Vec<(NodeConfig, Box<dyn VibrationSource>)> = Vec::new();
    for (di, duty) in duty_policies.into_iter().enumerate() {
        for (ei, energy) in energy_policies.into_iter().enumerate() {
            let mut base = NodeConfig::default_node();
            base.policy = duty;
            base.energy_policy = energy;
            // Rotate workloads through the policy grid so every policy
            // family sees more than one of them without exploding the
            // case count.
            match (di + ei) % 3 {
                0 => {
                    let src = resonant_sine(&base, 0.9);
                    cases.push((base, Box::new(src)));
                }
                1 => {
                    let mut weak = base;
                    weak.storage.capacitance = 0.02;
                    let src = resonant_sine(&weak, 0.6);
                    cases.push((weak, Box::new(src)));
                }
                _ => {
                    let mut drift = base;
                    drift.initial_position = drift.harvester.position_for_frequency(60.0);
                    cases.push((
                        drift,
                        Box::new(
                            DriftSchedule::new(vec![(0.0, 60.0), (500.0, 72.0)], 0.8).unwrap(),
                        ),
                    ));
                }
            }
        }
    }
    // A cold-start lane on top of the grid.
    let mut cold = NodeConfig::default_node();
    cold.v_store0 = 0.0;
    cold.storage.capacitance = 2e-3;
    let src = resonant_sine(&cold, 1.0);
    cases.push((cold, Box::new(src)));
    cases
}

#[test]
fn exact_lanes_bit_identical_to_per_sim_oracle() {
    let duration_s = 600.0;
    let cases = fixture_cases();
    let mut static_lanes = 0;
    for width in [1usize, 3, 8, 64] {
        let lanes: Vec<PreparedSimulator> = (0..width)
            .map(|j| PreparedSimulator::new(cases[j % cases.len()].0.clone()).unwrap())
            .collect();
        let sources: Vec<&dyn VibrationSource> = (0..width)
            .map(|j| cases[j % cases.len()].1.as_ref())
            .collect();
        let batch = BatchSimulator::new(lanes.clone()).unwrap();
        assert_eq!(batch.width(), width);
        let results = run_per_lane(&batch, &sources, duration_s);
        for (j, result) in results.iter().enumerate() {
            let got = result.as_ref().expect("lane must succeed");
            let what = format!("width {width} lane {j}");
            let solo = lanes[j].run(sources[j], duration_s).unwrap();
            assert_metrics_bitwise_eq(got, &solo, &format!("{what} vs width 1"));
            let cfg = lanes[j].config();
            if cfg.energy_policy == PolicyKind::Static {
                let oracle = reference(cfg, sources[j], duration_s).unwrap();
                assert_metrics_bitwise_eq(got, &oracle, &format!("{what} vs run_reference"));
                static_lanes += 1;
            }
        }
    }
    assert!(static_lanes >= 20, "{static_lanes} Static lanes");
}

#[test]
fn shared_source_matches_per_sim_runs() {
    // The campaign shape: many configurations, one scenario source.
    let base = NodeConfig::default_node();
    let src = resonant_sine(&base, 0.85);
    let cfgs: Vec<NodeConfig> = (0..16)
        .map(|i| {
            let mut c = base.clone();
            c.storage.capacitance = 0.05 + 0.03 * i as f64;
            c.task.period_s = 4.0 + i as f64;
            c
        })
        .collect();
    let batch = BatchSimulator::from_configs(cfgs.clone()).unwrap();
    let metrics = batch.run(&src, 900.0).unwrap();
    assert_eq!(metrics.len(), 16);
    for (i, (cfg, got)) in cfgs.iter().zip(&metrics).enumerate() {
        let oracle = reference(cfg, &src, 900.0).unwrap();
        assert_metrics_bitwise_eq(got, &oracle, &format!("shared-source lane {i}"));
        let solo = PreparedSimulator::new(cfg.clone())
            .unwrap()
            .run(&src, 900.0)
            .unwrap();
        assert_metrics_bitwise_eq(got, &solo, &format!("shared-source lane {i} vs width 1"));
    }
}

#[test]
fn construction_rejects_empty_and_heterogeneous_batches() {
    assert!(BatchSimulator::new(Vec::new()).is_err());
    let a = NodeConfig::default_node();
    let mut b = NodeConfig::default_node();
    b.tick_s = a.tick_s * 2.0;
    let lanes = vec![
        PreparedSimulator::new(a).unwrap(),
        PreparedSimulator::new(b).unwrap(),
    ];
    assert!(
        BatchSimulator::new(lanes).is_err(),
        "mixed tick_s must be rejected"
    );
}

#[test]
fn invalid_durations_rejected_wholesale() {
    let cfg = NodeConfig::default_node();
    let src = resonant_sine(&cfg, 0.9);
    let batch = BatchSimulator::from_configs(vec![cfg]).unwrap();
    for bad in [0.0, -1.0, f64::INFINITY, f64::NAN, 1e300] {
        assert!(batch.run(&src, bad).is_err(), "duration {bad}");
        assert!(
            batch
                .run_checkpoints(Excitation::Shared(&src), &[bad])
                .is_err(),
            "duration {bad}"
        );
    }
}

/// A source that behaves like `inner` until `t_poison`, then emits a
/// non-finite envelope frequency (or, with `poison_amp`, amplitude) —
/// the hostile-source scenario the validation sweep guards against, and
/// the only practical way to make a healthy lane fail mid-run.
struct PoisonAfter {
    inner: Sine,
    t_poison: f64,
    poison_amp: bool,
}

impl VibrationSource for PoisonAfter {
    fn acceleration(&self, t: f64) -> f64 {
        self.inner.acceleration(t)
    }
    fn envelope(&self, t: f64) -> Envelope {
        let mut env = self.inner.envelope(t);
        if t >= self.t_poison {
            if self.poison_amp {
                env.amp = f64::INFINITY;
            } else {
                env.freq_hz = f64::INFINITY;
            }
        }
        env
    }
}

/// A 0.9 m/s² sine at `f` whose frequency turns infinite at `t_poison`.
fn poison_freq(f: f64, t_poison: f64) -> PoisonAfter {
    PoisonAfter {
        inner: Sine::new(0.9, f).unwrap(),
        t_poison,
        poison_amp: false,
    }
}

/// A 0.9 m/s² sine at `f` whose amplitude turns infinite at `t_poison`.
fn poison_amp(f: f64, t_poison: f64) -> PoisonAfter {
    PoisonAfter {
        poison_amp: true,
        ..poison_freq(f, t_poison)
    }
}

#[test]
fn per_lane_errors_captured_with_smallest_failing_index() {
    let cfg = NodeConfig::default_node();
    let clean = resonant_sine(&cfg, 0.9);
    let f = cfg.harvester.resonant_frequency(cfg.initial_position);
    // Lanes 1 and 3 are poisoned mid-run (lane 3 earlier than lane 1,
    // through its amplitude); lanes 0, 2, 4 stay healthy.
    let poisoned_late = poison_freq(f, 200.0);
    let poisoned_early = poison_amp(f, 50.0);
    let sources: Vec<&dyn VibrationSource> =
        vec![&clean, &poisoned_late, &clean, &poisoned_early, &clean];
    let lanes: Vec<PreparedSimulator> = (0..5)
        .map(|_| PreparedSimulator::new(cfg.clone()).unwrap())
        .collect();
    let batch = BatchSimulator::new(lanes.clone()).unwrap();
    let results = run_per_lane(&batch, &sources, 400.0);

    for (i, result) in results.iter().enumerate() {
        let oracle = reference(&cfg, sources[i], 400.0);
        assert_same_outcome(result, &oracle, &format!("lane {i} vs run_reference"));
        let solo = lanes[i].run(sources[i], 400.0);
        assert_same_outcome(result, &solo, &format!("lane {i} vs width 1"));
    }
    assert!(results[1].is_err() && results[3].is_err());

    // The fail-fast entry point reports the smallest failing lane
    // index — lane 1, even though lane 3 failed at an earlier tick.
    let err = run_per_lane(&batch, &sources, 400.0)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap_err();
    let lane1_err = reference(&cfg, sources[1], 400.0).unwrap_err();
    assert_eq!(err.to_string(), lane1_err.to_string());
}

#[test]
fn shared_poison_source_fails_every_lane_and_run_reports_lane_zero() {
    let cfg = NodeConfig::default_node();
    let f = cfg.harvester.resonant_frequency(cfg.initial_position);
    let poison = poison_freq(f, 30.0);
    let lanes: Vec<PreparedSimulator> = (0..3)
        .map(|_| PreparedSimulator::new(cfg.clone()).unwrap())
        .collect();
    let batch = BatchSimulator::new(lanes.clone()).unwrap();
    let results = batch
        .run_checkpoints(Excitation::Shared(&poison), &[120.0])
        .unwrap();
    assert!(results.iter().flatten().all(Result::is_err));
    let run_err = batch.run(&poison, 120.0).unwrap_err();
    let oracle_err = reference(&cfg, &poison, 120.0).unwrap_err();
    assert_eq!(run_err.to_string(), oracle_err.to_string());
}

// ---------------------------------------------------------------------------
// Checkpoints: one run, a snapshot at every horizon
// ---------------------------------------------------------------------------

/// Compares a snapshot with a fresh run of the same duration: equal
/// bits when both succeed, the same error text when both fail.
fn assert_same_outcome(
    got: &Result<NodeMetrics, NodeError>,
    fresh: &Result<NodeMetrics, NodeError>,
    what: &str,
) {
    match (got, fresh) {
        (Ok(a), Ok(b)) => assert_metrics_bitwise_eq(a, b, what),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
        (a, b) => panic!("{what}: snapshot {a:?} vs fresh run {b:?}"),
    }
}

/// Checks both checkpointed entry points against fresh runs: every
/// batched snapshot `[c][i]` and every per-sim snapshot `c` of lane `i`
/// must equal `run(sources[i], checkpoints[c])` and, for a `Static`
/// lane, `run_reference(sources[i], checkpoints[c])`.
fn assert_checkpoints_match_fresh_runs(
    lanes: &[PreparedSimulator],
    sources: &[&dyn VibrationSource],
    checkpoints: &[f64],
    what: &str,
) -> Vec<Vec<Result<NodeMetrics, NodeError>>> {
    let batch = BatchSimulator::new(lanes.to_vec()).unwrap();
    let batched = batch
        .run_checkpoints(Excitation::PerLane(sources), checkpoints)
        .unwrap();
    assert_eq!(
        batched.len(),
        checkpoints.len(),
        "{what}: one snapshot per checkpoint"
    );
    for (i, lane) in lanes.iter().enumerate() {
        let per_sim = lane.run_checkpoints(sources[i], checkpoints).unwrap();
        assert_eq!(per_sim.len(), checkpoints.len(), "{what}: lane {i}");
        for (c, &t) in checkpoints.iter().enumerate() {
            let fresh = lane.run(sources[i], t);
            let label = format!("{what}: lane {i} checkpoint {c} ({t} s)");
            assert_same_outcome(&batched[c][i], &fresh, &format!("batched {label}"));
            assert_same_outcome(&per_sim[c], &fresh, &format!("per-sim {label}"));
            if lane.config().energy_policy == PolicyKind::Static {
                let oracle = reference(lane.config(), sources[i], t);
                assert_same_outcome(&batched[c][i], &oracle, &format!("reference {label}"));
            }
        }
    }
    batched
}

#[test]
fn checkpoint_snapshots_are_bit_identical_to_fresh_runs() {
    // Sub-tick (floored to one tick), duplicate and off-grid
    // checkpoints included.
    let checkpoints = [0.04, 50.0, 180.0, 180.0, 333.33, 600.0];
    let cases = fixture_cases();
    let lanes: Vec<PreparedSimulator> = cases
        .iter()
        .map(|(cfg, _)| PreparedSimulator::new(cfg.clone()).unwrap())
        .collect();
    let sources: Vec<&dyn VibrationSource> = cases.iter().map(|(_, s)| s.as_ref()).collect();
    let batched = assert_checkpoints_match_fresh_runs(&lanes, &sources, &checkpoints, "fixtures");
    assert!(batched.iter().flatten().all(Result::is_ok));
}

#[test]
fn checkpoint_lanes_poisoned_between_checkpoints_fail_from_then_on() {
    let cfg = NodeConfig::default_node();
    let clean = resonant_sine(&cfg, 0.9);
    let f = cfg.harvester.resonant_frequency(cfg.initial_position);
    let poisoned_late = poison_freq(f, 120.0);
    let poisoned_early = poison_freq(f, 20.0);
    let sources: Vec<&dyn VibrationSource> = vec![&clean, &poisoned_late, &clean, &poisoned_early];
    let lanes: Vec<PreparedSimulator> = (0..sources.len())
        .map(|_| PreparedSimulator::new(cfg.clone()).unwrap())
        .collect();
    let checkpoints = [10.0, 100.0, 150.0, 150.0, 400.0];
    let batched = assert_checkpoints_match_fresh_runs(&lanes, &sources, &checkpoints, "poisoned");
    let ok: Vec<Vec<bool>> = batched
        .iter()
        .map(|lanes| lanes.iter().map(Result::is_ok).collect())
        .collect();
    assert_eq!(
        ok,
        vec![
            vec![true, true, true, true],
            vec![true, true, true, false],
            vec![true, false, true, false],
            vec![true, false, true, false],
            vec![true, false, true, false],
        ],
        "a lane is Ok before its failing tick and failed at every later checkpoint"
    );
}

/// A shared source that counts its envelope evaluations and turns
/// hostile at `t_poison`.
struct CountingPoison {
    poison: PoisonAfter,
    calls: AtomicUsize,
}

impl VibrationSource for CountingPoison {
    fn acceleration(&self, t: f64) -> f64 {
        self.poison.acceleration(t)
    }
    fn envelope(&self, t: f64) -> Envelope {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.poison.envelope(t)
    }
}

#[test]
fn checkpoint_run_exits_early_once_every_lane_is_dead() {
    let cfg = NodeConfig::default_node();
    let f = cfg.harvester.resonant_frequency(cfg.initial_position);
    let poison = poison_freq(f, 30.0);
    let lanes: Vec<PreparedSimulator> = (0..3)
        .map(|_| PreparedSimulator::new(cfg.clone()).unwrap())
        .collect();
    let sources: Vec<&dyn VibrationSource> = vec![&poison; 3];
    // Every lane dies at t = 30 s; the later segments must still
    // report each lane's error, snapshot after snapshot.
    let checkpoints = [20.0, 60.0, 120.0, 120.0, 5000.0];
    let batched = assert_checkpoints_match_fresh_runs(&lanes, &sources, &checkpoints, "all dead");
    assert!(batched[0].iter().all(Result::is_ok));
    assert!(batched[1..].iter().flatten().all(Result::is_err));

    // With a shared source the envelope is evaluated once per tick
    // until the batch is empty: 301 ticks (0..=300 at dt = 0.1 s), not
    // the 50 000 the horizon asks for.
    let counting = CountingPoison {
        poison: poison_freq(f, 30.0),
        calls: AtomicUsize::new(0),
    };
    let batch = BatchSimulator::new(lanes).unwrap();
    let results = batch
        .run_checkpoints(Excitation::Shared(&counting), &[5000.0])
        .unwrap();
    assert!(results.iter().flatten().all(Result::is_err));
    assert_eq!(counting.calls.load(Ordering::Relaxed), 301);
}

#[test]
fn checkpoint_lists_that_are_empty_decreasing_or_not_finite_are_rejected() {
    let cfg = NodeConfig::default_node();
    let src = resonant_sine(&cfg, 0.9);
    let lane = PreparedSimulator::new(cfg).unwrap();
    let batch = BatchSimulator::new(vec![lane.clone()]).unwrap();
    let sources: Vec<&dyn VibrationSource> = vec![&src];
    let bad: [&[f64]; 8] = [
        &[],
        &[100.0, 50.0],
        &[10.0, 20.0, 19.999],
        &[f64::NAN],
        &[10.0, f64::INFINITY],
        &[0.0, 10.0],
        &[-1.0],
        &[10.0, 1e300],
    ];
    for checkpoints in bad {
        for (path, result) in [
            (
                "per-sim",
                lane.run_checkpoints(&src, checkpoints).map(|_| ()),
            ),
            (
                "batched",
                batch
                    .run_checkpoints(Excitation::PerLane(&sources), checkpoints)
                    .map(|_| ()),
            ),
        ] {
            assert!(
                matches!(result, Err(NodeError::InvalidParameter { .. })),
                "{path} {checkpoints:?}: {result:?}"
            );
        }
    }
    // Equal checkpoints are fine.
    assert!(lane.run_checkpoints(&src, &[10.0, 10.0]).is_ok());
    assert!(batch
        .run_checkpoints(Excitation::PerLane(&sources), &[10.0, 10.0])
        .is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised widths and configuration spreads: every lane of a
    /// batch must reproduce its width-1 run bit for bit, and a `Static`
    /// lane its reference run.
    #[test]
    fn random_batches_bit_identical_to_per_sim(
        width in 1usize..6,
        cap in 0.01f64..0.4,
        period in 1.0f64..15.0,
        amp in 0.5f64..1.0,
        duty_sel in 0usize..3,
        energy_sel in 0usize..3,
    ) {
        let mut base = NodeConfig::default_node();
        base.policy = match duty_sel {
            0 => DutyCyclePolicy::Fixed,
            1 => DutyCyclePolicy::StorageLinear { max_stretch: 8.0 },
            _ => DutyCyclePolicy::default(),
        };
        base.energy_policy = match energy_sel {
            0 => PolicyKind::Static,
            1 => PolicyKind::Threshold(Threshold {
                v_low: 2.7,
                v_high: 3.1,
                throttle_scale: 6.0,
                skip_while_throttled: false,
            }),
            _ => PolicyKind::EnergyAware(EnergyAware::default()),
        };
        let src = resonant_sine(&base, amp);
        let cfgs: Vec<NodeConfig> = (0..width)
            .map(|i| {
                let mut c = base.clone();
                c.storage.capacitance = cap * (1.0 + 0.3 * i as f64);
                c.task.period_s = period + i as f64;
                c
            })
            .collect();
        let batch = BatchSimulator::from_configs(cfgs.clone()).unwrap();
        let metrics = batch.run(&src, 240.0).unwrap();
        for (i, cfg) in cfgs.iter().enumerate() {
            let solo = PreparedSimulator::new(cfg.clone())
                .unwrap()
                .run(&src, 240.0)
                .unwrap();
            assert_metrics_bitwise_eq(&metrics[i], &solo, &format!("prop lane {i}"));
            if cfg.energy_policy == PolicyKind::Static {
                let oracle = reference(cfg, &src, 240.0).unwrap();
                assert_metrics_bitwise_eq(&metrics[i], &oracle, &format!("prop lane {i} reference"));
            }
        }
    }
}
