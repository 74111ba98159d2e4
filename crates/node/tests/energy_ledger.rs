//! Implementation-independent oracles for the tick kernel and its
//! energy-policy hook, checked over random nodes and on a fixture that
//! makes every energy policy throttle.
//!
//! The differential suites compare the kernel with itself (width W
//! against width 1) and with the frozen reference loop, which ignores
//! the energy-policy hook. These properties hold whatever the code
//! looks like, for every duty-cycle and energy policy:
//!
//! * **Energy ledger.** Storage evolves as
//!   `E_next = E + E_harv − E_cons − E_leak`, and charge shunted at the
//!   rated-voltage rail is already left out of `harvested_energy_j`.
//!   Leakage is the only other sink and draws at most `v_rated²/R_leak`,
//!   so `0 ≤ harvested − consumed − ΔE ≤ v_rated²/R_leak · duration`.
//! * **Physical bounds.** Every packet costs one task cycle, so
//!   `packets · E_cycle ≤ consumed ≤ E₀ + harvested`: no run delivers
//!   more packets than its initial and harvested energy can pay for,
//!   the bound behind the energy-neutral policies of Sharma et al.
//!   (arXiv:0809.3908).
//! * **Itemised consumption.** Every joule consumed is a task cycle, a
//!   frequency measurement, actuator motion or sleep draw on a powered
//!   tick. Sleep is paid on the ticks that start powered, which the
//!   uptime count (ticks that end powered) gives to within one tick.
//! * **Ranges.** `min_v_store ≤ final_v_store ≤ v_rated` and
//!   `0 ≤ uptime ≤ 1`.
//!
//! A run whose storage reaches 0 V is left out of the ledger: the
//! storage model clamps its energy at zero there, so a tick's draw is
//! no longer fully paid from storage. `Static` runs must also equal
//! [`SystemSimulator::run_reference`] bit for bit.

use ehsim_node::energy_policy::{EnergyAware, PolicyKind, Threshold};
use ehsim_node::{DutyCyclePolicy, NodeConfig, NodeMetrics, PreparedSimulator, SystemSimulator};
use ehsim_vibration::Sine;
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};

/// A uniform draw from `[lo, hi)`.
fn uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.unit_f64()
}

/// A random node and run: returns the config, the source frequency
/// (Hz), the source amplitude (m/s²) and the run length (s).
fn random_node(rng: &mut TestRng) -> (NodeConfig, f64, f64, f64) {
    let mut cfg = NodeConfig::default_node();
    cfg.storage.capacitance = 5e-3 * 100f64.powf(rng.unit_f64());
    // Four in five nodes start at or above v_off, so most of them run.
    cfg.v_store0 = if rng.below(5) == 0 {
        uniform(rng, 0.0, 2.4)
    } else {
        uniform(rng, 2.4, 5.5)
    };
    cfg.task.period_s = uniform(rng, 0.5, 20.0);
    cfg.policy = match rng.below(3) {
        0 => DutyCyclePolicy::Fixed,
        1 => DutyCyclePolicy::StorageLinear {
            max_stretch: uniform(rng, 1.0, 10.0),
        },
        _ => DutyCyclePolicy::default(),
    };
    let threshold = |skip_while_throttled| {
        PolicyKind::Threshold(Threshold {
            v_low: 2.7,
            v_high: 3.1,
            throttle_scale: 6.0,
            skip_while_throttled,
        })
    };
    cfg.energy_policy = match rng.below(4) {
        0 => PolicyKind::Static,
        1 => threshold(false),
        2 => threshold(true),
        _ => PolicyKind::EnergyAware(EnergyAware::default()),
    };
    cfg.tuning.enabled = rng.below(2) == 1;
    cfg.tick_s = [0.5, 1.0, 2.0][rng.below(3)];
    let f_res = cfg.harvester.resonant_frequency(cfg.initial_position);
    let freq = f_res + uniform(rng, -8.0, 8.0);
    let amp = uniform(rng, 0.3, 1.2);
    let duration_s = uniform(rng, 200.0, 1500.0);
    (cfg, freq, amp, duration_s)
}

/// Checks the ledger, the packet bound, the itemised consumption and
/// the ranges on one run.
fn check_physics(cfg: &NodeConfig, m: &NodeMetrics) -> Result<(), TestCaseError> {
    let sc = &cfg.storage;
    let e0 = sc.energy_j(cfg.v_store0);
    let e1 = sc.energy_j(m.final_v_store);
    let (harvested, consumed) = (m.harvested_energy_j, m.consumed_energy_j);
    let tol = 1e-9 * (harvested + consumed + e0 + e1);
    let leak_bound = sc.v_rated * sc.v_rated / sc.leak_resistance * m.duration_s;
    let slack = harvested - consumed - (e1 - e0);
    prop_assert!(
        -tol <= slack && slack <= leak_bound + tol,
        "ledger: slack {slack} J outside [0, {leak_bound}] J (tol {tol}): {m:?}"
    );

    let e_cycle = cfg.task.cycle_energy_j(&cfg.mcu, &cfg.radio) / cfg.regulator.efficiency;
    let spent_on_packets = m.packets_delivered as f64 * e_cycle;
    prop_assert!(
        spent_on_packets <= consumed + tol,
        "{} packets cost {spent_on_packets} J, above the {consumed} J consumed",
        m.packets_delivered
    );
    prop_assert!(
        spent_on_packets <= e0 + harvested + tol,
        "{} packets cost {spent_on_packets} J, above E0 + harvest = {} J",
        m.packets_delivered,
        e0 + harvested
    );

    let reg = &cfg.regulator;
    let e_measure = cfg.tuning.measure_energy_j / reg.efficiency;
    let itemised =
        spent_on_packets + f64::from(m.measurement_count) * e_measure + m.tuning_energy_j;
    let e_sleep_tick = reg.input_power(cfg.mcu.sleep_power_w) * cfg.tick_s;
    let n_ticks = (m.duration_s / cfg.tick_s).round();
    let powered_ticks = (m.uptime_fraction * n_ticks).round();
    let sleep_lo = e_sleep_tick * (powered_ticks - 1.0).max(0.0);
    let sleep_hi = e_sleep_tick * (powered_ticks + 1.0);
    prop_assert!(
        itemised + sleep_lo - tol <= consumed && consumed <= itemised + sleep_hi + tol,
        "{consumed} J consumed, but tasks, measurements and actuator account for \
         {itemised} J plus [{sleep_lo}, {sleep_hi}] J of sleep: {m:?}"
    );

    prop_assert!(
        m.min_v_store <= m.final_v_store && m.final_v_store <= sc.v_rated,
        "voltages out of order: {m:?}"
    );
    prop_assert!(
        (0.0..=1.0).contains(&m.uptime_fraction),
        "uptime {}",
        m.uptime_fraction
    );
    Ok(())
}

#[test]
fn ledger_and_packet_bound_hold_on_random_nodes() {
    let mut cases = 0;
    let mut reached_zero = 0;
    let mut browned_out = 0;
    let mut delivered = 0;
    let mut static_runs = 0;
    proptest::run_cases(
        "energy_ledger::ledger_and_packet_bound_hold_on_random_nodes",
        ProptestConfig::with_cases(256),
        |rng| {
            let (cfg, freq, amp, duration_s) = random_node(rng);
            let source = Sine::new(amp, freq).map_err(|e| TestCaseError::Fail(e.to_string()))?;
            let m = PreparedSimulator::new(cfg.clone())
                .and_then(|sim| sim.run(&source, duration_s))
                .map_err(|e| TestCaseError::Fail(format!("{cfg:?}: {e}")))?;
            cases += 1;
            if m.brownout_count > 0 {
                browned_out += 1;
            }
            if m.packets_delivered > 0 {
                delivered += 1;
            }
            if cfg.energy_policy == PolicyKind::Static {
                static_runs += 1;
                let oracle = SystemSimulator::new(cfg.clone())
                    .and_then(|sim| sim.run_reference(&source, duration_s))
                    .map_err(|e| TestCaseError::Fail(e.to_string()))?;
                prop_assert_eq!(format!("{m:?}"), format!("{oracle:?}"));
            }
            if m.min_v_store > 0.0 {
                check_physics(&cfg, &m)?;
            } else {
                reached_zero += 1;
            }
            Ok(())
        },
    );
    eprintln!(
        "{cases} cases: {delivered} delivered packets, {browned_out} browned out, \
         {reached_zero} reached 0 V, {static_runs} checked against run_reference"
    );
    assert!(
        delivered >= 100,
        "{delivered} of {cases} cases delivered packets"
    );
    assert!(
        browned_out >= 1,
        "{browned_out} of {cases} cases browned out"
    );
    assert!(
        static_runs >= 40,
        "{static_runs} of {cases} cases ran Static"
    );
    assert!(
        reached_zero * 10 <= cases,
        "{reached_zero} of {cases} cases left the ledger"
    );
}

/// The random draws rarely push a running node into a throttling band,
/// so the hook's throttle and skip paths get fixed cases of their own:
/// a fixed 1 s period on 20 mF under a weak resonant source, which
/// browns out a `Static` node and keeps every adaptive policy busy.
#[test]
fn ledger_and_packet_bound_hold_while_policies_throttle() {
    let mut base = NodeConfig::default_node();
    base.tuning.enabled = false;
    base.policy = DutyCyclePolicy::Fixed;
    base.task.period_s = 1.0;
    base.storage.capacitance = 0.02;
    let f = base.harvester.resonant_frequency(base.initial_position);
    let source = Sine::new(0.7, f).unwrap();
    let threshold = |skip_while_throttled| {
        PolicyKind::Threshold(Threshold {
            v_low: 2.8,
            v_high: 3.2,
            throttle_scale: 4.0,
            skip_while_throttled,
        })
    };
    let policies = [
        PolicyKind::Static,
        threshold(false),
        threshold(true),
        PolicyKind::EnergyAware(EnergyAware::default()),
    ];
    let runs: Vec<NodeMetrics> = policies
        .into_iter()
        .map(|energy_policy| {
            let cfg = NodeConfig {
                energy_policy,
                ..base.clone()
            };
            let m = PreparedSimulator::new(cfg.clone())
                .unwrap()
                .run(&source, 1800.0)
                .unwrap();
            assert!(m.min_v_store > 0.0, "{energy_policy:?}: {m:?}");
            if let Err(TestCaseError::Fail(msg)) = check_physics(&cfg, &m) {
                panic!("{energy_policy:?}: {msg}");
            }
            m
        })
        .collect();
    assert!(runs[0].brownout_count > 0, "Static must brown out");
    assert!(
        runs[2].packets_delivered < runs[1].packets_delivered,
        "the skip variant must skip firings"
    );
}
