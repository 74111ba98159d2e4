//! Pins the bits of [`PreparedSimulator::run_with_trace`]: an FNV-1a
//! fingerprint over every trace sample (`to_bits()` of each float, plus
//! the `running` flag) and every field of the returned metrics.
//!
//! The fixtures cover the two state changes a trace records: a node
//! whose tuning controller retunes under a drifting source, and a
//! small-storage node that browns out and recovers. Each runs at
//! stride 1 (every tick) and stride 7 (a stride that does not divide
//! the run).

use ehsim_node::{DutyCyclePolicy, NodeConfig, NodeMetrics, PreparedSimulator, SystemTrace};
use ehsim_vibration::{DriftSchedule, Sine, VibrationSource};

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

fn fingerprint(m: &NodeMetrics, tr: &SystemTrace) -> u64 {
    let mut h = Fnv::new();
    for series in [
        &tr.t,
        &tr.v_store,
        &tr.resonance_hz,
        &tr.ambient_hz,
        &tr.p_harvest_w,
    ] {
        h.f64s(series);
    }
    h.word(tr.running.len() as u64);
    for &r in &tr.running {
        h.word(u64::from(r));
    }
    h.f64s(&[
        m.duration_s,
        m.uptime_fraction,
        m.tuning_energy_j,
        m.harvested_energy_j,
        m.consumed_energy_j,
        m.min_v_store,
        m.final_v_store,
        m.avg_harvest_power_w,
        m.time_to_first_packet_s.unwrap_or(-1.0),
    ]);
    for n in [
        m.packets_delivered,
        u64::from(m.brownout_count),
        u64::from(m.retune_count),
        u64::from(m.measurement_count),
    ] {
        h.word(n);
    }
    h.0
}

/// Tuning on, resonance starting at 60 Hz, the source drifting to 72 Hz.
fn drifting() -> (NodeConfig, Box<dyn VibrationSource>, f64) {
    let mut cfg = NodeConfig::default_node();
    cfg.tuning.check_interval_s = 30.0;
    cfg.initial_position = cfg.harvester.position_for_frequency(60.0);
    let src = DriftSchedule::new(vec![(0.0, 60.0), (1200.0, 72.0)], 0.8).unwrap();
    (cfg, Box::new(src), 1800.0)
}

/// A 20 mF node on a fixed 1 s period under a weak resonant source.
fn small_storage() -> (NodeConfig, Box<dyn VibrationSource>, f64) {
    let mut cfg = NodeConfig::default_node();
    cfg.tuning.enabled = false;
    cfg.policy = DutyCyclePolicy::Fixed;
    cfg.task.period_s = 1.0;
    cfg.storage.capacitance = 0.02;
    let f = cfg.harvester.resonant_frequency(cfg.initial_position);
    (cfg, Box::new(Sine::new(0.7, f).unwrap()), 3600.0)
}

fn traced(
    fixture: fn() -> (NodeConfig, Box<dyn VibrationSource>, f64),
    stride: usize,
) -> (NodeMetrics, SystemTrace) {
    let (cfg, src, duration_s) = fixture();
    PreparedSimulator::new(cfg)
        .unwrap()
        .run_with_trace(src.as_ref(), duration_s, stride)
        .unwrap()
}

#[test]
fn drifting_trace_bits_are_pinned() {
    let (m, tr) = traced(drifting, 1);
    assert!(m.retune_count >= 2, "{m:?}");
    assert_eq!(tr.t.len(), 18_000);
    assert_eq!(fingerprint(&m, &tr), 11_853_141_518_787_066_888, "stride 1");
    let (m, tr) = traced(drifting, 7);
    assert_eq!(tr.t.len(), 18_000usize.div_ceil(7));
    assert_eq!(fingerprint(&m, &tr), 12_400_754_460_664_414_475, "stride 7");
}

#[test]
fn brownout_trace_bits_are_pinned() {
    let (m, tr) = traced(small_storage, 1);
    assert!(m.brownout_count > 0, "{m:?}");
    assert!(tr.running.iter().any(|&r| !r) && tr.running.iter().any(|&r| r));
    assert_eq!(fingerprint(&m, &tr), 993_942_792_889_471_700, "stride 1");
    let (m, tr) = traced(small_storage, 7);
    assert_eq!(fingerprint(&m, &tr), 2_191_531_216_759_892_168, "stride 7");
}

#[test]
fn trace_metrics_equal_the_untraced_run() {
    for fixture in [drifting, small_storage] {
        let (cfg, src, duration_s) = fixture();
        let sim = PreparedSimulator::new(cfg).unwrap();
        let plain = sim.run(src.as_ref(), duration_s).unwrap();
        let (traced, _) = sim.run_with_trace(src.as_ref(), duration_s, 7).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    }
}
