//! Bit pin of the front end that the `circuit` benchmark workload
//! simulates: the default tunable harvester at its 64 Hz position, the
//! default 3-stage Cockcroft–Walton ladder and a 100 µF storage
//! capacitor, driven by a 0.9 m/s² sine at several excitation phases.
//!
//! For a short Newton–Raphson run and a short linearized state-space
//! run, every node voltage and every element current and voltage is
//! folded into one FNV-1a fingerprint, next to the deterministic run
//! counters. The pinned values are those of the textbook indexed LU
//! kernel with a fresh MNA system per NR iteration; an engine or solver
//! change that moves any output bit or any counter fails here.

use ehsim_circuit::{
    LinearizedStateSpaceEngine, NewtonRaphsonEngine, Probe, TransientConfig, TransientResult,
};
use ehsim_harvester::Harvester;
use ehsim_power::frontend::build_frontend;
use ehsim_power::Multiplier;
use ehsim_vibration::Sine;
use std::sync::Arc;

/// Excitation phases (rad): where in the cycle the diodes first switch.
const PHASES: [f64; 4] = [0.0, 1.0, 2.5, 4.0];

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Sample count, fingerprint of the time axis and every signal, and the
/// run counters (everything in `SimStats` but `wall`).
type Pin = (usize, u64, [usize; 7]);

fn pin(r: &TransientResult) -> Pin {
    let mut h = fnv1a(FNV_OFFSET, r.time().iter().map(|t| t.to_bits()));
    for name in r.signal_names() {
        let samples = r.signal(name).expect("recorded signal");
        h = fnv1a(h, samples.iter().map(|v| v.to_bits()));
    }
    let s = &r.stats;
    let counters = [
        s.steps,
        s.lu_factorizations,
        s.lu_solves,
        s.nr_iterations,
        s.expm_evaluations,
        s.topology_changes,
        s.topology_cache_hits,
    ];
    (r.len(), h, counters)
}

/// The front-end netlist at `phase` and a probe on every node and on
/// the current through and voltage across every element.
fn frontend(phase: f64) -> (ehsim_circuit::Netlist, Vec<Probe>) {
    let h = Harvester::default_tunable();
    let source = Sine::new(0.9, 64.0).expect("sine").with_phase(phase);
    let fe = build_frontend(
        &h,
        h.position_for_frequency(64.0),
        Arc::new(source),
        &Multiplier::default(),
        100e-6,
        0.0,
        None,
    )
    .expect("front end builds");
    let nl = fe.netlist;
    let mut probes: Vec<Probe> = nl
        .node_ids()
        .skip(1)
        .map(|id| Probe::node_voltage(nl.node_name(id)))
        .collect();
    for e in nl.elements() {
        probes.push(Probe::element_current(&e.name));
        probes.push(Probe::element_voltage(&e.name));
    }
    (nl, probes)
}

#[test]
fn newton_frontend_bits_are_pinned() {
    let pinned: [Pin; 4] = [
        (151, 8614123318658241460, [1500, 4213, 4213, 4213, 0, 0, 0]),
        (151, 11644852824132560076, [1500, 4317, 4317, 4317, 0, 0, 0]),
        (151, 1043884472267495859, [1500, 4197, 4197, 4197, 0, 0, 0]),
        (151, 3635551242413798026, [1500, 4323, 4323, 4323, 0, 0, 0]),
    ];
    let cfg = TransientConfig::new(0.03, 2e-5)
        .and_then(|c| c.with_record_stride(10))
        .expect("cfg");
    let got: Vec<Pin> = PHASES
        .iter()
        .map(|&phase| {
            let (nl, probes) = frontend(phase);
            let r = NewtonRaphsonEngine::default()
                .simulate(&nl, &cfg, &probes)
                .unwrap_or_else(|e| panic!("phase {phase}: NR failed: {e}"));
            pin(&r)
        })
        .collect();
    assert_eq!(got, pinned, "NR front-end fingerprints moved: {got:?}");
}

#[test]
fn lss_frontend_bits_are_pinned() {
    let pinned: [Pin; 4] = [
        (151, 5179066837482512613, [1500, 13, 156, 0, 424, 218, 3550]),
        (151, 5632218521069538677, [1500, 13, 156, 0, 433, 223, 3559]),
        (
            151,
            15057478332942573884,
            [1500, 12, 144, 0, 438, 228, 3566],
        ),
        (
            151,
            17970473655594164925,
            [1500, 12, 144, 0, 431, 220, 3559],
        ),
    ];
    let cfg = TransientConfig::new(0.3, 2e-4)
        .and_then(|c| c.with_record_stride(10))
        .expect("cfg");
    let got: Vec<Pin> = PHASES
        .iter()
        .map(|&phase| {
            let (nl, probes) = frontend(phase);
            let r = LinearizedStateSpaceEngine::default()
                .simulate(&nl, &cfg, &probes)
                .unwrap_or_else(|e| panic!("phase {phase}: LSS failed: {e}"));
            pin(&r)
        })
        .collect();
    assert_eq!(got, pinned, "LSS front-end fingerprints moved: {got:?}");
}
