//! Property-based tests for the circuit engines: on randomly generated
//! linear networks the two engines must agree, energy must balance, and
//! passive circuits must never generate energy. A fingerprint battery
//! pins the exact output bits and work counters of NR, LSS and DC on
//! five committed netlist fixtures, so any change to the solver
//! arithmetic shows up as a failing test rather than a silent drift.

use ehsim_circuit::{
    dc, ElementKind, LinearizedStateSpaceEngine, Netlist, NewtonRaphsonEngine, NodeId, Probe,
    SourceWaveform, TransientConfig, TransientResult,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Committed netlist fixtures.
// ---------------------------------------------------------------------

/// Source → R → node → C ladder, three stages deep.
fn rc_ladder_fixture() -> (Netlist, Vec<Probe>) {
    let mut nl = Netlist::new();
    let mut prev = nl.node("in");
    nl.vsource("V1", prev, Netlist::GROUND, SourceWaveform::sine(1.0, 65.0))
        .expect("source");
    let mut probes = Vec::new();
    for i in 0..3 {
        let node = nl.node(&format!("n{i}"));
        nl.resistor(&format!("R{i}"), prev, node, 1e3 * (i + 1) as f64)
            .expect("resistor");
        nl.capacitor(&format!("C{i}"), node, Netlist::GROUND, 1e-6, 0.0)
            .expect("capacitor");
        probes.push(Probe::node_voltage(&format!("n{i}")));
        prev = node;
    }
    (nl, probes)
}

/// Half-wave rectifier with storage capacitor and load.
fn half_wave_rectifier() -> (Netlist, Vec<Probe>) {
    let mut nl = Netlist::new();
    let src = nl.node("src");
    let out = nl.node("out");
    nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(2.0, 50.0))
        .expect("source");
    nl.diode("D1", src, out).expect("diode");
    nl.capacitor("CL", out, Netlist::GROUND, 1e-5, 0.0)
        .expect("cap");
    nl.resistor("RL", out, Netlist::GROUND, 1e5).expect("load");
    (nl, vec![Probe::node_voltage("out")])
}

/// Greinacher voltage doubler: series cap pump plus two diodes.
fn voltage_doubler() -> (Netlist, Vec<Probe>) {
    let mut nl = Netlist::new();
    let src = nl.node("src");
    let pump = nl.node("pump");
    let out = nl.node("out");
    nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(1.5, 80.0))
        .expect("source");
    nl.capacitor("Cp", src, pump, 1e-6, 0.0).expect("pump cap");
    nl.diode("D1", Netlist::GROUND, pump).expect("clamp diode");
    nl.diode("D2", pump, out).expect("series diode");
    nl.capacitor("Co", out, Netlist::GROUND, 1e-6, 0.0)
        .expect("out cap");
    nl.resistor("RL", out, Netlist::GROUND, 1e6).expect("load");
    (
        nl,
        vec![Probe::node_voltage("pump"), Probe::node_voltage("out")],
    )
}

/// Inductor-sensed CCVS: branch-branch coupling exercises the MNA
/// border blocks that break pure diagonal dominance.
fn ccvs_sense() -> (Netlist, Vec<Probe>) {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let mid = nl.node("mid");
    let o = nl.node("o");
    nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::sine(1.0, 40.0))
        .expect("source");
    nl.resistor("R1", a, mid, 100.0).expect("resistor");
    let l1 = nl
        .inductor("L1", mid, Netlist::GROUND, 1e-3, 0.0)
        .expect("inductor");
    nl.ccvs("H1", o, Netlist::GROUND, l1, 50.0).expect("ccvs");
    nl.resistor("R2", o, Netlist::GROUND, 1e3).expect("load");
    (
        nl,
        vec![Probe::node_voltage("mid"), Probe::node_voltage("o")],
    )
}

/// Hand-built 3-stage Cockcroft–Walton ladder (the `ehsim-power`
/// multiplier topology, reproduced here because `ehsim-circuit` cannot
/// depend on downstream crates).
fn cw_ladder() -> (Netlist, Vec<Probe>) {
    let stages = 3usize;
    let n2 = 2 * stages;
    let mut nl = Netlist::new();
    let src = nl.node("src");
    let ac = nl.node("ac");
    nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(1.2, 60.0))
        .expect("source");
    // Finite source impedance, as a real harvester presents; an ideal
    // source makes the diode switching stiff enough to chatter.
    nl.resistor("Rs", src, ac, 50.0).expect("source resistance");
    let mut nodes = vec![Netlist::GROUND];
    for i in 1..=n2 {
        nodes.push(nl.node(&format!("n{i}")));
    }
    // Ladder capacitors are series C + ESR pairs, as in the power
    // crate's builder — the ESR damps the switching transients the
    // state-space engine would otherwise chatter on.
    let esr_cap = |nl: &mut Netlist, name: &str, a: NodeId, b: NodeId| {
        let mid = nl.node(&format!("{name}_esr"));
        nl.capacitor(name, a, mid, 1e-7, 0.0).expect("cap");
        nl.resistor(&format!("{name}_r"), mid, b, 2.0).expect("esr");
    };
    // AC column: ac→n1, n1→n3, …; DC column: gnd→n2, n2→n4, …
    let mut prev = ac;
    let mut idx = 1;
    while idx <= n2 {
        esr_cap(&mut nl, &format!("Ca{idx}"), prev, nodes[idx]);
        prev = nodes[idx];
        idx += 2;
    }
    let mut prev = Netlist::GROUND;
    let mut idx = 2;
    while idx <= n2 {
        esr_cap(&mut nl, &format!("Cb{idx}"), prev, nodes[idx]);
        prev = nodes[idx];
        idx += 2;
    }
    for i in 1..=n2 {
        nl.diode(&format!("D{i}"), nodes[i - 1], nodes[i])
            .expect("diode");
    }
    nl.resistor("RL", nodes[n2], Netlist::GROUND, 1e6)
        .expect("load");
    (nl, vec![Probe::node_voltage(&format!("n{n2}"))])
}

fn all_fixtures() -> Vec<(&'static str, Netlist, Vec<Probe>)> {
    let (rc, rc_p) = rc_ladder_fixture();
    let (hw, hw_p) = half_wave_rectifier();
    let (vd, vd_p) = voltage_doubler();
    let (cc, cc_p) = ccvs_sense();
    let (cw, cw_p) = cw_ladder();
    vec![
        ("rc_ladder", rc, rc_p),
        ("half_wave_rectifier", hw, hw_p),
        ("voltage_doubler", vd, vd_p),
        ("ccvs_sense", cc, cc_p),
        ("cw_ladder", cw, cw_p),
    ]
}

// ---------------------------------------------------------------------
// Bit fingerprints of the fixtures under every engine.
// ---------------------------------------------------------------------

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

/// Sample count, bit fingerprint of the time axis and every recorded
/// signal, and the deterministic work counters (everything but `wall`).
type TransientPin = (usize, u64, [usize; 7]);

fn transient_pin(r: &TransientResult) -> TransientPin {
    let mut h = fnv1a(FNV_OFFSET, r.time().iter().map(|t| t.to_bits()));
    for sig in r.signal_names() {
        let samples = r.signal(sig).expect("recorded signal");
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

fn fixture_cfg() -> TransientConfig {
    TransientConfig::new(0.02, 2e-5).expect("cfg")
}

#[test]
fn newton_fixture_bits_are_pinned() {
    let pinned: [(&str, TransientPin); 5] = [
        (
            "rc_ladder",
            (1001, 5673217964482094150, [1000, 2002, 2002, 2002, 0, 0, 0]),
        ),
        (
            "half_wave_rectifier",
            (1001, 5157282169641695579, [1000, 2053, 2053, 2053, 0, 0, 0]),
        ),
        (
            "voltage_doubler",
            (
                1001,
                13028387261552731084,
                [1000, 2233, 2233, 2233, 0, 0, 0],
            ),
        ),
        (
            "ccvs_sense",
            (
                1001,
                10234135423282767895,
                [1000, 2002, 2002, 2002, 0, 0, 0],
            ),
        ),
        (
            "cw_ladder",
            (1001, 8778884905486709128, [1000, 2627, 2627, 2627, 0, 0, 0]),
        ),
    ];
    let got: Vec<(&str, TransientPin)> = all_fixtures()
        .into_iter()
        .map(|(name, nl, probes)| {
            let r = NewtonRaphsonEngine::default()
                .simulate(&nl, &fixture_cfg(), &probes)
                .unwrap_or_else(|e| panic!("{name}: NR failed: {e}"));
            (name, transient_pin(&r))
        })
        .collect();
    assert_eq!(got, pinned, "NR fixture fingerprints moved");
}

/// A 20 V half-wave rectifier into an RC load. From rest, the diode's
/// first Newton update lands far past its critical voltage, so under a
/// one- or two-iteration budget junction limiting leaves some steps
/// unconverged: the engine rolls their states back and halves them.
fn hard_rectifier() -> (Netlist, Vec<Probe>) {
    let mut nl = Netlist::new();
    let src = nl.node("src");
    let out = nl.node("out");
    nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(20.0, 50.0))
        .expect("source");
    nl.diode("D1", src, out).expect("diode");
    nl.resistor("RL", out, Netlist::GROUND, 1e3).expect("load");
    nl.capacitor("C1", out, Netlist::GROUND, 1e-6, 0.0)
        .expect("cap");
    let probes = vec![
        Probe::node_voltage("out"),
        Probe::element_current("D1"),
        Probe::element_current("C1"),
    ];
    (nl, probes)
}

#[test]
fn newton_step_halving_bits_are_pinned() {
    // 200 steps at one iteration each plus the t = 0 solve would be 201
    // factorisations: the surplus is the halved attempts.
    let pinned: [(usize, TransientPin); 2] = [
        (
            1,
            (201, 10901685261495691447, [200, 205, 205, 205, 0, 0, 0]),
        ),
        (
            2,
            (201, 11532895700463511176, [200, 410, 410, 410, 0, 0, 0]),
        ),
    ];
    let cfg = TransientConfig::new(0.02, 1e-4).expect("cfg");
    let got: Vec<(usize, TransientPin)> = [1, 2]
        .into_iter()
        .map(|max_iterations| {
            let (nl, probes) = hard_rectifier();
            let r = NewtonRaphsonEngine {
                max_iterations,
                ..NewtonRaphsonEngine::default()
            }
            .simulate(&nl, &cfg, &probes)
            .unwrap_or_else(|e| panic!("{max_iterations} iterations: NR failed: {e}"));
            (max_iterations, transient_pin(&r))
        })
        .collect();
    assert_eq!(got, pinned, "NR step-halving fingerprints moved: {got:?}");
}

#[test]
fn lss_fixture_bits_are_pinned() {
    let pinned: [(&str, TransientPin); 5] = [
        (
            "rc_ladder",
            (1001, 12768171610235970229, [1000, 1, 5, 0, 1, 0, 3001]),
        ),
        (
            "half_wave_rectifier",
            (1001, 60954895564538118, [1000, 2, 6, 0, 6, 2, 3004]),
        ),
        (
            "voltage_doubler",
            (1001, 16928367802654362563, [1000, 3, 12, 0, 15, 7, 3011]),
        ),
        (
            "ccvs_sense",
            (1001, 10119096671540475054, [1000, 1, 3, 0, 1, 0, 3001]),
        ),
        (
            "cw_ladder",
            (1001, 6875896248141459648, [1000, 11, 88, 0, 189, 117, 3171]),
        ),
    ];
    let got: Vec<(&str, TransientPin)> = all_fixtures()
        .into_iter()
        .map(|(name, nl, probes)| {
            let r = LinearizedStateSpaceEngine::default()
                .simulate(&nl, &fixture_cfg(), &probes)
                .unwrap_or_else(|e| panic!("{name}: LSS failed: {e}"));
            (name, transient_pin(&r))
        })
        .collect();
    assert_eq!(got, pinned, "LSS fixture fingerprints moved");
}

/// Source evaluation time of the DC pins: a quarter period of the
/// rectifier's 50 Hz source, where every fixture's sine is non-zero.
const DC_TIME_S: f64 = 5e-3;

#[test]
fn dc_fixture_bits_are_pinned() {
    let pinned: [(&str, u64); 5] = [
        ("rc_ladder", 7770065902991762796),
        ("half_wave_rectifier", 6621370355904191720),
        ("voltage_doubler", 3319917515182702587),
        ("ccvs_sense", 3721679987276953337),
        ("cw_ladder", 8108633430605579333),
    ];
    let got: Vec<(&str, u64)> = all_fixtures()
        .into_iter()
        .map(|(name, nl, _)| {
            let op = dc::operating_point(&nl, DC_TIME_S)
                .unwrap_or_else(|e| panic!("{name}: DC failed: {e}"));
            let voltages = nl.node_ids().map(|id| {
                op.node_voltage(nl.node_name(id))
                    .expect("node voltage")
                    .to_bits()
            });
            let h = fnv1a(FNV_OFFSET, voltages);
            let currents = nl.elements().iter().filter_map(|e| match e.kind {
                ElementKind::Inductor { .. } => Some(
                    op.inductor_current(&e.name)
                        .expect("inductor current")
                        .to_bits(),
                ),
                _ => None,
            });
            (name, fnv1a(h, currents))
        })
        .collect();
    assert_eq!(got, pinned, "DC fixture fingerprints moved");
}

/// A random RC ladder: source → R1 → n1 → R2 → n2 → … with a capacitor
/// from each internal node to ground.
fn rc_ladder(stages: usize, rs: &[f64], cs: &[f64], amp: f64, freq: f64) -> Netlist {
    let mut nl = Netlist::new();
    let mut prev = nl.node("in");
    nl.vsource("V1", prev, Netlist::GROUND, SourceWaveform::sine(amp, freq))
        .expect("source");
    for i in 0..stages {
        let node = nl.node(&format!("n{i}"));
        nl.resistor(&format!("R{i}"), prev, node, rs[i])
            .expect("resistor");
        nl.capacitor(&format!("C{i}"), node, Netlist::GROUND, cs[i], 0.0)
            .expect("capacitor");
        prev = node;
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_agree_on_random_rc_ladders(
        stages in 1usize..4,
        r_exp in prop::collection::vec(2.0f64..5.0, 4),
        c_exp in prop::collection::vec(-7.0f64..-5.0, 4),
        amp in 0.5f64..3.0,
        freq in 20.0f64..200.0,
    ) {
        let rs: Vec<f64> = r_exp.iter().map(|e| 10f64.powf(*e)).collect();
        let cs: Vec<f64> = c_exp.iter().map(|e| 10f64.powf(*e)).collect();
        let nl = rc_ladder(stages, &rs, &cs, amp, freq);
        let last = format!("n{}", stages - 1);
        let probe = [Probe::node_voltage(&last)];
        let t_end = (4.0 / freq).min(0.05);

        let nr = NewtonRaphsonEngine::default()
            .simulate(&nl, &TransientConfig::new(t_end, t_end / 4000.0).expect("cfg"), &probe)
            .expect("nr runs");
        let lss = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &TransientConfig::new(t_end, t_end / 4000.0).expect("cfg"), &probe)
            .expect("lss runs");
        let sig = format!("v({last})");
        let v_nr = *nr.signal(&sig).expect("recorded").last().expect("samples");
        let v_lss = *lss.signal(&sig).expect("recorded").last().expect("samples");
        // Linear circuit, same step: the engines agree closely.
        prop_assert!(
            (v_nr - v_lss).abs() < 1e-3 * amp.max(v_nr.abs()),
            "nr {v_nr} vs lss {v_lss}"
        );
    }

    #[test]
    fn passive_rc_never_exceeds_source_amplitude(
        r in 100.0f64..100_000.0,
        c in 1e-8f64..1e-5,
        amp in 0.1f64..10.0,
    ) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::sine(amp, 50.0))
            .expect("source");
        nl.resistor("R1", vin, out, r).expect("resistor");
        nl.capacitor("C1", out, Netlist::GROUND, c, 0.0).expect("cap");
        let res = LinearizedStateSpaceEngine::default()
            .simulate(
                &nl,
                &TransientConfig::new(0.1, 1e-4).expect("cfg"),
                &[Probe::node_voltage("out")],
            )
            .expect("runs");
        for &v in res.signal("v(out)").expect("recorded") {
            prop_assert!(v.abs() <= amp * 1.0001, "v = {v} exceeds source {amp}");
        }
    }

    #[test]
    fn rectifier_output_is_bounded_and_nonnegative(
        amp in 0.8f64..4.0,
        freq in 30.0f64..120.0,
        c in 1e-6f64..5e-5,
    ) {
        // Half-wave rectifier with storage: output stays within
        // [-(leakage dip), peak] for any parameter draw.
        let mut nl = Netlist::new();
        let src = nl.node("src");
        let out = nl.node("out");
        nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(amp, freq))
            .expect("source");
        nl.diode("D1", src, out).expect("diode");
        nl.capacitor("CL", out, Netlist::GROUND, c, 0.0).expect("cap");
        nl.resistor("RL", out, Netlist::GROUND, 1e5).expect("load");
        let res = LinearizedStateSpaceEngine::default()
            .simulate(
                &nl,
                &TransientConfig::new(0.2, 5e-5).expect("cfg"),
                &[Probe::node_voltage("out")],
            )
            .expect("runs");
        let sig = res.signal("v(out)").expect("recorded");
        for &v in sig {
            prop_assert!(v > -0.05, "negative output {v}");
            prop_assert!(v <= amp, "output {v} above source peak {amp}");
        }
        // It must actually rectify: the tail average is positive.
        let tail = &sig[sig.len() / 2..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        prop_assert!(mean > 0.2 * (amp - 0.4).max(0.0), "mean {mean}");
    }

    #[test]
    fn lss_respects_initial_conditions(v0 in -3.0f64..3.0, c in 1e-7f64..1e-5) {
        let mut nl = Netlist::new();
        let top = nl.node("top");
        nl.capacitor("C1", top, Netlist::GROUND, c, v0).expect("cap");
        nl.resistor("R1", top, Netlist::GROUND, 1e4).expect("res");
        let tau = 1e4 * c;
        let res = LinearizedStateSpaceEngine::default()
            .simulate(
                &nl,
                &TransientConfig::new(tau, tau / 100.0).expect("cfg"),
                &[Probe::node_voltage("top")],
            )
            .expect("runs");
        let sig = res.signal("v(top)").expect("recorded");
        prop_assert!((sig[0] - v0).abs() < 1e-9 + 1e-6 * v0.abs());
        let expect = v0 * (-1.0f64).exp();
        prop_assert!((sig.last().unwrap() - expect).abs() < 1e-6 + 1e-4 * v0.abs());
    }
}
