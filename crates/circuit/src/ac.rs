//! AC small-signal (frequency-domain) analysis.
//!
//! Linearises the netlist around its DC operating point (diodes become
//! their small-signal conductances) and solves the complex MNA system
//! at each requested frequency, with one chosen independent source
//! driven at `1∠0` and every other independent source switched off
//! (voltage sources shorted, current sources opened).
//!
//! For the harvester this yields the electromechanical frequency
//! response directly — the resonance curve whose peak the tuning
//! actuator moves.

use crate::netlist::{ElementKind, Netlist};
use crate::{CircuitError, Result};
use ehsim_numeric::complex::Complex;
use std::collections::BTreeMap;

/// Result of an AC sweep: per frequency, the complex node voltages.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    /// `voltages[f][node]` — complex node voltage at sweep point `f`.
    voltages: Vec<Vec<Complex>>,
    node_index: BTreeMap<String, usize>,
}

impl AcSweep {
    /// The sweep frequencies (Hz).
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex transfer to a node at sweep point `idx`.
    pub fn voltage(&self, idx: usize, node: &str) -> Option<Complex> {
        let n = *self.node_index.get(node)?;
        self.voltages.get(idx).map(|v| v[n])
    }

    /// Magnitude response of a node across the sweep.
    pub fn magnitude(&self, node: &str) -> Option<Vec<f64>> {
        let n = *self.node_index.get(node)?;
        Some(self.voltages.iter().map(|v| v[n].abs()).collect())
    }

    /// Phase response (radians) of a node across the sweep.
    pub fn phase(&self, node: &str) -> Option<Vec<f64>> {
        let n = *self.node_index.get(node)?;
        Some(self.voltages.iter().map(|v| v[n].arg()).collect())
    }

    /// Frequency of the magnitude peak at a node (the last of equal
    /// peaks); `None` for an unknown node or a NaN magnitude.
    pub fn peak_frequency(&self, node: &str) -> Option<f64> {
        let mags = self.magnitude(node)?;
        let mut peak = 0;
        for (i, &m) in mags.iter().enumerate() {
            if m.is_nan() {
                return None;
            }
            if m >= mags[peak] {
                peak = i;
            }
        }
        self.freqs.get(peak).copied()
    }
}

/// Runs an AC sweep with the named independent source driven at `1∠0`.
///
/// Diodes are linearised at their zero-bias small-signal conductance
/// unless a DC operating point is supplied via `bias`, mapping diode
/// element names to junction voltages.
///
/// # Errors
///
/// * [`CircuitError::InvalidNetlist`] for malformed netlists or an
///   unknown source name.
/// * [`CircuitError::InvalidConfig`] for an empty frequency list, or
///   one holding a frequency that is not positive, is non-finite (NaN,
///   `+∞`), or is so large that `ω = 2πf` overflows (e.g. `1e308`).
/// * Numeric errors for singular configurations.
pub fn ac_sweep(
    nl: &Netlist,
    source_name: &str,
    freqs: &[f64],
    bias: Option<&BTreeMap<String, f64>>,
) -> Result<AcSweep> {
    nl.validate()?;
    if freqs.is_empty() || freqs.iter().any(|&f| !(f > 0.0 && omega(f).is_finite())) {
        return Err(CircuitError::InvalidConfig {
            message: "frequency list must be non-empty, with every f > 0 and 2πf finite".into(),
        });
    }
    let driven = nl
        .find_element(source_name)
        .ok_or_else(|| CircuitError::invalid(format!("no source named `{source_name}`")))?;
    match &nl.element(driven).kind {
        ElementKind::VoltageSource { .. } | ElementKind::CurrentSource { .. } => {}
        _ => {
            return Err(CircuitError::invalid(format!(
                "`{source_name}` is not an independent source"
            )))
        }
    }

    // Branch layout: voltage sources, inductors, CCVS outputs.
    let mut branch = 0usize;
    let mut vsrc_branch = BTreeMap::new();
    let mut ind_branch = BTreeMap::new();
    let mut ccvs_branch = BTreeMap::new();
    for (id, e) in nl.iter() {
        match &e.kind {
            ElementKind::VoltageSource { .. } => {
                vsrc_branch.insert(id.index(), branch);
                branch += 1;
            }
            ElementKind::Inductor { .. } => {
                ind_branch.insert(id.index(), branch);
                branch += 1;
            }
            ElementKind::Ccvs { .. } => {
                ccvs_branch.insert(id.index(), branch);
                branch += 1;
            }
            _ => {}
        }
    }
    let n_nodes = nl.node_count();
    let dim = n_nodes - 1 + branch;

    let mut voltages = Vec::with_capacity(freqs.len());
    for &f in freqs {
        let w = omega(f);
        let mut a = vec![vec![Complex::default(); dim]; dim];
        let mut rhs = vec![Complex::default(); dim];
        let row_of = |n: crate::netlist::NodeId| -> Option<usize> {
            if n.is_ground() {
                None
            } else {
                Some(n.index() - 1)
            }
        };
        let stamp_admittance = |a: &mut Vec<Vec<Complex>>,
                                p: crate::netlist::NodeId,
                                q: crate::netlist::NodeId,
                                y: Complex| {
            if let Some(i) = row_of(p) {
                a[i][i] = a[i][i] + y;
            }
            if let Some(j) = row_of(q) {
                a[j][j] = a[j][j] + y;
            }
            if let (Some(i), Some(j)) = (row_of(p), row_of(q)) {
                a[i][j] = a[i][j] - y;
                a[j][i] = a[j][i] - y;
            }
        };

        for (id, e) in nl.iter() {
            match &e.kind {
                ElementKind::Resistor { a: p, b: q, ohms } => {
                    stamp_admittance(&mut a, *p, *q, Complex::real(1.0 / ohms));
                }
                ElementKind::Capacitor {
                    a: p, b: q, farads, ..
                } => {
                    stamp_admittance(&mut a, *p, *q, Complex::new(0.0, w * farads));
                }
                ElementKind::Diode {
                    anode,
                    cathode,
                    model,
                } => {
                    let vd = bias.and_then(|b| b.get(&e.name)).copied().unwrap_or(0.0);
                    stamp_admittance(
                        &mut a,
                        *anode,
                        *cathode,
                        Complex::real(model.conductance(vd)),
                    );
                }
                ElementKind::Inductor {
                    a: p,
                    b: q,
                    henries,
                    ..
                } => {
                    let bidx = n_nodes - 1 + ind_branch[&id.index()];
                    if let Some(i) = row_of(*p) {
                        a[i][bidx] = a[i][bidx] + Complex::real(1.0);
                        a[bidx][i] = a[bidx][i] + Complex::real(1.0);
                    }
                    if let Some(j) = row_of(*q) {
                        a[j][bidx] = a[j][bidx] - Complex::real(1.0);
                        a[bidx][j] = a[bidx][j] - Complex::real(1.0);
                    }
                    // v_p - v_q - jωL·i = 0
                    a[bidx][bidx] = a[bidx][bidx] - Complex::new(0.0, w * henries);
                }
                ElementKind::VoltageSource { plus, minus, .. } => {
                    let bidx = n_nodes - 1 + vsrc_branch[&id.index()];
                    if let Some(i) = row_of(*plus) {
                        a[i][bidx] = a[i][bidx] + Complex::real(1.0);
                        a[bidx][i] = a[bidx][i] + Complex::real(1.0);
                    }
                    if let Some(j) = row_of(*minus) {
                        a[j][bidx] = a[j][bidx] - Complex::real(1.0);
                        a[bidx][j] = a[bidx][j] - Complex::real(1.0);
                    }
                    rhs[bidx] = if id == driven {
                        Complex::real(1.0)
                    } else {
                        Complex::default()
                    };
                }
                ElementKind::CurrentSource { from, to, .. } => {
                    if id == driven {
                        if let Some(i) = row_of(*from) {
                            rhs[i] = rhs[i] - Complex::real(1.0);
                        }
                        if let Some(j) = row_of(*to) {
                            rhs[j] = rhs[j] + Complex::real(1.0);
                        }
                    }
                }
                ElementKind::Ccvs {
                    plus,
                    minus,
                    ctrl,
                    trans_ohms,
                } => {
                    let bidx = n_nodes - 1 + ccvs_branch[&id.index()];
                    if let Some(i) = row_of(*plus) {
                        a[i][bidx] = a[i][bidx] + Complex::real(1.0);
                        a[bidx][i] = a[bidx][i] + Complex::real(1.0);
                    }
                    if let Some(j) = row_of(*minus) {
                        a[j][bidx] = a[j][bidx] - Complex::real(1.0);
                        a[bidx][j] = a[bidx][j] - Complex::real(1.0);
                    }
                    // v_p - v_q - r·i_ctrl = 0, i_ctrl is the inductor branch.
                    let ctrl_b = n_nodes - 1 + ind_branch[&ctrl.index()];
                    a[bidx][ctrl_b] = a[bidx][ctrl_b] - Complex::real(*trans_ohms);
                }
            }
        }

        let x = solve_complex(a, rhs)?;
        let mut v = vec![Complex::default(); n_nodes];
        v[1..n_nodes].copy_from_slice(&x[..n_nodes - 1]);
        voltages.push(v);
    }

    let node_index = (0..n_nodes)
        .map(|i| (nl.node_name(crate::netlist::NodeId(i)).to_string(), i))
        .collect();
    Ok(AcSweep {
        freqs: freqs.to_vec(),
        voltages,
        node_index,
    })
}

/// Dense complex Gaussian elimination with partial pivoting.
fn solve_complex(mut a: Vec<Vec<Complex>>, mut b: Vec<Complex>) -> Result<Vec<Complex>> {
    let n = b.len();
    for k in 0..n {
        // Pivot by magnitude: the last of equal maxima. A NaN is never
        // picked over a number; elimination turns its row all-NaN, and
        // the row fails the check below once it is the first candidate.
        let (mut p, mut mag) = (k, a[k][k].abs());
        for (i, row) in a.iter().enumerate().skip(k + 1) {
            let m = row[k].abs();
            if m >= mag {
                (p, mag) = (i, m);
            }
        }
        if !(mag >= 1e-300) {
            return Err(ehsim_numeric::NumericError::Singular.into());
        }
        a.swap(k, p);
        b.swap(k, p);
        let pivot = a[k][k];
        for i in (k + 1)..n {
            let m = a[i][k] / pivot;
            if m.abs() == 0.0 {
                continue;
            }
            for j in k..n {
                let upd = m * a[k][j];
                a[i][j] = a[i][j] - upd;
            }
            let upd = m * b[k];
            b[i] = b[i] - upd;
        }
    }
    let mut x = vec![Complex::default(); n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            let upd = a[i][j] * x[j];
            acc = acc - upd;
        }
        x[i] = acc / a[i][i];
    }
    Ok(x)
}

/// The angular frequency `ω = 2πf`.
fn omega(f: f64) -> f64 {
    2.0 * std::f64::consts::PI * f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::SourceWaveform;
    use ehsim_numeric::NumericError;

    #[test]
    fn rc_lowpass_corner() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let vout = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::Dc(0.0))
            .unwrap();
        nl.resistor("R1", vin, vout, 1e3).unwrap();
        nl.capacitor("C1", vout, Netlist::GROUND, 1e-6, 0.0)
            .unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-6);
        let sweep = ac_sweep(&nl, "V1", &[fc / 10.0, fc, fc * 10.0], None).unwrap();
        let mags = sweep.magnitude("out").unwrap();
        assert!((mags[0] - 1.0).abs() < 0.01, "passband {}", mags[0]);
        assert!((mags[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert!(mags[2] < 0.12, "stopband {}", mags[2]);
        // Phase at the corner is -45 degrees.
        let ph = sweep.phase("out").unwrap();
        assert!((ph[1] + std::f64::consts::FRAC_PI_4).abs() < 1e-6);
    }

    #[test]
    fn rlc_series_resonance() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let mid = nl.node("mid");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::Dc(0.0))
            .unwrap();
        nl.inductor("L1", vin, mid, 10e-3, 0.0).unwrap();
        nl.capacitor("C1", mid, out, 1e-6, 0.0).unwrap();
        nl.resistor("R1", out, Netlist::GROUND, 10.0).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (10e-3f64 * 1e-6).sqrt());
        let freqs: Vec<f64> = (0..200).map(|i| f0 * (0.5 + i as f64 / 199.0)).collect();
        let sweep = ac_sweep(&nl, "V1", &freqs, None).unwrap();
        let peak = sweep.peak_frequency("out").unwrap();
        assert!((peak - f0).abs() < 0.02 * f0, "peak {peak} vs f0 {f0}");
        // At resonance the full source voltage appears across R.
        let idx = freqs.iter().position(|&f| f == peak).unwrap();
        let v = sweep.voltage(idx, "out").unwrap().abs();
        assert!(v > 0.95, "|v(out)| = {v}");
    }

    #[test]
    fn harvester_resonance_matches_analytic() {
        use ehsim_harvester_like::*;
        // Local re-creation of the electromechanical analogy to avoid a
        // circular dev-dependency on ehsim-harvester.
        mod ehsim_harvester_like {
            pub const MASS: f64 = 2.0e-3;
            pub const F0: f64 = 65.0;
            pub const DAMP: f64 = 2.0 * 0.008 * MASS * 2.0 * std::f64::consts::PI * F0;
            pub const GAMMA: f64 = 20.0;
            pub const R_COIL: f64 = 2.0e3;
            pub const L_COIL: f64 = 0.5;
            pub const R_LOAD: f64 = 20e3;
        }
        let k = MASS * (2.0 * std::f64::consts::PI * F0).powi(2);
        let mut nl = Netlist::new();
        let m1 = nl.node("m1");
        let m2 = nl.node("m2");
        let m3 = nl.node("m3");
        let m4 = nl.node("m4");
        let emf = nl.node("emf");
        let cm = nl.node("cm");
        let out = nl.node("out");
        nl.vsource("Fsrc", m1, Netlist::GROUND, SourceWaveform::Dc(0.0))
            .unwrap();
        let l_mass = nl.inductor("Lmass", m1, m2, MASS, 0.0).unwrap();
        nl.resistor("Rdamp", m2, m3, DAMP).unwrap();
        nl.capacitor("Cspring", m3, m4, 1.0 / k, 0.0).unwrap();
        nl.ccvs("Hemf", emf, Netlist::GROUND, l_mass, GAMMA)
            .unwrap();
        let l_coil = nl.inductor("Lcoil", emf, cm, L_COIL, 0.0).unwrap();
        nl.resistor("Rcoil", cm, out, R_COIL).unwrap();
        nl.ccvs("Hreact", m4, Netlist::GROUND, l_coil, GAMMA)
            .unwrap();
        nl.resistor("Rload", out, Netlist::GROUND, R_LOAD).unwrap();

        let freqs: Vec<f64> = (0..301).map(|i| 45.0 + i as f64 * 0.15).collect();
        let sweep = ac_sweep(&nl, "Fsrc", &freqs, None).unwrap();
        let peak = sweep.peak_frequency("out").unwrap();
        // Electrical damping shifts the peak slightly; it must stay
        // within a couple of hertz of the mechanical resonance.
        assert!((peak - F0).abs() < 2.0, "peak at {peak} Hz");

        // Magnitude at resonance: compare with the analytic phasor
        // solution for unit force (accel = 1/m).
        let w = 2.0 * std::f64::consts::PI * peak;
        let zm = Complex::new(DAMP, w * MASS - k / w);
        let ze = Complex::new(R_COIL + R_LOAD, w * L_COIL);
        let v_vel = Complex::real(1.0) / (zm + Complex::real(GAMMA * GAMMA) / ze);
        let i_coil = v_vel * GAMMA / ze;
        let expect = (i_coil * R_LOAD).abs();
        let idx = freqs.iter().position(|&f| f == peak).unwrap();
        let got = sweep.voltage(idx, "out").unwrap().abs();
        assert!(
            (got - expect).abs() < 1e-6 * expect.max(1e-12),
            "AC {got} vs analytic {expect}"
        );
    }

    #[test]
    fn peak_is_the_last_of_equal_maxima_and_none_for_nan() {
        let sweep = |mags: &[f64]| AcSweep {
            freqs: (1..=mags.len()).map(|i| i as f64).collect(),
            voltages: mags
                .iter()
                .map(|&m| vec![Complex::default(), Complex::real(m)])
                .collect(),
            node_index: [("out".to_string(), 1)].into_iter().collect(),
        };
        assert_eq!(
            sweep(&[1.0, 3.0, 2.0, 3.0]).peak_frequency("out"),
            Some(4.0)
        );
        assert_eq!(sweep(&[2.0]).peak_frequency("out"), Some(1.0));
        assert_eq!(sweep(&[1.0, f64::NAN, 2.0]).peak_frequency("out"), None);
    }

    #[test]
    fn nan_anywhere_in_the_complex_system_is_singular() {
        for (r, c) in [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2), (0, 2)] {
            let mut a: Vec<Vec<Complex>> = (0..3)
                .map(|i| {
                    (0..3)
                        .map(|j| Complex::real(if i == j { 2.0 } else { 0.5 }))
                        .collect()
                })
                .collect();
            a[r][c] = Complex::real(f64::NAN);
            let got = solve_complex(a, vec![Complex::real(1.0); 3]);
            assert!(
                matches!(got, Err(CircuitError::Numeric(NumericError::Singular))),
                "NaN at ({r}, {c}): {got:?}"
            );
        }
    }

    #[test]
    fn validation() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(0.0))
            .unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0).unwrap();
        assert!(ac_sweep(&nl, "V1", &[], None).is_err());
        assert!(ac_sweep(&nl, "V1", &[-1.0], None).is_err());
        assert!(ac_sweep(&nl, "nope", &[1.0], None).is_err());
        assert!(ac_sweep(&nl, "R1", &[1.0], None).is_err());
    }

    #[test]
    fn bad_frequencies_are_invalid_config() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(0.0))
            .unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0).unwrap();
        // 1e308 is finite, but 2π·1e308 overflows to +∞.
        for f in [f64::INFINITY, 1e308, f64::NAN, 0.0, -1.0] {
            let got = ac_sweep(&nl, "V1", &[1.0, f], None);
            assert!(
                matches!(got, Err(CircuitError::InvalidConfig { .. })),
                "f = {f:e}: {got:?}"
            );
        }
        // The largest frequencies whose ω is finite still solve.
        assert!(ac_sweep(&nl, "V1", &[1e307, f64::MAX / 7.0], None).is_ok());
    }

    #[test]
    fn other_sources_are_switched_off() {
        // Two sources; only the driven one contributes.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(5.0))
            .unwrap();
        nl.vsource("V2", b, Netlist::GROUND, SourceWaveform::Dc(5.0))
            .unwrap();
        nl.resistor("R1", a, b, 1e3).unwrap();
        let sweep = ac_sweep(&nl, "V1", &[100.0], None).unwrap();
        assert!((sweep.voltage(0, "a").unwrap().abs() - 1.0).abs() < 1e-12);
        // V2 is shorted in small signal.
        assert!(sweep.voltage(0, "b").unwrap().abs() < 1e-12);
    }
}
