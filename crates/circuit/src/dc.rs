//! DC operating-point analysis.
//!
//! Capacitors are opened, inductors are shorted (they become 0 V branch
//! elements so their DC currents are available), and diodes are solved
//! with Newton–Raphson. Sources are evaluated at a caller-supplied time
//! (usually `t = 0`).

use crate::mna::{MnaBuilder, MnaSolution};
use crate::netlist::{ElementKind, Netlist, NodeId};
use crate::{CircuitError, Result};
use std::collections::BTreeMap;

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    sol: MnaSolution,
    node_index: BTreeMap<String, NodeId>,
    inductor_currents: BTreeMap<String, f64>,
}

impl DcSolution {
    /// DC voltage of a named node.
    pub fn node_voltage(&self, name: &str) -> Option<f64> {
        self.node_index.get(name).map(|n| self.sol.voltage(*n))
    }

    /// DC current through a named inductor.
    pub fn inductor_current(&self, name: &str) -> Option<f64> {
        self.inductor_currents.get(name).copied()
    }
}

/// Computes the DC operating point with sources evaluated at time `t`.
///
/// # Errors
///
/// * [`CircuitError::InvalidNetlist`] for malformed netlists.
/// * [`CircuitError::NoConvergence`] if the diode NR loop fails.
/// * Numeric errors for singular (floating) configurations — note that
///   a capacitor in series with everything else leaves nodes floating
///   at DC.
pub fn operating_point(nl: &Netlist, t: f64) -> Result<DcSolution> {
    nl.validate()?;
    let n_nodes = nl.node_count();

    // Branch layout: voltage sources, CCVS, then inductors (as shorts).
    let mut vsrc_branches = Vec::new();
    let mut ccvs_branches = Vec::new();
    let mut ind_branches = Vec::new();
    let mut ind_branch_of_elem: BTreeMap<usize, usize> = BTreeMap::new();
    let mut branch = 0;
    for (id, e) in nl.iter() {
        match &e.kind {
            ElementKind::VoltageSource { plus, minus, wave } => {
                vsrc_branches.push((branch, *plus, *minus, wave.eval(t)));
                branch += 1;
            }
            ElementKind::Ccvs {
                plus,
                minus,
                ctrl,
                trans_ohms,
            } => {
                ccvs_branches.push((branch, *plus, *minus, ctrl.index(), *trans_ohms));
                branch += 1;
            }
            ElementKind::Inductor { a, b, .. } => {
                ind_branch_of_elem.insert(id.index(), branch);
                ind_branches.push((branch, *a, *b, e.name.clone()));
                branch += 1;
            }
            _ => {}
        }
    }

    let diodes: Vec<_> = nl
        .elements()
        .iter()
        .filter_map(|e| match &e.kind {
            ElementKind::Diode {
                anode,
                cathode,
                model,
            } => Some((*anode, *cathode, *model)),
            _ => None,
        })
        .collect();
    let mut diode_v = vec![0.0; diodes.len()];

    let mut last: Option<MnaSolution> = None;
    for _ in 0..200 {
        let mut b = MnaBuilder::new(n_nodes, branch);
        for e in nl.elements() {
            match &e.kind {
                ElementKind::Resistor { a, b: nb, ohms } => {
                    b.stamp_conductance(*a, *nb, 1.0 / ohms)
                }
                ElementKind::CurrentSource { from, to, wave } => {
                    b.stamp_current_source(*from, *to, wave.eval(t))
                }
                _ => {}
            }
        }
        for (br, p, m, v) in &vsrc_branches {
            b.stamp_branch_incidence(*br, *p, *m);
            b.set_branch_rhs(*br, *v);
        }
        for (br, a, nb, _) in &ind_branches {
            b.stamp_branch_incidence(*br, *a, *nb);
            b.set_branch_rhs(*br, 0.0);
        }
        for (br, p, m, ctrl, r) in &ccvs_branches {
            b.stamp_branch_incidence(*br, *p, *m);
            let ctrl_branch = *ind_branch_of_elem
                .get(ctrl)
                .ok_or_else(|| CircuitError::invalid("CCVS is not controlled by an inductor"))?;
            b.add_branch_branch_coeff(*br, ctrl_branch, -r);
            b.set_branch_rhs(*br, 0.0);
        }
        for ((a, c, model), vd) in diodes.iter().zip(&diode_v) {
            let g = model.conductance(*vd);
            let i_eq = model.current(*vd) - g * vd;
            b.stamp_conductance(*a, *c, g);
            b.stamp_current_source(*a, *c, i_eq);
        }

        let sol = b.solve()?;
        let mut delta: f64 = 0.0;
        for ((a, c, _), vd) in diodes.iter().zip(diode_v.iter_mut()) {
            let raw = sol.voltage_between(*a, *c);
            let limited = if (raw - *vd).abs() > 0.1 {
                *vd + 0.1_f64.copysign(raw - *vd)
            } else {
                raw
            };
            delta = delta.max((limited - *vd).abs());
            *vd = limited;
        }
        let converged = match &last {
            None => false,
            Some(prev) => sol
                .v
                .iter()
                .zip(prev.v.iter())
                .all(|(a, b)| (a - b).abs() < 1e-9 + 1e-6 * a.abs()),
        };
        last = Some(sol);
        if converged && delta < 1e-9 {
            break;
        }
    }

    let sol = last.ok_or_else(|| CircuitError::NoConvergence {
        time: t,
        detail: "dc operating point ran no iteration".into(),
    })?;
    // Final convergence check on diode voltages.
    for ((a, c, _), vd) in diodes.iter().zip(&diode_v) {
        if (sol.voltage_between(*a, *c) - vd).abs() > 1e-3 {
            return Err(CircuitError::NoConvergence {
                time: t,
                detail: "dc operating point did not converge".into(),
            });
        }
    }

    let node_index = (0..nl.node_count())
        .map(|i| (nl.node_name(NodeId(i)).to_string(), NodeId(i)))
        .collect();
    let inductor_currents = ind_branches
        .iter()
        .map(|(br, _, _, name)| (name.clone(), sol.i_branch[*br]))
        .collect();
    Ok(DcSolution {
        sol,
        node_index,
        inductor_currents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::SourceWaveform;

    #[test]
    fn resistive_divider_dc() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(10.0))
            .unwrap();
        nl.resistor("R1", a, b, 1e3).unwrap();
        nl.resistor("R2", b, Netlist::GROUND, 3e3).unwrap();
        let dc = operating_point(&nl, 0.0).unwrap();
        assert!((dc.node_voltage("b").unwrap() - 7.5).abs() < 1e-9);
        assert!(dc.node_voltage("nope").is_none());
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(1.0))
            .unwrap();
        nl.resistor("R1", a, b, 100.0).unwrap();
        nl.inductor("L1", b, Netlist::GROUND, 1e-3, 0.0).unwrap();
        let dc = operating_point(&nl, 0.0).unwrap();
        assert!(dc.node_voltage("b").unwrap().abs() < 1e-9);
        assert!((dc.inductor_current("L1").unwrap() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn diode_forward_drop() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(5.0))
            .unwrap();
        nl.resistor("R1", a, b, 1e3).unwrap();
        nl.diode("D1", b, Netlist::GROUND).unwrap();
        let dc = operating_point(&nl, 0.0).unwrap();
        let vd = dc.node_voltage("b").unwrap();
        // Schottky drop at a few mA is a few hundred millivolts.
        assert!(vd > 0.15 && vd < 0.6, "vd = {vd}");
        // Consistency: the resistor current equals the diode current.
        let i_r = (5.0 - vd) / 1e3;
        let i_d = crate::netlist::DiodeModel::default().current(vd);
        assert!((i_r - i_d).abs() < 1e-6, "i_r={i_r} i_d={i_d}");
    }

    #[test]
    fn ccvs_dc_coupling() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let o = nl.node("o");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(1.0))
            .unwrap();
        let mid = nl.node("mid");
        nl.resistor("R1", a, mid, 100.0).unwrap();
        let l1 = nl.inductor("L1", mid, Netlist::GROUND, 1e-3, 0.0).unwrap();
        nl.ccvs("H1", o, Netlist::GROUND, l1, 50.0).unwrap();
        nl.resistor("R2", o, Netlist::GROUND, 1e3).unwrap();
        let dc = operating_point(&nl, 0.0).unwrap();
        // i_L = 10 mA at DC, v(o) = 0.5 V.
        assert!((dc.node_voltage("o").unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn time_dependent_sources() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::sine(1.0, 1.0))
            .unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0).unwrap();
        let dc = operating_point(&nl, 0.25).unwrap();
        assert!((dc.node_voltage("a").unwrap() - 1.0).abs() < 1e-9);
    }
}
