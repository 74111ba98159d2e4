//! The explicit linearized state-space transient engine.
//!
//! This reproduces the acceleration technique of Kazmierski et al.
//! (IEEE TCAD 2012, ref \[4\] of the DATE'13 paper): instead of iterating
//! Newton–Raphson over the nonlinear MNA system at every time step,
//! nonlinear devices (diodes) are replaced by two-state piecewise-linear
//! models. Within one conduction topology the whole circuit —
//! electrical *and* the mechanically-equivalent part of the harvester —
//! is a linear time-invariant system
//!
//! ```text
//!     ẋ = A x + B [u; 1]
//! ```
//!
//! whose exact zero-order-hold discretisation `(Φ, Γ) = f(A, B, h)` is
//! computed **once per topology** via the matrix exponential and cached.
//! Each time step is then a single explicit matrix–vector product; no
//! Jacobian assembly, no LU factorisation, no iteration. Diode switching
//! instants are located by linear interpolation of the switching
//! functions and handled with one extra (non-cached) discretisation over
//! the partial step.
//!
//! The state vector stacks capacitor voltages then inductor currents;
//! the input vector stacks independent voltage then current sources,
//! augmented with a constant `1` carrying the PWL diode offset voltages.

use crate::mna::MnaBuilder;
use crate::netlist::{DiodeModel, ElementKind, Netlist, NodeId};
use crate::probe::{Probe, SimStats, TransientResult};
use crate::waveform::SourceWaveform;
use crate::{CircuitError, Result, TransientConfig};
use ehsim_numeric::expm::discretize_zoh;
use ehsim_numeric::Matrix;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
// lint:allow(D2): wall-clock feeds the reporting-only `wall` duration, never result bytes
use std::time::Instant;

/// Explicit linearized state-space engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinearizedStateSpaceEngine {
    /// Maximum diode switching events handled within one nominal step
    /// before the run is declared chattering.
    pub max_events_per_step: usize,
}

impl Default for LinearizedStateSpaceEngine {
    fn default() -> Self {
        LinearizedStateSpaceEngine {
            max_events_per_step: 256,
        }
    }
}

struct ResDef {
    a: NodeId,
    b: NodeId,
    g: f64,
}

struct CapDef {
    a: NodeId,
    b: NodeId,
    c: f64,
    branch: usize,
    state: usize,
}

struct IndDef {
    a: NodeId,
    b: NodeId,
    l: f64,
    state: usize,
}

struct DiodeDef {
    a: NodeId,
    c: NodeId,
    model: DiodeModel,
}

struct VsrcDef {
    branch: usize,
    plus: NodeId,
    minus: NodeId,
    input: usize,
    wave: SourceWaveform,
}

struct CcvsDef {
    branch: usize,
    plus: NodeId,
    minus: NodeId,
    ctrl_state: usize,
    r: f64,
}

struct IsrcDef {
    from: NodeId,
    to: NodeId,
    input: usize,
    wave: SourceWaveform,
}

/// Linear output of the resistive snapshot, evaluated per basis column.
#[derive(Debug, Clone)]
enum OutputSpec {
    NodeV(NodeId),
    ElemV(NodeId, NodeId),
    ResistorI(usize),
    BranchI(usize),
    StateI(usize),
    InputI(usize),
    DiodeI(usize),
}

/// Column identity during basis solves.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Col {
    State(usize),
    Input(usize),
    Const,
}

enum ProbeRowSet {
    Single(Vec<f64>),
    Product(Vec<f64>, Vec<f64>),
}

struct Topology {
    a: Matrix,
    b_aug: Matrix,
    phi: Matrix,
    gamma: Matrix,
    /// Per diode: row of `v_d` over `[x; u; 1]`.
    diode_v: Vec<Vec<f64>>,
    /// Per diode: row of `i_d` over `[x; u; 1]`.
    diode_i: Vec<Vec<f64>>,
    probe_rows: Vec<ProbeRowSet>,
}

struct LssPrep {
    n_nodes: usize,
    n_branches: usize,
    n_states: usize,
    n_inputs: usize,
    resistors: Vec<ResDef>,
    caps: Vec<CapDef>,
    inds: Vec<IndDef>,
    diodes: Vec<DiodeDef>,
    vsrcs: Vec<VsrcDef>,
    ccvs: Vec<CcvsDef>,
    isrcs: Vec<IsrcDef>,
    x0: Vec<f64>,
    probe_specs: Vec<ProbeSpec>,
}

enum ProbeSpec {
    Single(OutputSpec),
    Power(OutputSpec, OutputSpec),
}

impl LssPrep {
    fn build(nl: &Netlist, probes: &[Probe]) -> Result<Self> {
        nl.validate()?;
        let mut caps = Vec::new();
        let mut inds = Vec::new();
        let mut diodes = Vec::new();
        let mut vsrcs = Vec::new();
        let mut ccvs_raw = Vec::new();
        let mut isrcs = Vec::new();
        let mut resistors = Vec::new();
        let mut ind_slot: BTreeMap<usize, usize> = BTreeMap::new();

        // First pass: count inductors for state layout.
        for (id, e) in nl.iter() {
            if let ElementKind::Inductor { .. } = e.kind {
                ind_slot.insert(id.index(), ind_slot.len());
            }
        }
        let n_caps = nl
            .elements()
            .iter()
            .filter(|e| matches!(e.kind, ElementKind::Capacitor { .. }))
            .count();

        let mut branch = 0;
        let mut input = 0;
        let mut x0 = vec![0.0; 0];
        let mut cap_idx = 0;
        // Branch order: voltage sources, CCVS outputs, then capacitor
        // replacements — assigned in element order within each class, so
        // run vsrcs/ccvs first.
        for (_, e) in nl.iter() {
            match &e.kind {
                ElementKind::VoltageSource { plus, minus, wave } => {
                    vsrcs.push(VsrcDef {
                        branch,
                        plus: *plus,
                        minus: *minus,
                        input,
                        wave: wave.clone(),
                    });
                    branch += 1;
                    input += 1;
                }
                ElementKind::Ccvs {
                    plus,
                    minus,
                    ctrl,
                    trans_ohms,
                } => {
                    ccvs_raw.push((branch, *plus, *minus, ctrl.index(), *trans_ohms));
                    branch += 1;
                }
                _ => {}
            }
        }
        for (_, e) in nl.iter() {
            match &e.kind {
                ElementKind::Resistor { a, b, ohms } => resistors.push(ResDef {
                    a: *a,
                    b: *b,
                    g: 1.0 / ohms,
                }),
                ElementKind::Capacitor { a, b, farads, ic } => {
                    caps.push(CapDef {
                        a: *a,
                        b: *b,
                        c: *farads,
                        branch,
                        state: cap_idx,
                    });
                    x0.push(*ic);
                    branch += 1;
                    cap_idx += 1;
                }
                ElementKind::Inductor { a, b, henries, ic } => {
                    let state = n_caps + inds.len();
                    inds.push(IndDef {
                        a: *a,
                        b: *b,
                        l: *henries,
                        state,
                    });
                    x0.push(*ic);
                    let _ = ic;
                }
                ElementKind::Diode {
                    anode,
                    cathode,
                    model,
                } => diodes.push(DiodeDef {
                    a: *anode,
                    c: *cathode,
                    model: *model,
                }),
                ElementKind::CurrentSource { from, to, wave } => {
                    isrcs.push(IsrcDef {
                        from: *from,
                        to: *to,
                        input,
                        wave: wave.clone(),
                    });
                    input += 1;
                }
                _ => {}
            }
        }
        // x0 currently interleaves cap/ind in element order; rebuild in
        // canonical order: caps first then inductors.
        let mut x0_sorted = vec![0.0; caps.len() + inds.len()];
        {
            let mut ci = 0;
            let mut li = 0;
            for (_, e) in nl.iter() {
                match &e.kind {
                    ElementKind::Capacitor { ic, .. } => {
                        x0_sorted[ci] = *ic;
                        ci += 1;
                    }
                    ElementKind::Inductor { ic, .. } => {
                        x0_sorted[caps.len() + li] = *ic;
                        li += 1;
                    }
                    _ => {}
                }
            }
        }

        let ccvs = ccvs_raw
            .into_iter()
            .map(|(branch, plus, minus, ctrl_elem, r)| {
                let slot = ind_slot.get(&ctrl_elem).ok_or_else(|| {
                    CircuitError::invalid("CCVS is not controlled by an inductor")
                })?;
                Ok(CcvsDef {
                    branch,
                    plus,
                    minus,
                    ctrl_state: n_caps + slot,
                    r,
                })
            })
            .collect::<Result<Vec<_>>>()?;

        if diodes.len() > 64 {
            return Err(CircuitError::invalid(
                "linearized state-space engine supports at most 64 diodes",
            ));
        }

        let mut prep = LssPrep {
            n_nodes: nl.node_count(),
            n_branches: branch,
            n_states: caps.len() + inds.len(),
            n_inputs: input,
            resistors,
            caps,
            inds,
            diodes,
            vsrcs,
            ccvs,
            isrcs,
            x0: x0_sorted,
            probe_specs: Vec::new(),
        };
        prep.probe_specs = probes
            .iter()
            .map(|p| prep.resolve_probe(nl, p))
            .collect::<Result<Vec<_>>>()?;
        Ok(prep)
    }

    fn element_output(&self, nl: &Netlist, name: &str) -> Result<(OutputSpec, NodeId, NodeId)> {
        let id = nl
            .find_element(name)
            .ok_or_else(|| CircuitError::UnknownProbe {
                name: name.to_string(),
            })?;
        // Locate the element's slot within its class by counting.
        let mut res_i = 0;
        let mut cap_i = 0;
        let mut ind_i = 0;
        let mut d_i = 0;
        let mut v_i = 0;
        let mut cc_i = 0;
        let mut is_i = 0;
        for (eid, e) in nl.iter() {
            let here = eid == id;
            match &e.kind {
                ElementKind::Resistor { a, b, .. } => {
                    if here {
                        return Ok((OutputSpec::ResistorI(res_i), *a, *b));
                    }
                    res_i += 1;
                }
                ElementKind::Capacitor { a, b, .. } => {
                    if here {
                        return Ok((OutputSpec::BranchI(self.caps[cap_i].branch), *a, *b));
                    }
                    cap_i += 1;
                }
                ElementKind::Inductor { a, b, .. } => {
                    if here {
                        return Ok((OutputSpec::StateI(self.inds[ind_i].state), *a, *b));
                    }
                    ind_i += 1;
                }
                ElementKind::Diode { anode, cathode, .. } => {
                    if here {
                        return Ok((OutputSpec::DiodeI(d_i), *anode, *cathode));
                    }
                    d_i += 1;
                }
                ElementKind::VoltageSource { plus, minus, .. } => {
                    if here {
                        return Ok((OutputSpec::BranchI(self.vsrcs[v_i].branch), *plus, *minus));
                    }
                    v_i += 1;
                }
                ElementKind::Ccvs { plus, minus, .. } => {
                    if here {
                        return Ok((OutputSpec::BranchI(self.ccvs[cc_i].branch), *plus, *minus));
                    }
                    cc_i += 1;
                }
                ElementKind::CurrentSource { from, to, .. } => {
                    if here {
                        return Ok((OutputSpec::InputI(self.isrcs[is_i].input), *from, *to));
                    }
                    is_i += 1;
                }
            }
        }
        Err(CircuitError::UnknownProbe {
            name: name.to_string(),
        })
    }

    fn resolve_probe(&self, nl: &Netlist, probe: &Probe) -> Result<ProbeSpec> {
        match probe {
            Probe::NodeVoltage(name) => {
                let node = nl
                    .find_node(name)
                    .ok_or_else(|| CircuitError::UnknownProbe { name: name.clone() })?;
                Ok(ProbeSpec::Single(OutputSpec::NodeV(node)))
            }
            Probe::ElementCurrent(name) => {
                let (spec, _, _) = self.element_output(nl, name)?;
                Ok(ProbeSpec::Single(spec))
            }
            Probe::ElementVoltage(name) => {
                let (_, a, b) = self.element_output(nl, name)?;
                Ok(ProbeSpec::Single(OutputSpec::ElemV(a, b)))
            }
            Probe::ElementPower(name) => {
                let (ispec, a, b) = self.element_output(nl, name)?;
                Ok(ProbeSpec::Power(OutputSpec::ElemV(a, b), ispec))
            }
        }
    }

    fn diode_on(&self, mask: u64, idx: usize) -> bool {
        mask & (1 << idx) != 0
    }

    /// Builds (and discretises) the LTI system for one diode topology.
    fn build_topology(&self, mask: u64, h: f64, stats: &mut SimStats) -> Result<Topology> {
        let ns = self.n_states;
        let nu = self.n_inputs;
        let ncols = ns + nu + 1;
        let z_len = ns + nu + 1;

        let mut b = MnaBuilder::new(self.n_nodes, self.n_branches);
        for r in &self.resistors {
            b.stamp_conductance(r.a, r.b, r.g);
        }
        for (k, d) in self.diodes.iter().enumerate() {
            let g = if self.diode_on(mask, k) {
                1.0 / d.model.r_on
            } else {
                d.model.g_off
            };
            b.stamp_conductance(d.a, d.c, g);
        }
        for v in &self.vsrcs {
            b.stamp_branch_incidence(v.branch, v.plus, v.minus);
        }
        for cc in &self.ccvs {
            b.stamp_branch_incidence(cc.branch, cc.plus, cc.minus);
        }
        for c in &self.caps {
            b.stamp_branch_incidence(c.branch, c.a, c.b);
        }
        stats.lu_factorizations += 1;
        let lu = b.factor()?;

        let mut a_mat = Matrix::zeros(ns, ns);
        let mut b_aug = Matrix::zeros(ns, nu + 1);
        let mut diode_v: Vec<Vec<f64>> = vec![vec![0.0; z_len]; self.diodes.len()];
        let mut diode_i: Vec<Vec<f64>> = vec![vec![0.0; z_len]; self.diodes.len()];
        let mut probe_rows: Vec<ProbeRowSet> = self
            .probe_specs
            .iter()
            .map(|p| match p {
                ProbeSpec::Single(_) => ProbeRowSet::Single(vec![0.0; z_len]),
                ProbeSpec::Power(_, _) => ProbeRowSet::Product(vec![0.0; z_len], vec![0.0; z_len]),
            })
            .collect();

        for col_idx in 0..ncols {
            let col = if col_idx < ns {
                Col::State(col_idx)
            } else if col_idx < ns + nu {
                Col::Input(col_idx - ns)
            } else {
                Col::Const
            };
            b.clear_rhs();
            // Capacitor replacement sources.
            for c in &self.caps {
                let v = matches!(col, Col::State(s) if s == c.state) as u8 as f64;
                b.set_branch_rhs(c.branch, v);
            }
            // Inductor replacement current sources.
            for l in &self.inds {
                if matches!(col, Col::State(s) if s == l.state) {
                    b.stamp_current_source(l.a, l.b, 1.0);
                }
            }
            // CCVS output: r * i_ctrl (the controlling current is a state).
            for cc in &self.ccvs {
                let v = if matches!(col, Col::State(s) if s == cc.ctrl_state) {
                    cc.r
                } else {
                    0.0
                };
                b.set_branch_rhs(cc.branch, v);
            }
            // Independent sources.
            for v in &self.vsrcs {
                let val = matches!(col, Col::Input(i) if i == v.input) as u8 as f64;
                b.set_branch_rhs(v.branch, val);
            }
            for s in &self.isrcs {
                if matches!(col, Col::Input(i) if i == s.input) {
                    b.stamp_current_source(s.from, s.to, 1.0);
                }
            }
            // PWL diode forward-voltage offsets live in the const column.
            if col == Col::Const {
                for (k, d) in self.diodes.iter().enumerate() {
                    if self.diode_on(mask, k) {
                        let g_on = 1.0 / d.model.r_on;
                        b.stamp_current_source(d.c, d.a, g_on * d.model.v_fwd);
                    }
                }
            }

            stats.lu_solves += 1;
            let sol = b.solve_with(&lu)?;

            // State derivatives.
            for c in &self.caps {
                let didt = sol.i_branch[c.branch] / c.c;
                match col {
                    Col::State(s) => a_mat[(c.state, s)] = didt,
                    Col::Input(i) => b_aug[(c.state, i)] = didt,
                    Col::Const => b_aug[(c.state, nu)] = didt,
                }
            }
            for l in &self.inds {
                let didt = sol.voltage_between(l.a, l.b) / l.l;
                match col {
                    Col::State(s) => a_mat[(l.state, s)] = didt,
                    Col::Input(i) => b_aug[(l.state, i)] = didt,
                    Col::Const => b_aug[(l.state, nu)] = didt,
                }
            }

            // Diode monitor rows.
            for (k, d) in self.diodes.iter().enumerate() {
                let vd = sol.voltage_between(d.a, d.c);
                diode_v[k][col_idx] = vd;
                diode_i[k][col_idx] = if self.diode_on(mask, k) {
                    let g_on = 1.0 / d.model.r_on;
                    let offset = if col == Col::Const {
                        -g_on * d.model.v_fwd
                    } else {
                        0.0
                    };
                    g_on * vd + offset
                } else {
                    d.model.g_off * vd
                };
            }

            // Probe rows.
            for (spec, rows) in self.probe_specs.iter().zip(probe_rows.iter_mut()) {
                match (spec, rows) {
                    (ProbeSpec::Single(s), ProbeRowSet::Single(row)) => {
                        row[col_idx] = self.eval_output(s, &sol, col, mask, &diode_i, col_idx);
                    }
                    (ProbeSpec::Power(vs, is), ProbeRowSet::Product(vrow, irow)) => {
                        vrow[col_idx] = self.eval_output(vs, &sol, col, mask, &diode_i, col_idx);
                        irow[col_idx] = self.eval_output(is, &sol, col, mask, &diode_i, col_idx);
                    }
                    _ => {
                        return Err(CircuitError::invalid(
                            "probe row shape does not match its probe spec",
                        ))
                    }
                }
            }
        }

        let (phi, gamma) = if ns == 0 {
            // A purely static circuit: no states to propagate.
            (Matrix::zeros(0, 0), Matrix::zeros(0, nu + 1))
        } else {
            stats.expm_evaluations += 1;
            discretize_zoh(&a_mat, &b_aug, h)?
        };
        Ok(Topology {
            a: a_mat,
            b_aug,
            phi,
            gamma,
            diode_v,
            diode_i,
            probe_rows,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_output(
        &self,
        spec: &OutputSpec,
        sol: &crate::mna::MnaSolution,
        col: Col,
        mask: u64,
        diode_i: &[Vec<f64>],
        col_idx: usize,
    ) -> f64 {
        match spec {
            OutputSpec::NodeV(n) => sol.voltage(*n),
            OutputSpec::ElemV(a, b) => sol.voltage_between(*a, *b),
            OutputSpec::ResistorI(k) => {
                let r = &self.resistors[*k];
                r.g * sol.voltage_between(r.a, r.b)
            }
            OutputSpec::BranchI(b) => sol.i_branch[*b],
            OutputSpec::StateI(s) => matches!(col, Col::State(cs) if cs == *s) as u8 as f64,
            OutputSpec::InputI(i) => matches!(col, Col::Input(ci) if ci == *i) as u8 as f64,
            OutputSpec::DiodeI(k) => {
                let _ = mask;
                diode_i[*k][col_idx]
            }
        }
    }

    fn inputs_at(&self, t: f64, out: &mut [f64]) {
        for v in &self.vsrcs {
            out[v.input] = v.wave.eval(t);
        }
        for s in &self.isrcs {
            out[s.input] = s.wave.eval(t);
        }
    }
}

fn dot(row: &[f64], z: &[f64]) -> f64 {
    row.iter().zip(z.iter()).map(|(a, b)| a * b).sum()
}

impl LinearizedStateSpaceEngine {
    /// Runs a transient analysis.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidNetlist`] for malformed netlists (or more
    ///   than 64 diodes).
    /// * [`CircuitError::UnknownProbe`] for unresolvable probes.
    /// * [`CircuitError::NoConvergence`] on diode chattering beyond the
    ///   configured event budget.
    pub fn simulate(
        &self,
        nl: &Netlist,
        cfg: &TransientConfig,
        probes: &[Probe],
    ) -> Result<TransientResult> {
        let start = Instant::now(); // lint:allow(D2): timing the solve for the reporting-only `wall` field
        let prep = LssPrep::build(nl, probes)?;
        let mut stats = SimStats::default();
        let mut cache: BTreeMap<u64, Topology> = BTreeMap::new();
        let ns = prep.n_states;
        let nu = prep.n_inputs;

        let mut x = prep.x0.clone();
        let mut mask: u64 = 0;
        let mut z = vec![0.0; ns + nu + 1];
        z[ns + nu] = 1.0;

        // Infer the initial diode conduction states from the initial
        // conditions (e.g. pre-charged storage capacitors).
        for _ in 0..(2 * prep.diodes.len() + 2) {
            let topo = Self::get_topology(&prep, &mut cache, mask, cfg.dt, &mut stats)?;
            z[..ns].copy_from_slice(&x);
            prep.inputs_at(0.0, &mut z[ns..ns + nu]);
            let mut changed = false;
            for (k, d) in prep.diodes.iter().enumerate() {
                let on = prep.diode_on(mask, k);
                if !on && dot(&topo.diode_v[k], &z) > d.model.v_fwd {
                    mask |= 1 << k;
                    changed = true;
                } else if on && dot(&topo.diode_i[k], &z) < 0.0 {
                    mask &= !(1 << k);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut result = TransientResult::new(probes.iter().map(|p| p.signal_name()).collect());
        {
            let topo = Self::get_topology(&prep, &mut cache, mask, cfg.dt, &mut stats)?;
            z[..ns].copy_from_slice(&x);
            prep.inputs_at(0.0, &mut z[ns..ns + nu]);
            let vals = Self::eval_probes(topo, &z);
            result.push(0.0, &vals)?;
        }

        let n_steps = cfg.steps();
        for k in 0..n_steps {
            let t0 = k as f64 * cfg.dt;
            let t1 = ((k + 1) as f64 * cfg.dt).min(cfg.t_end);
            let mut t_local = t0;
            let mut remaining = t1 - t0;
            if remaining <= 0.0 {
                break;
            }
            let mut events = 0;

            while remaining > 1e-12 * cfg.dt {
                let full_step = (remaining - cfg.dt).abs() < 1e-12 * cfg.dt;
                // Compute the candidate advance over `remaining`.
                let (x_new, f_start, f_end) = {
                    let topo = Self::get_topology(&prep, &mut cache, mask, cfg.dt, &mut stats)?;
                    let (phi, gamma);
                    let (phi_ref, gamma_ref) = if full_step || ns == 0 {
                        stats.topology_cache_hits += 1;
                        (&topo.phi, &topo.gamma)
                    } else {
                        stats.expm_evaluations += 1;
                        let pg = discretize_zoh(&topo.a, &topo.b_aug, remaining)?;
                        phi = pg.0;
                        gamma = pg.1;
                        (&phi, &gamma)
                    };
                    // Inputs held at the midpoint of the sub-step.
                    let mut u_mid = vec![0.0; nu + 1];
                    prep.inputs_at(t_local + remaining / 2.0, &mut u_mid[..nu]);
                    u_mid[nu] = 1.0;
                    let mut x_new = phi_ref.matvec(&x)?;
                    let gu = gamma_ref.matvec(&u_mid)?;
                    for (xi, gi) in x_new.iter_mut().zip(gu.iter()) {
                        *xi += gi;
                    }
                    // Switching functions at both ends of the sub-step.
                    let mut z0 = vec![0.0; ns + nu + 1];
                    z0[..ns].copy_from_slice(&x);
                    prep.inputs_at(t_local, &mut z0[ns..ns + nu]);
                    z0[ns + nu] = 1.0;
                    let mut z1 = vec![0.0; ns + nu + 1];
                    z1[..ns].copy_from_slice(&x_new);
                    prep.inputs_at(t_local + remaining, &mut z1[ns..ns + nu]);
                    z1[ns + nu] = 1.0;
                    let mut f0 = Vec::with_capacity(prep.diodes.len());
                    let mut f1 = Vec::with_capacity(prep.diodes.len());
                    for (kd, d) in prep.diodes.iter().enumerate() {
                        if prep.diode_on(mask, kd) {
                            f0.push(dot(&topo.diode_i[kd], &z0));
                            f1.push(dot(&topo.diode_i[kd], &z1));
                        } else {
                            f0.push(dot(&topo.diode_v[kd], &z0) - d.model.v_fwd);
                            f1.push(dot(&topo.diode_v[kd], &z1) - d.model.v_fwd);
                        }
                    }
                    (x_new, f0, f1)
                };

                // Find the earliest switching diode, if any.
                let mut alpha_min = f64::INFINITY;
                let mut flip_idx = None;
                for kd in 0..prep.diodes.len() {
                    let on = prep.diode_on(mask, kd);
                    let violated = if on { f_end[kd] < 0.0 } else { f_end[kd] > 0.0 };
                    if !violated {
                        continue;
                    }
                    let denom = f_start[kd] - f_end[kd];
                    let alpha = if denom.abs() < 1e-300 {
                        0.0
                    } else {
                        (f_start[kd] / denom).clamp(0.0, 1.0)
                    };
                    if alpha < alpha_min {
                        alpha_min = alpha;
                        flip_idx = Some(kd);
                    }
                }

                match flip_idx {
                    None => {
                        x = x_new;
                        t_local += remaining;
                        remaining = 0.0;
                    }
                    Some(kd) if alpha_min >= 0.999 => {
                        // Crossing essentially at the end: accept the step,
                        // then flip for the next one.
                        x = x_new;
                        t_local += remaining;
                        remaining = 0.0;
                        mask ^= 1 << kd;
                        stats.topology_changes += 1;
                    }
                    Some(kd) => {
                        events += 1;
                        if events > self.max_events_per_step {
                            return Err(CircuitError::NoConvergence {
                                time: t_local,
                                detail: format!(
                                    "diode chattering: more than {} events in one step",
                                    self.max_events_per_step
                                ),
                            });
                        }
                        let h1 = (alpha_min * remaining).max(remaining * 1e-9);
                        if alpha_min > 1e-9 && ns == 0 {
                            // Static circuit: only time advances.
                            t_local += h1;
                            remaining -= h1;
                        } else if alpha_min > 1e-9 {
                            // Advance exactly to the crossing.
                            let topo =
                                Self::get_topology(&prep, &mut cache, mask, cfg.dt, &mut stats)?;
                            stats.expm_evaluations += 1;
                            let (phi1, gamma1) = discretize_zoh(&topo.a, &topo.b_aug, h1)?;
                            let mut u_mid = vec![0.0; nu + 1];
                            prep.inputs_at(t_local + h1 / 2.0, &mut u_mid[..nu]);
                            u_mid[nu] = 1.0;
                            let mut x_cross = phi1.matvec(&x)?;
                            let gu = gamma1.matvec(&u_mid)?;
                            for (xi, gi) in x_cross.iter_mut().zip(gu.iter()) {
                                *xi += gi;
                            }
                            x = x_cross;
                            t_local += h1;
                            remaining -= h1;
                        }
                        mask ^= 1 << kd;
                        stats.topology_changes += 1;
                    }
                }
            }
            stats.steps += 1;

            if (k + 1) % cfg.record_stride == 0 || k + 1 == n_steps {
                let topo = Self::get_topology(&prep, &mut cache, mask, cfg.dt, &mut stats)?;
                z[..ns].copy_from_slice(&x);
                prep.inputs_at(t1, &mut z[ns..ns + nu]);
                let vals = Self::eval_probes(topo, &z);
                result.push(t1, &vals)?;
            }
        }

        stats.wall = start.elapsed();
        result.stats = stats;
        Ok(result)
    }

    fn get_topology<'c>(
        prep: &LssPrep,
        cache: &'c mut BTreeMap<u64, Topology>,
        mask: u64,
        h: f64,
        stats: &mut SimStats,
    ) -> Result<&'c Topology> {
        match cache.entry(mask) {
            Entry::Occupied(hit) => {
                stats.topology_cache_hits += 1;
                Ok(hit.into_mut())
            }
            Entry::Vacant(slot) => Ok(slot.insert(prep.build_topology(mask, h, stats)?)),
        }
    }

    fn eval_probes(topo: &Topology, z: &[f64]) -> Vec<f64> {
        topo.probe_rows
            .iter()
            .map(|rows| match rows {
                ProbeRowSet::Single(row) => dot(row, z),
                ProbeRowSet::Product(vrow, irow) => dot(vrow, z) * dot(irow, z),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newton::NewtonRaphsonEngine;

    fn rc_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let vout = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::Dc(1.0))
            .unwrap();
        nl.resistor("R1", vin, vout, 1e3).unwrap();
        nl.capacitor("C1", vout, Netlist::GROUND, 1e-6, 0.0)
            .unwrap();
        nl
    }

    #[test]
    fn rc_charging_matches_analytic_exactly() {
        // The LSS engine discretises the linear RC exactly: the error is
        // dominated by the ZOH input assumption, which for DC is zero.
        let nl = rc_netlist();
        let cfg = TransientConfig::new(3e-3, 1e-5).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("out")])
            .unwrap();
        for (&t, &v) in res.time().iter().zip(res.signal("v(out)").unwrap()) {
            let exact = 1.0 - (-t / 1e-3).exp();
            assert!((v - exact).abs() < 1e-9, "t={t}: {v} vs {exact}");
        }
    }

    #[test]
    fn rc_sine_matches_newton() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let vout = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::sine(1.0, 100.0))
            .unwrap();
        nl.resistor("R1", vin, vout, 1e3).unwrap();
        nl.capacitor("C1", vout, Netlist::GROUND, 1e-6, 0.0)
            .unwrap();
        let probes = [Probe::node_voltage("out")];
        let cfg_l = TransientConfig::new(0.02, 1e-5).unwrap();
        let cfg_n = TransientConfig::new(0.02, 1e-6).unwrap();
        let lss = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg_l, &probes)
            .unwrap();
        let nr = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg_n, &probes)
            .unwrap();
        // Compare at the common end point.
        let vl = *lss.signal("v(out)").unwrap().last().unwrap();
        let vn = *nr.signal("v(out)").unwrap().last().unwrap();
        assert!((vl - vn).abs() < 2e-3, "lss={vl} nr={vn}");
    }

    #[test]
    fn half_wave_rectifier_matches_newton() {
        let build = || {
            let mut nl = Netlist::new();
            let src = nl.node("src");
            let out = nl.node("out");
            nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(2.0, 50.0))
                .unwrap();
            nl.diode("D1", src, out).unwrap();
            nl.resistor("RL", out, Netlist::GROUND, 1e3).unwrap();
            nl.capacitor("CL", out, Netlist::GROUND, 1e-5, 0.0).unwrap();
            nl
        };
        let probes = [Probe::node_voltage("out")];
        let lss = LinearizedStateSpaceEngine::default()
            .simulate(&build(), &TransientConfig::new(0.1, 2e-5).unwrap(), &probes)
            .unwrap();
        let nr = NewtonRaphsonEngine::default()
            .simulate(&build(), &TransientConfig::new(0.1, 5e-6).unwrap(), &probes)
            .unwrap();
        let vl = *lss.signal("v(out)").unwrap().last().unwrap();
        let vn = *nr.signal("v(out)").unwrap().last().unwrap();
        // PWL vs Shockley models differ by a fraction of the forward drop.
        assert!((vl - vn).abs() < 0.15, "lss={vl} nr={vn}");
        assert!(lss.stats.topology_changes > 5, "{:?}", lss.stats);
    }

    #[test]
    fn voltage_doubler_reaches_twice_peak() {
        // Classic Villard doubler: should approach 2*(Vpk - 2*Vf).
        let mut nl = Netlist::new();
        let src = nl.node("src");
        let mid = nl.node("mid");
        let out = nl.node("out");
        nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(2.0, 50.0))
            .unwrap();
        nl.capacitor("C1", src, mid, 1e-5, 0.0).unwrap();
        nl.diode("D1", Netlist::GROUND, mid).unwrap();
        nl.diode("D2", mid, out).unwrap();
        nl.capacitor("C2", out, Netlist::GROUND, 1e-5, 0.0).unwrap();
        nl.resistor("RL", out, Netlist::GROUND, 1e6).unwrap();
        let cfg = TransientConfig::new(0.5, 2e-5).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("out")])
            .unwrap();
        let v_end = *res.signal("v(out)").unwrap().last().unwrap();
        assert!(v_end > 3.0 && v_end < 4.0, "v_end = {v_end}");
    }

    #[test]
    fn topology_cache_is_reused() {
        let mut nl = Netlist::new();
        let src = nl.node("src");
        let out = nl.node("out");
        nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(2.0, 50.0))
            .unwrap();
        nl.diode("D1", src, out).unwrap();
        nl.resistor("RL", out, Netlist::GROUND, 1e3).unwrap();
        let cfg = TransientConfig::new(0.1, 1e-5).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[])
            .unwrap();
        // Only two topologies (diode on / off) should ever be built: two
        // LU factorizations, thousands of cache hits.
        assert_eq!(res.stats.lu_factorizations, 2, "{:?}", res.stats);
        assert!(res.stats.topology_cache_hits > 1000);
    }

    #[test]
    fn ccvs_couples_loops_like_newton() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let o = nl.node("o");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(1.0))
            .unwrap();
        nl.resistor("R1", a, b, 100.0).unwrap();
        let l1 = nl.inductor("L1", b, Netlist::GROUND, 1e-3, 0.0).unwrap();
        nl.ccvs("H1", o, Netlist::GROUND, l1, 50.0).unwrap();
        nl.resistor("R2", o, Netlist::GROUND, 1e3).unwrap();
        let cfg = TransientConfig::new(1e-3, 1e-6).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("o")])
            .unwrap();
        let v_end = *res.signal("v(o)").unwrap().last().unwrap();
        assert!((v_end - 0.5).abs() < 1e-3, "v_end = {v_end}");
    }

    #[test]
    fn initial_conditions_respected() {
        // Pre-charged capacitor discharging through a resistor.
        let mut nl = Netlist::new();
        let top = nl.node("top");
        nl.capacitor("C1", top, Netlist::GROUND, 1e-6, 2.0).unwrap();
        nl.resistor("R1", top, Netlist::GROUND, 1e3).unwrap();
        let cfg = TransientConfig::new(2e-3, 1e-5).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("top")])
            .unwrap();
        let v = res.signal("v(top)").unwrap();
        assert!((v[0] - 2.0).abs() < 1e-9);
        let v_end = *v.last().unwrap();
        let exact = 2.0 * (-2.0f64).exp();
        assert!((v_end - exact).abs() < 1e-9, "{v_end} vs {exact}");
    }

    #[test]
    fn lss_is_much_cheaper_than_newton_in_lu_work() {
        let build = || {
            let mut nl = Netlist::new();
            let src = nl.node("src");
            let out = nl.node("out");
            nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(2.0, 50.0))
                .unwrap();
            nl.diode("D1", src, out).unwrap();
            nl.resistor("RL", out, Netlist::GROUND, 1e3).unwrap();
            nl.capacitor("CL", out, Netlist::GROUND, 1e-5, 0.0).unwrap();
            nl
        };
        let cfg = TransientConfig::new(0.1, 1e-5).unwrap();
        let lss = LinearizedStateSpaceEngine::default()
            .simulate(&build(), &cfg, &[])
            .unwrap();
        let nr = NewtonRaphsonEngine::default()
            .simulate(&build(), &cfg, &[])
            .unwrap();
        // The NR engine refactors every iteration of every step; the LSS
        // engine factors once per topology.
        assert!(
            nr.stats.lu_factorizations > 100 * lss.stats.lu_factorizations,
            "nr={} lss={}",
            nr.stats.lu_factorizations,
            lss.stats.lu_factorizations
        );
    }

    #[test]
    fn power_probe_in_lss() {
        // Note: the capacitor sits behind a small resistor — a capacitor
        // directly across an ideal voltage source is degenerate for the
        // state-space formulation (its voltage would not be a state).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(2.0))
            .unwrap();
        nl.resistor("Rs", a, b, 1.0).unwrap();
        nl.resistor("R1", b, Netlist::GROUND, 1e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1e-9, 0.0).unwrap();
        let cfg = TransientConfig::new(1e-4, 1e-6).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[Probe::element_power("R1")])
            .unwrap();
        let p = *res.signal("p(R1)").unwrap().last().unwrap();
        // Steady state: v(b) = 2 * 1000/1001, p = v^2/1000.
        let v = 2.0 * 1000.0 / 1001.0;
        assert!((p - v * v / 1e3).abs() < 1e-8, "p = {p}");
    }
}
