//! The traditional analogue transient engine: implicit trapezoidal
//! integration with a full Newton–Raphson solve at every time step.
//!
//! This is deliberately structured like a classic SPICE inner loop — the
//! Jacobian is re-stamped and re-factorised on *every* NR iteration —
//! because this cost profile is exactly what the DATE'13 paper identifies
//! as the reason simulation-driven optimisation of a whole sensor node is
//! impractical. The [`crate::lss::LinearizedStateSpaceEngine`] removes
//! that cost; benchmarks compare the two.
//!
//! That one factorisation per iteration is kept on purpose, and each is
//! counted in [`SimStats::lu_factorizations`]. What the loop does not
//! pay is allocation: one run owns one workspace (the MNA builder,
//! the LU factors, the solution, the previous iterate, the companion
//! parameters and the step-halving snapshot), zeroed and refilled in
//! place, so every step and iteration after the first reuses the same
//! buffers. The arithmetic, and so every output bit, is what a fresh
//! builder and factorisation per iteration would give.

use crate::mna::{MnaBuilder, MnaSolution};
use crate::netlist::{DiodeModel, ElementKind, Netlist, NodeId};
use crate::probe::{Probe, SimStats, TransientResult};
use crate::waveform::SourceWaveform;
use crate::{CircuitError, Result, TransientConfig};
use ehsim_numeric::Lu;
// lint:allow(D2): wall-clock feeds the reporting-only `wall` duration, never result bytes
use std::time::Instant;

/// Newton–Raphson transient engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct NewtonRaphsonEngine {
    /// Maximum NR iterations per time step before the step is halved.
    pub max_iterations: usize,
    /// Absolute node-voltage convergence tolerance (V).
    pub v_abstol: f64,
    /// Relative node-voltage convergence tolerance.
    pub v_reltol: f64,
    /// Maximum times a failing step is halved before giving up.
    pub max_step_halvings: usize,
}

impl Default for NewtonRaphsonEngine {
    fn default() -> Self {
        NewtonRaphsonEngine {
            max_iterations: 60,
            v_abstol: 1e-9,
            v_reltol: 1e-6,
            max_step_halvings: 10,
        }
    }
}

struct CapState {
    a: NodeId,
    b: NodeId,
    c: f64,
    v: f64,
    i: f64,
}

struct IndState {
    a: NodeId,
    b: NodeId,
    l: f64,
    i: f64,
    v: f64,
}

struct DiodeState {
    a: NodeId,
    c: NodeId,
    model: DiodeModel,
    /// The model's critical voltage for junction limiting.
    vcrit: f64,
    v: f64,
}

struct VsrcDef {
    branch: usize,
    plus: NodeId,
    minus: NodeId,
    wave: SourceWaveform,
}

struct CcvsDef {
    branch: usize,
    plus: NodeId,
    minus: NodeId,
    ctrl_ind: usize,
    r: f64,
}

struct IsrcDef {
    from: NodeId,
    to: NodeId,
    wave: SourceWaveform,
}

struct ResDef {
    a: NodeId,
    b: NodeId,
    g: f64,
}

/// Pre-processed netlist for the NR engine.
struct Prep {
    n_nodes: usize,
    n_branches: usize,
    resistors: Vec<ResDef>,
    caps: Vec<CapState>,
    inds: Vec<IndState>,
    diodes: Vec<DiodeState>,
    vsrcs: Vec<VsrcDef>,
    ccvs: Vec<CcvsDef>,
    isrcs: Vec<IsrcDef>,
}

/// Resolved probe ready for cheap per-step evaluation.
enum ResolvedProbe {
    Node(NodeId),
    ResistorI(usize),
    CapI(usize),
    IndI(usize),
    DiodeI(usize),
    VsrcI(usize),
    CcvsI(usize),
    IsrcI(usize),
    Voltage(NodeId, NodeId),
    Power(Box<ResolvedProbe>, NodeId, NodeId),
}

impl Prep {
    fn build(nl: &Netlist) -> Result<Self> {
        nl.validate()?;
        let mut prep = Prep {
            n_nodes: nl.node_count(),
            n_branches: 0,
            resistors: Vec::new(),
            caps: Vec::new(),
            inds: Vec::new(),
            diodes: Vec::new(),
            vsrcs: Vec::new(),
            ccvs: Vec::new(),
            isrcs: Vec::new(),
        };
        // Map from element index to inductor slot, for CCVS controls.
        let mut ind_slot = std::collections::BTreeMap::new();
        for (id, e) in nl.iter() {
            match &e.kind {
                ElementKind::Inductor { a, b, henries, ic } => {
                    ind_slot.insert(id, prep.inds.len());
                    prep.inds.push(IndState {
                        a: *a,
                        b: *b,
                        l: *henries,
                        i: *ic,
                        v: 0.0,
                    });
                }
                _ => {}
            }
        }
        let mut branch = 0;
        for (_, e) in nl.iter() {
            match &e.kind {
                ElementKind::Resistor { a, b, ohms } => prep.resistors.push(ResDef {
                    a: *a,
                    b: *b,
                    g: 1.0 / ohms,
                }),
                ElementKind::Capacitor { a, b, farads, ic } => prep.caps.push(CapState {
                    a: *a,
                    b: *b,
                    c: *farads,
                    v: *ic,
                    i: 0.0,
                }),
                ElementKind::Inductor { .. } => {}
                ElementKind::Diode {
                    anode,
                    cathode,
                    model,
                } => prep.diodes.push(DiodeState {
                    a: *anode,
                    c: *cathode,
                    model: *model,
                    vcrit: model.n_vt
                        * (model.n_vt / (std::f64::consts::SQRT_2 * model.i_sat)).ln(),
                    v: 0.0,
                }),
                ElementKind::VoltageSource { plus, minus, wave } => {
                    prep.vsrcs.push(VsrcDef {
                        branch,
                        plus: *plus,
                        minus: *minus,
                        wave: wave.clone(),
                    });
                    branch += 1;
                }
                ElementKind::Ccvs {
                    plus,
                    minus,
                    ctrl,
                    trans_ohms,
                } => {
                    let ctrl_ind = *ind_slot.get(ctrl).ok_or_else(|| {
                        CircuitError::invalid("CCVS is not controlled by an inductor")
                    })?;
                    prep.ccvs.push(CcvsDef {
                        branch,
                        plus: *plus,
                        minus: *minus,
                        ctrl_ind,
                        r: *trans_ohms,
                    });
                    branch += 1;
                }
                ElementKind::CurrentSource { from, to, wave } => prep.isrcs.push(IsrcDef {
                    from: *from,
                    to: *to,
                    wave: wave.clone(),
                }),
            }
        }
        prep.n_branches = branch;
        Ok(prep)
    }

    fn resolve_probes(&self, nl: &Netlist, probes: &[Probe]) -> Result<Vec<ResolvedProbe>> {
        probes.iter().map(|p| self.resolve_probe(nl, p)).collect()
    }

    fn resolve_probe(&self, nl: &Netlist, probe: &Probe) -> Result<ResolvedProbe> {
        let unknown = |name: &str| CircuitError::UnknownProbe {
            name: name.to_string(),
        };
        match probe {
            Probe::NodeVoltage(name) => nl
                .find_node(name)
                .map(ResolvedProbe::Node)
                .ok_or_else(|| unknown(name)),
            Probe::ElementCurrent(name)
            | Probe::ElementVoltage(name)
            | Probe::ElementPower(name) => {
                let id = nl.find_element(name).ok_or_else(|| unknown(name))?;
                // Position of the element among its kind, plus terminals.
                let mut res_i = 0;
                let mut cap_i = 0;
                let mut ind_i = 0;
                let mut d_i = 0;
                let mut v_i = 0;
                let mut ccvs_i = 0;
                let mut isrc_i = 0;
                for (eid, e) in nl.iter() {
                    let here = eid == id;
                    let (current, terms): (Option<ResolvedProbe>, (NodeId, NodeId)) = match &e.kind
                    {
                        ElementKind::Resistor { a, b, .. } => {
                            let r = (here).then(|| ResolvedProbe::ResistorI(res_i));
                            res_i += 1;
                            (r, (*a, *b))
                        }
                        ElementKind::Capacitor { a, b, .. } => {
                            let r = (here).then(|| ResolvedProbe::CapI(cap_i));
                            cap_i += 1;
                            (r, (*a, *b))
                        }
                        ElementKind::Inductor { a, b, .. } => {
                            let r = (here).then(|| ResolvedProbe::IndI(ind_i));
                            ind_i += 1;
                            (r, (*a, *b))
                        }
                        ElementKind::Diode { anode, cathode, .. } => {
                            let r = (here).then(|| ResolvedProbe::DiodeI(d_i));
                            d_i += 1;
                            (r, (*anode, *cathode))
                        }
                        ElementKind::VoltageSource { plus, minus, .. } => {
                            let r = (here).then(|| ResolvedProbe::VsrcI(v_i));
                            v_i += 1;
                            (r, (*plus, *minus))
                        }
                        ElementKind::Ccvs { plus, minus, .. } => {
                            let r = (here).then(|| ResolvedProbe::CcvsI(ccvs_i));
                            ccvs_i += 1;
                            (r, (*plus, *minus))
                        }
                        ElementKind::CurrentSource { from, to, .. } => {
                            let r = (here).then(|| ResolvedProbe::IsrcI(isrc_i));
                            isrc_i += 1;
                            (r, (*from, *to))
                        }
                    };
                    if let Some(cur) = current {
                        return Ok(match probe {
                            Probe::ElementVoltage(_) => ResolvedProbe::Voltage(terms.0, terms.1),
                            Probe::ElementPower(_) => {
                                ResolvedProbe::Power(Box::new(cur), terms.0, terms.1)
                            }
                            // Node voltages were resolved by the outer match.
                            Probe::ElementCurrent(_) | Probe::NodeVoltage(_) => cur,
                        });
                    }
                }
                Err(unknown(name))
            }
        }
    }

    fn eval_probe(&self, rp: &ResolvedProbe, sol: &MnaSolution, t: f64) -> f64 {
        match rp {
            ResolvedProbe::Node(n) => sol.voltage(*n),
            ResolvedProbe::ResistorI(k) => {
                let r = &self.resistors[*k];
                r.g * sol.voltage_between(r.a, r.b)
            }
            ResolvedProbe::CapI(k) => self.caps[*k].i,
            ResolvedProbe::IndI(k) => self.inds[*k].i,
            ResolvedProbe::DiodeI(k) => {
                let d = &self.diodes[*k];
                d.model.current(sol.voltage_between(d.a, d.c))
            }
            ResolvedProbe::VsrcI(k) => sol.i_branch[self.vsrcs[*k].branch],
            ResolvedProbe::CcvsI(k) => sol.i_branch[self.ccvs[*k].branch],
            ResolvedProbe::IsrcI(k) => self.isrcs[*k].wave.eval(t),
            ResolvedProbe::Voltage(a, b) => sol.voltage_between(*a, *b),
            ResolvedProbe::Power(inner, a, b) => {
                self.eval_probe(inner, sol, t) * sol.voltage_between(*a, *b)
            }
        }
    }
}

/// SPICE-style junction voltage limiting to keep the exponential diode
/// model inside NR's basin of convergence.
fn pnjlim(vnew: f64, vold: f64, vt: f64, vcrit: f64) -> f64 {
    if vnew > vcrit && (vnew - vold).abs() > 2.0 * vt {
        if vold > 0.0 {
            let arg = 1.0 + (vnew - vold) / vt;
            if arg > 0.0 {
                vold + vt * arg.ln()
            } else {
                vcrit
            }
        } else {
            vt * (vnew / vt).max(2.0).ln()
        }
    } else {
        vnew
    }
}

/// The buffers one NR run reuses for every step and iteration.
struct Workspace {
    /// The MNA system, zeroed and re-stamped on every iteration.
    mna: MnaBuilder,
    /// The factors of the last stamped system.
    lu: Lu,
    /// Raw unknowns of the last solve.
    x: Vec<f64>,
    /// The last solve, unpacked.
    sol: MnaSolution,
    /// Node voltages of the previous iteration.
    v_prev: Vec<f64>,
    /// Companion conductances and history currents of the step.
    cap_g: Vec<f64>,
    cap_hist: Vec<f64>,
    ind_g: Vec<f64>,
    ind_hist: Vec<f64>,
    /// Limited diode voltages of the current iteration.
    diode_v: Vec<f64>,
    /// States at the start of the step being attempted, for rolling a
    /// failed attempt back before it is halved.
    snap_caps: Vec<(f64, f64)>,
    snap_inds: Vec<(f64, f64)>,
    snap_diodes: Vec<f64>,
}

impl Workspace {
    fn new(prep: &Prep) -> Self {
        let mna = MnaBuilder::new(prep.n_nodes, prep.n_branches);
        let x = vec![0.0; mna.dim()];
        Workspace {
            mna,
            lu: Lu::default(),
            x,
            sol: MnaSolution::default(),
            v_prev: Vec::new(),
            cap_g: Vec::new(),
            cap_hist: Vec::new(),
            ind_g: Vec::new(),
            ind_hist: Vec::new(),
            diode_v: Vec::new(),
            snap_caps: Vec::new(),
            snap_inds: Vec::new(),
            snap_diodes: Vec::new(),
        }
    }
}

impl NewtonRaphsonEngine {
    /// Runs a transient analysis.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidNetlist`] for malformed netlists.
    /// * [`CircuitError::UnknownProbe`] for unresolvable probes.
    /// * [`CircuitError::InvalidConfig`] if `max_iterations` is 0.
    /// * [`CircuitError::NoConvergence`] if NR fails even after the
    ///   configured number of step halvings.
    pub fn simulate(
        &self,
        nl: &Netlist,
        cfg: &TransientConfig,
        probes: &[Probe],
    ) -> Result<TransientResult> {
        let start = Instant::now(); // lint:allow(D2): timing the solve for the reporting-only `wall` field
        let mut prep = Prep::build(nl)?;
        let resolved = prep.resolve_probes(nl, probes)?;
        let mut result = TransientResult::new(probes.iter().map(|p| p.signal_name()).collect());
        let mut stats = SimStats::default();
        let mut work = Workspace::new(&prep);
        let mut vals = Vec::with_capacity(resolved.len());

        // Initial solution (t = 0): solve the resistive snapshot with the
        // initial states frozen, mainly so probes at t = 0 are sensible.
        self.solve_step(
            &mut prep,
            &mut work,
            0.0,
            f64::MIN_POSITIVE,
            &mut stats,
            true,
        )?;
        vals.extend(
            resolved
                .iter()
                .map(|rp| prep.eval_probe(rp, &work.sol, 0.0)),
        );
        result.push(0.0, &vals)?;

        let n_steps = cfg.steps();
        for k in 0..n_steps {
            let t0 = k as f64 * cfg.dt;
            let t1 = ((k + 1) as f64 * cfg.dt).min(cfg.t_end);
            let h = t1 - t0;
            if h <= 0.0 {
                break;
            }
            self.advance(&mut prep, &mut work, t0, h, 0, &mut stats)?;
            stats.steps += 1;
            if (k + 1) % cfg.record_stride == 0 || k + 1 == n_steps {
                vals.clear();
                vals.extend(resolved.iter().map(|rp| prep.eval_probe(rp, &work.sol, t1)));
                result.push(t1, &vals)?;
            }
        }
        stats.wall = start.elapsed();
        result.stats = stats;
        Ok(result)
    }

    /// Advances the states from `t0` by `h`, recursively halving the
    /// step on convergence failure. The solution lands in `work.sol`.
    fn advance(
        &self,
        prep: &mut Prep,
        work: &mut Workspace,
        t0: f64,
        h: f64,
        depth: usize,
        stats: &mut SimStats,
    ) -> Result<()> {
        // Snapshot states so a failed attempt can be rolled back. The
        // snapshot is read only before the halves run, so one buffer
        // serves every depth.
        work.snap_caps.clear();
        work.snap_caps.extend(prep.caps.iter().map(|c| (c.v, c.i)));
        work.snap_inds.clear();
        work.snap_inds.extend(prep.inds.iter().map(|l| (l.i, l.v)));
        work.snap_diodes.clear();
        work.snap_diodes.extend(prep.diodes.iter().map(|d| d.v));
        match self.solve_step(prep, work, t0 + h, h, stats, false) {
            Ok(()) => Ok(()),
            Err(CircuitError::NoConvergence { .. }) if depth < self.max_step_halvings => {
                // Roll back and take two half steps.
                for (c, (v, i)) in prep.caps.iter_mut().zip(&work.snap_caps) {
                    c.v = *v;
                    c.i = *i;
                }
                for (l, (i, v)) in prep.inds.iter_mut().zip(&work.snap_inds) {
                    l.i = *i;
                    l.v = *v;
                }
                for (d, v) in prep.diodes.iter_mut().zip(&work.snap_diodes) {
                    d.v = *v;
                }
                self.advance(prep, work, t0, h / 2.0, depth + 1, stats)?;
                self.advance(prep, work, t0 + h / 2.0, h / 2.0, depth + 1, stats)
            }
            Err(e) => Err(e),
        }
    }

    /// One implicit trapezoidal step ending at `t_new`, solved into
    /// `work.sol`. When `freeze` is true the states are not advanced
    /// (used for the `t = 0` snapshot: companion history terms hold the
    /// states in place).
    fn solve_step(
        &self,
        prep: &mut Prep,
        work: &mut Workspace,
        t_new: f64,
        h: f64,
        stats: &mut SimStats,
        freeze: bool,
    ) -> Result<()> {
        if self.max_iterations == 0 {
            return Err(CircuitError::InvalidConfig {
                message: "newton-raphson needs max_iterations >= 1".into(),
            });
        }
        let Workspace {
            mna: b,
            lu,
            x,
            sol,
            v_prev,
            cap_g,
            cap_hist,
            ind_g,
            ind_hist,
            diode_v,
            ..
        } = work;

        // Companion parameters (constant within the step). For the
        // frozen snapshot use huge impedances on the state elements so
        // they behave as sources of their initial condition.
        cap_g.clear();
        cap_hist.clear();
        ind_g.clear();
        ind_hist.clear();
        if freeze {
            cap_g.extend(prep.caps.iter().map(|c| 1e12 * c.c.max(1e-12)));
            cap_hist.extend(prep.caps.iter().zip(cap_g.iter()).map(|(c, g)| -g * c.v));
            ind_g.extend(prep.inds.iter().map(|_| 1e-12));
            ind_hist.extend(prep.inds.iter().map(|l| l.i));
        } else {
            cap_g.extend(prep.caps.iter().map(|c| 2.0 * c.c / h));
            cap_hist.extend(
                prep.caps
                    .iter()
                    .zip(cap_g.iter())
                    .map(|(c, g)| -g * c.v - c.i),
            );
            ind_g.extend(prep.inds.iter().map(|l| h / (2.0 * l.l)));
            ind_hist.extend(
                prep.inds
                    .iter()
                    .zip(ind_g.iter())
                    .map(|(l, g)| l.i + g * l.v),
            );
        }

        diode_v.clear();
        diode_v.extend(prep.diodes.iter().map(|d| d.v));
        let mut have_prev = false;

        for _iter in 0..self.max_iterations {
            stats.nr_iterations += 1;
            b.clear();
            for r in &prep.resistors {
                b.stamp_conductance(r.a, r.b, r.g);
            }
            for (c, (g, hist)) in prep.caps.iter().zip(cap_g.iter().zip(cap_hist.iter())) {
                b.stamp_conductance(c.a, c.b, *g);
                b.stamp_current_source(c.a, c.b, *hist);
            }
            for (l, (g, hist)) in prep.inds.iter().zip(ind_g.iter().zip(ind_hist.iter())) {
                b.stamp_conductance(l.a, l.b, *g);
                b.stamp_current_source(l.a, l.b, *hist);
            }
            for (d, vd) in prep.diodes.iter().zip(diode_v.iter()) {
                let g = d.model.conductance(*vd);
                let i_eq = d.model.current(*vd) - g * vd;
                b.stamp_conductance(d.a, d.c, g);
                b.stamp_current_source(d.a, d.c, i_eq);
            }
            for v in &prep.vsrcs {
                b.stamp_branch_incidence(v.branch, v.plus, v.minus);
                b.set_branch_rhs(v.branch, v.wave.eval(t_new));
            }
            for cc in &prep.ccvs {
                // v_p - v_m = r * i_L with i_L = g_L (v_a - v_b) + hist.
                b.stamp_branch_incidence(cc.branch, cc.plus, cc.minus);
                let l = &prep.inds[cc.ctrl_ind];
                let g_l = ind_g[cc.ctrl_ind];
                b.add_branch_node_coeff(cc.branch, l.a, -cc.r * g_l);
                b.add_branch_node_coeff(cc.branch, l.b, cc.r * g_l);
                b.set_branch_rhs(cc.branch, cc.r * ind_hist[cc.ctrl_ind]);
            }
            for s in &prep.isrcs {
                b.stamp_current_source(s.from, s.to, s.wave.eval(t_new));
            }

            stats.lu_factorizations += 1;
            lu.refactor(b.matrix())?;
            stats.lu_solves += 1;
            b.solve_into(lu, x, sol)?;

            // Limit diode voltage updates.
            let mut d_delta: f64 = 0.0;
            for (d, vd) in prep.diodes.iter().zip(diode_v.iter_mut()) {
                let raw = sol.voltage_between(d.a, d.c);
                let limited = pnjlim(raw, *vd, d.model.n_vt, d.vcrit);
                d_delta = d_delta.max((limited - *vd).abs());
                *vd = limited;
            }

            // Node voltage convergence.
            let converged_nodes = have_prev && {
                let mut ok = true;
                for (new, old) in sol.v.iter().zip(v_prev.iter()) {
                    let tol = self.v_abstol + self.v_reltol * new.abs().max(old.abs());
                    if (new - old).abs() > tol {
                        ok = false;
                        break;
                    }
                }
                ok
            };
            let converged_diodes = d_delta < 1e-6 + 1e-4 * 0.3;
            v_prev.clear();
            v_prev.extend_from_slice(&sol.v);
            have_prev = true;
            if converged_nodes && converged_diodes {
                break;
            }
        }

        let converged = {
            // Re-check: if the loop exhausted iterations without meeting
            // tolerance, v_prev equals the last solution so compare the
            // final diode deltas instead.
            let mut ok = true;
            for (d, vd) in prep.diodes.iter().zip(diode_v.iter()) {
                let raw = sol.voltage_between(d.a, d.c);
                if (raw - vd).abs() > 1e-3 {
                    ok = false;
                }
            }
            ok
        };
        if !converged {
            return Err(CircuitError::NoConvergence {
                time: t_new,
                detail: "newton-raphson iteration limit reached".into(),
            });
        }

        if !freeze {
            // Advance companion states.
            for (k, c) in prep.caps.iter_mut().enumerate() {
                let v_new = sol.voltage_between(c.a, c.b);
                c.i = cap_g[k] * v_new + cap_hist[k];
                c.v = v_new;
            }
            for (k, l) in prep.inds.iter_mut().enumerate() {
                let v_new = sol.voltage_between(l.a, l.b);
                l.i = ind_g[k] * v_new + ind_hist[k];
                l.v = v_new;
            }
            for (d, vd) in prep.diodes.iter_mut().zip(diode_v.iter()) {
                d.v = *vd;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn rc_netlist(v: f64, r: f64, c: f64) -> Netlist {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let vout = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::Dc(v))
            .unwrap();
        nl.resistor("R1", vin, vout, r).unwrap();
        nl.capacitor("C1", vout, Netlist::GROUND, c, 0.0).unwrap();
        nl
    }

    #[test]
    fn rc_charging_matches_analytic() {
        let nl = rc_netlist(1.0, 1e3, 1e-6); // tau = 1 ms
        let cfg = TransientConfig::new(3e-3, 5e-6).unwrap();
        let res = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("out")])
            .unwrap();
        let v = res.signal("v(out)").unwrap();
        let t = res.time();
        for (k, (&tk, &vk)) in t.iter().zip(v.iter()).enumerate().step_by(50) {
            let exact = 1.0 - (-tk / 1e-3).exp();
            assert!(
                (vk - exact).abs() < 2e-3,
                "sample {k}: v={vk} vs exact={exact}"
            );
        }
    }

    #[test]
    fn rl_current_rise() {
        // V -> R -> L to ground: i(t) = V/R (1 - e^{-tR/L})
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let mid = nl.node("mid");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::Dc(1.0))
            .unwrap();
        nl.resistor("R1", vin, mid, 10.0).unwrap();
        nl.inductor("L1", mid, Netlist::GROUND, 1e-3, 0.0).unwrap();
        let cfg = TransientConfig::new(5e-4, 1e-6).unwrap();
        let res = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[Probe::element_current("L1")])
            .unwrap();
        let i = res.signal("i(L1)").unwrap();
        let i_end = *i.last().unwrap();
        let exact = 0.1 * (1.0 - (-5e-4 * 10.0 / 1e-3_f64).exp());
        assert!((i_end - exact).abs() < 1e-4, "i_end={i_end}, exact={exact}");
    }

    #[test]
    fn lc_oscillation_frequency() {
        // Charged cap across an inductor: resonance at 1/(2π√(LC)).
        let mut nl = Netlist::new();
        let top = nl.node("top");
        nl.capacitor("C1", top, Netlist::GROUND, 1e-6, 1.0).unwrap();
        nl.inductor("L1", top, Netlist::GROUND, 1e-3, 0.0).unwrap();
        // Tiny damping resistor to keep the matrix friendly.
        nl.resistor("Rp", top, Netlist::GROUND, 1e6).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-6).sqrt());
        let period = 1.0 / f0;
        let cfg = TransientConfig::new(period, period / 400.0).unwrap();
        let res = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("top")])
            .unwrap();
        let v = res.signal("v(top)").unwrap();
        // After one full period the voltage should return near +1.
        let v_end = *v.last().unwrap();
        assert!(v_end > 0.95, "v_end = {v_end}");
        // And it must dip negative mid-period.
        let v_min = v.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(v_min < -0.95, "v_min = {v_min}");
    }

    #[test]
    fn half_wave_rectifier_clamps_negative() {
        let mut nl = Netlist::new();
        let src = nl.node("src");
        let out = nl.node("out");
        nl.vsource("V1", src, Netlist::GROUND, SourceWaveform::sine(2.0, 50.0))
            .unwrap();
        nl.diode("D1", src, out).unwrap();
        nl.resistor("RL", out, Netlist::GROUND, 1e3).unwrap();
        let cfg = TransientConfig::new(0.04, 2e-6).unwrap();
        let res = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("out")])
            .unwrap();
        let v = res.signal("v(out)").unwrap();
        let v_max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let v_min = v.iter().copied().fold(f64::INFINITY, f64::min);
        // Peak is the source peak minus about a diode drop.
        assert!(v_max > 1.4 && v_max < 2.0, "v_max = {v_max}");
        // Reverse leakage only: output never goes significantly negative.
        assert!(v_min > -0.05, "v_min = {v_min}");
    }

    #[test]
    fn ccvs_couples_loops() {
        // Loop 1: V1 -> L1 (DC: i settles to V/R1). Loop 2: CCVS driven by
        // i(L1) across R2: v2 = r * i_L1.
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
        let res = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("o")])
            .unwrap();
        // Steady state: i_L1 = 10 mA, so v(o) = 0.5 V.
        let v_end = *res.signal("v(o)").unwrap().last().unwrap();
        assert!((v_end - 0.5).abs() < 5e-3, "v_end = {v_end}");
    }

    #[test]
    fn stats_are_populated() {
        let nl = rc_netlist(1.0, 1e3, 1e-6);
        let cfg = TransientConfig::new(1e-4, 1e-6).unwrap();
        let res = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[])
            .unwrap();
        assert_eq!(res.stats.steps, 100);
        assert!(res.stats.lu_factorizations >= 100);
        assert!(res.stats.nr_iterations >= res.stats.lu_factorizations);
    }

    #[test]
    fn zero_iteration_budget_is_a_config_error() {
        let nl = rc_netlist(1.0, 1e3, 1e-6);
        let cfg = TransientConfig::new(1e-4, 1e-6).unwrap();
        let err = NewtonRaphsonEngine {
            max_iterations: 0,
            ..NewtonRaphsonEngine::default()
        }
        .simulate(&nl, &cfg, &[Probe::node_voltage("out")])
        .unwrap_err();
        assert!(matches!(err, CircuitError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn unknown_probe_is_reported() {
        let nl = rc_netlist(1.0, 1e3, 1e-6);
        let cfg = TransientConfig::new(1e-4, 1e-6).unwrap();
        let err = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("missing")])
            .unwrap_err();
        assert!(matches!(err, CircuitError::UnknownProbe { .. }));
    }

    #[test]
    fn record_stride_thins_output() {
        let nl = rc_netlist(1.0, 1e3, 1e-6);
        let cfg = TransientConfig::new(1e-4, 1e-6)
            .unwrap()
            .with_record_stride(10)
            .unwrap();
        let res = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[Probe::node_voltage("out")])
            .unwrap();
        // t=0 plus every 10th of 100 steps.
        assert_eq!(res.len(), 11);
    }

    #[test]
    fn power_probe_dissipation() {
        // 1 V across 1 kΩ dissipates 1 mW.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(1.0))
            .unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        let cfg = TransientConfig::new(1e-5, 1e-6).unwrap();
        let res = NewtonRaphsonEngine::default()
            .simulate(&nl, &cfg, &[Probe::element_power("R1")])
            .unwrap();
        let p = *res.signal("p(R1)").unwrap().last().unwrap();
        assert!((p - 1e-3).abs() < 1e-9, "p = {p}");
    }
}
