//! `circuit`: the circuit-level front-end transient (harvester +
//! Cockcroft–Walton multiplier + storage) under the Newton–Raphson and
//! the linearized state-space engines — the paper's Table E2 engine
//! comparison, as in `ehsim_bench::frontend_netlist` but with a seeded
//! excitation phase.

use crate::harness::{peak_rss_mb, same_bits, timed, Ctx, Outcome};
use ehsim_circuit::mna::MnaBuilder;
use ehsim_circuit::{
    ElementKind, LinearizedStateSpaceEngine, Netlist, NewtonRaphsonEngine, Probe, SimStats,
    TransientConfig,
};
use ehsim_harvester::Harvester;
use ehsim_numeric::Lu;
use ehsim_power::frontend::build_frontend;
use ehsim_power::Multiplier;
use ehsim_vibration::Sine;
use std::hint::black_box;
use std::sync::Arc;

/// Time steps of the two engines (those of the E2 comparison).
const NR_DT_S: f64 = 2e-5;
const LSS_DT_S: f64 = 2e-4;
/// Largest accepted |v_NR − v_LSS| / v_NR of the final storage voltage.
const AGREEMENT_TOL: f64 = 0.05;

struct Size {
    horizon_s: f64,
    setup_reps: usize,
}

fn size(ctx: &Ctx) -> Size {
    if ctx.small {
        Size {
            horizon_s: 0.5,
            setup_reps: 5,
        }
    } else {
        Size {
            horizon_s: 1.0,
            setup_reps: 200,
        }
    }
}

/// Excitation phase (rad) drawn from the seed. The phase moves the
/// diode switching instants without changing how much switching one
/// second of 64 Hz excitation does, so the work per run stays the same.
fn phase(ctx: &Ctx) -> f64 {
    std::f64::consts::TAU * (ctx.stream(20) >> 11) as f64 / (1u64 << 53) as f64
}

fn setup(phase: f64) -> Result<(Netlist, Probe), String> {
    let h = Harvester::default_tunable();
    let source = Sine::new(0.9, 64.0)
        .map_err(|e| e.to_string())?
        .with_phase(phase);
    let fe = build_frontend(
        &h,
        h.position_for_frequency(64.0),
        Arc::new(source),
        &Multiplier::default(),
        100e-6,
        0.0,
        None,
    )
    .map_err(|e| e.to_string())?;
    Ok((fe.netlist, Probe::node_voltage(&fe.store_node_name)))
}

/// Final storage voltage and run counters of one engine.
#[derive(Debug, Clone)]
struct EngineRun {
    final_v: f64,
    stats: SimStats,
}

fn final_voltage(
    r: ehsim_circuit::Result<ehsim_circuit::TransientResult>,
    probe: &Probe,
) -> Result<EngineRun, String> {
    let r = r.map_err(|e| e.to_string())?;
    let v = r
        .require_signal(&probe.signal_name())
        .map_err(|e| e.to_string())?;
    let final_v = *v.last().ok_or("empty transient")?;
    // Wall time differs run to run; compare counters only.
    let stats = SimStats {
        wall: Default::default(),
        ..r.stats
    };
    Ok(EngineRun { final_v, stats })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sz = size(ctx);
    let mut out = Outcome::new();
    let phase = phase(ctx);
    let cfgs = TransientConfig::new(sz.horizon_s, NR_DT_S)
        .and_then(|c| c.with_record_stride(100))
        .and_then(|nr| {
            TransientConfig::new(sz.horizon_s, LSS_DT_S)
                .and_then(|c| c.with_record_stride(10))
                .map(|lss| (nr, lss))
        });
    let (nr_cfg, lss_cfg) = match cfgs {
        Ok(c) => c,
        Err(e) => {
            out.check("transient config", false, e);
            return out;
        }
    };
    let Some(((netlist, probe), setup_times)) = out.setups(sz.setup_reps, || setup(phase)) else {
        return out;
    };
    let nr = NewtonRaphsonEngine::default();
    let lss = LinearizedStateSpaceEngine::default();
    let probes = std::slice::from_ref(&probe);
    let mut runs: Vec<(EngineRun, EngineRun)> = Vec::new();
    let samples = out.closed_loop(ctx, |tr| {
        let a = tr.span("circuit.nr", || nr.simulate(&netlist, &nr_cfg, probes));
        let b = tr.span("circuit.lss", || lss.simulate(&netlist, &lss_cfg, probes));
        runs.push((final_voltage(a, &probe)?, final_voltage(b, &probe)?));
        Ok(())
    });
    let rss = peak_rss_mb();
    out.end_to_end(&samples, &setup_times, 2.0 * sz.horizon_s, rss);
    out.note(format!(
        "circuit: {} nodes, {} s horizon, NR dt {NR_DT_S} s, LSS dt {LSS_DT_S} s, 0.9 m/s^2 at phase {phase:.4} rad",
        netlist.node_count(),
        sz.horizon_s
    ));
    let Some((nr_run, lss_run)) = runs.first().cloned() else {
        out.check("iterations", false, "no iteration completed");
        return out;
    };

    // ---- correctness (outside the timed loop) ----
    out.check(
        "repeatable",
        runs.iter().all(|r| same_bits(r, &runs[0])),
        format!(
            "{} iterations give bit-identical voltages and counters",
            runs.len()
        ),
    );
    let rel = (nr_run.final_v - lss_run.final_v).abs() / nr_run.final_v.abs();
    out.check(
        "NR ~ LSS",
        rel <= AGREEMENT_TOL,
        format!(
            "final storage voltage NR {:.6} V vs LSS {:.6} V, relative gap {rel:.2e} (tolerance {AGREEMENT_TOL})",
            nr_run.final_v, lss_run.final_v
        ),
    );
    let steps_ok = nr_run.stats.steps == nr_cfg.steps() && lss_run.stats.steps >= lss_cfg.steps();
    out.check(
        "step counts",
        steps_ok,
        format!(
            "NR {} steps, LSS {} steps",
            nr_run.stats.steps, lss_run.stats.steps
        ),
    );

    if ctx.trace {
        let (n, l) = (&nr_run.stats, &lss_run.stats);
        out.metrics
            .set("circuit.nr_s", out.span_median("circuit.nr"));
        out.metrics
            .set("circuit.lss_s", out.span_median("circuit.lss"));
        out.metrics
            .set("circuit.nr.lu_factorizations", n.lu_factorizations as f64);
        out.metrics.set(
            "circuit.nr.iters_per_step",
            n.nr_iterations as f64 / n.steps as f64,
        );
        out.metrics
            .set("circuit.lss.expm_evaluations", l.expm_evaluations as f64);
        out.metrics.set(
            "circuit.lss.cache_hit_ratio",
            l.topology_cache_hits as f64 / (l.topology_cache_hits + l.expm_evaluations) as f64,
        );
        match lu_us(&netlist) {
            Ok(us) => out.metrics.set("numeric.lu_us", us),
            Err(e) => out.check("numeric.lu_us", false, e),
        }
        out.note(format!("NR: {n}"));
        out.note(format!("LSS: {l}"));
        out.trace_metrics(&samples);
    }
    out
}

/// Host microseconds of one `Lu::factor` + solve on the front-end's MNA
/// matrix: the backward-Euler companion form at the NR time step, with
/// every diode linearised at 0.3 V forward bias.
fn lu_us(nl: &Netlist) -> Result<f64, String> {
    let mut branch_of = vec![None; nl.elements().len()];
    let mut n_branches = 0;
    for (i, el) in nl.elements().iter().enumerate() {
        if matches!(
            el.kind,
            ElementKind::VoltageSource { .. }
                | ElementKind::Inductor { .. }
                | ElementKind::Ccvs { .. }
        ) {
            branch_of[i] = Some(n_branches);
            n_branches += 1;
        }
    }
    let mut mna = MnaBuilder::new(nl.node_count(), n_branches);
    for (i, el) in nl.elements().iter().enumerate() {
        match &el.kind {
            ElementKind::Resistor { a, b, ohms } => mna.stamp_conductance(*a, *b, 1.0 / ohms),
            ElementKind::Capacitor { a, b, farads, .. } => {
                mna.stamp_conductance(*a, *b, farads / NR_DT_S)
            }
            ElementKind::Diode {
                anode,
                cathode,
                model,
            } => mna.stamp_conductance(*anode, *cathode, model.conductance(0.3)),
            ElementKind::VoltageSource { plus, minus, .. } => {
                let br = branch_of[i].ok_or("branch")?;
                mna.stamp_branch_incidence(br, *plus, *minus);
                mna.set_branch_rhs(br, 1.0);
            }
            ElementKind::Inductor { a, b, henries, .. } => {
                let br = branch_of[i].ok_or("branch")?;
                mna.stamp_branch_incidence(br, *a, *b);
                mna.add_branch_branch_coeff(br, br, -henries / NR_DT_S);
            }
            ElementKind::Ccvs {
                plus,
                minus,
                ctrl,
                trans_ohms,
            } => {
                let br = branch_of[i].ok_or("branch")?;
                let ctrl_br = branch_of[ctrl.index()].ok_or("CCVS control is not a branch")?;
                mna.stamp_branch_incidence(br, *plus, *minus);
                mna.add_branch_branch_coeff(br, ctrl_br, -trans_ohms);
            }
            ElementKind::CurrentSource { from, to, .. } => {
                mna.stamp_current_source(*from, *to, 1e-6)
            }
        }
    }
    let (a, b) = (mna.matrix().clone(), mna.rhs().to_vec());
    Lu::factor(&a)
        .and_then(|lu| lu.solve(&b))
        .map_err(|e| format!("front-end MNA matrix: {e}"))?;
    const REPS: usize = 2000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                for _ in 0..REPS {
                    let lu = Lu::factor(black_box(&a)).expect("factors");
                    black_box(lu.solve(black_box(&b)).expect("solves"));
                }
            })
            .1
        })
        .collect();
    Ok(crate::stats::median(&batches) * 1e6 / REPS as f64)
}
