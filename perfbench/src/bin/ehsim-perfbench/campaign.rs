//! `campaign`: the paper's flow end to end on the flagship four-factor
//! drifting-machine campaign — face-centred CCD → `Campaign::run_design`
//! → quadratic fit per indicator → LHS validation → constrained optimum
//! (packets subject to a brown-out-margin floor) → fresh-sim verify →
//! a ≥10⁶-point RSM sweep.

use crate::harness::{
    median_time, nproc, peak_rss_mb, same_bits, timed, Ctx, Outcome, WORKER_THREADS,
};
use crate::replay::kernel_replay;
use crate::stats;
use ehsim_bench::flagship_campaign;
use ehsim_core::experiment::{Campaign, CampaignResult, StandardFactors};
use ehsim_doe::design::ccd::CentralComposite;
use ehsim_doe::design::lhs::latin_hypercube;
use ehsim_doe::optimize::{optimize_fn, Goal};
use ehsim_doe::{fit, Design, FittedModel, ModelSpec};
use ehsim_node::{BatchSimulator, NodeConfig, PreparedSimulator, SystemSimulator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::Cell;
use std::hint::black_box;

/// Response columns of `flagship_campaign`.
const PACKETS: usize = 0;
const MARGIN: usize = 1;
/// Brown-out-margin floor (V) of the constrained optimum.
const MARGIN_FLOOR_V: f64 = 0.1;

struct Size {
    horizon_s: f64,
    center_points: usize,
    lhs_runs: usize,
    /// Sweep grid points per factor (grid^4 predictions).
    sweep_grid: usize,
    setup_reps: usize,
    /// Design lanes replayed against `run_reference`.
    reference_lanes: usize,
}

fn size(ctx: &Ctx) -> Size {
    if ctx.small {
        Size {
            horizon_s: 600.0,
            center_points: 3,
            lhs_runs: 8,
            sweep_grid: 8,
            setup_reps: 10,
            reference_lanes: 2,
        }
    } else {
        Size {
            horizon_s: 6.0 * 3600.0,
            center_points: 3,
            lhs_runs: 20,
            sweep_grid: 32,
            setup_reps: 200,
            reference_lanes: 3,
        }
    }
}

/// What one iteration hands back for checking.
struct Flow {
    design_result: CampaignResult,
    optimum: Vec<f64>,
    rsm_packets: f64,
    sim_packets: f64,
    sweep_acc: f64,
    /// Host time of the sweep (s), measured in every iteration.
    sweep_s: f64,
    objective_evals: usize,
}

fn setup(sz: &Size) -> Result<(Campaign, Design), String> {
    let campaign = flagship_campaign(sz.horizon_s);
    let design = CentralComposite::face_centered(4)
        .and_then(|c| c.with_center_points(sz.center_points).build())
        .map_err(|e| e.to_string())?;
    Ok((campaign, design))
}

fn iteration(
    tr: &mut crate::trace::Tracer,
    ctx: &Ctx,
    sz: &Size,
    campaign: &Campaign,
    design: &Design,
) -> Result<Flow, String> {
    let k = campaign.space().k();
    let result = tr
        .span("core.run_design", || {
            campaign.run_design(design, WORKER_THREADS)
        })
        .map_err(|e| e.to_string())?;
    let models: Vec<FittedModel> = tr
        .span("doe.fit", || {
            let spec = ModelSpec::quadratic(k)?;
            (0..campaign.indicators().len())
                .map(|i| fit(&spec, &result.coded, &result.response_column(i)))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    let lhs = tr
        .span("doe.design", || {
            latin_hypercube(k, sz.lhs_runs, ctx.stream(1))
        })
        .map_err(|e| e.to_string())?;
    let fresh = tr
        .span("core.validate", || {
            campaign.run_design(&lhs, WORKER_THREADS)
        })
        .map_err(|e| e.to_string())?;
    black_box(validation_rmse(&models[PACKETS], &fresh));

    // Exact-penalty composition, scaled to the observed packet range
    // (as `SurrogateSet::optimize_constrained`), evaluated through a
    // closure that counts its calls.
    let packets = result.response_column(PACKETS);
    let (lo, hi) = packets
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    let penalty = 100.0 * (hi - lo).max(1.0);
    let evals = Cell::new(0usize);
    let objective = |x: &[f64]| {
        evals.set(evals.get() + 1);
        let margin = models[MARGIN].predict(x);
        let value = models[PACKETS].predict(x);
        if margin < MARGIN_FLOOR_V {
            value - penalty * (MARGIN_FLOOR_V - margin)
        } else {
            value
        }
    };
    let opt = tr
        .span("doe.optimize", || {
            optimize_fn(
                &objective,
                k,
                (-1.0, 1.0),
                Goal::Maximize,
                ctx.stream(2),
                16,
            )
        })
        .map_err(|e| e.to_string())?;
    let verified = tr
        .span("core.verify", || campaign.evaluate_coded(&opt.x))
        .map_err(|e| e.to_string())?;
    let (sweep_acc, sweep_s) = tr.span("doe.sweep", || {
        timed(|| sweep(&models[PACKETS], sz.sweep_grid))
    });
    Ok(Flow {
        rsm_packets: models[PACKETS].predict(&opt.x),
        sim_packets: verified[PACKETS],
        optimum: opt.x,
        design_result: result,
        sweep_acc,
        sweep_s,
        objective_evals: evals.get(),
    })
}

fn validation_rmse(model: &FittedModel, fresh: &CampaignResult) -> f64 {
    let sse: f64 = fresh
        .coded
        .iter()
        .zip(fresh.response_column(PACKETS))
        .map(|(p, y)| (model.predict(p) - y).powi(2))
        .sum();
    (sse / fresh.coded.len() as f64).sqrt()
}

/// Predicts the packet surrogate on a `grid^4` lattice over the coded
/// box and returns the sum (so the work cannot be dropped).
fn sweep(model: &FittedModel, grid: usize) -> f64 {
    let step = 2.0 / (grid - 1) as f64;
    let axis: Vec<f64> = (0..grid).map(|i| -1.0 + step * i as f64).collect();
    let mut acc = 0.0;
    let mut x = [0.0f64; 4];
    for &a in &axis {
        x[0] = a;
        for &b in &axis {
            x[1] = b;
            for &c in &axis {
                x[2] = c;
                for &d in &axis {
                    x[3] = d;
                    acc += model.predict(black_box(&x));
                }
            }
        }
    }
    acc
}

fn configs(campaign: &Campaign, points: &[Vec<f64>]) -> Vec<NodeConfig> {
    let factors = StandardFactors::default();
    points
        .iter()
        .map(|p| factors.config_for(&campaign.space().decode(p)))
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sz = size(ctx);
    let mut out = Outcome::new();
    let Some(((campaign, design), setup_times)) = out.setups(sz.setup_reps, || setup(&sz)) else {
        return out;
    };
    let mut flows: Vec<Flow> = Vec::new();
    let samples = out.closed_loop(ctx, |tr| {
        iteration(tr, ctx, &sz, &campaign, &design).map(|f| flows.push(f))
    });
    let rss = peak_rss_mb();
    let runs = (design.n_runs() + sz.lhs_runs + 1) as f64;
    out.end_to_end(&samples, &setup_times, runs * sz.horizon_s, rss);
    let ticks = (sz.horizon_s / StandardFactors::default().base.tick_s).round();
    out.note(format!(
        "campaign: {} design runs + {} LHS runs + 1 verify run, {} s horizon ({ticks} ticks/run), {}^4 sweep",
        design.n_runs(),
        sz.lhs_runs,
        sz.horizon_s,
        sz.sweep_grid,
    ));
    let Some(first) = flows.first() else {
        out.check("iterations", false, "no iteration completed");
        return out;
    };

    // ---- correctness (outside the timed loop) ----
    out.check(
        "repeatable",
        flows.iter().all(|f| {
            same_bits(&f.optimum, &first.optimum)
                && f.sim_packets.to_bits() == first.sim_packets.to_bits()
                && f.sweep_acc.to_bits() == first.sweep_acc.to_bits()
        }),
        format!(
            "{} iterations give bit-identical optimum, verify and sweep",
            flows.len()
        ),
    );
    let cfgs = configs(&campaign, design.points());
    let mut rng = StdRng::seed_from_u64(ctx.stream(3));
    let source = campaign.scenario().source().clone();
    for _ in 0..sz.reference_lanes {
        let j = rng.random_range(0..design.n_runs());
        let ok = SystemSimulator::new(cfgs[j].clone())
            .and_then(|s| s.run_reference(source.as_ref(), sz.horizon_s))
            .map(|m| {
                let want: Vec<f64> = campaign
                    .indicators()
                    .iter()
                    .map(|ind| ind.extract(&m, &cfgs[j]))
                    .collect();
                same_bits(&want, &first.design_result.responses[j])
            });
        out.check(
            "lane == run_reference",
            matches!(ok, Ok(true)),
            format!("design run {j}: {ok:?}"),
        );
    }
    let parallel = campaign.run_design(&design, nproc()).map(|r| r.responses);
    out.check(
        "thread-count invariance",
        parallel
            .as_ref()
            .is_ok_and(|r| same_bits(r, &first.design_result.responses)),
        format!("responses at {WORKER_THREADS} and {} threads", nproc()),
    );
    let err_pct = 100.0 * (first.rsm_packets - first.sim_packets).abs() / first.sim_packets;
    out.check(
        "verified optimum",
        first.sim_packets > 0.0 && err_pct.is_finite(),
        format!(
            "RSM {:.2} vs fresh sim {:.2} pkt/h at {:?}",
            first.rsm_packets, first.sim_packets, first.optimum
        ),
    );
    let sweep_points = (sz.sweep_grid as f64).powi(4);
    let sweep_s: Vec<f64> = flows.iter().map(|f| f.sweep_s).collect();
    let predict_ns = stats::median(&sweep_s) * 1e9 / sweep_points;
    out.metrics.set("doe.rsm_err_pct", err_pct);
    out.metrics.set("doe.rsm_predict_ns", predict_ns);
    out.note(format!(
        "rsm_err_pct = {err_pct:.4} %, rsm_predict_ns = {predict_ns:.2} ns over {sweep_points} predictions"
    ));

    if ctx.trace {
        layers(&mut out, &sz, &campaign, &design, &cfgs, first);
        out.trace_metrics(&samples);
    }
    out
}

/// Per-layer split of the traced run: span medians, plus replays of the
/// node work inside `run_design` and `evaluate_coded`.
fn layers(
    out: &mut Outcome,
    sz: &Size,
    campaign: &Campaign,
    design: &Design,
    cfgs: &[NodeConfig],
    first: &Flow,
) {
    let source = campaign.scenario().source().clone();
    let run_design = out.span_median("core.run_design");
    for (metric, span) in [
        ("core.run_design_s", "core.run_design"),
        ("core.validate_s", "core.validate"),
        ("core.verify_s", "core.verify"),
        ("doe.design_s", "doe.design"),
        ("doe.fit_s", "doe.fit"),
        ("doe.optimize_s", "doe.optimize"),
    ] {
        let v = out.span_median(span);
        out.metrics.set(metric, v);
    }
    let prepare = median_time(5, || {
        let _ = black_box(
            cfgs.iter()
                .map(|c| PreparedSimulator::new(c.clone()))
                .collect::<Result<Vec<_>, _>>(),
        );
    });
    let prepared: Vec<PreparedSimulator> = cfgs
        .iter()
        .map(|c| PreparedSimulator::new(c.clone()).expect("design configs prepare"))
        .collect();
    // The campaign's own chunking: contiguous lanes, one batch per
    // worker thread.
    let width = prepared.len().div_ceil(WORKER_THREADS).clamp(1, 64);
    let batch = median_time(3, || {
        std::thread::scope(|s| {
            for chunk in prepared.chunks(width) {
                let src = source.clone();
                s.spawn(move || {
                    let b = BatchSimulator::new(chunk.to_vec()).expect("batch builds");
                    black_box(b.run(src.as_ref(), sz.horizon_s).expect("batch runs"));
                });
            }
        });
    });
    let opt_cfg = configs(campaign, std::slice::from_ref(&first.optimum)).remove(0);
    let persim = median_time(3, || {
        let sim = PreparedSimulator::new(opt_cfg.clone()).expect("optimum prepares");
        black_box(
            sim.run(source.as_ref(), sz.horizon_s)
                .expect("optimum runs"),
        );
    });
    let ticks = (sz.horizon_s / cfgs[0].tick_s).round();
    let runs = (design.n_runs() + sz.lhs_runs + 1) as f64;
    out.metrics
        .set("core.dispatch_s", run_design - prepare - batch);
    out.metrics.set("node.prepare_s", prepare);
    out.metrics.set("node.batch_s", batch);
    out.metrics.set("node.persim_s", persim);
    out.metrics.set("node.ticks", runs * ticks);
    out.metrics.set(
        "node.batch_ns_per_tick",
        batch * 1e9 / (design.n_runs() as f64 * ticks),
    );
    out.metrics
        .set("node.persim_ns_per_tick", persim * 1e9 / ticks);
    out.metrics
        .set("doe.objective_evals", first.objective_evals as f64);
    let centre = configs(campaign, &[vec![0.0; campaign.space().k()]]).remove(0);
    if let Err(e) = kernel_replay(out, &centre, source.as_ref(), sz.horizon_s) {
        out.check("kernel replay", false, e);
    }
    out.note(format!(
        "node split (replayed): run_design {run_design:.4} s = prepare {prepare:.4} + batch {batch:.4} + dispatch"
    ));
}
