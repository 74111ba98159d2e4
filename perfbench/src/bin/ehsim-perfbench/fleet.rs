//! `fleet`: an e13-shaped fleet (e13 node baseline, constant-density
//! uniform placement, energy-aware routing, the factory-floor
//! environment) run end to end with live route repair.
//!
//! Regime: the e13 node on a fixed 0.5 s duty cycle (no energy-neutral
//! stretching) with per-node storage drawn from 10–30 mF, so nodes
//! drain at different rates and brown out throughout the run: the
//! browned-out set grows in every epoch, and route repair fires at every
//! later epoch boundary.
//!
//! Size: 10k nodes. At 20k, whose 80 MB working set lives in the
//! shared last-level cache, run-to-run spread on a shared host was two
//! to three times that at 5–10k; 100k (≈450 MB, ≈7 s per run) fits
//! neither the memory nor the run length of a steady benchmark there.

use crate::harness::{
    median_time, nproc, peak_rss_mb, same_bits, timed, Ctx, Outcome, WORKER_THREADS,
};
use crate::replay::kernel_replay;
use ehsim_bench::e13_base_config;
use ehsim_net::{
    Dispatch, FleetMetrics, FleetOutcome, FleetSimulator, FleetSpec, Placement, Point, Topology,
};
use ehsim_node::DutyCyclePolicy;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// e13's constant node density (nodes/m²) and radio range (m).
const DENSITY: f64 = 0.025;
const RANGE_M: f64 = 12.0;
const TASK_PERIOD_S: f64 = 0.5;
const C_STORE_F: (f64, f64) = (0.01, 0.03);

struct Size {
    nodes: usize,
    horizon_s: f64,
    epochs: usize,
    setup_reps: usize,
    /// Nodes replayed against their own per-sim run.
    sampled_nodes: usize,
}

fn size(ctx: &Ctx) -> Size {
    if ctx.small {
        Size {
            nodes: 1500,
            horizon_s: 30.0,
            epochs: 4,
            setup_reps: 2,
            sampled_nodes: 4,
        }
    } else {
        Size {
            nodes: 10_000,
            horizon_s: 30.0,
            epochs: 4,
            setup_reps: 5,
            sampled_nodes: 8,
        }
    }
}

fn placement(ctx: &Ctx, n: usize) -> Result<(Vec<Point>, Point), String> {
    let side_m = (n as f64 / DENSITY).sqrt();
    let positions = Placement::UniformRandom {
        n,
        width_m: side_m,
        height_m: side_m,
        seed: ctx.stream(10),
    }
    .positions()
    .map_err(|e| e.to_string())?;
    Ok((positions, Point::new(side_m / 2.0, side_m / 2.0)))
}

fn spec(ctx: &Ctx, sz: &Size, positions: Vec<Point>, sink: Point, horizon_s: f64) -> FleetSpec {
    let mut cfg = e13_base_config();
    cfg.policy = DutyCyclePolicy::Fixed;
    cfg.task.period_s = TASK_PERIOD_S;
    let mut spec = FleetSpec::homogeneous(cfg, positions, sink, RANGE_M, horizon_s);
    let mut rng = StdRng::seed_from_u64(ctx.stream(11));
    for node in &mut spec.nodes {
        node.config.storage.capacitance =
            C_STORE_F.0 + (C_STORE_F.1 - C_STORE_F.0) * rng.random::<f64>();
    }
    spec.fleet_seed = ctx.stream(12);
    spec.route_epochs = sz.epochs;
    spec
}

/// End time of epoch `e` (1-based), as the fleet simulator slices it.
fn epoch_end(sz: &Size, e: usize) -> f64 {
    if e == sz.epochs {
        sz.horizon_s
    } else {
        sz.horizon_s * e as f64 / sz.epochs as f64
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sz = size(ctx);
    let mut out = Outcome::new();
    let (mut placements, mut prepares) = (Vec::new(), Vec::new());
    let made = out.setups(sz.setup_reps, || {
        let (placed, t_place) = timed(|| placement(ctx, sz.nodes));
        let (positions, sink) = placed?;
        let s = spec(ctx, &sz, positions, sink, sz.horizon_s);
        let (fleet, t_prep) = timed(|| FleetSimulator::prepare(s, WORKER_THREADS));
        placements.push(t_place);
        prepares.push(t_prep);
        fleet.map_err(|e| e.to_string())
    });
    let Some((fleet, setup_times)) = made else {
        return out;
    };
    let mut first: Option<FleetOutcome> = None;
    let mut all_metrics: Vec<FleetMetrics> = Vec::new();
    let samples = out.closed_loop(ctx, |tr| {
        let o = tr
            .span("net.run", || fleet.run(WORKER_THREADS))
            .map_err(|e| e.to_string())?;
        all_metrics.push(o.metrics.clone());
        first.get_or_insert(o);
        Ok(())
    });
    let Some(first) = first else {
        out.check("iterations", false, "no iteration completed");
        return out;
    };
    let rss = peak_rss_mb();
    let n = fleet.node_count();
    out.end_to_end(&samples, &setup_times, n as f64 * sz.horizon_s, rss);
    out.note(format!(
        "fleet: {n} nodes, {} links, {} s horizon at {} s ticks, {} route epochs",
        fleet.topology().link_count(),
        sz.horizon_s,
        fleet.prepared()[0].config().tick_s,
        sz.epochs,
    ));

    // ---- correctness (outside the timed loop) ----
    out.check(
        "repeatable",
        all_metrics.iter().all(|m| same_bits(m, &first.metrics)),
        "every iteration gives bit-identical FleetMetrics",
    );
    let mut rng = StdRng::seed_from_u64(ctx.stream(13));
    let relay = nearest_to_sink(fleet.topology());
    let mut sampled: Vec<usize> = vec![relay];
    sampled.extend((1..sz.sampled_nodes).map(|_| rng.random_range(0..n)));
    for &i in &sampled {
        let oracle = fleet.prepared()[i].run(fleet.sources()[i].as_ref(), sz.horizon_s);
        out.check(
            "node == per-sim run",
            oracle
                .as_ref()
                .is_ok_and(|m| same_bits(m, &first.per_node[i])),
            format!("node {i}"),
        );
    }
    let parallel = fleet.run(nproc()).map(|o| o.metrics);
    out.check(
        "thread-count invariance",
        parallel
            .as_ref()
            .is_ok_and(|m| same_bits(m, &first.metrics)),
        format!("FleetMetrics at {WORKER_THREADS} and {} threads", nproc()),
    );
    let m = &first.metrics;
    out.check(
        "regime: route repair fired",
        m.route_repairs >= 1,
        format!("{} repairs", m.route_repairs),
    );
    out.check(
        "regime: relays brown out",
        m.browned_out_nodes > 0,
        format!(
            "{} browned out, per epoch {:?}",
            m.browned_out_nodes,
            m.epochs
                .iter()
                .map(|e| e.newly_browned.len())
                .collect::<Vec<_>>()
        ),
    );
    out.check(
        "regime: 0 < delivery < 1",
        m.delivery_fraction > 0.0 && m.delivery_fraction < 1.0,
        format!("delivery fraction {:.6}", m.delivery_fraction),
    );

    if ctx.trace {
        let prep = crate::stats::median(&prepares);
        out.metrics
            .set("net.placement_s", crate::stats::median(&placements));
        out.metrics.set("net.prepare_s", prep);
        if let Err(e) = layers(&mut out, ctx, &sz, &fleet, &first, relay, prep) {
            out.check("layer split", false, e);
        }
        out.trace_metrics(&samples);
    }
    out
}

/// The node with the shortest distance to the sink (a busy relay).
fn nearest_to_sink(topology: &Topology) -> usize {
    let sink = topology.sink();
    (0..topology.n_nodes())
        .min_by(|&a, &b| {
            topology
                .position(a)
                .distance_m(&sink)
                .total_cmp(&topology.position(b).distance_m(&sink))
        })
        .unwrap_or(0)
}

/// Per-layer split of the traced run: the `net.run` span against
/// separately timed public calls — the full-horizon node phase, one
/// node phase per epoch prefix (on a fleet prepared for that prefix),
/// a topology build and one routing pass.
fn layers(
    out: &mut Outcome,
    ctx: &Ctx,
    sz: &Size,
    fleet: &FleetSimulator,
    first: &FleetOutcome,
    relay: usize,
    prep: f64,
) -> Result<(), String> {
    let run = out.span_median("net.run");
    let topo = fleet.topology();
    let positions: Vec<Point> = (0..topo.n_nodes()).map(|i| topo.position(i)).collect();
    let topology_s = median_time(3, || {
        black_box(Topology::new(positions.clone(), topo.sink(), RANGE_M).expect("topology builds"));
    });
    let node_phase = median_time(3, || {
        black_box(
            fleet
                .run_nodes(WORKER_THREADS, Dispatch::Auto)
                .expect("node phase runs"),
        );
    });
    let mut prefix_total = 0.0;
    let mut ticks_simulated = 0.0;
    let tick_s = fleet.prepared()[0].config().tick_s;
    for e in 1..=sz.epochs {
        let t_end = epoch_end(sz, e);
        ticks_simulated += (t_end / tick_s).round() * topo.n_nodes() as f64;
        prefix_total += if e == sz.epochs {
            node_phase
        } else {
            let s = spec(ctx, sz, positions.clone(), topo.sink(), t_end);
            let f = FleetSimulator::prepare(s, WORKER_THREADS).map_err(|e| e.to_string())?;
            median_time(3, || {
                black_box(
                    f.run_nodes(WORKER_THREADS, Dispatch::Auto)
                        .expect("prefix node phase runs"),
                );
            })
        };
    }
    let browned: Vec<bool> = first
        .per_node
        .iter()
        .map(|m| m.brownout_count > 0)
        .collect();
    let spec = fleet.spec();
    let routes_s = median_time(3, || {
        black_box(
            topo.energy_aware_routes(&spec.radio, spec.payload_bits, &browned)
                .expect("routes"),
        );
    });
    let useful = (sz.horizon_s / tick_s).round() * topo.n_nodes() as f64;
    let persim = median_time(3, || {
        black_box(
            fleet.prepared()[relay]
                .run(fleet.sources()[relay].as_ref(), sz.horizon_s)
                .expect("relay runs"),
        );
    });
    let m = &first.metrics;
    let set = |out: &mut Outcome, k: &str, v: f64| out.metrics.set(k, v);
    set(out, "net.topology_s", topology_s);
    set(out, "net.node_phase_s", node_phase);
    set(out, "net.prefix_node_phase_s", prefix_total);
    set(out, "net.run_s", run);
    set(out, "net.epoch_overhead_s", run - node_phase);
    set(out, "net.accounting_s", run - prefix_total);
    set(out, "net.routes_s", routes_s);
    set(out, "net.links", topo.link_count() as f64);
    set(out, "net.epochs", m.epochs.len() as f64);
    set(out, "net.route_repairs", m.route_repairs as f64);
    set(out, "net.node_ticks_simulated", ticks_simulated);
    set(out, "net.node_ticks_useful", useful);
    set(out, "net.useful_tick_ratio", useful / ticks_simulated);
    set(out, "net.browned_out_nodes", m.browned_out_nodes as f64);
    set(out, "net.unreachable_nodes", m.unreachable_nodes as f64);
    set(out, "net.delivery_fraction", m.delivery_fraction);
    set(out, "node.prepare_s", prep - topology_s);
    set(out, "node.batch_s", prefix_total);
    set(out, "node.persim_s", persim);
    set(out, "node.ticks", ticks_simulated);
    set(
        out,
        "node.batch_ns_per_tick",
        prefix_total * 1e9 / ticks_simulated,
    );
    set(
        out,
        "node.persim_ns_per_tick",
        persim * 1e9 / (sz.horizon_s / tick_s).round(),
    );
    out.note(format!(
        "net split (replayed): run {run:.4} s = prefix node phases {prefix_total:.4} + accounting; \
         full-horizon node phase {node_phase:.4}; node {relay} is the replayed relay"
    ));
    kernel_replay(
        out,
        fleet.prepared()[relay].config(),
        fleet.sources()[relay].as_ref(),
        sz.horizon_s,
    )
}
