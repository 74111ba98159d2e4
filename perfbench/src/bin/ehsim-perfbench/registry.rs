//! Every metric the benchmark reports: name, unit, better-direction,
//! the workloads it applies to, and (for per-layer metrics) the
//! end-to-end metric it is expected to move. `BENCHMARK.json` mirrors
//! the names, units and directions; a self-test keeps the two in step.

use std::collections::BTreeMap;

/// Workload bit: the paper's DoE flow on the flagship campaign.
pub const CAMPAIGN: u8 = 1;
/// Workload bit: the fleet-scale network run.
pub const FLEET: u8 = 2;
/// Workload bit: the circuit-level front-end transient.
pub const CIRCUIT: u8 = 4;
const ALL: u8 = CAMPAIGN | FLEET | CIRCUIT;

/// Whether a smaller or a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workload bits the metric is measured on; on the others a
    /// per-layer metric reads 0 (the layer does no work there).
    pub applies: u8,
    /// The end-to-end metric(s) a change in this metric should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    applies: u8,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        applies,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, ALL, ""),
    m("wall_s", "s", Lower, ALL, ""),
    m("sim_rate", "sim-s/s", Higher, ALL, ""),
    m("peak_rss_mb", "MB", Lower, ALL, ""),
];

/// Printed in every report but not part of the result line: on a shared
/// host the fastest and the slowest iterations of a run move with other
/// tenants' load by more than any useful bound (see
/// `Outcome::end_to_end`).
pub const REPORT_ONLY: &[MetricDef] = &[
    m("wall_best_s", "s", Lower, ALL, ""),
    m("wall_tail_s", "s", Lower, ALL, ""),
];

const CORE: &str = "campaign wall_s and sim_rate; nothing on fleet or circuit";
const NODE: &str =
    "campaign wall_s and sim_rate (dominant), fleet wall_s via the node phase; nothing on circuit";
const KERNEL: &str =
    "campaign and fleet wall_s, in proportion to calls x cost (replay: an upper bound)";
const DOE: &str = "doe.rsm_predict_ns; campaign wall_s by at most 1-2% (below noise)";
const NET_SETUP: &str = "fleet setup_s; nothing on campaign";
const NET_RUN: &str = "fleet wall_s and sim_rate; nothing on campaign";
const NET_RSS: &str = "fleet peak_rss_mb (one snapshot per epoch) and wall_s";
const CIRC: &str = "circuit wall_s and sim_rate; nothing elsewhere";
const TRACE: &str = "accounts for the traced wall_s of each workload";

/// Per-layer metrics, measured in the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // core
    m("core.run_design_s", "s", Lower, CAMPAIGN, CORE),
    m("core.validate_s", "s", Lower, CAMPAIGN, CORE),
    m("core.verify_s", "s", Lower, CAMPAIGN, CORE),
    m("core.dispatch_s", "s", Lower, CAMPAIGN, CORE),
    // node
    m("node.prepare_s", "s", Lower, CAMPAIGN | FLEET, NODE),
    m("node.batch_s", "s", Lower, CAMPAIGN | FLEET, NODE),
    m("node.persim_s", "s", Lower, CAMPAIGN | FLEET, NODE),
    m("node.ticks", "count", Lower, CAMPAIGN | FLEET, NODE),
    m(
        "node.batch_ns_per_tick",
        "ns",
        Lower,
        CAMPAIGN | FLEET,
        NODE,
    ),
    m(
        "node.persim_ns_per_tick",
        "ns",
        Lower,
        CAMPAIGN | FLEET,
        NODE,
    ),
    // per-call kernel replays
    m(
        "vibration.envelope_ns",
        "ns",
        Lower,
        CAMPAIGN | FLEET,
        KERNEL,
    ),
    m(
        "harvester.thevenin_ns",
        "ns",
        Lower,
        CAMPAIGN | FLEET,
        KERNEL,
    ),
    m("power.ppu_ns", "ns", Lower, CAMPAIGN | FLEET, KERNEL),
    m(
        "power.storage_step_ns",
        "ns",
        Lower,
        CAMPAIGN | FLEET,
        KERNEL,
    ),
    m(
        "node.tuning_decide_ns",
        "ns",
        Lower,
        CAMPAIGN | FLEET,
        KERNEL,
    ),
    // doe
    m("doe.design_s", "s", Lower, CAMPAIGN, DOE),
    m("doe.fit_s", "s", Lower, CAMPAIGN, DOE),
    m("doe.optimize_s", "s", Lower, CAMPAIGN, DOE),
    m("doe.objective_evals", "count", Lower, CAMPAIGN, DOE),
    m(
        "doe.rsm_predict_ns",
        "ns",
        Lower,
        CAMPAIGN,
        "the paper's 'almost instant' evaluation claim; campaign wall_s via the sweep",
    ),
    m(
        "doe.rsm_err_pct",
        "%",
        Lower,
        CAMPAIGN,
        "accuracy of the campaign result (must not grow)",
    ),
    // net
    m("net.placement_s", "s", Lower, FLEET, NET_SETUP),
    m("net.topology_s", "s", Lower, FLEET, NET_SETUP),
    m("net.prepare_s", "s", Lower, FLEET, NET_SETUP),
    m("net.node_phase_s", "s", Lower, FLEET, NET_RUN),
    m("net.prefix_node_phase_s", "s", Lower, FLEET, NET_RUN),
    m("net.run_s", "s", Lower, FLEET, NET_RUN),
    m("net.epoch_overhead_s", "s", Lower, FLEET, NET_RUN),
    m("net.accounting_s", "s", Lower, FLEET, NET_RUN),
    m("net.routes_s", "s", Lower, FLEET, NET_RUN),
    m("net.links", "count", Lower, FLEET, NET_SETUP),
    m("net.epochs", "count", Lower, FLEET, NET_RSS),
    m("net.route_repairs", "count", Lower, FLEET, NET_RUN),
    m("net.node_ticks_simulated", "count", Lower, FLEET, NET_RUN),
    m("net.node_ticks_useful", "count", Lower, FLEET, NET_RUN),
    m("net.useful_tick_ratio", "ratio", Higher, FLEET, NET_RUN),
    m("net.browned_out_nodes", "count", Lower, FLEET, NET_RUN),
    m("net.unreachable_nodes", "count", Lower, FLEET, NET_RUN),
    m("net.delivery_fraction", "ratio", Higher, FLEET, NET_RUN),
    // circuit + numeric
    m("circuit.nr_s", "s", Lower, CIRCUIT, CIRC),
    m("circuit.lss_s", "s", Lower, CIRCUIT, CIRC),
    m(
        "circuit.nr.lu_factorizations",
        "count",
        Lower,
        CIRCUIT,
        CIRC,
    ),
    m("circuit.nr.iters_per_step", "ratio", Lower, CIRCUIT, CIRC),
    m(
        "circuit.lss.expm_evaluations",
        "count",
        Lower,
        CIRCUIT,
        CIRC,
    ),
    m(
        "circuit.lss.cache_hit_ratio",
        "ratio",
        Higher,
        CIRCUIT,
        CIRC,
    ),
    m("numeric.lu_us", "us", Lower, CIRCUIT, CIRC),
    // trace accounting: span self time per layer + remainder + overhead
    m("self.core_s", "s", Lower, ALL, TRACE),
    m("self.doe_s", "s", Lower, ALL, TRACE),
    m("self.net_s", "s", Lower, ALL, TRACE),
    m("self.circuit_s", "s", Lower, ALL, TRACE),
    m("trace.unattributed_s", "s", Lower, ALL, TRACE),
    m("trace.wall_s", "s", Lower, ALL, TRACE),
    m("trace.untraced_wall_s", "s", Lower, ALL, TRACE),
    m("trace.overhead_s", "s", Lower, ALL, TRACE),
    m("trace.spans", "count", Lower, ALL, TRACE),
];

/// Layers whose span self time is reported as `self.<layer>_s`.
pub const SPAN_LAYERS: &[&str] = &["core", "doe", "net", "circuit"];

/// Workload bit for a workload name.
pub fn workload_bit(name: &str) -> Option<u8> {
    match name {
        "campaign" => Some(CAMPAIGN),
        "fleet" => Some(FLEET),
        "circuit" => Some(CIRCUIT),
        _ => None,
    }
}

/// Measured values by metric name. Values not in the registry are
/// printed in the human-readable report only.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Unit of a registered metric, or of an extra report-only value.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(REPORT_ONLY)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// The registry as JSON (for `--describe`).
pub fn describe_json() -> String {
    let list = |defs: &[MetricDef]| {
        defs.iter()
            .map(|d| {
                let applies: Vec<&str> = [(CAMPAIGN, "campaign"), (FLEET, "fleet"), (CIRCUIT, "circuit")]
                    .iter()
                    .filter(|(bit, _)| d.applies & bit != 0)
                    .map(|(_, w)| *w)
                    .collect();
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"workloads\": [{}], \"moves\": \"{}\"}}",
                    d.name,
                    d.unit,
                    d.better.as_str(),
                    applies.iter().map(|w| format!("\"{w}\"")).collect::<Vec<_>>().join(", "),
                    d.moves
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ")
    };
    format!(
        "{{\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}",
        list(END_TO_END),
        list(PER_LAYER)
    )
}
