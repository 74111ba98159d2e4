//! ehsim benchmark: one closed-loop workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign|fleet|circuit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report (every metric by name and unit, every
//! correctness check) and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A traced run also writes its spans to `perfbench/out/`.
//! `--describe` prints the metric registry as JSON instead.

#![forbid(unsafe_code)]

mod campaign;
mod circuit;
mod fleet;
mod harness;
mod registry;
mod replay;
mod stats;
mod trace;

use harness::{Ctx, Outcome};
use registry::{MetricDef, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: ehsim-perfbench --workload <campaign|fleet|circuit> --seed <n> --seconds <s> --trace <0|1>\n       ehsim-perfbench --describe"
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value() == "1"),
            "--describe" => {
                println!("{}", registry::describe_json());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if registry::workload_bit(&workload).is_none() {
        usage();
    }
    Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            small: false,
        },
    }
}

/// Runs one workload and completes its metric set: every metric the
/// run must emit is present and finite (else the run counts a
/// failure), and per-layer metrics of layers idle on this workload read
/// 0.
pub fn run_workload(workload: &str, ctx: &Ctx) -> Outcome {
    let mut out = match workload {
        "campaign" => campaign::run(ctx),
        "fleet" => fleet::run(ctx),
        "circuit" => circuit::run(ctx),
        other => panic!("unknown workload {other}"),
    };
    let bit = registry::workload_bit(workload).expect("known workload");
    let required: &[MetricDef] = if ctx.trace { PER_LAYER } else { END_TO_END };
    for def in required {
        if def.applies & bit == 0 {
            out.metrics.set(def.name, 0.0);
            continue;
        }
        let v = out.metrics.get(def.name);
        if !v.is_some_and(f64::is_finite) {
            out.check(
                &format!("metric {}", def.name),
                false,
                format!("missing or not finite: {v:?}"),
            );
            out.metrics.set(def.name, 0.0);
        }
    }
    out
}

/// The final result line.
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = out.metrics.get(d.name).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let ctx = &args.ctx;
    println!(
        "ehsim perfbench: workload {}, seed {}, {} s, trace {}, closed loop",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
    );
    let out = run_workload(&args.workload, ctx);
    for line in &out.notes {
        println!("  {line}");
    }
    println!("metrics:");
    for (name, value) in out.metrics.iter() {
        println!("  {name:<32} {value:>16.6} {}", registry::unit_of(name));
    }
    println!(
        "  {:<32} {:>16.6} ratio ({} failed of {} operations: set-up, iterations and checks)",
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if ctx.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, ctx.seed));
        match out.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                out.tracer.span_count(),
                path.display()
            ),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&out, ctx.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, trace: bool) -> Ctx {
        Ctx {
            seed,
            seconds: 0.2,
            trace,
            small: true,
        }
    }

    /// Runs a reduced-size workload and asserts that its result line is
    /// correct and names every metric of the mode with its unit.
    fn assert_complete(workload: &str, ctx: &Ctx) -> Outcome {
        let out = run_workload(workload, ctx);
        assert_eq!(
            out.failed, 0,
            "{workload} seed {}: {:#?}",
            ctx.seed, out.notes
        );
        let line = result_json(&out, ctx.trace);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        for d in if ctx.trace { PER_LAYER } else { END_TO_END } {
            let needle = format!("\"{}\": {{\"value\": ", d.name);
            let at = line
                .find(&needle)
                .unwrap_or_else(|| panic!("{} missing", d.name));
            let unit = format!("\"unit\": \"{}\"}}", d.unit);
            assert!(line[at..]
                .find(&unit)
                .is_some_and(|u| !line[at..at + u].contains('}')));
        }
        out
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit_and_checks_pass_on_two_seeds() {
        for workload in ["campaign", "fleet", "circuit"] {
            for seed in [1, 2] {
                assert_complete(workload, &small(seed, false));
            }
            let traced = assert_complete(workload, &small(2, true));
            // The traced self times account for the traced wall time.
            let m = &traced.metrics;
            let parts: f64 = registry::SPAN_LAYERS
                .iter()
                .map(|l| m.get(&format!("self.{l}_s")).unwrap())
                .sum::<f64>()
                + m.get("trace.unattributed_s").unwrap();
            let wall = m.get("trace.wall_s").unwrap();
            assert!(
                (parts - wall).abs() <= 1e-9 * wall.max(1.0),
                "{workload}: {parts} vs {wall}"
            );
        }
    }

    #[test]
    fn fleet_regime_holds_at_reduced_size() {
        let out = assert_complete("fleet", &small(3, true));
        let m = &out.metrics;
        assert!(m.get("net.route_repairs").unwrap() >= 1.0);
        assert!(m.get("net.browned_out_nodes").unwrap() > 0.0);
        let delivery = m.get("net.delivery_fraction").unwrap();
        assert!(delivery > 0.0 && delivery < 1.0, "{delivery}");
        for regime in ["route repair fired", "relays brown out", "0 < delivery < 1"] {
            assert!(out
                .notes
                .iter()
                .any(|n| n.contains(regime) && n.contains(": ok (")));
        }
    }

    #[test]
    fn benchmark_json_lists_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = text.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "stray metric entries"
        );
        for w in ["campaign", "fleet", "circuit"] {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }
}
