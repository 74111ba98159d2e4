//! Per-call cost of the node's tick kernels, replayed over one node's
//! recorded `SystemTrace`. Each public function is called once per
//! recorded tick with that tick's inputs. The replay skips the
//! simulator's in-loop Thevenin memo, so the Thevenin figure is an
//! upper bound on what the tick loop pays.

use crate::harness::Outcome;
use ehsim_node::{NodeConfig, PreparedSimulator};
use ehsim_vibration::{Envelope, VibrationSource};
use std::hint::black_box;
use std::time::Instant;

/// Shortest time one replay pass is repeated for, so that short traces
/// still give a readable per-call figure.
const MIN_REPLAY_S: f64 = 0.02;

/// Host nanoseconds per call of `f(k)` over `n` recorded ticks.
fn per_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed().as_secs_f64() < MIN_REPLAY_S {
        for k in 0..n {
            f(k);
        }
        calls += n;
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Replays `cfg` under `source` for `duration_s` and sets the five
/// `*_ns` kernel metrics.
pub fn kernel_replay(
    out: &mut Outcome,
    cfg: &NodeConfig,
    source: &dyn VibrationSource,
    duration_s: f64,
) -> Result<(), String> {
    let sim = PreparedSimulator::new(cfg.clone()).map_err(|e| e.to_string())?;
    let (_, tr) = sim
        .run_with_trace(source, duration_s, 1)
        .map_err(|e| e.to_string())?;
    let n = tr.t.len();
    let harv = cfg.harvester.prepared().map_err(|e| e.to_string())?;
    let ppu = cfg.multiplier.prepared().map_err(|e| e.to_string())?;
    let envs: Vec<Envelope> = tr.t.iter().map(|&t| source.envelope(t)).collect();
    let pos: Vec<f64> = tr
        .resonance_hz
        .iter()
        .map(|&f| harv.position_for_frequency(f))
        .collect();
    let thev = (0..n)
        .map(|k| harv.thevenin(pos[k], envs[k].freq_hz, envs[k].amp))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let ops = (0..n)
        .map(|k| ppu.operating_point(thev[k].0, thev[k].1, envs[k].freq_hz, tr.v_store[k]))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let p_sleep = cfg.regulator.input_power(cfg.mcu.sleep_power_w);

    let envelope = per_call_ns(n, |k| {
        black_box(source.envelope(black_box(tr.t[k])));
    });
    let thevenin = per_call_ns(n, |k| {
        let _ = black_box(harv.thevenin(black_box(pos[k]), envs[k].freq_hz, envs[k].amp));
    });
    let ppu_ns = per_call_ns(n, |k| {
        let _ = black_box(ppu.operating_point(
            black_box(thev[k].0),
            thev[k].1,
            envs[k].freq_hz,
            tr.v_store[k],
        ));
    });
    let storage = per_call_ns(n, |k| {
        black_box(cfg.storage.step_with_current_accounted(
            black_box(tr.v_store[k]),
            ops[k].i_out_a,
            p_sleep,
            cfg.tick_s,
        ));
    });
    let decide = per_call_ns(n, |k| {
        black_box(cfg.tuning.decide(
            black_box(envs[k].freq_hz),
            tr.resonance_hz[k],
            |f| harv.position_for_frequency(f),
            pos[k],
        ));
    });
    out.metrics.set("vibration.envelope_ns", envelope);
    out.metrics.set("harvester.thevenin_ns", thevenin);
    out.metrics.set("power.ppu_ns", ppu_ns);
    out.metrics.set("power.storage_step_ns", storage);
    out.metrics.set("node.tuning_decide_ns", decide);
    out.note(format!(
        "kernel replay: {n} recorded ticks, each call replayed with its tick's inputs (memo skipped: an upper bound)"
    ));
    Ok(())
}
