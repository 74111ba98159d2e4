//! Batched structure-of-arrays tick kernel: the production tick loop.
//!
//! The kernel steps `W` independent node simulations — the *lanes* —
//! through the tick loop together, one tick per pass. The per-sim hot
//! state (storage voltage, schedule cursors, harvest EMA, policy state,
//! Thevenin memo, metric accumulators) is laid out as parallel arrays,
//! so a campaign's worth of simulations walks cache-friendly columns
//! instead of `W` scattered object graphs, bounds checks amortize over
//! the batch, and the inner per-lane loops are plain indexable
//! arithmetic the compiler can vectorise where profitable.
//!
//! The structural win, though, is the PPU solve: the scalar fixed point
//! is a long serial float dependency chain (latency-bound), and the
//! batch kernel hands **all lanes of one tick** to
//! [`ehsim_power::BatchPpuSolver`], which iterates every unconverged
//! lane per round and fills the pipeline with independent chains. See
//! `e10_hotpath`'s `batch_ticks_per_sec` series for the measured
//! campaign-shape throughput.
//!
//! This is the only production tick loop. [`BatchSimulator`] runs it
//! over its owned lanes, and [`PreparedSimulator::run`],
//! [`PreparedSimulator::run_checkpoints`] and
//! [`PreparedSimulator::run_with_trace`] run it as a width-1 batch over
//! a borrowed one-lane slice. The only other tick loop in the workspace
//! is the frozen oracle [`crate::SystemSimulator::run_reference`].
//!
//! # Bit-exactness contract
//!
//! Lanes never exchange data, and each lane executes exactly the same
//! float-operation sequence whatever the batch width — phase splitting
//! only interleaves *different* lanes between phases. A batched run is
//! therefore **bit-identical, lane for lane, to running each
//! [`PreparedSimulator`] alone** (a width-1 batch), for every
//! duty-cycle policy and energy policy, and under the `Static` energy
//! policy bit-identical to [`crate::SystemSimulator::run_reference`].
//! `tests/batch_equivalence.rs` asserts the contract across widths,
//! policies and workloads, against the oracle wherever it applies. This
//! is what lets the lane dispatcher ([`crate::dispatch`]) run every
//! campaign and fleet lane on the batch kernel without perturbing a
//! single CSV byte.
//!
//! # Checkpoints
//!
//! [`BatchSimulator::run_checkpoints`] runs the batch once to
//! the last of a nondecreasing list of checkpoint durations and
//! snapshots every lane at each, so a caller that needs the metrics at
//! several horizons pays for one run instead of one per horizon. The
//! tick loop never reads the run's duration — a shorter run is an
//! exact prefix of a longer one — so snapshot `[c][i]` is bit-identical
//! to running lane `i` alone for `checkpoints[c]` seconds. The loop
//! runs in segments between checkpoints and finalises the snapshots
//! between segments; the tick body carries no checkpoint test. The
//! single-duration entry points are one-checkpoint calls of the same
//! loop.
//!
//! # Trace
//!
//! The kernel optionally records lane 0 every `stride` ticks, after the
//! tick's storage and threshold update: time, storage voltage,
//! resonance at the current actuator position, ambient frequency,
//! harvested power and the powered state. Only
//! [`PreparedSimulator::run_with_trace`] asks for it.
//!
//! # Error contract
//!
//! A lane that fails mid-run (sub-model error or task-schedule
//! saturation) is retired from the batch at the failing tick with the
//! exact error the scalar sub-models report; surviving lanes are
//! unaffected. A lane that fails at tick `j` is `Ok` at every
//! checkpoint of at most `j` ticks and a clone of its error at every
//! later one. [`BatchSimulator::run`] fails with the error of the
//! **smallest failing lane index**, matching the job queue's
//! smallest-failing-job contract, while
//! [`BatchSimulator::run_checkpoints`] exposes every lane's own
//! `Result` at every checkpoint.

use crate::policy::DutyCyclePolicy;
use crate::sim::{
    checkpoint_ticks, task_saturation_error, NodeMetrics, PreparedSimulator, SystemTrace,
};
use crate::tuning::TuningController;
use crate::{NodeConfig, NodeError, Result};
use ehsim_harvester::{PreparedHarvester, TuningParams};
use ehsim_numeric::complex::Complex;
use ehsim_policy::{EnergyPolicy, PolicyKind, PolicyObs, PolicyState};
use ehsim_power::{BatchPpuSolver, PpuOperatingPoint, PreparedPpu, Supercap, Thresholds};
use ehsim_vibration::VibrationSource;

/// Tick-invariant per-lane constants, gathered out of the lane's
/// [`PreparedSimulator`] into one flat `Copy` record so the tick loop
/// reads a single contiguous array instead of chasing `NodeConfig`
/// sub-structs.
#[derive(Debug, Clone, Copy)]
struct LaneConst {
    harv: PreparedHarvester,
    ppu: PreparedPpu,
    storage: Supercap,
    thresholds: Thresholds,
    duty: DutyCyclePolicy,
    energy_policy: PolicyKind,
    tuning: TuningController,
    tuning_params: TuningParams,
    task_period_s: f64,
    e_cycle_in: f64,
    p_sleep_in: f64,
    e_measure_in: f64,
    e_act_tick: f64,
    max_fires_per_tick: u64,
    v_store0: f64,
    initial_position: f64,
}

impl LaneConst {
    fn from_prepared(p: &PreparedSimulator) -> Self {
        LaneConst {
            harv: p.harv,
            ppu: p.ppu,
            storage: p.cfg.storage,
            thresholds: p.cfg.thresholds,
            duty: p.cfg.policy,
            energy_policy: p.cfg.energy_policy,
            tuning: p.cfg.tuning,
            tuning_params: p.cfg.harvester.tuning,
            task_period_s: p.cfg.task.period_s,
            e_cycle_in: p.e_cycle_in,
            p_sleep_in: p.p_sleep_in,
            e_measure_in: p.e_measure_in,
            e_act_tick: p.e_act_tick,
            max_fires_per_tick: p.max_fires_per_tick,
            v_store0: p.cfg.v_store0,
            initial_position: p.cfg.initial_position,
        }
    }
}

/// How a batch is excited: one shared source (the campaign shape —
/// the envelope is evaluated **once per tick** for the whole batch) or
/// one source per lane (the fleet shape).
#[derive(Clone, Copy)]
pub enum Excitation<'a> {
    /// One source excites every lane.
    Shared(&'a dyn VibrationSource),
    /// `sources[i]` excites lane `i`.
    PerLane(&'a [&'a dyn VibrationSource]),
}

/// A batch of [`PreparedSimulator`] lanes stepped in lock-step through
/// the SoA tick kernel (see the module docs for the layout and the
/// bit-exactness / error contracts).
///
/// All lanes must share one `tick_s` (bit compared), while every other
/// configuration constant may vary per lane.
/// [`crate::dispatch::run_lanes`] groups a mixed lane set by `tick_s`
/// into such batches.
#[derive(Debug, Clone)]
pub struct BatchSimulator {
    lanes: Vec<PreparedSimulator>,
    dt: f64,
}

impl BatchSimulator {
    /// Builds a batch from prepared lanes.
    ///
    /// # Errors
    ///
    /// [`NodeError::InvalidParameter`] if `lanes` is empty, or if any
    /// lane's `tick_s` (compared bitwise) differs from lane 0's.
    pub fn new(lanes: Vec<PreparedSimulator>) -> Result<Self> {
        let first = lanes
            .first()
            .ok_or_else(|| NodeError::invalid("batch needs at least one lane"))?;
        let dt = first.cfg.tick_s;
        for (i, lane) in lanes.iter().enumerate() {
            if lane.cfg.tick_s.to_bits() != dt.to_bits() {
                return Err(NodeError::invalid(format!(
                    "lane {i} tick_s = {} differs from lane 0 tick_s = {dt}; \
                     batched lanes must share one tick length",
                    lane.cfg.tick_s
                )));
            }
        }
        Ok(BatchSimulator { lanes, dt })
    }

    /// Convenience constructor: prepares each configuration and batches
    /// the results.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PreparedSimulator::new`] failure, then
    /// [`BatchSimulator::new`] failures.
    pub fn from_configs(cfgs: Vec<NodeConfig>) -> Result<Self> {
        let lanes = cfgs
            .into_iter()
            .map(PreparedSimulator::new)
            .collect::<Result<Vec<_>>>()?;
        Self::new(lanes)
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Borrow of the lanes, in lane-index order.
    pub fn lanes(&self) -> &[PreparedSimulator] {
        &self.lanes
    }

    /// Runs every lane against one shared source for `duration_s`
    /// seconds, failing wholesale on the first lane error.
    ///
    /// # Errors
    ///
    /// [`NodeError::InvalidParameter`] for an invalid duration
    /// (rejected exactly as by [`PreparedSimulator::run`]); otherwise,
    /// if any lane fails mid-run, the error of the **smallest failing
    /// lane index**.
    pub fn run(&self, source: &dyn VibrationSource, duration_s: f64) -> Result<Vec<NodeMetrics>> {
        self.run_checkpoints(Excitation::Shared(source), &[duration_s])?
            .into_iter()
            .flatten()
            .collect()
    }

    /// Runs every lane once, to the last of `checkpoints` — run
    /// durations (s), nondecreasing — and snapshots every lane at each.
    /// The result is indexed `[checkpoint][lane]`, and entry `[c][i]` is
    /// bit-identical to running lane `i` alone against its source for
    /// `checkpoints[c]` seconds (see the module docs for the checkpoint
    /// contract). Lane failures do not disturb other lanes.
    ///
    /// # Errors
    ///
    /// [`NodeError::InvalidParameter`] if an [`Excitation::PerLane`]
    /// slice does not hold one source per lane, or for an empty,
    /// decreasing or invalid checkpoint list (each checkpoint is checked
    /// as a duration); per-lane failures are inside the returned
    /// vectors.
    pub fn run_checkpoints(
        &self,
        excitation: Excitation<'_>,
        checkpoints: &[f64],
    ) -> Result<Vec<Vec<Result<NodeMetrics>>>> {
        if let Excitation::PerLane(sources) = excitation {
            if sources.len() != self.lanes.len() {
                return Err(NodeError::invalid(format!(
                    "got {} sources for {} lanes",
                    sources.len(),
                    self.lanes.len()
                )));
            }
        }
        let ticks = checkpoint_ticks(checkpoints, self.dt)?;
        Ok(run_kernel(&self.lanes, excitation, &ticks, None))
    }
}

/// The tick loop, run in segments: after `ticks[c]` ticks (a validated,
/// nondecreasing list) it snapshots every lane, and the result is
/// indexed `[checkpoint][lane]`. Every lane must share lane 0's
/// `tick_s`, and an [`Excitation::PerLane`] slice must hold one source
/// per lane. With a trace, lane 0 is sampled every `stride` ticks (see
/// the module docs).
pub(crate) fn run_kernel(
    lanes: &[PreparedSimulator],
    excitation: Excitation<'_>,
    ticks: &[usize],
    mut trace: Option<(usize, &mut SystemTrace)>,
) -> Vec<Vec<Result<NodeMetrics>>> {
    let w = lanes.len();
    let dt = lanes.first().map_or(0.0, |lane| lane.cfg.tick_s);

    let consts: Vec<LaneConst> = lanes.iter().map(LaneConst::from_prepared).collect();
    let ppus: Vec<PreparedPpu> = consts.iter().map(|c| c.ppu).collect();

    // ---- per-lane hot state, SoA ----
    let mut v: Vec<f64> = consts.iter().map(|c| c.v_store0).collect();
    let mut pos: Vec<f64> = consts.iter().map(|c| c.initial_position).collect();
    let mut running: Vec<bool> = consts
        .iter()
        .zip(&v)
        .map(|(c, &v0)| c.thresholds.update(v0, false))
        .collect();
    let mut next_task_t = vec![0.0f64; w];
    let mut next_check_t = vec![0.0f64; w];
    let mut act_active = vec![false; w];
    let mut act_start = vec![0.0f64; w];
    let mut act_target = vec![0.0f64; w];
    let mut act_t0 = vec![0.0f64; w];
    let mut act_t1 = vec![0.0f64; w];
    let mut ema = vec![0.0f64; w];
    let mut ema_primed = vec![false; w];
    let mut pstate: Vec<PolicyState> = consts
        .iter()
        .map(|c| c.energy_policy.initial_state())
        .collect();

    // Thevenin memo.
    let mut thev_key = vec![(0u64, 0u64, 0u64); w];
    let mut thev_voc = vec![0.0f64; w];
    let mut thev_z = vec![Complex::real(0.0); w];
    let mut thev_primed = vec![false; w];

    // Metric accumulators.
    let mut packets = vec![0u64; w];
    let mut first_packet: Vec<Option<f64>> = vec![None; w];
    let mut uptime_ticks = vec![0usize; w];
    let mut brownouts = vec![0u32; w];
    let mut retunes = vec![0u32; w];
    let mut measurements = vec![0u32; w];
    let mut tuning_energy = vec![0.0f64; w];
    let mut harvested = vec![0.0f64; w];
    let mut consumed = vec![0.0f64; w];
    let mut min_v_after_on = vec![f64::INFINITY; w];
    let mut min_v = vec![f64::INFINITY; w];
    let mut ever_on: Vec<bool> = running.clone();

    // Lane liveness and captured errors.
    let mut alive = vec![true; w];
    let mut err: Vec<Option<NodeError>> = (0..w).map(|_| None).collect();
    let mut n_alive = w;

    // Per-tick scratch: envelope and PPU solve lane arrays.
    let mut env_f = vec![0.0f64; w];
    let mut env_a = vec![0.0f64; w];
    let mut in_voc = vec![0.0f64; w];
    let mut in_z = vec![Complex::real(0.0); w];
    let mut in_vst = vec![0.0f64; w];
    let mut solve_active = vec![false; w];
    let mut ops = vec![
        PpuOperatingPoint {
            p_store_w: 0.0,
            i_out_a: 0.0,
            v_in_amp: 0.0,
            p_in_w: 0.0,
            efficiency: 0.0,
        };
        w
    ];
    let mut ok = vec![false; w];
    let mut solver = BatchPpuSolver::new();

    let mut snapshots = Vec::with_capacity(ticks.len());
    let mut k_done = 0;
    for &k_end in ticks {
        for k in k_done..k_end {
            if n_alive == 0 {
                break;
            }
            let t = k as f64 * dt;
            match excitation {
                Excitation::Shared(source) => {
                    let env = source.envelope(t);
                    for i in 0..w {
                        env_f[i] = env.freq_hz;
                        env_a[i] = env.amp;
                    }
                }
                Excitation::PerLane(sources) => {
                    for i in 0..w {
                        if alive[i] {
                            let env = sources[i].envelope(t);
                            env_f[i] = env.freq_hz;
                            env_a[i] = env.amp;
                        }
                    }
                }
            }

            // Phase 1 — actuator motion, Thevenin memo, solve inputs.
            for i in 0..w {
                solve_active[i] = false;
                if !alive[i] {
                    continue;
                }
                let c = &consts[i];
                if act_active[i] {
                    if t >= act_t1[i] {
                        pos[i] = act_target[i];
                        act_active[i] = false;
                    } else {
                        let frac = (t - act_t0[i]) / (act_t1[i] - act_t0[i]);
                        pos[i] = act_start[i] + (act_target[i] - act_start[i]) * frac;
                    }
                }
                let key = (pos[i].to_bits(), env_f[i].to_bits(), env_a[i].to_bits());
                if !thev_primed[i] || key != thev_key[i] {
                    match c.harv.thevenin(pos[i], env_f[i], env_a[i]) {
                        Ok((voc, z)) => {
                            thev_voc[i] = voc;
                            thev_z[i] = z;
                            thev_key[i] = key;
                            thev_primed[i] = true;
                        }
                        Err(e) => {
                            alive[i] = false;
                            n_alive -= 1;
                            err[i] = Some(NodeError::Model(e.to_string()));
                            continue;
                        }
                    }
                }
                in_voc[i] = thev_voc[i];
                in_z[i] = thev_z[i];
                in_vst[i] = v[i];
                solve_active[i] = true;
            }

            // Phase 2 — all lanes' PPU fixed points, in lock-step.
            solver.solve(
                &ppus,
                &in_voc,
                &in_z,
                &env_f,
                &in_vst,
                &solve_active,
                &mut ops,
                &mut ok,
            );

            // Phase 3 — policy, consumption, storage, thresholds.
            for i in 0..w {
                if !solve_active[i] {
                    continue;
                }
                let c = &consts[i];
                if !ok[i] {
                    // Recover the scalar solve's exact error message.
                    let message = match c
                        .ppu
                        .operating_point(in_voc[i], in_z[i], env_f[i], in_vst[i])
                    {
                        Err(e) => e.to_string(),
                        Ok(_) => {
                            "batched PPU solve rejected inputs the scalar solve accepts".to_string()
                        }
                    };
                    alive[i] = false;
                    n_alive -= 1;
                    err[i] = Some(NodeError::Model(message));
                    continue;
                }
                let op = ops[i];
                let p_in = op.p_store_w;
                if !ema_primed[i] {
                    ema[i] = p_in;
                    ema_primed[i] = true;
                } else {
                    ema[i] = c.duty.update_ema(ema[i], p_in);
                }

                let policy_action = c.energy_policy.act(
                    &mut pstate[i],
                    &PolicyObs {
                        t_s: t,
                        dt_s: dt,
                        v_store: v[i],
                        v_on: c.thresholds.v_on,
                        v_off: c.thresholds.v_off,
                        p_harvest_w: p_in,
                        nominal_period_s: c.task_period_s,
                        p_idle_w: c.p_sleep_in,
                        e_cycle_j: c.e_cycle_in,
                        running: running[i],
                    },
                );

                let mut e_tick = 0.0f64;
                if running[i] {
                    e_tick += c.p_sleep_in * dt;

                    let mut fires: u64 = 0;
                    let mut saturated = false;
                    while next_task_t[i] <= t {
                        if fires >= c.max_fires_per_tick {
                            saturated = true;
                            break;
                        }
                        if !policy_action.skip_fire {
                            e_tick += c.e_cycle_in;
                            packets[i] += 1;
                            if first_packet[i].is_none() {
                                first_packet[i] = Some(t);
                            }
                        }
                        let period = c.duty.period_s(
                            c.task_period_s,
                            v[i],
                            c.thresholds.v_on,
                            c.thresholds.v_off,
                            ema[i],
                            c.p_sleep_in,
                            c.e_cycle_in,
                        ) * policy_action.period_scale;
                        next_task_t[i] += period.max(crate::sim::MIN_TASK_PERIOD_S);
                        fires += 1;
                    }
                    if saturated {
                        alive[i] = false;
                        n_alive -= 1;
                        err[i] = Some(task_saturation_error(dt, c.max_fires_per_tick));
                        continue;
                    }

                    if c.tuning.enabled && t >= next_check_t[i] {
                        e_tick += c.e_measure_in;
                        measurements[i] += 1;
                        next_check_t[i] = t + c.tuning.check_interval_s;
                        if !act_active[i] {
                            let resonance = c.harv.resonant_frequency(pos[i]);
                            if let Some(target) = c.tuning.decide(
                                env_f[i],
                                resonance,
                                |f| c.harv.position_for_frequency(f),
                                pos[i],
                            ) {
                                let move_time = c.tuning_params.tuning_time_s(pos[i], target);
                                act_start[i] = pos[i];
                                act_target[i] = target;
                                act_t0[i] = t;
                                act_t1[i] = t + move_time;
                                act_active[i] = true;
                                retunes[i] += 1;
                            }
                        }
                    }

                    if act_active[i] {
                        e_tick += c.e_act_tick;
                        tuning_energy[i] += c.e_act_tick;
                    }
                }

                let p_out = e_tick / dt;
                let (v_next, e_in) = c
                    .storage
                    .step_with_current_accounted(v[i], op.i_out_a, p_out, dt);
                v[i] = v_next;
                harvested[i] += e_in;
                consumed[i] += e_tick;

                let was_running = running[i];
                running[i] = c.thresholds.update(v[i], running[i]);
                if was_running && !running[i] {
                    brownouts[i] += 1;
                    act_active[i] = false;
                }
                if !was_running && running[i] {
                    next_task_t[i] = t + dt;
                    next_check_t[i] = t + dt;
                    ever_on[i] = true;
                }
                if running[i] {
                    uptime_ticks[i] += 1;
                    ever_on[i] = true;
                }
                if ever_on[i] {
                    min_v_after_on[i] = min_v_after_on[i].min(v[i]);
                }
                min_v[i] = min_v[i].min(v[i]);
            }

            if let (Some((stride, tr)), Some(c)) = (&mut trace, consts.first()) {
                if alive[0] && k % *stride == 0 {
                    tr.t.push(t);
                    tr.v_store.push(v[0]);
                    tr.resonance_hz.push(c.harv.resonant_frequency(pos[0]));
                    tr.ambient_hz.push(env_f[0]);
                    tr.p_harvest_w.push(ops[0].p_store_w);
                    tr.running.push(running[0]);
                }
            }
        }
        k_done = k_end;
        let duration = k_end as f64 * dt;
        let snapshot: Vec<_> = (0..w)
            .map(|i| match &err[i] {
                Some(e) => Err(e.clone()),
                None => Ok(NodeMetrics {
                    duration_s: duration,
                    packets_delivered: packets[i],
                    uptime_fraction: uptime_ticks[i] as f64 / k_end as f64,
                    brownout_count: brownouts[i],
                    retune_count: retunes[i],
                    measurement_count: measurements[i],
                    tuning_energy_j: tuning_energy[i],
                    harvested_energy_j: harvested[i],
                    consumed_energy_j: consumed[i],
                    min_v_store: if min_v_after_on[i].is_finite() {
                        min_v_after_on[i]
                    } else {
                        min_v[i]
                    },
                    final_v_store: v[i],
                    avg_harvest_power_w: harvested[i] / duration,
                    time_to_first_packet_s: first_packet[i],
                }),
            })
            .collect();
        snapshots.push(snapshot);
    }
    snapshots
}
