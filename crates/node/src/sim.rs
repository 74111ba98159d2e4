//! Discrete-time system-level simulator of the complete node.
//!
//! Advances the harvester (analytic Thevenin) → multiplier (behavioural
//! operating point) → supercapacitor → node (MCU/radio tasks, energy
//! management, tuning controller) with a fixed tick, producing the
//! performance indicators the DoE response surfaces are built from.
//!
//! # Energy-policy hook
//!
//! Each tick, the runtime energy-management policy
//! ([`NodeConfig::energy_policy`], an [`ehsim_policy::PolicyKind`])
//! observes the stored-energy and harvest state and returns an action
//! that may stretch the task period or skip firings for that tick. The
//! default `Static` policy returns the identity action, and the hook is
//! constructed so the identity action leaves every arithmetic operation
//! bit-identical to the pre-policy simulator — the equivalence suite
//! asserts this against [`SystemSimulator::run_reference`], which
//! predates (and ignores) the hook.
//!
//! The simulator is deterministic: identical configurations and sources
//! produce bit-identical metrics.
//!
//! # Hot path
//!
//! Every indicator of every DoE campaign is produced by one tick loop,
//! so it is the throughput bottleneck of the whole workspace. The
//! simulator is therefore split into a *preparation* stage and a *run*
//! stage:
//!
//! * [`PreparedSimulator`] validates the harvester, power-processing
//!   and node configs **once** at construction and precomputes every
//!   tick-invariant constant (task cycle energy, regulator-referred
//!   sleep/measure/actuator draws, the multiplier's droop numerator and
//!   diode drop, the dt-derived task-firing bound). The per-tick loop
//!   then contains no `validate()` calls and no error-path allocations.
//! * The harvester Thevenin equivalent is memoized on its exact
//!   `(position, frequency, amplitude)` inputs — under a stationary
//!   envelope it is computed once per actuator move instead of once per
//!   tick, with bit-identical results by construction.
//!
//! The production tick loop is the batched kernel of [`crate::batch`]:
//! [`PreparedSimulator::run`], [`PreparedSimulator::run_checkpoints`]
//! and [`PreparedSimulator::run_with_trace`] run the simulator as a
//! width-1 batch over a borrowed one-lane slice. Relative to the
//! *pre-refactor* simulator, the only intentional metric changes are
//! the three documented bugfixes (dt-derived task-firing bound,
//! never-on `min_v_store`, clamp-consistent `harvested_energy_j`),
//! none of which the shipped campaign workloads exercise.
//!
//! [`SystemSimulator::run_reference`] preserves the straight-line
//! per-tick implementation (re-validating sub-models every tick, no
//! memoization) as the frozen differential-testing oracle and as the
//! pre-refactor baseline for the `e10_hotpath` benchmark. It is the only
//! other tick loop in the workspace.

use crate::batch::{self, Excitation};
use crate::{NodeConfig, NodeError, Result};
use ehsim_harvester::PreparedHarvester;
use ehsim_power::PreparedPpu;
use ehsim_vibration::VibrationSource;

/// The floor the simulator applies to any task period returned by the
/// duty-cycle policy (s). Together with the tick length it bounds how
/// many times the task loop can fire within one tick, which is what
/// makes the per-tick firing bound derivable instead of a magic cap.
pub const MIN_TASK_PERIOD_S: f64 = 1e-3;

/// Upper bound on the number of ticks a single run may simulate
/// (2^53, the largest f64-exact integer). `duration_s / tick_s` above
/// this is rejected instead of silently saturating the `as usize`
/// cast at `usize::MAX` and turning the tick loop into an effectively
/// unbounded hang.
pub const MAX_TICKS: f64 = 9_007_199_254_740_992.0;

/// Validates a run duration against a tick length and returns the tick
/// count: `round(duration_s / dt)`, floored at one tick.
///
/// Shared by [`PreparedSimulator`], [`SystemSimulator::run_reference`]
/// and the batched kernel so every entry point applies the identical
/// guard: the duration must be positive **and finite** (the historical
/// `!(duration_s > 0.0)` guard admitted `f64::INFINITY`), and the
/// rounded tick count must not exceed [`MAX_TICKS`].
pub(crate) fn tick_count(duration_s: f64, dt: f64) -> Result<usize> {
    if !(duration_s > 0.0) || !duration_s.is_finite() {
        return Err(NodeError::invalid(format!(
            "duration must be positive and finite, got {duration_s}"
        )));
    }
    let n = (duration_s / dt).round().max(1.0);
    if n > MAX_TICKS {
        return Err(NodeError::invalid(format!(
            "duration of {duration_s} s at a {dt} s tick needs {n:.3e} ticks, \
             above the {MAX_TICKS:.3e}-tick bound"
        )));
    }
    Ok(n as usize)
}

/// Validates a checkpoint list — run durations (s), nondecreasing —
/// against a tick length and returns each checkpoint's tick count, as
/// [`tick_count`] computes it. Rounding is monotone, so the tick counts
/// are nondecreasing too; equal checkpoints are allowed.
pub(crate) fn checkpoint_ticks(checkpoints: &[f64], dt: f64) -> Result<Vec<usize>> {
    if checkpoints.is_empty() {
        return Err(NodeError::invalid("checkpoint list must not be empty"));
    }
    let mut ticks = Vec::with_capacity(checkpoints.len());
    for (c, &d) in checkpoints.iter().enumerate() {
        if c > 0 && d < checkpoints[c - 1] {
            return Err(NodeError::invalid(format!(
                "checkpoints must be nondecreasing: checkpoint {c} ({d} s) precedes \
                 checkpoint {} ({} s)",
                c - 1,
                checkpoints[c - 1]
            )));
        }
        ticks.push(tick_count(d, dt)?);
    }
    Ok(ticks)
}

/// Aggregated performance indicators of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeMetrics {
    /// Simulated duration (s).
    pub duration_s: f64,
    /// Application packets transmitted.
    pub packets_delivered: u64,
    /// Fraction of time the node was powered.
    pub uptime_fraction: f64,
    /// Number of brown-out events (on → off transitions).
    pub brownout_count: u32,
    /// Number of actuator retunes commanded.
    pub retune_count: u32,
    /// Number of frequency measurements taken.
    pub measurement_count: u32,
    /// Energy spent moving the tuning actuator (J).
    pub tuning_energy_j: f64,
    /// Energy harvested into storage (J).
    pub harvested_energy_j: f64,
    /// Energy drawn from storage by the node (J).
    pub consumed_energy_j: f64,
    /// Minimum storage voltage observed (V).
    ///
    /// Gated on the first power-up: once the node has been on, this is
    /// the minimum *after* that instant, so the brown-out margin
    /// indicator `min_v_store - v_off` measures how close a running
    /// node came to browning out rather than penalising the initial
    /// cold-start climb. If the node never turned on, the unconditional
    /// minimum over the whole run is reported (a node that decayed and
    /// partially recharged reports the bottom of the dip, not the final
    /// voltage).
    pub min_v_store: f64,
    /// Storage voltage at the end of the run (V).
    pub final_v_store: f64,
    /// Mean harvested power (W).
    pub avg_harvest_power_w: f64,
    /// Time of the first transmitted packet (s), or `None` if the node
    /// never delivered one.
    pub time_to_first_packet_s: Option<f64>,
}

/// Optional time series recorded alongside the metrics.
#[derive(Debug, Clone, Default)]
pub struct SystemTrace {
    /// Sample times (s).
    pub t: Vec<f64>,
    /// Storage voltage (V).
    pub v_store: Vec<f64>,
    /// Harvester resonance (Hz).
    pub resonance_hz: Vec<f64>,
    /// Ambient dominant frequency (Hz).
    pub ambient_hz: Vec<f64>,
    /// Instantaneous harvested power (W).
    pub p_harvest_w: Vec<f64>,
    /// Node powered state.
    pub running: Vec<bool>,
}

struct ActuatorMove {
    start_pos: f64,
    target_pos: f64,
    t_start: f64,
    t_end: f64,
}

/// A validated, precomputed simulator: the hot-path entry point.
///
/// Construction performs all configuration validation and precomputes
/// every tick-invariant quantity; [`PreparedSimulator::run`] may then
/// be called any number of times (e.g. once per scenario of an
/// ensemble) without re-paying either cost.
#[derive(Debug, Clone)]
pub struct PreparedSimulator {
    pub(crate) cfg: NodeConfig,
    pub(crate) harv: PreparedHarvester,
    pub(crate) ppu: PreparedPpu,
    /// Task cycle energy referred to the storage side of the regulator
    /// (J): `cycle_energy_j / regulator.efficiency`.
    pub(crate) e_cycle_in: f64,
    /// Regulator-referred sleep draw (W).
    pub(crate) p_sleep_in: f64,
    /// Regulator-referred tuning measurement energy (J).
    pub(crate) e_measure_in: f64,
    /// Regulator-referred actuator energy per tick while moving (J).
    pub(crate) e_act_tick: f64,
    /// dt-derived bound on task firings per tick (see
    /// [`MIN_TASK_PERIOD_S`]).
    pub(crate) max_fires_per_tick: u64,
}

impl PreparedSimulator {
    /// Validates the configuration and precomputes the tick-invariant
    /// constants.
    ///
    /// # Errors
    ///
    /// Propagates [`NodeConfig::validate`] failures.
    pub fn new(cfg: NodeConfig) -> Result<Self> {
        cfg.validate()?;
        let harv = cfg
            .harvester
            .prepared()
            .map_err(|e| NodeError::invalid(e.to_string()))?;
        let ppu = cfg
            .multiplier
            .prepared()
            .map_err(|e| NodeError::invalid(e.to_string()))?;
        let reg = &cfg.regulator;
        let e_cycle = cfg.task.cycle_energy_j(&cfg.mcu, &cfg.radio);
        let e_cycle_in = e_cycle / reg.efficiency;
        let p_sleep_in = reg.input_power(cfg.mcu.sleep_power_w);
        let e_measure_in = cfg.tuning.measure_energy_j / reg.efficiency;
        let e_act_tick = reg.input_power(cfg.harvester.tuning.actuator_power_w) * cfg.tick_s;
        let max_fires_per_tick = (cfg.tick_s / MIN_TASK_PERIOD_S).ceil() as u64 + 1; // lint:allow(D5): ceil of a finite positive ratio bounds fires per tick
        Ok(PreparedSimulator {
            cfg,
            harv,
            ppu,
            e_cycle_in,
            p_sleep_in,
            e_measure_in,
            e_act_tick,
            max_fires_per_tick,
        })
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Runs for `duration_s` seconds and returns the metrics.
    ///
    /// The run simulates `round(duration_s / tick_s)` ticks (at least
    /// one): a requested duration within half a tick of a whole tick
    /// count is realised exactly, and anything else is silently rounded
    /// by up to half a tick. [`NodeMetrics::duration_s`] always reports
    /// the realised duration `n_ticks * tick_s`, so rate-style
    /// indicators are normalised by what was actually simulated.
    ///
    /// # Errors
    ///
    /// [`NodeError::InvalidParameter`] for a duration that is not
    /// positive and finite or that needs more than
    /// [`MAX_TICKS`] ticks, or
    /// [`NodeError::Model`] if a sub-model fails mid-run or the task
    /// schedule saturates its per-tick firing bound.
    pub fn run(&self, source: &dyn VibrationSource, duration_s: f64) -> Result<NodeMetrics> {
        let ticks = [tick_count(duration_s, self.cfg.tick_s)?];
        self.run_lane(source, &ticks, None)
            .pop()
            .ok_or_else(no_snapshot)?
    }

    /// Runs once to the last of `checkpoints` — run durations (s),
    /// nondecreasing — and takes a snapshot at each. Snapshot `c` is
    /// bit-identical to [`PreparedSimulator::run`]`(source,
    /// checkpoints[c])`: the tick loop never reads the run's duration,
    /// so a shorter run is an exact prefix of a longer one.
    ///
    /// A run that fails at tick `j` is `Ok` at every checkpoint of at
    /// most `j` ticks and a clone of the failure at every later one —
    /// the error [`PreparedSimulator::run`] returns for those
    /// durations.
    ///
    /// # Errors
    ///
    /// [`NodeError::InvalidParameter`] for an empty or decreasing
    /// list, or for a checkpoint [`PreparedSimulator::run`] rejects as
    /// a duration. Mid-run failures are inside the returned vector.
    pub fn run_checkpoints(
        &self,
        source: &dyn VibrationSource,
        checkpoints: &[f64],
    ) -> Result<Vec<Result<NodeMetrics>>> {
        let ticks = checkpoint_ticks(checkpoints, self.cfg.tick_s)?;
        Ok(self.run_lane(source, &ticks, None))
    }

    /// Runs and additionally records a trace sampled every
    /// `trace_stride` ticks.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedSimulator::run`], plus rejection of a zero
    /// stride.
    pub fn run_with_trace(
        &self,
        source: &dyn VibrationSource,
        duration_s: f64,
        trace_stride: usize,
    ) -> Result<(NodeMetrics, SystemTrace)> {
        if trace_stride == 0 {
            return Err(NodeError::invalid("trace stride must be >= 1"));
        }
        let ticks = [tick_count(duration_s, self.cfg.tick_s)?];
        let mut trace = SystemTrace::default();
        let m = self
            .run_lane(source, &ticks, Some((trace_stride, &mut trace)))
            .pop()
            .ok_or_else(no_snapshot)??;
        Ok((m, trace))
    }

    /// Runs this simulator as a width-1 batch of the tick kernel and
    /// returns its snapshot after each of `ticks` (a validated,
    /// nondecreasing list of tick counts).
    fn run_lane(
        &self,
        source: &dyn VibrationSource,
        ticks: &[usize],
        trace: Option<(usize, &mut SystemTrace)>,
    ) -> Vec<Result<NodeMetrics>> {
        let lane = std::slice::from_ref(self);
        let snapshots = batch::run_kernel(lane, Excitation::Shared(source), ticks, trace);
        snapshots.into_iter().flatten().collect()
    }
}

/// The error for a run that produced no snapshot, which a validated
/// tick list rules out.
fn no_snapshot() -> NodeError {
    NodeError::invalid("the tick kernel returned no snapshot")
}

pub(crate) fn task_saturation_error(dt: f64, bound: u64) -> NodeError {
    NodeError::Model(format!(
        "task schedule saturated: more than {bound} task firings queued in one \
         {dt} s tick (period floor {MIN_TASK_PERIOD_S} s); the duty-cycle \
         policy is returning periods below the floor the simulator can resolve"
    ))
}

/// The system-level simulator.
///
/// A thin wrapper over [`PreparedSimulator`]: construction validates
/// and precomputes once, and every run is bit-identical to the
/// straight-line reference implementation
/// ([`SystemSimulator::run_reference`]).
#[derive(Debug, Clone)]
pub struct SystemSimulator {
    prepared: PreparedSimulator,
}

impl SystemSimulator {
    /// Creates a simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`NodeConfig::validate`] failures.
    pub fn new(cfg: NodeConfig) -> Result<Self> {
        Ok(SystemSimulator {
            prepared: PreparedSimulator::new(cfg)?,
        })
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &NodeConfig {
        self.prepared.config()
    }

    /// Runs for `duration_s` seconds and returns the metrics.
    ///
    /// # Errors
    ///
    /// [`NodeError::InvalidParameter`] for a non-positive duration, or
    /// [`NodeError::Model`] if a sub-model fails mid-run.
    pub fn run(&self, source: &dyn VibrationSource, duration_s: f64) -> Result<NodeMetrics> {
        self.prepared.run(source, duration_s)
    }

    /// Runs and additionally records a trace sampled every
    /// `trace_stride` ticks.
    ///
    /// # Errors
    ///
    /// Same as [`SystemSimulator::run`], plus rejection of a zero
    /// stride.
    pub fn run_with_trace(
        &self,
        source: &dyn VibrationSource,
        duration_s: f64,
        trace_stride: usize,
    ) -> Result<(NodeMetrics, SystemTrace)> {
        self.prepared
            .run_with_trace(source, duration_s, trace_stride)
    }

    /// The straight-line reference implementation: semantically
    /// identical to [`SystemSimulator::run`] but structured the way the
    /// simulator was before the hot-path refactor — every sub-model is
    /// re-validated on every tick and the Thevenin equivalent is
    /// recomputed from scratch.
    ///
    /// Kept for two purposes: it is the frozen differential-testing
    /// oracle the equivalence suites compare the batched tick kernel
    /// against (bit-identical metrics required), and it is the "pre-PR"
    /// baseline the `e10_hotpath` benchmark measures speed-ups from.
    ///
    /// The reference predates the runtime energy-management hook and
    /// deliberately ignores [`NodeConfig::energy_policy`] — it always
    /// behaves as `PolicyKind::Static`, which is exactly what makes it
    /// the oracle proving the `Static` default is bit-identical to the
    /// pre-policy simulator.
    ///
    /// # Errors
    ///
    /// Same as [`SystemSimulator::run`].
    pub fn run_reference(
        &self,
        source: &dyn VibrationSource,
        duration_s: f64,
    ) -> Result<NodeMetrics> {
        let cfg = self.config();
        let dt = cfg.tick_s;
        let n_ticks = tick_count(duration_s, dt)?;
        let e_cycle = cfg.task.cycle_energy_j(&cfg.mcu, &cfg.radio);
        let reg = &cfg.regulator;
        let max_fires = (dt / MIN_TASK_PERIOD_S).ceil() as u64 + 1; // lint:allow(D5): ceil of a finite positive ratio bounds fires per tick

        let mut v = cfg.v_store0;
        let mut pos = cfg.initial_position;
        let mut running = cfg.thresholds.update(v, false);
        let mut next_task_t = 0.0f64;
        let mut next_check_t = 0.0f64;
        let mut actuator: Option<ActuatorMove> = None;
        let mut ema = 0.0f64;
        let mut ema_primed = false;

        let mut packets: u64 = 0;
        let mut first_packet: Option<f64> = None;
        let mut uptime_ticks: usize = 0;
        let mut brownouts: u32 = 0;
        let mut retunes: u32 = 0;
        let mut measurements: u32 = 0;
        let mut tuning_energy = 0.0f64;
        let mut harvested = 0.0f64;
        let mut consumed = 0.0f64;
        let mut min_v_after_on = f64::INFINITY;
        let mut min_v = f64::INFINITY;
        let mut ever_on = running;

        for k in 0..n_ticks {
            let t = k as f64 * dt;
            let env = source.envelope(t);

            if let Some(mv) = &actuator {
                if t >= mv.t_end {
                    pos = mv.target_pos;
                    actuator = None;
                } else {
                    let frac = (t - mv.t_start) / (mv.t_end - mv.t_start);
                    pos = mv.start_pos + (mv.target_pos - mv.start_pos) * frac;
                }
            }

            let (v_oc, z_src) = cfg
                .harvester
                .thevenin(pos, env.freq_hz, env.amp)
                .map_err(|e| NodeError::Model(e.to_string()))?;
            let op = cfg
                .multiplier
                .operating_point(v_oc, z_src, env.freq_hz, v)
                .map_err(|e| NodeError::Model(e.to_string()))?;
            let p_in = op.p_store_w;
            if !ema_primed {
                ema = p_in;
                ema_primed = true;
            } else {
                ema = cfg.policy.update_ema(ema, p_in);
            }

            let mut e_tick = 0.0f64;
            if running {
                e_tick += reg.input_power(cfg.mcu.sleep_power_w) * dt;

                let mut fires: u64 = 0;
                while next_task_t <= t {
                    if fires >= max_fires {
                        return Err(task_saturation_error(dt, max_fires));
                    }
                    e_tick += e_cycle / reg.efficiency;
                    packets += 1;
                    if first_packet.is_none() {
                        first_packet = Some(t);
                    }
                    let period = cfg.policy.period_s(
                        cfg.task.period_s,
                        v,
                        cfg.thresholds.v_on,
                        cfg.thresholds.v_off,
                        ema,
                        reg.input_power(cfg.mcu.sleep_power_w),
                        e_cycle / reg.efficiency,
                    );
                    next_task_t += period.max(MIN_TASK_PERIOD_S);
                    fires += 1;
                }

                if cfg.tuning.enabled && t >= next_check_t {
                    e_tick += cfg.tuning.measure_energy_j / reg.efficiency;
                    measurements += 1;
                    next_check_t = t + cfg.tuning.check_interval_s;
                    if actuator.is_none() {
                        let resonance = cfg.harvester.resonant_frequency(pos);
                        if let Some(target) = cfg.tuning.decide(
                            env.freq_hz,
                            resonance,
                            |f| cfg.harvester.position_for_frequency(f),
                            pos,
                        ) {
                            let move_time = cfg.harvester.tuning.tuning_time_s(pos, target);
                            actuator = Some(ActuatorMove {
                                start_pos: pos,
                                target_pos: target,
                                t_start: t,
                                t_end: t + move_time,
                            });
                            retunes += 1;
                        }
                    }
                }

                if actuator.is_some() {
                    let e_act = reg.input_power(cfg.harvester.tuning.actuator_power_w) * dt;
                    e_tick += e_act;
                    tuning_energy += e_act;
                }
            }

            let p_out = e_tick / dt;
            let (v_next, e_in) = cfg
                .storage
                .step_with_current_accounted(v, op.i_out_a, p_out, dt);
            v = v_next;
            harvested += e_in;
            consumed += e_tick;

            let was_running = running;
            running = cfg.thresholds.update(v, running);
            if was_running && !running {
                brownouts += 1;
                actuator = None;
            }
            if !was_running && running {
                next_task_t = t + dt;
                next_check_t = t + dt;
                ever_on = true;
            }
            if running {
                uptime_ticks += 1;
                ever_on = true;
            }
            if ever_on {
                min_v_after_on = min_v_after_on.min(v);
            }
            min_v = min_v.min(v);
        }

        let duration = n_ticks as f64 * dt;
        Ok(NodeMetrics {
            duration_s: duration,
            packets_delivered: packets,
            uptime_fraction: uptime_ticks as f64 / n_ticks as f64,
            brownout_count: brownouts,
            retune_count: retunes,
            measurement_count: measurements,
            tuning_energy_j: tuning_energy,
            harvested_energy_j: harvested,
            consumed_energy_j: consumed,
            min_v_store: if min_v_after_on.is_finite() {
                min_v_after_on
            } else {
                min_v
            },
            final_v_store: v,
            avg_harvest_power_w: harvested / duration,
            time_to_first_packet_s: first_packet,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DutyCyclePolicy;
    use ehsim_vibration::{DriftSchedule, DutyCycled, Sine};

    fn resonant_sine(cfg: &NodeConfig, amp: f64) -> Sine {
        let f = cfg.harvester.resonant_frequency(cfg.initial_position);
        Sine::new(amp, f).expect("valid source")
    }

    #[test]
    fn sustained_operation_on_resonance() {
        let cfg = NodeConfig::default_node();
        let src = resonant_sine(&cfg, 1.0);
        let m = SystemSimulator::new(cfg)
            .unwrap()
            .run(&src, 1200.0)
            .unwrap();
        assert!(m.packets_delivered > 10, "{m:?}");
        assert!(m.uptime_fraction > 0.99, "{m:?}");
        assert_eq!(m.brownout_count, 0, "{m:?}");
        assert!(m.avg_harvest_power_w > 5e-6, "{m:?}");
        assert!(m.time_to_first_packet_s.is_some());
    }

    #[test]
    fn determinism() {
        let cfg = NodeConfig::default_node();
        let src = resonant_sine(&cfg, 0.8);
        let sim = SystemSimulator::new(cfg).unwrap();
        let a = sim.run(&src, 600.0).unwrap();
        let b = sim.run(&src, 600.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn detuned_harvest_is_much_weaker() {
        let mut cfg = NodeConfig::default_node();
        cfg.tuning.enabled = false;
        let f_res = cfg.harvester.resonant_frequency(cfg.initial_position);
        let on = Sine::new(0.8, f_res).unwrap();
        let off = Sine::new(0.8, f_res + 12.0).unwrap();
        let sim = SystemSimulator::new(cfg).unwrap();
        let m_on = sim.run(&on, 600.0).unwrap();
        let m_off = sim.run(&off, 600.0).unwrap();
        assert!(
            m_on.avg_harvest_power_w > 5.0 * m_off.avg_harvest_power_w,
            "on={} off={}",
            m_on.avg_harvest_power_w,
            m_off.avg_harvest_power_w
        );
    }

    #[test]
    fn tuning_controller_tracks_drift() {
        let mut cfg = NodeConfig::default_node();
        cfg.tuning.check_interval_s = 30.0;
        cfg.initial_position = cfg.harvester.position_for_frequency(60.0);
        // Drift from 60 Hz to 72 Hz over 20 minutes.
        let src = DriftSchedule::new(vec![(0.0, 60.0), (1200.0, 72.0)], 0.8).unwrap();
        let sim = SystemSimulator::new(cfg).unwrap();
        let (m, tr) = sim.run_with_trace(&src, 1800.0, 50).unwrap();
        assert!(m.retune_count >= 2, "{m:?}");
        // At the end the resonance must sit near the ambient frequency.
        let f_res_end = *tr.resonance_hz.last().unwrap();
        let f_amb_end = *tr.ambient_hz.last().unwrap();
        assert!(
            (f_res_end - f_amb_end).abs() < 2.0,
            "res={f_res_end} amb={f_amb_end}"
        );
        assert!(m.tuning_energy_j > 0.0);
    }

    #[test]
    fn tuning_beats_no_tuning_under_drift() {
        let base = {
            let mut c = NodeConfig::default_node();
            c.initial_position = c.harvester.position_for_frequency(58.0);
            c.storage.capacitance = 0.1;
            c
        };
        let src = DriftSchedule::new(vec![(0.0, 58.0), (900.0, 70.0)], 0.8).unwrap();
        let tuned = SystemSimulator::new(base.clone())
            .unwrap()
            .run(&src, 1800.0)
            .unwrap();
        let mut cfg_off = base;
        cfg_off.tuning.enabled = false;
        let untuned = SystemSimulator::new(cfg_off)
            .unwrap()
            .run(&src, 1800.0)
            .unwrap();
        assert!(
            tuned.harvested_energy_j > 1.5 * untuned.harvested_energy_j,
            "tuned={} untuned={}",
            tuned.harvested_energy_j,
            untuned.harvested_energy_j
        );
    }

    #[test]
    fn fixed_policy_browns_out_where_energy_neutral_survives() {
        // ~5 µW harvest: far below the ~70 µW a 1 s fixed period needs,
        // but enough for the stretched energy-neutral schedule.
        let weak_amp = 0.7;
        let mut fixed = NodeConfig::default_node();
        fixed.tuning.enabled = false;
        fixed.policy = DutyCyclePolicy::Fixed;
        fixed.task.period_s = 1.0;
        fixed.storage.capacitance = 0.02;
        let src = resonant_sine(&fixed, weak_amp);

        let mut adaptive = fixed.clone();
        adaptive.policy = DutyCyclePolicy::default();

        let m_fixed = SystemSimulator::new(fixed)
            .unwrap()
            .run(&src, 3600.0)
            .unwrap();
        let m_adapt = SystemSimulator::new(adaptive)
            .unwrap()
            .run(&src, 3600.0)
            .unwrap();
        assert!(m_fixed.brownout_count > 0, "{m_fixed:?}");
        assert_eq!(m_adapt.brownout_count, 0, "{m_adapt:?}");
        // The adaptive node sacrifices packet rate to stay alive.
        assert!(m_adapt.packets_delivered < m_fixed.packets_delivered);
        assert!(m_adapt.uptime_fraction > m_fixed.uptime_fraction);
    }

    #[test]
    fn cold_start_from_empty_storage() {
        let mut cfg = NodeConfig::default_node();
        cfg.v_store0 = 0.0;
        cfg.storage.capacitance = 2e-3;
        cfg.tuning.enabled = false;
        let src = resonant_sine(&cfg, 1.0);
        let m = SystemSimulator::new(cfg)
            .unwrap()
            .run(&src, 3600.0)
            .unwrap();
        // The node must eventually cold-start and deliver packets.
        assert!(m.uptime_fraction > 0.0, "{m:?}");
        assert!(m.time_to_first_packet_s.unwrap_or(f64::INFINITY) > 60.0);
        assert!(m.packets_delivered > 0);
    }

    #[test]
    fn energy_bookkeeping_consistent() {
        let cfg = NodeConfig::default_node();
        let src = resonant_sine(&cfg, 0.9);
        let sim = SystemSimulator::new(cfg.clone()).unwrap();
        let m = sim.run(&src, 900.0).unwrap();
        let e0 = cfg.storage.energy_j(cfg.v_store0);
        let e1 = cfg.storage.energy_j(m.final_v_store);
        // harvested - consumed - leakage = ΔE; leakage is small but
        // positive, so the balance must close within a few percent.
        let balance = m.harvested_energy_j - m.consumed_energy_j - (e1 - e0);
        let leak_bound = cfg.storage.v_rated.powi(2) / cfg.storage.leak_resistance * 900.0;
        assert!(
            balance >= -1e-6 && balance <= leak_bound * 2.0 + 1e-6,
            "balance = {balance}, leak bound = {leak_bound}"
        );
    }

    #[test]
    fn energy_bookkeeping_consistent_at_rated_voltage() {
        // Pin the storage at the rated voltage: the shunt regulator
        // dumps most of the pump current, and the harvest ledger must
        // count only the energy the capacitor actually absorbed (the
        // old separately clamped mid-voltage accounting counted the
        // dumped charge as harvested and blew the balance open).
        let mut cfg = NodeConfig::default_node();
        cfg.tuning.enabled = false;
        cfg.storage.capacitance = 1e-3;
        // Keep the node off throughout (v_on above the rated rail) so
        // the run isolates the charge-clamp accounting.
        cfg.thresholds.v_on = 6.0;
        cfg.thresholds.v_off = 5.0;
        cfg.v_store0 = 5.2;
        let src = resonant_sine(&cfg, 1.0);
        let horizon = 900.0;
        let m = SystemSimulator::new(cfg.clone())
            .unwrap()
            .run(&src, horizon)
            .unwrap();
        assert!(
            (m.final_v_store - cfg.storage.v_rated).abs() < 0.05,
            "expected the rail to pin near rated, got {}",
            m.final_v_store
        );
        let e0 = cfg.storage.energy_j(cfg.v_store0);
        let e1 = cfg.storage.energy_j(m.final_v_store);
        let balance = m.harvested_energy_j - m.consumed_energy_j - (e1 - e0);
        let leak_bound = cfg.storage.v_rated.powi(2) / cfg.storage.leak_resistance * horizon;
        assert!(
            balance >= -1e-6 && balance <= leak_bound * 2.0 + 1e-6,
            "balance = {balance}, leak bound = {leak_bound}"
        );
    }

    #[test]
    fn trace_shapes_match() {
        let cfg = NodeConfig::default_node();
        let src = resonant_sine(&cfg, 0.8);
        let (m, tr) = SystemSimulator::new(cfg)
            .unwrap()
            .run_with_trace(&src, 60.0, 10)
            .unwrap();
        assert_eq!(tr.t.len(), tr.v_store.len());
        assert_eq!(tr.t.len(), tr.resonance_hz.len());
        assert_eq!(tr.t.len(), tr.p_harvest_w.len());
        assert!(tr.t.len() >= 59);
        assert!(m.duration_s >= 59.9);
    }

    #[test]
    fn higher_tx_power_costs_more_energy() {
        let mut low = NodeConfig::default_node();
        low.tuning.enabled = false;
        low.policy = DutyCyclePolicy::Fixed;
        low.task.period_s = 5.0;
        low.radio.tx_power_dbm = -10.0;
        let mut high = low.clone();
        high.radio.tx_power_dbm = 4.0;
        let src = resonant_sine(&low, 0.9);
        let m_low = SystemSimulator::new(low).unwrap().run(&src, 900.0).unwrap();
        let m_high = SystemSimulator::new(high)
            .unwrap()
            .run(&src, 900.0)
            .unwrap();
        // Same packet count (fixed period), strictly more energy.
        assert_eq!(m_low.packets_delivered, m_high.packets_delivered);
        assert!(
            m_high.consumed_energy_j > m_low.consumed_energy_j * 1.05,
            "high {} vs low {}",
            m_high.consumed_energy_j,
            m_low.consumed_energy_j
        );
    }

    #[test]
    fn storage_linear_policy_stretches_under_deficit() {
        let mut cfg = NodeConfig::default_node();
        cfg.tuning.enabled = false;
        cfg.policy = DutyCyclePolicy::StorageLinear { max_stretch: 10.0 };
        cfg.task.period_s = 2.0;
        cfg.storage.capacitance = 0.05;
        // Weak vibration: the node cannot sustain 2 s sampling.
        let src = resonant_sine(&cfg, 0.6);
        let m = SystemSimulator::new(cfg.clone())
            .unwrap()
            .run(&src, 3600.0)
            .unwrap();
        // The policy stretched the period: far fewer packets than the
        // nominal 1800, but more than the fully stretched 180.
        assert!(
            m.packets_delivered < 1700 && m.packets_delivered > 180,
            "{m:?}"
        );
    }

    #[test]
    fn nan_amplitude_component_is_a_model_error() {
        use ehsim_vibration::{Composite, Envelope};
        struct NanAmplitude;
        impl VibrationSource for NanAmplitude {
            fn acceleration(&self, _t: f64) -> f64 {
                0.0
            }
            fn envelope(&self, _t: f64) -> Envelope {
                Envelope {
                    freq_hz: 60.0,
                    amp: f64::NAN,
                }
            }
        }
        let cfg = NodeConfig::default_node();
        let src = Composite::new(vec![
            Box::new(resonant_sine(&cfg, 1.0)),
            Box::new(NanAmplitude),
        ])
        .unwrap();
        let got = PreparedSimulator::new(cfg).unwrap().run(&src, 60.0);
        assert!(matches!(got, Err(NodeError::Model(_))), "{got:?}");
    }

    #[test]
    fn invalid_duration_and_stride() {
        let cfg = NodeConfig::default_node();
        let src = resonant_sine(&cfg, 0.8);
        let sim = SystemSimulator::new(cfg).unwrap();
        assert!(sim.run(&src, 0.0).is_err());
        assert!(sim.run_reference(&src, 0.0).is_err());
        assert!(sim.run_with_trace(&src, 10.0, 0).is_err());
    }

    #[test]
    fn non_finite_and_overflowing_durations_rejected() {
        // Regression: the old `!(duration_s > 0.0)` guard admitted
        // +INFINITY, whose tick count saturates `as usize` at
        // usize::MAX and hangs the tick loop for ~centuries. Every
        // entry point must reject it, and NaN, and any finite duration
        // whose tick count exceeds MAX_TICKS.
        let cfg = NodeConfig::default_node();
        let src = resonant_sine(&cfg, 0.8);
        let sim = SystemSimulator::new(cfg).unwrap();
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0] {
            assert!(sim.run(&src, bad).is_err(), "run({bad})");
            assert!(
                sim.run_reference(&src, bad).is_err(),
                "run_reference({bad})"
            );
            assert!(
                sim.run_with_trace(&src, bad, 7).is_err(),
                "run_with_trace({bad})"
            );
        }
        // 1e300 s at a 1 s tick is finite but needs ~1e300 ticks.
        let huge = 1e300;
        let err = sim.run(&src, huge).unwrap_err().to_string();
        assert!(err.contains("tick"), "unexpected message: {err}");
        assert!(sim.run_reference(&src, huge).is_err());
        // The bound itself is fine to sit just under (no run — just the
        // tick_count contract).
        assert_eq!(tick_count(8.0, 2.0).unwrap(), 4);
        assert!(tick_count(MAX_TICKS * 4.0, 2.0).is_err());
    }

    #[test]
    fn duration_rounds_to_nearest_whole_tick() {
        // Documented half-tick behaviour: round(duration / dt) ticks,
        // floored at one, with the realised duration reported back.
        let mut cfg = NodeConfig::default_node();
        cfg.tick_s = 0.1;
        let src = resonant_sine(&cfg, 0.8);
        let sim = SystemSimulator::new(cfg).unwrap();
        // 10.04 s at dt = 0.1 → 100 ticks (truncated by 0.04 s).
        let m = sim.run(&src, 10.04).unwrap();
        assert_eq!(m.duration_s.to_bits(), (100.0f64 * 0.1).to_bits());
        // 10.06 s → 101 ticks (extended by 0.04 s).
        let m = sim.run(&src, 10.06).unwrap();
        assert_eq!(m.duration_s.to_bits(), (101.0f64 * 0.1).to_bits());
        // Sub-tick durations are floored at one tick.
        let m = sim.run(&src, 1e-6).unwrap();
        assert_eq!(m.duration_s.to_bits(), 0.1f64.to_bits());
    }

    // ---- hot-path refactor equivalence & bugfix coverage ----

    fn assert_metrics_bitwise_eq(a: &NodeMetrics, b: &NodeMetrics, what: &str) {
        assert_eq!(a.packets_delivered, b.packets_delivered, "{what}");
        assert_eq!(a.brownout_count, b.brownout_count, "{what}");
        assert_eq!(a.retune_count, b.retune_count, "{what}");
        assert_eq!(a.measurement_count, b.measurement_count, "{what}");
        for (x, y, f) in [
            (a.uptime_fraction, b.uptime_fraction, "uptime"),
            (a.tuning_energy_j, b.tuning_energy_j, "tuning_energy"),
            (a.harvested_energy_j, b.harvested_energy_j, "harvested"),
            (a.consumed_energy_j, b.consumed_energy_j, "consumed"),
            (a.min_v_store, b.min_v_store, "min_v"),
            (a.final_v_store, b.final_v_store, "final_v"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {f}: {x} vs {y}");
        }
        assert_eq!(a.time_to_first_packet_s, b.time_to_first_packet_s, "{what}");
    }

    #[test]
    fn prepared_exact_is_bit_identical_to_reference() {
        // The prepared hot path (validate-once, precomputed constants,
        // Thevenin memoization, prepared cold solver) must reproduce
        // the straight-line reference implementation bit for bit, on
        // stationary, drifting, weak, and cold-start workloads.
        let mut cases: Vec<(NodeConfig, Box<dyn VibrationSource>, f64)> = Vec::new();
        let base = NodeConfig::default_node();
        cases.push((base.clone(), Box::new(resonant_sine(&base, 0.9)), 900.0));
        let mut weak = NodeConfig::default_node();
        weak.storage.capacitance = 0.02;
        cases.push((weak.clone(), Box::new(resonant_sine(&weak, 0.6)), 1800.0));
        let mut cold = NodeConfig::default_node();
        cold.v_store0 = 0.0;
        cold.storage.capacitance = 2e-3;
        cases.push((cold.clone(), Box::new(resonant_sine(&cold, 1.0)), 1200.0));
        let mut drift = NodeConfig::default_node();
        drift.initial_position = drift.harvester.position_for_frequency(60.0);
        cases.push((
            drift,
            Box::new(DriftSchedule::new(vec![(0.0, 60.0), (1200.0, 72.0)], 0.8).unwrap()),
            1500.0,
        ));
        for (i, (cfg, src, dur)) in cases.iter().enumerate() {
            let sim = SystemSimulator::new(cfg.clone()).unwrap();
            let fast = sim.run(src.as_ref(), *dur).unwrap();
            let oracle = sim.run_reference(src.as_ref(), *dur).unwrap();
            assert_metrics_bitwise_eq(&fast, &oracle, &format!("case {i}"));
        }
    }

    #[test]
    fn coarse_tick_fast_task_no_longer_saturates() {
        // dt = 5 s with a 10 ms fixed period queues 500 firings per
        // tick — under the old hard-coded `fires < 1000` cap this was
        // fine, but dt = 10 s with a 5 ms period queues 2000 and was
        // silently truncated to 1000, undercounting packets with no
        // signal. The dt-derived bound admits every firing the period
        // floor allows.
        let mut cfg = NodeConfig::default_node();
        cfg.tuning.enabled = false;
        cfg.policy = DutyCyclePolicy::Fixed;
        cfg.tick_s = 10.0;
        cfg.task.period_s = 5e-3;
        // Plenty of stored energy so the node stays on throughout.
        cfg.storage.capacitance = 5e3;
        cfg.v_store0 = 5.0;
        let src = resonant_sine(&cfg, 0.9);
        let m = SystemSimulator::new(cfg).unwrap().run(&src, 100.0).unwrap();
        // The schedule catches up to the last tick time (90 s): 1 +
        // 90 s / 5 ms = 18 001 packets. The old cap delivered at most
        // 1000 per 10 s tick — 9001 — with no indication of loss.
        assert!(
            m.packets_delivered > 17_500,
            "undercounted: {}",
            m.packets_delivered
        );
        assert_eq!(m.brownout_count, 0);
    }

    // ---- runtime energy-policy hook ----

    #[test]
    fn static_energy_policy_is_bit_identical_to_pre_policy_simulator() {
        // The full node matrix: every duty-cycle policy family crossed
        // with stationary, weak, cold-start, and drifting workloads.
        // `run_reference` predates the energy-policy hook, so bitwise
        // equality here proves the default `Static` policy reproduces
        // the pre-PR simulator exactly.
        let duty_policies = [
            DutyCyclePolicy::Fixed,
            DutyCyclePolicy::StorageLinear { max_stretch: 6.0 },
            DutyCyclePolicy::default(),
        ];
        let mut cases: Vec<(NodeConfig, Box<dyn VibrationSource>, f64)> = Vec::new();
        for duty in duty_policies {
            let mut base = NodeConfig::default_node();
            base.policy = duty;
            cases.push((base.clone(), Box::new(resonant_sine(&base, 0.9)), 900.0));
            let mut weak = base.clone();
            weak.storage.capacitance = 0.02;
            cases.push((weak.clone(), Box::new(resonant_sine(&weak, 0.6)), 1200.0));
            let mut cold = base.clone();
            cold.v_store0 = 0.0;
            cold.storage.capacitance = 2e-3;
            cases.push((cold.clone(), Box::new(resonant_sine(&cold, 1.0)), 900.0));
            let mut drift = base;
            drift.initial_position = drift.harvester.position_for_frequency(60.0);
            cases.push((
                drift,
                Box::new(DriftSchedule::new(vec![(0.0, 60.0), (900.0, 72.0)], 0.8).unwrap()),
                1100.0,
            ));
        }
        for (i, (cfg, src, dur)) in cases.iter().enumerate() {
            assert_eq!(cfg.energy_policy, ehsim_policy::PolicyKind::Static);
            let sim = SystemSimulator::new(cfg.clone()).unwrap();
            let hooked = sim.run(src.as_ref(), *dur).unwrap();
            let pre_policy = sim.run_reference(src.as_ref(), *dur).unwrap();
            assert_metrics_bitwise_eq(&hooked, &pre_policy, &format!("matrix case {i}"));
        }
    }

    #[test]
    fn threshold_policy_prevents_brownouts_under_weak_harvest() {
        // Same workload as fixed_policy_browns_out_...: a fixed 1 s
        // period far outruns the ~5 µW harvest. The threshold policy
        // throttles 20x near the brown-out band and must keep the node
        // alive where the static node power-cycles.
        let mut static_cfg = NodeConfig::default_node();
        static_cfg.tuning.enabled = false;
        static_cfg.policy = DutyCyclePolicy::Fixed;
        static_cfg.task.period_s = 1.0;
        static_cfg.storage.capacitance = 0.02;
        let src = resonant_sine(&static_cfg, 0.7);

        let mut throttled = static_cfg.clone();
        throttled.energy_policy = ehsim_policy::PolicyKind::Threshold(ehsim_policy::Threshold {
            v_low: 2.8,
            v_high: 3.2,
            throttle_scale: 20.0,
            skip_while_throttled: false,
        });

        let m_static = SystemSimulator::new(static_cfg)
            .unwrap()
            .run(&src, 3600.0)
            .unwrap();
        let m_thr = SystemSimulator::new(throttled)
            .unwrap()
            .run(&src, 3600.0)
            .unwrap();
        assert!(m_static.brownout_count > 0, "{m_static:?}");
        assert_eq!(m_thr.brownout_count, 0, "{m_thr:?}");
        assert!(m_thr.uptime_fraction > m_static.uptime_fraction);
    }

    #[test]
    fn threshold_skip_variant_delivers_fewer_packets_while_throttled() {
        let mut base = NodeConfig::default_node();
        base.tuning.enabled = false;
        base.policy = DutyCyclePolicy::Fixed;
        base.task.period_s = 1.0;
        base.storage.capacitance = 0.02;
        let src = resonant_sine(&base, 0.7);
        let thr = ehsim_policy::Threshold {
            v_low: 2.8,
            v_high: 3.2,
            throttle_scale: 4.0,
            skip_while_throttled: false,
        };
        let mut keep = base.clone();
        keep.energy_policy = ehsim_policy::PolicyKind::Threshold(thr);
        let mut skip = base;
        skip.energy_policy = ehsim_policy::PolicyKind::Threshold(ehsim_policy::Threshold {
            skip_while_throttled: true,
            ..thr
        });
        let m_keep = SystemSimulator::new(keep)
            .unwrap()
            .run(&src, 1800.0)
            .unwrap();
        let m_skip = SystemSimulator::new(skip)
            .unwrap()
            .run(&src, 1800.0)
            .unwrap();
        // Skipping fires spends less and sends less.
        assert!(m_skip.packets_delivered < m_keep.packets_delivered);
        assert!(m_skip.consumed_energy_j < m_keep.consumed_energy_j);
    }

    #[test]
    fn energy_aware_policy_paces_consumption_to_harvest() {
        // Weak harvest, aggressive 1 s nominal period: the energy-aware
        // policy must stretch the schedule to what the environment
        // funds, avoiding brown-outs without any voltage-band tuning.
        let mut cfg = NodeConfig::default_node();
        cfg.tuning.enabled = false;
        cfg.policy = DutyCyclePolicy::Fixed;
        cfg.task.period_s = 1.0;
        cfg.storage.capacitance = 0.02;
        let src = resonant_sine(&cfg, 0.7);
        let mut aware = cfg.clone();
        aware.energy_policy =
            ehsim_policy::PolicyKind::EnergyAware(ehsim_policy::EnergyAware::default());
        let m_static = SystemSimulator::new(cfg)
            .unwrap()
            .run(&src, 3600.0)
            .unwrap();
        let m_aware = SystemSimulator::new(aware)
            .unwrap()
            .run(&src, 3600.0)
            .unwrap();
        assert!(m_static.brownout_count > 0, "{m_static:?}");
        assert_eq!(m_aware.brownout_count, 0, "{m_aware:?}");
        // Pacing trades packets for availability.
        assert!(m_aware.packets_delivered < m_static.packets_delivered);
        assert!(m_aware.uptime_fraction > m_static.uptime_fraction);
    }

    #[test]
    fn invalid_energy_policy_rejected_at_construction() {
        let mut cfg = NodeConfig::default_node();
        cfg.energy_policy = ehsim_policy::PolicyKind::Threshold(ehsim_policy::Threshold {
            v_low: 3.0,
            v_high: 2.0,
            throttle_scale: 4.0,
            skip_while_throttled: false,
        });
        assert!(SystemSimulator::new(cfg).is_err());
    }

    #[test]
    fn min_v_store_tracks_dip_when_node_never_turns_on() {
        // Never-on node with a V-shaped voltage history: the source is
        // off for the middle third (storage decays), then back on
        // (storage partially recharges, but the charging equilibrium
        // sits below v_on). The reported minimum must be the bottom of
        // the dip, not the recovered final voltage.
        let mut cfg = NodeConfig::default_node();
        cfg.tuning.enabled = false;
        cfg.storage.capacitance = 2e-5; // fast storage dynamics
        cfg.v_store0 = 3.0; // below v_on = 3.3: starts off
        let f = cfg.harvester.resonant_frequency(cfg.initial_position);
        // Weak resonant drive: the charging equilibrium (~3.06 V) stays
        // below v_on = 3.3 V.
        let inner = Sine::new(0.42, f).unwrap();
        // Period 300 s, 33% duty, so [0,100) on, [100,300) off,
        // [300,400) on again over a 400 s run.
        let src = DutyCycled::new(Box::new(inner), 300.0, 1.0 / 3.0, 1.0).unwrap();
        let m = SystemSimulator::new(cfg).unwrap().run(&src, 400.0).unwrap();
        assert_eq!(m.uptime_fraction, 0.0, "node must never turn on: {m:?}");
        assert_eq!(m.packets_delivered, 0);
        assert!(
            m.min_v_store < m.final_v_store - 0.05,
            "minimum must capture the dip below the final voltage: {m:?}"
        );
    }
}
