//! Power-processing models for the `ehsim` workspace: voltage
//! multiplier, supercapacitor storage, regulator, and the hysteresis
//! thresholds that gate the sensor node's supply.
//!
//! The original node (IEEE Sensors J. 2012, ref \[2\] of the DATE'13
//! paper) rectifies the microgenerator's sub-volt AC output with a
//! multi-stage voltage multiplier charging a supercapacitor; the node
//! switches on above `V_on` and off below `V_off`. Two views are
//! provided:
//!
//! * [`Multiplier::attach`] builds the full Cockcroft–Walton diode/
//!   capacitor ladder into a circuit netlist — used for circuit-level
//!   validation and the engine benchmarks;
//! * [`Multiplier::operating_point`] is the fast behavioural model — a
//!   self-consistent fixed point between the harvester's Thevenin
//!   equivalent and the classic CW pump equations (output droop
//!   `∝ (2N³/3 + N²/2 − N/6)/(f C)`, two diode drops per stage) — used
//!   by the system-level simulator, millions of times per DoE campaign.
//!
//! The behavioural model intentionally reproduces the *nonlinear*
//! features that make the design space interesting: a dead zone until
//! the input amplitude clears the diode drops plus `V_store/2N`,
//! collapse under loading, and the stage-count trade-off (more stages
//! lower the threshold voltage gain but raise droop and diode loss).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod frontend;

pub use batch::BatchPpuSolver;

use ehsim_circuit::{DiodeModel, Netlist, NodeId};
use ehsim_numeric::complex::Complex;
use std::error::Error;
use std::fmt;

/// Errors produced by power-processing models.
#[derive(Debug, Clone)]
pub enum PowerError {
    /// A parameter violated its precondition.
    InvalidParameter {
        /// Description of the violated precondition.
        message: String,
    },
    /// Netlist construction failed.
    Circuit(ehsim_circuit::CircuitError),
}

impl PowerError {
    fn invalid(message: impl Into<String>) -> Self {
        PowerError::InvalidParameter {
            message: message.into(),
        }
    }
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::InvalidParameter { message } => {
                write!(f, "invalid power parameter: {message}")
            }
            PowerError::Circuit(e) => write!(f, "netlist construction failed: {e}"),
        }
    }
}

impl Error for PowerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PowerError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ehsim_circuit::CircuitError> for PowerError {
    fn from(e: ehsim_circuit::CircuitError) -> Self {
        PowerError::Circuit(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PowerError>;

/// An N-stage Cockcroft–Walton (Villard cascade) voltage multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multiplier {
    /// Number of doubler stages `N` (the ladder has `2N` diodes and
    /// `2N` capacitors; unloaded it multiplies the peak by `2N`).
    pub stages: usize,
    /// Per-stage capacitance (F).
    pub stage_capacitance: f64,
    /// Equivalent series resistance of each ladder capacitor (Ω).
    ///
    /// Besides being physically present in real capacitors, the ESR
    /// breaks the capacitor-only loops that would otherwise make the
    /// state-space formulation of the ladder degenerate (capacitor
    /// voltages in a pure-capacitor loop are not independent states).
    pub esr_ohms: f64,
    /// Diode model used in the ladder (and its drop in the behavioural
    /// model).
    pub diode: DiodeModel,
}

impl Default for Multiplier {
    fn default() -> Self {
        Multiplier {
            // 0.47 µF stages keep the pump's input impedance comparable
            // to the microgenerator's ~25 kΩ source impedance at
            // resonance — large stage capacitors would short out the
            // high-impedance harvester.
            stages: 3,
            stage_capacitance: 0.47e-6,
            esr_ohms: 1.0,
            diode: DiodeModel::default(),
        }
    }
}

/// Operating point of the behavioural multiplier model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpuOperatingPoint {
    /// Average power delivered into storage (W).
    pub p_store_w: f64,
    /// Average output (storage) current (A).
    pub i_out_a: f64,
    /// AC input amplitude after source loading (V).
    pub v_in_amp: f64,
    /// Power drawn from the harvester (W).
    pub p_in_w: f64,
    /// `p_store / p_in` (0 when idle).
    pub efficiency: f64,
}

/// A [`Multiplier`] validated once, with every tick-invariant constant
/// of the behavioural operating-point solve precomputed: `2N`, the
/// diode drop, and the droop numerator `2N³/3 + N²/2 − N/6`.
///
/// This is the hot-path entry point of the system-level simulator: it
/// removes the per-call parameter validation (and its error-path
/// machinery) from a function executed once per simulation tick,
/// millions of times per DoE campaign.
///
/// [`PreparedPpu::operating_point`] is bit-identical to
/// [`Multiplier::operating_point`] by construction — the latter
/// prepares and calls it (see the property suite in
/// `tests/prepared_solve.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedPpu {
    n2: f64,
    v_d: f64,
    droop_num: f64,
    stage_capacitance: f64,
}

impl PreparedPpu {
    /// Classic CW output droop resistance at excitation frequency `f`.
    pub fn droop_resistance(&self, freq_hz: f64) -> f64 {
        self.droop_num / (freq_hz * self.stage_capacitance)
    }

    /// Behavioural operating point; [`Multiplier::operating_point`]
    /// prepares and calls it.
    ///
    /// [`BatchPpuSolver`] transcribes this fixed-point iteration
    /// verbatim and every CSV artefact depends on its bits, so its
    /// float-operation sequence changes in both places or in neither.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] on non-positive frequency or
    /// negative `v_oc` / `v_store`.
    pub fn operating_point(
        &self,
        v_oc: f64,
        z_src: Complex,
        freq_hz: f64,
        v_store: f64,
    ) -> Result<PpuOperatingPoint> {
        // Finiteness is part of the contract: an infinite frequency
        // (from a hostile vibration source) or an infinite open-circuit
        // amplitude must error here rather than seed the fixed-point
        // iteration with NaN.
        if !(freq_hz > 0.0 && freq_hz.is_finite())
            || !(v_oc >= 0.0 && v_oc.is_finite())
            || !(v_store >= 0.0 && v_store.is_finite())
        {
            return Err(PowerError::invalid(format!(
                "need finite freq > 0, v_oc >= 0, v_store >= 0 (got {freq_hz}, {v_oc}, {v_store})"
            )));
        }
        let n2 = self.n2;
        let r_droop = self.droop_resistance(freq_hz);
        let v_d = self.v_d;

        let idle = PpuOperatingPoint {
            p_store_w: 0.0,
            i_out_a: 0.0,
            v_in_amp: v_oc,
            p_in_w: 0.0,
            efficiency: 0.0,
        };
        if v_oc <= v_d {
            return Ok(idle);
        }

        // Fixed point: v_pk -> pump current -> equivalent input
        // resistance -> loaded v_pk.
        let mut v_pk = v_oc;
        let mut op = idle;
        for _ in 0..60 {
            let v_out_oc = n2 * (v_pk - v_d).max(0.0);
            let i_out = ((v_out_oc - v_store) / r_droop).max(0.0);
            if i_out <= 0.0 {
                // The pump cannot push charge at this storage voltage.
                op = PpuOperatingPoint {
                    p_store_w: 0.0,
                    i_out_a: 0.0,
                    v_in_amp: v_pk,
                    p_in_w: 0.0,
                    efficiency: 0.0,
                };
                // Unloaded: input floats back towards open circuit.
                let v_next = v_oc;
                if (v_next - v_pk).abs() < 1e-12 {
                    break;
                }
                v_pk = 0.5 * (v_pk + v_next);
                continue;
            }
            let p_store = v_store * i_out;
            let p_diode = n2 * v_d * i_out;
            let p_droop = i_out * i_out * r_droop;
            let p_in = p_store + p_diode + p_droop;
            // Equivalent fundamental input resistance.
            let r_eq = if p_in > 0.0 {
                (v_pk * v_pk / (2.0 * p_in)).max(1e-3)
            } else {
                f64::INFINITY
            };
            let v_next = v_oc * r_eq / (z_src + Complex::real(r_eq)).abs();
            op = PpuOperatingPoint {
                p_store_w: p_store,
                i_out_a: i_out,
                v_in_amp: v_pk,
                p_in_w: p_in,
                efficiency: if p_in > 0.0 { p_store / p_in } else { 0.0 },
            };
            if (v_next - v_pk).abs() < 1e-9 * v_pk.max(1e-9) {
                break;
            }
            v_pk = 0.5 * (v_pk + v_next);
        }
        Ok(op)
    }
}

impl Multiplier {
    /// Validates once and returns the hot-path solver handle.
    ///
    /// # Errors
    ///
    /// Propagates [`Multiplier::validate`] failures.
    pub fn prepared(&self) -> Result<PreparedPpu> {
        self.validate()?;
        let n = self.stages as f64;
        Ok(PreparedPpu {
            n2: (2 * self.stages) as f64,
            v_d: self.diode.v_fwd,
            droop_num: 2.0 * n * n * n / 3.0 + n * n / 2.0 - n / 6.0,
            stage_capacitance: self.stage_capacitance,
        })
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] on a non-positive stage count or
    /// capacitance.
    pub fn validate(&self) -> Result<()> {
        if self.stages == 0 || self.stages > 16 {
            return Err(PowerError::invalid(format!(
                "stage count must be in 1..=16, got {}",
                self.stages
            )));
        }
        if !(self.stage_capacitance > 0.0) {
            return Err(PowerError::invalid(format!(
                "stage capacitance must be positive, got {}",
                self.stage_capacitance
            )));
        }
        if !(self.esr_ohms > 0.0) {
            return Err(PowerError::invalid(format!(
                "capacitor ESR must be positive, got {}",
                self.esr_ohms
            )));
        }
        Ok(())
    }

    /// Unloaded DC gain: `2N` minus the diode drops.
    pub fn open_circuit_voltage(&self, v_pk: f64) -> f64 {
        (2 * self.stages) as f64 * (v_pk - self.diode.v_fwd).max(0.0)
    }

    /// Classic CW output droop resistance at excitation frequency `f`.
    pub fn droop_resistance(&self, freq_hz: f64) -> f64 {
        let n = self.stages as f64;
        (2.0 * n * n * n / 3.0 + n * n / 2.0 - n / 6.0) / (freq_hz * self.stage_capacitance)
    }

    /// Builds the CW ladder into `nl` between the AC input node and a
    /// newly created DC output node (returned). Element names are
    /// prefixed to stay unique.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction errors.
    pub fn attach(&self, nl: &mut Netlist, ac_in: NodeId, prefix: &str) -> Result<NodeId> {
        self.validate()?;
        let n2 = 2 * self.stages;
        // Nodes n1..n_{2N}; the ladder's diodes run gnd→n1→n2→…→n2N and
        // output is at the top of the DC column (even nodes).
        let mut nodes = Vec::with_capacity(n2 + 1);
        nodes.push(Netlist::GROUND); // n0
        for i in 1..=n2 {
            nodes.push(nl.node(&format!("{prefix}_n{i}")));
        }
        // Each ladder capacitor is a series C + ESR pair (cap from the
        // chain node to a private mid node, ESR on to the destination).
        let esr_cap = |nl: &mut Netlist, name: &str, a: NodeId, b: NodeId| -> Result<()> {
            let mid = nl.node(&format!("{name}_esr"));
            nl.capacitor(name, a, mid, self.stage_capacitance, 0.0)?;
            nl.resistor(&format!("{name}_r"), mid, b, self.esr_ohms)?;
            Ok(())
        };
        // AC column capacitors: ac→n1, n1→n3, n3→n5, …
        let mut prev = ac_in;
        let mut idx = 1;
        while idx <= n2 {
            esr_cap(nl, &format!("{prefix}_Ca{idx}"), prev, nodes[idx])?;
            prev = nodes[idx];
            idx += 2;
        }
        // DC column capacitors: gnd→n2, n2→n4, …
        let mut prev = Netlist::GROUND;
        let mut idx = 2;
        while idx <= n2 {
            esr_cap(nl, &format!("{prefix}_Cb{idx}"), prev, nodes[idx])?;
            prev = nodes[idx];
            idx += 2;
        }
        // Diode chain: n_{i-1} → n_i.
        for i in 1..=n2 {
            nl.diode_with_model(
                &format!("{prefix}_D{i}"),
                nodes[i - 1],
                nodes[i],
                self.diode,
            )?;
        }
        Ok(nodes[n2])
    }

    /// Behavioural operating point: the power flowing into a storage
    /// element held at `v_store`, when driven from a harvester with
    /// open-circuit EMF amplitude `v_oc` and source impedance `z_src`
    /// at frequency `freq_hz`.
    ///
    /// Solves the fixed point between the CW pump equations and the
    /// source loading; returns an all-zero operating point when the
    /// input cannot overcome the dead zone.
    ///
    /// Equivalent to `self.prepared()?.operating_point(..)`; callers in
    /// a per-tick loop should hold a [`PreparedPpu`] instead so the
    /// parameter validation runs once rather than per call.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] on invalid parameters or
    /// non-positive frequency.
    pub fn operating_point(
        &self,
        v_oc: f64,
        z_src: Complex,
        freq_hz: f64,
        v_store: f64,
    ) -> Result<PpuOperatingPoint> {
        self.prepared()?
            .operating_point(v_oc, z_src, freq_hz, v_store)
    }
}

/// Supercapacitor storage with leakage, tracked by energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supercap {
    /// Capacitance (F).
    pub capacitance: f64,
    /// Rated (maximum) voltage (V); charge beyond it is shunted away.
    pub v_rated: f64,
    /// Leakage resistance (Ω) modelling self-discharge.
    pub leak_resistance: f64,
}

impl Default for Supercap {
    fn default() -> Self {
        Supercap {
            capacitance: 0.4,
            v_rated: 5.5,
            // Low-leakage part (~0.7 µA at 3.3 V): with a total harvest
            // budget of tens of microwatts, leakage must stay in the
            // microwatt range or it dominates the energy balance.
            leak_resistance: 5e6,
        }
    }
}

impl Supercap {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] on non-positive values.
    pub fn validate(&self) -> Result<()> {
        if !(self.capacitance > 0.0) || !(self.v_rated > 0.0) || !(self.leak_resistance > 0.0) {
            return Err(PowerError::invalid(
                "supercap parameters must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// Stored energy (J) at voltage `v`.
    pub fn energy_j(&self, v: f64) -> f64 {
        0.5 * self.capacitance * v * v
    }

    /// Voltage at stored energy `e` (J).
    pub fn voltage_at(&self, e: f64) -> f64 {
        (2.0 * e.max(0.0) / self.capacitance).sqrt()
    }

    /// Advances the storage state by `dt` seconds with charging power
    /// `p_in` and discharging power `p_out` (both W, ≥ 0); returns the
    /// new voltage. Leakage `v²/R` is always drawn; the voltage is
    /// clamped to the rated value (a shunt regulator dumps the excess).
    pub fn step(&self, v: f64, p_in: f64, p_out: f64, dt: f64) -> f64 {
        let leak = v * v / self.leak_resistance;
        let e = self.energy_j(v) + (p_in - p_out - leak) * dt;
        self.voltage_at(e).min(self.v_rated)
    }

    /// Advances the storage state by `dt` seconds with a charging
    /// *current* `i_in` (A) and a discharging power `p_out` (W).
    ///
    /// Charging is charge-based (`dv = i·dt/C`), which — unlike the
    /// power-based [`Supercap::step`] — correctly cold-starts a fully
    /// depleted capacitor, where the absorbed *energy* `v·i` is zero but
    /// the charge still accumulates.
    pub fn step_with_current(&self, v: f64, i_in: f64, p_out: f64, dt: f64) -> f64 {
        self.step_with_current_accounted(v, i_in, p_out, dt).0
    }

    /// [`Supercap::step_with_current`] that additionally returns the
    /// charging energy (J) *actually delivered into the capacitor* by
    /// `i_in` during this step, from the same clamping arithmetic that
    /// produced the new voltage.
    ///
    /// Away from the rated-voltage clamp the delivered energy is the
    /// mid-charge `v·i·dt` (trapezoidal `v_mid · ΔQ`). When the charge
    /// would push the voltage past `v_rated`, the shunt regulator dumps
    /// the excess: only the charge up to the rail is accepted, and the
    /// delivered energy is exactly `E(v_rated) − E(v)`. Accounting the
    /// energy here — rather than recomputing a separately clamped
    /// mid-voltage at the call site — keeps `harvested_energy_j` equal
    /// to the energy the storage model actually absorbed, closing the
    /// simulator's energy balance near the rail.
    pub fn step_with_current_accounted(
        &self,
        v: f64,
        i_in: f64,
        p_out: f64,
        dt: f64,
    ) -> (f64, f64) {
        let v_charged_raw = v + i_in * dt / self.capacitance;
        let (v_charged, e_in) = if v_charged_raw <= self.v_rated {
            // Unclamped: v_mid·i·dt with v_mid the exact mid-charge
            // voltage (algebraically E(v_charged) − E(v)).
            (
                v_charged_raw,
                (v + 0.5 * i_in * dt / self.capacitance) * i_in * dt,
            )
        } else {
            // Clamped at the rail: only C·(v_rated − v) of charge is
            // accepted; the rest is shunted away and never stored.
            (self.v_rated, self.energy_j(self.v_rated) - self.energy_j(v))
        };
        let leak = v_charged * v_charged / self.leak_resistance;
        let e = self.energy_j(v_charged) - (p_out + leak) * dt;
        (self.voltage_at(e).min(self.v_rated), e_in)
    }
}

/// Hysteresis supply thresholds: the node runs only while the storage
/// voltage stays above `v_off`, and cold-starts once it exceeds `v_on`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Cold-start (turn-on) voltage (V).
    pub v_on: f64,
    /// Brown-out (turn-off) voltage (V).
    pub v_off: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            v_on: 3.3,
            v_off: 2.4,
        }
    }
}

impl Thresholds {
    /// Validates `v_on > v_off > 0`.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] otherwise.
    pub fn validate(&self) -> Result<()> {
        if !(self.v_off > 0.0) || !(self.v_on > self.v_off) {
            return Err(PowerError::invalid(format!(
                "need v_on > v_off > 0 (got v_on={}, v_off={})",
                self.v_on, self.v_off
            )));
        }
        Ok(())
    }

    /// Next supply state given the storage voltage and current state.
    pub fn update(&self, v_store: f64, running: bool) -> bool {
        if running {
            v_store > self.v_off
        } else {
            v_store >= self.v_on
        }
    }
}

/// A DC/DC regulator between storage and the node, with a constant
/// conversion efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regulator {
    /// Regulated output voltage (V).
    pub v_out: f64,
    /// Conversion efficiency in `(0, 1]`.
    pub efficiency: f64,
}

impl Default for Regulator {
    fn default() -> Self {
        Regulator {
            v_out: 1.8,
            efficiency: 0.85,
        }
    }
}

impl Regulator {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidParameter`] on out-of-range values.
    pub fn validate(&self) -> Result<()> {
        if !(self.v_out > 0.0) || !(self.efficiency > 0.0) || self.efficiency > 1.0 {
            return Err(PowerError::invalid(format!(
                "need v_out > 0 and efficiency in (0,1] (got {}, {})",
                self.v_out, self.efficiency
            )));
        }
        Ok(())
    }

    /// Power drawn from storage to supply `p_load` at the output.
    pub fn input_power(&self, p_load: f64) -> f64 {
        p_load / self.efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_circuit::{LinearizedStateSpaceEngine, Probe, SourceWaveform, TransientConfig};

    #[test]
    fn multiplier_validation() {
        assert!(Multiplier::default().validate().is_ok());
        assert!(Multiplier {
            stages: 0,
            ..Multiplier::default()
        }
        .validate()
        .is_err());
        assert!(Multiplier {
            stage_capacitance: 0.0,
            ..Multiplier::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn open_circuit_gain() {
        let m = Multiplier {
            stages: 2,
            ..Multiplier::default()
        };
        assert!((m.open_circuit_voltage(1.0) - 4.0 * 0.7).abs() < 1e-12);
        assert_eq!(m.open_circuit_voltage(0.1), 0.0);
    }

    #[test]
    fn droop_grows_with_stages() {
        let base = Multiplier::default();
        let more = Multiplier { stages: 6, ..base };
        assert!(more.droop_resistance(60.0) > 5.0 * base.droop_resistance(60.0));
    }

    #[test]
    fn ladder_circuit_multiplies_voltage() {
        // Drive a 2-stage ladder from a stiff AC source and check the DC
        // output approaches 4·(V_pk − V_d).
        let mult = Multiplier {
            stages: 2,
            stage_capacitance: 10e-6,
            ..Multiplier::default()
        };
        let mut nl = Netlist::new();
        let ac = nl.node("ac");
        nl.vsource("Vac", ac, Netlist::GROUND, SourceWaveform::sine(2.0, 100.0))
            .unwrap();
        let out = mult.attach(&mut nl, ac, "cw").unwrap();
        let out_name = nl.node_name(out).to_string();
        nl.resistor("Rload", out, Netlist::GROUND, 10e6).unwrap();
        let cfg = TransientConfig::new(1.0, 2e-5).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[Probe::NodeVoltage(out_name.clone())])
            .unwrap();
        let v_end = *res
            .signal(&format!("v({out_name})"))
            .unwrap()
            .last()
            .unwrap();
        let ideal = 4.0 * (2.0 - 0.3);
        assert!(
            v_end > 0.8 * ideal && v_end <= ideal + 0.1,
            "v_end = {v_end}, ideal = {ideal}"
        );
    }

    #[test]
    fn operating_point_rejects_non_finite_inputs() {
        // Regression: infinite envelope values reaching the solve (via
        // a hostile vibration source) must error instead of iterating
        // on NaN.
        let p = Multiplier::default().prepared().unwrap();
        let z = Complex::real(2e3);
        for (v_oc, f, v_st) in [
            (f64::INFINITY, 60.0, 1.0),
            (f64::NAN, 60.0, 1.0),
            (1.5, f64::INFINITY, 1.0),
            (1.5, f64::NAN, 1.0),
            (1.5, 60.0, f64::INFINITY),
            (1.5, 60.0, f64::NAN),
        ] {
            assert!(
                p.operating_point(v_oc, z, f, v_st).is_err(),
                "operating_point({v_oc}, {f}, {v_st})"
            );
        }
    }

    #[test]
    fn behavioural_dead_zone_and_ceiling() {
        let m = Multiplier::default();
        let z = Complex::real(2e3);
        // Below the diode drop: nothing.
        let op = m.operating_point(0.2, z, 60.0, 1.0).unwrap();
        assert_eq!(op.p_store_w, 0.0);
        // Charging power is positive in the working range…
        let p1 = m.operating_point(1.5, z, 60.0, 1.0).unwrap().p_store_w;
        let p2 = m.operating_point(1.5, z, 60.0, 3.0).unwrap().p_store_w;
        assert!(p1 > 0.0 && p2 > 0.0);
        // …and stops once the storage reaches the open-circuit ceiling.
        let p_stop = m.operating_point(1.5, z, 60.0, 20.0).unwrap().p_store_w;
        assert_eq!(p_stop, 0.0);
    }

    #[test]
    fn behavioural_power_is_parabolic_in_storage_voltage() {
        // P = V·(V_oc − V)/R is a max-power-transfer parabola: the
        // charging power peaks at an intermediate storage voltage.
        let m = Multiplier::default();
        let z = Complex::real(2e3);
        let ps: Vec<f64> = (1..=12)
            .map(|k| {
                m.operating_point(1.5, z, 60.0, 0.5 * k as f64)
                    .unwrap()
                    .p_store_w
            })
            .collect();
        let peak_idx = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak_idx > 0, "peak at the lowest voltage: {ps:?}");
        assert!(ps[peak_idx] > ps[0]);
        assert!(*ps.last().unwrap() < ps[peak_idx]);
    }

    #[test]
    fn behavioural_efficiency_bounded() {
        let m = Multiplier::default();
        let z = Complex::new(2e3, 500.0);
        for v_store in [0.5, 1.5, 3.0, 4.5] {
            let op = m.operating_point(1.2, z, 65.0, v_store).unwrap();
            assert!(
                (0.0..=1.0).contains(&op.efficiency),
                "eff = {}",
                op.efficiency
            );
            assert!(op.p_in_w >= op.p_store_w);
            assert!(op.v_in_amp <= 1.2 + 1e-9);
        }
    }

    #[test]
    fn behavioural_matches_ladder_circuit_roughly() {
        // Calibration check: the behavioural fixed point should land
        // within a factor ~2 of a full circuit simulation of the same
        // ladder charging a large storage capacitor.
        let mult = Multiplier {
            stages: 2,
            stage_capacitance: 10e-6,
            ..Multiplier::default()
        };
        let v_pk = 1.5;
        let freq = 80.0;
        let r_src = 500.0;
        let v_store = 2.0;

        // Circuit: AC source with series resistance, ladder, big cap
        // pre-charged to v_store; measure average charging current by
        // the storage voltage slope.
        let mut nl = Netlist::new();
        let ac_src = nl.node("acs");
        let ac = nl.node("ac");
        nl.vsource(
            "Vac",
            ac_src,
            Netlist::GROUND,
            SourceWaveform::sine(v_pk, freq),
        )
        .unwrap();
        nl.resistor("Rsrc", ac_src, ac, r_src).unwrap();
        let out = mult.attach(&mut nl, ac, "cw").unwrap();
        let c_store = 1e-3;
        let out_name = nl.node_name(out).to_string();
        nl.capacitor("Cstore", out, Netlist::GROUND, c_store, v_store)
            .unwrap();
        let t_end = 1.5;
        let cfg = TransientConfig::new(t_end, 2e-5).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[Probe::NodeVoltage(out_name.clone())])
            .unwrap();
        let sig = res.signal(&format!("v({out_name})")).unwrap();
        // Charging power ≈ C·V·dV/dt averaged over the tail.
        let k0 = sig.len() / 2;
        let dv = sig[sig.len() - 1] - sig[k0];
        let dt = res.time()[res.time().len() - 1] - res.time()[k0];
        let v_mid = 0.5 * (sig[sig.len() - 1] + sig[k0]);
        let p_circuit = c_store * v_mid * dv / dt;

        let op = mult
            .operating_point(v_pk, Complex::real(r_src), freq, v_mid)
            .unwrap();
        assert!(
            op.p_store_w > 0.3 * p_circuit && op.p_store_w < 3.0 * p_circuit,
            "behavioural {} vs circuit {}",
            op.p_store_w,
            p_circuit
        );
    }

    #[test]
    fn supercap_energy_bookkeeping() {
        let sc = Supercap {
            capacitance: 1.0,
            v_rated: 5.0,
            leak_resistance: 1e15,
        };
        // Charging 1 W for 1 s from 1 V: E 0.5 -> 1.5 J, V = sqrt(3).
        let v = sc.step(1.0, 1.0, 0.0, 1.0);
        assert!((v - 3f64.sqrt()).abs() < 1e-9);
        // Discharge symmetric.
        let v2 = sc.step(v, 0.0, 1.0, 1.0);
        assert!((v2 - 1.0).abs() < 1e-9);
        // Clamped at rated voltage.
        let v3 = sc.step(4.9, 1e3, 0.0, 10.0);
        assert_eq!(v3, 5.0);
    }

    #[test]
    fn supercap_leakage_discharges() {
        let sc = Supercap {
            capacitance: 0.1,
            v_rated: 5.0,
            leak_resistance: 100.0,
        };
        // Small steps approximate exponential self-discharge.
        let mut v = 4.0f64;
        let dt = 0.01;
        for _ in 0..1000 {
            v = sc.step(v, 0.0, 0.0, dt);
        }
        let exact = 4.0 * (-10.0f64 / (100.0 * 0.1)).exp(); // e^{-t/RC}
        assert!((v - exact).abs() < 0.05, "v={v}, exact={exact}");
    }

    #[test]
    fn thresholds_hysteresis() {
        let th = Thresholds::default();
        th.validate().unwrap();
        assert!(!th.update(3.0, false)); // below v_on, stays off
        assert!(th.update(3.4, false)); // cold start
        assert!(th.update(3.0, true)); // hysteresis keeps it on
        assert!(th.update(2.5, true));
        assert!(!th.update(2.3, true)); // brown-out
        assert!(Thresholds {
            v_on: 2.0,
            v_off: 2.4
        }
        .validate()
        .is_err());
    }

    #[test]
    fn regulator_power() {
        let r = Regulator::default();
        r.validate().unwrap();
        assert!((r.input_power(85e-3) - 0.1).abs() < 1e-12);
        assert!(Regulator {
            v_out: 1.8,
            efficiency: 1.2
        }
        .validate()
        .is_err());
    }
}
