//! Tunable electromagnetic vibration energy harvester model.
//!
//! Models the cantilever microgenerator family used by the DATE'13
//! paper's authors (Southampton tunable generator): a proof mass on a
//! spring whose stiffness can be *mechanically tuned* by a magnetic
//! actuator so the resonant frequency tracks the ambient vibration, plus
//! an electromagnetic coil transducer.
//!
//! Three views of the same device are provided:
//!
//! * **Analytic phasor solution** ([`Harvester::steady_state`],
//!   [`Harvester::thevenin`]) — exact for the linear device under
//!   sinusoidal excitation; this is what the system-level node simulator
//!   uses (fast enough for millions of evaluations).
//! * **Circuit netlist** ([`Harvester::build_netlist`]) — the
//!   electromechanical force–voltage analogy maps the mechanical side
//!   onto a series RLC loop coupled to the coil loop by two
//!   current-controlled voltage sources (a gyrator). Both circuit
//!   engines simulate mechanics and electronics together, mirroring the
//!   holistic HDL models of the original work.
//! * **Tuning actuator** ([`TuningParams`]) — resonance as a function of
//!   actuator position plus the energy/time cost of retuning, which the
//!   node's tuning controller must pay.
//!
//! # Example
//!
//! ```
//! use ehsim_harvester::Harvester;
//!
//! # fn main() -> Result<(), ehsim_harvester::HarvesterError> {
//! let h = Harvester::default_tunable();
//! // Tuned on-resonance the harvester delivers far more power than
//! // when detuned by 10 Hz.
//! let pos = h.position_for_frequency(60.0);
//! let on = h.steady_state(pos, 60.0, 0.6, 20e3)?;
//! let off = h.steady_state(pos, 70.0, 0.6, 20e3)?;
//! assert!(on.load_power_w > 10.0 * off.load_power_w);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ehsim_circuit::{Netlist, NodeId, SourceWaveform};
use ehsim_numeric::complex::Complex;
use ehsim_vibration::VibrationSource;
use std::error::Error;
use std::f64::consts::PI;
use std::fmt;
use std::sync::Arc;

/// Errors produced by the harvester model.
#[derive(Debug, Clone)]
pub enum HarvesterError {
    /// A parameter violated its physical precondition.
    InvalidParameter {
        /// Description of the violated precondition.
        message: String,
    },
    /// Netlist construction failed.
    Circuit(ehsim_circuit::CircuitError),
}

impl HarvesterError {
    fn invalid(message: impl Into<String>) -> Self {
        HarvesterError::InvalidParameter {
            message: message.into(),
        }
    }
}

impl fmt::Display for HarvesterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarvesterError::InvalidParameter { message } => {
                write!(f, "invalid harvester parameter: {message}")
            }
            HarvesterError::Circuit(e) => write!(f, "netlist construction failed: {e}"),
        }
    }
}

impl Error for HarvesterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HarvesterError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ehsim_circuit::CircuitError> for HarvesterError {
    fn from(e: ehsim_circuit::CircuitError) -> Self {
        HarvesterError::Circuit(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, HarvesterError>;

/// Mechanical resonance tuning: actuator position `p ∈ [0, 1]` maps to a
/// resonant frequency in `[f_min, f_max]`, and moving the actuator costs
/// energy and time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningParams {
    /// Resonant frequency at `p = 0` (Hz).
    pub f_min_hz: f64,
    /// Resonant frequency at `p = 1` (Hz).
    pub f_max_hz: f64,
    /// Time for a full-range actuator traverse (s).
    pub full_travel_s: f64,
    /// Electrical power drawn while the actuator moves (W).
    pub actuator_power_w: f64,
    /// Fractional increase of parasitic damping at `p = 1` (the axial
    /// tuning force slightly degrades the mechanical Q).
    pub damping_penalty: f64,
    /// Curvature of the frequency-vs-position law: 0 = linear, positive
    /// values compress the high end (`f = f_min + Δf·(p + c·p(1-p))/(1)`
    /// normalised).
    pub curve: f64,
}

impl Default for TuningParams {
    fn default() -> Self {
        TuningParams {
            f_min_hz: 55.0,
            f_max_hz: 85.0,
            // A full-range traverse costs 12 mW × 20 s = 0.24 J. At the
            // ~10 µW harvest level a typical few-hertz correction
            // (~50 mJ) amortises within a couple of hours — the regime
            // in which closed-loop tuning is worthwhile at all, and the
            // trade-off the DoE experiments explore.
            full_travel_s: 20.0,
            actuator_power_w: 12e-3,
            damping_penalty: 0.15,
            curve: 0.25,
        }
    }
}

impl TuningParams {
    /// Resonant frequency at actuator position `p` (clamped to `[0, 1]`).
    pub fn frequency_at(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let shaped = p + self.curve * p * (1.0 - p);
        self.f_min_hz + (self.f_max_hz - self.f_min_hz) * shaped
    }

    /// Actuator position that realises frequency `f` (clamped to the
    /// tuning range).
    pub fn position_for(&self, f_hz: f64) -> f64 {
        let f = f_hz.clamp(self.f_min_hz, self.f_max_hz);
        if self.curve.abs() < 1e-12 {
            return (f - self.f_min_hz) / (self.f_max_hz - self.f_min_hz);
        }
        // Invert p + c·p(1-p) = s  ⇒  -c p² + (1+c) p - s = 0.
        let s = (f - self.f_min_hz) / (self.f_max_hz - self.f_min_hz);
        let a = -self.curve;
        let b = 1.0 + self.curve;
        let disc = (b * b + 4.0 * a * s).max(0.0);
        let p = (-b + disc.sqrt()) / (2.0 * a);
        p.clamp(0.0, 1.0)
    }

    /// Energy (J) consumed to move the actuator from `p0` to `p1`.
    pub fn tuning_energy_j(&self, p0: f64, p1: f64) -> f64 {
        self.actuator_power_w * self.tuning_time_s(p0, p1)
    }

    /// Time (s) to move the actuator from `p0` to `p1`.
    pub fn tuning_time_s(&self, p0: f64, p1: f64) -> f64 {
        (p1.clamp(0.0, 1.0) - p0.clamp(0.0, 1.0)).abs() * self.full_travel_s
    }
}

/// Steady-state response of the harvester under sinusoidal excitation
/// with a resistive load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Average power delivered to the load (W).
    pub load_power_w: f64,
    /// Average power dissipated in the coil resistance (W).
    pub coil_loss_w: f64,
    /// Average power dissipated by parasitic mechanical damping (W).
    pub parasitic_loss_w: f64,
    /// Proof-mass velocity amplitude (m/s).
    pub velocity_amp: f64,
    /// Proof-mass displacement amplitude (m).
    pub displacement_amp: f64,
    /// Open-circuit-equivalent EMF amplitude `Γ·v` (V).
    pub emf_amp: f64,
    /// Coil current amplitude (A).
    pub current_amp: f64,
}

/// A tunable electromagnetic vibration energy harvester.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Harvester {
    /// Proof mass (kg).
    pub mass_kg: f64,
    /// Parasitic (mechanical) damping ratio at `p = 0`.
    pub zeta_parasitic: f64,
    /// Electromagnetic transduction factor Γ (V·s/m = N/A).
    pub transduction: f64,
    /// Coil resistance (Ω).
    pub coil_resistance: f64,
    /// Coil inductance (H).
    pub coil_inductance: f64,
    /// Proof-mass travel limit (m); the model warns via
    /// [`SteadyState::displacement_amp`] rather than clipping.
    pub displacement_limit_m: f64,
    /// Tuning mechanism parameters.
    pub tuning: TuningParams,
}

impl Harvester {
    /// The default tunable microgenerator: 2 g proof mass, 55–85 Hz
    /// tuning range, parameters chosen to deliver tens of microwatts at
    /// 0.5–1 m/s² machine vibration — the regime of the original
    /// Southampton device.
    pub fn default_tunable() -> Self {
        Harvester {
            mass_kg: 2.0e-3,
            zeta_parasitic: 0.008,
            transduction: 20.0,
            coil_resistance: 2.0e3,
            coil_inductance: 0.5,
            displacement_limit_m: 1.0e-3,
            tuning: TuningParams::default(),
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// [`HarvesterError::InvalidParameter`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<()> {
        let checks = [
            (self.mass_kg > 0.0, "mass must be positive"),
            (
                self.zeta_parasitic > 0.0,
                "parasitic damping must be positive",
            ),
            (self.transduction > 0.0, "transduction must be positive"),
            (
                self.coil_resistance > 0.0,
                "coil resistance must be positive",
            ),
            (
                self.coil_inductance > 0.0,
                "coil inductance must be positive",
            ),
            (
                self.displacement_limit_m > 0.0,
                "displacement limit must be positive",
            ),
            (
                self.tuning.f_min_hz > 0.0 && self.tuning.f_max_hz > self.tuning.f_min_hz,
                "tuning range must satisfy 0 < f_min < f_max",
            ),
            (
                self.tuning.full_travel_s > 0.0 && self.tuning.actuator_power_w >= 0.0,
                "tuning actuator parameters must be non-negative",
            ),
        ];
        for (ok, msg) in checks {
            if !ok {
                return Err(HarvesterError::invalid(msg));
            }
        }
        Ok(())
    }

    /// Resonant frequency (Hz) at actuator position `p`.
    pub fn resonant_frequency(&self, p: f64) -> f64 {
        self.tuning.frequency_at(p)
    }

    /// Actuator position realising resonance at `f_hz` (clamped).
    pub fn position_for_frequency(&self, f_hz: f64) -> f64 {
        self.tuning.position_for(f_hz)
    }

    /// Spring stiffness (N/m) at actuator position `p`.
    pub fn stiffness(&self, p: f64) -> f64 {
        let w = 2.0 * PI * self.resonant_frequency(p);
        self.mass_kg * w * w
    }

    /// Parasitic damping coefficient (N·s/m) at actuator position `p`,
    /// including the tuning-force damping penalty.
    pub fn damping(&self, p: f64) -> f64 {
        let w0 = 2.0 * PI * self.resonant_frequency(p);
        let base = 2.0 * self.zeta_parasitic * self.mass_kg * w0;
        base * (1.0 + self.tuning.damping_penalty * p.clamp(0.0, 1.0))
    }

    /// Mechanical impedance `Z_m(jω) = c + j(ωm − k/ω)` at position `p`.
    fn mechanical_impedance(&self, p: f64, w: f64) -> Complex {
        Complex::new(self.damping(p), w * self.mass_kg - self.stiffness(p) / w)
    }

    /// Thevenin equivalent of the harvester at its electrical terminals:
    /// open-circuit EMF amplitude (V) and complex source impedance (Ω)
    /// at excitation frequency `freq_hz`, actuator position `p`, and
    /// base-acceleration amplitude `accel_amp` (m/s²).
    ///
    /// Validates the device parameters on every call; per-tick callers
    /// should validate once via [`Harvester::prepared`] instead.
    ///
    /// # Errors
    ///
    /// [`HarvesterError::InvalidParameter`] for non-positive frequency
    /// or negative amplitude (and any invalid device parameter).
    pub fn thevenin(&self, p: f64, freq_hz: f64, accel_amp: f64) -> Result<(f64, Complex)> {
        self.validate()?;
        self.thevenin_prevalidated(p, freq_hz, accel_amp)
    }

    /// [`Harvester::thevenin`] minus the device-parameter validation;
    /// shared by the validating entry point and [`PreparedHarvester`].
    fn thevenin_prevalidated(
        &self,
        p: f64,
        freq_hz: f64,
        accel_amp: f64,
    ) -> Result<(f64, Complex)> {
        // Finiteness matters as much as sign here: a hostile source can
        // emit an infinite frequency or amplitude, and `>` alone would
        // wave it through into the Thevenin equivalent (and from there
        // into the simulator's memo key).
        if !(freq_hz > 0.0 && freq_hz.is_finite()) || !(accel_amp >= 0.0 && accel_amp.is_finite()) {
            return Err(HarvesterError::invalid(format!(
                "need finite freq > 0 and finite accel >= 0 (got {freq_hz}, {accel_amp})"
            )));
        }
        if !p.is_finite() {
            return Err(HarvesterError::invalid(format!(
                "tuning position must be finite, got {p}"
            )));
        }
        let w = 2.0 * PI * freq_hz;
        let zm = self.mechanical_impedance(p, w);
        // Open circuit: velocity V = F / Z_m, F = m·a.
        let v_oc = self.mass_kg * accel_amp / zm.abs();
        let emf_oc = self.transduction * v_oc;
        // Source impedance seen at the coil terminals: coil plus the
        // motional branch Γ²/Z_m.
        let z_src = Complex::new(self.coil_resistance, w * self.coil_inductance)
            + Complex::real(self.transduction * self.transduction) / zm;
        Ok((emf_oc, z_src))
    }

    /// Validates once and returns a handle whose
    /// [`PreparedHarvester::thevenin`] skips the per-call device
    /// validation — the entry point for per-tick hot loops.
    ///
    /// # Errors
    ///
    /// Propagates [`Harvester::validate`] failures.
    pub fn prepared(&self) -> Result<PreparedHarvester> {
        self.validate()?;
        Ok(PreparedHarvester { h: *self })
    }

    /// Analytic steady-state response with a resistive load `r_load` (Ω).
    ///
    /// # Errors
    ///
    /// [`HarvesterError::InvalidParameter`] for non-positive load,
    /// frequency, or negative amplitude.
    pub fn steady_state(
        &self,
        p: f64,
        freq_hz: f64,
        accel_amp: f64,
        r_load: f64,
    ) -> Result<SteadyState> {
        self.validate()?;
        if !(r_load > 0.0 && r_load.is_finite()) {
            return Err(HarvesterError::invalid(format!(
                "load resistance must be positive and finite, got {r_load}"
            )));
        }
        if !(freq_hz > 0.0 && freq_hz.is_finite()) || !(accel_amp >= 0.0 && accel_amp.is_finite()) {
            return Err(HarvesterError::invalid(format!(
                "need finite freq > 0 and finite accel >= 0 (got {freq_hz}, {accel_amp})"
            )));
        }
        let w = 2.0 * PI * freq_hz;
        let zm = self.mechanical_impedance(p, w);
        let ze = Complex::new(self.coil_resistance + r_load, w * self.coil_inductance);
        let gamma2 = Complex::real(self.transduction * self.transduction);
        // Velocity phasor: V = F / (Z_m + Γ²/Z_e).
        let force = self.mass_kg * accel_amp;
        let v = Complex::real(force) / (zm + gamma2 / ze);
        let v_amp = v.abs();
        // Coil current phasor: I = Γ·V / Z_e.
        let i = v * self.transduction / ze;
        let i_amp = i.abs();
        Ok(SteadyState {
            load_power_w: 0.5 * i_amp * i_amp * r_load,
            coil_loss_w: 0.5 * i_amp * i_amp * self.coil_resistance,
            parasitic_loss_w: 0.5 * v_amp * v_amp * self.damping(p),
            velocity_amp: v_amp,
            displacement_amp: v_amp / w,
            emf_amp: self.transduction * v_amp,
            current_amp: i_amp,
        })
    }

    /// Finds the resistive load maximising delivered power at the given
    /// operating point, by golden-section search over `log R`.
    ///
    /// # Errors
    ///
    /// Propagates [`Harvester::steady_state`] errors.
    pub fn optimal_load(&self, p: f64, freq_hz: f64, accel_amp: f64) -> Result<f64> {
        let power = |log_r: f64| -> Result<f64> {
            Ok(self
                .steady_state(p, freq_hz, accel_amp, 10f64.powf(log_r))?
                .load_power_w)
        };
        let (mut lo, mut hi) = (0.0f64, 7.0f64);
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        let mut x1 = hi - phi * (hi - lo);
        let mut x2 = lo + phi * (hi - lo);
        let mut f1 = power(x1)?;
        let mut f2 = power(x2)?;
        for _ in 0..80 {
            if f1 < f2 {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + phi * (hi - lo);
                f2 = power(x2)?;
            } else {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - phi * (hi - lo);
                f1 = power(x1)?;
            }
        }
        Ok(10f64.powf(0.5 * (lo + hi)))
    }

    /// Builds the electromechanical-analogy netlist of the harvester:
    /// the mechanical side becomes a series RLC loop (mass → inductor,
    /// damper → resistor, spring compliance → capacitor) driven by the
    /// inertial force `-m·a(t)`, coupled to the coil loop by two CCVS
    /// elements implementing the transduction `Γ`.
    ///
    /// Returns the netlist and the electrical output node (referenced to
    /// ground); the caller attaches the load or power-processing stage
    /// between that node and ground.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation and netlist-construction errors.
    pub fn build_netlist(
        &self,
        p: f64,
        source: Arc<dyn VibrationSource>,
    ) -> Result<(Netlist, NodeId)> {
        self.validate()?;
        let mut nl = Netlist::new();
        let m1 = nl.node("mech_force");
        let m2 = nl.node("mech_vel");
        let m3 = nl.node("mech_damp");
        let m4 = nl.node("mech_react");
        let emf = nl.node("emf");
        let coil_mid = nl.node("coil_mid");
        let out = nl.node("harv_out");

        // Inertial force source: F = -m·a(t).
        let m = self.mass_kg;
        nl.vsource(
            "Fsrc",
            m1,
            Netlist::GROUND,
            SourceWaveform::from_fn(move |t| -m * source.acceleration(t)),
        )?;
        // Mass → inductor (current = proof-mass velocity).
        let l_mass = nl.inductor("Lmass", m1, m2, self.mass_kg, 0.0)?;
        // Damper → resistor.
        nl.resistor("Rdamp", m2, m3, self.damping(p))?;
        // Spring → capacitor of value 1/k (compliance).
        nl.capacitor("Cspring", m3, m4, 1.0 / self.stiffness(p), 0.0)?;
        // Electrical loop: EMF (CCVS from mass velocity) → coil L, R → out.
        nl.ccvs("Hemf", emf, Netlist::GROUND, l_mass, self.transduction)?;
        let l_coil = nl.inductor("Lcoil", emf, coil_mid, self.coil_inductance, 0.0)?;
        nl.resistor("Rcoil", coil_mid, out, self.coil_resistance)?;
        // Reaction force: CCVS in the mechanical loop driven by the coil
        // current, closing the gyrator.
        nl.ccvs("Hreact", m4, Netlist::GROUND, l_coil, self.transduction)?;
        Ok((nl, out))
    }
}

/// A [`Harvester`] whose parameters were validated once at
/// construction, so the per-tick [`PreparedHarvester::thevenin`] does
/// only physics: no validation branches, no error-path formatting for
/// the device parameters. Produced by [`Harvester::prepared`]; results
/// are bit-identical to the validating [`Harvester::thevenin`] (the two
/// share one implementation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedHarvester {
    h: Harvester,
}

impl PreparedHarvester {
    /// The underlying device parameters.
    pub fn harvester(&self) -> &Harvester {
        &self.h
    }

    /// Thevenin equivalent at `(p, freq_hz, accel_amp)` without
    /// re-validating the device; see [`Harvester::thevenin`].
    ///
    /// # Errors
    ///
    /// [`HarvesterError::InvalidParameter`] for non-positive frequency
    /// or negative amplitude.
    pub fn thevenin(&self, p: f64, freq_hz: f64, accel_amp: f64) -> Result<(f64, Complex)> {
        self.h.thevenin_prevalidated(p, freq_hz, accel_amp)
    }

    /// Resonant frequency (Hz) at actuator position `p`.
    pub fn resonant_frequency(&self, p: f64) -> f64 {
        self.h.resonant_frequency(p)
    }

    /// Actuator position realising resonance at `f_hz` (clamped).
    pub fn position_for_frequency(&self, f_hz: f64) -> f64 {
        self.h.position_for_frequency(f_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_circuit::{LinearizedStateSpaceEngine, Probe, TransientConfig};
    use ehsim_vibration::Sine;

    #[test]
    fn tuning_curve_endpoints_and_inverse() {
        let t = TuningParams::default();
        assert!((t.frequency_at(0.0) - 55.0).abs() < 1e-12);
        assert!((t.frequency_at(1.0) - 85.0).abs() < 1e-12);
        for f in [55.0, 60.0, 70.0, 80.0, 85.0] {
            let p = t.position_for(f);
            assert!((t.frequency_at(p) - f).abs() < 1e-9, "f = {f}");
        }
        // Clamping outside the range.
        assert_eq!(t.position_for(40.0), 0.0);
        assert_eq!(t.position_for(120.0), 1.0);
    }

    #[test]
    fn tuning_cost_scales_with_travel() {
        let t = TuningParams::default();
        assert_eq!(t.tuning_energy_j(0.0, 0.0), 0.0);
        let full = t.tuning_energy_j(0.0, 1.0);
        let half = t.tuning_energy_j(0.25, 0.75);
        assert!((full - 2.0 * half).abs() < 1e-12);
        assert!((full - 12e-3 * 20.0).abs() < 1e-12);
        assert_eq!(t.tuning_time_s(0.0, 0.5), 10.0);
    }

    #[test]
    fn resonance_peak_in_power() {
        let h = Harvester::default_tunable();
        let p = h.position_for_frequency(65.0);
        let r = 20e3;
        let on = h.steady_state(p, 65.0, 0.6, r).unwrap();
        let below = h.steady_state(p, 55.0, 0.6, r).unwrap();
        let above = h.steady_state(p, 75.0, 0.6, r).unwrap();
        assert!(on.load_power_w > 5.0 * below.load_power_w);
        assert!(on.load_power_w > 5.0 * above.load_power_w);
        // Power should be in the tens-of-µW regime for the defaults.
        assert!(
            on.load_power_w > 5e-6 && on.load_power_w < 5e-4,
            "P = {}",
            on.load_power_w
        );
    }

    #[test]
    fn power_balance_at_steady_state() {
        // Input mechanical power = load + coil + parasitic dissipation.
        let h = Harvester::default_tunable();
        let p = 0.4;
        let f = h.resonant_frequency(p);
        let ss = h.steady_state(p, f, 0.8, 10e3).unwrap();
        // Input power = F·v/2 × cos(phase) — compute from components:
        let total_out = ss.load_power_w + ss.coil_loss_w + ss.parasitic_loss_w;
        // At resonance force and velocity are in phase:
        let input = 0.5 * h.mass_kg * 0.8 * ss.velocity_amp;
        assert!(
            (total_out - input).abs() < 0.05 * input,
            "out = {total_out}, in = {input}"
        );
    }

    #[test]
    fn thevenin_matches_loaded_solution() {
        // P_load from the Thevenin equivalent must equal steady_state.
        let h = Harvester::default_tunable();
        let (p, f, a, r) = (0.5, 68.0, 0.7, 15e3);
        let (v_oc, z_s) = h.thevenin(p, f, a).unwrap();
        let i = v_oc / (z_s + Complex::real(r)).abs();
        let p_thev = 0.5 * i * i * r;
        let p_direct = h.steady_state(p, f, a, r).unwrap().load_power_w;
        assert!(
            (p_thev - p_direct).abs() < 1e-9 + 1e-6 * p_direct,
            "{p_thev} vs {p_direct}"
        );
    }

    #[test]
    fn optimal_load_beats_neighbours() {
        let h = Harvester::default_tunable();
        let p = h.position_for_frequency(70.0);
        let r_opt = h.optimal_load(p, 70.0, 0.6).unwrap();
        let p_opt = h.steady_state(p, 70.0, 0.6, r_opt).unwrap().load_power_w;
        for factor in [0.5, 0.8, 1.25, 2.0] {
            let p_alt = h
                .steady_state(p, 70.0, 0.6, r_opt * factor)
                .unwrap()
                .load_power_w;
            assert!(p_alt <= p_opt * (1.0 + 1e-9), "factor {factor}");
        }
    }

    #[test]
    fn circuit_model_matches_analytic_power() {
        // Simulate the netlist with a resistive load and compare the
        // average load power against the analytic phasor solution.
        let h = Harvester::default_tunable();
        let pos = h.position_for_frequency(65.0);
        let (mut nl, out) = h
            .build_netlist(pos, Arc::new(Sine::new(0.6, 65.0).unwrap()))
            .unwrap();
        let r_load = 20e3;
        nl.resistor("Rload", out, Netlist::GROUND, r_load).unwrap();
        // Simulate long enough to pass the mechanical transient
        // (Q ≈ 50 → ~50 cycles to settle) then average over full cycles.
        let cfg = TransientConfig::new(3.0, 2e-4).unwrap();
        let res = LinearizedStateSpaceEngine::default()
            .simulate(&nl, &cfg, &[Probe::element_power("Rload")])
            .unwrap();
        let p_sig = res.signal("p(Rload)").unwrap();
        let tail = &p_sig[p_sig.len() * 2 / 3..];
        let p_avg: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        let p_exact = h.steady_state(pos, 65.0, 0.6, r_load).unwrap().load_power_w;
        assert!(
            (p_avg - p_exact).abs() < 0.1 * p_exact,
            "sim = {p_avg}, analytic = {p_exact}"
        );
    }

    #[test]
    fn displacement_within_limit_for_typical_excitation() {
        let h = Harvester::default_tunable();
        let p = h.position_for_frequency(65.0);
        let ss = h.steady_state(p, 65.0, 0.6, 20e3).unwrap();
        assert!(ss.displacement_amp < h.displacement_limit_m);
    }

    #[test]
    fn validation_rejects_nonphysical() {
        let mut h = Harvester::default_tunable();
        h.mass_kg = 0.0;
        assert!(h.validate().is_err());
        let mut h2 = Harvester::default_tunable();
        h2.tuning.f_max_hz = h2.tuning.f_min_hz;
        assert!(h2.validate().is_err());
        let h3 = Harvester::default_tunable();
        assert!(h3.steady_state(0.5, -1.0, 0.5, 1e3).is_err());
        assert!(h3.steady_state(0.5, 60.0, 0.5, 0.0).is_err());
    }

    #[test]
    fn thevenin_rejects_non_finite_inputs() {
        // Regression: a hostile vibration source can hand the envelope
        // path infinite or NaN values; they must error instead of
        // propagating into the Thevenin equivalent.
        let h = Harvester::default_tunable();
        let prepared = h.prepared().unwrap();
        for (p, f, a) in [
            (0.5, f64::INFINITY, 0.5),
            (0.5, f64::NAN, 0.5),
            (0.5, 60.0, f64::INFINITY),
            (0.5, 60.0, f64::NAN),
            (f64::NAN, 60.0, 0.5),
            (f64::INFINITY, 60.0, 0.5),
        ] {
            assert!(h.thevenin(p, f, a).is_err(), "thevenin({p}, {f}, {a})");
            assert!(
                prepared.thevenin(p, f, a).is_err(),
                "prepared.thevenin({p}, {f}, {a})"
            );
        }
        assert!(h.steady_state(0.5, 60.0, 0.5, f64::INFINITY).is_err());
        assert!(h.steady_state(0.5, f64::INFINITY, 0.5, 1e3).is_err());
    }

    #[test]
    fn damping_penalty_reduces_peak_power() {
        let h = Harvester::default_tunable();
        // Same resonant frequency targeted from both ends of the range
        // is impossible; instead compare Q at p=0 vs p=1.
        let c0 = h.damping(0.0);
        let c1 = h.damping(1.0);
        // The penalty raises damping beyond the pure-frequency scaling.
        let scale = h.resonant_frequency(1.0) / h.resonant_frequency(0.0);
        assert!(c1 > c0 * scale * 1.05);
    }
}
