//! Vibration excitation sources for the `ehsim` workspace.
//!
//! The DATE'13 sensor node is powered by a *tunable* kinetic energy
//! harvester whose output collapses when the ambient vibration frequency
//! moves away from the harvester's mechanical resonance. The interesting
//! workloads are therefore not pure sines but frequencies that *drift*
//! (machinery changing speed, HVAC load changes) — exactly what the
//! node's tuning controller has to chase.
//!
//! The paper's authors evaluated against measured machinery vibration;
//! we do not have their traces, so this crate provides deterministic
//! synthetic equivalents (see `DESIGN.md`, substitution table):
//!
//! * [`Sine`] — stationary excitation at a fixed frequency;
//! * [`MultiTone`] — a dominant tone plus harmonics/spurs;
//! * [`Sweep`] — linear chirp with continuous phase;
//! * [`DriftSchedule`] — piecewise-linear frequency drift over hours,
//!   phase-continuous, the workhorse of the tuning experiments;
//! * [`AmplitudeSchedule`] — piecewise-linear *amplitude* fades at a
//!   fixed frequency (machinery load changes), the harvest-level
//!   counterpart of [`DriftSchedule`] used by the adaptive-policy
//!   experiments;
//! * [`BandNoise`] — seeded band-limited noise (sum of random tones);
//! * [`FilteredNoise`] — seeded stochastic vibration shaped by a
//!   second-order structural resonance;
//! * [`DutyCycled`] — on/off machinery bursts gating an inner source;
//! * [`ShockTrain`] — repeating decaying-sinusoid impacts with seeded
//!   timing/amplitude jitter;
//! * [`Composite`] — superposition of any of the above;
//! * [`Sequence`] — mode changes: plays sources back-to-back,
//!   cyclically.
//!
//! Every stochastic source is seeded and bit-reproducible: the same
//! constructor arguments always produce the same sample stream, which
//! is what makes whole-campaign results (and the e1–e11 experiment
//! CSVs) deterministic.
//!
//! Every source reports both the instantaneous base acceleration
//! (`acceleration`, m/s²) used by circuit-level simulation and a
//! spectral [`Envelope`] (dominant frequency + equivalent sinusoidal
//! amplitude) used by the system-level simulator and the node's
//! frequency-tuning controller.
//!
//! # Example
//!
//! ```
//! use ehsim_vibration::{DriftSchedule, VibrationSource};
//!
//! # fn main() -> Result<(), ehsim_vibration::VibrationError> {
//! // A motor that ramps from 55 Hz to 65 Hz over 100 s.
//! let src = DriftSchedule::new(vec![(0.0, 55.0), (100.0, 65.0)], 2.5)?;
//! assert!((src.envelope(0.0).freq_hz - 55.0).abs() < 1e-9);
//! assert!((src.envelope(50.0).freq_hz - 60.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

/// Errors produced when constructing vibration sources.
#[derive(Debug, Clone, PartialEq)]
pub enum VibrationError {
    /// A constructor argument violated its precondition.
    InvalidArgument {
        /// Description of the violated precondition.
        message: String,
    },
}

impl VibrationError {
    fn invalid(message: impl Into<String>) -> Self {
        VibrationError::InvalidArgument {
            message: message.into(),
        }
    }
}

impl fmt::Display for VibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VibrationError::InvalidArgument { message } => {
                write!(f, "invalid argument: {message}")
            }
        }
    }
}

impl Error for VibrationError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, VibrationError>;

/// Spectral envelope of a vibration source at a time instant: the
/// dominant frequency and the equivalent sinusoidal peak amplitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Dominant excitation frequency in hertz.
    pub freq_hz: f64,
    /// Equivalent sinusoidal peak acceleration amplitude in m/s².
    pub amp: f64,
}

/// A base-acceleration excitation source.
pub trait VibrationSource: Send + Sync {
    /// Instantaneous base acceleration in m/s².
    fn acceleration(&self, t: f64) -> f64;

    /// Dominant frequency and equivalent amplitude at time `t`.
    fn envelope(&self, t: f64) -> Envelope;
}

/// Pure sinusoidal excitation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sine {
    amp: f64,
    freq_hz: f64,
    phase: f64,
}

impl Sine {
    /// Creates a sine source with peak acceleration `amp` (m/s²) at
    /// `freq_hz`.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] if `amp < 0` or
    /// `freq_hz <= 0`.
    pub fn new(amp: f64, freq_hz: f64) -> Result<Self> {
        if !(amp >= 0.0) || !amp.is_finite() {
            return Err(VibrationError::invalid(format!(
                "amplitude must be non-negative, got {amp}"
            )));
        }
        if !(freq_hz > 0.0) || !freq_hz.is_finite() {
            return Err(VibrationError::invalid(format!(
                "frequency must be positive, got {freq_hz}"
            )));
        }
        Ok(Sine {
            amp,
            freq_hz,
            phase: 0.0,
        })
    }

    /// Sets the initial phase in radians (builder style).
    pub fn with_phase(mut self, phase: f64) -> Self {
        self.phase = phase;
        self
    }
}

impl VibrationSource for Sine {
    fn acceleration(&self, t: f64) -> f64 {
        self.amp * (2.0 * PI * self.freq_hz * t + self.phase).sin()
    }

    fn envelope(&self, _t: f64) -> Envelope {
        Envelope {
            freq_hz: self.freq_hz,
            amp: self.amp,
        }
    }
}

/// Superposition of several fixed tones; the envelope reports the
/// strongest one (the last of equally strong tones).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTone {
    tones: Vec<(f64, f64, f64)>, // (amp, freq, phase)
    strongest: Envelope,
}

impl MultiTone {
    /// Creates a multi-tone source from `(amp, freq_hz)` pairs.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] if no tones are given or any
    /// tone has a negative amplitude / non-positive frequency.
    pub fn new(tones: &[(f64, f64)]) -> Result<Self> {
        let Some(&(amp, freq_hz)) = tones.first() else {
            return Err(VibrationError::invalid("at least one tone required"));
        };
        let mut strongest = Envelope { freq_hz, amp };
        for &(a, f) in tones {
            if !(a >= 0.0) || !(f > 0.0) || !a.is_finite() || !f.is_finite() {
                return Err(VibrationError::invalid(format!(
                    "bad tone (amp={a}, freq={f})"
                )));
            }
            if a >= strongest.amp {
                strongest = Envelope { freq_hz: f, amp: a };
            }
        }
        Ok(MultiTone {
            tones: tones.iter().map(|&(a, f)| (a, f, 0.0)).collect(),
            strongest,
        })
    }

    /// Adds a harmonic-rich machinery spectrum: a fundamental plus
    /// progressively weaker harmonics.
    ///
    /// # Errors
    ///
    /// Same as [`MultiTone::new`].
    pub fn machinery(fundamental_hz: f64, amp: f64, n_harmonics: usize) -> Result<Self> {
        let mut tones = vec![(amp, fundamental_hz)];
        for k in 2..=(n_harmonics + 1) {
            tones.push((amp / (k as f64 * k as f64), fundamental_hz * k as f64));
        }
        MultiTone::new(&tones)
    }
}

impl VibrationSource for MultiTone {
    fn acceleration(&self, t: f64) -> f64 {
        self.tones
            .iter()
            .map(|&(a, f, p)| a * (2.0 * PI * f * t + p).sin())
            .sum()
    }

    fn envelope(&self, _t: f64) -> Envelope {
        self.strongest
    }
}

/// Linear chirp from `f0` to `f1` over `duration`, phase-continuous;
/// holds `f1` afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    amp: f64,
    f0: f64,
    f1: f64,
    duration: f64,
}

impl Sweep {
    /// Creates a linear sweep.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] for non-positive frequencies,
    /// negative amplitude, or non-positive duration.
    pub fn new(amp: f64, f0: f64, f1: f64, duration: f64) -> Result<Self> {
        if !(amp >= 0.0) || !(f0 > 0.0) || !(f1 > 0.0) || !(duration > 0.0) {
            return Err(VibrationError::invalid(format!(
                "bad sweep (amp={amp}, f0={f0}, f1={f1}, duration={duration})"
            )));
        }
        Ok(Sweep {
            amp,
            f0,
            f1,
            duration,
        })
    }

    fn phase(&self, t: f64) -> f64 {
        if t <= self.duration {
            // phase = 2π (f0 t + (f1-f0) t² / (2 T))
            2.0 * PI * (self.f0 * t + 0.5 * (self.f1 - self.f0) * t * t / self.duration)
        } else {
            let end =
                2.0 * PI * (self.f0 * self.duration + 0.5 * (self.f1 - self.f0) * self.duration);
            end + 2.0 * PI * self.f1 * (t - self.duration)
        }
    }
}

impl VibrationSource for Sweep {
    fn acceleration(&self, t: f64) -> f64 {
        self.amp * self.phase(t).sin()
    }

    fn envelope(&self, t: f64) -> Envelope {
        let f = if t <= self.duration {
            self.f0 + (self.f1 - self.f0) * t / self.duration
        } else {
            self.f1
        };
        Envelope {
            freq_hz: f,
            amp: self.amp,
        }
    }
}

/// Validates a `(time, value)` knot list shared by the schedule
/// sources: non-empty, with finite, strictly increasing times. (Values
/// carry source-specific constraints and are checked by each caller.)
fn validate_knot_times(knots: &[(f64, f64)]) -> Result<()> {
    if knots.is_empty() {
        return Err(VibrationError::invalid("at least one knot required"));
    }
    for &(t, _) in knots {
        if !t.is_finite() {
            return Err(VibrationError::invalid(format!(
                "knot times must be finite, got {t}"
            )));
        }
    }
    for w in knots.windows(2) {
        if !(w[0].0 < w[1].0) {
            return Err(VibrationError::invalid(
                "knot times must be strictly increasing",
            ));
        }
    }
    Ok(())
}

/// Evaluates a `(time, value)` knot list at `t`: linear interpolation
/// between knots, constant extension before the first and after the
/// last. Requires the knot list to satisfy [`validate_knot_times`].
fn piecewise_linear(knots: &[(f64, f64)], t: f64) -> f64 {
    let n = knots.len();
    if t <= knots[0].0 {
        return knots[0].1;
    }
    if t >= knots[n - 1].0 {
        return knots[n - 1].1;
    }
    let idx = knots.partition_point(|&(kt, _)| kt < t);
    let (t0, v0) = knots[idx - 1];
    let (t1, v1) = knots[idx];
    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
}

/// Piecewise-linear frequency drift over a `(time, frequency)` schedule
/// with a fixed amplitude. Phase is continuous across segments — the
/// instantaneous frequency is the schedule's linear interpolation and
/// the phase is its exact integral.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSchedule {
    knots: Vec<(f64, f64)>,
    /// Cumulative phase (radians) at each knot.
    phases: Vec<f64>,
    amp: f64,
}

impl DriftSchedule {
    /// Creates a drift schedule from `(time, freq_hz)` knots (strictly
    /// increasing times, positive frequencies). Frequency is held
    /// constant before the first and after the last knot.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] for fewer than one knot,
    /// non-increasing times, non-positive frequencies, or a negative
    /// amplitude.
    pub fn new(knots: Vec<(f64, f64)>, amp: f64) -> Result<Self> {
        validate_knot_times(&knots)?;
        if !(amp >= 0.0) || !amp.is_finite() {
            return Err(VibrationError::invalid(format!(
                "amplitude must be non-negative, got {amp}"
            )));
        }
        for &(_, f) in &knots {
            if !(f > 0.0) || !f.is_finite() {
                return Err(VibrationError::invalid(format!(
                    "frequencies must be positive, got {f}"
                )));
            }
        }
        // Cumulative phase at knots: integral of 2π f(t).
        let mut phases = vec![0.0; knots.len()];
        for i in 1..knots.len() {
            let (t0, f0) = knots[i - 1];
            let (t1, f1) = knots[i];
            phases[i] = phases[i - 1] + 2.0 * PI * 0.5 * (f0 + f1) * (t1 - t0);
        }
        Ok(DriftSchedule { knots, phases, amp })
    }

    /// The schedule's instantaneous frequency at `t`.
    pub fn frequency(&self, t: f64) -> f64 {
        piecewise_linear(&self.knots, t)
    }

    fn phase(&self, t: f64) -> f64 {
        let n = self.knots.len();
        if t <= self.knots[0].0 {
            // Constant frequency before the schedule starts.
            return 2.0 * PI * self.knots[0].1 * (t - self.knots[0].0);
        }
        if t >= self.knots[n - 1].0 {
            return self.phases[n - 1] + 2.0 * PI * self.knots[n - 1].1 * (t - self.knots[n - 1].0);
        }
        let idx = self.knots.partition_point(|&(kt, _)| kt < t);
        let (t0, f0) = self.knots[idx - 1];
        let (t1, f1) = self.knots[idx];
        let dt = t - t0;
        let f_t = f0 + (f1 - f0) * dt / (t1 - t0);
        self.phases[idx - 1] + 2.0 * PI * 0.5 * (f0 + f_t) * dt
    }
}

impl VibrationSource for DriftSchedule {
    fn acceleration(&self, t: f64) -> f64 {
        self.amp * self.phase(t).sin()
    }

    fn envelope(&self, t: f64) -> Envelope {
        Envelope {
            freq_hz: self.frequency(t),
            amp: self.amp,
        }
    }
}

/// Piecewise-linear *amplitude* schedule at a fixed frequency: the
/// harvest-level counterpart of [`DriftSchedule`]. Models machinery
/// whose vibration level fades and recovers with load changes while its
/// speed (and so the dominant frequency) stays put — the non-stationary
/// supply that runtime energy-management policies must ride out, since
/// no amount of frequency retuning helps when the excitation itself
/// weakens.
///
/// Amplitude is held constant before the first and after the last knot;
/// phase is trivially continuous because the frequency never changes.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeSchedule {
    knots: Vec<(f64, f64)>,
    freq_hz: f64,
}

impl AmplitudeSchedule {
    /// Creates an amplitude schedule from `(time, amp)` knots (strictly
    /// increasing times, non-negative amplitudes) at `freq_hz`.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] for an empty knot list,
    /// non-increasing times, negative amplitudes, or a non-positive
    /// frequency.
    pub fn new(knots: Vec<(f64, f64)>, freq_hz: f64) -> Result<Self> {
        validate_knot_times(&knots)?;
        if !(freq_hz > 0.0) || !freq_hz.is_finite() {
            return Err(VibrationError::invalid(format!(
                "frequency must be positive, got {freq_hz}"
            )));
        }
        for &(_, a) in &knots {
            if !(a >= 0.0) || !a.is_finite() {
                return Err(VibrationError::invalid(format!(
                    "amplitudes must be non-negative, got {a}"
                )));
            }
        }
        Ok(AmplitudeSchedule { knots, freq_hz })
    }

    /// The schedule's instantaneous amplitude at `t` (m/s²).
    pub fn amplitude(&self, t: f64) -> f64 {
        piecewise_linear(&self.knots, t)
    }
}

impl VibrationSource for AmplitudeSchedule {
    fn acceleration(&self, t: f64) -> f64 {
        self.amplitude(t) * (2.0 * PI * self.freq_hz * t).sin()
    }

    fn envelope(&self, t: f64) -> Envelope {
        Envelope {
            freq_hz: self.freq_hz,
            amp: self.amplitude(t),
        }
    }
}

/// Seeded band-limited noise: a sum of `n_tones` random-phase sinusoids
/// with frequencies uniform in `[center - bw/2, center + bw/2]`, scaled
/// to a target RMS acceleration. Deterministic for a given seed.
#[derive(Debug, Clone, PartialEq)]
pub struct BandNoise {
    tones: Vec<(f64, f64, f64)>,
    center: f64,
    rms: f64,
}

impl BandNoise {
    /// Creates band-limited noise.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] for non-positive `center`,
    /// negative `bandwidth`, non-positive `rms`, or zero tones.
    pub fn new(center: f64, bandwidth: f64, rms: f64, n_tones: usize, seed: u64) -> Result<Self> {
        if !(center > 0.0) || !(bandwidth >= 0.0) || !(rms > 0.0) || n_tones == 0 {
            return Err(VibrationError::invalid(format!(
                "bad noise spec (center={center}, bw={bandwidth}, rms={rms}, n={n_tones})"
            )));
        }
        if bandwidth / 2.0 >= center {
            return Err(VibrationError::invalid(
                "bandwidth must keep all frequencies positive",
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let amp_each = rms * (2.0 / n_tones as f64).sqrt();
        let tones = (0..n_tones)
            .map(|_| {
                let f = center + bandwidth * (rng.random::<f64>() - 0.5);
                let p = 2.0 * PI * rng.random::<f64>();
                (amp_each, f, p)
            })
            .collect();
        Ok(BandNoise { tones, center, rms })
    }
}

impl VibrationSource for BandNoise {
    fn acceleration(&self, t: f64) -> f64 {
        self.tones
            .iter()
            .map(|&(a, f, p)| a * (2.0 * PI * f * t + p).sin())
            .sum()
    }

    fn envelope(&self, _t: f64) -> Envelope {
        Envelope {
            freq_hz: self.center,
            amp: self.rms * std::f64::consts::SQRT_2,
        }
    }
}

/// Superposition of sources; the envelope reports the component with the
/// largest amplitude (the last of equally strong components, and any
/// component whose amplitude is NaN, so that the harvester rejects it).
pub struct Composite {
    sources: Vec<Box<dyn VibrationSource>>,
}

impl Composite {
    /// Creates a composite from boxed sources.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] if empty.
    pub fn new(sources: Vec<Box<dyn VibrationSource>>) -> Result<Self> {
        if sources.is_empty() {
            return Err(VibrationError::invalid("at least one source required"));
        }
        Ok(Composite { sources })
    }
}

impl fmt::Debug for Composite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Composite({} sources)", self.sources.len())
    }
}

impl VibrationSource for Composite {
    fn acceleration(&self, t: f64) -> f64 {
        self.sources.iter().map(|s| s.acceleration(t)).sum()
    }

    fn envelope(&self, t: f64) -> Envelope {
        // `new` guarantees a first source.
        let mut strongest = self.sources[0].envelope(t);
        for s in &self.sources[1..] {
            let e = s.envelope(t);
            if e.amp >= strongest.amp || e.amp.is_nan() {
                strongest = e;
            }
        }
        strongest
    }
}

/// A deterministic 53-bit hash of `(seed, k)` mapped onto `[0, 1)`,
/// via SplitMix64 finalisation. Used by sources that need per-event
/// randomness (e.g. shock jitter) while keeping `acceleration(t)` a
/// pure, seed-reproducible function of time.
fn hash01(seed: u64, k: u64) -> f64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Stochastic vibration shaped by a second-order resonant filter — the
/// classic model of broadband machine-floor noise transmitted through a
/// structural resonance.
///
/// Implemented as a seeded sum of `n_tones` random-phase sinusoids
/// whose frequencies are drawn uniformly from `band` and whose
/// amplitudes follow the magnitude response of a resonant band-pass
/// filter centred at `resonance_hz` with quality factor `q`, scaled so
/// the overall signal hits a target RMS acceleration. Deterministic for
/// a given seed — two instances with identical parameters produce
/// bit-identical samples.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredNoise {
    tones: Vec<(f64, f64, f64)>,
    resonance_hz: f64,
    rms: f64,
}

impl FilteredNoise {
    /// Creates filtered noise centred on `resonance_hz` with quality
    /// factor `q`, tone frequencies uniform in `band = (lo, hi)`, and
    /// target RMS acceleration `rms` (m/s²).
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] for a non-positive
    /// resonance, `q`, or `rms`; an empty or non-positive band; or zero
    /// tones.
    pub fn new(
        resonance_hz: f64,
        q: f64,
        band: (f64, f64),
        rms: f64,
        n_tones: usize,
        seed: u64,
    ) -> Result<Self> {
        let (lo, hi) = band;
        if !(resonance_hz > 0.0)
            || !resonance_hz.is_finite()
            || !(q > 0.0)
            || !q.is_finite()
            || !(rms > 0.0)
            || !rms.is_finite()
            || n_tones == 0
        {
            return Err(VibrationError::invalid(format!(
                "bad filtered-noise spec (resonance={resonance_hz}, q={q}, rms={rms}, n={n_tones})"
            )));
        }
        if !(lo > 0.0) || !(lo < hi) || !hi.is_finite() {
            return Err(VibrationError::invalid(format!(
                "band must satisfy 0 < lo < hi, got ({lo}, {hi})"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Second-order band-pass magnitude, unity gain at resonance:
        // |H(f)| = (f·fr/Q) / sqrt((fr² - f²)² + (f·fr/Q)²).
        let mag = |f: f64| {
            let fr = resonance_hz;
            let num = f * fr / q;
            num / ((fr * fr - f * f).powi(2) + num * num).sqrt()
        };
        let raw: Vec<(f64, f64, f64)> = (0..n_tones)
            .map(|_| {
                let f = lo + (hi - lo) * rng.random::<f64>();
                let p = 2.0 * PI * rng.random::<f64>();
                (mag(f), f, p)
            })
            .collect();
        // Scale so Σ aₖ²/2 = rms².
        let power: f64 = raw.iter().map(|&(a, _, _)| a * a).sum();
        let scale = rms * (2.0 / power).sqrt();
        let tones = raw.iter().map(|&(a, f, p)| (a * scale, f, p)).collect();
        Ok(FilteredNoise {
            tones,
            resonance_hz,
            rms,
        })
    }
}

impl VibrationSource for FilteredNoise {
    fn acceleration(&self, t: f64) -> f64 {
        self.tones
            .iter()
            .map(|&(a, f, p)| a * (2.0 * PI * f * t + p).sin())
            .sum()
    }

    fn envelope(&self, _t: f64) -> Envelope {
        Envelope {
            freq_hz: self.resonance_hz,
            amp: self.rms * std::f64::consts::SQRT_2,
        }
    }
}

/// On/off machinery bursts: gates an inner source with a periodic duty
/// cycle (a machine that runs, pauses, and runs again), with optional
/// linear ramps at the switching edges so the base acceleration stays
/// continuous.
pub struct DutyCycled {
    inner: Box<dyn VibrationSource>,
    period_s: f64,
    duty: f64,
    ramp_s: f64,
}

impl DutyCycled {
    /// Gates `inner` with period `period_s`, on-fraction `duty` in
    /// `(0, 1]`, and linear on/off ramps of `ramp_s` seconds (0 for a
    /// hard switch).
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] for a non-positive period,
    /// `duty` outside `(0, 1]`, a negative ramp, or a ramp longer than
    /// half the on-window.
    pub fn new(
        inner: Box<dyn VibrationSource>,
        period_s: f64,
        duty: f64,
        ramp_s: f64,
    ) -> Result<Self> {
        if !(period_s > 0.0) || !period_s.is_finite() {
            return Err(VibrationError::invalid(format!(
                "period must be positive, got {period_s}"
            )));
        }
        if !(duty > 0.0 && duty <= 1.0) {
            return Err(VibrationError::invalid(format!(
                "duty must be in (0, 1], got {duty}"
            )));
        }
        if !(ramp_s >= 0.0) || ramp_s > 0.5 * duty * period_s {
            return Err(VibrationError::invalid(format!(
                "ramp must be in [0, duty*period/2], got {ramp_s}"
            )));
        }
        Ok(DutyCycled {
            inner,
            period_s,
            duty,
            ramp_s,
        })
    }

    /// The gate value in `[0, 1]` at time `t`: 1 inside the on-window
    /// (past the ramps), 0 in the off-window. With `duty == 1` there is
    /// no off-window and no switching edge, so the gate is always 1.
    pub fn gate(&self, t: f64) -> f64 {
        if self.duty >= 1.0 {
            return 1.0;
        }
        let tau = t.rem_euclid(self.period_s);
        let on = self.duty * self.period_s;
        if tau >= on {
            return 0.0;
        }
        if self.ramp_s == 0.0 {
            return 1.0;
        }
        let rise = (tau / self.ramp_s).min(1.0);
        let fall = ((on - tau) / self.ramp_s).min(1.0);
        rise.min(fall)
    }
}

impl fmt::Debug for DutyCycled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DutyCycled(period={} s, duty={}, ramp={} s)",
            self.period_s, self.duty, self.ramp_s
        )
    }
}

impl VibrationSource for DutyCycled {
    fn acceleration(&self, t: f64) -> f64 {
        let g = self.gate(t);
        if g == 0.0 {
            0.0
        } else {
            g * self.inner.acceleration(t)
        }
    }

    fn envelope(&self, t: f64) -> Envelope {
        let e = self.inner.envelope(t);
        Envelope {
            freq_hz: e.freq_hz,
            amp: e.amp * self.gate(t),
        }
    }
}

/// A train of mechanical shocks: decaying-sinusoid impulses (impacts,
/// press strokes, passing vehicles) repeating at a nominal interval
/// with seeded per-shock timing and amplitude jitter.
///
/// Each shock `k` rings at `ring_hz` with initial peak `peak·sₖ` and
/// exponential decay constant `decay_tau_s`; its arrival time is
/// `k·interval + jitter`. Jitter is derived from a SplitMix64 hash of
/// `(seed, k)`, so the train is an unbounded, deterministic pure
/// function of time.
#[derive(Debug, Clone, PartialEq)]
pub struct ShockTrain {
    interval_s: f64,
    ring_hz: f64,
    peak: f64,
    decay_tau_s: f64,
    jitter_frac: f64,
    seed: u64,
}

impl ShockTrain {
    /// Creates a shock train. `jitter_frac` in `[0, 0.5)` scales both
    /// the timing jitter (± half an interval at 0.5) and the per-shock
    /// amplitude variation.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] for non-positive interval,
    /// ring frequency, peak, or decay; or `jitter_frac` outside
    /// `[0, 0.5)`.
    pub fn new(
        interval_s: f64,
        ring_hz: f64,
        peak: f64,
        decay_tau_s: f64,
        jitter_frac: f64,
        seed: u64,
    ) -> Result<Self> {
        if !(interval_s > 0.0)
            || !interval_s.is_finite()
            || !(ring_hz > 0.0)
            || !ring_hz.is_finite()
            || !(peak > 0.0)
            || !peak.is_finite()
            || !(decay_tau_s > 0.0)
            || !decay_tau_s.is_finite()
        {
            return Err(VibrationError::invalid(format!(
                "bad shock train (interval={interval_s}, ring={ring_hz}, peak={peak}, \
                 tau={decay_tau_s})"
            )));
        }
        if !(0.0..0.5).contains(&jitter_frac) {
            return Err(VibrationError::invalid(format!(
                "jitter_frac must be in [0, 0.5), got {jitter_frac}"
            )));
        }
        Ok(ShockTrain {
            interval_s,
            ring_hz,
            peak,
            decay_tau_s,
            jitter_frac,
            seed,
        })
    }

    /// Arrival time of shock `k`.
    fn shock_time(&self, k: u64) -> f64 {
        let j = (hash01(self.seed, 2 * k) - 0.5) * self.jitter_frac * self.interval_s;
        k as f64 * self.interval_s + j
    }

    /// Amplitude scale of shock `k`, in `[1 - jitter, 1 + jitter)`.
    fn shock_scale(&self, k: u64) -> f64 {
        1.0 + (hash01(self.seed, 2 * k + 1) - 0.5) * 2.0 * self.jitter_frac
    }
}

impl VibrationSource for ShockTrain {
    fn acceleration(&self, t: f64) -> f64 {
        // Only shocks within ~12 decay constants contribute visibly.
        let cutoff = 12.0 * self.decay_tau_s;
        if t < -0.5 * self.interval_s {
            return 0.0;
        }
        let k_max = (t / self.interval_s).floor() + 1.0;
        let k_min = ((t - cutoff) / self.interval_s).floor() - 1.0;
        let mut a = 0.0;
        let mut k = k_min.max(0.0) as u64;
        while (k as f64) <= k_max {
            let tk = self.shock_time(k);
            let dt = t - tk;
            if dt >= 0.0 && dt <= cutoff {
                a += self.peak
                    * self.shock_scale(k)
                    * (-dt / self.decay_tau_s).exp()
                    * (2.0 * PI * self.ring_hz * dt).sin();
            }
            k += 1;
        }
        a
    }

    fn envelope(&self, _t: f64) -> Envelope {
        // One shock's energy spread over the interval: the mean square
        // of peak·e^(−t/τ)·sin(2πft) over an interval is ≈ peak²·τ/(4·T).
        let rms = self.peak * (self.decay_tau_s / (4.0 * self.interval_s)).sqrt();
        Envelope {
            freq_hz: self.ring_hz,
            amp: rms * std::f64::consts::SQRT_2,
        }
    }
}

/// Plays sources back-to-back — a machine that changes operating mode —
/// cycling through the segment list forever. Each segment sees a local
/// clock that starts at zero when the segment begins.
pub struct Sequence {
    segments: Vec<(Box<dyn VibrationSource>, f64)>,
    starts: Vec<f64>,
    total: f64,
}

impl Sequence {
    /// Creates a cyclic sequence from `(source, duration_s)` segments.
    ///
    /// # Errors
    ///
    /// [`VibrationError::InvalidArgument`] if the list is empty or any
    /// duration is non-positive.
    pub fn new(segments: Vec<(Box<dyn VibrationSource>, f64)>) -> Result<Self> {
        if segments.is_empty() {
            return Err(VibrationError::invalid("at least one segment required"));
        }
        for (i, (_, d)) in segments.iter().enumerate() {
            if !(*d > 0.0) || !d.is_finite() {
                return Err(VibrationError::invalid(format!(
                    "segment {i} duration must be positive, got {d}"
                )));
            }
        }
        let mut starts = Vec::with_capacity(segments.len());
        let mut acc = 0.0;
        for (_, d) in &segments {
            starts.push(acc);
            acc += d;
        }
        Ok(Sequence {
            segments,
            starts,
            total: acc,
        })
    }

    /// Total cycle duration (s).
    pub fn cycle_s(&self) -> f64 {
        self.total
    }

    /// Index of the active segment and the segment-local time at `t`.
    fn locate(&self, t: f64) -> (usize, f64) {
        let tau = t.rem_euclid(self.total);
        let idx = match self.starts.partition_point(|&s| s <= tau).checked_sub(1) {
            Some(i) => i,
            None => 0,
        };
        (idx, tau - self.starts[idx])
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sequence({} segments, cycle {} s)",
            self.segments.len(),
            self.total
        )
    }
}

impl VibrationSource for Sequence {
    fn acceleration(&self, t: f64) -> f64 {
        let (idx, local) = self.locate(t);
        self.segments[idx].0.acceleration(local)
    }

    fn envelope(&self, t: f64) -> Envelope {
        let (idx, local) = self.locate(t);
        self.segments[idx].0.envelope(local)
    }
}

/// Estimates the dominant frequency of a uniformly sampled signal by
/// counting zero crossings — the cheap detector a real node's tuning
/// firmware would run.
///
/// Returns `None` for fewer than 2 samples or a signal without
/// crossings.
pub fn estimate_frequency_zero_crossings(samples: &[f64], fs_hz: f64) -> Option<f64> {
    if samples.len() < 2 || !(fs_hz > 0.0) {
        return None;
    }
    let mut first: Option<usize> = None;
    let mut last = 0usize;
    let mut crossings = 0usize;
    for k in 1..samples.len() {
        if samples[k - 1] <= 0.0 && samples[k] > 0.0 {
            crossings += 1;
            if first.is_none() {
                first = Some(k);
            }
            last = k;
        }
    }
    let first = first?;
    if crossings < 2 || last == first {
        return None;
    }
    let periods = (crossings - 1) as f64;
    let duration = (last - first) as f64 / fs_hz;
    Some(periods / duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplitude_schedule_interpolates_and_clamps() {
        let a = AmplitudeSchedule::new(vec![(0.0, 1.0), (10.0, 0.2), (20.0, 0.8)], 64.0).unwrap();
        // Held constant outside the schedule.
        assert_eq!(a.amplitude(-5.0), 1.0);
        assert_eq!(a.amplitude(25.0), 0.8);
        // Linear interpolation between knots.
        assert!((a.amplitude(5.0) - 0.6).abs() < 1e-12);
        assert!((a.amplitude(15.0) - 0.5).abs() < 1e-12);
        // Envelope carries the fixed frequency and the faded amplitude.
        let e = a.envelope(5.0);
        assert_eq!(e.freq_hz, 64.0);
        assert!((e.amp - 0.6).abs() < 1e-12);
        // Acceleration is the faded sine.
        let t = 5.0;
        let want = a.amplitude(t) * (2.0 * PI * 64.0 * t).sin();
        assert_eq!(a.acceleration(t), want);
    }

    #[test]
    fn amplitude_schedule_validation() {
        assert!(AmplitudeSchedule::new(vec![], 60.0).is_err());
        assert!(AmplitudeSchedule::new(vec![(0.0, 1.0)], 0.0).is_err());
        assert!(AmplitudeSchedule::new(vec![(0.0, 1.0), (0.0, 2.0)], 60.0).is_err());
        assert!(AmplitudeSchedule::new(vec![(0.0, -1.0)], 60.0).is_err());
        assert!(AmplitudeSchedule::new(vec![(0.0, f64::NAN)], 60.0).is_err());
        assert!(AmplitudeSchedule::new(vec![(0.0, 1.0)], 60.0).is_ok());
    }

    #[test]
    fn schedules_reject_non_finite_knot_times() {
        // A single NaN-time knot used to slip past the windows(2)
        // strictly-increasing check and panic inside the evaluator.
        assert!(AmplitudeSchedule::new(vec![(f64::NAN, 1.0)], 60.0).is_err());
        assert!(AmplitudeSchedule::new(vec![(f64::INFINITY, 1.0)], 60.0).is_err());
        assert!(DriftSchedule::new(vec![(f64::NAN, 60.0)], 1.0).is_err());
        assert!(DriftSchedule::new(vec![(0.0, 60.0), (f64::NAN, 62.0)], 1.0).is_err());
    }

    #[test]
    fn sine_values_and_envelope() {
        let s = Sine::new(2.0, 50.0).unwrap();
        assert!(s.acceleration(0.0).abs() < 1e-12);
        assert!((s.acceleration(0.005) - 2.0).abs() < 1e-12);
        let e = s.envelope(123.0);
        assert_eq!(e.freq_hz, 50.0);
        assert_eq!(e.amp, 2.0);
    }

    #[test]
    fn sine_with_phase() {
        let s = Sine::new(1.0, 1.0).unwrap().with_phase(PI / 2.0);
        assert!((s.acceleration(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sine_rejects_bad_args() {
        assert!(Sine::new(-1.0, 50.0).is_err());
        assert!(Sine::new(1.0, 0.0).is_err());
        assert!(Sine::new(f64::NAN, 50.0).is_err());
    }

    #[test]
    fn multitone_envelope_is_strongest() {
        let m = MultiTone::new(&[(1.0, 30.0), (3.0, 60.0), (0.5, 90.0)]).unwrap();
        let e = m.envelope(0.0);
        assert_eq!(e.freq_hz, 60.0);
        assert_eq!(e.amp, 3.0);
        assert!(MultiTone::new(&[]).is_err());
    }

    #[test]
    fn machinery_harmonics_decay() {
        let m = MultiTone::machinery(50.0, 2.0, 3).unwrap();
        let e = m.envelope(0.0);
        assert_eq!(e.freq_hz, 50.0);
        // Acceleration is bounded by the sum of amplitudes.
        let bound: f64 = 2.0 * (1.0 + 0.25 + 1.0 / 9.0 + 1.0 / 16.0);
        for k in 0..100 {
            assert!(m.acceleration(k as f64 * 0.001).abs() <= bound + 1e-9);
        }
    }

    #[test]
    fn sweep_frequency_interpolates() {
        let s = Sweep::new(1.0, 10.0, 20.0, 10.0).unwrap();
        assert_eq!(s.envelope(0.0).freq_hz, 10.0);
        assert_eq!(s.envelope(5.0).freq_hz, 15.0);
        assert_eq!(s.envelope(10.0).freq_hz, 20.0);
        assert_eq!(s.envelope(20.0).freq_hz, 20.0);
    }

    #[test]
    fn sweep_phase_is_continuous() {
        let s = Sweep::new(1.0, 10.0, 20.0, 1.0).unwrap();
        // The signal must not jump anywhere, including at the sweep end.
        let dt = 1e-5;
        let mut prev = s.acceleration(0.0);
        let mut t = dt;
        while t < 1.5 {
            let cur = s.acceleration(t);
            // Max slope of sin at 20 Hz: 2π·20·amp ≈ 126/s.
            assert!(
                (cur - prev).abs() < 130.0 * dt,
                "jump at t={t}: {prev} -> {cur}"
            );
            prev = cur;
            t += dt;
        }
    }

    #[test]
    fn drift_schedule_frequency_and_phase() {
        let d = DriftSchedule::new(vec![(0.0, 50.0), (10.0, 70.0)], 1.0).unwrap();
        assert_eq!(d.frequency(-1.0), 50.0);
        assert_eq!(d.frequency(5.0), 60.0);
        assert_eq!(d.frequency(11.0), 70.0);
        // Phase continuity across the final knot.
        let dt = 1e-5;
        let mut prev = d.acceleration(9.9999);
        for k in 1..30 {
            let t = 9.9999 + k as f64 * dt;
            let cur = d.acceleration(t);
            assert!((cur - prev).abs() < 2.0 * PI * 71.0 * dt * 1.1);
            prev = cur;
        }
    }

    #[test]
    fn drift_schedule_validation() {
        assert!(DriftSchedule::new(vec![], 1.0).is_err());
        assert!(DriftSchedule::new(vec![(0.0, 50.0), (0.0, 60.0)], 1.0).is_err());
        assert!(DriftSchedule::new(vec![(0.0, -5.0)], 1.0).is_err());
        assert!(DriftSchedule::new(vec![(0.0, 50.0)], -1.0).is_err());
    }

    #[test]
    fn band_noise_rms_and_determinism() {
        let n1 = BandNoise::new(60.0, 10.0, 1.5, 32, 42).unwrap();
        let n2 = BandNoise::new(60.0, 10.0, 1.5, 32, 42).unwrap();
        let n3 = BandNoise::new(60.0, 10.0, 1.5, 32, 43).unwrap();
        // Determinism by seed.
        assert_eq!(n1.acceleration(0.123), n2.acceleration(0.123));
        assert_ne!(n1.acceleration(0.123), n3.acceleration(0.123));
        // Empirical RMS over a long window approaches the target.
        let fs = 1000.0;
        let n = 20_000;
        let ms: f64 = (0..n)
            .map(|k| n1.acceleration(k as f64 / fs).powi(2))
            .sum::<f64>()
            / n as f64;
        let rms = ms.sqrt();
        assert!((rms - 1.5).abs() < 0.25, "rms = {rms}");
    }

    #[test]
    fn band_noise_validation() {
        assert!(BandNoise::new(0.0, 1.0, 1.0, 8, 0).is_err());
        assert!(BandNoise::new(10.0, 25.0, 1.0, 8, 0).is_err());
        assert!(BandNoise::new(10.0, 1.0, 0.0, 8, 0).is_err());
        assert!(BandNoise::new(10.0, 1.0, 1.0, 0, 0).is_err());
    }

    #[test]
    fn composite_sums_and_reports_strongest() {
        let c = Composite::new(vec![
            Box::new(Sine::new(1.0, 30.0).unwrap()),
            Box::new(Sine::new(2.0, 60.0).unwrap()),
        ])
        .unwrap();
        let t = 0.0123;
        let expected = Sine::new(1.0, 30.0).unwrap().acceleration(t)
            + Sine::new(2.0, 60.0).unwrap().acceleration(t);
        assert!((c.acceleration(t) - expected).abs() < 1e-12);
        assert_eq!(c.envelope(0.0).freq_hz, 60.0);
        assert!(Composite::new(vec![]).is_err());
        assert!(!format!("{c:?}").is_empty());
    }

    #[test]
    fn equally_strong_components_report_the_later_one() {
        let m = MultiTone::new(&[(2.0, 30.0), (1.0, 45.0), (2.0, 60.0)]).unwrap();
        assert_eq!(
            m.envelope(0.0),
            Envelope {
                freq_hz: 60.0,
                amp: 2.0
            }
        );
        let c = Composite::new(vec![
            Box::new(Sine::new(2.0, 30.0).unwrap()),
            Box::new(Sine::new(2.0, 60.0).unwrap()),
            Box::new(Sine::new(1.0, 90.0).unwrap()),
        ])
        .unwrap();
        assert_eq!(
            c.envelope(0.0),
            Envelope {
                freq_hz: 60.0,
                amp: 2.0
            }
        );
    }

    #[test]
    fn composite_envelope_passes_a_nan_amplitude_on() {
        struct NanAmplitude;
        impl VibrationSource for NanAmplitude {
            fn acceleration(&self, _t: f64) -> f64 {
                f64::NAN
            }
            fn envelope(&self, _t: f64) -> Envelope {
                Envelope {
                    freq_hz: 45.0,
                    amp: f64::NAN,
                }
            }
        }
        let strong = || Box::new(Sine::new(5.0, 60.0).unwrap());
        for sources in [
            vec![Box::new(NanAmplitude) as Box<dyn VibrationSource>, strong()],
            vec![strong(), Box::new(NanAmplitude)],
        ] {
            let e = Composite::new(sources).unwrap().envelope(0.0);
            assert!(e.amp.is_nan(), "{e:?}");
            assert_eq!(e.freq_hz, 45.0);
        }
    }

    #[test]
    fn zero_crossing_estimator_accuracy() {
        let s = Sine::new(1.0, 47.0).unwrap();
        let fs = 10_000.0;
        let samples: Vec<f64> = (0..5000).map(|k| s.acceleration(k as f64 / fs)).collect();
        let f = estimate_frequency_zero_crossings(&samples, fs).unwrap();
        assert!((f - 47.0).abs() < 0.5, "estimated {f}");
    }

    #[test]
    fn zero_crossing_estimator_edge_cases() {
        assert!(estimate_frequency_zero_crossings(&[], 100.0).is_none());
        assert!(estimate_frequency_zero_crossings(&[1.0, 1.0, 1.0], 100.0).is_none());
        assert!(estimate_frequency_zero_crossings(&[1.0, 2.0], 0.0).is_none());
    }

    #[test]
    fn filtered_noise_rms_determinism_and_shape() {
        let a = FilteredNoise::new(60.0, 8.0, (20.0, 120.0), 1.2, 48, 7).unwrap();
        let b = FilteredNoise::new(60.0, 8.0, (20.0, 120.0), 1.2, 48, 7).unwrap();
        let c = FilteredNoise::new(60.0, 8.0, (20.0, 120.0), 1.2, 48, 8).unwrap();
        assert_eq!(a.acceleration(0.321), b.acceleration(0.321));
        assert_ne!(a.acceleration(0.321), c.acceleration(0.321));
        assert_eq!(a.envelope(5.0).freq_hz, 60.0);
        // Empirical RMS approaches the target.
        let fs = 1000.0;
        let n = 40_000;
        let ms: f64 = (0..n)
            .map(|k| a.acceleration(k as f64 / fs).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((ms.sqrt() - 1.2).abs() < 0.2, "rms = {}", ms.sqrt());
    }

    #[test]
    fn filtered_noise_validation() {
        assert!(FilteredNoise::new(0.0, 8.0, (20.0, 120.0), 1.0, 8, 0).is_err());
        assert!(FilteredNoise::new(60.0, 0.0, (20.0, 120.0), 1.0, 8, 0).is_err());
        assert!(FilteredNoise::new(60.0, 8.0, (120.0, 20.0), 1.0, 8, 0).is_err());
        assert!(FilteredNoise::new(60.0, 8.0, (0.0, 120.0), 1.0, 8, 0).is_err());
        assert!(FilteredNoise::new(60.0, 8.0, (20.0, 120.0), 0.0, 8, 0).is_err());
        assert!(FilteredNoise::new(60.0, 8.0, (20.0, 120.0), 1.0, 0, 0).is_err());
        assert!(FilteredNoise::new(f64::INFINITY, 8.0, (20.0, 120.0), 1.0, 8, 0).is_err());
        assert!(FilteredNoise::new(60.0, f64::NAN, (20.0, 120.0), 1.0, 8, 0).is_err());
        assert!(FilteredNoise::new(60.0, 8.0, (20.0, 120.0), f64::INFINITY, 8, 0).is_err());
    }

    #[test]
    fn duty_cycled_gates_and_ramps() {
        let inner = Box::new(Sine::new(1.0, 50.0).unwrap());
        let d = DutyCycled::new(inner, 10.0, 0.6, 1.0).unwrap();
        // Fully on mid-window, fully off in the off-window.
        assert_eq!(d.gate(3.0), 1.0);
        assert_eq!(d.gate(8.0), 0.0);
        assert_eq!(d.acceleration(8.0), 0.0);
        // Mid-ramp the gate is half.
        assert!((d.gate(0.5) - 0.5).abs() < 1e-12);
        assert!((d.gate(5.5) - 0.5).abs() < 1e-12);
        // Periodicity (including negative time via rem_euclid).
        assert_eq!(d.gate(13.0), d.gate(3.0));
        assert_eq!(d.gate(-7.0), d.gate(3.0));
        // Envelope amplitude is gated too.
        assert_eq!(d.envelope(8.0).amp, 0.0);
        assert_eq!(d.envelope(3.0).amp, 1.0);
        assert!(!format!("{d:?}").is_empty());
    }

    #[test]
    fn duty_cycled_validation() {
        let mk = || Box::new(Sine::new(1.0, 50.0).unwrap()) as Box<dyn VibrationSource>;
        assert!(DutyCycled::new(mk(), 0.0, 0.5, 0.0).is_err());
        assert!(DutyCycled::new(mk(), 10.0, 0.0, 0.0).is_err());
        assert!(DutyCycled::new(mk(), 10.0, 1.5, 0.0).is_err());
        assert!(DutyCycled::new(mk(), 10.0, 0.5, -1.0).is_err());
        assert!(DutyCycled::new(mk(), 10.0, 0.5, 3.0).is_err());
        assert!(DutyCycled::new(mk(), 10.0, 1.0, 0.0).is_ok());
    }

    #[test]
    fn duty_cycled_always_on_never_gates() {
        // duty == 1 means no off-window: the gate must be 1 everywhere,
        // even with a non-zero ramp, and the signal must pass through
        // unmodified.
        let d = DutyCycled::new(Box::new(Sine::new(1.0, 50.0).unwrap()), 10.0, 1.0, 1.0).unwrap();
        for k in 0..200 {
            let t = k as f64 * 0.1;
            assert_eq!(d.gate(t), 1.0, "gate({t})");
        }
        let direct = Sine::new(1.0, 50.0).unwrap();
        assert_eq!(d.acceleration(9.97), direct.acceleration(9.97));
        assert_eq!(d.envelope(0.0).amp, 1.0);
    }

    #[test]
    fn shock_train_rings_and_decays() {
        let s = ShockTrain::new(5.0, 120.0, 3.0, 0.05, 0.0, 0).unwrap();
        // Quiet before the first shock's tail region.
        assert_eq!(s.acceleration(-3.0), 0.0);
        // Shortly after a shock the signal is alive...
        let peak_window: f64 = (0..200)
            .map(|k| s.acceleration(0.001 * k as f64).abs())
            .fold(0.0, f64::max);
        assert!(peak_window > 1.0, "peak = {peak_window}");
        // ...and it has died down by mid-interval (> 12τ after).
        assert_eq!(s.acceleration(2.5), 0.0);
        assert_eq!(s.envelope(0.0).freq_hz, 120.0);
    }

    #[test]
    fn shock_train_jitter_is_deterministic() {
        let a = ShockTrain::new(5.0, 120.0, 3.0, 0.05, 0.3, 11).unwrap();
        let b = ShockTrain::new(5.0, 120.0, 3.0, 0.05, 0.3, 11).unwrap();
        let c = ShockTrain::new(5.0, 120.0, 3.0, 0.05, 0.3, 12).unwrap();
        let t = 10.007;
        assert_eq!(a.acceleration(t), b.acceleration(t));
        // With jitter, different seeds shift shock times.
        let differs = (0..100)
            .map(|k| 0.05 * k as f64)
            .any(|t| a.acceleration(t) != c.acceleration(t));
        assert!(differs);
    }

    #[test]
    fn shock_train_validation() {
        assert!(ShockTrain::new(0.0, 120.0, 3.0, 0.05, 0.0, 0).is_err());
        assert!(ShockTrain::new(5.0, 0.0, 3.0, 0.05, 0.0, 0).is_err());
        assert!(ShockTrain::new(5.0, 120.0, 0.0, 0.05, 0.0, 0).is_err());
        assert!(ShockTrain::new(5.0, 120.0, 3.0, 0.0, 0.0, 0).is_err());
        assert!(ShockTrain::new(5.0, 120.0, 3.0, 0.05, 0.5, 0).is_err());
        assert!(ShockTrain::new(5.0, 120.0, 3.0, 0.05, -0.1, 0).is_err());
        assert!(ShockTrain::new(f64::INFINITY, 120.0, 3.0, 0.05, 0.0, 0).is_err());
        assert!(ShockTrain::new(5.0, f64::NAN, 3.0, 0.05, 0.0, 0).is_err());
        assert!(ShockTrain::new(5.0, 120.0, f64::INFINITY, 0.05, 0.0, 0).is_err());
        assert!(ShockTrain::new(5.0, 120.0, 3.0, f64::NAN, 0.0, 0).is_err());
        assert!(ShockTrain::new(5.0, 120.0, 3.0, 0.05, f64::NAN, 0).is_err());
    }

    #[test]
    fn sequence_plays_segments_with_local_clocks() {
        let seq = Sequence::new(vec![
            (Box::new(Sine::new(1.0, 40.0).unwrap()), 10.0),
            (Box::new(Sine::new(2.0, 80.0).unwrap()), 5.0),
        ])
        .unwrap();
        assert_eq!(seq.cycle_s(), 15.0);
        assert_eq!(seq.envelope(3.0).freq_hz, 40.0);
        assert_eq!(seq.envelope(12.0).freq_hz, 80.0);
        // Cyclic: t = 18 lands back in segment 0 at local time 3.
        assert_eq!(seq.envelope(18.0).freq_hz, 40.0);
        let direct = Sine::new(1.0, 40.0).unwrap().acceleration(3.0);
        assert!((seq.acceleration(18.0) - direct).abs() < 1e-12);
        // Segment-local clock: segment 1 starts from phase zero.
        let direct1 = Sine::new(2.0, 80.0).unwrap().acceleration(2.0);
        assert!((seq.acceleration(12.0) - direct1).abs() < 1e-12);
        assert!(!format!("{seq:?}").is_empty());
    }

    #[test]
    fn sequence_validation() {
        assert!(Sequence::new(vec![]).is_err());
        assert!(Sequence::new(vec![(
            Box::new(Sine::new(1.0, 40.0).unwrap()) as Box<dyn VibrationSource>,
            0.0
        )])
        .is_err());
    }

    #[test]
    fn hash01_is_uniform_enough_and_stable() {
        // Stability: the same (seed, k) always maps to the same value.
        assert_eq!(hash01(42, 7), hash01(42, 7));
        assert_ne!(hash01(42, 7), hash01(42, 8));
        // All values in [0, 1), mean near 0.5.
        let n = 10_000u64;
        let mut sum = 0.0;
        for k in 0..n {
            let v = hash01(1, k);
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn sources_are_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync>(_t: &T) {}
        let boxed: Box<dyn VibrationSource> = Box::new(Sine::new(1.0, 50.0).unwrap());
        assert!(boxed.acceleration(0.0).abs() < 1e-12);
        assert_send_sync(&boxed);
    }
}
