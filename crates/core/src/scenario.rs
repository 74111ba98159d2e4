//! Simulation scenarios: a vibration environment plus a duration, and
//! weighted ensembles of them for cross-scenario (robust) optimisation.

use crate::{CoreError, Result};
use ehsim_vibration::{
    AmplitudeSchedule, Composite, DriftSchedule, DutyCycled, FilteredNoise, MultiTone, ShockTrain,
    Sine, VibrationSource,
};
use std::sync::Arc;

/// A reproducible simulation scenario.
#[derive(Clone)]
pub struct Scenario {
    source: Arc<dyn VibrationSource>,
    duration_s: f64,
    label: String,
}

impl Scenario {
    /// Creates a scenario from any vibration source.
    ///
    /// # Example
    ///
    /// ```
    /// use ehsim_core::scenario::Scenario;
    /// use ehsim_vibration::Sine;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), ehsim_core::CoreError> {
    /// let src = Arc::new(Sine::new(0.9, 64.0).expect("valid sine"));
    /// let scenario = Scenario::new(src, 600.0, "bench-grinder")?;
    /// assert_eq!(scenario.label(), "bench-grinder");
    /// assert_eq!(scenario.duration_s(), 600.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a duration that is not
    /// positive and finite (the historical guard admitted
    /// `f64::INFINITY`, which would hang the simulator's tick loop).
    pub fn new(
        source: Arc<dyn VibrationSource>,
        duration_s: f64,
        label: impl Into<String>,
    ) -> Result<Self> {
        check_duration(duration_s)?;
        Ok(Scenario {
            source,
            duration_s,
            label: label.into(),
        })
    }

    /// Stationary machine vibration at 64 Hz, 0.9 m/s².
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a duration that is not
    /// positive and finite, as for every fixture below.
    pub fn stationary_machine(duration_s: f64) -> Result<Self> {
        Scenario::new(
            Arc::new(Sine::new(0.9, 64.0)?),
            duration_s,
            "stationary-64Hz",
        )
    }

    /// A machine whose speed ramps 58 → 70 Hz across the run — the
    /// workload that makes the tuning controller earn its keep.
    pub fn drifting_machine(duration_s: f64) -> Result<Self> {
        check_duration(duration_s)?;
        let schedule = DriftSchedule::new(
            vec![
                (0.0, 58.0),
                (duration_s * 0.4, 63.0),
                (duration_s * 0.7, 69.0),
                (duration_s, 70.0),
            ],
            0.9,
        )?;
        Scenario::new(Arc::new(schedule), duration_s, "drifting-58-70Hz")
    }

    /// Harmonic-rich industrial spectrum: 62 Hz fundamental plus
    /// harmonics.
    pub fn industrial_spectrum(duration_s: f64) -> Result<Self> {
        let source = MultiTone::machinery(62.0, 0.8, 3)?;
        Scenario::new(Arc::new(source), duration_s, "industrial-62Hz")
    }

    /// A machine whose vibration *level* fades and recovers while its
    /// speed stays at 64 Hz: full amplitude for the first third, a deep
    /// fade to 25 % through the middle (load removed), then recovery.
    /// Frequency retuning cannot help here — the excitation itself
    /// weakens — which is what makes this the canonical workload for
    /// *runtime* energy-management policies.
    pub fn fading_machine(duration_s: f64) -> Result<Self> {
        check_duration(duration_s)?;
        let schedule = AmplitudeSchedule::new(
            vec![
                (0.0, 0.9),
                (duration_s * 0.3, 0.9),
                (duration_s * 0.4, 0.25),
                (duration_s * 0.75, 0.25),
                (duration_s * 0.85, 0.9),
                (duration_s, 0.9),
            ],
            64.0,
        )?;
        Scenario::new(Arc::new(schedule), duration_s, "fading-64Hz")
    }

    /// Intermittent machinery: long on/off blocks (35 % duty over four
    /// cycles per run) of a harmonic-rich 64 Hz spectrum. During the
    /// off blocks nothing is harvested at all, so a tuning that merely
    /// maximises average packets power-cycles the node; surviving the
    /// gaps takes either oversized storage or an adaptive policy.
    pub fn intermittent_machine(duration_s: f64) -> Result<Self> {
        check_duration(duration_s)?;
        let burst = DutyCycled::new(
            Box::new(MultiTone::machinery(64.0, 0.9, 3)?),
            duration_s / 4.0,
            0.35,
            duration_s / 80.0,
        )?;
        Scenario::new(Arc::new(burst), duration_s, "intermittent-64Hz")
    }

    /// The excitation source.
    pub fn source(&self) -> &Arc<dyn VibrationSource> {
        &self.source
    }

    /// Simulated duration (s).
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Human-readable label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// The duration guard of [`Scenario::new`] and every fixture: positive
/// and finite.
fn check_duration(duration_s: f64) -> Result<()> {
    if !(duration_s > 0.0) || !duration_s.is_finite() {
        return Err(CoreError::invalid(format!(
            "duration must be positive and finite, got {duration_s}"
        )));
    }
    Ok(())
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scenario({}, {} s)", self.label, self.duration_s)
    }
}

/// A weighted ensemble of named scenarios — the node's whole expected
/// *deployment envelope* rather than a single operating point.
///
/// The paper optimises energy management for a tunable harvester
/// precisely because the vibration environment is not stationary; an
/// ensemble makes that explicit: each entry is one environment the
/// node may encounter, with a weight expressing how much of its life
/// it spends there. Weights are stored as given and normalised on
/// read, so `[(a, 2.0), (b, 2.0)]` and `[(a, 0.5), (b, 0.5)]` are the
/// same ensemble.
///
/// # Example
///
/// ```
/// use ehsim_core::scenario::{Scenario, ScenarioEnsemble};
///
/// # fn main() -> Result<(), ehsim_core::CoreError> {
/// let ensemble = ScenarioEnsemble::new(vec![
///     (Scenario::stationary_machine(600.0)?, 0.6),
///     (Scenario::drifting_machine(600.0)?, 0.4),
/// ])?;
/// assert_eq!(ensemble.len(), 2);
/// assert_eq!(ensemble.labels(), vec!["stationary-64Hz", "drifting-58-70Hz"]);
/// // Weights come back normalised.
/// assert!((ensemble.weights()[0] - 0.6).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioEnsemble {
    entries: Vec<(Scenario, f64)>,
}

impl ScenarioEnsemble {
    /// Creates an ensemble from `(scenario, weight)` entries.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if the list is empty or any
    /// weight is non-positive or non-finite.
    pub fn new(entries: Vec<(Scenario, f64)>) -> Result<Self> {
        if entries.is_empty() {
            return Err(CoreError::invalid("ensemble needs at least one scenario"));
        }
        for (s, w) in &entries {
            if !(*w > 0.0) || !w.is_finite() {
                return Err(CoreError::invalid(format!(
                    "weight for scenario '{}' must be positive and finite, got {w}",
                    s.label()
                )));
            }
        }
        Ok(ScenarioEnsemble { entries })
    }

    /// Creates an equally weighted ensemble.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if the list is empty.
    pub fn uniform(scenarios: Vec<Scenario>) -> Result<Self> {
        ScenarioEnsemble::new(scenarios.into_iter().map(|s| (s, 1.0)).collect())
    }

    /// A canonical five-environment "factory floor" ensemble exercising
    /// every source family: stationary hum, a speed-ramping machine,
    /// duty-cycled machinery bursts, resonance-filtered broadband
    /// noise, and a shock train riding on a weak hum. All stochastic
    /// members are seeded, so the ensemble is fully reproducible.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a duration that is not
    /// positive and finite.
    pub fn factory_floor(duration_s: f64) -> Result<Self> {
        check_duration(duration_s)?;
        let duty = DutyCycled::new(
            Box::new(MultiTone::machinery(61.0, 0.9, 3)?),
            duration_s / 6.0,
            0.7,
            duration_s / 120.0,
        )?;
        let noise = FilteredNoise::new(63.0, 10.0, (40.0, 90.0), 0.7, 48, 20)?;
        let shocks = Composite::new(vec![
            Box::new(Sine::new(0.5, 59.0)?),
            Box::new(ShockTrain::new(8.0, 110.0, 4.0, 0.12, 0.2, 21)?),
        ])?;
        ScenarioEnsemble::new(vec![
            (Scenario::stationary_machine(duration_s)?, 0.30),
            (Scenario::drifting_machine(duration_s)?, 0.25),
            (
                Scenario::new(Arc::new(duty), duration_s, "duty-cycled-61Hz")?,
                0.20,
            ),
            (
                Scenario::new(Arc::new(noise), duration_s, "filtered-noise-63Hz")?,
                0.15,
            ),
            (
                Scenario::new(Arc::new(shocks), duration_s, "shock-train-110Hz")?,
                0.10,
            ),
        ])
    }

    /// Number of scenarios.
    #[allow(clippy::len_without_is_empty)] // never empty by construction
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The `(scenario, raw weight)` entries in order.
    pub fn entries(&self) -> &[(Scenario, f64)] {
        &self.entries
    }

    /// One scenario by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn scenario(&self, idx: usize) -> &Scenario {
        &self.entries[idx].0
    }

    /// The weights, normalised to sum to 1.
    pub fn weights(&self) -> Vec<f64> {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        self.entries.iter().map(|(_, w)| w / total).collect()
    }

    /// The scenario labels, in order.
    pub fn labels(&self) -> Vec<&str> {
        self.entries.iter().map(|(s, _)| s.label()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let s = Scenario::stationary_machine(600.0).unwrap();
        assert_eq!(s.duration_s(), 600.0);
        assert!((s.source().envelope(0.0).freq_hz - 64.0).abs() < 1e-9);
        let d = Scenario::drifting_machine(1000.0).unwrap();
        assert!((d.source().envelope(0.0).freq_hz - 58.0).abs() < 1e-9);
        assert!((d.source().envelope(1000.0).freq_hz - 70.0).abs() < 1e-9);
        let i = Scenario::industrial_spectrum(60.0).unwrap();
        assert_eq!(i.source().envelope(0.0).freq_hz, 62.0);
        assert!(!format!("{i:?}").is_empty());
    }

    #[test]
    fn validation() {
        let src = Arc::new(Sine::new(1.0, 50.0).unwrap());
        assert!(Scenario::new(src.clone(), 0.0, "x").is_err());
        // Regression: infinite and NaN durations must be rejected here,
        // not handed to the simulator's tick loop.
        assert!(Scenario::new(src.clone(), f64::INFINITY, "x").is_err());
        assert!(Scenario::new(src, f64::NAN, "x").is_err());
    }

    #[test]
    fn fixtures_reject_bad_durations() {
        type Fixture = fn(f64) -> Result<Scenario>;
        let fixtures: [(&str, Fixture); 5] = [
            ("stationary", Scenario::stationary_machine),
            ("drifting", Scenario::drifting_machine),
            ("industrial", Scenario::industrial_spectrum),
            ("fading", Scenario::fading_machine),
            ("intermittent", Scenario::intermittent_machine),
        ];
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for (name, fixture) in fixtures {
                assert!(
                    matches!(fixture(d), Err(CoreError::InvalidArgument { .. })),
                    "{name} at {d}"
                );
            }
            assert!(
                matches!(
                    ScenarioEnsemble::factory_floor(d),
                    Err(CoreError::InvalidArgument { .. })
                ),
                "factory_floor at {d}"
            );
        }
    }

    #[test]
    fn non_stationary_fixtures() {
        let f = Scenario::fading_machine(1000.0).unwrap();
        assert_eq!(f.label(), "fading-64Hz");
        // Full level at the start, faded in the middle, recovered at
        // the end; the frequency never moves.
        assert!((f.source().envelope(0.0).amp - 0.9).abs() < 1e-12);
        assert!((f.source().envelope(500.0).amp - 0.25).abs() < 1e-12);
        assert!((f.source().envelope(1000.0).amp - 0.9).abs() < 1e-12);
        assert_eq!(f.source().envelope(500.0).freq_hz, 64.0);

        let i = Scenario::intermittent_machine(1000.0).unwrap();
        assert_eq!(i.label(), "intermittent-64Hz");
        // On at the middle of the first burst, fully off mid-gap.
        assert!(i.source().envelope(40.0).amp > 0.5);
        assert_eq!(i.source().envelope(200.0).amp, 0.0);
    }

    #[test]
    fn ensemble_weights_normalise() {
        let e = ScenarioEnsemble::new(vec![
            (Scenario::stationary_machine(60.0).unwrap(), 3.0),
            (Scenario::drifting_machine(60.0).unwrap(), 1.0),
        ])
        .unwrap();
        let w = e.weights();
        assert!((w[0] - 0.75).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
        assert_eq!(e.len(), 2);
        assert_eq!(e.scenario(1).label(), "drifting-58-70Hz");
        assert_eq!(e.entries().len(), 2);
    }

    #[test]
    fn ensemble_uniform_and_validation() {
        let u = ScenarioEnsemble::uniform(vec![
            Scenario::stationary_machine(60.0).unwrap(),
            Scenario::industrial_spectrum(60.0).unwrap(),
        ])
        .unwrap();
        assert!((u.weights()[0] - 0.5).abs() < 1e-12);
        assert!(ScenarioEnsemble::new(vec![]).is_err());
        assert!(
            ScenarioEnsemble::new(vec![(Scenario::stationary_machine(60.0).unwrap(), 0.0)])
                .is_err()
        );
        assert!(ScenarioEnsemble::new(vec![(
            Scenario::stationary_machine(60.0).unwrap(),
            f64::NAN
        )])
        .is_err());
    }

    #[test]
    fn factory_floor_is_diverse_and_reproducible() {
        let a = ScenarioEnsemble::factory_floor(300.0).unwrap();
        let b = ScenarioEnsemble::factory_floor(300.0).unwrap();
        assert_eq!(a.len(), 5);
        assert!((a.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Labels are unique.
        let mut labels: Vec<&str> = a.labels();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
        // Bit-identical across constructions (seeded sources).
        for (sa, sb) in a.entries().iter().zip(b.entries()) {
            for k in 0..50 {
                let t = k as f64 * 0.37;
                assert_eq!(
                    sa.0.source().acceleration(t).to_bits(),
                    sb.0.source().acceleration(t).to_bits()
                );
            }
        }
    }
}
