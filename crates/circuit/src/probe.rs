//! Probes, results, and performance counters for transient analyses.

use crate::{CircuitError, Result};
use ehsim_numeric::NumericError;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// A signal to record during a transient analysis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Probe {
    /// Voltage of a named node (signal `v(<node>)`).
    NodeVoltage(String),
    /// Current through a named element (signal `i(<element>)`), using the
    /// element's own reference direction (`a -> b`, anode -> cathode,
    /// plus -> minus through the element).
    ElementCurrent(String),
    /// Voltage across a named element (signal `vd(<element>)`).
    ElementVoltage(String),
    /// Instantaneous absorbed power of a named element
    /// (signal `p(<element>)`), positive when the element dissipates.
    ElementPower(String),
}

impl Probe {
    /// Probe for the voltage of node `name`.
    pub fn node_voltage(name: &str) -> Self {
        Probe::NodeVoltage(name.to_string())
    }

    /// Probe for the current through element `name`.
    pub fn element_current(name: &str) -> Self {
        Probe::ElementCurrent(name.to_string())
    }

    /// Probe for the voltage across element `name`.
    pub fn element_voltage(name: &str) -> Self {
        Probe::ElementVoltage(name.to_string())
    }

    /// Probe for the absorbed power of element `name`.
    pub fn element_power(name: &str) -> Self {
        Probe::ElementPower(name.to_string())
    }

    /// Canonical signal name used in [`TransientResult`].
    pub fn signal_name(&self) -> String {
        match self {
            Probe::NodeVoltage(n) => format!("v({n})"),
            Probe::ElementCurrent(n) => format!("i({n})"),
            Probe::ElementVoltage(n) => format!("vd({n})"),
            Probe::ElementPower(n) => format!("p({n})"),
        }
    }
}

/// Performance counters of a transient run — the currency in which the
/// DATE'13 paper argues (simulation CPU cost).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Accepted time steps.
    pub steps: usize,
    /// LU factorisations performed.
    pub lu_factorizations: usize,
    /// Triangular solves performed.
    pub lu_solves: usize,
    /// Newton–Raphson iterations across all steps (NR engine only).
    pub nr_iterations: usize,
    /// Matrix exponentials evaluated (LSS engine only).
    pub expm_evaluations: usize,
    /// Diode topology changes handled (LSS engine only).
    pub topology_changes: usize,
    /// Topology cache hits (LSS engine only).
    pub topology_cache_hits: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps: {}, LU factor: {}, LU solve: {}, NR iters: {}, expm: {}, topo changes: {}, cache hits: {}, wall: {:?}",
            self.steps,
            self.lu_factorizations,
            self.lu_solves,
            self.nr_iterations,
            self.expm_evaluations,
            self.topology_changes,
            self.topology_cache_hits,
            self.wall
        )
    }
}

/// Result of a transient analysis: a time axis plus one recorded vector
/// per probe.
#[derive(Debug, Clone)]
pub struct TransientResult {
    time: Vec<f64>,
    names: Vec<String>,
    data: Vec<Vec<f64>>,
    index: BTreeMap<String, usize>,
    /// Performance counters of the run.
    pub stats: SimStats,
}

impl TransientResult {
    /// Creates an empty result for the given signal names.
    pub(crate) fn new(names: Vec<String>) -> Self {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let data = vec![Vec::new(); names.len()];
        TransientResult {
            time: Vec::new(),
            names,
            data,
            index,
            stats: SimStats::default(),
        }
    }

    /// Appends one sample row.
    ///
    /// # Errors
    ///
    /// [`CircuitError::Numeric`] with a dimension mismatch if
    /// `values.len()` differs from the number of signals; nothing is
    /// recorded then.
    pub(crate) fn push(&mut self, t: f64, values: &[f64]) -> Result<()> {
        if values.len() != self.data.len() {
            return Err(NumericError::dimension(
                format!("{} samples per row", self.data.len()),
                format!("{}", values.len()),
            )
            .into());
        }
        self.time.push(t);
        for (col, &v) in self.data.iter_mut().zip(values.iter()) {
            col.push(v);
        }
        Ok(())
    }

    /// The time axis.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Signal names in probe order.
    pub fn signal_names(&self) -> &[String] {
        &self.names
    }

    /// A recorded signal by canonical name (e.g. `"v(out)"`).
    pub fn signal(&self, name: &str) -> Option<&[f64]> {
        self.index.get(name).map(|&i| self.data[i].as_slice())
    }

    /// A recorded signal, as an error if missing.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownProbe`] if the signal was not recorded.
    pub fn require_signal(&self, name: &str) -> Result<&[f64]> {
        self.signal(name).ok_or_else(|| CircuitError::UnknownProbe {
            name: name.to_string(),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Mean of a signal over the recorded window.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownProbe`] if the signal was not recorded.
    pub fn mean(&self, name: &str) -> Result<f64> {
        let s = self.require_signal(name)?;
        if s.is_empty() {
            return Ok(0.0);
        }
        Ok(s.iter().sum::<f64>() / s.len() as f64)
    }

    /// Trapezoidal integral of a signal over the recorded time axis —
    /// e.g. the energy delivered when integrating a power signal.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownProbe`] if the signal was not recorded.
    pub fn integral(&self, name: &str) -> Result<f64> {
        let s = self.require_signal(name)?;
        let mut acc = 0.0;
        for k in 1..s.len() {
            acc += 0.5 * (s[k] + s[k - 1]) * (self.time[k] - self.time[k - 1]);
        }
        Ok(acc)
    }

    /// Root-mean-square value of a signal.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownProbe`] if the signal was not recorded.
    pub fn rms(&self, name: &str) -> Result<f64> {
        let s = self.require_signal(name)?;
        if s.is_empty() {
            return Ok(0.0);
        }
        Ok((s.iter().map(|v| v * v).sum::<f64>() / s.len() as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_names_and_lookup() {
        let p = Probe::node_voltage("out");
        assert_eq!(p.signal_name(), "v(out)");
        assert_eq!(Probe::element_current("R1").signal_name(), "i(R1)");
        assert_eq!(Probe::element_voltage("D1").signal_name(), "vd(D1)");
        assert_eq!(Probe::element_power("RL").signal_name(), "p(RL)");
    }

    #[test]
    fn result_push_and_query() {
        let mut r = TransientResult::new(vec!["v(a)".into(), "i(R)".into()]);
        r.push(0.0, &[1.0, 2.0]).unwrap();
        r.push(1.0, &[3.0, 4.0]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.signal("v(a)").unwrap(), &[1.0, 3.0]);
        assert_eq!(r.signal("i(R)").unwrap(), &[2.0, 4.0]);
        assert!(r.signal("nope").is_none());
        assert!(r.require_signal("nope").is_err());
        assert!((r.mean("v(a)").unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn push_of_the_wrong_width_is_an_error_and_records_nothing() {
        let mut r = TransientResult::new(vec!["v(a)".into(), "i(R)".into()]);
        for row in [&[1.0][..], &[1.0, 2.0, 3.0], &[]] {
            assert!(matches!(
                r.push(0.0, row),
                Err(CircuitError::Numeric(NumericError::Dimension { .. }))
            ));
        }
        assert!(r.is_empty());
        assert_eq!(r.signal("v(a)"), Some(&[][..]));
    }

    #[test]
    fn integral_is_trapezoidal() {
        let mut r = TransientResult::new(vec!["p".into()]);
        r.push(0.0, &[0.0]).unwrap();
        r.push(1.0, &[2.0]).unwrap();
        r.push(2.0, &[2.0]).unwrap();
        assert!((r.integral("p").unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rms_of_constant() {
        let mut r = TransientResult::new(vec!["x".into()]);
        r.push(0.0, &[-3.0]).unwrap();
        r.push(1.0, &[3.0]).unwrap();
        assert!((r.rms("x").unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_display_nonempty() {
        assert!(!SimStats::default().to_string().is_empty());
    }
}
