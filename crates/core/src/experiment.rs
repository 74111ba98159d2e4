//! Experiment campaigns: map design points to node configurations, run
//! the system simulator at each, and collect the indicator responses —
//! against one scenario ([`Campaign`]) or a whole weighted ensemble of
//! them in a single batched pass ([`EnsembleCampaign`]).

use crate::indicators::Indicator;
use crate::scenario::{Scenario, ScenarioEnsemble};
use crate::space::{DesignSpace, Factor};
use crate::{CoreError, Result};
use ehsim_doe::Design;
use ehsim_node::dispatch::{self, LaneRun};
use ehsim_node::energy_policy::{EnergyAware, Threshold};
use ehsim_node::{
    DutyCyclePolicy, Excitation, NodeConfig, PolicyKind, PreparedSimulator, SystemSimulator,
};
use std::sync::Arc;
// lint:allow(D2): wall-clock feeds reporting-only Duration stats, never response values
use std::time::{Duration, Instant};

/// The paper-style four-factor design problem over the default node:
/// storage capacitance, task period, retune threshold, and radio TX
/// power.
#[derive(Debug, Clone)]
pub struct StandardFactors {
    /// Base node configuration; each design point modifies a copy.
    pub base: NodeConfig,
    /// Storage capacitance range (F).
    pub c_store: (f64, f64),
    /// Task period range (s).
    pub task_period: (f64, f64),
    /// Retune threshold range (Hz).
    pub retune_threshold: (f64, f64),
    /// Radio TX power range (dBm).
    pub tx_power: (f64, f64),
}

impl Default for StandardFactors {
    fn default() -> Self {
        let mut base = NodeConfig::default_node();
        // Campaign runs cover hours of simulated time; a coarser tick
        // keeps one run in the tens of milliseconds.
        base.tick_s = 0.25;
        StandardFactors {
            base,
            c_store: (0.05, 0.5),
            task_period: (2.0, 30.0),
            retune_threshold: (0.25, 4.0),
            tx_power: (-10.0, 4.0),
        }
    }
}

impl StandardFactors {
    /// The corresponding [`DesignSpace`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if any range is inverted.
    pub fn space(&self) -> Result<DesignSpace> {
        DesignSpace::new(vec![
            Factor::new("c_store_f", self.c_store.0, self.c_store.1)?,
            Factor::new("task_period_s", self.task_period.0, self.task_period.1)?,
            Factor::new(
                "retune_threshold_hz",
                self.retune_threshold.0,
                self.retune_threshold.1,
            )?,
            Factor::new("tx_power_dbm", self.tx_power.0, self.tx_power.1)?,
        ])
    }

    /// Builds the node configuration for a physical design point
    /// `[c_store, task_period, retune_threshold, tx_power]`.
    pub fn config_for(&self, physical: &[f64]) -> NodeConfig {
        let mut cfg = self.base.clone();
        cfg.storage.capacitance = physical[0];
        cfg.task.period_s = physical[1];
        cfg.tuning.retune_threshold_hz = physical[2];
        cfg.radio.tx_power_dbm = physical[3];
        cfg
    }
}

/// Which adaptive energy-policy family a [`PolicyFactors`] space spans,
/// with the physical ranges of the family's parameters.
///
/// Each variant contributes a fixed set of design factors; the band of
/// a [`Threshold`] policy is parameterised as `(v_low, band_width)`
/// rather than `(v_low, v_high)` so every point of the rectangular
/// design box decodes to a valid hysteresis band.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyFactorSet {
    /// No runtime adaptation: the static baseline. Contributes no
    /// factors, so the space reduces to the tuning factors alone —
    /// which is exactly what makes static-vs-adaptive comparisons
    /// apples-to-apples (same flow, same design family, same budget
    /// per factor).
    Static,
    /// Hysteresis throttling bands ([`Threshold`]): contributes
    /// `policy_v_low_v`, `policy_band_v`, `policy_throttle`.
    Threshold {
        /// Throttle-entry voltage range (V).
        v_low: (f64, f64),
        /// Hysteresis band width range (V); `v_high = v_low + band`.
        band: (f64, f64),
        /// Throttled period-multiplier range (≥ 1).
        throttle_scale: (f64, f64),
    },
    /// Harvest-tracking pacing ([`EnergyAware`]): contributes
    /// `policy_ema_alpha`, `policy_margin`, `policy_max_scale`.
    EnergyAware {
        /// EMA smoothing-constant range, within `(0, 1]`.
        ema_alpha: (f64, f64),
        /// Spend-fraction range, within `(0, 1]`.
        margin: (f64, f64),
        /// Upper period-multiplier clamp range (≥ 1).
        max_scale: (f64, f64),
    },
}

impl PolicyFactorSet {
    /// Paper-style default ranges for the threshold family: bands just
    /// above the default 2.4 V brown-out threshold, throttling 2–30×.
    pub fn default_threshold() -> Self {
        PolicyFactorSet::Threshold {
            v_low: (2.5, 3.2),
            band: (0.1, 0.8),
            throttle_scale: (2.0, 30.0),
        }
    }

    /// Default ranges for the energy-aware family: minutes-scale
    /// smoothing, 30–100 % spend fraction, generous stretch headroom.
    pub fn default_energy_aware() -> Self {
        PolicyFactorSet::EnergyAware {
            ema_alpha: (0.005, 0.2),
            margin: (0.3, 1.0),
            max_scale: (5.0, 100.0),
        }
    }

    /// Short label for reports and CSV rows.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyFactorSet::Static => "static",
            PolicyFactorSet::Threshold { .. } => "threshold",
            PolicyFactorSet::EnergyAware { .. } => "energy-aware",
        }
    }

    /// The factors this family contributes, in decode order.
    fn factors(&self) -> Result<Vec<Factor>> {
        Ok(match self {
            PolicyFactorSet::Static => vec![],
            PolicyFactorSet::Threshold {
                v_low,
                band,
                throttle_scale,
            } => vec![
                Factor::new("policy_v_low_v", v_low.0, v_low.1)?,
                Factor::new("policy_band_v", band.0, band.1)?,
                Factor::new("policy_throttle", throttle_scale.0, throttle_scale.1)?,
            ],
            PolicyFactorSet::EnergyAware {
                ema_alpha,
                margin,
                max_scale,
            } => vec![
                Factor::new("policy_ema_alpha", ema_alpha.0, ema_alpha.1)?,
                Factor::new("policy_margin", margin.0, margin.1)?,
                Factor::new("policy_max_scale", max_scale.0, max_scale.1)?,
            ],
        })
    }

    /// Builds the policy for this family's slice of a physical design
    /// point. Values are clamped into the policy's valid domain so the
    /// mild out-of-box extrapolation some designs use (rotatable CCD
    /// axial points) still decodes to a simulable configuration.
    fn policy_for(&self, p: &[f64]) -> PolicyKind {
        match self {
            PolicyFactorSet::Static => PolicyKind::Static,
            PolicyFactorSet::Threshold { .. } => PolicyKind::Threshold(Threshold {
                v_low: p[0].max(1e-3),
                v_high: p[0].max(1e-3) + p[1].max(1e-3),
                throttle_scale: p[2].max(1.0),
                skip_while_throttled: false,
            }),
            PolicyFactorSet::EnergyAware { .. } => PolicyKind::EnergyAware(EnergyAware {
                ema_alpha: p[0].clamp(1e-4, 1.0),
                margin: p[1].clamp(1e-3, 1.0),
                min_scale: 0.1,
                max_scale: p[2].max(1.0),
            }),
        }
    }

    /// Number of factors the family contributes.
    fn k(&self) -> usize {
        match self {
            PolicyFactorSet::Static => 0,
            _ => 3,
        }
    }
}

/// A design problem over *(static tuning × adaptive policy)*: storage
/// capacitance and task period as the tuning factors, plus the
/// parameters of one adaptive-policy family as runtime factors.
///
/// This is the closing of the loop the adaptive-policy literature asks
/// for: the paper's DoE/RSM machinery optimises the *policy parameters*
/// exactly as it optimises the static tuning — one response surface
/// over the joint space. The base node runs a [`DutyCyclePolicy::Fixed`]
/// schedule so the [`PolicyKind`] layer is the only runtime adaptation
/// being measured.
#[derive(Debug, Clone)]
pub struct PolicyFactors {
    /// Base node configuration; each design point modifies a copy.
    pub base: NodeConfig,
    /// Storage capacitance range (F).
    pub c_store: (f64, f64),
    /// Nominal task period range (s).
    pub task_period: (f64, f64),
    /// The adaptive-policy family and its parameter ranges.
    pub set: PolicyFactorSet,
}

impl PolicyFactors {
    /// The standard policy design problem over the default node for the
    /// given family: campaign-friendly tick, fixed duty-cycle schedule,
    /// and the same tuning ranges as [`StandardFactors`].
    pub fn standard(set: PolicyFactorSet) -> Self {
        let mut base = NodeConfig::default_node();
        base.tick_s = 0.25;
        base.policy = DutyCyclePolicy::Fixed;
        PolicyFactors {
            base,
            c_store: (0.05, 0.5),
            task_period: (2.0, 30.0),
            set,
        }
    }

    /// The corresponding [`DesignSpace`]: the two tuning factors
    /// followed by the family's policy factors.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if any range is inverted.
    pub fn space(&self) -> Result<DesignSpace> {
        let mut factors = vec![
            Factor::new("c_store_f", self.c_store.0, self.c_store.1)?,
            Factor::new("task_period_s", self.task_period.0, self.task_period.1)?,
        ];
        factors.extend(self.set.factors()?);
        DesignSpace::new(factors)
    }

    /// Builds the node configuration for a physical design point
    /// `[c_store, task_period, policy factors...]`.
    pub fn config_for(&self, physical: &[f64]) -> NodeConfig {
        let mut cfg = self.base.clone();
        cfg.storage.capacitance = physical[0];
        cfg.task.period_s = physical[1];
        cfg.energy_policy = self.set.policy_for(&physical[2..]);
        cfg
    }

    /// Number of factors (tuning + policy).
    pub fn k(&self) -> usize {
        2 + self.set.k()
    }
}

/// Maps a physical design point to a node configuration.
pub type Configure = Arc<dyn Fn(&[f64]) -> NodeConfig + Send + Sync>;

/// Runs one system simulation: decode the coded point, build the node
/// configuration, simulate it against `scenario`, extract indicators.
fn simulate_point(
    space: &DesignSpace,
    configure: &Configure,
    indicators: &[Indicator],
    scenario: &Scenario,
    coded: &[f64],
) -> Result<Vec<f64>> {
    let physical = space.decode(coded);
    let cfg = (configure)(&physical);
    let sim = SystemSimulator::new(cfg.clone())?;
    let metrics = sim.run(scenario.source().as_ref(), scenario.duration_s())?;
    Ok(indicators
        .iter()
        .map(|ind| ind.extract(&metrics, &cfg))
        .collect())
}

/// A simulation campaign: design space + configuration mapping +
/// scenario + indicators.
#[derive(Clone)]
pub struct Campaign {
    space: DesignSpace,
    configure: Configure,
    scenario: Scenario,
    indicators: Vec<Indicator>,
}

/// Results of running a design through the simulator.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Coded design points, one per run.
    pub coded: Vec<Vec<f64>>,
    /// Physical design points, one per run.
    pub physical: Vec<Vec<f64>>,
    /// Responses: `responses[run][indicator]`.
    pub responses: Vec<Vec<f64>>,
    /// Number of simulator invocations.
    pub sim_count: usize,
    /// Wall-clock time of the campaign.
    pub wall: Duration,
}

impl CampaignResult {
    /// One indicator's response vector across all runs.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn response_column(&self, idx: usize) -> Vec<f64> {
        self.responses.iter().map(|r| r[idx]).collect()
    }
}

impl Campaign {
    /// Creates a campaign from explicit parts.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if no indicators are given.
    pub fn new(
        space: DesignSpace,
        configure: Configure,
        scenario: Scenario,
        indicators: Vec<Indicator>,
    ) -> Result<Self> {
        if indicators.is_empty() {
            return Err(CoreError::invalid("need at least one indicator"));
        }
        Ok(Campaign {
            space,
            configure,
            scenario,
            indicators,
        })
    }

    /// Creates the standard four-factor campaign.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn standard(
        factors: StandardFactors,
        scenario: Scenario,
        indicators: Vec<Indicator>,
    ) -> Result<Self> {
        let space = factors.space()?;
        let configure: Configure = Arc::new(move |phys| factors.config_for(phys));
        Campaign::new(space, configure, scenario, indicators)
    }

    /// Creates a campaign over a *(tuning × policy)* space.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn adaptive(
        factors: PolicyFactors,
        scenario: Scenario,
        indicators: Vec<Indicator>,
    ) -> Result<Self> {
        let space = factors.space()?;
        let configure: Configure = Arc::new(move |phys| factors.config_for(phys));
        Campaign::new(space, configure, scenario, indicators)
    }

    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The indicators, in response-column order.
    pub fn indicators(&self) -> &[Indicator] {
        &self.indicators
    }

    /// Runs one simulation at a coded point and returns the indicator
    /// vector.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (e.g. an invalid generated
    /// configuration).
    pub fn evaluate_coded(&self, coded: &[f64]) -> Result<Vec<f64>> {
        simulate_point(
            &self.space,
            &self.configure,
            &self.indicators,
            &self.scenario,
            coded,
        )
    }

    /// Runs every design point, using up to `threads` worker threads.
    ///
    /// The points run as lanes of the SoA batch kernel, grouped by
    /// `tick_s` ([`dispatch::run_lanes`]); a lane's bits do not depend
    /// on the width of its batch. The responses, their order and
    /// the error are those of [`Campaign::evaluate_coded`] per point,
    /// for any thread count.
    ///
    /// # Example
    ///
    /// ```
    /// use ehsim_core::experiment::{Campaign, StandardFactors};
    /// use ehsim_core::indicators::Indicator;
    /// use ehsim_core::scenario::Scenario;
    /// use ehsim_doe::design::factorial::full_factorial_2k;
    ///
    /// # fn main() -> Result<(), ehsim_core::CoreError> {
    /// let campaign = Campaign::standard(
    ///     StandardFactors::default(),
    ///     Scenario::stationary_machine(60.0)?,
    ///     vec![Indicator::PacketsPerHour],
    /// )?;
    /// let design = full_factorial_2k(4).map_err(ehsim_core::CoreError::from)?;
    /// let result = campaign.run_design(&design, 4)?;
    /// assert_eq!(result.sim_count, 16);
    /// assert_eq!(result.response_column(0).len(), 16);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] on factor-count mismatch;
    /// otherwise the error of the first failing point, in point order.
    pub fn run_design(&self, design: &Design, threads: usize) -> Result<CampaignResult> {
        if design.k() != self.space.k() {
            return Err(CoreError::invalid(format!(
                "design has {} factors, space has {}",
                design.k(),
                self.space.k()
            )));
        }
        let start = Instant::now(); // lint:allow(D2): campaign wall time is reporting-only, never a response
        let points: Vec<Vec<f64>> = design.points().to_vec();
        let n = points.len();
        let responses = run_points(
            &self.space,
            &self.configure,
            &self.indicators,
            &[&self.scenario],
            &points,
            threads,
        )?;
        let physical: Vec<Vec<f64>> = points.iter().map(|p| self.space.decode(p)).collect();
        Ok(CampaignResult {
            coded: points,
            physical,
            responses,
            sim_count: n,
            wall: start.elapsed(),
        })
    }
}

/// Runs every `(design point × scenario)` job on the lane dispatcher
/// ([`dispatch::run_lanes`]): one lane per point, one run per scenario.
/// Returns the indicator rows in point-major, scenario-minor job order.
///
/// A lane's bits do not depend on the width of its batch, so the rows
/// and errors are those of one [`SystemSimulator`] per job,
/// for any thread count. The error is the smallest failing job's. Points
/// are prepared in order up to the first failure, whose error is that
/// point's first job's, so only the points before it are simulated and
/// a run-time failure at an earlier job still wins.
fn run_points(
    space: &DesignSpace,
    configure: &Configure,
    indicators: &[Indicator],
    scenarios: &[&Scenario],
    points: &[Vec<f64>],
    threads: usize,
) -> Result<Vec<Vec<f64>>> {
    let mut lanes = Vec::with_capacity(points.len());
    let mut prepare_error = None;
    for p in points {
        match PreparedSimulator::new((configure)(&space.decode(p))) {
            Ok(lane) => lanes.push(lane),
            Err(e) => {
                prepare_error = Some(e);
                break;
            }
        }
    }
    let durations: Vec<[f64; 1]> = scenarios.iter().map(|sc| [sc.duration_s()]).collect();
    let runs: Vec<LaneRun<'_>> = scenarios
        .iter()
        .zip(&durations)
        .map(|(sc, duration)| LaneRun {
            excitation: Excitation::Shared(sc.source().as_ref()),
            checkpoints: duration,
        })
        .collect();
    let per_run = dispatch::run_lanes(&lanes, &runs, threads)?;
    let mut rows = Vec::with_capacity(lanes.len() * scenarios.len());
    for (p, lane) in lanes.iter().enumerate() {
        // Each run has one checkpoint: the scenario's duration.
        for snapshot in per_run.iter().flatten() {
            match &snapshot[p] {
                Ok(metrics) => rows.push(
                    indicators
                        .iter()
                        .map(|ind| ind.extract(metrics, lane.config()))
                        .collect(),
                ),
                Err(e) => return Err(e.clone().into()),
            }
        }
    }
    match prepare_error {
        Some(e) => Err(e.into()),
        None => Ok(rows),
    }
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Campaign({} factors, {:?}, {} indicators)",
            self.space.k(),
            self.scenario,
            self.indicators.len()
        )
    }
}

/// A campaign over a whole [`ScenarioEnsemble`]: every design point is
/// simulated against every scenario, in one batched multi-threaded
/// pass, yielding per-scenario responses plus the weighted aggregate.
///
/// This is the data source for robust cross-scenario optimisation: one
/// response surface per indicator *per scenario*, all built from a
/// single simulation budget of `design.n_runs() × ensemble.len()`.
#[derive(Clone)]
pub struct EnsembleCampaign {
    space: DesignSpace,
    configure: Configure,
    ensemble: ScenarioEnsemble,
    indicators: Vec<Indicator>,
}

/// Results of running one design across a scenario ensemble.
#[derive(Debug, Clone)]
pub struct EnsembleCampaignResult {
    /// Scenario labels, in ensemble order.
    pub scenario_labels: Vec<String>,
    /// Normalised scenario weights, in ensemble order.
    pub weights: Vec<f64>,
    /// One full [`CampaignResult`] per scenario (identical `coded` /
    /// `physical` tables; responses differ).
    pub per_scenario: Vec<CampaignResult>,
    /// The weighted aggregate: `responses[run][i]` is the
    /// weight-normalised mean of the per-scenario responses. Its
    /// `sim_count` is the *total* number of simulator invocations.
    pub aggregate: CampaignResult,
}

impl EnsembleCampaignResult {
    /// One scenario's response vector for one indicator.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn scenario_response_column(&self, scenario_idx: usize, indicator_idx: usize) -> Vec<f64> {
        self.per_scenario[scenario_idx].response_column(indicator_idx)
    }
}

impl EnsembleCampaign {
    /// Creates an ensemble campaign from explicit parts.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if no indicators are given.
    pub fn new(
        space: DesignSpace,
        configure: Configure,
        ensemble: ScenarioEnsemble,
        indicators: Vec<Indicator>,
    ) -> Result<Self> {
        if indicators.is_empty() {
            return Err(CoreError::invalid("need at least one indicator"));
        }
        Ok(EnsembleCampaign {
            space,
            configure,
            ensemble,
            indicators,
        })
    }

    /// Creates the standard four-factor campaign over an ensemble.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn standard(
        factors: StandardFactors,
        ensemble: ScenarioEnsemble,
        indicators: Vec<Indicator>,
    ) -> Result<Self> {
        let space = factors.space()?;
        let configure: Configure = Arc::new(move |phys| factors.config_for(phys));
        EnsembleCampaign::new(space, configure, ensemble, indicators)
    }

    /// Creates an ensemble campaign over a *(tuning × policy)* space —
    /// the substrate for optimising adaptive-policy parameters robustly
    /// across a whole deployment envelope.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn adaptive(
        factors: PolicyFactors,
        ensemble: ScenarioEnsemble,
        indicators: Vec<Indicator>,
    ) -> Result<Self> {
        let space = factors.space()?;
        let configure: Configure = Arc::new(move |phys| factors.config_for(phys));
        EnsembleCampaign::new(space, configure, ensemble, indicators)
    }

    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The scenario ensemble.
    pub fn ensemble(&self) -> &ScenarioEnsemble {
        &self.ensemble
    }

    /// The indicators, in response-column order.
    pub fn indicators(&self) -> &[Indicator] {
        &self.indicators
    }

    /// A single-scenario [`Campaign`] view sharing this campaign's
    /// space, configuration mapping, and indicators — e.g. to verify a
    /// candidate design against one environment.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if `scenario_idx` is out of
    /// range.
    pub fn campaign_for(&self, scenario_idx: usize) -> Result<Campaign> {
        if scenario_idx >= self.ensemble.len() {
            return Err(CoreError::invalid(format!(
                "no scenario {scenario_idx} in a {}-scenario ensemble",
                self.ensemble.len()
            )));
        }
        Campaign::new(
            self.space.clone(),
            self.configure.clone(),
            self.ensemble.scenario(scenario_idx).clone(),
            self.indicators.clone(),
        )
    }

    /// Runs one coded point against every scenario. Returns the
    /// per-scenario indicator vectors (ensemble order) and the
    /// weighted aggregate.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn evaluate_coded(&self, coded: &[f64]) -> Result<(Vec<Vec<f64>>, Vec<f64>)> {
        let mut per_scenario = Vec::with_capacity(self.ensemble.len());
        for (scenario, _) in self.ensemble.entries() {
            per_scenario.push(simulate_point(
                &self.space,
                &self.configure,
                &self.indicators,
                scenario,
                coded,
            )?);
        }
        let weights = self.ensemble.weights();
        let aggregate = (0..self.indicators.len())
            .map(|i| {
                per_scenario
                    .iter()
                    .zip(weights.iter())
                    .map(|(y, w)| w * y[i])
                    .sum()
            })
            .collect();
        Ok((per_scenario, aggregate))
    }

    /// Runs every `(design point, scenario)` pair in one batched pass
    /// using up to `threads` worker threads. The points run as lanes of
    /// the SoA batch kernel ([`dispatch::run_lanes`]), and every
    /// (point chunk, scenario) pair is one job of a self-scheduling
    /// queue, so a four-point design over a five-scenario ensemble
    /// keeps 8 threads busy with 20 jobs — and scenarios of very
    /// different cost (a 20-minute stationary hum next to an hour-long
    /// drift) cannot strand a worker on one static chunk while the
    /// others idle. A lane's bits do not depend on the width of its
    /// batch, so results are bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] on factor-count mismatch;
    /// otherwise the error of the first failing `(point, scenario)`
    /// job, in point-major, scenario-minor order.
    pub fn run_design(&self, design: &Design, threads: usize) -> Result<EnsembleCampaignResult> {
        if design.k() != self.space.k() {
            return Err(CoreError::invalid(format!(
                "design has {} factors, space has {}",
                design.k(),
                self.space.k()
            )));
        }
        let start = Instant::now(); // lint:allow(D2): campaign wall time is reporting-only, never a response
        let points: Vec<Vec<f64>> = design.points().to_vec();
        let n_points = points.len();
        let n_scen = self.ensemble.len();
        let n_jobs = n_points * n_scen;
        // Row j holds point j / n_scen against scenario j % n_scen.
        let scenarios: Vec<&Scenario> = (0..n_scen).map(|s| self.ensemble.scenario(s)).collect();
        let responses = run_points(
            &self.space,
            &self.configure,
            &self.indicators,
            &scenarios,
            &points,
            threads,
        )?;
        let wall = start.elapsed();
        let physical: Vec<Vec<f64>> = points.iter().map(|p| self.space.decode(p)).collect();
        let weights = self.ensemble.weights();

        // Un-flatten into per-scenario result tables.
        let per_scenario: Vec<CampaignResult> = (0..n_scen)
            .map(|s| CampaignResult {
                coded: points.clone(),
                physical: physical.clone(),
                responses: (0..n_points)
                    .map(|p| responses[p * n_scen + s].clone())
                    .collect(),
                sim_count: n_points,
                wall,
            })
            .collect();
        let aggregate_rows: Vec<Vec<f64>> = (0..n_points)
            .map(|p| {
                (0..self.indicators.len())
                    .map(|i| {
                        (0..n_scen)
                            .map(|s| weights[s] * responses[p * n_scen + s][i])
                            .sum()
                    })
                    .collect()
            })
            .collect();
        Ok(EnsembleCampaignResult {
            scenario_labels: self
                .ensemble
                .labels()
                .iter()
                .map(|l| l.to_string())
                .collect(),
            weights,
            per_scenario,
            aggregate: CampaignResult {
                coded: points,
                physical,
                responses: aggregate_rows,
                sim_count: n_jobs,
                wall,
            },
        })
    }
}

impl std::fmt::Debug for EnsembleCampaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EnsembleCampaign({} factors, {} scenarios, {} indicators)",
            self.space.k(),
            self.ensemble.len(),
            self.indicators.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_doe::design::factorial::full_factorial_2k;

    fn tiny_campaign() -> Campaign {
        Campaign::standard(
            StandardFactors::default(),
            Scenario::stationary_machine(300.0).unwrap(),
            vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
        )
        .unwrap()
    }

    #[test]
    fn standard_space_has_four_factors() {
        let f = StandardFactors::default();
        let s = f.space().unwrap();
        assert_eq!(s.k(), 4);
        let cfg = f.config_for(&[0.1, 5.0, 1.0, -3.0]);
        assert!((cfg.storage.capacitance - 0.1).abs() < 1e-12);
        assert!((cfg.task.period_s - 5.0).abs() < 1e-12);
        assert!((cfg.tuning.retune_threshold_hz - 1.0).abs() < 1e-12);
        assert!((cfg.radio.tx_power_dbm + 3.0).abs() < 1e-12);
    }

    #[test]
    fn policy_factor_spaces_decode_to_valid_configs() {
        // Threshold family: 5 factors, band decodes to v_high > v_low.
        let f = PolicyFactors::standard(PolicyFactorSet::default_threshold());
        assert_eq!(f.k(), 5);
        let s = f.space().unwrap();
        assert_eq!(s.k(), 5);
        assert_eq!(s.index_of("policy_v_low_v"), Some(2));
        let cfg = f.config_for(&[0.1, 5.0, 2.8, 0.3, 10.0]);
        assert!((cfg.storage.capacitance - 0.1).abs() < 1e-12);
        assert!((cfg.task.period_s - 5.0).abs() < 1e-12);
        match cfg.energy_policy {
            PolicyKind::Threshold(t) => {
                assert!((t.v_low - 2.8).abs() < 1e-12);
                assert!((t.v_high - 3.1).abs() < 1e-12);
                assert!((t.throttle_scale - 10.0).abs() < 1e-12);
            }
            other => panic!("wrong family: {other:?}"),
        }
        cfg.validate().unwrap();

        // Energy-aware family, including clamping of extrapolated
        // points back into the valid parameter domain.
        let f = PolicyFactors::standard(PolicyFactorSet::default_energy_aware());
        assert_eq!(f.space().unwrap().k(), 5);
        let cfg = f.config_for(&[0.1, 5.0, 0.05, 1.07, 50.0]);
        match cfg.energy_policy {
            PolicyKind::EnergyAware(p) => {
                assert_eq!(p.margin, 1.0, "margin must clamp to its domain");
                assert!((p.ema_alpha - 0.05).abs() < 1e-12);
            }
            other => panic!("wrong family: {other:?}"),
        }
        cfg.validate().unwrap();

        // Static family: tuning factors only, identity policy.
        let f = PolicyFactors::standard(PolicyFactorSet::Static);
        assert_eq!(f.k(), 2);
        assert_eq!(f.space().unwrap().k(), 2);
        let cfg = f.config_for(&[0.2, 10.0]);
        assert_eq!(cfg.energy_policy, PolicyKind::Static);
        assert_eq!(cfg.policy, DutyCyclePolicy::Fixed);
        assert_eq!(PolicyFactorSet::Static.label(), "static");
        assert_eq!(PolicyFactorSet::default_threshold().label(), "threshold");
        assert_eq!(
            PolicyFactorSet::default_energy_aware().label(),
            "energy-aware"
        );
    }

    #[test]
    fn adaptive_campaign_runs_a_design() {
        let c = Campaign::adaptive(
            PolicyFactors::standard(PolicyFactorSet::default_threshold()),
            Scenario::stationary_machine(120.0).unwrap(),
            vec![Indicator::PacketsPerHour],
        )
        .unwrap();
        let d = full_factorial_2k(5).unwrap();
        let r = c.run_design(&d, 4).unwrap();
        assert_eq!(r.sim_count, 32);
        assert!(r.response_column(0).iter().all(|y| y.is_finite()));

        let ec = EnsembleCampaign::adaptive(
            PolicyFactors::standard(PolicyFactorSet::default_energy_aware()),
            ScenarioEnsemble::uniform(vec![
                Scenario::stationary_machine(120.0).unwrap(),
                Scenario::fading_machine(120.0).unwrap(),
            ])
            .unwrap(),
            vec![Indicator::PacketsPerHour],
        )
        .unwrap();
        let (per, agg) = ec.evaluate_coded(&[0.0; 5]).unwrap();
        assert_eq!(per.len(), 2);
        assert_eq!(agg.len(), 1);
    }

    #[test]
    fn evaluate_coded_returns_indicator_vector() {
        let c = tiny_campaign();
        let y = c.evaluate_coded(&[0.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(y.len(), 2);
        assert!(y[0] > 0.0, "packets/hour = {}", y[0]);
    }

    #[test]
    fn run_design_parallel_matches_serial() {
        let c = tiny_campaign();
        let d = full_factorial_2k(4).unwrap();
        let serial = c.run_design(&d, 1).unwrap();
        let parallel = c.run_design(&d, 4).unwrap();
        assert_eq!(serial.responses, parallel.responses);
        assert_eq!(serial.sim_count, 16);
        assert_eq!(parallel.coded.len(), 16);
        assert_eq!(parallel.physical.len(), 16);
        let col = parallel.response_column(0);
        assert_eq!(col.len(), 16);
    }

    #[test]
    fn design_dimension_mismatch_rejected() {
        let c = tiny_campaign();
        let d = full_factorial_2k(3).unwrap();
        assert!(c.run_design(&d, 2).is_err());
    }

    #[test]
    fn no_indicators_rejected() {
        let f = StandardFactors::default();
        let r = Campaign::standard(f, Scenario::stationary_machine(60.0).unwrap(), vec![]);
        assert!(r.is_err());
    }

    fn tiny_ensemble_campaign() -> EnsembleCampaign {
        let ensemble = ScenarioEnsemble::new(vec![
            (Scenario::stationary_machine(120.0).unwrap(), 0.7),
            (Scenario::drifting_machine(120.0).unwrap(), 0.3),
        ])
        .unwrap();
        EnsembleCampaign::standard(
            StandardFactors::default(),
            ensemble,
            vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
        )
        .unwrap()
    }

    #[test]
    fn ensemble_run_design_matches_per_scenario_campaigns() {
        let ec = tiny_ensemble_campaign();
        let d = full_factorial_2k(4).unwrap();
        let batched = ec.run_design(&d, 4).unwrap();
        assert_eq!(batched.per_scenario.len(), 2);
        assert_eq!(batched.aggregate.sim_count, 32);
        assert_eq!(batched.scenario_labels[0], "stationary-64Hz");
        // Each scenario slice equals what a single-scenario campaign
        // produces for the same design.
        for s in 0..2 {
            let single = ec.campaign_for(s).unwrap().run_design(&d, 4).unwrap();
            assert_eq!(single.responses, batched.per_scenario[s].responses);
        }
        // The aggregate is the hand-computed weighted mean.
        for p in 0..d.n_runs() {
            for i in 0..2 {
                let want = 0.7 * batched.per_scenario[0].responses[p][i]
                    + 0.3 * batched.per_scenario[1].responses[p][i];
                let got = batched.aggregate.responses[p][i];
                assert!(
                    (got - want).abs() < 1e-12,
                    "run {p} ind {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn ensemble_run_design_is_thread_count_invariant() {
        let ec = tiny_ensemble_campaign();
        let d = full_factorial_2k(4).unwrap();
        let serial = ec.run_design(&d, 1).unwrap();
        let parallel = ec.run_design(&d, 8).unwrap();
        for s in 0..2 {
            assert_eq!(
                serial.per_scenario[s].responses,
                parallel.per_scenario[s].responses
            );
        }
        assert_eq!(serial.aggregate.responses, parallel.aggregate.responses);
    }

    #[test]
    fn ensemble_evaluate_coded_aggregates() {
        let ec = tiny_ensemble_campaign();
        let (per, agg) = ec.evaluate_coded(&[0.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(per.len(), 2);
        assert_eq!(agg.len(), 2);
        for i in 0..2 {
            let want = 0.7 * per[0][i] + 0.3 * per[1][i];
            assert!((agg[i] - want).abs() < 1e-12);
        }
        let col = ec
            .run_design(&full_factorial_2k(4).unwrap(), 4)
            .unwrap()
            .scenario_response_column(1, 0);
        assert_eq!(col.len(), 16);
    }

    #[test]
    fn ensemble_validation_and_debug() {
        let ec = tiny_ensemble_campaign();
        assert!(ec.campaign_for(5).is_err());
        assert!(ec.run_design(&full_factorial_2k(3).unwrap(), 2).is_err());
        assert!(!format!("{ec:?}").is_empty());
        let ensemble =
            ScenarioEnsemble::uniform(vec![Scenario::stationary_machine(60.0).unwrap()]).unwrap();
        assert!(EnsembleCampaign::standard(StandardFactors::default(), ensemble, vec![]).is_err());
    }
}
