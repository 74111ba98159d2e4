//! The DoE design flow: design → simulate → fit → validate → explore —
//! against one scenario or robustly across a whole ensemble.

use crate::experiment::{Campaign, CampaignResult, EnsembleCampaign, EnsembleCampaignResult};
use crate::indicators::Indicator;
use crate::space::DesignSpace;
use crate::{CoreError, Result};
use ehsim_doe::design::box_behnken::box_behnken;
use ehsim_doe::design::ccd::CentralComposite;
use ehsim_doe::design::doptimal::d_optimal_grid;
use ehsim_doe::design::factorial::full_factorial_3k;
use ehsim_doe::design::lhs::latin_hypercube;
use ehsim_doe::optimize::{
    optimize_fn, optimize_model, optimize_robust, robust_objective, Goal, Optimum, RobustGoal,
};
use ehsim_doe::stepwise::backward_eliminate;
use ehsim_doe::{fit, Design, FittedModel, ModelSpec};
// lint:allow(D2): wall-clock feeds reporting-only Duration stats, never surrogate inputs
use std::time::{Duration, Instant};

/// Which experimental design plans the simulation campaign.
///
/// The paper's flow hinges on spending only a *moderate number* of
/// simulations to fit a quadratic RSM; which plan buys the most model
/// accuracy per run is exactly what the Table E8 design-ablation
/// experiment measures. Central composite designs are the paper-style
/// default; the alternatives are included for that comparison.
///
/// # Example
///
/// ```
/// use ehsim_core::flow::DesignChoice;
///
/// // A face-centred CCD for 4 factors: 2^4 cube runs, 2·4 axial runs,
/// // plus the centre replicates.
/// let choice = DesignChoice::FaceCenteredCcd { center_points: 3 };
/// let design = choice.build(4).unwrap();
/// assert_eq!(design.n_runs(), 16 + 8 + 3);
///
/// // A 30-run seeded Latin hypercube over the same factors.
/// let lhs = DesignChoice::LatinHypercube { n: 30, seed: 7 }.build(4).unwrap();
/// assert_eq!(lhs.n_runs(), 30);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum DesignChoice {
    /// Face-centred central composite (all runs inside the box).
    FaceCenteredCcd {
        /// Centre-point replicates.
        center_points: usize,
    },
    /// Rotatable central composite (axial points at `α = (2^k)^¼`).
    RotatableCcd {
        /// Centre-point replicates.
        center_points: usize,
    },
    /// Box–Behnken (3 ≤ k ≤ 7).
    BoxBehnken {
        /// Centre-point replicates.
        center_points: usize,
    },
    /// Full three-level factorial (expensive beyond k = 4).
    FullFactorial3,
    /// Seeded Latin hypercube.
    LatinHypercube {
        /// Number of runs.
        n: usize,
        /// RNG seed.
        seed: u64,
    },
    /// D-optimal selection from the 3-level grid for a quadratic model.
    DOptimal {
        /// Number of runs.
        n: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl DesignChoice {
    /// Builds the design for `k` factors.
    ///
    /// # Errors
    ///
    /// Propagates the design constructors' validation errors.
    pub fn build(&self, k: usize) -> Result<Design> {
        let d = match self {
            DesignChoice::FaceCenteredCcd { center_points } => CentralComposite::face_centered(k)?
                .with_center_points(*center_points)
                .build()?,
            DesignChoice::RotatableCcd { center_points } => CentralComposite::rotatable(k)?
                .with_center_points(*center_points)
                .build()?,
            DesignChoice::BoxBehnken { center_points } => {
                box_behnken(k)?.with_center_points(*center_points)
            }
            DesignChoice::FullFactorial3 => full_factorial_3k(k)?,
            DesignChoice::LatinHypercube { n, seed } => latin_hypercube(k, *n, *seed)?,
            DesignChoice::DOptimal { n, seed } => {
                d_optimal_grid(&ModelSpec::quadratic(k)?, *n, *seed)?
            }
        };
        Ok(d)
    }
}

/// The DoE-based design flow.
#[derive(Debug, Clone)]
pub struct DoeFlow {
    choice: DesignChoice,
    stepwise_alpha: Option<f64>,
    threads: usize,
}

impl DoeFlow {
    /// Creates a flow with the given design choice, full quadratic
    /// models, and 4 worker threads.
    pub fn new(choice: DesignChoice) -> Self {
        DoeFlow {
            choice,
            stepwise_alpha: None,
            threads: 4,
        }
    }

    /// Enables hierarchy-respecting backward elimination at the given
    /// significance level.
    pub fn with_stepwise(mut self, alpha: f64) -> Self {
        self.stepwise_alpha = Some(alpha);
        self
    }

    /// Sets the simulation worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the complete flow: build the design, simulate every run,
    /// fit one model per indicator.
    ///
    /// # Errors
    ///
    /// Propagates design, simulation, and fitting errors.
    pub fn run(&self, campaign: &Campaign) -> Result<SurrogateSet> {
        let start = Instant::now(); // lint:allow(D2): flow wall time is reporting-only, never an RSM input
        let k = campaign.space().k();
        let design = self.choice.build(k)?;
        let result = campaign.run_design(&design, self.threads)?;
        let spec = ModelSpec::quadratic(k)?;
        let mut models = Vec::with_capacity(campaign.indicators().len());
        for (idx, _) in campaign.indicators().iter().enumerate() {
            let y = result.response_column(idx);
            models.push(self.fit_column(&spec, &result.coded, &y)?);
        }
        Ok(SurrogateSet {
            space: campaign.space().clone(),
            indicators: campaign.indicators().to_vec(),
            models,
            design,
            result,
            build_wall: start.elapsed(),
        })
    }

    /// Runs the flow across a scenario ensemble: one batched simulation
    /// campaign (every design point × every scenario), then one fitted
    /// quadratic model per indicator *per scenario*, plus models of the
    /// weighted-aggregate responses.
    ///
    /// # Errors
    ///
    /// Propagates design, simulation, and fitting errors.
    pub fn run_ensemble(&self, campaign: &EnsembleCampaign) -> Result<EnsembleSurrogateSet> {
        let start = Instant::now(); // lint:allow(D2): flow wall time is reporting-only, never an RSM input
        let k = campaign.space().k();
        let design = self.choice.build(k)?;
        let result = campaign.run_design(&design, self.threads)?;
        let spec = ModelSpec::quadratic(k)?;
        let n_ind = campaign.indicators().len();
        let mut scenario_models = Vec::with_capacity(result.per_scenario.len());
        for sc in &result.per_scenario {
            let mut models = Vec::with_capacity(n_ind);
            for idx in 0..n_ind {
                let y = sc.response_column(idx);
                models.push(self.fit_column(&spec, &sc.coded, &y)?);
            }
            scenario_models.push(models);
        }
        let mut aggregate_models = Vec::with_capacity(n_ind);
        for idx in 0..n_ind {
            let y = result.aggregate.response_column(idx);
            aggregate_models.push(self.fit_column(&spec, &result.aggregate.coded, &y)?);
        }
        Ok(EnsembleSurrogateSet {
            space: campaign.space().clone(),
            indicators: campaign.indicators().to_vec(),
            scenario_labels: result.scenario_labels.clone(),
            weights: result.weights.clone(),
            scenario_models,
            aggregate_models,
            design,
            result,
            build_wall: start.elapsed(),
        })
    }

    /// Fits one response column, with or without stepwise elimination.
    fn fit_column(&self, spec: &ModelSpec, coded: &[Vec<f64>], y: &[f64]) -> Result<FittedModel> {
        Ok(match self.stepwise_alpha {
            None => fit(spec, coded, y)?,
            Some(alpha) => backward_eliminate(spec, coded, y, alpha)?.model,
        })
    }
}

/// The fitted response-surface models for every indicator, plus the
/// campaign data they were built from.
#[derive(Debug, Clone)]
pub struct SurrogateSet {
    space: DesignSpace,
    indicators: Vec<Indicator>,
    models: Vec<FittedModel>,
    design: Design,
    result: CampaignResult,
    build_wall: Duration,
}

/// Validation metrics of one indicator's surrogate against fresh
/// simulations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationRow {
    /// Indicator validated.
    pub indicator: Indicator,
    /// Root-mean-square prediction error (physical units).
    pub rmse: f64,
    /// Maximum absolute prediction error.
    pub max_abs_error: f64,
    /// RMSE normalised by the observed response range (%).
    pub rmse_pct_of_range: f64,
    /// Validation R².
    pub r_squared: f64,
}

impl SurrogateSet {
    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The indicators, in model order.
    pub fn indicators(&self) -> &[Indicator] {
        &self.indicators
    }

    /// The experimental design used.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The raw campaign result.
    pub fn campaign_result(&self) -> &CampaignResult {
        &self.result
    }

    /// Wall-clock time of the whole build (simulations + fits).
    pub fn build_wall(&self) -> Duration {
        self.build_wall
    }

    /// The fitted model of one indicator.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn model(&self, idx: usize) -> &FittedModel {
        &self.models[idx]
    }

    /// Index of an indicator within the set.
    pub fn indicator_index(&self, ind: Indicator) -> Option<usize> {
        self.indicators.iter().position(|i| *i == ind)
    }

    /// Predicts an indicator at a coded point — the "practically
    /// instant" exploration primitive.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a bad indicator index or
    /// dimension mismatch.
    pub fn predict(&self, indicator_idx: usize, coded: &[f64]) -> Result<f64> {
        let model = self
            .models
            .get(indicator_idx)
            .ok_or_else(|| CoreError::invalid(format!("no indicator {indicator_idx}")))?;
        if coded.len() != self.space.k() {
            return Err(CoreError::invalid(format!(
                "point has {} coordinates, expected {}",
                coded.len(),
                self.space.k()
            )));
        }
        Ok(model.predict(coded))
    }

    /// Predicts an indicator at a physical point.
    ///
    /// # Errors
    ///
    /// Same as [`SurrogateSet::predict`].
    pub fn predict_physical(&self, indicator_idx: usize, physical: &[f64]) -> Result<f64> {
        if physical.len() != self.space.k() {
            return Err(CoreError::invalid(format!(
                "point has {} coordinates, expected {}",
                physical.len(),
                self.space.k()
            )));
        }
        self.predict(indicator_idx, &self.space.encode(physical))
    }

    /// Validates every surrogate against `n` fresh simulations at
    /// seeded Latin-hypercube points.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn validate(
        &self,
        campaign: &Campaign,
        n: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Vec<ValidationRow>> {
        let lhs = latin_hypercube(self.space.k(), n, seed)?;
        let fresh = campaign.run_design(&lhs, threads)?;
        let mut rows = Vec::with_capacity(self.indicators.len());
        for (idx, ind) in self.indicators.iter().enumerate() {
            let observed = fresh.response_column(idx);
            let predicted: Vec<f64> = fresh
                .coded
                .iter()
                .map(|p| self.models[idx].predict(p))
                .collect();
            let mut sse = 0.0;
            let mut max_err: f64 = 0.0;
            for (p, o) in predicted.iter().zip(observed.iter()) {
                let e = p - o;
                sse += e * e;
                max_err = max_err.max(e.abs());
            }
            let rmse = (sse / n as f64).sqrt();
            let mean = observed.iter().sum::<f64>() / n as f64;
            let tss: f64 = observed.iter().map(|y| (y - mean) * (y - mean)).sum();
            let r2 = if tss > 0.0 { 1.0 - sse / tss } else { 1.0 };
            let lo = observed.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = observed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let range = (hi - lo).max(1e-12);
            rows.push(ValidationRow {
                indicator: *ind,
                rmse,
                max_abs_error: max_err,
                rmse_pct_of_range: 100.0 * rmse / range,
                r_squared: r2,
            });
        }
        Ok(rows)
    }

    /// Optimises one indicator over the coded box on the surrogate.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a bad index.
    pub fn optimize(&self, indicator_idx: usize, goal: Goal, seed: u64) -> Result<Optimum> {
        let model = self
            .models
            .get(indicator_idx)
            .ok_or_else(|| CoreError::invalid(format!("no indicator {indicator_idx}")))?;
        Ok(ehsim_doe::optimize::optimize_model(
            model,
            (-1.0, 1.0),
            goal,
            seed,
        )?)
    }

    /// Constrained optimisation on the surrogates: optimise
    /// `indicator_idx` subject to other indicators staying above given
    /// floors, via an exact-penalty formulation.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for bad indices.
    pub fn optimize_constrained(
        &self,
        indicator_idx: usize,
        goal: Goal,
        floors: &[(usize, f64)],
        seed: u64,
    ) -> Result<Optimum> {
        if indicator_idx >= self.models.len() || floors.iter().any(|(i, _)| *i >= self.models.len())
        {
            return Err(CoreError::invalid("indicator index out of range"));
        }
        let sign = match goal {
            Goal::Maximize => 1.0,
            Goal::Minimize => -1.0,
        };
        // Scale the penalty to the objective's observed range so it
        // dominates without destroying the gradient signal.
        let obj_col: Vec<f64> = self
            .result
            .responses
            .iter()
            .map(|r| r[indicator_idx])
            .collect();
        let lo = obj_col.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = obj_col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let penalty_scale = 100.0 * (hi - lo).max(1.0);

        let objective = |x: &[f64]| {
            let mut v = sign * self.models[indicator_idx].predict(x);
            for (ci, floor) in floors {
                let c = self.models[*ci].predict(x);
                if c < *floor {
                    v -= penalty_scale * (floor - c);
                }
            }
            v
        };
        let opt = optimize_fn(
            &objective,
            self.space.k(),
            (-1.0, 1.0),
            Goal::Maximize,
            seed,
            16,
        )?;
        // Report the true (unpenalised) objective value at the winner.
        let value = self.models[indicator_idx].predict(&opt.x);
        Ok(Optimum { x: opt.x, value })
    }
}

/// Per-scenario and aggregate response surfaces fitted from one
/// ensemble campaign — the substrate for robust cross-scenario
/// optimisation.
///
/// Model layout: `scenario_models[scenario][indicator]`, all sharing
/// one design and one [`EnsembleCampaignResult`]. The aggregate models
/// are fitted on the weighted-mean responses; note that because model
/// fitting is linear in the response vector, the aggregate fit equals
/// the weighted mean of the per-scenario fits when no stepwise
/// elimination is applied.
#[derive(Debug, Clone)]
pub struct EnsembleSurrogateSet {
    space: DesignSpace,
    indicators: Vec<Indicator>,
    scenario_labels: Vec<String>,
    weights: Vec<f64>,
    scenario_models: Vec<Vec<FittedModel>>,
    aggregate_models: Vec<FittedModel>,
    design: Design,
    result: EnsembleCampaignResult,
    build_wall: Duration,
}

impl EnsembleSurrogateSet {
    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The indicators, in model order.
    pub fn indicators(&self) -> &[Indicator] {
        &self.indicators
    }

    /// Scenario labels, in ensemble order.
    pub fn scenario_labels(&self) -> &[String] {
        &self.scenario_labels
    }

    /// Normalised scenario weights, in ensemble order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of scenarios.
    pub fn n_scenarios(&self) -> usize {
        self.scenario_models.len()
    }

    /// The experimental design used (shared by every scenario).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The raw batched campaign result.
    pub fn campaign_result(&self) -> &EnsembleCampaignResult {
        &self.result
    }

    /// Wall-clock time of the whole build (simulations + fits).
    pub fn build_wall(&self) -> Duration {
        self.build_wall
    }

    /// One scenario's fitted model for one indicator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for out-of-range indices.
    pub fn model(&self, scenario_idx: usize, indicator_idx: usize) -> Result<&FittedModel> {
        self.scenario_models
            .get(scenario_idx)
            .and_then(|ms| ms.get(indicator_idx))
            .ok_or_else(|| {
                CoreError::invalid(format!(
                    "no model for scenario {scenario_idx}, indicator {indicator_idx}"
                ))
            })
    }

    /// The weighted-aggregate fitted model for one indicator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for an out-of-range index.
    pub fn aggregate_model(&self, indicator_idx: usize) -> Result<&FittedModel> {
        self.aggregate_models
            .get(indicator_idx)
            .ok_or_else(|| CoreError::invalid(format!("no indicator {indicator_idx}")))
    }

    /// Index of an indicator within the set.
    pub fn indicator_index(&self, ind: Indicator) -> Option<usize> {
        self.indicators.iter().position(|i| *i == ind)
    }

    /// Predicts one indicator under one scenario at a coded point.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for bad indices or a dimension
    /// mismatch.
    pub fn predict_scenario(
        &self,
        scenario_idx: usize,
        indicator_idx: usize,
        coded: &[f64],
    ) -> Result<f64> {
        self.check_point(coded)?;
        Ok(self.model(scenario_idx, indicator_idx)?.predict(coded))
    }

    /// Predicts the robust aggregate of one indicator at a coded point:
    /// the weighted mean or the worst case across scenarios.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a bad indicator index or
    /// dimension mismatch.
    pub fn predict_robust(
        &self,
        indicator_idx: usize,
        robust: RobustGoal,
        goal: Goal,
        coded: &[f64],
    ) -> Result<f64> {
        self.check_point(coded)?;
        let models = self.models_for(indicator_idx)?;
        Ok(robust_objective(&models, robust, goal, coded)?)
    }

    /// Optimises one indicator robustly across the ensemble on the
    /// per-scenario surfaces — weighted-mean for expected performance,
    /// worst-case for a min-max guarantee.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a bad indicator index.
    pub fn optimize_robust(
        &self,
        indicator_idx: usize,
        goal: Goal,
        robust: RobustGoal,
        seed: u64,
    ) -> Result<Optimum> {
        let models = self.models_for(indicator_idx)?;
        Ok(optimize_robust(&models, (-1.0, 1.0), goal, robust, seed)?)
    }

    /// Constrained robust optimisation: optimise the robust aggregate
    /// of `indicator_idx` subject to *every* scenario's predicted value
    /// of each `(indicator, floor)` pair staying at or above its floor,
    /// via an exact-penalty formulation (the ensemble counterpart of
    /// [`SurrogateSet::optimize_constrained`]).
    ///
    /// This is the natural shape of the energy-neutral-operation
    /// objectives of the adaptive energy-management literature:
    /// maximise delivered throughput subject to the node never browning
    /// out in *any* environment of the deployment envelope — a
    /// guarantee the weighted mean alone cannot express, because a
    /// margin violated in one scenario cannot be bought back by slack
    /// in another.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for bad indicator indices.
    pub fn optimize_robust_constrained(
        &self,
        indicator_idx: usize,
        goal: Goal,
        robust: RobustGoal,
        floors: &[(usize, f64)],
        seed: u64,
    ) -> Result<Optimum> {
        if indicator_idx >= self.indicators.len()
            || floors.iter().any(|(i, _)| *i >= self.indicators.len())
        {
            return Err(CoreError::invalid("indicator index out of range"));
        }
        let models = self.models_for(indicator_idx)?;
        // Scale the penalty to the objective's observed range across
        // every scenario so violations dominate the objective without
        // flattening its gradient.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for sc in &self.result.per_scenario {
            for r in &sc.responses {
                lo = lo.min(r[indicator_idx]);
                hi = hi.max(r[indicator_idx]);
            }
        }
        let penalty_scale = 100.0 * (hi - lo).max(1.0);
        let objective = |x: &[f64]| {
            // `robust_objective` fails only on a malformed model set,
            // and then at every probe: the NaN makes `optimize_fn`
            // report a non-finite objective.
            let mut v = robust_objective(&models, robust, goal, x).unwrap_or(f64::NAN);
            // In the Minimize case optimize_fn still maximises the
            // signed objective internally; express the penalty on the
            // same maximisation axis.
            if goal == Goal::Minimize {
                v = -v;
            }
            for (ci, floor) in floors {
                for ms in &self.scenario_models {
                    let c = ms[*ci].predict(x);
                    if c < *floor {
                        v -= penalty_scale * (floor - c);
                    }
                }
            }
            v
        };
        let opt = optimize_fn(
            &objective,
            self.space.k(),
            (-1.0, 1.0),
            Goal::Maximize,
            seed,
            16,
        )?;
        // Report the true (unpenalised) robust objective at the winner.
        let value = robust_objective(&models, robust, goal, &opt.x)?;
        Ok(Optimum { x: opt.x, value })
    }

    /// Optimises one indicator against a *single* scenario's surface —
    /// the non-robust baseline the robust optimum is compared to.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for bad indices.
    pub fn optimize_scenario(
        &self,
        scenario_idx: usize,
        indicator_idx: usize,
        goal: Goal,
        seed: u64,
    ) -> Result<Optimum> {
        let model = self.model(scenario_idx, indicator_idx)?;
        Ok(optimize_model(model, (-1.0, 1.0), goal, seed)?)
    }

    fn check_point(&self, coded: &[f64]) -> Result<()> {
        if coded.len() != self.space.k() {
            return Err(CoreError::invalid(format!(
                "point has {} coordinates, expected {}",
                coded.len(),
                self.space.k()
            )));
        }
        Ok(())
    }

    /// The `(model, weight)` pairs of one indicator across scenarios.
    fn models_for(&self, indicator_idx: usize) -> Result<Vec<(&FittedModel, f64)>> {
        if indicator_idx >= self.indicators.len() {
            return Err(CoreError::invalid(format!("no indicator {indicator_idx}")));
        }
        Ok(self
            .scenario_models
            .iter()
            .zip(self.weights.iter())
            .map(|(ms, w)| (&ms[indicator_idx], *w))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::StandardFactors;
    use crate::scenario::Scenario;

    fn small_flow_campaign() -> Campaign {
        Campaign::standard(
            StandardFactors::default(),
            Scenario::stationary_machine(300.0).unwrap(),
            vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
        )
        .unwrap()
    }

    #[test]
    fn design_choices_build() {
        for (choice, expect_runs) in [
            (
                DesignChoice::FaceCenteredCcd { center_points: 3 },
                16 + 8 + 3,
            ),
            (DesignChoice::RotatableCcd { center_points: 1 }, 16 + 8 + 1),
            (DesignChoice::BoxBehnken { center_points: 2 }, 24 + 2),
            (DesignChoice::FullFactorial3, 81),
            (DesignChoice::LatinHypercube { n: 30, seed: 1 }, 30),
        ] {
            let d = choice.build(4).unwrap();
            assert_eq!(d.n_runs(), expect_runs, "{choice:?}");
        }
        let d = DesignChoice::DOptimal { n: 18, seed: 2 }.build(4).unwrap();
        assert_eq!(d.n_runs(), 18);
    }

    #[test]
    fn flow_produces_usable_surrogates() {
        let campaign = small_flow_campaign();
        let flow = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 }).with_threads(4);
        let s = flow.run(&campaign).unwrap();
        assert_eq!(s.indicators().len(), 2);
        assert_eq!(s.campaign_result().sim_count, 16 + 8 + 2);
        // The packets model must be strongly driven by the task period
        // (factor 1): moving from slow to fast sampling raises packets.
        let fast = s.predict(0, &[0.0, -1.0, 0.0, 0.0]).unwrap();
        let slow = s.predict(0, &[0.0, 1.0, 0.0, 0.0]).unwrap();
        assert!(fast > slow, "fast={fast} slow={slow}");
        // Physical-unit prediction agrees with coded prediction.
        let phys = s.space().decode(&[0.0, -1.0, 0.0, 0.0]);
        let via_phys = s.predict_physical(0, &phys).unwrap();
        assert!((via_phys - fast).abs() < 1e-9);
    }

    #[test]
    fn surrogate_optimization_runs() {
        let campaign = small_flow_campaign();
        let s = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 })
            .run(&campaign)
            .unwrap();
        let best = s.optimize(0, Goal::Maximize, 3).unwrap();
        assert_eq!(best.x.len(), 4);
        // The unconstrained packet maximum is at least as good as the
        // centre.
        let center = s.predict(0, &s.space().center()).unwrap();
        assert!(best.value >= center - 1e-9);

        // Constrained: keep the brown-out margin above 0.2 V.
        let con = s
            .optimize_constrained(0, Goal::Maximize, &[(1, 0.2)], 3)
            .unwrap();
        let margin = s.predict(1, &con.x).unwrap();
        assert!(margin >= 0.15, "margin = {margin}");
    }

    #[test]
    fn bad_indices_rejected() {
        let campaign = small_flow_campaign();
        let s = DoeFlow::new(DesignChoice::LatinHypercube { n: 20, seed: 5 })
            .run(&campaign)
            .unwrap();
        assert!(s.predict(9, &s.space().center()).is_err());
        assert!(s.predict(0, &[0.0]).is_err());
        assert!(s.optimize(9, Goal::Maximize, 0).is_err());
        assert!(s
            .optimize_constrained(0, Goal::Maximize, &[(9, 0.0)], 0)
            .is_err());
    }

    fn small_ensemble_campaign() -> EnsembleCampaign {
        let ensemble = crate::scenario::ScenarioEnsemble::new(vec![
            (Scenario::stationary_machine(200.0).unwrap(), 0.6),
            (Scenario::drifting_machine(200.0).unwrap(), 0.4),
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
    fn ensemble_flow_fits_per_scenario_and_aggregate_models() {
        let campaign = small_ensemble_campaign();
        let flow = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 }).with_threads(8);
        let s = flow.run_ensemble(&campaign).unwrap();
        assert_eq!(s.n_scenarios(), 2);
        assert_eq!(s.indicators().len(), 2);
        assert_eq!(s.scenario_labels().len(), 2);
        assert_eq!(s.campaign_result().aggregate.sim_count, 2 * (16 + 8 + 2));
        assert_eq!(s.indicator_index(Indicator::BrownoutMarginV), Some(1));
        let x = s.space().center();
        // Aggregate prediction equals the weighted mean of per-scenario
        // predictions (fitting is linear in the responses).
        let agg = s.aggregate_model(0).unwrap().predict(&x);
        let mean = s.weights()[0] * s.predict_scenario(0, 0, &x).unwrap()
            + s.weights()[1] * s.predict_scenario(1, 0, &x).unwrap();
        assert!((agg - mean).abs() < 1e-9, "{agg} vs {mean}");
        // predict_robust(WeightedMean) agrees with the same mean.
        let robust = s
            .predict_robust(0, RobustGoal::WeightedMean, Goal::Maximize, &x)
            .unwrap();
        assert!((robust - mean).abs() < 1e-9);
        // Worst case is never above the weighted mean.
        let worst = s
            .predict_robust(0, RobustGoal::WorstCase, Goal::Maximize, &x)
            .unwrap();
        assert!(worst <= robust + 1e-12);
    }

    #[test]
    fn ensemble_robust_optimum_dominates_on_worst_case() {
        let campaign = small_ensemble_campaign();
        let s = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 })
            .with_threads(8)
            .run_ensemble(&campaign)
            .unwrap();
        let robust = s
            .optimize_robust(0, Goal::Maximize, RobustGoal::WorstCase, 42)
            .unwrap();
        for sc in 0..s.n_scenarios() {
            let single = s.optimize_scenario(sc, 0, Goal::Maximize, 42).unwrap();
            let single_wc = s
                .predict_robust(0, RobustGoal::WorstCase, Goal::Maximize, &single.x)
                .unwrap();
            assert!(
                robust.value >= single_wc - 1e-9,
                "scenario {sc}: robust {} < single worst-case {}",
                robust.value,
                single_wc
            );
        }
    }

    #[test]
    fn ensemble_constrained_optimum_respects_per_scenario_floors() {
        let campaign = small_ensemble_campaign();
        let s = DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 })
            .with_threads(8)
            .run_ensemble(&campaign)
            .unwrap();
        // Unconstrained vs margin-floored weighted-mean optimum.
        let free = s
            .optimize_robust(0, Goal::Maximize, RobustGoal::WeightedMean, 7)
            .unwrap();
        let floor = 0.3;
        let con = s
            .optimize_robust_constrained(
                0,
                Goal::Maximize,
                RobustGoal::WeightedMean,
                &[(1, floor)],
                7,
            )
            .unwrap();
        // Every scenario's predicted margin must satisfy the floor
        // (small tolerance for the exact-penalty formulation).
        for sc in 0..s.n_scenarios() {
            let margin = s.predict_scenario(sc, 1, &con.x).unwrap();
            assert!(margin >= floor - 0.05, "scenario {sc}: margin {margin}");
        }
        // The constraint can only cost objective value.
        assert!(con.value <= free.value + 1e-9);
        // Index validation.
        assert!(s
            .optimize_robust_constrained(9, Goal::Maximize, RobustGoal::WeightedMean, &[], 0)
            .is_err());
        assert!(s
            .optimize_robust_constrained(
                0,
                Goal::Maximize,
                RobustGoal::WeightedMean,
                &[(9, 0.0)],
                0
            )
            .is_err());
    }

    #[test]
    fn ensemble_bad_indices_rejected() {
        let campaign = small_ensemble_campaign();
        let s = DoeFlow::new(DesignChoice::LatinHypercube { n: 20, seed: 5 })
            .run_ensemble(&campaign)
            .unwrap();
        assert!(s.model(9, 0).is_err());
        assert!(s.model(0, 9).is_err());
        assert!(s.aggregate_model(9).is_err());
        assert!(s.predict_scenario(0, 0, &[0.0]).is_err());
        assert!(s
            .predict_robust(
                9,
                RobustGoal::WeightedMean,
                Goal::Maximize,
                &s.space().center()
            )
            .is_err());
        assert!(s
            .optimize_robust(9, Goal::Maximize, RobustGoal::WorstCase, 0)
            .is_err());
        assert!(s.optimize_scenario(9, 0, Goal::Maximize, 0).is_err());
    }
}
