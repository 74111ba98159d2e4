//! Sequential adaptive campaigns: a memoizing simulation evaluator and
//! a budget-capped refinement campaign over a scenario ensemble.
//!
//! This is the simulation-side half of the sequential RSM subsystem
//! (the statistics-side half is [`ehsim_doe::sequential`]):
//!
//! * [`CachedEvaluator`] memoizes ensemble simulation results keyed by
//!   the canonicalized design-point bits
//!   ([`ehsim_doe::sequential::canonical_key`]) × scenario, so the
//!   augmented and re-centred designs of a refinement run never re-pay
//!   for points already simulated. Fresh points are batched through
//!   [`EnsembleCampaign::run_design`] — the deterministic
//!   self-scheduling thread pool — so cached campaigns stay
//!   bit-identical for every thread count.
//! * [`SequentialCampaign`] drives a
//!   [`ehsim_doe::sequential::RefinementLoop`] against a cached
//!   evaluator under a **hard budget** of fresh design-point
//!   evaluations, and returns the best *simulated* (not extrapolated)
//!   tuning along with a per-iteration audit trail for
//!   reproducibility.
//!
//! Both compose with every campaign kind: the standard four-factor
//! space, and the *(tuning × policy)* spaces of
//! [`crate::experiment::PolicyFactors`].

use crate::experiment::{EnsembleCampaign, EnsembleCampaignResult};
use crate::{CoreError, Result};
use ehsim_doe::optimize::{Goal, RobustGoal};
use ehsim_doe::sequential::{
    canonical_key, RefinementConfig, RefinementLoop, RefinementReport, SequentialError,
    SequentialEvaluator,
};
use ehsim_doe::Design;
use std::collections::{BTreeMap, BTreeSet};

/// The simulated responses of one design point across a scenario
/// ensemble, as served by a [`CachedEvaluator`] (from cache or fresh).
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleResponse {
    /// `per_scenario[s][i]`: indicator `i` under scenario `s`, in
    /// ensemble order — bit-identical whether served fresh or replayed
    /// from cache.
    pub per_scenario: Vec<Vec<f64>>,
}

impl EnsembleResponse {
    /// The weighted aggregate of one indicator (weights as given, i.e.
    /// already normalised by the ensemble).
    pub fn weighted_mean(&self, weights: &[f64], indicator_idx: usize) -> f64 {
        self.per_scenario
            .iter()
            .zip(weights.iter())
            .map(|(y, w)| w * y[indicator_idx])
            .sum()
    }

    /// The worst case of one indicator across scenarios: the minimum
    /// when maximising, the maximum when minimising.
    pub fn worst_case(&self, goal: Goal, indicator_idx: usize) -> f64 {
        let it = self.per_scenario.iter().map(|y| y[indicator_idx]);
        match goal {
            Goal::Maximize => it.fold(f64::INFINITY, f64::min),
            Goal::Minimize => it.fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// A memoizing, budget-metered ensemble evaluator.
///
/// Results are cached under the canonicalized design-point key, so
/// asking again for an evaluated point — a re-centred region's centre,
/// an augmented design's cube, a replicate — is free and **bit
/// identical** to the original simulation. Fresh points are simulated
/// in one batched pass per call through the deterministic
/// self-scheduling scheduler, so results never depend on thread count
/// or on how points were grouped into batches.
///
/// The budget counts fresh *design-point evaluations* (each costs
/// `ensemble.len()` simulator runs); a call that would exceed it fails
/// with [`CoreError::InvalidArgument`] before simulating anything.
///
/// # Example
///
/// ```
/// use ehsim_core::experiment::{EnsembleCampaign, StandardFactors};
/// use ehsim_core::indicators::Indicator;
/// use ehsim_core::scenario::{Scenario, ScenarioEnsemble};
/// use ehsim_core::sequential::CachedEvaluator;
///
/// # fn main() -> Result<(), ehsim_core::CoreError> {
/// let campaign = EnsembleCampaign::standard(
///     StandardFactors::default(),
///     ScenarioEnsemble::uniform(vec![
///         Scenario::stationary_machine(60.0)?,
///         Scenario::drifting_machine(60.0)?,
///     ])?,
///     vec![Indicator::PacketsPerHour],
/// )?;
/// let mut ev = CachedEvaluator::new(campaign, 2).with_budget(4);
/// let center = vec![0.0; 4];
/// let first = ev.evaluate(std::slice::from_ref(&center))?;
/// let replay = ev.evaluate(std::slice::from_ref(&center))?;
/// assert_eq!(first, replay, "cache replays are bit-identical");
/// assert_eq!(ev.fresh_evals(), 1);
/// assert_eq!(ev.cache_hits(), 1);
/// assert_eq!(ev.remaining_budget(), 3);
/// # Ok(())
/// # }
/// ```
pub struct CachedEvaluator {
    campaign: EnsembleCampaign,
    threads: usize,
    budget: Option<usize>,
    // Audited for determinism rule D1: the cache is keyed-lookup only
    // (get/insert/contains_key — results leave it in request order,
    // never in iteration order), but an ordered map makes that property
    // structural instead of audited.
    cache: BTreeMap<Vec<i64>, EnsembleResponse>,
    hits: usize,
    fresh: usize,
}

impl CachedEvaluator {
    /// Wraps an ensemble campaign with an unlimited budget.
    pub fn new(campaign: EnsembleCampaign, threads: usize) -> Self {
        CachedEvaluator {
            campaign,
            threads: threads.max(1),
            budget: None,
            cache: BTreeMap::new(),
            hits: 0,
            fresh: 0,
        }
    }

    /// Sets a hard budget of fresh design-point evaluations.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The wrapped campaign.
    pub fn campaign(&self) -> &EnsembleCampaign {
        &self.campaign
    }

    /// Fresh design-point evaluations spent so far.
    pub fn fresh_evals(&self) -> usize {
        self.fresh
    }

    /// Cache hits served so far (including within-batch replicates).
    pub fn cache_hits(&self) -> usize {
        self.hits
    }

    /// `hits / (hits + fresh)`, or 0 before any evaluation.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.fresh;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Simulator invocations spent (`fresh × ensemble.len()`).
    pub fn sims_used(&self) -> usize {
        self.fresh * self.campaign.ensemble().len()
    }

    /// How many *fresh* design-point evaluations a batch would cost
    /// (distinct uncached points; duplicates count once).
    pub fn fresh_cost(&self, points: &[Vec<f64>]) -> usize {
        let mut seen = BTreeSet::new();
        points
            .iter()
            .map(|p| canonical_key(p))
            .filter(|k| !self.cache.contains_key(k) && seen.insert(k.clone()))
            .count()
    }

    /// Fresh evaluations still affordable (`usize::MAX` if unlimited).
    pub fn remaining_budget(&self) -> usize {
        self.budget.map_or(usize::MAX, |b| b - self.fresh.min(b))
    }

    /// Evaluates every coded point, serving cached points from the memo
    /// and simulating the rest in one batched scheduler pass.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if the batch would exceed the
    /// budget (nothing is simulated in that case) or on a factor-count
    /// mismatch; propagates simulation errors.
    pub fn evaluate(&mut self, points: &[Vec<f64>]) -> Result<Vec<EnsembleResponse>> {
        // One canonicalization pass: per-point keys, plus the misses in
        // first-occurrence order (deterministic).
        let keys: Vec<Vec<i64>> = points.iter().map(|p| canonical_key(p)).collect();
        let mut miss_keys: Vec<Vec<i64>> = Vec::new();
        let mut miss_points: Vec<Vec<f64>> = Vec::new();
        let mut seen = BTreeSet::new();
        for (p, key) in points.iter().zip(keys.iter()) {
            if !self.cache.contains_key(key) && seen.insert(key.clone()) {
                miss_keys.push(key.clone());
                miss_points.push(p.clone());
            }
        }
        let need = miss_points.len();
        if need > self.remaining_budget() {
            return Err(CoreError::invalid(format!(
                "evaluation budget exhausted: batch needs {need} fresh design-point \
                 evaluations, {} remain of {}",
                self.remaining_budget(),
                self.budget.unwrap_or(0)
            )));
        }
        if !miss_points.is_empty() {
            let design = Design::new(
                self.campaign.space().k(),
                miss_points,
                "cached-evaluator-batch",
            )
            .map_err(CoreError::from)?;
            let result = self.campaign.run_design(&design, self.threads)?;
            for (run, key) in miss_keys.into_iter().enumerate() {
                let per_scenario: Vec<Vec<f64>> = result
                    .per_scenario
                    .iter()
                    .map(|sc| sc.responses[run].clone())
                    .collect();
                self.cache.insert(key, EnsembleResponse { per_scenario });
                self.fresh += 1;
            }
        }
        let mut out = Vec::with_capacity(points.len());
        for key in &keys {
            let response = self.cache.get(key).ok_or_else(|| {
                CoreError::invalid("a requested point is missing from the cache after its batch")
            })?;
            out.push(response.clone());
        }
        self.hits += points.len() - need;
        Ok(out)
    }
}

impl std::fmt::Debug for CachedEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CachedEvaluator({} cached, {} fresh, {} hits, budget {:?})",
            self.cache.len(),
            self.fresh,
            self.hits,
            self.budget
        )
    }
}

/// Adapter exposing a scalar robust objective over a [`CachedEvaluator`]
/// to the doe-side refinement loop.
struct ObjectiveEvaluator<'a> {
    ev: &'a mut CachedEvaluator,
    weights: Vec<f64>,
    indicator_idx: usize,
    goal: Goal,
    robust: RobustGoal,
}

impl SequentialEvaluator for ObjectiveEvaluator<'_> {
    type Error = CoreError;

    fn eval_batch(&mut self, points: &[Vec<f64>]) -> Result<Vec<f64>> {
        let responses = self.ev.evaluate(points)?;
        Ok(responses
            .iter()
            .map(|r| match self.robust {
                RobustGoal::WeightedMean => r.weighted_mean(&self.weights, self.indicator_idx),
                RobustGoal::WorstCase => r.worst_case(self.goal, self.indicator_idx),
            })
            .collect())
    }

    fn fresh_cost(&self, points: &[Vec<f64>]) -> usize {
        self.ev.fresh_cost(points)
    }

    fn remaining_budget(&self) -> usize {
        self.ev.remaining_budget()
    }
}

/// Outcome of a sequential campaign: the best *simulated* tuning, the
/// budget ledger, and the per-iteration audit trail.
#[derive(Debug, Clone)]
pub struct SequentialOutcome {
    /// The doe-side refinement report (per-iteration records, best
    /// point, convergence flag).
    pub report: RefinementReport,
    /// Best evaluated design point, coded units.
    pub best_coded: Vec<f64>,
    /// Best evaluated design point, physical units.
    pub best_physical: Vec<f64>,
    /// The robust objective at the best point — a *simulated* value
    /// (cache-replayed, bit-identical to the original run), not a model
    /// extrapolation.
    pub best_objective: f64,
    /// Fresh design-point evaluations spent (≤ the configured budget).
    pub evals_used: usize,
    /// Simulator invocations spent (`evals_used × ensemble.len()`).
    pub sims_used: usize,
    /// Cache hits served during the run.
    pub cache_hits: usize,
    /// `cache_hits / (cache_hits + evals_used)`.
    pub cache_hit_rate: f64,
}

impl SequentialOutcome {
    /// The audit trail as one canonical line per iteration — a
    /// deterministic rendering (NaN-stable, full float round-trip) that
    /// is bit-identical across runs and thread counts, for
    /// reproducibility checks and logs.
    pub fn audit_lines(&self) -> Vec<String> {
        self.report
            .iterations
            .iter()
            .map(|r| {
                format!(
                    "iter={} center={:?} half={:?} points={} fresh={} second_order={} \
                     r2={:?} pred_r2={:?} curvature={:?} decision={} best={:?}",
                    r.iteration,
                    r.center,
                    r.half_width,
                    r.n_points,
                    r.n_fresh,
                    r.second_order,
                    r.r_squared,
                    r.predicted_r_squared,
                    r.curvature_ratio,
                    r.decision,
                    r.best_value,
                )
            })
            .collect()
    }
}

/// A budget-capped sequential refinement campaign over a scenario
/// ensemble: the run-time counterpart of the one-shot
/// [`crate::flow::DoeFlow`].
///
/// Where `DoeFlow` spends its whole simulation budget on one fixed
/// design and trusts one global quadratic, `SequentialCampaign` spends
/// it adaptively — screen, ascend, augment, shrink — through a
/// [`CachedEvaluator`], and returns the best tuning it actually
/// *simulated*. The budget is a hard cap on fresh design-point
/// evaluations (each costing `ensemble.len()` simulator runs), enforced
/// both by the loop (which never submits an unaffordable batch) and by
/// the evaluator (which refuses one).
///
/// # Example
///
/// ```
/// use ehsim_core::experiment::{EnsembleCampaign, PolicyFactorSet, PolicyFactors};
/// use ehsim_core::indicators::Indicator;
/// use ehsim_core::scenario::{Scenario, ScenarioEnsemble};
/// use ehsim_core::sequential::SequentialCampaign;
/// use ehsim_doe::optimize::Goal;
///
/// # fn main() -> Result<(), ehsim_core::CoreError> {
/// // A 2-factor (tuning-only) ensemble campaign, 20-point budget.
/// let campaign = EnsembleCampaign::adaptive(
///     PolicyFactors::standard(PolicyFactorSet::Static),
///     ScenarioEnsemble::uniform(vec![
///         Scenario::stationary_machine(60.0)?,
///         Scenario::fading_machine(60.0)?,
///     ])?,
///     vec![Indicator::PacketsPerHour],
/// )?;
/// let outcome = SequentialCampaign::new(campaign, 0, Goal::Maximize, 20)?
///     .with_threads(2)
///     .run()?;
/// assert!(outcome.evals_used <= 20, "hard budget");
/// assert_eq!(outcome.sims_used, outcome.evals_used * 2);
/// assert_eq!(outcome.best_coded.len(), 2);
/// assert!(!outcome.audit_lines().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SequentialCampaign {
    campaign: EnsembleCampaign,
    indicator_idx: usize,
    goal: Goal,
    robust: RobustGoal,
    budget: usize,
    threads: usize,
    refinement: RefinementConfig,
}

impl SequentialCampaign {
    /// Creates a campaign optimising `indicator_idx`'s weighted mean
    /// across the ensemble under `budget` fresh design-point
    /// evaluations, with 4 worker threads and default refinement
    /// settings.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] for a bad indicator index or a
    /// zero budget.
    pub fn new(
        campaign: EnsembleCampaign,
        indicator_idx: usize,
        goal: Goal,
        budget: usize,
    ) -> Result<Self> {
        if indicator_idx >= campaign.indicators().len() {
            return Err(CoreError::invalid(format!(
                "no indicator {indicator_idx} in a {}-indicator campaign",
                campaign.indicators().len()
            )));
        }
        if budget == 0 {
            return Err(CoreError::invalid("budget must be at least one evaluation"));
        }
        let refinement = RefinementConfig::new(goal, campaign.space().k());
        Ok(SequentialCampaign {
            campaign,
            indicator_idx,
            goal,
            robust: RobustGoal::WeightedMean,
            budget,
            threads: 4,
            refinement,
        })
    }

    /// Switches the robust aggregation (default weighted mean).
    pub fn with_robust(mut self, robust: RobustGoal) -> Self {
        self.robust = robust;
        self
    }

    /// Sets the simulation worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the refinement configuration (`goal`, `k`, and the
    /// coded `domain` are kept in sync with the campaign — a
    /// [`crate::space::DesignSpace`] always codes its factors over
    /// `[-1, 1]` — and cannot be changed here).
    pub fn with_refinement(mut self, mut refinement: RefinementConfig) -> Self {
        refinement.goal = self.goal;
        refinement.k = self.campaign.space().k();
        refinement.domain = (-1.0, 1.0);
        self.refinement = refinement;
        self
    }

    /// The underlying ensemble campaign.
    pub fn campaign(&self) -> &EnsembleCampaign {
        &self.campaign
    }

    /// The hard budget of fresh design-point evaluations.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Runs the refinement to completion.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if the budget cannot afford even
    /// the first screening design; propagates simulation and fitting
    /// errors.
    pub fn run(&self) -> Result<SequentialOutcome> {
        let mut cached =
            CachedEvaluator::new(self.campaign.clone(), self.threads).with_budget(self.budget);
        let weights = self.campaign.ensemble().weights();
        let loop_ = RefinementLoop::new(self.refinement.clone()).map_err(CoreError::from)?;
        let report = {
            let mut objective = ObjectiveEvaluator {
                ev: &mut cached,
                weights,
                indicator_idx: self.indicator_idx,
                goal: self.goal,
                robust: self.robust,
            };
            loop_.run(&mut objective).map_err(|e| match e {
                SequentialError::Eval(c) => c,
                SequentialError::Doe(d) => CoreError::Doe(d),
            })?
        };
        let best_coded = report.best_point.clone();
        let best_physical = self.campaign.space().decode(&best_coded);
        Ok(SequentialOutcome {
            best_objective: report.best_value,
            best_coded,
            best_physical,
            evals_used: cached.fresh_evals(),
            sims_used: cached.sims_used(),
            cache_hits: cached.cache_hits(),
            cache_hit_rate: cached.hit_rate(),
            report,
        })
    }

    /// Verifies a coded design point with *fresh* simulations (no
    /// cache): one batched pass over every scenario, returning the full
    /// ensemble result.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn fresh_verify(&self, coded: &[f64]) -> Result<EnsembleCampaignResult> {
        let design = Design::new(
            self.campaign.space().k(),
            vec![coded.to_vec()],
            "sequential-verify",
        )
        .map_err(CoreError::from)?;
        self.campaign.run_design(&design, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{PolicyFactorSet, PolicyFactors, StandardFactors};
    use crate::indicators::Indicator;
    use crate::scenario::{Scenario, ScenarioEnsemble};

    fn tiny_ensemble(duration_s: f64) -> ScenarioEnsemble {
        ScenarioEnsemble::new(vec![
            (Scenario::stationary_machine(duration_s).unwrap(), 0.7),
            (Scenario::fading_machine(duration_s).unwrap(), 0.3),
        ])
        .unwrap()
    }

    fn tiny_campaign() -> EnsembleCampaign {
        EnsembleCampaign::adaptive(
            PolicyFactors::standard(PolicyFactorSet::Static),
            tiny_ensemble(60.0),
            vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
        )
        .unwrap()
    }

    #[test]
    fn cache_hits_are_bit_identical_and_thread_invariant() {
        let points = vec![
            vec![0.0, 0.0],
            vec![0.5, -0.5],
            vec![0.0, 0.0], // in-batch replicate
        ];
        let mut a = CachedEvaluator::new(tiny_campaign(), 1);
        let mut b = CachedEvaluator::new(tiny_campaign(), 8);
        let ra = a.evaluate(&points).unwrap();
        let rb = b.evaluate(&points).unwrap();
        assert_eq!(ra, rb, "thread count must not change cached responses");
        assert_eq!(a.fresh_evals(), 2);
        assert_eq!(a.cache_hits(), 1);
        // Replay from cache is bit-identical to the fresh batch.
        let replay = a.evaluate(&points).unwrap();
        for (x, y) in ra.iter().zip(replay.iter()) {
            for (rx, ry) in x.per_scenario.iter().zip(y.per_scenario.iter()) {
                for (vx, vy) in rx.iter().zip(ry.iter()) {
                    assert_eq!(vx.to_bits(), vy.to_bits());
                }
            }
        }
        assert_eq!(a.fresh_evals(), 2, "replay costs nothing");
        assert!(a.hit_rate() > 0.5);
        assert_eq!(a.sims_used(), 4);
    }

    #[test]
    fn batch_composition_does_not_change_results() {
        // Same points evaluated one-by-one vs in one batch: identical
        // bits (each scheduler job is an independent simulation).
        let pts = vec![vec![0.2, 0.3], vec![-0.4, 0.1], vec![0.9, -0.9]];
        let mut one = CachedEvaluator::new(tiny_campaign(), 4);
        let batched = one.evaluate(&pts).unwrap();
        let mut split = CachedEvaluator::new(tiny_campaign(), 4);
        for (i, p) in pts.iter().enumerate() {
            let r = split.evaluate(std::slice::from_ref(p)).unwrap();
            assert_eq!(r[0], batched[i], "point {i}");
        }
    }

    #[test]
    fn budget_is_enforced_before_simulating() {
        let mut ev = CachedEvaluator::new(tiny_campaign(), 2).with_budget(1);
        let err = ev.evaluate(&[vec![0.0, 0.0], vec![0.5, 0.5]]).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        // Nothing was spent by the refused batch.
        assert_eq!(ev.fresh_evals(), 0);
        assert_eq!(ev.remaining_budget(), 1);
        // An affordable batch still works, then the budget closes.
        ev.evaluate(&[vec![0.0, 0.0]]).unwrap();
        assert_eq!(ev.remaining_budget(), 0);
        // Cached points stay free forever.
        ev.evaluate(&[vec![0.0, 0.0]]).unwrap();
        assert!(ev.evaluate(&[vec![0.1, 0.1]]).is_err());
    }

    #[test]
    fn sequential_campaign_respects_budget_and_audits() {
        let budget = 18;
        let outcome = SequentialCampaign::new(tiny_campaign(), 0, Goal::Maximize, budget)
            .unwrap()
            .with_threads(4)
            .run()
            .unwrap();
        assert!(outcome.evals_used <= budget);
        assert_eq!(outcome.sims_used, outcome.evals_used * 2);
        assert_eq!(outcome.best_coded.len(), 2);
        assert_eq!(outcome.best_physical.len(), 2);
        assert!(outcome.best_objective.is_finite());
        let lines = outcome.audit_lines();
        assert_eq!(lines.len(), outcome.report.iterations.len());
        assert!(lines[0].starts_with("iter=0 "));
        // The reported best is a *simulated* value: a fresh
        // verification at the best point reproduces it exactly for the
        // weighted-mean objective.
        let verify = SequentialCampaign::new(tiny_campaign(), 0, Goal::Maximize, budget)
            .unwrap()
            .fresh_verify(&outcome.best_coded)
            .unwrap();
        let agg = verify.aggregate.responses[0][0];
        assert_eq!(
            agg.to_bits(),
            outcome.best_objective.to_bits(),
            "cache-replayed best must equal a fresh simulation bit-for-bit"
        );
    }

    #[test]
    fn worst_case_objective_is_supported() {
        let outcome = SequentialCampaign::new(tiny_campaign(), 0, Goal::Maximize, 15)
            .unwrap()
            .with_robust(RobustGoal::WorstCase)
            .with_threads(2)
            .run()
            .unwrap();
        // The worst case equals the min across scenarios at the best
        // point, fresh-verified.
        let verify = SequentialCampaign::new(tiny_campaign(), 0, Goal::Maximize, 15)
            .unwrap()
            .fresh_verify(&outcome.best_coded)
            .unwrap();
        let worst = verify
            .per_scenario
            .iter()
            .map(|sc| sc.responses[0][0])
            .fold(f64::INFINITY, f64::min);
        assert_eq!(worst.to_bits(), outcome.best_objective.to_bits());
    }

    #[test]
    fn composes_with_standard_factors() {
        // Four-factor standard space: the screen is 2^4 + 1 = 17
        // points, so a 22-point budget covers one screen + a short
        // ascent before exhausting.
        let campaign = EnsembleCampaign::standard(
            StandardFactors::default(),
            tiny_ensemble(30.0),
            vec![Indicator::PacketsPerHour],
        )
        .unwrap();
        let outcome = SequentialCampaign::new(campaign, 0, Goal::Maximize, 22)
            .unwrap()
            .with_threads(8)
            .run()
            .unwrap();
        assert!(outcome.evals_used <= 22);
        assert_eq!(outcome.best_coded.len(), 4);
    }

    #[test]
    fn validation() {
        assert!(SequentialCampaign::new(tiny_campaign(), 9, Goal::Maximize, 10).is_err());
        assert!(SequentialCampaign::new(tiny_campaign(), 0, Goal::Maximize, 0).is_err());
        // Budget too small for even one screen (2^2 + 1 = 5 points).
        let err = SequentialCampaign::new(tiny_campaign(), 0, Goal::Maximize, 3)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
