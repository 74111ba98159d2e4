//! Multi-objective trade-off exploration: Pareto fronts extracted from
//! dense surrogate sampling — an analysis that would cost thousands of
//! simulator runs done directly, and takes milliseconds on the RSMs.

use crate::flow::SurrogateSet;
use crate::{cmp_f64, CoreError, Result};
use ehsim_doe::design::lhs::latin_hypercube;
use ehsim_doe::optimize::Goal;

/// One point on a Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Design point in coded units.
    pub coded: Vec<f64>,
    /// Design point in physical units.
    pub physical: Vec<f64>,
    /// Objective values in request order.
    pub objectives: Vec<f64>,
}

/// Extracts the Pareto-efficient set over the given `(indicator, goal)`
/// objectives by evaluating the surrogates on `n_samples` seeded
/// Latin-hypercube points.
///
/// Returned points are sorted by the first objective.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] on empty objectives, bad indices, or
/// `n_samples == 0`.
pub fn pareto_front(
    surrogates: &SurrogateSet,
    objectives: &[(usize, Goal)],
    n_samples: usize,
    seed: u64,
) -> Result<Vec<ParetoPoint>> {
    if objectives.is_empty() {
        return Err(CoreError::invalid("need at least one objective"));
    }
    if n_samples == 0 {
        return Err(CoreError::invalid("need at least one sample"));
    }
    for (idx, _) in objectives {
        if *idx >= surrogates.indicators().len() {
            return Err(CoreError::invalid(format!("no indicator {idx}")));
        }
    }
    let k = surrogates.space().k();
    let samples = latin_hypercube(k, n_samples, seed)?;

    // Evaluate all objectives, orienting so bigger is always better.
    let mut evaluated: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(n_samples);
    for p in samples.points() {
        let scores: Vec<f64> = objectives
            .iter()
            .map(|(idx, goal)| {
                let v = surrogates.model(*idx).predict(p);
                match goal {
                    Goal::Maximize => v,
                    Goal::Minimize => -v,
                }
            })
            .collect();
        evaluated.push((p.clone(), scores));
    }

    // Non-dominated filtering (O(n²), fine for a few thousand samples).
    let mut front: Vec<ParetoPoint> = Vec::new();
    'outer: for (i, (p, s)) in evaluated.iter().enumerate() {
        for (j, (_, other)) in evaluated.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominates = other.iter().zip(s.iter()).all(|(o, mine)| o >= mine)
                && other.iter().zip(s.iter()).any(|(o, mine)| o > mine);
            if dominates {
                continue 'outer;
            }
        }
        let objectives_raw: Vec<f64> = objectives
            .iter()
            .map(|(idx, _)| surrogates.model(*idx).predict(p))
            .collect();
        front.push(ParetoPoint {
            coded: p.clone(),
            physical: surrogates.space().decode(p),
            objectives: objectives_raw,
        });
    }
    front.sort_by(|a, b| cmp_f64(a.objectives[0], b.objectives[0]));
    Ok(front)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Campaign, StandardFactors};
    use crate::flow::{DesignChoice, DoeFlow};
    use crate::indicators::Indicator;
    use crate::scenario::Scenario;

    fn surrogates() -> SurrogateSet {
        let campaign = Campaign::standard(
            StandardFactors::default(),
            Scenario::stationary_machine(300.0).unwrap(),
            vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
        )
        .unwrap();
        DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 2 })
            .run(&campaign)
            .unwrap()
    }

    #[test]
    fn front_is_mutually_nondominated() {
        let s = surrogates();
        let front = pareto_front(&s, &[(0, Goal::Maximize), (1, Goal::Maximize)], 500, 42).unwrap();
        assert!(!front.is_empty());
        assert!(front.len() < 500, "front of {} points", front.len());
        for a in &front {
            for b in &front {
                if a == b {
                    continue;
                }
                let dominates = b.objectives[0] >= a.objectives[0]
                    && b.objectives[1] >= a.objectives[1]
                    && (b.objectives[0] > a.objectives[0] || b.objectives[1] > a.objectives[1]);
                assert!(!dominates, "{b:?} dominates {a:?}");
            }
        }
        // Sorted by first objective.
        for w in front.windows(2) {
            assert!(w[0].objectives[0] <= w[1].objectives[0]);
        }
    }

    #[test]
    fn conflicting_objectives_give_a_curve() {
        // Packets/hour and brown-out margin genuinely conflict (faster
        // sampling drains the storage), so the front should contain
        // more than a single point.
        let s = surrogates();
        let front = pareto_front(&s, &[(0, Goal::Maximize), (1, Goal::Maximize)], 800, 7).unwrap();
        assert!(front.len() >= 3, "front collapsed: {}", front.len());
        // The extremes differ in both objectives.
        let first = &front[0];
        let last = &front[front.len() - 1];
        assert!(last.objectives[0] > first.objectives[0]);
        assert!(last.objectives[1] < first.objectives[1]);
    }

    #[test]
    fn validation() {
        let s = surrogates();
        assert!(pareto_front(&s, &[], 100, 0).is_err());
        assert!(pareto_front(&s, &[(0, Goal::Maximize)], 0, 0).is_err());
        assert!(pareto_front(&s, &[(7, Goal::Maximize)], 10, 0).is_err());
    }
}
