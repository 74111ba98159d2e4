//! Factor sensitivity analysis on fitted surrogates: which design
//! parameters actually move each performance indicator?
//!
//! Two complementary views are provided:
//!
//! * **Standardised effects** ([`effects_ranking`]) — each model term's
//!   t-statistic, the classic "Pareto of effects" used to screen
//!   factors after a DoE campaign;
//! * **Main-effect ranges** ([`main_effect_ranges`]) — the predicted
//!   swing of the indicator when one factor traverses its range with
//!   the others held at centre, in physical units a designer can read
//!   directly.

use crate::flow::SurrogateSet;
use crate::{cmp_f64, CoreError, Result};

/// One ranked effect.
#[derive(Debug, Clone, PartialEq)]
pub struct Effect {
    /// Display name of the model term (e.g. `x0·x1`), with factor
    /// indices resolved to factor names where possible.
    pub term: String,
    /// Estimated coefficient (coded units).
    pub coefficient: f64,
    /// |t| statistic of the coefficient.
    pub t_abs: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Ranks the non-intercept terms of one indicator's model by |t|.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] on a bad indicator index, or if the
/// model is saturated (no residual degrees of freedom).
pub fn effects_ranking(surrogates: &SurrogateSet, indicator_idx: usize) -> Result<Vec<Effect>> {
    if indicator_idx >= surrogates.indicators().len() {
        return Err(CoreError::invalid(format!("no indicator {indicator_idx}")));
    }
    let model = surrogates.model(indicator_idx);
    let t_stats = model.t_stats();
    let p_values = model.p_values()?;
    let names: Vec<String> = surrogates
        .space()
        .factors()
        .iter()
        .map(|f| f.name().to_string())
        .collect();

    let mut effects = Vec::new();
    for (j, term) in model.spec().terms().iter().enumerate() {
        if term.is_intercept() {
            continue;
        }
        // Render the term with factor names.
        let mut parts = Vec::new();
        for (i, &p) in term.powers().iter().enumerate() {
            match p {
                0 => {}
                1 => parts.push(names[i].clone()),
                p => parts.push(format!("{}^{p}", names[i])),
            }
        }
        effects.push(Effect {
            term: parts.join("·"),
            coefficient: model.coefficients()[j],
            t_abs: t_stats[j].abs(),
            p_value: p_values[j],
        });
    }
    effects.sort_by(|a, b| cmp_f64(b.t_abs, a.t_abs));
    Ok(effects)
}

/// Predicted indicator swing per factor: `(factor name, min, max)` of
/// the prediction as that factor traverses `[-1, 1]` with all others at
/// the centre.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] on a bad indicator index.
pub fn main_effect_ranges(
    surrogates: &SurrogateSet,
    indicator_idx: usize,
    n_steps: usize,
) -> Result<Vec<(String, f64, f64)>> {
    if indicator_idx >= surrogates.indicators().len() {
        return Err(CoreError::invalid(format!("no indicator {indicator_idx}")));
    }
    if n_steps < 2 {
        return Err(CoreError::invalid("need at least 2 steps"));
    }
    let k = surrogates.space().k();
    let mut out = Vec::with_capacity(k);
    for j in 0..k {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut x = vec![0.0; k];
        for s in 0..n_steps {
            x[j] = -1.0 + 2.0 * s as f64 / (n_steps as f64 - 1.0);
            let v = surrogates.predict(indicator_idx, &x)?;
            lo = lo.min(v);
            hi = hi.max(v);
        }
        out.push((surrogates.space().factors()[j].name().to_string(), lo, hi));
    }
    // Largest swing first.
    out.sort_by(|a, b| cmp_f64(b.2 - b.1, a.2 - a.1));
    Ok(out)
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
            Scenario::stationary_machine(600.0).unwrap(),
            vec![Indicator::PacketsPerHour, Indicator::BrownoutMarginV],
        )
        .expect("campaign");
        DoeFlow::new(DesignChoice::FaceCenteredCcd { center_points: 3 })
            .with_threads(8)
            .run(&campaign)
            .expect("flow")
    }

    #[test]
    fn storage_dominates_the_margin() {
        let s = surrogates();
        let ranking = effects_ranking(&s, 1).expect("ranking");
        assert!(!ranking.is_empty());
        // Sorted descending by |t|.
        for w in ranking.windows(2) {
            assert!(w[0].t_abs >= w[1].t_abs);
        }
        // Storage capacitance is the top main effect on the brown-out
        // margin (it IS the energy reserve).
        let top_main = ranking
            .iter()
            .find(|e| !e.term.contains('·') && !e.term.contains('^'))
            .expect("some main effect");
        assert_eq!(top_main.term, "c_store_f", "ranking: {ranking:?}");
        assert!(top_main.p_value < 0.01);
    }

    #[test]
    fn main_effect_ranges_ordered_and_named() {
        let s = surrogates();
        let ranges = main_effect_ranges(&s, 0, 9).expect("ranges");
        assert_eq!(ranges.len(), 4);
        for w in ranges.windows(2) {
            assert!((w[0].2 - w[0].1) >= (w[1].2 - w[1].1));
        }
        // Every factor appears exactly once.
        let mut names: Vec<&str> = ranges.iter().map(|r| r.0.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            vec![
                "c_store_f",
                "retune_threshold_hz",
                "task_period_s",
                "tx_power_dbm"
            ]
        );
    }

    #[test]
    fn validation() {
        let s = surrogates();
        assert!(effects_ranking(&s, 9).is_err());
        assert!(main_effect_ranges(&s, 9, 5).is_err());
        assert!(main_effect_ranges(&s, 0, 1).is_err());
    }
}
