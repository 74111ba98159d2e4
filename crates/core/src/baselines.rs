//! Classical simulation-driven optimisers — the expensive approaches
//! the DATE'13 paper argues the DoE flow replaces.
//!
//! Each optimiser maximises a black-box objective over the coded box
//! `[-1, 1]^k`, paying one (potentially very costly) objective
//! evaluation per probe, and reports how many evaluations it spent.

use crate::{cmp_f64, CoreError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Ordering;

/// Outcome of a black-box search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Best point found (coded units).
    pub best: Vec<f64>,
    /// Objective value at the best point.
    pub best_value: f64,
    /// Number of objective evaluations spent.
    pub evaluations: usize,
    /// Optimiser label for reports.
    pub method: &'static str,
}

fn check_k(k: usize) -> Result<()> {
    if k == 0 {
        return Err(CoreError::invalid("need at least one factor"));
    }
    Ok(())
}

/// Evaluates the objective once and counts the call. Every optimiser
/// probes through here, so no probed value is NaN.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] if the objective is NaN at `x`.
fn probe(f: &mut dyn FnMut(&[f64]) -> f64, x: &[f64], evaluations: &mut usize) -> Result<f64> {
    *evaluations += 1;
    let v = f(x);
    if v.is_nan() {
        return Err(CoreError::invalid(format!("objective is NaN at {x:?}")));
    }
    Ok(v)
}

/// Orders probed points best (largest value) first; a stable sort keeps
/// tied points (−0.0 and +0.0 included) in order.
fn best_first(a: &(Vec<f64>, f64), b: &(Vec<f64>, f64)) -> Ordering {
    cmp_f64(b.1, a.1)
}

/// Exhaustive grid search with `levels` points per axis.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] if `k == 0`, `levels < 2`, the
/// grid would exceed 10⁷ evaluations, or the objective is NaN at a
/// probed point.
pub fn grid_search(
    f: &mut dyn FnMut(&[f64]) -> f64,
    k: usize,
    levels: usize,
) -> Result<SearchOutcome> {
    check_k(k)?;
    if levels < 2 {
        return Err(CoreError::invalid("need at least 2 levels per axis"));
    }
    let total = (levels as f64).powi(k as i32);
    if total > 1e7 {
        return Err(CoreError::invalid(format!(
            "grid of {total:.0} points is unreasonable"
        )));
    }
    let point = |idx: &[usize]| -> Vec<f64> {
        idx.iter()
            .map(|&i| -1.0 + 2.0 * i as f64 / (levels as f64 - 1.0))
            .collect()
    };
    let mut idx = vec![0usize; k];
    let mut evaluations = 0;
    let mut best = point(&idx);
    let mut best_value = probe(f, &best, &mut evaluations)?;
    loop {
        // Odometer.
        let mut j = 0;
        loop {
            idx[j] += 1;
            if idx[j] < levels {
                break;
            }
            idx[j] = 0;
            j += 1;
            if j == k {
                return Ok(SearchOutcome {
                    best,
                    best_value,
                    evaluations,
                    method: "grid",
                });
            }
        }
        let x = point(&idx);
        let v = probe(f, &x, &mut evaluations)?;
        if v > best_value {
            best = x;
            best_value = v;
        }
    }
}

/// Nelder–Mead simplex search (maximisation), restarted from the box
/// centre, with reflection/expansion/contraction/shrink and box
/// clamping.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] if `k == 0`, `max_evals` is 0, or
/// the objective is NaN at a probed point.
pub fn nelder_mead(
    f: &mut dyn FnMut(&[f64]) -> f64,
    k: usize,
    max_evals: usize,
) -> Result<SearchOutcome> {
    check_k(k)?;
    if max_evals == 0 {
        return Err(CoreError::invalid("need a positive evaluation budget"));
    }
    let clamp = |x: &mut Vec<f64>| {
        for v in x.iter_mut() {
            *v = v.clamp(-1.0, 1.0);
        }
    };
    let mut evaluations = 0;

    // Initial simplex: centre plus one vertex offset per axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(k + 1);
    let center = vec![0.0; k];
    let v0 = probe(f, &center, &mut evaluations)?;
    simplex.push((center, v0));
    for j in 0..k {
        let mut x = vec![0.0; k];
        x[j] = 0.6;
        let v = probe(f, &x, &mut evaluations)?;
        simplex.push((x, v));
    }

    while evaluations < max_evals {
        // Sort descending by value (maximisation).
        simplex.sort_by(best_first);
        let worst = simplex[k].clone();
        // Centroid of all but the worst.
        let mut centroid = vec![0.0; k];
        for (x, _) in simplex.iter().take(k) {
            for (c, xi) in centroid.iter_mut().zip(x.iter()) {
                *c += xi / k as f64;
            }
        }
        // Reflection.
        let mut xr: Vec<f64> = centroid
            .iter()
            .zip(worst.0.iter())
            .map(|(c, w)| c + (c - w))
            .collect();
        clamp(&mut xr);
        let vr = probe(f, &xr, &mut evaluations)?;
        if vr > simplex[0].1 {
            // Expansion.
            let mut xe: Vec<f64> = centroid
                .iter()
                .zip(worst.0.iter())
                .map(|(c, w)| c + 2.0 * (c - w))
                .collect();
            clamp(&mut xe);
            let ve = probe(f, &xe, &mut evaluations)?;
            simplex[k] = if ve > vr { (xe, ve) } else { (xr, vr) };
        } else if vr > simplex[k - 1].1 {
            simplex[k] = (xr, vr);
        } else {
            // Contraction.
            let mut xc: Vec<f64> = centroid
                .iter()
                .zip(worst.0.iter())
                .map(|(c, w)| c + 0.5 * (w - c))
                .collect();
            clamp(&mut xc);
            let vc = probe(f, &xc, &mut evaluations)?;
            if vc > worst.1 {
                simplex[k] = (xc, vc);
            } else {
                // Shrink towards the best.
                let best = simplex[0].0.clone();
                for item in simplex.iter_mut().skip(1) {
                    let mut x: Vec<f64> = best
                        .iter()
                        .zip(item.0.iter())
                        .map(|(b, xi)| b + 0.5 * (xi - b))
                        .collect();
                    clamp(&mut x);
                    let v = probe(f, &x, &mut evaluations)?;
                    *item = (x, v);
                    if evaluations >= max_evals {
                        break;
                    }
                }
            }
        }
        // Convergence: simplex collapsed.
        let spread = simplex
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::NEG_INFINITY, f64::max)
            - simplex
                .iter()
                .map(|(_, v)| *v)
                .fold(f64::INFINITY, f64::min);
        if spread.abs() < 1e-12 {
            break;
        }
    }
    simplex.sort_by(best_first);
    Ok(SearchOutcome {
        best: simplex[0].0.clone(),
        best_value: simplex[0].1,
        evaluations,
        method: "nelder-mead",
    })
}

/// Simulated annealing with geometric cooling.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] if `k == 0`, `max_evals == 0`, or
/// the objective is NaN at a probed point.
pub fn simulated_annealing(
    f: &mut dyn FnMut(&[f64]) -> f64,
    k: usize,
    max_evals: usize,
    seed: u64,
) -> Result<SearchOutcome> {
    check_k(k)?;
    if max_evals == 0 {
        return Err(CoreError::invalid("need a positive evaluation budget"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = vec![0.0; k];
    let mut evaluations = 0;
    let mut fx = probe(f, &x, &mut evaluations)?;
    let mut best = (x.clone(), fx);
    let mut temperature = 1.0f64;
    let cooling = (1e-3f64).powf(1.0 / max_evals as f64);
    let mut step = 0.5;

    while evaluations < max_evals {
        let mut cand = x.clone();
        for v in cand.iter_mut() {
            *v = (*v + step * (rng.random::<f64>() * 2.0 - 1.0)).clamp(-1.0, 1.0);
        }
        let fc = probe(f, &cand, &mut evaluations)?;
        let accept = fc > fx || {
            let u: f64 = rng.random();
            u < ((fc - fx) / temperature.max(1e-12)).exp()
        };
        if accept {
            x = cand;
            fx = fc;
            if fx > best.1 {
                best = (x.clone(), fx);
            }
        }
        temperature *= cooling;
        step = (step * 0.999).max(0.02);
    }
    Ok(SearchOutcome {
        best: best.0,
        best_value: best.1,
        evaluations,
        method: "simulated-annealing",
    })
}

/// A small generational genetic algorithm with tournament selection,
/// blend crossover, and Gaussian-ish mutation.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] if `k == 0`, the population is < 4,
/// `generations == 0`, or the objective is NaN at a probed point.
pub fn genetic(
    f: &mut dyn FnMut(&[f64]) -> f64,
    k: usize,
    population: usize,
    generations: usize,
    seed: u64,
) -> Result<SearchOutcome> {
    check_k(k)?;
    if population < 4 {
        return Err(CoreError::invalid("population must be at least 4"));
    }
    if generations == 0 {
        return Err(CoreError::invalid("need at least one generation"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evaluations = 0;

    let mut pop: Vec<(Vec<f64>, f64)> = Vec::with_capacity(population);
    for _ in 0..population {
        let x: Vec<f64> = (0..k).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
        let v = probe(f, &x, &mut evaluations)?;
        pop.push((x, v));
    }

    for _gen in 0..generations {
        pop.sort_by(best_first);
        let elite = pop[0].clone();
        let mut next = vec![elite];
        while next.len() < population {
            // Tournament selection of two parents.
            let pick = |rng: &mut StdRng| -> usize {
                let a = rng.random_range(0..population);
                let b = rng.random_range(0..population);
                if pop[a].1 > pop[b].1 {
                    a
                } else {
                    b
                }
            };
            let pa = &pop[pick(&mut rng)].0;
            let pb = &pop[pick(&mut rng)].0;
            // Blend crossover + mutation.
            let mut child: Vec<f64> = pa
                .iter()
                .zip(pb.iter())
                .map(|(a, b)| {
                    let t: f64 = rng.random();
                    a + t * (b - a)
                })
                .collect();
            for v in child.iter_mut() {
                if rng.random::<f64>() < 0.2 {
                    *v = (*v + 0.3 * (rng.random::<f64>() * 2.0 - 1.0)).clamp(-1.0, 1.0);
                }
            }
            let value = probe(f, &child, &mut evaluations)?;
            next.push((child, value));
        }
        pop = next;
    }
    pop.sort_by(best_first);
    Ok(SearchOutcome {
        best: pop[0].0.clone(),
        best_value: pop[0].1,
        evaluations,
        method: "genetic",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smooth test objective with the maximum at (0.4, -0.2, ...).
    fn peak(x: &[f64]) -> f64 {
        let mut v = 10.0;
        for (i, xi) in x.iter().enumerate() {
            let target = if i % 2 == 0 { 0.4 } else { -0.2 };
            v -= (xi - target) * (xi - target);
        }
        v
    }

    #[test]
    fn grid_search_finds_region() {
        let mut f = |x: &[f64]| peak(x);
        let out = grid_search(&mut f, 2, 11).unwrap();
        assert_eq!(out.evaluations, 121);
        assert!((out.best[0] - 0.4).abs() <= 0.2);
        assert!((out.best[1] + 0.2).abs() <= 0.2);
    }

    #[test]
    fn nelder_mead_converges() {
        let mut f = |x: &[f64]| peak(x);
        let out = nelder_mead(&mut f, 3, 300).unwrap();
        assert!(out.evaluations <= 300);
        assert!(out.best_value > 9.99, "value = {}", out.best_value);
    }

    #[test]
    fn annealing_improves_over_start() {
        let mut f = |x: &[f64]| peak(x);
        let start_value = peak(&[0.0, 0.0]);
        let out = simulated_annealing(&mut f, 2, 400, 11).unwrap();
        assert!(out.best_value >= start_value);
        assert!(out.best_value > 9.9, "value = {}", out.best_value);
        assert_eq!(out.evaluations, 400);
    }

    #[test]
    fn genetic_improves_over_random() {
        let mut f = |x: &[f64]| peak(x);
        let out = genetic(&mut f, 2, 20, 15, 3).unwrap();
        assert!(out.best_value > 9.8, "value = {}", out.best_value);
        assert!(out.evaluations >= 20 * 15);
    }

    #[test]
    fn determinism_of_stochastic_methods() {
        let mut f1 = |x: &[f64]| peak(x);
        let mut f2 = |x: &[f64]| peak(x);
        let a = simulated_annealing(&mut f1, 2, 200, 5).unwrap();
        let b = simulated_annealing(&mut f2, 2, 200, 5).unwrap();
        assert_eq!(a, b);
        let mut f3 = |x: &[f64]| peak(x);
        let mut f4 = |x: &[f64]| peak(x);
        let g1 = genetic(&mut f3, 2, 12, 6, 9).unwrap();
        let g2 = genetic(&mut f4, 2, 12, 6, 9).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn nan_objective_is_an_invalid_argument_for_every_optimiser() {
        // NaN on part of the box only: each optimiser reaches it early
        // (the grid at x0 = 1, the first simplex at x0 = 0.6, the
        // random walks and the initial population well before their
        // budgets run out).
        fn holed(x: &[f64]) -> f64 {
            if x[0] > 0.25 {
                f64::NAN
            } else {
                peak(x)
            }
        }
        let is_invalid = |r: Result<SearchOutcome>| matches!(r, Err(CoreError::InvalidArgument { ref message }) if message.contains("NaN"));
        let mut f = |x: &[f64]| holed(x);
        assert!(is_invalid(grid_search(&mut f, 2, 3)));
        assert!(is_invalid(nelder_mead(&mut f, 2, 100)));
        assert!(is_invalid(simulated_annealing(&mut f, 2, 400, 11)));
        assert!(is_invalid(genetic(&mut f, 2, 20, 15, 3)));
    }

    #[test]
    fn grid_search_keeps_the_first_of_tied_optima() {
        // −x² peaks at −0.0 on the centre column; the odometer probes
        // (0, −1) first, so its −0.0 stays the best against the later
        // −0.0 values.
        let mut f = |x: &[f64]| -(x[0] * x[0]);
        let out = grid_search(&mut f, 2, 3).unwrap();
        assert_eq!(out.best, vec![0.0, -1.0]);
        assert!(out.best_value == 0.0 && out.best_value.is_sign_negative());
    }

    #[test]
    fn validation() {
        let mut f = |_: &[f64]| 0.0;
        assert!(grid_search(&mut f, 0, 5).is_err());
        assert!(grid_search(&mut f, 2, 1).is_err());
        assert!(grid_search(&mut f, 10, 100).is_err());
        assert!(nelder_mead(&mut f, 2, 0).is_err());
        assert!(simulated_annealing(&mut f, 0, 10, 0).is_err());
        assert!(genetic(&mut f, 2, 2, 5, 0).is_err());
    }
}
