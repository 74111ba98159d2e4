//! D-optimal designs by Fedorov point exchange.
//!
//! Given a candidate set (by default a 3-level grid) and a model
//! specification, selects the `n`-run subset maximising `det(XᵀX)` — the
//! design that minimises the generalised variance of the coefficient
//! estimates. Useful when the run budget is tighter than any classical
//! design allows.

use super::Design;
use crate::model::ModelSpec;
use crate::{DoeError, Result};
use ehsim_numeric::{Lu, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Builds a D-optimal design of `n` runs for the given model, selected
/// from a candidate set by Fedorov exchange.
///
/// `candidates` defaults (via [`d_optimal_grid`]) to the full 3-level
/// grid; any candidate list can be supplied here.
///
/// # Errors
///
/// [`DoeError::InvalidArgument`] on inconsistent dimensions or
/// `n < model.n_terms()`; [`DoeError::RankDeficient`] if no
/// non-singular starting subset is found.
pub fn d_optimal(
    model: &ModelSpec,
    candidates: &[Vec<f64>],
    n: usize,
    seed: u64,
) -> Result<Design> {
    let k = model.k();
    let p = model.n_terms();
    if n < p {
        return Err(DoeError::invalid(format!(
            "need at least as many runs ({n}) as model terms ({p})"
        )));
    }
    if candidates.len() < n {
        return Err(DoeError::invalid(format!(
            "candidate set ({}) smaller than requested runs ({n})",
            candidates.len()
        )));
    }
    for (i, c) in candidates.iter().enumerate() {
        if c.len() != k {
            return Err(DoeError::invalid(format!(
                "candidate {i} has {} coordinates, expected {k}",
                c.len()
            )));
        }
    }

    // Expanded model rows for every candidate.
    let rows: Vec<Vec<f64>> = candidates.iter().map(|c| model.expand_point(c)).collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..candidates.len()).collect();

    // Random restarts until the starting information matrix is
    // invertible.
    let mut start: Option<(Vec<usize>, f64)> = None;
    for _ in 0..50 {
        indices.shuffle(&mut rng);
        let trial: Vec<usize> = indices[..n].to_vec();
        if let Some(logdet) = log_det_information(&rows, &trial, p) {
            start = Some((trial, logdet));
            break;
        }
    }
    let (mut selected, mut best_logdet) = start.ok_or(DoeError::RankDeficient)?;

    // Fedorov exchange: repeatedly swap the selected point whose removal
    // hurts least with the candidate that helps most.
    for _sweep in 0..40 {
        let mut improved = false;
        for slot in 0..n {
            let current = selected[slot];
            let mut best_swap: Option<(usize, f64)> = None;
            for (cand_idx, _) in rows.iter().enumerate() {
                if selected.contains(&cand_idx) {
                    continue;
                }
                selected[slot] = cand_idx;
                if let Some(ld) = log_det_information(&rows, &selected, p) {
                    if ld > best_logdet + 1e-10 && best_swap.map_or(true, |(_, b)| ld > b) {
                        best_swap = Some((cand_idx, ld));
                    }
                }
            }
            match best_swap {
                Some((cand_idx, ld)) => {
                    selected[slot] = cand_idx;
                    best_logdet = ld;
                    improved = true;
                }
                None => {
                    selected[slot] = current;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let points: Vec<Vec<f64>> = selected.iter().map(|&i| candidates[i].clone()).collect();
    Design::new(k, points, format!("d-optimal(n={n}, seed={seed})"))
}

/// Convenience wrapper: D-optimal selection from the full 3-level grid
/// `{-1, 0, 1}^k`.
///
/// # Errors
///
/// Same as [`d_optimal`]; additionally rejects `k > 8` (grid blow-up).
pub fn d_optimal_grid(model: &ModelSpec, n: usize, seed: u64) -> Result<Design> {
    let k = model.k();
    if k > 8 {
        return Err(DoeError::invalid(format!(
            "3-level candidate grid supports k <= 8, got {k}"
        )));
    }
    let levels = [-1.0, 0.0, 1.0];
    let total = 3usize.pow(k as u32);
    let mut candidates = Vec::with_capacity(total);
    for mut code in 0..total {
        let mut p = vec![0.0; k];
        for slot in p.iter_mut() {
            *slot = levels[code % 3];
            code /= 3;
        }
        candidates.push(p);
    }
    d_optimal(model, &candidates, n, seed)
}

/// Log-determinant of `XᵀX` for the chosen subset; `None` if singular.
fn log_det_information(rows: &[Vec<f64>], subset: &[usize], p: usize) -> Option<f64> {
    let mut info = Matrix::zeros(p, p);
    for &idx in subset {
        let r = &rows[idx];
        for i in 0..p {
            for j in 0..p {
                info[(i, j)] += r[i] * r[j];
            }
        }
    }
    let lu = Lu::factor(&info).ok()?;
    let det = lu.det();
    if det <= 0.0 {
        return None;
    }
    Some(det.ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;

    #[test]
    fn linear_model_picks_corners() {
        // For a first-order model the D-optimal design lives on the
        // corners of the cube.
        let model = ModelSpec::linear(2).unwrap();
        let d = d_optimal_grid(&model, 4, 42).unwrap();
        for p in d.points() {
            assert!(
                p.iter().all(|v| v.abs() == 1.0),
                "expected corner point, got {p:?}"
            );
        }
    }

    #[test]
    fn beats_random_subset_in_logdet() {
        let model = ModelSpec::quadratic(2).unwrap();
        let d = d_optimal_grid(&model, 8, 1).unwrap();
        let rows: Vec<Vec<f64>> = d.points().iter().map(|p| model.expand_point(p)).collect();
        let subset: Vec<usize> = (0..8).collect();
        let opt_ld = log_det_information(&rows, &subset, model.n_terms()).unwrap();

        // A deliberately poor (clustered) subset.
        let clustered: Vec<Vec<f64>> = (0..8).map(|i| vec![-1.0 + 0.05 * i as f64, -1.0]).collect();
        let c_rows: Vec<Vec<f64>> = clustered.iter().map(|p| model.expand_point(p)).collect();
        let c_ld = log_det_information(&c_rows, &subset, model.n_terms());
        match c_ld {
            None => {} // singular: optimal clearly better
            Some(c) => assert!(opt_ld > c, "opt {opt_ld} vs clustered {c}"),
        }
    }

    #[test]
    fn exact_sized_design_is_nonsingular() {
        // n == p: a saturated D-optimal design must still be invertible.
        let model = ModelSpec::quadratic(2).unwrap();
        let d = d_optimal_grid(&model, model.n_terms(), 3).unwrap();
        let rows: Vec<Vec<f64>> = d.points().iter().map(|p| model.expand_point(p)).collect();
        let subset: Vec<usize> = (0..rows.len()).collect();
        assert!(log_det_information(&rows, &subset, model.n_terms()).is_some());
    }

    #[test]
    fn validation() {
        let model = ModelSpec::linear(2).unwrap();
        assert!(d_optimal_grid(&model, 1, 0).is_err()); // fewer runs than terms
        assert!(d_optimal(&model, &[vec![0.0, 0.0]], 4, 0).is_err()); // too few candidates
        let bad = vec![vec![0.0; 3]; 10];
        assert!(d_optimal(&model, &bad, 4, 0).is_err()); // wrong dimension
        let big = ModelSpec::linear(9).unwrap();
        assert!(d_optimal_grid(&big, 10, 0).is_err());
    }

    #[test]
    fn determinism() {
        let model = ModelSpec::quadratic(2).unwrap();
        let a = d_optimal_grid(&model, 8, 9).unwrap();
        let b = d_optimal_grid(&model, 8, 9).unwrap();
        assert_eq!(a.points(), b.points());
    }
}
