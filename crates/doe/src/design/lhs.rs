//! Latin hypercube sampling — space-filling designs for comparison
//! against the structured quadratic designs (experiment E8).

use super::Design;
use crate::{DoeError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Builds a seeded Latin hypercube with `n` runs over `k` factors in
/// coded `[-1, 1]` units: each factor's range is divided into `n`
/// equal strata, each stratum sampled exactly once, with independent
/// random permutations per factor.
///
/// # Errors
///
/// [`DoeError::InvalidArgument`] if `k == 0` or `n == 0`.
///
/// # Example
///
/// ```
/// use ehsim_doe::design::lhs::latin_hypercube;
///
/// let d = latin_hypercube(4, 20, 42).expect("valid arguments");
/// assert_eq!(d.n_runs(), 20);
/// ```
pub fn latin_hypercube(k: usize, n: usize, seed: u64) -> Result<Design> {
    if k == 0 || n == 0 {
        return Err(DoeError::invalid(format!(
            "latin hypercube needs k >= 1 and n >= 1 (got k={k}, n={n})"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(k);
    for _ in 0..k {
        let mut strata: Vec<usize> = (0..n).collect();
        strata.shuffle(&mut rng);
        let col: Vec<f64> = strata
            .into_iter()
            .map(|s| {
                let u: f64 = rng.random();
                // Stratified sample in [0,1), mapped to [-1, 1].
                let frac = (s as f64 + u) / n as f64;
                2.0 * frac - 1.0
            })
            .collect();
        columns.push(col);
    }
    let points: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..k).map(|j| columns[j][i]).collect())
        .collect();
    Design::new(k, points, format!("lhs(n={n}, seed={seed})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratification_property() {
        let n = 10;
        let d = latin_hypercube(3, n, 7).unwrap();
        // Each factor has exactly one sample per stratum.
        for j in 0..3 {
            let mut strata: Vec<usize> = d
                .points()
                .iter()
                .map(|p| (((p[j] + 1.0) / 2.0) * n as f64).floor() as usize)
                .map(|s| s.min(n - 1))
                .collect();
            strata.sort_unstable();
            let expect: Vec<usize> = (0..n).collect();
            assert_eq!(strata, expect, "factor {j} not stratified");
        }
    }

    #[test]
    fn determinism_by_seed() {
        let a = latin_hypercube(2, 8, 42).unwrap();
        let b = latin_hypercube(2, 8, 42).unwrap();
        let c = latin_hypercube(2, 8, 43).unwrap();
        assert_eq!(a.points(), b.points());
        assert_ne!(a.points(), c.points());
    }

    #[test]
    fn bounds() {
        let d = latin_hypercube(5, 50, 1).unwrap();
        for p in d.points() {
            assert!(p.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn validation() {
        assert!(latin_hypercube(0, 5, 0).is_err());
        assert!(latin_hypercube(2, 0, 0).is_err());
    }
}
