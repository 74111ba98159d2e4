//! Experimental designs in coded units.
//!
//! All designs produce runs in *coded* factor space: factorial levels at
//! `±1`, centre points at `0`, CCD axial points at `±α`. The `ehsim-core`
//! crate maps coded units onto physical parameter ranges.

pub mod box_behnken;
pub mod ccd;
pub mod doptimal;
pub mod factorial;
pub mod fractional;
pub mod lhs;

use crate::{DoeError, Result};
use ehsim_numeric::Matrix;
use std::fmt;

/// A set of experimental runs in coded factor space.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    k: usize,
    points: Vec<Vec<f64>>,
    label: String,
}

impl Design {
    /// Creates a design from explicit points.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if `k == 0`, the point list is
    /// empty, or any point has the wrong dimension or non-finite
    /// coordinates.
    pub fn new(k: usize, points: Vec<Vec<f64>>, label: impl Into<String>) -> Result<Self> {
        if k == 0 {
            return Err(DoeError::invalid("designs need at least one factor"));
        }
        if points.is_empty() {
            return Err(DoeError::invalid("designs need at least one run"));
        }
        for (i, p) in points.iter().enumerate() {
            if p.len() != k {
                return Err(DoeError::invalid(format!(
                    "run {i} has {} coordinates, expected {k}",
                    p.len()
                )));
            }
            if !p.iter().all(|v| v.is_finite()) {
                return Err(DoeError::invalid(format!(
                    "run {i} has non-finite coordinates"
                )));
            }
        }
        Ok(Design {
            k,
            points,
            label: label.into(),
        })
    }

    /// Number of factors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of runs.
    pub fn n_runs(&self) -> usize {
        self.points.len()
    }

    /// The runs, each a length-`k` coded coordinate vector.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Human-readable label (e.g. `"ccd(k=4, rotatable)"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends `n` centre-point replicates (all-zero coded runs).
    pub fn with_center_points(mut self, n: usize) -> Self {
        for _ in 0..n {
            self.points.push(vec![0.0; self.k]);
        }
        self
    }

    /// Appends the runs of another design over the same factors.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if the factor counts differ.
    pub fn concat(mut self, other: &Design) -> Result<Self> {
        if other.k != self.k {
            return Err(DoeError::invalid(format!(
                "cannot concatenate designs with {} and {} factors",
                self.k, other.k
            )));
        }
        self.points.extend(other.points.iter().cloned());
        self.label = format!("{} + {}", self.label, other.label);
        Ok(self)
    }

    /// The design as an `n_runs x k` matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.points.len(), self.k, |i, j| self.points[i][j])
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — {} runs x {} factors",
            self.label,
            self.n_runs(),
            self.k
        )?;
        for p in &self.points {
            let row: Vec<String> = p.iter().map(|v| format!("{v:>7.3}")).collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Design::new(0, vec![vec![]], "x").is_err());
        assert!(Design::new(2, vec![], "x").is_err());
        assert!(Design::new(2, vec![vec![1.0]], "x").is_err());
        assert!(Design::new(1, vec![vec![f64::NAN]], "x").is_err());
        let d = Design::new(2, vec![vec![1.0, -1.0]], "ok").unwrap();
        assert_eq!(d.k(), 2);
        assert_eq!(d.n_runs(), 1);
    }

    #[test]
    fn center_points_are_appended() {
        let d = Design::new(2, vec![vec![1.0, 1.0]], "base")
            .unwrap()
            .with_center_points(3);
        assert_eq!(d.n_runs(), 4);
        assert_eq!(d.points()[3], vec![0.0, 0.0]);
    }

    #[test]
    fn concat_checks_dimensions() {
        let a = Design::new(2, vec![vec![1.0, 1.0]], "a").unwrap();
        let b = Design::new(2, vec![vec![-1.0, -1.0]], "b").unwrap();
        let c = a.clone().concat(&b).unwrap();
        assert_eq!(c.n_runs(), 2);
        let bad = Design::new(3, vec![vec![0.0; 3]], "c").unwrap();
        assert!(a.concat(&bad).is_err());
    }

    #[test]
    fn matrix_roundtrip_and_display() {
        let d = Design::new(2, vec![vec![1.0, -1.0], vec![-1.0, 1.0]], "m").unwrap();
        let m = d.to_matrix();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], -1.0);
        assert!(!format!("{d}").is_empty());
    }
}
