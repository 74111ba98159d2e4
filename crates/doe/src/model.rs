//! Polynomial model specifications.
//!
//! A [`Term`] is a monomial over the coded factors (e.g. `x0·x2` or
//! `x1²`); a [`ModelSpec`] is an ordered list of terms — the columns of
//! the design matrix that ordinary least squares fits.
//!
//! [`ModelSpec::new`] lists every term's non-zero `(factor, exponent)`
//! pairs once, and model rows and predictions are evaluated from that
//! list. Exponents 1 and 2 are evaluated as `x` and `x·x`, the bits
//! `powi` returns for them, so every monomial keeps the bits of a
//! product of `powi` calls while linear, interaction and quadratic
//! terms make none.

use crate::{DoeError, Result};
use ehsim_numeric::Matrix;
use std::fmt;

/// A monomial term: per-factor exponents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Term {
    powers: Vec<u8>,
}

impl Term {
    /// Creates a term from per-factor exponents.
    pub fn new(powers: Vec<u8>) -> Self {
        Term { powers }
    }

    /// The intercept term (all exponents zero).
    pub fn intercept(k: usize) -> Self {
        Term { powers: vec![0; k] }
    }

    /// A pure linear term `x_i`.
    pub fn linear(k: usize, i: usize) -> Self {
        let mut powers = vec![0; k];
        powers[i] = 1;
        Term { powers }
    }

    /// A two-factor interaction `x_i · x_j`.
    pub fn interaction(k: usize, i: usize, j: usize) -> Self {
        let mut powers = vec![0; k];
        powers[i] += 1;
        powers[j] += 1;
        Term { powers }
    }

    /// A pure quadratic term `x_i²`.
    pub fn quadratic(k: usize, i: usize) -> Self {
        let mut powers = vec![0; k];
        powers[i] = 2;
        Term { powers }
    }

    /// Per-factor exponents.
    pub fn powers(&self) -> &[u8] {
        &self.powers
    }

    /// Total degree of the monomial.
    pub fn degree(&self) -> u32 {
        self.powers.iter().map(|&p| p as u32).sum()
    }

    /// Whether this is the intercept.
    pub fn is_intercept(&self) -> bool {
        self.powers.iter().all(|&p| p == 0)
    }

    /// Evaluates the monomial at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.powers().len()`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.powers.len(), "dimension mismatch");
        monomial(x, self.factors())
    }

    /// The `(factor, exponent)` pairs with a non-zero exponent, in
    /// factor order.
    fn factors(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.powers
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, p)| p != 0)
    }

    /// Whether `other` is a strict sub-term (divides this monomial) —
    /// used for model hierarchy.
    pub fn contains(&self, other: &Term) -> bool {
        self.powers.len() == other.powers.len()
            && self
                .powers
                .iter()
                .zip(other.powers.iter())
                .all(|(a, b)| a >= b)
            && self != other
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_intercept() {
            return write!(f, "1");
        }
        let mut first = true;
        for (i, &p) in self.powers.iter().enumerate() {
            if p == 0 {
                continue;
            }
            if !first {
                write!(f, "·")?;
            }
            if p == 1 {
                write!(f, "x{i}")?;
            } else {
                write!(f, "x{i}^{p}")?;
            }
            first = false;
        }
        Ok(())
    }
}

/// `x^p` with the bits of `x.powi(p)`.
///
/// `powi` is binary exponentiation from `1.0`, so it returns `1.0` for
/// `p = 0`, `1.0·x = x` for `p = 1` and `1.0·(x·x) = x·x` for `p = 2`,
/// signed zeros, subnormals and infinities included (a NaN stays NaN).
/// Only those two exponents skip the `powi` call.
fn power(x: f64, p: u8) -> f64 {
    match p {
        1 => x,
        2 => x * x,
        _ => x.powi(i32::from(p)),
    }
}

/// The monomial `∏ x[i]^p` over `(i, p)` pairs, multiplied in order
/// from `1.0` as `Iterator::product` does. Leaving out a zero exponent
/// leaves out a factor of exactly `1.0`, which changes no product.
fn monomial(x: &[f64], factors: impl IntoIterator<Item = (usize, u8)>) -> f64 {
    factors
        .into_iter()
        .fold(1.0, |acc, (i, p)| acc * power(x[i], p))
}

/// An ordered set of monomial terms over `k` factors.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    k: usize,
    terms: Vec<Term>,
    /// Every term's non-zero `(factor, exponent)` pairs, in column
    /// order; column `j` owns `factors[ends[j - 1]..ends[j]]` (from 0
    /// for `j = 0`).
    factors: Vec<(usize, u8)>,
    ends: Vec<usize>,
}

impl ModelSpec {
    /// Builds a model from explicit terms.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if `k == 0`, the list is empty,
    /// contains duplicates, or a term has the wrong arity.
    pub fn new(k: usize, terms: Vec<Term>) -> Result<Self> {
        if k == 0 {
            return Err(DoeError::invalid("models need at least one factor"));
        }
        if terms.is_empty() {
            return Err(DoeError::invalid("models need at least one term"));
        }
        for t in &terms {
            if t.powers.len() != k {
                return Err(DoeError::invalid(format!(
                    "term {t} has arity {}, expected {k}",
                    t.powers.len()
                )));
            }
        }
        for i in 0..terms.len() {
            for j in (i + 1)..terms.len() {
                if terms[i] == terms[j] {
                    return Err(DoeError::invalid(format!("duplicate term {}", terms[i])));
                }
            }
        }
        let mut factors = Vec::new();
        let mut ends = Vec::with_capacity(terms.len());
        for t in &terms {
            factors.extend(t.factors());
            ends.push(factors.len());
        }
        Ok(ModelSpec {
            k,
            terms,
            factors,
            ends,
        })
    }

    /// First-order model: intercept + all linear terms.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if `k == 0`.
    pub fn linear(k: usize) -> Result<Self> {
        let mut terms = vec![Term::intercept(k)];
        terms.extend((0..k).map(|i| Term::linear(k, i)));
        ModelSpec::new(k, terms)
    }

    /// First-order model plus all two-factor interactions.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if `k == 0`.
    pub fn with_interactions(k: usize) -> Result<Self> {
        let mut terms = vec![Term::intercept(k)];
        terms.extend((0..k).map(|i| Term::linear(k, i)));
        for i in 0..k {
            for j in (i + 1)..k {
                terms.push(Term::interaction(k, i, j));
            }
        }
        ModelSpec::new(k, terms)
    }

    /// Full second-order (quadratic) model: intercept, linear,
    /// two-factor interactions, pure quadratics — the standard RSM
    /// model.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if `k == 0`.
    pub fn quadratic(k: usize) -> Result<Self> {
        let mut terms = vec![Term::intercept(k)];
        terms.extend((0..k).map(|i| Term::linear(k, i)));
        for i in 0..k {
            for j in (i + 1)..k {
                terms.push(Term::interaction(k, i, j));
            }
        }
        terms.extend((0..k).map(|i| Term::quadratic(k, i)));
        ModelSpec::new(k, terms)
    }

    /// Number of factors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of terms (model matrix columns).
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// The terms in column order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The model row at `x`, column by column, from the exponent table
    /// built in [`ModelSpec::new`]. Callers check `x.len() == self.k()`.
    pub(crate) fn monomials<'a>(&'a self, x: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let m = monomial(x, self.factors[start..end].iter().copied());
            start = end;
            m
        })
    }

    /// Expands one point into a model-matrix row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.k()`.
    pub fn expand_point(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.k, "dimension mismatch");
        self.monomials(x).collect()
    }

    /// Expands a set of points into the design (model) matrix.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if any point has the wrong arity.
    pub fn design_matrix(&self, points: &[Vec<f64>]) -> Result<Matrix> {
        let mut data = Vec::with_capacity(points.len() * self.terms.len());
        for (i, p) in points.iter().enumerate() {
            if p.len() != self.k {
                return Err(DoeError::invalid(format!(
                    "point {i} has {} coordinates, expected {}",
                    p.len(),
                    self.k
                )));
            }
            data.extend(self.monomials(p));
        }
        Ok(Matrix::from_vec(points.len(), self.terms.len(), data)?)
    }

    /// Returns a copy with the given term removed.
    ///
    /// # Errors
    ///
    /// [`DoeError::InvalidArgument`] if the term is absent or it is the
    /// last remaining term.
    pub fn without_term(&self, term: &Term) -> Result<ModelSpec> {
        let terms: Vec<Term> = self.terms.iter().filter(|t| *t != term).cloned().collect();
        if terms.len() == self.terms.len() {
            return Err(DoeError::invalid(format!("term {term} not in model")));
        }
        ModelSpec::new(self.k, terms)
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let strs: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "y ~ {}", strs.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_eval() {
        let t = Term::new(vec![1, 0, 2]);
        assert_eq!(t.eval(&[2.0, 5.0, 3.0]), 18.0);
        assert_eq!(t.degree(), 3);
        assert_eq!(Term::intercept(3).eval(&[7.0, 8.0, 9.0]), 1.0);
    }

    #[test]
    fn term_constructors() {
        assert_eq!(Term::linear(3, 1).powers(), &[0, 1, 0]);
        assert_eq!(Term::interaction(3, 0, 2).powers(), &[1, 0, 1]);
        assert_eq!(Term::quadratic(3, 2).powers(), &[0, 0, 2]);
        // Self-interaction becomes a square.
        assert_eq!(Term::interaction(2, 1, 1).powers(), &[0, 2]);
    }

    #[test]
    fn hierarchy_containment() {
        let inter = Term::interaction(3, 0, 1);
        let lin = Term::linear(3, 0);
        assert!(inter.contains(&lin));
        assert!(!lin.contains(&inter));
        assert!(!inter.contains(&inter));
        assert!(Term::quadratic(3, 0).contains(&Term::linear(3, 0)));
    }

    #[test]
    fn model_sizes() {
        assert_eq!(ModelSpec::linear(4).unwrap().n_terms(), 5);
        assert_eq!(ModelSpec::with_interactions(4).unwrap().n_terms(), 11);
        // Quadratic: 1 + k + k(k-1)/2 + k = 15 for k = 4.
        assert_eq!(ModelSpec::quadratic(4).unwrap().n_terms(), 15);
    }

    #[test]
    fn design_matrix_values() {
        let m = ModelSpec::quadratic(2).unwrap();
        let x = m.design_matrix(&[vec![2.0, 3.0]]).unwrap();
        // Columns: 1, x0, x1, x0x1, x0², x1².
        assert_eq!(x.row(0), Some(&[1.0, 2.0, 3.0, 6.0, 4.0, 9.0][..]));
    }

    #[test]
    fn without_term() {
        let m = ModelSpec::linear(2).unwrap();
        let reduced = m.without_term(&Term::linear(2, 1)).unwrap();
        assert_eq!(reduced.n_terms(), 2);
        assert!(m.without_term(&Term::quadratic(2, 0)).is_err());
    }

    #[test]
    fn validation() {
        assert!(ModelSpec::new(0, vec![]).is_err());
        assert!(ModelSpec::new(2, vec![]).is_err());
        assert!(ModelSpec::new(2, vec![Term::new(vec![1])]).is_err());
        assert!(ModelSpec::new(2, vec![Term::intercept(2), Term::intercept(2)]).is_err());
        let m = ModelSpec::linear(2).unwrap();
        assert!(m.design_matrix(&[vec![1.0]]).is_err());
    }

    #[test]
    fn display() {
        let m = ModelSpec::quadratic(2).unwrap();
        let s = m.to_string();
        assert!(s.contains("x0·x1"));
        assert!(s.contains("x1^2"));
    }
}
