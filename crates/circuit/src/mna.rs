//! Modified nodal analysis (MNA) assembly and solving.
//!
//! Both engines reduce each time step to a *resistive snapshot*: a linear
//! system over the node voltages plus one branch-current unknown per
//! voltage-defined element (independent voltage sources, CCVS outputs,
//! and — in the linearized state-space engine — the voltage sources that
//! replace capacitors). This module owns the stamping conventions:
//!
//! * KCL rows state that the sum of currents *leaving* a node through
//!   elements equals the sum of currents *injected* into it (RHS).
//! * A branch current `i_k` is the current flowing from the element's
//!   `plus` terminal to its `minus` terminal **through the element**.
//! * A current source `from -> to` removes current from `from` and
//!   injects it into `to`.

use crate::netlist::NodeId;
use crate::Result;
use ehsim_numeric::{Lu, Matrix};

/// An MNA system under construction.
///
/// Unknown layout: node voltages `1..n_nodes` (ground excluded) followed
/// by `n_branches` branch currents.
#[derive(Debug, Clone)]
pub struct MnaBuilder {
    n_nodes: usize,
    n_branches: usize,
    g: Matrix,
    rhs: Vec<f64>,
}

/// Solution of an MNA system.
#[derive(Debug, Clone, Default)]
pub struct MnaSolution {
    /// Node voltages indexed by `NodeId` (entry 0, ground, is 0).
    pub v: Vec<f64>,
    /// Branch currents in branch order.
    pub i_branch: Vec<f64>,
}

impl MnaSolution {
    /// Voltage of a node.
    pub fn voltage(&self, n: NodeId) -> f64 {
        self.v[n.index()]
    }

    /// Voltage difference `v(a) - v(b)`.
    pub fn voltage_between(&self, a: NodeId, b: NodeId) -> f64 {
        self.v[a.index()] - self.v[b.index()]
    }
}

impl MnaBuilder {
    /// Creates a zeroed system for `n_nodes` nodes (including ground) and
    /// `n_branches` branch-current unknowns.
    pub fn new(n_nodes: usize, n_branches: usize) -> Self {
        let n = n_nodes - 1 + n_branches;
        MnaBuilder {
            n_nodes,
            n_branches,
            g: Matrix::zeros(n, n),
            rhs: vec![0.0; n],
        }
    }

    /// Total number of unknowns.
    pub fn dim(&self) -> usize {
        self.n_nodes - 1 + self.n_branches
    }

    /// Resets all stamps to zero in place, keeping the layout and the
    /// buffers.
    pub fn clear(&mut self) {
        self.g.as_mut_slice().fill(0.0);
        self.rhs.fill(0.0);
    }

    /// Clears only the right-hand side (stamps of sources/history), so a
    /// constant conductance pattern can be reused.
    pub fn clear_rhs(&mut self) {
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
    }

    fn node_row(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    fn branch_row(&self, branch: usize) -> usize {
        debug_assert!(branch < self.n_branches, "branch index out of range");
        self.n_nodes - 1 + branch
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        if let Some(i) = self.node_row(a) {
            self.g[(i, i)] += g;
        }
        if let Some(j) = self.node_row(b) {
            self.g[(j, j)] += g;
        }
        if let (Some(i), Some(j)) = (self.node_row(a), self.node_row(b)) {
            self.g[(i, j)] -= g;
            self.g[(j, i)] -= g;
        }
    }

    /// Stamps a current source pushing `i` amps from `from` into `to`.
    pub fn stamp_current_source(&mut self, from: NodeId, to: NodeId, i: f64) {
        if let Some(r) = self.node_row(from) {
            self.rhs[r] -= i;
        }
        if let Some(r) = self.node_row(to) {
            self.rhs[r] += i;
        }
    }

    /// Stamps the incidence of a branch (voltage-defined element) between
    /// `plus` and `minus`: the branch current enters the KCL rows and the
    /// node voltages enter the branch (KVL) row.
    pub fn stamp_branch_incidence(&mut self, branch: usize, plus: NodeId, minus: NodeId) {
        let bc = self.branch_row(branch);
        if let Some(i) = self.node_row(plus) {
            self.g[(i, bc)] += 1.0;
            self.g[(bc, i)] += 1.0;
        }
        if let Some(j) = self.node_row(minus) {
            self.g[(j, bc)] -= 1.0;
            self.g[(bc, j)] -= 1.0;
        }
    }

    /// Sets the branch (KVL) row right-hand side: `v(plus) - v(minus) +
    /// extra terms = value`.
    pub fn set_branch_rhs(&mut self, branch: usize, value: f64) {
        let bc = self.branch_row(branch);
        self.rhs[bc] = value;
    }

    /// Adds an extra node-voltage coefficient to a branch row. Used for
    /// controlled sources whose output depends on node voltages (e.g. a
    /// CCVS whose controlling inductor current was expressed through its
    /// Norton companion).
    pub fn add_branch_node_coeff(&mut self, branch: usize, node: NodeId, coeff: f64) {
        let bc = self.branch_row(branch);
        if let Some(j) = self.node_row(node) {
            self.g[(bc, j)] += coeff;
        }
    }

    /// Adds a coefficient coupling one branch row to another branch's
    /// current unknown (e.g. a CCVS controlled by an inductor that is
    /// itself a branch in a DC analysis).
    pub fn add_branch_branch_coeff(&mut self, branch: usize, other: usize, coeff: f64) {
        let br = self.branch_row(branch);
        let bc = self.branch_row(other);
        self.g[(br, bc)] += coeff;
    }

    /// Borrow of the assembled matrix (for factoring separately).
    pub fn matrix(&self) -> &Matrix {
        &self.g
    }

    /// Borrow of the right-hand side.
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// Factors the assembled matrix.
    ///
    /// # Errors
    ///
    /// Propagates [`ehsim_numeric::NumericError::Singular`] for floating
    /// or ill-formed circuits.
    pub fn factor(&self) -> Result<Lu> {
        Ok(Lu::factor(&self.g)?)
    }

    /// Solves the assembled system with a fresh factorisation.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors (singular matrix).
    pub fn solve(&self) -> Result<MnaSolution> {
        let lu = self.factor()?;
        self.solve_with(&lu)
    }

    /// Solves the current RHS against a previously computed
    /// factorisation of the same conductance pattern.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors (dimension mismatch).
    pub fn solve_with(&self, lu: &Lu) -> Result<MnaSolution> {
        let mut x = vec![0.0; self.dim()];
        let mut sol = MnaSolution::default();
        self.solve_into(lu, &mut x, &mut sol)?;
        Ok(sol)
    }

    /// [`MnaBuilder::solve_with`] into caller-owned buffers: `x` holds
    /// the raw unknowns and `sol` receives them unpacked. Once `sol` has
    /// been sized by a first call, this allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors (dimension mismatch, including an `x`
    /// whose length is not [`MnaBuilder::dim`]).
    pub fn solve_into(&self, lu: &Lu, x: &mut [f64], sol: &mut MnaSolution) -> Result<()> {
        lu.solve_into(&self.rhs, x)?;
        let (v, i_branch) = x.split_at(self.n_nodes - 1);
        sol.v.clear();
        sol.v.push(0.0);
        sol.v.extend_from_slice(v);
        sol.i_branch.clear();
        sol.i_branch.extend_from_slice(i_branch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn voltage_divider() {
        // 1V source -> R1 (1k) -> node2 -> R2 (1k) -> gnd
        let mut b = MnaBuilder::new(3, 1);
        b.stamp_conductance(nid(1), nid(2), 1e-3);
        b.stamp_conductance(nid(2), nid(0), 1e-3);
        b.stamp_branch_incidence(0, nid(1), nid(0));
        b.set_branch_rhs(0, 1.0);
        let sol = b.solve().unwrap();
        assert!((sol.voltage(nid(1)) - 1.0).abs() < 1e-12);
        assert!((sol.voltage(nid(2)) - 0.5).abs() < 1e-12);
        // Source current: 1V over 2k, flowing + -> - inside the source is
        // negative (the source delivers current).
        assert!((sol.i_branch[0] + 0.5e-3).abs() < 1e-12);
    }

    #[test]
    fn current_source_injection() {
        // 1 mA from ground into node 1 across 1k to ground: v = 1V.
        let mut b = MnaBuilder::new(2, 0);
        b.stamp_conductance(nid(1), nid(0), 1e-3);
        b.stamp_current_source(nid(0), nid(1), 1e-3);
        let sol = b.solve().unwrap();
        assert!((sol.voltage(nid(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut b = MnaBuilder::new(3, 0);
        // Only node 1 has a path to ground; node 2 floats.
        b.stamp_conductance(nid(1), nid(0), 1.0);
        assert!(b.solve().is_err());
    }

    #[test]
    fn branch_node_coeff_vcvs_like() {
        // Branch: v(2) - 2*v(1) = 0 (a VCVS of gain 2 from node1 to node2),
        // node1 driven at 1V by another branch, 1 ohm loads on both.
        let mut b = MnaBuilder::new(3, 2);
        b.stamp_conductance(nid(1), nid(0), 1.0);
        b.stamp_conductance(nid(2), nid(0), 1.0);
        b.stamp_branch_incidence(0, nid(1), nid(0));
        b.set_branch_rhs(0, 1.0);
        b.stamp_branch_incidence(1, nid(2), nid(0));
        b.add_branch_node_coeff(1, nid(1), -2.0);
        b.set_branch_rhs(1, 0.0);
        let sol = b.solve().unwrap();
        assert!((sol.voltage(nid(2)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clear_rhs_retains_pattern() {
        let mut b = MnaBuilder::new(2, 0);
        b.stamp_conductance(nid(1), nid(0), 2.0);
        b.stamp_current_source(nid(0), nid(1), 4.0);
        let lu = b.factor().unwrap();
        let v1 = b.solve_with(&lu).unwrap().voltage(nid(1));
        assert!((v1 - 2.0).abs() < 1e-12);
        b.clear_rhs();
        b.stamp_current_source(nid(0), nid(1), 2.0);
        let v2 = b.solve_with(&lu).unwrap().voltage(nid(1));
        assert!((v2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dim_and_clear() {
        let mut b = MnaBuilder::new(4, 2);
        assert_eq!(b.dim(), 5);
        b.stamp_conductance(nid(1), nid(0), -1.0);
        b.stamp_current_source(nid(1), nid(0), f64::NAN);
        b.clear();
        // Every entry is +0.0 again, as in a fresh builder.
        let fresh = MnaBuilder::new(4, 2);
        let bits = |m: &MnaBuilder| -> Vec<u64> {
            m.matrix()
                .as_slice()
                .iter()
                .chain(m.rhs())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&b), bits(&fresh));
    }

    #[test]
    fn reused_buffers_solve_like_fresh_ones() {
        let mut b = MnaBuilder::new(3, 1);
        let mut lu = Lu::default();
        let mut x = vec![0.0; b.dim()];
        let mut sol = MnaSolution::default();
        for v_src in [1.0, -2.5, 0.0] {
            b.clear();
            b.stamp_conductance(nid(1), nid(2), 1e-3);
            b.stamp_conductance(nid(2), nid(0), 2e-3);
            b.stamp_branch_incidence(0, nid(1), nid(0));
            b.set_branch_rhs(0, v_src);
            lu.refactor(b.matrix()).unwrap();
            b.solve_into(&lu, &mut x, &mut sol).unwrap();
            let fresh = b.solve().unwrap();
            let bits = |s: &MnaSolution| -> Vec<u64> {
                s.v.iter().chain(&s.i_branch).map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&sol), bits(&fresh));
        }
        let mut short = vec![0.0; 2];
        assert!(b.solve_into(&lu, &mut short, &mut sol).is_err());
    }
}
