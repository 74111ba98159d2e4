//! Property-based tests for the numerical substrate.

use ehsim_numeric::stats::dist::{FisherF, StudentT};
use ehsim_numeric::stats::special::beta_inc;
use ehsim_numeric::{expm, Lu, Matrix, Qr};
use proptest::prelude::*;

/// Maximum absolute elementwise difference of two equal-length slices.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

/// `x(t_end)` for `ẋ = A·x`, `x(0) = x0`, by classic fixed-step RK4 —
/// an integrator independent of the Padé/squaring path in `expm`.
fn rk4_linear(a: &Matrix, x0: &[f64], h: f64, t_end: f64) -> Vec<f64> {
    let f = |x: &[f64]| a.matvec(x).expect("dimension matches");
    let axpy = |x: &[f64], s: f64, k: &[f64]| -> Vec<f64> {
        x.iter().zip(k).map(|(xi, ki)| xi + s * ki).collect()
    };
    let mut x = x0.to_vec();
    let mut t = 0.0;
    while t < t_end {
        let h = h.min(t_end - t);
        let k1 = f(&x);
        let k2 = f(&axpy(&x, 0.5 * h, &k1));
        let k3 = f(&axpy(&x, 0.5 * h, &k2));
        let k4 = f(&axpy(&x, h, &k3));
        for i in 0..x.len() {
            x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
    }
    x
}

/// Strategy: a well-conditioned square matrix built as D + N with a
/// dominant diagonal.
fn diag_dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
        let mut m = Matrix::from_vec(n, n, vals).expect("sized buffer");
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

/// Strategy: a Hurwitz-stable matrix — off-diagonal noise dominated by
/// a strongly negative diagonal, so all eigenvalues have negative real
/// part (Gershgorin).
fn stable_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-0.8f64..0.8, n * n).prop_map(move |vals| {
        let mut m = Matrix::from_vec(n, n, vals).expect("sized buffer");
        for i in 0..n {
            m[(i, i)] -= n as f64 + 1.0;
        }
        m
    })
}

proptest! {
    #[test]
    fn lu_solve_produces_small_residual(
        a in diag_dominant_matrix(5),
        b in prop::collection::vec(-10.0f64..10.0, 5),
    ) {
        let lu = Lu::factor(&a).expect("diagonally dominant is nonsingular");
        let x = lu.solve(&b).expect("dimension matches");
        let ax = a.matvec(&x).expect("dimension matches");
        prop_assert!(max_abs_diff(&ax, &b) < 1e-8);
    }

    #[test]
    fn lu_det_matches_expansion_for_2x2(
        a in -5.0f64..5.0, b in -5.0f64..5.0,
        c in -5.0f64..5.0, d in -5.0f64..5.0,
    ) {
        let det_direct = a * d - b * c;
        prop_assume!(det_direct.abs() > 1e-6);
        let m = Matrix::from_rows(&[&[a, b], &[c, d]]).expect("2x2");
        let lu = Lu::factor(&m).expect("nonsingular by assumption");
        prop_assert!((lu.det() - det_direct).abs() < 1e-9 * det_direct.abs().max(1.0));
    }

    #[test]
    fn qr_least_squares_residual_is_orthogonal_to_columns(
        vals in prop::collection::vec(-3.0f64..3.0, 8 * 3),
        b in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        let mut a = Matrix::from_vec(8, 3, vals).expect("sized buffer");
        // Bump towards full rank.
        for j in 0..3 {
            a[(j, j)] += 10.0;
        }
        let qr = Qr::factor(&a).expect("full rank after bump");
        let x = qr.solve_least_squares(&b).expect("dimension matches");
        let ax = a.matvec(&x).expect("dimension matches");
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        // Normal equations: A^T r == 0 at the LS optimum.
        let atr = a.matvec_transposed(&r).expect("dimension matches");
        prop_assert!(atr.iter().fold(0.0, |m: f64, v| m.max(v.abs())) < 1e-7);
    }

    #[test]
    fn lu_factors_reconstruct_the_matrix(a in diag_dominant_matrix(5)) {
        // L·U == P·A within 1e-9.
        let lu = Lu::factor(&a).expect("diagonally dominant is nonsingular");
        let prod = (&lu.l() * &lu.u()).expect("conformable");
        let p = lu.permutation();
        let pa = Matrix::from_fn(5, 5, |i, j| a[(p[i], j)]);
        prop_assert!(prod.max_abs_diff(&pa).expect("same shape") < 1e-9);
    }

    #[test]
    fn qr_factors_reconstruct_the_matrix(
        vals in prop::collection::vec(-3.0f64..3.0, 8 * 3),
    ) {
        let mut a = Matrix::from_vec(8, 3, vals).expect("sized buffer");
        for j in 0..3 {
            a[(j, j)] += 10.0; // bump towards full rank
        }
        let qr = Qr::factor(&a).expect("full rank after bump");
        // Q·R == A within 1e-9.
        let prod = (&qr.q() * &qr.r()).expect("conformable");
        prop_assert!(prod.max_abs_diff(&a).expect("same shape") < 1e-9);
        // Q has orthonormal columns: QᵀQ == I.
        let q = qr.q();
        let qtq = (&q.transpose() * &q).expect("conformable");
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(3)).expect("same shape") < 1e-12);
    }

    #[test]
    fn expm_matches_ode_reference_on_stable_systems(
        a in stable_matrix(3),
        x0 in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        // x(1) for ẋ = A·x is e^{A}·x0; RK4 at h = 1e-3 carries a
        // global error of O(h⁴), far below the 1e-8 tolerance.
        let got = rk4_linear(&a, &x0, 1e-3, 1.0);
        let e = expm(&a).expect("finite matrix");
        let want = e.matvec(&x0).expect("dimension matches");
        prop_assert!(max_abs_diff(&got, &want) < 1e-8);
    }

    #[test]
    fn expm_inverse_property(vals in prop::collection::vec(-0.8f64..0.8, 9)) {
        // e^{A} e^{-A} == I for every A.
        let a = Matrix::from_vec(3, 3, vals).expect("sized buffer");
        let e_pos = expm(&a).expect("finite matrix");
        let e_neg = expm(&a.scaled(-1.0)).expect("finite matrix");
        let prod = (&e_pos * &e_neg).expect("conformable");
        prop_assert!(prod.max_abs_diff(&Matrix::identity(3)).expect("same shape") < 1e-10);
    }

    #[test]
    fn expm_det_equals_exp_trace(vals in prop::collection::vec(-0.5f64..0.5, 4)) {
        // det(e^A) == e^{tr A} (Jacobi's formula).
        let a = Matrix::from_vec(2, 2, vals).expect("sized buffer");
        let e = expm(&a).expect("finite matrix");
        let det = e[(0, 0)] * e[(1, 1)] - e[(0, 1)] * e[(1, 0)];
        prop_assert!((det - a.trace().exp()).abs() < 1e-10);
    }

    #[test]
    fn student_t_symmetry(df in 1.0f64..50.0, x in 0.0f64..8.0) {
        let t = StudentT::new(df).expect("positive df");
        prop_assert!((t.cdf(x) + t.cdf(-x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn fisher_f_reciprocal_relation(d1 in 1.0f64..20.0, d2 in 1.0f64..20.0, x in 0.01f64..10.0) {
        // If X ~ F(d1, d2) then 1/X ~ F(d2, d1).
        let f12 = FisherF::new(d1, d2).expect("positive dfs");
        let f21 = FisherF::new(d2, d1).expect("positive dfs");
        prop_assert!((f12.cdf(x) - f21.sf(1.0 / x)).abs() < 1e-9);
    }

    #[test]
    fn beta_inc_monotone_in_x(a in 0.2f64..10.0, b in 0.2f64..10.0, x in 0.0f64..0.98) {
        let i1 = beta_inc(a, b, x).expect("in domain");
        let i2 = beta_inc(a, b, x + 0.01).expect("in domain");
        prop_assert!(i2 >= i1 - 1e-12);
    }

}
