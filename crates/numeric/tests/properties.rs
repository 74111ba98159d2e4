//! Property-based tests for the numerical substrate.

use ehsim_numeric::stats::dist::{FisherF, StudentT};
use ehsim_numeric::stats::special::beta_inc;
use ehsim_numeric::{expm, Lu, Matrix, NumericError, Qr};
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
        prop_assert!((det - a.trace().expect("square").exp()).abs() < 1e-10);
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

// ---------------------------------------------------------------------
// Bit identity of the row-slice LU against the indexed kernel.
// ---------------------------------------------------------------------

/// Pivot magnitudes below this are singular (as in `ehsim_numeric::lu`).
const REF_SINGULAR_TOL: f64 = 1e-300;

/// The textbook indexed LU kernel: `Matrix[(i, j)]` access throughout,
/// rows swapped entry by entry. Returns the packed factors, the row
/// permutation and the permutation sign, or `None` where it reports a
/// singular matrix.
fn reference_factor(a: &Matrix) -> Option<(Matrix, Vec<usize>, f64)> {
    let n = a.rows();
    let mut lu = a.clone();
    let mut piv: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    for k in 0..n {
        let mut p = k;
        let mut max = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > max {
                max = v;
                p = i;
            }
        }
        if max < REF_SINGULAR_TOL || !max.is_finite() {
            return None;
        }
        if p != k {
            for j in 0..n {
                let t = lu[(p, j)];
                lu[(p, j)] = lu[(k, j)];
                lu[(k, j)] = t;
            }
            piv.swap(p, k);
            sign = -sign;
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let m = lu[(i, k)] / pivot;
            lu[(i, k)] = m;
            if m == 0.0 {
                continue;
            }
            for j in (k + 1)..n {
                let upd = m * lu[(k, j)];
                lu[(i, j)] -= upd;
            }
        }
    }
    Some((lu, piv, sign))
}

/// The indexed substitutions that go with [`reference_factor`].
fn reference_solve(lu: &Matrix, piv: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.rows();
    let mut x: Vec<f64> = piv.iter().map(|&p| b[p]).collect();
    for i in 1..n {
        let mut acc = x[i];
        for j in 0..i {
            acc -= lu[(i, j)] * x[j];
        }
        x[i] = acc;
    }
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= lu[(i, j)] * x[j];
        }
        x[i] = acc / lu[(i, i)];
    }
    x
}

/// Bit patterns with every NaN folded to one, so two NaNs compare equal
/// whatever their payloads.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// SplitMix64: a small deterministic stream for building test inputs.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A finite value with a random sign, spread over twelve decades.
    fn finite(&mut self) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (2.0 * unit - 1.0) * 10f64.powi(self.below(13) as i32 - 6)
    }

    fn signed_zero(&mut self) -> f64 {
        if self.below(2) == 0 {
            0.0
        } else {
            -0.0
        }
    }

    /// ±0, a subnormal, ±∞ or NaN.
    fn special(&mut self) -> f64 {
        const SPECIALS: [f64; 8] = [
            0.0,
            -0.0,
            5e-324,
            -1e-310,
            f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        SPECIALS[self.below(SPECIALS.len())]
    }
}

/// A dense `n x n` matrix, about a quarter of it signed zeros.
fn dense(s: &mut Stream, n: usize) -> Matrix {
    Matrix::from_fn(n, n, |_, _| {
        if s.below(4) == 0 {
            s.signed_zero()
        } else {
            s.finite()
        }
    })
}

/// An MNA-shaped matrix: conductances stamped between random node pairs
/// (some negative, as a negative companion conductance would be), then
/// voltage-defined branches with ±1 incidences and a zero diagonal, so
/// pivoting must swap rows. The untouched entries are signed zeros,
/// which the elimination turns into signed zeros of `L` under negative
/// pivots.
fn mna_like(s: &mut Stream, n: usize) -> Matrix {
    let branches = if n > 1 { s.below(n / 2 + 1) } else { 0 };
    let nodes = n - branches;
    let mut m = Matrix::from_fn(n, n, |_, _| s.signed_zero());
    for _ in 0..2 * nodes {
        let a = s.below(nodes);
        let b = s.below(nodes + 1); // `nodes` stands for ground
        let g = s.finite();
        m[(a, a)] += g;
        if b < nodes && b != a {
            m[(b, b)] += g;
            m[(a, b)] -= g;
            m[(b, a)] -= g;
        }
    }
    for k in 0..branches {
        let row = nodes + k;
        let plus = s.below(nodes.max(1));
        if plus < nodes {
            m[(plus, row)] += 1.0;
            m[(row, plus)] += 1.0;
        }
        let minus = s.below(nodes + 1);
        if minus < nodes && minus != plus {
            m[(minus, row)] -= 1.0;
            m[(row, minus)] -= 1.0;
        }
    }
    m
}

/// A matrix for case `seed`: dense or MNA-shaped, size 1..=40, sometimes
/// with one special entry, sometimes made singular on purpose.
fn lu_case(seed: u64) -> Matrix {
    let mut s = Stream(seed);
    let n = 1 + s.below(40);
    let mut m = if s.below(2) == 0 {
        dense(&mut s, n)
    } else {
        mna_like(&mut s, n)
    };
    match s.below(6) {
        0 => {
            let (i, j) = (s.below(n), s.below(n));
            m[(i, j)] = s.special();
        }
        1 => {
            // A zero column, or one too small to pivot on.
            let j = s.below(n);
            let tiny = if s.below(2) == 0 { 0.0 } else { 1e-301 };
            for i in 0..n {
                m[(i, j)] = tiny;
            }
        }
        2 if n > 1 => {
            // Negative pivots over signed-zero columns.
            for i in 0..n {
                m[(i, i)] = -(n as f64) - s.finite().abs();
                for j in 0..i {
                    if s.below(2) == 0 {
                        m[(i, j)] = s.signed_zero();
                    }
                }
            }
        }
        _ => {}
    }
    m
}

/// A right-hand side for a size-`n` case, sometimes with special entries.
fn rhs_case(s: &mut Stream, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match s.below(10) {
            0 => s.special(),
            1 => s.signed_zero(),
            _ => s.finite(),
        })
        .collect()
}

/// Checks one factorisation against the reference, bit for bit: `L`,
/// `U`, the permutation, the determinant and three solves.
fn check_against_reference(lu: &Lu, a: &Matrix, seed: u64) -> Result<(), String> {
    let Some((packed, piv, sign)) = reference_factor(a) else {
        return Err(format!("seed {seed}: reference is singular, LU is not"));
    };
    let n = a.rows();
    let l = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater => packed[(i, j)],
        std::cmp::Ordering::Less => 0.0,
    });
    let u = Matrix::from_fn(n, n, |i, j| if j >= i { packed[(i, j)] } else { 0.0 });
    if bits(lu.l().as_slice()) != bits(l.as_slice()) {
        return Err(format!("seed {seed}: L differs"));
    }
    if bits(lu.u().as_slice()) != bits(u.as_slice()) {
        return Err(format!("seed {seed}: U differs"));
    }
    if lu.permutation() != piv.as_slice() {
        return Err(format!("seed {seed}: permutation differs"));
    }
    let det = (0..n).fold(sign, |d, i| d * packed[(i, i)]);
    if bits(&[lu.det()]) != bits(&[det]) {
        return Err(format!("seed {seed}: det differs"));
    }
    let mut s = Stream(seed ^ 0x5eed);
    let mut x = vec![f64::NAN; n];
    for _ in 0..3 {
        let b = rhs_case(&mut s, n);
        let want = bits(&reference_solve(&packed, &piv, &b));
        let got = lu.solve(&b).map_err(|e| format!("seed {seed}: {e}"))?;
        if bits(&got) != want {
            return Err(format!("seed {seed}: solve differs"));
        }
        lu.solve_into(&b, &mut x)
            .map_err(|e| format!("seed {seed}: {e}"))?;
        if bits(&x) != want {
            return Err(format!("seed {seed}: solve_into differs"));
        }
    }
    Ok(())
}

#[test]
fn lu_matches_the_indexed_kernel_bit_for_bit() {
    let (mut factored, mut singular) = (0, 0);
    for seed in 0..1500 {
        let a = lu_case(seed);
        match Lu::factor(&a) {
            Ok(lu) => {
                check_against_reference(&lu, &a, seed).unwrap_or_else(|e| panic!("{e}"));
                factored += 1;
            }
            Err(e) => {
                assert_eq!(e, NumericError::Singular, "seed {seed}");
                assert!(
                    reference_factor(&a).is_none(),
                    "seed {seed}: LU is singular, reference is not"
                );
                singular += 1;
            }
        }
    }
    // Both outcomes are exercised in earnest.
    assert!(factored > 700 && singular > 200, "{factored} / {singular}");
}

#[test]
fn lu_puts_signed_zeros_in_l_like_the_indexed_kernel() {
    // +0 and −0 under a negative pivot: the multipliers are −0 and +0.
    let a = Matrix::from_rows(&[&[-4.0, 1.0, 2.0], &[0.0, -3.0, 1.0], &[-0.0, 0.0, -2.0]])
        .expect("3x3");
    let lu = Lu::factor(&a).expect("non-singular");
    let l = lu.l();
    assert_eq!(l[(1, 0)].to_bits(), (-0.0f64).to_bits());
    assert_eq!(l[(2, 0)].to_bits(), 0.0f64.to_bits());
    check_against_reference(&lu, &a, 0).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn one_lu_workspace_serves_every_size_and_survives_failures() {
    let mut work = Lu::default();
    let mut x = Vec::new();
    for seed in 0..600 {
        let a = lu_case(seed);
        match (work.refactor(&a), Lu::factor(&a)) {
            (Ok(()), Ok(fresh)) => {
                check_against_reference(&work, &a, seed).unwrap_or_else(|e| panic!("{e}"));
                let b: Vec<f64> = (0..a.rows()).map(|i| i as f64 - 1.5).collect();
                x.resize(a.rows(), f64::NAN);
                work.solve_into(&b, &mut x).expect("sized");
                assert_eq!(bits(&x), bits(&fresh.solve(&b).expect("sized")));
            }
            (Err(e), Err(fresh)) => {
                assert_eq!(e, fresh, "seed {seed}");
                assert_eq!(e, NumericError::Singular, "seed {seed}");
            }
            (got, fresh) => panic!("seed {seed}: workspace {got:?}, fresh {fresh:?}"),
        }
    }
    // A failed or non-square refactor leaves no factorisation behind.
    let err = work.refactor(&Matrix::zeros(2, 3)).unwrap_err();
    assert!(matches!(err, NumericError::Dimension { .. }));
    assert_eq!(work.dim(), 0);
    assert!(matches!(
        work.solve_into(&[1.0], &mut [0.0]),
        Err(NumericError::Dimension { .. })
    ));
    // Wrong lengths are dimension errors, not panics.
    work.refactor(&Matrix::identity(3)).expect("identity");
    assert!(matches!(
        work.solve_into(&[1.0, 2.0], &mut [0.0; 3]),
        Err(NumericError::Dimension { .. })
    ));
    assert!(matches!(
        work.solve_into(&[1.0, 2.0, 3.0], &mut [0.0; 4]),
        Err(NumericError::Dimension { .. })
    ));
}
