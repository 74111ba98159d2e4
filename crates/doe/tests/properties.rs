//! Property-based tests for the DoE machinery: exact recovery on
//! noiseless data, invariance properties of designs, consistency of
//! the inference statistics, and the bits of every model evaluation.

use ehsim_doe::design::box_behnken::box_behnken;
use ehsim_doe::design::ccd::CentralComposite;
use ehsim_doe::design::factorial::full_factorial_2k;
use ehsim_doe::design::lhs::latin_hypercube;
use ehsim_doe::fit::{fit, FittedModel};
use ehsim_doe::model::{ModelSpec, Term};
use ehsim_doe::optimize::{optimize_model, Goal};
use ehsim_doe::rsm::ResponseSurface;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quadratic_recovery_is_exact_on_ccd(
        coeffs in prop::collection::vec(-5.0f64..5.0, 6),
    ) {
        // Any quadratic in 2 factors is recovered exactly from a CCD.
        let d = CentralComposite::rotatable(2)
            .expect("builder")
            .with_center_points(2)
            .build()
            .expect("design");
        let truth = |x: &[f64]| {
            coeffs[0]
                + coeffs[1] * x[0]
                + coeffs[2] * x[1]
                + coeffs[3] * x[0] * x[1]
                + coeffs[4] * x[0] * x[0]
                + coeffs[5] * x[1] * x[1]
        };
        let y: Vec<f64> = d.points().iter().map(|p| truth(p)).collect();
        let m = fit(&ModelSpec::quadratic(2).expect("spec"), d.points(), &y)
            .expect("fit");
        for (got, want) in m.coefficients().iter().zip(coeffs.iter()) {
            prop_assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn prediction_interpolates_training_data_on_saturated_features(
        coeffs in prop::collection::vec(-3.0f64..3.0, 4),
    ) {
        // With a linear truth, any design that estimates the model gives
        // residuals of exactly zero.
        let d = full_factorial_2k(3).expect("design");
        let truth = |x: &[f64]| {
            coeffs[0] + coeffs[1] * x[0] + coeffs[2] * x[1] + coeffs[3] * x[2]
        };
        let y: Vec<f64> = d.points().iter().map(|p| truth(p)).collect();
        let m = fit(&ModelSpec::linear(3).expect("spec"), d.points(), &y).expect("fit");
        for (pt, &yi) in d.points().iter().zip(y.iter()) {
            prop_assert!((m.predict(pt) - yi).abs() < 1e-9);
        }
        prop_assert!(m.r_squared() > 1.0 - 1e-9 || m.tss() < 1e-12);
    }

    #[test]
    fn r_squared_is_monotone_in_model_size(
        seed_vals in prop::collection::vec(0.0f64..1.0, 16),
    ) {
        // Adding terms never decreases training R².
        let d = full_factorial_2k(3).expect("design").with_center_points(8);
        let y: Vec<f64> = seed_vals.iter().map(|v| 1.0 + 3.0 * v).collect();
        let lin = fit(&ModelSpec::linear(3).expect("spec"), d.points(), &y).expect("fit");
        let int = fit(
            &ModelSpec::with_interactions(3).expect("spec"),
            d.points(),
            &y,
        )
        .expect("fit");
        prop_assert!(int.r_squared() >= lin.r_squared() - 1e-12);
    }

    #[test]
    fn lhs_points_stay_in_box_and_stratify(
        n in 4usize..40,
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let d = latin_hypercube(k, n, seed).expect("design");
        prop_assert_eq!(d.n_runs(), n);
        for p in d.points() {
            prop_assert!(p.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
        // Stratification: each factor has one sample per stratum.
        for j in 0..k {
            let mut strata: Vec<usize> = d
                .points()
                .iter()
                .map(|p| ((((p[j] + 1.0) / 2.0) * n as f64).floor() as usize).min(n - 1))
                .collect();
            strata.sort_unstable();
            let expect: Vec<usize> = (0..n).collect();
            prop_assert_eq!(strata, expect);
        }
    }

    #[test]
    fn designs_are_balanced(k in 3usize..6) {
        for d in [
            full_factorial_2k(k).expect("factorial"),
            box_behnken(k.clamp(3, 7)).expect("bb"),
        ] {
            for j in 0..d.k() {
                let s: f64 = d.points().iter().map(|p| p[j]).sum();
                prop_assert!(s.abs() < 1e-12, "column {j} sum {s}");
            }
        }
    }

    #[test]
    fn optimum_of_concave_surface_is_its_stationary_point(
        cx in -0.6f64..0.6,
        cy in -0.6f64..0.6,
        curv_x in 0.5f64..3.0,
        curv_y in 0.5f64..3.0,
    ) {
        let d = CentralComposite::rotatable(2)
            .expect("builder")
            .with_center_points(2)
            .build()
            .expect("design");
        let truth = |x: &[f64]| {
            5.0 - curv_x * (x[0] - cx) * (x[0] - cx) - curv_y * (x[1] - cy) * (x[1] - cy)
        };
        let y: Vec<f64> = d.points().iter().map(|p| truth(p)).collect();
        let m = fit(&ModelSpec::quadratic(2).expect("spec"), d.points(), &y).expect("fit");
        let opt = optimize_model(&m, (-1.0, 1.0), Goal::Maximize, 1).expect("optimum");
        prop_assert!((opt.x[0] - cx).abs() < 1e-3, "{:?} vs ({cx},{cy})", opt.x);
        prop_assert!((opt.x[1] - cy).abs() < 1e-3);
        // Canonical analysis agrees.
        let rs = ResponseSurface::from_fitted(&m).expect("surface");
        let s = rs.stationary_point().expect("nonsingular");
        prop_assert!((s[0] - cx).abs() < 1e-6);
        prop_assert!((s[1] - cy).abs() < 1e-6);
        prop_assert_eq!(rs.kind(1e-9), ehsim_doe::rsm::StationaryKind::Maximum);
    }

    #[test]
    fn leverages_bounded_and_sum_to_p(
        n_center in 2usize..8,
    ) {
        let d = full_factorial_2k(2).expect("design").with_center_points(n_center);
        let y: Vec<f64> = (0..d.n_runs()).map(|i| (i as f64 * 0.7).sin()).collect();
        let m = fit(&ModelSpec::linear(2).expect("spec"), d.points(), &y).expect("fit");
        let sum: f64 = m.leverages().iter().sum();
        prop_assert!((sum - m.p() as f64).abs() < 1e-9);
        for &h in m.leverages() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&h), "leverage {h}");
        }
    }
}

/// A model row as one `powi` product per term, in term order: the
/// formula the monomial evaluator replaced, kept here as its oracle.
fn powi_row(spec: &ModelSpec, x: &[f64]) -> Vec<f64> {
    spec.terms()
        .iter()
        .map(|t| {
            t.powers()
                .iter()
                .zip(x.iter())
                .map(|(&p, &xi)| xi.powi(p as i32))
                .product()
        })
        .collect()
}

/// A prediction as `Iterator::sum` of row · coefficient over
/// [`powi_row`].
fn powi_predict(m: &FittedModel, x: &[f64]) -> f64 {
    let row = powi_row(m.spec(), x);
    row.iter()
        .zip(m.coefficients().iter())
        .map(|(a, b)| a * b)
        .sum()
}

/// Equal bits, or both NaN (a NaN's payload is not part of the
/// contract).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Coordinates where an evaluator that is not bit-identical to `powi`
/// would show it: signed zeros, subnormals, values whose squares
/// overflow, infinities and NaN.
const SPECIAL: [f64; 16] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    -1e-310,
    f64::MIN_POSITIVE,
    1.0,
    -1.0,
    -0.75,
    1e200,
    -1e200,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn model_evaluation_keeps_the_powi_bits(
        k in 1usize..7,
        n_terms in 1usize..10,
        exponents in prop::collection::vec(0u32..6, 9 * 6),
        train in prop::collection::vec(-1.0f64..1.0, 17 * 6),
        responses in prop::collection::vec(-10.0f64..10.0, 17),
        picks in prop::collection::vec(0usize..2 * SPECIAL.len(), 24 * 6),
        random in prop::collection::vec(-3.0f64..3.0, 24 * 6),
    ) {
        // Up to nine distinct terms over k factors, exponents 0..=5.
        let mut terms: Vec<Term> = Vec::new();
        for powers in exponents.chunks(6).take(n_terms) {
            let t = Term::new(powers[..k].iter().map(|&p| p as u8).collect());
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        let spec = ModelSpec::new(k, terms).expect("distinct terms of arity k");
        let n = spec.n_terms() + 8;
        let points: Vec<Vec<f64>> = train.chunks(6).take(n).map(|c| c[..k].to_vec()).collect();
        let model = fit(&spec, &points, &responses[..n]);
        prop_assume!(model.is_ok());
        let model = model.expect("checked above");
        // Half the coordinates are special values, half are random.
        for (picks, random) in picks.chunks(6).zip(random.chunks(6)) {
            let x: Vec<f64> = picks[..k]
                .iter()
                .zip(&random[..k])
                .map(|(&i, &r)| SPECIAL.get(i).copied().unwrap_or(r))
                .collect();
            let want = powi_row(&spec, &x);
            for (t, &w) in spec.terms().iter().zip(&want) {
                let got = t.eval(&x);
                prop_assert!(same_bits(got, w), "{t} at {x:?}: {got:e} vs {w:e}");
            }
            let row = spec.expand_point(&x);
            prop_assert_eq!(row.len(), want.len());
            for (j, (&got, &w)) in row.iter().zip(&want).enumerate() {
                prop_assert!(same_bits(got, w), "column {j} at {x:?}: {got:e} vs {w:e}");
            }
            let got = model.predict(&x);
            let w = powi_predict(&model, &x);
            prop_assert!(same_bits(got, w), "{spec} at {x:?}: {got:e} vs {w:e}");
        }
    }
}

#[test]
fn prediction_sums_from_negative_zero() {
    // A zero response on this face-centred CCD fits every coefficient
    // to -0.0. Where every monomial is positive each product is -0.0,
    // and only a sum that starts at -0.0 (as `Iterator::sum` does)
    // keeps that sign.
    let d = CentralComposite::face_centered(2)
        .expect("builder")
        .with_center_points(3)
        .build()
        .expect("design");
    let spec = ModelSpec::with_interactions(2).expect("spec");
    let m = fit(&spec, d.points(), &vec![0.0; d.n_runs()]).expect("fit");
    assert!(
        m.coefficients()
            .iter()
            .all(|c| c.to_bits() == (-0.0f64).to_bits()),
        "{:?}",
        m.coefficients()
    );
    let positive = [0.5, 0.25];
    assert_eq!(m.predict(&positive).to_bits(), (-0.0f64).to_bits());
    for x in [
        positive,
        [-0.5, 0.25],
        [0.0, -0.0],
        [-0.0, -0.0],
        [1e-310, 2.0],
    ] {
        let (got, want) = (m.predict(&x), powi_predict(&m, &x));
        assert!(same_bits(got, want), "{x:?}: {got:e} vs {want:e}");
    }
}

#[test]
fn quadratic_grid_sweep_is_pinned() {
    // A 4-factor quadratic fitted to a non-quadratic response, predicted
    // on the 32^4 coded grid in the order of the benchmark's RSM sweep.
    // The sum's bits were recorded with the `powi` evaluator.
    let d = CentralComposite::face_centered(4)
        .expect("builder")
        .with_center_points(3)
        .build()
        .expect("design");
    let y: Vec<f64> = d
        .points()
        .iter()
        .map(|x| {
            2.0 + 0.8 * x[0] - 0.3 * x[1] + 0.45 * x[0] * x[2] - 0.6 * x[3] * x[3]
                + 0.2 * x[1] * x[1] * x[1]
                - 0.15 * x[0] * x[1] * x[3]
                + 0.05 * x[2] * x[2] * x[2] * x[2]
        })
        .collect();
    let m = fit(&ModelSpec::quadratic(4).expect("spec"), d.points(), &y).expect("fit");
    let grid = 32;
    let step = 2.0 / (grid - 1) as f64;
    let axis: Vec<f64> = (0..grid).map(|i| -1.0 + step * i as f64).collect();
    let mut acc = 0.0;
    for &a in &axis {
        for &b in &axis {
            for &c in &axis {
                for &e in &axis {
                    acc += m.predict(&[a, b, c, e]);
                }
            }
        }
    }
    assert_eq!(acc.to_bits(), 0x413c_e09e_8e09_e908, "sweep sum {acc:e}");
}
