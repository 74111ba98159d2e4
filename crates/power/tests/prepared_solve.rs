//! Property suite for the prepared PPU solver and the accounted
//! storage step.
//!
//! 1. **Bit-identity** — the prepared solver (the path the system
//!    simulator runs every tick) is bit-identical to the legacy
//!    `Multiplier::operating_point`, field by field. This is what keeps
//!    every campaign CSV byte-stable across the hot-path refactor.
//! 2. **Accounted step** — the storage step that reports its absorbed
//!    energy returns the unaccounted step's voltage bit for bit, and
//!    counts only the charge the capacitor accepts at the rail.

use ehsim_numeric::complex::Complex;
use ehsim_power::{Multiplier, PpuOperatingPoint};
use proptest::prelude::*;
use proptest::TestCaseError;

fn assert_bit_identical(a: &PpuOperatingPoint, b: &PpuOperatingPoint) -> Result<(), TestCaseError> {
    for (x, y, f) in [
        (a.p_store_w, b.p_store_w, "p_store_w"),
        (a.i_out_a, b.i_out_a, "i_out_a"),
        (a.v_in_amp, b.v_in_amp, "v_in_amp"),
        (a.p_in_w, b.p_in_w, "p_in_w"),
        (a.efficiency, b.efficiency, "efficiency"),
    ] {
        prop_assert!(x.to_bits() == y.to_bits(), "{}: {} vs {}", f, x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prepared_cold_solve_is_bit_identical_to_legacy(
        v_oc in 0.0f64..4.0,
        r_src in 100.0f64..50e3,
        x_src in -20e3f64..20e3,
        freq in 40.0f64..120.0,
        v_store in 0.0f64..6.0,
        stages in 1usize..9,
    ) {
        let m = Multiplier { stages, ..Multiplier::default() };
        let z = Complex::new(r_src, x_src);
        let legacy = m.operating_point(v_oc, z, freq, v_store).expect("legacy solve");
        let ppu = m.prepared().expect("valid multiplier");
        let cold = ppu.operating_point(v_oc, z, freq, v_store).expect("prepared solve");
        assert_bit_identical(&legacy, &cold)?;
        prop_assert_eq!(
            ppu.droop_resistance(freq).to_bits(),
            m.droop_resistance(freq).to_bits()
        );
    }
}

#[test]
fn accounted_step_matches_unaccounted_voltage_and_ledger() {
    use ehsim_power::Supercap;
    let sc = Supercap::default();
    // Away from the rail the accounted step returns the legacy voltage
    // bit-for-bit and the trapezoidal v_mid·i·dt energy.
    let (v, e) = sc.step_with_current_accounted(3.0, 1e-5, 2e-5, 0.1);
    assert_eq!(
        v.to_bits(),
        sc.step_with_current(3.0, 1e-5, 2e-5, 0.1).to_bits()
    );
    let v_mid = 3.0 + 0.5 * 1e-5 * 0.1 / sc.capacitance;
    assert_eq!(e.to_bits(), (v_mid * 1e-5 * 0.1).to_bits());
    // At the rail only the accepted charge counts: E(v_rated) − E(v).
    let sc_small = Supercap {
        capacitance: 1e-3,
        ..Supercap::default()
    };
    let v0 = sc_small.v_rated - 1e-4;
    let i = 1e-2; // would overshoot the rail by far
    let (v_clamped, e_clamped) = sc_small.step_with_current_accounted(v0, i, 0.0, 0.1);
    assert!(v_clamped <= sc_small.v_rated);
    let absorbed = sc_small.energy_j(sc_small.v_rated) - sc_small.energy_j(v0);
    assert!((e_clamped - absorbed).abs() < 1e-15);
    // The old separately clamped accounting would have claimed
    // v_rated·i·dt — three orders of magnitude more than was stored.
    assert!(e_clamped < 0.1 * (sc_small.v_rated * i * 0.1));
}
