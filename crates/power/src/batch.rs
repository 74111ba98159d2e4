//! Lock-step batched PPU fixed-point solves.
//!
//! The scalar [`PreparedPpu`] solve is a damped fixed-point iteration
//! whose per-iteration arithmetic (a handful of multiplies, ~3 divides
//! and a complex magnitude) forms one long serial dependency chain —
//! the solve is *latency*-bound, not throughput-bound. When many
//! independent simulations step together (the batched SoA tick kernel
//! in `ehsim-node`), iterating **all unconverged lanes once per round**
//! fills the pipeline with independent chains and converts the solve to
//! throughput-bound, which is where the batched kernel's campaign
//! speed-up comes from.
//!
//! # Bit-exactness contract
//!
//! Each lane executes *exactly* the float-operation sequence of
//! [`PreparedPpu::operating_point`]: the same start point, the same
//! per-iteration body, the same damping and the same exit tests,
//! merely interleaved with other lanes between rounds. Lanes
//! never exchange data, so every lane's result is bit-identical to the
//! scalar solve by construction — asserted by the property suite below
//! and by the `ehsim-node` batch-equivalence suite on whole runs.

use crate::{PpuOperatingPoint, PreparedPpu};
use ehsim_numeric::complex::Complex;

const MAX_ITERS: usize = 60;

/// Reusable lock-step solver: scratch state for `W` lanes, reused
/// across calls (a per-tick caller pays no per-call allocation once the
/// vectors have grown to the batch width).
#[derive(Debug, Default)]
pub struct BatchPpuSolver {
    v_pk: Vec<f64>,
    r_droop: Vec<f64>,
    /// Lanes still iterating, in lane order — compacted as lanes
    /// converge so late rounds touch only the stragglers instead of
    /// scanning the whole width.
    iterating: Vec<u32>,
}

impl BatchPpuSolver {
    /// An empty solver; scratch buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves every lane `i` with `active[i]` in lock-step.
    ///
    /// Inputs are parallel slices of one logical lane array: per-lane
    /// solver constants (`ppus`), Thevenin drive (`v_oc`, `z_src`,
    /// `freq_hz`) and storage voltage (`v_store`).
    ///
    /// On return, for every active lane, `ok[i]` says whether the
    /// lane's inputs passed the scalar solve's validation; if so
    /// `out[i]` holds its operating point, bit-identical to the scalar
    /// solve of the same inputs. Inactive lanes are left untouched.
    /// Callers wanting the scalar path's error message for an `!ok[i]`
    /// lane can re-run [`PreparedPpu::operating_point`] on that lane.
    ///
    /// # Panics
    ///
    /// If the input slices are not all of the same length.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        ppus: &[PreparedPpu],
        v_oc: &[f64],
        z_src: &[Complex],
        freq_hz: &[f64],
        v_store: &[f64],
        active: &[bool],
        out: &mut [PpuOperatingPoint],
        ok: &mut [bool],
    ) {
        let w = ppus.len();
        assert!(
            [
                v_oc.len(),
                z_src.len(),
                freq_hz.len(),
                v_store.len(),
                active.len(),
                out.len(),
                ok.len(),
            ]
            .iter()
            .all(|&l| l == w),
            "batched solve lane arrays must share one width"
        );
        self.v_pk.resize(w, 0.0);
        self.r_droop.resize(w, 0.0);
        self.iterating.clear();

        // Pre-phase: validation, droop resistance and dead zone — the
        // straight-line prefix of the scalar solve.
        for i in 0..w {
            if !active[i] {
                continue;
            }
            // Mirror of the scalar validation (including finiteness).
            if !(freq_hz[i] > 0.0 && freq_hz[i].is_finite())
                || !(v_oc[i] >= 0.0 && v_oc[i].is_finite())
                || !(v_store[i] >= 0.0 && v_store[i].is_finite())
            {
                ok[i] = false;
                continue;
            }
            ok[i] = true;
            self.r_droop[i] = ppus[i].droop_resistance(freq_hz[i]);
            if v_oc[i] <= ppus[i].v_d {
                // Dead zone: the idle point is the answer. Iterating
                // lanes skip this store — every retirement path below
                // writes `out[i]` itself.
                out[i] = PpuOperatingPoint {
                    p_store_w: 0.0,
                    i_out_a: 0.0,
                    v_in_amp: v_oc[i],
                    p_in_w: 0.0,
                    efficiency: 0.0,
                };
                continue;
            }
            self.v_pk[i] = v_oc[i];
            self.iterating.push(i as u32);
        }

        // Lock-step rounds: round r runs iteration r of the scalar
        // fixed point for every lane still iterating, and converged
        // lanes are compacted out so late rounds cost only the
        // stragglers. The per-lane body below is a verbatim
        // transcription of `PreparedPpu::solve`; `retain` keeps lane
        // order, so each lane sees exactly the scalar float sequence.
        // One deviation that cannot change bits: the scalar solve
        // overwrites its (register-resident) operating point every
        // iteration, while here `out[i]` is a memory store — so it is
        // written once, on the iteration the lane retires; a lane that
        // exhausts the rounds without converging replays the scalar
        // solve below to recover its last-iteration point.
        let BatchPpuSolver {
            v_pk: v_pks,
            r_droop: r_droops,
            iterating,
        } = self;
        for _ in 0..MAX_ITERS {
            if iterating.is_empty() {
                break;
            }
            iterating.retain(|&iu| {
                let i = iu as usize;
                let n2 = ppus[i].n2;
                let v_d = ppus[i].v_d;
                let r_droop = r_droops[i];
                let v_pk = v_pks[i];
                let v_out_oc = n2 * (v_pk - v_d).max(0.0);
                let i_out = ((v_out_oc - v_store[i]) / r_droop).max(0.0);
                if i_out <= 0.0 {
                    let v_next = v_oc[i];
                    if (v_next - v_pk).abs() < 1e-12 {
                        out[i] = PpuOperatingPoint {
                            p_store_w: 0.0,
                            i_out_a: 0.0,
                            v_in_amp: v_pk,
                            p_in_w: 0.0,
                            efficiency: 0.0,
                        };
                        return false;
                    }
                    v_pks[i] = 0.5 * (v_pk + v_next);
                    return true;
                }
                let p_store = v_store[i] * i_out;
                let p_diode = n2 * v_d * i_out;
                let p_droop = i_out * i_out * r_droop;
                let p_in = p_store + p_diode + p_droop;
                let r_eq = if p_in > 0.0 {
                    (v_pk * v_pk / (2.0 * p_in)).max(1e-3)
                } else {
                    f64::INFINITY
                };
                let v_next = v_oc[i] * r_eq / (z_src[i] + Complex::real(r_eq)).abs();
                if (v_next - v_pk).abs() < 1e-9 * v_pk.max(1e-9) {
                    out[i] = PpuOperatingPoint {
                        p_store_w: p_store,
                        i_out_a: i_out,
                        v_in_amp: v_pk,
                        p_in_w: p_in,
                        efficiency: if p_in > 0.0 { p_store / p_in } else { 0.0 },
                    };
                    return false;
                }
                v_pks[i] = 0.5 * (v_pk + v_next);
                true
            });
        }

        // Rare straggler path: lanes that never met the convergence test
        // within the round budget. The scalar solve replays the
        // identical iteration sequence, so its (equally
        // unconverged) final operating point is bit-identical to what
        // the per-iteration stores used to produce. The pre-phase
        // validated these inputs, so the scalar solve accepts them; were
        // it to refuse, the lane is flagged like any other failure.
        for &iu in iterating.iter() {
            let i = iu as usize;
            match ppus[i].operating_point(v_oc[i], z_src[i], freq_hz[i], v_store[i]) {
                Ok(op) => out[i] = op,
                Err(_) => ok[i] = false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Multiplier;

    fn op_bits(op: &PpuOperatingPoint) -> [u64; 5] {
        [
            op.p_store_w.to_bits(),
            op.i_out_a.to_bits(),
            op.v_in_amp.to_bits(),
            op.p_in_w.to_bits(),
            op.efficiency.to_bits(),
        ]
    }

    /// Drives the batch solver over a grid of heterogeneous lanes and
    /// asserts bit-identity against the scalar solve.
    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        let ppus: Vec<PreparedPpu> = (1..=8)
            .map(|stages| {
                Multiplier {
                    stages,
                    ..Multiplier::default()
                }
                .prepared()
                .unwrap()
            })
            .collect();
        let w = ppus.len();
        // Deterministic but varied drive conditions, including the dead
        // zone (lane 0) and the unloaded ceiling (lane 7).
        let v_oc: Vec<f64> = (0..w).map(|i| 0.2 + 0.45 * i as f64).collect();
        let z_src: Vec<Complex> = (0..w)
            .map(|i| Complex::new(500.0 + 700.0 * i as f64, 100.0 * i as f64))
            .collect();
        let freq: Vec<f64> = (0..w).map(|i| 45.0 + 7.0 * i as f64).collect();
        let v_store: Vec<f64> = (0..w)
            .map(|i| if i == 7 { 40.0 } else { 0.5 * i as f64 })
            .collect();
        let active = vec![true; w];
        let mut out = vec![
            PpuOperatingPoint {
                p_store_w: -1.0,
                i_out_a: -1.0,
                v_in_amp: -1.0,
                p_in_w: -1.0,
                efficiency: -1.0,
            };
            w
        ];
        let mut ok = vec![false; w];
        let mut solver = BatchPpuSolver::new();

        solver.solve(
            &ppus, &v_oc, &z_src, &freq, &v_store, &active, &mut out, &mut ok,
        );
        for i in 0..w {
            assert!(ok[i], "lane {i}");
            let scalar = ppus[i]
                .operating_point(v_oc[i], z_src[i], freq[i], v_store[i])
                .unwrap();
            assert_eq!(op_bits(&out[i]), op_bits(&scalar), "lane {i}");
        }
    }

    #[test]
    fn invalid_and_inactive_lanes() {
        let ppu = Multiplier::default().prepared().unwrap();
        let ppus = vec![ppu; 3];
        let v_oc = vec![1.5, f64::INFINITY, 1.5];
        let z_src = vec![Complex::real(2e3); 3];
        let freq = vec![60.0; 3];
        let v_store = vec![1.0; 3];
        let active = vec![true, true, false];
        let sentinel = PpuOperatingPoint {
            p_store_w: -7.0,
            i_out_a: -7.0,
            v_in_amp: -7.0,
            p_in_w: -7.0,
            efficiency: -7.0,
        };
        let mut out = vec![sentinel; 3];
        let mut ok = vec![true; 3];
        BatchPpuSolver::new().solve(
            &ppus, &v_oc, &z_src, &freq, &v_store, &active, &mut out, &mut ok,
        );
        assert!(ok[0]);
        assert!(!ok[1], "infinite v_oc must fail validation");
        assert!(
            ppu.operating_point(v_oc[1], z_src[1], freq[1], v_store[1])
                .is_err(),
            "scalar path agrees the lane is invalid"
        );
        // The inactive lane is untouched.
        assert_eq!(op_bits(&out[2]), op_bits(&sentinel));
    }
}
