//! Adapters exposing the `smfl-core` model family (NMF / SMF / SMFL)
//! through the [`Imputer`] interface, so the experiment harness can
//! treat every method of Tables IV–VI uniformly.

use crate::imputer::{check_shapes, Imputer};
use smfl_core::{SmflConfig, Variant};
use smfl_linalg::{Mask, Matrix, Result};

/// An [`Imputer`] backed by a [`SmflConfig`] fit.
#[derive(Debug, Clone)]
pub struct MfImputer {
    /// The full model configuration.
    pub config: SmflConfig,
}

impl MfImputer {
    /// Plain NMF imputer (the `NMF` column of the tables).
    pub fn nmf(rank: usize) -> MfImputer {
        MfImputer {
            config: SmflConfig::nmf(rank),
        }
    }

    /// SMF imputer (spatial regularization, no landmarks).
    pub fn smf(rank: usize, spatial_cols: usize) -> MfImputer {
        MfImputer {
            config: SmflConfig::smf(rank, spatial_cols),
        }
    }

    /// SMFL imputer (the paper's method).
    pub fn smfl(rank: usize, spatial_cols: usize) -> MfImputer {
        MfImputer {
            config: SmflConfig::smfl(rank, spatial_cols),
        }
    }

    /// Overrides the iteration budget (handy for benches).
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.config = self.config.with_max_iter(max_iter);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config = self.config.with_seed(seed);
        self
    }
}

impl Imputer for MfImputer {
    fn name(&self) -> &'static str {
        match self.config.variant {
            Variant::Nmf => "NMF",
            Variant::Smf => "SMF",
            Variant::Smfl => "SMFL",
        }
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        smfl_core::impute(x, omega, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imputer::assert_contract;
    use smfl_linalg::ops::matmul;
    use smfl_linalg::random::positive_uniform_matrix;

    fn problem() -> (Matrix, Mask) {
        let u = positive_uniform_matrix(40, 3, 1);
        let v = positive_uniform_matrix(3, 6, 2);
        let x = matmul(&u, &v).unwrap().scale(1.0 / 3.0);
        let mut omega = Mask::full(40, 6);
        for i in (0..40).step_by(4) {
            omega.set(i, 4, false);
        }
        (x, omega)
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(MfImputer::nmf(3).name(), "NMF");
        assert_eq!(MfImputer::smf(3, 2).name(), "SMF");
        assert_eq!(MfImputer::smfl(3, 2).name(), "SMFL");
    }

    #[test]
    fn all_variants_honor_contract() {
        let (x, omega) = problem();
        assert_contract(&MfImputer::nmf(3).with_max_iter(40), &x, &omega);
        assert_contract(&MfImputer::smf(3, 2).with_max_iter(40), &x, &omega);
        assert_contract(&MfImputer::smfl(3, 2).with_max_iter(40), &x, &omega);
    }

    #[test]
    fn smfl_beats_nmf_on_spatial_data() {
        // Noisy, *not* low-rank spatial fields: each attribute is an
        // independent nonlinear function of location plus noise, so plain
        // NMF can only overfit the observed cells, while SMF/SMFL
        // generalize through spatial smoothness — the paper's headline
        // ordering (Tables IV/VII).
        let n = 120;
        let si = smfl_linalg::random::uniform_matrix(n, 2, 0.0, 1.0, 3);
        let noise = smfl_linalg::random::normal_matrix(n, 4, 0.0, 0.02, 4);
        let x = Matrix::from_fn(n, 6, |i, j| {
            let (a, b) = (si.get(i, 0), si.get(i, 1));
            match j {
                0 | 1 => si.get(i, j),
                2 => (0.5 + 0.4 * (4.0 * a + b).sin() * (3.0 * b).cos() + noise.get(i, 0))
                    .clamp(0.0, 1.0),
                3 => (0.5
                    + 0.35 * ((a - 0.3).powi(2) + (b - 0.7).powi(2)).sqrt().sin()
                    + noise.get(i, 1))
                .clamp(0.0, 1.0),
                4 => (0.4 + 0.3 * (6.0 * b).sin() + 0.2 * a + noise.get(i, 2)).clamp(0.0, 1.0),
                _ => (0.6 - 0.4 * (5.0 * a).cos() * b + noise.get(i, 3)).clamp(0.0, 1.0),
            }
        });
        let mut omega = Mask::full(n, 6);
        for i in 0..n {
            if i % 3 != 0 {
                omega.set(i, 2 + (i % 4), false); // ~33% of rows lose a cell
            }
        }
        let psi = omega.complement();
        let rms = |imp: &dyn Imputer| {
            let out = imp.impute(&x, &omega).unwrap();
            let mut e = 0.0;
            let mut c = 0;
            for (i, j) in psi.iter_set() {
                e += (out.get(i, j) - x.get(i, j)).powi(2);
                c += 1;
            }
            (e / c as f64).sqrt()
        };
        let nmf = rms(&MfImputer::nmf(5).with_max_iter(300));
        let smfl = rms(&MfImputer::smfl(5, 2).with_max_iter(300));
        assert!(
            smfl < nmf,
            "SMFL ({smfl}) should beat NMF ({nmf}) on spatial data"
        );
    }
}
