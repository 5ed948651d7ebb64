//! CAMF — Clustered Adversarial Matrix Factorization [42].
//!
//! CAMF imputes structured missing values by (1) clustering the data
//! using spatial information as prior knowledge, (2) factorizing each
//! cluster's submatrix, and (3) refining the imputations adversarially
//! with a GAN-style discriminator that tries to tell imputed rows from
//! complete rows.
//!
//! This reimplementation keeps all three mechanisms: k-means clustering
//! on the spatial columns, per-cluster masked NMF, and a discriminator
//! whose input-gradient nudges the imputed cells (a direct-optimization
//! reading of the generator step — documented simplification, DESIGN.md
//! §4). Crucially, like the original, it uses spatial information only
//! for *grouping*, not for smoothness — the reason the paper finds it
//! weak on spatial data.

use crate::imputer::{check_shapes, Imputer, MeanImputer};
use smfl_core::SmflConfig;
use smfl_linalg::{Mask, Matrix, Result};
use smfl_nn::{Activation, Adam, Mlp};
use smfl_spatial::kmeans::{kmeans, KMeansConfig};

/// CAMF imputer.
#[derive(Debug, Clone)]
pub struct CamfImputer {
    /// Number of spatial clusters.
    pub clusters: usize,
    /// Per-cluster NMF rank.
    pub rank: usize,
    /// Number of leading spatial columns.
    pub spatial_cols: usize,
    /// Adversarial refinement epochs.
    pub adv_epochs: usize,
    /// Step size of the imputed-cell refinement.
    pub refine_lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CamfImputer {
    fn default() -> Self {
        CamfImputer {
            clusters: 4,
            rank: 3,
            spatial_cols: 2,
            adv_epochs: 30,
            refine_lr: 0.05,
            seed: 0,
        }
    }
}

impl Imputer for CamfImputer {
    fn name(&self) -> &'static str {
        "CAMF"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let (n, m) = x.shape();
        if omega.complement().count() == 0 {
            return Ok(x.clone());
        }
        // (1) cluster on spatial prior (mean-filled if SI has holes).
        let si = smfl_spatial::fill_missing_si(x, omega, self.spatial_cols.min(m));
        let k = self.clusters.min(n).max(1);
        let clustering = kmeans(&si, &KMeansConfig::new(k).with_seed(self.seed))?;

        // (2) per-cluster masked NMF.
        let mut out = MeanImputer.impute(x, omega)?; // fallback for tiny clusters
        for c in 0..k {
            let rows: Vec<usize> = clustering
                .labels
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l == c)
                .map(|(i, _)| i)
                .collect();
            let rank = self.rank.min(rows.len().min(m).saturating_sub(1)).max(1);
            if rows.len() <= rank {
                continue;
            }
            let sub_x = x.select_rows(&rows)?;
            let mut sub_omega = Mask::empty(rows.len(), m);
            for (r, &i) in rows.iter().enumerate() {
                for j in 0..m {
                    if omega.get(i, j) {
                        sub_omega.set(r, j, true);
                    }
                }
            }
            let cfg = SmflConfig::nmf(rank)
                .with_max_iter(120)
                .with_seed(self.seed.wrapping_add(c as u64));
            if let Ok(imputed) = smfl_core::impute(&sub_x, &sub_omega, &cfg) {
                for (r, &i) in rows.iter().enumerate() {
                    for j in 0..m {
                        if !omega.get(i, j) {
                            out.set(i, j, imputed.get(r, j).clamp(0.0, 1.0));
                        }
                    }
                }
            }
        }

        // (3) adversarial refinement: D distinguishes complete rows from
        // rows containing imputations; its input gradient pushes imputed
        // cells toward the data manifold.
        let complete: Vec<usize> = (0..n).filter(|&i| omega.row_is_full(i)).collect();
        let incomplete: Vec<usize> = (0..n).filter(|&i| !omega.row_is_full(i)).collect();
        if complete.len() >= 4 && !incomplete.is_empty() {
            let mut d = Mlp::new(
                &[m, m.max(4), 1],
                &[Activation::Relu, Activation::Sigmoid],
                self.seed.wrapping_add(100),
            );
            let mut d_opt = Adam::new(1e-3);
            for _ in 0..self.adv_epochs {
                // D step: real = complete rows (label 1), fake = imputed.
                let real = out.select_rows(&complete)?;
                let fake = out.select_rows(&incomplete)?;
                let train = stack(&real, &fake);
                let labels =
                    Matrix::from_fn(
                        train.rows(),
                        1,
                        |i, _| {
                            if i < real.rows() {
                                1.0
                            } else {
                                0.0
                            }
                        },
                    );
                let pred = d.forward(&train)?;
                let grad = pred.zip_map(&labels, |p, t| {
                    let p = p.clamp(1e-7, 1.0 - 1e-7);
                    ((p - t) / (p * (1.0 - p))) / train.rows() as f64
                })?;
                d.backward(&grad)?;
                d_opt.step(&mut d);

                // Generator-style step: move imputed cells to increase
                // D's belief the row is real (target label 1).
                let fake = out.select_rows(&incomplete)?;
                let pred = d.forward(&fake)?;
                let g_grad_out = pred.map(|p| {
                    let p = p.clamp(1e-7, 1.0 - 1e-7);
                    -1.0 / p / 1.0f64.max(incomplete.len() as f64)
                });
                let grad_in = d.backward(&g_grad_out)?;
                for (r, &i) in incomplete.iter().enumerate() {
                    for j in 0..m {
                        if !omega.get(i, j) {
                            let v = (out.get(i, j) - self.refine_lr * grad_in.get(r, j))
                                .clamp(0.0, 1.0);
                            out.set(i, j, v);
                        }
                    }
                }
            }
        }
        omega.blend(x, out)
    }
}

fn stack(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows() + b.rows(), a.cols(), |i, j| {
        if i < a.rows() {
            a.get(i, j)
        } else {
            b.get(i - a.rows(), j)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imputer::assert_contract;
    use smfl_linalg::random::uniform_matrix;

    fn quick() -> CamfImputer {
        CamfImputer {
            adv_epochs: 10,
            ..CamfImputer::default()
        }
    }

    #[test]
    fn contract_holds() {
        let x = uniform_matrix(40, 5, 0.0, 1.0, 1);
        let mut omega = Mask::full(40, 5);
        for i in (0..40).step_by(4) {
            omega.set(i, 3, false);
        }
        assert_contract(&quick(), &x, &omega);
    }

    #[test]
    fn output_in_unit_range() {
        let x = uniform_matrix(30, 4, 0.0, 1.0, 2);
        let mut omega = Mask::full(30, 4);
        for i in (0..30).step_by(3) {
            omega.set(i, 2, false);
        }
        let out = quick().impute(&x, &omega).unwrap();
        assert!(out.min().unwrap() >= 0.0 && out.max().unwrap() <= 1.0);
    }

    #[test]
    fn no_missing_short_circuits() {
        let x = uniform_matrix(15, 4, 0.0, 1.0, 3);
        let out = quick().impute(&x, &Mask::full(15, 4)).unwrap();
        assert!(out.approx_eq(&x, 0.0));
    }

    #[test]
    fn handles_tiny_clusters_gracefully() {
        // 5 rows, 4 requested clusters: some clusters get 1 row.
        let x = uniform_matrix(5, 4, 0.0, 1.0, 4);
        let mut omega = Mask::full(5, 4);
        omega.set(1, 3, false);
        let out = quick().impute(&x, &omega).unwrap();
        assert!(out.all_finite());
    }

    #[test]
    fn deterministic_per_seed() {
        let x = uniform_matrix(25, 4, 0.0, 1.0, 5);
        let mut omega = Mask::full(25, 4);
        omega.set(2, 3, false);
        omega.set(9, 2, false);
        let a = quick().impute(&x, &omega).unwrap();
        let b = quick().impute(&x, &omega).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }
}
