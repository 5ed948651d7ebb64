//! Clustering-with-missing-values baselines for the paper's §IV-B4
//! experiment (Fig. 4b): impute first, then cluster.
//!
//! - **PCA** [44]: mean-impute, project onto the top-K principal
//!   components (via the thin SVD), k-means in PC space.
//! - **MF-based** (NMF / SMF / SMFL): fit the factorization on the
//!   observed cells; the coefficient matrix `U` weights each tuple's
//!   membership per latent feature, so `argmax_k u_ik` is the cluster
//!   assignment (the paper's reading of `U` in §I).

use crate::imputer::{Imputer, MeanImputer};
use smfl_core::SmflConfig;
use smfl_linalg::{thin_svd, Mask, Matrix, Result};
use smfl_spatial::kmeans::{kmeans, KMeansConfig};

/// A clustering algorithm tolerant of missing values.
pub trait Clusterer {
    /// Method name as in Fig. 4(b).
    fn name(&self) -> &'static str;

    /// Assigns each row one of `k` cluster labels.
    fn cluster(&self, x: &Matrix, omega: &Mask, k: usize) -> Result<Vec<usize>>;
}

/// PCA + k-means after mean imputation.
#[derive(Debug, Clone, Default)]
pub struct PcaKMeans {
    /// Seed for k-means.
    pub seed: u64,
}

impl Clusterer for PcaKMeans {
    fn name(&self) -> &'static str {
        "PCA"
    }

    fn cluster(&self, x: &Matrix, omega: &Mask, k: usize) -> Result<Vec<usize>> {
        let filled = MeanImputer.impute(x, omega)?;
        // Centre columns, project onto top-k right singular vectors.
        let means: Vec<f64> = (0..filled.cols())
            .map(|j| filled.col(j).iter().sum::<f64>() / filled.rows() as f64)
            .collect();
        let centred = Matrix::from_fn(filled.rows(), filled.cols(), |i, j| {
            filled.get(i, j) - means[j]
        });
        let svd = thin_svd(&centred)?;
        let comps = k.min(svd.v.cols());
        let vk = svd.v.columns(0, comps)?;
        let projected = smfl_linalg::ops::matmul(&centred, &vk)?;
        let result = kmeans(&projected, &KMeansConfig::new(k).with_seed(self.seed))?;
        Ok(result.labels)
    }
}

/// How an [`MfClusterer`] turns a factorization into cluster labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MfClusterStrategy {
    /// Impute the missing cells with the factorization, then k-means on
    /// the completed matrix — the paper's §I application reading
    /// ("first impute the missing values and then perform clustering",
    /// citing [37]). Default.
    ImputeThenKMeans,
    /// k-means over L1-normalized rows of the coefficient matrix `U`
    /// (each row is a cluster-membership profile, the paper's other
    /// reading of `U`).
    CoefficientProfiles,
}

/// Matrix-factorization clusterer.
#[derive(Debug, Clone)]
pub struct MfClusterer {
    /// The underlying factorization configuration; its `rank` is
    /// overridden by the requested cluster count.
    pub config: SmflConfig,
    /// Method label.
    pub label: &'static str,
    /// Labeling strategy.
    pub strategy: MfClusterStrategy,
}

impl MfClusterer {
    /// NMF clusterer.
    pub fn nmf() -> MfClusterer {
        MfClusterer {
            config: SmflConfig::nmf(2),
            label: "NMF",
            strategy: MfClusterStrategy::ImputeThenKMeans,
        }
    }

    /// SMF clusterer.
    pub fn smf(spatial_cols: usize) -> MfClusterer {
        MfClusterer {
            config: SmflConfig::smf(2, spatial_cols),
            label: "SMF",
            strategy: MfClusterStrategy::ImputeThenKMeans,
        }
    }

    /// SMFL clusterer — landmarks double as cluster anchors.
    pub fn smfl(spatial_cols: usize) -> MfClusterer {
        MfClusterer {
            config: SmflConfig::smfl(2, spatial_cols),
            label: "SMFL",
            strategy: MfClusterStrategy::ImputeThenKMeans,
        }
    }

    /// Switches the labeling strategy.
    pub fn with_strategy(mut self, strategy: MfClusterStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

impl Clusterer for MfClusterer {
    fn name(&self) -> &'static str {
        self.label
    }

    fn cluster(&self, x: &Matrix, omega: &Mask, k: usize) -> Result<Vec<usize>> {
        let mut config = self.config.clone();
        config.rank = k;
        let model = smfl_core::fit(x, omega, &config)?;
        match self.strategy {
            MfClusterStrategy::ImputeThenKMeans => {
                let completed = model.impute(x, omega)?;
                let result = kmeans(
                    &completed,
                    &KMeansConfig::new(k).with_seed(self.config.seed),
                )?;
                Ok(result.labels)
            }
            MfClusterStrategy::CoefficientProfiles => {
                let u = &model.u;
                let profiles = Matrix::from_fn(u.rows(), u.cols(), |i, j| {
                    let s: f64 = u.row(i).iter().sum();
                    if s > 1e-12 {
                        u.get(i, j) / s
                    } else {
                        1.0 / u.cols() as f64
                    }
                });
                let result = kmeans(&profiles, &KMeansConfig::new(k).with_seed(self.config.seed))?;
                Ok(result.labels)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_eval::clustering_accuracy;
    use smfl_linalg::random::normal_matrix;

    /// Three spatial blobs whose attributes depend on the blob.
    fn blob_problem() -> (Matrix, Mask, Vec<usize>) {
        let centers = [(0.2, 0.2, 0.1), (0.8, 0.2, 0.5), (0.5, 0.85, 0.9)];
        let per = 25;
        let noise = normal_matrix(per * 3, 3, 0.0, 0.03, 1);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (c, &(cx, cy, attr)) in centers.iter().enumerate() {
            for i in 0..per {
                let r = c * per + i;
                rows.push(vec![
                    (cx + noise.get(r, 0)).clamp(0.0, 1.0),
                    (cy + noise.get(r, 1)).clamp(0.0, 1.0),
                    (attr + noise.get(r, 2)).clamp(0.0, 1.0),
                    (attr * 0.8 + 0.1 + noise.get(r, 2)).clamp(0.0, 1.0),
                ]);
                truth.push(c);
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut omega = Mask::full(per * 3, 4);
        for i in (0..per * 3).step_by(6) {
            omega.set(i, 2, false);
        }
        (x, omega, truth)
    }

    #[test]
    fn pca_clusters_blobs_reasonably() {
        let (x, omega, truth) = blob_problem();
        let labels = PcaKMeans::default().cluster(&x, &omega, 3).unwrap();
        let acc = clustering_accuracy(&truth, &labels);
        assert!(acc > 0.7, "PCA accuracy {acc}");
    }

    #[test]
    fn smfl_clusterer_beats_or_matches_pca_on_spatial_blobs() {
        let (x, omega, truth) = blob_problem();
        let pca = clustering_accuracy(
            &truth,
            &PcaKMeans::default().cluster(&x, &omega, 3).unwrap(),
        );
        let smfl = clustering_accuracy(
            &truth,
            &MfClusterer::smfl(2).cluster(&x, &omega, 3).unwrap(),
        );
        assert!(
            smfl >= pca - 0.05,
            "SMFL clustering ({smfl}) should not trail PCA ({pca}) badly"
        );
    }

    #[test]
    fn labels_are_in_range_for_all_methods() {
        let (x, omega, _) = blob_problem();
        for c in [
            Box::new(PcaKMeans::default()) as Box<dyn Clusterer>,
            Box::new(MfClusterer::nmf()),
            Box::new(MfClusterer::smf(2)),
            Box::new(MfClusterer::smfl(2)),
            Box::new(MfClusterer::smfl(2).with_strategy(MfClusterStrategy::CoefficientProfiles)),
        ] {
            let labels = c.cluster(&x, &omega, 3).unwrap();
            assert_eq!(labels.len(), x.rows(), "{}", c.name());
            assert!(labels.iter().all(|&l| l < 3), "{}", c.name());
        }
    }

    #[test]
    fn both_strategies_give_usable_partitions() {
        let (x, omega, truth) = blob_problem();
        for strategy in [
            MfClusterStrategy::ImputeThenKMeans,
            MfClusterStrategy::CoefficientProfiles,
        ] {
            let labels = MfClusterer::smfl(2)
                .with_strategy(strategy)
                .cluster(&x, &omega, 3)
                .unwrap();
            let acc = clustering_accuracy(&truth, &labels);
            assert!(acc > 0.5, "{strategy:?} accuracy {acc}");
        }
    }

    #[test]
    fn names_match_figure() {
        assert_eq!(PcaKMeans::default().name(), "PCA");
        assert_eq!(MfClusterer::nmf().name(), "NMF");
        assert_eq!(MfClusterer::smf(2).name(), "SMF");
        assert_eq!(MfClusterer::smfl(2).name(), "SMFL");
    }
}
