//! Landmark generation and injection (paper §III-A).
//!
//! Landmarks are the k-means centres `C ∈ R^{K x L}` of the spatial
//! information `SI`, injected into the first `L` columns of the feature
//! matrix `V` (Formula 9) and *frozen*: the landmark entry set
//! `Φ = {(k, j) | k < K, j < L}` receives zero gradient, so those
//! entries never move during the fit. Because `Φ` covers the entire
//! first `L` columns, the updater can simply skip those columns — which
//! is exactly where SMFL's efficiency edge over SMF comes from
//! (paper §IV-E).

use smfl_linalg::{LinalgError, Matrix, Result};
use smfl_spatial::kmeans::{kmeans, KMeansConfig};

/// The landmark matrix `C` plus the geometry of the frozen region `Φ`.
#[derive(Debug, Clone)]
pub struct Landmarks {
    /// Cluster centres, `K x L`.
    pub centers: Matrix,
}

impl Landmarks {
    /// Computes landmarks by running k-means with `K' = K` clusters on
    /// the spatial information (paper: "setting the number of cluster K'
    /// in K-means equal to K of the NMF problem").
    pub fn compute(si: &Matrix, k: usize, max_iter: usize, seed: u64) -> Result<Landmarks> {
        if si.cols() == 0 {
            return Err(LinalgError::Empty);
        }
        let result = kmeans(
            si,
            &KMeansConfig::new(k).with_max_iter(max_iter).with_seed(seed),
        )?;
        if result.centers.rows() < k {
            // k-means clamps K to N; SMFL requires exactly K landmark rows
            // to fill V's first L columns.
            return Err(LinalgError::BadLength {
                expected: k,
                actual: result.centers.rows(),
            });
        }
        Ok(Landmarks {
            centers: result.centers,
        })
    }

    /// Constructs landmarks from an explicit centre matrix (used by the
    /// interpretability experiments that place hand-curated landmarks).
    pub fn from_centers(centers: Matrix) -> Landmarks {
        Landmarks { centers }
    }

    /// Number of landmarks `K`.
    pub fn k(&self) -> usize {
        self.centers.rows()
    }

    /// Number of spatial columns `L`.
    pub fn spatial_cols(&self) -> usize {
        self.centers.cols()
    }

    /// Injects `C` into the first `L` columns of `v` (Formula 9:
    /// `v_ij = c_ij` for `(i, j) ∈ Φ`).
    ///
    /// # Errors
    /// Shape mismatch when `v` has fewer rows than `K` or fewer columns
    /// than `L`.
    pub fn inject(&self, v: &mut Matrix) -> Result<()> {
        let (k, l) = self.centers.shape();
        if v.rows() < k || v.cols() < l {
            return Err(LinalgError::DimensionMismatch {
                left: v.shape(),
                right: (k, l),
                op: "landmark_inject",
            });
        }
        for i in 0..k {
            for j in 0..l {
                v.set(i, j, self.centers.get(i, j));
            }
        }
        Ok(())
    }

    /// Verifies `v` still carries the landmark values exactly — the
    /// invariant the convergence tests assert after every fit.
    pub fn verify_injected(&self, v: &Matrix) -> bool {
        let (k, l) = self.centers.shape();
        if v.rows() < k || v.cols() < l {
            return false;
        }
        for i in 0..k {
            for j in 0..l {
                if v.get(i, j) != self.centers.get(i, j) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::uniform_matrix;

    #[test]
    fn compute_yields_k_by_l() {
        let si = uniform_matrix(60, 2, 0.0, 1.0, 1);
        let lm = Landmarks::compute(&si, 5, 300, 0).unwrap();
        assert_eq!(lm.centers.shape(), (5, 2));
        assert_eq!(lm.k(), 5);
        assert_eq!(lm.spatial_cols(), 2);
    }

    #[test]
    fn centers_lie_in_data_bounding_box() {
        // The core interpretability claim: landmarks are geographically
        // close to observations — at minimum inside their bounding box.
        let si = uniform_matrix(100, 2, 10.0, 20.0, 2);
        let lm = Landmarks::compute(&si, 6, 300, 3).unwrap();
        assert!(lm.centers.min().unwrap() >= 10.0);
        assert!(lm.centers.max().unwrap() <= 20.0);
    }

    #[test]
    fn compute_rejects_k_above_n() {
        let si = uniform_matrix(3, 2, 0.0, 1.0, 1);
        assert!(Landmarks::compute(&si, 10, 300, 0).is_err());
    }

    #[test]
    fn compute_rejects_zero_width_si() {
        let si = Matrix::zeros(10, 0);
        assert!(Landmarks::compute(&si, 2, 300, 0).is_err());
    }

    #[test]
    fn inject_writes_exactly_phi() {
        let lm = Landmarks::from_centers(Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]).unwrap());
        let mut v = Matrix::filled(2, 4, 9.0);
        lm.inject(&mut v).unwrap();
        assert_eq!(v.get(0, 0), 0.1);
        assert_eq!(v.get(1, 1), 0.4);
        assert_eq!(v.get(0, 2), 9.0); // outside Φ untouched
        assert!(lm.verify_injected(&v));
    }

    #[test]
    fn inject_shape_error() {
        let lm = Landmarks::from_centers(Matrix::zeros(3, 2));
        let mut v = Matrix::zeros(2, 4);
        assert!(lm.inject(&mut v).is_err());
    }

    #[test]
    fn verify_detects_drift() {
        let lm = Landmarks::from_centers(Matrix::filled(2, 2, 0.5));
        let mut v = Matrix::filled(3, 3, 0.5);
        assert!(lm.verify_injected(&v));
        v.set(1, 0, 0.6);
        assert!(!lm.verify_injected(&v));
        assert!(!lm.verify_injected(&Matrix::zeros(1, 1)));
    }

    #[test]
    fn deterministic_given_seed() {
        let si = uniform_matrix(50, 2, 0.0, 1.0, 4);
        let a = Landmarks::compute(&si, 4, 300, 9).unwrap();
        let b = Landmarks::compute(&si, 4, 300, 9).unwrap();
        assert!(a.centers.approx_eq(&b.centers, 0.0));
    }
}
