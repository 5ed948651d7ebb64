//! The [`Dataset`] container shared by generators, experiments and
//! benches.

use smfl_linalg::Matrix;

/// A fully observed, normalized spatial dataset — the *ground truth*
/// against which injected corruption is later evaluated.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. `"economic"`).
    pub name: String,
    /// Normalized data in `[0, 1]`, first [`Dataset::spatial_cols`]
    /// columns are coordinates.
    pub data: Matrix,
    /// Number of leading spatial-information columns (`L`; 2 everywhere
    /// in the paper).
    pub spatial_cols: usize,
    /// Column names, `data.cols()` of them.
    pub columns: Vec<String>,
    /// Ground-truth region labels (Lake only) for the clustering
    /// experiment of §IV-B4.
    pub cluster_labels: Option<Vec<usize>>,
    /// Vehicle routes as ordered row-index paths, for the route-planning
    /// experiment of §IV-B3.
    pub routes: Option<Vec<Vec<usize>>>,
}

impl Dataset {
    /// Number of tuples `N`.
    pub fn n(&self) -> usize {
        self.data.rows()
    }

    /// Number of columns `M`.
    pub fn m(&self) -> usize {
        self.data.cols()
    }

    /// The spatial information block `SI` (`N x L`).
    pub fn si(&self) -> Matrix {
        self.data
            .columns(0, self.spatial_cols)
            .expect("spatial_cols <= m by construction")
    }

    /// Indices of the non-spatial (attribute) columns.
    pub fn attribute_cols(&self) -> Vec<usize> {
        (self.spatial_cols..self.m()).collect()
    }

    /// Basic structural sanity: normalized range, consistent metadata.
    pub fn validate(&self) -> bool {
        self.columns.len() == self.m()
            && self.spatial_cols <= self.m()
            && self.data.min().unwrap_or(0.0) >= -1e-12
            && self.data.max().unwrap_or(0.0) <= 1.0 + 1e-12
            && self
                .cluster_labels
                .as_ref()
                .is_none_or(|l| l.len() == self.n())
            && self
                .routes
                .as_ref()
                .is_none_or(|rs| rs.iter().all(|r| r.iter().all(|&i| i < self.n())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset {
            name: "tiny".into(),
            data: Matrix::from_rows(&[vec![0.1, 0.2, 0.5], vec![0.9, 0.8, 0.3]]).unwrap(),
            spatial_cols: 2,
            columns: vec!["lat".into(), "lon".into(), "attr".into()],
            cluster_labels: None,
            routes: None,
        }
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.n(), 2);
        assert_eq!(d.m(), 3);
        assert_eq!(d.si().shape(), (2, 2));
        assert_eq!(d.attribute_cols(), vec![2]);
        assert!(d.validate());
    }

    #[test]
    fn validate_catches_bad_metadata() {
        let mut d = tiny();
        d.columns.pop();
        assert!(!d.validate());

        let mut d = tiny();
        d.data.set(0, 0, 7.5); // out of normalized range
        assert!(!d.validate());

        let mut d = tiny();
        d.cluster_labels = Some(vec![0]); // wrong length
        assert!(!d.validate());

        let mut d = tiny();
        d.routes = Some(vec![vec![0, 5]]); // out-of-range row index
        assert!(!d.validate());
    }
}
