//! Min-max normalization (paper §IV-A1).
//!
//! "Finally, we will conduct min-max normalization on all datasets and
//! transform them into the range [0, 1] to balance the influences of the
//! different scales of different columns." The scaler is fitted per
//! column and kept so imputed values can be mapped back to raw units
//! (the fuel-route application needs litres, not unit-interval values).

use smfl_linalg::{LinalgError, Mask, Matrix, Result};

/// Per-column min-max scaler.
#[derive(Debug, Clone)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Learns per-column minima and maxima from every cell of `data`.
    ///
    /// # Errors
    /// [`LinalgError::Empty`] for a matrix with no rows.
    pub fn fit(data: &Matrix) -> Result<MinMaxScaler> {
        Self::fit_observed(data, &Mask::full(data.rows(), data.cols()))
    }

    /// Learns per-column minima and maxima from the cells `omega`
    /// observes, so the placeholder a missing cell holds (the CSV loader
    /// stores 0.0) never widens a column's range. A column with no
    /// observed cell gets the range `[0, 0]`.
    ///
    /// # Errors
    /// [`LinalgError::Empty`] for a matrix with no rows;
    /// [`LinalgError::DimensionMismatch`] when `omega` has another shape.
    pub fn fit_observed(data: &Matrix, omega: &Mask) -> Result<MinMaxScaler> {
        if data.rows() == 0 {
            return Err(LinalgError::Empty);
        }
        if omega.shape() != data.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: data.shape(),
                right: omega.shape(),
                op: "minmax_fit",
            });
        }
        let m = data.cols();
        let mut mins = vec![f64::INFINITY; m];
        let mut maxs = vec![f64::NEG_INFINITY; m];
        for (i, j) in omega.iter_set() {
            let v = data.get(i, j);
            mins[j] = mins[j].min(v);
            maxs[j] = maxs[j].max(v);
        }
        for (lo, hi) in mins.iter_mut().zip(&mut maxs) {
            if *lo > *hi {
                (*lo, *hi) = (0.0, 0.0);
            }
        }
        Ok(MinMaxScaler { mins, maxs })
    }

    /// Maps each column into `[0, 1]`. Constant columns map to `0.0`.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        self.check_width(data)?;
        Ok(Matrix::from_fn(data.rows(), data.cols(), |i, j| {
            let range = self.maxs[j] - self.mins[j];
            if range > 0.0 {
                (data.get(i, j) - self.mins[j]) / range
            } else {
                0.0
            }
        }))
    }

    /// Inverse of [`MinMaxScaler::transform`].
    pub fn inverse_transform(&self, data: &Matrix) -> Result<Matrix> {
        self.check_width(data)?;
        Ok(Matrix::from_fn(data.rows(), data.cols(), |i, j| {
            let range = self.maxs[j] - self.mins[j];
            data.get(i, j) * range + self.mins[j]
        }))
    }

    /// Fit and transform in one step.
    pub fn fit_transform(data: &Matrix) -> Result<(MinMaxScaler, Matrix)> {
        let scaler = MinMaxScaler::fit(data)?;
        let out = scaler.transform(data)?;
        Ok((scaler, out))
    }

    /// Column minima seen at fit time.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Column maxima seen at fit time.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    fn check_width(&self, data: &Matrix) -> Result<()> {
        if data.cols() != self.mins.len() {
            return Err(LinalgError::DimensionMismatch {
                left: data.shape(),
                right: (1, self.mins.len()),
                op: "minmax_transform",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::uniform_matrix;

    #[test]
    fn transform_lands_in_unit_interval() {
        let data = uniform_matrix(50, 4, -10.0, 25.0, 1);
        let (_, normed) = MinMaxScaler::fit_transform(&data).unwrap();
        assert!(normed.min().unwrap() >= 0.0);
        assert!(normed.max().unwrap() <= 1.0);
        // extremes touch the bounds
        assert!((normed.min().unwrap() - 0.0).abs() < 1e-12);
        assert!((normed.max().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_is_identity() {
        let data = uniform_matrix(30, 5, -3.0, 7.0, 2);
        let (scaler, normed) = MinMaxScaler::fit_transform(&data).unwrap();
        let back = scaler.inverse_transform(&normed).unwrap();
        assert!(back.approx_eq(&data, 1e-10));
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let data = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]]).unwrap();
        let (_, normed) = MinMaxScaler::fit_transform(&data).unwrap();
        assert_eq!(normed.col(0), vec![0.0, 0.0, 0.0]);
        assert_eq!(normed.get(2, 1), 1.0);
    }

    #[test]
    fn transform_checks_width() {
        let scaler = MinMaxScaler::fit(&Matrix::zeros(2, 3)).unwrap();
        assert!(scaler.transform(&Matrix::zeros(2, 4)).is_err());
        assert!(scaler.inverse_transform(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(MinMaxScaler::fit(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn fit_observed_ignores_unobserved_cells() {
        // Column 1 is observed in [100, 103]; its blank holds the loader's
        // 0.0, which must not become the column's minimum. Column 2 has
        // no observed cell at all.
        let data = Matrix::from_rows(&[
            vec![1.0, 100.0, 0.0],
            vec![2.0, 0.0, 0.0],
            vec![3.0, 103.0, 0.0],
        ])
        .unwrap();
        let mut omega = Mask::full(3, 3);
        omega.set(1, 1, false);
        for i in 0..3 {
            omega.set(i, 2, false);
        }
        let scaler = MinMaxScaler::fit_observed(&data, &omega).unwrap();
        assert_eq!(scaler.mins(), &[1.0, 100.0, 0.0]);
        assert_eq!(scaler.maxs(), &[3.0, 103.0, 0.0]);
        assert!(MinMaxScaler::fit_observed(&data, &Mask::full(3, 2)).is_err());
    }

    #[test]
    fn per_column_independence() {
        let data = Matrix::from_rows(&[vec![0.0, 100.0], vec![10.0, 200.0]]).unwrap();
        let scaler = MinMaxScaler::fit(&data).unwrap();
        assert_eq!(scaler.mins(), &[0.0, 100.0]);
        assert_eq!(scaler.maxs(), &[10.0, 200.0]);
        let t = scaler.transform(&data).unwrap();
        assert_eq!(t.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }
}
