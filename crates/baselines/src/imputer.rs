//! The common imputation interface all baselines implement.

use smfl_linalg::{Mask, Matrix, Result};

/// A missing-value imputation algorithm.
///
/// `x` carries placeholder values (conventionally `0.0`) at unobserved
/// cells; implementations must consult `omega` and never trust
/// placeholders. The returned matrix must preserve observed cells
/// exactly.
pub trait Imputer {
    /// Short method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Fills the unobserved cells of `x`.
    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix>;
}

/// Column-mean imputation — the simplest reference point and the
/// initializer several other baselines start from.
#[derive(Debug, Clone, Default)]
pub struct MeanImputer;

impl MeanImputer {
    /// Per-column means over observed cells (0 for fully missing columns).
    pub fn column_means(x: &Matrix, omega: &Mask) -> Vec<f64> {
        let (n, m) = x.shape();
        let mut sums = vec![0.0; m];
        let mut counts = vec![0usize; m];
        for i in 0..n {
            for j in 0..m {
                if omega.get(i, j) {
                    sums[j] += x.get(i, j);
                    counts[j] += 1;
                }
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }
}

impl Imputer for MeanImputer {
    fn name(&self) -> &'static str {
        "Mean"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let means = Self::column_means(x, omega);
        let mut out = x.clone();
        for (i, j) in omega.complement().iter_set() {
            out.set(i, j, means[j]);
        }
        Ok(out)
    }
}

pub(crate) fn check_shapes(x: &Matrix, omega: &Mask) -> Result<()> {
    if x.shape() != omega.shape() {
        return Err(smfl_linalg::LinalgError::DimensionMismatch {
            left: x.shape(),
            right: omega.shape(),
            op: "impute",
        });
    }
    Ok(())
}

/// Asserts the imputation contract for tests: observed cells preserved,
/// everything finite.
#[cfg(test)]
pub(crate) fn assert_contract(imputer: &dyn Imputer, x: &Matrix, omega: &Mask) -> Matrix {
    let out = imputer.impute(x, omega).unwrap();
    assert_eq!(out.shape(), x.shape());
    assert!(
        out.all_finite(),
        "{} produced non-finite values",
        imputer.name()
    );
    for (i, j) in omega.iter_set() {
        assert_eq!(
            out.get(i, j),
            x.get(i, j),
            "{} modified observed cell ({i},{j})",
            imputer.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_imputer_fills_with_column_means() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 0.0], vec![0.0, 30.0]]).unwrap();
        let mut omega = Mask::full(3, 2);
        omega.set(1, 1, false);
        omega.set(2, 0, false);
        let out = MeanImputer.impute(&x, &omega).unwrap();
        assert_eq!(out.get(2, 0), 2.0); // mean(1, 3)
        assert_eq!(out.get(1, 1), 20.0); // mean(10, 30)
        assert_eq!(out.get(0, 0), 1.0);
    }

    #[test]
    fn mean_imputer_handles_fully_missing_column() {
        let x = Matrix::zeros(2, 2);
        let mut omega = Mask::full(2, 2);
        omega.set(0, 1, false);
        omega.set(1, 1, false);
        let out = MeanImputer.impute(&x, &omega).unwrap();
        assert_eq!(out.get(0, 1), 0.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(MeanImputer
            .impute(&Matrix::zeros(2, 2), &Mask::full(3, 3))
            .is_err());
    }

    #[test]
    fn contract_helper_works() {
        let x = smfl_linalg::random::uniform_matrix(10, 3, 0.0, 1.0, 1);
        let mut omega = Mask::full(10, 3);
        omega.set(4, 2, false);
        assert_contract(&MeanImputer, &x, &omega);
    }
}
