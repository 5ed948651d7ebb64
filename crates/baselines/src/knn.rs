//! Neighbour-based imputers: kNN [6] and the kNN Ensemble (kNNE) [16]
//! the paper compares against.
//!
//! kNN imputes a missing cell from the `k` most similar rows that have
//! that cell observed, with similarity measured over the attributes both
//! rows observe (mean squared difference, so partially observed rows
//! still compare fairly). kNNE builds one kNN model per determinant
//! attribute subset — here every single complete column plus the full
//! set, matching the "NN classifier on each subset of complete columns"
//! construction — and averages their answers.

use crate::imputer::{check_shapes, Imputer};
use smfl_linalg::{Mask, Matrix, Result};

/// Plain k-nearest-neighbour imputer.
#[derive(Debug, Clone)]
pub struct KnnImputer {
    /// Number of neighbours to aggregate.
    pub k: usize,
}

impl Default for KnnImputer {
    fn default() -> Self {
        KnnImputer { k: 5 }
    }
}

/// Mean squared difference over commonly observed attributes of rows
/// `a` and `b`, restricted to columns in `cols` (all columns when
/// `None`). Returns `None` when the rows share no observed attribute.
fn partial_distance(
    x: &Matrix,
    omega: &Mask,
    a: usize,
    b: usize,
    cols: Option<&[usize]>,
) -> Option<f64> {
    let mut acc = 0.0;
    let mut cnt = 0usize;
    let all: Vec<usize>;
    let iter: &[usize] = match cols {
        Some(c) => c,
        None => {
            all = (0..x.cols()).collect();
            &all
        }
    };
    for &j in iter {
        if omega.get(a, j) && omega.get(b, j) {
            let d = x.get(a, j) - x.get(b, j);
            acc += d * d;
            cnt += 1;
        }
    }
    if cnt == 0 {
        None
    } else {
        Some(acc / cnt as f64)
    }
}

/// kNN estimate of cell `(i, j)` using distances over `cols`.
/// Falls back to `None` when no usable neighbour exists.
fn knn_estimate(
    x: &Matrix,
    omega: &Mask,
    i: usize,
    j: usize,
    k: usize,
    cols: Option<&[usize]>,
) -> Option<f64> {
    let mut candidates: Vec<(f64, f64)> = Vec::new(); // (distance, value)
    for b in 0..x.rows() {
        if b == i || !omega.get(b, j) {
            continue;
        }
        if let Some(d) = partial_distance(x, omega, i, b, cols) {
            candidates.push((d, x.get(b, j)));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    candidates.truncate(k.max(1));
    Some(candidates.iter().map(|&(_, v)| v).sum::<f64>() / candidates.len() as f64)
}

impl Imputer for KnnImputer {
    fn name(&self) -> &'static str {
        "kNN"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let means = crate::imputer::MeanImputer::column_means(x, omega);
        let mut out = x.clone();
        for (i, j) in omega.complement().iter_set() {
            let value = knn_estimate(x, omega, i, j, self.k, None).unwrap_or(means[j]);
            out.set(i, j, value);
        }
        Ok(out)
    }
}

/// kNN Ensemble (kNNE): one kNN model per determinant subset, averaged.
#[derive(Debug, Clone)]
pub struct KnneImputer {
    /// Neighbours per member model.
    pub k: usize,
}

impl Default for KnneImputer {
    fn default() -> Self {
        KnneImputer { k: 5 }
    }
}

impl Imputer for KnneImputer {
    fn name(&self) -> &'static str {
        "kNNE"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let m = x.cols();
        let means = crate::imputer::MeanImputer::column_means(x, omega);
        let mut out = x.clone();
        for (i, j) in omega.complement().iter_set() {
            // Subsets: each single other column, plus all-other-columns.
            let mut estimates = Vec::with_capacity(m);
            for det in 0..m {
                if det == j {
                    continue;
                }
                if let Some(v) = knn_estimate(x, omega, i, j, self.k, Some(&[det])) {
                    estimates.push(v);
                }
            }
            let all: Vec<usize> = (0..m).filter(|&c| c != j).collect();
            if let Some(v) = knn_estimate(x, omega, i, j, self.k, Some(&all)) {
                estimates.push(v);
            }
            let value = if estimates.is_empty() {
                means[j]
            } else {
                estimates.iter().sum::<f64>() / estimates.len() as f64
            };
            out.set(i, j, value);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imputer::assert_contract;
    use smfl_linalg::random::uniform_matrix;

    /// Rows come in two obvious groups; a missing value should be filled
    /// from its own group.
    fn grouped_data() -> (Matrix, Mask) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0, 10.0],
            vec![0.1, 0.1, 11.0],
            vec![0.05, 0.02, 10.5],
            vec![1.0, 1.0, 50.0],
            vec![0.9, 1.1, 51.0],
            vec![1.1, 0.95, 0.0], // missing third attr
        ])
        .unwrap();
        let mut omega = Mask::full(6, 3);
        omega.set(5, 2, false);
        (x, omega)
    }

    #[test]
    fn knn_uses_the_right_group() {
        let (x, omega) = grouped_data();
        let out = KnnImputer { k: 2 }.impute(&x, &omega).unwrap();
        let v = out.get(5, 2);
        assert!(
            (v - 50.5).abs() < 1.0,
            "expected ~50.5 from group B, got {v}"
        );
    }

    #[test]
    fn knne_also_uses_the_right_group() {
        let (x, omega) = grouped_data();
        let out = KnneImputer { k: 2 }.impute(&x, &omega).unwrap();
        let v = out.get(5, 2);
        assert!(v > 30.0, "ensemble strayed to wrong group: {v}");
    }

    #[test]
    fn contract_on_random_data() {
        let x = uniform_matrix(30, 4, 0.0, 1.0, 1);
        let mut omega = Mask::full(30, 4);
        for i in (0..30).step_by(4) {
            omega.set(i, 3, false);
        }
        assert_contract(&KnnImputer::default(), &x, &omega);
        assert_contract(&KnneImputer::default(), &x, &omega);
    }

    #[test]
    fn falls_back_to_mean_when_no_neighbours() {
        // Column observed only in the missing row's... nowhere at all.
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]).unwrap();
        let mut omega = Mask::full(2, 2);
        omega.set(0, 1, false);
        omega.set(1, 1, false);
        let out = KnnImputer::default().impute(&x, &omega).unwrap();
        assert_eq!(out.get(0, 1), 0.0); // column mean of nothing = 0
    }

    #[test]
    fn partial_distance_none_when_nothing_shared() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
        let omega = Mask::from_positions(2, 2, &[(0, 0), (1, 1)]).unwrap();
        assert!(partial_distance(&x, &omega, 0, 1, None).is_none());
    }

    #[test]
    fn k_one_returns_nearest_value_exactly() {
        let (x, omega) = grouped_data();
        let out = KnnImputer { k: 1 }.impute(&x, &omega).unwrap();
        // nearest complete row to row 5 is row 3 or 4 -> 50 or 51
        let v = out.get(5, 2);
        assert!(v == 50.0 || v == 51.0, "got {v}");
    }
}
