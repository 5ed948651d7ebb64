//! Regression-family imputers: LOESS [13], IIM [47] and the
//! scikit-learn-style IterativeImputer [4].
//!
//! All three predict a missing attribute from the other attributes;
//! they differ in *which rows* train the model:
//!
//! - **LOESS** fits a tricube-weighted local linear regression over the
//!   nearest complete neighbours of the incomplete tuple.
//! - **IIM** learns an *individual* (per-tuple) ridge model over the
//!   tuple's `ℓ` nearest complete neighbours.
//! - **Iterative** starts from mean fills and cycles ridge regressions
//!   column-by-column over all rows until the fills stabilize.

use crate::imputer::{check_shapes, Imputer, MeanImputer};
use smfl_linalg::solve::{ridge_regression, weighted_ridge_regression};
use smfl_linalg::{Mask, Matrix, Result};

/// Rows whose cells are all observed (the training pool for LOESS/IIM).
fn complete_rows(omega: &Mask) -> Vec<usize> {
    (0..omega.rows())
        .filter(|&i| omega.row_is_full(i))
        .collect()
}

/// Squared distance between row `i` and complete row `b` over the
/// attributes of `i` that are observed.
fn distance_to_complete(x: &Matrix, omega: &Mask, i: usize, b: usize) -> f64 {
    let mut acc = 0.0;
    let mut cnt = 0usize;
    for j in 0..x.cols() {
        if omega.get(i, j) {
            let d = x.get(i, j) - x.get(b, j);
            acc += d * d;
            cnt += 1;
        }
    }
    if cnt == 0 {
        f64::INFINITY
    } else {
        acc / cnt as f64
    }
}

/// `count` nearest complete rows to row `i`, ascending by distance.
fn nearest_complete(
    x: &Matrix,
    omega: &Mask,
    i: usize,
    pool: &[usize],
    count: usize,
) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = pool
        .iter()
        .filter(|&&b| b != i)
        .map(|&b| (b, distance_to_complete(x, omega, i, b)))
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(count);
    scored
}

/// Builds the design matrix (determinant columns + intercept) for the
/// given rows.
fn design(x: &Matrix, rows: &[(usize, f64)], determinants: &[usize]) -> Matrix {
    Matrix::from_fn(rows.len(), determinants.len() + 1, |r, c| {
        if c == determinants.len() {
            1.0 // intercept
        } else {
            x.get(rows[r].0, determinants[c])
        }
    })
}

fn feature_row(x: &Matrix, i: usize, determinants: &[usize]) -> Vec<f64> {
    let mut f: Vec<f64> = determinants.iter().map(|&j| x.get(i, j)).collect();
    f.push(1.0);
    f
}

/// LOESS: locally weighted linear regression over nearest complete
/// neighbours, tricube kernel.
#[derive(Debug, Clone)]
pub struct LoessImputer {
    /// Neighbourhood size (window).
    pub window: usize,
    /// Ridge stabilizer for the local fit.
    pub alpha: f64,
}

impl Default for LoessImputer {
    fn default() -> Self {
        LoessImputer {
            window: 15,
            alpha: 1e-6,
        }
    }
}

impl Imputer for LoessImputer {
    fn name(&self) -> &'static str {
        "LOESS"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let pool = complete_rows(omega);
        let means = MeanImputer::column_means(x, omega);
        let mut out = x.clone();
        for (i, j) in omega.complement().iter_set() {
            let determinants: Vec<usize> = (0..x.cols())
                .filter(|&c| c != j && omega.get(i, c))
                .collect();
            if pool.len() < 2 || determinants.is_empty() {
                out.set(i, j, means[j]);
                continue;
            }
            let neigh = nearest_complete(x, omega, i, &pool, self.window.max(2));
            let dmax = neigh.last().map_or(1.0, |&(_, d)| d.max(1e-12));
            let weights: Vec<f64> = neigh
                .iter()
                .map(|&(_, d)| {
                    let r = (d / dmax).min(1.0);
                    let t = 1.0 - r * r * r;
                    t * t * t
                })
                .collect();
            let xm = design(x, &neigh, &determinants);
            let y: Vec<f64> = neigh.iter().map(|&(b, _)| x.get(b, j)).collect();
            match weighted_ridge_regression(&xm, &y, &weights, self.alpha) {
                Ok(beta) => {
                    let f = feature_row(x, i, &determinants);
                    let pred: f64 = f.iter().zip(&beta).map(|(&a, &b)| a * b).sum();
                    out.set(i, j, if pred.is_finite() { pred } else { means[j] });
                }
                Err(_) => out.set(i, j, means[j]),
            }
        }
        Ok(out)
    }
}

/// IIM: an individual ridge model per incomplete tuple, trained on its
/// `ℓ` nearest complete neighbours.
#[derive(Debug, Clone)]
pub struct IimImputer {
    /// Neighbourhood size `ℓ`.
    pub ell: usize,
    /// Ridge strength.
    pub alpha: f64,
}

impl Default for IimImputer {
    fn default() -> Self {
        IimImputer {
            ell: 10,
            alpha: 0.01,
        }
    }
}

impl Imputer for IimImputer {
    fn name(&self) -> &'static str {
        "IIM"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let pool = complete_rows(omega);
        let means = MeanImputer::column_means(x, omega);
        let mut out = x.clone();
        for (i, j) in omega.complement().iter_set() {
            let determinants: Vec<usize> = (0..x.cols())
                .filter(|&c| c != j && omega.get(i, c))
                .collect();
            if pool.len() < 2 || determinants.is_empty() {
                out.set(i, j, means[j]);
                continue;
            }
            let neigh = nearest_complete(x, omega, i, &pool, self.ell.max(2));
            let xm = design(x, &neigh, &determinants);
            let y: Vec<f64> = neigh.iter().map(|&(b, _)| x.get(b, j)).collect();
            match ridge_regression(&xm, &y, self.alpha) {
                Ok(beta) => {
                    let f = feature_row(x, i, &determinants);
                    let pred: f64 = f.iter().zip(&beta).map(|(&a, &b)| a * b).sum();
                    out.set(i, j, if pred.is_finite() { pred } else { means[j] });
                }
                Err(_) => out.set(i, j, means[j]),
            }
        }
        Ok(out)
    }
}

/// IterativeImputer: round-robin column-wise ridge regression until the
/// imputed cells stabilize.
#[derive(Debug, Clone)]
pub struct IterativeImputer {
    /// Maximum sweep count.
    pub max_rounds: usize,
    /// Ridge strength.
    pub alpha: f64,
    /// Early-stop threshold on maximum imputed-cell change per round.
    pub tol: f64,
}

impl Default for IterativeImputer {
    fn default() -> Self {
        IterativeImputer {
            max_rounds: 10,
            alpha: 1e-3,
            tol: 1e-5,
        }
    }
}

impl Imputer for IterativeImputer {
    fn name(&self) -> &'static str {
        "Iterative"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let (n, m) = x.shape();
        // Round 0: mean init.
        let mut cur = MeanImputer.impute(x, omega)?;
        for _ in 0..self.max_rounds {
            let mut max_change = 0.0f64;
            for j in 0..m {
                let missing_rows: Vec<usize> = (0..n).filter(|&i| !omega.get(i, j)).collect();
                if missing_rows.is_empty() {
                    continue;
                }
                let train_rows: Vec<usize> = (0..n).filter(|&i| omega.get(i, j)).collect();
                if train_rows.len() < 2 {
                    continue;
                }
                let determinants: Vec<usize> = (0..m).filter(|&c| c != j).collect();
                // Train on currently filled data (classic chained equations).
                let xm = Matrix::from_fn(train_rows.len(), determinants.len() + 1, |r, c| {
                    if c == determinants.len() {
                        1.0
                    } else {
                        cur.get(train_rows[r], determinants[c])
                    }
                });
                let y: Vec<f64> = train_rows.iter().map(|&i| x.get(i, j)).collect();
                let Ok(beta) = ridge_regression(&xm, &y, self.alpha) else {
                    continue;
                };
                for &i in &missing_rows {
                    let mut pred = beta[determinants.len()]; // intercept
                    for (c, &d) in determinants.iter().enumerate() {
                        pred += beta[c] * cur.get(i, d);
                    }
                    if pred.is_finite() {
                        max_change = max_change.max((pred - cur.get(i, j)).abs());
                        cur.set(i, j, pred);
                    }
                }
            }
            if max_change <= self.tol {
                break;
            }
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imputer::assert_contract;
    use smfl_linalg::random::uniform_matrix;

    /// Data with an exact linear relationship col2 = 2*col0 + col1.
    fn linear_data(n: usize, seed: u64) -> Matrix {
        let base = uniform_matrix(n, 2, 0.0, 1.0, seed);
        Matrix::from_fn(n, 3, |i, j| match j {
            0 => base.get(i, 0),
            1 => base.get(i, 1),
            _ => 2.0 * base.get(i, 0) + base.get(i, 1),
        })
    }

    fn holes(n: usize, m: usize, col: usize, every: usize) -> Mask {
        let mut omega = Mask::full(n, m);
        for i in (0..n).step_by(every) {
            omega.set(i, col, false);
        }
        omega
    }

    #[test]
    fn iim_recovers_linear_relationship() {
        let x = linear_data(60, 1);
        let omega = holes(60, 3, 2, 5);
        let out = IimImputer::default().impute(&x, &omega).unwrap();
        for i in (0..60).step_by(5) {
            let want = 2.0 * x.get(i, 0) + x.get(i, 1);
            assert!(
                (out.get(i, 2) - want).abs() < 0.1,
                "row {i}: got {} want {want}",
                out.get(i, 2)
            );
        }
    }

    #[test]
    fn loess_recovers_linear_relationship() {
        let x = linear_data(60, 2);
        let omega = holes(60, 3, 2, 5);
        let out = LoessImputer::default().impute(&x, &omega).unwrap();
        for i in (0..60).step_by(5) {
            let want = 2.0 * x.get(i, 0) + x.get(i, 1);
            assert!((out.get(i, 2) - want).abs() < 0.1);
        }
    }

    #[test]
    fn iterative_recovers_linear_relationship() {
        let x = linear_data(60, 3);
        let omega = holes(60, 3, 2, 5);
        let out = IterativeImputer::default().impute(&x, &omega).unwrap();
        for i in (0..60).step_by(5) {
            let want = 2.0 * x.get(i, 0) + x.get(i, 1);
            assert!((out.get(i, 2) - want).abs() < 0.05);
        }
    }

    #[test]
    fn all_regression_imputers_honor_contract() {
        let x = uniform_matrix(40, 4, 0.0, 1.0, 4);
        let mut omega = Mask::full(40, 4);
        for i in (0..40).step_by(3) {
            omega.set(i, (i / 3) % 4, false);
        }
        assert_contract(&LoessImputer::default(), &x, &omega);
        assert_contract(&IimImputer::default(), &x, &omega);
        assert_contract(&IterativeImputer::default(), &x, &omega);
    }

    #[test]
    fn regression_imputers_survive_no_complete_rows() {
        // Every row has a hole: LOESS/IIM must fall back to means.
        let x = uniform_matrix(10, 3, 0.0, 1.0, 5);
        let mut omega = Mask::full(10, 3);
        for i in 0..10 {
            omega.set(i, i % 3, false);
        }
        for imp in [
            Box::new(LoessImputer::default()) as Box<dyn Imputer>,
            Box::new(IimImputer::default()),
            Box::new(IterativeImputer::default()),
        ] {
            let out = imp.impute(&x, &omega).unwrap();
            assert!(out.all_finite(), "{}", imp.name());
        }
    }

    #[test]
    fn iterative_beats_mean_on_correlated_data() {
        let x = linear_data(80, 6);
        let omega = holes(80, 3, 2, 4);
        let psi = omega.complement();
        let mean_out = MeanImputer.impute(&x, &omega).unwrap();
        let iter_out = IterativeImputer::default().impute(&x, &omega).unwrap();
        let err = |m: &Matrix| {
            let mut e = 0.0;
            for (i, j) in psi.iter_set() {
                e += (m.get(i, j) - x.get(i, j)).powi(2);
            }
            e
        };
        assert!(err(&iter_out) < 0.25 * err(&mean_out));
    }

    #[test]
    fn iterative_multiple_missing_columns() {
        let x = linear_data(50, 7);
        let mut omega = Mask::full(50, 3);
        omega.set(3, 0, false);
        omega.set(3, 2, false); // two holes in one row
        omega.set(10, 1, false);
        let out = IterativeImputer::default().impute(&x, &omega).unwrap();
        assert!(out.all_finite());
    }
}
