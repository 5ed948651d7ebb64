//! Dense linear solves (Gaussian elimination with partial pivoting) and
//! ridge least squares.
//!
//! The regression-family baselines of the paper (LOESS, IIM,
//! IterativeImputer, Baran's regression corrector) all reduce to small
//! ridge systems `(XᵀX + αI) β = Xᵀy` with at most ~13 unknowns, so a
//! simple pivoted elimination is both sufficient and exact.

// Index-based loops mirror the textbook elimination formulas.
#![allow(clippy::needless_range_loop)]

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::ops::{matmul_at, matvec};

/// Solves `A·x = b` for square `A` via Gaussian elimination with
/// partial pivoting.
///
/// # Errors
/// [`LinalgError::NotSquare`], length mismatch, or
/// [`LinalgError::NoConvergence`] when the matrix is numerically
/// singular.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if b.len() != n {
        return Err(LinalgError::BadLength {
            expected: n,
            actual: b.len(),
        });
    }
    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = m.get(col, col).abs();
        for r in (col + 1)..n {
            let v = m.get(r, col).abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-12 {
            return Err(LinalgError::NoConvergence {
                routine: "gaussian_elimination (singular matrix)",
                iterations: col,
            });
        }
        if pivot != col {
            for j in 0..n {
                let tmp = m.get(col, j);
                m.set(col, j, m.get(pivot, j));
                m.set(pivot, j, tmp);
            }
            rhs.swap(col, pivot);
        }
        // Eliminate below.
        let diag = m.get(col, col);
        for r in (col + 1)..n {
            let factor = m.get(r, col) / diag;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m.get(r, j) - factor * m.get(col, j);
                m.set(r, j, v);
            }
            rhs[r] -= factor * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for j in (row + 1)..n {
            acc -= m.get(row, j) * x[j];
        }
        x[row] = acc / m.get(row, row);
    }
    Ok(x)
}

/// Ridge least squares: minimizes `‖X·β − y‖² + α‖β‖²` via the normal
/// equations. `X` is `n x p` (tall or square), `y` length `n`.
///
/// With `α > 0` the system is always nonsingular.
pub fn ridge_regression(x: &Matrix, y: &[f64], alpha: f64) -> Result<Vec<f64>> {
    if x.rows() != y.len() {
        return Err(LinalgError::BadLength {
            expected: x.rows(),
            actual: y.len(),
        });
    }
    let p = x.cols();
    let mut gram = matmul_at(x, x)?; // XᵀX
    for i in 0..p {
        let v = gram.get(i, i) + alpha;
        gram.set(i, i, v);
    }
    // Xᵀy
    let mut xty = vec![0.0; p];
    for i in 0..x.rows() {
        let row = x.row(i);
        for (j, &v) in row.iter().enumerate() {
            xty[j] += v * y[i];
        }
    }
    solve(&gram, &xty)
}

/// Weighted ridge: minimizes `Σ w_i (x_iᵀβ − y_i)² + α‖β‖²`
/// (the LOESS building block; `w` are the tricube weights).
pub fn weighted_ridge_regression(x: &Matrix, y: &[f64], w: &[f64], alpha: f64) -> Result<Vec<f64>> {
    if x.rows() != y.len() || x.rows() != w.len() {
        return Err(LinalgError::BadLength {
            expected: x.rows(),
            actual: y.len().min(w.len()),
        });
    }
    // Scale rows by sqrt(w): reduces to plain ridge.
    let sw: Vec<f64> = w.iter().map(|&v| v.max(0.0).sqrt()).collect();
    let xs = Matrix::from_fn(x.rows(), x.cols(), |i, j| x.get(i, j) * sw[i]);
    let ys: Vec<f64> = y.iter().zip(&sw).map(|(&v, &s)| v * s).collect();
    ridge_regression(&xs, &ys, alpha)
}

/// Predicts `X·β` for a fitted coefficient vector.
pub fn predict(x: &Matrix, beta: &[f64]) -> Result<Vec<f64>> {
    matvec(x, beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x - y = 1 -> x = 2, y = 1
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, -1.0]).unwrap();
        let x = solve(&a, &[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // zero leading diagonal forces a row swap
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_matrix_is_error() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(solve(&a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_shape_errors() {
        assert!(solve(&Matrix::zeros(2, 3), &[0.0, 0.0]).is_err());
        assert!(solve(&Matrix::identity(2), &[0.0]).is_err());
    }

    #[test]
    fn solve_random_consistency() {
        let a = crate::random::uniform_matrix(6, 6, -1.0, 1.0, 1)
            .add(&Matrix::identity(6).scale(3.0))
            .unwrap();
        let truth: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let b = matvec(&a, &truth).unwrap();
        let x = solve(&a, &b).unwrap();
        for (got, want) in x.iter().zip(&truth) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn ridge_recovers_exact_linear_model_with_tiny_alpha() {
        let x = crate::random::uniform_matrix(40, 3, -1.0, 1.0, 2);
        let beta = [1.5, -2.0, 0.5];
        let y = matvec(&x, &beta).unwrap();
        let fitted = ridge_regression(&x, &y, 1e-10).unwrap();
        for (got, want) in fitted.iter().zip(&beta) {
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn ridge_shrinks_with_large_alpha() {
        let x = crate::random::uniform_matrix(30, 2, -1.0, 1.0, 3);
        let y = matvec(&x, &[5.0, -5.0]).unwrap();
        let small = ridge_regression(&x, &y, 1e-8).unwrap();
        let big = ridge_regression(&x, &y, 100.0).unwrap();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        assert!(norm(&big) < norm(&small));
    }

    #[test]
    fn ridge_handles_underdetermined_systems() {
        // 2 rows, 3 unknowns: plain least squares would be singular.
        let x = Matrix::from_vec(2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let beta = ridge_regression(&x, &[1.0, 2.0], 0.1).unwrap();
        assert_eq!(beta.len(), 3);
        assert!(beta.iter().all(|b| b.is_finite()));
    }

    #[test]
    fn weighted_ridge_follows_the_heavy_points() {
        // Two clusters of points implying different slopes; weights pick one.
        let x = Matrix::from_vec(4, 1, vec![1.0, 2.0, 1.0, 2.0]).unwrap();
        let y = [1.0, 2.0, 3.0, 6.0]; // slope 1 vs slope 3
        let w_a = [1.0, 1.0, 0.0, 0.0];
        let w_b = [0.0, 0.0, 1.0, 1.0];
        let ba = weighted_ridge_regression(&x, &y, &w_a, 1e-9).unwrap();
        let bb = weighted_ridge_regression(&x, &y, &w_b, 1e-9).unwrap();
        assert!((ba[0] - 1.0).abs() < 1e-6);
        assert!((bb[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn predict_matches_matvec() {
        let x = crate::random::uniform_matrix(5, 2, 0.0, 1.0, 4);
        let p = predict(&x, &[2.0, -1.0]).unwrap();
        let q = matvec(&x, &[2.0, -1.0]).unwrap();
        assert_eq!(p, q);
    }
}
