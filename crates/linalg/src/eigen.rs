//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! Needed by the thin-SVD routine (`svd.rs`), which in turn powers the
//! MC / SoftImpute / PCA baselines. The Jacobi method is chosen because
//! it is simple, numerically robust for the small symmetric matrices we
//! feed it (`MᵀM` with `M ≤ ~20` columns, or covariance matrices), and
//! needs no external LAPACK.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition `A = Q Λ Qᵀ`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted descending.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as *columns*, in the same order.
    pub eigenvectors: Matrix,
}

/// Maximum number of Jacobi sweeps before reporting non-convergence.
const MAX_SWEEPS: usize = 100;

/// Computes the eigendecomposition of a symmetric matrix.
///
/// # Errors
/// - [`LinalgError::NotSquare`] if `a` is not square.
/// - [`LinalgError::NoConvergence`] if the off-diagonal mass does not
///   vanish within 100 Jacobi sweeps (does not happen for genuinely
///   symmetric finite inputs).
///
/// The input is *assumed* symmetric; only the upper triangle is read.
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(SymmetricEigen {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }
    let mut m = a.clone();
    let mut q = Matrix::identity(n);
    let tol = 1e-14 * a.frobenius_norm().max(1.0);

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m.get(i, j) * m.get(i, j);
            }
        }
        if off.sqrt() <= tol {
            return Ok(sorted(m, q, n));
        }
        for p in 0..n {
            for r in (p + 1)..n {
                let apq = m.get(p, r);
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(r, r);
                // Golub & Van Loan 8.4: rotation (c, s) that zeroes m[p, r]
                // in Jᵀ M J.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                rotate(&mut m, p, r, c, s);
                rotate_cols(&mut q, p, r, c, s);
            }
        }
    }
    Err(LinalgError::NoConvergence {
        routine: "jacobi_symmetric_eigen",
        iterations: MAX_SWEEPS,
    })
}

/// Applies the two-sided rotation `Jᵀ M J` for the Jacobi rotation `J`
/// acting on rows/columns `(p, r)` with cosine `c`, sine `s`.
fn rotate(m: &mut Matrix, p: usize, r: usize, c: f64, s: f64) {
    let n = m.rows();
    for k in 0..n {
        let mkp = m.get(k, p);
        let mkr = m.get(k, r);
        m.set(k, p, c * mkp - s * mkr);
        m.set(k, r, s * mkp + c * mkr);
    }
    for k in 0..n {
        let mpk = m.get(p, k);
        let mrk = m.get(r, k);
        m.set(p, k, c * mpk - s * mrk);
        m.set(r, k, s * mpk + c * mrk);
    }
}

/// Applies the rotation to the eigenvector accumulator (columns p, r).
fn rotate_cols(q: &mut Matrix, p: usize, r: usize, c: f64, s: f64) {
    let n = q.rows();
    for k in 0..n {
        let qkp = q.get(k, p);
        let qkr = q.get(k, r);
        q.set(k, p, c * qkp - s * qkr);
        q.set(k, r, s * qkp + c * qkr);
    }
}

fn sorted(m: Matrix, q: Matrix, n: usize) -> SymmetricEigen {
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&a, &b| diag[b].partial_cmp(&diag[a]).expect("finite eigenvalues"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for k in 0..n {
            eigenvectors.set(k, new_col, q.get(k, old_col));
        }
    }
    SymmetricEigen {
        eigenvalues,
        eigenvectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        let n = e.eigenvalues.len();
        let lam = Matrix::from_fn(n, n, |i, j| if i == j { e.eigenvalues[i] } else { 0.0 });
        let qt = e.eigenvectors.transpose();
        matmul(&matmul(&e.eigenvectors, &lam).unwrap(), &qt).unwrap()
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.eigenvalues.len(), 3);
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-10);
        assert!((e.eigenvalues[1] - 2.0).abs() < 1e-10);
        assert!((e.eigenvalues[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-10);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-10);
        assert!(reconstruct(&e).approx_eq(&a, 1e-10));
    }

    #[test]
    fn reconstruction_of_random_symmetric() {
        let base = Matrix::from_fn(6, 6, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.3 - 1.0);
        let a = base.add(&base.transpose()).unwrap().scale(0.5);
        let e = symmetric_eigen(&a).unwrap();
        assert!(reconstruct(&e).approx_eq(&a, 1e-8));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let base = Matrix::from_fn(5, 5, |i, j| ((i + j * j) % 7) as f64);
        let a = base.add(&base.transpose()).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let qtq = matmul(&e.eigenvectors.transpose(), &e.eigenvectors).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(5), 1e-9));
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let base = Matrix::from_fn(4, 4, |i, j| ((3 * i + j) % 5) as f64);
        let a = base.add(&base.transpose()).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn non_square_is_error() {
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_matrix_ok() {
        let e = symmetric_eigen(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn psd_gram_matrix_has_nonnegative_eigenvalues() {
        let b = Matrix::from_fn(8, 4, |i, j| ((i * 5 + j) % 9) as f64 * 0.2);
        let g = crate::ops::matmul_at(&b, &b).unwrap();
        let e = symmetric_eigen(&g).unwrap();
        for &v in &e.eigenvalues {
            assert!(v >= -1e-9, "gram eigenvalue {v} negative");
        }
    }
}
