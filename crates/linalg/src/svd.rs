//! Thin singular value decomposition.
//!
//! The spatial-data matrices of the paper are tall and skinny
//! (`N ≫ M`, with `M ≤ 13`), so the cheapest stable route is the Gram
//! trick: eigendecompose `AᵀA = V Λ Vᵀ` (an `M x M` symmetric problem
//! solved by the Jacobi routine in [`crate::eigen`]), set
//! `σ_i = sqrt(λ_i)` and `u_i = A v_i / σ_i`. When `A` is wide we apply
//! the same trick to `Aᵀ`.
//!
//! Powers the MC (singular-value thresholding), SoftImpute and PCA
//! baselines.

// Index-based loops mirror the linear-algebra formulas.
#![allow(clippy::needless_range_loop)]

use crate::eigen::symmetric_eigen;
use crate::error::Result;
use crate::matrix::Matrix;
use crate::ops::{matmul, matmul_at};

/// Thin SVD `A = U Σ Vᵀ` with `U: n x r`, `Σ: r`, `V: m x r`,
/// `r = min(n, m)`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns).
    pub u: Matrix,
    /// Singular values, sorted descending, all `>= 0`.
    pub sigma: Vec<f64>,
    /// Right singular vectors (columns).
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs `U Σ Vᵀ`.
    pub fn reconstruct(&self) -> Result<Matrix> {
        let us = scale_cols(&self.u, &self.sigma);
        matmul(&us, &self.v.transpose())
    }

    /// Reconstructs with every singular value soft-thresholded:
    /// `σ_i ← max(σ_i − tau, 0)` — the SoftImpute / SVT primitive.
    pub fn reconstruct_soft_threshold(&self, tau: f64) -> Result<Matrix> {
        let thresholded: Vec<f64> = self.sigma.iter().map(|&s| (s - tau).max(0.0)).collect();
        let us = scale_cols(&self.u, &thresholded);
        matmul(&us, &self.v.transpose())
    }

    /// Effective rank: number of singular values above `tol`.
    pub fn rank(&self, tol: f64) -> usize {
        self.sigma.iter().filter(|&&s| s > tol).count()
    }
}

/// Computes the thin SVD of `a`.
///
/// # Errors
/// Propagates eigensolver failures (which do not occur for finite input).
pub fn thin_svd(a: &Matrix) -> Result<Svd> {
    if a.rows() >= a.cols() {
        thin_svd_tall(a)
    } else {
        // SVD(Aᵀ) = (V, Σ, U); swap back.
        let s = thin_svd_tall(&a.transpose())?;
        Ok(Svd {
            u: s.v,
            sigma: s.sigma,
            v: s.u,
        })
    }
}

fn thin_svd_tall(a: &Matrix) -> Result<Svd> {
    let m = a.cols();
    let gram = matmul_at(a, a)?; // AᵀA, m x m
    let eig = symmetric_eigen(&gram)?;
    let sigma: Vec<f64> = eig.eigenvalues.iter().map(|&l| l.max(0.0).sqrt()).collect();
    let v = eig.eigenvectors; // m x m, columns = right singular vectors
                              // U = A V Σ⁻¹ column by column; zero columns for zero singular values.
    let av = matmul(a, &v)?; // n x m
    let mut u = Matrix::zeros(a.rows(), m);
    for j in 0..m {
        let s = sigma[j];
        if s > 1e-12 {
            for i in 0..a.rows() {
                u.set(i, j, av.get(i, j) / s);
            }
        }
    }
    Ok(Svd { u, sigma, v })
}

/// Scales column `j` of `m` by `factors[j]` (missing factors treated as 0).
fn scale_cols(m: &Matrix, factors: &[f64]) -> Matrix {
    Matrix::from_fn(m.rows(), m.cols(), |i, j| {
        m.get(i, j) * factors.get(j).copied().unwrap_or(0.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall() -> Matrix {
        Matrix::from_fn(8, 3, |i, j| ((i * 3 + j * 5) % 7) as f64 + 0.5)
    }

    #[test]
    fn reconstruction_matches_input_tall() {
        let a = tall();
        let s = thin_svd(&a).unwrap();
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-8));
    }

    #[test]
    fn reconstruction_matches_input_wide() {
        let a = tall().transpose();
        let s = thin_svd(&a).unwrap();
        assert_eq!(s.u.shape(), (3, 3));
        assert_eq!(s.v.shape(), (8, 3));
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-8));
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let s = thin_svd(&tall()).unwrap();
        for w in s.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(s.sigma.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn singular_vectors_orthonormal() {
        let s = thin_svd(&tall()).unwrap();
        let utu = matmul_at(&s.u, &s.u).unwrap();
        let vtv = matmul_at(&s.v, &s.v).unwrap();
        // U columns for nonzero sigma are orthonormal; this input is full rank.
        assert!(utu.approx_eq(&Matrix::identity(3), 1e-8));
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-8));
    }

    #[test]
    fn known_diagonal_svd() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]).unwrap();
        let s = thin_svd(&a).unwrap();
        assert!((s.sigma[0] - 4.0).abs() < 1e-10);
        assert!((s.sigma[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn rank_deficient_input() {
        // rank-1 matrix: outer product
        let a = Matrix::from_fn(5, 4, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0));
        let s = thin_svd(&a).unwrap();
        assert_eq!(s.rank(1e-8), 1);
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-8));
    }

    #[test]
    fn soft_threshold_shrinks_nuclear_norm() {
        let a = tall();
        let s = thin_svd(&a).unwrap();
        let rec = s.reconstruct_soft_threshold(0.5).unwrap();
        let s2 = thin_svd(&rec).unwrap();
        let nuclear_norm = |s: &Svd| s.sigma.iter().sum::<f64>();
        assert!(nuclear_norm(&s2) < nuclear_norm(&s));
        // Thresholding by more than sigma_max gives the zero matrix.
        let zero = s.reconstruct_soft_threshold(s.sigma[0] + 1.0).unwrap();
        assert!(zero.frobenius_norm() < 1e-10);
    }

    #[test]
    fn truncated_reconstruction_is_best_low_rank() {
        let a = tall();
        let s = thin_svd(&a).unwrap();
        let truncated = |rank: usize| {
            let kept: Vec<f64> = s
                .sigma
                .iter()
                .enumerate()
                .map(|(i, &x)| if i < rank { x } else { 0.0 })
                .collect();
            matmul(&scale_cols(&s.u, &kept), &s.v.transpose()).unwrap()
        };
        let r1 = truncated(1);
        let r2 = truncated(2);
        let e1 = a.sub(&r1).unwrap().frobenius_norm();
        let e2 = a.sub(&r2).unwrap().frobenius_norm();
        assert!(e2 <= e1 + 1e-12, "more rank must not increase error");
        // Eckart-Young: truncation error equals the tail singular values.
        let tail: f64 = s.sigma[1..].iter().map(|x| x * x).sum::<f64>();
        assert!((e1 * e1 - tail).abs() < 1e-6);
    }

    #[test]
    fn zero_matrix_svd() {
        let s = thin_svd(&Matrix::zeros(4, 2)).unwrap();
        assert!(s.sigma.iter().all(|&x| x == 0.0));
        assert!(s
            .reconstruct()
            .unwrap()
            .approx_eq(&Matrix::zeros(4, 2), 1e-12));
    }
}
