//! The SMFL objective function (paper Formula 10).
//!
//! `O(U, V) = ‖R_Ω(X − U·V)‖_F² + λ·Tr(Uᵀ L U)`
//!
//! The first term is evaluated only over observed cells (`Ω`); the
//! second is the spatial smoothness penalty over the kNN graph. The
//! convergence theorem of the paper (Propositions 5/7) says this value
//! is non-increasing under the multiplicative rules — the property
//! tests in this crate assert exactly that.

use smfl_linalg::mask::{masked_diff_norm_sq, masked_product};
use smfl_linalg::{Mask, Matrix, Result};
use smfl_spatial::SpatialGraph;

/// Evaluates the objective from scratch.
pub fn objective(
    x: &Matrix,
    omega: &Mask,
    u: &Matrix,
    v: &Matrix,
    lambda: f64,
    graph: Option<&SpatialGraph>,
) -> Result<f64> {
    let r = masked_product(u, v, omega)?;
    let fit_term = masked_diff_norm_sq(x, &r, omega)?;
    let reg_term = match graph {
        Some(g) if lambda != 0.0 => lambda * g.regularization(u)?,
        _ => 0.0,
    };
    Ok(fit_term + reg_term)
}

/// The two terms of the objective at the factors an update step
/// returns. Every step computes both from state it already has in hand,
/// so the fit loop never forms a reconstruction or re-walks the graph
/// for the objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveTerms {
    /// The fit term `‖R_Ω(X − UV)‖_F²`.
    pub fit: f64,
    /// The unscaled spatial term `Tr(Uᵀ L U)`; zero when the step ran
    /// without a graph or with `λ = 0`.
    pub laplacian: f64,
}

impl ObjectiveTerms {
    /// `fit + λ·laplacian` — the objective of Formula 10.
    pub fn objective(&self, lambda: f64) -> f64 {
        self.fit + lambda * self.laplacian
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};

    #[test]
    fn exact_factorization_has_zero_fit_term() {
        let u = positive_uniform_matrix(6, 2, 1);
        let v = positive_uniform_matrix(2, 4, 2);
        let x = smfl_linalg::ops::matmul(&u, &v).unwrap();
        let omega = Mask::full(6, 4);
        let o = objective(&x, &omega, &u, &v, 0.0, None).unwrap();
        assert!(o.abs() < 1e-18);
    }

    #[test]
    fn unobserved_cells_do_not_contribute() {
        let x = Matrix::filled(3, 3, 100.0);
        let u = Matrix::filled(3, 2, 0.0);
        let v = Matrix::filled(2, 3, 0.0);
        let omega = Mask::empty(3, 3); // nothing observed
        let o = objective(&x, &omega, &u, &v, 0.0, None).unwrap();
        assert_eq!(o, 0.0);
    }

    #[test]
    fn lambda_scales_regularization_linearly() {
        let si = uniform_matrix(10, 2, 0.0, 1.0, 3);
        let g = SpatialGraph::build(&si, 2).unwrap();
        let x = uniform_matrix(10, 4, 0.0, 1.0, 4);
        let u = positive_uniform_matrix(10, 3, 5);
        let v = positive_uniform_matrix(3, 4, 6);
        let omega = Mask::full(10, 4);
        let o0 = objective(&x, &omega, &u, &v, 0.0, Some(&g)).unwrap();
        let o1 = objective(&x, &omega, &u, &v, 1.0, Some(&g)).unwrap();
        let o2 = objective(&x, &omega, &u, &v, 2.0, Some(&g)).unwrap();
        let reg = o1 - o0;
        assert!(reg > 0.0);
        assert!(((o2 - o0) - 2.0 * reg).abs() < 1e-9);
    }

    #[test]
    fn missing_graph_means_no_regularization() {
        let x = uniform_matrix(5, 3, 0.0, 1.0, 7);
        let u = positive_uniform_matrix(5, 2, 8);
        let v = positive_uniform_matrix(2, 3, 9);
        let omega = Mask::full(5, 3);
        let with = objective(&x, &omega, &u, &v, 5.0, None).unwrap();
        let without = objective(&x, &omega, &u, &v, 0.0, None).unwrap();
        assert_eq!(with, without);
    }

    #[test]
    fn objective_terms_match_scratch() {
        let si = uniform_matrix(9, 2, 0.0, 1.0, 20);
        let g = SpatialGraph::build(&si, 2).unwrap();
        let x = uniform_matrix(9, 4, 0.0, 1.0, 21);
        let u = positive_uniform_matrix(9, 3, 22);
        let v = positive_uniform_matrix(3, 4, 23);
        let mut omega = Mask::full(9, 4);
        omega.set(2, 1, false);
        let pattern = smfl_linalg::ObservedPattern::compile(&x, &omega).unwrap();
        let vt = v.transpose();
        let mut uv = vec![0.0; pattern.nnz()];
        pattern.sddmm_into(&u, &vt, &mut uv).unwrap();
        let terms = ObjectiveTerms {
            fit: pattern.fit_term(&uv).unwrap(),
            laplacian: g.regularization(&u).unwrap(),
        };
        let a = terms.objective(0.7);
        let b = objective(&x, &omega, &u, &v, 0.7, Some(&g)).unwrap();
        assert!((a - b).abs() < 1e-10);
    }
}
