//! The two optimizers of paper §III-B.
//!
//! - [`multiplicative_step`] — the self-adaptive multiplicative rules
//!   (Formulas 13/14). Numerators and denominators are elementwise
//!   nonnegative for nonnegative input, so the iterates stay in the
//!   feasible region; denominators are guarded by [`EPS`] following
//!   standard Lee–Seung practice.
//! - [`gradient_step`] — projected gradient descent with a fixed
//!   learning rate (§III-B1), kept feasible by clamping at zero. This is
//!   the `SMF-GD` optimizer of Fig. 5.
//!
//! The multiplicative step has two implementations, picked per mask by
//! [`ObservedPattern::prefers_dense`]:
//!
//! - **Sparse** (masks at most `kernels::DENSE_PATH_THRESHOLD`
//!   observed): the reconstruction is evaluated at observed entries only
//!   (SDDMM into the packed [`Workspace::uv_vals`]) and the four
//!   update-rule products are CSR SpMM / SpMMᵀ against the per-fit
//!   [`ObservedPattern`]. The step leaves `ws.uv_vals` valid for the
//!   returned factors (`ws.uv_fresh`), letting the next step skip its
//!   opening SDDMM; mutate `U`/`V` between steps only via
//!   [`Workspace::invalidate`].
//! - **Fused dense** (denser masks, which covers every paper
//!   experiment): one row pass updates `U` and builds the `V`
//!   numerator/denominator from each new row, a second sums the fit and
//!   Laplacian terms; each row's reconstruction lives only in
//!   registers. See `dense_step.rs`.
//!
//! All scratch lives in the caller's [`Workspace`]: a serial step
//! allocates nothing (the fused step's runtime-rank instance, `K > 8`,
//! takes two `K`-length accumulators per row block), and neither path
//! ever builds an `N x M` matrix.
//!
//! Each step returns the [`ObjectiveTerms`] — fit term
//! `‖R_Ω(X − UV)‖_F²` and Laplacian term `Tr(UᵀLU)` — for the final
//! factors, so the fit loop needs no further work for the objective.
//!
//! Landmark handling: `Φ` covers the *whole* first `L` columns of `V`
//! (Definition 1), so the `V` update simply starts at column `L`; the
//! kernels skip the frozen columns entirely — this is the computation
//! the paper's §IV-E efficiency claim refers to.

use crate::landmarks::Landmarks;
use crate::objective::ObjectiveTerms;
use smfl_linalg::kernels::{ObservedPattern, Workspace};
use smfl_linalg::{Matrix, Result};
use smfl_spatial::SpatialGraph;

/// Denominator guard for the multiplicative rules — a re-export of the
/// workspace-wide [`crate::health::DENOM_EPS`], kept under its historic
/// name for existing callers.
pub use crate::health::DENOM_EPS as EPS;

/// Immutable per-fit quantities shared by every iteration.
pub struct UpdateContext<'a> {
    /// `Ω` + observed `X`, compiled once per fit.
    pub pattern: &'a ObservedPattern,
    /// Spatial graph (`None` for plain NMF).
    pub graph: Option<&'a SpatialGraph>,
    /// Regularization weight `λ`.
    pub lambda: f64,
    /// Landmarks (`None` for NMF/SMF).
    pub landmarks: Option<&'a Landmarks>,
}

impl UpdateContext<'_> {
    /// First live (non-frozen) column of `V`.
    pub(crate) fn v_start_col(&self) -> usize {
        self.landmarks.map_or(0, Landmarks::spatial_cols)
    }

    /// The graph when its term is active (`λ ≠ 0`).
    pub(crate) fn active_graph(&self) -> Option<&SpatialGraph> {
        self.graph.filter(|_| self.lambda != 0.0)
    }

    /// The objective terms for final factors `u` with fit term `fit`.
    pub(crate) fn terms(&self, fit: f64, u: &Matrix) -> Result<ObjectiveTerms> {
        let laplacian = match self.active_graph() {
            Some(g) => g.regularization(u)?,
            None => 0.0,
        };
        Ok(ObjectiveTerms { fit, laplacian })
    }
}

/// Refreshes `ws.vt` and `ws.uv_vals` for the current `(U, V)` unless
/// the workspace already vouches for them.
fn ensure_uv(
    pattern: &ObservedPattern,
    ws: &mut Workspace,
    u: &Matrix,
    v: &Matrix,
) -> Result<()> {
    if !ws.uv_fresh {
        v.transpose_into(&mut ws.vt)?;
        pattern.sddmm_into(u, &ws.vt, &mut ws.uv_vals)?;
        ws.counters.sddmm += 1;
        ws.counters.masked_nnz += pattern.nnz() as u64;
    }
    Ok(())
}

/// One multiplicative iteration: updates `U` by Formula 13, then `V` by
/// Formula 14 using the refreshed `U` (Algorithm 1 lines 8-9). Returns
/// the objective terms for the *final* `(U, V)`.
pub fn multiplicative_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &mut Matrix,
    v: &mut Matrix,
) -> Result<ObjectiveTerms> {
    if ctx.pattern.prefers_dense() {
        crate::dense_step::fused_dense_step(ctx, ws, u, v)
    } else {
        sparse_multiplicative_step(ctx, ws, u, v)
    }
}

/// The multiplicative step on the sparse kernels (SDDMM + SpMM/SpMMᵀ).
fn sparse_multiplicative_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &mut Matrix,
    v: &mut Matrix,
) -> Result<ObjectiveTerms> {
    let pattern = ctx.pattern;
    let nnz = pattern.nnz() as u64;

    // ---- U update (Formula 13) ----
    ensure_uv(pattern, ws, u, v)?;
    pattern.spmm_into(pattern.x_vals(), &ws.vt, &mut ws.numer_u)?; // R_Ω(X)·Vᵀ
    pattern.spmm_into(&ws.uv_vals, &ws.vt, &mut ws.denom_u)?; // R_Ω(UV)·Vᵀ
    ws.counters.spmm += 2;
    ws.counters.masked_nnz += 2 * nnz;
    match ctx.active_graph() {
        Some(g) => {
            g.similarity.spmm_into(u, &mut ws.reg_a)?; // D·U
            update_u_with_graph(u, ws, &g.degree, ctx.lambda);
        }
        None => {
            for ((x, &n), &d) in u
                .as_mut_slice()
                .iter_mut()
                .zip(ws.numer_u.as_slice())
                .zip(ws.denom_u.as_slice())
            {
                *x *= n / (d + EPS);
            }
        }
    }

    // ---- V update (Formula 14), live columns only ----
    pattern.sddmm_into(u, &ws.vt, &mut ws.uv_vals)?; // with refreshed U
    ws.counters.sddmm += 1;
    ws.counters.masked_nnz += nnz;
    let start = ctx.v_start_col();
    if start < v.cols() {
        // Uᵀ·R_Ω(X) and Uᵀ·R_Ω(UV), transposed layout, frozen landmark
        // rows skipped inside the kernel.
        pattern.spmm_t_into(pattern.x_vals(), u, start, &mut ws.numer_vt)?;
        pattern.spmm_t_into(&ws.uv_vals, u, start, &mut ws.denom_vt)?;
        ws.counters.spmm_t += 2;
        ws.counters.masked_nnz += 2 * nnz;
        update_v(v, &ws.numer_vt, &ws.denom_vt, start);
    }
    // Landmarks were never touched (whole columns skipped), so no
    // re-injection is needed; debug-check the invariant anyway.
    debug_assert!(ctx.landmarks.is_none_or(|lm| lm.verify_injected(v)));

    v.transpose_into(&mut ws.vt)?;
    pattern.sddmm_into(u, &ws.vt, &mut ws.uv_vals)?;
    ws.counters.sddmm += 1;
    ws.counters.masked_nnz += nnz;
    ws.uv_fresh = true;
    ctx.terms(pattern.fit_term(&ws.uv_vals)?, u)
}

/// Formula 13 with the spatial terms folded in elementwise:
/// `u_ik ← u_ik·(N_ik + λ·(D·U)_ik) / (Dn_ik + λ·w_i·u_ik + EPS)`, with
/// `N`/`Dn` in `ws.numer_u`/`ws.denom_u` and `D·U` in `ws.reg_a`.
fn update_u_with_graph(u: &mut Matrix, ws: &Workspace, degree: &[f64], lambda: f64) {
    let k = u.cols();
    if k == 0 {
        return;
    }
    let rows = u
        .as_mut_slice()
        .chunks_exact_mut(k)
        .zip(ws.numer_u.as_slice().chunks_exact(k))
        .zip(ws.denom_u.as_slice().chunks_exact(k))
        .zip(ws.reg_a.as_slice().chunks_exact(k))
        .zip(degree);
    for ((((urow, nrow), drow), grow), &w) in rows {
        for (((x, &n), &d), &g) in urow.iter_mut().zip(nrow).zip(drow).zip(grow) {
            *x *= (n + lambda * g) / (d + lambda * (w * *x) + EPS);
        }
    }
}

/// Formula 14's elementwise rule on the live columns `start..M`, from
/// numerator and denominator in transposed (`M x K`) layout.
pub(crate) fn update_v(v: &mut Matrix, numer_vt: &Matrix, denom_vt: &Matrix, start: usize) {
    for k in 0..v.rows() {
        for j in start..v.cols() {
            let val = v.get(k, j) * numer_vt.get(j, k) / (denom_vt.get(j, k) + EPS);
            v.set(k, j, val);
        }
    }
}

/// `u ← u − scale·L·U` row by row, from `D·U` in `du` and the degrees:
/// `(L·U)_ik = w_i·u_ik − (D·U)_ik`.
fn subtract_laplacian_u(u: &mut Matrix, du: &Matrix, degree: &[f64], scale: f64) {
    let k = u.cols();
    if k == 0 {
        return;
    }
    let rows = u
        .as_mut_slice()
        .chunks_exact_mut(k)
        .zip(du.as_slice().chunks_exact(k))
        .zip(degree);
    for ((urow, drow), &w) in rows {
        for (x, &d) in urow.iter_mut().zip(drow) {
            *x -= scale * (w * *x - d);
        }
    }
}

/// One projected-gradient iteration (paper §III-B1). Returns the
/// objective terms for the updated factors. Always runs on the sparse
/// engine (the gradient only ever needs the masked residual).
pub fn gradient_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &mut Matrix,
    v: &mut Matrix,
    learning_rate: f64,
) -> Result<ObjectiveTerms> {
    let pattern = ctx.pattern;
    let nnz = pattern.nnz() as u64;

    // ∂O/∂U = −2·R_Ω(X − UV)·Vᵀ + 2λ·L·U, with L·U = w∘U − D·U
    ensure_uv(pattern, ws, u, v)?;
    pattern.residual_into(&ws.uv_vals, &mut ws.res_vals)?; // R_Ω(X − UV)
    pattern.spmm_into(&ws.res_vals, &ws.vt, &mut ws.numer_u)?;
    ws.counters.spmm += 1;
    ws.counters.masked_nnz += nnz;
    if let Some(g) = ctx.active_graph() {
        g.similarity.spmm_into(u, &mut ws.reg_a)?; // D·U
        subtract_laplacian_u(u, &ws.reg_a, &g.degree, 2.0 * learning_rate * ctx.lambda);
    }
    u.axpy(2.0 * learning_rate, &ws.numer_u)?;
    u.clamp_min(0.0);

    // ∂O/∂V = −2·Uᵀ·R_Ω(X − UV), frozen columns get zero gradient.
    pattern.sddmm_into(u, &ws.vt, &mut ws.uv_vals)?;
    ws.counters.sddmm += 1;
    ws.counters.masked_nnz += nnz;
    pattern.residual_into(&ws.uv_vals, &mut ws.res_vals)?;
    let start = ctx.v_start_col();
    if start < v.cols() {
        pattern.spmm_t_into(&ws.res_vals, u, start, &mut ws.numer_vt)?;
        ws.counters.spmm_t += 1;
        ws.counters.masked_nnz += nnz;
        for k in 0..v.rows() {
            for j in start..v.cols() {
                let step = 2.0 * learning_rate * ws.numer_vt.get(j, k);
                let val = (v.get(k, j) + step).max(0.0);
                v.set(k, j, val);
            }
        }
    }
    debug_assert!(ctx.landmarks.is_none_or(|lm| lm.verify_injected(v)));

    v.transpose_into(&mut ws.vt)?;
    pattern.sddmm_into(u, &ws.vt, &mut ws.uv_vals)?;
    ws.counters.sddmm += 1;
    ws.counters.masked_nnz += nnz;
    ws.uv_fresh = true;
    ctx.terms(pattern.fit_term(&ws.uv_vals)?, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
    use smfl_linalg::Mask;
    use smfl_spatial::NeighborSearch;

    struct Setup {
        x: Matrix,
        omega: Mask,
        pattern: ObservedPattern,
        graph: SpatialGraph,
    }

    fn setup(n: usize, m: usize, seed: u64) -> Setup {
        let x = uniform_matrix(n, m, 0.0, 1.0, seed);
        let mut omega = Mask::full(n, m);
        // knock out ~10% of cells deterministically
        for i in 0..n {
            if i % 3 == 0 {
                omega.set(i, (i * 7) % m, false);
            }
        }
        let si = x.columns(0, 2).unwrap();
        let graph = SpatialGraph::build(&si, 3, NeighborSearch::KdTree).unwrap();
        let pattern = ObservedPattern::compile(&x, &omega).unwrap();
        Setup {
            x,
            omega,
            pattern,
            graph,
        }
    }

    impl Setup {
        fn ctx<'a>(
            &'a self,
            graph: bool,
            lambda: f64,
            landmarks: Option<&'a Landmarks>,
        ) -> UpdateContext<'a> {
            UpdateContext {
                pattern: &self.pattern,
                graph: graph.then_some(&self.graph),
                lambda,
                landmarks,
            }
        }
    }

    #[test]
    fn multiplicative_objective_non_increasing() {
        // Paper Propositions 5 & 7, smoke version (the full property test
        // lives in tests/convergence.rs).
        let s = setup(30, 5, 1);
        let ctx = s.ctx(true, 0.1, None);
        let mut ws = Workspace::new(&s.pattern, 4);
        let mut u = positive_uniform_matrix(30, 4, 2);
        let mut v = positive_uniform_matrix(4, 5, 3);
        let mut prev = f64::INFINITY;
        for _ in 0..20 {
            let obj = multiplicative_step(&ctx, &mut ws, &mut u, &mut v)
                .unwrap()
                .objective(0.1);
            assert!(obj <= prev + 1e-9, "objective rose: {prev} -> {obj}");
            prev = obj;
        }
        let _ = &s.x;
    }

    #[test]
    fn multiplicative_preserves_nonnegativity() {
        let s = setup(20, 4, 5);
        let ctx = s.ctx(true, 0.5, None);
        let mut ws = Workspace::new(&s.pattern, 3);
        let mut u = positive_uniform_matrix(20, 3, 6);
        let mut v = positive_uniform_matrix(3, 4, 7);
        for _ in 0..10 {
            multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap();
            assert!(u.is_nonnegative(0.0));
            assert!(v.is_nonnegative(0.0));
            assert!(u.all_finite());
            assert!(v.all_finite());
        }
    }

    #[test]
    fn landmarks_stay_fixed_under_both_updaters() {
        let s = setup(25, 5, 8);
        let si = s.x.columns(0, 2).unwrap();
        let lm = Landmarks::compute(&si, 3, 300, 0).unwrap();
        for gd in [false, true] {
            let ctx = s.ctx(true, 0.1, Some(&lm));
            let mut ws = Workspace::new(&s.pattern, 3);
            let mut u = positive_uniform_matrix(25, 3, 9);
            let mut v = positive_uniform_matrix(3, 5, 10);
            lm.inject(&mut v).unwrap();
            for _ in 0..8 {
                if gd {
                    gradient_step(&ctx, &mut ws, &mut u, &mut v, 0.01).unwrap();
                } else {
                    multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap();
                }
                assert!(lm.verify_injected(&v), "landmarks drifted (gd={gd})");
            }
        }
    }

    #[test]
    fn gradient_step_reduces_objective_with_small_lr() {
        let s = setup(20, 4, 11);
        let ctx = s.ctx(false, 0.0, None);
        let mut ws = Workspace::new(&s.pattern, 3);
        let mut u = positive_uniform_matrix(20, 3, 12);
        let mut v = positive_uniform_matrix(3, 4, 13);
        let before = crate::objective::objective(&s.x, &s.omega, &u, &v, 0.0, None).unwrap();
        let mut last = before;
        for _ in 0..50 {
            last = gradient_step(&ctx, &mut ws, &mut u, &mut v, 1e-3)
                .unwrap()
                .objective(0.0);
        }
        assert!(last < before, "GD failed to reduce objective: {before} -> {last}");
        assert!(u.is_nonnegative(0.0) && v.is_nonnegative(0.0));
    }

    #[test]
    fn unobserved_cells_never_influence_updates() {
        // Two datasets identical on Ω but wildly different on Ψ must
        // produce identical factor trajectories.
        let s = setup(15, 4, 14);
        let mut x2 = s.x.clone();
        for (i, j) in s.omega.complement().iter_set() {
            x2.set(i, j, 1e6);
        }
        let masked = |x: &Matrix| s.omega.apply(x).unwrap();
        assert!(masked(&x2).approx_eq(&masked(&s.x), 0.0));
        let pattern2 = ObservedPattern::compile(&x2, &s.omega).unwrap();

        let run = |pattern: &ObservedPattern| {
            let ctx = UpdateContext {
                pattern,
                graph: Some(&s.graph),
                lambda: 0.1,
                landmarks: None,
            };
            let mut ws = Workspace::new(pattern, 3);
            let mut u = positive_uniform_matrix(15, 3, 15);
            let mut v = positive_uniform_matrix(3, 4, 16);
            for _ in 0..5 {
                multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap();
            }
            (u, v)
        };
        let (u1, v1) = run(&s.pattern);
        let (u2, v2) = run(&pattern2);
        assert!(u1.approx_eq(&u2, 0.0));
        assert!(v1.approx_eq(&v2, 0.0));
    }

    #[test]
    fn zero_lambda_matches_no_graph() {
        let s = setup(12, 4, 20);
        let mut u1 = positive_uniform_matrix(12, 2, 21);
        let mut v1 = positive_uniform_matrix(2, 4, 22);
        let mut u2 = u1.clone();
        let mut v2 = v1.clone();
        let with_graph = s.ctx(true, 0.0, None);
        let without = s.ctx(false, 0.0, None);
        let mut ws1 = Workspace::new(&s.pattern, 2);
        let mut ws2 = Workspace::new(&s.pattern, 2);
        multiplicative_step(&with_graph, &mut ws1, &mut u1, &mut v1).unwrap();
        multiplicative_step(&without, &mut ws2, &mut u2, &mut v2).unwrap();
        assert!(u1.approx_eq(&u2, 0.0));
        assert!(v1.approx_eq(&v2, 0.0));
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        // ~90% observed: the public entry point takes the fused dense
        // step. Drive both implementations directly from the same start,
        // with graph and landmarks, and compare after every iteration.
        let s = setup(18, 5, 30);
        let si = s.x.columns(0, 2).unwrap();
        let lm = Landmarks::compute(&si, 3, 300, 0).unwrap();
        for landmarks in [None, Some(&lm)] {
            let ctx = s.ctx(true, 0.2, landmarks);
            assert!(ctx.pattern.prefers_dense());
            let mut ws_sparse = Workspace::new(&s.pattern, 3);
            let mut ws_dense = Workspace::new(&s.pattern, 3);
            let mut u1 = positive_uniform_matrix(18, 3, 31);
            let mut v1 = positive_uniform_matrix(3, 5, 32);
            if let Some(lm) = landmarks {
                lm.inject(&mut v1).unwrap();
            }
            let (mut u2, mut v2) = (u1.clone(), v1.clone());
            for _ in 0..6 {
                let a = sparse_multiplicative_step(&ctx, &mut ws_sparse, &mut u1, &mut v1).unwrap();
                let b = crate::dense_step::fused_dense_step(&ctx, &mut ws_dense, &mut u2, &mut v2)
                    .unwrap();
                assert!((a.fit - b.fit).abs() <= 1e-10 * a.fit.abs().max(1.0));
                assert!((a.laplacian - b.laplacian).abs() <= 1e-10 * a.laplacian.abs().max(1.0));
                assert!(u1.approx_eq(&u2, 1e-10));
                assert!(v1.approx_eq(&v2, 1e-10));
            }
            assert_eq!(ws_dense.counters.dense_steps, 6);
            assert_eq!(ws_sparse.counters.dense_steps, 0);
        }
    }
}
