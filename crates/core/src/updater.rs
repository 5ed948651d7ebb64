//! The two optimizers of paper §III-B.
//!
//! - [`multiplicative_step`] — the self-adaptive multiplicative rules
//!   (Formulas 13/14). Numerators and denominators are elementwise
//!   nonnegative for nonnegative input, so the iterates stay in the
//!   feasible region; denominators are guarded by [`DENOM_EPS`](crate::DENOM_EPS)
//!   following standard Lee–Seung practice.
//! - [`gradient_step`] — projected gradient descent with a fixed
//!   learning rate (§III-B1), kept feasible by clamping at zero. This is
//!   the `SMF-GD` optimizer of Fig. 5.
//!
//! **Step contract**: a step reads the committed `(U, V)`, writes the
//! next iterate into [`Workspace::u_next`] / [`Workspace::v_next`]
//! (frozen landmark columns included), and returns the
//! [`ObjectiveTerms`] — fit term `‖R_Ω(X − UV)‖_F²` and Laplacian term
//! `Tr(UᵀLU)` — of the factors it **read**, computed from the
//! reconstruction and `D·U` the update forms anyway. The caller judges
//! that score and then adopts the candidate with [`Workspace::commit`],
//! so stopping, failing or rolling back never needs an undo. [`score`]
//! evaluates the last committed iterate, which no further step reads.
//!
//! Both rules share one body, the fused step of `fused_step.rs`: a row
//! pass updates `U` and scores the input, a column pass updates `V`, and
//! each reconstruction lives only in registers. The rules differ only in
//! how an entry combines the passes' sums. Gradient descent takes the
//! fused step at every density. The multiplicative step picks its
//! implementation per mask by [`ObservedPattern::prefers_dense`]:
//!
//! - **Fused** (masks above `kernels::DENSE_PATH_THRESHOLD` observed,
//!   which covers every paper experiment).
//! - **Sparse** (sparser masks): `U` by the sparse kernels against the
//!   per-fit [`ObservedPattern`] — one SDDMM of the input into the packed
//!   [`Workspace::uv_vals`], which also gives the fit term, then CSR SpMM
//!   for `R_Ω(X)·Vᵀ` and `R_Ω(UV)·Vᵀ` and the graph terms, combined by
//!   the same rule as the fused row pass — then `V` by the fused step's
//!   column pass, so Formula 14 has one implementation.
//!
//! Every per-iteration loop — the fused passes, the sparse kernels, the
//! sparse step's graph-term and combine loop (`SparseRows`) and the
//! closing [`score`] — runs through [`smfl_linalg::simd::dispatch`],
//! which picks the AVX2 instance of the loop when the CPU has AVX2.
//!
//! Every kernel with a `K`-wide loop (the fused passes, the SDDMM and
//! the SpMM) is written once, generic over the rank, and runs in a
//! compile-time-`K` instance at every rank of `smfl_linalg::rank`'s
//! table (K = 1..=8, 10, 12 and 20) and in a runtime-`K` instance at any
//! other rank.
//!
//! All scratch lives in the caller's [`Workspace`]: a serial step
//! allocates nothing once the workspace is sized (at a rank outside the
//! table, the runtime instance allocates its `4·K` accumulators once per
//! kernel call: per row block of the row pass and per column stripe of
//! the column pass; the SpMM sums in its output rows), and neither path
//! ever builds an `N x M` matrix.
//!
//! Landmark handling: `Φ` covers the *whole* first `L` columns of `V`
//! (Definition 1), so the `V` update simply starts at column `L`; the
//! kernels skip the frozen columns entirely — this is the computation
//! the paper's §IV-E efficiency claim refers to.

use crate::fused_step::{column_step, fused_step, Gradient, Multiplicative, Rule};
use crate::landmarks::Landmarks;
use crate::objective::ObjectiveTerms;
use smfl_linalg::kernels::{ObservedPattern, Workspace};
use smfl_linalg::ops::dot;
use smfl_linalg::simd::{dispatch, Kernel};
use smfl_linalg::{Matrix, Result};
use smfl_spatial::SpatialGraph;

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
}

/// The objective terms of `(u, v)` without updating them: the scoring
/// pass that closes a fit, since each step scores only the factors it
/// reads. One serial pass over the CSR rows plus one over the graph.
pub fn score(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &Matrix,
    v: &Matrix,
) -> Result<ObjectiveTerms> {
    v.transpose_into(&mut ws.vt)?;
    let laplacian = match ctx.active_graph() {
        Some(g) => g.regularization(u)?,
        None => 0.0,
    };
    Ok(ObjectiveTerms {
        fit: ctx.pattern.fit_term_from(u, &ws.vt)?,
        laplacian,
    })
}

/// One multiplicative iteration: the candidate `U` by Formula 13, then
/// `V` by Formula 14 using that candidate (Algorithm 1 lines 8-9), into
/// `ws.u_next` / `ws.v_next`. Returns the objective terms of the input
/// `(u, v)`.
pub fn multiplicative_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &Matrix,
    v: &Matrix,
) -> Result<ObjectiveTerms> {
    if ctx.pattern.prefers_dense() {
        fused_step(ctx, ws, u, v, Multiplicative)
    } else {
        sparse_multiplicative_step(ctx, ws, u, v)
    }
}

/// The multiplicative step on the sparse kernels for `U` (SDDMM +
/// SpMM), then the fused step's column pass for `V`.
fn sparse_multiplicative_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &Matrix,
    v: &Matrix,
) -> Result<ObjectiveTerms> {
    let pattern = ctx.pattern;

    // ---- Score the input; U update (Formula 13) ----
    ws.size_sparse(pattern.nnz());
    v.transpose_into(&mut ws.vt)?;
    pattern.sddmm_into(u, &ws.vt, &mut ws.uv_vals)?; // R_Ω(UV)
    ws.counters.sddmm += 1;
    let fit = pattern.fit_term(&ws.uv_vals)?;
    pattern.spmm_into(pattern.x_vals(), &ws.vt, &mut ws.u_next)?; // R_Ω(X)·Vᵀ
    pattern.spmm_into(&ws.uv_vals, &ws.vt, &mut ws.denom_u)?; // R_Ω(UV)·Vᵀ
    ws.counters.spmm += 2;
    let laplacian = dispatch(SparseRows {
        graph: ctx.active_graph(),
        lambda: ctx.lambda,
        u,
        du: &mut ws.reg_a,
        numer: &mut ws.u_next,
        denom: &mut ws.denom_u,
    });

    // ---- V update (Formula 14): the fused step's column pass ----
    column_step(ctx, ws, Multiplicative)?;
    // Four passes over Ω: the SDDMM, two SpMMs and the column pass.
    ws.counters.masked_nnz += 4 * pattern.nnz() as u64;
    Ok(ObjectiveTerms { fit, laplacian })
}

/// The sparse step's `U` update (Formula 13) from the SpMM sums in
/// `numer` (`R_Ω(X)·Vᵀ`) and `denom` (`R_Ω(UV)·Vᵀ`). With a graph it
/// first forms `D·U` in `du` (row `i` the sum of `u`'s rows at `i`'s
/// neighbours, in ascending order) and folds `λ·(D·U)_i` into the
/// numerator and `λ·w_i·u_i` into the denominator. Writes the new `U`
/// over `numer` and returns `Tr(UᵀLU) = Σ_i w_i·|u_i|² − u_i·(D·U)_i`
/// (0 without a graph).
struct SparseRows<'a> {
    graph: Option<&'a SpatialGraph>,
    lambda: f64,
    u: &'a Matrix,
    du: &'a mut Matrix,
    numer: &'a mut Matrix,
    denom: &'a mut Matrix,
}

impl Kernel for SparseRows<'_> {
    type Out = f64;

    #[inline(always)]
    fn run(self) -> f64 {
        let (u, lambda) = (self.u.as_slice(), self.lambda);
        let k = self.u.cols().max(1);
        let mut laplacian = 0.0;
        if let Some(g) = self.graph {
            let du = self.du.as_mut_slice();
            du.fill(0.0);
            for (i, drow) in du.chunks_exact_mut(k).enumerate() {
                for &t in g.neighbors(i) {
                    for (o, &b) in drow.iter_mut().zip(&u[t as usize * k..][..k]) {
                        *o += b;
                    }
                }
            }
            let rows = self
                .numer
                .as_mut_slice()
                .chunks_exact_mut(k)
                .zip(self.denom.as_mut_slice().chunks_exact_mut(k))
                .zip(u.chunks_exact(k))
                .zip(du.chunks_exact(k));
            for (i, (((nrow, drow), urow), grow)) in rows.enumerate() {
                let w = g.degree(i);
                laplacian += w * dot(urow, urow) - dot(urow, grow);
                for (((nt, dt), &a), &du) in nrow.iter_mut().zip(drow).zip(urow).zip(grow) {
                    *nt += lambda * du;
                    *dt += lambda * (w * a);
                }
            }
        }
        let rows = self.numer.as_mut_slice().iter_mut().zip(u);
        for ((o, &a), &d) in rows.zip(self.denom.as_slice()) {
            *o = Multiplicative.u(a, *o, d);
        }
        laplacian
    }
}

/// One projected-gradient iteration (paper §III-B1) into `ws.u_next` /
/// `ws.v_next`: `U ← max(0, U − η·∂O/∂U)`, then `V ← max(0, V − η·∂O/∂V)`
/// on the live columns, at the new `U`. Returns the objective terms of
/// the input factors.
pub fn gradient_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &Matrix,
    v: &Matrix,
    learning_rate: f64,
) -> Result<ObjectiveTerms> {
    let rule = Gradient {
        step: 2.0 * learning_rate,
    };
    fused_step(ctx, ws, u, v, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
    use smfl_linalg::Mask;

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
        let graph = SpatialGraph::build(&si, 3).unwrap();
        let pattern = ObservedPattern::compile(&x, &omega).unwrap();
        Setup {
            x,
            omega,
            pattern,
            graph,
        }
    }

    /// One committed multiplicative step; returns the score of the
    /// factors it read.
    fn mult(
        ctx: &UpdateContext<'_>,
        ws: &mut Workspace,
        u: &mut Matrix,
        v: &mut Matrix,
    ) -> Result<ObjectiveTerms> {
        let terms = multiplicative_step(ctx, ws, u, v)?;
        ws.commit(u, v);
        Ok(terms)
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
            let obj = mult(&ctx, &mut ws, &mut u, &mut v).unwrap().objective(0.1);
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
            mult(&ctx, &mut ws, &mut u, &mut v).unwrap();
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
                    gradient_step(&ctx, &mut ws, &u, &v, 0.01).unwrap();
                    ws.commit(&mut u, &mut v);
                } else {
                    mult(&ctx, &mut ws, &mut u, &mut v).unwrap();
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
            last = gradient_step(&ctx, &mut ws, &u, &v, 1e-3)
                .unwrap()
                .objective(0.0);
            ws.commit(&mut u, &mut v);
        }
        assert!(
            last < before,
            "GD failed to reduce objective: {before} -> {last}"
        );
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
                mult(&ctx, &mut ws, &mut u, &mut v).unwrap();
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
        mult(&with_graph, &mut ws1, &mut u1, &mut v1).unwrap();
        mult(&without, &mut ws2, &mut u2, &mut v2).unwrap();
        assert!(u1.approx_eq(&u2, 0.0));
        assert!(v1.approx_eq(&v2, 0.0));
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        // ~90% observed: the public entry point takes the fused step.
        // Drive both implementations directly from the same start, with
        // graph and landmarks, and compare after every iteration.
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
                let a = sparse_multiplicative_step(&ctx, &mut ws_sparse, &u1, &v1).unwrap();
                let b = fused_step(&ctx, &mut ws_dense, &u2, &v2, Multiplicative).unwrap();
                ws_sparse.commit(&mut u1, &mut v1);
                ws_dense.commit(&mut u2, &mut v2);
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
