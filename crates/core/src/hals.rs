//! HALS — hierarchical alternating least squares, a third optimizer for
//! the SMFL objective (extension beyond the paper; Cichocki & Phan's
//! HALS is the strongest classical NMF solver and a natural ablation
//! against the paper's multiplicative rules).
//!
//! HALS minimizes the objective one factor *column* at a time with a
//! closed-form nonnegative coordinate update. For the masked spatial
//! objective
//! `O = ‖R_Ω(X − UV)‖² + λ·Tr(UᵀLU)` the coordinate minima are
//!
//! ```text
//! u_ik ← max(0, [ Σ_{j∈Ω_i} v_kj·r_ij + u_ik·Σ_{j∈Ω_i} v_kj² + λ(D·U)_ik ]
//!               / [ Σ_{j∈Ω_i} v_kj² + λ·w_ii ])
//! v_kj ← max(0, [ Σ_{i∈Ω_j} u_ik·r_ij + v_kj·Σ_{i∈Ω_j} u_ik² ]
//!               / [ Σ_{i∈Ω_j} u_ik² ])            for (k,j) ∉ Φ
//! ```
//!
//! where `r_ij = x_ij − (UV)_ij` is the current masked residual.
//! On the fused engine the residual lives in *packed* form over the
//! [`ObservedPattern`](smfl_linalg::ObservedPattern): the `U` sweep walks CSR rows, the `V` sweep
//! walks CSC columns (both touching only observed entries, `O(|Ω|)` per
//! coordinate pass instead of the previous `O(N·M)` mask probing), and
//! the incremental residual maintenance updates the packed values in
//! place. Landmark entries `Φ` are skipped exactly as in the
//! multiplicative updater. Each sweep is a sequence of exact coordinate
//! minimizations of a smooth objective over a convex set, so the
//! objective is non-increasing per sweep — the same guarantee the paper
//! proves for its rules, by a different argument.

use crate::objective::ObjectiveTerms;
use crate::updater::{open_sparse_step, UpdateContext};
use smfl_linalg::kernels::Workspace;
use smfl_linalg::{Matrix, Result};

// Denominator guard — the single workspace-wide constant.
use crate::health::DENOM_EPS as EPS;

/// One full HALS sweep (all K columns of `U`, then all live entries of
/// `V`) into `ws.u_next` / `ws.v_next`. Returns the objective terms of
/// the input factors, like the other updaters.
pub fn hals_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &Matrix,
    v: &Matrix,
) -> Result<ObjectiveTerms> {
    let pattern = ctx.pattern;
    let (n, m) = (pattern.rows(), pattern.cols());
    let k = u.cols();
    let v_start = ctx.v_start_col();

    // Packed masked residual r = R_Ω(X − UV) of the input, maintained
    // incrementally; the sweeps run on copies of the input factors.
    let fit = open_sparse_step(pattern, ws, u, v)?;
    pattern.residual_into(&ws.uv_vals, &mut ws.res_vals)?;
    ws.u_next.as_mut_slice().copy_from_slice(u.as_slice());
    ws.v_next.as_mut_slice().copy_from_slice(v.as_slice());
    let r = &mut ws.res_vals;

    // ---- U sweep: one latent column at a time ----
    let graph = ctx.active_graph();
    let mut laplacian = 0.0;
    for c in 0..k {
        // D·U column c into per-column scratch. Column c is still the
        // input's here (earlier sweeps touched only columns < c), so it
        // also yields column c's share of the input's Tr(UᵀLU).
        if let Some(g) = graph {
            for i in 0..n {
                ws.col_scratch[i] = g
                    .similarity
                    .row_entries(i)
                    .map(|(t, w)| w * u.get(t, c))
                    .sum();
            }
        }
        for i in 0..n {
            let mut numer = 0.0;
            let mut denom = 0.0;
            for (j, slot) in pattern.row_entries(i) {
                let vkj = v.get(c, j);
                numer += vkj * r[slot];
                denom += vkj * vkj;
            }
            let old = u.get(i, c);
            numer += old * denom;
            if let Some(g) = graph {
                numer += ctx.lambda * ws.col_scratch[i];
                denom += ctx.lambda * g.degree[i];
                laplacian += old * (g.degree[i] * old - ws.col_scratch[i]);
            }
            let new = (numer / (denom + EPS)).max(0.0);
            if new != old {
                // maintain the packed residual: r_e -= (new-old) * v_cj
                let delta = new - old;
                for (j, slot) in pattern.row_entries(i) {
                    r[slot] -= delta * v.get(c, j);
                }
                ws.u_next.set(i, c, new);
            }
        }
    }

    // ---- V sweep: live columns only, CSC-driven ----
    for c in 0..k {
        for j in v_start..m {
            let mut numer = 0.0;
            let mut denom = 0.0;
            for (i, slot) in pattern.col_entries(j) {
                let uic = ws.u_next.get(i, c);
                numer += uic * r[slot];
                denom += uic * uic;
            }
            let old = ws.v_next.get(c, j);
            numer += old * denom;
            let new = (numer / (denom + EPS)).max(0.0);
            if new != old {
                let delta = new - old;
                for (i, slot) in pattern.col_entries(j) {
                    r[slot] -= delta * ws.u_next.get(i, c);
                }
                ws.v_next.set(c, j, new);
            }
        }
    }
    debug_assert!(ctx
        .landmarks
        .is_none_or(|lm| lm.verify_injected(&ws.v_next)));

    ws.counters.hals_sweeps += 1;
    // Each sweep walks every observed entry once per latent column for
    // both factor passes.
    ws.counters.masked_nnz += (2 * k * pattern.nnz()) as u64;
    Ok(ObjectiveTerms { fit, laplacian })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::Landmarks;
    use smfl_linalg::kernels::ObservedPattern;
    use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
    use smfl_linalg::Mask;
    use smfl_spatial::{NeighborSearch, SpatialGraph};

    struct Setup {
        x: Matrix,
        pattern: ObservedPattern,
        graph: SpatialGraph,
    }

    fn setup(n: usize, m: usize, seed: u64) -> Setup {
        let x = uniform_matrix(n, m, 0.0, 1.0, seed);
        let mut omega = Mask::full(n, m);
        for i in (0..n).step_by(3) {
            omega.set(i, (i * 5 + 1) % m, false);
        }
        let si = x.columns(0, 2).unwrap();
        let graph = SpatialGraph::build(&si, 3, NeighborSearch::KdTree).unwrap();
        let pattern = ObservedPattern::compile(&x, &omega).unwrap();
        Setup { x, pattern, graph }
    }

    /// One committed sweep; returns the score of the factors it read.
    fn sweep(
        ctx: &UpdateContext<'_>,
        ws: &mut Workspace,
        u: &mut Matrix,
        v: &mut Matrix,
    ) -> Result<ObjectiveTerms> {
        let terms = hals_step(ctx, ws, u, v)?;
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
    fn objective_non_increasing_under_hals() {
        let s = setup(30, 5, 1);
        let ctx = s.ctx(true, 0.2, None);
        let mut ws = Workspace::new(&s.pattern, 4);
        let mut u = positive_uniform_matrix(30, 4, 2).scale(0.25);
        let mut v = positive_uniform_matrix(4, 5, 3);
        let mut prev = f64::INFINITY;
        for _ in 0..15 {
            let obj = sweep(&ctx, &mut ws, &mut u, &mut v).unwrap().objective(0.2);
            assert!(obj <= prev + 1e-9, "objective rose: {prev} -> {obj}");
            prev = obj;
        }
        let _ = &s.x;
    }

    #[test]
    fn hals_preserves_nonnegativity_and_landmarks() {
        let s = setup(25, 5, 4);
        let si = s.x.columns(0, 2).unwrap();
        let lm = Landmarks::compute(&si, 3, 300, 0).unwrap();
        let ctx = s.ctx(true, 0.1, Some(&lm));
        let mut ws = Workspace::new(&s.pattern, 3);
        let mut u = positive_uniform_matrix(25, 3, 5).scale(1.0 / 3.0);
        let mut v = positive_uniform_matrix(3, 5, 6);
        lm.inject(&mut v).unwrap();
        for _ in 0..8 {
            sweep(&ctx, &mut ws, &mut u, &mut v).unwrap();
            assert!(u.is_nonnegative(0.0));
            assert!(v.is_nonnegative(0.0));
            assert!(lm.verify_injected(&v));
        }
    }

    #[test]
    fn hals_converges_faster_per_sweep_than_multiplicative() {
        // The classical result: HALS reaches a given objective in fewer
        // sweeps. Compare objectives after the same number of sweeps.
        let s = setup(40, 6, 7);
        let sweeps = 10;
        let run_hals = || {
            let ctx = s.ctx(false, 0.0, None);
            let mut ws = Workspace::new(&s.pattern, 4);
            let mut u = positive_uniform_matrix(40, 4, 8).scale(0.25);
            let mut v = positive_uniform_matrix(4, 6, 9);
            let mut obj = f64::INFINITY;
            for _ in 0..sweeps {
                obj = sweep(&ctx, &mut ws, &mut u, &mut v).unwrap().objective(0.0);
            }
            obj
        };
        let run_multi = || {
            let ctx = s.ctx(false, 0.0, None);
            let mut ws = Workspace::new(&s.pattern, 4);
            let mut u = positive_uniform_matrix(40, 4, 8).scale(0.25);
            let mut v = positive_uniform_matrix(4, 6, 9);
            let mut obj = f64::INFINITY;
            for _ in 0..sweeps {
                obj = crate::updater::multiplicative_step(&ctx, &mut ws, &u, &v)
                    .unwrap()
                    .objective(0.0);
                ws.commit(&mut u, &mut v);
            }
            obj
        };
        let (hals, multi) = (run_hals(), run_multi());
        assert!(
            hals <= multi * 1.2,
            "HALS should match or beat multiplicative per sweep: {hals} vs {multi}"
        );
    }

    #[test]
    fn residual_bookkeeping_is_exact() {
        // After a sweep, the incrementally maintained packed residual
        // must match the freshly recomputed reconstruction (catching
        // incremental-update bugs).
        let s = setup(20, 4, 10);
        let ctx = s.ctx(false, 0.0, None);
        let mut ws = Workspace::new(&s.pattern, 3);
        let mut u = positive_uniform_matrix(20, 3, 11).scale(1.0 / 3.0);
        let mut v = positive_uniform_matrix(3, 4, 12);
        sweep(&ctx, &mut ws, &mut u, &mut v).unwrap();
        // ws.res_vals holds the maintained residual for the committed
        // factors; compare to x - a fresh SDDMM of them.
        let mut uv = vec![0.0; s.pattern.nnz()];
        s.pattern.sddmm_into(&u, &v.transpose(), &mut uv).unwrap();
        for (slot, (&res, &uv)) in ws.res_vals.iter().zip(&uv).enumerate() {
            let fresh = s.pattern.x_vals()[slot] - uv;
            assert!(
                (res - fresh).abs() < 1e-9,
                "slot {slot}: maintained {res} vs fresh {fresh}"
            );
        }
    }
}
