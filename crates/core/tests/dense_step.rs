//! The fused dense multiplicative step and the gradient step against
//! naive oracles.
//!
//! Masks above 50% observed take the fused row-streaming step of
//! `multiplicative_step`. This suite pins it to the textbook matmul
//! formulation of Formulas 13/14 — dense `U·V`, masked, then the four
//! products, the graph terms through dense `D`/`W`/`L` (with `L` built
//! here as `diag(w) − D`) — which is kept here only, as a reference. It
//! checks, step by step:
//!
//! - `U`, `V`, the fit term and the Laplacian term agree to 1e-10
//!   relative, at `M ∈ {7, 13}` and `K ∈ {1, 6, 8, 11}` (`K = 11` runs
//!   the runtime-rank instance), densities 0.6–1.0, with and without
//!   the graph term and landmarks;
//! - `gradient_step`, which applies `L·U` as `w∘U − D·U`, agrees with
//!   the dense projected-gradient rule to 1e-12 relative, with and
//!   without the graph and landmarks, at λ ∈ {0, 10};
//! - landmark columns of `V` stay bitwise frozen;
//! - above the parallel-dispatch threshold the objective stream and the
//!   factors are bitwise identical at `SMFL_THREADS` 1 and 4 (checked in
//!   child processes, since the thread count is fixed per process).

use proptest::prelude::*;
use smfl_core::updater::{gradient_step, multiplicative_step, UpdateContext, EPS};
use smfl_core::Landmarks;
use smfl_linalg::mask::masked_product;
use smfl_linalg::ops::{matmul, matmul_at, matmul_bt};
use smfl_linalg::parallel::{max_threads, threads_for};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, Matrix, ObservedPattern, Workspace};
use smfl_spatial::{NeighborSearch, SpatialGraph};
use std::process::Command;

const TOL: f64 = 1e-10;
/// The gradient step differs from its oracle only in summation order.
const GD_TOL: f64 = 1e-12;

/// A spatial table (first two columns are coordinates) and an i.i.d.
/// mask at `density`, with row 0 fully observed.
fn problem(n: usize, m: usize, density: f64, seed: u64) -> (Matrix, Mask) {
    let x = uniform_matrix(n, m, 0.0, 1.0, seed);
    let sel = uniform_matrix(n, m, 0.0, 1.0, seed.wrapping_add(1));
    let mut omega = Mask::empty(n, m);
    for i in 0..n {
        for j in 0..m {
            if i == 0 || sel.get(i, j) < density {
                omega.set(i, j, true);
            }
        }
    }
    (x, omega)
}

/// The graph Laplacian `L = diag(w) − D`, dense.
fn dense_laplacian(g: &SpatialGraph) -> Matrix {
    let mut l = g.similarity.to_dense().scale(-1.0);
    for (i, &w) in g.degree.iter().enumerate() {
        l.set(i, i, w);
    }
    l
}

/// `Σ_ij u_ij·(L·U)_ij = Tr(Uᵀ L U)`.
fn laplacian_term(g: &SpatialGraph, u: &Matrix) -> f64 {
    let lu = matmul(&dense_laplacian(g), u).unwrap();
    u.as_slice().iter().zip(lu.as_slice()).map(|(a, b)| a * b).sum()
}

/// `‖R_Ω(X − UV)‖²`.
fn fit_term(x: &Matrix, omega: &Mask, u: &Matrix, v: &Matrix) -> f64 {
    let recon = matmul(u, v).unwrap();
    omega
        .iter_set()
        .map(|(i, j)| {
            let d = x.get(i, j) - recon.get(i, j);
            d * d
        })
        .sum()
}

/// One projected-gradient step in dense form (paper §III-B1):
/// `U ← max(0, U + 2η(R_Ω(X − UV)·Vᵀ − λ·L·U))`, then on the live
/// columns `V ← max(0, V + 2η·Uᵀ·R_Ω(X − UV))` with the new `U`.
/// `graph` is the active graph term (`None` when λ = 0). Returns
/// `(U', V', fit, Tr(U'ᵀ L U'))`.
fn gd_oracle_step(
    x: &Matrix,
    omega: &Mask,
    u: &Matrix,
    v: &Matrix,
    graph: Option<(&SpatialGraph, f64)>,
    v_start: usize,
    eta: f64,
) -> (Matrix, Matrix, f64, f64) {
    let masked_x = omega.apply(x).unwrap();
    let residual = |u: &Matrix| masked_x.sub(&masked_product(u, v, omega).unwrap()).unwrap();

    let mut grad_u = matmul_bt(&residual(u), v).unwrap();
    if let Some((g, lambda)) = graph {
        grad_u.axpy(-lambda, &matmul(&dense_laplacian(g), u).unwrap()).unwrap();
    }
    let u_new = Matrix::from_fn(u.rows(), u.cols(), |i, t| {
        (u.get(i, t) + 2.0 * eta * grad_u.get(i, t)).max(0.0)
    });

    let grad_v = matmul_at(&u_new, &residual(&u_new)).unwrap();
    let v_new = Matrix::from_fn(v.rows(), v.cols(), |t, j| {
        if j < v_start {
            v.get(t, j)
        } else {
            (v.get(t, j) + 2.0 * eta * grad_v.get(t, j)).max(0.0)
        }
    });

    let fit = fit_term(x, omega, &u_new, &v_new);
    let laplacian = graph.map_or(0.0, |(g, _)| laplacian_term(g, &u_new));
    (u_new, v_new, fit, laplacian)
}

/// One multiplicative step in the dense matmul formulation. Returns
/// `(U', V', fit, Tr(U'ᵀ L U'))`.
fn oracle_step(
    x: &Matrix,
    omega: &Mask,
    u: &Matrix,
    v: &Matrix,
    graph: Option<(&SpatialGraph, f64)>,
    v_start: usize,
) -> (Matrix, Matrix, f64, f64) {
    let masked_x = omega.apply(x).unwrap();

    // Formula 13: U ∘ (R_Ω(X)·Vᵀ + λ·D·U) / (R_Ω(UV)·Vᵀ + λ·W·U).
    let r = masked_product(u, v, omega).unwrap();
    let mut numer = matmul_bt(&masked_x, v).unwrap();
    let mut denom = matmul_bt(&r, v).unwrap();
    if let Some((g, lambda)) = graph {
        let d = g.similarity.to_dense();
        let w = Matrix::from_fn(
            u.rows(),
            u.rows(),
            |i, j| if i == j { g.degree[i] } else { 0.0 },
        );
        numer.axpy(lambda, &matmul(&d, u).unwrap()).unwrap();
        denom.axpy(lambda, &matmul(&w, u).unwrap()).unwrap();
    }
    let u_new = Matrix::from_fn(u.rows(), u.cols(), |i, t| {
        u.get(i, t) * numer.get(i, t) / (denom.get(i, t) + EPS)
    });

    // Formula 14 on the live columns: V ∘ (Uᵀ·R_Ω(X)) / (Uᵀ·R_Ω(UV)).
    let r = masked_product(&u_new, v, omega).unwrap();
    let numer = matmul_at(&u_new, &masked_x).unwrap();
    let denom = matmul_at(&u_new, &r).unwrap();
    let v_new = Matrix::from_fn(v.rows(), v.cols(), |t, j| {
        if j < v_start {
            v.get(t, j)
        } else {
            v.get(t, j) * numer.get(t, j) / (denom.get(t, j) + EPS)
        }
    });

    let fit = fit_term(x, omega, &u_new, &v_new);
    let laplacian = graph.map_or(0.0, |(g, _)| laplacian_term(g, &u_new));
    (u_new, v_new, fit, laplacian)
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| rel_diff(x, y))
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_dense_step_matches_matmul_oracle(
        n in 20usize..70,
        m_sel in 0usize..2,
        k_sel in 0usize..4,
        density in 0.6f64..1.0,
        with_graph in 0usize..2,
        with_landmarks in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let m = [7, 13][m_sel];
        let k = [1, 6, 8, 11][k_sel];
        let (x, omega) = problem(n, m, density, seed);
        let pattern = ObservedPattern::compile(&x, &omega).unwrap();
        prop_assert!(pattern.prefers_dense());
        let si = x.columns(0, 2).unwrap();
        let graph = SpatialGraph::build(&si, 3, NeighborSearch::KdTree).unwrap();
        let lambda = 0.7;
        let landmarks = (with_landmarks == 1).then(|| Landmarks::compute(&si, k, 50, seed).unwrap());
        let ctx = UpdateContext {
            pattern: &pattern,
            graph: (with_graph == 1).then_some(&graph),
            lambda,
            landmarks: landmarks.as_ref(),
        };
        let v_start = landmarks.as_ref().map_or(0, Landmarks::spatial_cols);

        let mut ws = Workspace::new(&pattern, k);
        let mut u = positive_uniform_matrix(n, k, seed.wrapping_add(2)).scale(1.0 / k as f64);
        let mut v = positive_uniform_matrix(k, m, seed.wrapping_add(3));
        if let Some(lm) = &landmarks {
            lm.inject(&mut v).unwrap();
        }
        let frozen: Vec<u64> = (0..k)
            .flat_map(|t| (0..v_start).map(move |j| (t, j)))
            .map(|(t, j)| v.get(t, j).to_bits())
            .collect();

        for step in 0..3 {
            let oracle_graph = (with_graph == 1).then_some((&graph, lambda));
            let (u_ref, v_ref, fit_ref, lap_ref) =
                oracle_step(&x, &omega, &u, &v, oracle_graph, v_start);
            let terms = multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap();

            let du = max_rel_diff(&u, &u_ref);
            let dv = max_rel_diff(&v, &v_ref);
            prop_assert!(du <= TOL, "step {step}: U differs by {du:.2e}");
            prop_assert!(dv <= TOL, "step {step}: V differs by {dv:.2e}");
            prop_assert!(rel_diff(terms.fit, fit_ref) <= TOL,
                "step {step}: fit {} vs oracle {fit_ref}", terms.fit);
            prop_assert!(rel_diff(terms.laplacian, lap_ref) <= TOL,
                "step {step}: Laplacian {} vs oracle {lap_ref}", terms.laplacian);
            prop_assert!(u.is_nonnegative(0.0));

            let now: Vec<u64> = (0..k)
                .flat_map(|t| (0..v_start).map(move |j| (t, j)))
                .map(|(t, j)| v.get(t, j).to_bits())
                .collect();
            prop_assert_eq!(&now, &frozen);
        }
        prop_assert_eq!(ws.counters.dense_steps, 3);
        prop_assert_eq!(ws.counters.masked_nnz, 3 * pattern.nnz() as u64);
    }

    #[test]
    fn gradient_step_matches_dense_oracle(
        n in 20usize..70,
        m_sel in 0usize..2,
        k_sel in 0usize..3,
        density in 0.3f64..1.0,
        with_graph in 0usize..2,
        lambda_sel in 0usize..2,
        with_landmarks in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let m = [7, 13][m_sel];
        let k = [1, 6, 11][k_sel];
        let lambda = [0.0, 10.0][lambda_sel];
        let eta = 2e-3;
        let (x, omega) = problem(n, m, density, seed);
        let pattern = ObservedPattern::compile(&x, &omega).unwrap();
        let si = x.columns(0, 2).unwrap();
        let graph = SpatialGraph::build(&si, 3, NeighborSearch::KdTree).unwrap();
        let landmarks = (with_landmarks == 1).then(|| Landmarks::compute(&si, k, 50, seed).unwrap());
        let ctx = UpdateContext {
            pattern: &pattern,
            graph: (with_graph == 1).then_some(&graph),
            lambda,
            landmarks: landmarks.as_ref(),
        };
        let v_start = landmarks.as_ref().map_or(0, Landmarks::spatial_cols);

        let mut ws = Workspace::new(&pattern, k);
        let mut u = positive_uniform_matrix(n, k, seed.wrapping_add(2)).scale(1.0 / k as f64);
        let mut v = positive_uniform_matrix(k, m, seed.wrapping_add(3));
        if let Some(lm) = &landmarks {
            lm.inject(&mut v).unwrap();
        }
        let frozen: Vec<u64> = (0..k)
            .flat_map(|t| (0..v_start).map(move |j| (t, j)))
            .map(|(t, j)| v.get(t, j).to_bits())
            .collect();

        let oracle_graph = (with_graph == 1 && lambda != 0.0).then_some((&graph, lambda));
        for step in 0..3 {
            let (u_ref, v_ref, fit_ref, lap_ref) =
                gd_oracle_step(&x, &omega, &u, &v, oracle_graph, v_start, eta);
            let terms = gradient_step(&ctx, &mut ws, &mut u, &mut v, eta).unwrap();

            let du = max_rel_diff(&u, &u_ref);
            let dv = max_rel_diff(&v, &v_ref);
            prop_assert!(du <= GD_TOL, "step {step}: U differs by {du:.2e}");
            prop_assert!(dv <= GD_TOL, "step {step}: V differs by {dv:.2e}");
            prop_assert!(rel_diff(terms.fit, fit_ref) <= GD_TOL,
                "step {step}: fit {} vs oracle {fit_ref}", terms.fit);
            prop_assert!(rel_diff(terms.laplacian, lap_ref) <= GD_TOL,
                "step {step}: Laplacian {} vs oracle {lap_ref}", terms.laplacian);
            prop_assert!(u.is_nonnegative(0.0));

            let now: Vec<u64> = (0..k)
                .flat_map(|t| (0..v_start).map(move |j| (t, j)))
                .map(|(t, j)| v.get(t, j).to_bits())
                .collect();
            prop_assert_eq!(&now, &frozen);
        }
    }
}

/// Child-process body: runs the fused step above the parallel-dispatch
/// threshold and writes the bits of every objective and of the final
/// factors to `SMFL_DENSE_STEP_OUT`. A no-op unless spawned by
/// `fused_step_is_thread_invariant`.
#[test]
fn dense_step_thread_child() {
    let Some(out) = std::env::var_os("SMFL_DENSE_STEP_OUT") else {
        return;
    };
    // 16000 x 13 at ~93% observed: 2·|Ω|·K ≥ 2.3M flops per pass, above
    // PARALLEL_FLOP_THRESHOLD at both ranks, over 32 row blocks.
    let (n, m, lambda) = (16_000, 13, 0.5);
    let (x, omega) = problem(n, m, 0.93, 99);
    let pattern = ObservedPattern::compile(&x, &omega).unwrap();
    assert_eq!(
        threads_for(2 * pattern.nnz() * 6),
        max_threads(),
        "the child must run above the parallel threshold"
    );
    let si = x.columns(0, 2).unwrap();
    let graph = SpatialGraph::build(&si, 5, NeighborSearch::KdTree).unwrap();
    let mut lines = Vec::new();
    for k in [6, 11] {
        let lm = Landmarks::compute(&si, k, 20, 1).unwrap();
        let ctx = UpdateContext {
            pattern: &pattern,
            graph: Some(&graph),
            lambda,
            landmarks: Some(&lm),
        };
        let mut ws = Workspace::new(&pattern, k);
        let mut u = positive_uniform_matrix(n, k, 5).scale(1.0 / k as f64);
        let mut v = positive_uniform_matrix(k, m, 6);
        lm.inject(&mut v).unwrap();
        for _ in 0..4 {
            let terms = multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap();
            lines.push(format!(
                "k={k} objective {:x}",
                terms.objective(lambda).to_bits()
            ));
        }
        let fold = |m: &Matrix| {
            m.as_slice()
                .iter()
                .fold(0u64, |h, x| h.rotate_left(7) ^ x.to_bits())
        };
        lines.push(format!("k={k} factors {:x} {:x}", fold(&u), fold(&v)));
    }
    std::fs::write(out, lines.join("\n")).unwrap();
}

#[test]
fn fused_step_is_thread_invariant() {
    let exe = std::env::current_exe().unwrap();
    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        let path = std::env::temp_dir().join(format!(
            "smfl_dense_step_{}_{threads}.txt",
            std::process::id()
        ));
        let status = Command::new(&exe)
            .args(["dense_step_thread_child", "--exact", "--test-threads=1"])
            .env("SMFL_DENSE_STEP_OUT", &path)
            .env("SMFL_THREADS", threads)
            .status()
            .expect("failed to spawn child test process");
        assert!(status.success(), "child with SMFL_THREADS={threads} failed");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text.lines().count(),
            10,
            "expected 2 x (4 objectives + factors)"
        );
        runs.push(text);
    }
    assert_eq!(
        runs[0], runs[1],
        "fused step differs between SMFL_THREADS=1 and =4"
    );
}
