//! Both rules of the fused step against naive oracles.
//!
//! `gradient_step` runs on the fused row/column passes at every density;
//! `multiplicative_step` takes them above 50% observed, and below it the
//! sparse kernels for `U` and the column pass for `V`. This suite pins
//! both rules, through their public entry points, to the textbook
//! matmul formulations — dense `U·V`, masked, then the four products,
//! the graph terms through dense `D`/`W`/`L` (with `L` built here as
//! `diag(w) − D`) — which are kept here only, as references. A step
//! scores the factors it reads and writes the next iterate into the
//! workspace, which the caller then commits. The suite checks, step by
//! step, at densities 0.02–1.0, `M ∈ {7, 13, 300}` and
//! `K ∈ {1, 6, 8, 11}` (`K = 11` runs the runtime-rank instance), with
//! and without the graph term and landmarks:
//!
//! - the returned fit and Laplacian terms equal the dense objective
//!   terms of the step's *input* to 1e-12 relative, and
//!   `updater::score` those of the final multiplicative factors;
//! - the committed `U` and `V` of the multiplicative step agree with
//!   Formulas 13/14 to 1e-10 relative, on both of its paths;
//! - the committed factors of `gradient_step`, which applies `L·U` as
//!   `w∘U − D·U`, agree with the dense projected-gradient rule to 1e-12
//!   relative, at λ ∈ {0, 10};
//! - landmark columns stay bitwise frozen in both the committed `V`
//!   and the candidate `Workspace::v_next`;
//! - above the parallel-dispatch threshold the objective stream and the
//!   factors of both rules, of a gradient-descent fit, and of the
//!   multiplicative step on a ~35%-observed mask (its sparse path) are
//!   bitwise identical at `SMFL_THREADS` 1 and 4 (checked in child
//!   processes, since the thread count is fixed per process).

use proptest::prelude::*;
use smfl_core::updater::{gradient_step, multiplicative_step, score, UpdateContext};
use smfl_core::{fit, Landmarks, SmflConfig, DENOM_EPS};
use smfl_linalg::mask::masked_product;
use smfl_linalg::ops::{matmul, matmul_at, matmul_bt};
use smfl_linalg::parallel::{max_threads, threads_for};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, Matrix, ObservedPattern, Workspace};
use smfl_spatial::SpatialGraph;
use std::process::Command;

const TOL: f64 = 1e-10;
/// The gradient step differs from its oracle only in summation order.
const GD_TOL: f64 = 1e-12;
/// The objective terms differ from the dense ones only in summation
/// order.
const TERMS_TOL: f64 = 1e-12;

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

/// The similarity matrix `D`, dense, from the graph's adjacency.
fn dense_similarity(g: &SpatialGraph) -> Matrix {
    let mut d = Matrix::zeros(g.len(), g.len());
    for i in 0..g.len() {
        for &j in g.neighbors(i) {
            d.set(i, j as usize, 1.0);
        }
    }
    d
}

/// The graph Laplacian `L = diag(w) − D`, dense.
fn dense_laplacian(g: &SpatialGraph) -> Matrix {
    let mut l = dense_similarity(g).scale(-1.0);
    for i in 0..g.len() {
        l.set(i, i, g.degree(i));
    }
    l
}

/// `Σ_ij u_ij·(L·U)_ij = Tr(Uᵀ L U)`.
fn laplacian_term(g: &SpatialGraph, u: &Matrix) -> f64 {
    let lu = matmul(&dense_laplacian(g), u).unwrap();
    u.as_slice()
        .iter()
        .zip(lu.as_slice())
        .map(|(a, b)| a * b)
        .sum()
}

/// The dense `(fit, Tr(UᵀLU))` of `(u, v)`; the Laplacian term is zero
/// without an active graph.
fn dense_terms(
    x: &Matrix,
    omega: &Mask,
    u: &Matrix,
    v: &Matrix,
    graph: Option<(&SpatialGraph, f64)>,
) -> (f64, f64) {
    let laplacian = graph.map_or(0.0, |(g, _)| laplacian_term(g, u));
    (fit_term(x, omega, u, v), laplacian)
}

/// The bits of the frozen landmark columns `0..v_start` of `v`.
fn frozen_bits(v: &Matrix, v_start: usize) -> Vec<u64> {
    (0..v.rows())
        .flat_map(|t| (0..v_start).map(move |j| (t, j)))
        .map(|(t, j)| v.get(t, j).to_bits())
        .collect()
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
/// `(U', V')`.
fn gd_oracle_step(
    x: &Matrix,
    omega: &Mask,
    u: &Matrix,
    v: &Matrix,
    graph: Option<(&SpatialGraph, f64)>,
    v_start: usize,
    eta: f64,
) -> (Matrix, Matrix) {
    let masked_x = omega.apply(x).unwrap();
    let residual = |u: &Matrix| masked_x.sub(&masked_product(u, v, omega).unwrap()).unwrap();

    let mut grad_u = matmul_bt(&residual(u), v).unwrap();
    if let Some((g, lambda)) = graph {
        grad_u
            .axpy(-lambda, &matmul(&dense_laplacian(g), u).unwrap())
            .unwrap();
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
    (u_new, v_new)
}

/// One multiplicative step in the dense matmul formulation. Returns
/// `(U', V')`.
fn oracle_step(
    x: &Matrix,
    omega: &Mask,
    u: &Matrix,
    v: &Matrix,
    graph: Option<(&SpatialGraph, f64)>,
    v_start: usize,
) -> (Matrix, Matrix) {
    let masked_x = omega.apply(x).unwrap();

    // Formula 13: U ∘ (R_Ω(X)·Vᵀ + λ·D·U) / (R_Ω(UV)·Vᵀ + λ·W·U).
    let r = masked_product(u, v, omega).unwrap();
    let mut numer = matmul_bt(&masked_x, v).unwrap();
    let mut denom = matmul_bt(&r, v).unwrap();
    if let Some((g, lambda)) = graph {
        let d = dense_similarity(g);
        let w = Matrix::from_fn(
            u.rows(),
            u.rows(),
            |i, j| if i == j { g.degree(i) } else { 0.0 },
        );
        numer.axpy(lambda, &matmul(&d, u).unwrap()).unwrap();
        denom.axpy(lambda, &matmul(&w, u).unwrap()).unwrap();
    }
    let u_new = Matrix::from_fn(u.rows(), u.cols(), |i, t| {
        u.get(i, t) * numer.get(i, t) / (denom.get(i, t) + DENOM_EPS)
    });

    // Formula 14 on the live columns: V ∘ (Uᵀ·R_Ω(X)) / (Uᵀ·R_Ω(UV)).
    let r = masked_product(&u_new, v, omega).unwrap();
    let numer = matmul_at(&u_new, &masked_x).unwrap();
    let denom = matmul_at(&u_new, &r).unwrap();
    let v_new = Matrix::from_fn(v.rows(), v.cols(), |t, j| {
        if j < v_start {
            v.get(t, j)
        } else {
            v.get(t, j) * numer.get(t, j) / (denom.get(t, j) + DENOM_EPS)
        }
    });
    (u_new, v_new)
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
    fn multiplicative_step_matches_matmul_oracle(
        n in 20usize..70,
        m_sel in 0usize..3,
        k_sel in 0usize..4,
        density in 0.02f64..1.0,
        with_graph in 0usize..2,
        with_landmarks in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let m = [7, 13, 300][m_sel];
        let k = [1, 6, 8, 11][k_sel];
        let (x, omega) = problem(n, m, density, seed);
        let pattern = ObservedPattern::compile(&x, &omega).unwrap();
        let si = x.columns(0, 2).unwrap();
        let graph = SpatialGraph::build(&si, 3).unwrap();
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
        let frozen = frozen_bits(&v, v_start);
        let oracle_graph = (with_graph == 1).then_some((&graph, lambda));

        for step in 0..3 {
            let (u_ref, v_ref) = oracle_step(&x, &omega, &u, &v, oracle_graph, v_start);
            let (fit_ref, lap_ref) = dense_terms(&x, &omega, &u, &v, oracle_graph);
            let terms = multiplicative_step(&ctx, &mut ws, &u, &v).unwrap();
            prop_assert!(rel_diff(terms.fit, fit_ref) <= TERMS_TOL,
                "step {step}: fit {} vs oracle {fit_ref}", terms.fit);
            prop_assert!(rel_diff(terms.laplacian, lap_ref) <= TERMS_TOL,
                "step {step}: Laplacian {} vs oracle {lap_ref}", terms.laplacian);
            prop_assert_eq!(&frozen_bits(&ws.v_next, v_start), &frozen);
            ws.commit(&mut u, &mut v);

            let du = max_rel_diff(&u, &u_ref);
            let dv = max_rel_diff(&v, &v_ref);
            prop_assert!(du <= TOL, "step {step}: U differs by {du:.2e}");
            prop_assert!(dv <= TOL, "step {step}: V differs by {dv:.2e}");
            prop_assert!(u.is_nonnegative(0.0));
            prop_assert_eq!(&frozen_bits(&v, v_start), &frozen);
        }
        let (fit_ref, lap_ref) = dense_terms(&x, &omega, &u, &v, oracle_graph);
        let last = score(&ctx, &mut ws, &u, &v).unwrap();
        prop_assert!(rel_diff(last.fit, fit_ref) <= TERMS_TOL);
        prop_assert!(rel_diff(last.laplacian, lap_ref) <= TERMS_TOL);
        // The sparse path streams Ω four times per step (one SDDMM, two
        // SpMMs, the column pass), the fused one once.
        let (fused, passes) = if pattern.prefers_dense() { (3, 1) } else { (0, 4) };
        prop_assert_eq!(ws.counters.dense_steps, fused);
        prop_assert_eq!(ws.counters.masked_nnz, 3 * passes * pattern.nnz() as u64);
    }

    #[test]
    fn gradient_step_matches_dense_oracle(
        n in 20usize..70,
        m_sel in 0usize..3,
        k_sel in 0usize..4,
        density in 0.02f64..1.0,
        with_graph in 0usize..2,
        lambda_sel in 0usize..2,
        with_landmarks in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let m = [7, 13, 300][m_sel];
        let k = [1, 6, 8, 11][k_sel];
        let lambda = [0.0, 10.0][lambda_sel];
        let eta = 2e-3;
        let (x, omega) = problem(n, m, density, seed);
        let pattern = ObservedPattern::compile(&x, &omega).unwrap();
        let si = x.columns(0, 2).unwrap();
        let graph = SpatialGraph::build(&si, 3).unwrap();
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
        let frozen = frozen_bits(&v, v_start);

        let oracle_graph = (with_graph == 1 && lambda != 0.0).then_some((&graph, lambda));
        for step in 0..3 {
            let (u_ref, v_ref) = gd_oracle_step(&x, &omega, &u, &v, oracle_graph, v_start, eta);
            let (fit_ref, lap_ref) = dense_terms(&x, &omega, &u, &v, oracle_graph);
            let terms = gradient_step(&ctx, &mut ws, &u, &v, eta).unwrap();
            prop_assert!(rel_diff(terms.fit, fit_ref) <= GD_TOL,
                "step {step}: fit {} vs oracle {fit_ref}", terms.fit);
            prop_assert!(rel_diff(terms.laplacian, lap_ref) <= GD_TOL,
                "step {step}: Laplacian {} vs oracle {lap_ref}", terms.laplacian);
            prop_assert_eq!(&frozen_bits(&ws.v_next, v_start), &frozen);
            ws.commit(&mut u, &mut v);

            let du = max_rel_diff(&u, &u_ref);
            let dv = max_rel_diff(&v, &v_ref);
            prop_assert!(du <= GD_TOL, "step {step}: U differs by {du:.2e}");
            prop_assert!(dv <= GD_TOL, "step {step}: V differs by {dv:.2e}");
            prop_assert!(u.is_nonnegative(0.0));
            prop_assert_eq!(&frozen_bits(&v, v_start), &frozen);
        }
        prop_assert_eq!(ws.counters.dense_steps, 3);
        prop_assert_eq!(ws.counters.masked_nnz, 3 * pattern.nnz() as u64);
    }
}

/// Bits-folded hash of a matrix.
fn fold(m: &Matrix) -> u64 {
    m.as_slice()
        .iter()
        .fold(0u64, |h, x| h.rotate_left(7) ^ x.to_bits())
}

/// Four steps of `rule` (`"multiplicative"` or `"gradient"`) from a fixed
/// start with `lm` injected; pushes the bits of every objective and of
/// the final factors to `lines`. Returns the step's workspace.
fn record_steps(
    ctx: &UpdateContext<'_>,
    lm: &Landmarks,
    rule: &str,
    eta: f64,
    label: &str,
    lines: &mut Vec<String>,
) -> Workspace {
    let (n, m, k) = (ctx.pattern.rows(), ctx.pattern.cols(), lm.k());
    let mut ws = Workspace::new(ctx.pattern, k);
    let mut u = positive_uniform_matrix(n, k, 5).scale(1.0 / k as f64);
    let mut v = positive_uniform_matrix(k, m, 6);
    lm.inject(&mut v).unwrap();
    for _ in 0..4 {
        let terms = match rule {
            "multiplicative" => multiplicative_step(ctx, &mut ws, &u, &v),
            _ => gradient_step(ctx, &mut ws, &u, &v, eta),
        }
        .unwrap();
        ws.commit(&mut u, &mut v);
        lines.push(format!(
            "{label} objective {:x}",
            terms.objective(ctx.lambda).to_bits()
        ));
    }
    lines.push(format!("{label} factors {:x} {:x}", fold(&u), fold(&v)));
    ws
}

/// Child-process body: runs both rules of the fused step above the
/// parallel-dispatch threshold, then a gradient-descent fit, then the
/// multiplicative step on a ~35%-observed mask (SDDMM/SpMM for `U`, the
/// column pass for `V`), and writes the bits of every objective and of
/// the final factors to `SMFL_FUSED_STEP_OUT`. A no-op unless spawned by
/// `fused_step_is_thread_invariant`.
#[test]
fn fused_step_thread_child() {
    let Some(out) = std::env::var_os("SMFL_FUSED_STEP_OUT") else {
        return;
    };
    // 16000 x 13 at ~93% observed: 2·|Ω|·K ≥ 2.3M flops per pass, above
    // PARALLEL_FLOP_THRESHOLD at both ranks, over 32 row blocks.
    let (n, m, lambda, eta) = (16_000, 13, 0.5, 1e-4);
    let (x, omega) = problem(n, m, 0.93, 99);
    let pattern = ObservedPattern::compile(&x, &omega).unwrap();
    assert_eq!(
        threads_for(2 * pattern.nnz() * 6),
        max_threads(),
        "the child must run above the parallel threshold"
    );
    let si = x.columns(0, 2).unwrap();
    let graph = SpatialGraph::build(&si, 5).unwrap();
    let mut lines = Vec::new();
    for k in [6, 11] {
        let lm = Landmarks::compute(&si, k, 20, 1).unwrap();
        let ctx = UpdateContext {
            pattern: &pattern,
            graph: Some(&graph),
            lambda,
            landmarks: Some(&lm),
        };
        for rule in ["multiplicative", "gradient"] {
            record_steps(&ctx, &lm, rule, eta, &format!("k={k} {rule}"), &mut lines);
        }
    }
    let cfg = SmflConfig::smfl(6, 2)
        .with_lambda(lambda)
        .with_p(5)
        .with_gradient_descent(eta)
        .with_max_iter(4)
        .with_tol(0.0)
        .with_seed(3);
    let model = fit(&x, &omega, &cfg).unwrap();
    for obj in &model.objective_history {
        lines.push(format!("fit objective {:x}", obj.to_bits()));
    }
    lines.push(format!(
        "fit factors {:x} {:x}",
        fold(&model.u),
        fold(&model.v)
    ));

    // 12000 x 50 at ~35% observed: the multiplicative step takes the
    // sparse kernels for U and the column pass for V, with 2·|Ω|·K above
    // PARALLEL_FLOP_THRESHOLD at both ranks.
    let (x, omega) = problem(12_000, 50, 0.35, 98);
    let pattern = ObservedPattern::compile(&x, &omega).unwrap();
    assert!(
        !pattern.prefers_dense(),
        "the sparse case must take the sparse kernels"
    );
    assert_eq!(threads_for(2 * pattern.nnz() * 6), max_threads());
    let si = x.columns(0, 2).unwrap();
    let graph = SpatialGraph::build(&si, 5).unwrap();
    for k in [6, 11] {
        let lm = Landmarks::compute(&si, k, 20, 1).unwrap();
        let ctx = UpdateContext {
            pattern: &pattern,
            graph: Some(&graph),
            lambda,
            landmarks: Some(&lm),
        };
        let label = format!("sparse k={k} multiplicative");
        let ws = record_steps(&ctx, &lm, "multiplicative", eta, &label, &mut lines);
        assert_eq!(ws.counters.dense_steps, 0);
    }
    std::fs::write(out, lines.join("\n")).unwrap();
}

#[test]
fn fused_step_is_thread_invariant() {
    let exe = std::env::current_exe().unwrap();
    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        let path = std::env::temp_dir().join(format!(
            "smfl_fused_step_{}_{threads}.txt",
            std::process::id()
        ));
        // Captured, so the child's test lines do not interleave with
        // this suite's.
        let child = Command::new(&exe)
            .args(["fused_step_thread_child", "--exact", "--test-threads=1"])
            .env("SMFL_FUSED_STEP_OUT", &path)
            .env("SMFL_THREADS", threads)
            .output()
            .expect("failed to spawn child test process");
        assert!(
            child.status.success(),
            "child with SMFL_THREADS={threads} failed:\n{}",
            String::from_utf8_lossy(&child.stdout)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text.lines().count(),
            35,
            "expected 2 ranks x 2 rules x (4 objectives + factors), \
             then 4 fit objectives + factors, then 2 sparse ranks x \
             (4 objectives + factors)"
        );
        runs.push(text);
    }
    assert_eq!(
        runs[0], runs[1],
        "fused step differs between SMFL_THREADS=1 and =4"
    );
}
