//! Per-iteration cost of the multiplicative update, fused engine vs the
//! pre-engine dense path, across observation densities (DESIGN.md
//! "Iteration engine"; paper §IV-E measures per-iteration cost too).
//!
//! Two benchmark families:
//!
//! 1. `fused_vs_dense` — the headline comparison at N=2000, M=500, K=20.
//!    The dense reference reproduces the pre-engine step verbatim: three
//!    allocating `masked_product` calls (each with a fresh `v.transpose()`
//!    inside), dense `matmul_bt` / column-sliced `matmul_at` products,
//!    plus the `masked_diff_norm_sq` fit-term scan the old fit loop paid
//!    per iteration. The fused path is `updater::multiplicative_step` on
//!    a compiled [`ObservedPattern`] + reused [`Workspace`].
//! 2. `multiplicative_iteration` — the original SMF-vs-SMFL landmark
//!    ablation (frozen columns shrink the V update), now on the engine.
//! 3. `lake_shape` — the paper's tall, narrow shape (8000×7, K=6, 93%
//!    observed, λ=10, p=5 graph, landmarks): the fused dense step
//!    against the matmul formulation it replaced (`U·V` masked into an
//!    `N x M` buffer, four dense products, `D·U`/`W·U` graph products,
//!    and the objective's `L·U` product).
//!
//! Besides the criterion console output, `main` measures the paths with
//! manual wall-clock timing, cross-checks agreement to 1e-10, and writes
//! `BENCH_update_rules.json` (per-density ms/iter, observed entries/sec
//! and speedup; for the Lake shape the median and IQR of ≥5 interleaved
//! runs) at the workspace root.

use criterion::{BenchmarkId, Criterion};
use smfl_core::updater::{multiplicative_step, UpdateContext};
use smfl_core::Landmarks;
use smfl_linalg::mask::{masked_diff_norm_sq, masked_product};
use smfl_linalg::ops::{dot, matmul_at, matmul_at_into, matmul_bt, matmul_bt_into, matmul_into};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{CsrMatrix, Mask, Matrix, ObservedPattern, Workspace};
use smfl_spatial::{NeighborSearch, SpatialGraph};
use std::time::Instant;

const EPS: f64 = 1e-12;

/// Headline shape (ISSUE acceptance: ≥2x at 20% density on this shape).
const N: usize = 2000;
const M: usize = 500;
const K: usize = 20;
const DENSITIES: [f64; 4] = [0.05, 0.2, 0.5, 0.9];

struct Problem {
    masked_x: Matrix,
    omega: Mask,
    pattern: ObservedPattern,
    u0: Matrix,
    v0: Matrix,
}

fn problem(n: usize, m: usize, k: usize, density: f64, seed: u64) -> Problem {
    let x = positive_uniform_matrix(n, m, seed);
    let sel = uniform_matrix(n, m, 0.0, 1.0, seed.wrapping_add(1));
    let mut omega = Mask::empty(n, m);
    for i in 0..n {
        for j in 0..m {
            if sel.get(i, j) < density {
                omega.set(i, j, true);
            }
        }
    }
    for j in 0..m {
        omega.set(0, j, true); // every column observed at least once
    }
    let masked_x = omega.apply(&x).unwrap();
    let pattern = ObservedPattern::compile(&x, &omega).unwrap();
    let u0 = positive_uniform_matrix(n, k, seed.wrapping_add(2)).scale(1.0 / k as f64);
    let v0 = positive_uniform_matrix(k, m, seed.wrapping_add(3));
    Problem {
        masked_x,
        omega,
        pattern,
        u0,
        v0,
    }
}

/// The multiplicative step exactly as it existed before the fused
/// engine (no graph terms, no landmarks — the paths being compared are
/// identical there), including the per-iteration fit-term scan the old
/// fit loop performed via `objective_with_reconstruction`. Every product
/// allocates, as the old code did.
fn dense_reference_step(masked_x: &Matrix, omega: &Mask, u: &mut Matrix, v: &mut Matrix) -> f64 {
    // ---- U update (Formula 13) ----
    let r = masked_product(u, v, omega).unwrap(); // R_Ω(UV)
    let numer_u = matmul_bt(masked_x, v).unwrap(); // R_Ω(X)·Vᵀ
    let denom_u = matmul_bt(&r, v).unwrap(); // R_Ω(UV)·Vᵀ
    for ((uv, &n), &d) in u
        .as_mut_slice()
        .iter_mut()
        .zip(numer_u.as_slice())
        .zip(denom_u.as_slice())
    {
        *uv *= n / (d + EPS);
    }

    // ---- V update (Formula 14) ----
    let r2 = masked_product(u, v, omega).unwrap(); // with refreshed U
    let numer_v = matmul_at(u, masked_x).unwrap(); // Uᵀ·R_Ω(X)
    let denom_v = matmul_at(u, &r2).unwrap(); // Uᵀ·R_Ω(UV)
    for k in 0..v.rows() {
        for j in 0..v.cols() {
            let val = v.get(k, j) * numer_v.get(k, j) / (denom_v.get(k, j) + EPS);
            v.set(k, j, val);
        }
    }

    let r3 = masked_product(u, v, omega).unwrap();
    masked_diff_norm_sq(masked_x, &r3, omega).unwrap()
}

fn fused_ctx<'a>(p: &'a Problem) -> UpdateContext<'a> {
    UpdateContext {
        pattern: &p.pattern,
        graph: None,
        lambda: 0.0,
        landmarks: None,
    }
}

fn bench_fused_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_vs_dense");
    for &density in &DENSITIES {
        let p = problem(N, M, K, density, 1);
        group.bench_with_input(
            BenchmarkId::new("fused", format!("d{:02}", (density * 100.0) as u32)),
            &p,
            |b, p| {
                let ctx = fused_ctx(p);
                let mut ws = Workspace::new(&p.pattern, K);
                let mut u = p.u0.clone();
                let mut v = p.v0.clone();
                b.iter(|| multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dense", format!("d{:02}", (density * 100.0) as u32)),
            &p,
            |b, p| {
                let mut u = p.u0.clone();
                let mut v = p.v0.clone();
                b.iter(|| dense_reference_step(&p.masked_x, &p.omega, &mut u, &mut v));
            },
        );
    }
    group.finish();
}

/// The original landmark ablation: SMFL's frozen columns shrink the V
/// update and, on the engine, skip whole output rows of the SpMMᵀ.
fn bench_iteration_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiplicative_iteration");
    for &(n, m, k) in &[(2000usize, 13usize, 8usize), (2000, 7, 6)] {
        let p = problem(n, m, k, 0.95, 2);
        let x = positive_uniform_matrix(n, m, 2);
        let si = x.columns(0, 2).unwrap();
        let graph = SpatialGraph::build(&si, 3, NeighborSearch::KdTree).unwrap();
        let landmarks = Landmarks::compute(&si, k, 300, 0).unwrap();
        for (label, lm) in [("smf", None), ("smfl", Some(&landmarks))] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{n}x{m}_k{k}")),
                &p,
                |b, p| {
                    let ctx = UpdateContext {
                        pattern: &p.pattern,
                        graph: Some(&graph),
                        lambda: 0.1,
                        landmarks: lm,
                    };
                    let mut ws = Workspace::new(&p.pattern, k);
                    let mut u = p.u0.clone();
                    let mut v = p.v0.clone();
                    if let Some(lm) = lm {
                        lm.inject(&mut v).unwrap();
                        ws.invalidate();
                    }
                    b.iter(|| multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap());
                },
            );
        }
    }
    group.finish();
}

/// Wall-clock timing of one path until ≥`budget_s` seconds and ≥5
/// iterations have elapsed; returns seconds per iteration.
fn time_path(mut step: impl FnMut() -> f64, budget_s: f64) -> f64 {
    for _ in 0..2 {
        step(); // warmup (first fused iteration allocates the workspace lazies)
    }
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        std::hint::black_box(step());
        iters += 1;
        if iters >= 5 && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// Largest relative elementwise difference between two equal-shape
/// matrices.
fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f64::max)
}

/// The Lake analogue of the paper's experiments: 8000×7, two spatial
/// columns, 93% of cells observed, K=6, λ=10, p=5.
struct Lake {
    problem: Problem,
    graph: SpatialGraph,
    /// `L = diag(w) − D` in CSR form, for the matmul formulation's
    /// objective (the library works from `(D, w)` only).
    laplacian: CsrMatrix,
    landmarks: Landmarks,
}

const LAKE: (usize, usize, usize) = (8000, 7, 6);
const LAKE_LAMBDA: f64 = 10.0;

fn lake() -> Lake {
    let (n, m, k) = LAKE;
    let problem = problem(n, m, k, 0.93, 11);
    // The same draw as the problem's X: its first two columns are the SI.
    let si = positive_uniform_matrix(n, m, 11).columns(0, 2).unwrap();
    let graph = SpatialGraph::build(&si, 5, NeighborSearch::KdTree).unwrap();
    let mut triplets: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| graph.similarity.row_entries(i).map(move |(j, d)| (i, j, -d)))
        .collect();
    triplets.extend(graph.degree.iter().enumerate().map(|(i, &w)| (i, i, w)));
    let laplacian = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
    let landmarks = Landmarks::compute(&si, k, 300, 0).unwrap();
    Lake {
        problem,
        graph,
        laplacian,
        landmarks,
    }
}

impl Lake {
    fn ctx(&self) -> UpdateContext<'_> {
        UpdateContext {
            pattern: &self.problem.pattern,
            graph: Some(&self.graph),
            lambda: LAKE_LAMBDA,
            landmarks: Some(&self.landmarks),
        }
    }

    fn init(&self) -> (Matrix, Matrix) {
        let mut v = self.problem.v0.clone();
        self.landmarks.inject(&mut v).unwrap();
        (self.problem.u0.clone(), v)
    }
}

/// Scratch of the matmul formulation, allocated once like the old
/// workspace (including its `N x M` reconstruction buffer).
struct MatmulScratch {
    r: Matrix,
    numer_u: Matrix,
    denom_u: Matrix,
    du: Matrix,
    numer_vt: Matrix,
    denom_vt: Matrix,
    lu: Matrix,
}

impl MatmulScratch {
    fn new(n: usize, m: usize, k: usize) -> Self {
        MatmulScratch {
            r: Matrix::zeros(n, m),
            numer_u: Matrix::zeros(n, k),
            denom_u: Matrix::zeros(n, k),
            du: Matrix::zeros(n, k),
            numer_vt: Matrix::zeros(m, k),
            denom_vt: Matrix::zeros(m, k),
            lu: Matrix::zeros(n, k),
        }
    }
}

/// One multiplicative step in the matmul formulation the fused dense
/// step replaced: separate passes for `U·V` (three times), the masking,
/// `R·Vᵀ` and `Rᵀ·U` (twice each), `D·U`, `W·U`, and `L·U` for the
/// objective. Returns the objective.
fn matmul_step(lake: &Lake, s: &mut MatmulScratch, u: &mut Matrix, v: &mut Matrix) -> f64 {
    let (p, g) = (&lake.problem, &lake.graph);
    let k = u.cols();
    matmul_into(u, v, &mut s.r).unwrap();
    p.omega.zero_unset(&mut s.r).unwrap();
    matmul_bt_into(&p.masked_x, v, &mut s.numer_u).unwrap();
    matmul_bt_into(&s.r, v, &mut s.denom_u).unwrap();
    g.similarity.spmm_into(u, &mut s.du).unwrap();
    s.numer_u.axpy(LAKE_LAMBDA, &s.du).unwrap();
    for ((drow, urow), &w) in s
        .denom_u
        .as_mut_slice()
        .chunks_exact_mut(k)
        .zip(u.as_slice().chunks_exact(k))
        .zip(&g.degree)
    {
        for (d, &a) in drow.iter_mut().zip(urow) {
            *d += LAKE_LAMBDA * (w * a);
        }
    }
    for ((x, &n), &d) in u
        .as_mut_slice()
        .iter_mut()
        .zip(s.numer_u.as_slice())
        .zip(s.denom_u.as_slice())
    {
        *x *= n / (d + EPS);
    }

    matmul_into(u, v, &mut s.r).unwrap();
    p.omega.zero_unset(&mut s.r).unwrap();
    matmul_at_into(&p.masked_x, u, &mut s.numer_vt).unwrap();
    matmul_at_into(&s.r, u, &mut s.denom_vt).unwrap();
    for t in 0..k {
        for j in lake.landmarks.spatial_cols()..v.cols() {
            let val = v.get(t, j) * s.numer_vt.get(j, t) / (s.denom_vt.get(j, t) + EPS);
            v.set(t, j, val);
        }
    }

    matmul_into(u, v, &mut s.r).unwrap();
    let mut fit = 0.0;
    for i in 0..u.rows() {
        for (j, slot) in p.pattern.row_entries(i) {
            let d = p.pattern.x_vals()[slot] - s.r.get(i, j);
            fit += d * d;
        }
    }
    lake.laplacian.spmm_into(u, &mut s.lu).unwrap();
    fit + LAKE_LAMBDA * dot(u.as_slice(), s.lu.as_slice())
}

fn bench_lake(c: &mut Criterion) {
    let lake = lake();
    let (n, m, k) = LAKE;
    let mut group = c.benchmark_group("lake_shape");
    group.bench_function("fused", |b| {
        let ctx = lake.ctx();
        let mut ws = Workspace::new(&lake.problem.pattern, k);
        let (mut u, mut v) = lake.init();
        b.iter(|| multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap());
    });
    group.bench_function("matmul", |b| {
        let mut scratch = MatmulScratch::new(n, m, k);
        let (mut u, mut v) = lake.init();
        b.iter(|| matmul_step(&lake, &mut scratch, &mut u, &mut v));
    });
    group.finish();
}

/// Median and interquartile range of `xs` (nearest-rank quartiles).
fn median_iqr(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |f: f64| s[((s.len() - 1) as f64 * f).round() as usize];
    (q(0.5), q(0.75) - q(0.25))
}

/// The Lake-shape row of the JSON: agreement over 5 iterations, then
/// `LAKE_RUNS` interleaved runs of `LAKE_ITERS` iterations per path.
fn lake_report() -> String {
    const LAKE_RUNS: usize = 9;
    const LAKE_ITERS: usize = 40;
    let lake = lake();
    let (n, m, k) = LAKE;
    let ctx = lake.ctx();

    let mut ws = Workspace::new(&lake.problem.pattern, k);
    let mut scratch = MatmulScratch::new(n, m, k);
    let (mut uf, mut vf) = lake.init();
    let (mut um, mut vm) = lake.init();
    let mut obj_diff = 0.0f64;
    for _ in 0..5 {
        let of = multiplicative_step(&ctx, &mut ws, &mut uf, &mut vf)
            .unwrap()
            .objective(LAKE_LAMBDA);
        let om = matmul_step(&lake, &mut scratch, &mut um, &mut vm);
        obj_diff = obj_diff.max((of - om).abs() / om.abs().max(1.0));
    }
    let factor_diff = max_rel_diff(&uf, &um).max(max_rel_diff(&vf, &vm));
    assert!(
        factor_diff <= 1e-10 && obj_diff <= 1e-10,
        "Lake shape: fused and matmul steps diverged (factors {factor_diff:.2e}, objective {obj_diff:.2e})"
    );

    let (mut fused_ms, mut matmul_ms) = (Vec::new(), Vec::new());
    for _ in 0..LAKE_RUNS {
        let t = Instant::now();
        for _ in 0..LAKE_ITERS {
            std::hint::black_box(multiplicative_step(&ctx, &mut ws, &mut uf, &mut vf).unwrap());
        }
        fused_ms.push(t.elapsed().as_secs_f64() * 1e3 / LAKE_ITERS as f64);
        let t = Instant::now();
        for _ in 0..LAKE_ITERS {
            std::hint::black_box(matmul_step(&lake, &mut scratch, &mut um, &mut vm));
        }
        matmul_ms.push(t.elapsed().as_secs_f64() * 1e3 / LAKE_ITERS as f64);
    }
    let (fused_med, fused_iqr) = median_iqr(&fused_ms);
    let (matmul_med, matmul_iqr) = median_iqr(&matmul_ms);
    eprintln!(
        "  Lake {n}x{m} K={k}: fused {fused_med:.3} ms/iter (IQR {fused_iqr:.3}), \
         matmul {matmul_med:.3} ms/iter (IQR {matmul_iqr:.3}), speedup {:.2}x, \
         max diff {factor_diff:.1e}",
        matmul_med / fused_med
    );
    format!(
        "{{\"n\": {n}, \"m\": {m}, \"k\": {k}, \"density\": 0.93, \"lambda\": {LAKE_LAMBDA}, \
         \"p\": 5, \"landmarks\": true, \"nnz\": {}, \"runs\": {LAKE_RUNS}, \
         \"iters_per_run\": {LAKE_ITERS}, \"fused_ms_per_iter_median\": {fused_med:.4}, \
         \"fused_ms_per_iter_iqr\": {fused_iqr:.4}, \"matmul_ms_per_iter_median\": {matmul_med:.4}, \
         \"matmul_ms_per_iter_iqr\": {matmul_iqr:.4}, \"speedup\": {:.3}, \
         \"max_rel_factor_diff\": {factor_diff:.3e}}}",
        lake.problem.pattern.nnz(),
        matmul_med / fused_med
    )
}

fn json_report() {
    eprintln!("\nmanual timing for BENCH_update_rules.json (N={N}, M={M}, K={K})");
    let mut rows = Vec::new();
    for &density in &DENSITIES {
        let p = problem(N, M, K, density, 1);
        let nnz = p.pattern.nnz();

        // Agreement: both paths from the same init for 3 iterations.
        let (mut uf, mut vf) = (p.u0.clone(), p.v0.clone());
        let (mut ud, mut vd) = (p.u0.clone(), p.v0.clone());
        let ctx = fused_ctx(&p);
        let mut ws = Workspace::new(&p.pattern, K);
        let mut fit_diff = 0.0f64;
        for _ in 0..3 {
            let ff = multiplicative_step(&ctx, &mut ws, &mut uf, &mut vf)
                .unwrap()
                .fit;
            let fd = dense_reference_step(&p.masked_x, &p.omega, &mut ud, &mut vd);
            fit_diff = fit_diff.max((ff - fd).abs() / fd.abs().max(1.0));
        }
        let factor_diff = max_rel_diff(&uf, &ud).max(max_rel_diff(&vf, &vd));
        assert!(
            factor_diff <= 1e-10 && fit_diff <= 1e-10,
            "paths diverged at density {density}: factors {factor_diff:.2e}, fit {fit_diff:.2e}"
        );

        let fused_s = {
            let mut ws = Workspace::new(&p.pattern, K);
            let ctx = fused_ctx(&p);
            let mut u = p.u0.clone();
            let mut v = p.v0.clone();
            let mut step = || {
                multiplicative_step(&ctx, &mut ws, &mut u, &mut v)
                    .unwrap()
                    .fit
            };
            time_path(&mut step, 0.5)
        };
        let dense_s = {
            let mut u = p.u0.clone();
            let mut v = p.v0.clone();
            time_path(|| dense_reference_step(&p.masked_x, &p.omega, &mut u, &mut v), 0.5)
        };
        let speedup = dense_s / fused_s;
        let entries_per_sec = nnz as f64 / fused_s;
        eprintln!(
            "  density {density:.2}: fused {:.3} ms/iter, dense {:.3} ms/iter, \
             {entries_per_sec:.3e} entries/s, speedup {speedup:.2}x, max diff {factor_diff:.1e}",
            fused_s * 1e3,
            dense_s * 1e3,
        );
        rows.push(format!(
            "    {{\"density\": {density}, \"nnz\": {nnz}, \
             \"fused_ms_per_iter\": {:.6}, \"dense_ms_per_iter\": {:.6}, \
             \"fused_entries_per_sec\": {:.1}, \"speedup\": {speedup:.3}, \
             \"max_rel_factor_diff\": {factor_diff:.3e}}}",
            fused_s * 1e3,
            dense_s * 1e3,
            entries_per_sec,
        ));
    }
    let lake = lake_report();
    let json = format!(
        "{{\n  \"bench\": \"update_rules\",\n  \"shape\": {{\"n\": {N}, \"m\": {M}, \"k\": {K}}},\n  \
         \"dense_reference\": \"pre-engine step: allocating masked_product x3 + dense matmul products + fit-term scan\",\n  \
         \"results\": [\n{}\n  ],\n  \
         \"lake_shape\": {lake},\n  \
         \"lake_reference\": \"matmul formulation replaced by the fused dense step: U·V x3 + masking + R·Vᵀ x2 + Rᵀ·U x2 + D·U + W·U + L·U\"\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_update_rules.json");
    std::fs::write(path, json).unwrap();
    eprintln!("wrote {path}");
}

fn main() {
    let mut c = Criterion::default();
    bench_fused_vs_dense(&mut c);
    bench_iteration_cost(&mut c);
    bench_lake(&mut c);
    c.final_summary();
    json_report();
}
