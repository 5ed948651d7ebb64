//! Plan-cache and warm-start payoff (DESIGN.md §12).
//!
//! Two claims are measured, both with built-in correctness
//! cross-checks so the speedups cannot come from computing something
//! different:
//!
//! 1. **Cached model selection** — `grid_search` (one shared
//!    `PlanCache`) versus `grid_search_uncached` (recompile everything)
//!    over `ParamGrid::paper_ranges()` (4 λ × 2 p × 3 K = 24
//!    candidates) with 2 validation folds. The rankings must be
//!    bitwise identical; the cache's own ledger must show strictly
//!    fewer k-means runs and graph builds than candidates × folds (the
//!    naive search's count). With the paper grid the cached search runs
//!    k-means once per distinct K and builds one graph per distinct p —
//!    3 and 2 instead of 48 and 48.
//! 2. **Warm-started refits** — fit once, perturb the attribute data
//!    (coordinates untouched, the serving scenario), then refit warm
//!    through `FittedModel::refit` versus a cold `fit`. The warm refit
//!    must reach the cold fit's final objective, in fewer recorded
//!    iterations.
//!
//! Wall times are min-of-N of whole searches/fits. Results land in
//! `BENCH_plan_reuse.json` at the workspace root.

use smfl_core::{fit, grid_search, grid_search_uncached, FitPlan, ParamGrid, SmflConfig};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, Matrix};
use std::time::Instant;

/// Problem size: large enough that k-means and graph builds are real
/// work worth caching, small enough that 2 × 24 candidate fits finish
/// in benchmark time.
const N: usize = 400;
const M: usize = 10;
const SPATIAL: usize = 2;
const SEED: u64 = 23;
const FOLDS: usize = 2;
const HOLDOUT: f64 = 0.1;
const TIMING_RUNS: usize = 3;

/// Low-rank nonnegative spatial data with 2 coordinate columns and a
/// sprinkle of missing cells.
fn problem() -> (Matrix, Mask) {
    let u = positive_uniform_matrix(N, 4, SEED);
    let v = positive_uniform_matrix(4, M, SEED.wrapping_add(1));
    let x = smfl_linalg::ops::matmul(&u, &v).unwrap().scale(1.0 / 4.0);
    let sel = uniform_matrix(N, M, 0.0, 1.0, SEED.wrapping_add(2));
    let mut omega = Mask::full(N, M);
    for i in 0..N {
        for j in SPATIAL..M {
            if sel.get(i, j) < 0.1 {
                omega.set(i, j, false);
            }
        }
    }
    (x, omega)
}

fn base_config() -> SmflConfig {
    SmflConfig::smfl(4, SPATIAL)
        .with_max_iter(60)
        .with_seed(SEED)
}

/// Minimum wall time of `f` over [`TIMING_RUNS`] runs (after one
/// warmup run, so cold-process effects don't skew either side).
fn min_time<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..TIMING_RUNS {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

fn main() {
    let (x, omega) = problem();
    let base = base_config();
    let grid = ParamGrid::paper_ranges();
    let candidates = grid.lambdas.len() * grid.ps.len() * grid.ranks.len();
    let naive_stage_runs = candidates * FOLDS;

    // --- Cached vs naive grid search. -----------------------------------
    let (cached_s, cached) =
        min_time(|| grid_search(&x, &omega, &base, &grid, FOLDS, HOLDOUT).unwrap());
    let (naive_s, naive) =
        min_time(|| grid_search_uncached(&x, &omega, &base, &grid, FOLDS, HOLDOUT).unwrap());

    // Correctness gate: the cache must be a pure optimization.
    assert_eq!(cached.ranking().len(), naive.ranking().len());
    for (c, u) in cached.ranking().iter().zip(naive.ranking().iter()) {
        assert_eq!(c.config.lambda, u.config.lambda);
        assert_eq!(c.config.p_neighbors, u.config.p_neighbors);
        assert_eq!(c.config.rank, u.config.rank);
        assert_eq!(
            c.validation_rms.to_bits(),
            u.validation_rms.to_bits(),
            "cached and naive scores diverged"
        );
    }

    // The honest ledger: strictly fewer expensive stages than the naive
    // candidates × folds count, with the exact reuse pattern asserted.
    let stats = cached.cache_stats();
    assert!(
        stats.kmeans_runs < naive_stage_runs,
        "k-means runs not reduced: {} vs {naive_stage_runs}",
        stats.kmeans_runs
    );
    assert!(
        stats.graph_builds < naive_stage_runs,
        "graph builds not reduced: {} vs {naive_stage_runs}",
        stats.graph_builds
    );
    assert_eq!(
        stats.kmeans_runs,
        grid.ranks.len(),
        "one k-means per distinct K"
    );
    assert_eq!(
        stats.graph_builds,
        grid.ps.len(),
        "one graph per distinct p"
    );
    assert_eq!(
        stats.si_resets, 0,
        "attribute-only holdouts must share the SI"
    );

    let search_speedup = naive_s / cached_s;
    eprintln!(
        "grid search ({candidates} candidates x {FOLDS} folds): cached {cached_s:.3}s, \
         naive {naive_s:.3}s ({search_speedup:.2}x); kmeans {} vs {naive_stage_runs}, \
         graphs {} vs {naive_stage_runs}",
        stats.kmeans_runs, stats.graph_builds,
    );

    // --- Warm vs cold refit. --------------------------------------------
    // Serving scenario: the same grid, data drifts a little (attribute
    // columns only), refit. Tolerance > 0 so iterations-to-tolerance is
    // the measured quantity.
    let cfg = base
        .clone()
        .with_lambda(0.02)
        .with_max_iter(1000)
        .with_tol(1e-4);
    let mut plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
    let first = plan.solve().unwrap();

    let mut x2 = x.clone();
    for i in 0..N {
        for j in SPATIAL..M {
            let v = x2.get(i, j);
            x2.set(i, j, v * (1.0 + 0.02 * ((i + j) % 5) as f64 / 5.0));
        }
    }

    let (warm_s, warm) = min_time(|| first.refit(&mut plan, &x2, &omega).unwrap());
    let (cold_s, cold) = min_time(|| fit(&x2, &omega, &cfg).unwrap());

    let warm_obj = warm.final_objective().unwrap();
    let cold_obj = cold.final_objective().unwrap();
    assert!(
        warm_obj <= cold_obj * (1.0 + 1e-6),
        "warm refit stopped above the cold objective: {warm_obj} vs {cold_obj}"
    );
    assert!(
        warm.iterations < cold.iterations,
        "warm refit took {} iterations vs cold {}",
        warm.iterations,
        cold.iterations
    );
    eprintln!(
        "refit: warm {} iters {warm_s:.4}s vs cold {} iters {cold_s:.4}s \
         (objective {warm_obj:.6} vs {cold_obj:.6})",
        warm.iterations, cold.iterations,
    );

    let json = format!(
        "{{\n  \"bench\": \"plan_reuse\",\n  \
         \"shape\": {{\"n\": {N}, \"m\": {M}, \"spatial_cols\": {SPATIAL}}},\n  \
         \"grid\": {{\"candidates\": {candidates}, \"folds\": {FOLDS}, \
         \"naive_stage_runs\": {naive_stage_runs}}},\n  \
         \"rankings_bitwise_identical\": true,\n  \
         \"cached_search_s\": {cached_s:.4},\n  \
         \"naive_search_s\": {naive_s:.4},\n  \
         \"search_speedup\": {search_speedup:.3},\n  \
         \"kmeans_runs_cached\": {},\n  \
         \"graph_builds_cached\": {},\n  \
         \"landmark_hits\": {},\n  \
         \"graph_hits\": {},\n  \
         \"warm_refit_iterations\": {},\n  \
         \"cold_refit_iterations\": {},\n  \
         \"warm_refit_s\": {warm_s:.5},\n  \
         \"cold_refit_s\": {cold_s:.5},\n  \
         \"warm_final_objective\": {warm_obj:.9},\n  \
         \"cold_final_objective\": {cold_obj:.9}\n}}\n",
        stats.kmeans_runs,
        stats.graph_builds,
        stats.landmark_hits,
        stats.graph_hits,
        warm.iterations,
        cold.iterations,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan_reuse.json");
    std::fs::write(path, json).unwrap();
    eprintln!("wrote {path}");
}
