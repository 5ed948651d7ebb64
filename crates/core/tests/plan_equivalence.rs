//! Equivalence proofs for the compile/solve split (DESIGN.md §12).
//!
//! The contract of `FitPlan` is that the one-shot `fit` is *thin*:
//! `fit(x, omega, cfg)` must equal `FitPlan::compile(...).solve()` not
//! just in its factors but in everything observable — objective
//! history, iteration counts, `FitReport` events, and errors. The plan
//! side solves into a `RecordingSink`, so the property also shows that
//! observing a fit does not perturb it.
//!
//! The property is driven across all three updaters, all three
//! variants, both resilience policies (`Strict`, and `Recover` with and
//! without stall detection), and fault-injected inputs (NaN bursts /
//! Inf spikes from `smfl_datasets::inject`), so the split cannot drift
//! from `fit` on any path — healthy, degraded, or failing.
//! A second suite pins the cached model-selection path: `grid_search`
//! through a shared `PlanCache` must produce the same ranking as the
//! cache-free search, score for score.
//!
//! Honours `PROPTEST_CASES` (CI runs this suite at 64 cases under an
//! `SMFL_THREADS` ∈ {1, 4} matrix).

use proptest::prelude::*;
use smfl_core::{
    fit, grid_search, grid_search_uncached, FitPlan, ParamGrid, RecordingSink, Resilience,
    SmflConfig, SolveOptions, Variant,
};
use smfl_datasets::inject::{inject_inf_spike, inject_nan_burst};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::{Mask, Matrix};

/// Random spatial problem: data in [0, 1], 2 coordinate columns, ~
/// `missing_pct`% of cells hidden, first row fully observed so every
/// column keeps at least one observation.
fn problem(n: usize, m: usize, seed: u64, missing_pct: u32) -> (Matrix, Mask) {
    let x = uniform_matrix(n, m, 0.0, 1.0, seed);
    let sel = uniform_matrix(n, m, 0.0, 100.0, seed.wrapping_add(77));
    let mut omega = Mask::full(n, m);
    for i in 0..n {
        for j in 0..m {
            if sel.get(i, j) < missing_pct as f64 {
                omega.set(i, j, false);
            }
        }
    }
    for j in 0..m {
        omega.set(0, j, true);
    }
    (x, omega)
}

fn config_for(
    variant: Variant,
    updater: u8,
    rank: usize,
    lambda: f64,
    p: usize,
    seed: u64,
    policy: Resilience,
) -> SmflConfig {
    let base = match variant {
        Variant::Nmf => SmflConfig::nmf(rank),
        Variant::Smf => SmflConfig::smf(rank, 2),
        Variant::Smfl => SmflConfig::smfl(rank, 2),
    };
    let base = base
        .with_lambda(if variant == Variant::Nmf { 0.0 } else { lambda })
        .with_p(p)
        .with_max_iter(20)
        .with_seed(seed)
        .with_tol(0.0);
    let base = match updater {
        0 => base,
        1 => base.with_gradient_descent(5e-3),
        _ => base.with_hals(),
    };
    base.with_resilience(policy)
}

/// The policy axis: `Strict`, `Recover` without and with stall
/// detection.
fn policies() -> impl Strategy<Value = Resilience> {
    (0usize..3).prop_map(|i| match i {
        0 => Resilience::Strict,
        1 => Resilience::Recover { stall_patience: 0 },
        _ => Resilience::Recover { stall_patience: 4 },
    })
}

/// Runs the same `(x, omega, config)` through `fit` and through
/// explicit compile + solve into a recording sink, then asserts both
/// outcomes (model or error) are identical.
fn assert_wrapper_equals_plan(x: &Matrix, omega: &Mask, cfg: &SmflConfig) {
    let direct = fit(x, omega, cfg);

    let mut sink = RecordingSink::new();
    let planned = FitPlan::compile_with_sink(x, omega, cfg, &mut sink)
        .and_then(|mut plan| plan.solve_with_sink(&SolveOptions::default(), &mut sink));

    match (&direct, &planned) {
        (Ok(d), Ok(p)) => {
            assert!(d.u.approx_eq(&p.u, 0.0), "U differs");
            assert!(d.v.approx_eq(&p.v, 0.0), "V differs");
            assert_eq!(d.objective_history, p.objective_history);
            assert_eq!(d.iterations, p.iterations);
            assert_eq!(d.converged, p.converged);
            assert_eq!(d.report, p.report);
            assert_eq!(
                d.landmarks.is_some(),
                p.landmarks.is_some(),
                "landmark presence differs"
            );
        }
        (Err(de), Err(pe)) => {
            assert_eq!(format!("{de}"), format!("{pe}"), "errors differ");
        }
        (d, p) => panic!("outcomes diverge: direct={d:?} planned={p:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `fit` ≡ `FitPlan::compile(...).solve()` on clean inputs, across
    /// updaters, variants, and resilience policies.
    #[test]
    fn wrapper_equals_compile_solve_on_clean_inputs(
        n in 12usize..36,
        m in 4usize..9,
        rank in 2usize..5,
        lambda in 0.0f64..2.0,
        p in 1usize..6,
        missing in 0u32..80,
        updater in 0u8..3,
        policy in policies(),
        seed in 0u64..10_000,
    ) {
        let (x, omega) = problem(n, m, seed, missing);
        for variant in [Variant::Nmf, Variant::Smf, Variant::Smfl] {
            let rank = rank.min(m.min(n));
            let cfg = config_for(variant, updater, rank, lambda, p, seed, policy);
            assert_wrapper_equals_plan(&x, &omega, &cfg);
        }
    }

    /// Same property under fault injection: NaN bursts and Inf spikes
    /// in the observed data. Recovering fits sanitize and degrade; strict
    /// fits reject — either way, wrapper and plan must agree exactly.
    #[test]
    fn wrapper_equals_compile_solve_on_faulty_inputs(
        n in 14usize..32,
        m in 5usize..9,
        nan_count in 1usize..6,
        inf_count in 0usize..4,
        missing in 0u32..40,
        updater in 0u8..3,
        policy in policies(),
        seed in 0u64..10_000,
    ) {
        let (mut x, omega) = problem(n, m, seed, missing);
        inject_nan_burst(&mut x, nan_count, seed.wrapping_add(5));
        if inf_count > 0 {
            inject_inf_spike(&mut x, inf_count, seed.wrapping_add(9));
        }
        let cfg = config_for(Variant::Smfl, updater, 3, 0.4, 3, seed, policy);
        assert_wrapper_equals_plan(&x, &omega, &cfg);
    }
}

/// The cached grid search must rank candidates exactly as the naive
/// (recompile-everything) search does: sharing landmarks, graphs, and
/// compiled patterns through the `PlanCache` is a pure optimization.
#[test]
fn cached_grid_search_ranking_equals_naive() {
    let (x, omega) = problem(50, 7, 91, 15);
    let base = SmflConfig::smfl(3, 2).with_max_iter(40).with_seed(4);
    let grid = ParamGrid {
        lambdas: vec![0.01, 0.1, 1.0],
        ps: vec![2, 4],
        ranks: vec![3, 4],
    };
    let cached = grid_search(&x, &omega, &base, &grid, 2, 0.15).unwrap();
    let naive = grid_search_uncached(&x, &omega, &base, &grid, 2, 0.15).unwrap();

    assert_eq!(cached.ranking().len(), naive.ranking().len());
    for (c, u) in cached.ranking().iter().zip(naive.ranking().iter()) {
        assert_eq!(c.config.lambda, u.config.lambda);
        assert_eq!(c.config.p_neighbors, u.config.p_neighbors);
        assert_eq!(c.config.rank, u.config.rank);
        assert_eq!(
            c.validation_rms.to_bits(),
            u.validation_rms.to_bits(),
            "scores differ for λ={} p={} K={}",
            c.config.lambda,
            c.config.p_neighbors,
            c.config.rank
        );
    }
    assert_eq!(cached.skipped().len(), naive.skipped().len());
    assert_eq!(cached.fit_failures(), naive.fit_failures());

    // The cache actually shared work: one k-means per distinct K, one
    // graph per distinct p, one pattern per fold — not per candidate.
    let stats = cached.cache_stats();
    let candidates = grid.lambdas.len() * grid.ps.len() * grid.ranks.len();
    assert_eq!(stats.kmeans_runs, grid.ranks.len(), "{stats:?}");
    assert_eq!(stats.graph_builds, grid.ps.len(), "{stats:?}");
    assert_eq!(stats.pattern_compiles, 2, "{stats:?}"); // one per fold
    assert!(stats.landmark_hits + stats.kmeans_runs >= candidates);
    assert_eq!(stats.si_resets, 0, "holdouts must not disturb the SI");
}

/// Warm starts are an accelerator, not a different model: a warm refit
/// on identical data must converge immediately (the seed already
/// satisfies the tolerance), and on perturbed data must reach the cold
/// fit's objective in no more iterations.
#[test]
fn warm_start_converges_no_slower_than_cold() {
    // Exactly rank-3 data so the cold fit genuinely converges: the
    // "identical data" half of the property needs a reached fixed
    // point, not an iteration-capped stop.
    let x = {
        let u = smfl_linalg::random::positive_uniform_matrix(40, 3, 17);
        let v = smfl_linalg::random::positive_uniform_matrix(3, 6, 18);
        smfl_linalg::ops::matmul(&u, &v).unwrap().scale(1.0 / 3.0)
    };
    let (_, omega) = problem(40, 6, 17, 10);
    let cfg = SmflConfig::smfl(3, 2)
        .with_lambda(0.02)
        .with_max_iter(500)
        .with_tol(1e-4)
        .with_seed(2);
    let mut plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
    let cold = plan.solve().unwrap();
    assert!(cold.converged, "cold fit must converge for this property");

    // Identical data: the warm seed is already at the fixed point.
    let resolved = cold.refit(&mut plan, &x, &omega).unwrap();
    assert!(
        resolved.iterations <= 2,
        "warm solve on identical data ran {} iterations",
        resolved.iterations
    );

    // Perturbed data: warm must do no worse than cold, in iterations
    // and in final objective.
    let mut x2 = x.clone();
    for i in 0..x2.rows() {
        let v = x2.get(i, 4);
        x2.set(i, 4, v * 1.02);
    }
    let warm = cold.refit(&mut plan, &x2, &omega).unwrap();
    let cold2 = smfl_core::fit(&x2, &omega, &cfg).unwrap();
    assert!(warm.iterations <= cold2.iterations);
    let wf = warm.final_objective().unwrap();
    let cf = cold2.final_objective().unwrap();
    assert!(wf <= cf * (1.0 + 1e-6), "warm {wf} vs cold {cf}");
}
