//! The paper's convergence theorem as property-based tests.
//!
//! Propositions 5 and 7 state that the SMFL objective (Formula 10) is
//! non-increasing under the multiplicative updates of `U` (Formula 13)
//! and `V` (Formula 14), with landmarks held fixed. These proptests
//! hammer that claim across random data shapes, masks, ranks, λ values
//! and variants — plus the side invariants: nonnegativity of the
//! iterates and immobility of the landmark entries.

use proptest::prelude::*;
use smfl_core::{fit, SmflConfig, Variant};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::Mask;

/// Random spatial problem: data in [0, 1], 2 coordinate columns, a mask
/// with ~`missing_pct`% of cells hidden.
fn problem(n: usize, m: usize, seed: u64, missing_pct: u32) -> (smfl_linalg::Matrix, Mask) {
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
    // keep at least one observed cell per column so the fit is sane
    for j in 0..m {
        omega.set(0, j, true);
    }
    (x, omega)
}

fn config_for(variant: Variant, rank: usize, lambda: f64, seed: u64) -> SmflConfig {
    let base = match variant {
        Variant::Nmf => SmflConfig::nmf(rank),
        Variant::Smf => SmflConfig::smf(rank, 2),
        Variant::Smfl => SmflConfig::smfl(rank, 2),
    };
    base.with_lambda(if variant == Variant::Nmf { 0.0 } else { lambda })
        .with_max_iter(30)
        .with_seed(seed)
        .with_tol(0.0) // never early-stop: check the whole trajectory
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn objective_non_increasing_all_variants(
        n in 10usize..40,
        m in 3usize..8,
        rank in 2usize..4,
        lambda in 0.01f64..2.0,
        // 0-80% missing straddles the engine's dense-path threshold
        // (50% density), so both the sparse SpMM path and the dense matmul
        // path are exercised by this property.
        missing in 0u32..80,
        seed in 0u64..10_000,
    ) {
        let (x, omega) = problem(n, m, seed, missing);
        for variant in [Variant::Nmf, Variant::Smf, Variant::Smfl] {
            let rank = rank.min(m.min(n));
            let cfg = config_for(variant, rank, lambda, seed);
            let model = fit(&x, &omega, &cfg).unwrap();
            for w in model.objective_history.windows(2) {
                // Allow for floating-point slack proportional to scale.
                let slack = 1e-8 * w[0].abs().max(1.0);
                prop_assert!(
                    w[1] <= w[0] + slack,
                    "{variant:?}: objective rose {} -> {}",
                    w[0], w[1]
                );
            }
        }
    }

    #[test]
    fn iterates_stay_nonnegative_and_finite(
        n in 10usize..30,
        m in 3usize..7,
        seed in 0u64..10_000,
    ) {
        let (x, omega) = problem(n, m, seed, 20);
        let cfg = config_for(Variant::Smfl, 3.min(m), 0.1, seed);
        let model = fit(&x, &omega, &cfg).unwrap();
        prop_assert!(model.u.is_nonnegative(0.0));
        prop_assert!(model.v.is_nonnegative(0.0));
        prop_assert!(model.u.all_finite());
        prop_assert!(model.v.all_finite());
    }

    #[test]
    fn landmarks_never_move(
        n in 10usize..30,
        m in 3usize..7,
        seed in 0u64..10_000,
    ) {
        let (x, omega) = problem(n, m, seed, 15);
        let cfg = config_for(Variant::Smfl, 3.min(m), 0.2, seed);
        let model = fit(&x, &omega, &cfg).unwrap();
        let lm = model.landmarks.as_ref().unwrap();
        prop_assert!(lm.verify_injected(&model.v));
        // And the landmarks lie inside the observed coordinate range
        // (k-means centres are convex combinations of SI rows).
        let si = x.columns(0, 2).unwrap();
        let (lo, hi) = (si.min().unwrap(), si.max().unwrap());
        prop_assert!(lm.centers.min().unwrap() >= lo - 1e-12);
        prop_assert!(lm.centers.max().unwrap() <= hi + 1e-12);
    }

    #[test]
    fn impute_is_formula_8(
        n in 10usize..25,
        m in 3usize..6,
        seed in 0u64..10_000,
    ) {
        let (x, omega) = problem(n, m, seed, 25);
        let cfg = config_for(Variant::Smf, 2, 0.1, seed);
        let model = fit(&x, &omega, &cfg).unwrap();
        let imputed = model.impute(&x, &omega).unwrap();
        let xstar = model.reconstruct().unwrap();
        for i in 0..n {
            for j in 0..m {
                let expected = if omega.get(i, j) { x.get(i, j) } else { xstar.get(i, j) };
                prop_assert_eq!(imputed.get(i, j), expected);
            }
        }
    }

    #[test]
    fn gradient_descent_keeps_feasibility(
        n in 10usize..25,
        m in 3usize..6,
        seed in 0u64..10_000,
    ) {
        let (x, omega) = problem(n, m, seed, 10);
        let cfg = config_for(Variant::Smfl, 2, 0.1, seed).with_gradient_descent(1e-3);
        let model = fit(&x, &omega, &cfg).unwrap();
        prop_assert!(model.u.is_nonnegative(0.0));
        prop_assert!(model.v.is_nonnegative(0.0));
        prop_assert!(model.landmarks.as_ref().unwrap().verify_injected(&model.v));
    }
}

#[test]
fn perfect_factorization_is_a_fixed_point_neighborhood() {
    // Start-from-truth: with X = UV exact and full observation, the
    // objective must immediately be ~0 and stay there.
    let u = positive_uniform_matrix(20, 3, 1);
    let v = positive_uniform_matrix(3, 5, 2);
    let x = smfl_linalg::ops::matmul(&u, &v).unwrap().scale(1.0 / 3.0);
    let omega = Mask::full(20, 5);
    let model = fit(
        &x,
        &omega,
        &SmflConfig::nmf(3).with_max_iter(300).with_tol(1e-12),
    )
    .unwrap();
    let first = model.objective_history[0];
    let last = model.final_objective().unwrap();
    assert!(
        last < 1e-2 && last < 0.05 * first,
        "objective should approach 0, got {first} -> {last}"
    );
}
