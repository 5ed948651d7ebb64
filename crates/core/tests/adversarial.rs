//! Adversarial robustness suite (DESIGN.md §10): no injected fault may
//! make `fit`/`impute`/`repair` panic, and every successful resilient
//! fit must hand back finite factors — the engine's terminal guarantee.
//! Faults come from the `smfl-datasets` injectors so the corruption
//! patterns here are exactly the ones the dataset layer can produce.

use proptest::prelude::*;
use smfl_core::{fit, repair, FitEvent, SmflConfig};
use smfl_datasets::{inject_duplicate_si, inject_inf_spike, inject_nan_burst};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::{Mask, Matrix};

/// The invariant every `Ok` fit must satisfy, resilient or not.
fn assert_model_sane(model: &smfl_core::FittedModel) {
    assert!(model.u.all_finite(), "U contains non-finite entries");
    assert!(model.v.all_finite(), "V contains non-finite entries");
    assert!(model.u.is_nonnegative(0.0), "U went negative");
    for &obj in &model.objective_history {
        assert!(!obj.is_nan(), "objective trace recorded NaN");
    }
}

/// A small observation mask with deterministic holes.
fn holey_mask(n: usize, m: usize, stride: usize) -> Mask {
    let mut omega = Mask::full(n, m);
    for i in (0..n).step_by(stride.max(1)) {
        omega.set(i, (i * 3 + 1) % m, false);
    }
    omega
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Non-finite cells anywhere in the table: the resilient path must
    // sanitize and fit; the strict path must return a typed error, not
    // panic or produce poisoned factors.
    #[test]
    fn injected_non_finite_cells_never_panic(
        n in 12usize..28,
        nan_count in 1usize..8,
        inf_count in 1usize..8,
        seed in 0u64..2000,
    ) {
        let m = 5;
        let mut x = uniform_matrix(n, m, 0.1, 1.0, seed);
        inject_nan_burst(&mut x, nan_count, seed ^ 1);
        inject_inf_spike(&mut x, inf_count, seed ^ 2);
        let omega = holey_mask(n, m, 4);
        let config = SmflConfig::smfl(3, 2).with_max_iter(15).with_seed(seed);

        // Strict path: typed error (sanitization is opt-in).
        prop_assert!(fit(&x, &omega, &config).is_err());

        // Resilient path: Ok with finite factors, or typed error — the
        // injectors may have poisoned every observation of a column.
        if let Ok(model) = fit(&x, &omega, &config.resilient()) {
            assert_model_sane(&model);
            prop_assert!(model.report.sanitized_cells() > 0);
            prop_assert!(model
                .report
                .events
                .iter()
                .any(|e| matches!(e, FitEvent::Sanitized { .. })));
        }
    }

    // Duplicated spatial coordinates stress the landmark ladder: k-means
    // on collapsed SI yields duplicate centres, which must trigger the
    // dedupe-and-retry rung (or drop landmarks), never a panic.
    #[test]
    fn duplicated_coordinates_never_panic(
        n in 12usize..28,
        rate in 0.3f64..1.0,
        seed in 0u64..2000,
    ) {
        let m = 5;
        let mut x = uniform_matrix(n, m, 0.0, 1.0, seed);
        inject_duplicate_si(&mut x, 2, rate, seed ^ 3);
        let omega = Mask::full(n, m);
        let config = SmflConfig::smfl(3, 2).with_max_iter(15).with_seed(seed);
        if let Ok(model) = fit(&x, &omega, &config.resilient()) {
            assert_model_sane(&model);
        }
    }

    // Rows with no observations at all (and p >= N neighbour requests)
    // exercise the graph ladder and the masked updaters' empty-row path.
    #[test]
    fn all_missing_rows_and_oversized_p_never_panic(
        n in 8usize..20,
        missing_rows in 1usize..5,
        p in 1usize..40,
        seed in 0u64..2000,
    ) {
        let m = 4;
        let x = uniform_matrix(n, m, 0.0, 1.0, seed);
        let mut omega = Mask::full(n, m);
        for i in 0..missing_rows.min(n) {
            for j in 0..m {
                omega.set(i * (n / missing_rows.min(n)).max(1) % n, j, false);
            }
        }
        let config = SmflConfig::smfl(2, 2).with_p(p).with_max_iter(10).with_seed(seed);
        if let Ok(model) = fit(&x, &omega, &config.resilient()) {
            assert_model_sane(&model);
        }
    }

    // Aggressive gradient-descent learning rates force divergence: the
    // monitor must restart/roll back and still return the best iterate.
    #[test]
    fn divergent_gd_rolls_back_to_finite_best(
        n in 12usize..24,
        lr in 1.0f64..8.0,
        seed in 0u64..2000,
    ) {
        let m = 4;
        let x = uniform_matrix(n, m, 0.0, 1.0, seed);
        let omega = Mask::full(n, m);
        let config = SmflConfig::nmf(3)
            .with_gradient_descent(lr)
            .with_max_iter(25)
            .with_seed(seed)
            .resilient();
        if let Ok(model) = fit(&x, &omega, &config) {
            assert_model_sane(&model);
            if let Some(obj) = model.final_objective() {
                prop_assert!(obj.is_finite());
            }
        }
    }

    // `repair` routes through the same engine; a dirty mask over a
    // corrupted table must round-trip without panicking, and Ok output
    // must be finite wherever the input was.
    #[test]
    fn repair_on_corrupted_tables_never_panics(
        n in 12usize..24,
        nan_count in 1usize..5,
        seed in 0u64..2000,
    ) {
        let m = 4;
        let mut x = uniform_matrix(n, m, 0.1, 1.0, seed);
        let hit = inject_nan_burst(&mut x, nan_count, seed ^ 7);
        // Flag exactly the poisoned cells dirty, as an error detector would.
        let mut dirty = Mask::empty(n, m);
        for &(i, j) in &hit {
            dirty.set(i, j, true);
        }
        let config = SmflConfig::nmf(2).with_max_iter(10).with_seed(seed).resilient();
        if let Ok(repaired) = repair(&x, &dirty, &config) {
            prop_assert!(repaired.all_finite());
        }
    }
}

// A targeted (non-property) check of the whole ladder end to end: every
// fault class at once, with the report accounting for each repair.
#[test]
fn combined_fault_storm_is_survivable_and_deterministic() {
    let n = 30;
    let m = 6;
    let run = || {
        let mut x = uniform_matrix(n, m, 0.1, 1.0, 99);
        inject_nan_burst(&mut x, 4, 1);
        inject_inf_spike(&mut x, 3, 2);
        inject_duplicate_si(&mut x, 2, 0.8, 3);
        let omega = holey_mask(n, m, 3);
        let config = SmflConfig::smfl(3, 2)
            .with_max_iter(30)
            .with_seed(99)
            .resilient();
        fit(&x, &omega, &config).expect("resilient fit should survive the storm")
    };
    let a = run();
    let b = run();
    assert_model_sane(&a);
    assert!(
        a.report.sanitized_cells() > 0,
        "sanitizer saw no cells: {:?}",
        a.report
    );
    assert!(
        a.report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::Sanitized { .. })),
        "no Sanitized event: {:?}",
        a.report.events
    );
    // Bitwise-deterministic across identical runs.
    assert_eq!(a.report, b.report);
    assert!(a.u.approx_eq(&b.u, 0.0));
    assert!(a.v.approx_eq(&b.v, 0.0));
}

// Degenerate shapes that historically panic factorization code.
#[test]
fn degenerate_shapes_return_typed_errors() {
    let config = SmflConfig::nmf(2).with_max_iter(5).resilient();
    let empty = Matrix::zeros(0, 0);
    assert!(fit(&empty, &Mask::full(0, 0), &config).is_err());

    let thin = uniform_matrix(3, 1, 0.0, 1.0, 5);
    let r = fit(&thin, &Mask::full(3, 1), &config);
    if let Ok(model) = r {
        assert_model_sane(&model);
    }

    // Nothing observed at all.
    let x = uniform_matrix(6, 4, 0.0, 1.0, 6);
    let r = fit(&x, &Mask::empty(6, 4), &config);
    if let Ok(model) = r {
        assert_model_sane(&model);
    }
}
