//! Behavioral tests of the public one-shot fit API (historically the
//! unit tests of `model.rs`, kept as an integration suite now that the
//! pipeline lives in `plan.rs`/`engine.rs`).

use smfl_core::{fit, impute, repair, SmflConfig};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::{LinalgError, Mask, Matrix};

/// Synthetic low-rank nonnegative data with two leading coordinate
/// columns — a miniature of the paper's setting.
fn spatial_data(n: usize, m: usize, seed: u64) -> Matrix {
    let u = smfl_linalg::random::positive_uniform_matrix(n, 3, seed);
    let v = smfl_linalg::random::positive_uniform_matrix(3, m, seed + 1);
    smfl_linalg::ops::matmul(&u, &v).unwrap().scale(1.0 / 3.0)
}

fn drop_cells(n: usize, m: usize, frac_inv: usize) -> Mask {
    let mut omega = Mask::full(n, m);
    for i in 0..n {
        if i % frac_inv == 0 {
            omega.set(i, (i * 5 + 2) % m, false);
        }
    }
    omega
}

#[test]
fn fit_runs_and_shapes_are_right() {
    let x = spatial_data(40, 6, 1);
    let omega = drop_cells(40, 6, 4);
    let model = fit(&x, &omega, &SmflConfig::smfl(4, 2).with_max_iter(50)).unwrap();
    assert_eq!(model.u.shape(), (40, 4));
    assert_eq!(model.v.shape(), (4, 6));
    assert_eq!(model.feature_locations().unwrap().shape(), (4, 2));
    assert!(model.iterations > 0);
    assert!(!model.objective_history.is_empty());
}

#[test]
fn objective_history_non_increasing_for_multiplicative() {
    let x = spatial_data(30, 5, 2);
    let omega = drop_cells(30, 5, 3);
    for cfg in [
        SmflConfig::nmf(3).with_max_iter(60),
        SmflConfig::smf(3, 2).with_max_iter(60),
        SmflConfig::smfl(3, 2).with_max_iter(60),
    ] {
        let model = fit(&x, &omega, &cfg).unwrap();
        for w in model.objective_history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "objective rose under {:?}: {} -> {}",
                cfg.variant,
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn landmarks_present_only_for_smfl() {
    let x = spatial_data(25, 5, 3);
    let omega = Mask::full(25, 5);
    assert!(fit(&x, &omega, &SmflConfig::smfl(3, 2).with_max_iter(5))
        .unwrap()
        .landmarks
        .is_some());
    assert!(fit(&x, &omega, &SmflConfig::smf(3, 2).with_max_iter(5))
        .unwrap()
        .landmarks
        .is_none());
    assert!(fit(&x, &omega, &SmflConfig::nmf(3).with_max_iter(5))
        .unwrap()
        .landmarks
        .is_none());
}

#[test]
fn smfl_feature_locations_equal_landmarks() {
    let x = spatial_data(30, 6, 4);
    let omega = drop_cells(30, 6, 5);
    let model = fit(&x, &omega, &SmflConfig::smfl(4, 2).with_max_iter(30)).unwrap();
    let locs = model.feature_locations().unwrap();
    let lm = model.landmarks.as_ref().unwrap();
    assert!(locs.approx_eq(&lm.centers, 0.0));
}

#[test]
fn impute_preserves_observed_cells_exactly() {
    let x = spatial_data(30, 5, 5);
    let omega = drop_cells(30, 5, 3);
    let imputed = impute(&x, &omega, &SmflConfig::smfl(3, 2).with_max_iter(40)).unwrap();
    for (i, j) in omega.iter_set() {
        assert_eq!(imputed.get(i, j), x.get(i, j));
    }
}

#[test]
fn impute_recovers_low_rank_data_well() {
    // Data is exactly rank 3; a rank-3 fit should fill the holes with
    // small error.
    let x = spatial_data(60, 6, 6);
    let omega = drop_cells(60, 6, 2);
    let psi = omega.complement();
    let imputed = impute(
        &x,
        &omega,
        &SmflConfig::nmf(3).with_max_iter(500).with_tol(1e-10),
    )
    .unwrap();
    let mut err = 0.0;
    let mut cnt = 0;
    for (i, j) in psi.iter_set() {
        err += (imputed.get(i, j) - x.get(i, j)).powi(2);
        cnt += 1;
    }
    let rms = (err / cnt as f64).sqrt();
    assert!(rms < 0.08, "imputation RMS too high: {rms}");
}

#[test]
fn repair_replaces_only_dirty_cells() {
    let x = spatial_data(25, 5, 7);
    let mut dirty = Mask::empty(25, 5);
    dirty.set(3, 4, true);
    dirty.set(10, 2, true);
    let repaired = repair(&x, &dirty, &SmflConfig::smfl(3, 2).with_max_iter(30)).unwrap();
    for i in 0..25 {
        for j in 0..5 {
            if !dirty.get(i, j) {
                assert_eq!(repaired.get(i, j), x.get(i, j));
            }
        }
    }
}

#[test]
fn converges_before_cap_on_easy_data() {
    let x = spatial_data(40, 5, 8);
    let omega = Mask::full(40, 5);
    let model = fit(&x, &omega, &SmflConfig::nmf(3).with_tol(1e-4)).unwrap();
    assert!(
        model.converged,
        "did not converge in {} iters",
        model.iterations
    );
    assert!(model.iterations < 500);
}

#[test]
fn deterministic_given_seed() {
    let x = spatial_data(20, 5, 9);
    let omega = drop_cells(20, 5, 4);
    let cfg = SmflConfig::smfl(3, 2).with_max_iter(20).with_seed(33);
    let a = fit(&x, &omega, &cfg).unwrap();
    let b = fit(&x, &omega, &cfg).unwrap();
    assert!(a.u.approx_eq(&b.u, 0.0));
    assert!(a.v.approx_eq(&b.v, 0.0));
}

#[test]
fn validation_rejects_bad_configs() {
    let x = spatial_data(10, 5, 10);
    let omega = Mask::full(10, 5);
    assert!(fit(&x, &Mask::full(9, 5), &SmflConfig::nmf(2)).is_err());
    assert!(fit(&x, &omega, &SmflConfig::nmf(0)).is_err());
    assert!(fit(&x, &omega, &SmflConfig::nmf(10)).is_err()); // rank >= N
                                                             // rank > M is allowed: an overcomplete landmark dictionary.
    assert!(fit(&x, &omega, &SmflConfig::nmf(6).with_max_iter(3)).is_ok());
    assert!(fit(&x, &omega, &SmflConfig::smfl(2, 9)).is_err()); // L > M
    assert!(fit(&Matrix::zeros(0, 0), &Mask::full(0, 0), &SmflConfig::nmf(1)).is_err());
}

#[test]
fn negative_observed_data_rejected_for_multiplicative() {
    let mut x = spatial_data(10, 5, 11);
    x.set(2, 2, -0.5);
    let omega = Mask::full(10, 5);
    assert!(fit(&x, &omega, &SmflConfig::nmf(2)).is_err());
    // ...but fine when the negative cell is unobserved.
    let mut omega2 = Mask::full(10, 5);
    omega2.set(2, 2, false);
    assert!(fit(&x, &omega2, &SmflConfig::nmf(2).with_max_iter(5)).is_ok());
}

#[test]
fn gradient_descent_variant_runs() {
    let x = spatial_data(20, 5, 12);
    let omega = drop_cells(20, 5, 4);
    let cfg = SmflConfig::smf(3, 2)
        .with_gradient_descent(5e-3)
        .with_max_iter(100);
    let model = fit(&x, &omega, &cfg).unwrap();
    assert!(model.u.is_nonnegative(0.0));
    assert!(model.v.is_nonnegative(0.0));
    let first = model.objective_history[0];
    let last = *model.objective_history.last().unwrap();
    assert!(last <= first);
}

#[test]
fn validation_rejects_non_finite_observed_cells() {
    let mut x = spatial_data(12, 5, 40);
    x.set(4, 3, f64::NAN);
    let omega = Mask::full(12, 5);
    let err = fit(&x, &omega, &SmflConfig::nmf(2)).unwrap_err();
    assert!(matches!(err, LinalgError::NonFinite { index: (4, 3), .. }));
    // Unobserved non-finite cells are harmless.
    let mut omega2 = Mask::full(12, 5);
    omega2.set(4, 3, false);
    assert!(fit(&x, &omega2, &SmflConfig::nmf(2).with_max_iter(5)).is_ok());
}

#[test]
fn uniform_random_data_still_well_behaved() {
    // Not low-rank at all: fit must stay finite and non-increasing.
    let x = uniform_matrix(30, 6, 0.0, 1.0, 13);
    let omega = drop_cells(30, 6, 3);
    let model = fit(&x, &omega, &SmflConfig::smfl(4, 2).with_max_iter(40)).unwrap();
    assert!(model.u.all_finite() && model.v.all_finite());
    for w in model.objective_history.windows(2) {
        assert!(w[1] <= w[0] + 1e-9);
    }
}
