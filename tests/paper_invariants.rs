//! The paper's structural claims as cross-crate integration tests:
//! landmark geometry (Figs. 1/5), convergence (Propositions 5/7 at
//! pipeline scale), the missing-SI protocol (Table V), and the
//! efficiency mechanism (§IV-E: SMFL updates fewer `V` columns).

use smfl_core::{fit, SmflConfig};
use smfl_datasets::{farm, inject_missing, lake, Scale};
use smfl_linalg::Matrix;

#[test]
fn landmarks_stay_inside_observation_bbox() {
    // Fig. 1 / Fig. 5: SMFL features are geographically close to the
    // data — at minimum inside its bounding box. SMF features have no
    // such guarantee.
    let d = lake(Scale::Small, 4);
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 50, 0);
    let model = fit(
        &inj.corrupted,
        &inj.omega,
        &SmflConfig::smfl(5, 2).with_max_iter(100),
    )
    .unwrap();
    let locs = model.feature_locations().unwrap();
    let si = d.si();
    let (lo_x, hi_x) = min_max(&si.col(0));
    let (lo_y, hi_y) = min_max(&si.col(1));
    for k in 0..locs.rows() {
        let (x, y) = (locs.get(k, 0), locs.get(k, 1));
        assert!(
            x >= lo_x && x <= hi_x,
            "landmark {k} x={x} outside [{lo_x}, {hi_x}]"
        );
        assert!(
            y >= lo_y && y <= hi_y,
            "landmark {k} y={y} outside [{lo_y}, {hi_y}]"
        );
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    (
        v.iter().cloned().fold(f64::INFINITY, f64::min),
        v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    )
}

#[test]
fn objective_non_increasing_at_pipeline_scale() {
    let d = farm(Scale::Small, 5);
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 50, 0);
    for cfg in [
        SmflConfig::nmf(6).with_max_iter(80).with_tol(0.0),
        SmflConfig::smf(6, 2).with_max_iter(80).with_tol(0.0),
        SmflConfig::smfl(6, 2).with_max_iter(80).with_tol(0.0),
    ] {
        let model = fit(&inj.corrupted, &inj.omega, &cfg).unwrap();
        for w in model.objective_history.windows(2) {
            let slack = 1e-8 * w[0].abs().max(1.0);
            assert!(
                w[1] <= w[0] + slack,
                "{:?}: objective rose {} -> {}",
                cfg.variant,
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn missing_spatial_information_degrades_but_still_works() {
    // Table V protocol: holes in the SI columns too. The column-mean
    // initialization (paper §II-C) must keep the fit alive.
    let d = lake(Scale::Small, 6);
    let all: Vec<usize> = (0..d.m()).collect();
    let inj = inject_missing(&d.data, &all, 0.10, 50, 0);
    let model = fit(
        &inj.corrupted,
        &inj.omega,
        &SmflConfig::smfl(5, 2).with_max_iter(100),
    )
    .unwrap();
    assert!(model.u.all_finite() && model.v.all_finite());
    let imputed = model.impute(&inj.corrupted, &inj.omega).unwrap();
    let rms = smfl_eval::rms_over(&imputed, &d.data, &inj.psi).unwrap();
    assert!(rms < 0.6, "Table-V setting RMS implausible: {rms}");
}

#[test]
fn smfl_touches_fewer_v_entries_than_smf() {
    // §IV-E mechanism: after fitting, SMFL's landmark block must hold the
    // injected values exactly, while SMF's same block has been rewritten
    // by the updates.
    let d = lake(Scale::Small, 7);
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 50, 0);
    let smfl = fit(
        &inj.corrupted,
        &inj.omega,
        &SmflConfig::smfl(5, 2).with_max_iter(50),
    )
    .unwrap();
    let lm = smfl.landmarks.as_ref().unwrap();
    assert!(lm.verify_injected(&smfl.v));

    let smf = fit(
        &inj.corrupted,
        &inj.omega,
        &SmflConfig::smf(5, 2).with_max_iter(50),
    )
    .unwrap();
    // SMF's V spatial block differs from its random initialization and
    // from the k-means centres.
    let smf_block = smf.v.columns(0, 2).unwrap();
    assert!(!smf_block.approx_eq(&lm.centers, 1e-6));
}

#[test]
fn gradient_and_multiplicative_optimizers_land_close() {
    // Fig. 5 companion: both optimizers minimize the same objective, so
    // final objective values must be in the same ballpark (not equal —
    // different local minima are expected).
    let d = farm(Scale::Small, 8);
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 50, 0);
    let multi = fit(
        &inj.corrupted,
        &inj.omega,
        &SmflConfig::smf(4, 2).with_max_iter(300),
    )
    .unwrap();
    let gd = fit(
        &inj.corrupted,
        &inj.omega,
        &SmflConfig::smf(4, 2)
            .with_gradient_descent(2e-4)
            .with_max_iter(300),
    )
    .unwrap();
    let (om, og) = (
        multi.final_objective().unwrap(),
        gd.final_objective().unwrap(),
    );
    assert!(om.is_finite() && og.is_finite());
    assert!(
        og < om * 20.0 && om < og * 20.0,
        "optimizers diverged wildly: multiplicative {om}, gd {og}"
    );
}

#[test]
fn overcomplete_landmark_dictionary_is_usable() {
    // K > M (more landmarks than columns) is a supported regime.
    let d = lake(Scale::Small, 9);
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 50, 0);
    let model = fit(
        &inj.corrupted,
        &inj.omega,
        &SmflConfig::smfl(10, 2).with_max_iter(60),
    )
    .unwrap();
    assert_eq!(model.v.shape(), (10, d.m()));
    assert!(model.u.all_finite());
}

#[test]
fn feature_locations_shape_matches_configuration() {
    let d = lake(Scale::Small, 10);
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 50, 0);
    for k in [3usize, 5] {
        let model = fit(
            &inj.corrupted,
            &inj.omega,
            &SmflConfig::smfl(k, 2).with_max_iter(20),
        )
        .unwrap();
        let locs: Matrix = model.feature_locations().unwrap();
        assert_eq!(locs.shape(), (k, 2));
    }
}
