//! Reproduces **Figure 1**: locations of learned features versus data
//! observations on the Vehicle dataset.
//!
//! The paper's plot shows NMF and CAMF features scattered far from the
//! observations while SMFL's landmarks sit among them. Text output
//! here: per method, each feature's coordinates, plus two summary
//! statistics — the fraction of features inside the observation
//! bounding box, and the mean distance from a feature to its nearest
//! observation. Shape to verify: SMFL has fraction 1.0 and the smallest
//! mean distance.

use smfl_bench::{head_rows, print_table, HarnessConfig};
use smfl_core::{fit, SmflConfig};
use smfl_datasets::{inject_missing, vehicle};
use smfl_linalg::Matrix;

fn feature_stats(features: &Matrix, si: &Matrix) -> (f64, f64) {
    let (lo_x, hi_x) = (
        si.col(0).iter().cloned().fold(f64::INFINITY, f64::min),
        si.col(0).iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let (lo_y, hi_y) = (
        si.col(1).iter().cloned().fold(f64::INFINITY, f64::min),
        si.col(1).iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let mut inside = 0usize;
    let mut dist_sum = 0.0;
    for f in 0..features.rows() {
        let (x, y) = (features.get(f, 0), features.get(f, 1));
        if x >= lo_x && x <= hi_x && y >= lo_y && y <= hi_y {
            inside += 1;
        }
        let mut best = f64::INFINITY;
        for i in 0..si.rows() {
            let d = (x - si.get(i, 0)).powi(2) + (y - si.get(i, 1)).powi(2);
            if d < best {
                best = d;
            }
        }
        dist_sum += best.sqrt();
    }
    (
        inside as f64 / features.rows().max(1) as f64,
        dist_sum / features.rows().max(1) as f64,
    )
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let d = head_rows(&vehicle(cfg.scale, 0), 2_000);
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 100, 0);
    let si = d.si();

    let mut rows = Vec::new();
    let mut coord_rows = Vec::new();
    for (label, config) in [
        ("NMF", SmflConfig::nmf(cfg.rank)),
        (
            "SMF",
            SmflConfig::smf(cfg.rank, 2)
                .with_lambda(cfg.lambda)
                .with_p(cfg.p),
        ),
        (
            "SMFL (landmarks)",
            SmflConfig::smfl(cfg.rank, 2)
                .with_lambda(cfg.lambda)
                .with_p(cfg.p),
        ),
    ] {
        let model = fit(&inj.corrupted, &inj.omega, &config.with_max_iter(200))
            .expect("fit succeeds on generated data");
        let locs = model.feature_locations().expect("L=2 configured");
        let locs = if label == "NMF" {
            // NMF has no spatial columns configured; read the first two
            // columns of V directly, as the paper does.
            model.v.columns(0, 2).expect("at least 2 columns")
        } else {
            locs
        };
        let (inside, mean_d) = feature_stats(&locs, &si);
        rows.push(vec![
            label.to_string(),
            format!("{inside:.2}"),
            format!("{mean_d:.4}"),
        ]);
        for f in 0..locs.rows() {
            coord_rows.push(vec![
                label.to_string(),
                format!("{f}"),
                format!("{:.4}", locs.get(f, 0)),
                format!("{:.4}", locs.get(f, 1)),
            ]);
        }
    }
    println!(
        "Observation bounding box: x in [{:.3}, {:.3}], y in [{:.3}, {:.3}]",
        si.col(0).iter().cloned().fold(f64::INFINITY, f64::min),
        si.col(0).iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        si.col(1).iter().cloned().fold(f64::INFINITY, f64::min),
        si.col(1).iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    print_table(
        "Figure 1: learned feature locations vs observations (Vehicle)",
        &["Method", "Fraction inside bbox", "Mean dist to nearest obs"],
        &rows,
    );
    print_table(
        "Figure 1 (coordinates)",
        &["Method", "Feature", "x", "y"],
        &coord_rows,
    );
}
