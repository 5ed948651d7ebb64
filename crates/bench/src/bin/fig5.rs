//! Reproduces **Figure 5**: learned feature locations of SMF under both
//! optimizers (gradient descent `SMF-GD` and multiplicative
//! `SMF-Multi`) versus the SMFL landmarks, with `L = 2, K = 5`.
//!
//! Shape to verify: SMF features (either optimizer) can land far outside
//! the observation region; SMFL's landmarks always lie inside it.

use smfl_bench::{head_rows, print_table, HarnessConfig};
use smfl_core::{fit, SmflConfig};
use smfl_datasets::{inject_missing, lake};
use smfl_linalg::Matrix;

fn bbox(si: &Matrix) -> (f64, f64, f64, f64) {
    (
        si.col(0).iter().cloned().fold(f64::INFINITY, f64::min),
        si.col(0).iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        si.col(1).iter().cloned().fold(f64::INFINITY, f64::min),
        si.col(1).iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    )
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let d = head_rows(&lake(cfg.scale, 0), 1_000);
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 100, 0);
    let si = d.si();
    let (lo_x, hi_x, lo_y, hi_y) = bbox(&si);
    println!("Observation bbox: x in [{lo_x:.3}, {hi_x:.3}], y in [{lo_y:.3}, {hi_y:.3}]");

    const K: usize = 5;
    let configs = [
        ("SMF-GD", SmflConfig::smf(K, 2).with_gradient_descent(1e-3)),
        ("SMF-Multi", SmflConfig::smf(K, 2)),
        ("SMFL", SmflConfig::smfl(K, 2)),
    ];
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (label, config) in configs {
        let model =
            fit(&inj.corrupted, &inj.omega, &config.with_max_iter(200)).expect("fit succeeds");
        let locs = model.feature_locations().expect("L=2 configured");
        let mut inside = 0;
        for f in 0..K {
            let (x, y) = (locs.get(f, 0), locs.get(f, 1));
            if x >= lo_x && x <= hi_x && y >= lo_y && y <= hi_y {
                inside += 1;
            }
            rows.push(vec![
                label.to_string(),
                format!("{f}"),
                format!("{x:.4}"),
                format!("{y:.4}"),
            ]);
        }
        summary.push(vec![label.to_string(), format!("{inside}/{K}")]);
    }
    print_table(
        "Figure 5: feature locations (L = 2, K = 5)",
        &["Method", "Feature", "x", "y"],
        &rows,
    );
    print_table(
        "Figure 5 (summary): features inside the observation bbox",
        &["Method", "Inside bbox"],
        &summary,
    );
}
