//! End-to-end detect-and-repair experiment (extension): the paper's
//! repair task assumes the dirty-cell set is given by an external
//! detector (Raha [33]). Here the pipeline runs from raw corrupted data:
//! Raha-lite detects, SMFL repairs — and we compare against repairing
//! with the *oracle* dirty mask to quantify what detection errors cost.

use smfl_baselines::{detection_quality, ErrorDetector, ImputerRepairer, RahaLite, Repairer};
use smfl_bench::harness::RESERVE_COMPLETE;
use smfl_bench::{print_table, HarnessConfig};
use smfl_datasets::{economic, inject_errors, lake};
use smfl_eval::rms_over;

fn main() {
    let cfg = HarnessConfig::from_env();
    let datasets = vec![economic(cfg.scale, 0), lake(cfg.scale, 2)];

    let headers = [
        "Dataset",
        "Detection precision",
        "Detection recall",
        "Detection F1",
        "Repair RMS (detected)",
        "Repair RMS (oracle mask)",
        "RMS untouched",
    ];
    let mut rows = Vec::new();
    for d in &datasets {
        eprintln!("[detect_repair] {}", d.name);
        let mut sums = [0.0f64; 6];
        for seed in 0..cfg.runs {
            let inj = inject_errors(&d.data, 0.10, RESERVE_COMPLETE, seed);
            let detector = RahaLite {
                spatial_cols: d.spatial_cols,
                ..RahaLite::default()
            };
            let detected = detector.detect(&inj.corrupted).expect("detect");
            let (precision, recall, f1) = detection_quality(&detected, &inj.psi);

            let repairer =
                ImputerRepairer::new(cfg.mf(smfl_core::Variant::Smfl).with_seed(seed), "SMFL");
            let with_detected = repairer
                .repair(&inj.corrupted, &detected)
                .expect("repair (detected)");
            let with_oracle = repairer
                .repair(&inj.corrupted, &inj.psi)
                .expect("repair (oracle)");

            // Score both on the true dirty cells.
            sums[0] += precision;
            sums[1] += recall;
            sums[2] += f1;
            sums[3] += rms_over(&with_detected, &d.data, &inj.psi).expect("rms");
            sums[4] += rms_over(&with_oracle, &d.data, &inj.psi).expect("rms");
            sums[5] += rms_over(&inj.corrupted, &d.data, &inj.psi).expect("rms");
        }
        let r = cfg.runs as f64;
        rows.push(vec![
            d.name.clone(),
            format!("{:.3}", sums[0] / r),
            format!("{:.3}", sums[1] / r),
            format!("{:.3}", sums[2] / r),
            format!("{:.3}", sums[3] / r),
            format!("{:.3}", sums[4] / r),
            format!("{:.3}", sums[5] / r),
        ]);
        eprintln!("[detect_repair]   {:?}", rows.last().unwrap());
    }
    print_table(
        "Detect-and-repair pipeline: Raha-lite detection + SMFL repair (error rate 10%)",
        &headers,
        &rows,
    );
}
