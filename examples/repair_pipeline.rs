//! Data repair (paper §II-D, Table VI): cells flagged dirty by an error
//! detector are replaced with factorization values.
//!
//! ```text
//! cargo run --release --example repair_pipeline
//! ```
//!
//! Injects same-domain errors into a dataset, repairs with Baran-lite,
//! HoloClean-lite and SMFL, and reports the repair RMS of each.

use smfl_baselines::{BaranLite, HoloCleanLite, ImputerRepairer, MfImputer, Repairer};
use smfl_datasets::{farm, inject_errors, Scale};
use smfl_eval::rms_over;

fn main() {
    let dataset = farm(Scale::Small, 13);
    println!("{}: {} x {}", dataset.name, dataset.n(), dataset.m());

    // 10% of cells silently replaced with other in-domain values.
    let inj = inject_errors(&dataset.data, 0.10, 100, 3);
    println!("dirty cells: {}", inj.psi.count());

    // How bad is doing nothing?
    let untouched = rms_over(&inj.corrupted, &dataset.data, &inj.psi).expect("rms");
    println!("no repair: RMS {untouched:.4}");

    let repairers: Vec<Box<dyn Repairer>> = vec![
        Box::new(BaranLite),
        Box::new(HoloCleanLite::default()),
        Box::new(ImputerRepairer::new(MfImputer::smf(6, 2), "SMF")),
        Box::new(ImputerRepairer::new(MfImputer::smfl(6, 2), "SMFL")),
    ];
    for repairer in &repairers {
        let repaired = repairer
            .repair(&inj.corrupted, &inj.psi)
            .expect("repair succeeds");
        let rms = rms_over(&repaired, &dataset.data, &inj.psi).expect("rms");
        println!("{}: RMS {rms:.4}", repairer.name());
        // Clean cells must never be touched.
        for (i, j) in inj.omega.iter_set().take(1000) {
            assert_eq!(repaired.get(i, j), inj.corrupted.get(i, j));
        }
    }
}
