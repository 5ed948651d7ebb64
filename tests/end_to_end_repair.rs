//! Cross-crate integration for the repair task (paper Table VI):
//! inject same-domain errors, repair with every method, check the
//! contract and the paper's ordering (MF family beats dedicated
//! repairers on spatial data).

use smfl_baselines::{BaranLite, HoloCleanLite, ImputerRepairer, MfImputer, Repairer};
use smfl_datasets::{inject_errors, lake, Scale};
use smfl_eval::rms_over;

fn setup() -> (smfl_datasets::Dataset, smfl_datasets::Injection) {
    let full = lake(Scale::Small, 1);
    let d = smfl_datasets::Dataset {
        name: full.name.clone(),
        data: full.data.rows_range(0, 300).unwrap(),
        spatial_cols: full.spatial_cols,
        columns: full.columns.clone(),
        cluster_labels: None,
        routes: None,
    };
    let inj = inject_errors(&d.data, 0.10, 50, 0);
    (d, inj)
}

fn repairers() -> Vec<Box<dyn Repairer>> {
    vec![
        Box::new(BaranLite),
        Box::new(HoloCleanLite::default()),
        Box::new(ImputerRepairer::new(
            MfImputer::nmf(5).with_max_iter(100),
            "NMF",
        )),
        Box::new(ImputerRepairer::new(
            MfImputer::smf(5, 2).with_max_iter(100),
            "SMF",
        )),
        Box::new(ImputerRepairer::new(
            MfImputer::smfl(5, 2).with_max_iter(100),
            "SMFL",
        )),
    ]
}

#[test]
fn every_repairer_improves_on_doing_nothing() {
    let (d, inj) = setup();
    let untouched = rms_over(&inj.corrupted, &d.data, &inj.psi).unwrap();
    for rep in repairers() {
        let out = rep.repair(&inj.corrupted, &inj.psi).unwrap();
        let rms = rms_over(&out, &d.data, &inj.psi).unwrap();
        assert!(
            rms < untouched,
            "{} failed to improve: {rms} vs untouched {untouched}",
            rep.name()
        );
    }
}

#[test]
fn clean_cells_are_never_modified() {
    let (_, inj) = setup();
    for rep in repairers() {
        let out = rep.repair(&inj.corrupted, &inj.psi).unwrap();
        for (i, j) in inj.omega.iter_set() {
            assert_eq!(
                out.get(i, j),
                inj.corrupted.get(i, j),
                "{} modified clean cell ({i},{j})",
                rep.name()
            );
        }
    }
}

#[test]
fn spatial_mf_repair_beats_generic_repairers() {
    // Table VI's shape on the Economic analogue, averaged over three
    // injection seeds (the paper's protocol): SMFL best overall, Baran
    // clearly behind the MF family, SMFL ≤ SMF ≤ NMF among MF variants.
    let d = smfl_datasets::economic(Scale::Small, 0);
    let mut sums = [0.0f64; 4]; // baran, nmf, smf, smfl
    for seed in 0..3u64 {
        let inj = inject_errors(&d.data, 0.10, 50, seed);
        let reps: Vec<Box<dyn Repairer>> = vec![
            Box::new(BaranLite),
            Box::new(ImputerRepairer::new(
                MfImputer::nmf(6).with_seed(seed),
                "NMF",
            )),
            Box::new(ImputerRepairer::new(
                MfImputer::smf(6, 2).with_seed(seed),
                "SMF",
            )),
            Box::new(ImputerRepairer::new(
                MfImputer::smfl(6, 2).with_seed(seed),
                "SMFL",
            )),
        ];
        for (k, rep) in reps.iter().enumerate() {
            let out = rep.repair(&inj.corrupted, &inj.psi).unwrap();
            sums[k] += rms_over(&out, &d.data, &inj.psi).unwrap();
        }
    }
    let [baran, nmf, smf, smfl] = sums.map(|s| s / 3.0);
    assert!(smfl < baran, "SMFL ({smfl}) should beat Baran ({baran})");
    assert!(smfl < nmf, "SMFL ({smfl}) should beat NMF ({nmf})");
    assert!(smf < baran, "SMF ({smf}) should beat Baran ({baran})");
    assert!(
        smfl < smf + 0.01,
        "SMFL ({smfl}) should not trail SMF ({smf}) meaningfully"
    );
}

#[test]
fn corrupted_values_never_leak_into_mf_repair() {
    // The adapter blanks dirty cells; the fit must not depend on them.
    let (_, inj) = setup();
    let mut corrupted_alt = inj.corrupted.clone();
    for (i, j) in inj.psi.iter_set() {
        corrupted_alt.set(i, j, 0.77); // different garbage, same positions
    }
    let rep = ImputerRepairer::new(MfImputer::smf(4, 2).with_max_iter(50), "SMF");
    let a = rep.repair(&inj.corrupted, &inj.psi).unwrap();
    let b = rep.repair(&corrupted_alt, &inj.psi).unwrap();
    for (i, j) in inj.psi.iter_set() {
        assert_eq!(
            a.get(i, j),
            b.get(i, j),
            "repair value at ({i},{j}) depends on the corrupted value"
        );
    }
}
