//! Cross-crate integration: the full Table-IV pipeline — generate a
//! dataset (`smfl-datasets`), inject missing cells, run imputers
//! (`smfl-baselines` / `smfl-core`), score with `smfl-eval`.

use smfl_baselines::{
    DlmImputer, Imputer, IterativeImputer, KnnImputer, MeanImputer, MfImputer, SoftImputeImputer,
};
use smfl_datasets::{inject_missing, lake, Scale};
use smfl_eval::rms_over;
use smfl_linalg::Matrix;

fn small_lake() -> smfl_datasets::Dataset {
    let full = lake(Scale::Small, 0);
    smfl_datasets::Dataset {
        name: full.name.clone(),
        data: full.data.rows_range(0, 300).unwrap(),
        spatial_cols: full.spatial_cols,
        columns: full.columns.clone(),
        cluster_labels: full.cluster_labels.as_ref().map(|l| l[..300].to_vec()),
        routes: None,
    }
}

fn run(imputer: &dyn Imputer) -> (f64, Matrix) {
    let d = small_lake();
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 50, 0);
    let out = imputer.impute(&inj.corrupted, &inj.omega).unwrap();
    let rms = rms_over(&out, &d.data, &inj.psi).unwrap();
    (rms, out)
}

#[test]
fn every_imputer_completes_the_pipeline() {
    let imputers: Vec<Box<dyn Imputer>> = vec![
        Box::new(MeanImputer),
        Box::new(KnnImputer::default()),
        Box::new(DlmImputer::default()),
        Box::new(SoftImputeImputer::default()),
        Box::new(IterativeImputer::default()),
        Box::new(MfImputer::nmf(5).with_max_iter(100)),
        Box::new(MfImputer::smf(5, 2).with_max_iter(100)),
        Box::new(MfImputer::smfl(5, 2).with_max_iter(100)),
    ];
    for imp in &imputers {
        let (rms, out) = run(imp.as_ref());
        assert!(
            out.all_finite(),
            "{} produced non-finite values",
            imp.name()
        );
        assert!(
            rms > 0.0 && rms < 0.6,
            "{} RMS {rms} outside plausible range",
            imp.name()
        );
    }
}

#[test]
fn spatial_models_beat_plain_nmf() {
    // The paper's headline ordering, at integration scale.
    let (nmf, _) = run(&MfImputer::nmf(5).with_max_iter(200));
    let (smf, _) = run(&MfImputer::smf(5, 2).with_max_iter(200));
    let (smfl, _) = run(&MfImputer::smfl(5, 2).with_max_iter(200));
    assert!(smf < nmf, "SMF ({smf}) must beat NMF ({nmf})");
    assert!(smfl < nmf, "SMFL ({smfl}) must beat NMF ({nmf})");
}

#[test]
fn informed_methods_beat_mean_imputation() {
    let (mean, _) = run(&MeanImputer);
    // Run SMFL at the λ/p operating point for this repo's generators
    // (DESIGN.md §7): the paper's §IV-D likewise tunes λ and p per
    // dataset before comparing against the uninformed baselines.
    let mut smfl_imp = MfImputer::smfl(5, 2).with_max_iter(200);
    smfl_imp.config = smfl_imp.config.with_lambda(3.0).with_p(5);
    let (smfl, _) = run(&smfl_imp);
    let (knn, _) = run(&KnnImputer::default());
    assert!(smfl < mean, "SMFL ({smfl}) must beat Mean ({mean})");
    assert!(knn < mean, "kNN ({knn}) must beat Mean ({mean})");
}

#[test]
fn observed_cells_survive_every_method() {
    let d = small_lake();
    let inj = inject_missing(&d.data, &d.attribute_cols(), 0.15, 30, 1);
    for imp in [
        Box::new(MeanImputer) as Box<dyn Imputer>,
        Box::new(MfImputer::smfl(4, 2).with_max_iter(30)),
        Box::new(SoftImputeImputer::default()),
    ] {
        let out = imp.impute(&inj.corrupted, &inj.omega).unwrap();
        for (i, j) in inj.omega.iter_set() {
            assert_eq!(
                out.get(i, j),
                inj.corrupted.get(i, j),
                "{} altered an observed cell",
                imp.name()
            );
        }
    }
}

#[test]
fn higher_missing_rate_does_not_help() {
    // RMS at 40% missing should not be better than at 10% for the same
    // method and seed (monotone degradation, Table VII's trend).
    let d = small_lake();
    let imp = MfImputer::smfl(5, 2).with_max_iter(150);
    let mut rms_by_rate = Vec::new();
    for &rate in &[0.10, 0.40] {
        let inj = inject_missing(&d.data, &d.attribute_cols(), rate, 50, 0);
        let out = imp.impute(&inj.corrupted, &inj.omega).unwrap();
        rms_by_rate.push(rms_over(&out, &d.data, &inj.psi).unwrap());
    }
    assert!(
        rms_by_rate[1] > rms_by_rate[0] * 0.8,
        "40% missing ({}) implausibly easier than 10% ({})",
        rms_by_rate[1],
        rms_by_rate[0]
    );
}
