//! Reproduces **Figure 9**: wall-clock time of the methods over
//! Economic (13 columns) and Lake (7 columns) while varying the number
//! of tuples.
//!
//! Shape to verify (paper §IV-E): neighbour/statistics methods (kNNE,
//! DLM) and GAN methods (GAIN, CAMF) are the slow group; the MF family
//! scales best in the higher-dimensional dataset; **SMFL runs slightly
//! faster than SMF** because the landmark columns of `V` are frozen.

use smfl_baselines::{
    CamfImputer, DlmImputer, GainImputer, Imputer, IterativeImputer, KnneImputer, McImputer,
    MfImputer, SoftImputeImputer,
};
use smfl_bench::{head_rows, print_table, HarnessConfig};
use smfl_datasets::{economic, inject_missing, lake};
use smfl_eval::time_runs;

fn lineup(rank: usize, lambda: f64, p: usize) -> Vec<Box<dyn Imputer>> {
    vec![
        Box::new(KnneImputer::default()),
        Box::new(DlmImputer::default()),
        Box::new(GainImputer::default()),
        Box::new(CamfImputer::default()),
        Box::new(McImputer::default()),
        Box::new(SoftImputeImputer::default()),
        Box::new(IterativeImputer::default()),
        Box::new(MfImputer {
            config: MfImputer::smf(rank, 2).config.with_lambda(lambda).with_p(p),
        }),
        Box::new(MfImputer {
            config: MfImputer::smfl(rank, 2)
                .config
                .with_lambda(lambda)
                .with_p(p),
        }),
    ]
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let datasets = vec![economic(cfg.scale, 0), lake(cfg.scale, 2)];
    let fractions = [0.25, 0.5, 0.75, 1.0];

    for d in &datasets {
        eprintln!("[fig9] {} ({} x {})", d.name, d.n(), d.m());
        let sizes: Vec<usize> = fractions
            .iter()
            .map(|f| ((d.n() as f64 * f) as usize).max(50))
            .collect();
        let mut headers: Vec<String> = vec!["Method".into()];
        headers.extend(sizes.iter().map(|n| format!("n={n}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

        let mut rows = Vec::new();
        for imp in lineup(cfg.rank, cfg.lambda, cfg.p) {
            let mut row = vec![imp.name().to_string()];
            for &n in &sizes {
                let sub = head_rows(d, n);
                let inj = inject_missing(&sub.data, &sub.attribute_cols(), 0.10, 100, 0);
                let (timing, result) = time_runs(1, || imp.impute(&inj.corrupted, &inj.omega));
                row.push(match result {
                    Ok(_) => format!("{:.3}s", timing.median_secs()),
                    Err(_) => "ERR".to_string(),
                });
            }
            eprintln!("[fig9]   {:<11} {:?}", imp.name(), &row[1..]);
            rows.push(row);
        }
        print_table(
            &format!("Figure 9: time cost vs number of tuples ({})", d.name),
            &header_refs,
            &rows,
        );
    }
}
