//! Reproduces **Figure 6**: imputation RMS of SMF and SMFL while varying
//! the spatial-regularization weight `λ` from 0.001 to 10.
//!
//! Shape to verify: a U-curve with the sweet spot at moderately small
//! `λ` (0.05–0.1) — tiny `λ` ignores smoothness, huge `λ`
//! over-smooths — and SMFL under SMF across the sweep.

use smfl_baselines::MfImputer;
use smfl_bench::{fmt_rms, imputation_rms, print_table, HarnessConfig, MissingTarget};
use smfl_datasets::{farm, lake};

fn main() {
    let cfg = HarnessConfig::from_env();
    let datasets = vec![farm(cfg.scale, 1), lake(cfg.scale, 2)];
    let lambdas = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0];

    let mut headers: Vec<String> = vec!["Dataset".into(), "Method".into()];
    headers.extend(lambdas.iter().map(|l| format!("λ={l}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for d in &datasets {
        eprintln!("[fig6] {}", d.name);
        for method in ["SMF", "SMFL"] {
            let mut row = vec![d.name.clone(), method.to_string()];
            for &lambda in &lambdas {
                let imp = if method == "SMF" {
                    MfImputer::smf(cfg.rank, 2)
                } else {
                    MfImputer::smfl(cfg.rank, 2)
                };
                let imp = MfImputer {
                    config: imp.config.with_lambda(lambda).with_p(cfg.p),
                };
                let rms = imputation_rms(d, &imp, 0.10, MissingTarget::AttributesOnly, cfg.runs);
                row.push(fmt_rms(rms));
            }
            eprintln!("[fig6]   {method}: {:?}", &row[2..]);
            rows.push(row);
        }
    }
    print_table(
        "Figure 6: RMS vs regularization parameter λ (missing rate 10%)",
        &header_refs,
        &rows,
    );
}
