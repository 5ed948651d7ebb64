//! Reproduces **Table IV**: imputation RMS error of 12 methods over the
//! four datasets at 10% missing rate (attributes only; spatial
//! information stays observed).
//!
//! Paper shape to verify: SMFL best on every dataset; SMF second among
//! the MF family; DLM and Iterative the strongest non-MF baselines;
//! GAIN/CAMF weak on spatial data.

use smfl_baselines::standard_imputers_with;
use smfl_bench::{fmt_rms, imputation_rms, print_table, HarnessConfig, MissingTarget};
use smfl_datasets::all_datasets;

fn main() {
    let cfg = HarnessConfig::from_env();
    let datasets = all_datasets(cfg.scale, 0);
    let mut headers = vec!["Dataset"];
    let imputers = standard_imputers_with(cfg.rank, 2, cfg.lambda, cfg.p);
    let names: Vec<&str> = imputers.iter().map(|i| i.name()).collect();
    headers.extend(&names);

    let mut rows = Vec::new();
    for d in &datasets {
        eprintln!("[table4] {} ({} x {})", d.name, d.n(), d.m());
        let mut row = vec![d.name.clone()];
        for imp in &imputers {
            let rms = imputation_rms(
                d,
                imp.as_ref(),
                0.10,
                MissingTarget::AttributesOnly,
                cfg.runs,
            );
            row.push(fmt_rms(rms));
            eprintln!("[table4]   {:<11} {}", imp.name(), row.last().unwrap());
        }
        rows.push(row);
    }
    print_table(
        "Table IV: Imputation RMS error (missing rate 10%)",
        &headers,
        &rows,
    );
}
