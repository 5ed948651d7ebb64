//! Reproduces **Table V**: imputation RMS when the spatial information
//! is also missing (holes injected into every column, including
//! latitude/longitude).
//!
//! Paper shape to verify: every method degrades relative to Table IV,
//! but SMFL still wins on every dataset (the missing-SI column-mean
//! initialization of §II-C keeps the graph and landmarks usable).

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
        eprintln!("[table5] {} ({} x {})", d.name, d.n(), d.m());
        let mut row = vec![d.name.clone()];
        for imp in &imputers {
            let rms = imputation_rms(
                d,
                imp.as_ref(),
                0.10,
                MissingTarget::IncludeSpatial,
                cfg.runs,
            );
            row.push(fmt_rms(rms));
            eprintln!("[table5]   {:<11} {}", imp.name(), row.last().unwrap());
        }
        rows.push(row);
    }
    print_table(
        "Table V: Imputation RMS error with spatial information also missing (missing rate 10%)",
        &headers,
        &rows,
    );
}
