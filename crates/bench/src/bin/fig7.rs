//! Reproduces **Figure 7**: imputation RMS of SMF and SMFL while varying
//! the number of spatial nearest neighbours `p` from 1 to 10.
//!
//! Shape to verify: moderately small `p` (≈3) is best; large `p` drags
//! in low-relevance tuples and enforces smoothness over long distances,
//! degrading both methods; SMFL stays below SMF.

use smfl_baselines::MfImputer;
use smfl_bench::{fmt_rms, imputation_rms, print_table, HarnessConfig, MissingTarget};
use smfl_datasets::{farm, lake};

fn main() {
    let cfg = HarnessConfig::from_env();
    let datasets = vec![farm(cfg.scale, 1), lake(cfg.scale, 2)];
    let ps = [1usize, 2, 3, 4, 5, 6, 8, 10];

    let mut headers: Vec<String> = vec!["Dataset".into(), "Method".into()];
    headers.extend(ps.iter().map(|p| format!("p={p}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for d in &datasets {
        eprintln!("[fig7] {}", d.name);
        for method in ["SMF", "SMFL"] {
            let mut row = vec![d.name.clone(), method.to_string()];
            for &p in &ps {
                let base = if method == "SMF" {
                    MfImputer::smf(cfg.rank, 2)
                } else {
                    MfImputer::smfl(cfg.rank, 2)
                };
                let imp = MfImputer {
                    config: base.config.with_lambda(cfg.lambda).with_p(p),
                };
                let rms = imputation_rms(d, &imp, 0.10, MissingTarget::AttributesOnly, cfg.runs);
                row.push(fmt_rms(rms));
            }
            eprintln!("[fig7]   {method}: {:?}", &row[2..]);
            rows.push(row);
        }
    }
    print_table(
        "Figure 7: RMS vs number of spatial nearest neighbours p (missing rate 10%)",
        &header_refs,
        &rows,
    );
}
