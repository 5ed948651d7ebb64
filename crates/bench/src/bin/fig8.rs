//! Reproduces **Figure 8**: imputation RMS of SMF and SMFL while varying
//! the number of landmarks / latent features `K`.
//!
//! Shape to verify: too-small `K` starves the model (high RMS); a
//! moderately large `K` helps; SMFL tracks below SMF across the sweep.

use smfl_baselines::MfImputer;
use smfl_bench::{fmt_rms, imputation_rms, print_table, HarnessConfig, MissingTarget};
use smfl_datasets::{farm, lake};

fn main() {
    let cfg = HarnessConfig::from_env();
    let datasets = vec![farm(cfg.scale, 1), lake(cfg.scale, 2)];
    let ks = [2usize, 4, 6, 8, 10, 12];

    let mut headers: Vec<String> = vec!["Dataset".into(), "Method".into()];
    headers.extend(ks.iter().map(|k| format!("K={k}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for d in &datasets {
        eprintln!("[fig8] {}", d.name);
        for method in ["SMF", "SMFL"] {
            let mut row = vec![d.name.clone(), method.to_string()];
            for &k in &ks {
                let base = if method == "SMF" {
                    MfImputer::smf(k, 2)
                } else {
                    MfImputer::smfl(k, 2)
                };
                let imp = MfImputer {
                    config: base.config.with_lambda(cfg.lambda).with_p(cfg.p),
                };
                let rms = imputation_rms(d, &imp, 0.10, MissingTarget::AttributesOnly, cfg.runs);
                row.push(fmt_rms(rms));
            }
            eprintln!("[fig8]   {method}: {:?}", &row[2..]);
            rows.push(row);
        }
    }
    print_table(
        "Figure 8: RMS vs number of landmarks K (missing rate 10%)",
        &header_refs,
        &rows,
    );
}
