//! Reproduces **Table VI**: repair RMS error at 10% error rate for
//! Baran, HoloClean, NMF, SMF and SMFL.
//!
//! Paper shape to verify: the MF family (which learns from spatial
//! structure) beats the dedicated repair systems on spatial data, with
//! SMFL best everywhere.

use smfl_baselines::{BaranLite, HoloCleanLite, ImputerRepairer, Repairer};
use smfl_bench::{fmt_rms, print_table, repair_rms, HarnessConfig};
use smfl_datasets::all_datasets;

fn main() {
    let cfg = HarnessConfig::from_env();
    let datasets = all_datasets(cfg.scale, 0);
    let repairers: Vec<Box<dyn Repairer>> = vec![
        Box::new(BaranLite),
        Box::new(HoloCleanLite::default()),
        Box::new(ImputerRepairer::new(cfg.mf(smfl_core::Variant::Nmf), "NMF")),
        Box::new(ImputerRepairer::new(cfg.mf(smfl_core::Variant::Smf), "SMF")),
        Box::new(ImputerRepairer::new(
            cfg.mf(smfl_core::Variant::Smfl),
            "SMFL",
        )),
    ];
    let mut headers = vec!["Dataset"];
    let names: Vec<&str> = repairers.iter().map(|r| r.name()).collect();
    headers.extend(&names);

    let mut rows = Vec::new();
    for d in &datasets {
        eprintln!("[table6] {} ({} x {})", d.name, d.n(), d.m());
        let mut row = vec![d.name.clone()];
        for rep in &repairers {
            let rms = repair_rms(d, rep.as_ref(), 0.10, cfg.runs);
            row.push(fmt_rms(rms));
            eprintln!("[table6]   {:<10} {}", rep.name(), row.last().unwrap());
        }
        rows.push(row);
    }
    print_table(
        "Table VI: Repair RMS error (error rate 10%)",
        &headers,
        &rows,
    );
}
