//! # smfl-bench
//!
//! Benchmark harness reproducing **every table and figure** of the SMFL
//! paper's evaluation (§IV). Each experiment has a dedicated binary
//! (`cargo run --release -p smfl-bench --bin <name>`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table4` | Table IV — imputation RMS, 12 methods × 4 datasets, MR 10% |
//! | `table5` | Table V — imputation RMS with spatial information also missing |
//! | `table6` | Table VI — repair RMS (Baran, HoloClean, NMF, SMF, SMFL) |
//! | `table7` | Table VII — NMF/SMF/SMFL across missing rates 10–50% |
//! | `fig1`   | Fig. 1 — locations of learned features vs observations |
//! | `fig4a`  | Fig. 4(a) — accumulated fuel error in route planning |
//! | `fig4b`  | Fig. 4(b) — clustering accuracy |
//! | `fig5`   | Fig. 5 — SMF-GD / SMF-Multi / SMFL feature locations |
//! | `fig6`   | Fig. 6 — RMS vs λ |
//! | `fig7`   | Fig. 7 — RMS vs p |
//! | `fig8`   | Fig. 8 — RMS vs K |
//! | `fig9`   | Fig. 9 — time vs number of tuples |
//!
//! Criterion micro-benchmarks (`cargo bench -p smfl-bench`) cover the
//! substrate and the DESIGN.md ablations (update-rule cost with/without
//! landmarks, CSR vs dense Laplacian products, kd-tree vs brute force).
//!
//! Configuration via `SMFL_SCALE=small|paper`, `SMFL_RUNS=<n>`,
//! `SMFL_RANK=<k>` (see [`harness::HarnessConfig`]).

#![warn(missing_docs)]

pub mod harness;

pub use harness::{
    fmt_rms, head_rows, imputation_rms, imputation_trial, print_table, repair_rms, repair_trial,
    HarnessConfig, MissingTarget,
};
