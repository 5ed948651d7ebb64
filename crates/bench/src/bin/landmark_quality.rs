//! Landmark-quality ablation (DESIGN.md ablation #5, extending the
//! paper's §IV-C interpretability discussion: "it could also explain
//! why some (carefully curated) landmarks show better imputation
//! performance than others").
//!
//! Compares four landmark sources at fixed K on each dataset:
//!
//! - **kmeans++** — the paper's method (Definition 1 context);
//! - **kmeans-random** — Lloyd's with naive random seeding;
//! - **random-points** — K random data locations, no clustering;
//! - **grid** — K points on a regular lattice ignoring the data.
//!
//! Shape to verify: kmeans++ ≤ kmeans-random ≤ random-points, with
//! grid landmarks worst when the data is clustered (they sit far from
//! observations — exactly the paper's argument for data-driven
//! landmarks).

use smfl_bench::harness::RESERVE_COMPLETE;
use smfl_bench::{fmt_rms, print_table, HarnessConfig};
use smfl_core::{FitPlan, Landmarks, SmflConfig};
use smfl_datasets::{economic, inject_missing, lake};
use smfl_eval::rms_over;
use smfl_linalg::{Matrix, Result};
use smfl_spatial::kmeans::{kmeans, KMeansConfig, KMeansInit};

fn landmarks_for(source: &str, si: &Matrix, k: usize, seed: u64) -> Result<Landmarks> {
    match source {
        "kmeans++" => Landmarks::compute(si, k, 300, seed),
        "kmeans-random" => {
            let res = kmeans(
                si,
                &KMeansConfig::new(k)
                    .with_seed(seed)
                    .with_init(KMeansInit::Random),
            )?;
            Ok(Landmarks::from_centers(res.centers))
        }
        "random-points" => {
            let perm = smfl_linalg::random::permutation(si.rows(), seed);
            let rows: Vec<usize> = perm.into_iter().take(k).collect();
            Ok(Landmarks::from_centers(si.select_rows(&rows)?))
        }
        "grid" => {
            let side = (k as f64).sqrt().ceil() as usize;
            let centers = Matrix::from_fn(k, 2, |i, j| {
                let (gy, gx) = (i / side, i % side);
                if j == 0 {
                    (gx as f64 + 0.5) / side as f64
                } else {
                    (gy as f64 + 0.5) / side as f64
                }
            });
            Ok(Landmarks::from_centers(centers))
        }
        other => unreachable!("unknown landmark source {other}"),
    }
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let datasets = vec![economic(cfg.scale, 0), lake(cfg.scale, 2)];
    let sources = ["kmeans++", "kmeans-random", "random-points", "grid"];

    let mut headers: Vec<String> = vec!["Dataset".into()];
    headers.extend(sources.iter().map(|s| s.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for d in &datasets {
        eprintln!("[landmark_quality] {}", d.name);
        let mut row = vec![d.name.clone()];
        for source in sources {
            let mut total = 0.0;
            let mut ok = true;
            for seed in 0..cfg.runs {
                let inj =
                    inject_missing(&d.data, &d.attribute_cols(), 0.10, RESERVE_COMPLETE, seed);
                let si = smfl_spatial::fill_missing_si(&inj.corrupted, &inj.omega, 2);
                let Ok(lm) = landmarks_for(source, &si, cfg.rank, seed) else {
                    ok = false;
                    break;
                };
                let config = SmflConfig::smfl(cfg.rank, 2)
                    .with_lambda(cfg.lambda)
                    .with_p(cfg.p)
                    .with_seed(seed);
                match FitPlan::compile_with_landmarks(&inj.corrupted, &inj.omega, &config, lm)
                    .and_then(|mut plan| plan.solve())
                {
                    Ok(model) => {
                        let imputed = model.impute(&inj.corrupted, &inj.omega).unwrap();
                        total += rms_over(&imputed, &d.data, &inj.psi).unwrap();
                    }
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            row.push(if ok {
                fmt_rms(Ok(total / cfg.runs as f64))
            } else {
                "ERR".to_string()
            });
            eprintln!("[landmark_quality]   {source}: {}", row.last().unwrap());
        }
        rows.push(row);
    }
    print_table(
        "Landmark-quality ablation: SMFL imputation RMS by landmark source (missing rate 10%)",
        &header_refs,
        &rows,
    );
}
