//! Hyperparameter selection without ground truth: masked-validation
//! grid search over λ / p / K (the production counterpart of the
//! paper's §IV-D sensitivity sweeps).
//!
//! ```text
//! cargo run --release --example parameter_tuning
//! ```

use smfl_core::{grid_search, ParamGrid, SmflConfig};
use smfl_datasets::{farm, inject_missing, Scale};
use smfl_eval::rms_over;

fn main() {
    let dataset = farm(Scale::Small, 21);
    let inj = inject_missing(&dataset.data, &dataset.attribute_cols(), 0.10, 100, 0);
    println!(
        "{}: {} x {}, {} cells to impute",
        dataset.name,
        dataset.n(),
        dataset.m(),
        inj.psi.count()
    );

    // Search the paper's Figs. 6-8 ranges by hiding 10% of the observed
    // cells twice and scoring held-out RMS.
    let base = SmflConfig::smfl(6, 2).with_max_iter(150);
    let grid = ParamGrid {
        lambdas: vec![0.1, 1.0, 10.0],
        ps: vec![3, 5],
        ranks: vec![4, 6],
    };
    let result = grid_search(&inj.corrupted, &inj.omega, &base, &grid, 2, 0.1)
        .expect("grid search succeeds");

    println!(
        "\nvalidation ranking (top 5 of {}):",
        result.ranking().len()
    );
    for s in result.ranking().iter().take(5) {
        println!(
            "  λ={:<5} p={} K={} -> held-out RMS {:.4}",
            s.config.lambda, s.config.p_neighbors, s.config.rank, s.validation_rms
        );
    }

    // Does the validation winner actually win on the *true* hidden cells?
    let mut true_scores: Vec<(String, f64)> = Vec::new();
    for s in result.ranking() {
        let model = smfl_core::fit(&inj.corrupted, &inj.omega, &s.config).expect("fit");
        let imputed = model.impute(&inj.corrupted, &inj.omega).expect("impute");
        let rms = rms_over(&imputed, &dataset.data, &inj.psi).expect("rms");
        true_scores.push((
            format!(
                "λ={} p={} K={}",
                s.config.lambda, s.config.p_neighbors, s.config.rank
            ),
            rms,
        ));
    }
    let best_true = true_scores
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    println!(
        "\nvalidation pick: {} (true RMS {:.4})",
        true_scores[0].0, true_scores[0].1
    );
    println!(
        "oracle best:     {} (true RMS {:.4})",
        best_true.0, best_true.1
    );
}
