//! Optimizer comparison (extension): the paper's multiplicative rules
//! vs projected gradient descent (its §III-B1). Reports imputation RMS
//! and iterations to convergence at the shared operating point.

use smfl_bench::harness::RESERVE_COMPLETE;
use smfl_bench::{print_table, HarnessConfig};
use smfl_core::{fit, SmflConfig};
use smfl_datasets::{inject_missing, lake};
use smfl_eval::rms_over;

fn main() {
    let cfg = HarnessConfig::from_env();
    let d = lake(cfg.scale, 2);
    let base = SmflConfig::smfl(cfg.rank, 2)
        .with_lambda(cfg.lambda)
        .with_p(cfg.p)
        .with_tol(1e-6);
    let optimizers = [
        ("Multiplicative", base.clone()),
        ("GradientDescent", base.clone().with_gradient_descent(2e-4)),
    ];

    let headers = ["Optimizer", "RMS", "Iterations", "Final objective"];
    let mut rows = Vec::new();
    for (label, config) in optimizers {
        let mut rms_sum = 0.0;
        let mut iter_sum = 0usize;
        let mut obj_sum = 0.0;
        for seed in 0..cfg.runs {
            let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, RESERVE_COMPLETE, seed);
            let model = fit(&inj.corrupted, &inj.omega, &config.clone().with_seed(seed))
                .expect("fit succeeds");
            let imputed = model.impute(&inj.corrupted, &inj.omega).expect("impute");
            rms_sum += rms_over(&imputed, &d.data, &inj.psi).expect("rms");
            iter_sum += model.iterations;
            obj_sum += model.final_objective().unwrap_or(f64::NAN);
        }
        let r = cfg.runs as f64;
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", rms_sum / r),
            format!("{:.0}", iter_sum as f64 / r),
            format!("{:.3}", obj_sum / r),
        ]);
        eprintln!("[optimizers] {:?}", rows.last().unwrap());
    }
    print_table(
        "Optimizer comparison on Lake (SMFL objective, missing rate 10%)",
        &headers,
        &rows,
    );
}
