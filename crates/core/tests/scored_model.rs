//! The returned model is scored: the objective a fit reports for the
//! factors it hands back equals the objective of those factors,
//! evaluated from scratch.
//!
//! Each update step scores the iterate it reads and leaves its candidate
//! uncommitted until the engine has judged that score, and one
//! scoring-only pass judges the last iterate. So whichever way a fit
//! ends — the iteration budget, a `tol` stop, a failure, a restart, a
//! rollback — the factors it returns must be ones it scored. The
//! reported objective is `final_objective()`, or the best history entry
//! when the fit rolled back; it must match `objective::objective` of the
//! returned factors to 1e-12 relative, for both updaters, at a dense and
//! a sparse mask, under `Strict` and `Recover`.

use smfl_core::objective::objective;
use smfl_core::{FitEvent, FitPlan, FittedModel, Resilience, SmflConfig};
use smfl_linalg::ops::matmul;
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, Matrix};

const TOL: f64 = 1e-12;
const N: usize = 40;
const M: usize = 6;

/// Low-rank nonnegative data whose first two columns are coordinates.
fn data(seed: u64) -> Matrix {
    let u = positive_uniform_matrix(N, 3, seed);
    let v = positive_uniform_matrix(3, M, seed + 1);
    matmul(&u, &v).unwrap().scale(1.0 / 3.0)
}

/// Coordinates always observed; each attribute cell observed with
/// probability `density`. At 0.9 the multiplicative updater takes the
/// fused step, at 0.2 (about 47% of all cells) the sparse kernels;
/// gradient descent takes the fused step at both.
fn mask(density: f64, seed: u64) -> Mask {
    let sel = uniform_matrix(N, M, 0.0, 1.0, seed);
    let mut omega = Mask::full(N, M);
    for i in 1..N {
        for j in 2..M {
            if sel.get(i, j) >= density {
                omega.set(i, j, false);
            }
        }
    }
    omega
}

fn rolled_back(model: &FittedModel) -> bool {
    model
        .report
        .events
        .iter()
        .any(|e| matches!(e, FitEvent::RolledBack { .. }))
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Fits through a plan (to reach its graph) and checks the returned
/// model is scored. Returns the model, or `None` when the fit failed.
fn fit_scored(x: &Matrix, omega: &Mask, cfg: &SmflConfig, case: &str) -> Option<FittedModel> {
    let mut plan = FitPlan::compile(x, omega, cfg).unwrap();
    let model = plan.solve().ok()?;
    let reported = if rolled_back(&model) {
        model.objective_history.iter().copied().reduce(f64::min)
    } else {
        model.final_objective()
    };
    let Some(reported) = reported else {
        assert_eq!(model.iterations, 0, "{case}: iterations but no history");
        return Some(model);
    };
    let actual = objective(x, omega, &model.u, &model.v, cfg.lambda, plan.graph()).unwrap();
    assert!(
        rel_diff(reported, actual) <= TOL,
        "{case}: reported objective {reported} but the returned factors score {actual} \
         (rolled back: {}, converged: {}, iterations: {}, report: {:?})",
        rolled_back(&model),
        model.converged,
        model.iterations,
        model.report
    );
    Some(model)
}

#[test]
fn every_updater_path_and_policy_returns_scored_factors() {
    let x = data(1);
    // Each updater with a `tol` it reaches well inside the budget.
    type WithUpdater = fn(SmflConfig) -> SmflConfig;
    let updaters: [(&str, WithUpdater, f64); 2] = [
        ("multiplicative", |c| c, 1e-3),
        ("gradient", |c| c.with_gradient_descent(2e-2), 1e-2),
    ];
    let mut stopped_early = 0;
    for density in [0.9, 0.2] {
        let omega = mask(density, 2);
        for (name, updater, stop_tol) in updaters {
            for resilience in [
                Resilience::Strict,
                Resilience::Recover { stall_patience: 0 },
            ] {
                for tol in [0.0, stop_tol] {
                    let cfg = updater(SmflConfig::smfl(3, 2).with_lambda(0.5).with_p(3))
                        .with_max_iter(150)
                        .with_seed(3)
                        .with_tol(tol)
                        .with_resilience(resilience);
                    let case = format!("{name} density {density} {resilience:?} tol {tol}");
                    let model = fit_scored(&x, &omega, &cfg, &case)
                        .unwrap_or_else(|| panic!("{case}: clean fit failed"));
                    if tol == 0.0 {
                        assert_eq!(model.iterations, 150, "{case}");
                    } else if model.converged {
                        assert!(model.iterations < 150, "{case}");
                        stopped_early += 1;
                    }
                }
            }
        }
    }
    assert_eq!(stopped_early, 8, "every tol > 0 fit must stop early");
}

#[test]
fn rollbacks_and_restarts_return_scored_factors() {
    // Projected GD at these rates diverges, so `Recover` restarts and
    // rolls back. Sweeping the iteration budget puts the failures, the
    // restarts and the end of the budget at every relative position,
    // including a restart as the very last event.
    let x = data(4);
    let mut rollbacks = 0;
    for density in [0.9, 0.2] {
        let omega = mask(density, 5);
        for lr in [3.0, 5.0] {
            for max_iter in 1..40 {
                let cfg = SmflConfig::nmf(3)
                    .with_gradient_descent(lr)
                    .with_max_iter(max_iter)
                    .with_seed(6)
                    .resilient();
                let case = format!("gd lr {lr} density {density} max_iter {max_iter}");
                let model = fit_scored(&x, &omega, &cfg, &case)
                    .unwrap_or_else(|| panic!("{case}: a recovering fit must not fail"));
                assert!(model.u.all_finite() && model.v.all_finite(), "{case}");
                rollbacks += usize::from(rolled_back(&model));

                // Strict fails on the first non-finite iterate instead;
                // when it does return, its factors are scored too.
                let strict = cfg.clone().with_resilience(Resilience::Strict);
                fit_scored(&x, &omega, &strict, &format!("strict {case}"));
            }
        }
    }
    assert!(
        rollbacks > 0,
        "no fit rolled back: the sweep lost its point"
    );
}
