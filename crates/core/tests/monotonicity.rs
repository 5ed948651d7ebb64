//! The paper's convergence theorem, re-proven through the telemetry
//! layer (DESIGN.md §11).
//!
//! `tests/convergence.rs` checks `objective_history` after the fact;
//! this suite drives the same Propositions 5/7 claims through a
//! [`RecordingSink`], which observes every iteration the engine runs —
//! including rejected/restarted ones — so the assertions are on what
//! the loop actually did, not on the summary it chose to keep:
//!
//! - the *accepted* objective trajectory is non-increasing to 1e-9
//!   relative slack, across random shapes, densities, λ, and kNN `p`;
//! - the frozen landmark columns are bitwise intact at *every* recorded
//!   iteration, not just at exit;
//! - the accepted objectives equal `objective_history` bitwise (the
//!   trace is a faithful superset of the model's own record).
//!
//! The suite honours `PROPTEST_CASES` (CI runs it at 64), and carries a
//! negative control proving the predicate is not vacuous.

use proptest::prelude::*;
use smfl_core::{FitPlan, FittedModel, RecordingSink, SmflConfig, SolveOptions, Trace, Variant};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::{Mask, Matrix, Result};

/// Random spatial problem: data in [0, 1], 2 coordinate columns, a mask
/// with ~`missing_pct`% of cells hidden (at least one observed cell per
/// column so the fit is sane).
fn problem(n: usize, m: usize, seed: u64, missing_pct: u32) -> (Matrix, Mask) {
    let x = uniform_matrix(n, m, 0.0, 1.0, seed);
    let sel = uniform_matrix(n, m, 0.0, 100.0, seed.wrapping_add(77));
    let mut omega = Mask::full(n, m);
    for i in 0..n {
        for j in 0..m {
            if sel.get(i, j) < missing_pct as f64 {
                omega.set(i, j, false);
            }
        }
    }
    for j in 0..m {
        omega.set(0, j, true);
    }
    (x, omega)
}

/// Compiles and solves into one `RecordingSink`, returning the outcome
/// and everything the sink observed (also when the fit fails).
fn fit_recorded(x: &Matrix, omega: &Mask, cfg: &SmflConfig) -> (Result<FittedModel>, Trace) {
    let mut sink = RecordingSink::new();
    let model = FitPlan::compile_with_sink(x, omega, cfg, &mut sink)
        .and_then(|mut plan| plan.solve_with_sink(&SolveOptions::new(), &mut sink));
    (model, sink.into_trace())
}

fn config_for(variant: Variant, rank: usize, lambda: f64, p: usize, seed: u64) -> SmflConfig {
    let base = match variant {
        Variant::Nmf => SmflConfig::nmf(rank),
        Variant::Smf => SmflConfig::smf(rank, 2),
        Variant::Smfl => SmflConfig::smfl(rank, 2),
    };
    base.with_lambda(if variant == Variant::Nmf { 0.0 } else { lambda })
        .with_p(p)
        .with_max_iter(25)
        .with_seed(seed)
        .with_tol(0.0) // never early-stop: check the whole trajectory
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Propositions 5/7 on the recorded trajectory, multiplicative
    /// updater, all three variants.
    #[test]
    fn recorded_trajectory_non_increasing(
        n in 12usize..40,
        m in 4usize..9,
        rank in 2usize..5,
        lambda in 0.0f64..2.0,
        p in 1usize..6,
        // 0-85% missing straddles the engine's dense-path threshold
        // (50% density), so both kernel paths are under the theorem.
        missing in 0u32..85,
        seed in 0u64..10_000,
    ) {
        let (x, omega) = problem(n, m, seed, missing);
        for variant in [Variant::Nmf, Variant::Smf, Variant::Smfl] {
            let rank = rank.min(m.min(n));
            let cfg = config_for(variant, rank, lambda, p, seed);
            let (model, trace) = fit_recorded(&x, &omega, &cfg);
            let model = model.unwrap();

            prop_assert!(
                trace.non_increasing(1e-9),
                "{variant:?}: recorded objective rose: {:?}",
                trace.accepted_objectives().collect::<Vec<_>>()
            );
            prop_assert!(
                trace.landmarks_always_intact(),
                "{variant:?}: a frozen landmark entry moved mid-fit"
            );

            // The trace is a faithful superset of the model's record.
            let accepted: Vec<f64> = trace.accepted_objectives().collect();
            prop_assert_eq!(&accepted, &model.objective_history);

            // The objective split is consistent and the spatial term is
            // nonnegative (λ ≥ 0, L PSD).
            for e in &trace.iterations {
                prop_assert!(e.laplacian_term >= 0.0,
                    "{variant:?}: negative Laplacian term {}", e.laplacian_term);
                let resum = (e.fit_term + e.laplacian_term - e.objective).abs();
                prop_assert!(resum <= 1e-9 * e.objective.abs().max(1.0),
                    "{variant:?}: split does not re-sum: {} + {} vs {}",
                    e.fit_term, e.laplacian_term, e.objective);
            }
        }
    }

    /// The HALS extension carries the same guarantee (exact coordinate
    /// minimization), observed through the same sink.
    #[test]
    fn hals_trajectory_non_increasing(
        n in 12usize..30,
        m in 4usize..8,
        missing in 0u32..60,
        seed in 0u64..10_000,
    ) {
        let (x, omega) = problem(n, m, seed, missing);
        let cfg = SmflConfig::smfl(3, 2)
            .with_lambda(0.3)
            .with_hals()
            .with_max_iter(20)
            .with_seed(seed)
            .with_tol(0.0);
        let (model, trace) = fit_recorded(&x, &omega, &cfg);
        let model = model.unwrap();
        prop_assert!(trace.non_increasing(1e-9));
        prop_assert!(trace.landmarks_always_intact());
        prop_assert_eq!(trace.counters.hals_sweeps, model.iterations as u64);
    }
}

/// Negative control: the predicate must *fail* on a genuinely
/// non-monotone optimizer, or the whole suite is vacuous. Plain
/// gradient descent with an aggressive learning rate diverges; at least
/// one rate in the sweep must leave a recorded objective rise before
/// (or without) the engine aborting on a non-finite iterate.
#[test]
fn predicate_catches_a_non_monotone_optimizer() {
    let (x, omega) = problem(30, 6, 42, 10);
    let mut caught = false;
    for lr in [0.3, 0.6, 1.2, 2.5, 5.0] {
        let cfg = SmflConfig::smf(3, 2)
            .with_lambda(0.1)
            .with_max_iter(25)
            .with_seed(7)
            .with_tol(0.0)
            .with_gradient_descent(lr);
        // Divergence may abort the fit with an error; the sink keeps
        // whatever trajectory was recorded up to that point.
        let (_, trace) = fit_recorded(&x, &omega, &cfg);
        if !trace.non_increasing(1e-9) {
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "no learning rate produced a recorded objective rise — predicate may be vacuous"
    );
}
