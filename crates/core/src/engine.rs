//! The *solve* half of the fit pipeline: Algorithm 1's update loop
//! (lines 7-9) running over a borrowed, already-compiled
//! [`FitPlan`] — generic over the updater (dispatched from the plan's
//! config) and over the [`TraceSink`], with the same zero-cost erasure
//! guarantees as the historical fused `fit_inner`.
//!
//! A solve owns no data: it initializes `U`/`V` (cold from the plan's
//! seed, or warm from [`SolveOptions`]), injects the plan's landmarks,
//! then iterates against the plan's pattern/graph/workspace. One loop
//! serves both [`Resilience`] policies: the health sentinel runs on
//! every iteration, and the policy decides in one place what a failure
//! does — `Strict` returns an error, `Recover` restarts from its
//! checkpoint (bounded, deterministic) and rolls back to the best
//! iterate. Compile-phase repair is [`crate::resilience`]'s job.

use crate::config::{Resilience, Updater};
use crate::health::{classify, FitEvent, FitFailure};
use crate::landmarks::Landmarks;
use crate::model::FittedModel;
use crate::plan::{FitPlan, SolveOptions};
use crate::resilience::{blend_half, derive_seed, record};
use crate::telemetry::{IterEvent, Phase, SpanEvent, TraceSink};
use crate::updater::{gradient_step, multiplicative_step, UpdateContext};
use smfl_linalg::random::positive_uniform_matrix;
use smfl_linalg::{LinalgError, Result};
use std::time::Instant;

/// Runs the update loop over `plan`, returning a fitted model. The
/// plan is borrowed mutably for its workspace (scratch + checkpoint
/// buffers); every other artifact is read-only, so repeated solves are
/// bitwise-reproducible.
pub(crate) fn solve<S: TraceSink>(
    plan: &mut FitPlan,
    opts: &SolveOptions,
    sink: &mut S,
) -> Result<FittedModel> {
    let FitPlan {
        config,
        omega,
        pattern,
        graph,
        landmarks,
        workspace: ws,
        report: plan_report,
    } = plan;
    let recover = config.resilience.recovers();
    let (n, m) = omega.shape();
    let k = config.rank;

    // Reset per-solve workspace state (counters, checkpoint arming,
    // cached reconstruction) while keeping every buffer allocated — a
    // no-op on a freshly compiled plan, which keeps the first solve
    // bitwise-identical to the historical fused path.
    ws.begin_solve();
    let mut report = plan_report.clone();

    // Algorithm 1 line 1: strictly positive initialization. U is scaled
    // by 1/K so the initial reconstruction U·V has the magnitude of the
    // (unit-normalized) data — important for SMFL, whose frozen landmark
    // columns cannot rescale themselves during the iterations. A warm
    // start replaces this with the caller's factors.
    let (mut u, mut v) = match &opts.warm {
        Some((wu, wv)) => {
            let t0 = S::ENABLED.then(Instant::now);
            if wu.shape() != (n, k) || wv.shape() != (k, m) {
                return Err(LinalgError::DimensionMismatch {
                    left: wu.shape(),
                    right: wv.shape(),
                    op: "warm_start",
                });
            }
            if let Some(index) = first_non_finite(wu).or_else(|| first_non_finite(wv)) {
                return Err(LinalgError::NonFinite {
                    op: "warm_start",
                    index,
                });
            }
            if let Some(t0) = t0 {
                sink.span(&SpanEvent { phase: Phase::WarmStart, wall: t0.elapsed() });
            }
            (wu.clone(), wv.clone())
        }
        None => (
            positive_uniform_matrix(n, k, config.seed).scale(1.0 / k as f64),
            positive_uniform_matrix(k, m, config.seed.wrapping_add(1)),
        ),
    };

    // Algorithm 1 lines 4-6 (injection half): freeze the plan's
    // landmark coordinates into V — on a warm start this *re-freezes*
    // them, so stale or corrupted landmark columns in the warm seed can
    // never leak into the fit.
    if let Some(lm) = landmarks.as_ref() {
        lm.inject(&mut v)?;
    }

    let ctx = UpdateContext {
        pattern,
        graph: graph.as_deref(),
        lambda: config.lambda,
        landmarks: landmarks.as_ref(),
    };
    let v_start = landmarks.as_ref().map_or(0, Landmarks::spatial_cols);

    // Algorithm 1 lines 7-9: iterate until convergence or t₁, with the
    // health sentinel on every iteration. Under `Recover` every new best
    // iterate is checkpointed, and a failure restarts from the
    // checkpoint (bounded, deterministically perturbed).
    let mut history = Vec::with_capacity(config.max_iter.min(1024));
    let mut converged = false;
    let mut iterations = 0;
    let mut best_obj = f64::INFINITY;
    let mut prev_accepted: Option<f64> = None;
    let mut since_best = 0usize;
    let mut restarts = 0usize;
    let mut lr_scale = 1.0f64;
    let loop_t0 = S::ENABLED.then(Instant::now);
    for t in 0..config.max_iter {
        let iter_t0 = S::ENABLED.then(Instant::now);
        let terms = match config.updater {
            Updater::Multiplicative => multiplicative_step(&ctx, ws, &mut u, &mut v)?,
            Updater::GradientDescent { learning_rate } => {
                gradient_step(&ctx, ws, &mut u, &mut v, learning_rate * lr_scale)?
            }
            Updater::Hals => crate::hals::hals_step(&ctx, ws, &mut u, &mut v)?,
        };
        let (fit_t, obj) = (terms.fit, terms.objective(config.lambda));

        let health = classify(obj, prev_accepted, &u, &v, since_best, &config.resilience);

        if S::ENABLED {
            sink.iter(&IterEvent {
                iteration: t,
                objective: obj,
                fit_term: fit_t,
                laplacian_term: obj - fit_t,
                wall: iter_t0.map_or(std::time::Duration::ZERO, |t0| t0.elapsed()),
                health,
                accepted: health.is_none(),
                landmarks_intact: landmarks
                    .as_ref()
                    .is_none_or(|lm| lm.verify_injected(&v)),
            });
        }

        if let Some(failure) = health {
            if !recover {
                return Err(LinalgError::NoConvergence {
                    routine: "smfl_fit",
                    iterations: t,
                });
            }
            if failure == FitFailure::Stalled || restarts >= Resilience::MAX_RESTARTS {
                report.failure = Some(failure);
                break;
            }
            restarts += 1;
            report.restarts = restarts;
            record(&mut report, sink, FitEvent::Restarted { iteration: t, failure });
            if matches!(config.updater, Updater::GradientDescent { .. }) {
                lr_scale *= 0.5;
            }
            if ws.restore(&mut u, &mut v) {
                if !matches!(config.updater, Updater::GradientDescent { .. }) {
                    // Re-running the same rules from the same point would
                    // reproduce the failure; blend in a fresh positive
                    // init (seeded, no wall-clock) to shift the iterate.
                    let s = derive_seed(config.seed, 100 + restarts as u64);
                    blend_half(&mut u, &positive_uniform_matrix(n, k, s).scale(1.0 / k as f64));
                    blend_half(&mut v, &positive_uniform_matrix(k, m, s.wrapping_add(1)));
                    if let Some(lm) = landmarks.as_ref() {
                        lm.inject(&mut v)?;
                    }
                    ws.invalidate();
                }
            } else {
                // Failure before any accepted iterate: fresh re-init.
                let s = derive_seed(config.seed, 200 + restarts as u64);
                u = positive_uniform_matrix(n, k, s).scale(1.0 / k as f64);
                v = positive_uniform_matrix(k, m, s.wrapping_add(1));
                if let Some(lm) = landmarks.as_ref() {
                    lm.inject(&mut v)?;
                }
                ws.invalidate();
            }
            prev_accepted = None;
            since_best = 0;
            continue;
        }

        // Factors must stay in the feasible region whenever they are
        // finite (frozen landmark coordinates may legitimately be
        // negative, so only live columns of V are checked).
        debug_assert!(
            !u.all_finite() || u.is_nonnegative(0.0),
            "U left the nonnegative orthant at iteration {t}"
        );
        #[cfg(debug_assertions)]
        if v.all_finite() {
            for kk in 0..v.rows() {
                for j in v_start..v.cols() {
                    debug_assert!(
                        v.get(kk, j) >= 0.0,
                        "V went negative at ({kk}, {j}), iteration {t}"
                    );
                }
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = v_start;

        if obj < best_obj {
            best_obj = obj;
            since_best = 0;
            if recover {
                ws.checkpoint(&u, &v);
            }
        } else {
            since_best += 1;
        }
        let improved_enough = prev_accepted
            .is_some_and(|prev| (prev - obj).abs() <= config.tol * prev.abs().max(1.0));
        prev_accepted = Some(obj);
        history.push(obj);
        iterations = t + 1;
        if improved_enough {
            converged = true;
            break;
        }
    }

    // Rollback: a recovering fit always returns its best recorded
    // iterate. The checkpoint holds exactly the factors of
    // `min(history)`, so restoring makes the returned model's objective
    // equal the best the trace ever saw. A strict solve gets here only
    // with finite factors and no checkpoint, so this is a no-op for it.
    let final_obj = history.last().copied().unwrap_or(f64::INFINITY);
    let factors_bad = !u.all_finite() || !v.all_finite();
    if ws.has_checkpoint() && (report.failure.is_some() || factors_bad || final_obj > best_obj) {
        if ws.restore(&mut u, &mut v) {
            report.rolled_back = true;
            record(&mut report, sink, FitEvent::RolledBack { iteration: iterations });
        }
    } else if factors_bad {
        // No good iterate was ever recorded: return a finite,
        // deterministic initialization with the failure on record
        // rather than NaN factors.
        let s = derive_seed(config.seed, 300);
        u = positive_uniform_matrix(n, k, s).scale(1.0 / k as f64);
        v = positive_uniform_matrix(k, m, s.wrapping_add(1));
        if let Some(lm) = landmarks.as_ref() {
            lm.inject(&mut v)?;
        }
        report.rolled_back = true;
        record(&mut report, sink, FitEvent::RolledBack { iteration: iterations });
    }
    report.record_tail(&history);

    if S::ENABLED {
        if let Some(t0) = loop_t0 {
            sink.span(&SpanEvent { phase: Phase::UpdateLoop, wall: t0.elapsed() });
        }
        sink.counters(&ws.counters);
        sink.finish();
    }

    Ok(FittedModel {
        u,
        v,
        landmarks: landmarks.clone(),
        objective_history: history,
        iterations,
        converged,
        spatial_cols: config.spatial_cols,
        report,
    })
}

/// Index of the first non-finite entry, if any — for precise
/// `NonFinite` diagnostics on warm-start factors.
fn first_non_finite(m: &smfl_linalg::Matrix) -> Option<(usize, usize)> {
    let (rows, cols) = m.shape();
    for i in 0..rows {
        for j in 0..cols {
            if !m.get(i, j).is_finite() {
                return Some((i, j));
            }
        }
    }
    None
}
