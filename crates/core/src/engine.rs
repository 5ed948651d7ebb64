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
use crate::model::FittedModel;
use crate::plan::{FitPlan, SolveOptions};
use crate::resilience::{blend_half, derive_seed, record};
use crate::telemetry::{IterEvent, Phase, SpanEvent, TraceSink};
use crate::updater::{gradient_step, multiplicative_step, score, UpdateContext};
use smfl_linalg::random::positive_uniform_matrix;
use smfl_linalg::{LinalgError, Matrix, Result};
use std::time::{Duration, Instant};

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
        pattern,
        graph,
        landmarks,
        workspace: ws,
        report: plan_report,
        ..
    } = plan;
    let recover = config.resilience.recovers();
    let (n, m) = (pattern.rows(), pattern.cols());
    let k = config.rank;

    // Reset per-solve workspace state (counters, checkpoint arming)
    // while keeping every buffer allocated — a no-op on a freshly
    // compiled plan, which keeps the first solve bitwise-identical to
    // the historical fused path.
    ws.begin_solve();
    let mut report = plan_report.clone();

    // Algorithm 1 line 1: strictly positive initialization, or the warm
    // model's factors — the one copy a warm solve makes of them.
    let (mut u, mut v) = match opts.warm {
        Some(FittedModel { u: wu, v: wv, .. }) => {
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
                sink.span(&SpanEvent {
                    phase: Phase::WarmStart,
                    wall: t0.elapsed(),
                });
            }
            (wu.clone(), wv.clone())
        }
        None => fresh_factors(n, k, m, config.seed),
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

    // Algorithm 1 lines 7-9: iterate until convergence or t₁, with the
    // health sentinel on every iteration. Each update pass scores the
    // iterate it reads and leaves the next one in `ws.u_next`/`ws.v_next`;
    // the loop judges that score (health, best/checkpoint, `tol`,
    // history) before committing the candidate by a buffer swap, so a
    // stop, a failure or a rollback never has an update to undo. One
    // scoring-only pass judges the last committed iterate. Under
    // `Recover` every new best iterate is checkpointed, and a failure
    // restarts from the checkpoint (bounded, deterministically
    // perturbed).
    let mut history = Vec::with_capacity(config.max_iter.min(1024));
    let mut converged = false;
    let mut iterations = 0;
    let mut best_obj = f64::INFINITY;
    let mut prev_accepted: Option<f64> = None;
    let mut since_best = 0usize;
    let mut lr_scale = 1.0f64;
    // The iteration that produced the current `(u, v)`, with the wall
    // time of its update pass. `None` for a freshly started iterate
    // (cold, warm or restarted), which is not an iteration: never judged.
    let mut pending: Option<(usize, Duration)> = None;
    // The iteration the next update pass computes.
    let mut t = 0;
    let loop_t0 = S::ENABLED.then(Instant::now);
    loop {
        let last = t == config.max_iter;
        if last && pending.is_none() {
            break;
        }
        let pass_t0 = S::ENABLED.then(Instant::now);
        let terms = if last {
            score(&ctx, ws, &u, &v)?
        } else {
            match config.updater {
                Updater::Multiplicative => multiplicative_step(&ctx, ws, &u, &v)?,
                Updater::GradientDescent { learning_rate } => {
                    gradient_step(&ctx, ws, &u, &v, learning_rate * lr_scale)?
                }
            }
        };
        let wall = pass_t0.map_or(Duration::ZERO, |t0| t0.elapsed());
        let Some((judged, judged_wall)) = pending else {
            ws.commit(&mut u, &mut v);
            pending = Some((t, wall));
            t += 1;
            continue;
        };

        let (fit_t, obj) = (terms.fit, terms.objective(config.lambda));
        let health = classify(obj, prev_accepted, &u, &v, since_best, &config.resilience);

        if S::ENABLED {
            sink.iter(&IterEvent {
                iteration: judged,
                objective: obj,
                fit_term: fit_t,
                laplacian_term: obj - fit_t,
                wall: judged_wall,
                health,
                accepted: health.is_none(),
                landmarks_intact: landmarks.as_ref().is_none_or(|lm| lm.verify_injected(&v)),
            });
        }

        if let Some(failure) = health {
            if !recover {
                return Err(LinalgError::NoConvergence {
                    routine: "smfl_fit",
                    iterations: judged,
                });
            }
            if failure == FitFailure::Stalled || report.restarts() >= Resilience::MAX_RESTARTS {
                report.failure = Some(failure);
                break;
            }
            record(
                &mut report,
                sink,
                FitEvent::Restarted {
                    iteration: judged,
                    failure,
                },
            );
            let restarts = report.restarts() as u64;
            if matches!(config.updater, Updater::GradientDescent { .. }) {
                lr_scale *= 0.5;
            }
            if ws.restore(&mut u, &mut v) {
                if matches!(config.updater, Updater::Multiplicative) {
                    // Re-running the same rules from the same point would
                    // reproduce the failure; blend in a fresh positive
                    // init (seeded, no wall-clock) to shift the iterate.
                    let (fu, fv) = fresh_factors(n, k, m, derive_seed(config.seed, 100 + restarts));
                    blend_half(&mut u, &fu);
                    blend_half(&mut v, &fv);
                    if let Some(lm) = landmarks.as_ref() {
                        lm.inject(&mut v)?;
                    }
                }
            } else {
                // Failure before any accepted iterate: fresh re-init.
                (u, v) = fresh_factors(n, k, m, derive_seed(config.seed, 200 + restarts));
                if let Some(lm) = landmarks.as_ref() {
                    lm.inject(&mut v)?;
                }
            }
            prev_accepted = None;
            since_best = 0;
            // The failed iterate's candidate is dropped uncommitted, and
            // iteration `t` runs again from the restarted iterate.
            pending = None;
            continue;
        }

        // Factors must stay in the feasible region whenever they are
        // finite (frozen landmark coordinates may legitimately be
        // negative, so only live columns of V are checked).
        debug_assert!(
            !u.all_finite() || u.is_nonnegative(0.0),
            "U left the nonnegative orthant at iteration {judged}"
        );
        #[cfg(debug_assertions)]
        if v.all_finite() {
            for kk in 0..v.rows() {
                for j in ctx.v_start_col()..v.cols() {
                    debug_assert!(
                        v.get(kk, j) >= 0.0,
                        "V went negative at ({kk}, {j}), iteration {judged}"
                    );
                }
            }
        }

        let new_best = obj < best_obj;
        if new_best {
            best_obj = obj;
            since_best = 0;
        } else {
            since_best += 1;
        }
        let improved_enough = prev_accepted
            .is_some_and(|prev| (prev - obj).abs() <= config.tol * prev.abs().max(1.0));
        prev_accepted = Some(obj);
        history.push(obj);
        iterations = judged + 1;
        if improved_enough {
            converged = true;
            break;
        }
        if last {
            break;
        }
        ws.commit(&mut u, &mut v);
        // The commit moved the judged iterate into the candidate
        // buffers, and the checkpoint takes it from there by a swap. An
        // iterate that ends the loop is returned as it is, so it needs
        // no checkpoint.
        if recover && new_best {
            ws.checkpoint_committed();
        }
        pending = Some((t, wall));
        t += 1;
    }

    // Rollback: a recovering fit always returns its best recorded
    // iterate. The checkpoint holds exactly the factors of
    // `min(history)`, so restoring makes the returned model's objective
    // equal the best the trace ever saw. It is also taken when a restart
    // was the last event, since the restarted iterate was never scored.
    // A strict solve gets here only with finite, judged factors and no
    // checkpoint, so this is a no-op for it.
    let final_obj = history.last().copied().unwrap_or(f64::INFINITY);
    let factors_bad = !u.all_finite() || !v.all_finite();
    let unjudged = pending.is_none();
    if ws.has_checkpoint()
        && (report.failure.is_some() || factors_bad || unjudged || final_obj > best_obj)
    {
        if ws.restore(&mut u, &mut v) {
            record(
                &mut report,
                sink,
                FitEvent::RolledBack {
                    iteration: iterations,
                },
            );
        }
    } else if factors_bad {
        // No good iterate was ever recorded: return a finite,
        // deterministic initialization with the failure on record
        // rather than NaN factors.
        (u, v) = fresh_factors(n, k, m, derive_seed(config.seed, 300));
        if let Some(lm) = landmarks.as_ref() {
            lm.inject(&mut v)?;
        }
        record(
            &mut report,
            sink,
            FitEvent::RolledBack {
                iteration: iterations,
            },
        );
    }

    if S::ENABLED {
        if let Some(t0) = loop_t0 {
            sink.span(&SpanEvent {
                phase: Phase::UpdateLoop,
                wall: t0.elapsed(),
            });
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

/// Algorithm 1 line 1, and every other fresh draw of the engine: a
/// strictly positive `(U, V)` from `seed`, `U` scaled by 1/K so U·V has
/// the magnitude of the (unit-normalized) data — important for SMFL,
/// whose frozen landmark columns cannot rescale themselves.
fn fresh_factors(n: usize, k: usize, m: usize, seed: u64) -> (Matrix, Matrix) {
    let mut u = positive_uniform_matrix(n, k, seed);
    u.as_mut_slice()
        .iter_mut()
        .for_each(|x| *x *= 1.0 / k as f64);
    (u, positive_uniform_matrix(k, m, seed.wrapping_add(1)))
}

/// Index of the first non-finite entry, if any — for precise
/// `NonFinite` diagnostics on warm-start factors.
fn first_non_finite(m: &Matrix) -> Option<(usize, usize)> {
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
