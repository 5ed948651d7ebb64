//! The compile-time stages that depend on the [`Resilience`] policy:
//! input sanitization, the graph stage and the landmark stage, with the
//! graceful-degradation ladder of DESIGN.md §10.
//!
//! Under [`Resilience::Strict`] each stage does the plain computation
//! and propagates its errors. Under [`Resilience::Recover`] a rung may
//! mutate the [`crate::plan::FitPlan`] under construction — sanitizing
//! inputs, de-duplicating coordinates, re-seeding landmark k-means,
//! dropping the Laplacian or the landmarks — and records what it did in
//! the plan's [`FitReport`], so the solve loop ([`crate::engine`]) only
//! ever sees a usable plan. On clean input no rung fires and both
//! policies compile the same plan. The in-loop machinery (health
//! sentinel, checkpoint/rollback, bounded restarts) stays in the
//! engine; the deterministic seed derivation and restart perturbation
//! it shares with this module live here.

use crate::config::{Resilience, SmflConfig};
use crate::health::{FitEvent, FitReport};
use crate::landmarks::Landmarks;
use crate::telemetry::{Phase, SpanEvent, TraceSink};
use smfl_linalg::{Mask, Matrix, Result};
use smfl_spatial::{dedupe_coordinates, SpatialGraph};

/// Appends `event` to the report and mirrors it to the sink, keeping a
/// trace's engine-event stream identical to `FitReport::events`.
pub(crate) fn record<S: TraceSink>(report: &mut FitReport, sink: &mut S, event: FitEvent) {
    if S::ENABLED {
        sink.engine(&event);
    }
    report.events.push(event);
}

/// Deterministic seed derivation for retries — `salt = 0` returns the
/// base seed unchanged so the clean path is bitwise-stable.
pub(crate) fn derive_seed(seed: u64, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Masks out observed cells the optimizers cannot digest: non-finite
/// values always, negative values under a multiplicative updater.
/// Returns `None` when the input is already clean (no clone made) or
/// when the shapes mismatch (validation reports that instead).
pub(crate) fn sanitize_inputs(
    x: &Matrix,
    omega: &Mask,
    multiplicative: bool,
) -> Option<(Matrix, Mask, usize)> {
    if x.shape() != omega.shape() {
        return None;
    }
    let mut cleaned: Option<(Matrix, Mask)> = None;
    let mut removed = 0usize;
    for (i, j) in omega.iter_set() {
        let v = x.get(i, j);
        if !v.is_finite() || (multiplicative && v < 0.0) {
            let (cx, co) = cleaned.get_or_insert_with(|| (x.clone(), omega.clone()));
            co.set(i, j, false);
            cx.set(i, j, 0.0);
            removed += 1;
        }
    }
    cleaned.map(|(cx, co)| (cx, co, removed))
}

/// `true` when the landmark matrix is usable: all-finite with pairwise
/// distinct rows (duplicate centres make the frozen columns of `V`
/// linearly dependent — the "degenerate landmarks" failure).
pub(crate) fn landmarks_healthy(lm: &Landmarks) -> bool {
    if !lm.centers.all_finite() {
        return false;
    }
    let (k, l) = lm.centers.shape();
    for a in 0..k {
        for b in a + 1..k {
            if (0..l).all(|j| lm.centers.get(a, j) == lm.centers.get(b, j)) {
                return false;
            }
        }
    }
    true
}

/// The landmark stage (Algorithm 1 lines 4-6): k-means on the SI.
///
/// Under `Strict` this is one k-means run whose error propagates.
/// Under `Recover` attempt 0 is the same run; a failed or degenerate
/// result de-duplicates the coordinates (jitter-free) and re-seeds
/// k-means, up to [`Resilience::MAX_RESTARTS`] times, and then the
/// landmarks are dropped (the last rung of the ladder before NMF).
pub(crate) fn compute_landmarks<S: TraceSink>(
    si: &Matrix,
    k: usize,
    config: &SmflConfig,
    report: &mut FitReport,
    sink: &mut S,
) -> Result<Option<Landmarks>> {
    let recover = config.resilience.recovers();
    let max_attempts = if recover { Resilience::MAX_RESTARTS } else { 0 };
    let mut si_work: Option<Matrix> = None;
    for attempt in 0..=max_attempts {
        let src = si_work.as_ref().unwrap_or(si);
        let seed = derive_seed(config.seed, attempt as u64);
        match Landmarks::compute(src, k, config.kmeans_max_iter, seed) {
            Ok(lm) if !recover || landmarks_healthy(&lm) => return Ok(Some(lm)),
            Err(err) if !recover => return Err(err),
            _ => {}
        }
        if attempt == max_attempts {
            break;
        }
        if si_work.is_none() {
            let mut copy = si.clone();
            let rows = dedupe_coordinates(&mut copy);
            if rows > 0 {
                record(report, sink, FitEvent::CoordinatesDeduped { rows });
            }
            si_work = Some(copy);
        }
        record(
            report,
            sink,
            FitEvent::LandmarksRetried {
                attempt: attempt + 1,
            },
        );
    }
    record(
        report,
        sink,
        FitEvent::LandmarksDropped {
            reason: "degenerate after bounded retries",
        },
    );
    Ok(None)
}

/// The graph stage (Algorithm 1 lines 2-3): the p-NN similarity graph
/// on the SI.
///
/// Under `Strict` build errors propagate. Under `Recover` a failed
/// build or an edgeless graph drops the Laplacian term (recorded),
/// leaving landmarks intact. A disconnected graph is kept under both
/// policies: its Laplacian is still PSD and regularizes each component
/// on its own.
pub(crate) fn build_graph<S: TraceSink>(
    si: &Matrix,
    config: &SmflConfig,
    report: &mut FitReport,
    sink: &mut S,
) -> Result<Option<SpatialGraph>> {
    let recover = config.resilience.recovers();
    let reason = match build_graph_traced(si, config, sink) {
        Ok(g) if !recover => return Ok(Some(g)),
        Err(err) if !recover => return Err(err),
        Err(_) => "graph construction failed",
        Ok(g) if si.rows() > 1 && g.nnz() == 0 => "edgeless graph",
        Ok(g) => return Ok(Some(g)),
    };
    record(report, sink, FitEvent::LaplacianDropped { reason });
    Ok(None)
}

/// The kd-tree graph build, emitting the kNN/assembly sub-spans when
/// the sink is enabled. The build reads the clock either way (four
/// reads, negligible against the kNN pass).
fn build_graph_traced<S: TraceSink>(
    si: &Matrix,
    config: &SmflConfig,
    sink: &mut S,
) -> Result<SpatialGraph> {
    let (g, stats) = SpatialGraph::build_instrumented(si, config.p_neighbors, 0)?;
    if S::ENABLED {
        sink.span(&SpanEvent {
            phase: Phase::GraphKnn,
            wall: stats.knn,
        });
        sink.span(&SpanEvent {
            phase: Phase::GraphAssembly,
            wall: stats.assembly,
        });
    }
    Ok(g)
}

/// `dst = (dst + fresh) / 2` elementwise — the deterministic restart
/// perturbation for the multiplicative optimizer (both operands
/// positive, so feasibility is preserved).
pub(crate) fn blend_half(dst: &mut Matrix, fresh: &Matrix) {
    for (a, &b) in dst.as_mut_slice().iter_mut().zip(fresh.as_slice()) {
        *a = 0.5 * (*a + b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::FitFailure;
    use crate::model::fit;
    use crate::plan::FitPlan;

    /// Synthetic low-rank nonnegative data with two leading coordinate
    /// columns — a miniature of the paper's setting.
    fn spatial_data(n: usize, m: usize, seed: u64) -> Matrix {
        let u = smfl_linalg::random::positive_uniform_matrix(n, 3, seed);
        let v = smfl_linalg::random::positive_uniform_matrix(3, m, seed + 1);
        smfl_linalg::ops::matmul(&u, &v).unwrap().scale(1.0 / 3.0)
    }

    fn drop_cells(n: usize, m: usize, frac_inv: usize) -> Mask {
        let mut omega = Mask::full(n, m);
        for i in 0..n {
            if i % frac_inv == 0 {
                omega.set(i, (i * 5 + 2) % m, false);
            }
        }
        omega
    }

    #[test]
    fn resilient_matches_default_on_clean_data() {
        let x = spatial_data(30, 6, 41);
        let omega = drop_cells(30, 6, 4);
        // Clean data: no rung of the degradation ladder fires and both
        // policies see the same model.
        let cfg = SmflConfig::smfl(3, 2)
            .with_p(8)
            .with_max_iter(40)
            .with_seed(5);
        let plain = fit(&x, &omega, &cfg).unwrap();
        let resilient = fit(&x, &omega, &cfg.clone().resilient()).unwrap();
        assert!(plain.u.approx_eq(&resilient.u, 1e-9));
        assert!(plain.v.approx_eq(&resilient.v, 1e-9));
        assert!(resilient.report.failure.is_none());
        assert!(
            resilient.report.events.is_empty(),
            "{:?}",
            resilient.report.events
        );
        // Strict and recovering fits report the same clean fit.
        assert_eq!(plain.report, resilient.report);
    }

    #[test]
    fn resilient_gd_restarts_and_returns_best_iterate() {
        // A learning rate this large makes projected GD diverge; the
        // resilient engine must restart (halving the rate) and hand back
        // the best recorded iterate rather than garbage.
        let x = spatial_data(25, 5, 42);
        let omega = drop_cells(25, 5, 3);
        let cfg = SmflConfig::nmf(3)
            .with_gradient_descent(5.0)
            .with_max_iter(60)
            .resilient();
        let model = fit(&x, &omega, &cfg).unwrap();
        assert!(model.u.all_finite() && model.v.all_finite());
        assert!(model.report.restarts() >= 1, "{:?}", model.report);
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::Restarted { .. })));
        // Returned factors evaluate to the best objective ever recorded.
        let best = model
            .objective_history
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let returned =
            crate::objective::objective(&x, &omega, &model.u, &model.v, 0.0, None).unwrap();
        assert!(
            (returned - best).abs() <= 1e-8 * best.abs().max(1.0),
            "returned {returned} vs best recorded {best}"
        );
    }

    #[test]
    fn resilient_sanitizes_non_finite_cells() {
        let mut x = spatial_data(25, 5, 43);
        x.set(2, 3, f64::NAN);
        x.set(7, 4, f64::INFINITY);
        x.set(11, 2, -4.0); // negative under multiplicative: also masked
        let omega = Mask::full(25, 5);
        // Fail-fast path rejects...
        assert!(fit(&x, &omega, &SmflConfig::smfl(3, 2)).is_err());
        // ...the resilient path repairs and fits.
        let model = fit(
            &x,
            &omega,
            &SmflConfig::smfl(3, 2).with_max_iter(30).resilient(),
        )
        .unwrap();
        assert!(model.u.all_finite() && model.v.all_finite());
        assert_eq!(model.report.sanitized_cells(), 3);
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::Sanitized { cells: 3 })));
        assert!(model.report.failure.is_none());
    }

    #[test]
    fn resilient_stall_detection_stops_early() {
        // All-zero data reaches its fixed point immediately; with a
        // negative tol the legacy criterion never fires, so the stall
        // detector is what ends the loop.
        let x = Matrix::zeros(12, 4);
        let omega = Mask::full(12, 4);
        let cfg = SmflConfig::nmf(2)
            .with_max_iter(200)
            .with_tol(-1.0)
            .with_resilience(Resilience::Recover { stall_patience: 4 });
        let model = fit(&x, &omega, &cfg).unwrap();
        assert_eq!(model.report.failure, Some(FitFailure::Stalled));
        assert!(
            model.iterations < 20,
            "stall should stop early, ran {}",
            model.iterations
        );
        assert!(model.u.all_finite() && model.v.all_finite());
    }

    #[test]
    fn resilient_keeps_laplacian_on_disconnected_graph() {
        // Two clusters far apart with p = 1: the kNN graph splits into
        // two components. Its Laplacian is still PSD and regularizes each
        // component, so the recovering engine keeps the spatial term and
        // records nothing — the same model as the strict fit.
        let n = 20;
        let x = Matrix::from_fn(n, 5, |i, j| {
            let base = if i < n / 2 { 0.0 } else { 1000.0 };
            match j {
                0 => base + (i % 10) as f64 * 0.01,
                1 => base,
                _ => 0.3 + 0.01 * (i as f64) / n as f64,
            }
        });
        let omega = Mask::full(n, 5);
        let cfg = SmflConfig::smf(3, 2)
            .with_p(1)
            .with_max_iter(20)
            .resilient();
        let plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
        let graph = plan.graph().expect("Laplacian kept");
        assert!(!graph.is_connected());
        assert!(
            plan.report().events.is_empty(),
            "{:?}",
            plan.report().events
        );
        let model = fit(&x, &omega, &cfg).unwrap();
        assert!(!model.report.degraded());
        assert!(model.report.events.is_empty(), "{:?}", model.report.events);
        assert!(model.u.all_finite() && model.v.all_finite());
        let strict = fit(&x, &omega, &cfg.with_resilience(Resilience::Strict)).unwrap();
        assert!(strict.u.approx_eq(&model.u, 0.0));
        assert!(strict.v.approx_eq(&model.v, 0.0));
        assert_eq!(strict.report, model.report);
    }

    #[test]
    fn resilient_retries_landmarks_on_duplicate_coordinates() {
        // Every coordinate identical: k-means centres collapse, which
        // the resilient engine repairs by deterministic de-duplication
        // plus a re-seeded retry — landmarks survive.
        let n = 24;
        let x = Matrix::from_fn(n, 5, |i, j| match j {
            0 | 1 => 0.5,
            _ => 0.2 + 0.02 * ((i * 7 + j) % 11) as f64,
        });
        let omega = Mask::full(n, 5);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(15).resilient();
        let model = fit(&x, &omega, &cfg).unwrap();
        assert!(
            model.landmarks.is_some(),
            "landmarks should survive via retry: {:?}",
            model.report.events
        );
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::CoordinatesDeduped { rows } if *rows > 0)));
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::LandmarksRetried { .. })));
        // The surviving landmark rows are pairwise distinct.
        let lm = &model.landmarks.as_ref().unwrap().centers;
        for a in 0..lm.rows() {
            for b in a + 1..lm.rows() {
                assert!(
                    (0..lm.cols()).any(|j| lm.get(a, j) != lm.get(b, j)),
                    "duplicate landmark rows {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn resilient_report_is_deterministic() {
        let mut x = spatial_data(25, 5, 44);
        x.set(3, 2, f64::NAN);
        let omega = drop_cells(25, 5, 3);
        let cfg = SmflConfig::smfl(3, 2)
            .with_max_iter(25)
            .with_seed(11)
            .resilient();
        let a = fit(&x, &omega, &cfg).unwrap();
        let b = fit(&x, &omega, &cfg).unwrap();
        assert_eq!(a.report, b.report);
        assert!(a.u.approx_eq(&b.u, 0.0));
        assert!(a.v.approx_eq(&b.v, 0.0));
    }
}
