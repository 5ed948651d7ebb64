//! The public fit API (paper Algorithm 1) and the fitted-model type.
//!
//! Every entry point here is a thin wrapper over the compile/solve
//! split: [`crate::plan::FitPlan`] materializes the pre-loop artifacts
//! (sanitize → validate → SI fill → graph → landmarks → pattern +
//! workspace) and [`crate::engine`] runs the update loop over the
//! borrowed plan — `fit(x, omega, cfg)` is exactly
//! `FitPlan::compile(x, omega, cfg)?.solve()`, bitwise. Use the plan
//! API directly to amortize compilation across repeated solves
//! (model selection, warm-started refits); use these wrappers for the
//! one-shot fits of the paper's experiments.
//!
//! [`FittedModel::impute`] applies Formula 8
//! (`X̂ ← R_Ω(X) + R_Ψ(X*)`), and [`repair`] reuses the same machinery
//! with `Ψ` = the set of dirty cells (paper §II-D).

use crate::config::SmflConfig;
use crate::health::FitReport;
use crate::landmarks::Landmarks;
use crate::plan::{FitPlan, SolveOptions};
use crate::telemetry::{JsonlSink, NoopSink, RecordingSink, Trace, TraceSink};
use smfl_linalg::{Mask, Matrix, Result};

/// A fitted factorization `X ≈ U·V`.
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// Coefficient matrix `U` (`N x K`); rows are per-tuple cluster
    /// weights (the clustering application of §IV-B4 reads these).
    pub u: Matrix,
    /// Feature matrix `V` (`K x M`); for SMFL its first `L` columns hold
    /// the landmark coordinates.
    pub v: Matrix,
    /// The landmarks used, when the variant has them.
    pub landmarks: Option<Landmarks>,
    /// Objective value after every iteration.
    pub objective_history: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the early-stop criterion fired before `max_iter`.
    pub converged: bool,
    /// Number of spatial columns `L` the model was fitted with.
    pub spatial_cols: usize,
    /// Fault-tolerance audit trail: the objective tail on every fit,
    /// plus the repair steps of a [`crate::Resilience::Recover`] fit.
    /// See [`FitReport`].
    pub report: FitReport,
    /// Full telemetry trace — populated only by [`fit_traced`]
    /// (boxed so the common untraced model stays small).
    pub trace: Option<Box<Trace>>,
}

impl FittedModel {
    /// The full reconstruction `X* = U·V`.
    pub fn reconstruct(&self) -> Result<Matrix> {
        smfl_linalg::ops::matmul(&self.u, &self.v)
    }

    /// Formula 8: observed cells from `x`, everything else from `U·V`.
    pub fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        let xstar = self.reconstruct()?;
        omega.blend(x, &xstar)
    }

    /// Locations of the learned features: the first `L` columns of `V`
    /// (`K x L`). This is what Figs. 1 and 5 of the paper plot.
    pub fn feature_locations(&self) -> Result<Matrix> {
        self.v.columns(0, self.spatial_cols)
    }

    /// Hard cluster assignment per tuple: `argmax_k u_ik` (the
    /// MF-as-clustering reading used in the §IV-B4 experiment).
    pub fn cluster_labels(&self) -> Vec<usize> {
        (0..self.u.rows())
            .map(|i| {
                // First maximum wins on ties.
                let mut best = 0;
                let mut best_v = f64::NEG_INFINITY;
                for (k, &val) in self.u.row(i).iter().enumerate() {
                    if val > best_v {
                        best_v = val;
                        best = k;
                    }
                }
                best
            })
            .collect()
    }

    /// Final objective value (`None` before any iteration ran).
    pub fn final_objective(&self) -> Option<f64> {
        self.objective_history.last().copied()
    }

    /// The recorded telemetry trace (`Some` only for [`fit_traced`]).
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_deref()
    }

    /// Warm-started refit on new data through an existing plan — the
    /// serving path for observations that trickle in. Rebinds `plan` to
    /// `(x, omega)` (in place when the mask is unchanged; see
    /// [`FitPlan::rebind`]) and solves seeded from this model's
    /// factors, with the plan's landmark columns re-frozen on top.
    ///
    /// The new data must have the plan's shape, and this model must
    /// have its rank — a rank change is a new model, not a refit
    /// (`DimensionMismatch { op: "warm_start" }`).
    pub fn refit(&self, plan: &mut FitPlan, x: &Matrix, omega: &Mask) -> Result<FittedModel> {
        plan.rebind(x, omega)?;
        plan.solve_with(&SolveOptions::warm_from(self))
    }
}

/// Fits a model to the observed cells of `x`.
///
/// # Errors
/// - shape mismatch between `x` and `omega`;
/// - `rank == 0`, `rank >= N` or `spatial_cols > M` (`rank > M` is
///   allowed: an overcomplete landmark dictionary);
/// - negative observed values (the multiplicative rules require
///   nonnegative data; min-max normalize first, as the paper does);
/// - propagated substrate failures.
///
/// With `config.resilience` set to [`crate::Resilience::Recover`]
/// (see [`SmflConfig::resilient`]) unusable cells are masked out instead
/// of rejected, failed iterations restart from a checkpoint, and every
/// repair step is recorded in the returned model's [`FitReport`].
pub fn fit(x: &Matrix, omega: &Mask, config: &SmflConfig) -> Result<FittedModel> {
    fit_dispatch(x, omega, config, None)
}

/// Routes a fit through the `SMFL_TRACE` JSONL sink when the
/// environment asks for one, and through the erased [`NoopSink`]
/// otherwise. A trace file that cannot be created degrades to an
/// untraced fit with a warning — telemetry never fails a fit.
fn fit_dispatch(
    x: &Matrix,
    omega: &Mask,
    config: &SmflConfig,
    landmarks_override: Option<Landmarks>,
) -> Result<FittedModel> {
    match crate::telemetry::env_trace_path() {
        Some(path) => match JsonlSink::create(&path) {
            Ok(mut sink) => fit_inner(x, omega, config, landmarks_override, &mut sink),
            Err(err) => {
                eprintln!("SMFL_TRACE: cannot create {}: {err}; tracing disabled", path.display());
                fit_inner(x, omega, config, landmarks_override, &mut NoopSink)
            }
        },
        None => fit_inner(x, omega, config, landmarks_override, &mut NoopSink),
    }
}

/// Compile + solve against one shared sink — the one-shot pipeline
/// every public wrapper funnels through.
fn fit_inner<S: TraceSink>(
    x: &Matrix,
    omega: &Mask,
    config: &SmflConfig,
    landmarks_override: Option<Landmarks>,
    sink: &mut S,
) -> Result<FittedModel> {
    let mut plan = FitPlan::compile_full(x, omega, config, landmarks_override, None, sink)?;
    crate::engine::solve(&mut plan, &SolveOptions::default(), sink)
}

/// [`fit`] streaming telemetry into a caller-supplied [`TraceSink`].
///
/// With [`NoopSink`] this is exactly [`fit`] (same monomorphization);
/// with any enabled sink the fit is numerically identical — only
/// observed. The `SMFL_TRACE` environment toggle is bypassed.
pub fn fit_with_sink<S: TraceSink>(
    x: &Matrix,
    omega: &Mask,
    config: &SmflConfig,
    sink: &mut S,
) -> Result<FittedModel> {
    fit_inner(x, omega, config, None, sink)
}

/// [`fit`] recording a full in-memory [`Trace`], attached to the
/// returned model and readable via [`FittedModel::trace`].
pub fn fit_traced(x: &Matrix, omega: &Mask, config: &SmflConfig) -> Result<FittedModel> {
    let mut sink = RecordingSink::with_capacity(config.max_iter.min(1024));
    let mut model = fit_inner(x, omega, config, None, &mut sink)?;
    model.trace = Some(Box::new(sink.into_trace()));
    Ok(model)
}

/// [`fit`] with explicitly supplied landmarks, bypassing the k-means
/// computation — for *curated* landmarks (the paper's §IV-C notes that
/// carefully chosen landmarks can outperform automatic ones) and for
/// the landmark-quality ablation.
///
/// The landmark matrix must be `K x L` matching the configuration
/// (`DimensionMismatch { op: "fit_with_landmarks" }` otherwise); the
/// landmarks are used regardless of `config.variant`.
pub fn fit_with_landmarks(
    x: &Matrix,
    omega: &Mask,
    config: &SmflConfig,
    landmarks: Landmarks,
) -> Result<FittedModel> {
    fit_dispatch(x, omega, config, Some(landmarks))
}

/// Fit + impute in one call: returns `X̂` with unobserved cells filled
/// from the factorization (Algorithm 1's return value).
pub fn impute(x: &Matrix, omega: &Mask, config: &SmflConfig) -> Result<Matrix> {
    fit(x, omega, config)?.impute(x, omega)
}

/// Repair: replaces the cells flagged dirty (the paper's repair task,
/// §II-D — `Ψ` comes from an error detector) with factorization values.
pub fn repair(x: &Matrix, dirty: &Mask, config: &SmflConfig) -> Result<Matrix> {
    let omega = dirty.complement();
    impute(x, &omega, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::Matrix;

    #[test]
    fn cluster_labels_argmax() {
        let model = FittedModel {
            u: Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.7], vec![0.5, 0.5]]).unwrap(),
            v: Matrix::zeros(2, 3),
            landmarks: None,
            objective_history: vec![],
            iterations: 0,
            converged: false,
            spatial_cols: 0,
            report: FitReport::default(),
            trace: None,
        };
        assert_eq!(model.cluster_labels(), vec![0, 1, 0]);
    }
}
