//! The one-shot fit API (paper Algorithm 1) and the fitted-model type.
//!
//! [`fit`], [`impute`] and [`repair`] are the only one-shot entry
//! points. Each is a thin wrapper over the compile/solve split:
//! [`crate::plan::FitPlan`] materializes the pre-loop artifacts
//! (sanitize → validate → SI fill → graph → landmarks → pattern +
//! workspace) and its solve runs the update loop over the borrowed plan
//! — `fit(x, omega, cfg)` is exactly
//! `FitPlan::compile(x, omega, cfg)?.solve()`, bitwise. Everything else
//! goes through the plan API: curated landmarks
//! ([`FitPlan::compile_with_landmarks`]), telemetry into a caller's
//! sink ([`FitPlan::compile_with_sink`] + [`FitPlan::solve_with_sink`]),
//! and compilation amortized across repeated solves (model selection,
//! warm-started refits).
//!
//! [`FittedModel::impute`] applies Formula 8
//! (`X̂ ← R_Ω(X) + R_Ψ(X*)`), and [`repair`] reuses the same machinery
//! with `Ψ` = the set of dirty cells (paper §II-D).

use crate::config::SmflConfig;
use crate::health::FitReport;
use crate::landmarks::Landmarks;
use crate::plan::{FitPlan, SolveOptions};
use crate::telemetry::{JsonlSink, NoopSink, TraceSink};
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
///
/// The fit streams telemetry to the JSONL file named by the
/// `SMFL_TRACE` environment variable when it is set. A trace file that
/// cannot be created degrades to an untraced fit with a warning —
/// telemetry never fails a fit.
pub fn fit(x: &Matrix, omega: &Mask, config: &SmflConfig) -> Result<FittedModel> {
    match crate::telemetry::env_trace_path() {
        Some(path) => match JsonlSink::create(&path) {
            Ok(mut sink) => fit_inner(x, omega, config, &mut sink),
            Err(err) => {
                eprintln!("SMFL_TRACE: cannot create {}: {err}; tracing disabled", path.display());
                fit_inner(x, omega, config, &mut NoopSink)
            }
        },
        None => fit_inner(x, omega, config, &mut NoopSink),
    }
}

/// Compile + solve against one shared sink.
fn fit_inner<S: TraceSink>(
    x: &Matrix,
    omega: &Mask,
    config: &SmflConfig,
    sink: &mut S,
) -> Result<FittedModel> {
    FitPlan::compile_with_sink(x, omega, config, sink)?.solve_with_sink(&SolveOptions::new(), sink)
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
        };
        assert_eq!(model.cluster_labels(), vec![0, 1, 0]);
    }
}
