//! Numeric-health monitoring and the fault-tolerance vocabulary of the
//! fit engine (DESIGN.md §10).
//!
//! The paper's Propositions 5/7 guarantee a non-increasing objective
//! only on clean inputs; real spatial tables carry NaN cells, duplicate
//! coordinates and degenerate neighbourhoods. This module supplies
//!
//! - [`DENOM_EPS`] — the single denominator/epsilon guard shared by the
//!   multiplicative rules and every other division-by-maybe-zero
//!   site in the optimizers (previously scattered ad-hoc `1e-12`s);
//! - [`FitFailure`] — the failure taxonomy the per-iteration sentinel
//!   classifies into (`NonFinite`, `Diverged`, `Stalled`);
//! - [`FitEvent`] / [`FitReport`] — the audit trail of every
//!   sanitization, degradation, restart and rollback step, attached to
//!   the returned `FittedModel` and deterministic for a given input and
//!   seed (no wall-clock, no thread-count dependence). The report is
//!   its event list plus the terminal failure; counts such as
//!   [`FitReport::restarts`] are read off the events;
//! - [`classify`] — the sentinel itself: an `O(N·K + K·M)` scan of the
//!   factors plus checks on the already-computed objective, run on every
//!   iteration under either [`Resilience`] policy.

use crate::config::Resilience;
use smfl_linalg::Matrix;

/// The one denominator guard of the optimizer family.
///
/// Every multiplicative ratio `n / (d + DENOM_EPS)` uses this constant,
/// following standard Lee–Seung practice: large enough to keep
/// `0/0 → 0` instead of NaN, small enough (`1e-12`, far below the
/// unit-normalized data scale) not to bias any update with a
/// non-vanishing denominator.
pub const DENOM_EPS: f64 = 1e-12;

/// How a fit iteration failed, as classified by the health sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitFailure {
    /// A factor entry or the objective became NaN/±Inf.
    NonFinite,
    /// The objective rose beyond the configured divergence tolerance.
    Diverged,
    /// No improvement over the best objective for the configured
    /// patience window.
    Stalled,
}

/// One recorded step of the engine's recovery machinery, in the order
/// it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FitEvent {
    /// Input sanitization masked out this many unusable observed cells
    /// (non-finite, or negative under a multiplicative updater).
    Sanitized {
        /// Number of cells removed from `Ω`.
        cells: usize,
    },
    /// Duplicate spatial coordinates were tie-broken before a landmark
    /// retry (deterministic rank-based offsets, no jitter).
    CoordinatesDeduped {
        /// Number of coordinate rows that were offset.
        rows: usize,
    },
    /// The spatial-regularization term was dropped (SMFL/SMF → the
    /// landmark-only / plain objective).
    LaplacianDropped {
        /// Why the graph was rejected.
        reason: &'static str,
    },
    /// Landmark k-means was re-run with a perturbed seed after a
    /// degenerate result.
    LandmarksRetried {
        /// 1-based retry attempt.
        attempt: usize,
    },
    /// Landmarks were abandoned after bounded retries (SMFL → NMF along
    /// the degradation ladder).
    LandmarksDropped {
        /// Why landmark generation was given up on.
        reason: &'static str,
    },
    /// The update loop hit a classified failure and restarted from the
    /// last-good checkpoint with a deterministic perturbation.
    Restarted {
        /// Iteration (0-based) at which the failure was detected.
        iteration: usize,
        /// The classification that triggered the restart.
        failure: FitFailure,
    },
    /// The final factors were rolled back to the best recorded iterate.
    RolledBack {
        /// Number of accepted iterations at rollback time.
        iteration: usize,
    },
}

/// Audit trail of a fit, attached to `FittedModel::report`: every
/// repair step in order, plus the terminal failure if the engine gave up.
///
/// A clean fit records nothing under either policy; the events come
/// from [`Resilience::Recover`]. The objective tail is the end of
/// `FittedModel::objective_history`. Deterministic: the same input,
/// configuration and seed produce the identical report under any
/// `SMFL_THREADS` setting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FitReport {
    /// Every sanitization/degradation/restart/rollback step, in order.
    pub events: Vec<FitEvent>,
    /// Terminal classification when the engine gave up restarting and
    /// returned the best iterate instead (`None` for a clean fit).
    pub failure: Option<FitFailure>,
}

impl FitReport {
    /// `true` when any degradation-ladder step fired (Laplacian or
    /// landmarks dropped).
    pub fn degraded(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                FitEvent::LaplacianDropped { .. } | FitEvent::LandmarksDropped { .. }
            )
        })
    }

    /// Number of checkpoint restarts performed.
    pub fn restarts(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FitEvent::Restarted { .. }))
            .count()
    }

    /// Observed cells masked out by input sanitization of the data the
    /// fit ran on: a rebound plan's report covers the request it is bound
    /// to, not the compile's or an earlier request's.
    pub fn sanitized_cells(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                FitEvent::Sanitized { cells } => *cells,
                _ => 0,
            })
            .sum()
    }
}

/// The per-iteration sentinel: classifies the state after one update
/// step, or returns `None` when the iteration is healthy.
///
/// Cost: one pass over `U` and `V` (`O(N·K + K·M)`) — small next to the
/// `O(|Ω|·K)` update itself — plus constant-time objective checks. The
/// objective comparison is against the *previous accepted* value
/// (`prev`), matching the paper's monotonicity statement; `since_best`
/// counts iterations since the best objective improved.
///
/// Under [`Resilience::Strict`] only non-finite values are flagged;
/// [`Resilience::Recover`] adds `Diverged` (beyond
/// [`Resilience::DIVERGENCE_TOL`]) and `Stalled`.
pub fn classify(
    obj: f64,
    prev: Option<f64>,
    u: &Matrix,
    v: &Matrix,
    since_best: usize,
    policy: &Resilience,
) -> Option<FitFailure> {
    if !obj.is_finite() || !u.all_finite() || !v.all_finite() {
        return Some(FitFailure::NonFinite);
    }
    let Resilience::Recover { stall_patience } = *policy else {
        return None;
    };
    if let Some(p) = prev {
        if obj > p + Resilience::DIVERGENCE_TOL * p.abs().max(1.0) {
            return Some(FitFailure::Diverged);
        }
    }
    if stall_patience > 0 && since_best >= stall_patience {
        return Some(FitFailure::Stalled);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> Resilience {
        Resilience::Recover { stall_patience: 32 }
    }

    #[test]
    fn healthy_iteration_passes() {
        let u = Matrix::filled(3, 2, 0.5);
        let v = Matrix::filled(2, 4, 0.5);
        assert_eq!(classify(1.0, Some(2.0), &u, &v, 0, &policy()), None);
        assert_eq!(classify(1.0, None, &u, &v, 0, &policy()), None);
    }

    #[test]
    fn non_finite_factors_or_objective_detected() {
        let mut u = Matrix::filled(3, 2, 0.5);
        let v = Matrix::filled(2, 4, 0.5);
        assert_eq!(
            classify(f64::NAN, Some(1.0), &u, &v, 0, &policy()),
            Some(FitFailure::NonFinite)
        );
        assert_eq!(
            classify(f64::INFINITY, None, &u, &v, 0, &policy()),
            Some(FitFailure::NonFinite)
        );
        u.set(1, 1, f64::NAN);
        assert_eq!(
            classify(1.0, Some(2.0), &u, &v, 0, &policy()),
            Some(FitFailure::NonFinite)
        );
    }

    #[test]
    fn divergence_beyond_tolerance_detected() {
        let u = Matrix::filled(2, 2, 0.5);
        let v = Matrix::filled(2, 2, 0.5);
        // Tiny FP rise within tolerance: healthy.
        assert_eq!(classify(1.0 + 1e-9, Some(1.0), &u, &v, 0, &policy()), None);
        // Clear rise: diverged.
        assert_eq!(
            classify(1.5, Some(1.0), &u, &v, 0, &policy()),
            Some(FitFailure::Diverged)
        );
        // First iteration has no baseline.
        assert_eq!(classify(1e12, None, &u, &v, 0, &policy()), None);
    }

    #[test]
    fn stall_detected_after_patience() {
        let u = Matrix::filled(2, 2, 0.5);
        let v = Matrix::filled(2, 2, 0.5);
        assert_eq!(classify(1.0, Some(1.0), &u, &v, 31, &policy()), None);
        assert_eq!(
            classify(1.0, Some(1.0), &u, &v, 32, &policy()),
            Some(FitFailure::Stalled)
        );
        // Patience 0 disables stall detection.
        let p = Resilience::Recover { stall_patience: 0 };
        assert_eq!(classify(1.0, Some(1.0), &u, &v, 1000, &p), None);
    }

    #[test]
    fn strict_flags_only_non_finite() {
        let mut u = Matrix::filled(2, 2, 0.5);
        let v = Matrix::filled(2, 2, 0.5);
        let strict = Resilience::Strict;
        // A clear rise and an endless stall are not failures under Strict.
        assert_eq!(classify(1.5, Some(1.0), &u, &v, 1000, &strict), None);
        assert_eq!(
            classify(f64::NAN, Some(1.0), &u, &v, 0, &strict),
            Some(FitFailure::NonFinite)
        );
        u.set(0, 1, f64::INFINITY);
        assert_eq!(
            classify(1.0, Some(2.0), &u, &v, 0, &strict),
            Some(FitFailure::NonFinite)
        );
    }

    #[test]
    fn non_finite_takes_precedence() {
        let u = Matrix::filled(2, 2, f64::INFINITY);
        let v = Matrix::filled(2, 2, 0.5);
        assert_eq!(
            classify(2.0, Some(1.0), &u, &v, 100, &policy()),
            Some(FitFailure::NonFinite)
        );
    }

    #[test]
    fn report_readers_derive_from_events() {
        let mut r = FitReport::default();
        assert!(!r.degraded());
        assert_eq!((r.restarts(), r.sanitized_cells()), (0, 0));
        r.events.push(FitEvent::Sanitized { cells: 3 });
        r.events.push(FitEvent::Sanitized { cells: 2 });
        assert!(!r.degraded());
        r.events.push(FitEvent::LaplacianDropped {
            reason: "edgeless graph",
        });
        assert!(r.degraded());
        r.events.push(FitEvent::Restarted {
            iteration: 4,
            failure: FitFailure::Diverged,
        });
        r.events.push(FitEvent::RolledBack { iteration: 5 });
        assert_eq!((r.restarts(), r.sanitized_cells()), (1, 5));
    }
}
