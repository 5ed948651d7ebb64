//! # smfl-core
//!
//! Reproduction of **SMFL — Spatial Matrix Factorization with Landmarks**
//! (Fang, Mei, Song; ICDE 2023): nonnegative matrix factorization over
//! partially observed spatial data, with graph-Laplacian spatial
//! regularization and k-means landmarks frozen into the feature matrix.
//!
//! The model family (all fitted through one [`fit`] entry point):
//!
//! - **NMF** — masked nonnegative factorization, `min ‖R_Ω(X − UV)‖²`;
//! - **SMF** — adds the spatial term `λ·Tr(UᵀLU)` (paper Problem 1);
//! - **SMFL** — additionally pins the first `L` columns of `V` to the
//!   k-means centres of the spatial information (paper Problem 2).
//!
//! Both optimizers of the paper are implemented: the multiplicative
//! rules (with the proven objective-non-increase property — asserted in
//! this crate's tests) and projected gradient descent.
//!
//! ## Quickstart
//!
//! ```
//! use smfl_core::{fit, SmflConfig};
//! use smfl_linalg::{Mask, Matrix, random};
//!
//! // Low-rank nonnegative spatial data (first 2 columns = coordinates).
//! let u = random::positive_uniform_matrix(50, 3, 0);
//! let v = random::positive_uniform_matrix(3, 6, 1);
//! let x = smfl_linalg::ops::matmul(&u, &v)?.scale(1.0 / 3.0);
//!
//! // 10% of cells unobserved.
//! let mut omega = Mask::full(50, 6);
//! for i in (0..50).step_by(10) { omega.set(i, 3, false); }
//!
//! let model = fit(&x, &omega, &SmflConfig::smfl(3, 2).with_max_iter(100))?;
//! let imputed = model.impute(&x, &omega)?;
//! assert_eq!(imputed.shape(), x.shape());
//! // Landmarks sit in the first two columns of V:
//! assert_eq!(model.feature_locations()?.shape(), (3, 2));
//! # Ok::<(), smfl_linalg::LinalgError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
mod dense_step;
mod engine;
pub mod hals;
pub mod health;
pub mod io;
pub mod landmarks;
pub mod model;
pub mod model_selection;
pub mod objective;
pub mod plan;
mod resilience;
pub mod telemetry;
pub mod updater;

pub use config::{Resilience, SmflConfig, Updater, Variant};
pub use health::{FitEvent, FitFailure, FitReport, DENOM_EPS};
pub use landmarks::Landmarks;
pub use model::{fit, impute, repair, FittedModel};
pub use plan::{FitPlan, PlanCache, PlanCacheStats, SolveOptions};
pub use telemetry::{
    IterEvent, JsonlSink, NoopSink, Phase, RecordingSink, SpanEvent, Trace, TraceSink,
};
pub use model_selection::{
    fit_with_selection, grid_search, grid_search_cached, grid_search_uncached, GridSearchResult,
    ParamGrid, Scored, SkipReason, SkippedCandidate,
};
pub use objective::objective;
