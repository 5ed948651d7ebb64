//! # smfl-datasets
//!
//! Synthetic spatial datasets, corruption protocols and normalization
//! for the SMFL reproduction.
//!
//! The paper's four datasets (Economic / Farm / Lake / Vehicle) are
//! proprietary or external downloads, so this crate generates synthetic
//! analogues that preserve the properties SMFL exploits — clusterable
//! location mixtures and spatially autocorrelated attribute fields
//! (see DESIGN.md §4 for the substitution argument). Two corruption
//! protocols implement the paper's §IV-A1 exactly: missing-value removal
//! per column at a missing rate, and same-domain value replacement at an
//! error rate, both with a protected complete-row reserve.
//!
//! ```
//! use smfl_datasets::{generate::{lake, Scale}, inject::inject_missing};
//!
//! let dataset = lake(Scale::Small, 0);
//! let targets = dataset.attribute_cols();
//! let inj = inject_missing(&dataset.data, &targets, 0.10, 100, 0);
//! assert_eq!(inj.omega.count() + inj.psi.count(), dataset.n() * dataset.m());
//! ```

#![warn(missing_docs)]

pub mod csv;
pub mod generate;
pub mod inject;
pub mod normalize;
pub mod table;

pub use generate::{all_datasets, economic, farm, lake, vehicle, Scale};
pub use inject::{
    inject_constant_column, inject_duplicate_si, inject_errors, inject_inf_spike, inject_missing,
    inject_nan_burst, Injection,
};
pub use normalize::MinMaxScaler;
pub use table::Dataset;
