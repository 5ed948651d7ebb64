//! # smfl-linalg
//!
//! Linear-algebra substrate for the SMFL reproduction
//! (*Matrix Factorization with Landmarks for Spatial Data*, ICDE 2023).
//!
//! The paper's algorithms are expressed over NumPy-class primitives; this
//! crate provides exactly the set needed, built from scratch:
//!
//! - [`Matrix`] — dense row-major `f64` matrix with elementwise ops,
//!   norms and slicing.
//! - [`ops`] — serial + row-parallel products in all three orientations
//!   (`A·B`, `A·Bᵀ`, `Aᵀ·B`), matching the shapes in the paper's update
//!   rules (Formulas 13/14).
//! - [`parallel`] — the persistent worker pool and its row-striping
//!   helper (with the `SMFL_THREADS` override), shared by `ops`,
//!   `kernels`, the fused step of `smfl-core` and the spatial
//!   preprocessing pipeline in `smfl-spatial`.
//! - [`Mask`] — the `Ω` / `Ψ` observation bitsets and the masked
//!   operators `R_Ω(·)` (paper §II-A), including `R_Ω(U·V)` evaluated
//!   sparsely.
//! - [`kernels`] — the fused sparse-residual iteration engine:
//!   [`ObservedPattern`] compiles `Ω` + `X` into CSR/CSC once per fit,
//!   and SDDMM / SpMM kernels evaluate the update-rule products at
//!   observed entries only, into a reusable [`Workspace`].
//! - [`simd`] — runs each update-loop kernel in an AVX2 instance when
//!   the CPU has AVX2, with the same bits as the baseline instance.
//! - [`rank`] — the rank table ([`with_rank!`](crate::with_rank)):
//!   every update-loop kernel runs in an instance compiled for its rank
//!   `K` when `K` is in the table, and in a runtime-`K` instance
//!   otherwise.
//! - [`eigen`] / [`svd`] — cyclic-Jacobi symmetric eigensolver and a thin
//!   SVD (Gram route), powering the MC / SoftImpute / PCA baselines.
//! - [`random`] — seed-deterministic matrix initialization.
//!
//! ## Example
//!
//! ```
//! use smfl_linalg::{Matrix, Mask, mask::masked_product};
//!
//! let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
//! let omega = Mask::from_positions(2, 2, &[(0, 0), (1, 1)])?;
//! // R_Ω(X · I) keeps only the observed cells of the product.
//! let masked = masked_product(&x, &Matrix::identity(2), &omega)?;
//! assert_eq!(masked.as_slice(), &[1.0, 0.0, 0.0, 4.0]);
//! # Ok::<(), smfl_linalg::LinalgError>(())
//! ```

#![warn(missing_docs)]

pub mod eigen;
pub mod error;
pub mod kernels;
pub mod mask;
pub mod matrix;
pub mod ops;
pub mod parallel;
pub mod random;
pub mod rank;
pub mod simd;
pub mod solve;
pub mod svd;

pub use error::{ensure_u32, LinalgError, Result};
pub use kernels::{KernelCounters, ObservedPattern, Workspace};
pub use mask::Mask;
pub use matrix::Matrix;
pub use svd::{thin_svd, Svd};
