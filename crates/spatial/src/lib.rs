//! # smfl-spatial
//!
//! Spatial substrate for the SMFL reproduction: everything the paper
//! needs to turn raw coordinates into learning structure.
//!
//! - [`kdtree`] — k-nearest-neighbour search (kd-tree + brute-force
//!   oracle) used for the similarity matrix `D` and by several baselines
//!   (kNN, kNNE, LOESS, IIM, DLM). Construction and bulk queries run in
//!   parallel with thread-count-invariant results.
//! - [`kmeans`](mod@kmeans) — Lloyd / Hamerly k-means with k-means++ seeding; its
//!   cluster centres are the paper's *landmarks* `C` (§III-A). The
//!   Hamerly engine (default) prunes assignment work via triangle
//!   inequalities while staying bitwise-identical to Lloyd.
//! - [`graph`] — the similarity matrix `D` and degrees `w` of paper
//!   §II-C (`D` assembled hash-free, straight into CSR; the Laplacian
//!   `L = W − D` is used only through them), plus the missing-SI
//!   column-mean initialization rule.
//! - [`metric`] — Euclidean / haversine distances, including the single
//!   shared [`metric::sq_dist`] kernel.
//!
//! ## Example: landmarks + similarity graph in five lines
//!
//! ```
//! use smfl_linalg::random::uniform_matrix;
//! use smfl_spatial::{graph::{NeighborSearch, SpatialGraph}, kmeans::{kmeans, KMeansConfig}};
//!
//! let si = uniform_matrix(50, 2, 0.0, 1.0, 7);
//! let landmarks = kmeans(&si, &KMeansConfig::new(5))?.centers; // C: 5 x 2
//! let graph = SpatialGraph::build(&si, 3, NeighborSearch::KdTree)?; // D and w
//! assert_eq!(landmarks.shape(), (5, 2));
//! assert!(graph.similarity.is_symmetric(0.0));
//! # Ok::<(), smfl_linalg::LinalgError>(())
//! ```

#![warn(missing_docs)]

pub mod dedupe;
pub mod graph;
pub mod kdtree;
pub mod kmeans;
pub mod metric;

pub use dedupe::dedupe_coordinates;
pub use graph::{fill_missing_si, GraphBuildStats, GraphWeighting, NeighborSearch, SpatialGraph};
pub use kdtree::KdTree;
pub use kmeans::{kmeans, KMeansAlgorithm, KMeansConfig, KMeansInit, KMeansResult};
pub use metric::Metric;
