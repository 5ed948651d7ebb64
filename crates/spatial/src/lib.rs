//! # smfl-spatial
//!
//! Spatial substrate for the SMFL reproduction: everything the paper
//! needs to turn raw coordinates into learning structure.
//!
//! - [`kdtree`] — k-nearest-neighbour search (kd-tree + brute-force
//!   oracle) used for the similarity matrix `D` and by several baselines
//!   (kNN, kNNE, LOESS, IIM, DLM). Construction and bulk queries run in
//!   parallel with thread-count-invariant results.
//! - [`kmeans`](mod@kmeans) — k-means with k-means++ seeding; its
//!   cluster centres are the paper's *landmarks* `C` (§III-A). The
//!   iteration is Hamerly's, which prunes assignment work via triangle
//!   inequalities while staying bitwise-identical to Lloyd (the tests'
//!   reference).
//! - [`graph`] — the binary similarity matrix `D` of paper §II-C,
//!   stored as its adjacency (assembled hash-free, straight into CSR
//!   rows); the degrees `w` are the row lengths and the Laplacian
//!   `L = W − D` is used only through them. Also the missing-SI
//!   column-mean initialization rule.
//! - [`metric`] — [`metric::sq_dist`], the single squared-Euclidean
//!   distance kernel shared by the kd-tree, the kNN oracle and k-means.
//!
//! ## Example: landmarks + similarity graph in five lines
//!
//! ```
//! use smfl_linalg::random::uniform_matrix;
//! use smfl_spatial::{graph::SpatialGraph, kmeans::{kmeans, KMeansConfig}};
//!
//! let si = uniform_matrix(50, 2, 0.0, 1.0, 7);
//! let landmarks = kmeans(&si, &KMeansConfig::new(5))?.centers; // C: 5 x 2
//! let graph = SpatialGraph::build(&si, 3)?; // D and w
//! assert_eq!(landmarks.shape(), (5, 2));
//! assert!((0..50).all(|i| graph.neighbors(i).iter().all(|&j| graph.neighbors(j as usize).contains(&(i as u32)))));
//! # Ok::<(), smfl_linalg::LinalgError>(())
//! ```

#![warn(missing_docs)]

pub mod dedupe;
pub mod graph;
pub mod kdtree;
pub mod kmeans;
pub mod metric;

pub use dedupe::dedupe_coordinates;
pub use graph::{fill_missing_si, GraphBuildStats, SpatialGraph};
pub use kdtree::KdTree;
pub use kmeans::{kmeans, KMeansConfig, KMeansInit, KMeansResult};
