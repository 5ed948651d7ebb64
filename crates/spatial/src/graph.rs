//! The kNN similarity graph of the paper (§II-C).
//!
//! `D` is the symmetric binary p-nearest-neighbour similarity matrix
//! (Formula 3): `d_ij = 1` iff `x_i ∈ NN_p(x_j)` or `x_j ∈ NN_p(x_i)`,
//! computed on the spatial information `SI`. `W` is the diagonal degree
//! matrix (Formula 4), stored as its diagonal `w`. The graph Laplacian
//! `L = W − D` is never materialized: every consumer works from `(D, w)`
//! — `L·U = w∘U − D·U`, and `Tr(UᵀLU)` in degree form. `D` is stored
//! sparse ([`CsrMatrix`]): each row holds at most `2p` entries, so the
//! per-iteration product `D·U` in the update rule (Formula 13) costs
//! `O(nnz·K)` instead of `O(N²K)`, and `W·U` is a row scaling.

use crate::kdtree::{brute_force_nearest, KdTree, Neighbor};
use smfl_linalg::ops::dot;
use smfl_linalg::{CsrMatrix, LinalgError, Mask, Matrix, Result};
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one graph build, reported by
/// [`SpatialGraph::build_instrumented`] for the telemetry layer.
///
/// The two phases partition the pipeline: `knn` covers kd-tree
/// construction (or the brute-force scan) plus the bulk neighbour
/// queries; `assembly` covers symmetrization, the direct CSR emission
/// of `D` and the degree vector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphBuildStats {
    /// Time spent computing the directed p-NN edge lists.
    pub knn: Duration,
    /// Time spent assembling the CSR triple from the edge lists.
    pub assembly: Duration,
}

/// How neighbour lists are computed when building the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborSearch {
    /// KD-tree (`O(N log N)` in low dimension) — what every fit uses.
    KdTree,
    /// Brute force (`O(N²L)`, the cost the paper's Proposition 1 quotes);
    /// kept as the correctness oracle of the kd-tree (tests and the
    /// `spatial` bench compare the two graphs bit for bit).
    BruteForce,
}

/// The spatial graph `(D, w)` of the paper: the similarity matrix and
/// the diagonal of the degree matrix, which together determine the
/// Laplacian `L = W − D`.
#[derive(Debug, Clone)]
pub struct SpatialGraph {
    /// Binary symmetric similarity matrix `D` (Formula 3).
    pub similarity: CsrMatrix,
    /// Diagonal of the degree matrix `W` (Formula 4):
    /// `w_i = Σ_j d_ij`, the row sums of [`Self::similarity`].
    pub degree: Vec<f64>,
    /// Number of nearest neighbours `p` used.
    pub p: usize,
}

/// Edge-weighting scheme for the similarity matrix.
///
/// The paper uses [`GraphWeighting::Binary`] (Formula 3); the GNMF
/// lineage it builds on (Cai et al., the paper's reference \[9\]) also
/// studies heat-kernel weights `d_ij = exp(−‖x_i − x_j‖² / (2σ²))`,
/// which downweight the farthest of the p neighbours — provided as an
/// extension. No bench ablates it; the unit tests and
/// `smfl-core`'s `weighting` suite cover it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphWeighting {
    /// `d_ij ∈ {0, 1}` — the paper's Formula 3.
    Binary,
    /// `d_ij = exp(−dist² / (2σ²))` on the same p-NN support.
    HeatKernel {
        /// Kernel bandwidth σ.
        sigma: f64,
    },
}

impl SpatialGraph {
    /// Builds the binary graph (Formula 3) from spatial coordinates
    /// `si` (`N x L`) with `p` nearest neighbours per point, using every
    /// available thread.
    ///
    /// Neighbour ties are broken by index, matching the brute-force
    /// oracle, so both [`NeighborSearch`] variants yield identical
    /// graphs.
    pub fn build(si: &Matrix, p: usize, search: NeighborSearch) -> Result<SpatialGraph> {
        Self::build_instrumented(si, p, search, GraphWeighting::Binary, 0).map(|(g, _)| g)
    }

    /// The full-control constructor: explicit edge weighting and thread
    /// count (`0` = automatic; it bounds both kd-tree construction and
    /// the bulk kNN query, and every count yields the identical graph).
    /// Also returns the per-phase wall-clock breakdown
    /// ([`GraphBuildStats`]), at the cost of four monotonic-clock reads.
    ///
    /// The pipeline is (1) a bulk kNN pass answering all `N` queries in
    /// parallel chunks, then (2) a serial sort/merge assembly that
    /// symmetrizes the directed edge lists and emits `D` directly in CSR
    /// form — one counting pass, no hashing, no triplet intermediates —
    /// followed by the degrees `w`.
    pub fn build_instrumented(
        si: &Matrix,
        p: usize,
        search: NeighborSearch,
        weighting: GraphWeighting,
        threads: usize,
    ) -> Result<(SpatialGraph, GraphBuildStats)> {
        let n = si.rows();
        let knn_t0 = Instant::now();
        // Directed p-NN edge lists, flat query-major: entry `q * kk + t`
        // is the t-th nearest neighbour of point q as `(index, sq_dist)`.
        let (neighbors, kk): (Vec<Neighbor>, usize) = match search {
            NeighborSearch::KdTree => {
                let tree = KdTree::build_with_threads(si, threads);
                let kk = tree.bulk_k(p, true);
                (tree.nearest_bulk_with_threads(si, p, true, threads), kk)
            }
            NeighborSearch::BruteForce => {
                let kk = p.min(n.saturating_sub(1));
                let mut flat = Vec::with_capacity(n * kk);
                for i in 0..n {
                    flat.extend(brute_force_nearest(si, si.row(i), p, i));
                }
                (flat, kk)
            }
        };
        let knn = knn_t0.elapsed();
        let assembly_t0 = Instant::now();
        // Hoist the weighting dispatch out of the per-edge loop; both
        // directions of an edge see bitwise-identical squared distances
        // ((a−b)² ≡ (b−a)² summed in the same dimension order), so the
        // weight function is evaluated once per direction with equal
        // results and the adjacent dedupe below is order-independent.
        let similarity = match weighting {
            GraphWeighting::Binary => assemble_symmetric(n, kk, &neighbors, |_| 1.0),
            GraphWeighting::HeatKernel { sigma } => {
                let denom = (2.0 * sigma * sigma).max(1e-300);
                assemble_symmetric(n, kk, &neighbors, move |d2| (-d2 / denom).exp())
            }
        }?;
        let degree = similarity.row_sums();
        let stats = GraphBuildStats {
            knn,
            assembly: assembly_t0.elapsed(),
        };
        Ok((
            SpatialGraph {
                similarity,
                degree,
                p,
            },
            stats,
        ))
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.similarity.rows()
    }

    /// `true` for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spatial-regularization value `Tr(Uᵀ L U)` — the paper's
    /// `O_SR(U)` (§II-C) — in degree form, one [`Self::laplacian_row`]
    /// per row. Allocation-free: the fit loop evaluates it every
    /// iteration.
    pub fn regularization(&self, u: &Matrix) -> Result<f64> {
        if u.rows() != self.len() {
            return Err(LinalgError::DimensionMismatch {
                left: (self.len(), self.len()),
                right: u.shape(),
                op: "regularization",
            });
        }
        let k = u.cols();
        Ok((0..self.len())
            .map(|i| self.laplacian_row(u.as_slice(), k, i))
            .sum())
    }

    /// Row `i`'s share of `Tr(Uᵀ L U)` in degree form,
    /// `w_i·|u_i|² − 2·Σ_{j>i} d_ij·(u_i · u_j)`, for a row-major `N x k`
    /// factor slice `u` — `D` is symmetric, so each edge is visited
    /// once. Summed over all rows it is [`Self::regularization`];
    /// row-streaming kernels call it directly.
    #[inline]
    pub fn laplacian_row(&self, u: &[f64], k: usize, i: usize) -> f64 {
        let ui = &u[i * k..][..k];
        let cross: f64 = self
            .similarity
            .row_entries(i)
            .filter(|&(j, _)| j > i)
            .map(|(j, d)| d * dot(ui, &u[j * k..][..k]))
            .sum();
        self.degree[i] * dot(ui, ui) - 2.0 * cross
    }

    /// Number of connected components of the similarity graph
    /// (iterative DFS over CSR rows; zero-weight entries are absent by
    /// construction, so every stored entry is an edge).
    pub fn connected_components(&self) -> usize {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(v) = stack.pop() {
                for (j, _) in self.similarity.row_entries(v) {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        components
    }

    /// `true` when every vertex is reachable from every other (a single
    /// connected component). The empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        self.connected_components() <= 1
    }

    /// `true` when every stored edge weight and every degree is finite.
    /// Non-finite SI coordinates propagate NaN distances into heat-kernel
    /// weights; the fit engine uses this to decide whether the Laplacian
    /// term is safe to keep.
    pub fn all_finite(&self) -> bool {
        self.similarity.values().iter().all(|v| v.is_finite())
            && self.degree.iter().all(|v| v.is_finite())
    }
}

/// Symmetrizes flat directed kNN edge lists (`kk` hits per query) into
/// the similarity matrix `D` in CSR form.
///
/// One counting pass sizes every row bucket exactly (kk out-edges plus
/// one in-edge per query that selected the row), a scatter pass fills
/// the buckets, and a per-row sort + adjacent dedupe collapses mutual
/// edges — keeping one copy, which matches the old hash-set first-wins
/// symmetrization because duplicate directions carry bitwise-identical
/// weights. Zero weights (heat-kernel underflow) are dropped, matching
/// `from_triplets` semantics.
fn assemble_symmetric<F>(
    n: usize,
    kk: usize,
    neighbors: &[Neighbor],
    weight: F,
) -> Result<CsrMatrix>
where
    F: Fn(f64) -> f64,
{
    debug_assert_eq!(neighbors.len(), n * kk);
    let mut counts = vec![kk; n];
    for &(j, _) in neighbors {
        counts[j] += 1;
    }
    let mut start = Vec::with_capacity(n + 1);
    start.push(0usize);
    let mut acc = 0usize;
    for &c in &counts {
        acc += c;
        start.push(acc);
    }
    let mut fill = start[..n].to_vec();
    let mut bucket: Vec<(usize, f64)> = vec![(0, 0.0); acc];
    for q in 0..n {
        for &(j, d2) in &neighbors[q * kk..(q + 1) * kk] {
            let w = weight(d2);
            bucket[fill[q]] = (j, w);
            fill[q] += 1;
            bucket[fill[j]] = (q, w);
            fill[j] += 1;
        }
    }
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(acc);
    let mut values = Vec::with_capacity(acc);
    row_ptr.push(0usize);
    for i in 0..n {
        let row = &mut bucket[start[i]..start[i + 1]];
        row.sort_unstable_by_key(|&(c, _)| c);
        let mut last = usize::MAX;
        for &(c, w) in row.iter() {
            if c != last && w != 0.0 {
                col_idx.push(c);
                values.push(w);
            }
            last = c;
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
}

/// Prepares spatial information for graph construction when some SI
/// cells are unobserved (paper §II-C): a missing `x_ij` is initialized
/// with the mean of the *observed* values in column `j`. This filled
/// copy is used **only** to compute `D`; imputation proper happens in
/// the factorization.
pub fn fill_missing_si(x: &Matrix, omega: &Mask, l_cols: usize) -> Matrix {
    let mut si = x
        .columns(0, l_cols.min(x.cols()))
        .expect("l_cols within bounds by min()");
    for j in 0..si.cols() {
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..x.rows() {
            if omega.get(i, j) {
                sum += x.get(i, j);
                count += 1;
            }
        }
        let mean = if count > 0 { sum / count as f64 } else { 0.0 };
        for i in 0..x.rows() {
            if !omega.get(i, j) {
                si.set(i, j, mean);
            }
        }
    }
    si
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::uniform_matrix;

    fn line_points(n: usize) -> Matrix {
        Matrix::from_fn(n, 2, |i, j| if j == 0 { i as f64 } else { 0.0 })
    }

    fn weighted_graph(
        si: &Matrix,
        p: usize,
        search: NeighborSearch,
        weighting: GraphWeighting,
    ) -> SpatialGraph {
        SpatialGraph::build_instrumented(si, p, search, weighting, 0).unwrap().0
    }

    /// `L = diag(w) − D` in CSR form, for checks against the degree form.
    fn laplacian(g: &SpatialGraph) -> CsrMatrix {
        let mut triplets: Vec<(usize, usize, f64)> = (0..g.len())
            .flat_map(|i| g.similarity.row_entries(i).map(move |(j, d)| (i, j, -d)))
            .collect();
        triplets.extend(g.degree.iter().enumerate().map(|(i, &w)| (i, i, w)));
        CsrMatrix::from_triplets(g.len(), g.len(), &triplets).unwrap()
    }

    #[test]
    fn line_graph_with_p1() {
        // Points on a line, p = 1: each interior point links to a
        // neighbour; symmetrization makes consecutive links mutual.
        let g = SpatialGraph::build(&line_points(5), 1, NeighborSearch::BruteForce).unwrap();
        assert!(g.similarity.is_symmetric(0.0));
        // Point 0's NN is 1 and vice versa: edge (0,1) mutual.
        assert_eq!(g.similarity.get(0, 1), 1.0);
        assert_eq!(g.similarity.get(1, 0), 1.0);
        // No self loops.
        for i in 0..5 {
            assert_eq!(g.similarity.get(i, i), 0.0);
        }
    }

    #[test]
    fn kdtree_and_bruteforce_agree() {
        let pts = uniform_matrix(150, 2, 0.0, 1.0, 21);
        let a = SpatialGraph::build(&pts, 3, NeighborSearch::KdTree).unwrap();
        let b = SpatialGraph::build(&pts, 3, NeighborSearch::BruteForce).unwrap();
        assert!(a.similarity.to_dense().approx_eq(&b.similarity.to_dense(), 0.0));
        assert_eq!(a.degree, b.degree);
    }

    #[test]
    fn degree_is_row_sum_of_similarity() {
        let pts = uniform_matrix(40, 2, 0.0, 1.0, 3);
        let g = SpatialGraph::build(&pts, 2, NeighborSearch::KdTree).unwrap();
        let sums = g.similarity.row_sums();
        for (i, &s) in sums.iter().enumerate() {
            assert_eq!(g.degree[i], s);
        }
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let pts = uniform_matrix(30, 2, 0.0, 1.0, 5);
        let g = SpatialGraph::build(&pts, 3, NeighborSearch::KdTree).unwrap();
        for s in laplacian(&g).row_sums() {
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_quadratic_form_nonnegative() {
        // L is PSD: Tr(Uᵀ L U) >= 0 for any U.
        let pts = uniform_matrix(25, 2, 0.0, 1.0, 7);
        let g = SpatialGraph::build(&pts, 3, NeighborSearch::KdTree).unwrap();
        for seed in 0..5 {
            let u = uniform_matrix(25, 4, -2.0, 2.0, seed);
            assert!(g.regularization(&u).unwrap() >= -1e-9);
        }
    }

    #[test]
    fn regularization_zero_for_constant_rows() {
        // Identical rows of U: every edge difference is zero.
        let pts = uniform_matrix(20, 2, 0.0, 1.0, 9);
        let g = SpatialGraph::build(&pts, 3, NeighborSearch::KdTree).unwrap();
        let u = Matrix::filled(20, 3, 1.5);
        assert!(g.regularization(&u).unwrap().abs() < 1e-9);
    }

    #[test]
    fn regularization_matches_pairwise_definition() {
        // O_SR = 1/2 sum_ij d_ij ||u_i - u_j||² (paper §II-C).
        let pts = uniform_matrix(15, 2, 0.0, 1.0, 11);
        let g = SpatialGraph::build(&pts, 2, NeighborSearch::BruteForce).unwrap();
        let u = uniform_matrix(15, 3, 0.0, 1.0, 12);
        let mut manual = 0.0;
        for i in 0..15 {
            for j in 0..15 {
                let dij = g.similarity.get(i, j);
                if dij > 0.0 {
                    let diff: f64 = (0..3)
                        .map(|t| {
                            let d = u.get(i, t) - u.get(j, t);
                            d * d
                        })
                        .sum();
                    manual += 0.5 * dij * diff;
                }
            }
        }
        let qf = g.regularization(&u).unwrap();
        assert!((manual - qf).abs() < 1e-9, "manual {manual} vs qf {qf}");
    }

    #[test]
    fn degree_form_matches_laplacian_quadratic_form() {
        let pts = uniform_matrix(60, 2, 0.0, 1.0, 15);
        let g = SpatialGraph::build(&pts, 4, NeighborSearch::KdTree).unwrap();
        let u = uniform_matrix(60, 5, 0.0, 1.0, 16);
        let degree_form = g.regularization(&u).unwrap();
        let csr_form = laplacian(&g).quadratic_form(&u).unwrap();
        assert!((degree_form - csr_form).abs() <= 1e-12 * csr_form.abs().max(1.0));
        assert!(g
            .regularization(&uniform_matrix(59, 5, 0.0, 1.0, 16))
            .is_err());
    }

    #[test]
    fn nnz_bounded_by_2pn() {
        let pts = uniform_matrix(100, 2, 0.0, 1.0, 13);
        let g = SpatialGraph::build(&pts, 4, NeighborSearch::KdTree).unwrap();
        assert!(g.similarity.nnz() <= 2 * 4 * 100);
        assert!(g.similarity.nnz() >= 4 * 100); // at least the out-edges
    }

    #[test]
    fn fill_missing_si_uses_observed_column_mean() {
        let x = Matrix::from_rows(&[
            vec![1.0, 10.0, 0.0],
            vec![3.0, 0.0, 0.0],
            vec![0.0, 30.0, 0.0],
        ])
        .unwrap();
        let mut omega = Mask::full(3, 3);
        omega.set(1, 1, false); // (1,1) missing
        omega.set(2, 0, false); // (2,0) missing
        let si = fill_missing_si(&x, &omega, 2);
        assert_eq!(si.shape(), (3, 2));
        assert_eq!(si.get(2, 0), 2.0); // mean of {1, 3}
        assert_eq!(si.get(1, 1), 20.0); // mean of {10, 30}
        assert_eq!(si.get(0, 0), 1.0); // observed untouched
    }

    #[test]
    fn fill_missing_si_all_missing_column_defaults_to_zero() {
        let x = Matrix::filled(2, 2, 5.0);
        let omega = Mask::empty(2, 2);
        let si = fill_missing_si(&x, &omega, 2);
        assert!(si.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_graph() {
        let g = SpatialGraph::build(&Matrix::zeros(0, 2), 3, NeighborSearch::KdTree).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn heat_kernel_weights_decay_with_distance() {
        let pts = line_points(5);
        let g = weighted_graph(
            &pts,
            2,
            NeighborSearch::BruteForce,
            GraphWeighting::HeatKernel { sigma: 1.0 },
        );
        // Point 0's neighbours are 1 (dist 1) and 2 (dist 2): the closer
        // edge must carry the larger weight.
        let w01 = g.similarity.get(0, 1);
        let w02 = g.similarity.get(0, 2);
        assert!(w01 > w02, "{w01} vs {w02}");
        assert!(w01 <= 1.0 && w02 > 0.0);
        assert!(g.similarity.is_symmetric(1e-12));
        // Laplacian rows still sum to zero.
        for s in laplacian(&g).row_sums() {
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn binary_weighting_matches_default_build() {
        let pts = smfl_linalg::random::uniform_matrix(40, 2, 0.0, 1.0, 3);
        let a = SpatialGraph::build(&pts, 3, NeighborSearch::KdTree).unwrap();
        let b = weighted_graph(&pts, 3, NeighborSearch::KdTree, GraphWeighting::Binary);
        assert!(a.similarity.to_dense().approx_eq(&b.similarity.to_dense(), 0.0));
    }

    #[test]
    fn heat_kernel_regularization_still_psd() {
        let pts = smfl_linalg::random::uniform_matrix(25, 2, 0.0, 1.0, 5);
        let g = weighted_graph(
            &pts,
            3,
            NeighborSearch::KdTree,
            GraphWeighting::HeatKernel { sigma: 0.2 },
        );
        for seed in 0..3 {
            let u = smfl_linalg::random::uniform_matrix(25, 3, -2.0, 2.0, seed);
            assert!(g.regularization(&u).unwrap() >= -1e-9);
        }
    }

    #[test]
    fn graph_is_invariant_across_thread_counts() {
        let pts = uniform_matrix(120, 2, 0.0, 1.0, 33);
        let build = |threads| {
            SpatialGraph::build_instrumented(
                &pts,
                4,
                NeighborSearch::KdTree,
                GraphWeighting::Binary,
                threads,
            )
            .unwrap()
            .0
        };
        let serial = build(1);
        for threads in [0usize, 2, 5] {
            let g = build(threads);
            assert_eq!(g.similarity, serial.similarity);
            assert_eq!(g.degree, serial.degree);
        }
        // And the oracle path agrees bitwise as well.
        let oracle = SpatialGraph::build(&pts, 4, NeighborSearch::BruteForce).unwrap();
        assert_eq!(serial.similarity, oracle.similarity);
        assert_eq!(serial.degree, oracle.degree);
    }

    #[test]
    fn p_zero_yields_edgeless_graph() {
        let g = SpatialGraph::build(&line_points(4), 0, NeighborSearch::KdTree).unwrap();
        assert_eq!(g.similarity.nnz(), 0);
        assert!(g.degree.iter().all(|&w| w == 0.0));
    }

    #[test]
    fn connectivity_detects_separated_clusters() {
        // Two tight clusters far apart, p = 1: each point's NN stays in
        // its own cluster, so the graph splits into two components.
        let pts = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.2, 0.0],
            vec![100.0, 0.0],
            vec![100.1, 0.0],
            vec![100.2, 0.0],
        ])
        .unwrap();
        let g = SpatialGraph::build(&pts, 1, NeighborSearch::BruteForce).unwrap();
        assert_eq!(g.connected_components(), 2);
        assert!(!g.is_connected());
        // A line with generous p is one component.
        let line = SpatialGraph::build(&line_points(6), 2, NeighborSearch::KdTree).unwrap();
        assert_eq!(line.connected_components(), 1);
        assert!(line.is_connected());
    }

    #[test]
    fn edgeless_graph_has_n_components() {
        let g = SpatialGraph::build(&line_points(4), 0, NeighborSearch::KdTree).unwrap();
        assert_eq!(g.connected_components(), 4);
        let empty = SpatialGraph::build(&Matrix::zeros(0, 2), 3, NeighborSearch::KdTree).unwrap();
        assert_eq!(empty.connected_components(), 0);
        assert!(empty.is_connected());
    }

    #[test]
    fn all_finite_flags_nan_weights() {
        let pts = line_points(5);
        let good = SpatialGraph::build(&pts, 2, NeighborSearch::KdTree).unwrap();
        assert!(good.all_finite());
        // NaN coordinates produce NaN heat-kernel weights.
        let mut bad_pts = pts.clone();
        bad_pts.set(2, 0, f64::NAN);
        let bad = weighted_graph(
            &bad_pts,
            2,
            NeighborSearch::BruteForce,
            GraphWeighting::HeatKernel { sigma: 1.0 },
        );
        assert!(!bad.all_finite());
    }
}
