//! The kNN similarity graph of the paper (§II-C).
//!
//! `D` is the symmetric binary p-nearest-neighbour similarity matrix
//! (Formula 3): `d_ij = 1` iff `x_i ∈ NN_p(x_j)` or `x_j ∈ NN_p(x_i)`,
//! computed on the spatial information `SI`. A binary `D` is its
//! adjacency, so the graph stores exactly that: CSR row offsets and
//! each row's neighbour indices, ascending, with no self loops. The
//! degree `w_i` of Formula 4 is the length of row `i`. The graph
//! Laplacian `L = W − D` is never materialized: every consumer works
//! from the adjacency — `L·U = w∘U − D·U`, and `Tr(UᵀLU)` in degree
//! form. Each row holds at most `2p` neighbours, so the per-iteration
//! product `D·U` in the update rule (Formula 13) costs `O(nnz·K)`
//! instead of `O(N²K)`, and `W·U` is a row scaling.
//!
//! The p-NN lists always come from the kd-tree. The brute-force search
//! ([`crate::kdtree::brute_force_nearest`]) is the tests' reference for
//! them, not a second way to build the graph.
//!
//! Offsets and neighbour indices are `u32`, exactly sized: the graph
//! keeps 4 bytes per row and 4 per nonzero of `D`, and readers widen
//! each index at the load. A build returns [`LinalgError::TooLarge`]
//! when `N` or the `2·N·p` directed edge slots exceed `u32::MAX`.

use crate::kdtree::KdTree;
use smfl_linalg::ops::dot;
use smfl_linalg::simd::{dispatch, Kernel};
use smfl_linalg::{ensure_u32, LinalgError, Mask, Matrix, Result};
use std::mem::size_of;
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one graph build, reported by
/// [`SpatialGraph::build_instrumented`] for the telemetry layer.
///
/// The two phases partition the pipeline: `knn` covers kd-tree
/// construction plus the bulk neighbour queries; `assembly` covers
/// symmetrization into the CSR adjacency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphBuildStats {
    /// Time spent computing the directed p-NN edge lists.
    pub knn: Duration,
    /// Time spent assembling the CSR adjacency from the edge lists.
    pub assembly: Duration,
}

/// The spatial graph of the paper: the binary similarity matrix `D`
/// as its adjacency, which also gives the degrees `w` and so the
/// Laplacian `L = W − D`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpatialGraph {
    /// Row `i`'s neighbours are `adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Neighbour indices, strictly ascending within each row.
    adjacency: Vec<u32>,
    /// Number of nearest neighbours `p` used.
    pub p: usize,
}

impl SpatialGraph {
    /// Builds the binary graph (Formula 3) from spatial coordinates
    /// `si` (`N x L`) with `p` nearest neighbours per point, using every
    /// available thread.
    ///
    /// The neighbour lists come from the kd-tree. Where distances are
    /// distinct, the graph equals Formula 3 evaluated on
    /// [`crate::kdtree::brute_force_nearest`]'s lists (the tests'
    /// oracle). A tie at the p-th distance, as on gridded or duplicated
    /// coordinates, keeps the candidate the search visits first, which
    /// depends on the tree's shape; brute force keeps the smaller index.
    pub fn build(si: &Matrix, p: usize) -> Result<SpatialGraph> {
        Self::build_instrumented(si, p, 0).map(|(g, _)| g)
    }

    /// [`build`](Self::build) with an explicit thread count (`0` =
    /// automatic; it bounds both kd-tree construction and the bulk kNN
    /// query, and every count yields the identical graph). Also returns
    /// the per-phase wall-clock breakdown ([`GraphBuildStats`]), at the
    /// cost of four monotonic-clock reads.
    ///
    /// The pipeline is (1) a bulk kNN pass answering all `N` queries in
    /// parallel chunks, then (2) a serial sort/merge assembly that
    /// symmetrizes the directed edge lists straight into the CSR
    /// adjacency — one counting pass, no hashing, no triplet
    /// intermediates.
    ///
    /// # Errors
    /// `TooLarge` when `N` or the `2·N·min(p, N − 1)` directed edge
    /// slots the assembly scatters (an upper bound on [`Self::nnz`])
    /// exceed `u32::MAX`, checked before the kNN search.
    pub fn build_instrumented(
        si: &Matrix,
        p: usize,
        threads: usize,
    ) -> Result<(SpatialGraph, GraphBuildStats)> {
        let n = si.rows();
        let knn_t0 = Instant::now();
        // Directed p-NN edge lists, flat query-major: entry `q * kk + t`
        // is the index of the t-th nearest neighbour of point q.
        let tree = KdTree::build_with_threads(si, threads);
        let kk = tree.bulk_k(p, true);
        ensure_u32("graph_build", n)?;
        ensure_u32("graph_build", n.saturating_mul(kk).saturating_mul(2))?;
        let neighbors = tree.nearest_bulk_with_threads(si, p, true, threads);
        let knn = knn_t0.elapsed();
        let assembly_t0 = Instant::now();
        let (offsets, adjacency) = assemble_symmetric(n, kk, &neighbors);
        let stats = GraphBuildStats {
            knn,
            assembly: assembly_t0.elapsed(),
        };
        Ok((
            SpatialGraph {
                offsets,
                adjacency,
                p,
            },
            stats,
        ))
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of nonzeros of `D`: each undirected edge counts twice.
    pub fn nnz(&self) -> usize {
        self.adjacency.len()
    }

    /// The neighbours of vertex `i` (the columns `j` with `d_ij = 1`),
    /// strictly ascending and never `i` itself.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Heap bytes the graph holds, from its buffers' capacities:
    /// `4·(N + 1) + 4·nnz`, since both arrays are exactly sized.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.adjacency.capacity()) * size_of::<u32>()
    }

    /// The degree `w_i = Σ_j d_ij` (Formula 4): the length of row `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> f64 {
        (self.offsets[i + 1] - self.offsets[i]) as f64
    }

    /// The spatial-regularization value `Tr(Uᵀ L U)` — the paper's
    /// `O_SR(U)` (§II-C) — in degree form, one [`Self::laplacian_row`]
    /// per row. Allocation-free; the fit loop calls it once, to score
    /// the final iterate (each update step scores its input from the
    /// `D·U` it forms anyway), through [`smfl_linalg::simd::dispatch`].
    pub fn regularization(&self, u: &Matrix) -> Result<f64> {
        if u.rows() != self.len() {
            return Err(LinalgError::DimensionMismatch {
                left: (self.len(), self.len()),
                right: u.shape(),
                op: "regularization",
            });
        }
        Ok(dispatch(Regularization { graph: self, u }))
    }

    /// Row `i`'s share of `Tr(Uᵀ L U)` in degree form,
    /// `w_i·|u_i|² − 2·Σ_{j>i, d_ij=1} u_i · u_j`, for a row-major
    /// `N x k` factor slice `u` — `D` is symmetric, so each edge is
    /// visited once; the row's neighbours ascend, so the `j > i` half
    /// starts at a binary-searched offset. Summed over all rows it is
    /// [`Self::regularization`].
    #[inline(always)]
    pub fn laplacian_row(&self, u: &[f64], k: usize, i: usize) -> f64 {
        let ui = &u[i * k..][..k];
        let nbrs = self.neighbors(i);
        let upper = nbrs.partition_point(|&j| j as usize <= i);
        // -0.0 is the additive identity: `-0.0 + x` is `x`, bit for bit.
        let mut cross = -0.0;
        for &j in &nbrs[upper..] {
            cross += dot(ui, &u[j as usize * k..][..k]);
        }
        self.degree(i) * dot(ui, ui) - 2.0 * cross
    }

    /// Number of connected components of the similarity graph
    /// (iterative DFS over the adjacency rows).
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
                for &j in self.neighbors(v) {
                    let j = j as usize;
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
}

/// Symmetrizes flat directed kNN edge lists (`kk` neighbour indices per
/// query) into the adjacency of `D`, returned as `(offsets, adjacency)`.
/// The caller has checked that `N` and the `2·N·kk` slots fit `u32`.
///
/// One counting pass sizes every row bucket exactly (kk out-edges plus
/// one in-edge per query that selected the row), a scatter pass fills
/// the buckets, and a per-row sort + adjacent dedupe collapses mutual
/// edges, compacting the rows in place; the slots the dedupe freed are
/// then released, so the adjacency holds no spare capacity.
fn assemble_symmetric(n: usize, kk: usize, neighbors: &[u32]) -> (Vec<u32>, Vec<u32>) {
    debug_assert_eq!(neighbors.len(), n * kk);
    let mut counts = vec![kk as u32; n];
    for &j in neighbors {
        counts[j as usize] += 1;
    }
    let mut start = Vec::with_capacity(n + 1);
    start.push(0u32);
    let mut acc = 0u32;
    for &c in &counts {
        acc += c;
        start.push(acc);
    }
    // The counts are spent: their buffer becomes the fill cursors.
    let mut fill = counts;
    fill.copy_from_slice(&start[..n]);
    let mut adjacency = vec![0u32; acc as usize];
    for q in 0..n {
        for &j in &neighbors[q * kk..(q + 1) * kk] {
            adjacency[fill[q] as usize] = j;
            fill[q] += 1;
            adjacency[fill[j as usize] as usize] = q as u32;
            fill[j as usize] += 1;
        }
    }
    // Rows are compacted front to back, so the write cursor never
    // passes the row being read.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut len = 0usize;
    for i in 0..n {
        let row = len;
        let span = start[i] as usize..start[i + 1] as usize;
        adjacency[span.clone()].sort_unstable();
        for r in span {
            let c = adjacency[r];
            if len == row || adjacency[len - 1] != c {
                adjacency[len] = c;
                len += 1;
            }
        }
        offsets.push(len as u32);
        debug_assert!(
            adjacency[row..len].windows(2).all(|w| w[0] < w[1]),
            "adjacency row {i} not strictly ascending"
        );
        debug_assert!(
            adjacency[row..len].binary_search(&(i as u32)).is_err(),
            "self loop at {i}"
        );
    }
    adjacency.truncate(len);
    adjacency.shrink_to_fit();
    (offsets, adjacency)
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

/// [`SpatialGraph::regularization`]'s kernel: the rows' shares of
/// `Tr(Uᵀ L U)`, summed in row order.
struct Regularization<'a> {
    graph: &'a SpatialGraph,
    u: &'a Matrix,
}

impl Kernel for Regularization<'_> {
    type Out = f64;

    #[inline(always)]
    fn run(self) -> f64 {
        let (g, u, k) = (self.graph, self.u.as_slice(), self.u.cols());
        let mut total = -0.0;
        for i in 0..g.len() {
            total += g.laplacian_row(u, k, i);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::brute_force_nearest;
    use smfl_linalg::ops::matmul;
    use smfl_linalg::random::uniform_matrix;
    use std::collections::BTreeSet;

    fn line_points(n: usize) -> Matrix {
        Matrix::from_fn(n, 2, |i, j| if j == 0 { i as f64 } else { 0.0 })
    }

    /// Formula 3 evaluated on brute-force neighbour lists with set logic
    /// of its own — row `i` is every `j` with `j ∈ NN_p(i)` or
    /// `i ∈ NN_p(j)`, ascending — so it checks the assembler against
    /// code the assembler does not share.
    fn formula_3_rows(pts: &Matrix, p: usize) -> Vec<Vec<usize>> {
        let n = pts.rows();
        let nn: Vec<BTreeSet<usize>> = (0..n)
            .map(|i| {
                brute_force_nearest(pts, pts.row(i), p, i)
                    .into_iter()
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| nn[i].contains(&j) || nn[j].contains(&i))
                    .collect()
            })
            .collect()
    }

    fn rows(g: &SpatialGraph) -> Vec<Vec<usize>> {
        (0..g.len())
            .map(|i| g.neighbors(i).iter().map(|&j| j as usize).collect())
            .collect()
    }

    /// `D` as a dense matrix, built from the adjacency.
    fn dense_similarity(g: &SpatialGraph) -> Matrix {
        let mut d = Matrix::zeros(g.len(), g.len());
        for i in 0..g.len() {
            for &j in g.neighbors(i) {
                d.set(i, j as usize, 1.0);
            }
        }
        d
    }

    /// `L = diag(w) − D`, dense, for checks against the degree form.
    fn dense_laplacian(g: &SpatialGraph) -> Matrix {
        let mut l = dense_similarity(g).scale(-1.0);
        for i in 0..g.len() {
            l.set(i, i, g.degree(i));
        }
        l
    }

    /// `Tr(Uᵀ L U)` straight from the dense `L`.
    fn dense_quadratic_form(l: &Matrix, u: &Matrix) -> f64 {
        let lu = matmul(l, u).unwrap();
        u.as_slice()
            .iter()
            .zip(lu.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }

    #[test]
    fn line_graph_with_p1() {
        // Points on a line, p = 1: each interior point links to a
        // neighbour; symmetrization makes consecutive links mutual.
        let g = SpatialGraph::build(&line_points(5), 1).unwrap();
        let d = dense_similarity(&g);
        assert_eq!(d, d.transpose());
        // Point 0's NN is 1 and vice versa: edge (0,1) mutual.
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(1, 0), 1.0);
        // No self loops.
        for i in 0..5 {
            assert_eq!(d.get(i, i), 0.0);
        }
    }

    #[test]
    fn kdtree_and_bruteforce_agree() {
        let pts = uniform_matrix(150, 2, 0.0, 1.0, 21);
        let g = SpatialGraph::build(&pts, 3).unwrap();
        assert_eq!(rows(&g), formula_3_rows(&pts, 3));
    }

    #[test]
    fn degree_is_row_sum_of_similarity() {
        let pts = uniform_matrix(40, 2, 0.0, 1.0, 3);
        let g = SpatialGraph::build(&pts, 2).unwrap();
        let d = dense_similarity(&g);
        for i in 0..g.len() {
            assert_eq!(g.degree(i), d.row(i).iter().sum::<f64>());
            assert_eq!(g.degree(i), g.neighbors(i).len() as f64);
        }
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let pts = uniform_matrix(30, 2, 0.0, 1.0, 5);
        let g = SpatialGraph::build(&pts, 3).unwrap();
        let l = dense_laplacian(&g);
        for i in 0..g.len() {
            assert_eq!(l.row(i).iter().sum::<f64>(), 0.0);
        }
    }

    #[test]
    fn laplacian_quadratic_form_nonnegative() {
        // L is PSD: Tr(Uᵀ L U) >= 0 for any U.
        let pts = uniform_matrix(25, 2, 0.0, 1.0, 7);
        let g = SpatialGraph::build(&pts, 3).unwrap();
        for seed in 0..5 {
            let u = uniform_matrix(25, 4, -2.0, 2.0, seed);
            assert!(g.regularization(&u).unwrap() >= -1e-9);
        }
    }

    #[test]
    fn regularization_zero_for_constant_rows() {
        // Identical rows of U: every edge difference is zero.
        let pts = uniform_matrix(20, 2, 0.0, 1.0, 9);
        let g = SpatialGraph::build(&pts, 3).unwrap();
        let u = Matrix::filled(20, 3, 1.5);
        assert!(g.regularization(&u).unwrap().abs() < 1e-9);
    }

    #[test]
    fn regularization_matches_pairwise_definition() {
        // O_SR = 1/2 sum_ij d_ij ||u_i - u_j||² (paper §II-C).
        let pts = uniform_matrix(15, 2, 0.0, 1.0, 11);
        let g = SpatialGraph::build(&pts, 2).unwrap();
        let u = uniform_matrix(15, 3, 0.0, 1.0, 12);
        let mut manual = 0.0;
        for i in 0..15 {
            for &j in g.neighbors(i) {
                let diff: f64 = (0..3)
                    .map(|t| {
                        let d = u.get(i, t) - u.get(j as usize, t);
                        d * d
                    })
                    .sum();
                manual += 0.5 * diff;
            }
        }
        let qf = g.regularization(&u).unwrap();
        assert!((manual - qf).abs() < 1e-9, "manual {manual} vs qf {qf}");
    }

    #[test]
    fn degree_form_matches_laplacian_quadratic_form() {
        let pts = uniform_matrix(60, 2, 0.0, 1.0, 15);
        let g = SpatialGraph::build(&pts, 4).unwrap();
        let u = uniform_matrix(60, 5, 0.0, 1.0, 16);
        let degree_form = g.regularization(&u).unwrap();
        let dense_form = dense_quadratic_form(&dense_laplacian(&g), &u);
        assert!((degree_form - dense_form).abs() <= 1e-12 * dense_form.abs().max(1.0));
        assert!(g
            .regularization(&uniform_matrix(59, 5, 0.0, 1.0, 16))
            .is_err());
    }

    #[test]
    fn nnz_bounded_by_2pn() {
        let pts = uniform_matrix(100, 2, 0.0, 1.0, 13);
        let g = SpatialGraph::build(&pts, 4).unwrap();
        assert!(g.nnz() <= 2 * 4 * 100);
        assert!(g.nnz() >= 4 * 100); // at least the out-edges
                                     // Exactly sized: the slots the dedupe freed are released.
        assert_eq!(g.heap_bytes(), 4 * (100 + 1) + 4 * g.nnz());
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
        let g = SpatialGraph::build(&Matrix::zeros(0, 2), 3).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn graph_is_invariant_across_thread_counts() {
        let pts = uniform_matrix(120, 2, 0.0, 1.0, 33);
        let build = |threads| {
            SpatialGraph::build_instrumented(&pts, 4, threads)
                .unwrap()
                .0
        };
        let serial = build(1);
        for threads in [0usize, 2, 5] {
            assert_eq!(build(threads), serial);
        }
        assert_eq!(rows(&serial), formula_3_rows(&pts, 4));
    }

    #[test]
    fn p_zero_yields_edgeless_graph() {
        let g = SpatialGraph::build(&line_points(4), 0).unwrap();
        assert_eq!(g.nnz(), 0);
        assert!((0..g.len()).all(|i| g.degree(i) == 0.0));
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
        let g = SpatialGraph::build(&pts, 1).unwrap();
        assert_eq!(g.connected_components(), 2);
        assert!(!g.is_connected());
        // A line with generous p is one component.
        let line = SpatialGraph::build(&line_points(6), 2).unwrap();
        assert_eq!(line.connected_components(), 1);
        assert!(line.is_connected());
    }

    #[test]
    fn edgeless_graph_has_n_components() {
        let g = SpatialGraph::build(&line_points(4), 0).unwrap();
        assert_eq!(g.connected_components(), 4);
        let empty = SpatialGraph::build(&Matrix::zeros(0, 2), 3).unwrap();
        assert_eq!(empty.connected_components(), 0);
        assert!(empty.is_connected());
    }
}
