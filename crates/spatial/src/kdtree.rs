//! KD-tree for k-nearest-neighbour queries.
//!
//! Building the paper's similarity matrix `D` requires the p-nearest
//! neighbours of every point (Formula 3). Brute force is `O(N²L)` — the
//! cost Proposition 1 quotes — while the kd-tree brings the practical
//! cost to `O(N log N)` for the low-dimensional (`L = 2`) spatial
//! information. The graph always uses the kd-tree; the brute-force
//! search stays as the tests' correctness reference and as the baseline
//! of the `spatial` bench's kNN ablation (DESIGN.md §5 item 3).
//!
//! Both construction and querying scale with cores through
//! [`smfl_linalg::parallel`]'s pool: [`KdTree::build`] builds the two
//! halves below the root's median split in parallel (each owns a
//! disjoint pre-sized range of the preorder node array, so the finished
//! tree is bitwise-identical for every thread count), and
//! [`KdTree::nearest_bulk_with_threads`] answers all queries in balanced
//! chunks across threads, each thread reusing its own neighbour heap
//! across queries and calls — no heap allocation once warm.

use crate::metric::sq_dist;
use smfl_linalg::parallel::{par_for_each, parallel_over_rows, threads_for};
use smfl_linalg::Matrix;
use std::cell::Cell;
use std::cmp::Ordering;

/// A static kd-tree over the rows of a points matrix.
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Point coordinates, row per point (owned copy).
    points: Matrix,
    /// Tree nodes in preorder; `usize::MAX` marks an absent child.
    nodes: Vec<Node>,
    root: usize,
}

#[derive(Debug, Clone)]
struct Node {
    point: usize,
    axis: usize,
    left: usize,
    right: usize,
}

const NONE: usize = usize::MAX;

/// Subtrees smaller than this build serially; above it, construction may
/// fork at the median split when threads remain in the budget.
const BUILD_SPAWN_MIN: usize = 1024;

/// A neighbour hit: `(row_index, squared_distance)`.
pub type Neighbor = (usize, f64);

/// Rough FLOP cost of building a tree over `n` points — drives the
/// automatic thread count.
fn build_cost(n: usize) -> usize {
    let log_n = (usize::BITS - n.leading_zeros()) as usize;
    n.saturating_mul(log_n).saturating_mul(16)
}

impl KdTree {
    /// Builds a kd-tree over the rows of `points`, choosing the thread
    /// count automatically.
    pub fn build(points: &Matrix) -> Self {
        Self::build_with_threads(points, 0)
    }

    /// [`KdTree::build`] with an explicit thread count (`0` = automatic).
    /// The resulting tree is bitwise-identical for every `threads` value.
    pub fn build_with_threads(points: &Matrix, threads: usize) -> Self {
        let n = points.rows();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut nodes = vec![
            Node {
                point: 0,
                axis: 0,
                left: NONE,
                right: NONE,
            };
            n
        ];
        let threads = if threads == 0 {
            threads_for(build_cost(n))
        } else {
            threads
        };
        if n > 0 {
            build_into(points, &mut indices, 0, &mut nodes, 0, threads);
        }
        KdTree {
            points: points.clone(),
            nodes,
            root: if n == 0 { NONE } else { 0 },
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// `true` when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest neighbours of `query`, sorted by ascending squared
    /// Euclidean distance. `exclude` removes one index from consideration
    /// (pass the query's own row index for self-exclusion, or `usize::MAX`
    /// for none).
    pub fn nearest(&self, query: &[f64], k: usize, exclude: usize) -> Vec<Neighbor> {
        let mut heap = BoundedMaxHeap::new(k);
        if self.root != NONE && k > 0 {
            self.search(self.root, query, exclude, &mut heap);
        }
        heap.into_sorted()
    }

    /// Per-query result count of a bulk query: `k` clamped to the number
    /// of candidate points (`len - 1` under self-exclusion).
    pub fn bulk_k(&self, k: usize, exclude_self: bool) -> usize {
        k.min(self.len().saturating_sub(exclude_self as usize))
    }

    /// Answers one kNN query per row of `queries`, in parallel chunks
    /// across `threads` threads (`0` = automatic).
    ///
    /// Returns a flat query-major array of point indices: entry
    /// `q * kk + t` is the index of the `t`-th-nearest hit of query `q`,
    /// where `kk =` [`KdTree::bulk_k`]`(k, exclude_self)`. With
    /// `exclude_self`, query row `q` excludes tree point `q` — the
    /// self-exclusion the similarity graph needs when querying the
    /// indexed points themselves. The indices are those of
    /// [`KdTree::nearest`] per row, for every thread count.
    ///
    /// # Panics
    /// When the tree indexes more than `u32::MAX` points.
    pub fn nearest_bulk_with_threads(
        &self,
        queries: &Matrix,
        k: usize,
        exclude_self: bool,
        threads: usize,
    ) -> Vec<u32> {
        let kk = self.bulk_k(k, exclude_self);
        let mut out = vec![0; queries.rows() * kk];
        self.nearest_bulk_into(queries, k, exclude_self, threads, &mut out);
        out
    }

    /// [`KdTree::nearest_bulk_with_threads`] into a caller-owned buffer of exactly
    /// `queries.rows() * bulk_k(k, exclude_self)` entries, so steady-state
    /// callers allocate nothing: each thread keeps its scratch heap
    /// between calls, and only a thread's first call (or a larger `k`)
    /// allocates one. `threads == 0` = automatic.
    ///
    /// # Panics
    /// When `out` has the wrong length, or the tree indexes more than
    /// `u32::MAX` points.
    pub fn nearest_bulk_into(
        &self,
        queries: &Matrix,
        k: usize,
        exclude_self: bool,
        threads: usize,
        out: &mut [u32],
    ) {
        let nq = queries.rows();
        let kk = self.bulk_k(k, exclude_self);
        assert_eq!(
            out.len(),
            nq * kk,
            "nearest_bulk_into: output buffer must hold queries x bulk_k entries"
        );
        assert!(
            u32::try_from(self.len()).is_ok(),
            "nearest_bulk_into: point indices must fit u32"
        );
        if kk == 0 {
            return;
        }
        let log_n = (usize::BITS - self.len().leading_zeros()) as usize;
        let threads = if threads == 0 {
            threads_for(
                nq.saturating_mul(kk)
                    .saturating_mul(log_n)
                    .saturating_mul(8),
            )
        } else {
            threads
        };
        parallel_over_rows(out, kk, nq, threads, |start, end, chunk| {
            let mut heap = BoundedMaxHeap::with_buffer(kk, SCRATCH.take());
            for q in start..end {
                heap.clear();
                let exclude = if exclude_self { q } else { NONE };
                self.search(self.root, queries.row(q), exclude, &mut heap);
                heap.sorted_indices_into(&mut chunk[(q - start) * kk..(q - start + 1) * kk]);
            }
            SCRATCH.set(heap.items);
        });
    }

    fn search(&self, node_idx: usize, query: &[f64], exclude: usize, heap: &mut BoundedMaxHeap) {
        let node = &self.nodes[node_idx];
        let point = self.points.row(node.point);
        if node.point != exclude {
            let d = sq_dist(point, query);
            heap.push(node.point, d);
        }
        let delta = query[node.axis] - point[node.axis];
        let (first, second) = if delta < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if first != NONE {
            self.search(first, query, exclude, heap);
        }
        // Prune: visit the far side only if the splitting plane is closer
        // than the current k-th best.
        if second != NONE && (heap.len() < heap.capacity() || delta * delta < heap.worst()) {
            self.search(second, query, exclude, heap);
        }
    }
}

/// Builds the subtree over `indices` into `nodes` (a slice of exactly
/// `indices.len()` preorder slots whose first global index is `base`).
/// With `threads > 1` and a subtree large enough, the two halves below
/// the median split build in parallel, each serially: a fork inside a
/// pool task would run inline anyway. The preorder layout depends only
/// on the data, so every thread count produces the identical node array.
fn build_into(
    points: &Matrix,
    indices: &mut [usize],
    depth: usize,
    nodes: &mut [Node],
    base: usize,
    threads: usize,
) {
    let len = indices.len();
    if len == 0 {
        return;
    }
    let dims = points.cols().max(1);
    let axis = depth % dims;
    let mid = len / 2;
    indices.select_nth_unstable_by(mid, |&a, &b| {
        points
            .get(a, axis)
            .partial_cmp(&points.get(b, axis))
            .unwrap_or(Ordering::Equal)
    });
    let point = indices[mid];
    // Split into two owned ranges around the median; the left subtree
    // owns preorder slots base+1 .. base+1+mid, the right subtree the
    // remainder — both sizes are known up front, which is what allows
    // the two recursions to run on different threads.
    let (left_part, rest) = indices.split_at_mut(mid);
    let right_part = &mut rest[1..];
    let (node_slot, rest_nodes) = nodes.split_first_mut().expect("len > 0");
    let (left_nodes, right_nodes) = rest_nodes.split_at_mut(mid);
    *node_slot = Node {
        point,
        axis,
        left: if mid > 0 { base + 1 } else { NONE },
        right: if len > mid + 1 { base + 1 + mid } else { NONE },
    };
    let halves = [
        (left_part, left_nodes, base + 1),
        (right_part, right_nodes, base + 1 + mid),
    ];
    let build_half = |(part, nodes, base): (&mut [usize], &mut [Node], usize)| {
        build_into(points, part, depth + 1, nodes, base, 1)
    };
    if threads > 1 && len >= BUILD_SPAWN_MIN {
        par_for_each(2, halves.into_iter(), build_half);
    } else {
        halves.into_iter().for_each(build_half);
    }
}

/// Fixed-capacity max-heap over `(index, sq_dist)` keeping the k smallest
/// distances seen. Reusable across queries via [`BoundedMaxHeap::clear`].
struct BoundedMaxHeap {
    cap: usize,
    items: Vec<Neighbor>,
}

thread_local! {
    /// Each thread's bulk-query heap buffer, kept between calls: the
    /// pool's workers persist, so a warm bulk query allocates nothing.
    static SCRATCH: Cell<Vec<Neighbor>> = const { Cell::new(Vec::new()) };
}

impl BoundedMaxHeap {
    fn new(cap: usize) -> Self {
        Self::with_buffer(cap, Vec::new())
    }

    /// An empty heap of capacity `cap` on `items`' buffer, grown if it
    /// is too small.
    fn with_buffer(cap: usize, mut items: Vec<Neighbor>) -> Self {
        items.clear();
        items.reserve(cap);
        BoundedMaxHeap { cap, items }
    }

    fn clear(&mut self) {
        self.items.clear();
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }

    /// Largest retained distance, or infinity when not yet full.
    fn worst(&self) -> f64 {
        if self.items.len() < self.cap {
            f64::INFINITY
        } else {
            self.items.first().map_or(f64::INFINITY, |&(_, d)| d)
        }
    }

    fn push(&mut self, idx: usize, d: f64) {
        if self.cap == 0 {
            return;
        }
        if self.items.len() < self.cap {
            self.items.push((idx, d));
            self.sift_up(self.items.len() - 1);
        } else if d < self.items[0].1 {
            self.items[0] = (idx, d);
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[i].1 > self.items[parent].1 {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.items.len() && self.items[l].1 > self.items[largest].1 {
                largest = l;
            }
            if r < self.items.len() && self.items[r].1 > self.items[largest].1 {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.items.swap(i, largest);
            i = largest;
        }
    }

    /// Sorts the retained hits in place (ascending distance, ties by
    /// index — a total order, so the unstable sort is deterministic).
    fn sort(&mut self) {
        self.items.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
    }

    fn into_sorted(mut self) -> Vec<Neighbor> {
        self.sort();
        self.items
    }

    /// Sorts the retained hits and writes their indices into `out`
    /// without allocating. The caller has checked that indices fit `u32`.
    fn sorted_indices_into(&mut self, out: &mut [u32]) {
        self.sort();
        debug_assert_eq!(out.len(), self.items.len());
        for (o, &(idx, _)) in out.iter_mut().zip(&self.items) {
            *o = idx as u32;
        }
    }
}

/// Brute-force k-nearest-neighbour oracle: same contract as
/// [`KdTree::nearest`], `O(N·L)` per query.
pub fn brute_force_nearest(
    points: &Matrix,
    query: &[f64],
    k: usize,
    exclude: usize,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = (0..points.rows())
        .filter(|&i| i != exclude)
        .map(|i| (i, sq_dist(points.row(i), query)))
        .collect();
    all.sort_unstable_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::uniform_matrix;

    fn grid_points() -> Matrix {
        // 3x3 unit grid
        Matrix::from_fn(9, 2, |i, j| {
            if j == 0 {
                (i / 3) as f64
            } else {
                (i % 3) as f64
            }
        })
    }

    #[test]
    fn nearest_on_grid() {
        let tree = KdTree::build(&grid_points());
        // Query at (0, 0): nearest is point 0 itself, then points 1 and 3.
        let hits = tree.nearest(&[0.0, 0.0], 3, usize::MAX);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[0].1, 0.0);
        let next: Vec<usize> = hits[1..].iter().map(|h| h.0).collect();
        assert!(next.contains(&1) && next.contains(&3));
    }

    #[test]
    fn exclude_self() {
        let tree = KdTree::build(&grid_points());
        let hits = tree.nearest(&[0.0, 0.0], 2, 0);
        assert!(hits.iter().all(|&(i, _)| i != 0));
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let tree = KdTree::build(&grid_points());
        assert!(tree.nearest(&[0.0, 0.0], 0, usize::MAX).is_empty());
        let empty = KdTree::build(&Matrix::zeros(0, 2));
        assert!(empty.is_empty());
        assert!(empty.nearest(&[0.0, 0.0], 3, usize::MAX).is_empty());
        assert!(empty
            .nearest_bulk_with_threads(&Matrix::zeros(0, 2), 3, true, 0)
            .is_empty());
    }

    #[test]
    fn k_larger_than_points() {
        let tree = KdTree::build(&grid_points());
        let hits = tree.nearest(&[1.0, 1.0], 100, usize::MAX);
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let pts = uniform_matrix(200, 2, 0.0, 10.0, 99);
        let tree = KdTree::build(&pts);
        for q in 0..20 {
            let query: Vec<f64> = pts.row(q * 7).to_vec();
            let kd = tree.nearest(&query, 5, q * 7);
            let bf = brute_force_nearest(&pts, &query, 5, q * 7);
            let kd_d: Vec<f64> = kd.iter().map(|h| h.1).collect();
            let bf_d: Vec<f64> = bf.iter().map(|h| h.1).collect();
            for (a, b) in kd_d.iter().zip(&bf_d) {
                assert!((a - b).abs() < 1e-12, "kd {kd:?} vs bf {bf:?}");
            }
        }
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        let tree = KdTree::build(&pts);
        let hits = tree.nearest(&[1.0, 1.0], 3, usize::MAX);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().take(3).all(|&(_, d)| d == 0.0));
    }

    #[test]
    fn higher_dimensional_points() {
        let pts = uniform_matrix(100, 5, -1.0, 1.0, 4);
        let tree = KdTree::build(&pts);
        let q = pts.row(0).to_vec();
        let kd = tree.nearest(&q, 4, 0);
        let bf = brute_force_nearest(&pts, &q, 4, 0);
        assert_eq!(kd.len(), 4);
        for (a, b) in kd.iter().zip(&bf) {
            assert!((a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn results_sorted_ascending() {
        let pts = uniform_matrix(50, 2, 0.0, 1.0, 8);
        let tree = KdTree::build(&pts);
        let hits = tree.nearest(&[0.5, 0.5], 10, usize::MAX);
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn parallel_build_is_bitwise_identical_to_serial() {
        // Above BUILD_SPAWN_MIN so the parallel path actually forks.
        let pts = uniform_matrix(3000, 2, 0.0, 1.0, 17);
        let serial = KdTree::build_with_threads(&pts, 1);
        for threads in [2usize, 3, 4] {
            let par = KdTree::build_with_threads(&pts, threads);
            assert_eq!(par.root, serial.root);
            assert_eq!(par.nodes.len(), serial.nodes.len());
            for (a, b) in par.nodes.iter().zip(&serial.nodes) {
                assert_eq!(
                    (a.point, a.axis, a.left, a.right),
                    (b.point, b.axis, b.left, b.right)
                );
            }
        }
    }

    #[test]
    fn bulk_matches_per_query_nearest() {
        let pts = uniform_matrix(150, 3, 0.0, 1.0, 23);
        let tree = KdTree::build(&pts);
        for &(k, exclude_self) in &[(1usize, true), (4, true), (4, false), (200, true)] {
            let kk = tree.bulk_k(k, exclude_self);
            for threads in [0usize, 1, 3] {
                let flat = tree.nearest_bulk_with_threads(&pts, k, exclude_self, threads);
                assert_eq!(flat.len(), 150 * kk);
                for q in 0..150 {
                    let exclude = if exclude_self { q } else { usize::MAX };
                    let reference: Vec<u32> = tree
                        .nearest(pts.row(q), kk, exclude)
                        .iter()
                        .map(|&(j, _)| j as u32)
                        .collect();
                    assert_eq!(&flat[q * kk..(q + 1) * kk], &reference[..], "query {q}");
                }
            }
        }
    }

    #[test]
    fn bulk_into_reuses_caller_buffer() {
        let pts = uniform_matrix(80, 2, 0.0, 1.0, 31);
        let tree = KdTree::build(&pts);
        let kk = tree.bulk_k(3, true);
        let mut out = vec![u32::MAX; 80 * kk];
        tree.nearest_bulk_into(&pts, 3, true, 1, &mut out);
        let fresh = tree.nearest_bulk_with_threads(&pts, 3, true, 0);
        assert_eq!(out, fresh);
    }
}
