//! K-means clustering with k-means++ seeding.
//!
//! The landmarks of SMFL are *the centres of the K clusters of the
//! spatial information `SI`* (paper §III-A, Definition 1 context): the
//! paper sets the K-means cluster count `K'` equal to the factorization
//! rank `K`, so each learned feature row of `V` is anchored at one
//! cluster centre. The default iteration cap is `t₂ = 300` with early
//! stop, exactly as the paper's Proposition 1 discussion states.
//!
//! The iteration is Hamerly's triangle-inequality pruned Lloyd, which
//! skips the per-centre scan for points whose bounds prove their
//! assignment cannot change. It runs the assignment step in parallel
//! row stripes ([`smfl_linalg::parallel`]) and allocates nothing per
//! iteration. Textbook Lloyd stays in this module's tests as the
//! reference: the two produce bitwise-identical centres, labels and
//! iteration counts for a fixed seed, and Hamerly is the faster of the
//! two on the paper's 2-D spatial information (DESIGN.md §9).

// Index-based loops mirror the textbook Lloyd/k-means++ formulas.
#![allow(clippy::needless_range_loop)]

use crate::metric::sq_dist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smfl_linalg::parallel::{parallel_over_rows, threads_for};
use smfl_linalg::{LinalgError, Matrix, Result};

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters `K` (equals the NMF rank in SMFL).
    pub k: usize,
    /// Maximum iterations; the paper's default `t₂` is 300.
    pub max_iter: usize,
    /// Early-stop threshold on total centre movement.
    pub tol: f64,
    /// RNG seed for the k-means++ seeding.
    pub seed: u64,
    /// Seeding strategy.
    pub init: KMeansInit,
    /// Threads for the assignment step (`0` = automatic). Results are
    /// identical for every value.
    pub threads: usize,
}

/// Seeding strategy for k-means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansInit {
    /// k-means++ (default): spread seeds proportionally to squared
    /// distance from already chosen seeds.
    PlusPlus,
    /// Uniform random choice of distinct data points (ablation #5 of
    /// DESIGN.md — landmark quality under naive seeding).
    Random,
}

impl KMeansConfig {
    /// Paper defaults for a given `k`: 300 iterations, `tol = 1e-9`,
    /// k-means++ seeding.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iter: 300,
            tol: 1e-9,
            seed: 0,
            init: KMeansInit::PlusPlus,
            threads: 0,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the seeding strategy.
    pub fn with_init(mut self, init: KMeansInit) -> Self {
        self.init = init;
        self
    }

    /// Overrides the iteration cap.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Overrides the assignment thread count (`0` = automatic).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centres, one row per cluster (`k x dims`) — the landmark
    /// matrix `C` of the paper.
    pub centers: Matrix,
    /// Cluster assignment per input row.
    pub labels: Vec<usize>,
    /// Sum of squared distances of points to their assigned centre.
    pub inertia: f64,
    /// Iterations actually performed.
    pub iterations: usize,
}

/// Runs k-means on the rows of `points`.
///
/// # Errors
/// [`LinalgError::Empty`] when `points` has no rows or `k == 0`;
/// `k` larger than the number of points is clamped to it.
pub fn kmeans(points: &Matrix, config: &KMeansConfig) -> Result<KMeansResult> {
    kmeans_with(points, config, run_hamerly)
}

/// Seeding, `iterate` (centres refined in place, iteration count
/// returned), then the final assignment: [`kmeans`] with the iteration
/// loop passed in, so the tests run their Lloyd reference through the
/// same seeding and final assignment.
fn kmeans_with(
    points: &Matrix,
    config: &KMeansConfig,
    iterate: fn(&Matrix, &mut Matrix, &KMeansConfig, usize) -> usize,
) -> Result<KMeansResult> {
    let n = points.rows();
    if n == 0 || config.k == 0 {
        return Err(LinalgError::Empty);
    }
    let k = config.k.min(n);
    let dims = points.cols();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut centers = match config.init {
        KMeansInit::PlusPlus => plus_plus_seeds(points, k, &mut rng),
        KMeansInit::Random => random_seeds(points, k, &mut rng),
    };

    let threads = if config.threads == 0 {
        threads_for(assignment_cost(n, k, dims))
    } else {
        config.threads
    };
    let iterations = iterate(points, &mut centers, config, threads);

    // Final assignment and inertia with the converged centres.
    let mut labels = vec![0usize; n];
    let mut inertia = 0.0;
    for (i, label) in labels.iter_mut().enumerate() {
        *label = nearest_center(points.row(i), &centers);
        inertia += sq_dist(points.row(i), centers.row(*label));
    }
    Ok(KMeansResult {
        centers,
        labels,
        inertia,
        iterations,
    })
}

/// Rough FLOP cost of one assignment sweep, for the thread heuristic.
fn assignment_cost(n: usize, k: usize, dims: usize) -> usize {
    n.saturating_mul(k)
        .saturating_mul(dims.max(1))
        .saturating_mul(3)
}

/// Per-iteration scratch for the update step — allocated once per run so
/// the iteration loop itself is allocation-free.
struct UpdateScratch {
    /// Per-cluster coordinate sums (`k x dims`).
    sums: Matrix,
    /// Per-cluster member counts.
    counts: Vec<usize>,
    /// Staging buffer for one recomputed centre.
    new_center: Vec<f64>,
    /// Staging buffer for a reseeded centre's point row.
    row: Vec<f64>,
    /// Per-centre moved distance (Euclidean, not squared) — feeds the
    /// Hamerly bound updates.
    deltas: Vec<f64>,
}

impl UpdateScratch {
    fn new(k: usize, dims: usize) -> Self {
        UpdateScratch {
            sums: Matrix::zeros(k, dims),
            counts: vec![0; k],
            new_center: vec![0.0; dims],
            row: vec![0.0; dims],
            deltas: vec![0.0; k],
        }
    }
}

/// The shared centre-update step: recomputes every centre as the mean of
/// its members, records per-centre moved distances in `scratch.deltas`,
/// and returns the summed squared movement for the stopping test.
///
/// Empty clusters are re-seeded with a deterministic
/// **split-largest-cluster** strategy: the point of the most populous
/// cluster lying farthest from that cluster's centre is stolen (its
/// label and the member counts are updated), so several simultaneously
/// empty clusters land on *distinct* points instead of collapsing onto
/// one shared re-seed. All tie-breaks are first-maximum and every
/// comparison treats NaN distances as "not greater", so the re-seed is
/// deterministic even on non-finite coordinates and never fabricates a
/// centroid that is not a data point.
///
/// Hamerly and the tests' Lloyd reference call this with identical
/// label vectors, and every floating-point accumulation happens in the
/// same order in both, so the two stay bitwise in lockstep (the Hamerly
/// states may keep a stale label for a stolen point; its distance
/// bounds stay valid, so the next assignment pass still reproduces
/// Lloyd exactly).
fn update_centers(
    points: &Matrix,
    labels: &mut [usize],
    centers: &mut Matrix,
    scratch: &mut UpdateScratch,
) -> f64 {
    let k = centers.rows();
    scratch.sums.as_mut_slice().fill(0.0);
    scratch.counts.fill(0);
    for (i, &label) in labels.iter().enumerate() {
        scratch.counts[label] += 1;
        let row = points.row(i);
        let srow = scratch.sums.row_mut(label);
        for (d, &v) in row.iter().enumerate() {
            srow[d] += v;
        }
    }
    let mut movement = 0.0;
    for c in 0..k {
        let moved_sq = if scratch.counts[c] == 0 {
            // Split the currently largest cluster (first max wins).
            let donor = argmax_first(&scratch.counts);
            let far = farthest_member(points, centers, labels, donor);
            labels[far] = c;
            scratch.counts[donor] -= 1;
            scratch.counts[c] = 1;
            scratch.row.copy_from_slice(points.row(far));
            let moved = sq_dist(centers.row(c), &scratch.row);
            centers.row_mut(c).copy_from_slice(&scratch.row);
            moved
        } else {
            let inv = 1.0 / scratch.counts[c] as f64;
            for (d, nc) in scratch.new_center.iter_mut().enumerate() {
                *nc = scratch.sums.get(c, d) * inv;
            }
            let moved = sq_dist(centers.row(c), &scratch.new_center);
            centers.row_mut(c).copy_from_slice(&scratch.new_center);
            moved
        };
        movement += moved_sq;
        scratch.deltas[c] = moved_sq.sqrt();
    }
    movement
}

/// Per-point state of the Hamerly iteration.
#[derive(Clone, Copy)]
struct PointState {
    /// Currently assigned centre.
    label: usize,
    /// Upper bound on the distance to the assigned centre.
    upper: f64,
    /// Lower bound on the distance to every *other* centre.
    lower: f64,
}

/// Hamerly's pruned iteration; returns the iteration count.
///
/// Pruning uses **strict** inequalities throughout: `upper < bound`
/// implies the assigned centre is the *unique strict* nearest, which is
/// exactly what [`nearest_center`]'s first-strict-minimum rule would
/// pick, so pruned points provably keep the Lloyd assignment. Any tie
/// falls through to a full scan that replays Lloyd's loop order
/// verbatim. Combined with the shared [`update_centers`], the whole run
/// is bitwise-identical to textbook Lloyd (the tests' `run_lloyd`).
fn run_hamerly(
    points: &Matrix,
    centers: &mut Matrix,
    config: &KMeansConfig,
    threads: usize,
) -> usize {
    let n = points.rows();
    let k = centers.rows();
    let dims = points.cols();
    let mut states = vec![
        PointState {
            label: 0,
            upper: 0.0,
            lower: 0.0,
        };
        n
    ];
    let mut labels = vec![0usize; n];
    let mut scratch = UpdateScratch::new(k, dims);
    // Half the distance from each centre to its nearest other centre:
    // upper < s_half[label] proves the assignment unchanged.
    let mut s_half = vec![0.0f64; k];
    let mut iterations = 0;
    for it in 0..config.max_iter.max(1) {
        iterations = it + 1;
        let force_full = it == 0;
        if !force_full {
            for c in 0..k {
                let mut best = f64::INFINITY;
                for o in 0..k {
                    if o != c {
                        best = best.min(sq_dist(centers.row(c), centers.row(o)));
                    }
                }
                s_half[c] = 0.5 * best.sqrt();
            }
        }
        let centers_ref: &Matrix = centers;
        let s_half_ref: &[f64] = &s_half;
        parallel_over_rows(&mut states, 1, n, threads, |start, _end, chunk| {
            for (off, st) in chunk.iter_mut().enumerate() {
                let row = points.row(start + off);
                if !force_full {
                    let bound = s_half_ref[st.label].max(st.lower);
                    if st.upper < bound {
                        continue;
                    }
                    // Tighten the upper bound to the exact distance and
                    // retest before paying for the full scan.
                    st.upper = sq_dist(row, centers_ref.row(st.label)).sqrt();
                    if st.upper < bound {
                        continue;
                    }
                }
                // Full scan, replaying nearest_center's loop order and
                // strict-< first-minimum rule while also tracking the
                // second-best distance for the lower bound.
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                let mut second_d = f64::INFINITY;
                for c in 0..centers_ref.rows() {
                    let d = sq_dist(row, centers_ref.row(c));
                    if d < best_d {
                        second_d = best_d;
                        best_d = d;
                        best = c;
                    } else if d < second_d {
                        second_d = d;
                    }
                }
                st.label = best;
                st.upper = best_d.sqrt();
                st.lower = second_d.sqrt();
            }
        });
        for (label, st) in labels.iter_mut().zip(&states) {
            *label = st.label;
        }
        let movement = update_centers(points, &mut labels, centers, &mut scratch);
        // Shift the bounds by how far the centres moved (triangle
        // inequality): the assigned centre's own move loosens the upper
        // bound, the largest *other* move tightens the lower bound.
        let (mut max_delta, mut max_c, mut second_delta) = (0.0f64, usize::MAX, 0.0f64);
        for (c, &d) in scratch.deltas.iter().enumerate() {
            if d > max_delta {
                second_delta = max_delta;
                max_delta = d;
                max_c = c;
            } else if d > second_delta {
                second_delta = d;
            }
        }
        for st in states.iter_mut() {
            st.upper += scratch.deltas[st.label];
            st.lower -= if st.label == max_c {
                second_delta
            } else {
                max_delta
            };
        }
        if movement.sqrt() <= config.tol {
            break;
        }
    }
    iterations
}

fn nearest_center(point: &[f64], centers: &Matrix) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for c in 0..centers.rows() {
        let d = sq_dist(point, centers.row(c));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Index of the first maximum of `counts`.
fn argmax_first(counts: &[usize]) -> usize {
    let mut best = 0;
    let mut best_c = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > best_c {
            best_c = c;
            best = i;
        }
    }
    best
}

/// The member of cluster `donor` farthest from that cluster's current
/// centre. NaN distances never win, and the first member is the fallback
/// when every distance is NaN, so a valid member index is always
/// returned as long as `donor` is non-empty (first point overall if it
/// somehow is — never an out-of-bounds index).
fn farthest_member(points: &Matrix, centers: &Matrix, labels: &[usize], donor: usize) -> usize {
    let mut best = usize::MAX;
    let mut best_d = f64::NEG_INFINITY;
    for i in 0..points.rows() {
        if labels[i] != donor {
            continue;
        }
        if best == usize::MAX {
            best = i;
        }
        let d = sq_dist(points.row(i), centers.row(donor));
        if d > best_d {
            best_d = d;
            best = i;
        }
    }
    if best == usize::MAX {
        0
    } else {
        best
    }
}

fn random_seeds(points: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = points.rows();
    // Partial Fisher-Yates over indices for k distinct seeds.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let mut centers = Matrix::zeros(k, points.cols());
    for (c, &i) in idx.iter().take(k).enumerate() {
        centers.row_mut(c).copy_from_slice(points.row(i));
    }
    centers
}

fn plus_plus_seeds(points: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = points.rows();
    let mut centers = Matrix::zeros(k, points.cols());
    let first = rng.gen_range(0..n);
    centers.row_mut(0).copy_from_slice(points.row(first));
    let mut min_d: Vec<f64> = (0..n)
        .map(|i| sq_dist(points.row(i), centers.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = min_d.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d) in min_d.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centers.row_mut(c).copy_from_slice(points.row(chosen));
        for i in 0..n {
            let d = sq_dist(points.row(i), centers.row(c));
            if d < min_d[i] {
                min_d[i] = d;
            }
        }
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smfl_linalg::random::{normal_matrix, uniform_matrix};

    /// Textbook Lloyd iteration, the reference Hamerly must reproduce
    /// bitwise; returns the iteration count.
    fn run_lloyd(
        points: &Matrix,
        centers: &mut Matrix,
        config: &KMeansConfig,
        threads: usize,
    ) -> usize {
        let n = points.rows();
        let k = centers.rows();
        let mut labels = vec![0usize; n];
        let mut scratch = UpdateScratch::new(k, points.cols());
        let mut iterations = 0;
        for it in 0..config.max_iter.max(1) {
            iterations = it + 1;
            // Assignment step: embarrassingly parallel and deterministic —
            // each label depends only on its own point and the centres.
            let centers_ref: &Matrix = centers;
            parallel_over_rows(&mut labels, 1, n, threads, |start, _end, chunk| {
                for (off, label) in chunk.iter_mut().enumerate() {
                    *label = nearest_center(points.row(start + off), centers_ref);
                }
            });
            let movement = update_centers(points, &mut labels, centers, &mut scratch);
            if movement.sqrt() <= config.tol {
                break;
            }
        }
        iterations
    }

    fn lloyd(points: &Matrix, config: &KMeansConfig) -> KMeansResult {
        kmeans_with(points, config, run_lloyd).unwrap()
    }

    /// Three well-separated blobs of 30 points each.
    fn blobs() -> (Matrix, Vec<usize>) {
        let centers = [[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            let noise = normal_matrix(30, 2, 0.0, 0.5, c as u64 + 1);
            for i in 0..30 {
                rows.push(vec![
                    center[0] + noise.get(i, 0),
                    center[1] + noise.get(i, 1),
                ]);
                truth.push(c);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (pts, truth) = blobs();
        let res = kmeans(&pts, &KMeansConfig::new(3).with_seed(1)).unwrap();
        // All points of a true blob must share a predicted label.
        for blob in 0..3 {
            let labels: Vec<usize> = truth
                .iter()
                .zip(&res.labels)
                .filter(|(&t, _)| t == blob)
                .map(|(_, &p)| p)
                .collect();
            assert!(labels.windows(2).all(|w| w[0] == w[1]), "blob {blob} split");
        }
    }

    #[test]
    fn centers_land_near_blob_means() {
        let (pts, _) = blobs();
        let res = kmeans(&pts, &KMeansConfig::new(3).with_seed(2)).unwrap();
        for target in [[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]] {
            let nearest = (0..3)
                .map(|c| sq_dist(res.centers.row(c), &target))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 1.0, "no centre near {target:?}");
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (pts, _) = blobs();
        let i1 = kmeans(&pts, &KMeansConfig::new(1).with_seed(3))
            .unwrap()
            .inertia;
        let i3 = kmeans(&pts, &KMeansConfig::new(3).with_seed(3))
            .unwrap()
            .inertia;
        let i9 = kmeans(&pts, &KMeansConfig::new(9).with_seed(3))
            .unwrap()
            .inertia;
        assert!(i3 < i1);
        assert!(i9 <= i3 + 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (pts, _) = blobs();
        let a = kmeans(&pts, &KMeansConfig::new(3).with_seed(7)).unwrap();
        let b = kmeans(&pts, &KMeansConfig::new(3).with_seed(7)).unwrap();
        assert_eq!(a.labels, b.labels);
        assert!(a.centers.approx_eq(&b.centers, 0.0));
    }

    #[test]
    fn hamerly_is_bitwise_identical_to_lloyd() {
        let pts = uniform_matrix(400, 3, -5.0, 5.0, 42);
        for k in [1usize, 2, 7, 16] {
            for seed in [0u64, 9, 77] {
                let config = KMeansConfig::new(k).with_seed(seed);
                let lloyd = lloyd(&pts, &config);
                let hamerly = kmeans(&pts, &config).unwrap();
                assert_eq!(lloyd.labels, hamerly.labels, "k={k} seed={seed}");
                assert_eq!(lloyd.iterations, hamerly.iterations, "k={k} seed={seed}");
                assert!(
                    lloyd.centers.approx_eq(&hamerly.centers, 0.0),
                    "k={k} seed={seed}"
                );
                assert_eq!(lloyd.inertia, hamerly.inertia, "k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let pts = uniform_matrix(300, 2, 0.0, 1.0, 6);
        let serial = kmeans(&pts, &KMeansConfig::new(5).with_seed(4).with_threads(1)).unwrap();
        for threads in [2usize, 3, 8] {
            let par = kmeans(
                &pts,
                &KMeansConfig::new(5).with_seed(4).with_threads(threads),
            )
            .unwrap();
            assert_eq!(par.labels, serial.labels);
            assert!(par.centers.approx_eq(&serial.centers, 0.0));
            assert_eq!(par.iterations, serial.iterations);
        }
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let res = kmeans(&pts, &KMeansConfig::new(5)).unwrap();
        assert_eq!(res.centers.rows(), 2);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(kmeans(&Matrix::zeros(0, 2), &KMeansConfig::new(3)).is_err());
        let pts = Matrix::zeros(3, 2);
        assert!(kmeans(&pts, &KMeansConfig::new(0)).is_err());
    }

    #[test]
    fn identical_points_converge() {
        let pts = Matrix::filled(10, 2, 4.0);
        let res = kmeans(&pts, &KMeansConfig::new(2).with_seed(1)).unwrap();
        assert!(res.inertia < 1e-18);
        assert!(res.iterations <= 300);
    }

    #[test]
    fn random_init_also_converges() {
        let (pts, _) = blobs();
        let res = kmeans(
            &pts,
            &KMeansConfig::new(3)
                .with_seed(5)
                .with_init(KMeansInit::Random),
        )
        .unwrap();
        // Random seeding may collapse two blobs into one cluster, so only
        // require improvement over the single-cluster solution; the
        // k-means++ quality gap is exactly the DESIGN.md ablation #5.
        let single = kmeans(&pts, &KMeansConfig::new(1).with_seed(5)).unwrap();
        assert!(res.inertia < single.inertia);
        assert!(res.inertia.is_finite());
    }

    #[test]
    fn labels_index_valid_centers() {
        let (pts, _) = blobs();
        let res = kmeans(&pts, &KMeansConfig::new(4).with_seed(9)).unwrap();
        assert!(res.labels.iter().all(|&l| l < 4));
        assert_eq!(res.labels.len(), pts.rows());
    }

    #[test]
    fn single_iteration_cap_respected() {
        let (pts, _) = blobs();
        let res = kmeans(&pts, &KMeansConfig::new(3).with_seed(1).with_max_iter(1)).unwrap();
        assert_eq!(res.iterations, 1);
    }

    /// A dataset engineered to force several simultaneously empty
    /// clusters: one tight mass plus two outliers, k = 5. Every centre
    /// must land on a real data point or mean — never a zero centroid —
    /// and the re-seeded centres must be distinct where the data allows.
    #[test]
    fn empty_clusters_reseed_on_distinct_points() {
        let mut rows = vec![vec![5.0, 5.0]; 20];
        rows.push(vec![100.0, 100.0]);
        rows.push(vec![-100.0, 100.0]);
        let pts = Matrix::from_rows(&rows).unwrap();
        let config = KMeansConfig::new(5).with_seed(0);
        for res in [lloyd(&pts, &config), kmeans(&pts, &config).unwrap()] {
            assert!(res.centers.all_finite());
            // No fabricated centroid: every centre is inside the data's
            // bounding box (a zero centroid would sit at the origin,
            // outside no box here, so check membership-ish instead:
            // each centre must be within the convex hull bounds).
            assert!(res.centers.min().unwrap() >= -100.0);
            assert!(res.centers.max().unwrap() <= 100.0);
            // The two outliers are each other's only competition: with 5
            // centres available they must be separated from the mass.
            let out1 = res.labels[20];
            let out2 = res.labels[21];
            assert_ne!(out1, res.labels[0], "outlier 1 merged into the mass");
            assert_ne!(out2, res.labels[0], "outlier 2 merged into the mass");
            assert_ne!(
                out1, out2,
                "outliers share a centre despite spare centroids"
            );
        }
    }

    #[test]
    fn reseeding_keeps_engines_bitwise_identical() {
        // Duplicate-heavy data triggers empty clusters; the reseed path
        // is shared, so Lloyd and Hamerly must stay in lockstep.
        let mut rows = vec![vec![1.0, 1.0]; 30];
        for i in 0..6 {
            rows.push(vec![i as f64 * 3.0, -2.0]);
        }
        let pts = Matrix::from_rows(&rows).unwrap();
        for k in [4usize, 8, 12] {
            for seed in [0u64, 5] {
                let config = KMeansConfig::new(k).with_seed(seed);
                let lloyd = lloyd(&pts, &config);
                let hamerly = kmeans(&pts, &config).unwrap();
                assert_eq!(lloyd.labels, hamerly.labels, "k={k} seed={seed}");
                assert_eq!(lloyd.iterations, hamerly.iterations, "k={k} seed={seed}");
                assert!(
                    lloyd.centers.approx_eq(&hamerly.centers, 0.0),
                    "k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn non_finite_points_never_panic() {
        // NaN/Inf coordinates must not panic or loop forever; the result
        // is garbage-in-garbage-out but structurally valid.
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 1.0]).collect();
        rows[3] = vec![f64::NAN, f64::NAN];
        rows[7] = vec![f64::INFINITY, 0.0];
        let pts = Matrix::from_rows(&rows).unwrap();
        let config = KMeansConfig::new(3).with_seed(2).with_max_iter(50);
        for res in [lloyd(&pts, &config), kmeans(&pts, &config).unwrap()] {
            assert_eq!(res.labels.len(), 10);
            assert!(res.labels.iter().all(|&l| l < 3));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn hamerly_equals_lloyd_exactly(
            n in 8usize..120,
            dims in 1usize..4,
            k in 1usize..9,
            seed in 0u64..5000,
        ) {
            let pts = uniform_matrix(n, dims, -3.0, 3.0, seed);
            let config = KMeansConfig::new(k).with_seed(seed);
            let lloyd = lloyd(&pts, &config);
            let hamerly = kmeans(&pts, &config).unwrap();
            prop_assert_eq!(&lloyd.labels, &hamerly.labels);
            prop_assert_eq!(lloyd.iterations, hamerly.iterations);
            prop_assert!(lloyd.centers.approx_eq(&hamerly.centers, 0.0),
                "centres differ beyond bitwise identity");
        }
    }
}
