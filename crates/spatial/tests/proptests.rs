//! Property-based tests for the spatial substrate: the kd-tree (serial,
//! parallel and bulk paths alike) must be indistinguishable from the
//! brute-force oracle, Hamerly's pruned k-means must be exactly Lloyd,
//! and the similarity graph must match the paper's Formula 3/4
//! definitions for every backend and thread count.

use proptest::prelude::*;
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::{CsrMatrix, Matrix};
use smfl_spatial::graph::{GraphWeighting, NeighborSearch, SpatialGraph};
use smfl_spatial::kdtree::{brute_force_nearest, KdTree};
use smfl_spatial::kmeans::{kmeans, KMeansAlgorithm, KMeansConfig};

/// `L = diag(w) − D` in CSR form, built from the graph's `(D, w)`.
fn laplacian(g: &SpatialGraph) -> CsrMatrix {
    let mut triplets: Vec<(usize, usize, f64)> = (0..g.len())
        .flat_map(|i| g.similarity.row_entries(i).map(move |(j, d)| (i, j, -d)))
        .collect();
    triplets.extend(g.degree.iter().enumerate().map(|(i, &w)| (i, i, w)));
    CsrMatrix::from_triplets(g.len(), g.len(), &triplets).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kdtree_matches_brute_force(
        n in 5usize..80,
        dims in 2usize..4,
        k in 1usize..6,
        seed in 0u64..5000,
    ) {
        let pts = uniform_matrix(n, dims, 0.0, 1.0, seed);
        let tree = KdTree::build(&pts);
        for q in 0..n.min(10) {
            let query = pts.row(q);
            let kd = tree.nearest(query, k, q);
            let bf = brute_force_nearest(&pts, query, k, q);
            prop_assert_eq!(kd.len(), bf.len());
            for (a, b) in kd.iter().zip(&bf) {
                prop_assert!((a.1 - b.1).abs() < 1e-12, "distance mismatch");
            }
        }
    }

    #[test]
    fn kdtree_distances_ascending_and_exclude_respected(
        n in 3usize..60,
        seed in 0u64..5000,
    ) {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, seed);
        let tree = KdTree::build(&pts);
        let hits = tree.nearest(pts.row(0), n, 0);
        prop_assert_eq!(hits.len(), n - 1);
        for w in hits.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!(hits.iter().all(|&(i, _)| i != 0));
    }

    #[test]
    fn kmeans_labels_minimize_center_distance(
        n in 8usize..60,
        k in 1usize..6,
        seed in 0u64..5000,
    ) {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, seed);
        let res = kmeans(&pts, &KMeansConfig::new(k).with_seed(seed)).unwrap();
        let kk = res.centers.rows();
        for i in 0..n {
            let assigned = dist2(pts.row(i), res.centers.row(res.labels[i]));
            for c in 0..kk {
                prop_assert!(
                    assigned <= dist2(pts.row(i), res.centers.row(c)) + 1e-9,
                    "row {i} not assigned to nearest centre"
                );
            }
        }
    }

    #[test]
    fn kmeans_inertia_matches_labels(
        n in 8usize..60,
        k in 1usize..5,
        seed in 0u64..5000,
    ) {
        let pts = uniform_matrix(n, 3, 0.0, 1.0, seed);
        let res = kmeans(&pts, &KMeansConfig::new(k).with_seed(seed)).unwrap();
        let manual: f64 = (0..n)
            .map(|i| dist2(pts.row(i), res.centers.row(res.labels[i])))
            .sum();
        prop_assert!((manual - res.inertia).abs() < 1e-9);
    }

    #[test]
    fn graph_matches_formula_3_definition(
        n in 4usize..50,
        p in 1usize..5,
        seed in 0u64..5000,
    ) {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, seed);
        let g = SpatialGraph::build(&pts, p, NeighborSearch::KdTree).unwrap();
        // d_ij = 1 iff i in NN_p(j) or j in NN_p(i) — check against the
        // brute-force neighbour lists.
        let neighbours: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                brute_force_nearest(&pts, pts.row(i), p, i)
                    .into_iter()
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        for i in 0..n {
            for j in 0..n {
                let expected = i != j
                    && (neighbours[i].contains(&j) || neighbours[j].contains(&i));
                let actual = g.similarity.get(i, j) == 1.0;
                // Ties in distance may legitimately differ between kd-tree
                // and brute force orderings only when exact ties occur;
                // random uniform coordinates make ties measure-zero.
                prop_assert_eq!(actual, expected, "edge ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn bulk_knn_matches_serial_oracle_across_thread_counts(
        n in 5usize..80,
        dims in 2usize..4,
        p in 1usize..7,
        seed in 0u64..5000,
        threads in 1usize..5,
    ) {
        let pts = uniform_matrix(n, dims, 0.0, 1.0, seed);
        let tree = KdTree::build_with_threads(&pts, threads);
        let kk = tree.bulk_k(p, true);
        let flat = tree.nearest_bulk_with_threads(&pts, p, true, threads);
        prop_assert_eq!(flat.len(), n * kk);
        for q in 0..n {
            let oracle = brute_force_nearest(&pts, pts.row(q), kk, q);
            // Bitwise: same indices, same squared distances.
            prop_assert_eq!(&flat[q * kk..(q + 1) * kk], &oracle[..], "query {}", q);
        }
    }

    #[test]
    fn hamerly_equals_lloyd_exactly(
        n in 8usize..120,
        dims in 1usize..4,
        k in 1usize..9,
        seed in 0u64..5000,
    ) {
        let pts = uniform_matrix(n, dims, -3.0, 3.0, seed);
        let lloyd = kmeans(
            &pts,
            &KMeansConfig::new(k).with_seed(seed).with_algorithm(KMeansAlgorithm::Lloyd),
        ).unwrap();
        let hamerly = kmeans(
            &pts,
            &KMeansConfig::new(k).with_seed(seed).with_algorithm(KMeansAlgorithm::Hamerly),
        ).unwrap();
        prop_assert_eq!(&lloyd.labels, &hamerly.labels);
        prop_assert_eq!(lloyd.iterations, hamerly.iterations);
        prop_assert!(lloyd.centers.approx_eq(&hamerly.centers, 0.0),
            "centres differ beyond bitwise identity");
        for c in 0..lloyd.centers.rows() {
            for d in 0..lloyd.centers.cols() {
                prop_assert!(
                    (lloyd.centers.get(c, d) - hamerly.centers.get(c, d)).abs() <= 1e-12
                );
            }
        }
    }

    #[test]
    fn graph_invariant_to_backend_and_threads(
        n in 4usize..60,
        p in 1usize..5,
        seed in 0u64..5000,
        threads in 1usize..5,
    ) {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, seed);
        let oracle = SpatialGraph::build(&pts, p, NeighborSearch::BruteForce).unwrap();
        let (par, _) = SpatialGraph::build_instrumented(
            &pts,
            p,
            NeighborSearch::KdTree,
            GraphWeighting::Binary,
            threads,
        )
        .unwrap();
        prop_assert_eq!(&par.similarity, &oracle.similarity);
        prop_assert_eq!(&par.degree, &oracle.degree);
    }

    #[test]
    fn laplacian_is_psd_and_rows_sum_zero(
        n in 4usize..40,
        p in 1usize..4,
        seed in 0u64..5000,
        useed in 0u64..5000,
    ) {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, seed);
        let g = SpatialGraph::build(&pts, p, NeighborSearch::KdTree).unwrap();
        let l = laplacian(&g);
        for s in l.row_sums() {
            prop_assert!(s.abs() < 1e-12);
        }
        prop_assert_eq!(&g.degree, &g.similarity.row_sums());
        let u = uniform_matrix(n, 3, -2.0, 2.0, useed);
        let reg = g.regularization(&u).unwrap();
        prop_assert!(reg >= -1e-9);
        // The degree form agrees with the explicit Laplacian.
        let qf = l.quadratic_form(&u).unwrap();
        prop_assert!((reg - qf).abs() <= 1e-10 * qf.abs().max(1.0));
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

#[test]
fn graph_is_search_backend_invariant() {
    let pts = uniform_matrix(120, 2, 0.0, 1.0, 42);
    let a = SpatialGraph::build(&pts, 3, NeighborSearch::KdTree).unwrap();
    let b = SpatialGraph::build(&pts, 3, NeighborSearch::BruteForce).unwrap();
    assert!(a
        .similarity
        .to_dense()
        .approx_eq(&b.similarity.to_dense(), 0.0));
}

#[test]
fn kmeans_handles_duplicate_points_without_nan() {
    let mut rows = vec![vec![0.5, 0.5]; 20];
    rows.extend(vec![vec![0.9, 0.1]; 5]);
    let pts = Matrix::from_rows(&rows).unwrap();
    let res = kmeans(&pts, &KMeansConfig::new(3).with_seed(1)).unwrap();
    assert!(res.centers.all_finite());
    assert!(res.inertia.is_finite());
}
