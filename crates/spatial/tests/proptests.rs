//! Property-based tests for the spatial substrate: the kd-tree (serial,
//! parallel and bulk paths alike) must be indistinguishable from the
//! brute-force oracle, k-means must assign every point to its nearest
//! centre, and the similarity graph must match the paper's Formula 3/4
//! definitions at every thread count. (Hamerly ≡ Lloyd is checked in
//! `kmeans.rs`, where the Lloyd reference lives.)

use proptest::prelude::*;
use smfl_linalg::ops::matmul;
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::Matrix;
use smfl_spatial::graph::SpatialGraph;
use smfl_spatial::kdtree::{brute_force_nearest, KdTree};
use smfl_spatial::kmeans::{kmeans, KMeansConfig};
use std::collections::BTreeSet;

/// Formula 3 evaluated on brute-force neighbour lists with set logic of
/// its own — row `i` is every `j` with `j ∈ NN_p(i)` or `i ∈ NN_p(j)`,
/// ascending — so the graph's assembler is checked against code it
/// does not share.
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

/// `L = diag(w) − D` as a dense matrix, built from the adjacency.
fn dense_laplacian(g: &SpatialGraph) -> Matrix {
    let mut l = Matrix::zeros(g.len(), g.len());
    for i in 0..g.len() {
        for &j in g.neighbors(i) {
            l.set(i, j as usize, -1.0);
        }
        l.set(i, i, g.degree(i));
    }
    l
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
        let g = SpatialGraph::build(&pts, p).unwrap();
        // d_ij = 1 iff i in NN_p(j) or j in NN_p(i). Random uniform
        // coordinates make distance ties measure-zero.
        prop_assert_eq!(rows(&g), formula_3_rows(&pts, p));
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
            let oracle: Vec<u32> = brute_force_nearest(&pts, pts.row(q), kk, q)
                .into_iter()
                .map(|(j, _)| j as u32)
                .collect();
            prop_assert_eq!(&flat[q * kk..(q + 1) * kk], &oracle[..], "query {}", q);
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
        let (par, _) = SpatialGraph::build_instrumented(&pts, p, threads).unwrap();
        prop_assert_eq!(rows(&par), formula_3_rows(&pts, p));
    }

    #[test]
    fn laplacian_is_psd_and_rows_sum_zero(
        n in 4usize..40,
        p in 1usize..4,
        seed in 0u64..5000,
        useed in 0u64..5000,
    ) {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, seed);
        let g = SpatialGraph::build(&pts, p).unwrap();
        let l = dense_laplacian(&g);
        prop_assert_eq!(&l, &l.transpose());
        for i in 0..n {
            // No self loops: the diagonal is the degree alone, and the
            // degree is the row's length.
            prop_assert!(!g.neighbors(i).contains(&(i as u32)));
            prop_assert_eq!(g.degree(i), g.neighbors(i).len() as f64);
            prop_assert_eq!(l.row(i).iter().sum::<f64>(), 0.0);
        }
        let u = uniform_matrix(n, 3, -2.0, 2.0, useed);
        let reg = g.regularization(&u).unwrap();
        prop_assert!(reg >= -1e-9);
        // The degree form agrees with the explicit Laplacian.
        let lu = matmul(&l, &u).unwrap();
        let qf: f64 = u.as_slice().iter().zip(lu.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((reg - qf).abs() <= 1e-10 * qf.abs().max(1.0));
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[test]
fn graph_is_search_backend_invariant() {
    let pts = uniform_matrix(120, 2, 0.0, 1.0, 42);
    let g = SpatialGraph::build(&pts, 3).unwrap();
    assert_eq!(rows(&g), formula_3_rows(&pts, 3));
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
