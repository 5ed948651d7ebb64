//! Spatial-preprocessing benchmarks: the parallel pipeline of graph
//! construction (kd-tree build + bulk kNN + hash-free CSR assembly),
//! the kd-tree-vs-brute-force ablation (DESIGN.md #3), and the
//! Hamerly-vs-Lloyd k-means ablation.
//!
//! Besides the criterion console output, `main` sweeps
//! `N ∈ {2000, 20000, 100000}` at `p = 5`, times the full
//! `SpatialGraph` build serial (1 thread) vs parallel (`max_threads()`),
//! cross-checks that every configuration produces the **identical**
//! `(D, w)` (and, where `O(N²)` is feasible, matches the brute-force
//! oracle bitwise), times Lloyd vs Hamerly k-means on the same points,
//! and writes `BENCH_spatial.json` at the workspace root — the same
//! shape as `BENCH_update_rules.json`.

use criterion::{BenchmarkId, Criterion};
use smfl_linalg::parallel::max_threads;
use smfl_linalg::random::uniform_matrix;
use smfl_spatial::graph::{GraphWeighting, NeighborSearch, SpatialGraph};
use smfl_spatial::kmeans::{kmeans, KMeansAlgorithm, KMeansConfig};
use smfl_spatial::KdTree;
use std::time::Instant;

/// Neighbour count of the JSON sweep (ISSUE acceptance shape).
const P: usize = 5;
const SWEEP_N: [usize; 3] = [2_000, 20_000, 100_000];
/// Brute-force oracle verification is `O(N²)`; run it up to this size.
const ORACLE_MAX_N: usize = 2_000;

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_graph_build");
    for &n in &[500usize, 2000] {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, 1);
        group.bench_with_input(BenchmarkId::new("kdtree", n), &pts, |b, pts| {
            b.iter(|| SpatialGraph::build(pts, 3, NeighborSearch::KdTree).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("bruteforce", n), &pts, |b, pts| {
            b.iter(|| SpatialGraph::build(pts, 3, NeighborSearch::BruteForce).unwrap());
        });
    }
    group.finish();
}

fn bench_kdtree_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree_query");
    let pts = uniform_matrix(10_000, 2, 0.0, 1.0, 2);
    let tree = KdTree::build(&pts);
    group.bench_function("nearest_5_of_10k", |b| {
        let mut q = 0usize;
        b.iter(|| {
            q = (q + 37) % 10_000;
            tree.nearest(pts.row(q), 5, q)
        });
    });
    let kk = tree.bulk_k(5, true);
    let mut out = vec![(usize::MAX, f64::INFINITY); pts.rows() * kk];
    group.bench_function("bulk_5_of_10k_serial", |b| {
        b.iter(|| tree.nearest_bulk_into(&pts, 5, true, 1, &mut out));
    });
    group.bench_function("bulk_5_of_10k_parallel", |b| {
        b.iter(|| tree.nearest_bulk_into(&pts, 5, true, max_threads(), &mut out));
    });
    group.finish();
}

fn bench_kmeans_landmarks(c: &mut Criterion) {
    // Landmark generation cost (paper Proposition 1's O(t2·K·N·L) term —
    // shown NOT to dominate the pipeline), Lloyd vs the pruned engine.
    let mut group = c.benchmark_group("kmeans_landmarks");
    for &n in &[1000usize, 4000] {
        let si = uniform_matrix(n, 2, 0.0, 1.0, 3);
        for (label, algorithm) in [
            ("lloyd_k8", KMeansAlgorithm::Lloyd),
            ("hamerly_k8", KMeansAlgorithm::Hamerly),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &si, |b, si| {
                let cfg = KMeansConfig::new(8).with_seed(0).with_algorithm(algorithm);
                b.iter(|| kmeans(si, &cfg).unwrap());
            });
        }
    }
    group.finish();
}

/// Wall-clock timing: runs `f` until ≥`budget_s` seconds and ≥`min_iters`
/// calls have elapsed (after one warmup call); returns seconds per call.
fn time_secs(mut f: impl FnMut(), budget_s: f64, min_iters: u32) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        if iters >= min_iters && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// The kd-tree binary graph built with an explicit thread count.
fn graph_with_threads(pts: &smfl_linalg::Matrix, threads: usize) -> SpatialGraph {
    SpatialGraph::build_instrumented(
        pts,
        P,
        NeighborSearch::KdTree,
        GraphWeighting::Binary,
        threads,
    )
    .unwrap()
    .0
}

fn json_report() {
    let threads = max_threads();
    eprintln!("\nmanual timing for BENCH_spatial.json (p={P}, parallel threads={threads})");
    let mut rows = Vec::new();
    for &n in &SWEEP_N {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, 7);

        // Correctness first: serial and parallel builds must produce the
        // identical `(D, w)`; where O(N²) is affordable, both must also
        // match the brute-force oracle bitwise.
        let serial = graph_with_threads(&pts, 1);
        let parallel = graph_with_threads(&pts, threads);
        assert!(
            serial.similarity == parallel.similarity && serial.degree == parallel.degree,
            "parallel graph differs from serial at n={n}"
        );
        let oracle_checked = n <= ORACLE_MAX_N;
        if oracle_checked {
            let oracle = SpatialGraph::build(&pts, P, NeighborSearch::BruteForce).unwrap();
            assert!(
                parallel.similarity == oracle.similarity && parallel.degree == oracle.degree,
                "parallel graph differs from the brute-force oracle at n={n}"
            );
        }

        let serial_s = time_secs(
            || {
                graph_with_threads(&pts, 1);
            },
            0.3,
            2,
        );
        let parallel_s = time_secs(
            || {
                graph_with_threads(&pts, threads);
            },
            0.3,
            2,
        );
        let speedup = serial_s / parallel_s;

        // Lloyd vs Hamerly landmark k-means on the same points.
        let kmeans_cfg = KMeansConfig::new(16).with_seed(0).with_max_iter(60);
        let lloyd_cfg = kmeans_cfg.clone().with_algorithm(KMeansAlgorithm::Lloyd);
        let hamerly_cfg = kmeans_cfg.with_algorithm(KMeansAlgorithm::Hamerly);
        let reference = kmeans(&pts, &lloyd_cfg).unwrap();
        let pruned = kmeans(&pts, &hamerly_cfg).unwrap();
        assert_eq!(
            reference.labels, pruned.labels,
            "Hamerly diverged from Lloyd at n={n}"
        );
        assert_eq!(reference.iterations, pruned.iterations);
        let lloyd_s = time_secs(
            || {
                kmeans(&pts, &lloyd_cfg).unwrap();
            },
            0.3,
            2,
        );
        let hamerly_s = time_secs(
            || {
                kmeans(&pts, &hamerly_cfg).unwrap();
            },
            0.3,
            2,
        );
        let kmeans_speedup = lloyd_s / hamerly_s;

        eprintln!(
            "  n {n}: graph serial {:.2} ms, parallel {:.2} ms ({speedup:.2}x, identical \
             CSR{}), kmeans lloyd {:.2} ms vs hamerly {:.2} ms ({kmeans_speedup:.2}x)",
            serial_s * 1e3,
            parallel_s * 1e3,
            if oracle_checked { " + oracle" } else { "" },
            lloyd_s * 1e3,
            hamerly_s * 1e3,
        );
        rows.push(format!(
            "    {{\"n\": {n}, \"nnz\": {}, \
             \"graph_serial_ms\": {:.6}, \"graph_parallel_ms\": {:.6}, \
             \"graph_speedup\": {speedup:.3}, \"bitwise_identical\": true, \
             \"oracle_checked\": {oracle_checked}, \
             \"kmeans_lloyd_ms\": {:.6}, \"kmeans_hamerly_ms\": {:.6}, \
             \"kmeans_speedup\": {kmeans_speedup:.3}}}",
            parallel.similarity.nnz(),
            serial_s * 1e3,
            parallel_s * 1e3,
            lloyd_s * 1e3,
            hamerly_s * 1e3,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"spatial\",\n  \"p\": {P},\n  \"threads\": {threads},\n  \
         \"pipeline\": \"parallel kd-tree build + bulk kNN + hash-free CSR assembly vs the same pipeline on 1 thread\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spatial.json");
    std::fs::write(path, json).unwrap();
    eprintln!("wrote {path}");
}

fn main() {
    let mut c = Criterion::default();
    bench_graph_build(&mut c);
    bench_kdtree_query(&mut c);
    bench_kmeans_landmarks(&mut c);
    c.final_summary();
    json_report();
}
