//! Spatial-preprocessing benchmarks: the parallel pipeline of graph
//! construction (kd-tree build + bulk kNN + hash-free adjacency assembly),
//! the kNN ablation of DESIGN.md §5 item 3 (the bulk kd-tree query
//! against `brute_force_nearest`, the `O(N²L)` search Proposition 1
//! quotes), and landmark k-means.
//!
//! Besides the criterion console output, `main` sweeps
//! `N ∈ {2000, 20000, 100000}` at `p = 5`, times the full
//! `SpatialGraph` build serial (1 thread) vs parallel (`max_threads()`),
//! cross-checks that both produce the **identical** adjacency, times
//! k-means on the same points and, where `O(N²)` is feasible, checks the
//! serial kd-tree kNN lists against brute force bitwise and times both,
//! and writes `BENCH_spatial.json` at the workspace root — the same
//! shape as `BENCH_update_rules.json`.

use criterion::{BenchmarkId, Criterion};
use smfl_linalg::parallel::max_threads;
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::Matrix;
use smfl_spatial::graph::SpatialGraph;
use smfl_spatial::kdtree::brute_force_nearest;
use smfl_spatial::kmeans::{kmeans, KMeansConfig};
use smfl_spatial::KdTree;
use std::time::Instant;

/// Neighbour count of the JSON sweep (ISSUE acceptance shape).
const P: usize = 5;
const SWEEP_N: [usize; 3] = [2_000, 20_000, 100_000];
/// The brute-force search is `O(N²)`; run it up to this size.
const ORACLE_MAX_N: usize = 2_000;

/// Every point's `p` nearest neighbours (itself excluded) from the
/// kd-tree, serially: tree build plus one bulk query, flat query-major.
fn knn_kdtree(pts: &Matrix, p: usize) -> Vec<u32> {
    KdTree::build_with_threads(pts, 1).nearest_bulk_with_threads(pts, p, true, 1)
}

/// The same lists by brute force, one `O(N·L)` scan per point.
fn knn_brute_force(pts: &Matrix, p: usize) -> Vec<u32> {
    (0..pts.rows())
        .flat_map(|i| brute_force_nearest(pts, pts.row(i), p, i))
        .map(|(j, _)| j as u32)
        .collect()
}

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_graph_build");
    for &n in &[500usize, 2000] {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, 1);
        group.bench_with_input(BenchmarkId::new("kdtree", n), &pts, |b, pts| {
            b.iter(|| SpatialGraph::build(pts, 3).unwrap());
        });
    }
    group.finish();
}

fn bench_knn_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_ablation");
    for &n in &[500usize, 2000] {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, 1);
        group.bench_with_input(BenchmarkId::new("kdtree_bulk", n), &pts, |b, pts| {
            b.iter(|| knn_kdtree(pts, 3));
        });
        group.bench_with_input(BenchmarkId::new("bruteforce", n), &pts, |b, pts| {
            b.iter(|| knn_brute_force(pts, 3));
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
    let mut out = vec![u32::MAX; pts.rows() * kk];
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
    // shown NOT to dominate the pipeline).
    let mut group = c.benchmark_group("kmeans_landmarks");
    for &n in &[1000usize, 4000] {
        let si = uniform_matrix(n, 2, 0.0, 1.0, 3);
        group.bench_with_input(BenchmarkId::new("k8", n), &si, |b, si| {
            let cfg = KMeansConfig::new(8).with_seed(0);
            b.iter(|| kmeans(si, &cfg).unwrap());
        });
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
fn graph_with_threads(pts: &Matrix, threads: usize) -> SpatialGraph {
    SpatialGraph::build_instrumented(pts, P, threads).unwrap().0
}

fn json_report() {
    let threads = max_threads();
    eprintln!("\nmanual timing for BENCH_spatial.json (p={P}, parallel threads={threads})");
    let mut rows = Vec::new();
    for &n in &SWEEP_N {
        let pts = uniform_matrix(n, 2, 0.0, 1.0, 7);

        // Correctness first: serial and parallel builds must produce the
        // identical adjacency.
        let serial = graph_with_threads(&pts, 1);
        let parallel = graph_with_threads(&pts, threads);
        assert!(
            serial == parallel,
            "parallel graph differs from serial at n={n}"
        );

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

        let kmeans_cfg = KMeansConfig::new(16).with_seed(0).with_max_iter(60);
        let kmeans_s = time_secs(
            || {
                kmeans(&pts, &kmeans_cfg).unwrap();
            },
            0.3,
            2,
        );

        // The kNN ablation, where O(N²) is affordable: the serial kd-tree
        // lists must equal brute force bitwise (indices and distances).
        let oracle_checked = n <= ORACLE_MAX_N;
        let (knn_kdtree_ms, knn_brute_force_ms) = if oracle_checked {
            assert!(
                knn_kdtree(&pts, P) == knn_brute_force(&pts, P),
                "kd-tree kNN lists differ from brute force at n={n}"
            );
            let kd = time_secs(|| drop(knn_kdtree(&pts, P)), 0.3, 2);
            let bf = time_secs(|| drop(knn_brute_force(&pts, P)), 0.3, 2);
            (format!("{:.6}", kd * 1e3), format!("{:.6}", bf * 1e3))
        } else {
            ("null".to_string(), "null".to_string())
        };

        eprintln!(
            "  n {n}: graph serial {:.2} ms, parallel {:.2} ms ({speedup:.2}x, identical \
             adjacency), kmeans {:.2} ms, kNN kd-tree {knn_kdtree_ms} ms vs brute force \
             {knn_brute_force_ms} ms",
            serial_s * 1e3,
            parallel_s * 1e3,
            kmeans_s * 1e3,
        );
        rows.push(format!(
            "    {{\"n\": {n}, \"nnz\": {}, \
             \"graph_serial_ms\": {:.6}, \"graph_parallel_ms\": {:.6}, \
             \"graph_speedup\": {speedup:.3}, \"bitwise_identical\": true, \
             \"kmeans_ms\": {:.6}, \"oracle_checked\": {oracle_checked}, \
             \"knn_kdtree_ms\": {knn_kdtree_ms}, \"knn_bruteforce_ms\": {knn_brute_force_ms}}}",
            parallel.nnz(),
            serial_s * 1e3,
            parallel_s * 1e3,
            kmeans_s * 1e3,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"spatial\",\n  \"p\": {P},\n  \"threads\": {threads},\n  \
         \"pipeline\": \"parallel kd-tree build + bulk kNN + hash-free adjacency assembly vs the same pipeline on 1 thread\",\n  \
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
    bench_knn_ablation(&mut c);
    bench_kdtree_query(&mut c);
    bench_kmeans_landmarks(&mut c);
    c.final_summary();
    json_report();
}
