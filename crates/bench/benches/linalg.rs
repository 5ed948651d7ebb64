//! Substrate micro-benchmarks: the dense and masked kernels of one
//! SMFL iteration, and the thin SVD behind the baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smfl_linalg::mask::masked_product;
use smfl_linalg::ops::{matmul, matmul_at, matmul_bt};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::{thin_svd, Mask};

fn bench_matmul_orientations(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_orientations");
    // Shapes matching one SMFL iteration: N=2000, M=13, K=8.
    let (n, m, k) = (2000, 13, 8);
    let u = uniform_matrix(n, k, 0.0, 1.0, 1);
    let v = uniform_matrix(k, m, 0.0, 1.0, 2);
    let x = uniform_matrix(n, m, 0.0, 1.0, 3);
    group.bench_function("uv_nk_km", |b| {
        b.iter(|| matmul(&u, &v).unwrap());
    });
    group.bench_function("x_vt_nm_mk", |b| {
        b.iter(|| matmul_bt(&x, &v).unwrap());
    });
    group.bench_function("ut_x_kn_nm", |b| {
        b.iter(|| matmul_at(&u, &x).unwrap());
    });
    group.finish();
}

fn bench_masked_product(c: &mut Criterion) {
    let mut group = c.benchmark_group("masked_product");
    let (n, m, k) = (2000, 13, 8);
    let u = uniform_matrix(n, k, 0.0, 1.0, 1);
    let v = uniform_matrix(k, m, 0.0, 1.0, 2);
    for density_pct in [10u32, 90] {
        let mut mask = Mask::empty(n, m);
        let sel = uniform_matrix(n, m, 0.0, 100.0, 7);
        for i in 0..n {
            for j in 0..m {
                if sel.get(i, j) < density_pct as f64 {
                    mask.set(i, j, true);
                }
            }
        }
        group.bench_with_input(
            BenchmarkId::new("density", density_pct),
            &mask,
            |b, mask| {
                b.iter(|| masked_product(&u, &v, mask).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_thin_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("thin_svd");
    for &n in &[500usize, 2000] {
        let a = uniform_matrix(n, 13, -1.0, 1.0, 5);
        group.bench_with_input(BenchmarkId::new("tall_13cols", n), &a, |b, a| {
            b.iter(|| thin_svd(a).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul_orientations,
    bench_masked_product,
    bench_thin_svd
);
criterion_main!(benches);
