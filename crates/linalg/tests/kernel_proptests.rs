//! Property tests for the fused sparse-residual iteration engine.
//!
//! Every kernel in `smfl_linalg::kernels` must agree, at observed
//! entries, with a naive dense-reference evaluation built from the
//! long-standing masked operators — to 1e-10, across random shapes and
//! mask families: i.i.d. masks at densities 0.05–0.95, the empty mask,
//! the full mask, and banded (diagonal-strip) masks whose rows straddle
//! `u64` word boundaries.

use proptest::prelude::*;
use smfl_linalg::kernels::ObservedPattern;
use smfl_linalg::ops::{matmul, matmul_bt};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::{Mask, Matrix};

const TOL: f64 = 1e-10;

/// The mask families the engine must handle.
#[derive(Debug, Clone, Copy)]
enum MaskKind {
    Iid(f64),
    Empty,
    Full,
    Banded(usize),
}

/// Strategy surrogate: the vendored proptest has no `prop_oneof`, so the
/// family is picked by an integer selector plus shared parameters.
fn mask_kind() -> impl Strategy<Value = MaskKind> {
    (0usize..4, 0.05f64..0.95, 1usize..8).prop_map(|(sel, density, band)| match sel {
        0 => MaskKind::Iid(density),
        1 => MaskKind::Empty,
        2 => MaskKind::Full,
        _ => MaskKind::Banded(band),
    })
}

fn build_mask(kind: MaskKind, n: usize, m: usize, seed: u64) -> Mask {
    match kind {
        MaskKind::Empty => Mask::empty(n, m),
        MaskKind::Full => Mask::full(n, m),
        MaskKind::Iid(density) => {
            let sel = uniform_matrix(n, m, 0.0, 1.0, seed);
            let mut mask = Mask::empty(n, m);
            for i in 0..n {
                for j in 0..m {
                    if sel.get(i, j) < density {
                        mask.set(i, j, true);
                    }
                }
            }
            mask
        }
        MaskKind::Banded(w) => {
            let mut mask = Mask::empty(n, m);
            for i in 0..n {
                for j in 0..m {
                    if i.abs_diff(j) <= w {
                        mask.set(i, j, true);
                    }
                }
            }
            mask
        }
    }
}

/// Dense `R_Ω(vals)` matrix: packed slot values scattered back to shape.
fn scatter(pattern: &ObservedPattern, mask: &Mask, vals: &[f64]) -> Matrix {
    let (n, m) = (pattern.rows(), pattern.cols());
    let mut out = Matrix::zeros(n, m);
    let mut slot = 0;
    for (i, j) in mask.iter_set() {
        out.set(i, j, vals[slot]);
        slot += 1;
    }
    assert_eq!(slot, vals.len());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SDDMM at observed entries equals the dense product `U·V` there.
    #[test]
    fn sddmm_matches_dense_product(
        n in 1usize..80,
        m in 1usize..70,
        k in 1usize..6,
        kind in mask_kind(),
        seed in 0u64..10_000,
    ) {
        let x = uniform_matrix(n, m, 0.0, 1.0, seed);
        let mask = build_mask(kind, n, m, seed.wrapping_add(1));
        let u = uniform_matrix(n, k, -2.0, 2.0, seed.wrapping_add(2));
        let v = uniform_matrix(k, m, -2.0, 2.0, seed.wrapping_add(3));
        let pattern = ObservedPattern::compile(&x, &mask).unwrap();

        let vt = v.transpose();
        let mut uv = vec![0.0; pattern.nnz()];
        pattern.sddmm_into(&u, &vt, &mut uv).unwrap();

        let dense_uv = matmul(&u, &v).unwrap();
        let scattered = scatter(&pattern, &mask, &uv);
        for (i, j) in mask.iter_set() {
            prop_assert!(
                (scattered.get(i, j) - dense_uv.get(i, j)).abs() <= TOL,
                "sddmm mismatch at ({i},{j})"
            );
        }
    }

    /// `spmm(vals, Vᵀ)` equals the dense `R·Vᵀ` with `R` scattered.
    #[test]
    fn spmm_matches_dense_reference(
        n in 1usize..80,
        m in 1usize..70,
        k in 1usize..6,
        kind in mask_kind(),
        seed in 0u64..10_000,
    ) {
        let x = uniform_matrix(n, m, 0.0, 1.0, seed);
        let mask = build_mask(kind, n, m, seed.wrapping_add(1));
        let v = uniform_matrix(k, m, -2.0, 2.0, seed.wrapping_add(3));
        let pattern = ObservedPattern::compile(&x, &mask).unwrap();

        let vt = v.transpose();
        let mut out = Matrix::zeros(n, k);
        pattern.spmm_into(pattern.x_vals(), &vt, &mut out).unwrap();

        let r = scatter(&pattern, &mask, pattern.x_vals());
        let reference = matmul_bt(&r, &v).unwrap(); // R·Vᵀ
        prop_assert!(out.approx_eq(&reference, TOL), "spmm mismatch");
    }

    /// The packed residual `x − uv` and `fit_term` equal the masked
    /// Frobenius residual.
    #[test]
    fn residual_and_fit_term_match_masked_norm(
        n in 1usize..60,
        m in 1usize..50,
        k in 1usize..5,
        kind in mask_kind(),
        seed in 0u64..10_000,
    ) {
        let x = uniform_matrix(n, m, 0.0, 1.0, seed);
        let mask = build_mask(kind, n, m, seed.wrapping_add(1));
        let u = uniform_matrix(n, k, 0.0, 1.0, seed.wrapping_add(2));
        let v = uniform_matrix(k, m, 0.0, 1.0, seed.wrapping_add(3));
        let pattern = ObservedPattern::compile(&x, &mask).unwrap();

        let vt = v.transpose();
        let mut uv = vec![0.0; pattern.nnz()];
        pattern.sddmm_into(&u, &vt, &mut uv).unwrap();
        let res: Vec<f64> = pattern.x_vals().iter().zip(&uv).map(|(&x, &r)| x - r).collect();

        let dense_uv = matmul(&u, &v).unwrap();
        let mut expected_fit = 0.0;
        for (slot, (i, j)) in mask.iter_set().enumerate() {
            let expected = x.get(i, j) - dense_uv.get(i, j);
            prop_assert!((res[slot] - expected).abs() <= TOL, "residual mismatch at ({i},{j})");
            expected_fit += expected * expected;
        }
        let fit = pattern.fit_term(&uv).unwrap();
        prop_assert!(
            (fit - expected_fit).abs() <= TOL * expected_fit.max(1.0),
            "fit term mismatch: {fit} vs {expected_fit}"
        );
    }

    /// The compiled pattern is a faithful index of the mask: reading the
    /// packed slots back out of a `scatter` round-trips, and nnz matches
    /// the mask.
    #[test]
    fn pattern_indexing_round_trips(
        n in 1usize..60,
        m in 1usize..50,
        kind in mask_kind(),
        seed in 0u64..10_000,
    ) {
        let x = uniform_matrix(n, m, -3.0, 3.0, seed);
        let mask = build_mask(kind, n, m, seed.wrapping_add(1));
        let pattern = ObservedPattern::compile(&x, &mask).unwrap();

        prop_assert_eq!(pattern.nnz(), mask.count());
        let r = scatter(&pattern, &mask, pattern.x_vals());
        let mut gathered = vec![0.0; pattern.nnz()];
        for i in 0..n {
            for (j, slot) in pattern.row_entries(i) {
                gathered[slot] = r.get(i, j);
            }
        }
        prop_assert_eq!(gathered.as_slice(), pattern.x_vals());
        for (i, j) in mask.iter_set() {
            prop_assert_eq!(r.get(i, j), x.get(i, j));
        }
    }
}
