//! Property-based tests for the linear-algebra substrate.
//!
//! These pin down the algebraic identities the SMFL updater relies on:
//! associativity-free product orientations agreeing with explicit
//! transposes, mask algebra partitioning cells exactly, SVD
//! reconstruction.

use proptest::prelude::*;
use smfl_linalg::mask::{masked_diff_norm_sq, masked_product};
use smfl_linalg::ops::{matmul, matmul_at, matmul_bt};
use smfl_linalg::{thin_svd, Mask, Matrix};

/// Strategy: a rows x cols matrix with entries in [-5, 5].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: shapes for chained products (n x k) * (k x m).
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..8, 1usize..8, 1usize..8)
}

fn mask_for(rows: usize, cols: usize) -> impl Strategy<Value = Mask> {
    proptest::collection::vec(proptest::bool::ANY, rows * cols).prop_map(move |bits| {
        let mut m = Mask::empty(rows, cols);
        for (idx, b) in bits.into_iter().enumerate() {
            if b {
                m.set(idx / cols, idx % cols, true);
            }
        }
        m
    })
}

proptest! {
    #[test]
    fn transpose_is_involution((n, m, _) in dims(), seed in 0u64..1000) {
        let a = smfl_linalg::random::uniform_matrix(n, m, -1.0, 1.0, seed);
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn product_orientations_agree((n, k, m) in dims(), s1 in 0u64..500, s2 in 0u64..500) {
        let a = smfl_linalg::random::uniform_matrix(n, k, -2.0, 2.0, s1);
        let b = smfl_linalg::random::uniform_matrix(k, m, -2.0, 2.0, s2);
        let ab = matmul(&a, &b).unwrap();
        // A·Bᵀ path
        let bt = matmul_bt(&a, &b.transpose()).unwrap();
        prop_assert!(bt.approx_eq(&ab, 1e-10));
        // Aᵀ·B path
        let at = matmul_at(&a.transpose(), &b).unwrap();
        prop_assert!(at.approx_eq(&ab, 1e-10));
    }

    #[test]
    fn matmul_distributes_over_addition((n, k, m) in dims(), s in 0u64..200) {
        let a = smfl_linalg::random::uniform_matrix(n, k, -2.0, 2.0, s);
        let b = smfl_linalg::random::uniform_matrix(k, m, -2.0, 2.0, s + 1);
        let c = smfl_linalg::random::uniform_matrix(k, m, -2.0, 2.0, s + 2);
        let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn transpose_reverses_product((n, k, m) in dims(), s in 0u64..200) {
        let a = smfl_linalg::random::uniform_matrix(n, k, -2.0, 2.0, s);
        let b = smfl_linalg::random::uniform_matrix(k, m, -2.0, 2.0, s + 7);
        let lhs = matmul(&a, &b).unwrap().transpose();
        let rhs = matmul(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn frobenius_is_submultiplicative((n, k, m) in dims(), s in 0u64..200) {
        let a = smfl_linalg::random::uniform_matrix(n, k, -2.0, 2.0, s);
        let b = smfl_linalg::random::uniform_matrix(k, m, -2.0, 2.0, s + 3);
        let ab = matmul(&a, &b).unwrap();
        prop_assert!(ab.frobenius_norm() <= a.frobenius_norm() * b.frobenius_norm() + 1e-9);
    }

    #[test]
    fn mask_and_complement_partition(rows in 1usize..6, cols in 1usize..6, seed in 0u64..300) {
        let m = smfl_linalg::random::uniform_matrix(rows, cols, 0.0, 1.0, seed)
            .map(|x| if x > 0.5 { 1.0 } else { 0.0 });
        let mut mask = Mask::empty(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if m.get(i, j) > 0.0 { mask.set(i, j, true); }
            }
        }
        let comp = mask.complement();
        prop_assert_eq!(mask.count() + comp.count(), rows * cols);
        prop_assert_eq!(mask.and(&comp).unwrap().count(), 0);
        prop_assert_eq!(mask.or(&comp).unwrap().count(), rows * cols);
    }

    #[test]
    fn mask_apply_plus_complement_apply_is_identity(a in matrix(4, 5), mask in mask_for(4, 5)) {
        let kept = mask.apply(&a).unwrap();
        let dropped = mask.complement().apply(&a).unwrap();
        prop_assert!(kept.add(&dropped).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn blend_respects_mask(a in matrix(3, 4), b in matrix(3, 4), mask in mask_for(3, 4)) {
        let blended = mask.blend(&a, b.clone()).unwrap();
        for i in 0..3 {
            for j in 0..4 {
                let expected = if mask.get(i, j) { a.get(i, j) } else { b.get(i, j) };
                prop_assert_eq!(blended.get(i, j), expected);
            }
        }
    }

    #[test]
    fn masked_product_matches_apply_of_full(
        (n, k, m) in dims(), s in 0u64..100, mseed in 0u64..100
    ) {
        let u = smfl_linalg::random::uniform_matrix(n, k, -1.0, 1.0, s);
        let v = smfl_linalg::random::uniform_matrix(k, m, -1.0, 1.0, s + 13);
        let sel = smfl_linalg::random::uniform_matrix(n, m, 0.0, 1.0, mseed);
        let mut mask = Mask::empty(n, m);
        for i in 0..n {
            for j in 0..m {
                if sel.get(i, j) > 0.6 { mask.set(i, j, true); }
            }
        }
        let sparse = masked_product(&u, &v, &mask).unwrap();
        let full = mask.apply(&matmul(&u, &v).unwrap()).unwrap();
        prop_assert!(sparse.approx_eq(&full, 1e-10));
    }

    #[test]
    fn masked_diff_norm_never_exceeds_full(a in matrix(4, 4), b in matrix(4, 4), mask in mask_for(4, 4)) {
        let masked = masked_diff_norm_sq(&a, &b, &mask).unwrap();
        let full = a.sub(&b).unwrap().frobenius_norm_sq();
        prop_assert!(masked <= full + 1e-12);
        prop_assert!(masked >= 0.0);
    }

    #[test]
    fn svd_reconstructs(n in 2usize..10, m in 2usize..6, seed in 0u64..200) {
        let a = smfl_linalg::random::uniform_matrix(n, m, -3.0, 3.0, seed);
        let s = thin_svd(&a).unwrap();
        prop_assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-7));
    }

    #[test]
    fn svd_sigma_sorted_nonnegative(n in 2usize..10, m in 2usize..6, seed in 0u64..200) {
        let a = smfl_linalg::random::uniform_matrix(n, m, -3.0, 3.0, seed);
        let s = thin_svd(&a).unwrap();
        for w in s.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-10);
        }
        prop_assert!(s.sigma.iter().all(|&x| x >= 0.0));
    }
}
