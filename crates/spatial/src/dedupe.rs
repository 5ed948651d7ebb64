//! Jitter-free de-duplication of coordinate rows.
//!
//! Real spatial tables routinely carry exactly repeated coordinates
//! (several sensors at one site, re-submitted tuples). Duplicates are
//! harmless to the kNN graph (ties break by index) but starve k-means:
//! with fewer distinct points than clusters, landmark generation
//! degenerates into duplicate centres. [`dedupe_coordinates`] breaks
//! exact ties **deterministically** — no RNG, no wall-clock — by
//! offsetting each duplicate beyond the first of a group along the
//! first coordinate by `rank x tie_eps`, where `tie_eps` scales with the
//! data's magnitude. The perturbation is far below any physical
//! coordinate precision yet large enough to separate the points for
//! clustering.

use smfl_linalg::Matrix;

/// Relative size of the tie-breaking offset (scaled by the coordinate
/// magnitude, floor 1.0).
pub const TIE_EPS: f64 = 1e-9;

/// Breaks exact coordinate ties in place. Rows that are bitwise-equal
/// (by total order, so NaN groups with NaN) to an earlier row get a
/// deterministic offset `rank x tie_eps` added to their first
/// coordinate, where `rank` counts duplicates within the group in
/// original row order. Returns the number of rows modified.
///
/// Zero-column matrices and empty matrices are no-ops.
pub fn dedupe_coordinates(si: &mut Matrix) -> usize {
    let (n, dims) = si.shape();
    if n < 2 || dims == 0 {
        return 0;
    }
    // Sort indices lexicographically by row content (total order keeps
    // NaN comparable), then by index so duplicate ranks are stable.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        for d in 0..dims {
            let cmp = si.get(a, d).total_cmp(&si.get(b, d));
            if cmp != std::cmp::Ordering::Equal {
                return cmp;
            }
        }
        a.cmp(&b)
    });

    let magnitude = si
        .as_slice()
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(1.0f64, |acc, v| acc.max(v.abs()));
    let tie_eps = magnitude * TIE_EPS;

    let rows_equal = |a: usize, b: usize, si: &Matrix| {
        (0..dims).all(|d| si.get(a, d).total_cmp(&si.get(b, d)) == std::cmp::Ordering::Equal)
    };

    let mut modified = 0;
    let mut g = 0;
    while g < n {
        let mut end = g + 1;
        while end < n && rows_equal(order[g], order[end], si) {
            end += 1;
        }
        for (rank, &row) in order[g + 1..end].iter().enumerate() {
            let bumped = si.get(row, 0) + (rank + 1) as f64 * tie_eps;
            si.set(row, 0, bumped);
            modified += 1;
        }
        g = end;
    }
    modified
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_rows_untouched() {
        let mut si = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![2.0, 0.0]]).unwrap();
        let orig = si.clone();
        assert_eq!(dedupe_coordinates(&mut si), 0);
        assert!(si.approx_eq(&orig, 0.0));
    }

    #[test]
    fn duplicates_become_distinct_deterministically() {
        let mut a = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        let mut b = a.clone();
        assert_eq!(dedupe_coordinates(&mut a), 2);
        assert_eq!(dedupe_coordinates(&mut b), 2);
        assert!(a.approx_eq(&b, 0.0), "dedupe must be deterministic");
        // All rows now pairwise distinct.
        for i in 0..4 {
            for j in i + 1..4 {
                assert!(
                    a.get(i, 0) != a.get(j, 0) || a.get(i, 1) != a.get(j, 1),
                    "rows {i} and {j} still collide"
                );
            }
        }
        // The first of the group keeps its exact original value.
        assert_eq!(a.get(0, 0), 1.0);
        // Offsets are tiny relative to the data scale.
        assert!((a.get(1, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rank_ordering_follows_row_index() {
        let mut si = Matrix::from_rows(&[vec![3.0, 3.0], vec![3.0, 3.0], vec![3.0, 3.0]]).unwrap();
        dedupe_coordinates(&mut si);
        // Later rows get larger offsets: strictly increasing first coords.
        assert!(si.get(0, 0) < si.get(1, 0));
        assert!(si.get(1, 0) < si.get(2, 0));
    }

    #[test]
    fn non_finite_rows_group_without_panicking() {
        let mut si =
            Matrix::from_rows(&[vec![f64::NAN, 1.0], vec![f64::NAN, 1.0], vec![0.5, 0.5]]).unwrap();
        let modified = dedupe_coordinates(&mut si);
        assert_eq!(modified, 1); // the second NaN row was offset (stays NaN)
        assert!(si.get(1, 0).is_nan());
    }

    #[test]
    fn degenerate_shapes_are_noops() {
        let mut empty = Matrix::zeros(0, 2);
        assert_eq!(dedupe_coordinates(&mut empty), 0);
        let mut one = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert_eq!(dedupe_coordinates(&mut one), 0);
        let mut zero_cols = Matrix::zeros(5, 0);
        assert_eq!(dedupe_coordinates(&mut zero_cols), 0);
    }
}
