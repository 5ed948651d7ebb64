//! The distance kernel over spatial coordinates.
//!
//! The paper's similarity matrix `D` (Formula 3) is built from p-nearest
//! neighbours "on spatial information **SI**" under the Euclidean
//! metric; nearest-neighbour ranking and k-means only need its square.

/// Squared Euclidean distance between two equally long coordinate
/// slices — the single distance kernel shared by the kd-tree, the
/// brute-force kNN oracle and k-means (previously three private copies).
/// Delegates to [`smfl_linalg::ops::sq_dist`], so the whole workspace
/// agrees bitwise on the summation order.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    smfl_linalg::ops::sq_dist(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_345() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn identity_distance_is_zero() {
        assert_eq!(sq_dist(&[1.5, -2.0], &[1.5, -2.0]), 0.0);
    }

    #[test]
    fn euclidean_is_symmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [-1.0, 0.5, 2.0];
        assert_eq!(sq_dist(&a, &b), sq_dist(&b, &a));
    }
}
