//! Observation masks — the `Ω` / `Ψ` machinery of the paper.
//!
//! The paper masks the reconstruction error with
//! `R_Ω(X)_ij = x_ij if (i,j) ∈ Ω else 0` (its Section II-A). A [`Mask`]
//! is a bitset over the `N x M` cell grid: bit set ⇒ the cell is in the
//! mask. `Ω` (observed cells) and `Ψ` (unobserved / dirty cells) are both
//! represented by this type; [`Mask::complement`] converts between them.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::ops::matmul_into;

/// Iterator over the set bits of a single word, ascending, via
/// `trailing_zeros` + clear-lowest-set-bit — the word-level scan that
/// powers [`Mask::iter_set`] and [`Mask::iter_row_set`].
struct WordBits {
    word: u64,
    base: usize,
}

impl Iterator for WordBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let t = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + t)
    }
}

/// Bitset over the cells of an `N x M` matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    rows: usize,
    cols: usize,
    words: Vec<u64>,
}

impl Mask {
    /// All-clear mask (no cell set).
    pub fn empty(rows: usize, cols: usize) -> Self {
        let nbits = rows * cols;
        Mask {
            rows,
            cols,
            words: vec![0; nbits.div_ceil(64)],
        }
    }

    /// All-set mask (every cell observed).
    pub fn full(rows: usize, cols: usize) -> Self {
        let mut m = Mask::empty(rows, cols);
        for w in &mut m.words {
            *w = u64::MAX;
        }
        m.clear_tail();
        m
    }

    /// Builds a mask from explicit `(row, col)` positions.
    pub fn from_positions(rows: usize, cols: usize, positions: &[(usize, usize)]) -> Result<Self> {
        let mut m = Mask::empty(rows, cols);
        for &(i, j) in positions {
            if i >= rows || j >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: (i, j),
                    shape: (rows, cols),
                });
            }
            m.set(i, j, true);
        }
        Ok(m)
    }

    /// Number of rows of the underlying grid.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the underlying grid.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the underlying grid.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether cell `(i, j)` is set.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.rows && j < self.cols);
        let bit = i * self.cols + j;
        self.words[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Sets or clears cell `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        debug_assert!(i < self.rows && j < self.cols);
        let bit = i * self.cols + j;
        if value {
            self.words[bit / 64] |= 1 << (bit % 64);
        } else {
            self.words[bit / 64] &= !(1 << (bit % 64));
        }
    }

    /// Number of set cells.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set cells in `[0, 1]`; 0 for an empty grid.
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.count() as f64 / total as f64
        }
    }

    /// The complement mask (`Ψ` from `Ω` and vice versa).
    pub fn complement(&self) -> Mask {
        let mut m = Mask {
            rows: self.rows,
            cols: self.cols,
            words: self.words.iter().map(|w| !w).collect(),
        };
        m.clear_tail();
        m
    }

    /// Intersection of two same-shaped masks.
    pub fn and(&self, other: &Mask) -> Result<Mask> {
        self.check_shape(other)?;
        Ok(Mask {
            rows: self.rows,
            cols: self.cols,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        })
    }

    /// Union of two same-shaped masks.
    pub fn or(&self, other: &Mask) -> Result<Mask> {
        self.check_shape(other)?;
        Ok(Mask {
            rows: self.rows,
            cols: self.cols,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        })
    }

    /// Iterator over set positions in row-major order. Scans whole
    /// 64-bit words (skipping empty ones) rather than testing every bit,
    /// so sparse masks iterate in `O(words + set bits)`.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.cols;
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| WordBits {
                word: w,
                base: wi * 64,
            })
            .map(move |bit| (bit / cols, bit % cols))
    }

    /// Iterator over the set columns of row `i`, ascending. Word-level:
    /// only the words overlapping the row's bit range are touched, with
    /// head/tail bits masked off.
    pub fn iter_row_set(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        debug_assert!(i < self.rows || self.cols == 0);
        let start_bit = i * self.cols;
        let end_bit = start_bit + self.cols;
        let start_word = start_bit / 64;
        let end_word = end_bit.div_ceil(64);
        self.words[start_word.min(end_word)..end_word]
            .iter()
            .enumerate()
            .flat_map(move |(k, &w)| {
                let wbase = (start_word + k) * 64;
                let mut word = w;
                if wbase < start_bit {
                    word &= !0u64 << (start_bit - wbase);
                }
                if end_bit - wbase < 64 {
                    word &= (1u64 << (end_bit - wbase)) - 1;
                }
                WordBits { word, base: wbase }
            })
            .map(move |bit| bit - start_bit)
    }

    /// `true` when every cell of row `i` is set.
    pub fn row_is_full(&self, i: usize) -> bool {
        self.iter_row_set(i).count() == self.cols
    }

    /// Applies the mask to `x`: `R_Ω(X)` — keeps masked cells, zeroes the
    /// rest. Errors on shape mismatch.
    pub fn apply(&self, x: &Matrix) -> Result<Matrix> {
        if x.shape() != self.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: x.shape(),
                right: self.shape(),
                op: "mask_apply",
            });
        }
        let mut out = x.clone();
        for i in 0..self.rows {
            for j in 0..self.cols {
                if !self.get(i, j) {
                    out.set(i, j, 0.0);
                }
            }
        }
        Ok(out)
    }

    /// Blends two matrices: masked cells from `a`, the rest from `b`
    /// (the paper's Formula 8, `X̂ ← R_Ω(X) + R_Ψ(X*)` with `self = Ω`,
    /// `a = X`, `b = X*`). The masked cells of `a` are written into `b`,
    /// which is returned, so a blend allocates nothing.
    pub fn blend(&self, a: &Matrix, mut b: Matrix) -> Result<Matrix> {
        if a.shape() != self.shape() || b.shape() != self.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: a.shape(),
                right: b.shape(),
                op: "mask_blend",
            });
        }
        for (i, j) in self.iter_set() {
            b.set(i, j, a.get(i, j));
        }
        Ok(b)
    }

    /// Zeroes the cells of `m` *outside* the mask, in place — `apply`
    /// without the copy. Word-level: full words are skipped, empty words
    /// become a `fill(0.0)`, mixed words clear bit by bit.
    pub fn zero_unset(&self, m: &mut Matrix) -> Result<()> {
        if m.shape() != self.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: m.shape(),
                right: self.shape(),
                op: "mask_zero_unset",
            });
        }
        // Row-major matrix data lines up with the bitset's linear order.
        let data = m.as_mut_slice();
        for (wi, &w) in self.words.iter().enumerate() {
            if w == u64::MAX {
                continue;
            }
            let base = wi * 64;
            let end = (base + 64).min(data.len());
            if w == 0 {
                data[base..end].fill(0.0);
                continue;
            }
            for bit in (WordBits { word: !w, base }) {
                if bit >= data.len() {
                    break; // tail bits past the grid, ascending order
                }
                data[bit] = 0.0;
            }
        }
        Ok(())
    }

    fn check_shape(&self, other: &Mask) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "mask_combine",
            });
        }
        Ok(())
    }

    /// Zeroes bits beyond `rows*cols` in the last word so `count` and
    /// `complement` stay exact.
    fn clear_tail(&mut self) {
        let nbits = self.rows * self.cols;
        let rem = nbits % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// `R_Ω(U·V)`: the product `U·V` evaluated only on the cells of `mask`,
/// zero elsewhere.
///
/// When the mask is dense (> 50% set) the full product is cheaper; when
/// sparse, only the observed dot products are computed
/// (`|Ω| · K` work instead of `N·M·K`).
pub fn masked_product(u: &Matrix, v: &Matrix, mask: &Mask) -> Result<Matrix> {
    if u.cols() != v.rows() {
        return Err(LinalgError::DimensionMismatch {
            left: u.shape(),
            right: v.shape(),
            op: "masked_product",
        });
    }
    if mask.shape() != (u.rows(), v.cols()) {
        return Err(LinalgError::DimensionMismatch {
            left: (u.rows(), v.cols()),
            right: mask.shape(),
            op: "masked_product",
        });
    }
    let mut out = Matrix::zeros(u.rows(), v.cols());
    if mask.density() > 0.5 {
        matmul_into(u, v, &mut out)?;
        mask.zero_unset(&mut out)?;
    } else {
        let vt = v.transpose();
        for i in 0..mask.rows() {
            let urow = u.row(i);
            let orow = out.row_mut(i);
            for j in mask.iter_row_set(i) {
                orow[j] = crate::ops::dot(urow, vt.row(j));
            }
        }
    }
    Ok(out)
}

/// `||R_mask(X − P)||_F²`: the masked squared reconstruction error — the
/// first term of the paper's objective (Formula 10).
pub fn masked_diff_norm_sq(x: &Matrix, p: &Matrix, mask: &Mask) -> Result<f64> {
    if x.shape() != p.shape() || x.shape() != mask.shape() {
        return Err(LinalgError::DimensionMismatch {
            left: x.shape(),
            right: p.shape(),
            op: "masked_diff_norm_sq",
        });
    }
    let mut acc = 0.0;
    for (i, j) in mask.iter_set() {
        let d = x.get(i, j) - p.get(i, j);
        acc += d * d;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    #[test]
    fn empty_and_full_counts() {
        assert_eq!(Mask::empty(3, 5).count(), 0);
        assert_eq!(Mask::full(3, 5).count(), 15);
        assert_eq!(Mask::full(0, 0).count(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Mask::empty(4, 4);
        m.set(2, 3, true);
        assert!(m.get(2, 3));
        assert!(!m.get(3, 2));
        m.set(2, 3, false);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn tail_bits_do_not_leak() {
        // 3x5 = 15 bits < 64; complement must not count phantom bits.
        let m = Mask::empty(3, 5);
        assert_eq!(m.complement().count(), 15);
        let f = Mask::full(10, 13); // 130 bits, 2 words + tail
        assert_eq!(f.count(), 130);
        assert_eq!(f.complement().count(), 0);
    }

    #[test]
    fn from_positions_and_iter() {
        let m = Mask::from_positions(3, 3, &[(0, 1), (2, 2)]).unwrap();
        let set: Vec<_> = m.iter_set().collect();
        assert_eq!(set, vec![(0, 1), (2, 2)]);
        assert!(Mask::from_positions(2, 2, &[(2, 0)]).is_err());
    }

    #[test]
    fn density_and_complement_partition() {
        let m = Mask::from_positions(2, 2, &[(0, 0)]).unwrap();
        assert!((m.density() - 0.25).abs() < 1e-12);
        let c = m.complement();
        assert_eq!(c.count(), 3);
        assert_eq!(m.and(&c).unwrap().count(), 0);
        assert_eq!(m.or(&c).unwrap().count(), 4);
    }

    #[test]
    fn combine_shape_mismatch() {
        let a = Mask::empty(2, 2);
        let b = Mask::empty(3, 2);
        assert!(a.and(&b).is_err());
        assert!(a.or(&b).is_err());
    }

    #[test]
    fn row_helpers() {
        let m = Mask::from_positions(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 1)]).unwrap();
        assert!(m.row_is_full(0));
        assert!(!m.row_is_full(1));
    }

    #[test]
    fn apply_zeroes_unmasked() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let m = Mask::from_positions(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let r = m.apply(&x).unwrap();
        assert_eq!(r.as_slice(), &[1.0, 0.0, 0.0, 4.0]);
        assert!(m.apply(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn blend_implements_formula_8() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let xstar = Matrix::from_vec(2, 2, vec![9.0, 9.0, 9.0, 9.0]).unwrap();
        let omega = Mask::from_positions(2, 2, &[(0, 0)]).unwrap();
        let blended = omega.blend(&x, xstar).unwrap();
        assert_eq!(blended.as_slice(), &[1.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn masked_product_sparse_equals_dense_path() {
        let u = Matrix::from_fn(6, 3, |i, j| (i + j) as f64 * 0.3);
        let v = Matrix::from_fn(3, 5, |i, j| (2 * i + j) as f64 * 0.2);
        // sparse mask (4/30 cells)
        let sparse = Mask::from_positions(6, 5, &[(0, 0), (3, 2), (5, 4), (2, 1)]).unwrap();
        let via_sparse = masked_product(&u, &v, &sparse).unwrap();
        let full = matmul(&u, &v).unwrap();
        let expected = sparse.apply(&full).unwrap();
        assert!(via_sparse.approx_eq(&expected, 1e-12));
        // dense mask exercises the other branch
        let dense = Mask::full(6, 5);
        let via_dense = masked_product(&u, &v, &dense).unwrap();
        assert!(via_dense.approx_eq(&full, 1e-12));
    }

    #[test]
    fn masked_product_shape_errors() {
        let u = Matrix::zeros(2, 3);
        let v = Matrix::zeros(4, 2);
        assert!(masked_product(&u, &v, &Mask::full(2, 2)).is_err());
        let v_ok = Matrix::zeros(3, 2);
        assert!(masked_product(&u, &v_ok, &Mask::full(9, 9)).is_err());
    }

    #[test]
    fn masked_diff_norm_counts_only_masked() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = Matrix::zeros(2, 2);
        let m = Mask::from_positions(2, 2, &[(0, 1), (1, 0)]).unwrap();
        let e = masked_diff_norm_sq(&x, &p, &m).unwrap();
        assert!((e - (4.0 + 9.0)).abs() < 1e-12);
        assert!(masked_diff_norm_sq(&x, &Matrix::zeros(1, 1), &m).is_err());
    }

    #[test]
    fn iter_row_set_matches_per_bit_scan() {
        // 13 cols => rows straddle word boundaries from row 4 onwards.
        let mut m = Mask::empty(11, 13);
        for i in 0..11 {
            for j in 0..13 {
                if (i * 31 + j * 7) % 3 == 0 {
                    m.set(i, j, true);
                }
            }
        }
        for i in 0..11 {
            let fast: Vec<usize> = m.iter_row_set(i).collect();
            let naive: Vec<usize> = (0..13).filter(|&j| m.get(i, j)).collect();
            assert_eq!(fast, naive, "row {i}");
        }
        let all: Vec<(usize, usize)> = m.iter_set().collect();
        let mut naive_all = Vec::new();
        for i in 0..11 {
            for j in 0..13 {
                if m.get(i, j) {
                    naive_all.push((i, j));
                }
            }
        }
        assert_eq!(all, naive_all);
    }

    #[test]
    fn zero_unset_matches_apply() {
        let x = Matrix::from_fn(9, 13, |i, j| (i * 13 + j) as f64 + 1.0);
        let mut m = Mask::empty(9, 13);
        for (i, j) in [(0, 0), (3, 12), (8, 5), (4, 7)] {
            m.set(i, j, true);
        }
        let mut inplace = x.clone();
        m.zero_unset(&mut inplace).unwrap();
        assert!(inplace.approx_eq(&m.apply(&x).unwrap(), 0.0));
        assert!(m.zero_unset(&mut Matrix::zeros(2, 2)).is_err());
        // full mask: nothing zeroed
        let mut untouched = x.clone();
        Mask::full(9, 13).zero_unset(&mut untouched).unwrap();
        assert!(untouched.approx_eq(&x, 0.0));
    }
}
