//! Dense row-major `f64` matrix.
//!
//! This is the workhorse type of the whole reproduction: the data matrix
//! `X`, the coefficient matrix `U` and the feature matrix `V` of the SMFL
//! paper are all [`Matrix`] values. The representation is a single
//! contiguous `Vec<f64>` in row-major order, so row iteration is
//! cache-friendly (the multiplicative update rules sweep rows of `U` and
//! columns of `V`).

use crate::error::{LinalgError, Result};
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns [`LinalgError::BadLength`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::BadLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices.
    ///
    /// Returns [`LinalgError::BadLength`] if rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::BadLength {
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Heap bytes the backing buffer holds (its capacity).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Element at `(i, j)` without bounds checking beyond the slice's own.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Immutable slice of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable slice of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Returns a new matrix containing columns `range` (half-open).
    pub fn columns(&self, start: usize, end: usize) -> Result<Matrix> {
        if end > self.cols || start > end {
            return Err(LinalgError::IndexOutOfBounds {
                index: (0, end),
                shape: self.shape(),
            });
        }
        let w = end - start;
        let mut out = Matrix::zeros(self.rows, w);
        for i in 0..self.rows {
            let src = &self.data[i * self.cols + start..i * self.cols + end];
            out.row_mut(i).copy_from_slice(src);
        }
        Ok(out)
    }

    /// Returns a new matrix containing rows `start..end` (half-open).
    pub fn rows_range(&self, start: usize, end: usize) -> Result<Matrix> {
        if end > self.rows || start > end {
            return Err(LinalgError::IndexOutOfBounds {
                index: (end, 0),
                shape: self.shape(),
            });
        }
        let data = self.data[start * self.cols..end * self.cols].to_vec();
        Matrix::from_vec(end - start, self.cols, data)
    }

    /// Returns a new matrix with the rows selected by `indices`, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            if i >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: (i, 0),
                    shape: self.shape(),
                });
            }
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out)
            .expect("freshly allocated transpose buffer has the right shape");
        out
    }

    /// Transpose into a caller-owned `cols x rows` buffer (overwritten),
    /// so hot loops can refresh a cached `Vᵀ` without allocating.
    pub fn transpose_into(&self, out: &mut Matrix) -> Result<()> {
        if out.shape() != (self.cols, self.rows) {
            return Err(LinalgError::DimensionMismatch {
                left: (self.cols, self.rows),
                right: out.shape(),
                op: "transpose_into",
            });
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        Ok(())
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination `f(a_ij, b_ij)` of two same-shaped matrices.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        self.check_same_shape(other, "zip_map")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise sum. Errors on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference. Errors on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. Errors on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `s * other` into `self` in place. Errors on shape mismatch.
    pub fn axpy(&mut self, s: f64, other: &Matrix) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
        Ok(())
    }

    /// Frobenius norm `sqrt(sum_ij a_ij^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>()
    }

    /// Trace of a square matrix. Errors when not square.
    pub fn trace(&self) -> Result<f64> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self.data[i * self.cols + i]).sum())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Minimum element; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::min)
    }

    /// Maximum element; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::max)
    }

    /// Mean of all elements; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.sum() / self.data.len() as f64)
        }
    }

    /// `true` when every element is finite (no NaN / infinity).
    ///
    /// Branch-free so it vectorizes: the fit engine's health sentinel
    /// scans both factors with it on every iteration. `x * 0.0` is `±0`
    /// for finite `x` and NaN otherwise, and a NaN survives the sum.
    pub fn all_finite(&self) -> bool {
        let mut lanes = [0.0f64; 8];
        let mut chunks = self.data.chunks_exact(8);
        for chunk in &mut chunks {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                *lane += x * 0.0;
            }
        }
        let tail: f64 = chunks.remainder().iter().map(|&x| x * 0.0).sum();
        lanes.iter().sum::<f64>() + tail == 0.0
    }

    /// `true` when every element is `>= -tol` (nonnegativity check used by
    /// the NMF invariant tests).
    pub fn is_nonnegative(&self, tol: f64) -> bool {
        self.data.iter().all(|&x| x >= -tol)
    }

    /// `true` when all elements differ from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    fn check_same_shape(&self, other: &Matrix, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op,
            });
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0]),
            Err(LinalgError::BadLength {
                expected: 4,
                actual: 1
            })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn from_fn_fills_by_position() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn row_and_col_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn columns_slice() {
        let m = sample();
        let c = m.columns(1, 3).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[2.0, 3.0, 5.0, 6.0]);
        assert!(m.columns(2, 4).is_err());
    }

    #[test]
    fn rows_range_slice() {
        let m = sample();
        let r = m.rows_range(1, 2).unwrap();
        assert_eq!(r.as_slice(), &[4.0, 5.0, 6.0]);
        assert!(m.rows_range(1, 3).is_err());
    }

    #[test]
    fn select_rows_picks_in_order() {
        let m = sample();
        let s = m.select_rows(&[1, 0, 1]).unwrap();
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0, 3.0]);
        assert!(m.select_rows(&[5]).is_err());
    }

    #[test]
    fn transpose_swaps() {
        let t = sample().transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t[(0, 1)], 4.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let b = sample();
        assert_eq!(a.add(&b).unwrap()[(1, 2)], 12.0);
        assert_eq!(a.sub(&b).unwrap().frobenius_norm(), 0.0);
        assert_eq!(a.hadamard(&b).unwrap()[(0, 1)], 4.0);
        assert_eq!(a.scale(2.0)[(0, 0)], 2.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::identity(2);
        a.axpy(3.0, &b).unwrap();
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            a.add(&b),
            Err(LinalgError::DimensionMismatch { op: "zip_map", .. })
        ));
    }

    #[test]
    fn norms_and_trace() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.frobenius_norm_sq(), 25.0);
        assert_eq!(m.trace().unwrap(), 7.0);
        assert!(sample().trace().is_err());
    }

    #[test]
    fn reductions() {
        let m = sample();
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(6.0));
        assert_eq!(m.mean(), Some(3.5));
        assert_eq!(Matrix::zeros(0, 0).mean(), None);
    }

    #[test]
    fn finiteness_and_nonnegativity() {
        let mut m = sample();
        assert!(m.all_finite());
        assert!(m.is_nonnegative(0.0));
        m.set(0, 0, f64::NAN);
        assert!(!m.all_finite());
        assert!(Matrix::zeros(0, 0).all_finite());
        // Every position, in the 8-wide body and in the tail, and every
        // kind of non-finite value; negative and huge finite values pass.
        let base = Matrix::from_fn(3, 5, |i, j| (i as f64 - 1.0) * 1e300 * j as f64);
        assert!(base.all_finite());
        for idx in 0..15 {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut b = base.clone();
                b.set(idx / 5, idx % 5, bad);
                assert!(!b.all_finite(), "missed {bad} at {idx}");
            }
        }
        m.set(0, 0, -0.5);
        assert!(!m.is_nonnegative(1e-9));
        assert!(m.is_nonnegative(1.0));
    }

    #[test]
    fn approx_eq_and_max_abs_diff() {
        let a = sample();
        let mut b = sample();
        b.set(1, 1, 5.5);
        // The largest difference is exactly 0.5.
        assert!(a.approx_eq(&b, 0.5));
        assert!(!a.approx_eq(&b, 0.5 - 1e-15));
        assert!(!a.approx_eq(&b, 0.4));
        assert!(!a.approx_eq(&Matrix::zeros(1, 1), 10.0));
    }

    #[test]
    fn row_iter_yields_rows() {
        let m = sample();
        let rows: Vec<&[f64]> = m.row_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[4.0, 5.0, 6.0]);
    }
}
