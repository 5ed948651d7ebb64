//! Compressed sparse row (CSR) matrices.
//!
//! The SMFL update rule for `U` needs `D·U` every iteration, where `D`
//! is the p-nearest-neighbour similarity matrix (at most `2p` nonzeros
//! per row); the diagonal `W` is kept as a plain degree vector. Storing
//! `D` dense would cost `O(N²)` memory and `O(N²K)` time per iteration;
//! CSR keeps it at `O(nnz)` — this is ablation #2 of DESIGN.md.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// A sparse `rows x cols` matrix in CSR format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate positions are summed. Entries with value `0.0` are kept
    /// out of the structure.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        let mut sorted: Vec<(usize, usize, f64)> = Vec::with_capacity(triplets.len());
        for &(i, j, v) in triplets {
            if i >= rows || j >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: (i, j),
                    shape: (rows, cols),
                });
            }
            sorted.push((i, j, v));
        }
        sorted.sort_unstable_by_key(|&(i, j, _)| (i, j));

        // Merge duplicate positions, then drop structural zeros (including
        // duplicates that cancelled out).
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (i, j, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == i && last.1 == j => last.2 += v,
                _ => merged.push((i, j, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);

        let mut row_ptr = vec![0usize; rows + 1];
        for &(i, _, _) in &merged {
            row_ptr[i + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx: merged.iter().map(|t| t.1).collect(),
            values: merged.iter().map(|t| t.2).collect(),
        })
    }

    /// Builds a CSR matrix directly from its raw arrays, skipping the
    /// triplet sort/merge — for callers (e.g. the spatial-graph assembly
    /// in `smfl-spatial`) that already produce row-grouped, column-sorted
    /// entries.
    ///
    /// Invariants checked (O(nnz)):
    /// - `row_ptr` has `rows + 1` monotone entries starting at 0 and
    ///   ending at `col_idx.len() == values.len()`;
    /// - within each row, columns are strictly ascending and `< cols`;
    /// - no explicit zero values (the structural-zero-free invariant
    ///   [`CsrMatrix::from_triplets`] maintains).
    ///
    /// # Errors
    /// [`LinalgError::BadLength`] for inconsistent array lengths or a
    /// malformed `row_ptr`; [`LinalgError::IndexOutOfBounds`] for
    /// unsorted/duplicate/out-of-range columns or an explicit zero.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1
            || row_ptr.first() != Some(&0)
            || row_ptr.last() != Some(&col_idx.len())
            || col_idx.len() != values.len()
        {
            return Err(LinalgError::BadLength {
                expected: col_idx.len(),
                actual: values.len(),
            });
        }
        for i in 0..rows {
            if row_ptr[i] > row_ptr[i + 1] {
                return Err(LinalgError::BadLength {
                    expected: row_ptr[i],
                    actual: row_ptr[i + 1],
                });
            }
            let mut prev = None;
            let span = row_ptr[i]..row_ptr[i + 1];
            for (&j, &v) in col_idx[span.clone()].iter().zip(&values[span]) {
                if j >= cols || prev.is_some_and(|p| p >= j) || v == 0.0 {
                    return Err(LinalgError::IndexOutOfBounds {
                        index: (i, j),
                        shape: (rows, cols),
                    });
                }
                prev = Some(j);
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
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

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored values, row-major (one slice over all rows). Useful
    /// for whole-matrix scans such as finiteness checks.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Row `i` as its column indices (strictly ascending — both
    /// constructors guarantee it) and values.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        debug_assert!(i < self.rows);
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// `(column, value)` pairs of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.row(i);
        cols.iter().zip(vals).map(|(&j, &v)| (j, v))
    }

    /// Value at `(i, j)`; zero when the position is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row_entries(i)
            .find(|&(c, _)| c == j)
            .map_or(0.0, |(_, v)| v)
    }

    /// Per-row sums (the degree vector when `self` is an adjacency
    /// matrix — the paper's Formula 4 diagonal).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.row_entries(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Sparse × dense product `self · B` (`rows x B.cols()`).
    pub fn spmm(&self, b: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.spmm_into(b, &mut out)?;
        Ok(out)
    }

    /// Sparse × dense product into a caller-owned output buffer
    /// (overwritten) — lets the update loop evaluate `D·U` every
    /// iteration without allocating.
    pub fn spmm_into(&self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != b.rows() {
            return Err(LinalgError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: b.shape(),
                op: "spmm",
            });
        }
        let m = b.cols();
        if out.shape() != (self.rows, m) {
            return Err(LinalgError::DimensionMismatch {
                left: (self.rows, m),
                right: out.shape(),
                op: "spmm_into",
            });
        }
        out.as_mut_slice().fill(0.0);
        for i in 0..self.rows {
            // Split the borrow: read entries by index, write into row i.
            let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for e in start..end {
                let (t, v) = (self.col_idx[e], self.values[e]);
                let br = b.row(t);
                let orow = out.row_mut(i);
                for (j, &bv) in br.iter().enumerate() {
                    orow[j] += v * bv;
                }
            }
        }
        Ok(())
    }

    /// Converts to a dense matrix (testing / small problems only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                out.set(i, j, v);
            }
        }
        out
    }

    /// Transposed copy (CSR of the transpose).
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                triplets.push((j, i, v));
            }
        }
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
            .expect("transpose triplets are in-bounds by construction")
    }

    /// `true` when `self` equals its transpose up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.nnz() != self.nnz() {
            return false;
        }
        for i in 0..self.rows {
            let mut a: Vec<(usize, f64)> = self.row_entries(i).collect();
            let mut b: Vec<(usize, f64)> = t.row_entries(i).collect();
            a.sort_unstable_by_key(|&(j, _)| j);
            b.sort_unstable_by_key(|&(j, _)| j);
            if a.len() != b.len() {
                return false;
            }
            for ((ja, va), (jb, vb)) in a.iter().zip(&b) {
                if ja != jb || (va - vb).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Quadratic form `Tr(Uᵀ · self · U)` without materializing the
    /// product — the spatial-regularization term of the paper's objective
    /// when `self` is the graph Laplacian `L`.
    pub fn quadratic_form(&self, u: &Matrix) -> Result<f64> {
        let su = self.spmm(u)?;
        // Tr(Uᵀ (L U)) = sum_ij U_ij (L U)_ij
        Ok(u.as_slice()
            .iter()
            .zip(su.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .unwrap()
    }

    #[test]
    fn triplets_roundtrip() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
    }

    #[test]
    fn triplets_out_of_bounds() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn duplicate_triplets_sum() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn explicit_zeros_are_pruned() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 1, 5.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1), 5.0);
    }

    #[test]
    fn row_sums_match() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 + 1.0);
        let sparse = m.spmm(&b).unwrap();
        let dense = crate::ops::matmul(&m.to_dense(), &b).unwrap();
        assert!(sparse.approx_eq(&dense, 1e-12));
        assert!(m.spmm(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn spmm_into_reuses_buffer_and_checks_shape() {
        let m = sample();
        let b = Matrix::from_fn(3, 2, |i, j| (i + 2 * j) as f64);
        let mut out = Matrix::filled(3, 2, 7.0); // stale values must be overwritten
        let ptr = out.as_slice().as_ptr();
        m.spmm_into(&b, &mut out).unwrap();
        assert_eq!(ptr, out.as_slice().as_ptr());
        assert!(out.approx_eq(&m.spmm(&b).unwrap(), 1e-12));
        assert!(m.spmm_into(&b, &mut Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert!(m.to_dense().approx_eq(&tt.to_dense(), 1e-12));
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(sym.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
        let rect = CsrMatrix::from_triplets(2, 3, &[]).unwrap();
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn quadratic_form_matches_trace() {
        let l = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let u = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 * 0.5 + 0.1);
        let qf = l.quadratic_form(&u).unwrap();
        let lu = crate::ops::matmul(&l.to_dense(), &u).unwrap();
        let ut_lu = crate::ops::matmul_at(&u, &lu).unwrap();
        assert!((qf - ut_lu.trace().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn empty_rows_have_empty_ranges() {
        let m = sample();
        assert_eq!(m.row_entries(1).count(), 0);
    }

    #[test]
    fn from_parts_matches_from_triplets() {
        let triplets = [(0usize, 1usize, 2.0), (0, 2, 3.0), (2, 0, -1.0)];
        let via_triplets = CsrMatrix::from_triplets(3, 3, &triplets).unwrap();
        let via_parts = CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 2, 3],
            vec![1, 2, 0],
            vec![2.0, 3.0, -1.0],
        )
        .unwrap();
        assert_eq!(via_triplets, via_parts);
    }

    #[test]
    fn from_parts_rejects_malformed_inputs() {
        // Wrong row_ptr length.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // row_ptr not ending at nnz.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0], vec![1.0]).is_err());
        // Non-monotone row_ptr.
        assert!(
            CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
        // Unsorted columns within a row.
        assert!(
            CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err()
        );
        // Duplicate column.
        assert!(
            CsrMatrix::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err()
        );
        // Column out of range.
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Explicit structural zero.
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![0], vec![0.0]).is_err());
        // Empty matrix is fine.
        let empty = CsrMatrix::from_parts(0, 4, vec![0], vec![], vec![]).unwrap();
        assert_eq!(empty.nnz(), 0);
    }
}
