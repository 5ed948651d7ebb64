//! Matrix products.
//!
//! The SMFL multiplicative update rules are dominated by four products:
//! `R_Ω(X)·Vᵀ`, `R_Ω(U·V)·Vᵀ`, `Uᵀ·R_Ω(X)` and `Uᵀ·R_Ω(U·V)`. Rather than
//! materializing transposes, this module provides the three product
//! orientations directly (`A·B`, `A·Bᵀ`, `Aᵀ·B`), each with a serial
//! kernel and a row-parallel kernel on [`crate::parallel`]'s pool, plus
//! `_into` variants that reuse a caller-owned output buffer so the
//! per-iteration engine ([`crate::kernels`]) allocates nothing.
//!
//! The serial kernel for `A·B` is the classic `ikj` loop order, which
//! streams both `B` rows and the output row, and lets the compiler
//! auto-vectorize the inner `axpy`.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::parallel::{parallel_over_rows, threads_for};

/// `C = A · B`.
///
/// Errors with [`LinalgError::DimensionMismatch`] unless
/// `a.cols() == b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out)?;
    Ok(out)
}

/// `C = A · B` into a caller-owned output buffer (overwritten), so hot
/// loops can reuse one allocation across iterations.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul",
        });
    }
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    if out.shape() != (n, m) {
        return Err(LinalgError::DimensionMismatch {
            left: (n, m),
            right: out.shape(),
            op: "matmul_into",
        });
    }
    out.as_mut_slice().fill(0.0);
    let threads = threads_for(n * k * m * 2);
    parallel_over_rows(out.as_mut_slice(), m, n, threads, |start, end, chunk| {
        matmul_rows_into(a, b, chunk, start, end)
    });
    Ok(())
}

/// `C = A · Bᵀ`.
///
/// Both operands are read row-wise, which makes this the fastest
/// orientation; prefer it to `matmul(a, &b.transpose())`.
pub fn matmul_bt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    matmul_bt_into(a, b, &mut out)?;
    Ok(out)
}

/// `C = A · Bᵀ` into a caller-owned output buffer (overwritten).
pub fn matmul_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul_bt",
        });
    }
    let (n, m) = (a.rows(), b.rows());
    if out.shape() != (n, m) {
        return Err(LinalgError::DimensionMismatch {
            left: (n, m),
            right: out.shape(),
            op: "matmul_bt_into",
        });
    }
    let threads = threads_for(n * m * a.cols() * 2);
    let body = |start: usize, end: usize, chunk: &mut [f64]| {
        for i in start..end {
            let ar = a.row(i);
            let orow = &mut chunk[(i - start) * m..(i - start + 1) * m];
            for (j, o) in orow.iter_mut().enumerate() {
                let br = b.row(j);
                let mut acc = 0.0;
                for t in 0..ar.len() {
                    acc += ar[t] * br[t];
                }
                *o = acc;
            }
        }
    };
    parallel_over_rows(out.as_mut_slice(), m, n, threads, body);
    Ok(())
}

/// `C = Aᵀ · B`.
///
/// Output is `a.cols() x b.cols()`; parallelized over output rows (i.e.
/// columns of `A`).
pub fn matmul_at(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    matmul_at_into(a, b, &mut out)?;
    Ok(out)
}

/// `C = Aᵀ · B` into a caller-owned output buffer (overwritten).
pub fn matmul_at_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul_at",
        });
    }
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    if out.shape() != (k, m) {
        return Err(LinalgError::DimensionMismatch {
            left: (k, m),
            right: out.shape(),
            op: "matmul_at_into",
        });
    }
    out.as_mut_slice().fill(0.0);
    // Accumulate row-by-row of A/B: out[p, :] += a[i, p] * b[i, :].
    // Each stripe owns a private accumulator over its output rows, so the
    // serial (one full stripe) and parallel cases share one body.
    let threads = threads_for(n * k * m * 2);
    parallel_over_rows(out.as_mut_slice(), m, k, threads, |pstart, pend, chunk| {
        for i in 0..n {
            let ar = a.row(i);
            let br = b.row(i);
            for p in pstart..pend {
                let ap = ar[p];
                if ap == 0.0 {
                    continue;
                }
                let orow = &mut chunk[(p - pstart) * m..(p - pstart + 1) * m];
                for (t, &bv) in br.iter().enumerate() {
                    orow[t] += ap * bv;
                }
            }
        }
    });
    Ok(())
}

/// Matrix-vector product `A · x`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Result<Vec<f64>> {
    if a.cols() != x.len() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: (x.len(), 1),
            op: "matvec",
        });
    }
    Ok(a.row_iter()
        .map(|row| row.iter().zip(x).map(|(&r, &v)| r * v).sum())
        .collect())
}

/// Dot product of two equally long slices: one serial sum, in index
/// order.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Squared Euclidean distance between two equally long slices.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Computes rows `start..end` of `A·B` into `chunk` (which holds exactly
/// those rows). `ikj` order: `out[i, :] += a[i, t] * b[t, :]`.
fn matmul_rows_into(a: &Matrix, b: &Matrix, chunk: &mut [f64], start: usize, end: usize) {
    let m = b.cols();
    for i in start..end {
        let ar = a.row(i);
        let orow = &mut chunk[(i - start) * m..(i - start + 1) * m];
        for (t, &at) in ar.iter().enumerate() {
            if at == 0.0 {
                continue;
            }
            let br = b.row(t);
            for (j, &bv) in br.iter().enumerate() {
                orow[j] += at * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    fn b32() -> Matrix {
        Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap()
    }

    #[test]
    fn matmul_small() {
        let c = matmul(&a23(), &b32()).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = a23();
        let c = matmul(&a, &Matrix::identity(3)).unwrap();
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_shape_error() {
        assert!(matmul(&a23(), &a23()).is_err());
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = a23();
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f64).collect()).unwrap();
        let via_bt = matmul_bt(&a, &b).unwrap();
        let explicit = matmul(&a, &b.transpose()).unwrap();
        assert!(via_bt.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = a23();
        let b = Matrix::from_vec(2, 4, (0..8).map(|x| x as f64).collect()).unwrap();
        let via_at = matmul_at(&a, &b).unwrap();
        let explicit = matmul(&a.transpose(), &b).unwrap();
        assert!(via_at.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn matmul_bt_and_at_shape_errors() {
        assert!(matmul_bt(&a23(), &b32()).is_err());
        assert!(matmul_at(&a23(), &b32()).is_err());
    }

    #[test]
    fn matvec_small() {
        let y = matvec(&a23(), &[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        assert!(matvec(&a23(), &[1.0]).is_err());
    }

    #[test]
    fn dot_and_sq_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn large_matmul_uses_parallel_path_and_agrees() {
        // 200x150 x 150x120 = 3.6M madds > threshold -> parallel kernel.
        let a = Matrix::from_fn(200, 150, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.25);
        let b = Matrix::from_fn(150, 120, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.5);
        let par = matmul(&a, &b).unwrap();
        // Serial reference via the naive triple loop.
        let mut reference = Matrix::zeros(200, 120);
        for i in 0..200 {
            for j in 0..120 {
                let mut acc = 0.0;
                for t in 0..150 {
                    acc += a[(i, t)] * b[(t, j)];
                }
                reference[(i, j)] = acc;
            }
        }
        assert!(par.approx_eq(&reference, 1e-9));
    }

    #[test]
    fn large_at_and_bt_agree_with_serial() {
        let a = Matrix::from_fn(300, 80, |i, j| ((i + 2 * j) % 7) as f64);
        let b = Matrix::from_fn(300, 90, |i, j| ((2 * i + j) % 5) as f64);
        let at = matmul_at(&a, &b).unwrap();
        let explicit = matmul(&a.transpose(), &b).unwrap();
        assert!(at.approx_eq(&explicit, 1e-9));

        let c = Matrix::from_fn(250, 80, |i, j| ((i * j) % 9) as f64 * 0.1);
        let bt = matmul_bt(&a, &c).unwrap();
        let explicit_bt = matmul(&a, &c.transpose()).unwrap();
        assert!(bt.approx_eq(&explicit_bt, 1e-9));
    }

    #[test]
    fn zero_sized_products() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 2));
    }
}
