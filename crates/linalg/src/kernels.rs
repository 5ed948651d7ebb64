//! Fused sparse-residual iteration engine.
//!
//! The SMFL update rules (paper Formulas 13/14) only ever read the
//! reconstruction `U·V` at *observed* cells, yet the original loop
//! materialized `R_Ω(U·V)` as a dense `N x M` matrix two to three times
//! per iteration through [`crate::mask::masked_product`]. This module
//! compiles `Ω` together with the observed values of `X` **once per
//! fit** into an [`ObservedPattern`] — a CSR index structure with a CSC
//! companion view — and provides the four products the updates need as
//! sparse kernels over the packed value arrays:
//!
//! - [`ObservedPattern::sddmm_into`] — `r_e = u_i · v_j` at observed
//!   entries only (sampled dense-dense matmul), row-parallel;
//! - [`ObservedPattern::spmm_into`] — `R·Vᵀ` (an `N x K` dense result)
//!   for any packed value array `R` over the pattern, covering both
//!   `R_Ω(UV)·Vᵀ` and `R_Ω(X)·Vᵀ`;
//! - [`ObservedPattern::spmm_t_into`] — `Rᵀ·U` (an `M x K` dense
//!   result) driven by the CSC view, covering `Uᵀ·R_Ω(UV)` and
//!   `Uᵀ·R_Ω(X)` in transposed layout;
//! - [`ObservedPattern::fit_term`] — `‖R_Ω(X − UV)‖_F²` straight off
//!   the packed values.
//!
//! Every kernel writes into caller-owned buffers; the per-fit
//! [`Workspace`] owns all of them, so the inner loop of the
//! multiplicative / gradient / HALS updaters performs **zero heap
//! allocations** after the first iteration. Work per iteration drops
//! from `O(N·M·K)` to `O(|Ω|·K)`. For dense masks
//! ([`ObservedPattern::prefers_dense`]) the multiplicative updater
//! instead streams the CSR rows itself ([`ObservedPattern::csr`]),
//! fusing the reconstruction into both factor updates; its scratch
//! (the next-`U` buffer and the per-block reduction partials) lives
//! here too. No `N x M` buffer exists on either path.
//!
//! Parallelism reuses [`crate::parallel`]'s row-striping: the
//! dense-output kernels go through `parallel_over_rows`, and the SDDMM
//! splits the packed value array at row boundaries balanced by nonzero
//! count.

use crate::error::{LinalgError, Result};
use crate::mask::Mask;
use crate::matrix::Matrix;
use crate::ops::dot;
use crate::parallel::{parallel_over_rows, threads_for};

/// Mask densities above this run faster through the multiplicative
/// updater's fused dense step (which evaluates each row's
/// reconstruction in registers) than through the separate sparse
/// kernels; the updater switches on [`ObservedPattern::prefers_dense`].
pub const DENSE_PATH_THRESHOLD: f64 = 0.5;

/// Cumulative kernel-invocation counters, accumulated in the
/// [`Workspace`] across a fit.
///
/// Updated unconditionally by the optimizers (a handful of integer adds
/// per iteration — far below measurement noise), read out by the
/// telemetry layer at fit end. Counting invocations here rather than in
/// the sinks keeps the counters exact even when several kernels run
/// inside one logical step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// SDDMM evaluations (`R_Ω(U·V)` at observed entries).
    pub sddmm: u64,
    /// SpMM evaluations (`R·Vᵀ` against the CSR view).
    pub spmm: u64,
    /// SpMMᵀ evaluations (`Rᵀ·U` against the CSC view).
    pub spmm_t: u64,
    /// Iterations that took the fused dense step instead of the sparse
    /// kernels (masks above [`DENSE_PATH_THRESHOLD`]).
    pub dense_steps: u64,
    /// HALS coordinate sweeps (one full U-sweep + V-sweep each).
    pub hals_sweeps: u64,
    /// Total packed observed entries processed across all counted
    /// kernel calls.
    pub masked_nnz: u64,
}

impl KernelCounters {
    /// Total sparse-kernel invocations (SDDMM + SpMM + SpMMᵀ).
    pub fn kernel_calls(&self) -> u64 {
        self.sddmm + self.spmm + self.spmm_t
    }
}

/// `Ω` and the observed values of `X`, compiled once per fit into a
/// CSR pattern (with a CSC companion view for column-driven products).
#[derive(Debug, Clone)]
pub struct ObservedPattern {
    rows: usize,
    cols: usize,
    /// CSR: `row_ptr[i]..row_ptr[i+1]` are the packed slots of row `i`.
    row_ptr: Vec<usize>,
    /// CSR: column of each packed slot.
    col_idx: Vec<usize>,
    /// Observed values of `X`, packed in CSR (row-major) order.
    x_vals: Vec<f64>,
    /// CSC: `csc_ptr[j]..csc_ptr[j+1]` are the column-`j` entries.
    csc_ptr: Vec<usize>,
    /// CSC: row of each column-ordered entry.
    csc_rows: Vec<usize>,
    /// CSC: permutation mapping each column-ordered entry to its CSR
    /// slot, so column-driven kernels read the same packed value arrays.
    csc_perm: Vec<usize>,
}

impl ObservedPattern {
    /// Compiles the mask and the observed cells of `x` (values of `x`
    /// outside `omega` are ignored). Runs once per fit.
    pub fn compile(x: &Matrix, omega: &Mask) -> Result<Self> {
        if x.shape() != omega.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: x.shape(),
                right: omega.shape(),
                op: "pattern_compile",
            });
        }
        let (rows, cols) = x.shape();
        let nnz = omega.count();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut x_vals = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for i in 0..rows {
            let xrow = x.row(i);
            for j in omega.iter_row_set(i) {
                col_idx.push(j);
                x_vals.push(xrow[j]);
            }
            row_ptr.push(col_idx.len());
        }

        // CSC view: counting sort of the CSR slots by column.
        let mut csc_ptr = vec![0usize; cols + 1];
        for &j in &col_idx {
            csc_ptr[j + 1] += 1;
        }
        for j in 0..cols {
            csc_ptr[j + 1] += csc_ptr[j];
        }
        let mut cursor = csc_ptr.clone();
        let mut csc_rows = vec![0usize; nnz];
        let mut csc_perm = vec![0usize; nnz];
        for i in 0..rows {
            let span = row_ptr[i]..row_ptr[i + 1];
            for (slot, &j) in span.clone().zip(&col_idx[span]) {
                let dst = cursor[j];
                cursor[j] += 1;
                csc_rows[dst] = i;
                csc_perm[dst] = slot;
            }
        }
        Ok(ObservedPattern {
            rows,
            cols,
            row_ptr,
            col_idx,
            x_vals,
            csc_ptr,
            csc_rows,
            csc_perm,
        })
    }

    /// Rewrites the packed observed values from `x` without recompiling
    /// the index structure — the warm-start/refit fast path for new data
    /// arriving under an **unchanged** mask. Performs no heap
    /// allocation.
    ///
    /// # Errors
    /// - shape mismatch with the compiled grid;
    /// - `omega` observes a different cell set than the compiled
    ///   pattern (count or layout) — recompile instead.
    pub fn refill(&mut self, x: &Matrix, omega: &Mask) -> Result<()> {
        if x.shape() != (self.rows, self.cols) || omega.shape() != (self.rows, self.cols) {
            return Err(LinalgError::DimensionMismatch {
                left: x.shape(),
                right: (self.rows, self.cols),
                op: "pattern_refill",
            });
        }
        if omega.count() != self.nnz() {
            return Err(LinalgError::BadLength {
                expected: self.nnz(),
                actual: omega.count(),
            });
        }
        // Verify the layout first (equal counts can still disagree
        // cell-by-cell), so an error never leaves the values half-written.
        let mut slot = 0usize;
        for i in 0..self.rows {
            for j in omega.iter_row_set(i) {
                if self.col_idx[slot] != j {
                    return Err(LinalgError::IndexOutOfBounds {
                        index: (i, j),
                        shape: (self.rows, self.cols),
                    });
                }
                slot += 1;
            }
        }
        let mut slot = 0usize;
        for i in 0..self.rows {
            let xrow = x.row(i);
            for j in omega.iter_row_set(i) {
                self.x_vals[slot] = xrow[j];
                slot += 1;
            }
        }
        Ok(())
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

    /// Number of observed entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.x_vals.len()
    }

    /// Fraction of observed cells in `[0, 1]`; 0 for an empty grid.
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Whether the fused dense step is expected to beat the sparse
    /// kernels for this mask (see [`DENSE_PATH_THRESHOLD`]).
    pub fn prefers_dense(&self) -> bool {
        self.density() > DENSE_PATH_THRESHOLD
    }

    /// The packed observed values of `X` (CSR order).
    #[inline]
    pub fn x_vals(&self) -> &[f64] {
        &self.x_vals
    }

    /// The CSR index arrays `(row_ptr, col_idx)`: row `i` owns the packed
    /// slots `row_ptr[i]..row_ptr[i + 1]`, in ascending column order.
    /// Exposed for row-streaming kernels that fuse several products into
    /// one pass over the pattern.
    #[inline]
    pub fn csr(&self) -> (&[usize], &[usize]) {
        (&self.row_ptr, &self.col_idx)
    }

    /// `(column, packed slot)` pairs of row `i`, in column order.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        debug_assert!(i < self.rows);
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()].iter().zip(range).map(|(&j, s)| (j, s))
    }

    /// `(row, packed slot)` pairs of column `j`, in row order. The slot
    /// indexes the same CSR-ordered value arrays as [`Self::row_entries`].
    pub fn col_entries(&self, j: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        debug_assert!(j < self.cols);
        let range = self.csc_ptr[j]..self.csc_ptr[j + 1];
        self.csc_rows[range.clone()]
            .iter()
            .zip(&self.csc_perm[range])
            .map(|(&i, &s)| (i, s))
    }

    fn check_factors(&self, u: &Matrix, vt: &Matrix, op: &'static str) -> Result<usize> {
        if u.rows() != self.rows || vt.rows() != self.cols || u.cols() != vt.cols() {
            return Err(LinalgError::DimensionMismatch {
                left: u.shape(),
                right: vt.shape(),
                op,
            });
        }
        Ok(u.cols())
    }

    fn check_vals(&self, vals: &[f64], op: &'static str) -> Result<()> {
        if vals.len() != self.nnz() {
            return Err(LinalgError::BadLength {
                expected: self.nnz(),
                actual: vals.len(),
            });
        }
        let _ = op;
        Ok(())
    }

    /// SDDMM: `out[e] = u_i · vᵀ_j` for every observed entry `e = (i, j)`
    /// — the reconstruction `U·V` sampled at `Ω` only. `vt` is `V`
    /// transposed (`M x K`), so both factors are read row-contiguously.
    ///
    /// Row-parallel: the packed output is split at row boundaries into
    /// chunks of roughly equal nonzero count.
    pub fn sddmm_into(&self, u: &Matrix, vt: &Matrix, out: &mut [f64]) -> Result<()> {
        self.check_factors(u, vt, "sddmm_into")?;
        self.check_vals(out, "sddmm_into")?;
        let k = u.cols();
        let threads = threads_for(2 * self.nnz() * k);
        if threads <= 1 {
            self.sddmm_rows(u, vt, out, 0, self.rows);
            return Ok(());
        }
        let target = self.nnz().div_ceil(threads);
        std::thread::scope(|s| {
            let mut rest = out;
            let mut row = 0;
            let mut offset = 0;
            while row < self.rows {
                let start_row = row;
                let end_target = (offset + target).min(self.nnz());
                while row < self.rows && self.row_ptr[row + 1] <= end_target {
                    row += 1;
                }
                if row == start_row {
                    row += 1; // a single row larger than the target chunk
                }
                let end_offset = self.row_ptr[row];
                let (chunk, tail) = rest.split_at_mut(end_offset - offset);
                rest = tail;
                offset = end_offset;
                s.spawn(move || self.sddmm_rows(u, vt, chunk, start_row, row));
            }
        });
        Ok(())
    }

    /// Rows `start..end` of the SDDMM into `chunk` (holding exactly the
    /// packed entries of those rows).
    fn sddmm_rows(&self, u: &Matrix, vt: &Matrix, chunk: &mut [f64], start: usize, end: usize) {
        let base = self.row_ptr[start];
        for i in start..end {
            let urow = u.row(i);
            for slot in self.row_ptr[i]..self.row_ptr[i + 1] {
                chunk[slot - base] = dot(urow, vt.row(self.col_idx[slot]));
            }
        }
    }

    /// `out = R · Vᵀ` (`N x K`), where `R` is the sparse matrix holding
    /// `vals` on this pattern and `vt` is `V` transposed (`M x K`).
    /// Passing [`Self::x_vals`] gives `R_Ω(X)·Vᵀ`; passing an SDDMM
    /// output gives `R_Ω(UV)·Vᵀ`. Row-parallel via `parallel_over_rows`.
    pub fn spmm_into(&self, vals: &[f64], vt: &Matrix, out: &mut Matrix) -> Result<()> {
        self.check_vals(vals, "spmm_into")?;
        let k = vt.cols();
        if vt.rows() != self.cols || out.shape() != (self.rows, k) {
            return Err(LinalgError::DimensionMismatch {
                left: (self.rows, k),
                right: out.shape(),
                op: "spmm_into",
            });
        }
        let threads = threads_for(2 * self.nnz() * k);
        let body = |start: usize, end: usize, chunk: &mut [f64]| {
            for i in start..end {
                let orow = &mut chunk[(i - start) * k..(i - start + 1) * k];
                orow.fill(0.0);
                let span = self.row_ptr[i]..self.row_ptr[i + 1];
                for (&v, &j) in vals[span.clone()].iter().zip(&self.col_idx[span]) {
                    let vtr = vt.row(j);
                    for (o, &b) in orow.iter_mut().zip(vtr) {
                        *o += v * b;
                    }
                }
            }
        };
        parallel_over_rows(out.as_mut_slice(), k, self.rows, threads, body);
        Ok(())
    }

    /// `out = Rᵀ · U` (`M x K` — the *transposed* layout of the paper's
    /// `Uᵀ·R_Ω(·)`, chosen so every output row is contiguous), driven by
    /// the CSC view. Output rows before `row_start` (the frozen landmark
    /// columns of `V`) are zeroed but not computed. Row-parallel via
    /// `parallel_over_rows` on the live stripe.
    pub fn spmm_t_into(
        &self,
        vals: &[f64],
        u: &Matrix,
        row_start: usize,
        out: &mut Matrix,
    ) -> Result<()> {
        self.check_vals(vals, "spmm_t_into")?;
        let k = u.cols();
        if u.rows() != self.rows || out.shape() != (self.cols, k) || row_start > self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: (self.cols, k),
                right: out.shape(),
                op: "spmm_t_into",
            });
        }
        out.as_mut_slice()[..row_start * k].fill(0.0);
        let live = self.cols - row_start;
        let threads = threads_for(2 * self.nnz() * k);
        let body = |start: usize, end: usize, chunk: &mut [f64]| {
            for r in start..end {
                let j = row_start + r;
                let orow = &mut chunk[(r - start) * k..(r - start + 1) * k];
                orow.fill(0.0);
                for e in self.csc_ptr[j]..self.csc_ptr[j + 1] {
                    let v = vals[self.csc_perm[e]];
                    let urow = u.row(self.csc_rows[e]);
                    for (o, &b) in orow.iter_mut().zip(urow) {
                        *o += v * b;
                    }
                }
            }
        };
        let live_slice = &mut out.as_mut_slice()[row_start * k..];
        parallel_over_rows(live_slice, k, live, threads, body);
        Ok(())
    }

    /// `out[e] = x[e] − uv[e]`: the masked residual `R_Ω(X − UV)` in
    /// packed form.
    pub fn residual_into(&self, uv_vals: &[f64], out: &mut [f64]) -> Result<()> {
        self.check_vals(uv_vals, "residual_into")?;
        self.check_vals(out, "residual_into")?;
        for ((o, &x), &p) in out.iter_mut().zip(&self.x_vals).zip(uv_vals) {
            *o = x - p;
        }
        Ok(())
    }

    /// `‖R_Ω(X − UV)‖_F²` from the packed reconstruction — the fit term
    /// of the objective (paper Formula 10), no dense temporaries.
    pub fn fit_term(&self, uv_vals: &[f64]) -> Result<f64> {
        self.check_vals(uv_vals, "fit_term")?;
        Ok(self
            .x_vals
            .iter()
            .zip(uv_vals)
            .map(|(&x, &p)| {
                let d = x - p;
                d * d
            })
            .sum())
    }
}

/// Per-fit scratch buffers for the update loop. Allocated once (sized to
/// an [`ObservedPattern`] and a rank `K`) and reused every iteration, so
/// the updaters allocate nothing in steady state.
#[derive(Debug, Clone)]
pub struct Workspace {
    rows: usize,
    cols: usize,
    /// Packed `R_Ω(U·V)` — the SDDMM output. Valid for the current
    /// factors whenever [`Self::uv_fresh`] is set.
    pub uv_vals: Vec<f64>,
    /// Packed residual / general per-entry scratch.
    pub res_vals: Vec<f64>,
    /// `Vᵀ` (`M x K`), refreshed after each `V` update.
    pub vt: Matrix,
    /// `N x K` numerator scratch for the `U` update.
    pub numer_u: Matrix,
    /// `N x K` denominator scratch for the `U` update.
    pub denom_u: Matrix,
    /// `M x K` numerator scratch for the `V` update (transposed layout).
    pub numer_vt: Matrix,
    /// `M x K` denominator scratch for the `V` update (transposed layout).
    pub denom_vt: Matrix,
    /// `N x K` scratch for the graph product `D·U`.
    pub reg_a: Matrix,
    /// `N x K` target of the fused dense step: it writes the updated `U`
    /// here, then swaps the buffer with the caller's `U`.
    pub u_next: Matrix,
    /// Per-row-block reduction partials of the fused dense step. Empty
    /// until the first dense step sizes it; reused afterwards.
    pub block_partials: Vec<f64>,
    /// `max(N, M)` per-column scratch (HALS).
    pub col_scratch: Vec<f64>,
    /// Last-good `U` snapshot (`N x K`) for checkpoint/rollback;
    /// allocated lazily on the first [`Self::checkpoint`], so a fit
    /// that never checkpoints (a strict solve) never pays for it.
    pub snap_u: Option<Matrix>,
    /// Last-good `V` snapshot (`K x M`), paired with [`Self::snap_u`].
    pub snap_v: Option<Matrix>,
    /// `true` when [`Self::uv_vals`] matches the caller's current
    /// `(U, V)`. The sparse-engine updaters set this on exit so the next
    /// step can skip the opening SDDMM (the fused dense step keeps no
    /// packed reconstruction and clears it); clear it via
    /// [`Self::invalidate`] whenever `U` or `V` is changed outside a
    /// step.
    pub uv_fresh: bool,
    /// `true` once the current solve has recorded a checkpoint. Cleared
    /// by [`Self::begin_solve`] so a reused workspace keeps its snapshot
    /// *buffers* (no realloc) but never restores a stale iterate from a
    /// previous solve.
    snap_armed: bool,
    /// Cumulative kernel-invocation counters for this fit (telemetry).
    pub counters: KernelCounters,
}

impl Workspace {
    /// Allocates all buffers for `pattern` at rank `k`.
    pub fn new(pattern: &ObservedPattern, k: usize) -> Self {
        let (n, m) = (pattern.rows(), pattern.cols());
        Workspace {
            rows: n,
            cols: m,
            uv_vals: vec![0.0; pattern.nnz()],
            res_vals: vec![0.0; pattern.nnz()],
            vt: Matrix::zeros(m, k),
            numer_u: Matrix::zeros(n, k),
            denom_u: Matrix::zeros(n, k),
            numer_vt: Matrix::zeros(m, k),
            denom_vt: Matrix::zeros(m, k),
            reg_a: Matrix::zeros(n, k),
            u_next: Matrix::zeros(n, k),
            block_partials: Vec::new(),
            col_scratch: vec![0.0; n.max(m)],
            snap_u: None,
            snap_v: None,
            uv_fresh: false,
            snap_armed: false,
            counters: KernelCounters::default(),
        }
    }

    /// Re-sizes the nnz-dependent buffers to a new pattern over the
    /// **same grid shape** — the refit path for a changed mask. All
    /// shape-dependent scratch (including lazily sized snapshot and
    /// block-partial buffers) is kept, so only the packed-value vectors can
    /// reallocate, and only when the new mask is larger.
    pub fn rebind(&mut self, pattern: &ObservedPattern) -> Result<()> {
        if (pattern.rows(), pattern.cols()) != (self.rows, self.cols) {
            return Err(LinalgError::DimensionMismatch {
                left: (pattern.rows(), pattern.cols()),
                right: (self.rows, self.cols),
                op: "workspace_rebind",
            });
        }
        self.uv_vals.resize(pattern.nnz(), 0.0);
        self.res_vals.resize(pattern.nnz(), 0.0);
        self.uv_fresh = false;
        Ok(())
    }

    /// Resets the per-solve state (cached reconstruction, checkpoint
    /// arming, kernel counters) while keeping every buffer allocated —
    /// called by the engine at the start of each solve so a plan's
    /// workspace can be reused across solves without carrying state
    /// over. A no-op on a freshly constructed workspace.
    pub fn begin_solve(&mut self) {
        self.uv_fresh = false;
        self.snap_armed = false;
        self.counters = KernelCounters::default();
    }

    /// Marks the cached reconstruction stale — call after mutating `U`
    /// or `V` outside an update step.
    pub fn invalidate(&mut self) {
        self.uv_fresh = false;
    }

    /// Records `(u, v)` as the last-good iterate. The snapshot buffers
    /// are allocated on the first call and reused verbatim afterwards
    /// (double-buffering), so steady-state checkpointing is a pair of
    /// `memcpy`s — no heap allocation.
    pub fn checkpoint(&mut self, u: &Matrix, v: &Matrix) {
        self.snap_armed = true;
        match &mut self.snap_u {
            Some(s) if s.shape() == u.shape() => {
                s.as_mut_slice().copy_from_slice(u.as_slice());
            }
            slot => *slot = Some(u.clone()),
        }
        match &mut self.snap_v {
            Some(s) if s.shape() == v.shape() => {
                s.as_mut_slice().copy_from_slice(v.as_slice());
            }
            slot => *slot = Some(v.clone()),
        }
    }

    /// `true` once [`Self::checkpoint`] has recorded an iterate in the
    /// current solve (see [`Self::begin_solve`]).
    pub fn has_checkpoint(&self) -> bool {
        self.snap_armed && self.snap_u.is_some() && self.snap_v.is_some()
    }

    /// Restores the last checkpoint into `(u, v)` and invalidates the
    /// cached reconstruction. Returns `false` (leaving `u`/`v` alone)
    /// when no checkpoint was recorded this solve or the shapes
    /// disagree.
    pub fn restore(&mut self, u: &mut Matrix, v: &mut Matrix) -> bool {
        if !self.snap_armed {
            return false;
        }
        let (Some(su), Some(sv)) = (&self.snap_u, &self.snap_v) else {
            return false;
        };
        if su.shape() != u.shape() || sv.shape() != v.shape() {
            return false;
        }
        u.as_mut_slice().copy_from_slice(su.as_slice());
        v.as_mut_slice().copy_from_slice(sv.as_slice());
        self.uv_fresh = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::masked_product;
    use crate::ops::{matmul, matmul_at, matmul_bt};
    use crate::random::{positive_uniform_matrix, uniform_matrix};

    fn mask_mod(n: usize, m: usize, keep_mod: usize) -> Mask {
        let mut mask = Mask::empty(n, m);
        for i in 0..n {
            for j in 0..m {
                if !(i * m + j).is_multiple_of(keep_mod) {
                    mask.set(i, j, true);
                }
            }
        }
        mask
    }

    fn fixture(n: usize, m: usize, k: usize, keep_mod: usize) -> (Matrix, Mask, ObservedPattern, Matrix, Matrix) {
        let x = uniform_matrix(n, m, 0.0, 1.0, 7);
        let mask = mask_mod(n, m, keep_mod);
        let p = ObservedPattern::compile(&x, &mask).unwrap();
        let u = positive_uniform_matrix(n, k, 8);
        let v = positive_uniform_matrix(k, m, 9);
        (x, mask, p, u, v)
    }

    #[test]
    fn compile_indexes_every_observed_cell_once() {
        let (x, mask, p, _, _) = fixture(7, 5, 3, 3);
        assert_eq!(p.nnz(), mask.count());
        let via_rows: Vec<(usize, usize)> = (0..p.rows())
            .flat_map(|i| p.row_entries(i).map(move |(j, _)| (i, j)))
            .collect();
        let expected: Vec<(usize, usize)> = mask.iter_set().collect();
        assert_eq!(via_rows, expected);
        for i in 0..p.rows() {
            for (j, slot) in p.row_entries(i) {
                assert_eq!(p.x_vals()[slot], x.get(i, j));
            }
        }
    }

    #[test]
    fn csc_view_is_a_permutation_of_csr() {
        let (_, _, p, _, _) = fixture(9, 6, 2, 4);
        let mut seen = vec![false; p.nnz()];
        for j in 0..p.cols() {
            let mut last_row = None;
            for (i, slot) in p.col_entries(j) {
                assert!(last_row < Some(i), "CSC rows must ascend");
                last_row = Some(i);
                // slot must point at the CSR entry for (i, j)
                assert!(p.row_entries(i).any(|(jj, ss)| jj == j && ss == slot));
                assert!(!seen[slot]);
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sddmm_matches_masked_product() {
        let (_, mask, p, u, v) = fixture(8, 6, 3, 3);
        let vt = v.transpose();
        let mut out = vec![0.0; p.nnz()];
        p.sddmm_into(&u, &vt, &mut out).unwrap();
        let reference = masked_product(&u, &v, &mask).unwrap();
        for i in 0..p.rows() {
            for (j, slot) in p.row_entries(i) {
                assert!((out[slot] - reference.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spmm_matches_dense_products() {
        let (x, mask, p, u, v) = fixture(10, 7, 4, 3);
        let vt = v.transpose();
        let mx = mask.apply(&x).unwrap();

        let mut xvt = Matrix::zeros(10, 4);
        p.spmm_into(p.x_vals(), &vt, &mut xvt).unwrap();
        let expected = matmul_bt(&mx, &v).unwrap();
        assert!(xvt.approx_eq(&expected, 1e-12));

        let mut uv = vec![0.0; p.nnz()];
        p.sddmm_into(&u, &vt, &mut uv).unwrap();
        let mut rvt = Matrix::zeros(10, 4);
        p.spmm_into(&uv, &vt, &mut rvt).unwrap();
        let r = masked_product(&u, &v, &mask).unwrap();
        let expected2 = matmul_bt(&r, &v).unwrap();
        assert!(rvt.approx_eq(&expected2, 1e-12));
    }

    #[test]
    fn spmm_t_matches_dense_and_skips_frozen_rows() {
        let (x, mask, p, u, _) = fixture(9, 6, 3, 4);
        let mx = mask.apply(&x).unwrap();
        let mut out = Matrix::zeros(6, 3);
        p.spmm_t_into(p.x_vals(), &u, 0, &mut out).unwrap();
        let expected = matmul_at(&mx, &u).unwrap(); // (R_Ω(X))ᵀ·U, M x K
        assert!(out.approx_eq(&expected, 1e-12));

        let mut skipped = Matrix::filled(6, 3, 99.0);
        p.spmm_t_into(p.x_vals(), &u, 2, &mut skipped).unwrap();
        for j in 0..2 {
            assert!(skipped.row(j).iter().all(|&v| v == 0.0));
        }
        for j in 2..6 {
            for t in 0..3 {
                assert!((skipped.get(j, t) - expected.get(j, t)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn residual_and_fit_term_agree_with_masks() {
        let (x, mask, p, u, v) = fixture(8, 5, 3, 3);
        let full = matmul(&u, &v).unwrap();
        let vt = v.transpose();
        let mut uv = vec![0.0; p.nnz()];
        p.sddmm_into(&u, &vt, &mut uv).unwrap();
        let fit = p.fit_term(&uv).unwrap();
        let reference =
            crate::mask::masked_diff_norm_sq(&x, &full, &mask).unwrap();
        assert!((fit - reference).abs() < 1e-10);

        let mut res = vec![0.0; p.nnz()];
        p.residual_into(&uv, &mut res).unwrap();
        let direct: f64 = res.iter().map(|&r| r * r).sum();
        assert!((direct - fit).abs() < 1e-10);
    }

    #[test]
    fn empty_and_full_masks_work() {
        let x = uniform_matrix(4, 3, 0.0, 1.0, 1);
        let empty = ObservedPattern::compile(&x, &Mask::empty(4, 3)).unwrap();
        assert_eq!(empty.nnz(), 0);
        assert_eq!(empty.fit_term(&[]).unwrap(), 0.0);
        let full = ObservedPattern::compile(&x, &Mask::full(4, 3)).unwrap();
        assert_eq!(full.nnz(), 12);
        assert!(full.prefers_dense());
        assert!(!empty.prefers_dense());
    }

    #[test]
    fn shape_errors_are_reported() {
        let x = uniform_matrix(4, 3, 0.0, 1.0, 2);
        assert!(ObservedPattern::compile(&x, &Mask::full(3, 3)).is_err());
        let p = ObservedPattern::compile(&x, &Mask::full(4, 3)).unwrap();
        let u = Matrix::zeros(4, 2);
        let vt = Matrix::zeros(3, 2);
        let mut bad = vec![0.0; 5];
        assert!(p.sddmm_into(&u, &vt, &mut bad).is_err());
        assert!(p.sddmm_into(&Matrix::zeros(5, 2), &vt, &mut [0.0; 12]).is_err());
        assert!(p.spmm_into(&[0.0; 12], &vt, &mut Matrix::zeros(3, 2)).is_err());
        assert!(p.spmm_t_into(&[0.0; 12], &u, 9, &mut Matrix::zeros(3, 2)).is_err());
        assert!(p.fit_term(&[0.0]).is_err());
    }

    #[test]
    fn workspace_buffers_are_stable_across_reuse() {
        let (_, _, p, u, v) = fixture(20, 8, 3, 3);
        let mut ws = Workspace::new(&p, 3);
        let ptr_uv = ws.uv_vals.as_ptr();
        let ptr_nu = ws.numer_u.as_slice().as_ptr();
        for _ in 0..4 {
            v.transpose_into(&mut ws.vt).unwrap();
            p.sddmm_into(&u, &ws.vt, &mut ws.uv_vals).unwrap();
            p.spmm_into(&ws.uv_vals, &ws.vt, &mut ws.numer_u).unwrap();
        }
        assert_eq!(ptr_uv, ws.uv_vals.as_ptr());
        assert_eq!(ptr_nu, ws.numer_u.as_slice().as_ptr());
        assert!(ws.block_partials.is_empty());
        assert_eq!(ws.u_next.shape(), (20, 3));
    }

    #[test]
    fn checkpoint_restore_roundtrips_and_reuses_buffers() {
        let (_, _, p, u, v) = fixture(12, 5, 2, 3);
        let mut ws = Workspace::new(&p, 2);
        assert!(!ws.has_checkpoint());
        let mut cu = Matrix::zeros(12, 2);
        let mut cv = Matrix::zeros(2, 5);
        // Restore before any checkpoint is a no-op.
        assert!(!ws.restore(&mut cu, &mut cv));
        ws.checkpoint(&u, &v);
        assert!(ws.has_checkpoint());
        let ptr_u = ws.snap_u.as_ref().unwrap().as_slice().as_ptr();
        // Steady-state checkpointing keeps the same buffers.
        ws.checkpoint(&u, &v);
        assert_eq!(ptr_u, ws.snap_u.as_ref().unwrap().as_slice().as_ptr());
        ws.uv_fresh = true;
        assert!(ws.restore(&mut cu, &mut cv));
        assert!(cu.approx_eq(&u, 0.0));
        assert!(cv.approx_eq(&v, 0.0));
        assert!(!ws.uv_fresh, "restore must invalidate the cached reconstruction");
        // Shape mismatch is rejected, not silently corrupted.
        assert!(!ws.restore(&mut Matrix::zeros(3, 2), &mut cv));
    }
}
