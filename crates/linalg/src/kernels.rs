//! Fused sparse-residual iteration engine.
//!
//! The SMFL update rules (paper Formulas 13/14) only ever read the
//! reconstruction `U·V` at *observed* cells, yet the original loop
//! materialized `R_Ω(U·V)` as a dense `N x M` matrix two to three times
//! per iteration through [`crate::mask::masked_product`]. This module
//! compiles `Ω` together with the observed values of `X` **once per
//! fit** into an [`ObservedPattern`] — a CSR index structure with a CSC
//! companion view — and provides the three products the sparse `U`
//! update needs as kernels over the packed value arrays:
//!
//! - [`ObservedPattern::sddmm_into`] — `r_e = u_i · v_j` at observed
//!   entries only (sampled dense-dense matmul), row-parallel;
//! - [`ObservedPattern::spmm_into`] — `R·Vᵀ` (an `N x K` dense result)
//!   for any packed value array `R` over the pattern, covering both
//!   `R_Ω(UV)·Vᵀ` and `R_Ω(X)·Vᵀ`;
//! - [`ObservedPattern::fit_term`] — `‖R_Ω(X − UV)‖_F²` straight off
//!   the packed values ([`ObservedPattern::fit_term_from`] evaluates it
//!   from the factors, with no packed buffer).
//!
//! Every kernel writes into caller-owned buffers; the per-fit
//! [`Workspace`] owns all of them, so the inner loop of the updaters
//! performs **zero heap allocations** after the first iteration. Work
//! per iteration drops from `O(N·M·K)` to `O(|Ω|·K)`. These kernels
//! serve the multiplicative `U` update on sparse masks. The fused step —
//! gradient descent at every density, the multiplicative rules on dense
//! masks ([`ObservedPattern::prefers_dense`]) — instead streams the CSR
//! rows and CSC columns itself ([`ObservedPattern::csr`],
//! [`ObservedPattern::csc`]), fusing the reconstruction into both factor
//! updates; its column pass is also the sparse step's `V` update. No
//! `N x M` buffer exists on either path.
//!
//! The SDDMM and SpMM rows are written once, generic over the rank, and
//! run through the rank table ([`crate::rank`]): at K = 1..=8, 10, 12
//! and 20 they read `u_i` and `vᵀ_j` as rows of compile-time length and
//! the SpMM sums each output row in a stack accumulator; any other rank
//! runs the runtime-`K` instance of the same body, with the same bits,
//! summing in the output row and allocating nothing.
//!
//! Parallelism runs on [`crate::parallel`]'s worker pool: the
//! dense-output kernels go through `parallel_over_rows`, and the SDDMM
//! hands the pool chunks of the packed value array split at row
//! boundaries balanced by nonzero count. Each chunk's rows run through
//! [`crate::simd::dispatch`], as does the fit term from the factors.
//!
//! Every index array of the pattern is `u32`, and readers widen each
//! index at the load: a pattern keeps 20 bytes per observed cell (three
//! 4-byte indices and the 8-byte value) plus 4 per row and per column.
//! [`ObservedPattern::compile`] returns [`LinalgError::TooLarge`] when
//! `N`, `M` or `|Ω|` exceeds `u32::MAX`.

use crate::error::{ensure_u32, LinalgError, Result};
use crate::mask::Mask;
use crate::matrix::Matrix;
use crate::ops::dot;
use crate::parallel::{par_for_each, parallel_over_rows, threads_for};
use crate::rank::{Rank, RowSum};
use crate::simd::{dispatch, Kernel};
use crate::with_rank;
use std::mem::size_of;
use std::ops::Range;

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
    /// Iterations that took the fused row/column step instead of the
    /// sparse kernels: every gradient-descent step, and multiplicative
    /// steps on masks above [`DENSE_PATH_THRESHOLD`].
    pub dense_steps: u64,
    /// Total packed observed entries processed across all counted
    /// kernel calls.
    pub masked_nnz: u64,
}

/// `Ω` and the observed values of `X`, compiled once per fit into a
/// CSR pattern (with a CSC companion view for column-driven products).
/// Indices are `u32` (see the module docs).
#[derive(Debug, Clone)]
pub struct ObservedPattern {
    rows: usize,
    cols: usize,
    /// CSR: `row_ptr[i]..row_ptr[i+1]` are the packed slots of row `i`.
    row_ptr: Vec<u32>,
    /// CSR: column of each packed slot.
    col_idx: Vec<u32>,
    /// Observed values of `X`, packed in CSR (row-major) order.
    x_vals: Vec<f64>,
    /// CSC: `csc_ptr[j]..csc_ptr[j+1]` are the column-`j` entries.
    csc_ptr: Vec<u32>,
    /// CSC: row of each column-ordered entry.
    csc_rows: Vec<u32>,
    /// CSC: permutation mapping each column-ordered entry to its CSR
    /// slot, so column-driven kernels read the same packed value arrays.
    csc_perm: Vec<u32>,
}

impl ObservedPattern {
    /// Compiles the mask and the observed cells of `x` (values of `x`
    /// outside `omega` are ignored). Runs once per fit.
    ///
    /// # Errors
    /// - shape mismatch between `x` and `omega`;
    /// - `TooLarge` when `N`, `M` or `|Ω|` exceeds `u32::MAX`, checked
    ///   before anything is allocated.
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
        for len in [rows, cols, nnz] {
            ensure_u32("pattern_compile", len)?;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut x_vals = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for i in 0..rows {
            let xrow = x.row(i);
            for j in omega.iter_row_set(i) {
                col_idx.push(j as u32);
                x_vals.push(xrow[j]);
            }
            row_ptr.push(col_idx.len() as u32);
        }

        // CSC view: counting sort of the CSR slots by column.
        let mut csc_ptr = vec![0u32; cols + 1];
        for &j in &col_idx {
            csc_ptr[j as usize + 1] += 1;
        }
        for j in 0..cols {
            csc_ptr[j + 1] += csc_ptr[j];
        }
        let mut cursor = csc_ptr.clone();
        let mut csc_rows = vec![0u32; nnz];
        let mut csc_perm = vec![0u32; nnz];
        for i in 0..rows {
            let span = row_ptr[i] as usize..row_ptr[i + 1] as usize;
            for (slot, &j) in span.clone().zip(&col_idx[span]) {
                let dst = cursor[j as usize] as usize;
                cursor[j as usize] += 1;
                csc_rows[dst] = i as u32;
                csc_perm[dst] = slot as u32;
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
    ///   pattern (`Changed` at the first differing cell) — recompile
    ///   instead. Checked before any value is written.
    pub fn refill(&mut self, x: &Matrix, omega: &Mask) -> Result<()> {
        if x.shape() != (self.rows, self.cols) || omega.shape() != (self.rows, self.cols) {
            return Err(LinalgError::DimensionMismatch {
                left: x.shape(),
                right: (self.rows, self.cols),
                op: "pattern_refill",
            });
        }
        if let Some(index) = self.first_difference(None, omega, self.cols) {
            return Err(LinalgError::Changed {
                op: "pattern_refill",
                index,
            });
        }
        for i in 0..self.rows {
            for s in self.row_span(i) {
                self.x_vals[s] = x.get(i, self.col_idx[s] as usize);
            }
        }
        Ok(())
    }

    /// The first cell (row-major, columns `< cols`) observed by `omega`
    /// or the pattern but not both, or, when `x` is given, observed by
    /// both with another value in `x`. `omega` and `x` must have the
    /// compiled shape. One allocation-free merge per row.
    pub fn first_difference(
        &self,
        x: Option<&Matrix>,
        omega: &Mask,
        cols: usize,
    ) -> Option<(usize, usize)> {
        for i in 0..self.rows {
            let mut new = omega.iter_row_set(i).take_while(|&j| j < cols);
            let mut old = self.row_entries(i).take_while(|&(j, _)| j < cols);
            loop {
                match (new.next(), old.next()) {
                    (None, None) => break,
                    (Some(j), Some((oj, slot)))
                        if j == oj && x.is_none_or(|x| x.get(i, j) == self.x_vals[slot]) => {}
                    (Some(j), Some((oj, _))) => return Some((i, j.min(oj))),
                    (Some(j), None) | (None, Some((j, _))) => return Some((i, j)),
                }
            }
        }
        None
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
    pub fn csr(&self) -> (&[u32], &[u32]) {
        (&self.row_ptr, &self.col_idx)
    }

    /// The packed slots of row `i`.
    #[inline]
    fn row_span(&self, i: usize) -> Range<usize> {
        self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize
    }

    /// `(column, packed slot)` pairs of row `i`, in column order.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        debug_assert!(i < self.rows);
        let range = self.row_span(i);
        self.col_idx[range.clone()]
            .iter()
            .zip(range)
            .map(|(&j, s)| (j as usize, s))
    }

    /// The CSC index arrays `(csc_ptr, csc_rows, csc_perm)`: column `j`
    /// owns the entries `csc_ptr[j]..csc_ptr[j + 1]`, in ascending row
    /// order; `csc_rows[e]` is entry `e`'s row and `csc_perm[e]` its
    /// packed CSR slot (so `x_vals()[csc_perm[e]]` is its value).
    #[inline]
    pub fn csc(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.csc_ptr, &self.csc_rows, &self.csc_perm)
    }

    /// Heap bytes the pattern holds, from its buffers' capacities:
    /// `4·(N+1) + 20·|Ω| + 4·(M+1)` once compiled.
    pub fn heap_bytes(&self) -> usize {
        let indices = self.row_ptr.capacity()
            + self.col_idx.capacity()
            + self.csc_ptr.capacity()
            + self.csc_rows.capacity()
            + self.csc_perm.capacity();
        indices * size_of::<u32>() + self.x_vals.capacity() * size_of::<f64>()
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
    /// chunks of roughly equal nonzero count, one pool item each.
    pub fn sddmm_into(&self, u: &Matrix, vt: &Matrix, out: &mut [f64]) -> Result<()> {
        self.check_factors(u, vt, "sddmm_into")?;
        self.check_vals(out, "sddmm_into")?;
        let k = u.cols();
        let sddmm = |rows: Range<usize>, out: &mut [f64]| {
            with_rank!(k, |rank| dispatch(SddmmRows {
                rank,
                pattern: self,
                u,
                vt,
                rows,
                out,
            }))
        };
        let threads = threads_for(2 * self.nnz() * k);
        if threads <= 1 {
            sddmm(0..self.rows, out);
            return Ok(());
        }
        let target = self.nnz().div_ceil(threads);
        let mut rest = out;
        let mut row = 0;
        let mut offset = 0;
        let chunks = std::iter::from_fn(|| {
            if row >= self.rows {
                return None;
            }
            let start_row = row;
            let end_target = (offset + target).min(self.nnz());
            while row < self.rows && self.row_ptr[row + 1] as usize <= end_target {
                row += 1;
            }
            if row == start_row {
                row += 1; // a single row larger than the target chunk
            }
            let end_offset = self.row_ptr[row] as usize;
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(end_offset - offset);
            rest = tail;
            offset = end_offset;
            Some((start_row..row, chunk))
        });
        par_for_each(threads, chunks, |(rows, out)| sddmm(rows, out));
        Ok(())
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
        let body = |start: usize, end: usize, out: &mut [f64]| {
            with_rank!(k, |rank| dispatch(SpmmRows {
                rank,
                pattern: self,
                vals,
                vt,
                rows: start..end,
                out,
            }))
        };
        parallel_over_rows(out.as_mut_slice(), k, self.rows, threads, body);
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

    /// `‖R_Ω(X − UV)‖_F²` from the factors (`vt` is `V` transposed):
    /// one serial pass over the CSR rows, with no packed buffer, through
    /// [`dispatch`].
    pub fn fit_term_from(&self, u: &Matrix, vt: &Matrix) -> Result<f64> {
        self.check_factors(u, vt, "fit_term_from")?;
        Ok(dispatch(FitTerm {
            pattern: self,
            u,
            vt,
        }))
    }
}

/// Rows `rows` of the SDDMM into `out`, which holds exactly the packed
/// entries of those rows. `u_i` and `vᵀ_j` are read as `K`-long rows of
/// the rank's instance.
struct SddmmRows<'a, R> {
    rank: R,
    pattern: &'a ObservedPattern,
    u: &'a Matrix,
    vt: &'a Matrix,
    rows: Range<usize>,
    out: &'a mut [f64],
}

impl<R: Rank> Kernel for SddmmRows<'_, R> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let (p, k) = (self.pattern, self.rank.k());
        let (u, vt) = (self.u.as_slice(), self.vt.as_slice());
        let base = p.row_ptr[self.rows.start] as usize;
        for i in self.rows {
            let ui = &u[i * k..][..k];
            for slot in p.row_span(i) {
                let vj = &vt[p.col_idx[slot] as usize * k..][..k];
                self.out[slot - base] = dot(ui, vj);
            }
        }
    }
}

/// Rows `rows` of the SpMM `R·Vᵀ` into `out`, which holds exactly those
/// rows of the `N x K` result. Each row is summed from 0.0 in slot order
/// in the rank's [`Rank::row`]: a stack array copied out at a fixed rank,
/// the output row itself at a runtime rank.
struct SpmmRows<'a, R> {
    rank: R,
    pattern: &'a ObservedPattern,
    vals: &'a [f64],
    vt: &'a Matrix,
    rows: Range<usize>,
    out: &'a mut [f64],
}

impl<R: Rank> Kernel for SpmmRows<'_, R> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let (p, k, start) = (self.pattern, self.rank.k(), self.rows.start);
        let vt = self.vt.as_slice();
        let mut row = self.rank.row();
        for i in self.rows {
            let orow = &mut self.out[(i - start) * k..][..k];
            let sum = row.start(orow);
            let span = p.row_span(i);
            for (&v, &j) in self.vals[span.clone()].iter().zip(&p.col_idx[span]) {
                for (o, &b) in sum.iter_mut().zip(&vt[j as usize * k..][..k]) {
                    *o += v * b;
                }
            }
            row.finish(orow);
        }
    }
}

/// [`ObservedPattern::fit_term_from`]'s kernel.
struct FitTerm<'a> {
    pattern: &'a ObservedPattern,
    u: &'a Matrix,
    vt: &'a Matrix,
}

impl Kernel for FitTerm<'_> {
    type Out = f64;

    #[inline(always)]
    fn run(self) -> f64 {
        let p = self.pattern;
        let mut fit = 0.0;
        for i in 0..p.rows {
            let urow = self.u.row(i);
            for slot in p.row_span(i) {
                let d = p.x_vals[slot] - dot(urow, self.vt.row(p.col_idx[slot] as usize));
                fit += d * d;
            }
        }
        fit
    }
}

/// Per-fit scratch buffers for the update loop, reused every iteration,
/// so the updaters allocate nothing in steady state.
///
/// An update step reads the committed `(U, V)` and writes the next
/// iterate into [`Self::u_next`] / [`Self::v_next`]; the caller judges
/// the step's score of its input and then adopts the candidate with
/// [`Self::commit`] (a buffer swap), or drops it by not committing.
/// Buffers only some steps read are sized on first use: the sparse-engine
/// scratch by [`Self::size_sparse`] (the fused step never reads it), the
/// fused step's block partials by that step, and the checkpoint pair by
/// [`Self::checkpoint_committed`].
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Packed `R_Ω(U·V)` — the SDDMM output (sparse engine).
    pub uv_vals: Vec<f64>,
    /// `Vᵀ` (`M x K`) of the step's input.
    pub vt: Matrix,
    /// `N x K` denominator scratch for the `U` update (sparse engine;
    /// the numerator is formed in [`Self::u_next`] itself).
    pub denom_u: Matrix,
    /// `N x K` scratch for the graph product `D·U` (sparse engine).
    pub reg_a: Matrix,
    /// `N x K`: the candidate `U` a step writes.
    pub u_next: Matrix,
    /// `K x M`: the candidate `V` a step writes, frozen landmark columns
    /// included.
    pub v_next: Matrix,
    /// Per-row-block reduction partials of the fused step. Empty until
    /// the first fused step sizes it; reused afterwards.
    pub block_partials: Vec<f64>,
    /// Last-good `U` snapshot (`N x K`) for checkpoint/rollback;
    /// allocated lazily on the first [`Self::checkpoint_committed`], so
    /// a fit that never checkpoints (a strict solve) never pays for it.
    pub snap_u: Option<Matrix>,
    /// Last-good `V` snapshot (`K x M`), paired with [`Self::snap_u`].
    pub snap_v: Option<Matrix>,
    /// `true` once the current solve has recorded a checkpoint. Cleared
    /// by [`Self::begin_solve`] so a reused workspace keeps its snapshot
    /// *buffers* (no realloc) but never restores a stale iterate from a
    /// previous solve.
    snap_armed: bool,
    /// Cumulative kernel-invocation counters for this fit (telemetry).
    pub counters: KernelCounters,
}

impl Workspace {
    /// Allocates the buffers every step needs for `pattern` at rank `k`.
    pub fn new(pattern: &ObservedPattern, k: usize) -> Self {
        let (n, m) = (pattern.rows(), pattern.cols());
        Workspace {
            uv_vals: Vec::new(),
            vt: Matrix::zeros(m, k),
            denom_u: Matrix::zeros(0, 0),
            reg_a: Matrix::zeros(0, 0),
            u_next: Matrix::zeros(n, k),
            v_next: Matrix::zeros(k, m),
            block_partials: Vec::new(),
            snap_u: None,
            snap_v: None,
            snap_armed: false,
            counters: KernelCounters::default(),
        }
    }

    /// Sizes the sparse-engine scratch (`uv_vals`, `denom_u`, `reg_a`)
    /// for a pattern with `nnz` observed entries.
    /// Allocates on first use and when a changed mask grows the packed
    /// vector; a no-op in steady state.
    pub fn size_sparse(&mut self, nnz: usize) {
        self.uv_vals.resize(nnz, 0.0);
        let (n, k) = self.u_next.shape();
        if self.denom_u.shape() != (n, k) {
            self.denom_u = Matrix::zeros(n, k);
            self.reg_a = Matrix::zeros(n, k);
        }
    }

    /// Adopts the candidate a step left in [`Self::u_next`] /
    /// [`Self::v_next`] as the new `(u, v)`: a buffer swap, so the old
    /// factors become the next step's output buffers.
    pub fn commit(&mut self, u: &mut Matrix, v: &mut Matrix) {
        std::mem::swap(u, &mut self.u_next);
        std::mem::swap(v, &mut self.v_next);
    }

    /// Resets the per-solve state (checkpoint arming, kernel counters)
    /// while keeping every buffer allocated — called by the engine at
    /// the start of each solve so a plan's workspace can be reused
    /// across solves without carrying state over. A no-op on a freshly
    /// constructed workspace.
    pub fn begin_solve(&mut self) {
        self.snap_armed = false;
        self.counters = KernelCounters::default();
    }

    /// Records the iterate the last [`Self::commit`] replaced — it now
    /// sits in [`Self::u_next`] / [`Self::v_next`] — as the last-good
    /// iterate, by swapping those buffers with the snapshot pair: no
    /// copy. The candidate buffers receive the old snapshot, which the
    /// next step overwrites in full. The pair is allocated (a copy) on
    /// the first call only, so steady-state checkpointing allocates
    /// nothing.
    pub fn checkpoint_committed(&mut self) {
        self.snap_armed = true;
        for (snap, next) in [
            (&mut self.snap_u, &mut self.u_next),
            (&mut self.snap_v, &mut self.v_next),
        ] {
            match snap {
                Some(s) if s.shape() == next.shape() => std::mem::swap(s, next),
                slot => *slot = Some(next.clone()),
            }
        }
    }

    /// Heap bytes of the step scratch, from the buffers' capacities; the
    /// checkpoint pair is counted by [`Self::checkpoint_bytes`].
    pub fn heap_bytes(&self) -> usize {
        let matrices = [
            &self.vt,
            &self.denom_u,
            &self.reg_a,
            &self.u_next,
            &self.v_next,
        ];
        matrices.iter().map(|m| m.heap_bytes()).sum::<usize>()
            + (self.uv_vals.capacity() + self.block_partials.capacity()) * size_of::<f64>()
    }

    /// Heap bytes of the checkpoint pair: 0 until the first checkpoint.
    pub fn checkpoint_bytes(&self) -> usize {
        [&self.snap_u, &self.snap_v]
            .into_iter()
            .flatten()
            .map(Matrix::heap_bytes)
            .sum()
    }

    /// `true` once [`Self::checkpoint_committed`] has recorded an iterate
    /// in the current solve (see [`Self::begin_solve`]).
    pub fn has_checkpoint(&self) -> bool {
        self.snap_armed && self.snap_u.is_some() && self.snap_v.is_some()
    }

    /// Restores the last checkpoint into `(u, v)`. Returns `false`
    /// (leaving `u`/`v` alone) when no checkpoint was recorded this
    /// solve or the shapes disagree.
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
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::masked_product;
    use crate::ops::{matmul, matmul_bt};
    use crate::random::{positive_uniform_matrix, uniform_matrix};
    use crate::rank::{Runtime, FIXED_RANKS};

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

    fn fixture(
        n: usize,
        m: usize,
        k: usize,
        keep_mod: usize,
    ) -> (Matrix, Mask, ObservedPattern, Matrix, Matrix) {
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
        // Only the compiled cells refill; values compare below `cols`.
        let (mut more, mut y) = (mask.clone(), x.clone());
        more.set(0, 0, true);
        let err = p.clone().refill(&x, &more).unwrap_err();
        assert_eq!(
            err,
            LinalgError::Changed {
                op: "pattern_refill",
                index: (0, 0)
            }
        );
        y.set(1, 2, 9.0);
        assert_eq!(p.first_difference(Some(&y), &mask, 5), Some((1, 2)));
        assert_eq!(p.first_difference(Some(&y), &mask, 2), None);
    }

    #[test]
    fn csc_view_is_a_permutation_of_csr() {
        let (_, _, p, _, _) = fixture(9, 6, 2, 4);
        let (csc_ptr, csc_rows, csc_perm) = p.csc();
        let mut seen = vec![false; p.nnz()];
        for j in 0..p.cols() {
            let mut last_row = None;
            for e in csc_ptr[j] as usize..csc_ptr[j + 1] as usize {
                let (i, slot) = (csc_rows[e] as usize, csc_perm[e] as usize);
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
    fn residual_and_fit_term_agree_with_masks() {
        let (x, mask, p, u, v) = fixture(8, 5, 3, 3);
        let full = matmul(&u, &v).unwrap();
        let vt = v.transpose();
        let mut uv = vec![0.0; p.nnz()];
        p.sddmm_into(&u, &vt, &mut uv).unwrap();
        let fit = p.fit_term(&uv).unwrap();
        let reference = crate::mask::masked_diff_norm_sq(&x, &full, &mask).unwrap();
        assert!((fit - reference).abs() < 1e-10);
        assert!((p.fit_term_from(&u, &vt).unwrap() - reference).abs() < 1e-10);

        let direct: f64 = p
            .x_vals()
            .iter()
            .zip(&uv)
            .map(|(&x, &r)| (x - r) * (x - r))
            .sum();
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
        assert!(p
            .sddmm_into(&Matrix::zeros(5, 2), &vt, &mut [0.0; 12])
            .is_err());
        assert!(p
            .spmm_into(&[0.0; 12], &vt, &mut Matrix::zeros(3, 2))
            .is_err());
        assert!(p.fit_term(&[0.0]).is_err());
    }

    #[test]
    fn workspace_buffers_are_stable_across_reuse() {
        let (_, _, p, u, v) = fixture(20, 8, 3, 3);
        let mut ws = Workspace::new(&p, 3);
        assert!(
            ws.uv_vals.is_empty(),
            "sparse scratch is sized on first use"
        );
        ws.size_sparse(p.nnz());
        let ptr_uv = ws.uv_vals.as_ptr();
        let ptr_du = ws.denom_u.as_slice().as_ptr();
        for _ in 0..4 {
            ws.size_sparse(p.nnz());
            v.transpose_into(&mut ws.vt).unwrap();
            p.sddmm_into(&u, &ws.vt, &mut ws.uv_vals).unwrap();
            p.spmm_into(&ws.uv_vals, &ws.vt, &mut ws.denom_u).unwrap();
        }
        assert_eq!(ptr_uv, ws.uv_vals.as_ptr());
        assert_eq!(ptr_du, ws.denom_u.as_slice().as_ptr());
        assert!(ws.block_partials.is_empty());
        assert_eq!(ws.u_next.shape(), (20, 3));
        assert_eq!(ws.v_next.shape(), (3, 8));
    }

    #[test]
    fn checkpoint_restore_roundtrips_and_reuses_buffers() {
        let (_, _, p, u, v) = fixture(12, 5, 2, 3);
        let mut ws = Workspace::new(&p, 2);
        assert!(!ws.has_checkpoint());
        assert_eq!(ws.checkpoint_bytes(), 0);
        let mut cu = Matrix::zeros(12, 2);
        let mut cv = Matrix::zeros(2, 5);
        // Restore before any checkpoint is a no-op.
        assert!(!ws.restore(&mut cu, &mut cv));
        // A step's candidate, committed: the old (u, v) land in the
        // candidate buffers, where the checkpoint takes them from.
        let (mut a, mut b) = (u.clone(), v.clone());
        ws.u_next = u.scale(2.0);
        ws.v_next = v.scale(2.0);
        ws.commit(&mut a, &mut b);
        ws.checkpoint_committed();
        assert!(ws.has_checkpoint());
        assert_eq!(ws.checkpoint_bytes(), 8 * (12 * 2 + 2 * 5));
        let ptr_snap = ws.snap_u.as_ref().unwrap().as_slice().as_ptr();
        let ptr_a = a.as_slice().as_ptr();
        // Steady-state checkpointing swaps buffers: it neither copies
        // nor allocates, and restore copies the snapshot out.
        ws.commit(&mut a, &mut b);
        ws.checkpoint_committed();
        assert_eq!(ptr_a, ws.snap_u.as_ref().unwrap().as_slice().as_ptr());
        assert_eq!(ptr_snap, ws.u_next.as_slice().as_ptr());
        assert!(ws.restore(&mut cu, &mut cv));
        assert!(cu.approx_eq(&u.scale(2.0), 0.0));
        assert!(cv.approx_eq(&v.scale(2.0), 0.0));
        // Shape mismatch is rejected, not silently corrupted.
        assert!(!ws.restore(&mut Matrix::zeros(3, 2), &mut cv));
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `kernel` through `dispatch` when `wide`, else directly (the
    /// baseline instance).
    fn run_kernel<K: Kernel>(kernel: K, wide: bool) -> K::Out {
        if wide {
            dispatch(kernel)
        } else {
            kernel.run()
        }
    }

    /// The bits of the SDDMM of `(u, vt)` and of the SpMM of that
    /// SDDMM's output with `vt`, every row in one kernel call, at `rank`.
    fn products<R: Rank>(
        rank: R,
        p: &ObservedPattern,
        u: &Matrix,
        vt: &Matrix,
        wide: bool,
    ) -> [Vec<u64>; 2] {
        let rows = 0..p.rows();
        let mut uv = vec![f64::NAN; p.nnz()];
        let sddmm = SddmmRows {
            rank,
            pattern: p,
            u,
            vt,
            rows: rows.clone(),
            out: &mut uv,
        };
        run_kernel(sddmm, wide);
        let mut out = vec![f64::NAN; p.rows() * rank.k()];
        let spmm = SpmmRows {
            rank,
            pattern: p,
            vals: &uv,
            vt,
            rows,
            out: &mut out,
        };
        run_kernel(spmm, wide);
        assert!(uv.iter().chain(&out).all(|a| a.is_finite()));
        [bits(&uv), bits(&out)]
    }

    #[test]
    fn both_instances_agree_bitwise() {
        if !crate::simd::avx2_instance() {
            eprintln!("no AVX2 on this CPU: only the baseline instance is checked");
        }
        for keep_mod in [2, 14] {
            for k in FIXED_RANKS.iter().copied().chain([13, 24]) {
                let (_, _, p, u, v) = fixture(300, 13, k, keep_mod);
                let vt = v.transpose();
                with_rank!(k, |rank| {
                    let [sddmm, spmm] = products(rank, &p, &u, &vt, false);
                    let [wide_sddmm, wide_spmm] = products(rank, &p, &u, &vt, true);
                    assert_eq!(sddmm, wide_sddmm, "SDDMM rows, K = {k}");
                    assert_eq!(spmm, wide_spmm, "SpMM rows, K = {k}");
                });

                let fit = FitTerm {
                    pattern: &p,
                    u: &u,
                    vt: &vt,
                };
                let wide_fit = dispatch(FitTerm {
                    pattern: &p,
                    u: &u,
                    vt: &vt,
                });
                assert_eq!(fit.run().to_bits(), wide_fit.to_bits(), "fit term, K = {k}");
            }
        }
    }

    #[test]
    fn fixed_and_runtime_instances_agree_bitwise() {
        for keep_mod in [2, 14] {
            for &k in FIXED_RANKS {
                let (_, _, p, u, v) = fixture(300, 13, k, keep_mod);
                let vt = v.transpose();
                let [sddmm, spmm] = with_rank!(k, |rank| products(rank, &p, &u, &vt, true));
                let [run_sddmm, run_spmm] = products(Runtime(k), &p, &u, &vt, true);
                assert_eq!(sddmm, run_sddmm, "SDDMM rows, K = {k}");
                assert_eq!(spmm, run_spmm, "SpMM rows, K = {k}");
            }
        }
    }
}
