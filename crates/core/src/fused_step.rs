//! The fused step: both of the paper's optimizers — the multiplicative
//! rules (Formulas 13/14) and projected gradient descent (§III-B1) — as
//! one row pass and one column pass over the compiled pattern of `Ω`.
//! Gradient descent takes it at every density, the multiplicative rules
//! for masks above `kernels::DENSE_PATH_THRESHOLD` (every paper
//! experiment, whose tall, narrow tables are ~93% observed).
//!
//! The step streams the CSR rows and CSC columns of `Ω` and keeps each
//! reconstruction `r_ij = u_i · v_j` in registers, so it is correct at
//! any density and never builds an `N x M` buffer:
//!
//! 1. **Row pass** — per row `i` of the input `U`, the sums
//!    `numer = Σ_j x_ij·v_j + λ·(D·U)_i` and `denom = Σ_j r_ij·v_j + λ·w_i·u_i`
//!    accumulate in `K` registers and the updated row goes to
//!    [`Workspace::u_next`]. The same visit scores the *input* factors:
//!    the fit term `Σ_j (x_ij − r_ij)²` from the `r_ij` it forms anyway,
//!    and the Laplacian term `w_i·|u_i|² − u_i·(D·U)_i` from a `D·U` row
//!    accumulated beside the numerator.
//! 2. **Column pass** — per live column `j` (the CSC view, values read
//!    through `csc_perm`), `numer = Σ_i x_ij·u'_i` and
//!    `denom = Σ_i (u'_i · v_j)·u'_i` over the new rows `u'_i` and the old
//!    `v_j`, in registers; the new column goes to [`Workspace::v_next`],
//!    whose frozen landmark columns are copied unchanged.
//!
//! The sparse multiplicative step runs the column pass too
//! ([`column_step`]), so every rule and path updates `V` by this code.
//!
//! The two optimizers read the same sums and differ only in how an entry
//! `a` combines them ([`Rule`]): the multiplicative rule takes
//! `a·numer/(denom + EPS)`, gradient descent `max(0, a + 2η(numer − denom))`,
//! since `2(denom − numer)` is the objective's gradient in `a` (with
//! `L·U = w∘U − D·U`).
//!
//! The step returns the score of the factors it read; the caller judges
//! it before committing the candidate.
//!
//! The body is written once, generic over the rule and the rank. The
//! rank table of `smfl_linalg::rank` (`with_rank!`, shared with the
//! sparse kernels) runs it in a compile-time-`K` instance, whose loops
//! unroll and whose accumulators stay in registers, at K = 1..=8, 10,
//! 12 and 20 — the ranks the defaults, the paper's sweep and the wide
//! tables run — and in a runtime-`K` instance at any other rank. The
//! accumulators are values the body owns (`Rank::acc`: `[[f64; K]; 4]`,
//! or one `4·K` `Vec` at a runtime rank), never state behind a
//! callback.
//!
//! Each pass is cut into [`Kernel`]s — a [`BLOCK_ROWS`]-row block of the
//! row pass ([`RowBlock`]), a stripe of columns of the column pass
//! ([`ColumnStripe`]) — and every one runs through
//! [`smfl_linalg::simd::dispatch`], so a CPU with AVX2 runs the AVX2
//! instance of the same body, with the same bits (see that module).
//!
//! Parallelism: below `PARALLEL_FLOP_THRESHOLD` (judged, like the sparse
//! kernels, by `2·|Ω|·K` per pass) everything runs on the calling
//! thread. Above it the row pass hands runs of row blocks, and the
//! column pass stripes of columns, to `smfl_linalg::parallel`'s worker
//! pool; the calling thread takes a share, and a dispatch allocates
//! nothing. The threshold (500k) sits below the paper's Lake step
//! (`2·51,991·6 ≈ 624k`), so paper-scale fits use every core. New rows
//! and columns are independent; the fit and Laplacian sums are reduced
//! over fixed [`BLOCK_ROWS`]-row blocks in block order, and each column
//! folds its sums over the same blocks, whether one thread or many
//! computed them, so results are bitwise identical at any
//! `SMFL_THREADS`.

use crate::health::DENOM_EPS as EPS;
use crate::objective::ObjectiveTerms;
use crate::updater::UpdateContext;
use smfl_linalg::ops::dot;
use smfl_linalg::parallel::{par_for_each, parallel_over_rows, threads_for};
use smfl_linalg::rank::{Rank, Slots};
use smfl_linalg::simd::{dispatch, Kernel};
use smfl_linalg::{with_rank, LinalgError, Matrix, Result, Workspace};
use smfl_spatial::SpatialGraph;
use std::ops::Range;

/// Rows per reduction block. Block boundaries depend only on `N`, so the
/// reduction order never depends on the thread count.
const BLOCK_ROWS: usize = 512;

/// How an entry `a` of `U` or `V` combines the passes' sums `numer` and
/// `denom` into its successor.
pub(crate) trait Rule: Copy + Send + Sync {
    /// The successor of an entry of `U`.
    fn u(self, a: f64, numer: f64, denom: f64) -> f64;
    /// The successor of a live entry of `V`.
    fn v(self, a: f64, numer: f64, denom: f64) -> f64;
}

/// The multiplicative rules, Formulas 13 (`U`) and 14 (`V`). The two
/// associate their products differently, as recorded fits did, so those
/// fits stay bitwise reproducible.
#[derive(Clone, Copy)]
pub(crate) struct Multiplicative;

impl Rule for Multiplicative {
    #[inline(always)]
    fn u(self, a: f64, numer: f64, denom: f64) -> f64 {
        a * (numer / (denom + EPS))
    }

    #[inline(always)]
    fn v(self, a: f64, numer: f64, denom: f64) -> f64 {
        a * numer / (denom + EPS)
    }
}

/// Projected gradient descent with step `2η` on both factors.
#[derive(Clone, Copy)]
pub(crate) struct Gradient {
    /// Twice the learning rate `η`.
    pub(crate) step: f64,
}

impl Rule for Gradient {
    /// `max(0, a + 2η(numer − denom))`; a NaN stays NaN, so the health
    /// sentinel sees it.
    #[inline(always)]
    fn u(self, a: f64, numer: f64, denom: f64) -> f64 {
        let next = a + self.step * (numer - denom);
        if next < 0.0 {
            0.0
        } else {
            next
        }
    }

    #[inline(always)]
    fn v(self, a: f64, numer: f64, denom: f64) -> f64 {
        self.u(a, numer, denom)
    }
}

/// One iteration of `rule` on the fused passes: writes the updated
/// factors to `ws.u_next` / `ws.v_next` and returns the objective terms
/// of the input `(U, V)`.
pub(crate) fn fused_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &Matrix,
    v: &Matrix,
    rule: impl Rule,
) -> Result<ObjectiveTerms> {
    let (n, m) = (ctx.pattern.rows(), ctx.pattern.cols());
    let k = u.cols();
    for (shape, want, op) in [
        (u.shape(), (n, k), "fused_step_u"),
        (v.shape(), (k, m), "fused_step_v"),
        (ws.u_next.shape(), (n, k), "fused_step_workspace"),
        (ws.v_next.shape(), (k, m), "fused_step_workspace"),
        (ws.vt.shape(), (m, k), "fused_step_workspace"),
    ] {
        if shape != want {
            return Err(LinalgError::DimensionMismatch {
                left: want,
                right: shape,
                op,
            });
        }
    }
    with_rank!(k, |rank| step(rank, rule, ctx, ws, u, v))
}

/// The column pass alone, on the new `U` in `ws.u_next` (`N x K`) and
/// the old `Vᵀ` in `ws.vt` (`M x K`): the sparse step's `V` update.
pub(crate) fn column_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    rule: impl Rule,
) -> Result<()> {
    with_rank!(ws.u_next.cols(), |rank| column_pass(rank, rule, ctx, ws))
}

/// The step body, generic over the rank and the rule. Shapes are
/// checked by the caller.
fn step<R: Rank>(
    rank: R,
    rule: impl Rule,
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &Matrix,
    v: &Matrix,
) -> Result<ObjectiveTerms> {
    let pattern = ctx.pattern;
    let n = pattern.rows();
    let k = rank.k();
    let (row_ptr, col_idx) = pattern.csr();
    let threads = threads_for(2 * pattern.nnz() * k);
    let blocks = n.div_ceil(BLOCK_ROWS);
    // Per block: the fit and Laplacian sums of the input factors.
    if ws.block_partials.len() < 2 * blocks {
        ws.block_partials.resize(2 * blocks, 0.0);
    }
    v.transpose_into(&mut ws.vt)?;

    // ---- Row pass: the new U, and the score of (U, V) ----
    let pass = RowPass {
        rank,
        rule,
        n,
        row_ptr,
        col_idx,
        xv: pattern.x_vals(),
        u: u.as_slice(),
        vt: ws.vt.as_slice(),
        graph: ctx.active_graph(),
        lambda: ctx.lambda,
    };
    let partials = &mut ws.block_partials[..2 * blocks];
    over_blocks(
        threads,
        n,
        k,
        ws.u_next.as_mut_slice(),
        partials,
        |block, out, sums| sums.copy_from_slice(&dispatch(RowBlock { pass, block, out })),
    );
    let (fit, laplacian) = ws.block_partials[..2 * blocks]
        .chunks_exact(2)
        .fold((0.0, 0.0), |(f, l), s| (f + s[0], l + s[1]));

    column_pass(rank, rule, ctx, ws)?;

    ws.counters.dense_steps += 1;
    ws.counters.masked_nnz += pattern.nnz() as u64;
    Ok(ObjectiveTerms { fit, laplacian })
}

/// The row pass's inputs, shared by its blocks.
#[derive(Clone, Copy)]
struct RowPass<'a, R, U> {
    rank: R,
    rule: U,
    n: usize,
    row_ptr: &'a [u32],
    col_idx: &'a [u32],
    xv: &'a [f64],
    /// The input `U`, row-major `N x K`.
    u: &'a [f64],
    /// The input `Vᵀ`, row-major `M x K`.
    vt: &'a [f64],
    /// The graph when its term is active.
    graph: Option<&'a SpatialGraph>,
    lambda: f64,
}

/// Block `block` of the row pass: writes the block's new rows of `U` to
/// `out` and returns the block's `[fit, laplacian]` sums of the input.
struct RowBlock<'a, R, U> {
    pass: RowPass<'a, R, U>,
    block: usize,
    out: &'a mut [f64],
}

impl<R: Rank, U: Rule> Kernel for RowBlock<'_, R, U> {
    type Out = [f64; 2];

    #[inline(always)]
    fn run(self) -> [f64; 2] {
        let RowPass {
            rank,
            rule,
            n,
            row_ptr,
            col_idx,
            xv,
            u,
            vt,
            graph,
            lambda,
        } = self.pass;
        let k = rank.k();
        let mut acc = rank.acc();
        let [numer, denom, du, _] = acc.slots();
        let (mut fit, mut lap) = (0.0, 0.0);
        let first = self.block * BLOCK_ROWS;
        for i in first..(first + BLOCK_ROWS).min(n) {
            let ui = &u[i * k..][..k];
            let span = row_ptr[i] as usize..row_ptr[i + 1] as usize;
            numer.fill(0.0);
            denom.fill(0.0);
            for (&j, &x) in col_idx[span.clone()].iter().zip(&xv[span]) {
                let vj = &vt[j as usize * k..][..k];
                let r = dot(ui, vj);
                let d = x - r;
                fit += d * d;
                for ((nt, dt), &b) in numer.iter_mut().zip(denom.iter_mut()).zip(vj) {
                    *nt += x * b;
                    *dt += r * b;
                }
            }
            if let Some(g) = graph {
                du.fill(0.0);
                let nbrs = g.neighbors(i);
                for &t in nbrs {
                    let ut = &u[t as usize * k..][..k];
                    for ((nt, gt), &b) in numer.iter_mut().zip(du.iter_mut()).zip(ut) {
                        *nt += lambda * b;
                        *gt += b;
                    }
                }
                let w = nbrs.len() as f64;
                lap += w * dot(ui, ui) - dot(ui, du);
                for (dt, &a) in denom.iter_mut().zip(ui) {
                    *dt += lambda * (w * a);
                }
            }
            // The new row is formed in `numer`, then copied out: the
            // compiler cannot tell `out` (a field, not a parameter) from
            // `u`, and a combine that stores into `out` between reads of
            // `u` stays scalar and takes the accumulators' vector form
            // with it (1.3x slower on Lake's step).
            for ((nt, &dt), &a) in numer.iter_mut().zip(&*denom).zip(ui) {
                *nt = rule.u(a, *nt, dt);
            }
            self.out[(i - first) * k..][..k].copy_from_slice(numer);
        }
        [fit, lap]
    }
}

/// The new `V` from the new `U`, in place in the old `Vᵀ`, then into
/// `ws.v_next`. Each live column rewrites only its own row of `vt`.
fn column_pass<R: Rank>(
    rank: R,
    rule: impl Rule,
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
) -> Result<()> {
    let (m, k, v_start) = (ctx.pattern.cols(), rank.k(), ctx.v_start_col());
    let (csc_ptr, csc_rows, csc_perm) = ctx.pattern.csc();
    let threads = threads_for(2 * ctx.pattern.nnz() * k);
    let pass = ColumnPass {
        rank,
        rule,
        csc_ptr,
        csc_rows,
        csc_perm,
        xv: ctx.pattern.x_vals(),
        un: ws.u_next.as_slice(),
    };
    let live = &mut ws.vt.as_mut_slice()[v_start * k..];
    parallel_over_rows(live, k, m - v_start, threads, |c0, c1, vt| {
        let cols = v_start + c0..v_start + c1;
        dispatch(ColumnStripe { pass, cols, vt })
    });
    ws.vt.transpose_into(&mut ws.v_next)?;
    debug_assert!(ctx
        .landmarks
        .is_none_or(|lm| lm.verify_injected(&ws.v_next)));
    Ok(())
}

/// The column pass's inputs, shared by its stripes.
#[derive(Clone, Copy)]
struct ColumnPass<'a, R, U> {
    rank: R,
    rule: U,
    csc_ptr: &'a [u32],
    csc_rows: &'a [u32],
    csc_perm: &'a [u32],
    xv: &'a [f64],
    /// The new `U`, row-major `N x K`.
    un: &'a [f64],
}

/// Columns `cols` of the column pass: `vt` holds their rows of the old
/// `Vᵀ`, which the new columns overwrite.
struct ColumnStripe<'a, R, U> {
    pass: ColumnPass<'a, R, U>,
    cols: Range<usize>,
    vt: &'a mut [f64],
}

impl<R: Rank, U: Rule> Kernel for ColumnStripe<'_, R, U> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let ColumnPass {
            rank,
            rule,
            csc_ptr,
            csc_rows,
            csc_perm,
            xv,
            un,
        } = self.pass;
        let k = rank.k();
        let mut acc = rank.acc();
        let [numer, denom, bn, bd] = acc.slots();
        let c0 = self.cols.start;
        for j in self.cols {
            let vj = &mut self.vt[(j - c0) * k..][..k];
            numer.fill(0.0);
            denom.fill(0.0);
            // Sum per BLOCK_ROWS-row block, then fold the blocks in
            // order: the association of a row-blocked reduction, so V
            // is bitwise that of fits recorded with one. Each fold
            // clears the block sums for the next block or column.
            let mut block = usize::MAX;
            for e in csc_ptr[j] as usize..csc_ptr[j + 1] as usize {
                let i = csc_rows[e] as usize;
                if i / BLOCK_ROWS != block {
                    fold_block(numer, denom, bn, bd);
                    block = i / BLOCK_ROWS;
                }
                let x = xv[csc_perm[e] as usize];
                let ui = &un[i * k..][..k];
                let r = dot(ui, vj);
                for ((nt, dt), &a) in bn.iter_mut().zip(bd.iter_mut()).zip(ui) {
                    *nt += x * a;
                    *dt += r * a;
                }
            }
            fold_block(numer, denom, bn, bd);
            for ((o, &nt), &dt) in vj.iter_mut().zip(&*numer).zip(&*denom) {
                *o = rule.v(*o, nt, dt);
            }
        }
    }
}

/// Adds one block's column sums into the running totals and clears them.
#[inline(always)]
fn fold_block(numer: &mut [f64], denom: &mut [f64], bn: &mut [f64], bd: &mut [f64]) {
    for (acc, p) in numer.iter_mut().zip(bn.iter_mut()) {
        *acc += *p;
        *p = 0.0;
    }
    for (acc, p) in denom.iter_mut().zip(bd.iter_mut()) {
        *acc += *p;
        *p = 0.0;
    }
}

/// Runs `body(block, u_rows, sums)` for every [`BLOCK_ROWS`]-row block,
/// where `u_rows` is the block's rows of the row-major `N x k` output
/// `out` and `sums` its two-slot share of `partials`. With `threads > 1`
/// the blocks form `threads` contiguous runs, one pool item each; the
/// per-block results do not depend on the split.
fn over_blocks<F>(
    threads: usize,
    n: usize,
    k: usize,
    out: &mut [f64],
    partials: &mut [f64],
    body: F,
) where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    let blocks = n.div_ceil(BLOCK_ROWS);
    let per = blocks.div_ceil(threads.max(1)).max(1);
    // Rows of blocks `first..end`.
    let rows_in = |first: usize, end: usize| (end * BLOCK_ROWS).min(n) - first * BLOCK_ROWS;
    let run = |first: usize, mut out: &mut [f64], parts: &mut [f64]| {
        for (b, sums) in (first..).zip(parts.chunks_exact_mut(2)) {
            let (rows, rest) = std::mem::take(&mut out).split_at_mut(rows_in(b, b + 1) * k);
            out = rest;
            body(b, rows, sums);
        }
    };
    if per >= blocks {
        run(0, out, partials);
        return;
    }
    // Every run but the last holds exactly `per` full blocks.
    let runs = out
        .chunks_mut(per * BLOCK_ROWS * k)
        .zip(partials.chunks_mut(2 * per))
        .enumerate();
    par_for_each(threads, runs, |(t, (rows, parts))| {
        run(t * per, rows, parts)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::Landmarks;
    use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
    use smfl_linalg::rank::{Runtime, FIXED_RANKS};
    use smfl_linalg::simd::avx2_instance;
    use smfl_linalg::{Mask, ObservedPattern};

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

    /// The bits of every row block's sums, the new `U` and the new live
    /// columns of `V`: every row block, then one stripe over the live
    /// columns on the new `U`, at `rank`.
    fn outputs<R: Rank>(
        rank: R,
        rule: impl Rule,
        ctx: &UpdateContext<'_>,
        u: &Matrix,
        v: &Matrix,
        wide: bool,
    ) -> [Vec<u64>; 3] {
        let (n, m, k) = (ctx.pattern.rows(), ctx.pattern.cols(), rank.k());
        let (row_ptr, col_idx) = ctx.pattern.csr();
        let vt = v.transpose();
        let pass = RowPass {
            rank,
            rule,
            n,
            row_ptr,
            col_idx,
            xv: ctx.pattern.x_vals(),
            u: u.as_slice(),
            vt: vt.as_slice(),
            graph: ctx.active_graph(),
            lambda: ctx.lambda,
        };
        let mut un = vec![f64::NAN; n * k];
        let mut sums = Vec::new();
        for (block, out) in un.chunks_mut(BLOCK_ROWS * k).enumerate() {
            sums.extend(run_kernel(RowBlock { pass, block, out }, wide));
        }
        assert!(un.iter().all(|a| a.is_finite()));

        let (csc_ptr, csc_rows, csc_perm) = ctx.pattern.csc();
        let pass = ColumnPass {
            rank,
            rule,
            csc_ptr,
            csc_rows,
            csc_perm,
            xv: ctx.pattern.x_vals(),
            un: &un,
        };
        let v_start = ctx.v_start_col();
        let mut vn = vt.as_slice()[v_start * k..].to_vec();
        let stripe = ColumnStripe {
            pass,
            cols: v_start..m,
            vt: &mut vn,
        };
        run_kernel(stripe, wide);
        [bits(&sums), bits(&un), bits(&vn)]
    }

    /// Calls `check(k, ctx, u, v)` at every rank of `ranks`, on a sparse
    /// and a dense mask over two row blocks, with and without the graph
    /// and the landmarks.
    fn for_each_case(
        ranks: impl Iterator<Item = usize> + Clone,
        mut check: impl FnMut(usize, &UpdateContext<'_>, &Matrix, &Matrix),
    ) {
        let (n, m) = (700, 9);
        let x = uniform_matrix(n, m, 0.0, 1.0, 1);
        let si = x.columns(0, 2).unwrap();
        let graph = SpatialGraph::build(&si, 3).unwrap();
        let draw = uniform_matrix(n, m, 0.0, 1.0, 2);
        for density in [0.3, 0.93] {
            let mut omega = Mask::empty(n, m);
            for (i, j) in Mask::full(n, m).iter_set() {
                omega.set(i, j, draw.get(i, j) < density);
            }
            let pattern = ObservedPattern::compile(&x, &omega).unwrap();
            for k in ranks.clone() {
                let lm = Landmarks::compute(&si, k, 50, 0).unwrap();
                let u = positive_uniform_matrix(n, k, 3);
                let mut v = positive_uniform_matrix(k, m, 4);
                for landmarks in [None, Some(&lm)] {
                    if let Some(lm) = landmarks {
                        lm.inject(&mut v).unwrap();
                    }
                    for graph in [None, Some(&graph)] {
                        let ctx = UpdateContext {
                            pattern: &pattern,
                            graph,
                            lambda: 0.5,
                            landmarks,
                        };
                        check(k, &ctx, &u, &v);
                    }
                }
            }
        }
    }

    const GD: Gradient = Gradient { step: 2e-3 };

    /// `Kernel::run` (the baseline instance) and `dispatch` agree on
    /// every output bit, at every rank of the table and at two ranks
    /// outside it.
    #[test]
    fn both_instances_agree_bitwise() {
        if !avx2_instance() {
            eprintln!("no AVX2 on this CPU: only the baseline instance is checked");
        }
        let ranks = FIXED_RANKS.iter().copied().chain([13, 24]);
        for_each_case(ranks, |k, ctx, u, v| {
            with_rank!(k, |rank| {
                let base = outputs(rank, Multiplicative, ctx, u, v, false);
                let wide = outputs(rank, Multiplicative, ctx, u, v, true);
                assert_eq!(base, wide, "multiplicative, K = {k}");
                let base = outputs(rank, GD, ctx, u, v, false);
                let wide = outputs(rank, GD, ctx, u, v, true);
                assert_eq!(base, wide, "gradient, K = {k}");
            })
        });
    }

    /// Every arm of the rank table computes the bits of the runtime-`K`
    /// instance.
    #[test]
    fn fixed_and_runtime_instances_agree_bitwise() {
        for_each_case(FIXED_RANKS.iter().copied(), |k, ctx, u, v| {
            let fixed = with_rank!(k, |rank| outputs(rank, Multiplicative, ctx, u, v, true));
            let runtime = outputs(Runtime(k), Multiplicative, ctx, u, v, true);
            assert_eq!(fixed, runtime, "multiplicative, K = {k}");
            let fixed = with_rank!(k, |rank| outputs(rank, GD, ctx, u, v, true));
            let runtime = outputs(Runtime(k), GD, ctx, u, v, true);
            assert_eq!(fixed, runtime, "gradient, K = {k}");
        });
    }
}
