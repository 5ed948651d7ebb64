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
//! The body is written once, generic over the rule and the rank: `K ≤ 8`
//! dispatches (one table, `with_rank!`) to a compile-time-`K` instance
//! whose loops unroll and whose accumulators stay in registers; larger
//! ranks run the same body with a runtime `K`.
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
use smfl_linalg::{LinalgError, Matrix, Result, Workspace};

/// Rows per reduction block. Block boundaries depend only on `N`, so the
/// reduction order never depends on the thread count.
const BLOCK_ROWS: usize = 512;

/// The rank `K` of the step: a compile-time constant ([`Fixed`]) or a
/// runtime value ([`Runtime`]).
trait Rank: Copy + Send + Sync {
    fn k(self) -> usize;

    /// Runs `f` on four zeroed `K`-slot accumulators.
    fn with_acc<T>(self, f: impl FnOnce([&mut [f64]; 4]) -> T) -> T;
}

#[derive(Clone, Copy)]
struct Fixed<const K: usize>;

impl<const K: usize> Rank for Fixed<K> {
    #[inline(always)]
    fn k(self) -> usize {
        K
    }

    #[inline(always)]
    fn with_acc<T>(self, f: impl FnOnce([&mut [f64]; 4]) -> T) -> T {
        let [a, b, c, d] = &mut [[0.0; K]; 4];
        f([a, b, c, d])
    }
}

#[derive(Clone, Copy)]
struct Runtime(usize);

impl Rank for Runtime {
    #[inline(always)]
    fn k(self) -> usize {
        self.0
    }

    /// One small allocation per row block or column-pass chunk.
    fn with_acc<T>(self, f: impl FnOnce([&mut [f64]; 4]) -> T) -> T {
        let k = self.0;
        let mut acc = vec![0.0; 4 * k];
        let (a, rest) = acc.split_at_mut(k);
        let (b, rest) = rest.split_at_mut(k);
        let (c, d) = rest.split_at_mut(k);
        f([a, b, c, d])
    }
}

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

/// Calls `$f` with the rank `$k` as its first argument: a compile-time
/// [`Fixed`] instance for `K ≤ 8`, [`Runtime`] above.
macro_rules! with_rank {
    ($k:expr, $f:ident($($arg:expr),*)) => {
        match $k {
            1 => $f(Fixed::<1>, $($arg),*),
            2 => $f(Fixed::<2>, $($arg),*),
            3 => $f(Fixed::<3>, $($arg),*),
            4 => $f(Fixed::<4>, $($arg),*),
            5 => $f(Fixed::<5>, $($arg),*),
            6 => $f(Fixed::<6>, $($arg),*),
            7 => $f(Fixed::<7>, $($arg),*),
            8 => $f(Fixed::<8>, $($arg),*),
            k => $f(Runtime(k), $($arg),*),
        }
    };
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
    with_rank!(k, step(rule, ctx, ws, u, v))
}

/// The column pass alone, on the new `U` in `ws.u_next` (`N x K`) and
/// the old `Vᵀ` in `ws.vt` (`M x K`): the sparse step's `V` update.
pub(crate) fn column_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    rule: impl Rule,
) -> Result<()> {
    with_rank!(ws.u_next.cols(), column_pass(rule, ctx, ws))
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
    let xv = pattern.x_vals();
    let graph = ctx.active_graph();
    let lambda = ctx.lambda;
    let threads = threads_for(2 * pattern.nnz() * k);
    let blocks = n.div_ceil(BLOCK_ROWS);
    // Per block: the fit and Laplacian sums of the input factors.
    if ws.block_partials.len() < 2 * blocks {
        ws.block_partials.resize(2 * blocks, 0.0);
    }
    v.transpose_into(&mut ws.vt)?;

    // ---- Row pass: the new U, and the score of (U, V) ----
    let uu = u.as_slice();
    {
        let vt = ws.vt.as_slice();
        let row_block = |b: usize, out: &mut [f64], sums: &mut [f64]| {
            // Re-read the rank in every closure: the closure body is
            // compiled out of line, where a captured `k` is a runtime
            // load and the fixed-K loops would not unroll.
            let k = rank.k();
            let (mut fit, mut lap) = (0.0, 0.0);
            rank.with_acc(|[numer, denom, du, _]| {
                let first = b * BLOCK_ROWS;
                for i in first..(first + BLOCK_ROWS).min(n) {
                    let unew = &mut out[(i - first) * k..][..k];
                    let ui = &uu[i * k..][..k];
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
                            let ut = &uu[t as usize * k..][..k];
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
                    for (((o, &a), &nt), &dt) in unew.iter_mut().zip(ui).zip(&*numer).zip(&*denom) {
                        *o = rule.u(a, nt, dt);
                    }
                }
            });
            sums.copy_from_slice(&[fit, lap]);
        };
        let partials = &mut ws.block_partials[..2 * blocks];
        over_blocks(threads, n, k, ws.u_next.as_mut_slice(), partials, row_block);
    }
    let (fit, laplacian) = ws.block_partials[..2 * blocks]
        .chunks_exact(2)
        .fold((0.0, 0.0), |(f, l), s| (f + s[0], l + s[1]));

    column_pass(rank, rule, ctx, ws)?;

    ws.counters.dense_steps += 1;
    ws.counters.masked_nnz += pattern.nnz() as u64;
    Ok(ObjectiveTerms { fit, laplacian })
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
    let xv = ctx.pattern.x_vals();
    let threads = threads_for(2 * ctx.pattern.nnz() * k);
    let un = ws.u_next.as_slice();
    let live = &mut ws.vt.as_mut_slice()[v_start * k..];
    parallel_over_rows(live, k, m - v_start, threads, |c0, c1, chunk| {
        let k = rank.k();
        rank.with_acc(|[numer, denom, bn, bd]| {
            for j in v_start + c0..v_start + c1 {
                let vj = &mut chunk[(j - v_start - c0) * k..][..k];
                numer.fill(0.0);
                denom.fill(0.0);
                // Sum per BLOCK_ROWS-row block, then fold the blocks in
                // order: the association of a row-blocked reduction, so
                // V is bitwise that of fits recorded with one. Each fold
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
        });
    });
    ws.vt.transpose_into(&mut ws.v_next)?;
    debug_assert!(ctx
        .landmarks
        .is_none_or(|lm| lm.verify_injected(&ws.v_next)));
    Ok(())
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
