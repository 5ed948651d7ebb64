//! The fused dense multiplicative step (Formulas 13/14) for masks above
//! `kernels::DENSE_PATH_THRESHOLD` — every paper experiment, whose
//! tall, narrow tables are ~93% observed.
//!
//! At small `M` and `K` the separate kernels of the sparse engine are
//! bound by per-call overhead, not arithmetic: each is a full pass over
//! `N x M` or `N x K` data with inner loops of length 6–7. This step
//! streams the CSR rows of the pattern instead and keeps each row's
//! reconstruction `r_ij = u_i · v_j` in registers:
//!
//! 1. **U and V pass** — per row `i`, the numerator
//!    `Σ_j x_ij·v_j + λ·(D·U)_i` and denominator `Σ_j r_ij·v_j + λ·w_i·u_i`
//!    accumulate in `K` registers, and the updated row goes to
//!    [`Workspace::u_next`], which is then swapped with `U`; every read
//!    is of the old `U`. Formula 14 needs only that new row and the old
//!    `V`, so the same visit adds the row's share of the `M x K`
//!    numerator `Uᵀ·R_Ω(X)` and denominator `Uᵀ·R_Ω(UV)` (live columns
//!    only). `V` is updated after the pass.
//! 2. **Objective pass** — the fit term `‖R_Ω(X − UV)‖_F²` of the final
//!    factors and the Laplacian term `Σ_i w_i·|u_i|² − Σ_ij d_ij·(u_i · u_j)`
//!    of the new `U`.
//!
//! The body is written once, generic over the rank: `K ≤ 8` dispatches
//! to a compile-time-`K` instance whose loops unroll and whose
//! accumulators stay in registers; larger ranks run the same body with
//! a runtime `K`.
//!
//! Parallelism: below `PARALLEL_FLOP_THRESHOLD` (judged, like the sparse
//! kernels, by `2·|Ω|·K` per pass) everything runs on the calling
//! thread. Above it both passes run over row blocks in parallel. New `U`
//! rows are independent; the V, fit and Laplacian sums are reduced over
//! fixed [`BLOCK_ROWS`]-row blocks in block order, whether one thread or
//! many computed them, so results are bitwise identical at any
//! `SMFL_THREADS`.

use crate::health::DENOM_EPS as EPS;
use crate::objective::ObjectiveTerms;
use crate::updater::{update_v, UpdateContext};
use smfl_linalg::ops::dot;
use smfl_linalg::parallel::{parallel_over_rows, threads_for};
use smfl_linalg::{LinalgError, Matrix, Result, Workspace};

/// Rows per reduction block. Block boundaries depend only on `N`, so the
/// reduction order never depends on the thread count.
const BLOCK_ROWS: usize = 512;

/// The rank `K` of the step: a compile-time constant ([`Fixed`]) or a
/// runtime value ([`Runtime`]).
trait Rank: Copy + Send + Sync {
    fn k(self) -> usize;

    /// Runs `f` on two zeroed `K`-slot accumulators (one row's
    /// numerator and denominator).
    fn with_acc<T>(self, f: impl FnOnce(&mut [f64], &mut [f64]) -> T) -> T;
}

#[derive(Clone, Copy)]
struct Fixed<const K: usize>;

impl<const K: usize> Rank for Fixed<K> {
    #[inline(always)]
    fn k(self) -> usize {
        K
    }

    #[inline(always)]
    fn with_acc<T>(self, f: impl FnOnce(&mut [f64], &mut [f64]) -> T) -> T {
        f(&mut [0.0; K], &mut [0.0; K])
    }
}

#[derive(Clone, Copy)]
struct Runtime(usize);

impl Rank for Runtime {
    #[inline(always)]
    fn k(self) -> usize {
        self.0
    }

    /// Two small allocations per row block (not per row).
    fn with_acc<T>(self, f: impl FnOnce(&mut [f64], &mut [f64]) -> T) -> T {
        f(&mut vec![0.0; self.0], &mut vec![0.0; self.0])
    }
}

/// One multiplicative iteration on the fused dense path. Returns the
/// objective terms for the updated `(U, V)`.
pub(crate) fn fused_dense_step(
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &mut Matrix,
    v: &mut Matrix,
) -> Result<ObjectiveTerms> {
    let (n, m) = (ctx.pattern.rows(), ctx.pattern.cols());
    let k = u.cols();
    for (shape, want, op) in [
        (u.shape(), (n, k), "dense_step_u"),
        (v.shape(), (k, m), "dense_step_v"),
        (ws.u_next.shape(), (n, k), "dense_step_workspace"),
        (ws.vt.shape(), (m, k), "dense_step_workspace"),
    ] {
        if shape != want {
            return Err(LinalgError::DimensionMismatch {
                left: want,
                right: shape,
                op,
            });
        }
    }
    match k {
        1 => step(Fixed::<1>, ctx, ws, u, v),
        2 => step(Fixed::<2>, ctx, ws, u, v),
        3 => step(Fixed::<3>, ctx, ws, u, v),
        4 => step(Fixed::<4>, ctx, ws, u, v),
        5 => step(Fixed::<5>, ctx, ws, u, v),
        6 => step(Fixed::<6>, ctx, ws, u, v),
        7 => step(Fixed::<7>, ctx, ws, u, v),
        8 => step(Fixed::<8>, ctx, ws, u, v),
        _ => step(Runtime(k), ctx, ws, u, v),
    }
}

/// The step body, generic over the rank. Shapes are checked by the
/// caller.
fn step<R: Rank>(
    rank: R,
    ctx: &UpdateContext<'_>,
    ws: &mut Workspace,
    u: &mut Matrix,
    v: &mut Matrix,
) -> Result<ObjectiveTerms> {
    let pattern = ctx.pattern;
    let (n, m) = (pattern.rows(), pattern.cols());
    let k = rank.k();
    let (row_ptr, col_idx) = pattern.csr();
    let xv = pattern.x_vals();
    let graph = ctx.active_graph();
    let lambda = ctx.lambda;
    let v_start = ctx.v_start_col();
    let threads = threads_for(2 * pattern.nnz() * k);
    let blocks = n.div_ceil(BLOCK_ROWS);
    // Per block: the V numerator and denominator (M x K each) in the
    // first pass, the fit and Laplacian sums in the second.
    let stride = 2 * m * k;
    if ws.block_partials.len() < blocks * stride.max(2) {
        ws.block_partials.resize(blocks * stride.max(2), 0.0);
    }
    v.transpose_into(&mut ws.vt)?;

    // ---- Pass 1: U by Formula 13, then its V numerator/denominator ----
    {
        let (uu, vt) = (u.as_slice(), ws.vt.as_slice());
        let partials = &mut ws.block_partials[..blocks * stride];
        over_blocks(
            threads,
            n,
            k,
            ws.u_next.as_mut_slice(),
            partials,
            stride,
            |b, out, part| {
                // Re-read the rank in every closure: the closure body is
                // compiled out of line, where a captured `k` is a runtime
                // load and the fixed-K loops would not unroll.
                let k = rank.k();
                part.fill(0.0);
                let (nv, dv) = part.split_at_mut(m * k);
                rank.with_acc(|numer, denom| {
                    for (i, unew) in (b * BLOCK_ROWS..).zip(out.chunks_exact_mut(k)) {
                        let ui = &uu[i * k..][..k];
                        let span = row_ptr[i]..row_ptr[i + 1];
                        numer.fill(0.0);
                        denom.fill(0.0);
                        for (&j, &x) in col_idx[span.clone()].iter().zip(&xv[span.clone()]) {
                            let vj = &vt[j * k..][..k];
                            let r = dot(ui, vj);
                            for ((nt, dt), &b) in numer.iter_mut().zip(denom.iter_mut()).zip(vj) {
                                *nt += x * b;
                                *dt += r * b;
                            }
                        }
                        if let Some(g) = graph {
                            for (t, d) in g.similarity.row_entries(i) {
                                let ld = lambda * d;
                                for (nt, &b) in numer.iter_mut().zip(&uu[t * k..][..k]) {
                                    *nt += ld * b;
                                }
                            }
                            let w = g.degree[i];
                            for (dt, &a) in denom.iter_mut().zip(ui) {
                                *dt += lambda * (w * a);
                            }
                        }
                        for (((o, &a), &nt), &dt) in
                            unew.iter_mut().zip(ui).zip(&*numer).zip(&*denom)
                        {
                            *o = a * (nt / (dt + EPS));
                        }

                        // Formula 14's products need only this row of the new
                        // U (and the old V): accumulate them right away.
                        let unew = &*unew;
                        for (&j, &x) in col_idx[span.clone()].iter().zip(&xv[span]) {
                            if j < v_start {
                                continue;
                            }
                            let r = dot(unew, &vt[j * k..][..k]);
                            let nrow = &mut nv[j * k..][..k];
                            let drow = &mut dv[j * k..][..k];
                            for ((nt, dt), &a) in nrow.iter_mut().zip(drow.iter_mut()).zip(unew) {
                                *nt += x * a;
                                *dt += r * a;
                            }
                        }
                    }
                })
            },
        );
    }
    std::mem::swap(u, &mut ws.u_next);
    {
        let (numer, denom) = (ws.numer_vt.as_mut_slice(), ws.denom_vt.as_mut_slice());
        numer.fill(0.0);
        denom.fill(0.0);
        for part in ws.block_partials[..blocks * stride].chunks_exact(stride) {
            let (nv, dv) = part.split_at(m * k);
            for (acc, &p) in numer.iter_mut().zip(nv) {
                *acc += p;
            }
            for (acc, &p) in denom.iter_mut().zip(dv) {
                *acc += p;
            }
        }
    }
    update_v(v, &ws.numer_vt, &ws.denom_vt, v_start);
    debug_assert!(ctx.landmarks.is_none_or(|lm| lm.verify_injected(v)));
    v.transpose_into(&mut ws.vt)?;

    // ---- Pass 2: fit and Laplacian terms of the final factors ----
    {
        let (uu, vt) = (u.as_slice(), ws.vt.as_slice());
        let partials = &mut ws.block_partials[..2 * blocks];
        parallel_over_rows(partials, 2, blocks, threads, |b0, b1, chunk| {
            let k = rank.k();
            for (b, sums) in (b0..b1).zip(chunk.chunks_exact_mut(2)) {
                let (mut fit, mut lap) = (0.0, 0.0);
                for i in b * BLOCK_ROWS..((b + 1) * BLOCK_ROWS).min(n) {
                    let ui = &uu[i * k..][..k];
                    for s in row_ptr[i]..row_ptr[i + 1] {
                        let d = xv[s] - dot(ui, &vt[col_idx[s] * k..][..k]);
                        fit += d * d;
                    }
                    if let Some(g) = graph {
                        lap += g.laplacian_row(uu, k, i);
                    }
                }
                sums.copy_from_slice(&[fit, lap]);
            }
        });
    }
    let (fit, laplacian) = ws.block_partials[..2 * blocks]
        .chunks_exact(2)
        .fold((0.0, 0.0), |(f, l), s| (f + s[0], l + s[1]));

    ws.counters.dense_steps += 1;
    ws.counters.masked_nnz += pattern.nnz() as u64;
    // This path keeps no packed reconstruction.
    ws.uv_fresh = false;
    Ok(ObjectiveTerms { fit, laplacian })
}

/// Runs `body(block, u_rows, partial)` for every [`BLOCK_ROWS`]-row
/// block, where `u_rows` is the block's rows of the row-major
/// `N x k` output `out` and `partial` its `stride`-long slot of
/// `partials`. With `threads > 1` each thread takes a contiguous run of
/// blocks; the per-block results do not depend on the split.
fn over_blocks<F>(
    threads: usize,
    n: usize,
    k: usize,
    out: &mut [f64],
    partials: &mut [f64],
    stride: usize,
    body: F,
) where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    let blocks = n.div_ceil(BLOCK_ROWS);
    if blocks == 0 || stride == 0 {
        return; // no rows, no columns or K = 0: nothing to update
    }
    let per = blocks.div_ceil(threads.max(1));
    let run = |first: usize, out: &mut [f64], parts: &mut [f64]| {
        let rows = out.chunks_mut(BLOCK_ROWS * k);
        for ((b, o), p) in (first..).zip(rows).zip(parts.chunks_exact_mut(stride)) {
            body(b, o, p);
        }
    };
    if per == blocks {
        run(0, out, partials);
        return;
    }
    let run = &run;
    std::thread::scope(|s| {
        let outs = out.chunks_mut(per * BLOCK_ROWS * k);
        for (t, (o, p)) in outs.zip(partials.chunks_mut(per * stride)).enumerate() {
            s.spawn(move || run(t * per, o, p));
        }
    });
}
