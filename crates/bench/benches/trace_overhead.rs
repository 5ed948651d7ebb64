//! Cost of the telemetry layer (DESIGN.md §11), proving its headline
//! claim: with the disabled [`NoopSink`], the instrumented fit loop is
//! the uninstrumented loop — every `if S::ENABLED` guard const-folds
//! away, so the per-iteration overhead must be noise (<1%).
//!
//! Four paths are measured:
//!
//! - `raw`   — a hand-rolled fit loop (`multiplicative_step` +
//!   objective + history push) with no sink plumbing at all: the
//!   pre-telemetry engine, reproduced verbatim;
//! - `noop`  — `fit()`, which routes through `fit_inner::<NoopSink>`;
//! - `record` — compile + solve into a `RecordingSink`, buffering a
//!   full in-memory trace;
//! - `jsonl` — compile + solve into a `JsonlSink` streaming to a temp
//!   file.
//!
//! Per-iteration cost is isolated by differencing: each path is timed
//! at `max_iter = 5` and `max_iter = 65` (min of several runs each),
//! and the slope `(t65 - t5) / 60` cancels the one-time preprocessing.
//! The four paths are timed in interleaved rounds, in reverse order
//! every other round, so a drift of the machine's speed during the run
//! lands on every path alike; each overhead is the median of its
//! per-round ratios to `raw`, reported with their range. `main` also
//! cross-checks that all four paths produce bitwise-equal objective
//! histories, then writes `BENCH_trace.json` at the workspace root with
//! the measured overheads.

use criterion::{BenchmarkId, Criterion};
use smfl_core::updater::{multiplicative_step, score, UpdateContext};
use smfl_core::{
    fit, FitPlan, FittedModel, JsonlSink, RecordingSink, SmflConfig, SolveOptions, TraceSink,
};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, Matrix, ObservedPattern, Workspace};
use std::time::Instant;

/// Shape: sparse enough for the SpMM path, big enough that an iteration
/// is real work, small enough to stay under the parallel-dispatch
/// threshold (thread scheduling jitter would swamp a 1% bound).
const N: usize = 1000;
const M: usize = 200;
const K: usize = 12;
const DENSITY: f64 = 0.3;
const SEED: u64 = 17;

const ITERS_LO: usize = 5;
const ITERS_HI: usize = 65;
const TIMING_RUNS: usize = 7;
/// Interleaved measurement rounds (even, so both orders count alike).
const ROUNDS: usize = 6;

fn problem() -> (Matrix, Mask) {
    let x = positive_uniform_matrix(N, M, SEED);
    let sel = uniform_matrix(N, M, 0.0, 1.0, SEED.wrapping_add(1));
    let mut omega = Mask::empty(N, M);
    for i in 0..N {
        for j in 0..M {
            if sel.get(i, j) < DENSITY {
                omega.set(i, j, true);
            }
        }
    }
    for j in 0..M {
        omega.set(0, j, true);
    }
    (x, omega)
}

fn config(max_iter: usize) -> SmflConfig {
    // NMF keeps preprocessing minimal so the differencing slope is
    // dominated by the loop under test; tol = 0 runs every iteration.
    SmflConfig::nmf(K)
        .with_max_iter(max_iter)
        .with_seed(SEED)
        .with_tol(0.0)
}

/// The uninstrumented engine, reproduced by hand: exactly what the fit
/// loop does per iteration, with no sink type parameter anywhere.
fn raw_fit(x: &Matrix, omega: &Mask, max_iter: usize) -> Vec<f64> {
    let pattern = ObservedPattern::compile(x, omega).unwrap();
    let mut ws = Workspace::new(&pattern, K);
    let mut u = positive_uniform_matrix(N, K, SEED).scale(1.0 / K as f64);
    let mut v = positive_uniform_matrix(K, M, SEED.wrapping_add(1));
    let ctx = UpdateContext {
        pattern: &pattern,
        graph: None,
        lambda: 0.0,
        landmarks: None,
    };
    // Each step scores the iterate it reads; the last one gets a
    // scoring-only pass.
    let mut history = Vec::with_capacity(max_iter);
    for t in 0..max_iter {
        let obj = multiplicative_step(&ctx, &mut ws, &u, &v)
            .unwrap()
            .objective(0.0);
        if t > 0 {
            assert!(obj.is_finite());
            history.push(obj);
        }
        ws.commit(&mut u, &mut v);
    }
    if max_iter > 0 {
        history.push(score(&ctx, &mut ws, &u, &v).unwrap().objective(0.0));
    }
    history
}

/// Compile + cold solve, both streaming into `sink`.
fn fit_into<S: TraceSink>(x: &Matrix, omega: &Mask, cfg: &SmflConfig, sink: &mut S) -> FittedModel {
    FitPlan::compile_with_sink(x, omega, cfg, sink)
        .unwrap()
        .solve_with_sink(&SolveOptions::new(), sink)
        .unwrap()
}

/// A fit recording its full trace in memory.
fn fit_recorded(x: &Matrix, omega: &Mask, cfg: &SmflConfig) -> FittedModel {
    let mut sink = RecordingSink::with_capacity(cfg.max_iter);
    fit_into(x, omega, cfg, &mut sink)
}

/// Minimum wall time of `f` over [`TIMING_RUNS`] runs (min is the
/// noise-robust statistic for a deterministic workload).
fn min_time(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_RUNS {
        let start = Instant::now();
        f();
        std::hint::black_box(());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Seconds per loop iteration via the differencing slope.
fn per_iter(mut run: impl FnMut(usize)) -> f64 {
    let lo = min_time(|| run(ITERS_LO));
    let hi = min_time(|| run(ITERS_HI));
    (hi - lo).max(0.0) / (ITERS_HI - ITERS_LO) as f64
}

fn jsonl_path() -> std::path::PathBuf {
    std::env::temp_dir().join("smfl_trace_overhead_bench.jsonl")
}

/// Per-iteration seconds of the paths `raw`, `noop`, `record`, `jsonl`
/// in each of [`ROUNDS`] interleaved rounds, odd rounds in reverse order.
fn measure(x: &Matrix, omega: &Mask) -> Vec<[f64; 4]> {
    let paths: [&dyn Fn(usize); 4] = [
        &|iters| {
            std::hint::black_box(raw_fit(x, omega, iters));
        },
        &|iters| {
            std::hint::black_box(fit(x, omega, &config(iters)).unwrap());
        },
        &|iters| {
            std::hint::black_box(fit_recorded(x, omega, &config(iters)));
        },
        &|iters| {
            let mut sink = JsonlSink::create(&jsonl_path()).unwrap();
            std::hint::black_box(fit_into(x, omega, &config(iters), &mut sink));
        },
    ];
    (0..ROUNDS)
        .map(|round| {
            let mut slopes = [0.0; 4];
            for i in 0..4 {
                let p = if round.is_multiple_of(2) { i } else { 3 - i };
                slopes[p] = per_iter(paths[p]);
            }
            slopes
        })
        .collect()
}

/// Median of `values` (sorted in place).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        0.5 * (values[mid - 1] + values[mid])
    } else {
        values[mid]
    }
}

fn bench_sink_modes(c: &mut Criterion, x: &Matrix, omega: &Mask) {
    let mut group = c.benchmark_group("trace_overhead");
    let cfg = config(20);
    group.bench_with_input(BenchmarkId::new("raw", "20it"), &cfg, |b, _| {
        b.iter(|| raw_fit(x, omega, 20));
    });
    group.bench_with_input(BenchmarkId::new("noop", "20it"), &cfg, |b, cfg| {
        b.iter(|| fit(x, omega, cfg).unwrap());
    });
    group.bench_with_input(BenchmarkId::new("record", "20it"), &cfg, |b, cfg| {
        b.iter(|| fit_recorded(x, omega, cfg));
    });
    group.bench_with_input(BenchmarkId::new("jsonl", "20it"), &cfg, |b, cfg| {
        b.iter(|| {
            let mut sink = JsonlSink::create(&jsonl_path()).unwrap();
            fit_into(x, omega, cfg, &mut sink)
        });
    });
    group.finish();
}

fn overhead_pct(base: f64, path: f64) -> f64 {
    (path - base) / base * 100.0
}

fn main() {
    let (x, omega) = problem();

    // Bitwise identity first: observation must not perturb, and the
    // NoopSink fit must equal the hand-rolled uninstrumented loop.
    let raw_history = raw_fit(&x, &omega, 20);
    let noop_model = fit(&x, &omega, &config(20)).unwrap();
    let traced_model = fit_recorded(&x, &omega, &config(20));
    assert_eq!(
        raw_history, noop_model.objective_history,
        "NoopSink fit diverged from the uninstrumented loop"
    );
    assert_eq!(noop_model.objective_history, traced_model.objective_history);
    assert!(noop_model.u.approx_eq(&traced_model.u, 0.0));
    assert!(noop_model.v.approx_eq(&traced_model.v, 0.0));

    let mut c = Criterion::default();
    bench_sink_modes(&mut c, &x, &omega);
    c.final_summary();

    // The differencing measurement in interleaved rounds: each path's
    // overhead is taken against `raw` of the same round.
    let rounds = measure(&x, &omega);
    let column = |p: usize| rounds.iter().map(|r| r[p]).collect::<Vec<_>>();
    let pcts = |p: usize| {
        rounds
            .iter()
            .map(|r| overhead_pct(r[0], r[p]))
            .collect::<Vec<_>>()
    };
    let mut noop_pcts = pcts(1);
    let noop_pct = median(&mut noop_pcts);
    let (noop_lo, noop_hi) = (noop_pcts[0], noop_pcts[ROUNDS - 1]);
    let record_pct = median(&mut pcts(2));
    let jsonl_pct = median(&mut pcts(3));
    let us = |p: usize| median(&mut column(p)) * 1e6;
    let (raw_us, noop_us, record_us, jsonl_us) = (us(0), us(1), us(2), us(3));
    eprintln!(
        "\nper-iteration (median of {ROUNDS} rounds): raw {raw_us:.3} µs, \
         noop {noop_us:.3} µs ({noop_pct:+.2}%, rounds {noop_lo:+.2}% to {noop_hi:+.2}%), \
         record {record_us:.3} µs ({record_pct:+.2}%), jsonl {jsonl_us:.3} µs ({jsonl_pct:+.2}%)",
    );
    assert!(
        noop_pct < 1.0,
        "disabled telemetry must cost <1% per iteration, measured {noop_pct:.2}%"
    );

    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \
         \"shape\": {{\"n\": {N}, \"m\": {M}, \"k\": {K}, \"density\": {DENSITY}}},\n  \
         \"method\": \"per-iteration slope between max_iter={ITERS_LO} and {ITERS_HI} fits, min of {TIMING_RUNS} runs; \
         {ROUNDS} interleaved rounds, odd rounds in reverse order; overheads are medians of per-round ratios to raw\",\n  \
         \"bitwise_identical_to_raw_loop\": true,\n  \
         \"raw_us_per_iter\": {raw_us:.3},\n  \
         \"noop_us_per_iter\": {noop_us:.3},\n  \
         \"recording_us_per_iter\": {record_us:.3},\n  \
         \"jsonl_us_per_iter\": {jsonl_us:.3},\n  \
         \"noop_overhead_pct\": {noop_pct:.3},\n  \
         \"noop_overhead_pct_range\": [{noop_lo:.3}, {noop_hi:.3}],\n  \
         \"recording_overhead_pct\": {record_pct:.3},\n  \
         \"jsonl_overhead_pct\": {jsonl_pct:.3}\n}}\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    std::fs::write(path, json).unwrap();
    let _ = std::fs::remove_file(jsonl_path());
    eprintln!("wrote {path}");
}
