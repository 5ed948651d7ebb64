//! Integration contract of the telemetry layer (DESIGN.md §11):
//!
//! 1. observation must not perturb — a plan compiled and solved through
//!    [`NoopSink`] or a [`RecordingSink`], or a plain `fit`, produces
//!    bitwise-identical factors, history, and report;
//! 2. an enabled trace is complete — every pipeline phase spanned,
//!    kernel counters populated, one `IterEvent` per loop iteration;
//! 3. the trace mirrors the resilient engine faithfully — its event
//!    stream equals `FitReport::events` under sanitization storms and
//!    restart ladders alike;
//! 4. the JSONL sink emits one well-formed object per line;
//! 5. the golden thread-invariance property (PR 2) holds for the traced
//!    objective stream: `SMFL_THREADS=1` and `=4` write identical
//!    objective sequences. The thread pool is sized once per process,
//!    so this runs seeded child processes via the `SMFL_TRACE`
//!    environment toggle — which exercises that toggle end to end.

use smfl_core::{
    fit, FitEvent, FitPlan, FittedModel, JsonlSink, NoopSink, Phase, RecordingSink, SmflConfig,
    SolveOptions, TraceSink,
};
use smfl_datasets::{inject_inf_spike, inject_nan_burst};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::{Mask, Matrix, Result};
use std::path::PathBuf;
use std::process::Command;

/// Random spatial problem with ~`missing_pct`% of cells hidden.
fn problem(n: usize, m: usize, seed: u64, missing_pct: u32) -> (Matrix, Mask) {
    let x = uniform_matrix(n, m, 0.0, 1.0, seed);
    let sel = uniform_matrix(n, m, 0.0, 100.0, seed.wrapping_add(77));
    let mut omega = Mask::full(n, m);
    for i in 0..n {
        for j in 0..m {
            if sel.get(i, j) < missing_pct as f64 {
                omega.set(i, j, false);
            }
        }
    }
    for j in 0..m {
        omega.set(0, j, true);
    }
    (x, omega)
}

/// Compile + cold solve, both streaming into `sink`.
fn fit_into<S: TraceSink>(
    x: &Matrix,
    omega: &Mask,
    cfg: &SmflConfig,
    sink: &mut S,
) -> Result<FittedModel> {
    FitPlan::compile_with_sink(x, omega, cfg, sink)?.solve_with_sink(&SolveOptions::new(), sink)
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

// ---------------------------------------------------------------------
// 1. Observation does not perturb the fit.
// ---------------------------------------------------------------------
#[test]
fn tracing_does_not_perturb_the_fit() {
    let (x, omega) = problem(40, 6, 5, 30);
    let cfg = SmflConfig::smfl(3, 2).with_max_iter(20).with_seed(5).with_tol(0.0);

    let plain = fit(&x, &omega, &cfg).unwrap();
    let noop = fit_into(&x, &omega, &cfg, &mut NoopSink).unwrap();
    let mut sink = RecordingSink::new();
    let traced = fit_into(&x, &omega, &cfg, &mut sink).unwrap();

    for other in [&noop, &traced] {
        assert!(plain.u.approx_eq(&other.u, 0.0), "U drifted under observation");
        assert!(plain.v.approx_eq(&other.v, 0.0), "V drifted under observation");
        assert_eq!(plain.objective_history, other.objective_history);
        assert_eq!(plain.iterations, other.iterations);
        assert_eq!(plain.converged, other.converged);
        assert_eq!(plain.report, other.report);
    }
    assert_eq!(sink.trace().iterations.len(), traced.iterations);
}

// ---------------------------------------------------------------------
// 2. An enabled trace is complete.
// ---------------------------------------------------------------------
#[test]
fn trace_covers_every_phase_and_counter() {
    // 60% missing keeps the engine on the sparse kernels, so the
    // SDDMM/SpMM counters (not dense_steps) must move.
    let (x, omega) = problem(40, 6, 9, 60);
    let cfg = SmflConfig::smfl(3, 2).with_max_iter(15).with_seed(9).with_tol(0.0);
    let mut sink = RecordingSink::new();
    let model = fit_into(&x, &omega, &cfg, &mut sink).unwrap();
    let trace = sink.trace();

    for phase in [
        Phase::SiFill,
        Phase::GraphKnn,
        Phase::GraphAssembly,
        Phase::GraphBuild,
        Phase::Landmarks,
        Phase::PatternCompile,
        Phase::UpdateLoop,
    ] {
        assert!(
            trace.span_total(phase).is_some(),
            "phase {} never spanned",
            phase.name()
        );
    }

    assert_eq!(trace.iterations.len(), model.iterations, "one IterEvent per iteration");
    assert!(trace.iterations.iter().all(|e| e.accepted && e.health.is_none()));
    assert!(trace.landmarks_always_intact());

    let c = &trace.counters;
    assert!(c.sddmm > 0, "no SDDMM counted: {c:?}");
    assert!(c.spmm > 0 && c.spmm_t > 0, "no SpMM counted: {c:?}");
    assert_eq!(c.dense_steps, 0, "sparse fit took the dense path: {c:?}");
    assert!(c.masked_nnz > 0);
    assert_eq!(c.kernel_calls(), c.sddmm + c.spmm + c.spmm_t);
}

// ---------------------------------------------------------------------
// 3. The trace mirrors the resilient engine exactly.
// ---------------------------------------------------------------------
#[test]
fn resilient_trace_mirrors_fit_report() {
    // (a) A sanitization storm: NaN/Inf bursts are repaired before the
    // loop; every FitEvent in the report must appear in the trace, in
    // order.
    let n = 30;
    let mut x = uniform_matrix(n, 6, 0.1, 1.0, 99);
    inject_nan_burst(&mut x, 4, 1);
    inject_inf_spike(&mut x, 3, 2);
    let omega = Mask::full(n, 6);
    let cfg = SmflConfig::smfl(3, 2).with_max_iter(20).with_seed(99).resilient();
    let mut sink = RecordingSink::new();
    let model = fit_into(&x, &omega, &cfg, &mut sink).unwrap();
    let trace = sink.trace();
    assert!(!model.report.events.is_empty(), "storm produced no events");
    assert_eq!(trace.events, model.report.events);
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e, FitEvent::Sanitized { .. })));

    // (b) A restart ladder: divergent gradient descent under the health
    // monitor. Sweep learning rates until a run actually restarts, then
    // require the trace to account for every rung.
    let (x, omega) = problem(24, 4, 7, 0);
    let mut verified = false;
    for lr in [1.0, 2.0, 4.0, 6.0, 8.0] {
        let cfg = SmflConfig::nmf(3)
            .with_gradient_descent(lr)
            .with_max_iter(25)
            .with_seed(7)
            .resilient();
        let mut sink = RecordingSink::new();
        let Ok(model) = fit_into(&x, &omega, &cfg, &mut sink) else {
            continue;
        };
        let trace = sink.trace();
        assert_eq!(trace.events, model.report.events, "lr={lr}: streams diverged");
        let restarts = trace
            .events
            .iter()
            .filter(|e| matches!(e, FitEvent::Restarted { .. }))
            .count();
        assert_eq!(restarts, model.report.restarts, "lr={lr}");
        if restarts > 0 {
            // Restart iterations are recorded but not accepted, and the
            // accepted trajectory still matches the history bitwise.
            assert!(trace.iterations.iter().any(|e| !e.accepted), "lr={lr}");
            let accepted: Vec<f64> = trace.accepted_objectives().collect();
            assert_eq!(accepted, model.objective_history, "lr={lr}");
            verified = true;
        }
    }
    assert!(verified, "no learning rate in the sweep triggered a restart");
}

// ---------------------------------------------------------------------
// 4. JSONL output: one well-formed object per line.
// ---------------------------------------------------------------------
#[test]
fn jsonl_sink_writes_one_object_per_line() {
    let (x, omega) = problem(30, 5, 11, 40);
    let cfg = SmflConfig::smfl(3, 2).with_max_iter(10).with_seed(11).with_tol(0.0);
    let path = tmp("trace_jsonl_test.jsonl");
    let mut sink = JsonlSink::create(&path).unwrap();
    let model = fit_into(&x, &omega, &cfg, &mut sink).unwrap();
    drop(sink);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed line: {line}"
        );
        assert_eq!(line.matches('"').count() % 2, 0, "unbalanced quotes: {line}");
    }
    let iters = lines.iter().filter(|l| l.contains("\"type\":\"iter\"")).count();
    assert_eq!(iters, model.iterations);
    assert_eq!(
        lines.iter().filter(|l| l.contains("\"type\":\"counters\"")).count(),
        1,
        "exactly one counters line at fit end"
    );
    assert!(lines.iter().any(|l| l.contains("\"phase\":\"update_loop\"")));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// 5. Thread-invariance golden test via the SMFL_TRACE env toggle.
// ---------------------------------------------------------------------

/// Child-process body: runs a seeded fit large enough to cross the
/// parallel-dispatch threshold, with `SMFL_TRACE` set by the parent.
/// A no-op unless spawned by `traced_objectives_are_thread_invariant`.
#[test]
fn trace_child_fit() {
    if std::env::var_os("SMFL_TRACE_CHILD").is_none() {
        return;
    }
    // 2000x200 at ~35% observed, rank 8: 2·nnz·k ≈ 2.2M flops per
    // kernel, above PARALLEL_FLOP_THRESHOLD, so SMFL_THREADS > 1
    // actually forks the kernels.
    let (x, omega) = problem(2000, 200, 1234, 65);
    let cfg = SmflConfig::nmf(8).with_max_iter(6).with_seed(1234).with_tol(0.0);
    let model = fit(&x, &omega, &cfg).expect("child fit failed");
    assert_eq!(model.iterations, 6);
}

#[test]
fn traced_objectives_are_thread_invariant() {
    let exe = std::env::current_exe().unwrap();
    let mut sequences = Vec::new();
    for threads in ["1", "4"] {
        let path = tmp(&format!("trace_threads_{threads}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let status = Command::new(&exe)
            .args(["trace_child_fit", "--exact", "--test-threads=1"])
            .env("SMFL_TRACE_CHILD", "1")
            .env("SMFL_THREADS", threads)
            .env("SMFL_TRACE", &path)
            .status()
            .expect("failed to spawn child test process");
        assert!(status.success(), "child with SMFL_THREADS={threads} failed");

        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("SMFL_TRACE produced no file for {threads} threads: {e}"));
        // The shortest-roundtrip decimal in the JSONL is a bijection
        // with the f64 bits, so string equality == bitwise equality.
        let objectives: Vec<String> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"iter\""))
            .map(|l| {
                let start = l.find("\"objective\":").unwrap() + "\"objective\":".len();
                l[start..].split(',').next().unwrap().to_string()
            })
            .collect();
        assert_eq!(objectives.len(), 6, "expected 6 traced iterations");
        sequences.push(objectives);
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(
        sequences[0], sequences[1],
        "objective stream differs between SMFL_THREADS=1 and =4"
    );
}
