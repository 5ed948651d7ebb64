//! Zero-cost-when-disabled observability for the fit pipeline
//! (DESIGN.md §11).
//!
//! The engine is instrumented through one trait, [`TraceSink`], whose
//! associated constant [`TraceSink::ENABLED`] lets the compiler erase
//! every instrumentation site when the sink is [`NoopSink`]: the fit
//! loop guards each event construction — including the
//! `Instant::now()` reads — behind `if S::ENABLED`, which const-folds
//! to nothing for the no-op sink. (The one exception is the graph
//! build, which always times its kNN and assembly phases: four clock
//! reads per compile.) The disabled path is therefore
//! bitwise- and allocation-identical to an uninstrumented engine
//! (asserted by `tests/trace.rs` and the counting-allocator test;
//! bounded by `benches/trace_overhead.rs`).
//!
//! Three event kinds flow through a sink:
//!
//! - [`IterEvent`] — one per update iteration: the objective split into
//!   its fit and Laplacian terms, wall time, the health classification
//!   (PR 3), whether the iterate was accepted, and whether the frozen
//!   landmark columns are still bitwise intact;
//! - [`SpanEvent`] — one per pipeline [`Phase`] (SI fill, graph build
//!   with its kNN/assembly split, landmark k-means, pattern compile,
//!   the whole update loop);
//! - engine events — every [`FitEvent`] the engine records is
//!   mirrored to the sink in order, so a trace's event stream equals
//!   `FitReport::events` exactly.
//!
//! Kernel counters ([`KernelCounters`]) are accumulated in the
//! [`smfl_linalg::Workspace`] by the updaters themselves (a few integer
//! adds per iteration, paid unconditionally — they cannot change any
//! `f64` result) and handed to the sink once at fit end.
//!
//! Two concrete sinks ship: [`RecordingSink`] buffers everything in
//! memory as a [`Trace`] (powering the theorem-grade test suites; pass
//! it to `FitPlan::compile_with_sink` and `solve_with_sink`), and
//! [`JsonlSink`] streams one JSON object per event to a buffered file —
//! enabled process-wide by pointing the `SMFL_TRACE` environment
//! variable at a path.

use crate::health::{FitEvent, FitFailure};
use smfl_linalg::KernelCounters;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One update iteration, as observed by the fit loop.
///
/// `laplacian_term` is `objective - fit_term` (zero when the fit has no
/// spatial regularization), so `fit_term + laplacian_term == objective`
/// exactly. Timing (`wall`) is the only non-deterministic field; golden
/// comparisons must exclude it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterEvent {
    /// 0-based iteration index within the fit loop.
    pub iteration: usize,
    /// Full objective `‖R_Ω(X − UV)‖² + λ·Tr(UᵀLU)` after the step.
    pub objective: f64,
    /// The reconstruction (fit) term of the objective.
    pub fit_term: f64,
    /// The spatial-regularization term (`objective - fit_term`).
    pub laplacian_term: f64,
    /// Wall time of the update pass that produced this iterate (the
    /// same pass scored the iterate before it).
    pub wall: Duration,
    /// Health classification of the iterate (`None` when healthy).
    pub health: Option<FitFailure>,
    /// Whether the iterate was accepted into the objective history
    /// (`false` on the restart/abort paths).
    pub accepted: bool,
    /// Whether every frozen landmark entry `v_kj == c_kj` on `Φ` held
    /// after the step (`true` when the fit has no landmarks).
    pub landmarks_intact: bool,
}

/// A named preprocessing/loop phase of the fit pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Mean-filling missing spatial-information cells.
    SiFill,
    /// Bulk kNN queries of the graph build (sub-span of `GraphBuild`).
    GraphKnn,
    /// Adjacency assembly of the graph build (sub-span of `GraphBuild`).
    GraphAssembly,
    /// The whole spatial-graph construction.
    GraphBuild,
    /// Landmark k-means computation.
    Landmarks,
    /// `ObservedPattern` compilation + workspace allocation.
    PatternCompile,
    /// The whole compile phase of a [`crate::plan::FitPlan`] (sanitize,
    /// validate, SI fill, graph, landmarks, pattern — everything before
    /// the update loop).
    PlanCompile,
    /// A compile-phase artifact was served from a
    /// [`crate::plan::PlanCache`] instead of being rebuilt (wall time is
    /// the lookup, not the build it saved).
    PlanReuse,
    /// Warm-start seeding of `U`/`V` from a previous solution,
    /// including re-freezing the landmark columns.
    WarmStart,
    /// The whole update loop (all iterations, restarts included).
    UpdateLoop,
}

impl Phase {
    /// Stable lowercase name used in JSONL output and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::SiFill => "si_fill",
            Phase::GraphKnn => "graph_knn",
            Phase::GraphAssembly => "graph_assembly",
            Phase::GraphBuild => "graph_build",
            Phase::Landmarks => "landmarks",
            Phase::PatternCompile => "pattern_compile",
            Phase::PlanCompile => "plan_compile",
            Phase::PlanReuse => "plan_reuse",
            Phase::WarmStart => "warm_start",
            Phase::UpdateLoop => "update_loop",
        }
    }
}

/// One completed pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Which phase completed.
    pub phase: Phase,
    /// Its wall time.
    pub wall: Duration,
}

/// Receiver for fit-pipeline telemetry.
///
/// Implementations must never fail the fit: sinks swallow their own
/// I/O errors. The engine promises to call [`TraceSink::finish`]
/// exactly once, after the last event of a successful fit (error
/// returns may skip it; buffered sinks also flush on drop).
///
/// Custom sinks keep the default `ENABLED = true`; only [`NoopSink`]
/// opts out, which removes every instrumentation site at compile time.
pub trait TraceSink {
    /// `false` erases all instrumentation at monomorphization time.
    const ENABLED: bool = true;

    /// One update iteration completed.
    fn iter(&mut self, event: &IterEvent);

    /// One pipeline phase completed.
    fn span(&mut self, event: &SpanEvent);

    /// The engine recorded a [`FitEvent`] (mirrors
    /// `FitReport::events` in order).
    fn engine(&mut self, event: &FitEvent);

    /// Final kernel counters, reported once at fit end.
    fn counters(&mut self, _counters: &KernelCounters) {}

    /// The fit finished; flush any buffers.
    fn finish(&mut self) {}
}

/// The disabled sink: its `ENABLED = false` makes every `if S::ENABLED`
/// guard in the engine const-fold away, so a fit through [`NoopSink`]
/// is the uninstrumented engine, bit for bit and allocation for
/// allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;
    fn iter(&mut self, _event: &IterEvent) {}
    fn span(&mut self, _event: &SpanEvent) {}
    fn engine(&mut self, _event: &FitEvent) {}
}

/// Everything one fit emitted, in memory.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-iteration events, in loop order (restart iterations
    /// included, flagged `accepted: false`).
    pub iterations: Vec<IterEvent>,
    /// Pipeline phase timings, in completion order.
    pub spans: Vec<SpanEvent>,
    /// Mirror of `FitReport::events`, in order.
    pub events: Vec<FitEvent>,
    /// Final kernel counters of the fit.
    pub counters: KernelCounters,
}

impl Trace {
    /// Objectives of the *accepted* iterations — the sequence that
    /// equals `FittedModel::objective_history` bitwise.
    pub fn accepted_objectives(&self) -> impl Iterator<Item = f64> + '_ {
        self.iterations
            .iter()
            .filter(|e| e.accepted)
            .map(|e| e.objective)
    }

    /// `true` when the accepted objective trajectory is non-increasing
    /// up to a relative slack (Propositions 5/7 of the paper; slack
    /// absorbs FP noise, `1e-9` in the theorem suite).
    pub fn non_increasing(&self, rel_slack: f64) -> bool {
        let mut prev: Option<f64> = None;
        for obj in self.accepted_objectives() {
            if let Some(p) = prev {
                if obj > p + rel_slack * p.abs().max(1.0) {
                    return false;
                }
            }
            prev = Some(obj);
        }
        true
    }

    /// `true` when every recorded iteration (accepted or not) left the
    /// frozen landmark columns bitwise intact.
    pub fn landmarks_always_intact(&self) -> bool {
        self.iterations.iter().all(|e| e.landmarks_intact)
    }

    /// Total wall time recorded for `phase` (`None` when the phase
    /// never ran).
    pub fn span_total(&self, phase: Phase) -> Option<Duration> {
        let mut total = None;
        for s in self.spans.iter().filter(|s| s.phase == phase) {
            *total.get_or_insert(Duration::ZERO) += s.wall;
        }
        total
    }
}

/// In-memory sink buffering a [`Trace`] — the test-suite workhorse.
/// Pass one sink to both `FitPlan::compile_with_sink` and
/// `FitPlan::solve_with_sink` to record a whole fit.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    trace: Trace,
}

impl RecordingSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink with the iteration buffer pre-reserved, so recording up
    /// to `iterations` events allocates nothing in the fit loop.
    pub fn with_capacity(iterations: usize) -> Self {
        RecordingSink {
            trace: Trace {
                iterations: Vec::with_capacity(iterations),
                ..Trace::default()
            },
        }
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the sink, yielding the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl TraceSink for RecordingSink {
    fn iter(&mut self, event: &IterEvent) {
        self.trace.iterations.push(*event);
    }

    fn span(&mut self, event: &SpanEvent) {
        self.trace.spans.push(*event);
    }

    fn engine(&mut self, event: &FitEvent) {
        self.trace.events.push(*event);
    }

    fn counters(&mut self, counters: &KernelCounters) {
        self.trace.counters = *counters;
    }
}

/// Buffered JSONL file sink: one JSON object per event, streamed
/// through a `BufWriter`. Write errors after creation are swallowed
/// (telemetry must never fail a fit); [`TraceSink::finish`] flushes.
///
/// Activated process-wide by `SMFL_TRACE=path` (checked once per call
/// to `fit`, under either resilience policy), or passed explicitly to
/// `FitPlan::compile_with_sink` and `FitPlan::solve_with_sink`.
#[derive(Debug)]
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

/// A finite `f64` in JSON; NaN/±Inf (not representable) become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display for finite f64 is valid JSON.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn failure_name(f: FitFailure) -> &'static str {
    match f {
        FitFailure::NonFinite => "non_finite",
        FitFailure::Diverged => "diverged",
        FitFailure::Stalled => "stalled",
    }
}

/// The `FitEvent` serialization shared by JSONL output and the eval
/// tables: `(name, detail)` where detail is the event's payload.
pub fn event_parts(e: &FitEvent) -> (&'static str, String) {
    match e {
        FitEvent::Sanitized { cells } => ("sanitized", format!("cells={cells}")),
        FitEvent::CoordinatesDeduped { rows } => ("coordinates_deduped", format!("rows={rows}")),
        FitEvent::LaplacianDropped { reason } => ("laplacian_dropped", (*reason).to_string()),
        FitEvent::LandmarksRetried { attempt } => {
            ("landmarks_retried", format!("attempt={attempt}"))
        }
        FitEvent::LandmarksDropped { reason } => ("landmarks_dropped", (*reason).to_string()),
        FitEvent::Restarted { iteration, failure } => (
            "restarted",
            format!("iteration={iteration} failure={}", failure_name(*failure)),
        ),
        FitEvent::RolledBack { iteration } => ("rolled_back", format!("iteration={iteration}")),
    }
}

impl TraceSink for JsonlSink {
    fn iter(&mut self, e: &IterEvent) {
        let health = e
            .health
            .map_or("null".to_string(), |f| format!("\"{}\"", failure_name(f)));
        let _ = writeln!(
            self.out,
            "{{\"type\":\"iter\",\"iteration\":{},\"objective\":{},\"fit_term\":{},\
             \"laplacian_term\":{},\"wall_us\":{},\"health\":{},\"accepted\":{},\
             \"landmarks_intact\":{}}}",
            e.iteration,
            json_f64(e.objective),
            json_f64(e.fit_term),
            json_f64(e.laplacian_term),
            e.wall.as_micros(),
            health,
            e.accepted,
            e.landmarks_intact,
        );
    }

    fn span(&mut self, e: &SpanEvent) {
        let _ = writeln!(
            self.out,
            "{{\"type\":\"span\",\"phase\":\"{}\",\"wall_us\":{}}}",
            e.phase.name(),
            e.wall.as_micros(),
        );
    }

    fn engine(&mut self, e: &FitEvent) {
        let (name, detail) = event_parts(e);
        let _ = writeln!(
            self.out,
            "{{\"type\":\"event\",\"event\":\"{name}\",\"detail\":\"{detail}\"}}",
        );
    }

    fn counters(&mut self, c: &KernelCounters) {
        let _ = writeln!(
            self.out,
            "{{\"type\":\"counters\",\"sddmm\":{},\"spmm\":{},\
             \"dense_steps\":{},\"masked_nnz\":{}}}",
            c.sddmm, c.spmm, c.dense_steps, c.masked_nnz,
        );
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

/// The `SMFL_TRACE` destination, when set and non-empty.
pub(crate) fn env_trace_path() -> Option<PathBuf> {
    std::env::var_os("SMFL_TRACE")
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_event(iteration: usize, objective: f64, accepted: bool) -> IterEvent {
        IterEvent {
            iteration,
            objective,
            fit_term: objective,
            laplacian_term: 0.0,
            wall: Duration::from_micros(10),
            health: None,
            accepted,
            landmarks_intact: true,
        }
    }

    #[test]
    fn noop_sink_is_disabled_at_compile_time() {
        const {
            assert!(!NoopSink::ENABLED);
            assert!(RecordingSink::ENABLED);
            assert!(JsonlSink::ENABLED);
        }
    }

    #[test]
    fn recording_sink_buffers_in_order() {
        let mut sink = RecordingSink::new();
        sink.iter(&iter_event(0, 2.0, true));
        sink.iter(&iter_event(1, 1.0, true));
        sink.span(&SpanEvent {
            phase: Phase::GraphBuild,
            wall: Duration::from_millis(1),
        });
        sink.engine(&FitEvent::Sanitized { cells: 2 });
        sink.counters(&KernelCounters {
            sddmm: 3,
            ..KernelCounters::default()
        });
        let trace = sink.into_trace();
        assert_eq!(trace.iterations.len(), 2);
        assert_eq!(
            trace.accepted_objectives().collect::<Vec<_>>(),
            vec![2.0, 1.0]
        );
        assert_eq!(trace.events, vec![FitEvent::Sanitized { cells: 2 }]);
        assert_eq!(trace.counters.sddmm, 3);
        assert!(trace.span_total(Phase::GraphBuild).is_some());
        assert!(trace.span_total(Phase::Landmarks).is_none());
    }

    #[test]
    fn non_increasing_respects_slack_and_rejections() {
        let mut t = Trace::default();
        t.iterations.push(iter_event(0, 2.0, true));
        t.iterations.push(iter_event(1, 5.0, false)); // rejected: ignored
        t.iterations.push(iter_event(2, 1.0, true));
        assert!(t.non_increasing(0.0));
        t.iterations.push(iter_event(3, 1.0 + 1e-12, true));
        assert!(t.non_increasing(1e-9));
        assert!(!t.non_increasing(0.0));
        t.iterations.push(iter_event(4, 3.0, true));
        assert!(!t.non_increasing(1e-9));
    }

    #[test]
    fn landmark_intactness_aggregates_over_all_iterations() {
        let mut t = Trace::default();
        t.iterations.push(iter_event(0, 1.0, true));
        assert!(t.landmarks_always_intact());
        let mut broken = iter_event(1, 0.5, false);
        broken.landmarks_intact = false;
        t.iterations.push(broken);
        assert!(!t.landmarks_always_intact());
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn phase_names_are_stable() {
        for (phase, name) in [
            (Phase::SiFill, "si_fill"),
            (Phase::GraphKnn, "graph_knn"),
            (Phase::GraphAssembly, "graph_assembly"),
            (Phase::GraphBuild, "graph_build"),
            (Phase::Landmarks, "landmarks"),
            (Phase::PatternCompile, "pattern_compile"),
            (Phase::PlanCompile, "plan_compile"),
            (Phase::PlanReuse, "plan_reuse"),
            (Phase::WarmStart, "warm_start"),
            (Phase::UpdateLoop, "update_loop"),
        ] {
            assert_eq!(phase.name(), name);
        }
    }

    #[test]
    fn event_parts_cover_every_variant() {
        let cases = [
            FitEvent::Sanitized { cells: 1 },
            FitEvent::CoordinatesDeduped { rows: 2 },
            FitEvent::LaplacianDropped { reason: "r" },
            FitEvent::LandmarksRetried { attempt: 1 },
            FitEvent::LandmarksDropped { reason: "r" },
            FitEvent::Restarted {
                iteration: 3,
                failure: FitFailure::Diverged,
            },
            FitEvent::RolledBack { iteration: 4 },
        ];
        let names: Vec<&str> = cases.iter().map(|e| event_parts(e).0).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "event names must be distinct");
    }
}
