//! The *compile* half of the fit pipeline (DESIGN.md §12).
//!
//! A [`FitPlan`] is everything Algorithm 1 computes before its update
//! loop, materialized as a reusable artifact: validated + sanitized
//! inputs, the mean-filled SI, the p-NN similarity graph `D`
//! (lines 2-3), the k-means landmarks (lines 4-6), the compiled
//! [`ObservedPattern`] of the fused sparse engine, and a sized
//! [`Workspace`]. Compiling is the expensive, data-dependent phase;
//! [`FitPlan::solve`] (the update loop) is cheap per call
//! and can be repeated — cold, or warm-started through
//! [`SolveOptions::warm_from`] — without recompiling anything.
//!
//! The landmarks and the graph depend only on a small key of config
//! fields and on the SI, so both stages run through a [`PlanCache`]:
//! landmarks are keyed on `(K, seed, t₂, policy kind)`, the graph on
//! `(p, policy kind)` — both additionally on the SI matrix actually fed
//! to them. Every compile takes that one path; a plain
//! [`FitPlan::compile`] passes a fresh cache, so it always misses.
//! `grid_search` over the paper's λ-sweep shares one cache, so it runs
//! k-means once per distinct `K` and builds one graph per distinct `p`
//! instead of once per candidate × fold. The compiled pattern holds the
//! observed values of `x` and is compiled fresh by every plan.
//!
//! The pattern *is* the plan's Ω: [`FitPlan::rebind`] asks it whether
//! a new mask observes the same cells and the SI cells behind the graph
//! and landmarks are unchanged. A warm solve borrows its seed model.

use crate::config::{Resilience, SmflConfig, Updater};
use crate::health::{FitEvent, FitReport};
use crate::landmarks::Landmarks;
use crate::model::FittedModel;
use crate::resilience::{build_graph, compute_landmarks, record, sanitize_inputs};
use crate::telemetry::{NoopSink, Phase, SpanEvent, TraceSink};
use smfl_linalg::{LinalgError, Mask, Matrix, ObservedPattern, Result, Workspace};
use smfl_spatial::{fill_missing_si, SpatialGraph};
use std::borrow::Cow;
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;
use std::time::Instant;

/// Options controlling a single [`FitPlan::solve_with`] call.
///
/// The default is a cold solve: `U`/`V` initialized from the plan's
/// seed, bitwise-identical to [`crate::fit`]. A warm solve seeds the
/// factors from a previous solution instead, borrowed until the solve
/// copies them into its own iterate; the plan's landmark columns are
/// re-injected (re-frozen) on top of the warm `V`, so a warm start can
/// never unfreeze them.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions<'a> {
    pub(crate) warm: Option<&'a FittedModel>,
}

impl<'a> SolveOptions<'a> {
    /// A cold solve (same as `SolveOptions::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm-start from a fitted model's factors. The model must have
    /// the plan's shape and rank — a rank change invalidates a warm
    /// start (`DimensionMismatch { op: "warm_start" }` at solve time).
    pub fn warm_from(model: &'a FittedModel) -> Self {
        SolveOptions { warm: Some(model) }
    }
}

/// The heap bytes a [`FitPlan`] holds, per layer, from its buffers'
/// capacities ([`FitPlan::memory_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanMemory {
    /// The compiled pattern of Ω: `4·(N+1) + 20·|Ω| + 4·(M+1)`.
    pub pattern: usize,
    /// The spatial graph `D`: `4·(N+1) + 4·nnz`, or 0 without one.
    /// Counted in full even when a [`PlanCache`] shares it.
    pub graph: usize,
    /// The step scratch: the candidate factors, `Vᵀ`, and the buffers a
    /// step sizes on first use.
    pub workspace: usize,
    /// The `Recover` checkpoint pair: 0 until a solve checkpoints.
    pub checkpoint: usize,
}

impl PlanMemory {
    /// The sum of the layers.
    pub fn total(&self) -> usize {
        self.pattern + self.graph + self.workspace + self.checkpoint
    }
}

/// A compiled fit: validated inputs plus every pre-loop artifact of
/// Algorithm 1, ready to [`solve`](Self::solve) any number of times.
///
/// The graph is `Arc`-shared so a [`PlanCache`] can hand the same
/// compiled graph to many plans without copying.
#[derive(Debug, Clone)]
pub struct FitPlan {
    pub(crate) config: SmflConfig,
    /// The (possibly sanitized) Ω + observed values, the only copy of
    /// the data a solve reads; also the plan's shape.
    pub(crate) pattern: ObservedPattern,
    /// Similarity graph `D` (`None` when λ = 0, the variant has
    /// no spatial term, or the degradation ladder dropped it).
    pub(crate) graph: Option<Arc<SpatialGraph>>,
    /// Landmarks to freeze into `V` (`None` for NMF/SMF or when the
    /// degradation ladder dropped them).
    pub(crate) landmarks: Option<Landmarks>,
    /// Whether the graph or landmarks (or the ladder's decision to drop
    /// them) came from the SI columns, which `rebind` must keep.
    pub(crate) reads_si: bool,
    /// Pre-sized per-solve scratch (reused across solves).
    pub(crate) workspace: Workspace,
    /// Compile-phase audit trail (sanitization + degradation-ladder
    /// events); every solve's report starts from a copy of this.
    pub(crate) report: FitReport,
}

impl FitPlan {
    /// Compiles a plan for `(x, omega, config)` — the pre-loop phase of
    /// [`crate::fit`], exactly: sanitization (`Recover` policy), input
    /// validation, SI fill, graph construction, landmark k-means, and
    /// pattern/workspace compilation, in that order.
    pub fn compile(x: &Matrix, omega: &Mask, config: &SmflConfig) -> Result<FitPlan> {
        Self::compile_full(x, omega, config, None, &mut PlanCache::new(), &mut NoopSink)
    }

    /// [`compile`](Self::compile) streaming telemetry spans and engine
    /// events into `sink` (phases `si_fill`, `graph_*`, `landmarks`,
    /// `pattern_compile`, plus a trailing `plan_compile` covering the
    /// whole compile).
    pub fn compile_with_sink<S: TraceSink>(
        x: &Matrix,
        omega: &Mask,
        config: &SmflConfig,
        sink: &mut S,
    ) -> Result<FitPlan> {
        Self::compile_full(x, omega, config, None, &mut PlanCache::new(), sink)
    }

    /// [`compile`](Self::compile) through a [`PlanCache`], reusing any
    /// cached landmarks and graph whose key and SI match.
    pub fn compile_cached(
        x: &Matrix,
        omega: &Mask,
        config: &SmflConfig,
        cache: &mut PlanCache,
    ) -> Result<FitPlan> {
        Self::compile_full(x, omega, config, None, cache, &mut NoopSink)
    }

    /// [`compile`](Self::compile) with explicitly supplied landmarks,
    /// bypassing the k-means computation — for *curated* landmarks (the
    /// paper's §IV-C notes that carefully chosen landmarks can
    /// outperform automatic ones) and for the landmark-quality ablation.
    ///
    /// The landmark matrix must be `K x L` matching the configuration
    /// (`DimensionMismatch { op: "compile_with_landmarks" }` otherwise);
    /// the landmarks are used regardless of `config.variant`.
    pub fn compile_with_landmarks(
        x: &Matrix,
        omega: &Mask,
        config: &SmflConfig,
        landmarks: Landmarks,
    ) -> Result<FitPlan> {
        Self::compile_full(
            x,
            omega,
            config,
            Some(landmarks),
            &mut PlanCache::new(),
            &mut NoopSink,
        )
    }

    /// The one compile path behind every public entry point: the
    /// graph and landmark stages always run through `cache`, so a
    /// cached compile is bitwise the compile of a fresh cache.
    pub(crate) fn compile_full<S: TraceSink>(
        x: &Matrix,
        omega: &Mask,
        config: &SmflConfig,
        landmarks_override: Option<Landmarks>,
        cache: &mut PlanCache,
        sink: &mut S,
    ) -> Result<FitPlan> {
        if let Some(lm) = &landmarks_override {
            if lm.k() != config.rank || lm.spatial_cols() != config.spatial_cols {
                return Err(LinalgError::DimensionMismatch {
                    left: (lm.k(), lm.spatial_cols()),
                    right: (config.rank, config.spatial_cols),
                    op: "compile_with_landmarks",
                });
            }
        }
        let compile_t0 = S::ENABLED.then(Instant::now);
        let mut report = FitReport::default();

        // Sanitization is not a cached stage: it reads every observed
        // cell of the caller's `x`.
        let (x, omega) = sanitize_and_validate(x, omega, config, &mut report, sink)?;
        let (x, omega) = (x.as_ref(), omega.as_ref());

        // The mean-filled SI feeds both the similarity graph (Algorithm
        // 1 lines 2-3) and the landmark k-means (lines 4-6) — computed
        // at most once and shared. Every compile computes it: it is what
        // validates the cache's entries.
        let needs_graph = config.variant.uses_spatial_regularization() && config.lambda != 0.0;
        let needs_si_landmarks = landmarks_override.is_none() && config.variant.uses_landmarks();
        let reads_si = needs_graph || needs_si_landmarks;
        if reads_si {
            let t0 = S::ENABLED.then(Instant::now);
            let si = fill_missing_si(x, omega, config.spatial_cols);
            if let Some(t0) = t0 {
                sink.span(&SpanEvent {
                    phase: Phase::SiFill,
                    wall: t0.elapsed(),
                });
            }
            cache.sync_si(si);
        }
        let si = cache.si.as_ref().filter(|_| reads_si);
        let policy = discriminant(&config.resilience);
        let mut cache_hits = 0usize;

        // Algorithm 1 lines 2-3: similarity graph on the mean-filled
        // SI. Under `Recover` a degenerate graph drops the Laplacian
        // term (first rung of the degradation ladder) instead of
        // failing.
        let graph = match si {
            Some(si) if needs_graph => {
                let key = GraphKey {
                    p: config.p_neighbors,
                    policy,
                };
                let (graph, hit) = cache.graphs.run(
                    key,
                    si,
                    Phase::GraphBuild,
                    &mut report,
                    sink,
                    |si, report, sink| Ok(build_graph(si, config, report, sink)?.map(Arc::new)),
                )?;
                cache_hits += usize::from(hit);
                graph
            }
            _ => None,
        };

        // Algorithm 1 lines 4-6: landmarks (explicit override wins;
        // else k-means on the mean-filled SI for the SMFL variant).
        // Under `Recover` degenerate landmarks are retried with deduped
        // coordinates and re-derived seeds, then dropped (second rung).
        let landmarks = match (landmarks_override, si) {
            (Some(lm), _) => Some(lm),
            (None, Some(si)) if config.variant.uses_landmarks() => {
                let key = LmKey {
                    k: config.rank,
                    seed: config.seed,
                    kmeans_max_iter: config.kmeans_max_iter,
                    policy,
                };
                let (landmarks, hit) = cache.landmarks.run(
                    key,
                    si,
                    Phase::Landmarks,
                    &mut report,
                    sink,
                    |si, report, sink| compute_landmarks(si, config.rank, config, report, sink),
                )?;
                cache_hits += usize::from(hit);
                landmarks
            }
            _ => None,
        };

        // Compile Ω + X into the fused iteration engine's sparse
        // pattern, and size the per-plan scratch. Neither is cached: the
        // pattern holds the observed values of `x`, and the scratch is
        // rank-dependent and mutable.
        let pat_t0 = S::ENABLED.then(Instant::now);
        let pattern = ObservedPattern::compile(x, omega)?;
        let workspace = Workspace::new(&pattern, config.rank);
        if let Some(t0) = pat_t0 {
            sink.span(&SpanEvent {
                phase: Phase::PatternCompile,
                wall: t0.elapsed(),
            });
        }

        if let Some(t0) = compile_t0 {
            let wall = t0.elapsed();
            if cache_hits > 0 {
                sink.span(&SpanEvent {
                    phase: Phase::PlanReuse,
                    wall,
                });
            }
            sink.span(&SpanEvent {
                phase: Phase::PlanCompile,
                wall,
            });
        }

        Ok(FitPlan {
            config: config.clone(),
            pattern,
            graph,
            landmarks,
            reads_si,
            workspace,
            report,
        })
    }

    /// Cold solve with the plan's configuration — together with
    /// [`compile`](Self::compile) this is exactly [`crate::fit`].
    pub fn solve(&mut self) -> Result<FittedModel> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solve with explicit [`SolveOptions`] (e.g. a warm start).
    pub fn solve_with(&mut self, opts: &SolveOptions<'_>) -> Result<FittedModel> {
        crate::engine::solve(self, opts, &mut NoopSink)
    }

    /// [`solve_with`](Self::solve_with) streaming telemetry into
    /// `sink`. A warm solve additionally emits the `warm_start` span.
    pub fn solve_with_sink<S: TraceSink>(
        &mut self,
        opts: &SolveOptions<'_>,
        sink: &mut S,
    ) -> Result<FittedModel> {
        crate::engine::solve(self, opts, sink)
    }

    /// Rebinds the plan to new data of the **same shape** — the serving
    /// refit path — after the same sanitization and validation as a
    /// compile. Graph and landmarks are kept, so SI columns they were
    /// derived from must keep their observed cells and values, or
    /// `Changed { op: "plan_rebind" }` names the first difference
    /// (recompile instead). A mask observing the pattern's cells
    /// refills it **in place** with zero heap allocation; a changed
    /// mask recompiles it (the workspace's packed buffers follow on the
    /// next solve's first sparse step).
    pub fn rebind(&mut self, x: &Matrix, omega: &Mask) -> Result<()> {
        if x.shape() != self.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: x.shape(),
                right: self.shape(),
                op: "plan_rebind",
            });
        }
        // Sanitization events replace the report's once the rebind
        // succeeds.
        let mut events = FitReport::default();
        let (x, omega) = sanitize_and_validate(x, omega, &self.config, &mut events, &mut NoopSink)?;
        let si_cols = if self.reads_si {
            self.config.spatial_cols
        } else {
            0
        };
        if let Some(index) = self.pattern.first_difference(Some(&*x), &omega, si_cols) {
            return Err(LinalgError::Changed {
                op: "plan_rebind",
                index,
            });
        }
        // `refill` checks the cells before writing a value, so on a
        // changed mask it fails with the pattern untouched.
        if self.pattern.refill(&x, &omega).is_err() {
            self.pattern = ObservedPattern::compile(&x, &omega)?;
        }
        // The report describes the data the plan is bound to: this
        // request's sanitization replaces the last one's, ahead of the
        // compile's ladder events, where a compile records it.
        self.report
            .events
            .retain(|e| !matches!(e, FitEvent::Sanitized { .. }));
        self.report.events.splice(0..0, events.events);
        Ok(())
    }

    /// The configuration the plan was compiled for.
    pub fn config(&self) -> &SmflConfig {
        &self.config
    }

    /// Grid shape `(N, M)` of the data the plan fits.
    pub fn shape(&self) -> (usize, usize) {
        (self.pattern.rows(), self.pattern.cols())
    }

    /// The landmarks the solve will freeze into `V`, if any.
    pub fn landmarks(&self) -> Option<&Landmarks> {
        self.landmarks.as_ref()
    }

    /// The compiled spatial graph, if the plan has a Laplacian term.
    pub fn graph(&self) -> Option<&SpatialGraph> {
        self.graph.as_deref()
    }

    /// The heap bytes the plan holds, per layer. The config, the
    /// report and the landmarks (`K x L` values) are not counted.
    pub fn memory_bytes(&self) -> PlanMemory {
        PlanMemory {
            pattern: self.pattern.heap_bytes(),
            graph: self.graph.as_ref().map_or(0, |g| g.heap_bytes()),
            workspace: self.workspace.heap_bytes(),
            checkpoint: self.workspace.checkpoint_bytes(),
        }
    }

    /// Compile-phase audit trail: the sanitization of the data the plan
    /// is bound to (the compile's, or the last rebind's) and the
    /// degradation-ladder events. Every solve's `FitReport` starts from
    /// a copy of this.
    pub fn report(&self) -> &FitReport {
        &self.report
    }
}

#[derive(Debug, Clone, PartialEq)]
struct LmKey {
    k: usize,
    seed: u64,
    kmeans_max_iter: usize,
    policy: Discriminant<Resilience>,
}

#[derive(Debug, Clone, PartialEq)]
struct GraphKey {
    p: usize,
    policy: Discriminant<Resilience>,
}

/// One compile stage's memo: each entry is a key, the artifact built
/// for it and the events its build recorded, plus the stage's
/// build/hit counters.
#[derive(Debug, Clone)]
struct StageMemo<K, T> {
    entries: Vec<(K, T, Vec<FitEvent>)>,
    builds: usize,
    hits: usize,
}

impl<K, T> Default for StageMemo<K, T> {
    fn default() -> Self {
        StageMemo {
            entries: Vec::new(),
            builds: 0,
            hits: 0,
        }
    }
}

impl<K: PartialEq, T: Clone> StageMemo<K, T> {
    /// Runs the stage for `key`. A hit replays the entry's events into
    /// `report` and returns its artifact. A miss builds the artifact
    /// from `si`, spans the build as `phase`, and stores it with the
    /// events the build recorded. The flag is `true` on a hit.
    fn run<S: TraceSink>(
        &mut self,
        key: K,
        si: &Matrix,
        phase: Phase,
        report: &mut FitReport,
        sink: &mut S,
        build: impl FnOnce(&Matrix, &mut FitReport, &mut S) -> Result<T>,
    ) -> Result<(T, bool)> {
        if let Some((_, artifact, events)) = self.entries.iter().find(|(k, ..)| *k == key) {
            self.hits += 1;
            for ev in events {
                record(report, sink, *ev);
            }
            return Ok((artifact.clone(), true));
        }
        let t0 = S::ENABLED.then(Instant::now);
        let ev_start = report.events.len();
        let artifact = build(si, report, sink)?;
        if let Some(t0) = t0 {
            sink.span(&SpanEvent {
                phase,
                wall: t0.elapsed(),
            });
        }
        self.builds += 1;
        self.entries
            .push((key, artifact.clone(), report.events[ev_start..].to_vec()));
        Ok((artifact, false))
    }
}

/// Counters of what a [`PlanCache`] computed versus reused — the
/// honest ledger behind the plan-reuse benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Landmark k-means stages actually executed (cache misses).
    pub kmeans_runs: usize,
    /// Landmark stages served from cache.
    pub landmark_hits: usize,
    /// Graph builds actually executed (cache misses; includes `Recover`
    /// builds that ended up dropping the Laplacian).
    pub graph_builds: usize,
    /// Graph stages served from cache.
    pub graph_hits: usize,
    /// Times the cache had to flush its landmark/graph entries because
    /// a compile presented a different SI matrix.
    pub si_resets: usize,
}

/// Cross-compile cache of a plan's shareable sub-artifacts, used by
/// [`crate::grid_search`] to avoid recomputing k-means landmarks and
/// similarity graphs across candidates and folds. Every compile runs
/// its graph and landmark stages through one (a plain compile through
/// a fresh one), so there is no uncached second path.
///
/// Keying: landmarks on `(K, seed, t₂, policy kind)`, graphs on `(p,
/// policy kind)` — each entry implicitly also on the SI matrix it was
/// built from (a compile presenting a different SI flushes every
/// entry). Nothing else a plan holds is cached: the compiled pattern
/// carries the observed values of `x`, so every compile builds its
/// own.
///
/// Event replay: each entry stores the `FitEvent`s its original build
/// recorded (e.g. `LaplacianDropped`), and a hit replays them into the
/// new plan's report, so a cached compile produces the same
/// `FitReport` as a fresh one.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    si: Option<Matrix>,
    graphs: StageMemo<GraphKey, Option<Arc<SpatialGraph>>>,
    landmarks: StageMemo<LmKey, Option<Landmarks>>,
    si_resets: usize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computed-vs-reused counters accumulated so far.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            kmeans_runs: self.landmarks.builds,
            landmark_hits: self.landmarks.hits,
            graph_builds: self.graphs.builds,
            graph_hits: self.graphs.hits,
            si_resets: self.si_resets,
        }
    }

    /// Keeps the stage entries only while the presented SI matches the
    /// one they were built from. The cache owns the SI from here on:
    /// the compile's stages read it back from the cache.
    fn sync_si(&mut self, si: Matrix) {
        if self.si.as_ref() == Some(&si) {
            return;
        }
        if self.si.is_some() {
            self.si_resets += 1;
        }
        self.si = Some(si);
        self.graphs.entries.clear();
        self.landmarks.entries.clear();
    }
}

/// Sanitizes `(x, omega)` under [`Resilience::Recover`] (recording the
/// masked cells in `report`), then validates the result — the input
/// stage shared by [`FitPlan::compile_full`] and [`FitPlan::rebind`].
/// Under `Strict` the inputs are borrowed unchanged and unusable cells
/// fail validation instead.
fn sanitize_and_validate<'a, S: TraceSink>(
    x: &'a Matrix,
    omega: &'a Mask,
    config: &SmflConfig,
    report: &mut FitReport,
    sink: &mut S,
) -> Result<(Cow<'a, Matrix>, Cow<'a, Mask>)> {
    let multiplicative = matches!(config.updater, Updater::Multiplicative);
    let sanitized = config
        .resilience
        .recovers()
        .then(|| sanitize_inputs(x, omega, multiplicative))
        .flatten();
    let (x, omega, removed) = match sanitized {
        Some((cx, co, removed)) => (Cow::Owned(cx), Cow::Owned(co), removed),
        None => (Cow::Borrowed(x), Cow::Borrowed(omega), 0),
    };
    validate(&x, &omega, config)?;
    if removed > 0 {
        record(report, sink, FitEvent::Sanitized { cells: removed });
    }
    Ok((x, omega))
}

/// Input validation shared by every compile path (historically the
/// `validate` of `model.rs`).
fn validate(x: &Matrix, omega: &Mask, config: &SmflConfig) -> Result<()> {
    if x.shape() != omega.shape() {
        return Err(LinalgError::DimensionMismatch {
            left: x.shape(),
            right: omega.shape(),
            op: "fit",
        });
    }
    let (n, m) = x.shape();
    if n == 0 || m == 0 {
        return Err(LinalgError::Empty);
    }
    // K must stay below N (each landmark needs data); K > M is allowed
    // (an overcomplete dictionary of landmarks, which Fig. 8's
    // "moderately large K" recommendation exploits).
    if config.rank == 0 || config.rank >= n.max(2) {
        return Err(LinalgError::BadLength {
            expected: n.saturating_sub(1),
            actual: config.rank,
        });
    }
    if config.spatial_cols > m {
        return Err(LinalgError::IndexOutOfBounds {
            index: (0, config.spatial_cols),
            shape: (n, m),
        });
    }
    // One pass over the observed cells: non-finite values are never
    // usable (they poison every inner product); negative values break
    // the multiplicative rules' nonnegativity invariant. Under `Recover`
    // these cells were masked out before validation, so this check only
    // fires on the strict path.
    let multiplicative = matches!(config.updater, Updater::Multiplicative);
    for (i, j) in omega.iter_set() {
        let v = x.get(i, j);
        if !v.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "fit",
                index: (i, j),
            });
        }
        if multiplicative && v < 0.0 {
            return Err(LinalgError::Negative {
                op: "fit",
                index: (i, j),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fit;

    fn spatial_data(n: usize, m: usize, seed: u64) -> Matrix {
        let u = smfl_linalg::random::positive_uniform_matrix(n, 3, seed);
        let v = smfl_linalg::random::positive_uniform_matrix(3, m, seed + 1);
        smfl_linalg::ops::matmul(&u, &v).unwrap().scale(1.0 / 3.0)
    }

    fn drop_cells(n: usize, m: usize, frac_inv: usize) -> Mask {
        let mut omega = Mask::full(n, m);
        for i in 0..n {
            if i % frac_inv == 0 {
                omega.set(i, (i * 5 + 2) % m, false);
            }
        }
        omega
    }

    #[test]
    fn compile_solve_equals_fit() {
        let x = spatial_data(30, 6, 21);
        let omega = drop_cells(30, 6, 4);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(25).with_seed(3);
        let direct = fit(&x, &omega, &cfg).unwrap();
        let planned = FitPlan::compile(&x, &omega, &cfg).unwrap().solve().unwrap();
        assert!(direct.u.approx_eq(&planned.u, 0.0));
        assert!(direct.v.approx_eq(&planned.v, 0.0));
        assert_eq!(direct.objective_history, planned.objective_history);
        assert_eq!(direct.report, planned.report);
        assert_eq!(direct.iterations, planned.iterations);
        assert_eq!(direct.converged, planned.converged);
    }

    #[test]
    fn repeated_cold_solves_are_identical() {
        let x = spatial_data(25, 5, 22);
        let omega = drop_cells(25, 5, 3);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(20);
        let mut plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
        let a = plan.solve().unwrap();
        let b = plan.solve().unwrap();
        assert!(a.u.approx_eq(&b.u, 0.0));
        assert!(a.v.approx_eq(&b.v, 0.0));
        assert_eq!(a.objective_history, b.objective_history);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn cached_compile_matches_uncached() {
        let x = spatial_data(40, 6, 23);
        let omega = drop_cells(40, 6, 4);
        let mut cache = PlanCache::new();
        for cfg in [
            SmflConfig::smfl(3, 2).with_max_iter(15),
            SmflConfig::smfl(3, 2).with_lambda(1.0).with_max_iter(15),
            SmflConfig::smfl(4, 2).with_max_iter(15),
        ] {
            let plain = FitPlan::compile(&x, &omega, &cfg).unwrap().solve().unwrap();
            let cached = FitPlan::compile_cached(&x, &omega, &cfg, &mut cache)
                .unwrap()
                .solve()
                .unwrap();
            assert!(plain.u.approx_eq(&cached.u, 0.0));
            assert!(plain.v.approx_eq(&cached.v, 0.0));
            assert_eq!(plain.objective_history, cached.objective_history);
            assert_eq!(plain.report, cached.report);
        }
        let stats = cache.stats();
        // Same (K, seed): one k-means run serves candidates 1 and 2; the
        // λ change reuses the same graph key; rank 4 recomputes k-means.
        assert_eq!(stats.kmeans_runs, 2, "{stats:?}");
        assert_eq!(stats.landmark_hits, 1);
        assert_eq!(stats.graph_builds, 1);
        assert_eq!(stats.graph_hits, 2);
        assert_eq!(stats.si_resets, 0);
    }

    #[test]
    fn cached_compile_fits_the_data_it_is_given() {
        // Same mask, same SI columns, new attribute values: the cache
        // may share the graph and landmarks, but the plan must fit x₂.
        let x1 = spatial_data(40, 6, 33);
        let mut x2 = x1.clone();
        for i in 0..x2.rows() {
            for j in 2..x2.cols() {
                x2.set(i, j, x1.get(i, j) * 0.5 + 0.1);
            }
        }
        let omega = drop_cells(40, 6, 4);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(15);
        let mut cache = PlanCache::new();
        FitPlan::compile_cached(&x1, &omega, &cfg, &mut cache).unwrap();
        let cached = FitPlan::compile_cached(&x2, &omega, &cfg, &mut cache)
            .unwrap()
            .solve()
            .unwrap();
        let fresh = FitPlan::compile(&x2, &omega, &cfg)
            .unwrap()
            .solve()
            .unwrap();
        assert!(fresh.u.approx_eq(&cached.u, 0.0));
        assert!(fresh.v.approx_eq(&cached.v, 0.0));
        assert_eq!(fresh.objective_history, cached.objective_history);
        let stats = cache.stats();
        assert_eq!(
            (stats.graph_hits, stats.landmark_hits, stats.si_resets),
            (1, 1, 0)
        );
    }

    #[test]
    fn negative_observed_value_is_a_typed_error() {
        let mut x = spatial_data(10, 5, 34);
        x.set(2, 3, -0.5);
        let err = FitPlan::compile(&x, &Mask::full(10, 5), &SmflConfig::nmf(2)).unwrap_err();
        assert_eq!(
            err,
            LinalgError::Negative {
                op: "fit",
                index: (2, 3)
            }
        );
    }

    #[test]
    fn warm_start_rejects_rank_change() {
        let x = spatial_data(20, 5, 24);
        let omega = Mask::full(20, 5);
        let model = fit(&x, &omega, &SmflConfig::nmf(3).with_max_iter(10)).unwrap();
        let mut plan = FitPlan::compile(&x, &omega, &SmflConfig::nmf(4).with_max_iter(10)).unwrap();
        let err = plan
            .solve_with(&SolveOptions::warm_from(&model))
            .unwrap_err();
        assert!(matches!(
            err,
            LinalgError::DimensionMismatch {
                op: "warm_start",
                ..
            }
        ));
    }

    #[test]
    fn warm_solve_refreezes_landmarks() {
        let x = spatial_data(30, 6, 25);
        let omega = drop_cells(30, 6, 5);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(20);
        let mut plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
        let cold = plan.solve().unwrap();
        // Corrupt the warm seed's landmark columns; the solve must
        // re-freeze them from the plan.
        let mut bad = cold.clone();
        bad.v.set(0, 0, 9.99);
        let warm = plan.solve_with(&SolveOptions::warm_from(&bad)).unwrap();
        let lm = plan.landmarks().unwrap();
        assert!(
            lm.verify_injected(&warm.v),
            "landmark columns not re-frozen"
        );
    }

    #[test]
    fn rebind_same_mask_updates_values_in_place() {
        let x = spatial_data(25, 5, 26);
        let omega = drop_cells(25, 5, 3);
        let cfg = SmflConfig::nmf(3).with_max_iter(15);
        let mut plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
        plan.solve().unwrap();
        // New data, same mask: the rebound plan must fit the new data
        // exactly as a fresh compile would.
        let x2 = spatial_data(25, 5, 27);
        plan.rebind(&x2, &omega).unwrap();
        let rebound = plan.solve().unwrap();
        let fresh = fit(&x2, &omega, &cfg).unwrap();
        assert!(rebound.u.approx_eq(&fresh.u, 0.0));
        assert!(rebound.v.approx_eq(&fresh.v, 0.0));
        assert_eq!(rebound.objective_history, fresh.objective_history);
    }

    #[test]
    fn rebind_changed_mask_recompiles_pattern() {
        let x = spatial_data(25, 5, 28);
        let omega = drop_cells(25, 5, 3);
        let cfg = SmflConfig::nmf(3).with_max_iter(15);
        let mut plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
        plan.solve().unwrap();
        let omega2 = drop_cells(25, 5, 4);
        let x2 = spatial_data(25, 5, 29);
        plan.rebind(&x2, &omega2).unwrap();
        let rebound = plan.solve().unwrap();
        let fresh = fit(&x2, &omega2, &cfg).unwrap();
        assert!(rebound.u.approx_eq(&fresh.u, 0.0));
        assert!(rebound.v.approx_eq(&fresh.v, 0.0));
    }

    #[test]
    fn rebind_rejects_changed_spatial_columns() {
        // A moved point or a newly unobserved coordinate would be fitted
        // against a graph and landmarks built from the old SI.
        let x = spatial_data(30, 6, 35);
        let omega = drop_cells(30, 6, 4);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(10);
        let mut plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
        let before = plan.solve().unwrap();
        let mut moved = x.clone();
        moved.set(7, 1, x.get(7, 1) + 0.25);
        moved.set(9, 0, x.get(9, 0) + 0.25);
        let err = plan.rebind(&moved, &omega).unwrap_err();
        assert_eq!(
            err,
            LinalgError::Changed {
                op: "plan_rebind",
                index: (7, 1)
            }
        );
        let mut fewer = omega.clone();
        fewer.set(3, 0, false);
        let err = plan.rebind(&x, &fewer).unwrap_err();
        assert_eq!(
            err,
            LinalgError::Changed {
                op: "plan_rebind",
                index: (3, 0)
            }
        );
        // The rejected rebinds left the plan as compiled.
        let after = plan.solve().unwrap();
        assert!(after.u.approx_eq(&before.u, 0.0));
        assert_eq!(after.objective_history, before.objective_history);
        // NMF has neither, so it reads no SI.
        let mut nmf = FitPlan::compile(&x, &omega, &SmflConfig::nmf(3)).unwrap();
        nmf.rebind(&moved, &omega).unwrap();
    }

    #[test]
    fn rebind_report_describes_the_bound_data() {
        // Identical coordinates fire the landmark ladder at compile time,
        // and each request carries one NaN attribute cell. The plan's
        // report must be what compiling that request would report — one
        // `Sanitized` event ahead of the ladder's — not a log of every
        // request since the compile.
        let x = Matrix::from_fn(24, 5, |i, j| match j {
            0 | 1 => 0.5,
            _ => 0.2 + 0.02 * ((i * 7 + j) % 11) as f64,
        });
        let omega = Mask::full(24, 5);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(5).resilient();
        let dirty = |i: usize| {
            let mut d = x.clone();
            d.set(i, 3, f64::NAN);
            d
        };
        let mut plan = FitPlan::compile(&dirty(0), &omega, &cfg).unwrap();
        for i in 1..4 {
            let request = dirty(i);
            plan.rebind(&request, &omega).unwrap();
            let fresh = FitPlan::compile(&request, &omega, &cfg).unwrap();
            assert_eq!(plan.report(), fresh.report());
            assert_eq!(plan.solve().unwrap().report.sanitized_cells(), 1);
        }
        plan.rebind(&x, &omega).unwrap();
        assert_eq!(plan.report().sanitized_cells(), 0);
        assert_eq!(
            plan.report(),
            FitPlan::compile(&x, &omega, &cfg).unwrap().report()
        );
    }

    #[test]
    fn rebind_rejects_shape_change_and_bad_values() {
        let x = spatial_data(20, 5, 30);
        let omega = Mask::full(20, 5);
        let mut plan = FitPlan::compile(&x, &omega, &SmflConfig::nmf(3).with_max_iter(5)).unwrap();
        let wrong = spatial_data(21, 5, 30);
        assert!(plan.rebind(&wrong, &Mask::full(21, 5)).is_err());
        let mut bad = x.clone();
        bad.set(1, 1, f64::NAN);
        assert!(plan.rebind(&bad, &omega).is_err());
    }

    #[test]
    fn refit_warm_starts_from_previous_model() {
        let x = spatial_data(40, 6, 31);
        let omega = drop_cells(40, 6, 4);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(400).with_tol(1e-8);
        let mut plan = FitPlan::compile(&x, &omega, &cfg).unwrap();
        let cold = plan.solve().unwrap();
        // Perturb the data slightly — the serving scenario.
        let x2 = {
            let mut x2 = x.clone();
            for i in 0..x2.rows() {
                let v = x2.get(i, 3);
                x2.set(i, 3, v * 1.01);
            }
            x2
        };
        let warm = cold.refit(&mut plan, &x2, &omega).unwrap();
        let cold2 = fit(&x2, &omega, &cfg).unwrap();
        assert!(warm.u.all_finite() && warm.v.all_finite());
        // The warm refit should need no more iterations than the cold
        // fit of the same data (on this near-identical data, far fewer).
        assert!(
            warm.iterations <= cold2.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold2.iterations
        );
        // And it must reach (or beat) the cold fit's final objective.
        let warm_final = warm.final_objective().unwrap();
        let cold_final = cold2.final_objective().unwrap();
        assert!(
            warm_final <= cold_final * (1.0 + 1e-6),
            "warm {warm_final} vs cold {cold_final}"
        );
    }

    #[test]
    fn compile_with_landmarks_validates_dimensions() {
        let x = spatial_data(20, 5, 32);
        let omega = Mask::full(20, 5);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(5);
        let si = fill_missing_si(&x, &omega, 2);
        let lm = Landmarks::compute(&si, 4, 50, 0).unwrap(); // wrong K
        assert!(FitPlan::compile_with_landmarks(&x, &omega, &cfg, lm).is_err());
        let lm = Landmarks::compute(&si, 3, 50, 0).unwrap();
        let model = FitPlan::compile_with_landmarks(&x, &omega, &cfg, lm)
            .unwrap()
            .solve()
            .unwrap();
        assert!(model.landmarks.is_some());
    }
}
