//! The *compile* half of the fit pipeline (DESIGN.md §12).
//!
//! A [`FitPlan`] is everything Algorithm 1 computes before its update
//! loop, materialized as a reusable artifact: validated + sanitized
//! inputs, the mean-filled SI, the p-NN similarity graph `(D, w)`
//! (lines 2-3), the k-means landmarks (lines 4-6), the compiled
//! [`ObservedPattern`] of the fused sparse engine, and a sized
//! [`Workspace`]. Compiling is the expensive, data-dependent phase;
//! [`FitPlan::solve`] (the update loop) is cheap per call
//! and can be repeated — cold, or warm-started through
//! [`SolveOptions::warm_from`] — without recompiling anything.
//!
//! Each sub-artifact depends on a small key of config fields, which is
//! what [`PlanCache`] exploits during model selection: landmarks are
//! keyed on `(K, seed, t₂, policy kind)`, the graph on `(p, weighting,
//! policy kind)`, the compiled pattern on the (sanitized) train
//! mask — all of them additionally on the SI matrix actually fed to
//! them. `grid_search` over the paper's λ-sweep therefore runs k-means
//! once per distinct `K` and builds one graph per distinct `p` instead
//! of once per candidate × fold.

use crate::config::{Resilience, SmflConfig, Updater};
use crate::health::{FitEvent, FitReport};
use crate::landmarks::Landmarks;
use crate::model::FittedModel;
use crate::resilience::{build_graph, compute_landmarks, record, sanitize_inputs};
use crate::telemetry::{NoopSink, Phase, SpanEvent, TraceSink};
use smfl_linalg::{LinalgError, Mask, Matrix, ObservedPattern, Result, Workspace};
use smfl_spatial::{fill_missing_si, GraphWeighting, SpatialGraph};
use std::borrow::Cow;
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;
use std::time::Instant;

/// Options controlling a single [`FitPlan::solve_with`] call.
///
/// The default is a cold solve: `U`/`V` initialized from the plan's
/// seed, bitwise-identical to [`crate::fit`]. A warm solve seeds the
/// factors from a previous solution instead; the plan's landmark
/// columns are re-injected (re-frozen) on top of the warm `V`, so a
/// warm start can never unfreeze them.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    pub(crate) warm: Option<(Matrix, Matrix)>,
}

impl SolveOptions {
    /// A cold solve (same as `SolveOptions::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm-start from a fitted model's factors. The model must have
    /// the plan's shape and rank — a rank change invalidates a warm
    /// start (`DimensionMismatch { op: "warm_start" }` at solve time).
    pub fn warm_from(model: &FittedModel) -> Self {
        SolveOptions { warm: Some((model.u.clone(), model.v.clone())) }
    }
}

/// A compiled fit: validated inputs plus every pre-loop artifact of
/// Algorithm 1, ready to [`solve`](Self::solve) any number of times.
///
/// The heavyweight artifacts (`ObservedPattern`, graph) are
/// `Arc`-shared so a [`PlanCache`] can hand the same compiled
/// objects to many plans without copying.
#[derive(Debug, Clone)]
pub struct FitPlan {
    pub(crate) config: SmflConfig,
    /// The (possibly sanitized) observation mask the plan was compiled
    /// against; also the plan's shape.
    pub(crate) omega: Mask,
    /// Ω + observed values, the only copy of the data a solve reads.
    pub(crate) pattern: Arc<ObservedPattern>,
    /// Similarity graph `(D, w)` (`None` when λ = 0, the variant has
    /// no spatial term, or the degradation ladder dropped it).
    pub(crate) graph: Option<Arc<SpatialGraph>>,
    /// Landmarks to freeze into `V` (`None` for NMF/SMF or when the
    /// degradation ladder dropped them).
    pub(crate) landmarks: Option<Landmarks>,
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
        Self::compile_full(x, omega, config, None, None, &mut NoopSink)
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
        Self::compile_full(x, omega, config, None, None, sink)
    }

    /// [`compile`](Self::compile) through a [`PlanCache`], reusing any
    /// cached landmarks / graph / compiled pattern whose key matches.
    /// All plans served by one cache **must** share the same data
    /// matrix `x` — the cache keys sub-artifacts on config fields, the
    /// SI and the mask, and cannot detect a swapped `x` on its own.
    pub fn compile_cached(
        x: &Matrix,
        omega: &Mask,
        config: &SmflConfig,
        cache: &mut PlanCache,
    ) -> Result<FitPlan> {
        Self::compile_full(x, omega, config, None, Some(cache), &mut NoopSink)
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
        Self::compile_full(x, omega, config, Some(landmarks), None, &mut NoopSink)
    }

    /// The shared compile path behind every public entry point,
    /// replicating the pre-loop half of the historical `fit_inner`
    /// operation-for-operation so `compile(...).solve(...)` stays
    /// bitwise-identical to the one-shot wrappers.
    pub(crate) fn compile_full<S: TraceSink>(
        x: &Matrix,
        omega: &Mask,
        config: &SmflConfig,
        landmarks_override: Option<Landmarks>,
        mut cache: Option<&mut PlanCache>,
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
        let mut cache_hits = 0usize;

        // Sanitization always runs uncached: it is the one stage that
        // reads every observed cell of the caller's `x`.
        let (x, omega) = sanitize_and_validate(x, omega, config, &mut report, sink)?;
        let (x, omega) = (x.as_ref(), omega.as_ref());
        let k = config.rank;
        let l = config.spatial_cols;

        // The mean-filled SI feeds both the similarity graph (Algorithm
        // 1 lines 2-3) and the landmark k-means (lines 4-6) — computed
        // at most once and shared. Computed fresh even under a cache:
        // it is what validates the cache's graph/landmark entries.
        let needs_graph = config.variant.uses_spatial_regularization() && config.lambda != 0.0;
        let needs_si_landmarks = landmarks_override.is_none() && config.variant.uses_landmarks();
        let si = if needs_graph || needs_si_landmarks {
            let t0 = S::ENABLED.then(Instant::now);
            let si = fill_missing_si(x, omega, l);
            if let Some(t0) = t0 {
                sink.span(&SpanEvent { phase: Phase::SiFill, wall: t0.elapsed() });
            }
            Some(si)
        } else {
            None
        };
        if let (Some(cache), Some(si)) = (cache.as_deref_mut(), si.as_ref()) {
            cache.sync_si(si);
        }

        // Algorithm 1 lines 2-3: similarity graph on the mean-filled
        // SI. Under `Recover` a degenerate graph drops the Laplacian
        // term (first rung of the degradation ladder) instead of
        // failing. A cache hit replays the build's recorded events so
        // the resulting report is identical to a fresh build's.
        let graph = if needs_graph {
            let si = si.as_ref().ok_or(LinalgError::Internal {
                invariant: "SI computed when the graph needs it",
            })?;
            let key = GraphKey {
                p: config.p_neighbors,
                weighting: config.weighting,
                policy: discriminant(&config.resilience),
            };
            match cache.as_deref_mut().and_then(|c| c.lookup_graph(&key)) {
                Some(entry) => {
                    cache_hits += 1;
                    for ev in entry.events {
                        record(&mut report, sink, ev);
                    }
                    entry.graph
                }
                None => {
                    let t0 = S::ENABLED.then(Instant::now);
                    let ev_start = report.events.len();
                    let graph = build_graph(si, config, &mut report, sink)?;
                    if let Some(t0) = t0 {
                        sink.span(&SpanEvent { phase: Phase::GraphBuild, wall: t0.elapsed() });
                    }
                    let graph = graph.map(Arc::new);
                    if let Some(c) = &mut cache {
                        c.insert_graph(
                            key,
                            GraphEntry {
                                graph: graph.clone(),
                                events: report.events[ev_start..].to_vec(),
                            },
                        );
                    }
                    graph
                }
            }
        } else {
            None
        };

        // Algorithm 1 lines 4-6: landmarks (explicit override wins;
        // else k-means on the mean-filled SI for the SMFL variant).
        // Under `Recover` degenerate landmarks are retried with deduped
        // coordinates and re-derived seeds, then dropped (second rung).
        let landmarks = match landmarks_override {
            Some(lm) => Some(lm),
            None if config.variant.uses_landmarks() => {
                let si = si.as_ref().ok_or(LinalgError::Internal {
                    invariant: "SI computed when landmarks need it",
                })?;
                let key = LmKey {
                    k,
                    seed: config.seed,
                    kmeans_max_iter: config.kmeans_max_iter,
                    policy: discriminant(&config.resilience),
                };
                match cache.as_deref_mut().and_then(|c| c.lookup_landmarks(&key)) {
                    Some(entry) => {
                        cache_hits += 1;
                        if entry.deduped_rows > 0 {
                            report.deduped_rows = entry.deduped_rows;
                        }
                        for ev in entry.events {
                            record(&mut report, sink, ev);
                        }
                        entry.landmarks
                    }
                    None => {
                        let t0 = S::ENABLED.then(Instant::now);
                        let ev_start = report.events.len();
                        let lm = compute_landmarks(si, k, config, &mut report, sink)?;
                        if let Some(t0) = t0 {
                            sink.span(&SpanEvent { phase: Phase::Landmarks, wall: t0.elapsed() });
                        }
                        if let Some(c) = &mut cache {
                            c.insert_landmarks(
                                key,
                                LmEntry {
                                    landmarks: lm.clone(),
                                    events: report.events[ev_start..].to_vec(),
                                    deduped_rows: report.deduped_rows,
                                },
                            );
                        }
                        lm
                    }
                }
            }
            None => None,
        };

        // Compile Ω + X into the fused iteration engine's sparse
        // pattern. The per-plan scratch is always allocated fresh (it
        // is rank-dependent and mutable); the pattern is shareable and
        // cached by mask.
        let pat_t0 = S::ENABLED.then(Instant::now);
        let (pattern, pattern_hit) =
            match cache.as_deref_mut().and_then(|c| c.lookup_pattern(omega)) {
                Some(pat) => {
                    cache_hits += 1;
                    (pat, true)
                }
                None => {
                    let pat = Arc::new(ObservedPattern::compile(x, omega)?);
                    if let Some(c) = &mut cache {
                        c.insert_pattern(omega.clone(), pat.clone());
                    }
                    (pat, false)
                }
            };
        let workspace = Workspace::new(&pattern, k);
        if let Some(t0) = pat_t0 {
            if !pattern_hit {
                sink.span(&SpanEvent { phase: Phase::PatternCompile, wall: t0.elapsed() });
            }
        }

        if let Some(t0) = compile_t0 {
            let wall = t0.elapsed();
            if cache_hits > 0 {
                sink.span(&SpanEvent { phase: Phase::PlanReuse, wall });
            }
            sink.span(&SpanEvent { phase: Phase::PlanCompile, wall });
        }

        Ok(FitPlan {
            config: config.clone(),
            omega: omega.clone(),
            pattern,
            graph,
            landmarks,
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
    pub fn solve_with(&mut self, opts: &SolveOptions) -> Result<FittedModel> {
        crate::engine::solve(self, opts, &mut NoopSink)
    }

    /// [`solve_with`](Self::solve_with) streaming telemetry into
    /// `sink`. A warm solve additionally emits the `warm_start` span.
    pub fn solve_with_sink<S: TraceSink>(
        &mut self,
        opts: &SolveOptions,
        sink: &mut S,
    ) -> Result<FittedModel> {
        crate::engine::solve(self, opts, sink)
    }

    /// Rebinds the plan to new data of the **same shape** — the serving
    /// refit path. The new inputs go through the same sanitization and
    /// validation as a compile; graph and landmarks are kept as-is
    /// (they depend on the SI columns, which serving refits leave
    /// alone — recompile if yours change). When the (sanitized) mask
    /// equals the plan's, the compiled pattern is refilled **in place**
    /// — zero heap allocation while the plan's pattern is unshared; a
    /// changed mask recompiles the pattern and resizes the workspace.
    pub fn rebind(&mut self, x: &Matrix, omega: &Mask) -> Result<()> {
        if x.shape() != self.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: x.shape(),
                right: self.shape(),
                op: "plan_rebind",
            });
        }
        // Sanitization events are appended: the report is an audit trail.
        let (x, omega) =
            sanitize_and_validate(x, omega, &self.config, &mut self.report, &mut NoopSink)?;
        if *omega == self.omega {
            Arc::make_mut(&mut self.pattern).refill(&x, &omega)?;
        } else {
            self.pattern = Arc::new(ObservedPattern::compile(&x, &omega)?);
            self.workspace.rebind(&self.pattern)?;
            self.omega = omega.into_owned();
        }
        Ok(())
    }

    /// The configuration the plan was compiled for.
    pub fn config(&self) -> &SmflConfig {
        &self.config
    }

    /// Grid shape `(N, M)` of the data the plan fits.
    pub fn shape(&self) -> (usize, usize) {
        self.omega.shape()
    }

    /// The landmarks the solve will freeze into `V`, if any.
    pub fn landmarks(&self) -> Option<&Landmarks> {
        self.landmarks.as_ref()
    }

    /// The compiled spatial graph, if the plan has a Laplacian term.
    pub fn graph(&self) -> Option<&SpatialGraph> {
        self.graph.as_deref()
    }

    /// Compile-phase audit trail (sanitization and degradation-ladder
    /// events). Every solve's `FitReport` starts from a copy of this.
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

#[derive(Debug, Clone)]
struct LmEntry {
    landmarks: Option<Landmarks>,
    events: Vec<FitEvent>,
    deduped_rows: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct GraphKey {
    p: usize,
    weighting: GraphWeighting,
    policy: Discriminant<Resilience>,
}

#[derive(Debug, Clone)]
struct GraphEntry {
    graph: Option<Arc<SpatialGraph>>,
    events: Vec<FitEvent>,
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
    /// Observed-pattern compilations actually executed.
    pub pattern_compiles: usize,
    /// Pattern stages served from cache.
    pub pattern_hits: usize,
    /// Times the cache had to flush its landmark/graph entries because
    /// a compile presented a different SI matrix.
    pub si_resets: usize,
}

/// Cross-compile cache of a plan's shareable sub-artifacts, used by
/// [`crate::grid_search`] to avoid recomputing k-means landmarks,
/// similarity graphs and compiled patterns across candidates and
/// folds.
///
/// Keying: landmarks on `(K, seed, t₂, policy kind)`, graphs on `(p,
/// weighting, policy kind)`, patterns on the sanitized mask —
/// each entry implicitly also on the SI matrix it was built from (a
/// compile presenting a different SI flushes the landmark and graph
/// entries). **One cache serves one data matrix `x`**: the cache
/// cannot detect a swapped `x` with an unchanged mask and SI.
///
/// Event replay: each entry stores the `FitEvent`s its original build
/// recorded (e.g. `LaplacianDropped`), and a hit replays them into the
/// new plan's report, so a cached compile produces the same
/// `FitReport` as a fresh one.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    si: Option<Matrix>,
    landmarks: Vec<(LmKey, LmEntry)>,
    graphs: Vec<(GraphKey, GraphEntry)>,
    patterns: Vec<(Mask, Arc<ObservedPattern>)>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computed-vs-reused counters accumulated so far.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Drops every cached artifact (stats are kept).
    pub fn clear(&mut self) {
        self.si = None;
        self.landmarks.clear();
        self.graphs.clear();
        self.patterns.clear();
    }

    /// Keeps the landmark/graph entries only while the presented SI
    /// matches the one they were built from.
    fn sync_si(&mut self, si: &Matrix) {
        match &self.si {
            Some(cur) if cur == si => {}
            prior => {
                if prior.is_some() {
                    self.stats.si_resets += 1;
                }
                self.si = Some(si.clone());
                self.landmarks.clear();
                self.graphs.clear();
            }
        }
    }

    fn lookup_graph(&mut self, key: &GraphKey) -> Option<GraphEntry> {
        let hit = self.graphs.iter().find(|(k, _)| k == key).map(|(_, e)| e.clone());
        if hit.is_some() {
            self.stats.graph_hits += 1;
        }
        hit
    }

    fn insert_graph(&mut self, key: GraphKey, entry: GraphEntry) {
        self.stats.graph_builds += 1;
        self.graphs.push((key, entry));
    }

    fn lookup_landmarks(&mut self, key: &LmKey) -> Option<LmEntry> {
        let hit = self.landmarks.iter().find(|(k, _)| k == key).map(|(_, e)| e.clone());
        if hit.is_some() {
            self.stats.landmark_hits += 1;
        }
        hit
    }

    fn insert_landmarks(&mut self, key: LmKey, entry: LmEntry) {
        self.stats.kmeans_runs += 1;
        self.landmarks.push((key, entry));
    }

    fn lookup_pattern(&mut self, omega: &Mask) -> Option<Arc<ObservedPattern>> {
        let hit = self.patterns.iter().find(|(m, _)| m == omega).map(|(_, pat)| pat.clone());
        if hit.is_some() {
            self.stats.pattern_hits += 1;
        }
        hit
    }

    fn insert_pattern(&mut self, omega: Mask, pat: Arc<ObservedPattern>) {
        self.stats.pattern_compiles += 1;
        self.patterns.push((omega, pat));
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
        report.sanitized_cells += removed;
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
            return Err(LinalgError::BadLength {
                expected: 0,
                actual: i * m + j,
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
        assert_eq!(stats.pattern_compiles, 1);
        assert_eq!(stats.pattern_hits, 2);
        assert_eq!(stats.si_resets, 0);
    }

    #[test]
    fn warm_start_rejects_rank_change() {
        let x = spatial_data(20, 5, 24);
        let omega = Mask::full(20, 5);
        let model = fit(&x, &omega, &SmflConfig::nmf(3).with_max_iter(10)).unwrap();
        let mut plan =
            FitPlan::compile(&x, &omega, &SmflConfig::nmf(4).with_max_iter(10)).unwrap();
        let err = plan.solve_with(&SolveOptions::warm_from(&model)).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { op: "warm_start", .. }));
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
        assert!(lm.verify_injected(&warm.v), "landmark columns not re-frozen");
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
    fn rebind_rejects_shape_change_and_bad_values() {
        let x = spatial_data(20, 5, 30);
        let omega = Mask::full(20, 5);
        let mut plan =
            FitPlan::compile(&x, &omega, &SmflConfig::nmf(3).with_max_iter(5)).unwrap();
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
