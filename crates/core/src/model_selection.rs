//! Cross-validated hyperparameter selection for the SMFL family.
//!
//! The paper tunes `λ`, `p` and `K` by sensitivity sweeps (§IV-D,
//! Figs. 6–8) against ground truth. In production there is no ground
//! truth, so this module provides the practical equivalent: **masked
//! validation** — hide a fraction of the *observed* cells, fit on the
//! rest, and score RMS on the held-out cells. The winning configuration
//! is then refitted on all observed data.
//!
//! Fits go through a [`PlanCache`]: holdout masks only touch attribute
//! columns, so the SI — and with it the k-means landmarks and the
//! similarity graph — is identical across folds and λ-candidates. The
//! cache therefore runs k-means once per distinct `K`, builds one graph
//! per distinct `p`, and compiles one observed pattern per fold,
//! instead of once per candidate × fold ([`grid_search_uncached`] keeps
//! the naive path for benchmarking and equivalence tests). Skipped
//! candidates and folds are recorded, not silently dropped, and
//! non-finite scores are excluded from the ranking — so
//! [`GridSearchResult::best`] is infallible by construction.

use crate::config::SmflConfig;
use crate::model::{fit, FittedModel};
use crate::plan::{FitPlan, PlanCache, PlanCacheStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smfl_linalg::{LinalgError, Mask, Matrix, Result};

/// Search space for [`grid_search`]: the cross product of the listed
/// values. Empty lists mean "keep the base config's value".
#[derive(Debug, Clone, Default)]
pub struct ParamGrid {
    /// Candidate regularization weights `λ`.
    pub lambdas: Vec<f64>,
    /// Candidate neighbour counts `p`.
    pub ps: Vec<usize>,
    /// Candidate ranks `K`.
    pub ranks: Vec<usize>,
}

impl ParamGrid {
    /// A reasonable default sweep mirroring the paper's Figs. 6–8
    /// ranges.
    pub fn paper_ranges() -> ParamGrid {
        ParamGrid {
            lambdas: vec![0.01, 0.1, 1.0, 10.0],
            ps: vec![3, 5],
            ranks: vec![4, 6, 8],
        }
    }

    fn candidates(&self, base: &SmflConfig) -> Vec<SmflConfig> {
        let lambdas = if self.lambdas.is_empty() {
            vec![base.lambda]
        } else {
            self.lambdas.clone()
        };
        let ps = if self.ps.is_empty() {
            vec![base.p_neighbors]
        } else {
            self.ps.clone()
        };
        let ranks = if self.ranks.is_empty() {
            vec![base.rank]
        } else {
            self.ranks.clone()
        };
        let mut out = Vec::with_capacity(lambdas.len() * ps.len() * ranks.len());
        for &lambda in &lambdas {
            for &p in &ps {
                for &rank in &ranks {
                    let mut c = base.clone();
                    c.lambda = lambda;
                    c.p_neighbors = p;
                    c.rank = rank;
                    out.push(c);
                }
            }
        }
        out
    }
}

/// One scored candidate from a [`grid_search`].
#[derive(Debug, Clone)]
pub struct Scored {
    /// The candidate configuration.
    pub config: SmflConfig,
    /// Mean held-out RMS across validation folds (always finite).
    pub validation_rms: f64,
}

/// Why a candidate was excluded from a [`GridSearchResult`] ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Every fold either failed to fit or had no held-out cells, so the
    /// candidate could not be scored at all.
    AllFoldsFailed,
    /// The candidate scored, but its mean validation RMS came out
    /// non-finite (e.g. a divergent fit reconstructing to infinity).
    NonFiniteScore,
}

/// A candidate excluded from the ranking, with the reason on record.
#[derive(Debug, Clone)]
pub struct SkippedCandidate {
    /// The excluded configuration.
    pub config: SmflConfig,
    /// Why it was excluded.
    pub reason: SkipReason,
}

/// Result of a grid search: every scorable candidate ranked, every
/// unscorable one recorded with its reason.
///
/// Construction guarantees a non-empty ranking of finite scores —
/// [`best`](Self::best) cannot fail or return a non-finite winner.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    ranking: Vec<Scored>,
    skipped: Vec<SkippedCandidate>,
    skipped_folds: usize,
    fit_failures: usize,
    cache_stats: PlanCacheStats,
}

impl GridSearchResult {
    /// Candidates sorted ascending by (finite) validation RMS.
    pub fn ranking(&self) -> &[Scored] {
        &self.ranking
    }

    /// The winning configuration. Infallible: a [`grid_search`] that
    /// cannot rank at least one candidate returns an error instead of a
    /// result.
    pub fn best(&self) -> &Scored {
        &self.ranking[0]
    }

    /// Candidates excluded from the ranking, with reasons.
    pub fn skipped(&self) -> &[SkippedCandidate] {
        &self.skipped
    }

    /// Candidate-fold evaluations skipped because the fold held out no
    /// cells (summed over candidates).
    pub fn skipped_folds(&self) -> usize {
        self.skipped_folds
    }

    /// Individual fold fits that returned an error (summed over
    /// candidates; a candidate with at least one surviving fold is
    /// still ranked).
    pub fn fit_failures(&self) -> usize {
        self.fit_failures
    }

    /// What the search's [`PlanCache`] computed versus reused (all
    /// zeros for [`grid_search_uncached`]).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache_stats
    }
}

/// Splits the observed cells of `omega` into `folds` random validation
/// masks (attribute columns only — coordinates stay observed, matching
/// the Table IV protocol).
fn validation_masks(
    omega: &Mask,
    spatial_cols: usize,
    folds: usize,
    holdout_frac: f64,
    seed: u64,
) -> Vec<Mask> {
    let (n, m) = omega.shape();
    (0..folds)
        .map(|f| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(f as u64));
            let mut held = Mask::empty(n, m);
            for (i, j) in omega.iter_set() {
                if j >= spatial_cols && rng.gen::<f64>() < holdout_frac {
                    held.set(i, j, true);
                }
            }
            held
        })
        .collect()
}

/// The scoring loop shared by the cached and naive searches — only the
/// way a candidate is fitted differs.
fn search_with(
    x: &Matrix,
    omega: &Mask,
    base: &SmflConfig,
    grid: &ParamGrid,
    folds: usize,
    holdout_frac: f64,
    mut fit_one: impl FnMut(&Matrix, &Mask, &SmflConfig) -> Result<FittedModel>,
) -> Result<(Vec<Scored>, Vec<SkippedCandidate>, usize, usize)> {
    let masks = validation_masks(
        omega,
        base.spatial_cols,
        folds.max(1),
        holdout_frac,
        base.seed,
    );
    let mut ranking = Vec::new();
    let mut skipped = Vec::new();
    let mut skipped_folds = 0usize;
    let mut fit_failures = 0usize;
    for candidate in grid.candidates(base) {
        let mut total = 0.0;
        let mut scored_folds = 0usize;
        for held in &masks {
            if held.count() == 0 {
                skipped_folds += 1;
                continue;
            }
            // Train on observed-minus-held cells.
            let train_omega = omega.and(&held.complement())?;
            let model = match fit_one(x, &train_omega, &candidate) {
                Ok(model) => model,
                Err(_) => {
                    fit_failures += 1;
                    continue;
                }
            };
            let rec = model.reconstruct()?;
            let mut err = 0.0;
            for (i, j) in held.iter_set() {
                let d = rec.get(i, j) - x.get(i, j);
                err += d * d;
            }
            total += (err / held.count() as f64).sqrt();
            scored_folds += 1;
        }
        if scored_folds == 0 {
            skipped.push(SkippedCandidate {
                config: candidate,
                reason: SkipReason::AllFoldsFailed,
            });
            continue;
        }
        let validation_rms = total / scored_folds as f64;
        if !validation_rms.is_finite() {
            skipped.push(SkippedCandidate {
                config: candidate,
                reason: SkipReason::NonFiniteScore,
            });
            continue;
        }
        ranking.push(Scored {
            config: candidate,
            validation_rms,
        });
    }
    if ranking.is_empty() {
        return Err(LinalgError::Empty);
    }
    // All scores are finite by construction; total_cmp keeps the sort
    // total (and the stable sort keeps candidate order on exact ties).
    ranking.sort_by(|a, b| a.validation_rms.total_cmp(&b.validation_rms));
    Ok((ranking, skipped, skipped_folds, fit_failures))
}

/// Scores every configuration in `grid` by masked validation and
/// returns the full ranking, sharing compiled plan artifacts across
/// candidates and folds through a fresh [`PlanCache`].
///
/// `holdout_frac` of the observed attribute cells are hidden per fold
/// (default protocol: 2 folds x 10%).
///
/// # Errors
/// [`LinalgError::Empty`] when no candidate can be ranked (all fits
/// fail, no cells can be held out, or every score is non-finite).
pub fn grid_search(
    x: &Matrix,
    omega: &Mask,
    base: &SmflConfig,
    grid: &ParamGrid,
    folds: usize,
    holdout_frac: f64,
) -> Result<GridSearchResult> {
    let mut cache = PlanCache::new();
    grid_search_cached(x, omega, base, grid, folds, holdout_frac, &mut cache)
}

/// [`grid_search`] against a caller-owned [`PlanCache`] — lets a
/// follow-up fit (e.g. the winner's full-data refit) keep reusing the
/// search's landmarks and graphs.
#[allow(clippy::too_many_arguments)]
pub fn grid_search_cached(
    x: &Matrix,
    omega: &Mask,
    base: &SmflConfig,
    grid: &ParamGrid,
    folds: usize,
    holdout_frac: f64,
    cache: &mut PlanCache,
) -> Result<GridSearchResult> {
    let (ranking, skipped, skipped_folds, fit_failures) =
        search_with(x, omega, base, grid, folds, holdout_frac, |x, o, c| {
            FitPlan::compile_cached(x, o, c, cache)?.solve()
        })?;
    Ok(GridSearchResult {
        ranking,
        skipped,
        skipped_folds,
        fit_failures,
        cache_stats: cache.stats(),
    })
}

/// The naive search: every candidate-fold fit recompiles everything
/// from scratch via [`fit`]. Scores and ranking are identical to
/// [`grid_search`]'s — kept as the reference for the plan-reuse
/// benchmark and the equivalence tests.
pub fn grid_search_uncached(
    x: &Matrix,
    omega: &Mask,
    base: &SmflConfig,
    grid: &ParamGrid,
    folds: usize,
    holdout_frac: f64,
) -> Result<GridSearchResult> {
    let (ranking, skipped, skipped_folds, fit_failures) =
        search_with(x, omega, base, grid, folds, holdout_frac, fit)?;
    Ok(GridSearchResult {
        ranking,
        skipped,
        skipped_folds,
        fit_failures,
        cache_stats: PlanCacheStats::default(),
    })
}

/// Grid search followed by a final fit of the winner on all observed
/// cells — the end-to-end "tune and train" entry point. The final fit
/// shares the search's [`PlanCache`], so the winner's landmarks and
/// graph are reused rather than recomputed (holdout masks never touch
/// the SI columns, so the full-data SI matches the search's).
pub fn fit_with_selection(
    x: &Matrix,
    omega: &Mask,
    base: &SmflConfig,
    grid: &ParamGrid,
) -> Result<(FittedModel, GridSearchResult)> {
    let mut cache = PlanCache::new();
    let result = grid_search_cached(x, omega, base, grid, 2, 0.1, &mut cache)?;
    let model = FitPlan::compile_cached(x, omega, &result.best().config, &mut cache)?.solve()?;
    Ok((model, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::uniform_matrix;

    /// Spatially smooth data where λ≈0 should clearly lose.
    fn problem() -> (Matrix, Mask) {
        let si = uniform_matrix(80, 2, 0.0, 1.0, 1);
        let x = Matrix::from_fn(80, 5, |i, j| match j {
            0 | 1 => si.get(i, j),
            _ => {
                let (a, b) = (si.get(i, 0), si.get(i, 1));
                (0.5 + 0.4 * ((4.0 * a).sin() * (3.0 * b).cos())).clamp(0.0, 1.0)
            }
        });
        let mut omega = Mask::full(80, 5);
        for i in (0..80).step_by(3) {
            omega.set(i, 2 + (i % 3), false);
        }
        (x, omega)
    }

    #[test]
    fn grid_covers_cross_product() {
        let base = SmflConfig::smf(4, 2);
        let grid = ParamGrid {
            lambdas: vec![0.1, 1.0],
            ps: vec![3, 5],
            ranks: vec![4],
        };
        assert_eq!(grid.candidates(&base).len(), 4);
        // empty lists keep base values
        let empty = ParamGrid::default();
        let c = empty.candidates(&base);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].lambda, base.lambda);
    }

    #[test]
    fn search_ranks_all_candidates() {
        let (x, omega) = problem();
        let base = SmflConfig::smf(3, 2).with_max_iter(40);
        let grid = ParamGrid {
            lambdas: vec![0.0, 1.0],
            ps: vec![3],
            ranks: vec![3],
        };
        let result = grid_search(&x, &omega, &base, &grid, 2, 0.1).unwrap();
        assert_eq!(result.ranking().len(), 2);
        // ranking ascending
        assert!(result.ranking()[0].validation_rms <= result.ranking()[1].validation_rms);
        assert!(result.skipped().is_empty());
        assert_eq!(result.fit_failures(), 0);
        assert_eq!(result.skipped_folds(), 0);
    }

    #[test]
    fn cached_search_matches_uncached_bitwise() {
        let (x, omega) = problem();
        let base = SmflConfig::smfl(3, 2).with_max_iter(25);
        let grid = ParamGrid {
            lambdas: vec![0.1, 1.0],
            ps: vec![3, 5],
            ranks: vec![3, 4],
        };
        let cached = grid_search(&x, &omega, &base, &grid, 2, 0.1).unwrap();
        let naive = grid_search_uncached(&x, &omega, &base, &grid, 2, 0.1).unwrap();
        assert_eq!(cached.ranking().len(), naive.ranking().len());
        for (a, b) in cached.ranking().iter().zip(naive.ranking()) {
            assert_eq!(a.validation_rms, b.validation_rms, "scores diverged");
            assert_eq!(a.config.lambda, b.config.lambda);
            assert_eq!(a.config.p_neighbors, b.config.p_neighbors);
            assert_eq!(a.config.rank, b.config.rank);
        }
        // And the cache genuinely shared work: 2 ranks → 2 k-means runs,
        // 2 p values → 2 graph builds.
        let stats = cached.cache_stats();
        assert_eq!(stats.kmeans_runs, 2, "{stats:?}");
        assert_eq!(stats.graph_builds, 2, "{stats:?}");
        assert_eq!(stats.si_resets, 0, "{stats:?}");
        assert!(stats.landmark_hits > 0 && stats.graph_hits > 0);
        assert_eq!(naive.cache_stats(), PlanCacheStats::default());
    }

    #[test]
    fn validation_prefers_spatial_regularization_on_smooth_data() {
        let (x, omega) = problem();
        let base = SmflConfig::smf(3, 2).with_max_iter(80);
        let grid = ParamGrid {
            lambdas: vec![0.0, 2.0],
            ps: vec![3],
            ranks: vec![3],
        };
        let result = grid_search(&x, &omega, &base, &grid, 2, 0.15).unwrap();
        assert!(
            result.best().config.lambda > 0.0,
            "expected nonzero λ to win on smooth data"
        );
    }

    #[test]
    fn fit_with_selection_returns_working_model() {
        let (x, omega) = problem();
        let base = SmflConfig::smfl(3, 2).with_max_iter(30);
        let grid = ParamGrid {
            lambdas: vec![0.1, 1.0],
            ps: vec![],
            ranks: vec![],
        };
        let (model, result) = fit_with_selection(&x, &omega, &base, &grid).unwrap();
        assert!(model.u.all_finite());
        assert_eq!(result.ranking().len(), 2);
        let imputed = model.impute(&x, &omega).unwrap();
        assert!(imputed.all_finite());
    }

    #[test]
    fn failed_candidates_are_recorded_not_dropped() {
        let (x, omega) = problem();
        let base = SmflConfig::smf(3, 2).with_max_iter(20);
        // rank 200 >= N = 80: validation rejects it in every fold;
        // rank 3 survives.
        let grid = ParamGrid {
            lambdas: vec![0.1],
            ps: vec![3],
            ranks: vec![3, 200],
        };
        let result = grid_search(&x, &omega, &base, &grid, 2, 0.1).unwrap();
        assert_eq!(result.ranking().len(), 1);
        assert_eq!(result.skipped().len(), 1);
        assert_eq!(result.skipped()[0].config.rank, 200);
        assert_eq!(result.skipped()[0].reason, SkipReason::AllFoldsFailed);
        assert_eq!(result.fit_failures(), 2, "one failure per fold");
        assert_eq!(result.best().config.rank, 3);
    }

    #[test]
    fn holdout_masks_only_touch_observed_attribute_cells() {
        let (_, omega) = problem();
        let masks = validation_masks(&omega, 2, 3, 0.2, 7);
        assert_eq!(masks.len(), 3);
        for m in &masks {
            for (i, j) in m.iter_set() {
                assert!(j >= 2, "held out a coordinate cell");
                assert!(omega.get(i, j), "held out an already-missing cell");
            }
        }
    }

    #[test]
    fn no_holdable_cells_is_error() {
        let x = uniform_matrix(5, 3, 0.0, 1.0, 2);
        let omega = Mask::empty(5, 3); // nothing observed at all
        let base = SmflConfig::smf(2, 2).with_max_iter(5);
        let grid = ParamGrid {
            lambdas: vec![0.1],
            ps: vec![],
            ranks: vec![],
        };
        assert!(grid_search(&x, &omega, &base, &grid, 2, 0.2).is_err());
    }
}
