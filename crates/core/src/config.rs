//! Configuration for the SMFL family of models.
//!
//! One [`SmflConfig`] drives all three variants evaluated in the paper:
//!
//! | Variant | Objective | Landmarks |
//! |---|---|---|
//! | [`Variant::Nmf`]  | `‖R_Ω(X − UV)‖²` (Formula 5) | no |
//! | [`Variant::Smf`]  | `+ λ·Tr(UᵀLU)` (Problem 1)   | no |
//! | [`Variant::Smfl`] | same objective (Problem 2)   | yes (`v_kj = c_kj` on `Φ`) |
//!
//! Defaults follow the paper: `t₁ = 500` update iterations, `t₂ = 300`
//! k-means iterations, `λ = 0.1`, `p = 3` (the sweet spots of Figs. 6/7).

use smfl_spatial::GraphWeighting;

/// Which member of the model family to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Plain masked nonnegative matrix factorization (paper §II-B,
    /// the `NMF` column of Tables IV-VII).
    Nmf,
    /// Spatial matrix factorization: NMF + graph-Laplacian spatial
    /// regularization (paper Problem 1).
    Smf,
    /// Spatial matrix factorization with landmarks (paper Problem 2) —
    /// the paper's contribution.
    Smfl,
}

impl Variant {
    /// Whether this variant injects and freezes landmarks in `V`.
    pub fn uses_landmarks(&self) -> bool {
        matches!(self, Variant::Smfl)
    }

    /// Whether this variant adds the spatial-regularization term.
    pub fn uses_spatial_regularization(&self) -> bool {
        !matches!(self, Variant::Nmf)
    }
}

/// Optimization strategy (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Updater {
    /// Multiplicative update rules (Formulas 13/14) — self-adaptive, the
    /// paper proves the objective non-increasing under them.
    Multiplicative,
    /// Projected gradient descent with a fixed learning rate
    /// (paper §III-B1; used for the `SMF-GD` series of Fig. 5).
    GradientDescent {
        /// Step size `θ = δ` shared by all entries.
        learning_rate: f64,
    },
    /// Hierarchical alternating least squares (extension beyond the
    /// paper): exact nonnegative coordinate updates, typically fewer
    /// sweeps to a given objective. See [`crate::hals`].
    Hals,
}

/// Failure-handling policy of the fit engine (DESIGN.md §10).
///
/// Every fit runs the same engine: the per-iteration health sentinel
/// ([`crate::health::classify`]) checks every iterate under both
/// policies. The policy decides what a failure does.
///
/// - [`Resilience::Strict`] (the default) rejects unusable inputs and
///   returns an error on the first non-finite iterate.
/// - [`Resilience::Recover`] sanitizes inputs, also watches for
///   divergence and stalls, checkpoints the best iterate, restarts from
///   it (at most [`Resilience::MAX_RESTARTS`] times, deterministically)
///   and walks the degradation ladder (drop a degenerate Laplacian or
///   landmarks). Every step is recorded in the returned `FitReport`.
///
/// On clean input both policies produce the same model, bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Resilience {
    /// Fail fast: typed errors, no repair.
    #[default]
    Strict,
    /// Repair and recover, recording every step.
    Recover {
        /// Iterations without a new best objective before `Stalled`
        /// fires and the fit stops early at the best iterate. `0`
        /// disables stall detection.
        stall_patience: usize,
    },
}

impl Resilience {
    /// Checkpoint restarts (and landmark retries) allowed before the
    /// engine gives up and returns the best iterate with a terminal
    /// failure classification.
    pub const MAX_RESTARTS: usize = 2;
    /// Relative objective-increase tolerance before an iteration is
    /// classified `Diverged` (relative to the previous accepted value).
    pub const DIVERGENCE_TOL: f64 = 1e-6;

    /// `true` under [`Resilience::Recover`].
    pub fn recovers(&self) -> bool {
        matches!(self, Resilience::Recover { .. })
    }
}

/// Full configuration of a model fit.
#[derive(Debug, Clone)]
pub struct SmflConfig {
    /// Factorization rank `K` (also the number of landmarks).
    pub rank: usize,
    /// Number of leading spatial-information columns `L` (2 for
    /// latitude/longitude data, Table I).
    pub spatial_cols: usize,
    /// Spatial-regularization weight `λ`.
    pub lambda: f64,
    /// Number of spatial nearest neighbours `p` for the similarity
    /// matrix `D` (found with the kd-tree search).
    pub p_neighbors: usize,
    /// Update-iteration cap `t₁` (paper default 500).
    pub max_iter: usize,
    /// Relative objective-change threshold for early stopping.
    pub tol: f64,
    /// K-means iteration cap `t₂` (paper default 300).
    pub kmeans_max_iter: usize,
    /// Seed for `U`/`V` initialization and k-means seeding.
    pub seed: u64,
    /// Model variant.
    pub variant: Variant,
    /// Optimizer.
    pub updater: Updater,
    /// Edge weighting for the similarity matrix (the paper uses binary
    /// weights; heat-kernel weights are a GNMF-lineage extension).
    pub weighting: GraphWeighting,
    /// Failure-handling policy (strict by default; see [`Resilience`]).
    pub resilience: Resilience,
}

impl SmflConfig {
    /// SMFL with paper defaults for a given rank and spatial width.
    pub fn smfl(rank: usize, spatial_cols: usize) -> Self {
        SmflConfig {
            rank,
            spatial_cols,
            lambda: 0.1,
            p_neighbors: 3,
            max_iter: 500,
            tol: 1e-6,
            kmeans_max_iter: 300,
            seed: 0,
            variant: Variant::Smfl,
            updater: Updater::Multiplicative,
            weighting: GraphWeighting::Binary,
            resilience: Resilience::default(),
        }
    }

    /// SMF (no landmarks) with paper defaults.
    pub fn smf(rank: usize, spatial_cols: usize) -> Self {
        SmflConfig {
            variant: Variant::Smf,
            ..Self::smfl(rank, spatial_cols)
        }
    }

    /// Plain masked NMF (no spatial term, no landmarks).
    pub fn nmf(rank: usize) -> Self {
        SmflConfig {
            variant: Variant::Nmf,
            lambda: 0.0,
            ..Self::smfl(rank, 0)
        }
    }

    /// Overrides `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Overrides `p`.
    pub fn with_p(mut self, p: usize) -> Self {
        self.p_neighbors = p;
        self
    }

    /// Overrides the rank `K` (and with it the landmark count).
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Overrides the iteration cap.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the early-stop tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Switches to projected gradient descent.
    pub fn with_gradient_descent(mut self, learning_rate: f64) -> Self {
        self.updater = Updater::GradientDescent { learning_rate };
        self
    }

    /// Switches to the HALS optimizer.
    pub fn with_hals(mut self) -> Self {
        self.updater = Updater::Hals;
        self
    }

    /// Overrides the graph edge weighting.
    pub fn with_weighting(mut self, weighting: GraphWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Overrides the fault-tolerance policy.
    pub fn with_resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = resilience;
        self
    }

    /// Switches to [`Resilience::Recover`], stall detection off.
    pub fn resilient(mut self) -> Self {
        self.resilience = Resilience::Recover { stall_patience: 0 };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SmflConfig::smfl(5, 2);
        assert_eq!(c.max_iter, 500);
        assert_eq!(c.kmeans_max_iter, 300);
        assert_eq!(c.p_neighbors, 3);
        assert!((c.lambda - 0.1).abs() < 1e-12);
        assert_eq!(c.variant, Variant::Smfl);
    }

    #[test]
    fn variant_capability_flags() {
        assert!(Variant::Smfl.uses_landmarks());
        assert!(!Variant::Smf.uses_landmarks());
        assert!(!Variant::Nmf.uses_landmarks());
        assert!(Variant::Smfl.uses_spatial_regularization());
        assert!(Variant::Smf.uses_spatial_regularization());
        assert!(!Variant::Nmf.uses_spatial_regularization());
    }

    #[test]
    fn nmf_constructor_zeroes_spatial_machinery() {
        let c = SmflConfig::nmf(4);
        assert_eq!(c.lambda, 0.0);
        assert_eq!(c.spatial_cols, 0);
        assert_eq!(c.variant, Variant::Nmf);
    }

    #[test]
    fn builder_overrides() {
        let c = SmflConfig::smf(3, 2)
            .with_lambda(0.5)
            .with_p(7)
            .with_rank(6)
            .with_max_iter(10)
            .with_seed(9)
            .with_tol(1e-3)
            .with_gradient_descent(0.01);
        assert_eq!(c.lambda, 0.5);
        assert_eq!(c.rank, 6);
        assert_eq!(c.p_neighbors, 7);
        assert_eq!(c.max_iter, 10);
        assert_eq!(c.seed, 9);
        assert_eq!(c.tol, 1e-3);
        assert!(matches!(c.updater, Updater::GradientDescent { .. }));
    }

    #[test]
    fn resilience_defaults_off_and_preset_on() {
        let c = SmflConfig::smfl(3, 2);
        assert_eq!(c.resilience, Resilience::Strict, "recovery must be opt-in");
        assert!(!c.resilience.recovers());
        assert_eq!(Resilience::MAX_RESTARTS, 2);
        let r = SmflConfig::nmf(3).resilient();
        assert_eq!(r.resilience, Resilience::Recover { stall_patience: 0 });
        assert!(r.resilience.recovers());
        let custom =
            SmflConfig::nmf(3).with_resilience(Resilience::Recover { stall_patience: 16 });
        assert_eq!(custom.resilience, Resilience::Recover { stall_patience: 16 });
    }
}
