//! Data-repair baselines: Baran [32] and HoloClean [36], reimplemented
//! at mechanism level (DESIGN.md §4).
//!
//! In the paper's repair protocol the dirty-cell set `Ψ` is given (an
//! error detector like Raha provides it), and repairers must propose a
//! replacement for every dirty cell.
//!
//! - **Baran-lite** mirrors Baran's "multiple corrector models combined
//!   into a final correction" over its three contexts: a *value*
//!   corrector (column statistics of clean cells), a *vicinity*
//!   corrector (the tuple's nearest clean neighbours) and a *domain*
//!   corrector (the most frequent clean value bin of the column),
//!   averaged. Note Baran targets categorical/string error correction;
//!   these are its contexts' numeric analogues — deliberately *not* a
//!   full regression imputer, which Baran does not contain.
//! - **HoloClean-lite** mirrors HoloClean's probabilistic inference with
//!   statistical signals: each dirty cell's domain is discretized into
//!   candidate bins; candidates are scored by a naive-Bayes combination
//!   of the column prior and co-occurrence statistics with the tuple's
//!   clean attributes; the MAP candidate wins.

use crate::knn::KnnImputer;
use crate::Imputer;
use smfl_linalg::{Mask, Matrix, Result};

/// A cell-repair algorithm: given data and the dirty-cell set `Ψ`,
/// returns the matrix with dirty cells replaced.
pub trait Repairer {
    /// Method name as in the paper's Table VI.
    fn name(&self) -> &'static str;

    /// Repairs the dirty cells of `x`.
    fn repair(&self, x: &Matrix, dirty: &Mask) -> Result<Matrix>;
}

/// Baran-lite: ensemble of value / vicinity / domain correctors.
#[derive(Debug, Clone, Default)]
pub struct BaranLite;

impl Repairer for BaranLite {
    fn name(&self) -> &'static str {
        "Baran"
    }

    fn repair(&self, x: &Matrix, dirty: &Mask) -> Result<Matrix> {
        let omega = dirty.complement();
        // Corrector 1 (value context): column median of clean cells.
        let medians = clean_column_medians(x, &omega);
        // Corrector 2 (vicinity context): kNN vote treating dirty cells
        // as missing.
        let knn = KnnImputer { k: 5 }.impute(x, &omega)?;
        // Corrector 3 (domain context): the most frequent clean value
        // bin of the column (Baran's domain candidates are frequent
        // values, not model predictions).
        let modes = clean_column_modes(x, &omega, 20);
        let mut out = x.clone();
        for (i, j) in dirty.iter_set() {
            let combined = (medians[j] + knn.get(i, j) + modes[j]) / 3.0;
            out.set(i, j, combined);
        }
        Ok(out)
    }
}

/// Most frequent value bin (centre) per column over clean cells.
fn clean_column_modes(x: &Matrix, omega: &Mask, bins: usize) -> Vec<f64> {
    let (n, m) = x.shape();
    (0..m)
        .map(|j| {
            let mut counts = vec![0usize; bins];
            for i in 0..n {
                if omega.get(i, j) {
                    let b = ((x.get(i, j).clamp(0.0, 1.0) * bins as f64) as usize).min(bins - 1);
                    counts[b] += 1;
                }
            }
            let best = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map_or(0, |(b, _)| b);
            (best as f64 + 0.5) / bins as f64
        })
        .collect()
}

fn clean_column_medians(x: &Matrix, omega: &Mask) -> Vec<f64> {
    let (n, m) = x.shape();
    (0..m)
        .map(|j| {
            let mut vals: Vec<f64> = (0..n)
                .filter(|&i| omega.get(i, j))
                .map(|i| x.get(i, j))
                .collect();
            if vals.is_empty() {
                return 0.0;
            }
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            vals[vals.len() / 2]
        })
        .collect()
}

/// HoloClean-lite: MAP repair over a discretized candidate domain with
/// naive-Bayes statistical signals.
#[derive(Debug, Clone)]
pub struct HoloCleanLite {
    /// Number of discretization bins per column.
    pub bins: usize,
    /// Laplace smoothing for the co-occurrence counts.
    pub smoothing: f64,
}

impl Default for HoloCleanLite {
    fn default() -> Self {
        HoloCleanLite {
            bins: 10,
            smoothing: 1.0,
        }
    }
}

impl HoloCleanLite {
    fn bin_of(&self, v: f64) -> usize {
        ((v.clamp(0.0, 1.0) * self.bins as f64) as usize).min(self.bins - 1)
    }

    fn bin_center(&self, b: usize) -> f64 {
        (b as f64 + 0.5) / self.bins as f64
    }
}

impl Repairer for HoloCleanLite {
    fn name(&self) -> &'static str {
        "HoloClean"
    }

    fn repair(&self, x: &Matrix, dirty: &Mask) -> Result<Matrix> {
        let omega = dirty.complement();
        let (n, m) = x.shape();
        let b = self.bins;
        // Column priors and pairwise co-occurrence over clean cells.
        // prior[j][v]: count of bin v in column j.
        let mut prior = vec![vec![0.0f64; b]; m];
        // cooc[j][c][v][w]: count of (col j bin v) with (col c bin w)
        // — stored flattened per (j, c) pair.
        let mut cooc = vec![vec![0.0f64; b * b]; m * m];
        for i in 0..n {
            for j in 0..m {
                if !omega.get(i, j) {
                    continue;
                }
                let vj = self.bin_of(x.get(i, j));
                prior[j][vj] += 1.0;
                for c in 0..m {
                    if c != j && omega.get(i, c) {
                        let wc = self.bin_of(x.get(i, c));
                        cooc[j * m + c][vj * b + wc] += 1.0;
                    }
                }
            }
        }
        let mut out = x.clone();
        for (i, j) in dirty.iter_set() {
            let col_total: f64 = prior[j].iter().sum::<f64>().max(1.0);
            let mut best_bin = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for v in 0..b {
                // log prior
                let mut score =
                    ((prior[j][v] + self.smoothing) / (col_total + self.smoothing * b as f64)).ln();
                // log likelihood of the tuple's clean attributes
                for c in 0..m {
                    if c == j || !omega.get(i, c) {
                        continue;
                    }
                    let w = self.bin_of(x.get(i, c));
                    let joint = cooc[j * m + c][v * b + w] + self.smoothing;
                    let marginal = prior[j][v] + self.smoothing * b as f64;
                    score += (joint / marginal).ln();
                }
                if score > best_score {
                    best_score = score;
                    best_bin = v;
                }
            }
            out.set(i, j, self.bin_center(best_bin));
        }
        Ok(out)
    }
}

/// Adapts any [`Imputer`] into a [`Repairer`] (the paper's Formula 8
/// reading of repair: treat dirty cells as unobserved and impute them).
pub struct ImputerRepairer<I: Imputer> {
    inner: I,
    label: &'static str,
}

impl<I: Imputer> ImputerRepairer<I> {
    /// Wraps `inner`, reporting `label` as the method name.
    pub fn new(inner: I, label: &'static str) -> Self {
        ImputerRepairer { inner, label }
    }
}

impl<I: Imputer> Repairer for ImputerRepairer<I> {
    fn name(&self) -> &'static str {
        self.label
    }

    fn repair(&self, x: &Matrix, dirty: &Mask) -> Result<Matrix> {
        // Zero out dirty cells so no imputer can cheat by reading the
        // corrupted value.
        let omega = dirty.complement();
        let blanked = omega.apply(x)?;
        self.inner.impute(&blanked, &omega)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::uniform_matrix;

    fn dirty_problem(n: usize, seed: u64) -> (Matrix, Matrix, Mask) {
        // truth with correlated columns, then corrupt some cells
        let base = uniform_matrix(n, 2, 0.0, 1.0, seed);
        let truth = Matrix::from_fn(n, 4, |i, j| match j {
            0 => base.get(i, 0),
            1 => base.get(i, 1),
            2 => (0.5 * base.get(i, 0) + 0.5 * base.get(i, 1)).clamp(0.0, 1.0),
            _ => (0.8 * base.get(i, 0)).clamp(0.0, 1.0),
        });
        let mut corrupted = truth.clone();
        let mut dirty = Mask::empty(n, 4);
        for i in (0..n).step_by(7) {
            let j = (i / 7) % 4;
            corrupted.set(i, j, (truth.get(i, j) + 0.5) % 1.0);
            dirty.set(i, j, true);
        }
        (truth, corrupted, dirty)
    }

    fn dirty_rms(repaired: &Matrix, truth: &Matrix, dirty: &Mask) -> f64 {
        let mut e = 0.0;
        let mut c = 0;
        for (i, j) in dirty.iter_set() {
            e += (repaired.get(i, j) - truth.get(i, j)).powi(2);
            c += 1;
        }
        (e / c as f64).sqrt()
    }

    #[test]
    fn baran_only_touches_dirty_cells() {
        let (_, corrupted, dirty) = dirty_problem(50, 1);
        let out = BaranLite.repair(&corrupted, &dirty).unwrap();
        for i in 0..50 {
            for j in 0..4 {
                if !dirty.get(i, j) {
                    assert_eq!(out.get(i, j), corrupted.get(i, j));
                }
            }
        }
    }

    #[test]
    fn baran_improves_over_leaving_errors() {
        let (truth, corrupted, dirty) = dirty_problem(70, 2);
        let out = BaranLite.repair(&corrupted, &dirty).unwrap();
        let before = dirty_rms(&corrupted, &truth, &dirty);
        let after = dirty_rms(&out, &truth, &dirty);
        assert!(
            after < before,
            "Baran made things worse: {before} -> {after}"
        );
    }

    #[test]
    fn holoclean_improves_over_leaving_errors() {
        let (truth, corrupted, dirty) = dirty_problem(70, 3);
        let out = HoloCleanLite::default().repair(&corrupted, &dirty).unwrap();
        let before = dirty_rms(&corrupted, &truth, &dirty);
        let after = dirty_rms(&out, &truth, &dirty);
        assert!(
            after < before,
            "HoloClean made things worse: {before} -> {after}"
        );
    }

    #[test]
    fn holoclean_output_is_bin_centers() {
        let (_, corrupted, dirty) = dirty_problem(40, 4);
        let hc = HoloCleanLite::default();
        let out = hc.repair(&corrupted, &dirty).unwrap();
        for (i, j) in dirty.iter_set() {
            let v = out.get(i, j);
            let is_center = (0..hc.bins).any(|b| (v - hc.bin_center(b)).abs() < 1e-12);
            assert!(is_center, "({i},{j}) = {v} not a bin centre");
        }
    }

    #[test]
    fn imputer_repairer_blanks_dirty_values() {
        // An imputer that echoes the input would leak corrupted values if
        // the adapter failed to blank them.
        struct Echo;
        impl Imputer for Echo {
            fn name(&self) -> &'static str {
                "Echo"
            }
            fn impute(&self, x: &Matrix, _omega: &Mask) -> Result<Matrix> {
                Ok(x.clone())
            }
        }
        let x = Matrix::filled(2, 2, 0.9);
        let mut dirty = Mask::empty(2, 2);
        dirty.set(0, 0, true);
        let out = ImputerRepairer::new(Echo, "Echo")
            .repair(&x, &dirty)
            .unwrap();
        assert_eq!(out.get(0, 0), 0.0, "dirty value leaked through");
        assert_eq!(out.get(1, 1), 0.9);
    }

    #[test]
    fn no_dirty_cells_is_identity() {
        let x = uniform_matrix(10, 3, 0.0, 1.0, 5);
        let dirty = Mask::empty(10, 3);
        assert!(BaranLite.repair(&x, &dirty).unwrap().approx_eq(&x, 0.0));
        assert!(HoloCleanLite::default()
            .repair(&x, &dirty)
            .unwrap()
            .approx_eq(&x, 0.0));
    }

    #[test]
    fn bin_arithmetic_edges() {
        let hc = HoloCleanLite::default();
        assert_eq!(hc.bin_of(0.0), 0);
        assert_eq!(hc.bin_of(1.0), 9);
        assert_eq!(hc.bin_of(-5.0), 0);
        assert_eq!(hc.bin_of(7.0), 9);
        assert!((hc.bin_center(0) - 0.05).abs() < 1e-12);
    }
}
