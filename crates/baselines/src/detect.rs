//! Error detection — the substrate the paper's repair task presumes.
//!
//! The paper evaluates repair with the dirty-cell set `Ψ` *given*,
//! "provided by error detection techniques (e.g., Raha [33])". This
//! module supplies that missing piece so the repair pipeline runs end
//! to end on raw data: [`RahaLite`] is a configuration-free ensemble
//! detector in Raha's spirit — several cheap detection strategies vote
//! per cell, and a cell is flagged when enough strategies agree.
//!
//! Strategies (numeric analogues of Raha's strategy families):
//! 1. **column outlier** — robust z-score against the column median/MAD;
//! 2. **vicinity** — disagreement with the k nearest rows (by the other
//!    attributes) on this attribute;
//! 3. **regression residual** — disagreement with a ridge prediction
//!    from the other attributes;
//! 4. **spatial smoothness** — disagreement with the spatial
//!    neighbours' values (this detector family is what spatial data
//!    uniquely affords).

use smfl_linalg::solve::ridge_regression;
use smfl_linalg::{Mask, Matrix, Result};
use smfl_spatial::SpatialGraph;

/// A cell-level error detector: flags suspicious cells of `x`.
pub trait ErrorDetector {
    /// Detector name.
    fn name(&self) -> &'static str;

    /// Returns the mask of cells flagged dirty.
    fn detect(&self, x: &Matrix) -> Result<Mask>;
}

/// Configuration-free ensemble detector (Raha-lite).
#[derive(Debug, Clone)]
pub struct RahaLite {
    /// Number of leading spatial columns (excluded from flagging;
    /// used for the spatial strategy).
    pub spatial_cols: usize,
    /// Robust z-score threshold of the column-outlier strategy.
    pub z_threshold: f64,
    /// Disagreement threshold (in normalized units) for the vicinity,
    /// regression and spatial strategies.
    pub disagreement: f64,
    /// Minimum number of strategies that must flag a cell.
    pub min_votes: usize,
    /// Neighbours used by the vicinity/spatial strategies.
    pub k: usize,
}

impl Default for RahaLite {
    fn default() -> Self {
        RahaLite {
            spatial_cols: 2,
            z_threshold: 3.0,
            disagreement: 0.25,
            min_votes: 2,
            k: 5,
        }
    }
}

impl ErrorDetector for RahaLite {
    fn name(&self) -> &'static str {
        "Raha-lite"
    }

    fn detect(&self, x: &Matrix) -> Result<Mask> {
        let (n, m) = x.shape();
        let mut votes = vec![0u8; n * m];
        self.vote_column_outliers(x, &mut votes);
        self.vote_vicinity(x, &mut votes);
        self.vote_regression(x, &mut votes)?;
        self.vote_spatial(x, &mut votes)?;
        let mut dirty = Mask::empty(n, m);
        for i in 0..n {
            for j in self.spatial_cols..m {
                if votes[i * m + j] as usize >= self.min_votes {
                    dirty.set(i, j, true);
                }
            }
        }
        Ok(dirty)
    }
}

impl RahaLite {
    /// Strategy 1: robust z-score per column (median / MAD).
    fn vote_column_outliers(&self, x: &Matrix, votes: &mut [u8]) {
        let (n, m) = x.shape();
        for j in self.spatial_cols..m {
            let mut col = x.col(j);
            col.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = col[n / 2];
            let mut devs: Vec<f64> = col.iter().map(|&v| (v - median).abs()).collect();
            devs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            // 1.4826 scales MAD to the std of a normal distribution.
            let mad = (devs[n / 2] * 1.4826).max(1e-6);
            for i in 0..n {
                if ((x.get(i, j) - median) / mad).abs() > self.z_threshold {
                    votes[i * m + j] += 1;
                }
            }
        }
    }

    /// Strategy 2: disagreement with the k most similar rows.
    fn vote_vicinity(&self, x: &Matrix, votes: &mut [u8]) {
        let (n, m) = x.shape();
        for i in 0..n {
            // nearest rows by all attributes except the one being judged
            // (approximation: one shared neighbour list per row, built on
            // every column — cheap and adequate for voting)
            let mut neigh: Vec<(usize, f64)> = (0..n)
                .filter(|&b| b != i)
                .map(|b| {
                    let d: f64 = (0..m)
                        .map(|c| {
                            let d = x.get(i, c) - x.get(b, c);
                            d * d
                        })
                        .sum();
                    (b, d)
                })
                .collect();
            neigh.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            neigh.truncate(self.k);
            if neigh.is_empty() {
                continue;
            }
            for j in self.spatial_cols..m {
                let mean: f64 =
                    neigh.iter().map(|&(b, _)| x.get(b, j)).sum::<f64>() / neigh.len() as f64;
                if (x.get(i, j) - mean).abs() > self.disagreement {
                    votes[i * m + j] += 1;
                }
            }
        }
    }

    /// Strategy 3: ridge-regression residual from the other attributes.
    fn vote_regression(&self, x: &Matrix, votes: &mut [u8]) -> Result<()> {
        let (n, m) = x.shape();
        for j in self.spatial_cols..m {
            let determinants: Vec<usize> = (0..m).filter(|&c| c != j).collect();
            let design = Matrix::from_fn(n, determinants.len() + 1, |i, c| {
                if c == determinants.len() {
                    1.0
                } else {
                    x.get(i, determinants[c])
                }
            });
            let y = x.col(j);
            let Ok(beta) = ridge_regression(&design, &y, 1e-2) else {
                continue;
            };
            for i in 0..n {
                let mut pred = beta[determinants.len()];
                for (c, &d) in determinants.iter().enumerate() {
                    pred += beta[c] * x.get(i, d);
                }
                if (x.get(i, j) - pred).abs() > self.disagreement {
                    votes[i * m + j] += 1;
                }
            }
        }
        Ok(())
    }

    /// Strategy 4: disagreement with the spatial neighbours.
    fn vote_spatial(&self, x: &Matrix, votes: &mut [u8]) -> Result<()> {
        let (n, m) = x.shape();
        if self.spatial_cols == 0 || n < 3 {
            return Ok(());
        }
        let si = x.columns(0, self.spatial_cols.min(m))?;
        let graph = SpatialGraph::build(&si, self.k.min(n - 1))?;
        for i in 0..n {
            let neighbours = graph.neighbors(i);
            if neighbours.is_empty() {
                continue;
            }
            for j in self.spatial_cols..m {
                let mean: f64 = neighbours
                    .iter()
                    .map(|&b| x.get(b as usize, j))
                    .sum::<f64>()
                    / neighbours.len() as f64;
                if (x.get(i, j) - mean).abs() > self.disagreement {
                    votes[i * m + j] += 1;
                }
            }
        }
        Ok(())
    }
}

/// Detection quality against a ground-truth dirty mask: `(precision,
/// recall, f1)`.
pub fn detection_quality(detected: &Mask, truth: &Mask) -> (f64, f64, f64) {
    let tp = detected
        .iter_set()
        .filter(|&(i, j)| truth.get(i, j))
        .count() as f64;
    let detected_total = detected.count() as f64;
    let truth_total = truth.count() as f64;
    let precision = if detected_total > 0.0 {
        tp / detected_total
    } else {
        0.0
    };
    let recall = if truth_total > 0.0 {
        tp / truth_total
    } else {
        0.0
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::uniform_matrix;

    /// Spatially smooth clean data with big injected spikes.
    fn spiked_problem() -> (Matrix, Mask) {
        let si = uniform_matrix(80, 2, 0.0, 1.0, 1);
        let mut x = Matrix::from_fn(80, 5, |i, j| match j {
            0 | 1 => si.get(i, j),
            _ => (0.4 + 0.2 * si.get(i, 0) + 0.1 * si.get(i, 1)).clamp(0.0, 1.0),
        });
        let mut truth = Mask::empty(80, 5);
        for &(i, j) in &[(5usize, 2usize), (20, 3), (40, 4), (66, 2)] {
            x.set(i, j, if x.get(i, j) > 0.5 { 0.0 } else { 1.0 }); // gross error
            truth.set(i, j, true);
        }
        (x, truth)
    }

    #[test]
    fn detects_gross_errors_with_high_recall() {
        let (x, truth) = spiked_problem();
        let detected = RahaLite::default().detect(&x).unwrap();
        let (precision, recall, f1) = detection_quality(&detected, &truth);
        assert!(recall >= 0.75, "recall {recall}");
        assert!(precision >= 0.5, "precision {precision}");
        assert!(f1 > 0.6, "f1 {f1}");
    }

    #[test]
    fn clean_data_yields_few_flags() {
        let si = uniform_matrix(60, 2, 0.0, 1.0, 2);
        let x = Matrix::from_fn(60, 4, |i, j| {
            if j < 2 {
                si.get(i, j)
            } else {
                (0.5 + 0.1 * si.get(i, 0)).clamp(0.0, 1.0)
            }
        });
        let detected = RahaLite::default().detect(&x).unwrap();
        let rate = detected.count() as f64 / (60.0 * 2.0);
        assert!(rate < 0.05, "false-positive rate {rate}");
    }

    #[test]
    fn spatial_columns_never_flagged() {
        let (x, _) = spiked_problem();
        let detected = RahaLite::default().detect(&x).unwrap();
        for (_, j) in detected.iter_set() {
            assert!(j >= 2);
        }
    }

    #[test]
    fn detection_quality_edge_cases() {
        let truth = Mask::from_positions(2, 2, &[(0, 0)]).unwrap();
        let perfect = truth.clone();
        assert_eq!(detection_quality(&perfect, &truth), (1.0, 1.0, 1.0));
        let nothing = Mask::empty(2, 2);
        let (p, r, f1) = detection_quality(&nothing, &truth);
        assert_eq!((p, r, f1), (0.0, 0.0, 0.0));
        // flag everything: recall 1, precision 1/4
        let all = Mask::full(2, 2);
        let (p, r, _) = detection_quality(&all, &truth);
        assert_eq!(r, 1.0);
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_votes_controls_strictness() {
        let (x, _) = spiked_problem();
        let lenient = RahaLite {
            min_votes: 1,
            ..RahaLite::default()
        };
        let strict = RahaLite {
            min_votes: 4,
            ..RahaLite::default()
        };
        let n_lenient = lenient.detect(&x).unwrap().count();
        let n_strict = strict.detect(&x).unwrap().count();
        assert!(n_lenient >= n_strict);
    }
}
