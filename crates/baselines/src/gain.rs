//! GAIN — Generative Adversarial Imputation Nets [46].
//!
//! Faithful-mechanism reimplementation of Yoon et al.'s GAIN:
//!
//! - generator `G([x̃, m]) → x̄` where `x̃ = m⊙x + (1−m)⊙z` (noise in
//!   the holes) — sigmoid output since data is min-max normalized;
//! - discriminator `D([x̂, h]) → per-cell P(observed)` where
//!   `x̂ = m⊙x + (1−m)⊙x̄` and the hint `h = b⊙m + 0.5·(1−b)` reveals a
//!   fraction of the true mask;
//! - `D` minimizes per-cell BCE against `m`; `G` minimizes
//!   `−log D(x̂)` on missing cells plus `α·MSE` on observed cells.
//!
//! Trained with Adam on mini-batches, exactly the original recipe
//! (CPU-sized hidden widths; see DESIGN.md §4 on the GPU substitution).

use crate::imputer::{check_shapes, Imputer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smfl_linalg::{Mask, Matrix, Result};
use smfl_nn::{Activation, Adam, Mlp};

/// GAIN imputer.
#[derive(Debug, Clone)]
pub struct GainImputer {
    /// Training iterations (mini-batch steps).
    pub iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Weight of the observed-cell reconstruction term in the G loss.
    pub alpha: f64,
    /// Fraction of mask bits revealed to D through the hint.
    pub hint_rate: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GainImputer {
    fn default() -> Self {
        GainImputer {
            iterations: 400,
            batch_size: 64,
            alpha: 10.0,
            hint_rate: 0.9,
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// Mask as a 0/1 matrix restricted to the given rows.
fn mask_matrix(omega: &Mask, rows: &[usize], m: usize) -> Matrix {
    Matrix::from_fn(
        rows.len(),
        m,
        |r, j| {
            if omega.get(rows[r], j) {
                1.0
            } else {
                0.0
            }
        },
    )
}

fn concat_cols(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), a.cols() + b.cols(), |i, j| {
        if j < a.cols() {
            a.get(i, j)
        } else {
            b.get(i, j - a.cols())
        }
    })
}

impl Imputer for GainImputer {
    fn name(&self) -> &'static str {
        "GAIN"
    }

    fn impute(&self, x: &Matrix, omega: &Mask) -> Result<Matrix> {
        check_shapes(x, omega)?;
        let (n, m) = x.shape();
        if omega.complement().count() == 0 {
            return Ok(x.clone());
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut g = Mlp::new(
            &[2 * m, m.max(4), m],
            &[Activation::Relu, Activation::Sigmoid],
            self.seed.wrapping_add(1),
        );
        let mut d = Mlp::new(
            &[2 * m, m.max(4), m],
            &[Activation::Relu, Activation::Sigmoid],
            self.seed.wrapping_add(2),
        );
        let mut g_opt = Adam::new(self.lr);
        let mut d_opt = Adam::new(self.lr);

        let batch = self.batch_size.min(n).max(1);
        for _ in 0..self.iterations {
            let rows: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..n)).collect();
            let xb = x.select_rows(&rows)?;
            let mb = mask_matrix(omega, &rows, m);
            // x̃: observed kept, holes replaced with uniform noise.
            let xt = Matrix::from_fn(batch, m, |i, j| {
                if mb.get(i, j) > 0.5 {
                    xb.get(i, j)
                } else {
                    rng.gen::<f64>() * 0.01
                }
            });
            // hint: reveal hint_rate of mask bits, 0.5 elsewhere.
            let hint = Matrix::from_fn(batch, m, |i, j| {
                if rng.gen::<f64>() < self.hint_rate {
                    mb.get(i, j)
                } else {
                    0.5
                }
            });

            // ---- D step ----
            let g_in = concat_cols(&xt, &mb);
            let xbar = g.forward_inference(&g_in)?; // G frozen for D step
            let xhat = mb
                .hadamard(&xb)?
                .add(&mb.map(|v| 1.0 - v).hadamard(&xbar)?)?;
            let d_in = concat_cols(&xhat, &hint);
            let d_out = d.forward(&d_in)?;
            // BCE grad wrt D output, target = mb.
            let bce_grad = d_out.zip_map(&mb, |p, t| {
                let p = p.clamp(1e-7, 1.0 - 1e-7);
                ((p - t) / (p * (1.0 - p))) / (batch * m) as f64
            })?;
            d.backward(&bce_grad)?;
            d_opt.step(&mut d);

            // ---- G step ----
            let xbar = g.forward(&g_in)?;
            let xhat = mb
                .hadamard(&xb)?
                .add(&mb.map(|v| 1.0 - v).hadamard(&xbar)?)?;
            let d_in = concat_cols(&xhat, &hint);
            let d_out = d.forward(&d_in)?;
            // Adversarial term: −log D on missing cells ⇒ dL/dD = −1/D.
            let adv_grad_dout = d_out.zip_map(&mb, |p, t| {
                if t < 0.5 {
                    let p = p.clamp(1e-7, 1.0 - 1e-7);
                    -1.0 / p / (batch * m) as f64
                } else {
                    0.0
                }
            })?;
            let grad_d_in = d.backward(&adv_grad_dout)?;
            // Take the x̂ half of the gradient, zero it on observed cells
            // (x̂ = x there) to get dL/dx̄.
            let mut grad_xbar = Matrix::from_fn(batch, m, |i, j| grad_d_in.get(i, j));
            for i in 0..batch {
                for j in 0..m {
                    if mb.get(i, j) > 0.5 {
                        grad_xbar.set(i, j, 0.0);
                    }
                }
            }
            // Reconstruction term on observed cells: α·(x̄ − x) / |obs|.
            let obs_count = mb.sum().max(1.0);
            let rec_grad = xbar
                .sub(&xb)?
                .hadamard(&mb)?
                .scale(2.0 * self.alpha / obs_count);
            grad_xbar.axpy(1.0, &rec_grad)?;
            g.backward(&grad_xbar)?;
            g_opt.step(&mut g);
        }

        // Final imputation over all rows (noise-free holes).
        let all: Vec<usize> = (0..n).collect();
        let mfull = mask_matrix(omega, &all, m);
        let xt = Matrix::from_fn(n, m, |i, j| {
            if mfull.get(i, j) > 0.5 {
                x.get(i, j)
            } else {
                0.0
            }
        });
        let xbar = g.forward_inference(&concat_cols(&xt, &mfull))?;
        omega.blend(x, xbar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imputer::{assert_contract, MeanImputer};
    use smfl_linalg::random::uniform_matrix;

    fn quick() -> GainImputer {
        GainImputer {
            iterations: 150,
            batch_size: 32,
            ..GainImputer::default()
        }
    }

    #[test]
    fn contract_holds() {
        let x = uniform_matrix(40, 4, 0.0, 1.0, 1);
        let mut omega = Mask::full(40, 4);
        for i in (0..40).step_by(5) {
            omega.set(i, 2, false);
        }
        assert_contract(&quick(), &x, &omega);
    }

    #[test]
    fn output_stays_in_unit_range() {
        let x = uniform_matrix(30, 3, 0.0, 1.0, 2);
        let mut omega = Mask::full(30, 3);
        for i in (0..30).step_by(3) {
            omega.set(i, 1, false);
        }
        let out = quick().impute(&x, &omega).unwrap();
        assert!(out.min().unwrap() >= 0.0);
        assert!(out.max().unwrap() <= 1.0);
    }

    #[test]
    fn no_missing_cells_short_circuits() {
        let x = uniform_matrix(10, 3, 0.0, 1.0, 3);
        let out = quick().impute(&x, &Mask::full(10, 3)).unwrap();
        assert!(out.approx_eq(&x, 0.0));
    }

    #[test]
    fn learns_constant_column_better_than_noise() {
        // Column 2 is constant 0.7: G should learn to output ~0.7 there.
        let base = uniform_matrix(60, 2, 0.0, 1.0, 4);
        let x = Matrix::from_fn(60, 3, |i, j| if j < 2 { base.get(i, j) } else { 0.7 });
        let mut omega = Mask::full(60, 3);
        for i in (0..60).step_by(4) {
            omega.set(i, 2, false);
        }
        let out = GainImputer {
            iterations: 600,
            ..quick()
        }
        .impute(&x, &omega)
        .unwrap();
        let mut err = 0.0;
        let mut cnt = 0;
        for (i, j) in omega.complement().iter_set() {
            err += (out.get(i, j) - 0.7).abs();
            cnt += 1;
        }
        let mean_err = err / cnt as f64;
        assert!(mean_err < 0.25, "GAIN mean error {mean_err}");
        // sanity: mean imputer is near-perfect here, GAIN should at least
        // not be wildly off
        let _ = MeanImputer.impute(&x, &omega).unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let x = uniform_matrix(20, 3, 0.0, 1.0, 5);
        let mut omega = Mask::full(20, 3);
        omega.set(3, 2, false);
        let imp = GainImputer {
            iterations: 50,
            ..quick()
        };
        let a = imp.impute(&x, &omega).unwrap();
        let b = imp.impute(&x, &omega).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }
}
