//! Error injection (paper §IV-A1).
//!
//! Two corruption protocols:
//!
//! - **Imputation**: "errors are injected artificially by randomly
//!   removing values from several columns, controlled by missing rate."
//!   A configurable set of target columns loses cells at `rate`; a
//!   reserve of complete rows is kept intact ("we first randomly extract
//!   100 complete tuples ... for a fair comparison" — several baselines
//!   need complete rows to operate).
//! - **Repair**: "we inject errors into all columns by randomly
//!   replacing the original values with other values in the same
//!   domain, controlled by the error rate."

// Index loops keep row/column bookkeeping explicit alongside `rng` use.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smfl_linalg::{Mask, Matrix};

/// The outcome of an injection: corrupted data plus cell bookkeeping.
#[derive(Debug, Clone)]
pub struct Injection {
    /// The corrupted matrix. For missing-value injection the removed
    /// cells hold `0.0` placeholders (models must consult `omega`, never
    /// the placeholder); for error injection they hold the wrong value.
    pub corrupted: Matrix,
    /// Observed/clean cells `Ω`.
    pub omega: Mask,
    /// Unobserved/dirty cells `Ψ` (complement of `omega`).
    pub psi: Mask,
    /// Row indices of the protected complete-row reserve.
    pub reserved_rows: Vec<usize>,
}

/// Removes cells from `target_cols` at probability `rate`, keeping
/// `reserve_complete` randomly chosen rows fully intact.
pub fn inject_missing(
    data: &Matrix,
    target_cols: &[usize],
    rate: f64,
    reserve_complete: usize,
    seed: u64,
) -> Injection {
    let (n, m) = data.shape();
    let mut rng = StdRng::seed_from_u64(seed);
    let reserved = choose_rows(n, reserve_complete.min(n), &mut rng);
    let is_reserved = row_flags(n, &reserved);

    let mut omega = Mask::full(n, m);
    let mut corrupted = data.clone();
    for i in 0..n {
        if is_reserved[i] {
            continue;
        }
        for &j in target_cols {
            if rng.gen::<f64>() < rate {
                omega.set(i, j, false);
                corrupted.set(i, j, 0.0);
            }
        }
    }
    let psi = omega.complement();
    Injection {
        corrupted,
        omega,
        psi,
        reserved_rows: reserved,
    }
}

/// Replaces cells (all columns) at probability `rate` with a value drawn
/// from the same column's domain (another row's value), keeping
/// `reserve_complete` rows intact. The returned `psi` marks the dirty
/// cells — the ground truth an error detector like Raha would output.
pub fn inject_errors(data: &Matrix, rate: f64, reserve_complete: usize, seed: u64) -> Injection {
    let (n, m) = data.shape();
    let mut rng = StdRng::seed_from_u64(seed);
    let reserved = choose_rows(n, reserve_complete.min(n), &mut rng);
    let is_reserved = row_flags(n, &reserved);

    let mut psi = Mask::empty(n, m);
    let mut corrupted = data.clone();
    for i in 0..n {
        if is_reserved[i] {
            continue;
        }
        for j in 0..m {
            if rng.gen::<f64>() < rate {
                // Draw a replacement from the same column, forced to
                // differ from the original so every dirty cell is dirty.
                let donor = rng.gen_range(0..n);
                let mut value = data.get(donor, j);
                if (value - data.get(i, j)).abs() < 1e-12 {
                    value = (data.get(i, j) + 0.37 + 0.13 * rng.gen::<f64>()) % 1.0;
                }
                corrupted.set(i, j, value);
                psi.set(i, j, true);
            }
        }
    }
    let omega = psi.complement();
    Injection {
        corrupted,
        omega,
        psi,
        reserved_rows: reserved,
    }
}

// ---------------------------------------------------------------------
// Fault injectors (adversarial-robustness suite; DESIGN.md §10).
//
// Unlike the statistical corruption protocols above, these model the
// *hostile* inputs the fault-tolerant fit engine must survive: bursts
// of NaN, ±Inf spikes, zero-variance columns and exactly duplicated
// spatial coordinates. All are deterministic given the seed and return
// the touched cells/rows so tests can assert the damage precisely.
// ---------------------------------------------------------------------

/// Overwrites `count` distinct cells with NaN. Returns the cells hit,
/// sorted row-major.
pub fn inject_nan_burst(data: &mut Matrix, count: usize, seed: u64) -> Vec<(usize, usize)> {
    overwrite_cells(data, count, seed, |_| f64::NAN)
}

/// Overwrites `count` distinct cells with ±Inf (sign alternates by
/// draw). Returns the cells hit, sorted row-major.
pub fn inject_inf_spike(data: &mut Matrix, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut flip = false;
    overwrite_cells(data, count, seed, move |_| {
        flip = !flip;
        if flip {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    })
}

/// Sets every cell of column `col` to `value` — a zero-variance column
/// that starves normalization and makes rank-K structure degenerate.
/// Returns the number of cells changed.
pub fn inject_constant_column(data: &mut Matrix, col: usize, value: f64) -> usize {
    let n = data.rows();
    if col >= data.cols() {
        return 0;
    }
    for i in 0..n {
        data.set(i, col, value);
    }
    n
}

/// Copies the spatial coordinates (first `spatial_cols` columns) of a
/// donor row over ~`rate` of the other rows, producing exact duplicate
/// coordinates (the degenerate-landmark trigger). Returns the rows that
/// became duplicates, sorted.
pub fn inject_duplicate_si(
    data: &mut Matrix,
    spatial_cols: usize,
    rate: f64,
    seed: u64,
) -> Vec<usize> {
    let (n, m) = data.shape();
    let l = spatial_cols.min(m);
    if n < 2 || l == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let donor = rng.gen_range(0..n);
    let mut rows = Vec::new();
    for i in 0..n {
        if i != donor && rng.gen::<f64>() < rate {
            for j in 0..l {
                data.set(i, j, data.get(donor, j));
            }
            rows.push(i);
        }
    }
    rows
}

fn overwrite_cells<F>(
    data: &mut Matrix,
    count: usize,
    seed: u64,
    mut value: F,
) -> Vec<(usize, usize)>
where
    F: FnMut((usize, usize)) -> f64,
{
    let (n, m) = data.shape();
    let total = n * m;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: Vec<(usize, usize)> = Vec::with_capacity(count.min(total));
    let mut hit = vec![false; total];
    while cells.len() < count.min(total) {
        let flat = rng.gen_range(0..total);
        if !hit[flat] {
            hit[flat] = true;
            cells.push((flat / m, flat % m));
        }
    }
    cells.sort_unstable();
    for &cell in &cells {
        let v = value(cell);
        data.set(cell.0, cell.1, v);
    }
    cells
}

fn choose_rows(n: usize, count: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..count.min(n) {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let mut chosen: Vec<usize> = idx.into_iter().take(count).collect();
    chosen.sort_unstable();
    chosen
}

fn row_flags(n: usize, rows: &[usize]) -> Vec<bool> {
    let mut flags = vec![false; n];
    for &r in rows {
        flags[r] = true;
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_linalg::random::uniform_matrix;

    #[test]
    fn missing_rate_is_roughly_respected() {
        let data = uniform_matrix(1000, 6, 0.0, 1.0, 1);
        let inj = inject_missing(&data, &[2, 3, 4, 5], 0.2, 0, 2);
        let expected = 1000.0 * 4.0 * 0.2;
        let actual = inj.psi.count() as f64;
        assert!((actual - expected).abs() < expected * 0.2, "count {actual}");
    }

    #[test]
    fn only_target_columns_lose_cells() {
        let data = uniform_matrix(200, 5, 0.0, 1.0, 3);
        let inj = inject_missing(&data, &[3, 4], 0.5, 0, 4);
        for (_, j) in inj.psi.iter_set() {
            assert!(j == 3 || j == 4);
        }
    }

    #[test]
    fn reserved_rows_stay_complete() {
        let data = uniform_matrix(100, 5, 0.0, 1.0, 5);
        let inj = inject_missing(&data, &[2, 3, 4], 0.9, 20, 6);
        assert_eq!(inj.reserved_rows.len(), 20);
        for &r in &inj.reserved_rows {
            assert!(inj.omega.row_is_full(r), "reserved row {r} corrupted");
        }
    }

    #[test]
    fn omega_and_psi_partition() {
        let data = uniform_matrix(50, 4, 0.0, 1.0, 7);
        let inj = inject_missing(&data, &[2, 3], 0.3, 5, 8);
        assert_eq!(inj.omega.count() + inj.psi.count(), 50 * 4);
        assert_eq!(inj.omega.and(&inj.psi).unwrap().count(), 0);
    }

    #[test]
    fn observed_cells_untouched_by_missing_injection() {
        let data = uniform_matrix(80, 4, 0.0, 1.0, 9);
        let inj = inject_missing(&data, &[2, 3], 0.4, 0, 10);
        for (i, j) in inj.omega.iter_set() {
            assert_eq!(inj.corrupted.get(i, j), data.get(i, j));
        }
    }

    #[test]
    fn error_injection_changes_exactly_psi() {
        let data = uniform_matrix(300, 5, 0.0, 1.0, 11);
        let inj = inject_errors(&data, 0.1, 0, 12);
        for i in 0..300 {
            for j in 0..5 {
                let changed = inj.corrupted.get(i, j) != data.get(i, j);
                assert_eq!(changed, inj.psi.get(i, j), "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn error_values_stay_in_unit_domain() {
        let data = uniform_matrix(200, 4, 0.0, 1.0, 13);
        let inj = inject_errors(&data, 0.3, 0, 14);
        assert!(inj.corrupted.min().unwrap() >= 0.0);
        assert!(inj.corrupted.max().unwrap() <= 1.0);
    }

    #[test]
    fn injections_are_deterministic() {
        let data = uniform_matrix(100, 4, 0.0, 1.0, 15);
        let a = inject_missing(&data, &[2, 3], 0.2, 10, 16);
        let b = inject_missing(&data, &[2, 3], 0.2, 10, 16);
        assert_eq!(a.omega, b.omega);
        assert!(a.corrupted.approx_eq(&b.corrupted, 0.0));
    }

    #[test]
    fn zero_rate_is_noop() {
        let data = uniform_matrix(50, 4, 0.0, 1.0, 17);
        let inj = inject_missing(&data, &[2, 3], 0.0, 0, 18);
        assert_eq!(inj.psi.count(), 0);
        assert!(inj.corrupted.approx_eq(&data, 0.0));
        let inj2 = inject_errors(&data, 0.0, 0, 19);
        assert_eq!(inj2.psi.count(), 0);
    }

    #[test]
    fn reserve_larger_than_n_is_clamped() {
        let data = uniform_matrix(10, 3, 0.0, 1.0, 20);
        let inj = inject_missing(&data, &[2], 0.5, 100, 21);
        assert_eq!(inj.reserved_rows.len(), 10);
        assert_eq!(inj.psi.count(), 0); // everything reserved
    }

    #[test]
    fn nan_burst_hits_exactly_count_cells() {
        let mut data = uniform_matrix(20, 5, 0.0, 1.0, 22);
        let cells = inject_nan_burst(&mut data, 7, 23);
        assert_eq!(cells.len(), 7);
        let nan_count = data.as_slice().iter().filter(|v| v.is_nan()).count();
        assert_eq!(nan_count, 7);
        for &(i, j) in &cells {
            assert!(data.get(i, j).is_nan());
        }
        // Deterministic.
        let mut again = uniform_matrix(20, 5, 0.0, 1.0, 22);
        assert_eq!(inject_nan_burst(&mut again, 7, 23), cells);
    }

    #[test]
    fn inf_spike_alternates_signs() {
        let mut data = uniform_matrix(15, 4, 0.0, 1.0, 24);
        let cells = inject_inf_spike(&mut data, 6, 25);
        assert_eq!(cells.len(), 6);
        let pos = data
            .as_slice()
            .iter()
            .filter(|&&v| v == f64::INFINITY)
            .count();
        let neg = data
            .as_slice()
            .iter()
            .filter(|&&v| v == f64::NEG_INFINITY)
            .count();
        assert_eq!(pos + neg, 6);
        assert!(pos > 0 && neg > 0);
    }

    #[test]
    fn constant_column_zeroes_variance() {
        let mut data = uniform_matrix(30, 4, 0.0, 1.0, 26);
        assert_eq!(inject_constant_column(&mut data, 2, 0.5), 30);
        for i in 0..30 {
            assert_eq!(data.get(i, 2), 0.5);
        }
        // Out-of-range column is a no-op.
        assert_eq!(inject_constant_column(&mut data, 9, 1.0), 0);
    }

    #[test]
    fn duplicate_si_copies_donor_coordinates() {
        let mut data = uniform_matrix(50, 5, 0.0, 1.0, 27);
        let rows = inject_duplicate_si(&mut data, 2, 0.5, 28);
        assert!(!rows.is_empty());
        // Every reported row matches some donor on the SI columns —
        // verify all duplicated rows share identical coordinates.
        let first = rows[0];
        for &r in &rows {
            assert_eq!(data.get(r, 0), data.get(first, 0));
            assert_eq!(data.get(r, 1), data.get(first, 1));
        }
        // Attribute columns untouched.
        let orig = uniform_matrix(50, 5, 0.0, 1.0, 27);
        for i in 0..50 {
            for j in 2..5 {
                assert_eq!(data.get(i, j), orig.get(i, j));
            }
        }
    }

    #[test]
    fn count_larger_than_matrix_is_clamped() {
        let mut data = uniform_matrix(3, 3, 0.0, 1.0, 29);
        let cells = inject_nan_burst(&mut data, 100, 30);
        assert_eq!(cells.len(), 9);
    }
}
