//! Clustering accuracy with optimal label matching (paper §IV-B4).
//!
//! `Accuracy = max_σ (1/n) Σ δ(truth[i], σ(pred[i]))`
//!
//! where `σ` ranges over label permutations, found with the
//! Kuhn–Munkres (Hungarian) algorithm — the paper cites [31] for this.
//! The Hungarian solver here is the standard O(n³) potentials
//! formulation over a square cost matrix.

/// Maximum-accuracy label matching between predicted and true labels.
///
/// Labels may use arbitrary (even non-contiguous) ids; the matrix of
/// co-occurrence counts is built over the distinct ids of each side.
/// Returns accuracy in `[0, 1]`; 0 for empty input.
pub fn clustering_accuracy(truth: &[usize], pred: &[usize]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "label slices must align");
    let n = truth.len();
    if n == 0 {
        return 0.0;
    }
    let t_ids = distinct(truth);
    let p_ids = distinct(pred);
    let k = t_ids.len().max(p_ids.len());
    // contingency[p][t] = #points with pred id p and truth id t
    let mut contingency = vec![vec![0i64; k]; k];
    for (&t, &p) in truth.iter().zip(pred) {
        let ti = t_ids.iter().position(|&x| x == t).expect("distinct covers");
        let pi = p_ids.iter().position(|&x| x == p).expect("distinct covers");
        contingency[pi][ti] += 1;
    }
    // Maximize matches == minimize negated counts.
    let cost: Vec<Vec<i64>> = contingency
        .iter()
        .map(|row| row.iter().map(|&c| -c).collect())
        .collect();
    let assignment = hungarian_min(&cost);
    let matched: i64 = assignment
        .iter()
        .enumerate()
        .map(|(p, &t)| contingency[p][t])
        .sum();
    matched as f64 / n as f64
}

fn distinct(labels: &[usize]) -> Vec<usize> {
    let mut ids: Vec<usize> = labels.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Solves the square assignment problem, minimizing total cost.
/// Returns `assign[row] = column`.
///
/// Classic Hungarian algorithm with potentials (Jonker-style), O(n³).
pub fn hungarian_min(cost: &[Vec<i64>]) -> Vec<usize> {
    let n = cost.len();
    if n == 0 {
        return vec![];
    }
    debug_assert!(cost.iter().all(|r| r.len() == n), "cost must be square");
    const INF: i64 = i64::MAX / 4;
    // 1-indexed potentials formulation.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[col] = row matched to col
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assign = vec![0usize; n];
    for j in 1..=n {
        if p[j] != 0 {
            assign[p[j] - 1] = j - 1;
        }
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_labelings_score_one() {
        let labels = vec![0, 1, 2, 0, 1, 2];
        assert_eq!(clustering_accuracy(&labels, &labels), 1.0);
    }

    #[test]
    fn permuted_labelings_score_one() {
        // pred uses a relabeling of truth: accuracy must still be 1.
        let truth = vec![0, 0, 1, 1, 2, 2];
        let pred = vec![2, 2, 0, 0, 1, 1];
        assert_eq!(clustering_accuracy(&truth, &pred), 1.0);
    }

    #[test]
    fn partial_agreement() {
        let truth = vec![0, 0, 0, 1, 1, 1];
        let pred = vec![0, 0, 1, 1, 1, 1]; // one mislabel after matching
        assert!((clustering_accuracy(&truth, &pred) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn different_cluster_counts() {
        // pred over-segments truth.
        let truth = vec![0, 0, 0, 0];
        let pred = vec![0, 0, 1, 1];
        // best matching recovers half... actually one pred cluster maps to
        // truth 0 (2 points), the other maps nowhere useful -> 0.5
        assert!((clustering_accuracy(&truth, &pred) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_contiguous_label_ids() {
        let truth = vec![10, 10, 77, 77];
        let pred = vec![3, 3, 9, 9];
        assert_eq!(clustering_accuracy(&truth, &pred), 1.0);
    }

    #[test]
    fn empty_input() {
        assert_eq!(clustering_accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn hungarian_known_instance() {
        // Classic 3x3 instance, min cost = 5 with assignment (0,1,2)->(1,0,2)... verify.
        let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        let assign = hungarian_min(&cost);
        let total: i64 = assign.iter().enumerate().map(|(r, &c)| cost[r][c]).sum();
        assert_eq!(total, 5); // 1 + 2 + 2
                              // assignment must be a permutation
        let mut cols = assign.clone();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2]);
    }

    #[test]
    fn hungarian_identity_on_diagonal_dominant() {
        let cost = vec![vec![0, 9, 9], vec![9, 0, 9], vec![9, 9, 0]];
        assert_eq!(hungarian_min(&cost), vec![0, 1, 2]);
    }

    #[test]
    fn hungarian_brute_force_agreement() {
        // Exhaustive check against all 4! permutations on random costs.
        let costs: Vec<Vec<i64>> = (0..4)
            .map(|i| (0..4).map(|j| ((i * 7 + j * 13) % 10) as i64).collect())
            .collect();
        let assign = hungarian_min(&costs);
        let hung_total: i64 = assign.iter().enumerate().map(|(r, &c)| costs[r][c]).sum();
        // brute force
        let mut best = i64::MAX;
        let perms = permutations(&[0, 1, 2, 3]);
        for p in perms {
            let t: i64 = p.iter().enumerate().map(|(r, &c)| costs[r][c]).sum();
            best = best.min(t);
        }
        assert_eq!(hung_total, best);
    }

    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &x) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut p in permutations(&rest) {
                p.insert(0, x);
                out.push(p);
            }
        }
        out
    }

    #[test]
    #[should_panic(expected = "label slices must align")]
    fn mismatched_lengths_panic() {
        clustering_accuracy(&[0, 1], &[0]);
    }
}
