//! Property-based tests for the evaluation metrics: Hungarian-matched
//! accuracy vs brute-force assignment, NMI axioms, RMS algebra, and
//! planner optimality invariants.

use proptest::prelude::*;
use smfl_eval::planner::{plan_route, route_cost_under, FuelGrid};
use smfl_eval::{clustering_accuracy, hungarian_min, normalized_mutual_information, rms_over};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::Mask;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hungarian_matches_brute_force(
        costs in proptest::collection::vec(0i64..20, 16),
    ) {
        let cost: Vec<Vec<i64>> = costs.chunks(4).map(|c| c.to_vec()).collect();
        let assign = hungarian_min(&cost);
        let hung: i64 = assign.iter().enumerate().map(|(r, &c)| cost[r][c]).sum();
        let best = permutations(&[0, 1, 2, 3])
            .into_iter()
            .map(|p| p.iter().enumerate().map(|(r, &c)| cost[r][c]).sum::<i64>())
            .min()
            .unwrap();
        prop_assert_eq!(hung, best);
        // assignment is a permutation
        let mut cols = assign.clone();
        cols.sort_unstable();
        prop_assert_eq!(cols, vec![0, 1, 2, 3]);
    }

    #[test]
    fn accuracy_and_nmi_agree_on_extremes(
        labels in proptest::collection::vec(0usize..4, 8..40),
        shift in 1usize..4,
    ) {
        // identical partitions
        prop_assert!((clustering_accuracy(&labels, &labels) - 1.0).abs() < 1e-12);
        prop_assert!((normalized_mutual_information(&labels, &labels) - 1.0).abs() < 1e-9);
        // pure relabeling keeps both at 1
        let relabeled: Vec<usize> = labels.iter().map(|&l| (l + shift) % 4).collect();
        prop_assert!((clustering_accuracy(&labels, &relabeled) - 1.0).abs() < 1e-12);
        prop_assert!(
            (normalized_mutual_information(&labels, &relabeled) - 1.0).abs() < 1e-9
        );
    }

    #[test]
    fn accuracy_bounded_and_symmetric_under_relabeling(
        a in proptest::collection::vec(0usize..3, 10..30),
        b in proptest::collection::vec(0usize..3, 10..30),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let acc = clustering_accuracy(a, b);
        prop_assert!((0.0..=1.0).contains(&acc));
        // accuracy at least the share of the largest truth cluster
        // matched to the largest pred cluster is hard to state simply;
        // instead: accuracy >= 1/k for k= max labels (pigeonhole).
        prop_assert!(acc >= 1.0 / 3.0 - 1e-12);
        let nmi = normalized_mutual_information(a, b);
        prop_assert!((0.0..=1.0).contains(&nmi));
    }

    #[test]
    fn rms_is_a_metric_like_quantity(
        seed in 0u64..2000,
    ) {
        let a = uniform_matrix(6, 5, 0.0, 1.0, seed);
        let b = uniform_matrix(6, 5, 0.0, 1.0, seed + 1);
        let m = Mask::full(6, 5);
        let ab = rms_over(&a, &b, &m).unwrap();
        let ba = rms_over(&b, &a, &m).unwrap();
        prop_assert!((ab - ba).abs() < 1e-12, "symmetry");
        prop_assert_eq!(rms_over(&a, &a, &m).unwrap(), 0.0);
        prop_assert!(ab >= 0.0);
    }

    #[test]
    fn planner_route_is_connected_and_no_worse_than_straight_line(
        seed in 0u64..500,
        res in 6usize..14,
    ) {
        let field = uniform_matrix(res, res, 0.1, 1.0, seed);
        let grid = FuelGrid { resolution: res, rates: field };
        let route = plan_route(&grid, (0.05, 0.05), (0.95, 0.95)).unwrap();
        // 8-connected steps only
        for w in route.cells.windows(2) {
            let dy = (w[0].0 as i64 - w[1].0 as i64).abs();
            let dx = (w[0].1 as i64 - w[1].1 as i64).abs();
            prop_assert!(dy <= 1 && dx <= 1 && (dy + dx) > 0);
        }
        // Dijkstra result can't cost more than the naive diagonal walk.
        let naive_cells: Vec<(usize, usize)> = (0..res).map(|i| (i, i)).collect();
        let naive = route_cost_under(
            &grid,
            &smfl_eval::PlannedRoute { cells: naive_cells, fuel: 0.0 },
        );
        prop_assert!(route.fuel <= naive + 1e-9, "{} > {}", route.fuel, naive);
        // Cost consistency with the scorer.
        prop_assert!((route_cost_under(&grid, &route) - route.fuel).abs() < 1e-9);
    }
}
