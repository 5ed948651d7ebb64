//! Consistency checks across crate boundaries: the kd-tree graph
//! against the brute-force oracle on a fit's spatial information, CSV
//! round-trips of generated datasets, route bookkeeping, and seed
//! determinism end to end.

use smfl_core::{fit, SmflConfig};
use smfl_datasets::csv::{from_csv_str, to_csv_string};
use smfl_datasets::{inject_missing, lake, vehicle, Scale};
use smfl_eval::route_fuel;
use smfl_spatial::kdtree::brute_force_nearest;
use smfl_spatial::{fill_missing_si, SpatialGraph};
use std::collections::BTreeSet;

#[test]
fn kdtree_and_bruteforce_give_identical_graphs() {
    // DESIGN.md §5 item 3 at pipeline scale: on the mean-filled SI a fit
    // builds its graph from, the kd-tree graph must be Formula 3 on the
    // brute-force neighbour lists, symmetrized here with set logic.
    let full = lake(Scale::Small, 2);
    let d = full.data.rows_range(0, 250).unwrap();
    let mut omega = smfl_linalg::Mask::full(250, full.m());
    for i in (0..250).step_by(7) {
        omega.set(i, 3, false);
    }
    let cfg = SmflConfig::smfl(5, 2);
    let si = fill_missing_si(&d, &omega, cfg.spatial_cols);
    let p = cfg.p_neighbors;
    let g = SpatialGraph::build(&si, p).unwrap();
    let nn: Vec<BTreeSet<usize>> = (0..si.rows())
        .map(|i| {
            brute_force_nearest(&si, si.row(i), p, i)
                .into_iter()
                .map(|(j, _)| j)
                .collect()
        })
        .collect();
    for i in 0..si.rows() {
        let expected: Vec<u32> = (0..si.rows())
            .filter(|&j| nn[i].contains(&j) || nn[j].contains(&i))
            .map(|j| j as u32)
            .collect();
        assert_eq!(
            g.neighbors(i),
            &expected[..],
            "D differs from the brute-force oracle at row {i}"
        );
    }
}

#[test]
fn generated_datasets_roundtrip_through_csv() {
    let d = lake(Scale::Small, 3);
    let csv = to_csv_string(&d.columns, &d.data);
    let (cols, data) = from_csv_str(&csv).unwrap();
    assert_eq!(cols, d.columns);
    assert!(data.approx_eq(&d.data, 1e-12));
}

#[test]
fn vehicle_routes_integrate_consistently() {
    // route_fuel over a concatenation equals the sum over the parts.
    let d = vehicle(Scale::Small, 4);
    let route = &d.routes.as_ref().unwrap()[0];
    let whole = route_fuel(&d.data, route, 4).unwrap();
    let mid = route.len() / 2;
    let first = route_fuel(&d.data, &route[..=mid], 4).unwrap();
    let second = route_fuel(&d.data, &route[mid..], 4).unwrap();
    assert!(
        (whole - (first + second)).abs() < 1e-10,
        "split route integral mismatch: {whole} vs {first} + {second}"
    );
}

#[test]
fn full_pipeline_is_seed_deterministic() {
    let d = lake(Scale::Small, 5);
    let run = || {
        let inj = inject_missing(&d.data, &d.attribute_cols(), 0.10, 50, 9);
        let model = fit(
            &inj.corrupted,
            &inj.omega,
            &SmflConfig::smfl(5, 2).with_max_iter(30).with_seed(11),
        )
        .unwrap();
        model.impute(&inj.corrupted, &inj.omega).unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.approx_eq(&b, 0.0));
}

#[test]
fn dataset_scales_share_structure() {
    // Small and Paper profiles must agree on schema; only N changes.
    {
        let (small, paper) = (lake(Scale::Small, 1), lake(Scale::Paper, 1));
        assert_eq!(small.m(), paper.m());
        assert_eq!(small.columns, paper.columns);
        assert!(paper.n() > small.n());
        assert!(paper.validate());
    }
}

#[test]
fn normalization_invariant_holds_downstream() {
    // Every generated dataset is in [0, 1]; the multiplicative updater
    // requires nonnegative observed data — this is the contract seam.
    for d in smfl_datasets::all_datasets(Scale::Small, 6) {
        assert!(d.data.min().unwrap() >= 0.0, "{}", d.name);
        assert!(d.data.max().unwrap() <= 1.0, "{}", d.name);
        let inj = inject_missing(&d.data, &d.attribute_cols(), 0.05, 20, 0);
        // The fit must accept every generated dataset without validation
        // errors.
        let data_head = inj.corrupted.rows_range(0, 150.min(d.n())).unwrap();
        let mut omega_head = smfl_linalg::Mask::full(data_head.rows(), d.m());
        for (i, j) in inj.omega.complement().iter_set() {
            if i < data_head.rows() {
                omega_head.set(i, j, false);
            }
        }
        let model = fit(
            &data_head,
            &omega_head,
            &SmflConfig::smfl(4, 2).with_max_iter(10),
        )
        .unwrap();
        assert!(model.u.all_finite(), "{}", d.name);
    }
}
