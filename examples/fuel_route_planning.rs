//! The paper's motivating application (§I, §IV-B3): energy-efficient
//! logistics route planning over an incomplete fuel-consumption map.
//!
//! ```text
//! cargo run --release --example fuel_route_planning
//! ```
//!
//! Simulates vehicle routes with partially missing fuel-rate readings,
//! imputes them with SMFL, computes each route's accumulated fuel
//! consumption from the imputed map, and picks the cheapest route — then
//! checks the choice against ground truth.

use smfl_baselines::{Imputer, MeanImputer, MfImputer};
use smfl_datasets::generate::VEHICLE_FUEL_COL;
use smfl_datasets::{inject_missing, vehicle, Scale};
use smfl_eval::{route_fuel, route_fuel_error};

fn main() {
    let dataset = vehicle(Scale::Small, 3);
    let routes = dataset.routes.as_ref().expect("vehicle has routes");
    println!(
        "{} routes x {} points, fuel column = {}",
        routes.len(),
        routes[0].len(),
        VEHICLE_FUEL_COL
    );

    // Knock out 20% of the fuel-rate readings.
    let inj = inject_missing(&dataset.data, &[VEHICLE_FUEL_COL], 0.20, 100, 1);
    println!("missing fuel readings: {}", inj.psi.count());

    // Impute with SMFL and with a naive mean baseline.
    let smfl = MfImputer::smfl(6, 2);
    let smfl_map = smfl.impute(&inj.corrupted, &inj.omega).expect("impute");
    let mean_map = MeanImputer
        .impute(&inj.corrupted, &inj.omega)
        .expect("impute");

    // Accumulated-fuel error across all routes (the Fig. 4a number).
    let smfl_err =
        route_fuel_error(&smfl_map, &dataset.data, routes, VEHICLE_FUEL_COL).expect("routes");
    let mean_err =
        route_fuel_error(&mean_map, &dataset.data, routes, VEHICLE_FUEL_COL).expect("routes");
    println!("accumulated fuel error: SMFL {smfl_err:.5}, Mean {mean_err:.5}");

    // Route selection: pick the cheapest of the first 5 routes according
    // to the imputed map, compare to the true cheapest.
    let candidates = &routes[..5.min(routes.len())];
    let pick = |map: &smfl_linalg::Matrix| {
        candidates
            .iter()
            .enumerate()
            .map(|(i, r)| (i, route_fuel(map, r, VEHICLE_FUEL_COL).expect("route")))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fuel"))
            .expect("non-empty candidates")
    };
    let (true_best, true_cost) = pick(&dataset.data);
    let (smfl_best, _) = pick(&smfl_map);
    println!(
        "cheapest of {} candidate routes: truth = #{true_best} (cost {true_cost:.4}), \
         SMFL picks #{smfl_best} -> {}",
        candidates.len(),
        if smfl_best == true_best {
            "correct"
        } else {
            "wrong"
        }
    );
}
