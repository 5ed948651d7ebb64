//! The paper's §I logistics application end to end: impute an
//! incomplete fuel-consumption map with SMFL, rasterize it, and plan an
//! energy-efficient route with Dijkstra — then score the planned route
//! against the ground-truth fuel field.
//!
//! ```text
//! cargo run --release --example route_planner
//! ```

use smfl_baselines::{Imputer, MeanImputer, MfImputer};
use smfl_datasets::generate::VEHICLE_FUEL_COL;
use smfl_datasets::{inject_missing, vehicle, Scale};
use smfl_eval::planner::{plan_route, route_cost_under, FuelGrid};

fn main() {
    let dataset = vehicle(Scale::Small, 9);
    println!(
        "fuel map from {} sensor readings, 30% of fuel rates missing",
        dataset.n()
    );
    let inj = inject_missing(&dataset.data, &[VEHICLE_FUEL_COL], 0.30, 100, 0);

    // Ground-truth grid for scoring.
    let truth_grid = FuelGrid::from_points(&dataset.data, VEHICLE_FUEL_COL, 24, 5).expect("grid");

    let (start, goal) = ((0.05, 0.05), (0.95, 0.95));
    let oracle = plan_route(&truth_grid, start, goal).expect("plan");
    println!(
        "oracle route (full knowledge): {:.4} fuel over {} cells",
        oracle.fuel,
        oracle.cells.len()
    );

    for imp in [
        Box::new(MfImputer::smfl(6, 2)) as Box<dyn Imputer>,
        Box::new(MeanImputer),
    ] {
        let imputed = imp.impute(&inj.corrupted, &inj.omega).expect("impute");
        let grid = FuelGrid::from_points(&imputed, VEHICLE_FUEL_COL, 24, 5).expect("grid");
        let route = plan_route(&grid, start, goal).expect("plan");
        // What the route *actually* costs on the true field:
        let true_cost = route_cost_under(&truth_grid, &route);
        let regret = true_cost - oracle.fuel;
        println!(
            "{:<5} imputed map: planned {:.4}, true cost {:.4} (regret {:+.4})",
            imp.name(),
            route.fuel,
            true_cost,
            regret
        );
    }
}
