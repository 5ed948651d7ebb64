//! Energy-efficient route planning over a fuel-consumption map — the
//! paper's motivating application (§I): "vehicles may select the
//! logistics route with less fuel consumption, thus saving energy".
//!
//! The planner rasterizes scattered `(x, y, fuel-rate)` observations
//! onto a regular grid (inverse-distance weighting from the k nearest
//! samples per cell) and runs Dijkstra over 8-connected cells, with
//! edge cost = distance × mean endpoint fuel rate — the same integrand
//! as [`crate::route::route_fuel`].

use smfl_linalg::{LinalgError, Matrix, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A rasterized fuel-rate field over the unit square.
#[derive(Debug, Clone)]
pub struct FuelGrid {
    /// Cells per side.
    pub resolution: usize,
    /// Row-major `resolution x resolution` fuel rates.
    pub rates: Matrix,
}

impl FuelGrid {
    /// Builds the grid from scattered observations: `data` rows carry
    /// `(x, y)` in columns 0/1 and the fuel rate in `fuel_col`. Each
    /// cell takes the inverse-distance-weighted mean of its `k` nearest
    /// observations.
    pub fn from_points(
        data: &Matrix,
        fuel_col: usize,
        resolution: usize,
        k: usize,
    ) -> Result<FuelGrid> {
        if data.rows() == 0 || resolution == 0 {
            return Err(LinalgError::Empty);
        }
        if fuel_col >= data.cols() || data.cols() < 2 {
            return Err(LinalgError::IndexOutOfBounds {
                index: (0, fuel_col),
                shape: data.shape(),
            });
        }
        let mut rates = Matrix::zeros(resolution, resolution);
        for gy in 0..resolution {
            for gx in 0..resolution {
                let cx = (gx as f64 + 0.5) / resolution as f64;
                let cy = (gy as f64 + 0.5) / resolution as f64;
                let mut neigh: Vec<(f64, f64)> = (0..data.rows())
                    .map(|i| {
                        let dx = data.get(i, 0) - cx;
                        let dy = data.get(i, 1) - cy;
                        (dx * dx + dy * dy, data.get(i, fuel_col))
                    })
                    .collect();
                neigh.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
                neigh.truncate(k.max(1));
                let mut wsum = 0.0;
                let mut acc = 0.0;
                for &(d2, v) in &neigh {
                    let w = 1.0 / (d2 + 1e-6);
                    wsum += w;
                    acc += w * v;
                }
                rates.set(gy, gx, acc / wsum);
            }
        }
        Ok(FuelGrid { resolution, rates })
    }

    /// Grid cell containing the point `(x, y)` (clamped to the square).
    pub fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        let r = self.resolution;
        let gx = ((x.clamp(0.0, 1.0) * r as f64) as usize).min(r - 1);
        let gy = ((y.clamp(0.0, 1.0) * r as f64) as usize).min(r - 1);
        (gy, gx)
    }
}

/// A planned route: grid cells from start to goal plus its accumulated
/// fuel cost under the grid used for planning.
#[derive(Debug, Clone)]
pub struct PlannedRoute {
    /// Visited cells `(row, col)`, start first.
    pub cells: Vec<(usize, usize)>,
    /// Accumulated fuel (distance × rate integral).
    pub fuel: f64,
}

#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    node: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on cost
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra over the 8-connected grid; edge cost = Euclidean step
/// length (in unit-square units) × mean endpoint fuel rate.
pub fn plan_route(grid: &FuelGrid, start: (f64, f64), goal: (f64, f64)) -> Result<PlannedRoute> {
    let r = grid.resolution;
    if r == 0 {
        return Err(LinalgError::Empty);
    }
    let s = grid.cell_of(start.0, start.1);
    let g = grid.cell_of(goal.0, goal.1);
    let idx = |c: (usize, usize)| c.0 * r + c.1;
    let cell_size = 1.0 / r as f64;

    let mut dist = vec![f64::INFINITY; r * r];
    let mut prev = vec![usize::MAX; r * r];
    let mut heap = BinaryHeap::new();
    dist[idx(s)] = 0.0;
    heap.push(HeapItem {
        cost: 0.0,
        node: idx(s),
    });
    while let Some(HeapItem { cost, node }) = heap.pop() {
        if cost > dist[node] {
            continue;
        }
        if node == idx(g) {
            break;
        }
        let (cy, cx) = (node / r, node % r);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let (ny, nx) = (cy as i64 + dy, cx as i64 + dx);
                if ny < 0 || nx < 0 || ny >= r as i64 || nx >= r as i64 {
                    continue;
                }
                let n = (ny as usize) * r + nx as usize;
                let step = cell_size * ((dx * dx + dy * dy) as f64).sqrt();
                let rate =
                    0.5 * (grid.rates.get(cy, cx) + grid.rates.get(ny as usize, nx as usize));
                let next_cost = cost + step * rate.max(0.0);
                if next_cost < dist[n] {
                    dist[n] = next_cost;
                    prev[n] = node;
                    heap.push(HeapItem {
                        cost: next_cost,
                        node: n,
                    });
                }
            }
        }
    }
    if dist[idx(g)].is_infinite() {
        return Err(LinalgError::NoConvergence {
            routine: "dijkstra (goal unreachable)",
            iterations: r * r,
        });
    }
    // Reconstruct the path.
    let mut cells = Vec::new();
    let mut cur = idx(g);
    while cur != usize::MAX {
        cells.push((cur / r, cur % r));
        if cur == idx(s) {
            break;
        }
        cur = prev[cur];
    }
    cells.reverse();
    Ok(PlannedRoute {
        cells,
        fuel: dist[idx(g)],
    })
}

/// Evaluates a planned route's *true* fuel cost under a reference grid
/// (e.g. plan on the imputed map, score on the ground-truth map).
pub fn route_cost_under(grid: &FuelGrid, route: &PlannedRoute) -> f64 {
    let cell_size = 1.0 / grid.resolution as f64;
    let mut total = 0.0;
    for w in route.cells.windows(2) {
        let (ay, ax) = w[0];
        let (by, bx) = w[1];
        let step = cell_size
            * (((by as f64 - ay as f64).powi(2) + (bx as f64 - ax as f64).powi(2)).sqrt());
        let rate = 0.5 * (grid.rates.get(ay, ax) + grid.rates.get(by, bx));
        total += step * rate.max(0.0);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fuel field with a cheap corridor along y = 0.5.
    fn corridor_grid(resolution: usize) -> FuelGrid {
        let rates = Matrix::from_fn(resolution, resolution, |gy, _| {
            let y = (gy as f64 + 0.5) / resolution as f64;
            if (y - 0.5).abs() < 0.1 {
                0.1
            } else {
                2.0
            }
        });
        FuelGrid { resolution, rates }
    }

    #[test]
    fn straight_route_on_uniform_field() {
        let grid = FuelGrid {
            resolution: 10,
            rates: Matrix::filled(10, 10, 1.0),
        };
        let route = plan_route(&grid, (0.05, 0.05), (0.95, 0.05)).unwrap();
        // cost ≈ distance (rate 1): 9 horizontal steps of 0.1
        assert!((route.fuel - 0.9).abs() < 0.05, "fuel {}", route.fuel);
        assert_eq!(route.cells.first().copied(), Some((0, 0)));
        assert_eq!(route.cells.last().copied(), Some((0, 9)));
    }

    #[test]
    fn planner_prefers_the_cheap_corridor() {
        let grid = corridor_grid(20);
        // Start and goal both far from the corridor.
        let route = plan_route(&grid, (0.05, 0.05), (0.95, 0.05)).unwrap();
        // An informed route dips into the corridor; a straight route
        // would cost ~0.9 * 2.0 = 1.8.
        assert!(route.fuel < 1.5, "did not exploit corridor: {}", route.fuel);
        let touches_corridor = route
            .cells
            .iter()
            .any(|&(gy, _)| ((gy as f64 + 0.5) / 20.0 - 0.5).abs() < 0.1);
        assert!(touches_corridor);
    }

    #[test]
    fn cost_under_reference_grid_matches_planner_on_same_grid() {
        let grid = corridor_grid(15);
        let route = plan_route(&grid, (0.1, 0.1), (0.9, 0.9)).unwrap();
        let scored = route_cost_under(&grid, &route);
        assert!((scored - route.fuel).abs() < 1e-9);
    }

    #[test]
    fn from_points_interpolates_scattered_observations() {
        // Observations: cheap on the left half, expensive on the right.
        let mut rows = Vec::new();
        for i in 0..50 {
            let x = i as f64 / 49.0;
            rows.push(vec![x, 0.5, if x < 0.5 { 0.2 } else { 1.8 }]);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let grid = FuelGrid::from_points(&data, 2, 8, 3).unwrap();
        let (ly, lx) = grid.cell_of(0.1, 0.5);
        let (ry, rx) = grid.cell_of(0.9, 0.5);
        assert!(grid.rates.get(ly, lx) < 0.5);
        assert!(grid.rates.get(ry, rx) > 1.0);
    }

    #[test]
    fn degenerate_inputs_are_errors() {
        assert!(FuelGrid::from_points(&Matrix::zeros(0, 3), 2, 8, 3).is_err());
        let data = Matrix::from_rows(&[vec![0.5, 0.5, 1.0]]).unwrap();
        assert!(FuelGrid::from_points(&data, 9, 8, 3).is_err());
        assert!(FuelGrid::from_points(&data, 2, 0, 3).is_err());
    }

    #[test]
    fn start_equals_goal_is_zero_cost() {
        let grid = corridor_grid(10);
        let route = plan_route(&grid, (0.5, 0.5), (0.5, 0.5)).unwrap();
        assert_eq!(route.fuel, 0.0);
        assert_eq!(route.cells.len(), 1);
    }

    #[test]
    fn cell_of_clamps() {
        let grid = corridor_grid(10);
        assert_eq!(grid.cell_of(-1.0, -1.0), (0, 0));
        assert_eq!(grid.cell_of(2.0, 2.0), (9, 9));
    }
}
