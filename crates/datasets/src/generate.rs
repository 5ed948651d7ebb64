//! Synthetic spatially autocorrelated dataset generators.
//!
//! The paper evaluates on four real datasets (Economic, Farm, Lake,
//! Vehicle) that are proprietary or external downloads. Per the
//! substitution policy in DESIGN.md §4 we generate synthetic equivalents
//! that preserve what SMFL exploits:
//!
//! 1. **clusterable location distributions** — locations are drawn from
//!    a mixture of Gaussian blobs, so k-means landmarks are meaningful;
//! 2. **spatial autocorrelation of attributes** — each attribute is a
//!    smooth random field (sum of RBF bumps) evaluated at the location,
//!    plus noise, so near neighbours have similar values (what the graph
//!    Laplacian term rewards);
//! 3. **cross-attribute structure** — some attributes are (noisy) linear
//!    combinations of fields and other attributes, giving the
//!    regression-style baselines (IIM, LOESS, Iterative) something to
//!    work with;
//! 4. the **shape** of each paper dataset (N x M and column semantics).

use crate::normalize::MinMaxScaler;
use crate::table::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smfl_linalg::Matrix;

/// Dataset size profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-reported tuple counts (Economic 27k, Farm 0.4k, Lake 8k,
    /// Vehicle 100k).
    Paper,
    /// Reduced sizes for fast tests and laptop benches.
    Small,
}

/// A smooth scalar field over the unit square: a weighted sum of
/// Gaussian (RBF) bumps.
#[derive(Debug, Clone)]
pub struct RbfField {
    centers: Vec<(f64, f64)>,
    weights: Vec<f64>,
    length_scale: f64,
}

impl RbfField {
    /// Random field with `n_bumps` bumps, weights in `[-1, 1]`.
    pub fn random(n_bumps: usize, length_scale: f64, rng: &mut StdRng) -> RbfField {
        RbfField {
            centers: (0..n_bumps)
                .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
                .collect(),
            weights: (0..n_bumps).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            length_scale,
        }
    }

    /// Field value at `(x, y)`.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let inv = 1.0 / (2.0 * self.length_scale * self.length_scale);
        self.centers
            .iter()
            .zip(&self.weights)
            .map(|(&(cx, cy), &w)| {
                let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
                w * (-d2 * inv).exp()
            })
            .sum()
    }
}

/// Configuration of the generic generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of tuples `N`.
    pub n: usize,
    /// Number of non-spatial attribute columns (`M − 2`).
    pub attr_cols: usize,
    /// Number of location blobs (ground-truth clusters).
    pub blobs: usize,
    /// Blob standard deviation (location spread).
    pub blob_std: f64,
    /// RBF bumps per attribute field.
    pub rbf_bumps: usize,
    /// RBF length scale — larger means smoother fields.
    pub length_scale: f64,
    /// Weight of the region-constant attribute component: each blob
    /// (region) carries its own base level per attribute. Economic
    /// activity by region, nitrogen management zones, lake ecoregions
    /// and vehicle work sites all have this structure — it is what the
    /// paper's landmark bias exploits.
    pub blob_effect: f64,
    /// Weight of the smooth RBF-field component.
    pub field_weight: f64,
    /// Observation noise standard deviation (in raw field units).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Sensible defaults for `n` tuples and `attr_cols` attributes.
    pub fn new(n: usize, attr_cols: usize, seed: u64) -> Self {
        GeneratorConfig {
            n,
            attr_cols,
            blobs: 6,
            blob_std: 0.07,
            rbf_bumps: 8,
            length_scale: 0.25,
            blob_effect: 0.7,
            field_weight: 0.3,
            noise: 0.08,
            seed,
        }
    }
}

/// `(locations, blob labels, blob centres)` of a sampled point cloud.
type LocationSample = (Vec<(f64, f64)>, Vec<usize>, Vec<(f64, f64)>);

/// Samples clusterable locations, their blob labels and the blob
/// centres.
fn sample_locations(cfg: &GeneratorConfig, rng: &mut StdRng) -> LocationSample {
    let centers: Vec<(f64, f64)> = (0..cfg.blobs)
        .map(|_| (rng.gen_range(0.15..0.85), rng.gen_range(0.15..0.85)))
        .collect();
    let mut locs = Vec::with_capacity(cfg.n);
    let mut labels = Vec::with_capacity(cfg.n);
    for _ in 0..cfg.n {
        let b = rng.gen_range(0..cfg.blobs);
        let (cx, cy) = centers[b];
        let x = (cx + gauss(rng) * cfg.blob_std).clamp(0.0, 1.0);
        let y = (cy + gauss(rng) * cfg.blob_std).clamp(0.0, 1.0);
        locs.push((x, y));
        labels.push(b);
    }
    (locs, labels, centers)
}

/// Standard normal via Box–Muller.
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generic spatially autocorrelated dataset: `attr_cols` RBF-field
/// attributes over blob-mixture locations, min-max normalized.
pub fn spatial_dataset(name: &str, columns: Vec<String>, cfg: &GeneratorConfig) -> Dataset {
    assert_eq!(
        columns.len(),
        cfg.attr_cols + 2,
        "column names must cover lat, lon and every attribute"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (locs, labels, centers) = sample_locations(cfg, &mut rng);
    let fields: Vec<RbfField> = (0..cfg.attr_cols)
        .map(|_| RbfField::random(cfg.rbf_bumps, cfg.length_scale, &mut rng))
        .collect();
    // Regional attribute profile per (blob, attribute): each region has
    // its own characteristic level, and a tuple's attribute is the
    // *membership-weighted mixture* of the regional profiles — the
    // "features of different clusters" data model the paper's landmark
    // design assumes (§II-B, §III-A).
    let profiles: Vec<Vec<f64>> = (0..cfg.blobs)
        .map(|_| {
            (0..cfg.attr_cols)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect();
    // Membership kernel width: a couple of blob radii, so memberships
    // are soft near boundaries but dominated by the home region.
    let kernel_inv = 1.0 / (2.0 * (2.5 * cfg.blob_std).powi(2));
    let mut raw = Matrix::zeros(cfg.n, cfg.attr_cols + 2);
    for (i, &(x, y)) in locs.iter().enumerate() {
        raw.set(i, 0, x);
        raw.set(i, 1, y);
        // Soft memberships to every region centre.
        let mut w: Vec<f64> = centers
            .iter()
            .map(|&(cx, cy)| {
                let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
                (-d2 * kernel_inv).exp()
            })
            .collect();
        let wsum: f64 = w.iter().sum::<f64>().max(1e-12);
        for v in &mut w {
            *v /= wsum;
        }
        for (a, field) in fields.iter().enumerate() {
            // Mixture of regional profiles + smooth field + a dash of the
            // previous attribute so columns correlate (regression
            // baselines rely on the cross term).
            let region: f64 = w.iter().zip(&profiles).map(|(&wi, p)| wi * p[a]).sum();
            let smooth = cfg.field_weight * field.eval(x, y);
            let cross = if a > 0 { 0.3 * raw.get(i, a + 1) } else { 0.0 };
            raw.set(
                i,
                a + 2,
                cfg.blob_effect * region + smooth + cross + cfg.noise * gauss(&mut rng),
            );
        }
    }
    let (_, data) = MinMaxScaler::fit_transform(&raw).expect("non-empty generated data");
    Dataset {
        name: name.to_string(),
        data,
        spatial_cols: 2,
        columns,
        cluster_labels: Some(labels),
        routes: None,
    }
}

/// The **Economic** analogue: 13 columns (27k tuples at paper scale) of
/// climate/population/economic-activity style attributes.
pub fn economic(scale: Scale, seed: u64) -> Dataset {
    let n = match scale {
        Scale::Paper => 27_000,
        Scale::Small => 1_200,
    };
    let columns = vec![
        "lat",
        "lon",
        "precipitation",
        "temperature",
        "elevation",
        "population",
        "gdp",
        "agriculture",
        "industry",
        "services",
        "roads",
        "night_lights",
        "soil_quality",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let mut cfg = GeneratorConfig::new(n, 11, seed);
    cfg.length_scale = 0.3;
    spatial_dataset("economic", columns, &cfg)
}

/// The **Farm** analogue: 13 columns, 400 tuples (both scales — the real
/// dataset is already tiny), nitrogen-management style attributes.
pub fn farm(_scale: Scale, seed: u64) -> Dataset {
    let columns = vec![
        "lat",
        "lon",
        "nitrogen",
        "phosphorus",
        "potassium",
        "yield",
        "moisture",
        "organic_matter",
        "ph",
        "slope",
        "clay",
        "sand",
        "silt",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let mut cfg = GeneratorConfig::new(400, 11, seed);
    cfg.blob_std = 0.12;
    cfg.length_scale = 0.2;
    spatial_dataset("farm", columns, &cfg)
}

/// The **Lake** analogue: 7 columns (8k tuples at paper scale) with
/// ground-truth region labels used by the clustering experiment.
pub fn lake(scale: Scale, seed: u64) -> Dataset {
    let n = match scale {
        Scale::Paper => 8_000,
        Scale::Small => 800,
    };
    let columns = vec![
        "lat",
        "lon",
        "area",
        "elevation",
        "depth",
        "ph",
        "water_temp",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let mut cfg = GeneratorConfig::new(n, 5, seed);
    cfg.blob_std = 0.09;
    cfg.length_scale = 0.22;
    spatial_dataset("lake", columns, &cfg)
}

/// The **Vehicle** analogue: 7 columns (100k tuples at paper scale),
/// built from simulated routes over an elevation field. Fuel consumption
/// rate depends on terrain elevation (the paper's motivating
/// observation: "the east region in lower altitudes ... leads to a
/// better fuel consumption rate"), speed and torque.
pub fn vehicle(scale: Scale, seed: u64) -> Dataset {
    let (n_routes, route_len) = match scale {
        Scale::Paper => (500, 200),
        Scale::Small => (20, 100),
    };
    let n = n_routes * route_len;
    let mut rng = StdRng::seed_from_u64(seed);
    let elevation = RbfField::random(10, 0.3, &mut rng);
    // Work sites: heavy machines operate in clustered regions (this is
    // visible in the paper's Fig. 1 — observations form geographic
    // clusters). Routes start at a site and wander around it.
    let n_sites = 6usize;
    let sites: Vec<(f64, f64)> = (0..n_sites)
        .map(|_| (rng.gen_range(0.15..0.85), rng.gen_range(0.15..0.85)))
        .collect();
    // Per-site operating profiles: different sites run different machine
    // fleets and terrains, so typical speed/torque/fuel levels differ by
    // site; a point's level is the site-membership mixture of profiles
    // (same regional-mixture structure as the tabular generators).
    // (speed, torque, fuel base, payload, rpm) per site. Fuel base is
    // driven by the site's altitude — the paper's motivating terrain
    // effect ("lower altitudes with sufficient oxygen lead to a better
    // fuel consumption rate") — plus fleet variation.
    let site_profile: Vec<[f64; 5]> = sites
        .iter()
        .map(|&(sx, sy)| {
            [
                rng.gen_range(600.0..800.0),
                rng.gen_range(280.0..360.0),
                5.0 + 1.8 * elevation.eval(sx, sy) + rng.gen_range(-0.5..0.5),
                rng.gen_range(10.0..30.0),
                rng.gen_range(1200.0..2000.0),
            ]
        })
        .collect();
    let kernel_inv = 1.0 / (2.0 * 0.15f64.powi(2));
    let mixture = |x: f64, y: f64| -> [f64; 5] {
        let mut acc = [0.0; 5];
        let mut total = 0.0;
        for (s, &(sx, sy)) in sites.iter().enumerate() {
            let d2 = (x - sx) * (x - sx) + (y - sy) * (y - sy);
            let w = (-d2 * kernel_inv).exp();
            total += w;
            for (a, p) in acc.iter_mut().zip(&site_profile[s]) {
                *a += w * p;
            }
        }
        let t = total.max(1e-12);
        acc.map(|v| v / t)
    };
    let mut raw = Matrix::zeros(n, 7);
    let mut routes = Vec::with_capacity(n_routes);
    let mut row = 0;
    for r in 0..n_routes {
        let mut route = Vec::with_capacity(route_len);
        let (sx, sy) = sites[r % n_sites];
        let (mut x, mut y) = (
            (sx + 0.03 * gauss(&mut rng)).clamp(0.0, 1.0),
            (sy + 0.03 * gauss(&mut rng)).clamp(0.0, 1.0),
        );
        let mut heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut speed: f64 = rng.gen_range(500.0..900.0); // engine rpm-ish units
        let mut torque: f64 = rng.gen_range(250.0..400.0);
        for _ in 0..route_len {
            // Smooth random walk with mean reversion toward the site, so
            // the machine stays within its work region.
            heading += 0.3 * gauss(&mut rng);
            let (dx, dy) = (sx - x, sy - y);
            x += 0.004 * heading.cos() + 0.02 * dx;
            y += 0.004 * heading.sin() + 0.02 * dy;
            if !(0.0..=1.0).contains(&x) {
                x = x.clamp(0.0, 1.0);
                heading = std::f64::consts::PI - heading;
            }
            if !(0.0..=1.0).contains(&y) {
                y = y.clamp(0.0, 1.0);
                heading = -heading;
            }
            // AR(1) engine dynamics reverting to the local site profile.
            let [sp, tq, fb, pl, rp] = mixture(x, y);
            speed = 0.92 * speed + 0.08 * sp + 8.0 * gauss(&mut rng);
            torque = 0.92 * torque + 0.08 * tq + 6.0 * gauss(&mut rng);
            let elev = elevation.eval(x, y); // roughly [-1, 1], latent
                                             // Fuel rate: site base (altitude-driven) + local terrain +
                                             // engine load + noise. Elevation stays *latent* — it reaches
                                             // the table only through fuel, as in the paper's sensor data.
            let fuel = fb
                + 0.5 * elev
                + 0.004 * (speed - 700.0)
                + 0.006 * (torque - 320.0)
                + 0.12 * gauss(&mut rng);
            let payload = pl + 1.5 * gauss(&mut rng);
            let rpm = rp + 0.25 * (speed - 700.0) + 30.0 * gauss(&mut rng);
            raw.set(row, 0, x);
            raw.set(row, 1, y);
            raw.set(row, 2, speed);
            raw.set(row, 3, torque);
            raw.set(row, 4, fuel);
            raw.set(row, 5, payload);
            raw.set(row, 6, rpm);
            route.push(row);
            row += 1;
        }
        routes.push(route);
    }
    let (_, data) = MinMaxScaler::fit_transform(&raw).expect("non-empty generated data");
    Dataset {
        name: "vehicle".to_string(),
        data,
        spatial_cols: 2,
        columns: vec![
            "lat",
            "lon",
            "speed",
            "torque",
            "fuel_rate",
            "payload",
            "rpm",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
        cluster_labels: None,
        routes: Some(routes),
    }
}

/// Column index of the fuel-consumption-rate attribute in the Vehicle
/// dataset.
pub const VEHICLE_FUEL_COL: usize = 4;

/// All four datasets at the given scale, in the paper's table order.
pub fn all_datasets(scale: Scale, seed: u64) -> Vec<Dataset> {
    vec![
        economic(scale, seed),
        farm(scale, seed.wrapping_add(1)),
        lake(scale, seed.wrapping_add(2)),
        vehicle(scale, seed.wrapping_add(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use smfl_spatial::SpatialGraph;

    #[test]
    fn shapes_match_paper() {
        assert_eq!(economic(Scale::Small, 0).m(), 13);
        assert_eq!(farm(Scale::Small, 0).m(), 13);
        assert_eq!(lake(Scale::Small, 0).m(), 7);
        assert_eq!(vehicle(Scale::Small, 0).m(), 7);
        assert_eq!(farm(Scale::Small, 0).n(), 400);
        assert_eq!(vehicle(Scale::Small, 0).n(), 20 * 100);
    }

    #[test]
    fn all_generated_datasets_validate() {
        for d in all_datasets(Scale::Small, 7) {
            assert!(d.validate(), "{} failed validation", d.name);
            assert_eq!(d.spatial_cols, 2);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = lake(Scale::Small, 42);
        let b = lake(Scale::Small, 42);
        let c = lake(Scale::Small, 43);
        assert!(a.data.approx_eq(&b.data, 0.0));
        assert!(!a.data.approx_eq(&c.data, 1e-9));
    }

    #[test]
    fn attributes_are_spatially_autocorrelated() {
        // Core generator requirement: the value at a point must be closer
        // to its spatial neighbours' values than to random rows' values.
        let d = lake(Scale::Small, 3);
        let si = d.si();
        let g = SpatialGraph::build(&si, 3).unwrap();
        let col = d.data.col(3); // elevation attribute
        let mut neigh_diff = 0.0;
        let mut neigh_cnt = 0usize;
        for i in 0..d.n() {
            for &j in g.neighbors(i) {
                neigh_diff += (col[i] - col[j as usize]).abs();
                neigh_cnt += 1;
            }
        }
        let neigh_mean = neigh_diff / neigh_cnt as f64;
        let mut rand_diff = 0.0;
        let n = d.n();
        for i in 0..n {
            rand_diff += (col[i] - col[(i * 7 + 13) % n]).abs();
        }
        let rand_mean = rand_diff / n as f64;
        assert!(
            neigh_mean < 0.7 * rand_mean,
            "no autocorrelation: neighbour diff {neigh_mean} vs random {rand_mean}"
        );
    }

    #[test]
    fn lake_labels_align_with_locations() {
        // Points sharing a blob label must be spatially compact.
        let d = lake(Scale::Small, 5);
        let labels = d.cluster_labels.as_ref().unwrap();
        let si = d.si();
        // centroid per label
        let k = labels.iter().max().unwrap() + 1;
        let mut cx = vec![0.0; k];
        let mut cy = vec![0.0; k];
        let mut cnt = vec![0usize; k];
        for (i, &l) in labels.iter().enumerate() {
            cx[l] += si.get(i, 0);
            cy[l] += si.get(i, 1);
            cnt[l] += 1;
        }
        for l in 0..k {
            cx[l] /= cnt[l] as f64;
            cy[l] /= cnt[l] as f64;
        }
        // mean distance to own centroid must be small (tight blobs)
        let mut mean_d = 0.0;
        for (i, &l) in labels.iter().enumerate() {
            mean_d += ((si.get(i, 0) - cx[l]).powi(2) + (si.get(i, 1) - cy[l]).powi(2)).sqrt();
        }
        mean_d /= labels.len() as f64;
        assert!(mean_d < 0.2, "blobs too loose: {mean_d}");
    }

    #[test]
    fn vehicle_routes_are_contiguous_and_smooth() {
        let d = vehicle(Scale::Small, 1);
        let routes = d.routes.as_ref().unwrap();
        assert_eq!(routes.len(), 20);
        for route in routes {
            assert_eq!(route.len(), 100);
            // Consecutive points must be close in space (it's a route).
            for w in route.windows(2) {
                let dx = d.data.get(w[0], 0) - d.data.get(w[1], 0);
                let dy = d.data.get(w[0], 1) - d.data.get(w[1], 1);
                assert!((dx * dx + dy * dy).sqrt() < 0.05);
            }
        }
    }

    #[test]
    fn vehicle_fuel_is_terrain_driven() {
        // The latent elevation field drives the fuel rate (the Fig. 1
        // motivation), so fuel must be strongly spatially autocorrelated:
        // nearby points share terrain.
        let d = vehicle(Scale::Small, 2);
        let g = SpatialGraph::build(&d.si(), 3).unwrap();
        let fuel = d.data.col(VEHICLE_FUEL_COL);
        let mut neigh_diff = 0.0;
        let mut cnt = 0usize;
        for i in 0..d.n() {
            for &j in g.neighbors(i) {
                neigh_diff += (fuel[i] - fuel[j as usize]).abs();
                cnt += 1;
            }
        }
        let neigh_mean = neigh_diff / cnt as f64;
        let mut rand_diff = 0.0;
        let n = d.n();
        for i in 0..n {
            rand_diff += (fuel[i] - fuel[(i * 977 + 131) % n]).abs();
        }
        let rand_mean = rand_diff / n as f64;
        assert!(
            neigh_mean < 0.6 * rand_mean,
            "fuel not terrain-driven: neighbour diff {neigh_mean} vs random {rand_mean}"
        );
    }

    #[test]
    fn rbf_field_is_smooth() {
        let mut rng = StdRng::seed_from_u64(9);
        let f = RbfField::random(6, 0.3, &mut rng);
        let a = f.eval(0.5, 0.5);
        let b = f.eval(0.501, 0.5);
        assert!((a - b).abs() < 0.01);
    }
}
