//! Synthetic 3D geometries standing in for the SARS-CoV-2 surface meshes.
//!
//! Each "virus" is a closed quasi-spherical point cloud: a Fibonacci-
//! lattice sphere sampling (uniform, deterministic) deformed by a set of
//! radial spike bumps, mimicking the corona of the real capsid. A
//! population run places `n` such bodies at random non-degenerate
//! positions inside a cube, reproducing the paper's 30–1200 viruses in a
//! 1.7 µm box (we work in cube-edge units; only ratios matter for the
//! matrix structure).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point in 3D, cube-edge units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point3 {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
    /// z coordinate.
    pub z: f64,
}

impl Point3 {
    /// Euclidean distance to another point.
    pub fn dist(&self, o: &Point3) -> f64 {
        self.dist2(o).sqrt()
    }

    /// Squared Euclidean distance, the argument of every kernel.
    pub fn dist2(&self, o: &Point3) -> f64 {
        let dx = self.x - o.x;
        let dy = self.y - o.y;
        let dz = self.z - o.z;
        dx * dx + dy * dy + dz * dz
    }
}

/// Parameters of one synthetic virus.
#[derive(Debug, Clone, Copy)]
pub struct VirusConfig {
    /// Surface points per virus (the paper's meshes have 44,932).
    pub points_per_virus: usize,
    /// Body radius in cube-edge units (real virion ≈ 50 nm in a 1.7 µm
    /// box → ≈ 0.03; we default slightly larger so small populations
    /// still interact).
    pub radius: f64,
    /// Number of spike protrusions.
    pub n_spikes: usize,
    /// Spike height as a fraction of the radius.
    pub spike_height: f64,
}

impl Default for VirusConfig {
    fn default() -> Self {
        Self { points_per_virus: 500, radius: 0.05, n_spikes: 24, spike_height: 0.35 }
    }
}

/// Golden-angle Fibonacci sphere: `n` near-uniform unit directions.
fn fibonacci_sphere(n: usize) -> Vec<Point3> {
    let golden = std::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
    (0..n)
        .map(|i| {
            let y = 1.0 - 2.0 * (i as f64 + 0.5) / n as f64;
            let r = (1.0 - y * y).max(0.0).sqrt();
            let theta = golden * i as f64;
            Point3 { x: r * theta.cos(), y, z: r * theta.sin() }
        })
        .collect()
}

/// Generate one spiked-sphere virus surface centered at `center`.
fn spiked_sphere(center: Point3, cfg: &VirusConfig, rng: &mut StdRng) -> Vec<Point3> {
    let dirs = fibonacci_sphere(cfg.points_per_virus);
    // Random spike axes on the unit sphere.
    let spikes: Vec<Point3> = (0..cfg.n_spikes)
        .map(|_| {
            // Rejection-free: normalize a Gaussian triple.
            let g = |rng: &mut StdRng| -> f64 {
                // Box–Muller
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let (x, y, z) = (g(rng), g(rng), g(rng));
            let n = (x * x + y * y + z * z).sqrt().max(1e-12);
            Point3 { x: x / n, y: y / n, z: z / n }
        })
        .collect();
    let spike_width2 = 0.05; // angular width² of a spike bump
    dirs.into_iter()
        .map(|d| {
            // Radial bump: r(θ) = R · (1 + h · Σ exp(−angle²/w²))
            let mut bump = 0.0;
            for s in &spikes {
                let cosang = (d.x * s.x + d.y * s.y + d.z * s.z).clamp(-1.0, 1.0);
                let ang = cosang.acos();
                bump += (-(ang * ang) / spike_width2).exp();
            }
            let r = cfg.radius * (1.0 + cfg.spike_height * bump.min(1.5));
            Point3 { x: center.x + r * d.x, y: center.y + r * d.y, z: center.z + r * d.z }
        })
        .collect()
}

/// Generate a population of `n_viruses` in the unit cube.
///
/// Centers are drawn uniformly, offset from the walls by one radius.
/// Deterministic for a given `seed`.
pub fn virus_population(n_viruses: usize, cfg: &VirusConfig, seed: u64) -> Vec<Point3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(n_viruses * cfg.points_per_virus);
    let margin = cfg.radius * (1.0 + cfg.spike_height) * 1.05;
    for _ in 0..n_viruses {
        let center = Point3 {
            x: rng.gen_range(margin..1.0 - margin),
            y: rng.gen_range(margin..1.0 - margin),
            z: rng.gen_range(margin..1.0 - margin),
        };
        points.extend(spiked_sphere(center, cfg, &mut rng));
    }
    points
}

/// Minimum pairwise distance via a uniform grid (O(n) for surface-like
/// clouds); `0` when two points coincide.
pub fn min_pairwise_distance(points: &[Point3]) -> f64 {
    min_distance(points, false)
}

/// Smallest **non-zero** pairwise distance, the spacing a shape parameter
/// is scaled by (the paper's default `δ = ½ · min‖x − x_b‖`): a duplicated
/// point says nothing about the spacing of the cloud. `None` when all
/// points coincide.
pub fn min_positive_distance(points: &[Point3]) -> Option<f64> {
    let d = min_distance(points, true);
    d.is_finite().then_some(d)
}

/// Smallest pairwise distance, over the non-zero ones only when
/// `positive`; `∞` when there is none.
fn min_distance(points: &[Point3], positive: bool) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let closer = |best: f64, a: usize, b: usize| {
        let d = points[a].dist(&points[b]);
        if positive && d == 0.0 {
            best
        } else {
            best.min(d)
        }
    };
    // Grid cell = expected nearest-neighbor scale; brute force for tiny
    // inputs.
    if points.len() < 64 {
        let mut best = f64::INFINITY;
        for i in 0..points.len() {
            for j in i + 1..points.len() {
                best = closer(best, i, j);
            }
        }
        return best;
    }
    let cells = (points.len() as f64).cbrt().ceil() as usize * 2;
    let cell_of = |p: &Point3| -> [i64; 3] {
        let clamp = |v: f64| ((v.clamp(0.0, 1.0)) * (cells as f64 - 1e-9)) as i64;
        [clamp(p.x), clamp(p.y), clamp(p.z)]
    };
    // Two points whose cells differ by more than `k` along some axis are
    // more than `k · width` apart (rounded down so that a coordinate one
    // ulp off its cell border cannot break the claim).
    let width = (1.0 - 1e-12) / cells as f64;
    use std::collections::HashMap;
    let mut grid: HashMap<[i64; 3], Vec<usize>> = HashMap::new();
    for (idx, p) in points.iter().enumerate() {
        grid.entry(cell_of(p)).or_default().push(idx);
    }
    let mut best = f64::INFINITY;
    let mut ring = 1i64;
    loop {
        for (&[cx, cy, cz], members) in &grid {
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    for dz in -ring..=ring {
                        if let Some(neigh) = grid.get(&[cx + dx, cy + dy, cz + dz]) {
                            for &a in members {
                                for &b in neigh {
                                    if a < b {
                                        best = closer(best, a, b);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Every pair outside the ring is farther apart than the best one
        // inside it (surface clouds stop here at ring 1); a ring as wide
        // as the grid has seen every pair.
        if best <= ring as f64 * width || ring >= cells as i64 {
            return best;
        }
        // Nearest neighbours sit more than `ring` cells apart: widen to
        // the ring that must hold the closest pair, or keep doubling
        // while no pair has been seen at all.
        let wider = if best.is_finite() { (best / width).ceil() as i64 } else { 2 * ring };
        ring = wider.min(cells as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_sphere_is_unit() {
        for d in fibonacci_sphere(100) {
            let n = (d.x * d.x + d.y * d.y + d.z * d.z).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn virus_points_near_surface() {
        let cfg = VirusConfig { points_per_virus: 200, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let c = Point3 { x: 0.5, y: 0.5, z: 0.5 };
        let pts = spiked_sphere(c, &cfg, &mut rng);
        assert_eq!(pts.len(), 200);
        for p in &pts {
            let r = p.dist(&c);
            assert!(r >= cfg.radius * 0.99, "below body radius: {r}");
            assert!(r <= cfg.radius * (1.0 + cfg.spike_height * 1.6), "beyond spikes: {r}");
        }
        // spikes actually deform the sphere
        let rs: Vec<f64> = pts.iter().map(|p| p.dist(&c)).collect();
        let rmin = rs.iter().cloned().fold(f64::INFINITY, f64::min);
        let rmax = rs.iter().cloned().fold(0.0_f64, f64::max);
        assert!(rmax / rmin > 1.05, "no spike relief: {rmin}..{rmax}");
    }

    #[test]
    fn population_is_deterministic_and_in_cube() {
        let cfg = VirusConfig { points_per_virus: 100, ..Default::default() };
        let a = virus_population(3, &cfg, 42);
        let b = virus_population(3, &cfg, 42);
        assert_eq!(a.len(), 300);
        assert_eq!(a, b, "same seed ⇒ same cloud");
        for p in &a {
            assert!(p.x > 0.0 && p.x < 1.0 && p.y > 0.0 && p.y < 1.0 && p.z > 0.0 && p.z < 1.0);
        }
        let c = virus_population(3, &cfg, 43);
        assert_ne!(a, c, "different seed ⇒ different cloud");
    }

    /// Smallest distance over all pairs, and over the pairs of distinct
    /// positions.
    fn brute_force(pts: &[Point3]) -> (f64, f64) {
        let (mut any, mut positive) = (f64::INFINITY, f64::INFINITY);
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let d = pts[i].dist(&pts[j]);
                any = any.min(d);
                if d > 0.0 {
                    positive = positive.min(d);
                }
            }
        }
        (any, positive)
    }

    fn lattice(side: usize, spacing: f64) -> Vec<Point3> {
        let at = |k: usize| 0.05 + spacing * k as f64;
        (0..side * side * side)
            .map(|i| Point3 { x: at(i % side), y: at(i / side % side), z: at(i / (side * side)) })
            .collect()
    }

    fn uniform(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point3 { x: rng.gen_range(0.0..1.0), y: rng.gen_range(0.0..1.0), z: rng.gen_range(0.0..1.0) })
            .collect()
    }

    #[test]
    fn min_distance_grid_equals_brute_force() {
        let virus = |per, count, seed| {
            virus_population(count, &VirusConfig { points_per_virus: per, ..Default::default() }, seed)
        };
        let clouds = [
            ("two viruses", virus(80, 2, 7)),
            ("six viruses", virus(150, 6, 11)),
            // Neighbours 2.4 cells apart: the adjacent-cell pass sees no pair.
            ("4x4x4 lattice", lattice(4, 0.3)),
            ("6x6x6 lattice", lattice(6, 0.17)),
            ("uniform 64", uniform(64, 1)),
            ("uniform 500", uniform(500, 2)),
            ("uniform 3000", uniform(3000, 3)),
        ];
        for (name, pts) in &clouds {
            let (any, positive) = brute_force(pts);
            assert_eq!(min_pairwise_distance(pts), any, "{name}");
            assert_eq!(min_positive_distance(pts), Some(positive), "{name}");
        }
        assert!((min_pairwise_distance(&clouds[2].1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn duplicates_are_distance_zero_but_not_a_spacing() {
        for mut pts in [lattice(4, 0.3), uniform(40, 4), uniform(400, 5)] {
            let n = pts.len();
            pts[n - 1] = pts[0];
            pts[n / 2] = pts[n / 2 + 1];
            let (any, positive) = brute_force(&pts);
            assert_eq!(any, 0.0);
            assert_eq!(min_pairwise_distance(&pts), 0.0);
            assert_eq!(min_positive_distance(&pts), Some(positive));
        }
        for n in [2, 70] {
            let same = vec![Point3 { x: 0.3, y: 0.3, z: 0.3 }; n];
            assert_eq!(min_pairwise_distance(&same), 0.0);
            assert_eq!(min_positive_distance(&same), None);
        }
    }

    #[test]
    fn min_distance_tiny_input() {
        let pts = vec![
            Point3 { x: 0.0, y: 0.0, z: 0.0 },
            Point3 { x: 0.3, y: 0.4, z: 0.0 },
        ];
        assert!((min_pairwise_distance(&pts) - 0.5).abs() < 1e-15);
    }
}
