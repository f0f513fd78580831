//! End-to-end RBF mesh deformation (dense reference pipeline).
//!
//! Given boundary nodes `x_bᵢ` with known displacements `d_b`, RBF
//! interpolation (§IV-C) determines coefficients `α` from
//! `A·α = d_b` with `A_ij = φ_δ(‖x_bᵢ − x_bⱼ‖)`, then evaluates
//! `d(x) = Σᵢ αᵢ · φ_δ(‖x − x_bᵢ‖)` at any volume node `x`.
//!
//! This module is the *dense* reference implementation (Cholesky via
//! `tlr-linalg`); the TLR production path lives in `hicma-core` and is
//! validated against this one in the integration tests. Like the paper we
//! solve the kernel system without the optional linear-polynomial term —
//! the Gaussian is strictly positive definite, so the interpolant is
//! already unique.

use crate::geometry::Point3;
use crate::kernel::GaussianRbf;
use tlr_linalg::{potrf, trsm, CholeskyError, Matrix, Side, Trans, Uplo};

/// A boundary displacement field: one 3-vector per boundary node.
#[derive(Debug, Clone, Default)]
pub struct Displacements {
    /// x-components.
    pub dx: Vec<f64>,
    /// y-components.
    pub dy: Vec<f64>,
    /// z-components.
    pub dz: Vec<f64>,
}

impl Displacements {
    /// Zero displacement for `n` nodes.
    pub fn zeros(n: usize) -> Self {
        Self { dx: vec![0.0; n], dy: vec![0.0; n], dz: vec![0.0; n] }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.dx.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.dx.is_empty()
    }

    /// Rigid translation of every node by `(tx, ty, tz)`.
    pub fn translation(n: usize, tx: f64, ty: f64, tz: f64) -> Self {
        Self { dx: vec![tx; n], dy: vec![ty; n], dz: vec![tz; n] }
    }
}

/// A solved RBF interpolation system.
pub struct RbfInterpolant {
    /// Boundary nodes (in the ordering the system was assembled with).
    pub points: Vec<Point3>,
    /// Kernel.
    pub kernel: GaussianRbf,
    /// Interpolation coefficients per displacement component.
    pub alpha: Displacements,
}

/// Assemble and solve the dense RBF system for the given boundary
/// displacements (three right-hand sides share one factorization).
pub fn solve_dense(
    points: &[Point3],
    kernel: GaussianRbf,
    d_b: &Displacements,
) -> Result<RbfInterpolant, CholeskyError> {
    let n = points.len();
    assert_eq!(d_b.len(), n, "one displacement per boundary node");
    let mut a = Matrix::from_fn(n, n, |i, j| kernel.matrix_entry(points, i, j));
    potrf(&mut a)?;
    let mut rhs = Matrix::from_vec(n, 3, [&d_b.dx[..], &d_b.dy, &d_b.dz].concat());
    trsm(Side::Left, Uplo::Lower, Trans::No, 1.0, &a, &mut rhs);
    trsm(Side::Left, Uplo::Lower, Trans::Yes, 1.0, &a, &mut rhs);
    let component = |c: usize| rhs.col(c).to_vec();
    let alpha = Displacements { dx: component(0), dy: component(1), dz: component(2) };
    Ok(RbfInterpolant { points: points.to_vec(), kernel, alpha })
}

impl RbfInterpolant {
    /// Interpolated displacement at an arbitrary volume point.
    pub fn displacement(&self, x: &Point3) -> (f64, f64, f64) {
        let mut d = (0.0, 0.0, 0.0);
        for (i, p) in self.points.iter().enumerate() {
            let w = self.kernel.eval(x.dist(p));
            d.0 += self.alpha.dx[i] * w;
            d.1 += self.alpha.dy[i] * w;
            d.2 += self.alpha.dz[i] * w;
        }
        d
    }

    /// Max-norm error reproducing the boundary conditions (should be ~0:
    /// RBF interpolation is exact at the data sites).
    pub fn boundary_residual(&self, d_b: &Displacements) -> f64 {
        let mut worst = 0.0_f64;
        for (i, p) in self.points.iter().enumerate() {
            let (dx, dy, dz) = self.displacement(p);
            worst = worst
                .max((dx - d_b.dx[i]).abs())
                .max((dy - d_b.dy[i]).abs())
                .max((dz - d_b.dz[i]).abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{virus_population, VirusConfig};

    fn small_cloud() -> Vec<Point3> {
        let cfg = VirusConfig { points_per_virus: 60, ..Default::default() };
        virus_population(2, &cfg, 11)
    }

    #[test]
    fn interpolation_exact_at_boundary() {
        let pts = small_cloud();
        let kernel = GaussianRbf::from_min_distance(&pts);
        let n = pts.len();
        // A smooth synthetic displacement field.
        let d_b = Displacements {
            dx: pts.iter().map(|p| (3.0 * p.x).sin() * 0.01).collect(),
            dy: pts.iter().map(|p| (2.0 * p.y).cos() * 0.01).collect(),
            dz: vec![0.0; n],
        };
        let interp = solve_dense(&pts, kernel, &d_b).unwrap();
        assert!(interp.boundary_residual(&d_b) < 1e-8);
    }

    #[test]
    fn rigid_translation_reproduced_near_boundary() {
        let pts = small_cloud();
        let kernel = GaussianRbf::from_min_distance(&pts);
        let d_b = Displacements::translation(pts.len(), 0.02, 0.0, -0.01);
        let interp = solve_dense(&pts, kernel, &d_b).unwrap();
        // at a boundary point, the displacement equals the translation
        let (dx, dy, dz) = interp.displacement(&pts[0]);
        assert!((dx - 0.02).abs() < 1e-8);
        assert!(dy.abs() < 1e-8);
        assert!((dz + 0.01).abs() < 1e-8);
    }

    #[test]
    fn displacement_decays_away_from_boundary() {
        // With the default (small) shape parameter, far from every
        // boundary node the interpolant must vanish.
        let pts = small_cloud();
        let kernel = GaussianRbf::from_min_distance(&pts);
        let d_b = Displacements::translation(pts.len(), 0.05, 0.0, 0.0);
        let interp = solve_dense(&pts, kernel, &d_b).unwrap();
        let far = Point3 { x: 0.999, y: 0.999, z: 0.001 };
        let min_dist = pts.iter().map(|p| p.dist(&far)).fold(f64::INFINITY, f64::min);
        assert!(min_dist > 10.0 * kernel.delta, "test point must be far");
        let (dx, _, _) = interp.displacement(&far);
        assert!(dx.abs() < 1e-10, "far displacement {dx}");
    }

    #[test]
    fn spd_failure_reported() {
        // Duplicate points make the Gaussian kernel matrix singular.
        let p = Point3 { x: 0.5, y: 0.5, z: 0.5 };
        let pts = vec![p, p, Point3 { x: 0.6, y: 0.5, z: 0.5 }];
        let kernel = GaussianRbf::new(0.1);
        let d_b = Displacements::zeros(3);
        assert!(solve_dense(&pts, kernel, &d_b).is_err());
    }
}
