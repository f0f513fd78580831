//! Radial kernels, their kernel matrices, and the block-level view of
//! those matrices that tile assembly consumes.
//!
//! §IV-C: the paper uses the global-support Gaussian `φ(r) = exp(−r²)`,
//! scaled by a shape parameter `δ`: `φ_δ(r) = φ(r/δ)`, with the default
//! `δ = ½ · min‖x − x_bᵢ‖`. A small `δ` makes correlations die off within
//! a few neighbor distances (sparse compressed operator, well
//! conditioned); a large `δ` couples the whole domain (dense operator,
//! ill conditioned) — the entire §VIII-B study is a sweep of this knob.
//!
//! Every kernel here is a [`RadialKernel`]: a function of the distance
//! alone that dies off monotonically. One generic [`KernelSource`] turns
//! any of them plus a point cloud into the matrix `TlrMatrix` assembles,
//! evaluates that matrix a tile at a time, and bounds a whole tile from
//! the bounding boxes of its two index ranges — which is how assembly
//! skips the tiles that hold nothing.

use crate::exp::{exp, EXP_DEFECT};
use crate::geometry::{min_positive_distance, Point3};
use std::ops::{Deref, Range};
use std::sync::OnceLock;
use tlr_linalg::{Matrix, TileSource};

/// A kernel that depends on the distance between two points only, taken
/// as its square `r2 = r²`: a Gaussian needs no square root, the others
/// take it inside.
pub trait RadialKernel: Copy + Sync {
    /// The kernel at squared distance `r2 ≥ 0`.
    fn eval(&self, r2: f64) -> f64;

    /// The matrix diagonal (the value at `r = 0` plus any nugget).
    fn diagonal(&self) -> f64;

    /// A non-increasing function of `r2` that no later value of the kernel
    /// exceeds: `|eval(r2')| ≤ tail_bound(r2)` for every `r2' ≥ r2`, both
    /// as computed, up to a relative `1e-12`. For a kernel that decays
    /// monotonically this is `|eval(r2)|` itself. Return `∞` (or NaN) when
    /// the parameters give no such bound — a tile is then never skipped.
    fn tail_bound(&self, r2: f64) -> f64;
}

/// Kernel-matrix entry for points `i`, `j` of `points`: the kernel's
/// diagonal value at `i == j`, the kernel at their distance otherwise.
/// [`KernelSource::block`] computes every entry of a tile with the same
/// operations, so the two agree bit for bit.
#[inline]
fn matrix_entry<K: RadialKernel>(kernel: &K, points: &[Point3], i: usize, j: usize) -> f64 {
    if i == j {
        kernel.diagonal()
    } else {
        kernel.eval(points[i].dist2(&points[j]))
    }
}

/// The kernel matrix of `kernel` over `points` as a [`TileSource`].
pub fn kernel_source<'a, K: RadialKernel + 'a>(
    kernel: K,
    points: &'a [Point3],
) -> KernelSource<'a, K, impl Fn(usize, usize) -> f64 + Sync + 'a> {
    let entry = move |i: usize, j: usize| matrix_entry(&kernel, points, i, j);
    KernelSource { kernel, points, entry, boxes: OnceLock::new() }
}

/// The inherent `matrix_entry` / `generator` pair of a concrete kernel, so
/// that callers need not import [`RadialKernel`].
macro_rules! kernel_matrix_api {
    ($($kernel:ty),*) => {$(
        impl $kernel {
            /// Kernel-matrix entry for points `i`, `j` of `points` (with
            /// the nugget on the diagonal).
            #[inline]
            pub fn matrix_entry(&self, points: &[Point3], i: usize, j: usize) -> f64 {
                matrix_entry(self, points, i, j)
            }

            /// The kernel matrix over `points` for
            /// `TlrMatrix::from_generator`: callable as `gen(i, j)`, and a
            /// [`TileSource`] whose tile bounds let assembly skip the
            /// tiles that are provably null (see [`KernelSource`]).
            pub fn generator<'a>(
                &self,
                points: &'a [Point3],
            ) -> KernelSource<'a, Self, impl Fn(usize, usize) -> f64 + Sync + 'a> {
                kernel_source(*self, points)
            }
        }
    )*};
}
kernel_matrix_api!(GaussianRbf, WendlandRbf, MaternKernel);

/// Axis-aligned bounding box of a set of points.
#[derive(Debug, Clone, Copy)]
struct BBox {
    lo: [f64; 3],
    hi: [f64; 3],
}

impl BBox {
    fn of(points: &[Point3]) -> BBox {
        let mut b = BBox { lo: [f64::INFINITY; 3], hi: [f64::NEG_INFINITY; 3] };
        for p in points {
            for (k, v) in [p.x, p.y, p.z].into_iter().enumerate() {
                b.lo[k] = b.lo[k].min(v);
                b.hi[k] = b.hi[k].max(v);
            }
        }
        b
    }

    /// Squared distance between the two boxes, `0` when they touch or
    /// overlap: no point of one is closer than this to a point of the
    /// other.
    fn gap2(&self, other: &BBox) -> f64 {
        let mut sum = 0.0;
        for k in 0..3 {
            let d = (self.lo[k] - other.hi[k]).max(other.lo[k] - self.hi[k]).max(0.0);
            sum += d * d;
        }
        sum
    }
}

/// One bounding box per tile of a tiling of the cloud.
struct TileBoxes {
    tile: usize,
    boxes: Vec<BBox>,
}

impl TileBoxes {
    fn box_of(&self, points: &[Point3], range: &Range<usize>) -> BBox {
        let tiled = range.start.is_multiple_of(self.tile)
            && range.end == points.len().min(range.start + self.tile);
        if tiled {
            self.boxes[range.start / self.tile]
        } else {
            BBox::of(&points[range.clone()])
        }
    }
}

/// What the computed squared gap is scaled by before the kernel's tail is
/// taken at it. The squared gap and a pair's `r²` are each three
/// differences, three squares and two sums of non-negative terms, so each
/// is within a factor `(1 ± 2⁻⁵³)⁵` of exact; the exact squared gap is at
/// most the exact `r²`; and the scaling rounds once more. As
/// `(1 + 2⁻⁵³)⁶ / (1 − 2⁻⁵³)⁵ < 1 / GAP_SHRINK`, the scaled squared gap is
/// below every computed `r²` of the tile.
const GAP_SHRINK: f64 = 1.0 - 16.0 * f64::EPSILON;
/// Squared gaps below this are taken as `0`. Above it, a square that
/// underflowed adds an absolute error far below the relative margin of
/// [`GAP_SHRINK`].
const MIN_GAP2: f64 = 1e-300;
/// Head-room for [`RadialKernel::tail_bound`]'s own rounding (its
/// contract, `1e-12`, and that of the product below) and for the
/// kernels' `exp`, which is monotone only up to [`EXP_DEFECT`].
const TAIL_SLACK: f64 = 1.0 + 2e-12 + EXP_DEFECT;

/// The kernel matrix `A[i][j] = φ(‖xᵢ − xⱼ‖)` of a [`RadialKernel`] over a
/// point cloud.
///
/// It is two things at once. It dereferences to its entry closure, so
/// `let gen = kernel.generator(&points); gen(i, j)` evaluates an entry
/// exactly as the closure `generator` used to return (stable Rust cannot
/// implement `Fn` for a struct; call syntax auto-derefs). And it is a
/// [`TileSource`] that evaluates a tile as a block — squared distances a
/// column at a time, then the kernel over the column in one loop the
/// compiler vectorizes, the lower half of a diagonal tile mirrored — and
/// bounds a tile without evaluating it:
/// `‖A[rows, cols]‖_F ≤ √(rows·cols) · φ(gap)`, where `gap` is the distance
/// between the bounding boxes of the two index ranges. The boxes of the
/// tiling are computed once, in one `O(n)` pass at the first bound asked
/// for, and kept in `O(nt)` storage. On a Hilbert-sorted cloud the boxes
/// are tight and most far tiles are certified null; on an unsorted cloud
/// they overlap, the gap is `0`, and nothing is skipped.
pub struct KernelSource<'a, K, F> {
    kernel: K,
    points: &'a [Point3],
    entry: F,
    /// Boxes of the tiling whose tile size is the length of the first
    /// column range bounded (`None`: some coordinate is not finite, so
    /// nothing can be bounded). Ranges that are not tiles of it are boxed
    /// on the spot.
    boxes: OnceLock<Option<TileBoxes>>,
}

impl<K, F> Deref for KernelSource<'_, K, F> {
    type Target = F;

    #[inline]
    fn deref(&self) -> &F {
        &self.entry
    }
}

impl<K, F> TileSource for KernelSource<'_, K, F>
where
    K: RadialKernel,
    F: Fn(usize, usize) -> f64 + Sync,
{
    #[inline]
    fn entry(&self, i: usize, j: usize) -> f64 {
        (self.entry)(i, j)
    }

    fn block(&self, rows: Range<usize>, cols: Range<usize>) -> Matrix {
        let kernel = self.kernel;
        let tile = &self.points[rows.clone()];
        let coordinate = |axis: fn(&Point3) -> f64| tile.iter().map(axis).collect::<Vec<_>>();
        let (xs, ys, zs) = (coordinate(|p| p.x), coordinate(|p| p.y), coordinate(|p| p.z));
        // A diagonal tile evaluates its lower half and mirrors it: `r²`
        // is symmetric to the bit, because `xⱼ − xᵢ = −(xᵢ − xⱼ)` exactly.
        let mirrored = rows == cols;
        let mut out = Matrix::zeros(rows.len(), cols.len());
        for (bj, j) in cols.enumerate() {
            let top = if mirrored { bj } else { 0 };
            let column = &mut out.col_mut(bj)[top..];
            let (xs, ys, zs) = (&xs[top..], &ys[top..], &zs[top..]);
            let p = self.points[j];
            // The operations of `Point3::dist2`, in its order.
            for (i, r2) in column.iter_mut().enumerate() {
                let (dx, dy, dz) = (xs[i] - p.x, ys[i] - p.y, zs[i] - p.z);
                *r2 = dx * dx + dy * dy + dz * dz;
            }
            for v in column.iter_mut() {
                *v = kernel.eval(*v);
            }
            if rows.contains(&j) {
                out[(j - rows.start, bj)] = kernel.diagonal();
            }
        }
        if mirrored {
            out.symmetrize_from_lower();
        }
        out
    }

    fn norm_bound(&self, rows: Range<usize>, cols: Range<usize>) -> f64 {
        let points = self.points;
        let tiling = self.boxes.get_or_init(|| {
            let finite = |p: &Point3| p.x.is_finite() && p.y.is_finite() && p.z.is_finite();
            let tile = cols.len().max(1);
            points.iter().all(finite).then(|| TileBoxes {
                tile,
                boxes: points.chunks(tile).map(BBox::of).collect(),
            })
        });
        let Some(tiling) = tiling else { return f64::INFINITY };
        let gap2 = tiling.box_of(points, &rows).gap2(&tiling.box_of(points, &cols));
        let gap2 = if gap2 >= MIN_GAP2 { gap2 * GAP_SHRINK } else { 0.0 };
        let mut largest = self.kernel.tail_bound(gap2);
        if rows.start < cols.end && cols.start < rows.end {
            // The block holds diagonal entries.
            largest = largest.max(self.kernel.diagonal().abs());
        }
        // `MIN_POSITIVE` covers a tail that underflowed to a subnormal,
        // where one ulp is no longer relatively small.
        ((rows.len() * cols.len()) as f64).sqrt() * (largest * TAIL_SLACK + f64::MIN_POSITIVE)
    }
}

/// A scaled Gaussian RBF kernel.
#[derive(Debug, Clone, Copy)]
pub struct GaussianRbf {
    /// Shape parameter δ (cube-edge units).
    pub delta: f64,
    /// Diagonal regularization ("nugget") added at `r = 0`; keeps the
    /// factorization comfortably positive definite at large δ. 0 disables.
    pub nugget: f64,
}

impl GaussianRbf {
    /// Kernel with an explicit shape parameter, no nugget.
    pub fn new(delta: f64) -> Self {
        Self { delta, nugget: 0.0 }
    }

    /// The paper's default: `δ = ½ · min‖xᵢ − xⱼ‖` over the point cloud,
    /// the minimum taken over distinct positions (duplicated points do
    /// not count).
    ///
    /// # Panics
    /// When all points coincide: the cloud has no spacing to scale by.
    pub fn from_min_distance(points: &[Point3]) -> Self {
        Self::new(0.5 * spacing(points))
    }

    /// Evaluate `φ_δ(r) = exp(−(r/δ)²)` at distance `r`.
    #[inline]
    pub fn eval(&self, r: f64) -> f64 {
        RadialKernel::eval(self, r * r)
    }
}

impl RadialKernel for GaussianRbf {
    /// `exp(r² · c)` with `c = −1/δ²`: a product with a constant, which
    /// rounds monotonically, then the exponential.
    #[inline]
    fn eval(&self, r2: f64) -> f64 {
        exp(r2 * (-1.0 / (self.delta * self.delta)))
    }

    #[inline]
    fn diagonal(&self) -> f64 {
        1.0 + self.nugget
    }

    fn tail_bound(&self, r2: f64) -> f64 {
        decaying(self.delta, RadialKernel::eval(self, r2))
    }
}

/// The smallest distance between two distinct positions of `points`.
fn spacing(points: &[Point3]) -> f64 {
    min_positive_distance(points).expect("a shape parameter needs two distinct points")
}

/// `|tail|` when the kernel's length `scale` is positive, which is what
/// makes the three kernels here decay monotonically; `∞` otherwise.
fn decaying(scale: f64, tail: f64) -> f64 {
    if scale > 0.0 {
        tail.abs()
    } else {
        f64::INFINITY
    }
}

/// The C² Wendland compact-support RBF `ψ(r) = (1 − r)⁴·(4r + 1)` for
/// `r < 1`, **exactly zero** beyond the support radius.
///
/// §IV-C contrasts the two RBF families: global support (Gaussian)
/// couples everything and produces a dense operator; compact support
/// produces exact zeros outside the radius — a *genuinely sparse*
/// operator before any compression. Wendland's ψ₃,₁ is positive definite
/// in 3D, so the Cholesky path applies unchanged. This is the substrate
/// for the sparse end of the paper's data-structure spectrum
/// ("from dense and data-sparse to sparse").
#[derive(Debug, Clone, Copy)]
pub struct WendlandRbf {
    /// Support radius ρ (cube-edge units); `ψ(r/ρ)` vanishes at `r ≥ ρ`.
    pub radius: f64,
    /// Diagonal regularization, as in [`GaussianRbf`].
    pub nugget: f64,
}

impl WendlandRbf {
    /// Kernel with the given support radius, no nugget.
    pub fn new(radius: f64) -> Self {
        Self { radius, nugget: 0.0 }
    }

    /// Support radius as a multiple of the minimum spacing between
    /// distinct positions (compact-support practice: a handful of
    /// neighbor shells).
    ///
    /// # Panics
    /// When all points coincide.
    pub fn from_min_distance(points: &[Point3], shells: f64) -> Self {
        Self::new(shells * spacing(points))
    }

    /// Evaluate `ψ₃,₁(r/ρ)` at distance `r`; exactly 0 for `r ≥ ρ`.
    #[inline]
    pub fn eval(&self, r: f64) -> f64 {
        RadialKernel::eval(self, r * r)
    }
}

impl RadialKernel for WendlandRbf {
    #[inline]
    fn eval(&self, r2: f64) -> f64 {
        let s = r2.sqrt() / self.radius;
        if s >= 1.0 {
            0.0
        } else {
            let t = 1.0 - s;
            let t2 = t * t;
            t2 * t2 * (4.0 * s + 1.0)
        }
    }

    #[inline]
    fn diagonal(&self) -> f64 {
        1.0 + self.nugget
    }

    fn tail_bound(&self, r2: f64) -> f64 {
        decaying(self.radius, RadialKernel::eval(self, r2))
    }
}

/// Matérn smoothness parameter (the half-integer cases with closed
/// forms — the ones used in practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaternNu {
    /// ν = 1/2: the exponential covariance `exp(−r/ℓ)`.
    Half,
    /// ν = 3/2: `(1 + √3·r/ℓ)·exp(−√3·r/ℓ)`.
    ThreeHalves,
    /// ν = 5/2: `(1 + √5·r/ℓ + 5r²/3ℓ²)·exp(−√5·r/ℓ)`.
    FiveHalves,
}

/// The Matérn covariance family — the kernel of the paper's predecessor
/// applications (refs. 8–9 of the paper: climate/weather geostatistics), provided so
/// the same TLR Cholesky stack serves the spatial-statistics workload
/// the HiCMA line of work was originally built for.
#[derive(Debug, Clone, Copy)]
pub struct MaternKernel {
    /// Correlation length ℓ (cube-edge units).
    pub length: f64,
    /// Smoothness ν.
    pub nu: MaternNu,
    /// Marginal variance σ² (diagonal value before the nugget).
    pub sigma2: f64,
    /// Nugget added on the diagonal.
    pub nugget: f64,
}

impl MaternKernel {
    /// Matérn-ν kernel with unit variance and a conditioning nugget.
    pub fn new(length: f64, nu: MaternNu) -> Self {
        Self { length, nu, sigma2: 1.0, nugget: 1e-6 }
    }

    /// Evaluate the covariance at distance `r`.
    #[inline]
    pub fn eval(&self, r: f64) -> f64 {
        RadialKernel::eval(self, r * r)
    }
}

impl RadialKernel for MaternKernel {
    #[inline]
    fn eval(&self, r2: f64) -> f64 {
        let s = r2.sqrt() / self.length;
        self.sigma2
            * match self.nu {
                MaternNu::Half => exp(-s),
                MaternNu::ThreeHalves => {
                    let t = 3f64.sqrt() * s;
                    (1.0 + t) * exp(-t)
                }
                MaternNu::FiveHalves => {
                    let t = 5f64.sqrt() * s;
                    (1.0 + t + t * t / 3.0) * exp(-t)
                }
            }
    }

    #[inline]
    fn diagonal(&self) -> f64 {
        self.sigma2 + self.nugget
    }

    fn tail_bound(&self, r2: f64) -> f64 {
        decaying(self.length, RadialKernel::eval(self, r2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{virus_population, VirusConfig};

    #[test]
    fn eval_basics() {
        let k = GaussianRbf::new(0.1);
        assert_eq!(k.eval(0.0), 1.0);
        assert!((k.eval(0.1) - (-1.0_f64).exp()).abs() < 1e-15);
        assert!(k.eval(1.0) < 1e-40, "far values vanish");
    }

    #[test]
    fn shape_parameter_controls_decay() {
        let sharp = GaussianRbf::new(0.01);
        let smooth = GaussianRbf::new(0.1);
        let r = 0.05;
        assert!(sharp.eval(r) < smooth.eval(r));
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diag() {
        let cfg = VirusConfig { points_per_virus: 50, ..Default::default() };
        let pts = virus_population(2, &cfg, 3);
        let k = GaussianRbf::from_min_distance(&pts);
        assert!(k.delta > 0.0);
        for i in (0..pts.len()).step_by(13) {
            assert_eq!(k.matrix_entry(&pts, i, i), 1.0);
            for j in (0..pts.len()).step_by(7) {
                let a = k.matrix_entry(&pts, i, j);
                let b = k.matrix_entry(&pts, j, i);
                assert_eq!(a, b);
                assert!((0.0..=1.0).contains(&a));
            }
        }
    }

    #[test]
    fn default_delta_gives_diagonally_dominant_like_matrix() {
        // δ = ½·min distance ⇒ off-diagonal entries ≤ e^{−4} ≈ 0.018:
        // strongly diagonally concentrated, hence comfortably SPD.
        let cfg = VirusConfig { points_per_virus: 60, ..Default::default() };
        let pts = virus_population(1, &cfg, 9);
        let k = GaussianRbf::from_min_distance(&pts);
        let mut max_off = 0.0_f64;
        for i in 0..pts.len() {
            for j in 0..i {
                max_off = max_off.max(k.matrix_entry(&pts, i, j));
            }
        }
        assert!(max_off <= (-4.0_f64).exp() + 1e-12, "max off-diag {max_off}");
    }

    #[test]
    fn matern_closed_forms() {
        let m12 = MaternKernel::new(0.5, MaternNu::Half);
        assert!((m12.eval(0.5) - (-1.0f64).exp()).abs() < 1e-15);
        let m32 = MaternKernel::new(1.0, MaternNu::ThreeHalves);
        let t = 3f64.sqrt();
        assert!((m32.eval(1.0) - (1.0 + t) * (-t).exp()).abs() < 1e-15);
        let m52 = MaternKernel::new(1.0, MaternNu::FiveHalves);
        let t5 = 5f64.sqrt();
        assert!((m52.eval(1.0) - (1.0 + t5 + t5 * t5 / 3.0) * (-t5).exp()).abs() < 1e-15);
        // all are 1 at the origin with unit variance
        for k in [m12, m32, m52] {
            assert!((k.eval(0.0) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn matern_smoothness_orders_tails() {
        // at moderate distance the smoother kernels keep more correlation
        let r = 1.0;
        let ell = 1.0;
        let half = MaternKernel::new(ell, MaternNu::Half).eval(r);
        let three = MaternKernel::new(ell, MaternNu::ThreeHalves).eval(r);
        let five = MaternKernel::new(ell, MaternNu::FiveHalves).eval(r);
        assert!(half < three && three < five, "{half} {three} {five}");
    }

    #[test]
    fn matern_matrix_spd() {
        let cfg = VirusConfig { points_per_virus: 50, ..Default::default() };
        let pts = virus_population(2, &cfg, 41);
        let k = MaternKernel::new(0.05, MaternNu::ThreeHalves);
        let n = pts.len();
        let a = tlr_linalg::Matrix::from_fn(n, n, |i, j| k.matrix_entry(&pts, i, j));
        let mut l = a.clone();
        assert!(tlr_linalg::potrf(&mut l).is_ok(), "Matérn covariance must be SPD");
    }

    #[test]
    fn wendland_exact_zero_outside_support() {
        let k = WendlandRbf::new(0.1);
        assert_eq!(k.eval(0.0), 1.0);
        assert_eq!(k.eval(0.1), 0.0);
        assert_eq!(k.eval(0.5), 0.0);
        assert!(k.eval(0.05) > 0.0 && k.eval(0.05) < 1.0);
    }

    #[test]
    fn wendland_is_smooth_and_monotone_decreasing() {
        let k = WendlandRbf::new(1.0);
        let mut prev = k.eval(0.0);
        for i in 1..=100 {
            let v = k.eval(i as f64 / 100.0);
            assert!(v <= prev + 1e-15, "must decrease");
            prev = v;
        }
        // ψ(1⁻) → 0 continuously
        assert!(k.eval(0.999) < 1e-8);
    }

    #[test]
    fn wendland_matrix_spd_at_moderate_radius() {
        // Positive definiteness check via dense Cholesky.
        let cfg = VirusConfig { points_per_virus: 60, ..Default::default() };
        let pts = virus_population(2, &cfg, 31);
        let k = WendlandRbf::from_min_distance(&pts, 3.0);
        let n = pts.len();
        let a = tlr_linalg::Matrix::from_fn(n, n, |i, j| k.matrix_entry(&pts, i, j));
        let mut l = a.clone();
        assert!(tlr_linalg::potrf(&mut l).is_ok(), "Wendland matrix must be SPD");
    }

    #[test]
    fn wendland_sparser_than_gaussian() {
        let cfg = VirusConfig { points_per_virus: 50, ..Default::default() };
        let pts = virus_population(3, &cfg, 37);
        let w = WendlandRbf::from_min_distance(&pts, 3.0);
        let g = GaussianRbf::from_min_distance(&pts);
        let n = pts.len();
        let zeros = |f: &dyn Fn(usize, usize) -> f64| -> usize {
            let mut z = 0;
            for i in 0..n {
                for j in 0..i {
                    if f(i, j) == 0.0 {
                        z += 1;
                    }
                }
            }
            z
        };
        let wg = w.generator(&pts);
        let gg = g.generator(&pts);
        let zw = zeros(&|i, j| wg(i, j));
        let zg = zeros(&|i, j| gg(i, j));
        assert!(zw > zg, "Wendland must have exact zeros: {zw} vs {zg}");
        assert!(zw > n * (n - 1) / 4, "most entries vanish at 3 shells");
    }

    #[test]
    fn duplicate_points_do_not_set_the_shape_parameter() {
        let cfg = VirusConfig { points_per_virus: 60, ..Default::default() };
        let mut pts = virus_population(2, &cfg, 5);
        let clean = GaussianRbf::from_min_distance(&pts);
        pts.push(pts[17]);
        let k = GaussianRbf::from_min_distance(&pts);
        assert_eq!(k.delta, clean.delta, "a copy of a point is not a spacing");
        let n = pts.len();
        // The duplicate pair is fully correlated, and nothing is NaN.
        assert_eq!(k.matrix_entry(&pts, 17, n - 1), 1.0);
        for i in 0..n {
            assert!(k.matrix_entry(&pts, i, n - 1).is_finite());
        }
        assert_eq!(WendlandRbf::from_min_distance(&pts, 3.0).radius, 6.0 * clean.delta);
    }

    #[test]
    #[should_panic(expected = "two distinct points")]
    fn coincident_cloud_has_no_shape_parameter() {
        GaussianRbf::from_min_distance(&[Point3 { x: 0.5, y: 0.5, z: 0.5 }; 3]);
    }

    #[test]
    fn generator_is_callable_and_a_tile_source() {
        let cfg = VirusConfig { points_per_virus: 64, ..Default::default() };
        let raw = virus_population(3, &cfg, 21);
        let pts = crate::hilbert::apply_permutation(&raw, &crate::hilbert_sort(&raw));
        let k = GaussianRbf { delta: 0.01, nugget: 1e-8 };
        let gen = k.generator(&pts);
        // Call syntax, trait method and the kernel's own entry agree bitwise.
        for (i, j) in [(0, 0), (5, 3), (100, 7), (191, 190)] {
            assert_eq!(gen(i, j), k.matrix_entry(&pts, i, j));
            assert_eq!(gen.entry(i, j), k.matrix_entry(&pts, i, j));
        }
        // Whatever the ranges — tiles of the first tiling asked for, the
        // ragged rest, ranges across tile borders, a diagonal block — the
        // bound dominates the block.
        let ranges = [0..64, 64..128, 128..192, 10..50, 60..70, 190..192];
        let mut separated = 0;
        for rows in &ranges {
            for cols in &ranges {
                let bound = gen.norm_bound(rows.clone(), cols.clone());
                let norm = tlr_linalg::frobenius_norm(&gen.block(rows.clone(), cols.clone()));
                assert!(bound >= norm, "{rows:?} x {cols:?}: {bound:e} < {norm:e}");
                separated += usize::from(bound < 1e-6);
            }
        }
        assert!(separated > 0, "distinct viruses are far apart at this δ");
    }

    /// Every entry of `source.block(rows, cols)` is `source.entry(i, j)`
    /// to the bit, and `norm_bound` dominates the block's norm.
    fn check_blocks<K: RadialKernel + std::fmt::Debug>(
        kernel: K,
        points: &[Point3],
        ranges: &[Range<usize>],
    ) {
        let source = kernel_source(kernel, points);
        for rows in ranges {
            for cols in ranges {
                let block = source.block(rows.clone(), cols.clone());
                for (bj, j) in cols.clone().enumerate() {
                    for (bi, i) in rows.clone().enumerate() {
                        assert_eq!(
                            block[(bi, bj)].to_bits(),
                            source.entry(i, j).to_bits(),
                            "{kernel:?}: entry ({i}, {j}) of {rows:?} x {cols:?}"
                        );
                    }
                }
                let bound = source.norm_bound(rows.clone(), cols.clone());
                let norm = tlr_linalg::frobenius_norm(&block);
                assert!(bound >= norm, "{kernel:?}: {rows:?} x {cols:?}: {bound:e} < {norm:e}");
            }
        }
    }

    #[test]
    fn blocks_are_their_entries_bit_for_bit() {
        let cfg = VirusConfig { points_per_virus: 70, ..Default::default() };
        let raw = virus_population(3, &cfg, 17);
        let mut pts = crate::hilbert::apply_permutation(&raw, &crate::hilbert_sort(&raw));
        let h = spacing(&pts);
        // Duplicated points: within the first diagonal tile, and tiles apart.
        pts[21] = pts[20];
        pts[100] = pts[37];
        // The tiling (b = 64, the first column range bounded) with its
        // ragged last tile, ranges across tile borders, a range holding
        // the whole cloud, and single points.
        let ranges =
            [0..64, 64..128, 128..192, 192..210, 10..50, 60..70, 50..130, 0..210, 37..38, 100..101];
        for scale in [0.5, 4.0] {
            check_blocks(GaussianRbf { delta: scale * h, nugget: 1e-8 }, &pts, &ranges);
            check_blocks(WendlandRbf { radius: 6.0 * scale * h, nugget: 1e-6 }, &pts, &ranges);
            for nu in [MaternNu::Half, MaternNu::ThreeHalves, MaternNu::FiveHalves] {
                check_blocks(MaternKernel::new(scale * h, nu), &pts, &ranges);
            }
        }
        // The duplicates are at r² = 0 off the diagonal.
        let g = GaussianRbf { delta: h, nugget: 0.5 }.generator(&pts);
        assert_eq!(g.block(0..64, 0..64)[(21, 20)], 1.0);
        assert_eq!(g.block(64..128, 0..64)[(36, 37)], 1.0);
        assert_eq!(g.block(0..64, 0..64)[(20, 20)], 1.5);
    }

    #[test]
    fn nugget_applies_on_diagonal_only() {
        let k = GaussianRbf { delta: 0.1, nugget: 0.5 };
        let pts = vec![
            Point3 { x: 0.0, y: 0.0, z: 0.0 },
            Point3 { x: 0.05, y: 0.0, z: 0.0 },
        ];
        assert_eq!(k.matrix_entry(&pts, 0, 0), 1.5);
        assert!(k.matrix_entry(&pts, 0, 1) < 1.0);
    }
}
