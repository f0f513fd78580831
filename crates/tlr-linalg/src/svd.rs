//! Singular value decomposition: pivoted-QR preconditioning, then
//! one-sided Jacobi rotations.
//!
//! TLR recompression no longer calls this module: it truncates its core
//! with the pivoted QR alone (`ColPivQr`, the rule tile compression
//! uses). What still does: the benchmark's `svd_ms` probe, which times
//! [`jacobi_svd`] on a recompression-shaped core; the SVD-optimal oracle
//! of the recompression tests (`tlr_compress::kernels::reference`),
//! which returns an [`Svd`] from a frozen plain-Jacobi loop of its own
//! and truncates it with [`Svd::rank_at_frobenius`]; the property test
//! that holds [`jacobi_svd_into`] to that loop; and the dense-layer
//! golden that pins its bits.
//!
//! The matrices it was built for are the `K × K` cores `R_u·R_vᵀ`
//! of TLR recompression (`K` = sum of the two tile ranks, a few dozen to
//! a few hundred). Their singular values are graded from `‖core‖` down
//! to rounding noise, and plain cyclic one-sided Jacobi needs many sweeps
//! on such a matrix (17 on average, measured on the 56-column cores of a
//! `b = 150`, `ε = 1e-8` factorization). The Drmač–Veselić remedy is to
//! factor `A·P = Q·R` with column pivoting first and iterate on `Rᵀ`,
//! whose columns are already nearly orthogonal and ordered by size: the
//! same rotations then converge in about 5 sweeps, and the QR costs a
//! fifth of one sweep. The left vectors come back as `Q·V'`, with `V'`
//! the accumulated rotations.
//!
//! The pivoted QR also makes truncation cheap. With an absolute `floor`
//! it stops at the `k' × n` block `R₁` whose unfactored remainder `R₂₂`
//! has `‖R₂₂‖_F ≤ floor`, and Jacobi runs on `k'` columns instead of
//! `min(m, n)`. `Q₁·R₁` and `Q₂·[0 R₂₂]` have orthogonal column spaces,
//! so truncating the SVD of `R₁` to `k` terms leaves
//! `‖A − U_k Σ_k V_kᵀ‖_F² = ‖R₂₂‖_F² + Σ_{j≥k} σ_j²`: [`Svd::discarded`]
//! carries the first term and [`Svd::rank_at_frobenius`] adds the second
//! to it, so a Frobenius budget is met with both parts counted.

use crate::matrix::Matrix;
use crate::norms::frobenius_norm_slice;
use crate::qr::{ColPivQr, ColPivScratch};

/// A thin SVD `A ≈ U · diag(s) · Vᵀ` with singular values sorted
/// descending. `U` is `m × k`, `V` is `n × k`, and `k ≤ min(m, n)` is
/// the number of columns the pivoted QR kept: all of them that are not
/// exactly zero for [`jacobi_svd`], fewer under a truncation floor.
pub struct Svd {
    /// Left singular vectors (`m × k`).
    pub u: Matrix,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors (`n × k`).
    pub v: Matrix,
    /// Frobenius norm of the part of the input cut off before the
    /// iteration: `‖A − U·diag(s)·Vᵀ‖_F`. Zero without a floor.
    pub discarded: f64,
}

impl Svd {
    /// An empty decomposition whose buffers grow on first use.
    pub fn empty() -> Self {
        Self { u: Matrix::zeros(0, 0), s: Vec::new(), v: Matrix::zeros(0, 0), discarded: 0.0 }
    }

    /// Number of singular values `≥ tol` (the numerical rank in the
    /// spectral sense).
    pub fn rank_at(&self, tol: f64) -> usize {
        self.s.iter().take_while(|&&sv| sv > tol).count()
    }

    /// Number of leading singular values needed so that the *Frobenius*
    /// norm of everything left out — the tail and [`Svd::discarded`] —
    /// is `≤ tol`. This is HiCMA's truncation criterion for TLR tiles.
    /// A non-finite decomposition keeps every column, so the poison
    /// reaches the caller's result instead of vanishing into a null tile.
    pub fn rank_at_frobenius(&self, tol: f64) -> usize {
        // tail²(k) = Σ_{j≥k} s_j²; find the smallest k with tail ≤ tol.
        // The tail is accumulated from the smallest value upward:
        // subtracting the large head terms from the grand total instead
        // cancels catastrophically and can leave an O(eps·s₁²) residue
        // that never dips below tol², spuriously retaining full rank.
        let tol2 = tol * tol;
        let mut tail2 = self.discarded * self.discarded;
        let mut k = self.s.len();
        while k > 0 {
            let next = tail2 + self.s[k - 1] * self.s[k - 1];
            if next > tol2 || next.is_nan() {
                break;
            }
            tail2 = next;
            k -= 1;
        }
        k
    }

    /// Reconstruct the (possibly truncated) product `U_k diag(s_k) V_kᵀ`.
    pub fn reconstruct(&self, k: usize) -> Matrix {
        let k = k.min(self.s.len());
        let m = self.u.rows();
        let n = self.v.rows();
        let mut out = Matrix::zeros(m, n);
        for p in 0..k {
            let sv = self.s[p];
            for j in 0..n {
                let w = sv * self.v[(j, p)];
                if w != 0.0 {
                    let ucol = self.u.col(p);
                    let ocol = out.col_mut(j);
                    for i in 0..m {
                        ocol[i] += w * ucol[i];
                    }
                }
            }
        }
        out
    }
}

/// Sweep limit of the Jacobi iteration. A finite input that is not
/// orthogonal to working precision by then is returned as it stands and
/// [`SvdWork::last_converged`] reads `false`; graded cores need about 5
/// sweeps, 8 at most in the test suite.
const MAX_SWEEPS: usize = 60;

/// Reusable scratch buffers for [`jacobi_svd_into`].
///
/// A workspace amortizes every allocation of the SVD across calls: the
/// pivoted-QR storage and its pivot/tau/norm vectors, the `Rᵀ` iterate,
/// the accumulated rotation matrix, and the norm/ordering scratch all
/// grow to a high-water mark and are then recycled. Together with a
/// reused [`Svd`] output this makes repeated small SVDs — the inner loop
/// of TLR recompression — allocation-free in steady state.
pub struct SvdWork {
    /// Storage of the pivoted QR (a copy of the input on entry).
    qr: Matrix,
    /// Pivot, tau and column-norm vectors of the pivoted QR.
    qr_scratch: ColPivScratch,
    /// The Jacobi iterate: `R_kᵀ` on entry, `U_w·diag(s)` on exit.
    w: Matrix,
    /// Accumulated Jacobi rotations (right singular vectors of `w`).
    v: Matrix,
    /// Column norms of the rotated `w` (the unsorted singular values).
    norms: Vec<f64>,
    /// Permutation sorting the singular values descending.
    order: Vec<usize>,
    /// Cached squared column norms maintained across rotations within a
    /// sweep (Rutishauser update), refreshed exactly at each sweep start.
    colsq: Vec<f64>,
    /// Sweeps the last call made.
    sweeps: usize,
    /// Whether the last call ended on a sweep without rotations.
    converged: bool,
}

impl Default for SvdWork {
    fn default() -> Self {
        Self::new()
    }
}

impl SvdWork {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            qr: Matrix::zeros(0, 0),
            qr_scratch: ColPivScratch::default(),
            w: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
            norms: Vec::new(),
            order: Vec::new(),
            colsq: Vec::new(),
            sweeps: 0,
            converged: true,
        }
    }

    /// Total `f64`-equivalent elements retained across the workspace's
    /// buffers — the footprint an arena reports as its high-water mark.
    pub fn retained_len(&self) -> usize {
        self.qr.as_slice().len()
            + self.qr_scratch.retained_len()
            + self.w.as_slice().len()
            + self.v.as_slice().len()
            + self.norms.capacity()
            + self.order.capacity()
            + self.colsq.capacity()
    }

    /// Jacobi sweeps of the last [`jacobi_svd_into`] call through this
    /// workspace, the final rotation-free one included (0 when the call
    /// returned before iterating).
    pub fn last_sweeps(&self) -> usize {
        self.sweeps
    }

    /// `false` when the last call gave up: non-finite input, or
    /// `MAX_SWEEPS` sweeps that all still rotated.
    pub fn last_converged(&self) -> bool {
        self.converged
    }
}

/// Compute the thin SVD of `a`.
///
/// Convenience wrapper over [`jacobi_svd_into`] with no truncation floor
/// that allocates fresh output and workspace; hot paths should hold both
/// across calls.
pub fn jacobi_svd(a: &Matrix) -> Svd {
    let mut out = Svd::empty();
    let mut work = SvdWork::new();
    jacobi_svd_into(a, 0.0, &mut out, &mut work);
    out
}

/// `Σ xᵢ·yᵢ` over eight independent accumulators. A single running sum
/// is a serial dependency chain the compiler may not reorder; eight of
/// them are plain lane-wise arithmetic it can keep in vector registers.
#[inline]
fn dot(x: &[f64], y: &[f64]) -> f64 {
    const LANES: usize = 8;
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0; LANES];
    let (xc, yc) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
    let mut tail = 0.0;
    for (xi, yi) in xc.remainder().iter().zip(yc.remainder()) {
        tail += xi * yi;
    }
    for (xs, ys) in xc.zip(yc) {
        for l in 0..LANES {
            acc[l] += xs[l] * ys[l];
        }
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// `(x, y) := (c·x − s·y, s·x + c·y)` element-wise.
#[inline]
fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let (xp, yq) = (*xi, *yi);
        *xi = c * xp - s * yq;
        *yi = s * xp + c * yq;
    }
}

/// SVD of `a` into a caller-held [`Svd`] using caller-held scratch — no
/// allocation once the buffers have grown to size.
///
/// Column-pivoted QR `a·P = Q·R` runs until the unfactored block has
/// Frobenius norm `≤ floor` (`floor = 0` keeps every column that is not
/// exactly zero); what it leaves is reported as [`Svd::discarded`].
/// Cyclic one-sided Jacobi then orthogonalizes the columns of `R_kᵀ`,
/// and the factors of `a` are `U = Q_k·V'` and `V = P·U_w`. See the
/// module docs for why, and for the error identity.
///
/// Non-finite input returns at once with every output entry `NaN`
/// ([`SvdWork::last_converged`] reads `false`): rotations of a `NaN`
/// Gram matrix never settle, and a decomposition that looked finite
/// would hide the poison from the caller.
///
/// Equal singular values keep the order of their columns (the sort
/// compares the index after the norm), so the result does not depend on
/// the sorting algorithm.
pub fn jacobi_svd_into(a: &Matrix, floor: f64, out: &mut Svd, work: &mut SvdWork) {
    let m = a.rows();
    let n = a.cols();
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        let k = m.min(n);
        work.sweeps = 0;
        work.converged = false;
        out.u.reset(m, k);
        out.u.as_mut_slice().fill(f64::NAN);
        out.v.reset(n, k);
        out.v.as_mut_slice().fill(f64::NAN);
        out.s.clear();
        out.s.resize(k, f64::NAN);
        out.discarded = f64::NAN;
        return;
    }

    let mut storage = std::mem::replace(&mut work.qr, Matrix::zeros(0, 0));
    storage.reset(m, n);
    storage.as_mut_slice().copy_from_slice(a.as_slice());
    let mut qr = ColPivQr::unfactored_in(storage, std::mem::take(&mut work.qr_scratch));
    qr.advance(floor, usize::MAX);
    let k = qr.rank();
    out.discarded = qr.trailing_norm();

    // The iterate: w = R_kᵀ (n × k), lower-trapezoidal on entry.
    let w = &mut work.w;
    qr.rt_into(w);
    let v = &mut work.v;
    v.reset(k, k);
    for j in 0..k {
        v[(j, j)] = 1.0;
    }
    // A pair counts as orthogonal when its cosine is below the rounding
    // error of the length-`n` dot product that measures it. A threshold
    // of one ulp regardless of length sits inside that error: a pair can
    // then read as not orthogonal after every rotation and the iteration
    // never ends (seen on a 13 × 13 core of the `fine-tiles` benchmark
    // workload, which ran to the sweep limit on one pair).
    let tol = f64::EPSILON * (n as f64).sqrt();

    // Squared column norms are cached and kept current with the exact
    // Rutishauser identities `‖w_p'‖² = app − t·apq`, `‖w_q'‖² = aqq +
    // t·apq` instead of being recomputed per pair — that turns the
    // dominant pair scan from three length-`n` dot products into one.
    // The cache is refreshed from the actual columns at every sweep
    // start, which bounds the floating-point drift of the update chain
    // to a single sweep.
    let colsq = &mut work.colsq;
    let mut converged = k < 2;
    let mut sweeps = 0;
    while !converged && sweeps < MAX_SWEEPS {
        sweeps += 1;
        colsq.clear();
        colsq.extend((0..k).map(|j| dot(w.col(j), w.col(j))));
        converged = true;
        for p in 0..k - 1 {
            for q in p + 1..k {
                let app = colsq[p];
                let aqq = colsq[q];
                let apq = dot(w.col(p), w.col(q));
                if apq.abs() <= tol * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                converged = false;
                // Classic Jacobi rotation annihilating the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let (wp, wq) = w.two_cols_mut(p, q);
                rotate(wp, wq, c, s);
                let (vp, vq) = v.two_cols_mut(p, q);
                rotate(vp, vq, c, s);
                colsq[p] = (app - t * apq).max(0.0);
                colsq[q] = aqq + t * apq;
            }
        }
    }
    work.sweeps = sweeps;
    work.converged = converged;
    debug_assert!(converged, "Jacobi SVD did not converge in {MAX_SWEEPS} sweeps");

    // Extract singular values and sort them. Use the unstable sort: the
    // stable one allocates a merge buffer, which would defeat the
    // steady-state zero-allocation contract.
    let norms = &mut work.norms;
    norms.clear();
    norms.extend((0..k).map(|j| frobenius_norm_slice(w.col(j))));
    let order = &mut work.order;
    order.clear();
    order.extend(0..k);
    order.sort_unstable_by(|&i, &j| norms[j].total_cmp(&norms[i]).then(i.cmp(&j)));

    // R_kᵀ = U_w·diag(s)·V'ᵀ with U_w the normalized columns of w, so
    // a = Q_k·R_k·Pᵀ = (Q_k·V')·diag(s)·(P·U_w)ᵀ.
    let perm = qr.perm();
    out.u.reset(m, k);
    out.v.reset(n, k);
    out.s.clear();
    for (dst, &src) in order.iter().enumerate() {
        let sv = norms[src];
        out.s.push(sv);
        if sv > 0.0 {
            let vc = out.v.col_mut(dst);
            for (&orig, wi) in perm.iter().zip(w.col(src)) {
                vc[orig] = wi / sv;
            }
        }
        out.u.col_mut(dst)[..k].copy_from_slice(v.col(src));
    }
    qr.apply_q_in_place(&mut out.u);
    (work.qr, work.qr_scratch) = qr.into_parts();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm, Trans};
    use crate::norms::{frobenius_norm, relative_diff};

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(r, c, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn reconstructs_square() {
        let a = rand_mat(10, 10, 1);
        let svd = jacobi_svd(&a);
        let recon = svd.reconstruct(10);
        assert!(relative_diff(&recon, &a) < 1e-12);
    }

    #[test]
    fn reconstructs_tall_and_wide() {
        let a = rand_mat(14, 6, 2);
        let svd = jacobi_svd(&a);
        assert_eq!(svd.u.cols(), 6);
        assert!(relative_diff(&svd.reconstruct(6), &a) < 1e-12);

        let b = rand_mat(5, 12, 3);
        let svd_b = jacobi_svd(&b);
        assert_eq!(svd_b.s.len(), 5);
        assert!(relative_diff(&svd_b.reconstruct(5), &b) < 1e-12);
    }

    #[test]
    fn singular_values_sorted_and_match_known() {
        // diag(3, 1, 2) has singular values (3, 2, 1)
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let svd = jacobi_svd(&a);
        assert!((svd.s[0] - 3.0).abs() < 1e-12);
        assert!((svd.s[1] - 2.0).abs() < 1e-12);
        assert!((svd.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn u_and_v_orthonormal() {
        let a = rand_mat(12, 7, 4);
        let svd = jacobi_svd(&a);
        let mut utu = Matrix::zeros(7, 7);
        gemm(Trans::Yes, Trans::No, 1.0, &svd.u, &svd.u, 0.0, &mut utu);
        assert!(relative_diff(&utu, &Matrix::identity(7)) < 1e-12);
        let mut vtv = Matrix::zeros(7, 7);
        gemm(Trans::Yes, Trans::No, 1.0, &svd.v, &svd.v, 0.0, &mut vtv);
        assert!(relative_diff(&vtv, &Matrix::identity(7)) < 1e-12);
    }

    #[test]
    fn truncation_error_equals_tail() {
        // Construct known singular spectrum via diag.
        let n = 8;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.0_f64.powi(-(i as i32));
        }
        let svd = jacobi_svd(&a);
        let k = 4;
        let recon = svd.reconstruct(k);
        let mut diff = recon.clone();
        diff.axpy(-1.0, &a);
        let err = frobenius_norm(&diff);
        let tail: f64 = svd.s[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((err - tail).abs() < 1e-12);
    }

    #[test]
    fn rank_at_frobenius_criterion() {
        let n = 6;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 10.0_f64.powi(-(i as i32)); // 1, .1, .01, ...
        }
        let svd = jacobi_svd(&a);
        // tail after keeping k=2: sqrt(1e-4+1e-6+...) ≈ 1.005e-2
        assert_eq!(svd.rank_at_frobenius(2e-2), 2);
        assert_eq!(svd.rank_at_frobenius(2.0), 0);
        assert_eq!(svd.rank_at_frobenius(0.0), n);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(5, 3);
        let svd = jacobi_svd(&a);
        assert!(svd.s.iter().all(|&s| s == 0.0));
        assert_eq!(svd.rank_at(1e-300), 0);
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(4, 0);
        let svd = jacobi_svd(&a);
        assert!(svd.s.is_empty());
    }

    #[test]
    fn svd_into_reuses_buffers_across_shapes() {
        // One output + one workspace across tall, wide, and square inputs
        // of varying size; every call must match the one-shot API exactly.
        let mut out = Svd::empty();
        let mut work = SvdWork::new();
        for (m, n, seed) in [(12, 5, 31), (3, 11, 32), (8, 8, 33), (15, 2, 34), (0, 4, 35)] {
            let a = rand_mat(m, n, seed);
            jacobi_svd_into(&a, 0.0, &mut out, &mut work);
            let fresh = jacobi_svd(&a);
            assert_eq!(out.s, fresh.s, "{m}x{n}");
            assert_eq!(out.u.as_slice(), fresh.u.as_slice(), "{m}x{n}");
            assert_eq!(out.v.as_slice(), fresh.v.as_slice(), "{m}x{n}");
            let k = m.min(n);
            assert!(relative_diff(&out.reconstruct(k), &a) < 1e-12 || m == 0 || n == 0);
        }
    }

    /// A `120 × 120` recompression core the way the TLR GEMM builds it:
    /// two rank-60 tiles of a Gaussian kernel between neighbouring point
    /// clusters, factors stacked, `R_u·R_vᵀ` of their QRs. Its singular
    /// values fall from `‖core‖` to rounding noise.
    fn graded_core(width_a: f64, width_b: f64, gap: f64) -> Matrix {
        use crate::qr::{ColPivQr, Qr};
        let (b, k) = (200, 60);
        let halton = |mut i: usize, base: usize| {
            let (mut f, mut r) = (1.0, 0.0);
            i += 1;
            while i > 0 {
                f /= base as f64;
                r += f * (i % base) as f64;
                i /= base;
            }
            r
        };
        let factors = |shift: f64, width: f64| {
            let tile = Matrix::from_fn(b, b, |i, j| {
                let dx = halton(i, 2) - (halton(j + 1000, 2) + 1.02 + shift);
                let dy = halton(i, 3) - halton(j + 1000, 3);
                (-(dx * dx + dy * dy) / (width * width)).exp()
            });
            let f = ColPivQr::with_tolerance(tile, 1e-9, k);
            (f.q_thin(), f.r_unpermuted().transpose())
        };
        let (u1, v1) = factors(0.0, width_a);
        let (u2, v2) = factors(gap, width_b);
        let stack = |x: &Matrix, y: &Matrix| {
            let mut s = Matrix::zeros(b, 2 * k);
            s.set_submatrix(0, 0, x);
            s.set_submatrix(0, k, y);
            Qr::new(s).r()
        };
        let mut core = Matrix::zeros(2 * k, 2 * k);
        gemm(Trans::No, Trans::Yes, 1.0, &stack(&u1, &u2), &stack(&v1, &v2), 0.0, &mut core);
        core
    }

    /// Regression: plain cyclic Jacobi needed more than 17 sweeps on a
    /// graded core; preconditioned by the pivoted QR it needs at most 8.
    #[test]
    fn graded_core_converges_in_few_sweeps() {
        let mut out = Svd::empty();
        let mut work = SvdWork::new();
        for (wa, wb, gap) in [(0.5, 0.5, 0.05), (0.15, 0.25, 0.0)] {
            let core = graded_core(wa, wb, gap);
            jacobi_svd_into(&core, 0.0, &mut out, &mut work);
            assert!(out.s[0] / out.s[out.s.len() - 1] > 1e16, "core is not graded: {:?}", out.s);
            assert!(work.last_converged());
            assert!(work.last_sweeps() <= 8, "{} sweeps", work.last_sweeps());
            assert!(relative_diff(&out.reconstruct(out.s.len()), &core) < 1e-13);
        }
    }

    /// With a floor the QR cuts the core before Jacobi sees it; what was
    /// cut plus the truncated tail is the whole error, so a rank chosen
    /// by `rank_at_frobenius` meets its budget with nothing left over.
    #[test]
    fn floor_and_tail_add_up_to_the_truncation_error() {
        let core = graded_core(0.3, 0.35, 0.1);
        let mut out = Svd::empty();
        let mut work = SvdWork::new();
        let err = |svd: &Svd, k: usize| {
            let mut diff = svd.reconstruct(k);
            diff.axpy(-1.0, &core);
            frobenius_norm(&diff)
        };
        for accuracy in [1e-4, 1e-6, 1e-8] {
            let floor = accuracy / 100.0;
            jacobi_svd_into(&core, floor, &mut out, &mut work);
            let kept = out.s.len();
            assert!(kept < 120, "the floor must cut columns");
            assert!(out.discarded > 0.0 && out.discarded <= floor);
            // All kept terms: the error is what the QR discarded.
            let slack = 1e-14 * out.s[0];
            assert!((err(&out, kept) - out.discarded).abs() <= slack);
            // Truncated: discarded² + tail² exactly, and within budget.
            let k = out.rank_at_frobenius(accuracy);
            assert!(k > 0 && k <= kept);
            let tail2: f64 = out.s[k..].iter().map(|s| s * s).sum();
            let predicted = (out.discarded * out.discarded + tail2).sqrt();
            assert!((err(&out, k) - predicted).abs() <= slack);
            assert!(err(&out, k) <= accuracy + slack, "accuracy {accuracy}: {}", err(&out, k));
            // The same rank the full decomposition picks.
            assert_eq!(k, jacobi_svd(&core).rank_at_frobenius(accuracy));
        }
    }

    /// A non-finite entry ends the call before any sweep, and nothing in
    /// the result looks like a decomposition of a finite matrix.
    #[test]
    fn non_finite_input_returns_at_once_and_stays_poisoned() {
        let mut out = Svd::empty();
        let mut work = SvdWork::new();
        for poison in [f64::NAN, f64::INFINITY] {
            let mut a = rand_mat(9, 6, 41);
            a[(4, 2)] = poison;
            jacobi_svd_into(&a, 1e-9, &mut out, &mut work);
            assert_eq!(work.last_sweeps(), 0);
            assert!(!work.last_converged());
            assert_eq!((out.u.rows(), out.u.cols(), out.v.rows(), out.v.cols()), (9, 6, 6, 6));
            assert!(out.s.iter().chain(out.u.as_slice()).chain(out.v.as_slice()).all(|x| x.is_nan()));
            // Truncation must not turn the poison into a null tile.
            assert_eq!(out.rank_at_frobenius(1e-3), 6);
        }
        // The workspace is fine afterwards.
        let a = rand_mat(9, 6, 42);
        jacobi_svd_into(&a, 0.0, &mut out, &mut work);
        assert!(work.last_converged() && work.last_sweeps() > 0);
        assert!(relative_diff(&out.reconstruct(6), &a) < 1e-12);
    }

    /// Regression: a `13 × 13` core met in a `b = 64`, `ε = 1e-6`
    /// factorization (bit patterns below, column-major). Under a
    /// threshold of one ulp one pair of its columns read as not yet
    /// orthogonal after every rotation — the dot product that measures
    /// the pair cannot be that exact — and the call ran all 60 sweeps.
    #[test]
    fn rounding_level_pair_does_not_stall_the_iteration() {
        #[rustfmt::skip]
        const BITS: [u64; 169] = [
            0xbf569e1b857b05bd, 0xbf40e5bb27779831, 0xbf3d5e87bc1def89, 0xbf244c35b10cf6a0,
            0x3f130936b4e2e8e0, 0x3ef8d55df2497aa6, 0xbef1ee39d11563cf, 0x3ee3ebc76f2a8857,
            0xbed49c422a89ce2c, 0x3e899e2290a71561, 0x3e82114ba3600ee6, 0x3e846d0f0cedd28f,
            0xbe76eb95df481aa0, 0xbbe4cf6802a51618, 0x3f3708775534d6e1, 0x3ef067222cc69b54,
            0x3f21e0b2b8317841, 0xbefa98b3f7d33a68, 0xbef4e7936d341cad, 0x3ee5789c118cd548,
            0x3ea57d0e1274acc7, 0x3ed65bedb38a7ef2, 0x3e96d338a901cbaf, 0xbe85973748b8c0a7,
            0xbe7f1e44c4a9e84b, 0x3e67403da98aa9fc, 0xbb9659886d5dd8a1, 0x3bbb618a341c4fff,
            0xbf0c4d148b17978d, 0x3f244c91eb2c9d8b, 0x3f19b36578125f85, 0x3efcc6802bfd172f,
            0xbef84a394efc0095, 0xbec1a616d7c0fd6b, 0x3eaf89310840b522, 0x3e82ec4182884228,
            0x3e92d77d0944bd89, 0x3e8df1da25ced9f7, 0xbe74f6dc4ca4a1b6, 0xbb6a1141a29686f5,
            0x3ba13e820b8e3a25, 0xbb96549d21675255, 0x3f0dea27bdb795df, 0x3eff4639c23152d3,
            0xbee20eede3bc405c, 0x3ed559693e611c39, 0x3ea2beb28b26a615, 0x3ec7eb9d71c440bd,
            0x3ea79cf09102f607, 0xbe7cde82ccfa7103, 0xbe8171c436178362, 0x3e241b12a48e3165,
            0x3b6a19493b4b8ead, 0xbb413497f94dc59c, 0xbb738ddf063863fe, 0x3b865ea225638bf6,
            0x3ec72fafae041519, 0x3ecf7a09c059e5a1, 0x3ec717febb130e32, 0x3e78695bd13e22c2,
            0x3e87f9e3ff735496, 0x3e914caea078951b, 0xbe6413fba95ee1ed, 0xbe7bdb01acbf42b9,
            0xbe516196818b0b3e, 0xbb5f374cee821842, 0xbb52654ec4ecf897, 0x3b76407929bd8396,
            0xbb76d42647bd2526, 0x3b50ca5fe9053eeb, 0xbedd2e2755b265fb, 0x3eb8418443fe004f,
            0x3ea79634f10a9e92, 0x3eae6c94f0c6239b, 0x3e91a3e35cf15827, 0xbe7523178cb6d3dc,
            0xbe70ef642cc993b5, 0xbe47e636f44a57bc, 0x3b363d7cdb8d1364, 0xbb2593a000545cd9,
            0x3b42a299faad3a52, 0x3b506ee9cca7d0e7, 0x3b4213aecedb290e, 0x3b6fb4d21db7dc47,
            0x3ea2c38e472daeeb, 0x3e71d354507d129c, 0x3e80050f05282fe6, 0x3e693be97f1048b6,
            0xbe576c3db5257511, 0x3e2bc7ebdb841855, 0x3e2f054c35fa0cd2, 0x3aa728b191510082,
            0xba6fcf1a17269846, 0xbaf943838bcaa601, 0xbaec1b06d0b4b9d9, 0xbaf55730fd19a774,
            0xbaf82bcbc390d532, 0x3aa74205a69a715e, 0x3e46310945bad466, 0x3e6b66ba65160357,
            0x3e52a404aa41600a, 0xbe554320cb3dd622, 0xbe58af6011aff116, 0xbe2a68007f6cfef6,
            0x3a9193e1f9117978, 0xba7dc5757baba598, 0xbad5e57e6bb6511c, 0xbac14ebf036636ea,
            0xbad329d5b3f088ef, 0xbad3082b56b9f47f, 0x3a9f48abddfe276d, 0x3ae367fb4cc358f7,
            0x3e40e9f25a2083a3, 0x3e200dbda285da50, 0xbe1fe8411dec8c91, 0xbe368f29bfbb84d8,
            0xbe0350145a678090, 0x3a4c86481ca19f75, 0x3a3041f7e5938ad1, 0xba557403137f5f2c,
            0xba36833864933687, 0xba5941b289b29675, 0x3a432e49ae92391c, 0xba580f6dc24a37f5,
            0x3a82694ec9b49a1a, 0x3a87af1f19aecfec, 0xbdd93583b2bd2087, 0xbde24fcc5c2577f2,
            0xbdf153df84bf3443, 0xbdb96e193e4ce8e9, 0x3a05e700a401c65a, 0xba236f003333bc38,
            0x3a60d5b8e5dab275, 0xb9ecc9677e130ee8, 0xba38716654e9971e, 0x3a3ff501569b0a8c,
            0x3a65a6db76934ae7, 0x3a25bd71ae4f58a8, 0x3a6008fa4ed9da4e, 0xba82ce3a22660236,
            0xbdf097b1765287d1, 0xbdf28bc99b2eec12, 0x3da424fcf1f5d512, 0x3a22182e99f5c2bb,
            0x3a3e5302cc4551c6, 0xba3504e8b5971c68, 0xba1efe7974f3fbce, 0xba2a801d887c1152,
            0xba37d3f99a66b989, 0xba6d959a19075a21, 0xba85a6650f612904, 0xba679eba8f60d382,
            0x3a8297290c87dbe8, 0xbac4edcfc9daf3e4, 0x3df87e3849df0e7c, 0x3dc9419883d2e970,
            0xb98604e1be3fae91, 0x39c5080a042697ef, 0xb9da7602ddbea73a, 0xb9b41be02fcd65be,
            0x39ef450e9894362e, 0x39e1f818c39c0ce5, 0x39d74e45eeac21ac, 0x3a2d8f7935c37a2b,
            0x39f71dd91840c192, 0xba16de674384c37d, 0x3a21ffc999ae5603, 0x3a077e2ca9c0f5e0,
            0xbd75e637bbc3f3f8,
        ];
        let core = Matrix::from_vec(13, 13, BITS.iter().map(|&b| f64::from_bits(b)).collect());
        let mut out = Svd::empty();
        let mut work = SvdWork::new();
        jacobi_svd_into(&core, 1e-8, &mut out, &mut work);
        assert!(work.last_converged());
        assert!(work.last_sweeps() <= 6, "{} sweeps", work.last_sweeps());
    }
}
