//! Singular value decomposition: plain cyclic one-sided Jacobi.
//!
//! No factorization calls this module. Tile compression and TLR
//! recompression both truncate with the pivoted QR alone (`ColPivQr`).
//! [`jacobi_svd`] is the SVD-optimal oracle they are measured against:
//! `tlr_compress::kernels::reference` truncates it with
//! [`Svd::rank_at_frobenius`], the recompression tests and the
//! `gemm_recompress` bench's `rank_ref` compare with that, the
//! benchmark's `svd_ms` probe times it on a recompression-shaped core,
//! and a dense-layer golden pins its bits.

use crate::matrix::Matrix;
use crate::norms::frobenius_norm_slice;

/// A thin SVD `A ≈ U · diag(s) · Vᵀ` with singular values sorted
/// descending. `U` is `m × k` and `V` is `n × k`, `k = min(m, n)`.
pub struct Svd {
    /// Left singular vectors (`m × k`).
    pub u: Matrix,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors (`n × k`).
    pub v: Matrix,
}

impl Svd {
    /// Number of leading singular values needed so that the *Frobenius*
    /// norm of the tail left out is `≤ tol`. This is HiCMA's truncation
    /// criterion for TLR tiles. A non-finite decomposition keeps every
    /// column, so the poison reaches the caller's result instead of
    /// vanishing into a null tile.
    pub fn rank_at_frobenius(&self, tol: f64) -> usize {
        // tail²(k) = Σ_{j≥k} s_j²; find the smallest k with tail ≤ tol.
        // The tail is accumulated from the smallest value upward:
        // subtracting the large head terms from the grand total instead
        // cancels catastrophically and can leave an O(eps·s₁²) residue
        // that never dips below tol², spuriously retaining full rank.
        let tol2 = tol * tol;
        let mut tail2 = 0.0;
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

/// Compute the thin SVD of `a` by cyclic one-sided Jacobi rotations on
/// its columns (on those of `aᵀ` when `a` is wide), at most 60 sweeps.
/// A pair counts as orthogonal when its cosine is below one ulp.
///
/// Non-finite input returns before the sweeps with every entry of `u`,
/// `s` and `v` `NaN`: rotations of a `NaN` Gram matrix never settle, and
/// a decomposition that looked finite would hide the poison from the
/// caller.
///
/// Equal singular values keep the order of their columns (the sort is
/// stable).
pub fn jacobi_svd(a: &Matrix) -> Svd {
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        let k = a.rows().min(a.cols());
        return Svd {
            u: Matrix::from_fn(a.rows(), k, |_, _| f64::NAN),
            s: vec![f64::NAN; k],
            v: Matrix::from_fn(a.cols(), k, |_, _| f64::NAN),
        };
    }
    if a.rows() < a.cols() {
        let t = jacobi_svd(&a.transpose());
        return Svd { u: t.v, s: t.s, v: t.u };
    }
    let m = a.rows();
    let n = a.cols();
    if n == 0 {
        return Svd { u: Matrix::zeros(m, 0), s: vec![], v: Matrix::zeros(0, 0) };
    }
    let mut w = a.clone();
    let mut v = Matrix::identity(n);
    let eps = f64::EPSILON;

    const MAX_SWEEPS: usize = 60;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n.saturating_sub(1) {
            for q in p + 1..n {
                let (app, aqq, apq) = {
                    let cp = w.col(p);
                    let cq = w.col(q);
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for i in 0..m {
                        app += cp[i] * cp[i];
                        aqq += cq[i] * cq[i];
                        apq += cp[i] * cq[i];
                    }
                    (app, aqq, apq)
                };
                if apq.abs() <= eps * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                rotated = true;
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                {
                    let (cp, cq) = w.two_cols_mut(p, q);
                    for i in 0..m {
                        let wp = cp[i];
                        let wq = cq[i];
                        cp[i] = c * wp - s * wq;
                        cq[i] = s * wp + c * wq;
                    }
                }
                {
                    let (vp, vq) = v.two_cols_mut(p, q);
                    for i in 0..n {
                        let xp = vp[i];
                        let xq = vq[i];
                        vp[i] = c * xp - s * xq;
                        vq[i] = s * xp + c * xq;
                    }
                }
            }
        }
        if !rotated {
            break;
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|j| frobenius_norm_slice(w.col(j)))
        .collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

    let mut u = Matrix::zeros(m, n);
    let mut vv = Matrix::zeros(n, n);
    let mut s = Vec::with_capacity(n);
    for (dst, &src) in order.iter().enumerate() {
        let sv = norms[src];
        s.push(sv);
        if sv > 0.0 {
            let wc = w.col(src);
            let uc = u.col_mut(dst);
            for i in 0..m {
                uc[i] = wc[i] / sv;
            }
        }
        let vc = v.col(src);
        let vvc = vv.col_mut(dst);
        vvc.copy_from_slice(vc);
    }
    Svd { u, s, v: vv }
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
        assert_eq!(svd.rank_at_frobenius(0.0), 0);
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(4, 0);
        let svd = jacobi_svd(&a);
        assert!(svd.s.is_empty());
    }

    /// A non-finite entry ends the call before any sweep, and nothing in
    /// the result looks like a decomposition of a finite matrix.
    #[test]
    fn non_finite_input_returns_at_once_and_stays_poisoned() {
        for poison in [f64::NAN, f64::INFINITY] {
            for (m, n) in [(9, 6), (6, 9)] {
                let mut a = rand_mat(m, n, 41);
                a[(4, 2)] = poison;
                let svd = jacobi_svd(&a);
                assert_eq!((svd.u.rows(), svd.u.cols(), svd.v.rows(), svd.v.cols()), (m, 6, n, 6));
                assert!(svd.s.iter().chain(svd.u.as_slice()).chain(svd.v.as_slice()).all(|x| x.is_nan()));
                // Truncation must not turn the poison into a null tile.
                assert_eq!(svd.rank_at_frobenius(1e-3), 6);
            }
        }
    }
}
