//! Cholesky factorization (POTRF).
//!
//! [`potrf`] is the diagonal-tile kernel of the tile Cholesky algorithm; it
//! is blocked on top of [`potrf_unblocked`] with the update expressed as
//! TRSM + SYRK on views of the matrix, exactly mirroring LAPACK's `dpotrf`.
//! Like every tile kernel it is serial: its callers sit inside the task
//! graph (or are the dense reference), and a fork onto the rayon pool from
//! an engine worker would oversubscribe the executor.

use crate::blas3::{syrk_serial, trsm, Side, Trans, Uplo};
use crate::matrix::MatMut;

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CholeskyError {
    /// Zero-based index of the first non-positive pivot.
    pub pivot: usize,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite (pivot {} <= 0)", self.pivot)
    }
}

impl std::error::Error for CholeskyError {}

/// Block size of the blocked [`potrf`]. Tuned for L1-resident panels.
const NB: usize = 64;

/// Unblocked lower Cholesky: factor `A = L·Lᵀ` in place (lower triangle).
///
/// On success the lower triangle of `a` holds `L`; the strict upper
/// triangle is left untouched (callers that need a clean `L` can call
/// [`crate::Matrix::zero_upper`]). On `Err`, columns before `pivot` hold
/// their columns of `L` and the lower triangle from column `pivot` on is
/// unspecified.
///
/// Column form: column `j` receives `col_j[j..] −= a[j,p] · col_p[j..]` in
/// ascending `p`, then the pivot test, the square root and the division.
/// Every entry sees the subtractions, in the order, of the textbook dot
/// form `a[i,j] − Σ_p a[i,p]·a[j,p]`, so the factor has the same bits;
/// the loops run down contiguous columns instead of along rows.
pub fn potrf_unblocked<'a>(a: impl Into<MatMut<'a>>) -> Result<(), CholeskyError> {
    let mut a = a.into();
    assert_eq!(a.rows(), a.cols(), "potrf requires a square matrix");
    let n = a.rows();
    for j in 0..n {
        let (done, rest) = a.as_mut().split_at_col(j);
        let (done, mut rest) = (done.as_ref(), rest.subrows(j..n));
        let col = rest.col_mut(0);
        for p in 0..j {
            let w = done[(j, p)];
            for (ci, &lp) in col.iter_mut().zip(&done.col(p)[j..]) {
                *ci -= w * lp;
            }
        }
        let d = col[0];
        if d <= 0.0 || !d.is_finite() {
            return Err(CholeskyError { pivot: j });
        }
        let d = d.sqrt();
        col[0] = d;
        for v in &mut col[1..] {
            *v /= d;
        }
    }
    Ok(())
}

/// Blocked lower Cholesky factorization in place: `A = L·Lᵀ`.
///
/// Only the lower triangle is read and written. Errors report the global
/// index of the offending pivot.
pub fn potrf<'a>(a: impl Into<MatMut<'a>>) -> Result<(), CholeskyError> {
    let mut a = a.into();
    assert_eq!(a.rows(), a.cols(), "potrf requires a square matrix");
    let n = a.rows();
    if n <= NB {
        return potrf_unblocked(a);
    }
    let mut j = 0;
    while j < n {
        let (jb, rem) = (NB.min(n - j), n - j);
        // A[j.., j..] = [diag · ; panel trailing], cut at jb.
        let (left, right) = a.as_mut().block(j, j, rem, rem).split_at_col(jb);
        let (mut diag, mut panel) = left.split_at_row(jb);
        potrf_unblocked(diag.as_mut()).map_err(|e| CholeskyError { pivot: j + e.pivot })?;
        // panel := panel · L_diagᵀ⁻¹, then trailing -= panel · panelᵀ
        // (lower only); both are empty at the last step.
        trsm(Side::Right, Uplo::Lower, Trans::Yes, 1.0, diag.as_ref(), panel.as_mut());
        syrk_serial(Trans::No, -1.0, panel.as_ref(), 1.0, right.subrows(jb..rem));
        j += jb;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::matrix::Matrix;
    use crate::norms::{frobenius_norm, relative_diff};

    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = Matrix::identity(n);
        a.scale(n as f64);
        gemm(Trans::No, Trans::Yes, 1.0, &b, &b, 1.0, &mut a);
        a
    }

    fn check_reconstruction(a: &Matrix, l_full: &Matrix) {
        let mut l = l_full.clone();
        l.zero_upper();
        let mut recon = Matrix::zeros(a.rows(), a.cols());
        gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut recon);
        assert!(
            relative_diff(&recon, a) < 1e-12,
            "LLᵀ reconstruction error too large: {}",
            relative_diff(&recon, a)
        );
    }

    #[test]
    fn unblocked_reconstructs() {
        for n in [1, 2, 5, 17, 33] {
            let a = spd_matrix(n, 7 + n as u64);
            let mut l = a.clone();
            potrf_unblocked(&mut l).unwrap();
            check_reconstruction(&a, &l);
        }
    }

    #[test]
    fn blocked_reconstructs_and_matches_unblocked() {
        for n in [63, 64, 65, 130, 200] {
            let a = spd_matrix(n, n as u64);
            let mut l_blk = a.clone();
            potrf(&mut l_blk).unwrap();
            check_reconstruction(&a, &l_blk);
            let mut l_unb = a.clone();
            potrf_unblocked(&mut l_unb).unwrap();
            l_blk.zero_upper();
            l_unb.zero_upper();
            assert!(relative_diff(&l_blk, &l_unb) < 1e-12);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Matrix::identity(4);
        a[(2, 2)] = -1.0;
        let err = potrf(&mut a.clone()).unwrap_err();
        assert_eq!(err.pivot, 2);
        let err2 = potrf_unblocked(&mut a).unwrap_err();
        assert_eq!(err2.pivot, 2);
    }

    #[test]
    fn blocked_error_reports_global_pivot() {
        let n = 100;
        let mut a = spd_matrix(n, 3);
        a[(90, 90)] = -1e6; // poison a pivot inside a later block
        let err = potrf(&mut a).unwrap_err();
        assert_eq!(err.pivot, 90);
    }

    #[test]
    fn trsv_solves() {
        let n = 20;
        let a = spd_matrix(n, 5);
        let mut l = a.clone();
        potrf(&mut l).unwrap();
        l.zero_upper();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
        // b = L (Lᵀ x) = A x
        let b = a.matvec(&x_true);
        // a vector solve is TRSM on an n × 1 view
        let mut x = b;
        trsm(Side::Left, Uplo::Lower, Trans::No, 1.0, &l, MatMut::from_slice(&mut x, n, 1));
        trsm(Side::Left, Uplo::Lower, Trans::Yes, 1.0, &l, MatMut::from_slice(&mut x, n, 1));
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let scale = frobenius_norm(&a);
        assert!(err / scale < 1e-10, "solve error {err}");
    }

    #[test]
    fn one_by_one() {
        let mut a = Matrix::from_vec(1, 1, vec![9.0]);
        potrf(&mut a).unwrap();
        assert!((a[(0, 0)] - 3.0).abs() < 1e-15);
    }
}
