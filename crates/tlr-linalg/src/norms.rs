//! Norms and error metrics used throughout the workspace.

use crate::matrix::Matrix;

/// Frobenius norm `‖A‖_F = sqrt(Σ a_ij²)`.
///
/// Accumulates with a scaling guard so very large tiles do not overflow.
pub fn frobenius_norm(a: &Matrix) -> f64 {
    let mut scale = 0.0_f64;
    let mut ssq = 1.0_f64;
    for &v in a.as_slice() {
        if v != 0.0 {
            let av = v.abs();
            if scale < av {
                ssq = 1.0 + ssq * (scale / av) * (scale / av);
                scale = av;
            } else {
                ssq += (av / scale) * (av / scale);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Frobenius norm of a raw slice (used for column norms in pivoted QR).
pub fn frobenius_norm_slice(x: &[f64]) -> f64 {
    let mut scale = 0.0_f64;
    let mut ssq = 1.0_f64;
    for &v in x {
        if v != 0.0 {
            let av = v.abs();
            if scale < av {
                ssq = 1.0 + ssq * (scale / av) * (scale / av);
                scale = av;
            } else {
                ssq += (av / scale) * (av / scale);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Relative Frobenius difference `‖A − B‖_F / max(‖B‖_F, tiny)`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn relative_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "relative_diff shape mismatch");
    let mut diff = a.clone();
    diff.axpy(-1.0, b);
    let denom = frobenius_norm(b).max(f64::MIN_POSITIVE);
    frobenius_norm(&diff) / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frobenius_of_identity() {
        let m = Matrix::identity(9);
        assert!((frobenius_norm(&m) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn frobenius_guards_overflow() {
        let m = Matrix::from_fn(2, 1, |_, _| 1e200);
        let n = frobenius_norm(&m);
        assert!(n.is_finite());
        assert!((n - 1e200 * 2.0_f64.sqrt()).abs() / n < 1e-14);
    }

    #[test]
    fn frobenius_zero_matrix() {
        let m = Matrix::zeros(5, 5);
        assert_eq!(frobenius_norm(&m), 0.0);
    }

    #[test]
    fn relative_diff_identical_is_zero() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * j) as f64);
        assert_eq!(relative_diff(&m, &m), 0.0);
    }

    #[test]
    fn slice_norm_matches_matrix_norm() {
        let m = Matrix::from_fn(6, 1, |i, _| i as f64 - 2.5);
        assert!((frobenius_norm_slice(m.as_slice()) - frobenius_norm(&m)).abs() < 1e-15);
    }
}
