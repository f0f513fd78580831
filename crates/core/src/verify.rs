//! Numerical validation helpers.
//!
//! These back the accuracy claims: a TLR factorization at threshold ε must
//! reproduce the operator to `O(ε · NT)` in the Frobenius norm, and the
//! solve phase must deliver the displacement accuracy the application
//! (§IV-C) asked for. Only used at validation scale (dense
//! materialization is `O(N²)`).

use tlr_compress::TlrMatrix;
use tlr_linalg::{frobenius_norm, gemm, Matrix, Trans};

/// Relative factorization residual `‖A − L·Lᵀ‖_F / ‖A‖_F`, with `A` the
/// original dense operator and `l` the TLR-factored matrix.
pub fn factorization_residual(a: &Matrix, l: &TlrMatrix) -> f64 {
    let ld = l.to_dense_lower();
    let mut recon = Matrix::zeros(a.rows(), a.cols());
    gemm(Trans::No, Trans::Yes, 1.0, &ld, &ld, 0.0, &mut recon);
    recon.axpy(-1.0, a);
    frobenius_norm(&recon) / frobenius_norm(a).max(f64::MIN_POSITIVE)
}

/// Relative solve residual `‖A·x − b‖₂ / ‖b‖₂`.
pub fn solve_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x);
    let mut num = 0.0;
    let mut den = 0.0;
    for (axi, bi) in ax.iter().zip(b) {
        num += (axi - bi) * (axi - bi);
        den += bi * bi;
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::{factorize, FactorConfig};
    use crate::solve::solve_tlr;
    use tlr_compress::{CompressionConfig, TlrMatrix};

    fn gaussian_dense(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64) / (n as f64 / 8.0);
            let v = (-d * d).exp();
            if i == j {
                v + 1e-3
            } else {
                v
            }
        })
    }

    #[test]
    fn residual_scales_with_accuracy() {
        let n = 96;
        let dense = gaussian_dense(n);
        let mut residuals = Vec::new();
        for acc in [1e-3, 1e-6, 1e-9] {
            let mut m = TlrMatrix::from_dense(&dense, 24, &CompressionConfig::with_accuracy(acc));
            factorize(&mut m, &FactorConfig::with_accuracy(acc)).unwrap();
            residuals.push(factorization_residual(&dense, &m));
        }
        assert!(residuals[0] > residuals[1] && residuals[1] > residuals[2],
            "residuals must shrink with accuracy: {residuals:?}");
        assert!(residuals[2] < 1e-8);
    }

    #[test]
    fn solve_residual_near_zero_for_exact() {
        let n = 80;
        let dense = gaussian_dense(n);
        let acc = 1e-10;
        let mut m = TlrMatrix::from_dense(&dense, 20, &CompressionConfig::with_accuracy(acc));
        factorize(&mut m, &FactorConfig::with_accuracy(acc)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut x = b.clone();
        solve_tlr(&m, &mut x);
        assert!(solve_residual(&dense, &x, &b) < 1e-7);
    }
}
