//! Triangular solves on a TLR-factored matrix, and symmetric TLR
//! matrix–vector products.
//!
//! After [`crate::factorize()`] the matrix holds `L` tile-by-tile (dense on
//! the diagonal, TLR/null off it). The solve sweeps tiles block-wise over
//! row-block views of the right-hand sides, in place: forward substitution
//! panel by panel, then the transposed backward sweep. Low-rank tiles
//! apply as two skinny products `U·(Vᵀ·X)` — the `O(b·k)` saving that
//! makes the TLR solve cheap — and null tiles are skipped untouched.

use tlr_compress::{Tile, TlrMatrix};
use tlr_linalg::{gemm_serial, trsm, MatMut, MatRef, Matrix, Side, Trans, Uplo};

/// `Y += alpha · op(T) · X` for one tile against a block of right-hand
/// sides (`X: cols × nrhs`, `Y: rows × nrhs` of `op(T)`) — BLAS-3 shaped,
/// so a solve amortizes tile traversal over all RHS (mesh deformation
/// always has three: the displacement components). `s` is the caller's
/// scratch for the `k × nrhs` inner product of a low-rank tile.
fn tile_apply(trans: Trans, t: &Tile, alpha: f64, x: MatRef<'_>, y: MatMut<'_>, s: &mut Matrix) {
    match t {
        Tile::Dense(m) => gemm_serial(trans, Trans::No, alpha, m, x, 1.0, y),
        Tile::LowRank { u, v } => {
            // T = U·Vᵀ and Tᵀ = V·Uᵀ: Y += alpha · L · (Rᵀ X)
            let (l, r) = match trans {
                Trans::No => (u, v),
                Trans::Yes => (v, u),
            };
            s.reset(r.cols(), x.cols());
            gemm_serial(Trans::Yes, Trans::No, 1.0, r, x, 0.0, &mut *s);
            gemm_serial(Trans::No, Trans::No, alpha, l, &*s, 1.0, y);
        }
        Tile::Null { .. } => {}
    }
}

/// Symmetric matrix–vector product `y = A·x` using the lower TLR storage
/// (the upper triangle is applied as the transpose of the lower).
pub fn tlr_matvec(a: &TlrMatrix, x: &[f64]) -> Vec<f64> {
    let n = a.n();
    assert_eq!(x.len(), n, "dimension mismatch");
    let rows = |i: usize| i * a.tile_size()..i * a.tile_size() + a.tile_rows(i);
    let x = MatRef::from_slice(x, n, 1);
    let mut out = vec![0.0; n];
    let mut y = MatMut::from_slice(&mut out, n, 1);
    let mut s = Matrix::zeros(0, 0);
    for i in 0..a.nt() {
        for j in 0..=i {
            let t = a.tile(i, j);
            tile_apply(Trans::No, t, 1.0, x.subrows(rows(j)), y.as_mut().subrows(rows(i)), &mut s);
            if i != j {
                // mirrored upper block (j, i) = tileᵀ
                let (xi, yj) = (x.subrows(rows(i)), y.as_mut().subrows(rows(j)));
                tile_apply(Trans::Yes, t, 1.0, xi, yj, &mut s);
            }
        }
    }
    out
}

/// Solve `L·Lᵀ·x = b` in place given the factored matrix; `rhs` holds `b`
/// on entry and `x` on exit. The one-column case of [`solve_tlr_multi`].
pub fn solve_tlr(l: &TlrMatrix, rhs: &mut [f64]) {
    assert_eq!(rhs.len(), l.n(), "dimension mismatch");
    solve_in_place(l, MatMut::from_slice(rhs, l.n(), 1));
}

/// Solve `L·Lᵀ·X = B` in place for a block of right-hand sides
/// (`rhs: n × nrhs`, column-major); the application's three displacement
/// components share one traversal.
pub fn solve_tlr_multi(l: &TlrMatrix, rhs: &mut Matrix) {
    assert_eq!(rhs.rows(), l.n(), "dimension mismatch");
    solve_in_place(l, rhs.as_mut());
}

/// The forward and backward sweeps over row blocks of `rhs`.
fn solve_in_place(l: &TlrMatrix, mut rhs: MatMut<'_>) {
    let (b, nt) = (l.tile_size(), l.nt());
    let diag = |i: usize| match l.tile(i, i) {
        Tile::Dense(m) => m,
        _ => panic!("factored diagonal tiles must be dense"),
    };
    let mut s = Matrix::zeros(0, 0);
    // Forward: L·Y = B — block i loses the already-solved blocks above it.
    for i in 0..nt {
        let (above, rest) = rhs.as_mut().split_at_row(i * b);
        let mut xi = rest.subrows(0..l.tile_rows(i));
        for j in 0..i {
            let xj = above.as_ref().subrows(j * b..(j + 1) * b);
            tile_apply(Trans::No, l.tile(i, j), -1.0, xj, xi.as_mut(), &mut s);
        }
        trsm(Side::Left, Uplo::Lower, Trans::No, 1.0, diag(i), xi);
    }
    // Backward: Lᵀ·X = Y — block i loses L(m,i)ᵀ · x_m for the blocks
    // below it (which start at row (i+1)·b: only the last block is ragged).
    for i in (0..nt).rev() {
        let (rest, below) = rhs.as_mut().split_at_row(i * b + l.tile_rows(i));
        let mut xi = rest.subrows(i * b..i * b + l.tile_rows(i));
        for m in i + 1..nt {
            let r0 = (m - i - 1) * b;
            let xm = below.as_ref().subrows(r0..r0 + l.tile_rows(m));
            tile_apply(Trans::Yes, l.tile(m, i), -1.0, xm, xi.as_mut(), &mut s);
        }
        trsm(Side::Left, Uplo::Lower, Trans::Yes, 1.0, diag(i), xi);
    }
}

/// Solve `A·x = b` by iterative refinement: the TLR factorization at a
/// loose threshold acts as a preconditioner and each sweep recovers
/// roughly `−log₁₀(ε·κ)` digits, so a cheap `ε = 1e-4` factorization
/// (the paper's default threshold) can still deliver near-machine
/// accuracy. This is the standard practice that makes loose TLR
/// thresholds usable for solves, not just for the factorization itself.
///
/// `a` is the unfactored TLR operator, `l` its factorization, `rhs`
/// holds `b` on entry and the refined `x` on exit. Returns the relative
/// residual after each sweep (length `iters + 1`, starting with the
/// unrefined solve).
pub fn solve_refined(a: &TlrMatrix, l: &TlrMatrix, rhs: &mut [f64], iters: usize) -> Vec<f64> {
    let n = a.n();
    assert_eq!(rhs.len(), n, "dimension mismatch");
    let b: Vec<f64> = rhs.to_vec();
    let bnorm = b.iter().map(|x| x * x).sum::<f64>().sqrt().max(f64::MIN_POSITIVE);
    // initial solve
    solve_tlr(l, rhs);
    let mut history = Vec::with_capacity(iters + 1);
    let residual = |x: &[f64]| -> (Vec<f64>, f64) {
        let ax = tlr_matvec(a, x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let rnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        (r, rnorm / bnorm)
    };
    let (mut r, mut rel) = residual(rhs);
    history.push(rel);
    for _ in 0..iters {
        // d = L⁻ᵀL⁻¹ r;  x += d
        let mut d = r.clone();
        solve_tlr(l, &mut d);
        for (xi, di) in rhs.iter_mut().zip(&d) {
            *xi += di;
        }
        (r, rel) = residual(rhs);
        history.push(rel);
        if rel < 1e-15 {
            break;
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::{factorize, FactorConfig};
    use tlr_compress::CompressionConfig;

    fn gaussian_gen(n: usize) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64) / (n as f64 / 8.0);
            let v = (-d * d).exp();
            if i == j {
                v + 1e-3
            } else {
                v
            }
        }
    }

    #[test]
    fn matvec_matches_dense() {
        let n = 100;
        let gen = gaussian_gen(n);
        let dense = Matrix::from_fn(n, n, &gen);
        let m = TlrMatrix::from_dense(&dense, 32, &CompressionConfig::with_accuracy(1e-10));
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64 - 6.0) / 6.0).collect();
        let y_tlr = tlr_matvec(&m, &x);
        let y_dense = dense.matvec(&x);
        let err: f64 = y_tlr
            .iter()
            .zip(&y_dense)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-7, "matvec error {err}");
    }

    #[test]
    fn solve_recovers_solution() {
        let n = 120;
        let gen = gaussian_gen(n);
        let dense = Matrix::from_fn(n, n, &gen);
        let acc = 1e-9;
        let mut m = TlrMatrix::from_dense(&dense, 24, &CompressionConfig::with_accuracy(acc));
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = dense.matvec(&x_true);
        factorize(&mut m, &FactorConfig::with_accuracy(acc)).unwrap();
        let mut x = b.clone();
        solve_tlr(&m, &mut x);
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
            / (n as f64).sqrt();
        assert!(err < 1e-5, "solve error {err}");
    }

    #[test]
    fn refinement_recovers_accuracy_from_loose_threshold() {
        // Factor at a loose 1e-4; refinement must push the residual far
        // below what the unrefined solve delivers.
        let n = 120;
        let gen = gaussian_gen(n);
        let dense = Matrix::from_fn(n, n, &gen);
        let loose = 1e-4;
        let a = TlrMatrix::from_dense(&dense, 24, &CompressionConfig::with_accuracy(loose));
        let mut l = TlrMatrix::from_dense(&dense, 24, &CompressionConfig::with_accuracy(loose));
        factorize(&mut l, &FactorConfig::with_accuracy(loose)).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();
        let b = dense.matvec(&x_true);
        let mut x = b.clone();
        let history = crate::solve::solve_refined(&a, &l, &mut x, 6);
        assert!(history.len() >= 2);
        let first = history[0];
        let last = *history.last().unwrap();
        assert!(
            last < first / 1e3,
            "refinement must gain ≥3 digits: {first:.2e} → {last:.2e}"
        );
        assert!(last < 1e-10, "refined residual {last:.2e}");
        // monotone (non-increasing) residuals
        for w in history.windows(2) {
            assert!(w[1] <= w[0] * 1.5, "residuals must not blow up: {history:?}");
        }
    }

    #[test]
    fn multi_rhs_matches_single_rhs() {
        let n = 120;
        let gen = gaussian_gen(n);
        let dense = Matrix::from_fn(n, n, &gen);
        let acc = 1e-9;
        let mut m = TlrMatrix::from_dense(&dense, 24, &CompressionConfig::with_accuracy(acc));
        factorize(&mut m, &FactorConfig::with_accuracy(acc)).unwrap();
        // three RHS, like the deformation components
        let nrhs = 3;
        let b_block = Matrix::from_fn(n, nrhs, |i, c| ((i + 3 * c) as f64 * 0.07).sin());
        // single-RHS path per column
        let mut singles = Vec::new();
        for c in 0..nrhs {
            let mut x = b_block.col(c).to_vec();
            solve_tlr(&m, &mut x);
            singles.push(x);
        }
        // blocked path
        let mut x_block = b_block.clone();
        solve_tlr_multi(&m, &mut x_block);
        for c in 0..nrhs {
            for i in 0..n {
                assert!(
                    (x_block[(i, c)] - singles[c][i]).abs() < 1e-10,
                    "mismatch at ({i},{c})"
                );
            }
        }
    }

    #[test]
    fn multi_rhs_ragged_tiles() {
        let n = 110; // ragged last tile
        let gen = gaussian_gen(n);
        let dense = Matrix::from_fn(n, n, &gen);
        let acc = 1e-10;
        let mut m = TlrMatrix::from_dense(&dense, 32, &CompressionConfig::with_accuracy(acc));
        factorize(&mut m, &FactorConfig::with_accuracy(acc)).unwrap();
        let x_true = Matrix::from_fn(n, 2, |i, c| 1.0 + ((i * (c + 2)) % 7) as f64);
        let mut b_block = Matrix::zeros(n, 2);
        for c in 0..2 {
            let bx = dense.matvec(x_true.col(c));
            b_block.col_mut(c).copy_from_slice(&bx);
        }
        solve_tlr_multi(&m, &mut b_block);
        let mut worst = 0.0_f64;
        for c in 0..2 {
            for i in 0..n {
                worst = worst.max((b_block[(i, c)] - x_true[(i, c)]).abs());
            }
        }
        assert!(worst < 1e-3, "multi-RHS ragged solve max error {worst}");
    }

    #[test]
    fn solve_with_ragged_last_tile() {
        let n = 110; // 110 = 3*32 + 14 → ragged last tile
        let gen = gaussian_gen(n);
        let dense = Matrix::from_fn(n, n, &gen);
        let acc = 1e-10;
        let mut m = TlrMatrix::from_dense(&dense, 32, &CompressionConfig::with_accuracy(acc));
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let b = dense.matvec(&x_true);
        factorize(&mut m, &FactorConfig::with_accuracy(acc)).unwrap();
        let mut x = b;
        solve_tlr(&m, &mut x);
        let err: f64 =
            x.iter().zip(&x_true).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        // The Gaussian kernel matrix is ill-conditioned (overlapping
        // bumps); the forward error is κ(A)·ε, well above the threshold.
        assert!(err < 1e-3, "ragged solve max error {err}");
    }
}
