//! Level-3 BLAS kernels: GEMM, SYRK, TRSM.
//!
//! Large-enough GEMM/SYRK products route through the packed
//! register-blocked [`crate::microkernel`] (AVX2+FMA with a bit-identical
//! scalar fallback); small and thin products keep the naive column sweep,
//! whose innermost loops run down contiguous columns (axpy/dot shapes) so
//! the compiler auto-vectorizes them. [`gemm`] and [`syrk`] fork onto
//! rayon's work-stealing pool (one strip of output columns per task,
//! stolen when workers idle) once the product is large enough to amortize
//! the fork/join; small products and the tile kernels used inside the task
//! runtime call [`gemm_serial`]/[`syrk_serial`], because parallelism there
//! comes from the task graph itself and an inner fork would oversubscribe
//! the executor's threads.
//!
//! The parallel paths are deterministic: each output column is computed by
//! exactly one task with a thread-count-independent summation order (the
//! microkernel's per-element order is partition-independent by
//! construction), so results are bit-identical from 1 to N pool threads.

use crate::matrix::Matrix;
use crate::microkernel::{self, KernelPath};
use rayon::prelude::*;

/// Transposition selector for [`gemm`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Which side a triangular operand applies from in [`trsm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(A) · X = alpha · B`.
    Left,
    /// Solve `X · op(A) = alpha · B`.
    Right,
}

/// Which triangle of a triangular/symmetric operand is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangle.
    Lower,
    /// Upper triangle.
    Upper,
}

/// Minimum number of output entries before [`gemm`]/[`syrk`] consider the
/// parallel path (anything smaller fits a single worker's cache anyway).
const PARALLEL_THRESHOLD: usize = 64 * 64;

/// Minimum flop count (`2·m·n·k`) before the fork/join is worth paying.
///
/// Tuned against the real work-stealing pool: dispatch plus latch
/// teardown costs a few microseconds, and this substrate sustains roughly
/// one flop per nanosecond per core, so ~2⁲⁰ flops (≈ 1 ms serial) keeps
/// the overhead under a percent. The flop gate is what keeps *thin*
/// updates serial — a rank-2 `k` on a 128×128 output passes the area test
/// but is only ~65 kflop of work, far below the fork's break-even. (The
/// sequential first-generation shim hid this: forking was free when
/// nothing actually forked.)
const PARALLEL_MIN_FLOPS: usize = 1 << 20;

/// Strip width of the column-parallel paths *and* the serial SYRK strip
/// sweep: wide enough to amortize one `A` packing per strip, narrow
/// enough that work stealing can still balance a triangular update. The
/// results are bit-identical for **any** strip width (the packed path's
/// per-element operation order is partition-independent — see
/// [`crate::microkernel`]), so this is purely a performance knob.
const PAR_STRIP_COLS: usize = 32;

#[inline]
pub(crate) fn gemm_dims(ta: Trans, tb: Trans, a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    let (m, ka) = match ta {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    };
    let (kb, n) = match tb {
        Trans::No => (b.rows(), b.cols()),
        Trans::Yes => (b.cols(), b.rows()),
    };
    assert_eq!(ka, kb, "gemm inner dimensions disagree: {ka} vs {kb}");
    (m, n, ka)
}

/// General matrix multiply: `C := alpha · op(A) · op(B) + beta · C`.
///
/// Parallelizes over columns of `C` on rayon's work-stealing pool when
/// the product is large enough (output area *and* flop count above the
/// fork break-even); small or thin products run serially. Dimensions are
/// checked with assertions (this is an internal HPC substrate, not a user
/// input path). The parallel split is by whole columns, so the result is
/// bit-identical to the column-sweep serial path at any thread count.
pub fn gemm(ta: Trans, tb: Trans, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, n, k) = gemm_dims(ta, tb, a, b);
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if m * n < PARALLEL_THRESHOLD || n < 4 || 2 * m * n * k.max(1) < PARALLEL_MIN_FLOPS {
        gemm_serial(ta, tb, alpha, a, b, beta, c);
        return;
    }
    // Decide the route on the FULL shape (not per strip) so this agrees
    // with `gemm_serial` and the strips assemble a bit-identical result.
    let packed = microkernel::packed_worthwhile(m, n, k);
    let path = microkernel::active_path();
    let rows = m;
    c.as_mut_slice()
        .par_chunks_mut(rows * PAR_STRIP_COLS)
        .enumerate()
        .for_each(|(s, chunk)| {
            let j0 = s * PAR_STRIP_COLS;
            let ncols = chunk.len() / rows;
            if packed {
                microkernel::gemm_packed_into(
                    path, ta, tb, alpha, a, 0, b, j0, beta, chunk, rows, rows, ncols, k,
                );
            } else {
                for jj in 0..ncols {
                    let c_col = &mut chunk[jj * rows..(jj + 1) * rows];
                    gemm_col(ta, tb, alpha, a, b, beta, j0 + jj, c_col, k);
                }
            }
        });
}

/// Serial GEMM with identical semantics to [`gemm`].
///
/// Two routes: the packed microkernel takes every product it is worth
/// packing for (`microkernel::packed_worthwhile`); the rest (a single
/// column, or a dimension under the register tile) run the per-column
/// axpy / dot sweep.
#[allow(clippy::too_many_arguments)]
pub fn gemm_serial(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, n, k) = gemm_dims(ta, tb, a, b);
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if microkernel::packed_worthwhile(m, n, k) {
        let ldc = m;
        microkernel::gemm_packed_into(
            microkernel::active_path(),
            ta,
            tb,
            alpha,
            a,
            0,
            b,
            0,
            beta,
            c.as_mut_slice(),
            ldc,
            m,
            n,
            k,
        );
        return;
    }
    for j in 0..n {
        let c_col = c.col_mut(j);
        gemm_col(ta, tb, alpha, a, b, beta, j, c_col, k);
    }
}

/// Serial GEMM writing into a contiguous block of columns of `c`:
/// `C[:, j0 .. j0+n) := alpha · op(A) · op(B) + beta · C[:, j0 .. j0+n)`.
///
/// This is the write-into-caller-buffer variant the TLR recompression
/// engine uses to assemble stacked factors `[U_c | U_p]` directly inside
/// a workspace matrix — no separate product temporary, no copy into the
/// stack. Columns outside the block are untouched. `c.rows()` must equal
/// the product's row count and `c` must have at least `j0 + n` columns.
#[allow(clippy::too_many_arguments)]
pub fn gemm_serial_into_cols(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    j0: usize,
) {
    let (m, n, k) = gemm_dims(ta, tb, a, b);
    assert_eq!(c.rows(), m, "gemm_serial_into_cols row mismatch");
    assert!(j0 + n <= c.cols(), "gemm_serial_into_cols column block out of range");
    if m == 0 || n == 0 {
        return;
    }
    if microkernel::packed_worthwhile(m, n, k) {
        let ldc = m;
        let cs = &mut c.as_mut_slice()[j0 * ldc..(j0 + n) * ldc];
        microkernel::gemm_packed_into(
            microkernel::active_path(),
            ta,
            tb,
            alpha,
            a,
            0,
            b,
            0,
            beta,
            cs,
            ldc,
            m,
            n,
            k,
        );
        return;
    }
    for j in 0..n {
        let c_col = c.col_mut(j0 + j);
        gemm_col(ta, tb, alpha, a, b, beta, j, c_col, k);
    }
}

/// Compute one column `j` of the GEMM output into `c_col`.
// BLAS calling convention: the argument list mirrors dgemm's.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_col(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    j: usize,
    c_col: &mut [f64],
    k: usize,
) {
    if beta == 0.0 {
        c_col.fill(0.0);
    } else if beta != 1.0 {
        for v in c_col.iter_mut() {
            *v *= beta;
        }
    }
    match (ta, tb) {
        (Trans::No, Trans::No) => {
            // c_col += alpha * sum_p A[:,p] * B[p,j]
            for p in 0..k {
                let w = alpha * b[(p, j)];
                if w != 0.0 {
                    axpy(w, a.col(p), c_col);
                }
            }
        }
        (Trans::No, Trans::Yes) => {
            for p in 0..k {
                let w = alpha * b[(j, p)];
                if w != 0.0 {
                    axpy(w, a.col(p), c_col);
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            // c[i,j] += alpha * dot(A[:,i], B[:,j])
            let b_col = b.col(j);
            for (i, ci) in c_col.iter_mut().enumerate() {
                *ci += alpha * dot(a.col(i), &b_col[..k]);
            }
        }
        (Trans::Yes, Trans::Yes) => {
            // c[i,j] += alpha * sum_p A[p,i] * B[j,p]
            for p in 0..k {
                let w = alpha * b[(j, p)];
                if w != 0.0 {
                    let a_col_p_row = p; // A[p, i] walks row p — strided; fall back per element
                    for (i, ci) in c_col.iter_mut().enumerate() {
                        *ci += w * a[(a_col_p_row, i)];
                    }
                }
            }
        }
    }
}

#[inline(always)]
fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[inline(always)]
fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for (xi, yi) in x.iter().zip(y) {
        acc += xi * yi;
    }
    acc
}

/// Symmetric rank-k update on the **lower** triangle:
/// `C := alpha · op(A) · op(A)ᵀ + beta · C` (only `i ≥ j` entries touched).
///
/// `trans == Trans::No` computes `A·Aᵀ` (`A` is `n × k`);
/// `trans == Trans::Yes` computes `Aᵀ·A` (`A` is `k × n`).
///
/// Parallelizes over columns of `C` like [`gemm`] (the flop gate uses the
/// triangle's `n·n·k` count); every column is one task, so the triangular
/// per-column cost imbalance is smoothed by work stealing, and results
/// stay bit-identical to [`syrk_serial`] at any thread count.
pub fn syrk(trans: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    let (n, k) = syrk_dims(trans, a, c);
    if n * n < PARALLEL_THRESHOLD || n < 4 || n * n * k.max(1) < PARALLEL_MIN_FLOPS {
        syrk_serial(trans, alpha, a, beta, c);
        return;
    }
    let packed = microkernel::packed_worthwhile(n, n, k);
    let path = microkernel::active_path();
    let rows = n;
    c.as_mut_slice()
        .par_chunks_mut(rows * PAR_STRIP_COLS)
        .enumerate()
        .for_each(|(s, chunk)| {
            syrk_strip(trans, alpha, a, beta, s * PAR_STRIP_COLS, chunk, n, k, packed, path);
        });
}

/// Serial SYRK with identical semantics (and identical rounding) to
/// [`syrk`]; the tile kernels call this directly because their
/// parallelism comes from the task graph.
pub fn syrk_serial(trans: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    let (n, k) = syrk_dims(trans, a, c);
    if n == 0 {
        return;
    }
    if !microkernel::packed_worthwhile(n, n, k) {
        for j in 0..n {
            let col = c.col_mut(j);
            syrk_col(trans, alpha, a, beta, j, col, n, k);
        }
        return;
    }
    let path = microkernel::active_path();
    let rows = n;
    let cs = c.as_mut_slice();
    let mut j0 = 0;
    while j0 < n {
        let nc = PAR_STRIP_COLS.min(n - j0);
        let chunk = &mut cs[j0 * rows..(j0 + nc) * rows];
        syrk_strip(trans, alpha, a, beta, j0, chunk, n, k, true, path);
        j0 += nc;
    }
}

/// Update one strip of SYRK output columns `[j0, j0 + ncols)` held in
/// `chunk` (full columns, `n` entries each).
///
/// When `packed`, the strip splits into a triangular head (the diagonal
/// block's `i ≥ j` elements, computed scalar with the packed path's
/// exact per-element operation order) and a rectangular body below it
/// (a packed GEMM against the strip's columns of `op(A)ᵀ`). The split
/// point is partition-independent in value, so serial and parallel
/// strip sweeps are bit-identical.
#[allow(clippy::too_many_arguments)]
fn syrk_strip(
    trans: Trans,
    alpha: f64,
    a: &Matrix,
    beta: f64,
    j0: usize,
    chunk: &mut [f64],
    n: usize,
    k: usize,
    packed: bool,
    path: KernelPath,
) {
    let ncols = chunk.len() / n;
    if !packed {
        for jj in 0..ncols {
            let col = &mut chunk[jj * n..(jj + 1) * n];
            syrk_col(trans, alpha, a, beta, j0 + jj, col, n, k);
        }
        return;
    }
    let je = j0 + ncols;
    for jj in 0..ncols {
        let j = j0 + jj;
        let col = &mut chunk[jj * n..(jj + 1) * n];
        syrk_head_col(trans, alpha, a, beta, j, &mut col[j..je], k);
    }
    if je < n {
        let (ta, tb) = match trans {
            Trans::No => (Trans::No, Trans::Yes),
            Trans::Yes => (Trans::Yes, Trans::No),
        };
        microkernel::gemm_packed_into(
            path,
            ta,
            tb,
            alpha,
            a,
            je,
            a,
            j0,
            beta,
            &mut chunk[je..],
            n,
            n - je,
            ncols,
            k,
        );
    }
}

/// Scalar evaluation of the `i ≥ j` elements of one diagonal-block SYRK
/// column (`cseg[t]` is element `(j + t, j)`), using the packed path's
/// per-element contract: one `beta` scaling, then [`f64::mul_add`] in
/// ascending `p` with `alpha · op(A)ᵀ` rounded per term.
fn syrk_head_col(
    trans: Trans,
    alpha: f64,
    a: &Matrix,
    beta: f64,
    j: usize,
    cseg: &mut [f64],
    k: usize,
) {
    for (t, cv) in cseg.iter_mut().enumerate() {
        let i = j + t;
        let mut v = if beta == 0.0 { 0.0 } else { beta * *cv };
        match trans {
            Trans::No => {
                for p in 0..k {
                    v = a[(i, p)].mul_add(alpha * a[(j, p)], v);
                }
            }
            Trans::Yes => {
                for p in 0..k {
                    v = a[(p, i)].mul_add(alpha * a[(p, j)], v);
                }
            }
        }
        *cv = v;
    }
}

#[inline]
fn syrk_dims(trans: Trans, a: &Matrix, c: &Matrix) -> (usize, usize) {
    let (n, k) = match trans {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    };
    assert_eq!((c.rows(), c.cols()), (n, n), "syrk output must be n x n");
    (n, k)
}

/// Update the `i ≥ j` part of column `j` held in `col` (a full column of
/// `C`, `n` entries).
#[inline]
#[allow(clippy::too_many_arguments)]
fn syrk_col(trans: Trans, alpha: f64, a: &Matrix, beta: f64, j: usize, col: &mut [f64], n: usize, k: usize) {
    if beta == 0.0 {
        col[j..].fill(0.0);
    } else if beta != 1.0 {
        for v in col[j..].iter_mut() {
            *v *= beta;
        }
    }
    match trans {
        Trans::No => {
            for p in 0..k {
                let w = alpha * a[(j, p)];
                if w != 0.0 {
                    let a_col = a.col(p);
                    for i in j..n {
                        col[i] += w * a_col[i];
                    }
                }
            }
        }
        Trans::Yes => {
            let aj = a.col(j).to_vec();
            for (i, ci) in col.iter_mut().enumerate().skip(j) {
                *ci += alpha * dot(a.col(i), &aj);
            }
        }
    }
}

/// Triangular solve with multiple right-hand sides (TRSM).
///
/// Solves in place on `b`:
/// * `Side::Left`: `op(A) · X = alpha · B`, with `A` `m × m` triangular;
/// * `Side::Right`: `X · op(A) = alpha · B`, with `A` `n × n` triangular.
///
/// Only the `uplo` triangle of `A` is referenced. The diagonal is
/// non-unit. Supported combinations cover everything the tile Cholesky
/// needs (`Lower` with either side/transposition); `Upper` is provided for
/// completeness via the equivalent lower-triangle formulations.
pub fn trsm(side: Side, uplo: Uplo, trans: Trans, alpha: f64, a: &Matrix, b: &mut Matrix) {
    assert_eq!(a.rows(), a.cols(), "triangular operand must be square");
    let (m, n) = (b.rows(), b.cols());
    match side {
        Side::Left => assert_eq!(a.rows(), m, "trsm Left dimension mismatch"),
        Side::Right => assert_eq!(a.rows(), n, "trsm Right dimension mismatch"),
    }
    if alpha != 1.0 {
        b.scale(alpha);
    }
    match (side, uplo, trans) {
        (Side::Left, Uplo::Lower, Trans::No) => {
            // forward substitution on each column of B
            for j in 0..n {
                let col = b.col_mut(j);
                for i in 0..m {
                    let mut v = col[i];
                    for p in 0..i {
                        v -= a[(i, p)] * col[p];
                    }
                    col[i] = v / a[(i, i)];
                }
            }
        }
        (Side::Left, Uplo::Lower, Trans::Yes) => {
            // backward substitution with Aᵀ (upper triangular)
            for j in 0..n {
                let col = b.col_mut(j);
                for i in (0..m).rev() {
                    let mut v = col[i];
                    for p in i + 1..m {
                        v -= a[(p, i)] * col[p];
                    }
                    col[i] = v / a[(i, i)];
                }
            }
        }
        (Side::Right, Uplo::Lower, Trans::Yes) => {
            // X · Aᵀ = B  with A lower  ⇒  process columns of X left→right:
            // X[:,j] = (B[:,j] − Σ_{p<j} X[:,p] · Aᵀ[p,j]) / A[j,j]
            // where Aᵀ[p,j] = A[j,p].
            for j in 0..n {
                for p in 0..j {
                    let w = a[(j, p)];
                    if w != 0.0 {
                        let (xp, xj) = b.two_cols_mut(p, j);
                        axpy(-w, xp, xj);
                    }
                }
                let d = a[(j, j)];
                for v in b.col_mut(j) {
                    *v /= d;
                }
            }
        }
        (Side::Right, Uplo::Lower, Trans::No) => {
            // X · A = B with A lower ⇒ process columns right→left:
            // X[:,j] = (B[:,j] − Σ_{p>j} X[:,p] · A[p,j]) / A[j,j]
            for j in (0..n).rev() {
                for p in j + 1..n {
                    let w = a[(p, j)];
                    if w != 0.0 {
                        let (xp, xj) = b.two_cols_mut(p, j);
                        axpy(-w, xp, xj);
                    }
                }
                let d = a[(j, j)];
                for v in b.col_mut(j) {
                    *v /= d;
                }
            }
        }
        (Side::Left, Uplo::Upper, Trans::No) => {
            for j in 0..n {
                let col = b.col_mut(j);
                for i in (0..m).rev() {
                    let mut v = col[i];
                    for p in i + 1..m {
                        v -= a[(i, p)] * col[p];
                    }
                    col[i] = v / a[(i, i)];
                }
            }
        }
        (Side::Left, Uplo::Upper, Trans::Yes) => {
            for j in 0..n {
                let col = b.col_mut(j);
                for i in 0..m {
                    let mut v = col[i];
                    for p in 0..i {
                        v -= a[(p, i)] * col[p];
                    }
                    col[i] = v / a[(i, i)];
                }
            }
        }
        (Side::Right, Uplo::Upper, _) => {
            unimplemented!("Right/Upper TRSM is unused by tile Cholesky")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::relative_diff;

    fn naive_gemm(ta: Trans, tb: Trans, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &Matrix) -> Matrix {
        let (m, n, k) = gemm_dims(ta, tb, a, b);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    let av = match ta {
                        Trans::No => a[(i, p)],
                        Trans::Yes => a[(p, i)],
                    };
                    let bv = match tb {
                        Trans::No => b[(p, j)],
                        Trans::Yes => b[(j, p)],
                    };
                    acc += av * bv;
                }
                out[(i, j)] = alpha * acc + beta * c[(i, j)];
            }
        }
        out
    }

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        // small deterministic LCG so tests need no external RNG
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(r, c, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn gemm_matches_naive_all_transpositions() {
        let (m, n, k) = (13, 9, 7);
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let a = match ta {
                Trans::No => rand_mat(m, k, 1),
                Trans::Yes => rand_mat(k, m, 1),
            };
            let b = match tb {
                Trans::No => rand_mat(k, n, 2),
                Trans::Yes => rand_mat(n, k, 2),
            };
            let c0 = rand_mat(m, n, 3);
            let expect = naive_gemm(ta, tb, 1.3, &a, &b, 0.7, &c0);
            let mut c = c0.clone();
            gemm(ta, tb, 1.3, &a, &b, 0.7, &mut c);
            assert!(relative_diff(&c, &expect) < 1e-13, "ta={ta:?} tb={tb:?}");
            let mut c2 = c0.clone();
            gemm_serial(ta, tb, 1.3, &a, &b, 0.7, &mut c2);
            assert!(relative_diff(&c2, &expect) < 1e-13);
        }
    }

    #[test]
    fn gemm_parallel_path_matches() {
        // Sizes chosen to cross BOTH parallel gates: the area gate
        // (m·n = 9216 ≥ PARALLEL_THRESHOLD) and the flop gate
        // (2·m·n·k ≈ 1.77 Mflop ≥ PARALLEL_MIN_FLOPS).
        let (m, n, k) = (96, 96, 96);
        assert!(m * n >= super::PARALLEL_THRESHOLD);
        assert!(2 * m * n * k >= super::PARALLEL_MIN_FLOPS);
        let a = rand_mat(m, k, 11);
        let b = rand_mat(k, n, 12);
        let c0 = rand_mat(m, n, 13);
        let expect = naive_gemm(Trans::No, Trans::No, 1.0, &a, &b, 1.0, &c0);
        let mut c = c0.clone();
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 1.0, &mut c);
        assert!(relative_diff(&c, &expect) < 1e-13);
        // The parallel path must be bit-identical to the serial one.
        let mut cs = c0.clone();
        gemm_serial(Trans::No, Trans::No, 1.0, &a, &b, 1.0, &mut cs);
        assert_eq!(c.as_slice(), cs.as_slice());
    }

    #[test]
    fn syrk_parallel_path_bit_identical_to_serial() {
        // n·n·k crosses the flop gate, so `syrk` takes the column-parallel
        // path; it must agree bitwise with `syrk_serial` at any pool size.
        let (n, k) = (128, 96);
        assert!(n * n >= super::PARALLEL_THRESHOLD);
        assert!(n * n * k >= super::PARALLEL_MIN_FLOPS);
        for trans in [Trans::No, Trans::Yes] {
            let a = match trans {
                Trans::No => rand_mat(n, k, 21),
                Trans::Yes => rand_mat(k, n, 21),
            };
            let c0 = rand_mat(n, n, 22);
            let mut c = c0.clone();
            syrk(trans, -1.0, &a, 1.0, &mut c);
            let mut cs = c0.clone();
            syrk_serial(trans, -1.0, &a, 1.0, &mut cs);
            assert_eq!(c.as_slice(), cs.as_slice(), "trans={trans:?}");
        }
    }

    /// Products the packed gate refuses used to take a k-blocked sweep
    /// once `m·k` passed 64 Ki doubles. The column sweep they take now
    /// applies the same ascending-`p` axpy sequence per element, so the
    /// values recorded from the blocked sweep must reproduce bit for bit —
    /// and a `k < 8` shape, on which the blocked sweep panicked
    /// (`(L2 / m).clamp(8, k)` with `k < 8`), simply works.
    #[test]
    fn tall_skinny_products_keep_the_blocked_sweep_bits() {
        let fnv = |c: &Matrix| {
            c.as_slice()
                .iter()
                .fold(0xcbf29ce484222325u64, |h, v| (h ^ v.to_bits()).wrapping_mul(0x100000001b3))
        };
        let run = |m: usize, n: usize, k: usize, tb: Trans| {
            let a = Matrix::from_fn(m, k, |i, p| ((i * 31 + p * 17) % 97) as f64 / 97.0 - 0.5);
            let entry = |p: usize, j: usize| ((p * 13 + j * 7) % 89) as f64 / 89.0 - 0.25;
            let b = match tb {
                Trans::No => Matrix::from_fn(k, n, entry),
                Trans::Yes => Matrix::from_fn(n, k, |j, p| entry(p, j)),
            };
            let c0 = Matrix::from_fn(m, n, |i, j| ((i + 3 * j) % 11) as f64 / 11.0);
            let mut c = c0.clone();
            gemm_serial(Trans::No, tb, 0.75, &a, &b, 0.5, &mut c);
            let expect = naive_gemm(Trans::No, tb, 0.75, &a, &b, 0.5, &c0);
            assert!(relative_diff(&c, &expect) < 1e-13, "{m}x{n}x{k}");
            fnv(&c)
        };
        assert!(!microkernel::packed_worthwhile(9000, 1, 8));
        assert_eq!(run(9000, 1, 8, Trans::No), 0x7fb3a02ffef54574);
        assert_eq!(run(9000, 1, 20, Trans::Yes), 0x06f5d602998ed4c2);
        run(20000, 4, 5, Trans::No);
    }

    #[test]
    fn gemm_into_cols_matches_naive_block() {
        let (m, n, k, j0, total) = (9, 4, 6, 3, 10);
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let a = match ta {
                Trans::No => rand_mat(m, k, 101),
                Trans::Yes => rand_mat(k, m, 101),
            };
            let b = match tb {
                Trans::No => rand_mat(k, n, 102),
                Trans::Yes => rand_mat(n, k, 102),
            };
            let c0 = rand_mat(m, total, 103);
            let block0 = c0.submatrix(0, j0, m, n);
            let expect = naive_gemm(ta, tb, 1.3, &a, &b, 0.7, &block0);
            let mut c = c0.clone();
            gemm_serial_into_cols(ta, tb, 1.3, &a, &b, 0.7, &mut c, j0);
            let block = c.submatrix(0, j0, m, n);
            assert!(relative_diff(&block, &expect) < 1e-13, "ta={ta:?} tb={tb:?}");
            // columns outside [j0, j0+n) untouched
            for j in (0..j0).chain(j0 + n..total) {
                assert_eq!(c.col(j), c0.col(j), "col {j}");
            }
        }
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C.
        let a = Matrix::identity(4);
        let b = rand_mat(4, 4, 5);
        let mut c = Matrix::from_fn(4, 4, |_, _| f64::NAN);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(relative_diff(&c, &b) < 1e-15);
    }

    #[test]
    fn syrk_matches_gemm_lower() {
        let a = rand_mat(10, 6, 21);
        let c0 = rand_mat(10, 10, 22);
        let mut c_syrk = c0.clone();
        syrk(Trans::No, 2.0, &a, 0.5, &mut c_syrk);
        let full = naive_gemm(Trans::No, Trans::Yes, 2.0, &a, &a, 0.5, &c0);
        for j in 0..10 {
            for i in j..10 {
                assert!((c_syrk[(i, j)] - full[(i, j)]).abs() < 1e-12);
            }
        }
        // upper triangle untouched
        for j in 1..10 {
            for i in 0..j {
                assert_eq!(c_syrk[(i, j)], c0[(i, j)]);
            }
        }
    }

    #[test]
    fn syrk_trans_matches_gemm() {
        let a = rand_mat(6, 10, 23);
        let c0 = rand_mat(10, 10, 24);
        let mut c_syrk = c0.clone();
        syrk(Trans::Yes, -1.0, &a, 1.0, &mut c_syrk);
        let full = naive_gemm(Trans::Yes, Trans::No, -1.0, &a, &a, 1.0, &c0);
        for j in 0..10 {
            for i in j..10 {
                assert!((c_syrk[(i, j)] - full[(i, j)]).abs() < 1e-12);
            }
        }
    }

    fn rand_lower(n: usize, seed: u64) -> Matrix {
        let mut l = rand_mat(n, n, seed);
        for j in 0..n {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
            l[(j, j)] = 2.0 + l[(j, j)].abs(); // well-conditioned diagonal
        }
        l
    }

    #[test]
    fn trsm_left_lower_no() {
        let n = 8;
        let l = rand_lower(n, 31);
        let x_true = rand_mat(n, 5, 32);
        let mut b = Matrix::zeros(n, 5);
        gemm(Trans::No, Trans::No, 1.0, &l, &x_true, 0.0, &mut b);
        trsm(Side::Left, Uplo::Lower, Trans::No, 1.0, &l, &mut b);
        assert!(relative_diff(&b, &x_true) < 1e-12);
    }

    #[test]
    fn trsm_left_lower_trans() {
        let n = 8;
        let l = rand_lower(n, 41);
        let x_true = rand_mat(n, 5, 42);
        // B = Lᵀ X
        let mut b = Matrix::zeros(n, 5);
        gemm(Trans::Yes, Trans::No, 1.0, &l, &x_true, 0.0, &mut b);
        trsm(Side::Left, Uplo::Lower, Trans::Yes, 1.0, &l, &mut b);
        assert!(relative_diff(&b, &x_true) < 1e-12);
    }

    #[test]
    fn trsm_right_lower_trans() {
        let n = 6;
        let l = rand_lower(n, 51);
        let x_true = rand_mat(9, n, 52);
        // B = X Lᵀ
        let mut b = Matrix::zeros(9, n);
        gemm(Trans::No, Trans::Yes, 1.0, &x_true, &l, 0.0, &mut b);
        trsm(Side::Right, Uplo::Lower, Trans::Yes, 1.0, &l, &mut b);
        assert!(relative_diff(&b, &x_true) < 1e-12);
    }

    #[test]
    fn trsm_right_lower_no() {
        let n = 6;
        let l = rand_lower(n, 61);
        let x_true = rand_mat(9, n, 62);
        // B = X L
        let mut b = Matrix::zeros(9, n);
        gemm(Trans::No, Trans::No, 1.0, &x_true, &l, 0.0, &mut b);
        trsm(Side::Right, Uplo::Lower, Trans::No, 1.0, &l, &mut b);
        assert!(relative_diff(&b, &x_true) < 1e-12);
    }

    #[test]
    fn trsm_upper_variants() {
        let n = 7;
        let u = rand_lower(n, 71).transpose();
        let x_true = rand_mat(n, 4, 72);
        let mut b = Matrix::zeros(n, 4);
        gemm(Trans::No, Trans::No, 1.0, &u, &x_true, 0.0, &mut b);
        trsm(Side::Left, Uplo::Upper, Trans::No, 1.0, &u, &mut b);
        assert!(relative_diff(&b, &x_true) < 1e-12);

        let mut b2 = Matrix::zeros(n, 4);
        gemm(Trans::Yes, Trans::No, 1.0, &u, &x_true, 0.0, &mut b2);
        trsm(Side::Left, Uplo::Upper, Trans::Yes, 1.0, &u, &mut b2);
        assert!(relative_diff(&b2, &x_true) < 1e-12);
    }

    #[test]
    fn trsm_alpha_scaling() {
        let n = 5;
        let l = rand_lower(n, 81);
        let x_true = rand_mat(n, 3, 82);
        let mut b = Matrix::zeros(n, 3);
        gemm(Trans::No, Trans::No, 1.0, &l, &x_true, 0.0, &mut b);
        // Solve L X = 2 B  ⇒  X = 2 x_true
        trsm(Side::Left, Uplo::Lower, Trans::No, 2.0, &l, &mut b);
        let mut doubled = x_true.clone();
        doubled.scale(2.0);
        assert!(relative_diff(&b, &doubled) < 1e-12);
    }
}
