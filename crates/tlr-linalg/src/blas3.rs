//! Level-3 BLAS kernels: GEMM, SYRK, TRSM.
//!
//! Large-enough GEMM/SYRK products route through the packed
//! register-blocked [`crate::microkernel`] (AVX2+FMA with a bit-identical
//! scalar fallback); small and thin products keep the naive column sweep,
//! whose innermost loops run down contiguous columns (axpy/dot shapes) so
//! the compiler auto-vectorizes them. [`gemm`] forks onto rayon's
//! work-stealing pool (one strip of output columns per task, stolen when
//! workers idle) once the product is large enough to amortize the
//! fork/join; small products and the tile kernels used inside the task
//! runtime call [`gemm_serial`]/[`syrk_serial`], because parallelism there
//! comes from the task graph itself and an inner fork would oversubscribe
//! the executor's threads. There is no parallel SYRK: nothing outside the
//! task graph calls one.
//!
//! The parallel path is deterministic: each output column is computed by
//! exactly one task with a thread-count-independent summation order (the
//! microkernel's per-element order is partition-independent by
//! construction), so results are bit-identical from 1 to N pool threads.

use crate::matrix::{MatMut, MatRef};
use crate::microkernel::{self, KernelPath};
use rayon::prelude::*;
use std::ops::Range;

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

/// Which triangle of a triangular operand is referenced.
// One variant: tile Cholesky only ever reads lower triangles, and the
// frozen pipeline benchmark names `Uplo::Lower` in its `trsm` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangle.
    Lower,
}

/// Minimum number of output entries before [`gemm`] considers the
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

/// Strip width of the column-parallel GEMM *and* the SYRK strip sweep:
/// wide enough to amortize one `A` packing per strip, narrow enough that
/// work stealing can still balance the parallel GEMM's strips. The
/// results are bit-identical for **any** strip width (the packed path's
/// per-element operation order is partition-independent — see
/// [`crate::microkernel`]), so this is purely a performance knob.
const PAR_STRIP_COLS: usize = 32;

/// Shape of `op(M)`.
#[inline]
pub(crate) fn op_dims(t: Trans, m: MatRef<'_>) -> (usize, usize) {
    match t {
        Trans::No => (m.rows(), m.cols()),
        Trans::Yes => (m.cols(), m.rows()),
    }
}

/// Rows `r` of `op(M)`, as a view of `M`.
#[inline]
pub(crate) fn op_rows(t: Trans, m: MatRef<'_>, r: Range<usize>) -> MatRef<'_> {
    match t {
        Trans::No => m.subrows(r),
        Trans::Yes => m.subcols(r),
    }
}

/// Columns `r` of `op(M)`, as a view of `M`.
#[inline]
pub(crate) fn op_cols(t: Trans, m: MatRef<'_>, r: Range<usize>) -> MatRef<'_> {
    match t {
        Trans::No => m.subcols(r),
        Trans::Yes => m.subrows(r),
    }
}

/// The checked `(m, n, k)` of `C := op(A) · op(B)`.
pub(crate) fn gemm_dims(
    ta: Trans,
    tb: Trans,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &MatMut<'_>,
) -> (usize, usize, usize) {
    let ((m, ka), (kb, n)) = (op_dims(ta, a), op_dims(tb, b));
    assert_eq!(ka, kb, "gemm inner dimensions disagree: {ka} vs {kb}");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");
    (m, n, ka)
}

/// The route of an `m × n × k` product, decided on the **full** shape so
/// that the serial and the column-parallel drivers agree and strips
/// assemble a bit-identical result: the packed microkernel where packing
/// pays, else (`None`) the per-column axpy / dot sweep.
fn route(m: usize, n: usize, k: usize) -> Option<KernelPath> {
    microkernel::packed_worthwhile(m, n, k).then(microkernel::active_path)
}

/// General matrix multiply: `C := alpha · op(A) · op(B) + beta · C`.
///
/// Parallelizes over columns of `C` on rayon's work-stealing pool when
/// the product is large enough (output area *and* flop count above the
/// fork break-even); small or thin products run serially. Dimensions are
/// checked with assertions (this is an internal HPC substrate, not a user
/// input path). The parallel split is by whole columns, so the result is
/// bit-identical to the column-sweep serial path at any thread count.
pub fn gemm<'a>(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'a>>,
    beta: f64,
    c: impl Into<MatMut<'a>>,
) {
    let (a, b, c) = (a.into(), b.into(), c.into());
    let (m, n, k) = gemm_dims(ta, tb, a, b, &c);
    let route = route(m, n, k);
    if m * n < PARALLEL_THRESHOLD || n < 4 || 2 * m * n * k.max(1) < PARALLEL_MIN_FLOPS {
        return gemm_routed(route, ta, tb, alpha, a, b, beta, c);
    }
    let mut strips: Vec<_> = c.col_chunks(PAR_STRIP_COLS).collect();
    strips.par_iter_mut().enumerate().for_each(|(s, strip)| {
        let b_strip = op_cols(tb, b, s * PAR_STRIP_COLS..s * PAR_STRIP_COLS + strip.cols());
        gemm_routed(route, ta, tb, alpha, a, b_strip, beta, strip.as_mut());
    });
}

/// Serial GEMM with identical semantics to [`gemm`].
///
/// Two routes: the packed microkernel takes every product it is worth
/// packing for (`microkernel::packed_worthwhile`); the rest (a single
/// column, or a dimension under the register tile) run the per-column
/// axpy / dot sweep. `c` may be any block — the TLR recompression writes
/// products straight into a column range of its stacked factors.
pub fn gemm_serial<'a>(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatRef<'a>>,
    beta: f64,
    c: impl Into<MatMut<'a>>,
) {
    let (a, b, c) = (a.into(), b.into(), c.into());
    let (m, n, k) = gemm_dims(ta, tb, a, b, &c);
    gemm_routed(route(m, n, k), ta, tb, alpha, a, b, beta, c);
}

/// The one GEMM body: `C := alpha · op(A) · op(B) + beta · C` by the given
/// [`route`], on whole operands or on matching column strips of `op(B)`
/// and `C`.
// BLAS calling convention: the argument list mirrors dgemm's.
#[allow(clippy::too_many_arguments)]
fn gemm_routed(
    route: Option<KernelPath>,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    if let Some(path) = route {
        return microkernel::gemm_packed(path, ta, tb, alpha, a, b, beta, c);
    }
    let k = op_dims(ta, a).1;
    for j in 0..c.cols() {
        let c_col = c.col_mut(j);
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
                    *ci += alpha * dot(a.col(i), b_col);
                }
            }
            (Trans::Yes, Trans::Yes) => {
                // c[i,j] += alpha * sum_p A[p,i] * B[j,p]; A[p, i] walks
                // row p — strided, so per element
                for p in 0..k {
                    let w = alpha * b[(j, p)];
                    if w != 0.0 {
                        for (i, ci) in c_col.iter_mut().enumerate() {
                            *ci += w * a[(p, i)];
                        }
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
/// Serial, strip by strip of output columns: the tile kernels call it
/// inside the task runtime, whose parallelism comes from the task graph.
pub fn syrk_serial<'a>(
    trans: Trans,
    alpha: f64,
    a: impl Into<MatRef<'a>>,
    beta: f64,
    c: impl Into<MatMut<'a>>,
) {
    let (a, c) = (a.into(), c.into());
    let (n, k) = syrk_dims(trans, a, &c);
    let route = route(n, n, k);
    for (s, strip) in c.col_chunks(PAR_STRIP_COLS).enumerate() {
        syrk_strip(route, trans, alpha, a, beta, s * PAR_STRIP_COLS, strip);
    }
}

/// Update the strip `c` of SYRK output columns `[j0, j0 + c.cols())`
/// (full columns, `n` entries each).
///
/// On the packed route the strip splits into its diagonal block and a
/// rectangular body below it, both packed GEMMs of rows of `op(A)`
/// against the strip's own rows of `op(A)`. The body is written in place;
/// the diagonal block is computed whole into a stack copy and only its
/// `i ≥ j` elements are written back, so the strict upper triangle of `C`
/// is never touched. Every element gets the packed path's per-element
/// order wherever the strip boundaries fall, so the result does not
/// depend on the strip width.
fn syrk_strip(
    route: Option<KernelPath>,
    trans: Trans,
    alpha: f64,
    a: MatRef<'_>,
    beta: f64,
    j0: usize,
    mut c: MatMut<'_>,
) {
    let (n, w) = (c.rows(), c.cols());
    let je = j0 + w;
    let Some(path) = route else {
        for j in j0..je {
            syrk_col(trans, alpha, a, beta, j, c.col_mut(j - j0));
        }
        return;
    };
    // op(A)·op(A)ᵀ: the second operand is transposed the other way.
    let tb = if trans == Trans::No { Trans::Yes } else { Trans::No };
    let own = op_rows(trans, a, j0..je);
    let (mut head, body) = c.split_at_row(je);
    // Both strip sweeps cut `C` into strips of at most `PAR_STRIP_COLS`.
    let mut diag = [0.0; PAR_STRIP_COLS * PAR_STRIP_COLS];
    let diag = &mut diag[..w * w];
    for (t, d) in diag.chunks_exact_mut(w).enumerate() {
        d.copy_from_slice(&head.as_ref().col(t)[j0..]);
    }
    let diag_view = MatMut::from_slice(diag, w, w);
    microkernel::gemm_packed(path, trans, tb, alpha, own, own, beta, diag_view);
    for (t, d) in diag.chunks_exact(w).enumerate() {
        head.col_mut(t)[j0 + t..].copy_from_slice(&d[t..]);
    }
    if je < n {
        let below = op_rows(trans, a, je..n);
        microkernel::gemm_packed(path, trans, tb, alpha, below, own, beta, body);
    }
}

#[inline]
fn syrk_dims(trans: Trans, a: MatRef<'_>, c: &MatMut<'_>) -> (usize, usize) {
    let (n, k) = op_dims(trans, a);
    assert_eq!((c.rows(), c.cols()), (n, n), "syrk output must be n x n");
    (n, k)
}

/// Update the `i ≥ j` part of column `j` held in `col` (a full column of
/// `C`).
#[inline]
fn syrk_col(trans: Trans, alpha: f64, a: MatRef<'_>, beta: f64, j: usize, col: &mut [f64]) {
    if beta == 0.0 {
        col[j..].fill(0.0);
    } else if beta != 1.0 {
        for v in col[j..].iter_mut() {
            *v *= beta;
        }
    }
    match trans {
        Trans::No => {
            for p in 0..a.cols() {
                let w = alpha * a[(j, p)];
                if w != 0.0 {
                    let a_col = a.col(p);
                    for i in j..col.len() {
                        col[i] += w * a_col[i];
                    }
                }
            }
        }
        Trans::Yes => {
            let aj = a.col(j);
            for (i, ci) in col.iter_mut().enumerate().skip(j) {
                *ci += alpha * dot(a.col(i), aj);
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
/// Only the lower triangle of `A` is referenced. The diagonal is
/// non-unit. A vector solve is the `n × 1` case
/// ([`MatMut::from_slice`]).
pub fn trsm<'a>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: impl Into<MatRef<'a>>,
    b: impl Into<MatMut<'a>>,
) {
    let (a, mut b) = (a.into(), b.into());
    assert_eq!(a.rows(), a.cols(), "triangular operand must be square");
    let (m, n) = (b.rows(), b.cols());
    match side {
        Side::Left => assert_eq!(a.rows(), m, "trsm Left dimension mismatch"),
        Side::Right => assert_eq!(a.rows(), n, "trsm Right dimension mismatch"),
    }
    if alpha != 1.0 {
        for j in 0..n {
            for v in b.col_mut(j) {
                *v *= alpha;
            }
        }
    }
    match (side, uplo, trans) {
        (Side::Left, Uplo::Lower, Trans::No) => {
            // Forward substitution, column form: x_p = b_p / a_pp, then
            // b[p+1..] −= a[p+1.., p] · x_p. Entry i still sees
            // b_i − a_i0·x_0 − … − a_i,i−1·x_{i−1}, then the division.
            for j in 0..n {
                let col = b.col_mut(j);
                for p in 0..m {
                    let ap = a.col(p);
                    let x = col[p] / ap[p];
                    col[p] = x;
                    for (ci, &l) in col[p + 1..].iter_mut().zip(&ap[p + 1..]) {
                        *ci -= l * x;
                    }
                }
            }
        }
        (Side::Left, Uplo::Lower, Trans::Yes) => {
            // Backward substitution with Aᵀ: entry i is a dot of column i
            // of A below the diagonal with the solved entries, in
            // ascending p — four right-hand sides per pass so that four
            // independent chains overlap.
            b.by_fours(|x4| backward_lt(a, x4), |x| backward_lt(a, [x]));
        }
        (Side::Right, Uplo::Lower, Trans::Yes) => {
            // X · Aᵀ = B  with A lower  ⇒  process columns of X left→right:
            // X[:,j] = (B[:,j] − Σ_{p<j} X[:,p] · Aᵀ[p,j]) / A[j,j]
            // where Aᵀ[p,j] = A[j,p].
            for j in 0..n {
                let (solved, mut rest) = b.as_mut().split_at_col(j);
                let xj = rest.col_mut(0);
                for p in 0..j {
                    let w = a[(j, p)];
                    if w != 0.0 {
                        axpy(-w, solved.as_ref().col(p), xj);
                    }
                }
                let d = a[(j, j)];
                for v in xj {
                    *v /= d;
                }
            }
        }
        (Side::Right, Uplo::Lower, Trans::No) => {
            // X · A = B with A lower ⇒ process columns right→left:
            // X[:,j] = (B[:,j] − Σ_{p>j} X[:,p] · A[p,j]) / A[j,j]
            for j in (0..n).rev() {
                let (mut rest, solved) = b.as_mut().split_at_col(j + 1);
                let xj = rest.col_mut(j);
                for p in j + 1..n {
                    let w = a[(p, j)];
                    if w != 0.0 {
                        axpy(-w, solved.as_ref().col(p - j - 1), xj);
                    }
                }
                let d = a[(j, j)];
                for v in xj {
                    *v /= d;
                }
            }
        }
    }
}

/// Solve `Lᵀ·x = b` in place on `N` right-hand sides, `L` the lower
/// triangle of `a`: `x_i = (b_i − Σ_{p>i} a[p,i]·x_p) / a[i,i]`, the sum
/// in ascending `p`. The `N` subtraction chains are independent, so the
/// core overlaps them; each one is the single-column chain.
fn backward_lt<const N: usize>(a: MatRef<'_>, x: [&mut [f64]; N]) {
    let m = a.rows();
    for i in (0..m).rev() {
        let below = &a.col(i)[i + 1..];
        let mut v: [f64; N] = std::array::from_fn(|l| x[l][i]);
        let solved: [&[f64]; N] = std::array::from_fn(|l| &x[l][i + 1..m]);
        for (t, &ap) in below.iter().enumerate() {
            for l in 0..N {
                v[l] -= ap * solved[l][t];
            }
        }
        let d = a[(i, i)];
        for l in 0..N {
            x[l][i] = v[l] / d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::norms::relative_diff;

    fn naive_gemm(ta: Trans, tb: Trans, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &Matrix) -> Matrix {
        let ((m, k), (_, n)) = (op_dims(ta, a.as_ref()), op_dims(tb, b.as_ref()));
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
        // ... also when the output is a strided block of a larger matrix.
        let mut host = rand_mat(m + 5, n + 3, 14);
        host.set_submatrix(2, 1, &c0);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 1.0, host.as_mut().block(2, 1, m, n));
        assert_eq!(host.submatrix(2, 1, m, n).as_slice(), cs.as_slice());
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
        syrk_serial(Trans::No, 2.0, &a, 0.5, &mut c_syrk);
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
        syrk_serial(Trans::Yes, -1.0, &a, 1.0, &mut c_syrk);
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
