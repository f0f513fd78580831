//! The dense loops as they were written before they were reordered, kept
//! as the oracle the production routines must match bit for bit.
//!
//! Five sites of `tlr-linalg` run in orders the core can overlap while
//! every output element sees the same IEEE operations in the same order:
//! GEMM row tails on the SIMD kernel, the SYRK diagonal block on the packed
//! kernel, Householder reflections four columns at a time, POTRF in column
//! form, and the two left triangular solves (column form forward,
//! four right-hand sides per pass backward). The old bodies live in
//! [`old`], verbatim up to the view types they take; the properties below
//! hold the new ones to them on random shapes, offsets and scales.
//!
//! One site has since left the bit-for-bit rule on purpose: above `NX`
//! reflectors `Qr` factors and applies block reflectors (compact WY),
//! which regroup its sums, so there the one-reflector loop is an accuracy
//! oracle. At or below `NX`, `Qr` runs the loop and is held to it bit for
//! bit.
//!
//! GEMM is checked on both `KernelPath`s in one process; SYRK follows the
//! process's `active_path`, so CI runs this file again under
//! `TLR_MICROKERNEL=scalar`. Column-form POTRF leaves its tile
//! unspecified from the failing column on; `factorize`'s diagonal-shift
//! retry, which restores the failing panel's tile from the copy its POTRF
//! kept and factors it plus `εI`, still produces the recorded factor: a
//! line of `tests/dense_goldens.rs`.

use hicma_parsec::linalg::{
    frobenius_norm, gemm, gemm_with_path, potrf_unblocked, relative_diff, syrk_serial, trsm,
    ColPivQr, KernelPath, MatMut, Matrix, Qr, Side, Trans, Uplo,
};
use proptest::prelude::*;

mod old {
    use hicma_parsec::linalg::norms::frobenius_norm_slice;
    use hicma_parsec::linalg::{MatMut, MatRef, Matrix, Trans};

    fn op_dims(t: Trans, m: MatRef<'_>) -> (usize, usize) {
        match t {
            Trans::No => (m.rows(), m.cols()),
            Trans::Yes => (m.cols(), m.rows()),
        }
    }

    /// `qr.rs`'s reflector construction (unchanged; it drives the
    /// reflections below).
    pub fn make_householder(a: &mut Matrix, row: usize, col: usize) -> f64 {
        let m = a.rows();
        let x = &a.col(col)[row..m];
        let alpha = x[0];
        let xnorm = frobenius_norm_slice(&x[1..]);
        if xnorm == 0.0 {
            return 0.0;
        }
        let norm = alpha.hypot(xnorm);
        if norm < 1e-280 {
            return 0.0;
        }
        let beta = -(alpha.signum()) * norm;
        let tau = (beta - alpha) / beta;
        let scale = 1.0 / (alpha - beta);
        let col_slice = &mut a.col_mut(col)[row..m];
        for v in col_slice[1..].iter_mut() {
            *v *= scale;
        }
        col_slice[0] = beta;
        tau
    }

    /// One column, one dot chain.
    #[inline]
    fn reflect_column(v: &[f64], tau: f64, cj: &mut [f64]) {
        let mut w = cj[0];
        for (vi, ci) in v[1..].iter().zip(cj[1..].iter()) {
            w += vi * ci;
        }
        w *= tau;
        cj[0] -= w;
        for (vi, ci) in v[1..].iter().zip(cj[1..].iter_mut()) {
            *ci -= w * vi;
        }
    }

    fn apply_householder_left(a: &mut Matrix, row: usize, col: usize, tau: f64, from_col: usize) {
        if tau == 0.0 {
            return;
        }
        let m = a.rows();
        let n = a.cols();
        let (head, tail) = a.as_mut_slice().split_at_mut((col + 1) * m);
        let v = &head[col * m + row..(col + 1) * m];
        for j in from_col..n {
            let start = (j - col - 1) * m + row;
            reflect_column(v, tau, &mut tail[start..start + m - row]);
        }
    }

    fn apply_stored_reflector(factors: &Matrix, col: usize, tau: f64, target: &mut Matrix) {
        if tau == 0.0 {
            return;
        }
        let m = factors.rows();
        let v = &factors.col(col)[col..m];
        for j in 0..target.cols() {
            let cj = &mut target.col_mut(j)[col..m];
            reflect_column(v, tau, cj);
        }
    }

    /// `Qr::new_in`'s loop, stopped after `kmax` reflectors: on the input
    /// with its columns in pivoted order, also what `ColPivQr` computes.
    pub fn householder(a: &mut Matrix, kmax: usize) -> Vec<f64> {
        let n = a.cols();
        let mut taus = vec![0.0; kmax];
        for (j, tau) in taus.iter_mut().enumerate() {
            *tau = make_householder(a, j, j);
            if j + 1 < n {
                apply_householder_left(a, j, j, *tau, j + 1);
            }
        }
        taus
    }

    /// `Q · target` (reflectors in reverse).
    pub fn apply_q(factors: &Matrix, taus: &[f64], target: &mut Matrix) {
        for j in (0..taus.len()).rev() {
            apply_stored_reflector(factors, j, taus[j], target);
        }
    }

    /// `Qᵀ · target`.
    pub fn apply_qt(factors: &Matrix, taus: &[f64], target: &mut Matrix) {
        for (j, &tau) in taus.iter().enumerate() {
            apply_stored_reflector(factors, j, tau, target);
        }
    }

    /// Dot form: row `j` of `L` against itself for the pivot, against row
    /// `i` below it for the column.
    pub fn potrf_unblocked(mut a: MatMut<'_>) -> Result<(), usize> {
        let n = a.rows();
        for j in 0..n {
            let mut d = a[(j, j)];
            for p in 0..j {
                let v = a[(j, p)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(j);
            }
            let d = d.sqrt();
            a[(j, j)] = d;
            for i in j + 1..n {
                let mut v = a[(i, j)];
                for p in 0..j {
                    v -= a[(i, p)] * a[(j, p)];
                }
                a[(i, j)] = v / d;
            }
        }
        Ok(())
    }

    /// `trsm(Left, Lower, trans, alpha, a, b)`: the scaling, then one
    /// substitution per column of `b` with row-wise dots.
    pub fn trsm_left(trans: Trans, alpha: f64, a: MatRef<'_>, mut b: MatMut<'_>) {
        let (m, n) = (b.rows(), b.cols());
        if alpha != 1.0 {
            for j in 0..n {
                for v in b.col_mut(j) {
                    *v *= alpha;
                }
            }
        }
        match trans {
            Trans::No => {
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
            Trans::Yes => {
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
        }
    }

    /// The packed GEMM as `KernelPath::Scalar` runs it, row tails
    /// included: `kern_scalar`'s per-element sequence with the packing
    /// undone (`KC` blocking stores and reloads the exact running value).
    pub fn gemm(
        ta: Trans,
        tb: Trans,
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        beta: f64,
        mut c: MatMut<'_>,
    ) {
        let k = op_dims(ta, a).1;
        for j in 0..c.cols() {
            for ii in 0..c.rows() {
                let mut v = if beta == 0.0 { 0.0 } else { beta * c[(ii, j)] };
                for p in 0..k {
                    let ap = match ta {
                        Trans::No => a[(ii, p)],
                        Trans::Yes => a[(p, ii)],
                    };
                    let wv = alpha
                        * match tb {
                            Trans::No => b[(p, j)],
                            Trans::Yes => b[(j, p)],
                        };
                    v = ap.mul_add(wv, v);
                }
                c[(ii, j)] = v;
            }
        }
    }

    /// The SYRK diagonal head, one column: the packed path's per-element
    /// contract, which is also what every element below the head gets.
    pub fn syrk_head_col(
        trans: Trans,
        alpha: f64,
        a: MatRef<'_>,
        beta: f64,
        j: usize,
        cseg: &mut [f64],
    ) {
        let k = op_dims(trans, a).1;
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
}

/// Deterministic entries in `[-1, 1)`.
fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// `Qr`'s crossover: a factorization of at most this many reflectors runs
/// the one-reflector loop, above it block reflectors.
const NX: usize = 32;

/// `‖Q·R − A‖_F / ‖A‖_F` and `‖QᵀQ − I‖_F`.
fn qr_quality(q: &Matrix, r: &Matrix, a: &Matrix) -> (f64, f64) {
    let mut residual = a.clone();
    gemm(Trans::No, Trans::No, 1.0, q, r, -1.0, &mut residual);
    let mut gram = Matrix::identity(q.cols());
    gemm(Trans::Yes, Trans::No, 1.0, q, q, -1.0, &mut gram);
    (frobenius_norm(&residual) / frobenius_norm(a), frobenius_norm(&gram))
}

/// The bit patterns, so that a NaN compares equal to itself.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn trans(sel: usize) -> Trans {
    if sel == 1 {
        Trans::Yes
    } else {
        Trans::No
    }
}

/// `β ∈ {0, 1, other}`: the zero fill, the load-only case and a scaling.
fn beta(sel: usize, raw: f64) -> f64 {
    [0.0, 1.0, raw][sel]
}

fn shape(t: Trans, rows: usize, cols: usize) -> (usize, usize) {
    match t {
        Trans::No => (rows, cols),
        Trans::Yes => (cols, rows),
    }
}

/// A host one to three rows taller than `rows × cols`, so the block under
/// test sits at a row offset with a stride that is not its height.
fn host(rows: usize, cols: usize, off: usize, seed: u64) -> Matrix {
    rand_mat(rows + off + 1, cols, seed)
}

fn block(h: &mut Matrix, off: usize, rows: usize, cols: usize) -> MatMut<'_> {
    h.as_mut().block(off, 0, rows, cols)
}

/// `A·Aᵀ/n + I`: SPD and well conditioned.
fn spd(n: usize, seed: u64) -> Matrix {
    let x = rand_mat(n, n, seed);
    Matrix::from_fn(n, n, |i, j| {
        let dot: f64 = (0..n).map(|p| x[(i, p)] * x[(j, p)]).sum();
        dot / n as f64 + if i == j { 1.0 } else { 0.0 }
    })
}

fn lower(n: usize, seed: u64) -> Matrix {
    let mut l = rand_mat(n, n, seed);
    for j in 0..n {
        l[(j, j)] = 2.0 + l[(j, j)].abs();
    }
    l
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both paths of the packed GEMM against the scalar order: row tails
    /// (`m` not a multiple of 8), column tails, `k` on both sides of
    /// `KC = 256`, every transposition and `β ∈ {0, 1, other}`, into a
    /// block at a row offset.
    #[test]
    fn packed_gemm_keeps_the_scalar_order(
        m in 1usize..160,
        n in 1usize..160,
        k_small in 1usize..64,
        k_large in 250usize..300,
        k_sel in 0usize..2,
        ta in 0usize..2,
        tb in 0usize..2,
        alpha in -2.0f64..2.0,
        beta_sel in 0usize..3,
        beta_raw in -1.5f64..1.5,
        off in 0usize..3,
        seed in 0u64..1 << 20,
    ) {
        let (ta, tb, beta) = (trans(ta), trans(tb), beta(beta_sel, beta_raw));
        let k = [k_small, k_large][k_sel];
        let (ar, ac) = shape(ta, m, k);
        let (br, bc) = shape(tb, k, n);
        let (a, b) = (rand_mat(ar, ac, seed), rand_mat(br, bc, seed ^ 0xdead));
        let c0 = host(m, n, off, seed ^ 0xbeef);
        let mut expect = c0.clone();
        old::gemm(ta, tb, alpha, a.as_ref(), b.as_ref(), beta, block(&mut expect, off, m, n));
        for path in [KernelPath::Simd, KernelPath::Scalar] {
            let mut c = c0.clone();
            gemm_with_path(path, ta, tb, alpha, &a, &b, beta, block(&mut c, off, m, n));
            let (got, want) = (bits(c.as_slice()), bits(expect.as_slice()));
            prop_assert_eq!(got, want, "{path:?} m={m} n={n} k={k}");
        }
    }

    /// SYRK on the packed route: every lower element — diagonal block or
    /// body — is the head column's sequence, and the strict upper
    /// triangle is never written.
    #[test]
    fn syrk_keeps_the_head_order(
        n in 8usize..160,
        k in 8usize..300,
        tr in 0usize..2,
        alpha in -2.0f64..2.0,
        beta_sel in 0usize..3,
        beta_raw in -1.5f64..1.5,
        off in 0usize..3,
        seed in 0u64..1 << 20,
    ) {
        // The packed gate (`microkernel::packed_worthwhile`); below it the
        // column sweep, which did not change, runs instead.
        if n * n * k < 4096 {
            return Ok(());
        }
        let (tr, beta) = (trans(tr), beta(beta_sel, beta_raw));
        let (ar, ac) = shape(tr, n, k);
        let a = rand_mat(ar, ac, seed);
        let c0 = host(n, n, off, seed ^ 0xbeef);
        let mut expect = c0.clone();
        {
            let mut e = block(&mut expect, off, n, n);
            for j in 0..n {
                old::syrk_head_col(tr, alpha, a.as_ref(), beta, j, &mut e.col_mut(j)[j..]);
            }
        }
        let mut c = c0.clone();
        syrk_serial(tr, alpha, &a, beta, block(&mut c, off, n, n));
        prop_assert_eq!(bits(c.as_slice()), bits(expect.as_slice()), "n={n} k={k} {tr:?}");
    }

    /// Every Householder entry point of `Qr` against the one-column
    /// reflection, on tall and wide inputs, with one column optionally at
    /// subnormal scale (its reflector has τ = 0). Up to `Qr`'s crossover
    /// of `NX` reflectors bit for bit. Above it `Qr` applies block
    /// reflectors, which regroup the sums, and is held to the loop within
    /// rounding: its residual `‖Q·R − A‖_F / ‖A‖_F` and loss of
    /// orthogonality `‖QᵀQ − I‖_F` within `c·u` of the loop's, and
    /// `apply_q`, `apply_qt` and `q_thin` within 1e-13 of the loop's — on
    /// targets narrow enough to take a block's reflectors one at a time
    /// and wide enough for its GEMMs.
    #[test]
    fn qr_keeps_the_column_order(
        m in 1usize..160,
        n in 1usize..160,
        p in 1usize..40,
        tiny in 0usize..160,
        seed in 0u64..1 << 20,
    ) {
        let mut a = rand_mat(m, n, seed);
        if tiny < n {
            for v in a.col_mut(tiny) {
                *v *= 1e-300;
            }
        }
        let k = m.min(n);
        let mut factors = a.clone();
        let taus = old::householder(&mut factors, k);
        let qr = Qr::new_in(a.clone(), Vec::new());

        let x = rand_mat(k, p, seed ^ 1);
        let mut qx = Matrix::zeros(0, 0);
        qr.apply_q(&x, &mut qx);
        let mut expect_qx = Matrix::zeros(m, p);
        expect_qx.set_submatrix(0, 0, &x);
        old::apply_q(&factors, &taus, &mut expect_qx);

        let t0 = rand_mat(m, p, seed ^ 2);
        let (mut t, mut expect_t) = (t0.clone(), t0);
        qr.apply_qt(&mut t);
        old::apply_qt(&factors, &taus, &mut expect_t);

        let mut expect_q = Matrix::zeros(m, k);
        for j in 0..k {
            expect_q[(j, j)] = 1.0;
        }
        old::apply_q(&factors, &taus, &mut expect_q);
        let q = qr.q_thin();

        if k <= NX {
            prop_assert_eq!(bits(qx.as_slice()), bits(expect_qx.as_slice()));
            prop_assert_eq!(bits(t.as_slice()), bits(expect_t.as_slice()));
            prop_assert_eq!(bits(q.as_slice()), bits(expect_q.as_slice()));
            let (f, t) = qr.into_parts();
            prop_assert_eq!(bits(f.as_slice()), bits(factors.as_slice()), "m={m} n={n}");
            prop_assert_eq!(bits(&t), bits(&taus));
            return Ok(());
        }
        let products = [("apply_q", &qx, &expect_qx), ("apply_qt", &t, &expect_t), ("q_thin", &q, &expect_q)];
        for (name, got, want) in products {
            let diff = relative_diff(got, want);
            prop_assert!(diff < 1e-13, "{name} m={m} n={n} p={p}: {diff:e} from the loop");
        }
        let r_loop = Matrix::from_fn(k, n, |i, j| if i <= j { factors[(i, j)] } else { 0.0 });
        let (res, orth) = qr_quality(&q, &qr.r(), &a);
        let (res_loop, orth_loop) = qr_quality(&expect_q, &r_loop, &a);
        // c = m + n; the two differ by at most ~7·u on these shapes.
        let bound = (m + n) as f64 * f64::EPSILON;
        prop_assert!((res - res_loop).abs() <= bound, "m={m} n={n}: residual {res:e}, loop {res_loop:e}");
        prop_assert!((orth - orth_loop).abs() <= bound, "m={m} n={n}: orthogonality {orth:e}, loop {orth_loop:e}");
        let (_, t) = qr.into_parts();
        prop_assert_eq!(t.len(), k);
    }

    /// `ColPivQr` reflects like the unpivoted loop run on its input with
    /// the columns already in their final pivoted order, stopped at the
    /// revealed rank; `q_thin` goes through `apply_q_in_place`.
    #[test]
    fn pivoted_qr_keeps_the_column_order(
        m in 1usize..160,
        n in 1usize..160,
        decay in 0.3f64..0.95,
        tol_exp in 2i32..14,
        seed in 0u64..1 << 20,
    ) {
        let r = rand_mat(m, n, seed);
        let a = Matrix::from_fn(m, n, |i, j| r[(i, j)] * decay.powi(j as i32));
        let f = ColPivQr::with_tolerance(a.clone(), 10f64.powi(-tol_exp), usize::MAX);
        let mut factors = Matrix::from_fn(m, n, |i, j| a[(i, f.perm()[j])]);
        let taus = old::householder(&mut factors, f.rank());
        prop_assert_eq!(bits(f.factors().as_slice()), bits(factors.as_slice()), "m={m} n={n}");
        let mut expect_q = Matrix::zeros(m, f.rank());
        for j in 0..f.rank() {
            expect_q[(j, j)] = 1.0;
        }
        old::apply_q(&factors, &taus, &mut expect_q);
        prop_assert_eq!(bits(f.q_thin().as_slice()), bits(expect_q.as_slice()));
    }

    /// Column-form POTRF against the dot form, factoring or failing: a
    /// failure reports the same pivot, with the columns before it equal.
    #[test]
    fn potrf_keeps_the_dot_order(
        n in 1usize..160,
        poison in 0usize..320,
        off in 0usize..3,
        seed in 0u64..1 << 20,
    ) {
        let mut a0 = host(n, n, off, seed);
        let s = spd(n, seed ^ 3);
        a0.set_submatrix(off, 0, &s);
        if poison < n {
            a0[(off + poison, poison)] -= 2.0 * n as f64;
        }
        let mut expect = a0.clone();
        let old_result = old::potrf_unblocked(block(&mut expect, off, n, n));
        let mut a = a0.clone();
        let new_result = potrf_unblocked(block(&mut a, off, n, n)).map_err(|e| e.pivot);
        prop_assert_eq!(new_result, old_result);
        match old_result {
            Ok(()) => prop_assert_eq!(bits(a.as_slice()), bits(expect.as_slice()), "n={n}"),
            Err(pivot) => {
                for j in 0..pivot {
                    let (got, want) = (bits(a.col(j)), bits(expect.col(j)));
                    prop_assert_eq!(got, want, "column {j} before pivot {pivot}");
                }
            }
        }
    }

    /// Both left solves against the row-wise substitution, at widths of
    /// every residue mod 4 and α ∈ {1, other}, on a block at a row offset.
    #[test]
    fn left_trsm_keeps_the_substitution_order(
        m in 1usize..160,
        quads in 0usize..12,
        rem in 0usize..4,
        tr in 0usize..2,
        alpha_sel in 0usize..2,
        alpha_raw in -2.0f64..2.0,
        off in 0usize..3,
        seed in 0u64..1 << 20,
    ) {
        let (tr, n) = (trans(tr), 4 * quads + rem);
        let alpha = [1.0, alpha_raw][alpha_sel];
        let l = lower(m, seed);
        let b0 = host(m, n, off, seed ^ 5);
        let mut expect = b0.clone();
        old::trsm_left(tr, alpha, l.as_ref(), block(&mut expect, off, m, n));
        let mut b = b0.clone();
        trsm(Side::Left, Uplo::Lower, tr, alpha, &l, block(&mut b, off, m, n));
        prop_assert_eq!(bits(b.as_slice()), bits(expect.as_slice()), "m={m} n={n} {tr:?}");
    }
}
