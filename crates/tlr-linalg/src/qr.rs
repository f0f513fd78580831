//! Householder QR and rank-revealing QR with column pivoting.
//!
//! [`ColPivQr`] is the engine of TLR compression: it factors a tile
//! `A·P = Q·R` and stops as soon as the Frobenius norm of the not-yet-
//! factored trailing block drops below the accuracy threshold, yielding the
//! numerical rank at that threshold. [`Qr`] (unpivoted, thin) is used by the
//! low-rank recompression path where the inputs are tall-and-skinny.
//!
//! # Block reflectors
//!
//! Above `NX` reflectors, [`Qr`] works in panels of `NB` columns, as
//! LAPACK's `dgeqrf` / `dormqr` do. Each panel is factored by the
//! one-reflector loop; its reflectors `H_0 … H_{nb−1}` are then aggregated
//! into the compact-WY form `I − V·T·Vᵀ` (`T` upper triangular, formed
//! from `VᵀV` as `dlarft` does), and everything to the right of the panel
//! — the trailing columns while factoring, the target of `apply_q`,
//! `apply_qt` and `q_thin` — is updated by GEMMs:
//! `C −= V·(op(T)·(Vᵀ·C))` (`dlarfb`). `V`'s unit lower triangle is a
//! `NB × NB` stack copy, so `V·X` and `Vᵀ·X` are each two GEMMs, on that
//! copy and on the rest of the panel in place. The `T` factors live in
//! the `taus` buffer behind the `τ`s, so a caller that recycles it through
//! [`Qr::new_in`] / [`Qr::into_parts`] recycles them too; the
//! `Vᵀ·C` scratch is a fixed `NB × STRIP` stack block per column strip.
//!
//! At or below `NX` reflectors forming `T` costs more than the GEMMs save
//! (LAPACK's `nx` crossover), and `Qr` runs the reflector loop alone, bit
//! for bit the loop it always ran. Above it the block form regroups each
//! element's sums, so its bits differ from the loop's by rounding.

use crate::blas3::{gemm_serial, Trans};
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::norms::frobenius_norm_slice;

/// Reflectors per block reflector: the panel width, and the order of `T`.
const NB: usize = 16;

/// The crossover: a factorization of at most `NX` reflectors is factored
/// and applied one reflector at a time.
const NX: usize = 32;

/// Columns of the target one block-reflector pass updates: the width of
/// the stack blocks that hold `Vᵀ·C` and `op(T)·Vᵀ·C`.
const STRIP: usize = 64;

/// A target of fewer columns takes a block's reflectors one at a time.
const MIN_COLS: usize = 16;

/// Thin Householder QR factorization `A = Q·R` of an `m × n` matrix
/// (`m ≥ n` is not required; the factor sizes follow `k = min(m, n)`).
pub struct Qr {
    /// Householder vectors stored below the diagonal; `R` on and above it.
    factors: Matrix,
    /// The `k` scalar `tau` coefficients of the Householder reflectors;
    /// above the crossover, one `NB × NB` slot per panel follows them,
    /// holding that panel's `T` (upper triangular, zero below).
    taus: Vec<f64>,
}

impl Qr {
    /// Compute the factorization. `a` is consumed as workspace.
    pub fn new(a: Matrix) -> Self {
        Self::new_in(a, Vec::new())
    }

    /// Like [`Qr::new`], but recycles `taus` as the coefficient buffer
    /// (cleared and refilled; above the crossover it also holds the
    /// block reflectors' `T` factors). Together with [`Qr::into_parts`]
    /// this lets a hot caller run repeated factorizations with zero heap
    /// traffic.
    pub fn new_in(mut a: Matrix, mut taus: Vec<f64>) -> Self {
        let m = a.rows();
        let n = a.cols();
        let k = m.min(n);
        taus.clear();
        if k <= NX {
            taus.resize(k, 0.0);
            for (j, tau) in taus.iter_mut().enumerate() {
                *tau = make_householder(&mut a, j, j);
                apply_householder_left(&mut a, j, *tau, n);
            }
            return Self { factors: a, taus };
        }
        taus.resize(k + k.div_ceil(NB) * NB * NB, 0.0);
        let (tau, ts) = taus.split_at_mut(k);
        let mut scratch = BlockScratch::new();
        let panels = tau.chunks_mut(NB).zip(ts.chunks_exact_mut(NB * NB));
        for (j0, (tau, t)) in (0..k).step_by(NB).zip(panels) {
            let jb = tau.len();
            // The panel, by the one-reflector loop on its own columns.
            for (j, tau) in (j0..).zip(tau.iter_mut()) {
                *tau = make_householder(&mut a, j, j);
                apply_householder_left(&mut a, j, *tau, j0 + jb);
            }
            let (panel, trailing) = a.as_mut().split_at_col(j0 + jb);
            let v = panel.as_ref().block(j0, j0, m - j0, jb);
            form_t(v, tau, &mut t[..jb * jb]);
            let t = MatRef::from_slice(&t[..jb * jb], jb, jb);
            apply_block(v, t, Trans::Yes, trailing.subrows(j0..m), &mut scratch);
        }
        Self { factors: a, taus }
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.factors.rows()
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.factors.cols()
    }

    /// Number of Householder reflectors, `k = min(m, n)` — the inner
    /// dimension of the thin factorization.
    pub fn k(&self) -> usize {
        self.factors.rows().min(self.factors.cols())
    }

    /// The `k × n` upper-trapezoidal factor `R`, `k = min(m, n)`.
    /// Degenerate inputs (`k == 0`) yield an empty `0 × n` factor.
    pub fn r(&self) -> Matrix {
        let mut r = Matrix::zeros(0, 0);
        self.r_into(&mut r);
        r
    }

    /// Write `R` into `out` (reshaped in place to `k × n`, allocation-free
    /// once `out` has grown to size).
    pub fn r_into(&self, out: &mut Matrix) {
        let k = self.k();
        let n = self.factors.cols();
        out.reset(k, n);
        for j in 0..n {
            for i in 0..k.min(j + 1) {
                out[(i, j)] = self.factors[(i, j)];
            }
        }
    }

    /// The thin orthogonal factor `Q` (`m × k`), formed explicitly.
    ///
    /// Forming `Q` costs `O(m·k²)`; callers that only need `Q · X` for a
    /// small `X` should use [`Qr::apply_q`] instead, which skips this
    /// side computation entirely.
    pub fn q_thin(&self) -> Matrix {
        let m = self.factors.rows();
        let k = self.k();
        // Start from the first k columns of I and apply reflectors in reverse.
        let mut q = Matrix::zeros(m, k);
        for j in 0..k {
            q[(j, j)] = 1.0;
        }
        self.q_times(&mut q);
        q
    }

    /// `out := Q_thin · x` by implicit application of the stored
    /// Householder reflectors — `Q` is never formed.
    ///
    /// `x` must have `k = min(m, n)` rows; `out` is reshaped in place to
    /// `m × x.cols()`. Cost is `O(m·k·p)` for `p = x.cols()` versus
    /// `O(m·k²) + O(m·k·p)` for `q_thin()` + GEMM, with no `m × k`
    /// temporary — this is the Q-free path of the TLR recompression
    /// engine. Allocation-free once `out` has grown to size.
    pub fn apply_q(&self, x: &Matrix, out: &mut Matrix) {
        let m = self.factors.rows();
        let k = self.k();
        assert_eq!(x.rows(), k, "apply_q: x must have min(m, n) rows");
        let p = x.cols();
        // out = [x; 0], then Q·out = H_0 · … · H_{k−1} · [x; 0].
        out.reset(m, p);
        for j in 0..p {
            out.col_mut(j)[..k].copy_from_slice(x.col(j));
        }
        self.q_times(out);
    }

    /// Apply `Qᵀ` to `target` in place (`target` is `m × p`); on return
    /// the top `k` rows hold `Q_thinᵀ · target` (the rows below are the
    /// orthogonal-complement part). Allocation-free.
    pub fn apply_qt(&self, target: &mut Matrix) {
        assert_eq!(
            target.rows(),
            self.factors.rows(),
            "apply_qt: target must have m rows"
        );
        let k = self.k();
        // Qᵀ = H_{k−1} · … · H_0 (each reflector is symmetric); a block's
        // transpose is `I − V·Tᵀ·Vᵀ`.
        if k <= NX {
            for j in 0..k {
                apply_stored_reflector(&self.factors, j, self.taus[j], target);
            }
            return;
        }
        let mut scratch = BlockScratch::new();
        for (j0, v, t) in self.blocks() {
            let c = target.as_mut().subrows(j0..j0 + v.rows());
            apply_block(v, t, Trans::Yes, c, &mut scratch);
        }
    }

    /// Decompose into the `(factors, taus)` buffers so a workspace can
    /// recycle them (inverse of [`Qr::new_in`]). `taus` holds the `k`
    /// coefficients; the capacity the `T` factors used stays with it.
    pub fn into_parts(self) -> (Matrix, Vec<f64>) {
        let k = self.k();
        let mut taus = self.taus;
        taus.truncate(k);
        (self.factors, taus)
    }

    /// `target := Q · target` for an `m`-row `target`: the reflectors (or
    /// the blocks) in reverse order.
    fn q_times(&self, target: &mut Matrix) {
        let k = self.k();
        if k <= NX {
            for j in (0..k).rev() {
                apply_stored_reflector(&self.factors, j, self.taus[j], target);
            }
            return;
        }
        let mut scratch = BlockScratch::new();
        for (j0, v, t) in self.blocks().rev() {
            let c = target.as_mut().subrows(j0..j0 + v.rows());
            apply_block(v, t, Trans::No, c, &mut scratch);
        }
    }

    /// Above the crossover: each panel's first column, its reflectors
    /// (rows `j0..m` of its columns of `factors`) and its `T`.
    fn blocks(&self) -> impl DoubleEndedIterator<Item = (usize, MatRef<'_>, MatRef<'_>)> {
        let (m, k) = (self.factors.rows(), self.k());
        let ts = self.taus[k..].chunks_exact(NB * NB);
        (0..k).step_by(NB).zip(ts).map(move |(j0, t)| {
            let jb = NB.min(k - j0);
            let v = self.factors.as_ref().block(j0, j0, m - j0, jb);
            (j0, v, MatRef::from_slice(&t[..jb * jb], jb, jb))
        })
    }
}

/// `T` of the panel `v` (its reflectors below the diagonal, `R` on and
/// above it) with coefficients `tau`, written column-major into `t`
/// (`jb × jb`, zero below the diagonal on entry): the upper triangle with
/// `H_0 · … · H_{jb−1} = I − V·T·Vᵀ`. LAPACK's `dlarft`, with every
/// `vᵢᵀ·vⱼ` read from one Gram matrix `VᵀV`:
/// `T[i, i] = τᵢ` and `T[:i, i] = −τᵢ · T[:i, :i] · (VᵀV)[:i, i]`.
fn form_t(v: MatRef<'_>, tau: &[f64], t: &mut [f64]) {
    let jb = v.cols();
    let mut gram = [0.0; NB * NB];
    let mut g = MatMut::from_slice(&mut gram[..jb * jb], jb, jb);
    let (v1, v2) = (UnitLower::of(v), v.subrows(jb..v.rows()));
    v_trans_times(&v1, v2, v1.view(), v2, g.as_mut());
    let mut col = [0.0; NB];
    for i in 0..jb {
        for (s, c) in col[..i].iter_mut().enumerate() {
            *c = -tau[i] * g[(s, i)];
        }
        // T[r, i] = Σ_{s=r}^{i−1} T[r, s]·col[s]; column i is new, the
        // columns it reads are final.
        for r in 0..i {
            t[r + i * jb] = (r..i).map(|s| t[r + s * jb] * col[s]).sum();
        }
        t[i + i * jb] = tau[i];
    }
}

/// The unit lower triangle of a panel's top `jb × jb` block, with the
/// ones and zeros its storage does not hold (`R` sits there), on the stack.
struct UnitLower {
    data: [f64; NB * NB],
    jb: usize,
}

impl UnitLower {
    fn of(v: MatRef<'_>) -> Self {
        let jb = v.cols();
        let mut data = [0.0; NB * NB];
        for j in 0..jb {
            let col = &mut data[j * jb..(j + 1) * jb];
            col[j] = 1.0;
            col[j + 1..].copy_from_slice(&v.col(j)[j + 1..jb]);
        }
        Self { data, jb }
    }

    fn view(&self) -> MatRef<'_> {
        MatRef::from_slice(&self.data[..self.jb * self.jb], self.jb, self.jb)
    }
}

/// `w := Vᵀ·C` for `V = [v1; v2]` and `C = [c1; c2]` split after the
/// panel's first `jb` rows.
fn v_trans_times(
    v1: &UnitLower,
    v2: MatRef<'_>,
    c1: MatRef<'_>,
    c2: MatRef<'_>,
    mut w: MatMut<'_>,
) {
    gemm_serial(Trans::Yes, Trans::No, 1.0, v1.view(), c1, 0.0, w.as_mut());
    if v2.rows() > 0 {
        gemm_serial(Trans::Yes, Trans::No, 1.0, v2, c2, 1.0, w);
    }
}

/// The stack blocks `W = Vᵀ·C` and `W' = op(T)·W` of [`apply_block`], one
/// `STRIP`-column strip at a time; made once per factorization or product
/// with `Q`, not per block.
struct BlockScratch {
    w: [f64; NB * STRIP],
    wt: [f64; NB * STRIP],
}

impl BlockScratch {
    fn new() -> Self {
        Self { w: [0.0; NB * STRIP], wt: [0.0; NB * STRIP] }
    }
}

/// `C := (I − V·op(T)·Vᵀ)·C` for the panel `v` (`r × jb`, reflectors below
/// its diagonal) and a target `c` of `r` rows: with `op(T) = T` this
/// applies `H_0 · … · H_{jb−1}`, with `Tᵀ` its transpose. LAPACK's
/// `dlarfb`: `W = Vᵀ·C`, `W' = op(T)·W`, `C −= V·W'`, each a GEMM (two for
/// a product with `V`, whose unit triangle is a stack copy), over strips of
/// `STRIP` columns. A target narrower than `MIN_COLS` does not pay for
/// the GEMMs' packing: it takes the reflectors one at a time, `τᵢ` read
/// from `T`'s diagonal.
fn apply_block(
    v: MatRef<'_>,
    t: MatRef<'_>,
    op_t: Trans,
    mut c: MatMut<'_>,
    scratch: &mut BlockScratch,
) {
    let (r, jb) = (v.rows(), v.cols());
    if c.cols() < MIN_COLS {
        let mut reflect_i = |i: usize| reflect(&v.col(i)[i..], t[(i, i)], c.as_mut().subrows(i..r));
        match op_t {
            Trans::No => (0..jb).rev().for_each(&mut reflect_i),
            Trans::Yes => (0..jb).for_each(&mut reflect_i),
        }
        return;
    }
    let v1 = UnitLower::of(v);
    let v2 = v.subrows(jb..r);
    for strip in c.col_chunks(STRIP) {
        let p = strip.cols();
        let mut w = MatMut::from_slice(&mut scratch.w[..jb * p], jb, p);
        let mut wt = MatMut::from_slice(&mut scratch.wt[..jb * p], jb, p);
        let (c1, c2) = strip.split_at_row(jb);
        v_trans_times(&v1, v2, c1.as_ref(), c2.as_ref(), w.as_mut());
        gemm_serial(op_t, Trans::No, 1.0, t, w.as_ref(), 0.0, wt.as_mut());
        if v2.rows() > 0 {
            gemm_serial(Trans::No, Trans::No, -1.0, v2, wt.as_ref(), 1.0, c2);
        }
        gemm_serial(Trans::No, Trans::No, -1.0, v1.view(), wt.as_ref(), 1.0, c1);
    }
}

/// Build a Householder reflector for column `col` of `a`, acting on rows
/// `row..m`; returns `tau`. On exit the column holds `[beta, v_2.. v_m]`
/// with `v_1 = 1` implicit.
fn make_householder(a: &mut Matrix, row: usize, col: usize) -> f64 {
    let m = a.rows();
    let x = &a.col(col)[row..m];
    let alpha = x[0];
    let xnorm = frobenius_norm_slice(&x[1..]);
    if xnorm == 0.0 {
        return 0.0; // already upper-triangular in this column
    }
    // `hypot` avoids the underflow of alpha² + xnorm² for columns of
    // subnormal-scale entries (Gaussian kernel tails reach 1e-170 and
    // below); columns too tiny for a stable reflector are skipped — the
    // residue they leave in R is orders of magnitude below any
    // meaningful truncation threshold.
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

/// Apply the reflector `I − τ·v·vᵀ` held in slice `v` (with `v[0]`
/// implicit 1 — the slot stores β) to every column of `block`, which has
/// `v.len()` rows. This is the one Householder application: every QR entry
/// point reaches it.
///
/// Column `c` gets `w = c[0] + Σ_{i≥1} v[i]·c[i]` summed in ascending `i`,
/// `w *= τ`, then `c[0] −= w` and `c[i] −= w·v[i]`. Columns go four at a
/// time, their four dot chains interleaved: the chains are independent, so
/// the core overlaps them, and each is exactly the one-column chain.
fn reflect(v: &[f64], tau: f64, block: MatMut<'_>) {
    if tau == 0.0 {
        return;
    }
    debug_assert_eq!(block.rows(), v.len());
    block.by_fours(|c4| reflect_cols(v, tau, c4), |c| reflect_cols(v, tau, [c]));
}

/// [`reflect`] on `N` columns at once.
#[inline]
fn reflect_cols<const N: usize>(v: &[f64], tau: f64, c: [&mut [f64]; N]) {
    let v = &v[1..];
    let mut w: [f64; N] = std::array::from_fn(|l| c[l][0]);
    let rest: [&[f64]; N] = std::array::from_fn(|l| &c[l][1..=v.len()]);
    for (i, &vi) in v.iter().enumerate() {
        for l in 0..N {
            w[l] += vi * rest[l][i];
        }
    }
    for (l, cl) in c.into_iter().enumerate() {
        let wl = w[l] * tau;
        cl[0] -= wl;
        for (ci, &vi) in cl[1..].iter_mut().zip(v) {
            *ci -= wl * vi;
        }
    }
}

/// Apply the reflector stored in column `col` (rows `col..`) of `a` to
/// columns `col + 1..end` of `a` itself (the classic in-place panel
/// update). The reflector column and the updated columns are disjoint
/// views of `a`, so no copy of `v` is taken.
fn apply_householder_left(a: &mut Matrix, col: usize, tau: f64, end: usize) {
    let m = a.rows();
    let (head, tail) = a.as_mut().split_at_col(col + 1);
    reflect(&head.as_ref().col(col)[col..], tau, tail.block(col, 0, m - col, end - col - 1));
}

/// Apply the reflector stored in `factors` column `col` to the rows
/// `col..` of every column of `target` (used when forming or implicitly
/// applying `Q`). Allocation-free: `factors` and `target` are distinct.
fn apply_stored_reflector(factors: &Matrix, col: usize, tau: f64, target: &mut Matrix) {
    let m = factors.rows();
    reflect(&factors.col(col)[col..m], tau, target.as_mut().subrows(col..m));
}

/// Rank-revealing QR with column pivoting, truncated at an absolute
/// Frobenius-norm threshold.
///
/// Factors `A·P ≈ Q_k · R_k` where `k` is the smallest prefix such that the
/// trailing (unfactored) block has `‖·‖_F ≤ tol`. `k == 0` means the whole
/// tile is below the threshold (a **null** tile in TLR terms).
///
/// The factorization is resumable: [`ColPivQr::unfactored_in`] takes the
/// column norms and stops at rank 0, [`ColPivQr::advance`] eliminates
/// columns until the threshold or a rank cap is met. Callers that only
/// need the result use [`ColPivQr::with_tolerance`]; callers that must
/// look at the input between the two steps (tile compression deciding
/// `Null` before it copies the tile) drive them apart.
pub struct ColPivQr {
    factors: Matrix,
    scratch: ColPivScratch,
    rank: usize,
}

/// The index and coefficient buffers of a [`ColPivQr`], recycled across
/// factorizations by [`ColPivQr::unfactored_in`] /
/// [`ColPivQr::into_parts`] (the pivoted counterpart of the `taus`
/// vector [`Qr::new_in`] takes).
#[derive(Default)]
pub struct ColPivScratch {
    taus: Vec<f64>,
    /// `perm[j]` = original column index now in position `j`.
    perm: Vec<usize>,
    /// Running squared column norms of the trailing block.
    colnorm2: Vec<f64>,
    /// Reference norms for the downdating-accuracy guard.
    colnorm2_ref: Vec<f64>,
}

impl ColPivScratch {
    /// Total elements retained across the buffers — the footprint an
    /// arena reports as its high-water mark.
    pub fn retained_len(&self) -> usize {
        self.taus.capacity()
            + self.perm.capacity()
            + self.colnorm2.capacity()
            + self.colnorm2_ref.capacity()
    }
}

impl ColPivQr {
    /// Factor `a` with column pivoting, stopping at absolute tolerance `tol`
    /// or at `max_rank` columns, whichever comes first.
    ///
    /// `max_rank = usize::MAX` disables the rank cap.
    pub fn with_tolerance(a: Matrix, tol: f64, max_rank: usize) -> Self {
        let mut f = Self::unfactored_in(a, ColPivScratch::default());
        f.advance(tol, max_rank);
        f
    }

    /// Take `a` and its column norms and eliminate nothing yet
    /// (`rank() == 0`, [`ColPivQr::factors`] is still `a`). `scratch` is
    /// cleared and refilled, so a hot caller factors repeatedly with no
    /// heap traffic once the buffers have grown to size.
    pub fn unfactored_in(a: Matrix, mut scratch: ColPivScratch) -> Self {
        let n = a.cols();
        scratch.taus.clear();
        scratch.perm.clear();
        scratch.perm.extend(0..n);
        scratch.colnorm2.clear();
        scratch.colnorm2.extend((0..n).map(|j| {
            let s = frobenius_norm_slice(a.col(j));
            s * s
        }));
        scratch.colnorm2_ref.clear();
        scratch.colnorm2_ref.extend_from_slice(&scratch.colnorm2);
        Self { factors: a, scratch, rank: 0 }
    }

    /// Is the running estimate of the unfactored block's Frobenius norm
    /// `≤ tol`? This is the stopping test of [`ColPivQr::advance`]; at
    /// rank 0 it says whether the whole input is a null tile. A `NaN`
    /// estimate (a `NaN` entry, or two infinities in one column) is
    /// never below.
    pub fn trailing_below(&self, tol: f64) -> bool {
        let trailing2: f64 = self.scratch.colnorm2[self.rank..].iter().sum();
        // Clamp a rounding-negative sum to 0; `f64::max` would also turn
        // a `NaN` into 0.
        let trailing2 = if trailing2 < 0.0 { 0.0 } else { trailing2 };
        trailing2.sqrt() <= tol
    }

    /// Eliminate pivoted columns until [`ColPivQr::trailing_below`]`(tol)`
    /// holds or `max_rank` columns are factored.
    pub fn advance(&mut self, tol: f64, max_rank: usize) {
        let m = self.factors.rows();
        let n = self.factors.cols();
        let kmax = m.min(n).min(max_rank);
        while self.rank < kmax {
            if self.trailing_below(tol) {
                break;
            }
            let rank = self.rank;
            let a = &mut self.factors;
            let ColPivScratch { taus, perm, colnorm2, colnorm2_ref } = &mut self.scratch;
            // Pivot: bring the largest remaining column to position `rank`.
            let (jmax, _) = colnorm2[rank..]
                .iter()
                .enumerate()
                .fold((0, f64::MIN), |(bj, bv), (j, &v)| if v > bv { (j, v) } else { (bj, bv) });
            let jmax = rank + jmax;
            if jmax != rank {
                let (c1, c2) = a.two_cols_mut(rank, jmax);
                c1.swap_with_slice(c2);
                perm.swap(rank, jmax);
                colnorm2.swap(rank, jmax);
                colnorm2_ref.swap(rank, jmax);
            }
            let tau = make_householder(a, rank, rank);
            apply_householder_left(a, rank, tau, n);
            taus.push(tau);
            // Downdate trailing column norms: subtract the just-eliminated row.
            for j in rank + 1..n {
                let r = a[(rank, j)];
                let updated = colnorm2[j] - r * r;
                // Guard against catastrophic cancellation (LAPACK dqp3 style):
                // recompute when the downdated value lost too much accuracy.
                if updated <= 1e-12 * colnorm2_ref[j] {
                    let s = frobenius_norm_slice(&a.col(j)[rank + 1..m]);
                    colnorm2[j] = s * s;
                    colnorm2_ref[j] = colnorm2[j];
                } else {
                    // Positive here, or `NaN`, which stays `NaN`.
                    colnorm2[j] = updated;
                }
            }
            self.rank += 1;
        }
    }

    /// The numerical rank at the requested tolerance.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The working storage: the input itself while `rank() == 0`,
    /// afterwards the Householder vectors below the diagonal of the first
    /// `rank()` columns, `R` on and above it, and the unfactored block.
    pub fn factors(&self) -> &Matrix {
        &self.factors
    }

    /// `perm()[j]` is the original index of the column now in position `j`.
    pub fn perm(&self) -> &[usize] {
        &self.scratch.perm
    }

    /// Frobenius norm of the unfactored block (rows and columns from
    /// `rank()` on), summed from its entries. [`ColPivQr::trailing_below`]
    /// tests a downdated estimate of this; a caller that charges the
    /// truncation to an error budget needs what was actually cut.
    pub fn trailing_norm(&self) -> f64 {
        let (m, k) = (self.factors.rows(), self.rank);
        let ssq = (k..self.factors.cols()).fold(0.0, |acc, j| {
            let s = frobenius_norm_slice(&self.factors.col(j)[k..m]);
            acc + s * s
        });
        ssq.sqrt()
    }

    /// The thin orthogonal factor `Q_k` (`m × rank`).
    pub fn q_thin(&self) -> Matrix {
        let m = self.factors.rows();
        let k = self.rank;
        let mut q = Matrix::zeros(m, k);
        for j in 0..k {
            q[(j, j)] = 1.0;
        }
        self.apply_q_in_place(&mut q);
        q
    }

    /// `target := Q · target` for an `m`-row `target`, by implicit
    /// application of the stored reflectors. With `target = [X; 0]` this
    /// is `Q_k · X` without forming `Q_k`. Allocation-free.
    pub fn apply_q_in_place(&self, target: &mut Matrix) {
        assert_eq!(
            target.rows(),
            self.factors.rows(),
            "apply_q_in_place: target must have m rows"
        );
        for j in (0..self.rank).rev() {
            apply_stored_reflector(&self.factors, j, self.scratch.taus[j], target);
        }
    }

    /// `(R_k · Pᵀ)ᵀ` — the `n × rank` factor with the pivoting folded back
    /// so that `A ≈ q_thin() · r_unpermuted_t()ᵀ`: tile compression's `V`,
    /// written directly rather than transposed from `R_k · Pᵀ`.
    pub fn r_unpermuted_t(&self) -> Matrix {
        let k = self.rank;
        let mut v = Matrix::zeros(self.factors.cols(), k);
        for (j, &orig) in self.scratch.perm.iter().enumerate() {
            for i in 0..k.min(j + 1) {
                v[(orig, i)] = self.factors[(i, j)];
            }
        }
        v
    }

    /// Decompose into the matrix storage and the scratch buffers so a
    /// workspace can recycle both (inverse of
    /// [`ColPivQr::unfactored_in`]).
    pub fn into_parts(self) -> (Matrix, ColPivScratch) {
        (self.factors, self.scratch)
    }
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

    /// Build an m×n matrix of exact rank `k` with decaying singular values.
    fn low_rank_mat(m: usize, n: usize, k: usize, seed: u64) -> Matrix {
        let u = rand_mat(m, k, seed);
        let v = rand_mat(n, k, seed + 1);
        let mut out = Matrix::zeros(m, n);
        for p in 0..k {
            let sv = 2.0_f64.powi(-(p as i32)); // σ_p = 2^-p
            for j in 0..n {
                let w = sv * v[(j, p)];
                for i in 0..m {
                    out[(i, j)] += w * u[(i, p)];
                }
            }
        }
        out
    }

    #[test]
    fn qr_reconstructs_tall() {
        let a = rand_mat(12, 5, 100);
        let qr = Qr::new(a.clone());
        let q = qr.q_thin();
        let r = qr.r();
        let mut recon = Matrix::zeros(12, 5);
        gemm(Trans::No, Trans::No, 1.0, &q, &r, 0.0, &mut recon);
        assert!(relative_diff(&recon, &a) < 1e-13);
    }

    #[test]
    fn qr_reconstructs_wide() {
        let a = rand_mat(4, 9, 200);
        let qr = Qr::new(a.clone());
        let q = qr.q_thin();
        let r = qr.r();
        assert_eq!(q.cols(), 4);
        assert_eq!(r.rows(), 4);
        let mut recon = Matrix::zeros(4, 9);
        gemm(Trans::No, Trans::No, 1.0, &q, &r, 0.0, &mut recon);
        assert!(relative_diff(&recon, &a) < 1e-13);
    }

    #[test]
    fn q_is_orthonormal() {
        let a = rand_mat(15, 6, 300);
        let qr = Qr::new(a);
        let q = qr.q_thin();
        let mut qtq = Matrix::zeros(6, 6);
        gemm(Trans::Yes, Trans::No, 1.0, &q, &q, 0.0, &mut qtq);
        assert!(relative_diff(&qtq, &Matrix::identity(6)) < 1e-13);
    }

    /// Above the crossover: tall, wide and square inputs, with a ragged
    /// last panel (k = 33 is two full panels and one reflector), factor
    /// and apply through block reflectors to rounding — products on
    /// targets below and above `MIN_COLS` columns — on a recycled buffer
    /// that comes back holding the `k` coefficients.
    #[test]
    fn block_reflectors_reconstruct_and_apply() {
        let mut taus = vec![7.0; 3];
        for (m, n) in [(150, 56), (40, 100), (100, 100), (70, 33)] {
            let a = rand_mat(m, n, (m * n) as u64);
            let qr = Qr::new_in(a.clone(), taus);
            let k = m.min(n);
            assert!(k > NX);
            let q = qr.q_thin();
            let mut recon = Matrix::zeros(m, n);
            gemm(Trans::No, Trans::No, 1.0, &q, &qr.r(), 0.0, &mut recon);
            assert!(relative_diff(&recon, &a) < 1e-13, "{m}x{n}");
            let mut qtq = Matrix::zeros(k, k);
            gemm(Trans::Yes, Trans::No, 1.0, &q, &q, 0.0, &mut qtq);
            assert!(relative_diff(&qtq, &Matrix::identity(k)) < 1e-13, "{m}x{n}");
            for p in [5, MIN_COLS + 6] {
                let x = rand_mat(k, p, 1);
                let (mut qx, mut expect) = (Matrix::zeros(0, 0), Matrix::zeros(m, p));
                qr.apply_q(&x, &mut qx);
                gemm(Trans::No, Trans::No, 1.0, &q, &x, 0.0, &mut expect);
                assert!(relative_diff(&qx, &expect) < 1e-13, "{m}x{n} p={p}");
                qr.apply_qt(&mut qx);
                assert!(relative_diff(&qx.submatrix(0, 0, k, p), &x) < 1e-13, "{m}x{n} p={p}");
            }
            let factors;
            (factors, taus) = qr.into_parts();
            assert_eq!((factors.rows(), factors.cols(), taus.len()), (m, n, k));
        }
    }

    #[test]
    fn colpiv_detects_exact_rank() {
        let a = low_rank_mat(20, 16, 3, 400);
        let f = ColPivQr::with_tolerance(a.clone(), 1e-10 * frobenius_norm(&a), usize::MAX);
        assert_eq!(f.rank(), 3);
        let q = f.q_thin();
        let v = f.r_unpermuted_t();
        let mut recon = Matrix::zeros(20, 16);
        gemm(Trans::No, Trans::Yes, 1.0, &q, &v, 0.0, &mut recon);
        assert!(relative_diff(&recon, &a) < 1e-9);
    }

    #[test]
    fn colpiv_truncation_error_below_tolerance() {
        // Singular values 2^-p; truncating at tol should leave error ≤ ~tol.
        let a = low_rank_mat(30, 30, 20, 500);
        for tol in [1e-2, 1e-4, 1e-6] {
            let f = ColPivQr::with_tolerance(a.clone(), tol, usize::MAX);
            let q = f.q_thin();
            let v = f.r_unpermuted_t();
            let mut recon = Matrix::zeros(30, 30);
            gemm(Trans::No, Trans::Yes, 1.0, &q, &v, 0.0, &mut recon);
            let mut diff = recon.clone();
            diff.axpy(-1.0, &a);
            let err = frobenius_norm(&diff);
            // pivoted QR's truncation error is within a modest factor of tol
            assert!(err <= 10.0 * tol, "tol={tol} err={err} rank={}", f.rank());
        }
    }

    #[test]
    fn colpiv_null_tile() {
        let mut a = Matrix::zeros(8, 8);
        a[(3, 4)] = 1e-12;
        let f = ColPivQr::with_tolerance(a, 1e-8, usize::MAX);
        assert_eq!(f.rank(), 0);
    }

    #[test]
    fn colpiv_respects_max_rank() {
        let a = rand_mat(20, 20, 600);
        let f = ColPivQr::with_tolerance(a, 0.0, 5);
        assert_eq!(f.rank(), 5);
    }

    #[test]
    fn colpiv_full_rank_identity() {
        let a = Matrix::identity(6);
        let f = ColPivQr::with_tolerance(a.clone(), 1e-14, usize::MAX);
        assert_eq!(f.rank(), 6);
        let q = f.q_thin();
        let v = f.r_unpermuted_t();
        let mut recon = Matrix::zeros(6, 6);
        gemm(Trans::No, Trans::Yes, 1.0, &q, &v, 0.0, &mut recon);
        assert!(relative_diff(&recon, &a) < 1e-13);
    }

    #[test]
    fn qr_survives_subnormal_scale_columns() {
        // Regression: Gaussian-kernel tails produce entries ~1e-170 whose
        // squares underflow; the reflector used to become 0/0 = NaN.
        let a = Matrix::from_fn(8, 4, |i, j| {
            let big = if (i + j) % 3 == 0 { 1.0e-3 } else { 0.0 };
            big + 1.0e-170 * ((i * 5 + j * 3) as f64 - 10.0)
        });
        let qr = Qr::new(a.clone());
        let q = qr.q_thin();
        let r = qr.r();
        assert!(q.as_slice().iter().all(|v| v.is_finite()));
        assert!(r.as_slice().iter().all(|v| v.is_finite()));
        let mut recon = Matrix::zeros(8, 4);
        gemm(Trans::No, Trans::No, 1.0, &q, &r, 0.0, &mut recon);
        let mut diff = recon;
        diff.axpy(-1.0, &a);
        assert!(frobenius_norm(&diff) < 1e-15);

        // Pivoted variant too.
        let f = ColPivQr::with_tolerance(a, 1e-12, usize::MAX);
        assert!(f.q_thin().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn apply_q_matches_explicit_q_times_x() {
        for (m, n, p) in [(12, 5, 3), (4, 9, 2), (10, 10, 10), (7, 3, 6)] {
            let a = rand_mat(m, n, 800 + (m * n + p) as u64);
            let qr = Qr::new(a);
            let k = qr.k();
            let x = rand_mat(k, p, 801);
            // explicit: Q_thin · X
            let q = qr.q_thin();
            let mut expect = Matrix::zeros(m, p);
            gemm(Trans::No, Trans::No, 1.0, &q, &x, 0.0, &mut expect);
            // implicit
            let mut out = Matrix::zeros(0, 0);
            qr.apply_q(&x, &mut out);
            assert!(relative_diff(&out, &expect) < 1e-13, "m={m} n={n} p={p}");
        }
    }

    #[test]
    fn apply_qt_matches_explicit_qt_times_x() {
        let (m, n, p) = (14, 6, 4);
        let a = rand_mat(m, n, 810);
        let qr = Qr::new(a);
        let x = rand_mat(m, p, 811);
        let q = qr.q_thin();
        let mut expect = Matrix::zeros(n, p);
        gemm(Trans::Yes, Trans::No, 1.0, &q, &x, 0.0, &mut expect);
        let mut target = x.clone();
        qr.apply_qt(&mut target);
        let top = target.submatrix(0, 0, qr.k(), p);
        assert!(relative_diff(&top, &expect) < 1e-13);
    }

    #[test]
    fn apply_q_then_qt_roundtrips() {
        let a = rand_mat(15, 7, 820);
        let qr = Qr::new(a);
        let x = rand_mat(7, 3, 821);
        let mut qx = Matrix::zeros(0, 0);
        qr.apply_q(&x, &mut qx);
        qr.apply_qt(&mut qx);
        let top = qx.submatrix(0, 0, 7, 3);
        assert!(relative_diff(&top, &x) < 1e-13);
    }

    /// Regression: `r()` used to index `j.min(k − 1)`, which underflows
    /// for degenerate shapes with `min(m, n) == 0`. Empty factors must
    /// come back instead of a panic.
    #[test]
    fn qr_degenerate_shapes_return_empty_factors() {
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let qr = Qr::new(Matrix::zeros(m, n));
            assert_eq!(qr.k(), 0, "{m}x{n}");
            let r = qr.r();
            assert_eq!((r.rows(), r.cols()), (0, n));
            let q = qr.q_thin();
            assert_eq!((q.rows(), q.cols()), (m, 0));
            // implicit application of the empty Q is a no-op of shape m×p
            let mut out = Matrix::zeros(0, 0);
            qr.apply_q(&Matrix::zeros(0, 2), &mut out);
            assert_eq!((out.rows(), out.cols()), (m, 2));
            assert!(out.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn new_in_and_into_parts_recycle_buffers() {
        let a = rand_mat(10, 4, 830);
        let qr = Qr::new_in(a.clone(), vec![7.0; 99]); // stale buffer is cleared
        let q = qr.q_thin();
        let r = qr.r();
        let mut recon = Matrix::zeros(10, 4);
        gemm(Trans::No, Trans::No, 1.0, &q, &r, 0.0, &mut recon);
        assert!(relative_diff(&recon, &a) < 1e-13);
        let (factors, taus) = qr.into_parts();
        assert_eq!((factors.rows(), factors.cols()), (10, 4));
        assert_eq!(taus.len(), 4);
    }

    #[test]
    fn colpiv_rank_monotone_in_tolerance() {
        let a = low_rank_mat(24, 24, 20, 700);
        let r_loose = ColPivQr::with_tolerance(a.clone(), 1e-2, usize::MAX).rank();
        let r_mid = ColPivQr::with_tolerance(a.clone(), 1e-4, usize::MAX).rank();
        let r_tight = ColPivQr::with_tolerance(a, 1e-6, usize::MAX).rank();
        assert!(r_loose <= r_mid && r_mid <= r_tight);
        assert!(r_tight <= 20);
    }

    #[test]
    fn stepwise_factorization_equals_one_shot() {
        // `unfactored_in` + `advance` in two legs lands where
        // `with_tolerance` does, bit for bit, on recycled buffers.
        let a = low_rank_mat(18, 14, 9, 900);
        let one_shot = ColPivQr::with_tolerance(a.clone(), 1e-6, usize::MAX);
        let stale = ColPivQr::with_tolerance(rand_mat(30, 25, 901), 0.0, usize::MAX);
        let (_, scratch) = stale.into_parts();
        let mut f = ColPivQr::unfactored_in(a.clone(), scratch);
        assert_eq!(f.rank(), 0);
        assert_eq!(f.factors().as_slice(), a.as_slice());
        assert!(!f.trailing_below(1e-6));
        f.advance(1e-6, 3);
        assert_eq!(f.rank(), 3);
        f.advance(1e-6, usize::MAX);
        assert_eq!(f.rank(), one_shot.rank());
        assert_eq!(f.perm(), one_shot.perm());
        assert_eq!(f.factors().as_slice(), one_shot.factors().as_slice());
        assert!(f.trailing_below(1e-6));
    }

    #[test]
    fn trailing_norm_is_the_truncation_error() {
        let a = low_rank_mat(20, 20, 12, 910);
        let f = ColPivQr::with_tolerance(a.clone(), 1e-3, usize::MAX);
        assert!(f.rank() > 0 && f.rank() < 12);
        let mut recon = Matrix::zeros(20, 20);
        gemm(Trans::No, Trans::Yes, 1.0, &f.q_thin(), &f.r_unpermuted_t(), 0.0, &mut recon);
        recon.axpy(-1.0, &a);
        let err = frobenius_norm(&recon);
        assert!((f.trailing_norm() - err).abs() <= 1e-14, "{} vs {err}", f.trailing_norm());
        assert!(f.trailing_norm() <= 1e-3);
        // Nothing left once every column is factored.
        assert_eq!(ColPivQr::with_tolerance(a, 0.0, usize::MAX).trailing_norm(), 0.0);
    }

    #[test]
    fn implicit_q_reproduces_the_pivoted_input() {
        // A·P = Q_k·R_k for a full factorization: apply Q to R_k padded
        // with zero rows and compare with the permuted columns.
        let a = rand_mat(9, 6, 920);
        let f = ColPivQr::with_tolerance(a.clone(), 0.0, usize::MAX);
        assert_eq!(f.rank(), 6);
        let mut qr = Matrix::zeros(9, 6);
        for j in 0..6 {
            for i in 0..=j {
                qr[(i, j)] = f.factors()[(i, j)];
            }
        }
        f.apply_q_in_place(&mut qr);
        for (j, &orig) in f.perm().iter().enumerate() {
            for i in 0..9 {
                assert!((qr[(i, j)] - a[(i, orig)]).abs() < 1e-14);
            }
        }
    }
}
