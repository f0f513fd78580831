//! The four TLR Cholesky tile kernels: POTRF, TRSM, SYRK, GEMM.
//!
//! These are HiCMA's HCORE kernels re-derived for the `U·Vᵀ` tile format.
//! The factorization they implement is the right-looking tile Cholesky:
//! for each panel `k`, the panel is factored and the trailing matrix
//! updated at once,
//!
//! ```text
//! POTRF  : A[k][k] = L[k][k]·L[k][k]ᵀ                    (dense diagonal)
//! TRSM   : A[m][k] = A[m][k]·L[k][k]⁻ᵀ          ∀ m > k  (TLR or dense)
//! SYRK   : A[m][m] −= A[m][k]·A[m][k]ᵀ          ∀ m > k  (dense diagonal)
//! GEMM   : A[m][n] −= A[m][k]·A[n][k]ᵀ    ∀ m > n > k    (TLR recompress)
//! ```
//!
//! The GEMM kernel is where ranks move: the low-rank update is stacked
//! against the destination's factors and recompressed (QR of both stacks,
//! truncation of the small core) at the configured accuracy — HiCMA's
//! recompression pipeline, with the core truncated by the same pivoted QR
//! that compresses tiles at assembly instead of by an SVD.
//! The [`flops`] submodule exposes the operation counts the paper's time
//! model needs, as a function of tile size and the ranks involved.
//!
//! # Workspace & implicit-Q recompression
//!
//! The recompression step dominates TLR factorization time, so it runs
//! through three machineries that remove its avoidable cost:
//!
//! * **Per-worker [`KernelWorkspace`] arena.** Every intermediate of
//!   `gemm_kernel`/`subtract_lowrank`/`syrk_kernel`/recompression — the
//!   stacked factors, the small Gram/core matrices, the QR `tau` vectors,
//!   the core's pivot and norm scratch — is drawn from a pool of recycled
//!   buffers that grow to a high-water mark and are then reused for the
//!   rest of the factorization. Replaced tiles donate their factor
//!   buffers back to the pool, so in steady state a `gemm_kernel` call
//!   performs **zero heap allocations** (asserted by the
//!   `tests/alloc_free.rs` counting-allocator harness). The engine
//!   threads one arena per worker ([`crate::kernels::KernelWorkspace`]
//!   via the worker id `Engine::run` hands each body closure); callers
//!   outside the engine transparently use a thread-local arena.
//!
//! * **Implicit-Q re-projection.** The stacked factors are reduced by
//!   unpivoted QR; instead of forming each thin `Q` explicitly
//!   (`O(b·kt²)` per factor) and multiplying it by the truncated
//!   `kt × k'` block of the core, the stored Householder reflectors are applied
//!   directly to the small block (`Qr::apply_q`), skipping the `Q`
//!   formation and one `b × kt × k'` GEMM per side, per call. Above 32
//!   stacked columns `Qr` factors and applies them as block reflectors
//!   (compact WY), so both stacked QRs and both re-projections run on
//!   GEMMs; their `T` factors ride in the recycled `tau` buffers. The
//!   GEMM kernel writes the product as a factor pair — one factor
//!   borrowed from a low-rank operand, the other formed in one workspace
//!   buffer — and applies it through the one update path behind
//!   [`subtract_lowrank_ws`], which accumulates into a dense `C` or stacks
//!   the pair against `C`'s factors and recompresses; no operand factor is
//!   ever cloned.
//!
//! * **Pivoted-QR core truncation.** The small core `R_u·R_vᵀ` is
//!   factored `core·P = Q_c·R_c` with column pivoting, stopped as soon as
//!   the unfactored block — summed from its entries, not estimated — is
//!   within the accuracy, so the result satisfies
//!   `‖U_s·V_sᵀ − U·Vᵀ‖_F ≤ accuracy`. This is the rule
//!   [`crate::compress_tile`] applies at assembly; it keeps slightly more
//!   rank than the SVD optimum and costs a fraction of a Jacobi SVD.
//!
//! The pre-workspace path is preserved verbatim in [`reference`](mod@reference) as a
//! same-run measurement baseline (`cargo run --release -p tlr-bench
//! --bin gemm_recompress`) and, truncating by [`tlr_linalg::jacobi_svd`],
//! as the rank-optimal oracle for the engine. No factorization runs an
//! SVD: the pivoted QR is the only truncation on the factorization path.

use crate::compress::{low_rank_pays_off, CompressionConfig};
use crate::tile::Tile;
use std::cell::RefCell;
// Tile kernels run inside the task-graph executor, so they use the serial
// BLAS variants: forking onto the rayon pool from every tile would
// oversubscribe the executor's worker threads.
use tlr_linalg::{
    gemm_serial, potrf, syrk_serial, trsm, CholeskyError, ColPivQr, ColPivScratch, Matrix,
    Qr, Side, Trans, Uplo,
};

/// POTRF kernel: factor a dense diagonal tile in place (lower Cholesky).
///
/// # Panics
/// Panics if the tile is not dense — diagonal tiles never compress in TLR
/// Cholesky (their ranks are full by SPD-ness).
pub fn potrf_kernel(c: &mut Tile) -> Result<(), CholeskyError> {
    match c {
        Tile::Dense(m) => {
            potrf(m.as_mut())?;
            m.zero_upper();
            Ok(())
        }
        _ => panic!("POTRF requires a dense diagonal tile"),
    }
}

/// TRSM kernel: `A := A · L⁻ᵀ` where `l` holds the factored diagonal tile.
///
/// For a low-rank `A = U·Vᵀ` only the small factor moves:
/// `A·L⁻ᵀ = U·(L⁻¹V)ᵀ`, i.e. a `b × k` triangular solve instead of
/// `b × b` — this is the arithmetic saving that makes TLR worthwhile.
pub fn trsm_kernel(l: &Tile, a: &mut Tile) {
    let l = match l {
        Tile::Dense(m) => m,
        _ => panic!("TRSM requires a dense factored diagonal tile"),
    };
    match a {
        Tile::Dense(m) => trsm(Side::Right, Uplo::Lower, Trans::Yes, 1.0, l, m),
        Tile::LowRank { v, .. } => trsm(Side::Left, Uplo::Lower, Trans::No, 1.0, l, v),
        Tile::Null { .. } => {}
    }
}

/// Recycled scratch arena backing every intermediate of the TLR update
/// kernels.
///
/// One workspace per worker thread: buffers are checked out with
/// [`KernelWorkspace::take`], returned with [`KernelWorkspace::give`]
/// (the kernels also reclaim a replaced tile's factors wholesale into a
/// separate export pool), and grow to a high-water mark over
/// the first few calls, after which the kernels run allocation-free.
/// The arena also owns the pivot and norm scratch of the core's pivoted
/// QR, so the core truncation never allocates either.
pub struct KernelWorkspace {
    /// Recycled scratch buffers (stacked factors, small cores, `R`
    /// factors…), kept sorted ascending by capacity so `take` can pick
    /// the smallest sufficient one (best fit). Scratch buffers never
    /// leave the kernel, so this pool's capacity multiset reaches a
    /// fixed point after warm-up.
    pool: Vec<Vec<f64>>,
    /// Recycled buffers for factors that *leave* with the produced tile
    /// (`u`/`v` of the recompressed result, dense conversions), refilled
    /// by [`KernelWorkspace::give_tile`] with the replaced tile's
    /// buffers. Kept separate from the scratch pool: if exports could
    /// draw oversized scratch buffers, every call would walk off with a
    /// high-water buffer and re-grow a smaller import forever.
    out_pool: Vec<Vec<f64>>,
    /// Recycled Householder-coefficient buffers for [`Qr::new_in`]
    /// (above its crossover they also hold the block reflectors' `T`
    /// factors).
    taus: Vec<Vec<f64>>,
    /// Recycled pivot, coefficient and column-norm buffers of the
    /// core's pivoted QR (its storage comes from `pool`).
    colpiv: ColPivScratch,
    /// Buffer checkouts that had to allocate or grow (pool miss). Stays
    /// at its warm-up value once the arena reaches steady state; the
    /// metrics registry reports it as `workspace_growth`.
    alloc_events: u64,
    /// Input/output ranks of every recompression through this arena
    /// (a few integer ops per recompression; the histogram grows to the
    /// largest kept rank once, like the buffer pools).
    rank_log: crate::rankstat::RankEvolution,
}

impl Default for KernelWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelWorkspace {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            pool: Vec::new(),
            out_pool: Vec::new(),
            taus: Vec::new(),
            colpiv: ColPivScratch::default(),
            alloc_events: 0,
            rank_log: crate::rankstat::RankEvolution::default(),
        }
    }

    /// Bytes currently retained by this arena's recycled buffer pools
    /// (scratch, export, and tau pools plus the pivoted-QR scratch).
    /// Pools only grow, so after warm-up this is the arena's high-water
    /// mark — the per-worker memory-budget number the metrics registry
    /// reports. It reads capacities already tracked by the allocator,
    /// costing a short walk of the pool lists at report time.
    pub fn high_water_bytes(&self) -> u64 {
        let vecs = |pool: &[Vec<f64>]| -> u64 {
            pool.iter().map(|b| b.capacity() as u64).sum::<u64>()
        };
        let f64s = vecs(&self.pool)
            + vecs(&self.out_pool)
            + vecs(&self.taus)
            + self.colpiv.retained_len() as u64;
        f64s * std::mem::size_of::<f64>() as u64
    }

    /// Pool misses so far: checkouts that allocated a fresh buffer or
    /// grew a pooled one.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Drain the recompression rank log accumulated by this arena.
    pub fn take_rank_log(&mut self) -> crate::rankstat::RankEvolution {
        std::mem::take(&mut self.rank_log)
    }

    /// Check out a zeroed `rows × cols` matrix backed by the smallest
    /// pooled buffer whose capacity suffices. When none is big enough the
    /// largest pooled buffer grows once (high-water-mark behavior); an
    /// empty pool allocates fresh. Zeroing keeps results independent of
    /// buffer history, so factorizations stay bit-deterministic at any
    /// thread count.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let (m, grew) = Self::take_from(&mut self.pool, rows, cols);
        self.note_growth(grew);
        m
    }

    /// Return a checked-out scratch matrix's buffer to the pool.
    pub fn give(&mut self, m: Matrix) {
        Self::give_to(&mut self.pool, m);
    }

    /// Check out a zeroed matrix destined to leave the arena inside a
    /// produced tile (recompressed `u`/`v` factors, dense conversions).
    /// Drawn from the export pool that [`KernelWorkspace::give_tile`]
    /// refills, so tile churn cannot drain the scratch pool.
    fn take_out(&mut self, rows: usize, cols: usize) -> Matrix {
        let (m, grew) = Self::take_from(&mut self.out_pool, rows, cols);
        self.note_growth(grew);
        m
    }

    /// Return a matrix taken with [`KernelWorkspace::take_out`] that
    /// ended up not leaving with a tile.
    fn give_out(&mut self, m: Matrix) {
        Self::give_to(&mut self.out_pool, m);
    }

    /// Reclaim the factor buffer(s) of a tile that just got replaced into
    /// the export pool — this is what conserves arena size across
    /// recompressions: the new tile keeps its workspace-backed factors,
    /// the old tile's buffers come back.
    fn give_tile(&mut self, t: Tile) {
        match t {
            Tile::Dense(m) => self.give_out(m),
            Tile::LowRank { u, v } => {
                self.give_out(u);
                self.give_out(v);
            }
            Tile::Null { .. } => {}
        }
    }

    /// Returns the checked-out matrix and whether the checkout had to
    /// allocate (pool miss / growth) — the allocation-event signal.
    fn take_from(pool: &mut Vec<Vec<f64>>, rows: usize, cols: usize) -> (Matrix, bool) {
        let need = rows * cols;
        let mut buf = match pool.iter().position(|b| b.capacity() >= need) {
            Some(i) => pool.remove(i),
            None => pool.pop().unwrap_or_default(),
        };
        let grew = buf.capacity() < need;
        buf.clear();
        buf.resize(need, 0.0);
        (Matrix::from_vec(rows, cols, buf), grew)
    }

    /// Bump the allocation-event counter when a checkout grew.
    #[inline]
    fn note_growth(&mut self, grew: bool) {
        self.alloc_events += u64::from(grew);
    }

    fn give_to(pool: &mut Vec<Vec<f64>>, m: Matrix) {
        let buf = m.into_vec();
        let pos = pool
            .iter()
            .position(|b| b.capacity() >= buf.capacity())
            .unwrap_or(pool.len());
        pool.insert(pos, buf);
    }

    fn take_taus(&mut self) -> Vec<f64> {
        self.taus.pop().unwrap_or_default()
    }

    fn give_taus(&mut self, t: Vec<f64>) {
        self.taus.push(t);
    }
}

thread_local! {
    static TLS_WORKSPACE: RefCell<KernelWorkspace> = RefCell::new(KernelWorkspace::new());
}

/// Run `f` with this thread's kernel workspace.
///
/// The public kernel entry points ([`gemm_kernel`], [`syrk_kernel`],
/// [`subtract_lowrank`]) route through this so callers outside the
/// engines (tests, benchmarks, probes) get workspace recycling for
/// free. Nobody drains this arena: both factorization engines own one
/// explicit arena per worker / emulated rank, call the `_ws` variants
/// directly and report its rank log and high-water mark.
fn with_thread_workspace<R>(f: impl FnOnce(&mut KernelWorkspace) -> R) -> R {
    TLS_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

/// SYRK kernel: `C −= A·Aᵀ` onto a dense diagonal tile.
///
/// Low-rank `A = U·Vᵀ` gives `A·Aᵀ = U·(VᵀV)·Uᵀ`: one `k × k` Gram
/// matrix, one `b × k` product, one rank-k dense update. Uses the
/// calling thread's workspace; executor workers should call
/// [`syrk_kernel_ws`] with their own arena.
pub fn syrk_kernel(a: &Tile, c: &mut Tile) {
    with_thread_workspace(|ws| syrk_kernel_ws(ws, a, c));
}

/// [`syrk_kernel`] against an explicit workspace (allocation-free in
/// steady state).
pub fn syrk_kernel_ws(ws: &mut KernelWorkspace, a: &Tile, c: &mut Tile) {
    let c = match c {
        Tile::Dense(m) => m,
        _ => panic!("SYRK destination (diagonal tile) must be dense"),
    };
    match a {
        Tile::Dense(m) => {
            syrk_serial(Trans::No, -1.0, m, 1.0, c.as_mut());
            // Diagonal tiles are kept fully symmetric so that dense and
            // low-rank update paths produce identical tiles.
            c.symmetrize_from_lower();
        }
        Tile::LowRank { u, v } => {
            let k = u.cols();
            if k == 0 {
                return;
            }
            // W = VᵀV  (k × k)
            let mut w = ws.take(k, k);
            gemm_serial(Trans::Yes, Trans::No, 1.0, v, v, 0.0, &mut w);
            // T = U·W  (b × k)
            let mut t = ws.take(u.rows(), k);
            gemm_serial(Trans::No, Trans::No, 1.0, u, &w, 0.0, &mut t);
            // C −= T·Uᵀ (full update; the diagonal tile is kept symmetric)
            gemm_serial(Trans::No, Trans::Yes, -1.0, &t, u, 1.0, c);
            ws.give(w);
            ws.give(t);
        }
        Tile::Null { .. } => {}
    }
}

/// GEMM kernel: `C −= A·Bᵀ` with TLR recompression.
///
/// `A` is tile `(m, k)`, `B` is tile `(n, k)` of the factorization, `C` is
/// tile `(m, n)`. Null operands make the kernel a no-op (the DAG-trimming
/// analysis removes those calls up front; keeping the no-op here preserves
/// correctness when trimming is disabled). Uses the calling thread's
/// workspace; executor workers should call [`gemm_kernel_ws`] with their
/// own arena.
pub fn gemm_kernel(a: &Tile, b: &Tile, c: &mut Tile, config: &CompressionConfig) {
    with_thread_workspace(|ws| gemm_kernel_ws(ws, a, b, c, config));
}

/// [`gemm_kernel`] against an explicit workspace.
///
/// Writes the product as a factor pair `A·Bᵀ = up·vpᵀ` — one factor
/// borrowed from a low-rank operand, the other formed in one workspace
/// buffer — and applies it through the update path behind
/// [`subtract_lowrank_ws`]. Allocation-free in steady state.
pub fn gemm_kernel_ws(
    ws: &mut KernelWorkspace,
    a: &Tile,
    b: &Tile,
    c: &mut Tile,
    config: &CompressionConfig,
) {
    if a.is_null() || b.is_null() {
        return;
    }
    // dense × dense: compute densely and keep C dense.
    if let (Tile::Dense(am), Tile::Dense(bm)) = (a, b) {
        match c {
            Tile::Dense(cm) => gemm_serial(Trans::No, Trans::Yes, -1.0, am, bm, 1.0, cm),
            _ => {
                let mut cd = ws.take_out(c.rows(), c.cols());
                c.to_dense_into(&mut cd);
                gemm_serial(Trans::No, Trans::Yes, -1.0, am, bm, 1.0, &mut cd);
                ws.give_tile(std::mem::replace(c, Tile::Dense(cd)));
            }
        }
        return;
    }
    if [a, b].iter().any(|t| matches!(t, Tile::LowRank { u, .. } if u.cols() == 0)) {
        return;
    }
    // A formed left factor carries the update's −1 when C stacks, so the
    // stacking copies it as is; a dense C applies the −1 in its GEMM.
    let left = if matches!(c, Tile::Dense(_)) { 1.0 } else { -1.0 };
    // (formed factor, borrowed factor, whether the formed one is `up`)
    let (formed, borrowed, formed_left) = match (a, b) {
        (Tile::LowRank { u: ua, v: va }, Tile::LowRank { u: ub, v: vb }) => {
            let (ka, kb) = (ua.cols(), ub.cols());
            // W = Vaᵀ·Vb  (ka × kb)
            let mut w = ws.take(ka, kb);
            gemm_serial(Trans::Yes, Trans::No, 1.0, va, vb, 0.0, &mut w);
            let pair = if ka <= kb {
                // A·Bᵀ = Ua · (Ub·Wᵀ)ᵀ, rank ka
                let mut vp = ws.take(ub.rows(), ka);
                gemm_serial(Trans::No, Trans::Yes, 1.0, ub, &w, 0.0, &mut vp);
                (vp, ua, false)
            } else {
                // A·Bᵀ = (Ua·W) · Ubᵀ, rank kb
                let mut up = ws.take(ua.rows(), kb);
                gemm_serial(Trans::No, Trans::No, left, ua, &w, 0.0, &mut up);
                (up, ub, true)
            };
            ws.give(w);
            pair
        }
        (Tile::LowRank { u: ua, v: va }, Tile::Dense(bm)) => {
            // A·Bᵀ = Ua · (B·Va)ᵀ
            let mut vp = ws.take(bm.rows(), ua.cols());
            gemm_serial(Trans::No, Trans::No, 1.0, bm, va, 0.0, &mut vp);
            (vp, ua, false)
        }
        (Tile::Dense(am), Tile::LowRank { u: ub, v: vb }) => {
            // A·Bᵀ = (A·Vb) · Ubᵀ
            let mut up = ws.take(am.rows(), ub.cols());
            gemm_serial(Trans::No, Trans::No, left, am, vb, 0.0, &mut up);
            (up, ub, true)
        }
        _ => unreachable!("null and dense×dense operands handled above"),
    };
    let (up, vp, alpha) =
        if formed_left { (&formed, borrowed, -left) } else { (borrowed, &formed, -1.0) };
    let stacked = stack_update_ws(ws, c, up, vp, alpha);
    ws.give(formed); // the stacking copy was its last read
    if let Some((us, vs)) = stacked {
        *c = recompress_ws(ws, us, vs, config);
    }
}

/// `C −= up · vpᵀ`, preserving/choosing C's format with recompression.
///
/// * Dense `C`: dense accumulate (no format change).
/// * Low-rank or null `C`: stack `[U_c  −up]·[V_c  vp]ᵀ` and recompress via
///   QR of both stacked factors + pivoted QR of the small core, truncated
///   at the configured accuracy. The result may be `Null` (fully
///   cancelled), `LowRank`, or `Dense` (rank grew past the pay-off point
///   or the rank cap).
///
/// Uses the calling thread's workspace; see [`subtract_lowrank_ws`].
pub fn subtract_lowrank(c: &mut Tile, up: &Matrix, vp: &Matrix, config: &CompressionConfig) {
    with_thread_workspace(|ws| subtract_lowrank_ws(ws, c, up, vp, config));
}

/// [`subtract_lowrank`] against an explicit workspace (allocation-free in
/// steady state).
pub fn subtract_lowrank_ws(
    ws: &mut KernelWorkspace,
    c: &mut Tile,
    up: &Matrix,
    vp: &Matrix,
    config: &CompressionConfig,
) {
    if let Some((us, vs)) = stack_update_ws(ws, c, up, vp, -1.0) {
        *c = recompress_ws(ws, us, vs, config);
    }
}

/// `C += alpha · up · vpᵀ`, the one update path of the TLR kernels, up to
/// its recompression. A dense `C` accumulates with `alpha` in its GEMM; a
/// low-rank or null `C` is left `Null` and its stack `[U_c  alpha·up]·[V_c
/// vp]ᵀ` returned for [`recompress_ws`], after the caller is done with
/// `up` and `vp`. `alpha` is `±1`, so the stacking copy is exact.
fn stack_update_ws(
    ws: &mut KernelWorkspace,
    c: &mut Tile,
    up: &Matrix,
    vp: &Matrix,
    alpha: f64,
) -> Option<(Matrix, Matrix)> {
    let kp = up.cols();
    if kp == 0 {
        return None;
    }
    match c {
        Tile::Dense(cm) => {
            gemm_serial(Trans::No, Trans::Yes, alpha, up, vp, 1.0, cm);
            None
        }
        Tile::LowRank { .. } | Tile::Null { .. } => {
            let rows = c.rows();
            let cols = c.cols();
            let kc = c.rank();
            let mut us = ws.take(rows, kc + kp);
            let mut vs = ws.take(cols, kc + kp);
            copy_tile_factors(c, &mut us, &mut vs);
            copy_cols_scaled(&mut us, kc, up, alpha);
            copy_cols_scaled(&mut vs, kc, vp, 1.0);
            // The destination's factors are fully copied into `us`/`vs`,
            // so its buffers can be reclaimed *before* recompression —
            // that way they are in the pool when the recompressed factors
            // are taken, which is what lets the take/give cycle reach a
            // fixed point (reclaiming after would let each call walk off
            // with an oversized buffer and re-grow a smaller one forever).
            ws.give_tile(std::mem::replace(c, Tile::Null { rows, cols }));
            Some((us, vs))
        }
    }
}

/// Copy a low-rank tile's `u`/`v` factors into the leading columns of the
/// stacked factors (no-op for null destinations).
fn copy_tile_factors(c: &Tile, us: &mut Matrix, vs: &mut Matrix) {
    if let Tile::LowRank { u, v } = c {
        copy_cols_scaled(us, 0, u, 1.0);
        copy_cols_scaled(vs, 0, v, 1.0);
    }
}

/// `dst[:, j0 .. j0+src.cols()) = alpha · src` — the scaled-copy half of
/// the stacking loop; `alpha = −1` folds the update's sign into the write
/// (IEEE negation is exact, so this matches negate-after-multiply
/// bitwise).
fn copy_cols_scaled(dst: &mut Matrix, j0: usize, src: &Matrix, alpha: f64) {
    for j in 0..src.cols() {
        let d = &mut dst.col_mut(j0 + j)[..src.rows()];
        let s = src.col(j);
        if alpha == 1.0 {
            d.copy_from_slice(s);
        } else {
            for (di, si) in d.iter_mut().zip(s) {
                *di = alpha * si;
            }
        }
    }
}

/// Recompress a stacked `U_s·V_sᵀ` product into canonical tile form using
/// the workspace: QR of both stacked factors (`tau` buffers recycled),
/// the small core `R_u·R_vᵀ` truncated by a column-pivoted QR stopped at
/// the accuracy, then re-projection by **implicit** application of the
/// stored Householder reflectors (`Qr::apply_q`, block reflectors as
/// GEMMs above its crossover) — the thin `Q` factors are never formed.
/// The tile is `us.rows() × vs.rows()`. All of `us`/`vs`, the QR factor
/// storage and the core return to the pool before this function does.
///
/// The rank `k` is accepted only once the unfactored block of the core,
/// summed from its entries, is `≤ accuracy`: the pivoted QR's downdated
/// norm estimate only proposes where to stop. `Q_u·[Q_c₁ Q_c₂]` and `Q_v`
/// have orthonormal columns, so that block's norm is exactly
/// `‖U_s·V_sᵀ − U·Vᵀ‖_F`, up to rounding. A non-finite core never
/// certifies before every column is factored, so poison leaves as a
/// non-finite tile, not as `Null`. A certified rank above `max_rank` is
/// stored dense, as assembly stores a tile the cap cannot certify.
fn recompress_ws(
    ws: &mut KernelWorkspace,
    us: Matrix,
    vs: Matrix,
    config: &CompressionConfig,
) -> Tile {
    let (rows, cols) = (us.rows(), vs.rows());
    let taus_u = ws.take_taus();
    let qu = Qr::new_in(us, taus_u);
    let taus_v = ws.take_taus();
    let qv = Qr::new_in(vs, taus_v);
    // Stacked input rank (k_c + k_product) before truncation, for the
    // rank-evolution log.
    let ktot = qu.cols();
    let ku = qu.k();
    let kv = qv.k();
    let mut ru = ws.take(ku, qu.cols()); // ku × ktot
    qu.r_into(&mut ru);
    let mut rv = ws.take(kv, qv.cols()); // kv × ktot
    qv.r_into(&mut rv);
    // Core = Ru · Rvᵀ (ku × kv), small.
    let mut core = ws.take(ku, kv);
    gemm_serial(Trans::No, Trans::Yes, 1.0, &ru, &rv, 0.0, &mut core);
    ws.give(ru);
    ws.give(rv);
    // Core · P = Q_c · R_c, stopped at the accuracy.
    let mut qc = ColPivQr::unfactored_in(core, std::mem::take(&mut ws.colpiv));
    qc.advance(config.accuracy, usize::MAX);
    // A `NaN` norm certifies nothing.
    let certified = |qc: &ColPivQr| qc.trailing_norm() <= config.accuracy;
    while qc.rank() < ku.min(kv) && !certified(&qc) {
        // The estimate stopped early: one more column, under a
        // tolerance nothing meets.
        qc.advance(f64::NEG_INFINITY, qc.rank() + 1);
    }
    let k = qc.rank();
    ws.rank_log.record(ktot, k);
    if k == 0 {
        reclaim_colpiv(ws, qc);
        reclaim_qr(ws, qu);
        reclaim_qr(ws, qv);
        return Tile::Null { rows, cols };
    }
    // U = Q_u · Q_c[:, :k] ; V = Q_v · (R_c[:k, :]·Pᵀ)ᵀ — implicit-Q
    // application on both sides; U is orthonormal and V carries the
    // scale, as in `compress_tile`.
    let mut xs = ws.take(ku, k);
    for p in 0..k {
        xs[(p, p)] = 1.0;
    }
    qc.apply_q_in_place(&mut xs);
    let mut ys = ws.take(kv, k);
    for (j, &orig) in qc.perm().iter().enumerate() {
        for i in 0..k.min(j + 1) {
            ys[(orig, i)] = qc.factors()[(i, j)];
        }
    }
    reclaim_colpiv(ws, qc);
    let mut u = ws.take_out(rows, k);
    qu.apply_q(&xs, &mut u);
    ws.give(xs);
    reclaim_qr(ws, qu);
    let mut v = ws.take_out(cols, k);
    qv.apply_q(&ys, &mut v);
    ws.give(ys);
    reclaim_qr(ws, qv);
    if k > config.max_rank || !low_rank_pays_off(k, rows, cols) {
        let mut dense = ws.take_out(rows, cols);
        gemm_serial(Trans::No, Trans::Yes, 1.0, &u, &v, 0.0, &mut dense);
        ws.give_out(u);
        ws.give_out(v);
        return Tile::Dense(dense);
    }
    Tile::LowRank { u, v }
}

/// Return a consumed QR factorization's buffers to the workspace.
fn reclaim_qr(ws: &mut KernelWorkspace, qr: Qr) {
    let (factors, taus) = qr.into_parts();
    ws.give(factors);
    ws.give_taus(taus);
}

/// Return the core's pivoted QR — its storage and its scratch — to the
/// workspace.
fn reclaim_colpiv(ws: &mut KernelWorkspace, qr: ColPivQr) {
    let (factors, scratch) = qr.into_parts();
    ws.give(factors);
    ws.colpiv = scratch;
}

pub mod reference {
    //! The pre-workspace recompression path, kept verbatim.
    //!
    //! This is the allocating, explicit-Q implementation the workspace
    //! engine replaced: fresh `Matrix` buffers per call, cloned operand
    //! factors, `up.clone()+scale(−1)` negation, `Qr::q_thin()` + GEMM
    //! re-projection, and the core truncated by the SVD
    //! ([`tlr_linalg::jacobi_svd`]) at the Frobenius optimum. It exists for
    //! two reasons: the `gemm_recompress` bench measures the new engine
    //! against it in the same run, and the property/equivalence tests use
    //! it as a rank-optimal differential oracle.

    use super::*;
    use tlr_linalg::jacobi_svd;

    /// Pre-workspace [`super::gemm_kernel`]: identical semantics, fresh
    /// allocations per call, explicit-Q recompression.
    pub fn gemm_kernel_reference(a: &Tile, b: &Tile, c: &mut Tile, config: &CompressionConfig) {
        if a.is_null() || b.is_null() {
            return;
        }
        // Express the product A·Bᵀ in low-rank form (u_p · v_pᵀ) when possible.
        let product = match (a, b) {
            (Tile::LowRank { u: ua, v: va }, Tile::LowRank { u: ub, v: vb }) => {
                let ka = ua.cols();
                let kb = ub.cols();
                if ka == 0 || kb == 0 {
                    return;
                }
                // W = Vaᵀ·Vb  (ka × kb)
                let mut w = Matrix::zeros(ka, kb);
                gemm_serial(Trans::Yes, Trans::No, 1.0, va, vb, 0.0, &mut w);
                if ka <= kb {
                    // P = Ua · (Ub·Wᵀ)ᵀ, rank ka
                    let mut vp = Matrix::zeros(ub.rows(), ka);
                    gemm_serial(Trans::No, Trans::Yes, 1.0, ub, &w, 0.0, &mut vp);
                    Some((ua.clone(), vp))
                } else {
                    // P = (Ua·W) · Ubᵀ, rank kb
                    let mut up = Matrix::zeros(ua.rows(), kb);
                    gemm_serial(Trans::No, Trans::No, 1.0, ua, &w, 0.0, &mut up);
                    Some((up, ub.clone()))
                }
            }
            (Tile::LowRank { u: ua, v: va }, Tile::Dense(bm)) => {
                if ua.cols() == 0 {
                    return;
                }
                // P = Ua · (B·Va)ᵀ
                let ka = ua.cols();
                let mut vp = Matrix::zeros(bm.rows(), ka);
                gemm_serial(Trans::No, Trans::No, 1.0, bm, va, 0.0, &mut vp);
                Some((ua.clone(), vp))
            }
            (Tile::Dense(am), Tile::LowRank { u: ub, v: vb }) => {
                if ub.cols() == 0 {
                    return;
                }
                // P = (A·Vb) · Ubᵀ
                let kb = ub.cols();
                let mut up = Matrix::zeros(am.rows(), kb);
                gemm_serial(Trans::No, Trans::No, 1.0, am, vb, 0.0, &mut up);
                Some((up, ub.clone()))
            }
            (Tile::Dense(_), Tile::Dense(_)) => None,
            _ => unreachable!("null operands handled above"),
        };

        match product {
            Some((up, vp)) => subtract_lowrank_reference(c, &up, &vp, config),
            None => {
                // dense × dense: compute densely and keep C dense.
                let (am, bm) = match (a, b) {
                    (Tile::Dense(am), Tile::Dense(bm)) => (am, bm),
                    _ => unreachable!(),
                };
                let mut cd = c.to_dense();
                gemm_serial(Trans::No, Trans::Yes, -1.0, am, bm, 1.0, &mut cd);
                *c = Tile::Dense(cd);
            }
        }
    }

    /// Pre-workspace [`super::subtract_lowrank`] with clone-based
    /// stacking.
    pub fn subtract_lowrank_reference(
        c: &mut Tile,
        up: &Matrix,
        vp: &Matrix,
        config: &CompressionConfig,
    ) {
        let kp = up.cols();
        if kp == 0 {
            return;
        }
        match c {
            Tile::Dense(cm) => {
                gemm_serial(Trans::No, Trans::Yes, -1.0, up, vp, 1.0, cm);
            }
            Tile::LowRank { .. } | Tile::Null { .. } => {
                let rows = c.rows();
                let cols = c.cols();
                let (uc, vc) = match c {
                    Tile::LowRank { u, v } => (Some(u), Some(v)),
                    _ => (None, None),
                };
                let kc = uc.as_ref().map_or(0, |u| u.cols());
                let ktot = kc + kp;
                // Stack factors: U_s = [U_c  −up], V_s = [V_c  vp].
                let mut us = Matrix::zeros(rows, ktot);
                let mut vs = Matrix::zeros(cols, ktot);
                if let (Some(uc), Some(vc)) = (uc, vc) {
                    us.set_submatrix(0, 0, uc);
                    vs.set_submatrix(0, 0, vc);
                }
                {
                    let mut neg = up.clone();
                    neg.scale(-1.0);
                    us.set_submatrix(0, kc, &neg);
                    vs.set_submatrix(0, kc, vp);
                }
                *c = recompress_reference(us, vs, rows, cols, config);
            }
        }
    }

    /// Pre-workspace recompression: explicit `q_thin()` factors and two
    /// `b × kt × k'` re-projection GEMMs.
    fn recompress_reference(
        us: Matrix,
        vs: Matrix,
        rows: usize,
        cols: usize,
        config: &CompressionConfig,
    ) -> Tile {
        let qu = Qr::new(us);
        let qv = Qr::new(vs);
        let ru = qu.r(); // ku × ktot
        let rv = qv.r(); // kv × ktot
        // Core = Ru · Rvᵀ (ku × kv), small.
        let mut core = Matrix::zeros(ru.rows(), rv.rows());
        gemm_serial(Trans::No, Trans::Yes, 1.0, &ru, &rv, 0.0, &mut core);
        let svd = jacobi_svd(&core);
        let k = svd.rank_at_frobenius(config.accuracy).min(config.max_rank);
        if k == 0 {
            return Tile::Null { rows, cols };
        }
        // U = Q_u · X_k · Σ_k ; V = Q_v · Y_k
        let x = svd.u.submatrix(0, 0, svd.u.rows(), k);
        let mut xs = x;
        for p in 0..k {
            let sv = svd.s[p];
            for val in xs.col_mut(p) {
                *val *= sv;
            }
        }
        let quf = qu.q_thin();
        let qvf = qv.q_thin();
        let mut u = Matrix::zeros(rows, k);
        gemm_serial(Trans::No, Trans::No, 1.0, &quf, &xs, 0.0, &mut u);
        let y = svd.v.submatrix(0, 0, svd.v.rows(), k);
        let mut v = Matrix::zeros(cols, k);
        gemm_serial(Trans::No, Trans::No, 1.0, &qvf, &y, 0.0, &mut v);
        if !low_rank_pays_off(k, rows, cols) {
            let t = Tile::LowRank { u, v };
            return Tile::Dense(t.to_dense());
        }
        Tile::LowRank { u, v }
    }
}

/// Operation counts for every kernel variant, parameterized by tile size
/// and the ranks involved. These drive the discrete-event time model; the
/// constants follow standard dense-LA flop counting (LAPACK Users' Guide).
pub mod flops {
    /// Cholesky of a `b × b` dense tile: `b³/3`.
    pub fn potrf(b: usize) -> f64 {
        let b = b as f64;
        b * b * b / 3.0
    }

    /// Dense TRSM `b × b` against a `b × b` triangle: `b³`.
    pub fn trsm_dense(b: usize) -> f64 {
        let b = b as f64;
        b * b * b
    }

    /// Low-rank TRSM: triangular solve on the `b × k` factor: `b²·k`.
    pub fn trsm_lr(b: usize, k: usize) -> f64 {
        (b * b) as f64 * k as f64
    }

    /// Dense SYRK `b × b`: `b³`.
    pub fn syrk_dense(b: usize) -> f64 {
        let b = b as f64;
        b * b * b
    }

    /// Low-rank SYRK `C −= U(VᵀV)Uᵀ`: Gram `2bk²` + mult `2bk²` + update `2b²k`.
    pub fn syrk_lr(b: usize, k: usize) -> f64 {
        let (b, k) = (b as f64, k as f64);
        4.0 * b * k * k + 2.0 * b * b * k
    }

    /// Dense GEMM `b × b × b`: `2b³`.
    pub fn gemm_dense(b: usize) -> f64 {
        let b = b as f64;
        2.0 * b * b * b
    }

    /// TLR GEMM with recompression, operands of rank `ka`, `kb`,
    /// destination rank `kc` (before update), for the **implicit-Q**
    /// engine.
    ///
    /// Terms, with `kp = min(ka, kb)` and stacked rank `kt = kc + kp`:
    /// product form `2·b·ka·kb` (+ `2·b·kp²`), stacked QRs `≈ 4·b·kt²`,
    /// small SVD `O(kt³)` (the core is now truncated by a pivoted QR; the
    /// term stays until the model is re-priced against measured kernel
    /// rates, so every simulated figure keeps its numbers), and implicit-Q
    /// re-projection `4·b·kt·k'` where
    /// `k'` is the post-truncation rank (estimated as `kc`, clamped to
    /// `[1, kt]`). The old explicit-Q path paid `4·b·kt²` here — forming
    /// each thin `Q` *and* multiplying it — independent of how hard the
    /// truncation cut; applying the reflectors directly to the truncated
    /// block makes the cost proportional to what survives.
    pub fn gemm_tlr(b: usize, ka: usize, kb: usize, kc: usize) -> f64 {
        let kp = ka.min(kb);
        let kt = (kc + kp) as f64;
        let kout = kc.max(1).min(kc + kp) as f64;
        let (bf, kaf, kbf) = (b as f64, ka as f64, kb as f64);
        let product = 2.0 * bf * kaf * kbf + 2.0 * bf * (kp * kp) as f64;
        let qr2 = 4.0 * bf * kt * kt;
        let svd = 12.0 * kt * kt * kt;
        let reproject = 4.0 * bf * kt * kout;
        product + qr2 + svd + reproject
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_tile;
    use tlr_linalg::norms::{frobenius_norm, relative_diff};

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(r, c, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn spd_tile(b: usize, seed: u64) -> Matrix {
        let m = rand_mat(b, b, seed);
        let mut a = Matrix::identity(b);
        a.scale(b as f64);
        tlr_linalg::gemm(Trans::No, Trans::Yes, 1.0, &m, &m, 1.0, &mut a);
        a
    }

    fn smooth_tile(b: usize, shift: f64) -> Matrix {
        Matrix::from_fn(b, b, |i, j| {
            let d = (i as f64 - j as f64 + shift) / (b as f64 / 2.0);
            (-d * d).exp()
        })
    }

    #[test]
    fn potrf_kernel_factorizes() {
        let a = spd_tile(32, 1);
        let mut t = Tile::Dense(a.clone());
        potrf_kernel(&mut t).unwrap();
        let l = t.to_dense();
        let mut recon = Matrix::zeros(32, 32);
        gemm_serial(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut recon);
        assert!(relative_diff(&recon, &a) < 1e-12);
    }

    #[test]
    fn trsm_kernel_dense_vs_lowrank_agree() {
        let b = 32;
        let lmat = {
            let mut l = spd_tile(b, 2);
            potrf(&mut l).unwrap();
            l.zero_upper();
            l
        };
        let ldiag = Tile::Dense(lmat.clone());
        let a_dense_mat = smooth_tile(b, 40.0);
        // dense path
        let mut t_dense = Tile::Dense(a_dense_mat.clone());
        trsm_kernel(&ldiag, &mut t_dense);
        // low-rank path
        let cfg = CompressionConfig::with_accuracy(1e-10);
        let mut t_lr = compress_tile(a_dense_mat, &cfg);
        assert!(matches!(t_lr, Tile::LowRank { .. }), "tile should compress");
        trsm_kernel(&ldiag, &mut t_lr);
        assert!(relative_diff(&t_lr.to_dense(), &t_dense.to_dense()) < 1e-8);
    }

    #[test]
    fn trsm_kernel_null_noop() {
        let lmat = {
            let mut l = spd_tile(8, 3);
            potrf(&mut l).unwrap();
            l
        };
        let mut t = Tile::Null { rows: 8, cols: 8 };
        trsm_kernel(&Tile::Dense(lmat), &mut t);
        assert!(t.is_null());
    }

    #[test]
    fn syrk_kernel_dense_vs_lowrank_agree() {
        let b = 32;
        let c0 = spd_tile(b, 4);
        let a_mat = smooth_tile(b, 38.0);
        let mut c_dense = Tile::Dense(c0.clone());
        syrk_kernel(&Tile::Dense(a_mat.clone()), &mut c_dense);
        let cfg = CompressionConfig::with_accuracy(1e-10);
        let a_lr = compress_tile(a_mat, &cfg);
        let mut c_lr = Tile::Dense(c0);
        syrk_kernel(&a_lr, &mut c_lr);
        assert!(relative_diff(&c_lr.to_dense(), &c_dense.to_dense()) < 1e-8);
    }

    #[test]
    fn gemm_kernel_all_format_combinations_agree_with_dense() {
        let b = 24;
        let cfg = CompressionConfig::with_accuracy(1e-9);
        let a_mat = smooth_tile(b, 30.0);
        let b_mat = smooth_tile(b, 34.0);
        let c_mat = smooth_tile(b, 50.0);

        // Reference: dense arithmetic.
        let mut c_ref = c_mat.clone();
        gemm_serial(Trans::No, Trans::Yes, -1.0, &a_mat, &b_mat, 1.0, &mut c_ref);

        let formats: Vec<(&str, Tile)> = vec![
            ("dense", Tile::Dense(a_mat.clone())),
            ("lr", compress_tile(a_mat.clone(), &cfg)),
        ];
        let formats_b: Vec<(&str, Tile)> = vec![
            ("dense", Tile::Dense(b_mat.clone())),
            ("lr", compress_tile(b_mat.clone(), &cfg)),
        ];
        let formats_c: Vec<(&str, Tile)> = vec![
            ("dense", Tile::Dense(c_mat.clone())),
            ("lr", compress_tile(c_mat.clone(), &cfg)),
        ];
        for (an, at) in &formats {
            for (bn, bt) in &formats_b {
                for (cn, ct) in &formats_c {
                    let mut c = ct.clone();
                    gemm_kernel(at, bt, &mut c, &cfg);
                    let err = relative_diff(&c.to_dense(), &c_ref);
                    assert!(err < 1e-6, "a={an} b={bn} c={cn}: err={err}");
                }
            }
        }
    }

    #[test]
    fn workspace_path_matches_reference_path() {
        // Differential test across every operand/destination format
        // against the preserved pre-workspace path, whose SVD truncation
        // keeps the fewest terms the accuracy allows: the same format, a
        // rank no lower than that optimum (lower would mean the error
        // bound broke), and both products within the accuracy of the
        // exact update, so within twice of each other.
        let b = 24;
        let cfg = CompressionConfig::with_accuracy(1e-9);
        let a_mat = smooth_tile(b, 30.0);
        let b_mat = smooth_tile(b, 34.0);
        let c_mat = smooth_tile(b, 50.0);
        let formats_a = [Tile::Dense(a_mat.clone()), compress_tile(a_mat, &cfg)];
        let formats_b = [Tile::Dense(b_mat.clone()), compress_tile(b_mat, &cfg)];
        let formats_c = [
            Tile::Dense(c_mat.clone()),
            compress_tile(c_mat, &cfg),
            Tile::Null { rows: b, cols: b },
        ];
        let mut ws = KernelWorkspace::new();
        for at in &formats_a {
            for bt in &formats_b {
                for ct in &formats_c {
                    let mut c_new = ct.clone();
                    gemm_kernel_ws(&mut ws, at, bt, &mut c_new, &cfg);
                    let mut c_old = ct.clone();
                    reference::gemm_kernel_reference(at, bt, &mut c_old, &cfg);
                    let what = format!("formats {:?}/{:?}/{:?}", at.format(), bt.format(), ct.format());
                    assert_eq!(c_new.format(), c_old.format(), "{what}");
                    assert!(c_new.rank() >= c_old.rank(), "{what}: rank {} under the optimum {}",
                        c_new.rank(), c_old.rank());
                    let mut diff = c_new.to_dense();
                    diff.axpy(-1.0, &c_old.to_dense());
                    let err = frobenius_norm(&diff);
                    assert!(err <= 2.0 * cfg.accuracy, "{what}: err={err}");
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_across_many_calls_stays_correct() {
        // Drive one arena through a long, rank-varying call sequence and
        // check against the reference path each time — buffer recycling
        // must never leak state between calls.
        let b = 32;
        let cfg = CompressionConfig::with_accuracy(1e-8);
        let mut ws = KernelWorkspace::new();
        let mut c_new = Tile::Null { rows: b, cols: b };
        let mut c_old = Tile::Null { rows: b, cols: b };
        for s in 0..8 {
            let a_t = compress_tile(smooth_tile(b, 28.0 + 2.0 * s as f64), &cfg);
            let b_t = compress_tile(smooth_tile(b, 41.0 + 3.0 * s as f64), &cfg);
            gemm_kernel_ws(&mut ws, &a_t, &b_t, &mut c_new, &cfg);
            reference::gemm_kernel_reference(&a_t, &b_t, &mut c_old, &cfg);
            assert_eq!(c_new.rank(), c_old.rank(), "step {s}");
            assert!(
                relative_diff(&c_new.to_dense(), &c_old.to_dense()) < 1e-11,
                "step {s}"
            );
        }
    }

    #[test]
    fn gemm_kernel_zero_rank_operands_noop() {
        // Satellite bugfix: zero-rank (but non-Null) low-rank operands
        // must leave C untouched in the mixed arms too.
        let b = 16;
        let cfg = CompressionConfig::default();
        let zero_lr = Tile::LowRank { u: Matrix::zeros(b, 0), v: Matrix::zeros(b, 0) };
        let dense = Tile::Dense(smooth_tile(b, 20.0));
        let c0 = compress_tile(smooth_tile(b, 26.0), &CompressionConfig::with_accuracy(1e-9));
        for other in [&dense, &zero_lr] {
            let mut c = c0.clone();
            gemm_kernel(&zero_lr, other, &mut c, &cfg);
            assert!(relative_diff(&c.to_dense(), &c0.to_dense()) < 1e-15);
            let mut c = c0.clone();
            gemm_kernel(other, &zero_lr, &mut c, &cfg);
            assert!(relative_diff(&c.to_dense(), &c0.to_dense()) < 1e-15);
        }
        // Dense destination too.
        let mut c = dense.clone();
        gemm_kernel(&zero_lr, &dense, &mut c, &cfg);
        assert!(relative_diff(&c.to_dense(), &dense.to_dense()) < 1e-15);
    }

    #[test]
    fn gemm_kernel_null_operands_noop() {
        let cfg = CompressionConfig::default();
        let c0 = smooth_tile(16, 20.0);
        let mut c = Tile::Dense(c0.clone());
        gemm_kernel(&Tile::Null { rows: 16, cols: 16 }, &Tile::Dense(c0.clone()), &mut c, &cfg);
        assert!(relative_diff(&c.to_dense(), &c0) < 1e-15);
        gemm_kernel(&Tile::Dense(c0.clone()), &Tile::Null { rows: 16, cols: 16 }, &mut c, &cfg);
        assert!(relative_diff(&c.to_dense(), &c0) < 1e-15);
    }

    #[test]
    fn gemm_into_null_creates_fill_in() {
        let b = 24;
        let cfg = CompressionConfig::with_accuracy(1e-9);
        let a_t = compress_tile(smooth_tile(b, 30.0), &cfg);
        let b_t = compress_tile(smooth_tile(b, 34.0), &cfg);
        let mut c = Tile::Null { rows: b, cols: b };
        gemm_kernel(&a_t, &b_t, &mut c, &cfg);
        assert!(!c.is_null(), "fill-in expected");
        // result should equal -A·Bᵀ
        let mut expect = Matrix::zeros(b, b);
        gemm_serial(Trans::No, Trans::Yes, -1.0, &a_t.to_dense(), &b_t.to_dense(), 0.0, &mut expect);
        assert!(relative_diff(&c.to_dense(), &expect) < 1e-6);
    }

    #[test]
    fn gemm_cancellation_produces_null() {
        // C = A·Bᵀ exactly, then C −= A·Bᵀ ⇒ C ≈ 0 ⇒ Null after recompress.
        let b = 16;
        let cfg = CompressionConfig::with_accuracy(1e-8);
        let a_t = compress_tile(smooth_tile(b, 18.0), &cfg);
        let b_t = compress_tile(smooth_tile(b, 22.0), &cfg);
        let mut prod = Tile::Null { rows: b, cols: b };
        gemm_kernel(&a_t, &b_t, &mut prod, &cfg);
        // negate: C = -prod, then subtract the product again
        let mut c = match &prod {
            Tile::LowRank { u, v } => {
                let mut un = u.clone();
                un.scale(-1.0);
                Tile::LowRank { u: un, v: v.clone() }
            }
            other => other.clone(),
        };
        // c = -A·Bᵀ... wait: prod = −A·Bᵀ so c = A·Bᵀ; c −= A·Bᵀ ⇒ 0
        gemm_kernel(&a_t, &b_t, &mut c, &cfg);
        assert!(
            c.is_null() || frobenius_norm(&c.to_dense()) < 1e-6,
            "cancelled tile should vanish (rank {})",
            c.rank()
        );
    }

    #[test]
    fn recompression_bounds_rank_growth() {
        // Accumulate several rank-k updates into one tile; rank must stay
        // bounded by the spectrum, not grow additively.
        let b = 32;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let mut c = Tile::Null { rows: b, cols: b };
        for s in 0..6 {
            let a_t = compress_tile(smooth_tile(b, 30.0 + s as f64), &cfg);
            let b_t = compress_tile(smooth_tile(b, 44.0 + s as f64), &cfg);
            gemm_kernel(&a_t, &b_t, &mut c, &cfg);
        }
        assert!(c.rank() < b / 2, "rank should stay bounded, got {}", c.rank());
    }

    #[test]
    fn workspace_take_give_best_fit() {
        let mut ws = KernelWorkspace::new();
        let a = ws.take(4, 4); // 16
        let b = ws.take(10, 10); // 100
        ws.give(a);
        ws.give(b);
        // A 5×5 request must reuse a pooled buffer (no shrink of the
        // bigger one below its capacity) and come back zeroed.
        let c = ws.take(5, 5);
        assert_eq!((c.rows(), c.cols()), (5, 5));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        ws.give(c);
        // Pool keeps both buffers: a 100-element take still fits without
        // growing the small one.
        let d = ws.take(10, 10);
        assert_eq!(d.as_slice().len(), 100);
    }

    #[test]
    fn flop_counts_sane() {
        assert_eq!(flops::potrf(10), 1000.0 / 3.0);
        assert!(flops::trsm_lr(100, 5) < flops::trsm_dense(100));
        assert!(flops::syrk_lr(100, 5) < flops::syrk_dense(100));
        assert!(flops::gemm_tlr(100, 5, 5, 5) < flops::gemm_dense(100));
        // TLR kernels grow with rank
        assert!(flops::gemm_tlr(100, 20, 20, 20) > flops::gemm_tlr(100, 5, 5, 5));
        // The implicit-Q re-projection makes the cost sensitive to the
        // surviving rank: a hard truncation (small kc) is cheaper than
        // the old explicit-Q model, which charged 4·b·kt² regardless.
        assert!(flops::gemm_tlr(128, 16, 16, 4) < flops::gemm_tlr(128, 16, 16, 16));
    }
}
