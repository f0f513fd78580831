//! Micro-benchmark of the TLR update hot path: `gemm_kernel` with the
//! workspace-backed implicit-Q recompression engine versus the kept
//! allocating explicit-Q baseline (`kernels::reference`).
//!
//! Emits `BENCH_gemm_recompress.json` in the working directory (under
//! `target/bench-smoke/` with `--smoke`; echoed to stdout). Both paths
//! are measured in the *same run* over a tile-size × rank grid so the
//! speedup column is an apples-to-apples comparison on this machine,
//! and a counting global allocator reports heap allocations per
//! `gemm_kernel` call after warm-up (the acceptance target is exactly
//! zero in steady state).
//!
//! The grid ends in one high-rank point (`b = 150`, rank 60, factor
//! columns decaying from 1 to the accuracy like a compressed kernel
//! tile): the regime where the small core, not the `b`-sized QRs, used
//! to set the cost. Every point also reports the recompression's ledger
//! row as shares of the call, each timed on its own from public pieces:
//! `qr_share` (the QRs of the two stacked factors), `core_share` (the
//! core truncation: the pivoted QR of `R_u·R_vᵀ` stopped at the accuracy)
//! and `reproject_share` (the two `Qr::apply_q` re-projections at the
//! kept rank); and the rank each path keeps: `rank_new` from the pivoted
//! QR, `rank_ref` from the baseline's SVD, the fewest terms the accuracy
//! allows.
//!
//! `--smoke` shrinks the grid to two points for CI — b = 32 at rank 4,
//! whose 8 stacked columns `Qr` reflects one at a time, and b = 150 at
//! rank 32, whose 64 it factors and applies as block reflectors — and
//! fails unless the steady-state call allocates nothing and
//! `rank_new ≥ rank_ref` (a lower rank than the SVD optimum would mean
//! the error bound broke).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tlr_compress::kernels::{gemm_kernel_ws, reference, KernelWorkspace};
use tlr_compress::{CompressionConfig, Tile};
use tlr_linalg::{gemm_serial, ColPivQr, ColPivScratch, Matrix, Qr, Trans};

/// Forwarding allocator that counts `alloc`/`realloc` calls so the bench
/// can assert the steady-state hot path touches the heap zero times.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A deterministic factor whose columns are decaying pseudo-random mixes
/// of `k` smooth cosine modes (family selected by `phase`). Tiles built
/// from the same family share a column space — the realistic TLR regime
/// where a Schur-complement update does not inflate the destination rank
/// past the operand rank, so recompression truncates `2k → k`.
fn mixed_factor(rows: usize, k: usize, phase: f64, decay: f64, seed: usize) -> Matrix {
    Matrix::from_fn(rows, k, |i, j| {
        let mut acc = 0.0;
        for l in 0..k {
            let m = ((l * 31 + j * 17 + seed * 13 + 7) % 101) as f64 / 101.0 - 0.5;
            let f = ((l + 1) as f64 * std::f64::consts::PI * (i as f64 + 0.5) / rows as f64
                + phase)
                .cos();
            acc += m * decay.powi(l as i32) * f;
        }
        acc
    })
}

/// The three tiles of one update `C −= A·Bᵀ`: `A.u` and `C.u` share one
/// mode family, `B.u` and `C.v` share another (the product's row space
/// lives in `span(B.u)`). `decay` is the per-mode weight ratio of the
/// `u`, `v` and destination factors.
fn update_operands(b: usize, rank: usize, decay: [f64; 3]) -> (Tile, Tile, Tile) {
    let [du, dv, dc] = decay;
    let a = Tile::LowRank {
        u: mixed_factor(b, rank, 0.0, du, 1),
        v: mixed_factor(b, rank, 1.0, dv, 2),
    };
    let bt = Tile::LowRank {
        u: mixed_factor(b, rank, 2.0, du, 3),
        v: mixed_factor(b, rank, 1.0, dv, 4),
    };
    let c = Tile::LowRank {
        u: mixed_factor(b, rank, 0.0, dc, 5),
        v: mixed_factor(b, rank, 2.0, dc, 6),
    };
    (a, bt, c)
}

/// Mode weights of the synthetic grid: steep, so the ranks that matter
/// are far below the stored ones.
const STEEP: [f64; 3] = [0.5, 0.7, 0.6];

/// Mode weights falling from 1 to `accuracy` over `rank` modes — the
/// singular-value profile of a kernel tile compressed at that accuracy,
/// where all `rank` stored columns carry weight.
fn kernel_like(rank: usize, accuracy: f64) -> [f64; 3] {
    [accuracy.powf(1.0 / rank as f64); 3]
}

/// The stacked factors `U_s = [U_c  −U_a]`, `V_s = [V_c  U_b·(V_aᵀ·V_b)ᵀ]`
/// that `gemm_kernel_ws` recompresses for this update (low-rank operands
/// and destination, `rank(A) ≤ rank(B)`), built from public pieces so the
/// steps of recompression can be timed on their own.
fn stacked_factors(a: &Tile, bt: &Tile, c: &Tile) -> (Matrix, Matrix) {
    let (Tile::LowRank { u: ua, v: va }, Tile::LowRank { u: ub, v: vb }, Tile::LowRank { u: uc, v: vc }) =
        (a, bt, c)
    else {
        unreachable!("bench operands are low-rank")
    };
    let (kc, ka) = (uc.cols(), ua.cols());
    let mut w = Matrix::zeros(ka, ub.cols());
    gemm_serial(Trans::Yes, Trans::No, 1.0, va, vb, 0.0, &mut w);
    let mut vp = Matrix::zeros(ub.rows(), ka);
    gemm_serial(Trans::No, Trans::Yes, 1.0, ub, &w, 0.0, &mut vp);
    let mut neg_ua = ua.clone();
    neg_ua.scale(-1.0);
    let stack = |x: &Matrix, y: &Matrix| {
        let mut s = Matrix::zeros(x.rows(), kc + ka);
        s.set_submatrix(0, 0, x);
        s.set_submatrix(0, kc, y);
        s
    };
    (stack(uc, &neg_ua), stack(vc, &vp))
}

/// Mean seconds per call of `f` over `reps` calls.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

struct Point {
    b: usize,
    rank: usize,
    qr_share: f64,
    core_share: f64,
    reproject_share: f64,
    rank_new: usize,
    rank_ref: usize,
    us_per_call_new: f64,
    us_per_call_ref: f64,
    speedup: f64,
    microkernel_speedup: f64,
    allocs_per_call: u64,
}

/// Pre-microkernel axpy column sweep (`C := alpha·A·B + beta·C`), kept as
/// the fixed baseline for the microkernel comparison below.
fn gemm_sweep_nn(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let k = a.cols();
    for j in 0..c.cols() {
        let c_col = c.col_mut(j);
        if beta == 0.0 {
            c_col.fill(0.0);
        } else if beta != 1.0 {
            for v in c_col.iter_mut() {
                *v *= beta;
            }
        }
        for p in 0..k {
            let w = alpha * b[(p, j)];
            if w != 0.0 {
                for (ci, ai) in c_col.iter_mut().zip(a.col(p)) {
                    *ci += w * ai;
                }
            }
        }
    }
}

/// Microkernel-vs-reference speedup on the implicit-Q small-GEMM shape of
/// this grid point: `C (b×2r) := A (b×2r) · B (2r×2r)` — the tall-skinny
/// product the recompression engine issues per update.
fn microkernel_speedup(b: usize, rank: usize, reps: usize) -> f64 {
    let r2 = 2 * rank;
    let a = Matrix::from_fn(b, r2, |i, j| ((i * 3 + j * 7) % 11) as f64 / 11.0 - 0.4);
    let q = Matrix::from_fn(r2, r2, |i, j| ((i * 5 + j) % 13) as f64 / 13.0 - 0.5);
    let mut c = Matrix::zeros(b, r2);
    gemm_serial(Trans::No, Trans::No, 1.0, &a, &q, 0.0, &mut c);
    gemm_sweep_nn(1.0, &a, &q, 0.0, &mut c);

    let mut best_micro = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        gemm_serial(Trans::No, Trans::No, 1.0, &a, &q, 0.0, &mut c);
        best_micro = best_micro.min(t0.elapsed().as_secs_f64());
    }
    let mut best_ref = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        gemm_sweep_nn(1.0, &a, &q, 0.0, &mut c);
        best_ref = best_ref.min(t0.elapsed().as_secs_f64());
    }
    best_ref / best_micro
}

/// Time one (tile size, rank) grid point: both paths on identical
/// pre-cloned destinations, then the steady-state allocation count.
fn run_point(
    b: usize,
    rank: usize,
    decay: [f64; 3],
    reps: usize,
    config: &CompressionConfig,
) -> Point {
    let (a, bt, c0) = update_operands(b, rank, decay);

    let mut ws = KernelWorkspace::new();
    // Warm-up: grow the arena to its high-water mark (and fault pages in
    // for the reference path too).
    const WARMUP: usize = 5;
    for _ in 0..WARMUP {
        let mut c = c0.clone();
        gemm_kernel_ws(&mut ws, &a, &bt, &mut c, config);
        let mut c = c0.clone();
        reference::gemm_kernel_reference(&a, &bt, &mut c, config);
    }

    // Destinations are consumed by each call; clone them all before the
    // timed region so the timing (and the allocation count) cover only
    // the kernel itself.
    let mut dests: Vec<Tile> = (0..reps).map(|_| c0.clone()).collect();
    let t0 = std::time::Instant::now();
    for c in dests.iter_mut() {
        gemm_kernel_ws(&mut ws, &a, &bt, c, config);
    }
    let t_new = t0.elapsed().as_secs_f64() / reps as f64;

    let rank_new = dests[0].rank();

    let mut dests: Vec<Tile> = (0..reps).map(|_| c0.clone()).collect();
    let t0 = std::time::Instant::now();
    for c in dests.iter_mut() {
        reference::gemm_kernel_reference(&a, &bt, c, config);
    }
    let t_ref = t0.elapsed().as_secs_f64() / reps as f64;
    let rank_ref = dests[0].rank();

    // Steady-state allocation count: one call on a pre-cloned
    // destination with the warmed arena.
    let mut c = c0.clone();
    let before = ALLOCS.load(Ordering::Relaxed);
    gemm_kernel_ws(&mut ws, &a, &bt, &mut c, config);
    let allocs_per_call = ALLOCS.load(Ordering::Relaxed) - before;

    // The steps of this update's recompression on their own, as the
    // kernel runs them, each on recycled buffers; their shares of the
    // call timed above. The two stacked QRs:
    let (us, vs) = stacked_factors(&a, &bt, &c0);
    let mut stores = [(us.clone(), Vec::new()), (vs.clone(), Vec::new())];
    let t_qr = per_call(reps, || {
        for ((storage, taus), input) in stores.iter_mut().zip([&us, &vs]) {
            storage.as_mut_slice().copy_from_slice(std::hint::black_box(input).as_slice());
            let storage_in = std::mem::replace(storage, Matrix::zeros(0, 0));
            let f = Qr::new_in(storage_in, std::mem::take(taus));
            (*storage, *taus) = f.into_parts();
        }
    });
    // The core truncation: the pivoted QR stopped at the accuracy, then
    // the exact trailing norm that certifies the stop.
    let (qu, qv) = (Qr::new(us), Qr::new(vs));
    let mut core = Matrix::zeros(qu.k(), qv.k());
    gemm_serial(Trans::No, Trans::Yes, 1.0, &qu.r(), &qv.r(), 0.0, &mut core);
    let (mut storage, mut scratch) = (core.clone(), ColPivScratch::default());
    let t_core = per_call(reps, || {
        storage.as_mut_slice().copy_from_slice(std::hint::black_box(&core).as_slice());
        let storage_in = std::mem::replace(&mut storage, Matrix::zeros(0, 0));
        let mut f = ColPivQr::unfactored_in(storage_in, std::mem::take(&mut scratch));
        f.advance(config.accuracy, usize::MAX);
        std::hint::black_box(f.trailing_norm());
        (storage, scratch) = f.into_parts();
    });
    // The two re-projections `Q_u·[X; 0]`, `Q_v·[Y; 0]` at the kept rank.
    let block = |rows: usize| Matrix::from_fn(rows, rank_new, |i, j| ((i + 3 * j) % 7) as f64 - 3.0);
    let (xs, ys) = (block(qu.k()), block(qv.k()));
    let (mut u, mut v) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let t_reproject = per_call(reps, || {
        qu.apply_q(std::hint::black_box(&xs), &mut u);
        qv.apply_q(std::hint::black_box(&ys), &mut v);
    });

    Point {
        b,
        rank,
        qr_share: t_qr / t_new,
        core_share: t_core / t_new,
        reproject_share: t_reproject / t_new,
        rank_new,
        rank_ref,
        us_per_call_new: t_new * 1e6,
        us_per_call_ref: t_ref * 1e6,
        speedup: t_ref / t_new,
        microkernel_speedup: microkernel_speedup(b, rank, reps.max(50)),
        allocs_per_call,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = CompressionConfig::with_accuracy(1e-8);

    let grid: Vec<(usize, usize, [f64; 3])> = if smoke {
        vec![(32, 4, STEEP), (150, 32, STEEP)]
    } else {
        let mut g = Vec::new();
        for b in [64usize, 128, 256] {
            for rank in [8usize, 16, 32] {
                g.push((b, rank, STEEP));
            }
        }
        // Last, so the indices of the points above stay what the
        // bench-history ledger has recorded them under.
        g.push((150, 60, kernel_like(60, config.accuracy)));
        g
    };

    let mut points = Vec::new();
    for &(b, rank, decay) in &grid {
        let reps = if smoke { 20 } else { (4_000_000 / (b * b)).clamp(20, 400) };
        let p = run_point(b, rank, decay, reps, &config);
        eprintln!(
            "b={:<4} rank={:<3} new {:>9.1} us  ref {:>9.1} us  speedup {:.2}x  \
             microkernel {:.2}x  qr / core / re-projection {:.0} / {:.0} / {:.0} % of the call  \
             rank {} (ref {})  allocs/call {}",
            p.b,
            p.rank,
            p.us_per_call_new,
            p.us_per_call_ref,
            p.speedup,
            p.microkernel_speedup,
            100.0 * p.qr_share,
            100.0 * p.core_share,
            100.0 * p.reproject_share,
            p.rank_new,
            p.rank_ref,
            p.allocs_per_call
        );
        points.push(p);
    }

    let b128_min_speedup = points
        .iter()
        .filter(|p| p.b == 128)
        .map(|p| p.speedup)
        .fold(f64::INFINITY, f64::min);
    let max_allocs = points.iter().map(|p| p.allocs_per_call).max().unwrap_or(0);
    let under_optimum = points.iter().filter(|p| p.rank_new < p.rank_ref).count();

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"b\": {}, \"rank\": {}, \"us_per_call_new\": {:.3}, \
                 \"us_per_call_ref\": {:.3}, \"speedup\": {:.3}, \
                 \"microkernel_speedup\": {:.3}, \"qr_share\": {:.3}, \
                 \"core_share\": {:.3}, \"reproject_share\": {:.3}, \
                 \"rank_new\": {}, \"rank_ref\": {}, \"allocs_per_call\": {}}}",
                p.b,
                p.rank,
                p.us_per_call_new,
                p.us_per_call_ref,
                p.speedup,
                p.microkernel_speedup,
                p.qr_share,
                p.core_share,
                p.reproject_share,
                p.rank_new,
                p.rank_ref,
                p.allocs_per_call
            )
        })
        .collect();
    let b128 = if b128_min_speedup.is_finite() {
        format!("{b128_min_speedup:.3}")
    } else {
        "null".to_string()
    };
    let kernel_path = match tlr_linalg::active_path() {
        tlr_linalg::KernelPath::Simd => "simd",
        tlr_linalg::KernelPath::Scalar => "scalar",
    };
    let json = format!(
        "{{\n  \"experiment\": \"gemm_recompress\",\n  \
         \"mode\": \"{}\",\n  \
         \"accuracy\": 1e-8,\n  \
         \"kernel_path\": \"{kernel_path}\",\n  \
         \"baseline\": \"kernels::reference (explicit-Q, allocating, plain cyclic Jacobi)\",\n  \
         \"min_speedup_b128\": {b128},\n  \
         \"max_allocs_per_call\": {max_allocs},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        rows.join(",\n")
    );
    print!("{json}");
    let path = tlr_bench::write_bench_json("gemm_recompress", smoke, &json);
    eprintln!(
        "wrote {} (min speedup @ b=128: {b128}, \
         max allocs/call: {max_allocs})",
        path.display()
    );
    if smoke && max_allocs > 0 {
        eprintln!("smoke FAILED: steady-state gemm_kernel allocated (expected 0)");
        std::process::exit(1);
    }
    if smoke && under_optimum > 0 {
        eprintln!("smoke FAILED: {under_optimum} point(s) kept fewer terms than the SVD optimum");
        std::process::exit(1);
    }
}
