//! Micro-benchmark of the SIMD GEMM microkernel against the seed's
//! axpy column-sweep GEMM, plus the steady-state allocation probe.
//!
//! Emits `BENCH_gemm_microkernel.json` in the working directory (under
//! `target/bench-smoke/` with `--smoke`; echoed to stdout). Two measurements per run:
//!
//! 1. **Gflop/s vs tile size** — `gemm_serial` (now routed through the
//!    packed register-blocked microkernel) against a faithful copy of the
//!    pre-microkernel column-sweep path, at b ∈ {64, 96, 100, 104, 128,
//!    150, 200, 256}: multiples of the kernel's 8 rows and sizes with a
//!    row tail (100, 150) side by side. The acceptance gate is ≥ 2x on
//!    every tile size (skipped when runtime dispatch resolved to the
//!    scalar fallback, whose job is bit-identical portability, not
//!    speed).
//! 2. **Allocs/call** — a counting global allocator confirms the packed
//!    path performs zero heap allocations per call in steady state (the
//!    pack buffers are thread-local and grow to a high-water mark).
//!
//! `--smoke` shrinks everything to a CI-sized gate: b = 64 and b = 100,
//! so a row tail that leaves the SIMD kernel fails the 2x gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tlr_linalg::{active_path, gemm_serial, KernelPath, Matrix, Trans};

/// Forwarding allocator counting `alloc`/`realloc` calls, so the bench can
/// assert the steady-state GEMM hot path touches the heap zero times.
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

/// Faithful copy of the pre-microkernel `gemm_serial` inner loop (the
/// seed's KC-blocked axpy column sweep), kept here as the fixed reference
/// the speedup is measured against: `C := alpha·A·Bᵀ + beta·C`.
fn gemm_reference_nt(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, n) = (c.rows(), c.cols());
    let k = a.cols();
    let kc = (32_768 / m.max(1)).clamp(8, k);
    let mut pc = 0;
    while pc < k {
        let pe = (pc + kc).min(k);
        for j in 0..n {
            let c_col = c.col_mut(j);
            if pc == 0 {
                if beta == 0.0 {
                    c_col.fill(0.0);
                } else if beta != 1.0 {
                    for v in c_col.iter_mut() {
                        *v *= beta;
                    }
                }
            }
            for p in pc..pe {
                let w = alpha * b[(j, p)];
                if w != 0.0 {
                    for (ci, ai) in c_col.iter_mut().zip(a.col(p)) {
                        *ci += w * ai;
                    }
                }
            }
        }
        pc = pe;
    }
}

struct GemmPoint {
    b: usize,
    gflops_micro: f64,
    gflops_ref: f64,
    speedup: f64,
    allocs_per_call: u64,
}

/// Best-of-reps Gflop/s of one b×b×b `C := A·Bᵀ − C` on both paths, plus
/// the steady-state allocation count of the microkernel path.
fn run_gemm_point(b: usize, reps: usize) -> GemmPoint {
    let a = Matrix::from_fn(b, b, |i, j| ((i * 7 + j * 3) % 13) as f64 / 13.0 - 0.4);
    let bm = Matrix::from_fn(b, b, |i, j| ((i * 5 + j * 11) % 17) as f64 / 17.0 - 0.5);
    let mut c = Matrix::from_fn(b, b, |i, j| ((i + j) % 7) as f64 / 7.0);

    // Warm-up grows the thread-local pack buffers to their high-water mark.
    gemm_serial(Trans::No, Trans::Yes, 1.0, &a, &bm, -1.0, &mut c);
    gemm_reference_nt(1.0, &a, &bm, -1.0, &mut c);

    let flops = 2.0 * (b as f64).powi(3);
    let mut best_micro = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        gemm_serial(Trans::No, Trans::Yes, 1.0, &a, &bm, -1.0, &mut c);
        best_micro = best_micro.min(t0.elapsed().as_secs_f64());
    }
    let mut best_ref = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        gemm_reference_nt(1.0, &a, &bm, -1.0, &mut c);
        best_ref = best_ref.min(t0.elapsed().as_secs_f64());
    }

    // Steady-state allocation probe on the warmed microkernel path.
    let before = ALLOCS.load(Ordering::Relaxed);
    gemm_serial(Trans::No, Trans::Yes, 1.0, &a, &bm, -1.0, &mut c);
    let allocs_per_call = ALLOCS.load(Ordering::Relaxed) - before;

    GemmPoint {
        b,
        gflops_micro: flops / best_micro / 1e9,
        gflops_ref: flops / best_ref / 1e9,
        speedup: best_ref / best_micro,
        allocs_per_call,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let path = active_path();
    let simd = tlr_linalg::simd_available();

    let tile_sizes: &[usize] =
        if smoke { &[64, 100] } else { &[64, 96, 100, 104, 128, 150, 200, 256] };
    let mut points = Vec::new();
    for &b in tile_sizes {
        let reps = if smoke { 10 } else { (200_000_000 / (2 * b * b * b)).clamp(10, 200) };
        let p = run_gemm_point(b, reps);
        eprintln!(
            "b={:<4} microkernel {:>7.2} Gflop/s  reference {:>6.2} Gflop/s  \
             speedup {:.2}x  allocs/call {}",
            p.b, p.gflops_micro, p.gflops_ref, p.speedup, p.allocs_per_call
        );
        points.push(p);
    }

    let min_speedup = points.iter().map(|p| p.speedup).fold(f64::INFINITY, f64::min);
    let max_allocs = points.iter().map(|p| p.allocs_per_call).max().unwrap_or(0);
    let path_name = match path {
        KernelPath::Simd => "simd",
        KernelPath::Scalar => "scalar",
    };

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"b\": {}, \"gflops_microkernel\": {:.3}, \"gflops_reference\": {:.3}, \
                 \"speedup\": {:.3}, \"allocs_per_call\": {}}}",
                p.b, p.gflops_micro, p.gflops_ref, p.speedup, p.allocs_per_call
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"gemm_microkernel\",\n  \
         \"mode\": \"{}\",\n  \
         \"kernel_path\": \"{path_name}\",\n  \
         \"simd_available\": {simd},\n  \
         \"baseline\": \"pre-microkernel axpy column sweep (seed gemm_serial)\",\n  \
         \"min_speedup\": {min_speedup:.3},\n  \
         \"max_allocs_per_call\": {max_allocs},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        rows.join(",\n")
    );
    print!("{json}");
    let out = tlr_bench::write_bench_json("gemm_microkernel", smoke, &json);
    eprintln!(
        "wrote {} (path {path_name}, min speedup {min_speedup:.2}x, \
         max allocs/call {max_allocs})",
        out.display()
    );

    if max_allocs > 0 {
        eprintln!("FAILED: steady-state gemm_serial allocated (expected 0 allocs/call)");
        std::process::exit(1);
    }
    // The ≥2x gate only applies to the SIMD path — the scalar fallback
    // exists for bit-identical portability, not throughput.
    if path == KernelPath::Simd && min_speedup < 2.0 {
        eprintln!("FAILED: microkernel speedup {min_speedup:.2}x < 2x over the seed column sweep");
        std::process::exit(1);
    }
}
