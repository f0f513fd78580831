//! Overhead of the observability layer on the real shared-memory
//! factorization: the same problem is factored with tracing on and off
//! ([`FactorConfig::collect_trace`]) across a few sizes, and the
//! slowdown is reported.
//!
//! The traced run must stay within a few percent of the untraced one —
//! the facade records into preallocated per-worker buffers, so the hot
//! path costs two `Instant::now()` calls per task and no heap traffic,
//! which the counting global allocator cross-checks on the GEMM hot path
//! (whose rank log is always on).
//!
//! The always-on metrics registry rides the same harness: the same
//! problem is factored with [`FactorConfig::collect_metrics`] on and
//! off (tracing off in both modes, so the registry is measured alone)
//! and held to the same ≤5 % gate, and a direct-op probe proves the
//! registry records without touching the heap.
//!
//! Emits `BENCH_trace_overhead.json` (and echoes it to stdout).
//! `--smoke` shrinks to one small size for CI and exits nonzero when
//! the gate fails: enabled-mode overhead > 5 % (tracing or registry),
//! or any steady-state allocation on the traced GEMM hot path / the
//! registry recording path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hicma_core::{factorize, FactorConfig};
use runtime::graph::TaskClass;
use runtime::obs::registry::{Counter, Gauge, Registry};
use tlr_compress::kernels::{gemm_kernel_ws, KernelWorkspace};
use tlr_compress::{CompressionConfig, Tile, TlrMatrix};
use tlr_linalg::Matrix;

/// Forwarding allocator counting `alloc`/`realloc` calls, so the bench
/// can prove the traced steady-state kernel path stays off the heap.
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

/// Gaussian-kernel SPD generator on a 1D grid (the RBF-like test
/// operator the correctness tests use).
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

struct Point {
    n: usize,
    b: usize,
    tasks: usize,
    traced_s: f64,
    untraced_s: f64,
    overhead_pct: f64,
    /// Registry on vs registry off (tracing off in both modes).
    registry_overhead_pct: f64,
    trace_records: usize,
}

/// One factorization in one tracing mode; returns (seconds, tasks,
/// trace records). Clones the pre-compressed matrix — compression is
/// paid once per grid point, not once per rep. The metrics registry is
/// on in both modes, so the traced/untraced delta isolates tracing.
fn time_once(m0: &TlrMatrix, acc: f64, traced: bool) -> (f64, usize, usize) {
    let mut m = m0.clone();
    let mut fcfg = FactorConfig::with_accuracy(acc);
    fcfg.collect_trace = traced;
    let rep = factorize(&mut m, &fcfg).expect("SPD benchmark matrix must factor");
    let records = rep.metrics.as_ref().map_or(0, |mx| mx.trace.records.len());
    assert_eq!(rep.metrics.is_some(), traced, "metrics iff tracing was asked for");
    (rep.factorization_seconds, rep.dag_tasks, records)
}

/// One factorization with tracing off; isolates the always-on metrics
/// registry by toggling only [`FactorConfig::collect_metrics`].
fn time_registry(m0: &TlrMatrix, acc: f64, metrics: bool) -> f64 {
    let mut m = m0.clone();
    let mut fcfg = FactorConfig::with_accuracy(acc);
    fcfg.collect_trace = false;
    fcfg.collect_metrics = metrics;
    let rep = factorize(&mut m, &fcfg).expect("SPD benchmark matrix must factor");
    rep.factorization_seconds
}

fn run_point(n: usize, b: usize, reps: usize) -> Point {
    let acc = 1e-6;
    let dense = Matrix::from_fn(n, n, &gaussian_gen(n));
    let ccfg = CompressionConfig::with_accuracy(acc);
    let m0 = TlrMatrix::from_dense(&dense, b, &ccfg);
    drop(dense);
    // Warm both paths once, then interleave traced/untraced *per rep*
    // (alternating which goes first) and keep the per-mode minimum.
    // Ambient load on a shared host only ever inflates a measurement,
    // so min-of-N converges on the true cost of each mode and spikes
    // cannot bias the ratio the way block-wise timing lets them.
    let _ = time_once(&m0, acc, true);
    let _ = time_once(&m0, acc, false);
    let mut traced_s = f64::INFINITY;
    let mut untraced_s = f64::INFINITY;
    let mut tasks = 0;
    let mut trace_records = 0;
    for rep in 0..reps {
        for traced in if rep % 2 == 0 { [true, false] } else { [false, true] } {
            let (s, t, r) = time_once(&m0, acc, traced);
            if traced {
                traced_s = traced_s.min(s);
                tasks = t;
                trace_records = r;
            } else {
                untraced_s = untraced_s.min(s);
            }
        }
    }
    // Same interleaved min-of-N discipline for the registry alone.
    let mut reg_on_s = f64::INFINITY;
    let mut reg_off_s = f64::INFINITY;
    for rep in 0..reps {
        for on in if rep % 2 == 0 { [true, false] } else { [false, true] } {
            let s = time_registry(&m0, acc, on);
            if on {
                reg_on_s = reg_on_s.min(s);
            } else {
                reg_off_s = reg_off_s.min(s);
            }
        }
    }
    Point {
        n,
        b,
        tasks,
        traced_s,
        untraced_s,
        overhead_pct: 100.0 * (traced_s / untraced_s - 1.0),
        registry_overhead_pct: 100.0 * (reg_on_s / reg_off_s - 1.0),
        trace_records,
    }
}

/// Deterministic factor of decaying cosine-mode mixes — same operand
/// family as the `gemm_recompress` bench, where a Schur update does not
/// inflate the destination rank, so the warmed workspace engine runs
/// the recompression allocation-free.
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

/// Steady-state allocations of one GEMM update after warm-up — the
/// always-on rank-evolution logging must be counter-only.
fn gemm_hot_path_allocs() -> u64 {
    let b = 64;
    let k = 8;
    let a = Tile::LowRank { u: mixed_factor(b, k, 0.0, 0.5, 1), v: mixed_factor(b, k, 1.0, 0.7, 2) };
    let bt =
        Tile::LowRank { u: mixed_factor(b, k, 2.0, 0.5, 3), v: mixed_factor(b, k, 1.0, 0.7, 4) };
    let c0 =
        Tile::LowRank { u: mixed_factor(b, k, 0.0, 0.6, 5), v: mixed_factor(b, k, 2.0, 0.6, 6) };
    let config = CompressionConfig::with_accuracy(1e-8);
    let mut ws = KernelWorkspace::new();
    for _ in 0..5 {
        let mut c = c0.clone();
        gemm_kernel_ws(&mut ws, &a, &bt, &mut c, &config);
    }
    let mut c = c0.clone();
    let before = ALLOCS.load(Ordering::Relaxed);
    gemm_kernel_ws(&mut ws, &a, &bt, &mut c, &config);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Steady-state allocations of the metrics registry's recording path:
/// every allocation happens at construction (the sharded tables) — the
/// per-task counters, class-duration histograms, rank histograms and
/// gauge CAS loops must never touch the heap.
fn registry_hot_path_allocs() -> u64 {
    let reg = Registry::new(4);
    // Touch every op once so lazy code paths (none expected) are warm.
    reg.incr(0, Counter::TasksExecuted);
    reg.record_class_seconds(0, TaskClass::Gemm, 1e-6);
    reg.record_rank(0, 12);
    reg.gauge_max(0, Gauge::ArenaHighWaterBytes, 1.0);
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..50_000u64 {
        let shard = (i % 4) as usize;
        reg.incr(shard, Counter::TasksExecuted);
        reg.add(shard, Counter::TasksEnqueued, 3);
        reg.record_class_seconds(shard, TaskClass::Gemm, 1e-6 * (i % 97) as f64);
        reg.record_rank(shard, (i % 64) as usize);
        reg.gauge_max(shard, Gauge::ArenaHighWaterBytes, (i % 1024) as f64);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Sizes keep the factorization in the milliseconds and the rep
    // count high: the gate compares per-mode *minima* over many
    // interleaved reps, which is what makes a 5 % threshold meaningful
    // on a shared/1-CPU host where single runs can spike 20 %+.
    let grid: Vec<(usize, usize)> =
        if smoke { vec![(768, 48)] } else { vec![(512, 32), (768, 48), (1024, 64)] };
    let reps = if smoke { 15 } else { 9 };

    let mut points = Vec::new();
    for &(n, b) in &grid {
        let p = run_point(n, b, reps);
        eprintln!(
            "n={:<5} b={:<3} tasks={:<5} traced {:>8.4}s  untraced {:>8.4}s  overhead {:+.2}%  \
             registry {:+.2}%  records {}",
            p.n, p.b, p.tasks, p.traced_s, p.untraced_s, p.overhead_pct,
            p.registry_overhead_pct, p.trace_records
        );
        points.push(p);
    }

    let gemm_allocs = gemm_hot_path_allocs();
    let registry_allocs = registry_hot_path_allocs();
    let max_overhead = points.iter().map(|p| p.overhead_pct).fold(f64::NEG_INFINITY, f64::max);
    let max_registry_overhead =
        points.iter().map(|p| p.registry_overhead_pct).fold(f64::NEG_INFINITY, f64::max);
    // Same honesty fields thread_scaling records: what the host really
    // offered and which microkernel the build dispatched to, so a
    // regression hunt never has to guess the measurement conditions.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel_path = match tlr_linalg::active_path() {
        tlr_linalg::KernelPath::Simd => "simd",
        tlr_linalg::KernelPath::Scalar => "scalar",
    };

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"n\": {}, \"b\": {}, \"tasks\": {}, \"traced_s\": {:.6}, \
                 \"untraced_s\": {:.6}, \"overhead_pct\": {:.3}, \
                 \"registry_overhead_pct\": {:.3}, \"trace_records\": {}}}",
                p.n,
                p.b,
                p.tasks,
                p.traced_s,
                p.untraced_s,
                p.overhead_pct,
                p.registry_overhead_pct,
                p.trace_records
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"trace_overhead\",\n  \
         \"mode\": \"{}\",\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"kernel_path\": \"{kernel_path}\",\n  \
         \"note\": \"single measurement host; traced vs untraced interleaved, best-of-{reps}\",\n  \
         \"max_overhead_pct\": {max_overhead:.3},\n  \
         \"max_registry_overhead_pct\": {max_registry_overhead:.3},\n  \
         \"gemm_steady_state_allocs\": {gemm_allocs},\n  \
         \"registry_steady_state_allocs\": {registry_allocs},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        rows.join(",\n")
    );
    print!("{json}");
    std::fs::write("BENCH_trace_overhead.json", &json).expect("write BENCH_trace_overhead.json");
    eprintln!(
        "wrote BENCH_trace_overhead.json (max overhead {max_overhead:+.2}%, \
         registry {max_registry_overhead:+.2}%, steady-state allocs gemm {gemm_allocs} / \
         registry {registry_allocs})"
    );

    if smoke {
        let mut failed = false;
        if gemm_allocs > 0 {
            eprintln!("smoke FAILED: steady-state gemm_kernel allocated (expected 0)");
            failed = true;
        }
        if registry_allocs > 0 {
            eprintln!(
                "smoke FAILED: registry recording allocated {registry_allocs} times (expected 0)"
            );
            failed = true;
        }
        if max_registry_overhead > 5.0 {
            eprintln!("smoke FAILED: registry overhead {max_registry_overhead:.2}% > 5%");
            failed = true;
        }
        if max_overhead > 5.0 {
            eprintln!("smoke FAILED: tracing overhead {max_overhead:.2}% > 5%");
            failed = true;
        }
        if points.iter().any(|p| p.trace_records != p.tasks) {
            eprintln!("smoke FAILED: traced run must record every task");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
