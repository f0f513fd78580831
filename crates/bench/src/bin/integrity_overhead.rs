//! Overhead of the tile-integrity layer on the real shared-memory
//! factorization: the same problem is factored with integrity off, in
//! `Maintain` mode (seal on load, reseal at each tile's finalizing
//! write, one end-of-run sweep — the classical ABFT shape), and in
//! `VerifyReads` mode (reseal every write and verify each tile version
//! at its first read boundary), across a few sizes, and the slowdowns
//! are reported.
//!
//! The CI gate is on **checksum maintenance**: `Maintain` must stay
//! within 5 % of the unprotected hot path and the digest kernel must
//! not allocate in steady state (it is a streaming fold — the counting
//! global allocator cross-checks). `VerifyReads` buys pre-propagation
//! detection for roughly one extra digest per task and is reported
//! informationally.
//!
//! Emits `BENCH_integrity_overhead.json` in the working directory (under
//! `target/bench-smoke/` with `--smoke`; echoed to stdout).
//! `--smoke` shrinks to one small size for CI and exits nonzero when
//! the gate fails: maintenance overhead > 5 %, or any steady-state
//! allocation in digest computation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hicma_core::{factorize, FactorConfig, IntegrityMode};
use tlr_compress::{CompressionConfig, Tile, TileDigest, TlrMatrix};
use tlr_linalg::Matrix;

/// Forwarding allocator counting `alloc`/`realloc` calls, so the bench
/// can prove digest maintenance stays off the heap.
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
    off_s: f64,
    maintain_s: f64,
    verify_reads_s: f64,
    maintain_pct: f64,
    verify_reads_pct: f64,
}

/// One factorization in one integrity mode; returns (seconds, tasks).
/// Clones the pre-compressed matrix — compression is paid once per grid
/// point, not once per rep. Runs on ONE worker: serial wall time is the
/// sum of task times, so digest maintenance cannot hide in (or be
/// charged for) parallel scheduling slack — the measured ratio is the
/// true added compute on the hot path, and run-to-run variance drops an
/// order of magnitude versus the work-stealing schedule.
fn time_once(m0: &TlrMatrix, acc: f64, mode: IntegrityMode) -> (f64, usize) {
    let mut m = m0.clone();
    let mut fcfg = FactorConfig::with_accuracy(acc);
    fcfg.integrity = mode;
    fcfg.collect_trace = false;
    fcfg.nthreads = 1;
    let rep = factorize(&mut m, &fcfg).expect("SPD benchmark matrix must factor");
    (rep.factorization_seconds, rep.dag_tasks)
}

/// Median of a non-empty sample (averages the middle pair).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn run_point(n: usize, b: usize, reps: usize) -> Point {
    let acc = 1e-8;
    let dense = Matrix::from_fn(n, n, &gaussian_gen(n));
    let ccfg = CompressionConfig::with_accuracy(acc);
    let m0 = TlrMatrix::from_dense(&dense, b, &ccfg);
    drop(dense);
    const MODES: [IntegrityMode; 3] = [
        IntegrityMode::Off,
        IntegrityMode::Maintain,
        IntegrityMode::VerifyReads,
    ];
    // Warm every path once. Then, per rep, run the three modes
    // back-to-back (rotating the order so no mode systematically
    // benefits from its position) and record the per-rep overhead
    // *ratios*. A shared host drifts through multi-second slow/fast
    // phases that min-of-N over whole-run times cannot cancel — but
    // the three runs inside one rep land in the same phase, so their
    // ratios are drift-free, and the median over reps kills spikes.
    for mode in MODES {
        let _ = time_once(&m0, acc, mode);
    }
    let mut best = [f64::INFINITY; 3];
    let mut ratios_m = Vec::with_capacity(reps);
    let mut ratios_v = Vec::with_capacity(reps);
    let mut tasks = 0;
    for rep in 0..reps {
        let order = match rep % 3 {
            0 => [0usize, 1, 2],
            1 => [1, 2, 0],
            _ => [2, 0, 1],
        };
        let mut s = [0.0; 3];
        for idx in order {
            // min-of-2 inside the rep: a preemption / timer spike lands
            // on one of the two runs, not both, so the rep's ratio stays
            // clean far more often than a single timing would.
            let (sec_a, t) = time_once(&m0, acc, MODES[idx]);
            let (sec_b, _) = time_once(&m0, acc, MODES[idx]);
            s[idx] = sec_a.min(sec_b);
            best[idx] = best[idx].min(s[idx]);
            tasks = t;
        }
        ratios_m.push(s[1] / s[0]);
        ratios_v.push(s[2] / s[0]);
    }
    if std::env::var_os("INTEGRITY_BENCH_DEBUG").is_some() {
        let fmt = |r: &[f64]| {
            r.iter()
                .map(|x| format!("{:+.1}", 100.0 * (x - 1.0)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!("  maintain ratios: {}", fmt(&ratios_m));
        eprintln!("  vreads   ratios: {}", fmt(&ratios_v));
    }
    Point {
        n,
        b,
        tasks,
        off_s: best[0],
        maintain_s: best[1],
        verify_reads_s: best[2],
        maintain_pct: 100.0 * (median(&mut ratios_m) - 1.0),
        verify_reads_pct: 100.0 * (median(&mut ratios_v) - 1.0),
    }
}

/// Deterministic low-rank factor for the steady-state digest probe.
fn mixed_factor(rows: usize, k: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, k, |i, j| {
        ((i * 31 + j * 17 + seed * 13 + 7) % 101) as f64 / 101.0 - 0.5
    })
}

/// Steady-state allocations of digest maintenance: sealing and
/// verifying warm dense and low-rank tiles must never touch the heap —
/// the digest is a streaming fold with no scratch.
fn digest_steady_state_allocs() -> u64 {
    let dense = Tile::Dense(Matrix::from_fn(64, 64, |i, j| {
        ((i * 13 + j * 7 + 3) % 97) as f64 / 97.0 - 0.5
    }));
    let lr = Tile::LowRank {
        u: mixed_factor(64, 9, 1),
        v: mixed_factor(64, 9, 2),
    };
    // Warm-up (first digest of each shape may fault in lazily).
    let d0 = TileDigest::of(&dense);
    let l0 = TileDigest::of(&lr);
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut ok = true;
    for _ in 0..100 {
        ok &= d0.verify(&dense) && l0.verify(&lr);
        ok &= TileDigest::of(&dense) == d0 && TileDigest::of(&lr) == l0;
    }
    assert!(ok, "clean tiles must verify");
    ALLOCS.load(Ordering::Relaxed) - before
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Sizes keep the factorization in the milliseconds and the rep
    // count high: the gate is a median of per-rep ratios over many
    // back-to-back triples, which is what makes a 5 % threshold
    // meaningful on a shared/1-CPU host where single runs spike 20 %+.
    // Maintenance cost is one digest per *factor tile* (its finalizing
    // POTRF/TRSM) against the full `O(tiles²)` update task stream, so
    // the overhead fraction shrinks with problem size — the full grid
    // shows the scaling, and the smoke gate pins the paper-realistic
    // tile size `b = 96`.
    let grid: Vec<(usize, usize)> = if smoke {
        vec![(1536, 96)]
    } else {
        vec![(768, 48), (1024, 64), (1536, 96)]
    };
    // The smoke gate is the CI pass/fail signal, so it buys extra
    // statistical power (the whole run is still a few seconds).
    let reps = if smoke { 61 } else { 15 };

    let mut points = Vec::new();
    for &(n, b) in &grid {
        let p = run_point(n, b, reps);
        eprintln!(
            "n={:<5} b={:<3} tasks={:<5} off {:>8.4}s  maintain {:+.2}%  verify_reads {:+.2}%",
            p.n, p.b, p.tasks, p.off_s, p.maintain_pct, p.verify_reads_pct
        );
        points.push(p);
    }

    let digest_allocs = digest_steady_state_allocs();
    let max_maintain = points
        .iter()
        .map(|p| p.maintain_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    let max_verify = points
        .iter()
        .map(|p| p.verify_reads_pct)
        .fold(f64::NEG_INFINITY, f64::max);

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"n\": {}, \"b\": {}, \"tasks\": {}, \"off_s\": {:.6}, \
                 \"maintain_s\": {:.6}, \"verify_reads_s\": {:.6}, \
                 \"maintain_overhead_pct\": {:.3}, \"verify_reads_overhead_pct\": {:.3}}}",
                p.n,
                p.b,
                p.tasks,
                p.off_s,
                p.maintain_s,
                p.verify_reads_s,
                p.maintain_pct,
                p.verify_reads_pct
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"integrity_overhead\",\n  \
         \"mode\": \"{}\",\n  \
         \"note\": \"single measurement host; serial (1-worker) execution; median of per-rep \
         overhead ratios over {reps} back-to-back off/maintain/verify_reads triples\",\n  \
         \"max_maintain_overhead_pct\": {max_maintain:.3},\n  \
         \"max_verify_reads_overhead_pct\": {max_verify:.3},\n  \
         \"digest_steady_state_allocs\": {digest_allocs},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        rows.join(",\n")
    );
    print!("{json}");
    let path = tlr_bench::write_bench_json("integrity_overhead", smoke, &json);
    eprintln!(
        "wrote {} (maintain {max_maintain:+.2}%, verify_reads \
         {max_verify:+.2}%, digest steady-state allocs {digest_allocs})",
        path.display()
    );

    if smoke {
        let mut failed = false;
        if digest_allocs > 0 {
            eprintln!("smoke FAILED: steady-state digest computation allocated (expected 0)");
            failed = true;
        }
        if max_maintain > 5.0 {
            eprintln!("smoke FAILED: checksum maintenance overhead {max_maintain:.2}% > 5%");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
