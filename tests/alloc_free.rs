//! Steady-state allocation contracts of the per-task hot paths.
//!
//! The recompression hot path (`gemm_kernel` on low-rank operands)
//! promises zero heap traffic once the per-worker arena has grown to its
//! high-water mark, and the two sinks of the engine's observation
//! channel (the metrics registry and the span recorder) promise to
//! record without allocating at all; the discrete-event simulator
//! promises heap traffic that does not grow with the task count beyond
//! the amortised growth of its queues and trace, and a peak heap of a
//! bounded number of bytes per simulated task. A factorization promises
//! to hold one copy of the matrix. This file wires a counting
//! `#[global_allocator]` into the *test harness* (the library itself
//! stays allocator-agnostic); the counts — allocations, live bytes and
//! their peak — are per thread, so the cases can run side by side. The
//! factorization's workers are threads of their own, so its case reads
//! a process-wide live count instead, in a child process where it runs
//! alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::Command;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use hicma_parsec::cholesky::lorapo::lorapo_config;
use hicma_parsec::cholesky::simulate::{des_tasks, scaled_machine, simulate_cholesky};
use hicma_parsec::cholesky::{
    build_cholesky_dag, CholeskySpace, DagConfig, FactorConfig, MatrixAnalysis, Session,
};
use hicma_parsec::linalg::Matrix;
use hicma_parsec::runtime::graph::TaskClass;
use hicma_parsec::runtime::{
    simulate, Counter, ExecObs, FaultPlan, Gauge, MachineModel, Observe, Registry, TaskEvent,
};
use hicma_parsec::tlr::kernels::{gemm_kernel_ws, KernelWorkspace};
use hicma_parsec::tlr::tile::TileFormat;
use hicma_parsec::tlr::{CompressionConfig, SyntheticRankModel, Tile, TlrMatrix};

struct CountingAlloc;

thread_local! {
    // `const` and without a destructor: reading them never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread allocated minus the bytes it freed, and the
    // highest that difference has been since the last `reset_peak`.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Start a new peak at the bytes live now; returns them.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

// Bytes live in the whole process, every thread's, and their peak
// since the last `reset_process_peak`.
static PROCESS_LIVE: AtomicI64 = AtomicI64::new(0);
static PROCESS_PEAK: AtomicI64 = AtomicI64::new(0);

/// Start a new process-wide peak at the bytes live now; returns them.
fn reset_process_peak() -> i64 {
    let live = PROCESS_LIVE.load(Ordering::SeqCst);
    PROCESS_PEAK.store(live, Ordering::SeqCst);
    live
}

fn grow(bytes: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
    let live = PROCESS_LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PROCESS_PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic low-rank factor: decaying mixes of smooth cosine modes,
/// families chosen so the update does not inflate the destination rank.
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

/// The GEMM update as the engine runs it when tracing: both sinks record
/// the task — `Enqueue`, two clock readings, `Retire` — around the
/// kernel. The span table and the registry shards are allocated once, up
/// front, and the kernel's rank log is always on. Two updates: b = 64 at
/// rank 8 stacks 16 columns, which `Qr` factors one reflector at a time;
/// b = 150 at rank 32 stacks 64, which it factors and applies as block
/// reflectors, whose `T` factors ride in the arena's recycled buffers.
#[test]
fn gemm_kernel_steady_state_allocates_nothing() {
    for (b, rank) in [(64usize, 8usize), (150, 32)] {
        let config = CompressionConfig::with_accuracy(1e-8);
        let a = Tile::LowRank {
            u: mixed_factor(b, rank, 0.0, 0.5, 1),
            v: mixed_factor(b, rank, 1.0, 0.7, 2),
        };
        let bt = Tile::LowRank {
            u: mixed_factor(b, rank, 2.0, 0.5, 3),
            v: mixed_factor(b, rank, 1.0, 0.7, 4),
        };
        let c0 = Tile::LowRank {
            u: mixed_factor(b, rank, 0.0, 0.6, 5),
            v: mixed_factor(b, rank, 2.0, 0.6, 6),
        };

        let mut ws = KernelWorkspace::new();
        let sink = (Registry::new(1), ExecObs::new(9));
        // Tasks 0..8 warm up (the arena grows to its high-water mark);
        // task 8 is the steady state and must not touch the heap at all.
        let mut counts = Vec::new();
        for task in 0..9 {
            let mut c = c0.clone();
            let before = allocs();
            let start = Instant::now();
            sink.observe(TaskEvent::Enqueue { wid: 0, task, at: start });
            gemm_kernel_ws(&mut ws, &a, &bt, &mut c, &config);
            let end = Instant::now();
            sink.observe(TaskEvent::Retire { wid: 0, task, class: TaskClass::Gemm, start, end });
            counts.push(allocs() - before);
            assert_eq!(c.format(), hicma_parsec::tlr::tile::TileFormat::LowRank, "b = {b}");
        }
        assert_eq!(
            counts[8], 0,
            "b = {b}: traced gemm_kernel allocated in steady state (per-call counts: {counts:?})"
        );
        assert_eq!(sink.0.snapshot().counter(Counter::TasksExecuted), 9);
    }
}

/// The sink recording path alone, at volume: counters, class-duration
/// histograms, gauge CAS loops and span stores.
#[test]
fn sink_recording_path_allocates_nothing() {
    let ntasks = 50_000;
    let sink = (Registry::new(4), ExecObs::new(ntasks));
    let reg = &sink.0;
    let at = Instant::now();
    let before = allocs();
    for task in 0..ntasks {
        let (t, wid) = (task, task % 4);
        sink.observe(TaskEvent::Enqueue { wid, task, at });
        sink.observe(TaskEvent::Steal { wid });
        sink.observe(TaskEvent::Retire { wid, task, class: TaskClass::Gemm, start: at, end: at });
        reg.add(wid, Counter::Retransmissions, 3);
        reg.record_class_seconds(wid, TaskClass::Potrf, 1e-6 * (t % 97) as f64);
        reg.gauge_max(wid, Gauge::ArenaHighWaterBytes, (t % 1024) as f64);
    }
    let recorded = allocs() - before;
    assert_eq!(recorded, 0, "sinks allocated {recorded} time(s) while recording");
    assert_eq!(reg.snapshot().counter(Counter::Steals), ntasks as u64);
}

/// The simulator walks the task space and reads the mapping in place: 7×
/// the tasks (NT 16 → 32, untrimmed, two processes so every panel
/// broadcasts) cost only the extra doublings of the event queue and its
/// streams and the ready heaps — no allocation per task, per edge or per
/// broadcast, and none to derive a successor list. So with the
/// runtime-thread stage off (every task managed on the current-instant
/// stream), and under a crash halfway through the run, which migrates and
/// re-runs tasks of the dead process.
#[test]
fn simulation_allocations_do_not_grow_with_the_task_count() {
    let staged = MachineModel::shaheen_ii();
    let unstaged = MachineModel { task_overhead_s: 0.0, ..staged.clone() };
    let run = |nt: usize, machine: &MachineModel, crash: bool| {
        let snap = SyntheticRankModel::from_application(nt, 256, 2e-4, 1e-4).snapshot();
        let space =
            CholeskySpace::new(&snap, &DagConfig { trimmed: false, ..DagConfig::default() });
        let tasks = des_tasks(&space, machine, |d| (d.i + d.j) % 2);
        let run =
            |faults: &FaultPlan| simulate(&space, &tasks, machine, 2, faults, 0.0, None).unwrap();
        let faults = if crash {
            FaultPlan::new(0).with_crash(1, 0.5 * run(&FaultPlan::none()).makespan)
        } else {
            FaultPlan::none()
        };
        let before = allocs();
        let report = run(&faults);
        let count = allocs() - before;
        assert!(report.comm.messages > 0, "the mapping must make broadcasts");
        assert_eq!(report.crashes, usize::from(crash));
        (tasks.len(), count)
    };
    for (machine, crash) in [(&staged, false), (&unstaged, false), (&staged, true)] {
        let ((small_tasks, small), (large_tasks, large)) =
            (run(16, machine, crash), run(32, machine, crash));
        assert!(large_tasks > 7 * small_tasks);
        assert!(
            large.abs_diff(small) < 64,
            "task_overhead_s {}, crash {crash}: {small} allocations for {small_tasks} tasks, \
             {large} for {large_tasks}",
            machine.task_overhead_s
        );
    }
}

/// The simulator's peak heap is a fixed number of bytes per task: an
/// untrimmed NT 48 Lorapo run at 2 nodes (the benchmark's Lorapo shape:
/// the paper's shape and accuracy at b = 305, on the machine scaled down
/// by 256), where 94 % of the tasks are no-ops on null tiles, peaks at no
/// more than 55.9 bytes per simulated task above what was live before the
/// call (47.0 measured) — Algorithm 1, the task space's tables, the DES
/// inputs, the simulator's one packed state record per task and the
/// critical path included; the in-degrees stream into the state records
/// without a table of their own. It records no trace: `simulate_cholesky`
/// keeps its busy ledger in place.
#[test]
fn simulation_peak_heap_is_bounded_per_task() {
    let snap = SyntheticRankModel::from_application(48, 305, 3.7e-4, 1e-4).snapshot();
    let cfg = lorapo_config(scaled_machine(MachineModel::shaheen_ii(), 256), 2);
    let before = reset_peak();
    let report = simulate_cholesky(&snap, &cfg);
    let peak = peak() - before;
    let per_task = peak as f64 / report.dag_tasks as f64;
    assert_eq!(report.dag_tasks, report.dense_dag_tasks, "untrimmed");
    assert!(
        per_task <= 55.9,
        "{peak} bytes at peak for {} tasks: {per_task:.1} B per task",
        report.dag_tasks
    );
}

/// Building the DAG lays it out flat: the NT 16 and NT 32 snapshots of the
/// simulation contract above (untrimmed, more than 7× the tasks) cost the
/// builder only a fixed number of tables — no allocation per task, per
/// edge or per successor list. Algorithm 1's analysis, which the build
/// runs first, keeps one list per panel and per updated tile (the
/// structure `fig06` reports the size of); its own count, measured on the
/// same snapshot, is subtracted.
#[test]
fn dag_build_allocations_do_not_grow_with_the_task_count() {
    let build = |nt: usize| {
        let snap = SyntheticRankModel::from_application(nt, 256, 2e-4, 1e-4).snapshot();
        let cfg = DagConfig { trimmed: false, ..DagConfig::default() };
        let before = allocs();
        drop(MatrixAnalysis::analyze(&snap, cfg.rank_cap));
        let analysis = allocs() - before;
        let before = allocs();
        let dag = build_cholesky_dag(&snap, &cfg);
        let build = allocs() - before;
        (dag.graph.len(), build - analysis)
    };
    let ((small_tasks, small), (large_tasks, large)) = (build(16), build(32));
    assert!(large_tasks > 7 * small_tasks);
    assert!(
        large.abs_diff(small) < 64,
        "{small} allocations for {small_tasks} tasks, {large} for {large_tasks}"
    );
}

/// The dense routines that run their loops in overlapping orders keep the
/// allocation contract: after one warm-up pass every call — a QR and its
/// implicit `Q` on recycled buffers, one with 24 reflectors (applied one
/// at a time) and one with 64 (block reflectors, `T` in the recycled
/// `taus` buffer), a pivoted QR through its scratch, both
/// left solves, a blocked POTRF, a SYRK whose diagonal blocks go through a
/// stack tile and a GEMM whose row tail does — touches the heap zero times.
#[test]
fn reordered_dense_routines_allocate_nothing_in_steady_state() {
    use hicma_parsec::linalg::{
        gemm_serial, potrf, syrk_serial, trsm, ColPivQr, ColPivScratch, Qr, Side, Trans, Uplo,
    };
    // b = 100 is not a multiple of the microkernel's 8 rows, so the GEMM
    // has a row tail; POTRF (b > 64) runs blocked, through a right solve
    // and a SYRK of its own.
    let b = 100usize;
    let input = mixed_factor(b, 24, 0.5, 0.8, 7);
    let tile = Matrix::from_fn(b, b, |i, j| {
        let d = (i as f64 - j as f64 + 40.0) / 30.0;
        (-d * d).exp()
    });
    let spd = Matrix::from_fn(b, b, |i, j| {
        let d = (i as f64 - j as f64) / 8.0;
        (-d * d).exp() + if i == j { 1.0 } else { 0.0 }
    });
    let x = mixed_factor(24, 24, 1.0, 0.9, 8);
    let blocked_input = mixed_factor(150, 64, 0.5, 0.9, 10);
    let blocked_x = mixed_factor(64, 32, 1.0, 0.9, 11);
    let rhs = mixed_factor(b, 9, 2.0, 0.9, 9);

    let (mut qr_store, mut taus, mut qx) = (Matrix::zeros(0, 0), Vec::new(), Matrix::zeros(0, 0));
    let (mut blocked_store, mut blocked_taus, mut blocked_qx) =
        (Matrix::zeros(0, 0), Vec::new(), Matrix::zeros(0, 0));
    let (mut cp_store, mut cp_scratch) = (Matrix::zeros(0, 0), ColPivScratch::default());
    let mut q = Matrix::zeros(0, 0);
    let (mut l, mut sol, mut c) = (spd.clone(), rhs.clone(), spd.clone());

    let mut counts = [0u64; 8];
    for _pass in 0..3 {
        let mut step = 0;
        let mut count = |f: &mut dyn FnMut()| {
            let before = allocs();
            f();
            counts[step] = allocs() - before;
            step += 1;
        };
        count(&mut || {
            qr_store.reset(input.rows(), input.cols());
            qr_store.as_mut_slice().copy_from_slice(input.as_slice());
            let storage = std::mem::replace(&mut qr_store, Matrix::zeros(0, 0));
            let f = Qr::new_in(storage, std::mem::take(&mut taus));
            f.apply_q(&x, &mut qx);
            (qr_store, taus) = f.into_parts();
        });
        count(&mut || {
            blocked_store.reset(blocked_input.rows(), blocked_input.cols());
            blocked_store.as_mut_slice().copy_from_slice(blocked_input.as_slice());
            let storage = std::mem::replace(&mut blocked_store, Matrix::zeros(0, 0));
            let f = Qr::new_in(storage, std::mem::take(&mut blocked_taus));
            f.apply_q(&blocked_x, &mut blocked_qx);
            (blocked_store, blocked_taus) = f.into_parts();
        });
        count(&mut || {
            cp_store.reset(b, b);
            cp_store.as_mut_slice().copy_from_slice(tile.as_slice());
            let mut f = ColPivQr::unfactored_in(
                std::mem::replace(&mut cp_store, Matrix::zeros(0, 0)),
                std::mem::take(&mut cp_scratch),
            );
            f.advance(1e-8, usize::MAX);
            q.reset(b, f.rank());
            for j in 0..f.rank() {
                q[(j, j)] = 1.0;
            }
            f.apply_q_in_place(&mut q);
            (cp_store, cp_scratch) = f.into_parts();
        });
        count(&mut || {
            l.as_mut_slice().copy_from_slice(spd.as_slice());
            potrf(&mut l).expect("SPD fixture");
        });
        count(&mut || {
            sol.as_mut_slice().copy_from_slice(rhs.as_slice());
            trsm(Side::Left, Uplo::Lower, Trans::No, 1.0, &l, &mut sol);
        });
        count(&mut || trsm(Side::Left, Uplo::Lower, Trans::Yes, 1.0, &l, &mut sol));
        count(&mut || syrk_serial(Trans::No, -1.0, &input, 1.0, &mut c));
        count(&mut || gemm_serial(Trans::No, Trans::Yes, -1.0, &input, &input, 1.0, &mut c));
    }
    let names = [
        "qr + apply_q",
        "blocked qr + apply_q",
        "pivoted qr",
        "potrf",
        "trsm left-no",
        "trsm left-trans",
        "syrk",
        "gemm",
    ];
    assert_eq!(counts, [0; 8], "steady-state allocations per call of {names:?}");
}

/// Tile compression factors a copy in a per-thread buffer: once that has
/// grown, a `Null` or `Dense` outcome allocates nothing (a `Dense` tile is
/// the input itself) and a `LowRank` one allocates its two factors only.
#[test]
fn compress_tile_allocates_only_its_factors() {
    use hicma_parsec::tlr::compress_tile;
    let b = 120usize;
    let smooth = Matrix::from_fn(b, b, |i, j| {
        let d = (i as f64 - j as f64 + 90.0) / 40.0;
        (-d * d).exp()
    });
    let mut tiny = smooth.clone();
    tiny.scale(1e-12);
    let rough = mixed_factor(b, b, 0.3, 1.0, 12);
    let config = CompressionConfig::with_accuracy(1e-10);
    let mut counts = Vec::new();
    for _pass in 0..2 {
        counts.clear();
        for (input, format) in [
            (&smooth, TileFormat::LowRank),
            (&tiny, TileFormat::Null),
            (&rough, TileFormat::Dense),
        ] {
            let input = input.clone();
            let address = input.as_slice().as_ptr();
            let before = allocs();
            let tile = compress_tile(input, &config);
            counts.push(allocs() - before);
            assert_eq!(tile.format(), format);
            if let Tile::Dense(m) = &tile {
                assert_eq!(m.as_slice().as_ptr(), address, "a dense tile is its input");
            }
        }
    }
    assert_eq!(counts, [2, 0, 0], "allocations per low-rank, null and dense tile");
}

/// A shared-memory factorization holds one copy of the matrix: the peak
/// heap of `Session::run` above what was live before the call, every
/// thread's allocations counted (the engine's workers, their kernel
/// arenas, the recompressed tiles, the task space), stays within half
/// the input matrix's bytes. Measured: 0.09× of a 4.9 MB matrix (two
/// threads, release build); when the diagonal-shift retry restarted
/// from a clone of the operator, the same run read 1.06×, the clone
/// alone 1×.
///
/// The count is process-wide, so the case runs in a child process of
/// this test binary, alone (`footprint_of_one_factorization`, ignored in
/// the parallel harness).
#[test]
fn factorization_holds_one_copy_of_the_matrix() {
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args(["footprint_of_one_factorization", "--exact", "--ignored", "--test-threads=1"])
        .args(["--nocapture"])
        .output()
        .expect("the test binary runs as a child process");
    let log = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "the footprint case failed:\n{log}");
    assert!(log.contains("1 passed"), "the footprint case did not run:\n{log}");
}

/// The measurement of `factorization_holds_one_copy_of_the_matrix`.
#[test]
#[ignore = "counts the whole process: run alone, by factorization_holds_one_copy_of_the_matrix"]
fn footprint_of_one_factorization() {
    let n = 4096;
    let gen = |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / 64.0;
        (-d * d).exp() + if i == j { 1e-3 } else { 0.0 }
    };
    let mut m = TlrMatrix::from_generator(n, 128, gen, &CompressionConfig::with_accuracy(1e-6));
    let matrix_bytes = (m.memory_f64() * std::mem::size_of::<f64>()) as f64;
    let mut cfg = FactorConfig::with_accuracy(1e-6);
    cfg.nthreads = 2;
    let session = Session::shared(cfg);
    let before = reset_process_peak();
    let out = session.run(&mut m).expect("SPD");
    let peak = PROCESS_PEAK.load(Ordering::SeqCst) - before;
    let ratio = peak as f64 / matrix_bytes;
    println!("peak {peak} B above the {before} B live before, {ratio:.3}× a {matrix_bytes} B matrix");
    assert!(out.report.panel_shifts.is_empty(), "premise: no pivot fails");
    assert!(ratio <= 0.5, "the run held {ratio:.3}× the matrix above its input");
}
