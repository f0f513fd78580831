//! Steady-state allocation contracts of the per-task hot paths.
//!
//! The recompression hot path (`gemm_kernel` on low-rank operands)
//! promises zero heap traffic once the per-worker arena has grown to its
//! high-water mark, and the two sinks of the engine's observation
//! channel (the metrics registry and the span recorder) promise to
//! record without allocating at all; the discrete-event simulator
//! promises heap traffic that does not grow with the task count beyond
//! the amortised growth of its queues and trace. This file wires a counting
//! `#[global_allocator]` into the *test harness* (the library itself
//! stays allocator-agnostic); the count is per thread, so the cases can
//! run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use hicma_parsec::cholesky::simulate::des_tasks;
use hicma_parsec::cholesky::{build_cholesky_dag, DagConfig, MatrixAnalysis};
use hicma_parsec::linalg::Matrix;
use hicma_parsec::runtime::graph::TaskClass;
use hicma_parsec::runtime::{
    simulate, Counter, DesConfig, ExecObs, FaultPlan, Gauge, MachineModel, Observe, Registry,
    TaskEvent,
};
use hicma_parsec::tlr::kernels::{gemm_kernel_ws, KernelWorkspace};
use hicma_parsec::tlr::{CompressionConfig, SyntheticRankModel, Tile};

struct CountingAlloc;

thread_local! {
    // `const` and without a destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
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
/// histograms, rank histograms, gauge CAS loops and span stores.
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
        reg.add(wid, Counter::CommBytes, 3);
        reg.record_class_seconds(wid, TaskClass::Potrf, 1e-6 * (t % 97) as f64);
        reg.record_rank(wid, t % 64);
        reg.gauge_max(wid, Gauge::ArenaHighWaterBytes, (t % 1024) as f64);
    }
    let recorded = allocs() - before;
    assert_eq!(recorded, 0, "sinks allocated {recorded} time(s) while recording");
    assert_eq!(reg.snapshot().counter(Counter::Steals), ntasks as u64);
}

/// The simulator reads the DAG and the mapping in place: 7× the tasks
/// (NT 16 → 32, untrimmed, two processes so every panel broadcasts) cost
/// only the extra doublings of the event queue and its streams, the ready
/// heaps and the trace — no allocation per task, per edge or per
/// broadcast. So with the runtime-thread stage off (every task managed on
/// the current-instant stream), and under a crash halfway through the
/// run, which migrates and re-runs tasks of the dead process.
#[test]
fn simulation_allocations_do_not_grow_with_the_task_count() {
    let machine = MachineModel::shaheen_ii();
    let staged = DesConfig::from_machine(&machine, 2);
    let unstaged = DesConfig { task_mgmt_s: 0.0, ..staged };
    let run = |nt: usize, config: &DesConfig, crash: bool| {
        let snap = SyntheticRankModel::from_application(nt, 256, 2e-4, 1e-4).snapshot();
        let dag = build_cholesky_dag(&snap, &DagConfig { trimmed: false, ..DagConfig::default() });
        let tasks = des_tasks(&dag, &machine, |d| (d.i + d.j) % 2);
        let run = |faults: &FaultPlan| simulate(&dag.graph, &tasks, config, faults, 0.0).unwrap();
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
        (dag.graph.len(), count)
    };
    for (config, crash) in [(&staged, false), (&unstaged, false), (&staged, true)] {
        let ((small_tasks, small), (large_tasks, large)) =
            (run(16, config, crash), run(32, config, crash));
        assert!(large_tasks > 7 * small_tasks);
        assert!(
            large.abs_diff(small) < 64,
            "task_mgmt_s {}, crash {crash}: {small} allocations for {small_tasks} tasks, \
             {large} for {large_tasks}",
            config.task_mgmt_s
        );
    }
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
