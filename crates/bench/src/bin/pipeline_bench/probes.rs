//! Extra timed calls made only in the traced run: single-threaded kernel
//! rates at the workload's tile size `b` and measured average rank `k`,
//! the engine on an empty kernel and the single-thread baseline.

use crate::metrics::Layer;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{ClusterInputs, Problem};
use distribution::{BandDistribution, DiamondDistribution, TileDistribution};
use hicma_core::{build_cholesky_dag, DagConfig, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbf_mesh::geometry::min_pairwise_distance;
use runtime::critical_path::critical_path;
use runtime::{Engine, EngineConfig};
use std::hint::black_box;
use std::time::Instant;
use tlr_compress::kernels::{gemm_kernel, subtract_lowrank};
use tlr_compress::{compress_tile, Tile};
use tlr_linalg::{
    gemm_serial, jacobi_svd, potrf, syrk_serial, trsm, ColPivQr, Matrix, Side, Trans, Uplo,
};

/// Median seconds of `f(prepare())` over at least three calls and at
/// least 30 ms in total; `prepare` is not timed.
fn time_each<T>(mut prepare: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut samples = Vec::new();
    let mut total = 0.0;
    while samples.len() < 3 || (total < 0.03 && samples.len() < 1000) {
        let input = prepare();
        let t = Instant::now();
        f(input);
        let dt = t.elapsed().as_secs_f64();
        total += dt;
        samples.push(dt);
    }
    median(&samples)
}

/// A `rows × k` factor whose columns decay from 1 to `accuracy`, the
/// singular-value profile of a tile compressed at that accuracy.
fn decaying_factor(rng: &mut StdRng, rows: usize, k: usize, accuracy: f64) -> Matrix {
    Matrix::from_fn(rows, k, |_, c| {
        rng.gen_range(-0.5..0.5) * accuracy.powf(c as f64 / k as f64)
    })
}

fn low_rank(rng: &mut StdRng, b: usize, k: usize, accuracy: f64) -> Tile {
    Tile::LowRank {
        u: decaying_factor(rng, b, k, accuracy),
        v: decaying_factor(rng, b, k, 1.0),
    }
}

/// Dense kernels of `tlr-linalg` and tile kernels of `tlr-compress` at
/// `b` and `k`, on one thread.
fn kernel_probes(p: &Problem, k: usize, l: &mut Layer) {
    let b = p.tile;
    let eps = p.cfg.accuracy;
    let cc = p.cfg.compression();
    let mut rng = StdRng::seed_from_u64(0x6B65_726E);
    let gflops = |flops: f64, secs: f64| flops / secs / 1e9;
    let cube = (b * b * b) as f64;

    // One off-diagonal block of the real operator: the tile below the
    // first diagonal tile, where neighbouring points interact.
    let entry = p.rbf.generator(&p.cloud);
    let rows = b.min(p.n() - b);
    let evaluate = || Matrix::from_fn(rows, b, |i, j| entry(b + i, j));
    let block = evaluate();
    let secs = time_each(
        || (),
        |()| {
            black_box(evaluate());
        },
    );
    l.push("rbf-mesh.kernel_evals_per_s", (rows * b) as f64 / secs);
    let secs = time_each(
        || block.clone(),
        |m| {
            black_box(ColPivQr::with_tolerance(m, eps, usize::MAX));
        },
    );
    l.push("tlr-linalg.qrcp_ms", 1e3 * secs);
    let secs = time_each(
        || block.clone(),
        |m| {
            black_box(compress_tile(m, &cc));
        },
    );
    l.push("tlr-compress.compress_tile_ms", 1e3 * secs);

    let x = Matrix::from_fn(b, b, |_, _| rng.gen_range(-0.5..0.5));
    let mut spd = Matrix::identity(b);
    spd.scale(b as f64);
    syrk_serial(Trans::No, 1.0, &x, 1.0, &mut spd);
    spd.symmetrize_from_lower();
    let mut chol = spd.clone();
    potrf(&mut chol).expect("x·xᵀ + b·I is positive definite");

    let secs = time_each(
        || Matrix::zeros(b, b),
        |mut c| gemm_serial(Trans::No, Trans::Yes, 1.0, &x, &x, 0.0, &mut c),
    );
    // The in-run measured rate that stands in for the roofline ceiling.
    l.push("tlr-linalg.gemm_gflops", gflops(2.0 * cube, secs));
    let secs = time_each(
        || spd.clone(),
        |mut a| {
            let _ = black_box(potrf(&mut a));
        },
    );
    l.push("tlr-linalg.potrf_gflops", gflops(cube / 3.0, secs));
    let secs = time_each(
        || x.clone(),
        |mut rhs| trsm(Side::Right, Uplo::Lower, Trans::Yes, 1.0, &chol, &mut rhs),
    );
    l.push("tlr-linalg.trsm_gflops", gflops(cube, secs));
    let secs = time_each(
        || Matrix::zeros(b, b),
        |mut c| syrk_serial(Trans::No, 1.0, &x, 0.0, &mut c),
    );
    l.push("tlr-linalg.syrk_gflops", gflops(cube, secs));

    let core = decaying_factor(&mut rng, 2 * k, 2 * k, eps);
    let secs = time_each(
        || (),
        |()| {
            black_box(jacobi_svd(&core));
        },
    );
    l.push("tlr-linalg.svd_ms", 1e3 * secs);

    // C ← C − A·Bᵀ on rank-k tiles, and its recompression part alone.
    let (ta, tb, tc) = (
        low_rank(&mut rng, b, k, eps),
        low_rank(&mut rng, b, k, eps),
        low_rank(&mut rng, b, k, eps),
    );
    let secs = time_each(|| tc.clone(), |mut c| gemm_kernel(&ta, &tb, &mut c, &cc));
    l.push("tlr-compress.gemm_kernel_us", 1e6 * secs);
    let (up, vp) = (
        decaying_factor(&mut rng, b, k, eps),
        decaying_factor(&mut rng, b, k, 1.0),
    );
    let secs = time_each(
        || tc.clone(),
        |mut c| subtract_lowrank(&mut c, &up, &vp, &cc),
    );
    l.push("tlr-compress.subtract_lowrank_us", 1e6 * secs);
}

/// Everything the traced run adds around the factorization of `p`:
/// DAG-level figures, the engine on an empty kernel, the single-thread
/// baseline and the kernel probes. `factorize` is the wall time of the
/// factorization these are set against.
pub fn numeric_extras(p: &Problem, factorize: f64, tr: &mut Tracer, l: &mut Layer) {
    let nthreads = p.cfg.nthreads;
    let t = tr.enter("tlr-compress.assemble");
    let a0 = p.assemble();
    tr.exit(t);
    let t = tr.enter("rbf-mesh.min_distance");
    black_box(min_pairwise_distance(&p.cloud));
    // Reported though δ does not use it (see README, "δ").
    l.push("rbf-mesh.min_distance_s", tr.exit(t));

    let snapshot = a0.rank_snapshot();
    let t = tr.enter("hicma-core.build_dag");
    let dag = build_cholesky_dag(&snapshot, &DagConfig::default());
    tr.exit(t);
    let flops: f64 = dag.flops.iter().sum();
    l.push(
        "runtime.critical_path_share",
        critical_path(&dag.graph, |t| dag.flops[t]).length / flops,
    );
    let t = tr.enter("runtime.engine_noop");
    let noop = time_each(
        || (),
        |()| {
            Engine::new(&dag.graph)
                .run(&EngineConfig::new(nthreads), |_, _| ())
                .expect("the Cholesky DAG is acyclic");
        },
    );
    tr.exit(t);
    l.push("runtime.engine_noop_s", noop);
    l.push(
        "runtime.engine_noop_ns_per_task",
        1e9 * noop / dag.graph.len() as f64,
    );

    // The plain single-thread baseline: the same factorization on a
    // clone of the operator with one worker.
    let mut serial_cfg = p.cfg;
    serial_cfg.nthreads = 1;
    let session = Session::shared(serial_cfg);
    let mut a = a0.clone();
    let t = tr.enter("runtime.one_thread_factorize");
    let serial = session
        .plan(&a)
        .and_then(|plan| {
            let t = Instant::now();
            session.run_with_plan(&plan, &mut a)?;
            Ok(t.elapsed().as_secs_f64())
        })
        .expect("the operator factored once already");
    tr.exit(t);
    l.push("runtime.speedup_vs_1thread", serial / factorize);
    l.push(
        "runtime.parallel_efficiency",
        serial / factorize / nthreads as f64,
    );

    let t = tr.enter("bench.kernel_probes");
    let k = (snapshot.stats().avg_nonzero.round() as usize).clamp(1, p.tile / 2);
    kernel_probes(p, k, l);
    tr.exit(t);
    let model = flops / factorize / 1e9;
    l.push("hicma-core.model_gflops", model);
    let gemm = l
        .median("tlr-linalg.gemm_gflops")
        .expect("pushed by kernel_probes");
    l.push(
        "hicma-core.rate_over_gemm",
        model / (nthreads as f64 * gemm),
    );
}

/// Cost of the band and diamond tile → process maps over the lower
/// triangle of the simulated matrix.
pub fn distribution_probe(inp: &ClusterInputs, tr: &mut Tracer, l: &mut Layer) {
    let (nt, nodes) = inp.sim_grid();
    let maps: [&dyn TileDistribution; 2] = [
        &BandDistribution::new(nodes),
        &DiamondDistribution::new(nodes),
    ];
    let t = tr.enter("distribution.map");
    let secs = time_each(
        || (),
        |()| {
            for map in maps {
                for i in 0..nt {
                    for j in 0..=i {
                        black_box(map.owner(i, j));
                    }
                }
            }
        },
    );
    tr.exit(t);
    l.push(
        "distribution.map_ns_per_tile",
        1e9 * secs / (nt * (nt + 1)) as f64,
    );
}
