//! Numeric trimming on the shared engine: a task whose kernel would
//! return at its first line (a TRSM or SYRK on a null panel tile, a GEMM
//! with a null operand) is retired without running. These tests pin what
//! that may change — which tasks run — and what it may not: the factor's
//! bits, the planned DAG, and the integrity layer's verdict.

use hicma_parsec::cholesky::{FactorConfig, IntegrityMode, RunOutcome, Session};
use hicma_parsec::distribution::DiamondDistribution;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::mesh::geometry::{virus_population, VirusConfig};
use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
use hicma_parsec::mesh::GaussianRbf;
use hicma_parsec::runtime::Counter;
use hicma_parsec::tlr::{CompressionConfig, Tile, TlrMatrix};

/// Every tile of the lower factor as (format, rank, factor bits).
fn factor_bits(m: &TlrMatrix) -> Vec<(String, usize, Vec<u64>)> {
    let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut out = Vec::new();
    for i in 0..m.nt() {
        for j in 0..=i {
            let t = m.tile(i, j);
            let data = match t {
                Tile::Dense(d) => bits(d),
                Tile::LowRank { u, v } => [bits(u), bits(v)].concat(),
                Tile::Null { .. } => Vec::new(),
            };
            out.push((format!("{:?}", t.format()), t.rank(), data));
        }
    }
    out
}

/// `(executed, elided)` of a shared run, after checking that the two
/// split the planned DAG.
fn split(out: &RunOutcome) -> (u64, u64) {
    let reg = out
        .registry
        .as_ref()
        .expect("every run reports its registry");
    let (executed, elided) = (
        reg.counter(Counter::TasksExecuted),
        reg.counter(Counter::TasksElided),
    );
    assert_eq!(
        (executed + elided) as usize,
        out.report.dag_tasks,
        "executed + elided = planned"
    );
    (executed, elided)
}

/// One Hilbert-ordered body cut into b = 64 tiles at ε = 1e-6 with a
/// narrow Gaussian kernel (δ = 1.5 h): the benchmark's `fine-tiles`
/// regime at a test size, where most structural tasks meet a null
/// operand.
fn fine_tiles_body(points: usize) -> TlrMatrix {
    let virus = VirusConfig {
        points_per_virus: points,
        ..Default::default()
    };
    let raw = virus_population(1, &virus, 1);
    let cloud = apply_permutation(&raw, &hilbert_sort(&raw));
    let h = (4.0 * std::f64::consts::PI * virus.radius * virus.radius / points as f64).sqrt();
    let rbf = GaussianRbf {
        delta: 1.5 * h,
        nugget: 1e-8,
    };
    let ccfg = CompressionConfig::with_accuracy(1e-6);
    TlrMatrix::from_generator(cloud.len(), 64, rbf.generator(&cloud), &ccfg)
}

/// The shared engine skips most of the structural DAG and still writes
/// the factor the distributed engine — which runs every structural task
/// — writes, bit for bit, at 1, 2 and 4 threads. Which tasks it skips
/// does not depend on the thread count: the per-class skipped counts
/// (modeled tasks minus the tasks the class histograms timed) agree. A
/// traced run records one span per task that ran.
#[test]
fn elided_tasks_leave_the_factor_bits_at_every_thread_count() {
    let a = fine_tiles_body(3000);
    let cfg = FactorConfig::with_accuracy(1e-6);

    let mut reference = a.clone();
    let dist = DiamondDistribution::new(2);
    let full = Session::distributed(cfg, 2, &dist)
        .run(&mut reference)
        .expect("SPD");
    let reg = full
        .registry
        .as_ref()
        .expect("every run reports its registry");
    assert_eq!(
        reg.counter(Counter::TasksExecuted) as usize,
        full.report.dag_tasks
    );
    assert_eq!(
        reg.counter(Counter::TasksElided),
        0,
        "the DistEngine runs every structural task"
    );
    let want = factor_bits(&reference);

    let mut per_class = Vec::new();
    for (nthreads, traced) in [(1, false), (2, false), (4, false), (2, true)] {
        let mut cfg = cfg;
        cfg.nthreads = nthreads;
        cfg.collect_trace = traced;
        let mut m = a.clone();
        let out = Session::shared(cfg)
            .with_drift(hicma_parsec::runtime::MachineModel::shaheen_ii())
            .run(&mut m)
            .expect("SPD");
        assert_eq!(
            out.report.dag_tasks, full.report.dag_tasks,
            "the plan is structural"
        );
        let (executed, elided) = split(&out);
        assert!(
            elided > out.report.dag_tasks as u64 / 2,
            "{nthreads} threads: only {elided} of {} tasks elided",
            out.report.dag_tasks
        );
        assert!(
            factor_bits(&m) == want,
            "{nthreads} threads: the factor moved"
        );
        if let Some(trace) = &out.trace {
            assert_eq!(
                trace.records.len() as u64,
                executed,
                "one span per task that ran"
            );
        }
        let drift = out.drift.expect("drift was asked for");
        let skipped: Vec<u64> = drift
            .classes
            .iter()
            .map(|c| c.modeled_tasks - c.measured_tasks)
            .collect();
        assert_eq!(skipped[0], 0, "POTRF always runs");
        assert_eq!(skipped.iter().sum::<u64>(), elided);
        per_class.push(skipped);
    }
    assert!(per_class.windows(2).all(|w| w[0] == w[1]), "{per_class:?}");
}

/// A 4 × 4-tile SPD matrix `A = L·Lᵀ` with `L₀₀ = I` and `L₂₁ = L₃₂ =
/// 0`, so that `A₂₁ = L₂₀·L₁₀ᵀ` and `A₃₂ = L₃₀·L₂₀ᵀ` exactly. Both tiles
/// are low rank and non-null at load; panel 0's GEMMs cancel them to
/// `Null`, so the TRSMs that would finalize them are elided.
fn cancelling_matrix() -> TlrMatrix {
    let (b, nt) = (16, 4);
    let col =
        |seed: usize| Matrix::from_fn(b, 1, |i, _| ((i * 7 + seed * 13) % 11) as f64 / 11.0 - 0.4);
    let outer = |x: &Matrix, y: &Matrix| Matrix::from_fn(b, b, |i, j| x[(i, 0)] * y[(j, 0)]);
    let mut l = vec![vec![Matrix::zeros(b, b); nt]; nt];
    for (i, row) in l.iter_mut().enumerate() {
        row[i] = Matrix::identity(b);
    }
    l[1][0] = outer(&col(1), &col(2));
    l[2][0] = outer(&col(3), &col(4));
    l[3][0] = outer(&col(5), &col(6));
    l[3][1] = outer(&col(7), &col(8));
    let n = b * nt;
    let dense = Matrix::from_fn(n, n, |r, c| {
        let (i, j) = (r / b, c / b);
        (0..=i.min(j))
            .map(|k| {
                (0..b)
                    .map(|p| l[i][k][(r % b, p)] * l[j][k][(c % b, p)])
                    .sum::<f64>()
            })
            .sum()
    });
    TlrMatrix::from_dense(&dense, b, &CompressionConfig::with_accuracy(1e-8))
}

/// Integrity composes with elision. Under `Maintain` a tile is sealed at
/// load and resealed by its finalizing TRSM; a GEMM that cancels a tile
/// to `Null` leaves the seal stale, so a skipped TRSM must reseal it, or
/// the end-of-run sweep reports a corruption that never happened. All
/// three modes, traced and not, return `Ok` with the same factor bits and
/// the same skipped tasks.
#[test]
fn integrity_modes_compose_with_elision() {
    let a = cancelling_matrix();
    for (i, j) in [(2, 1), (3, 2)] {
        assert!(
            matches!(a.tile(i, j), Tile::LowRank { .. }),
            "({i}, {j}) is low rank at load"
        );
    }
    let mut seen = None;
    for integrity in [
        IntegrityMode::Off,
        IntegrityMode::Maintain,
        IntegrityMode::VerifyReads,
    ] {
        for traced in [false, true] {
            let mut cfg = FactorConfig::with_accuracy(1e-8);
            cfg.nthreads = 2;
            cfg.integrity = integrity;
            cfg.collect_trace = traced;
            let mut m = a.clone();
            let out = Session::shared(cfg)
                .run(&mut m)
                .unwrap_or_else(|e| panic!("{integrity:?}, trace {traced}: {e}"));
            for (i, j) in [(2, 1), (3, 2)] {
                assert!(m.tile(i, j).is_null(), "({i}, {j}) cancels to Null");
            }
            let (_, elided) = split(&out);
            assert!(elided > 0, "the cancelled tiles' TRSMs are elided");
            let run = (elided, factor_bits(&m));
            match &seen {
                None => seen = Some(run),
                Some(first) => assert!(*first == run, "{integrity:?}, trace {traced} moved"),
            }
        }
    }
}
