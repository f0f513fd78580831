//! Integration tests spanning the whole stack: geometry → Hilbert → RBF
//! kernel → TLR compression → trimmed task-DAG factorization → solve,
//! validated against the dense reference pipeline.

use hicma_parsec::cholesky::{
    factorization_residual, factorize, solve_residual, solve_tlr, FactorConfig,
};
use hicma_parsec::linalg::Matrix;
use hicma_parsec::mesh::deform::{solve_dense, Displacements};
use hicma_parsec::mesh::geometry::{virus_population, VirusConfig};
use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
use hicma_parsec::mesh::GaussianRbf;
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};

/// Shared fixture: a Hilbert-ordered virus cloud and its kernel.
fn fixture(n_viruses: usize, per_virus: usize, seed: u64) -> (Vec<hicma_parsec::mesh::Point3>, GaussianRbf) {
    let cfg = VirusConfig { points_per_virus: per_virus, ..Default::default() };
    let raw = virus_population(n_viruses, &cfg, seed);
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    let kernel = GaussianRbf::from_min_distance(&points);
    (points, kernel)
}

#[test]
fn rbf_pipeline_factorizes_and_solves() {
    let (points, kernel) = fixture(3, 250, 5);
    let n = points.len();
    let accuracy = 1e-6;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut a = TlrMatrix::from_generator(n, 96, kernel.generator(&points), &ccfg);
    let dense = Matrix::from_fn(n, n, |i, j| kernel.matrix_entry(&points, i, j));

    let report = factorize(&mut a, &FactorConfig::with_accuracy(accuracy)).expect("SPD");
    assert!(report.dag_tasks <= report.dense_dag_tasks);

    let res = factorization_residual(&dense, &a);
    assert!(res < accuracy * 1e3, "factorization residual {res}");

    let x_true: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
    let b = dense.matvec(&x_true);
    let mut x = b.clone();
    solve_tlr(&a, &mut x);
    let sres = solve_residual(&dense, &x, &b);
    assert!(sres < 1e-4, "solve residual {sres}");
}

#[test]
fn trimmed_and_untrimmed_agree_numerically() {
    let (points, kernel) = fixture(2, 200, 9);
    let n = points.len();
    let accuracy = 1e-7;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut a_t = TlrMatrix::from_generator(n, 80, kernel.generator(&points), &ccfg);
    let mut a_u = TlrMatrix::from_generator(n, 80, kernel.generator(&points), &ccfg);
    let mut cfg = FactorConfig::with_accuracy(accuracy);
    cfg.trimmed = true;
    factorize(&mut a_t, &cfg).unwrap();
    cfg.trimmed = false;
    factorize(&mut a_u, &cfg).unwrap();
    let lt = a_t.to_dense_lower();
    let lu = a_u.to_dense_lower();
    let diff = hicma_parsec::linalg::norms::relative_diff(&lt, &lu);
    assert!(diff < 1e-10, "trimming changed the numbers: {diff}");
}

#[test]
fn mesh_deformation_tlr_matches_dense() {
    let (points, kernel) = fixture(3, 150, 13);
    let n = points.len();
    let accuracy = 1e-8;

    // Boundary condition: rigid shift of everything (exactly representable).
    let d_b = Displacements::translation(n, 0.01, -0.02, 0.005);
    let reference = solve_dense(&points, kernel, &d_b).expect("SPD");

    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut a = TlrMatrix::from_generator(n, 64, kernel.generator(&points), &ccfg);
    factorize(&mut a, &FactorConfig::with_accuracy(accuracy)).unwrap();
    let mut ax = d_b.dx.clone();
    solve_tlr(&a, &mut ax);

    let worst = ax
        .iter()
        .zip(&reference.alpha.dx)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(worst < 1e-4, "TLR coefficients deviate from dense by {worst}");
}

#[test]
fn distributed_ranks_match_shared_memory_on_rbf() {
    // The full §VII story on real data: factorize the RBF operator across
    // emulated distributed-memory ranks with the band data distribution
    // and diamond execution remapping, and require bit-identical factors
    // vs the shared-memory run.
    use hicma_parsec::cholesky::Session;
    use hicma_parsec::distribution::DiamondDistribution;

    let (points, kernel) = fixture(2, 180, 71);
    let n = points.len();
    let accuracy = 1e-7;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut shared = TlrMatrix::from_generator(n, 72, kernel.generator(&points), &ccfg);
    let mut distr = TlrMatrix::from_generator(n, 72, kernel.generator(&points), &ccfg);
    let fcfg = FactorConfig::with_accuracy(accuracy);
    factorize(&mut shared, &fcfg).unwrap();
    Session::distributed(fcfg, 6, &DiamondDistribution::new(6)).run(&mut distr).unwrap();
    let diff = hicma_parsec::linalg::norms::relative_diff(
        &distr.to_dense_lower(),
        &shared.to_dense_lower(),
    );
    assert!(diff < 1e-12, "distributed RBF factorization deviates: {diff}");
}

#[test]
fn refined_solve_reaches_machine_accuracy_from_loose_threshold() {
    use hicma_parsec::cholesky::solve_refined;
    let (points, kernel) = fixture(2, 150, 83);
    let n = points.len();
    let loose = 1e-4; // the paper's production threshold
    let ccfg = CompressionConfig::with_accuracy(loose);
    let a = TlrMatrix::from_generator(n, 64, kernel.generator(&points), &ccfg);
    let mut l = TlrMatrix::from_generator(n, 64, kernel.generator(&points), &ccfg);
    factorize(&mut l, &FactorConfig::with_accuracy(loose)).unwrap();
    let dense = Matrix::from_fn(n, n, |i, j| kernel.matrix_entry(&points, i, j));
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) / 5.0).collect();
    let b = dense.matvec(&x_true);
    let mut x = b.clone();
    let history = solve_refined(&a, &l, &mut x, 8);
    let final_res = *history.last().unwrap();
    assert!(
        final_res < 1e-12,
        "refinement from ε=1e-4 must reach near-machine residual: {history:?}"
    );
}

#[test]
fn compression_density_drops_with_smaller_delta() {
    let (points, kernel) = fixture(3, 200, 21);
    let n = points.len();
    let ccfg = CompressionConfig::with_accuracy(1e-6);
    let sharp = GaussianRbf { delta: kernel.delta, nugget: 0.0 };
    let smooth = GaussianRbf { delta: kernel.delta * 16.0, nugget: 0.0 };
    let a_sharp = TlrMatrix::from_generator(n, 64, sharp.generator(&points), &ccfg);
    let a_smooth = TlrMatrix::from_generator(n, 64, smooth.generator(&points), &ccfg);
    assert!(
        a_sharp.density() < a_smooth.density(),
        "sharp {} vs smooth {}",
        a_sharp.density(),
        a_smooth.density()
    );
}

/// Sequential right-looking TLR Cholesky using the kept pre-PR
/// reference kernels (explicit-Q, allocating recompression) — the
/// ground truth the workspace engine must reproduce.
fn reference_factorize(a: &mut hicma_parsec::tlr::TlrMatrix, cfg: &CompressionConfig) {
    use hicma_parsec::tlr::kernels::{potrf_kernel, reference, syrk_kernel, trsm_kernel};
    let nt = a.nt();
    for k in 0..nt {
        potrf_kernel(a.tile_mut(k, k)).expect("SPD");
        let lkk = a.tile(k, k).clone();
        for i in k + 1..nt {
            trsm_kernel(&lkk, a.tile_mut(i, k));
        }
        for i in k + 1..nt {
            let aik = a.tile(i, k).clone();
            syrk_kernel(&aik, a.tile_mut(i, i));
            for j in k + 1..i {
                let ajk = a.tile(j, k).clone();
                reference::gemm_kernel_reference(&aik, &ajk, a.tile_mut(i, j), cfg);
            }
        }
    }
}

/// The workspace-backed implicit-Q factorization path agrees with a
/// sequential factorization built on the pre-PR reference kernels to
/// within the recompression accuracy headroom, on a real RBF problem.
#[test]
fn workspace_factorization_matches_reference_kernels() {
    let (points, kernel) = fixture(2, 220, 31);
    let n = points.len();
    let accuracy = 1e-7;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut a_new = TlrMatrix::from_generator(n, 80, kernel.generator(&points), &ccfg);
    let mut a_ref = TlrMatrix::from_generator(n, 80, kernel.generator(&points), &ccfg);

    let mut fcfg = FactorConfig::with_accuracy(accuracy);
    fcfg.trimmed = false; // reference loop applies every update
    factorize(&mut a_new, &fcfg).expect("SPD");
    reference_factorize(&mut a_ref, &ccfg);

    let ln = a_new.to_dense_lower();
    let lr = a_ref.to_dense_lower();
    let diff = hicma_parsec::linalg::norms::relative_diff(&ln, &lr);
    assert!(
        diff < 10.0 * accuracy,
        "workspace vs reference factorization diverged: {diff}"
    );
}

/// A `NaN` in one off-diagonal tile must come back as the typed pivot
/// failure of the diagonal tile it spreads to, never as a kernel panic:
/// the core truncation of every update the tile takes part in sees a
/// non-finite core (an SVD once died there in a `partial_cmp().unwrap()`
/// sort), and must neither panic, nor spin, nor truncate the poison away.
#[test]
fn nan_poisoned_tile_is_a_typed_numeric_error() {
    use hicma_parsec::cholesky::{RunError, Session};
    use hicma_parsec::tlr::Tile;

    let (points, kernel) = fixture(2, 200, 21);
    let accuracy = 1e-7;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut a = TlrMatrix::from_generator(points.len(), 50, kernel.generator(&points), &ccfg);
    // Last low-rank tile of panel 0. POTRF of its row's diagonal tile
    // comes after every update of that row, so the step-0 GEMMs that
    // recompress the poisoned product run before anything can cancel.
    let row = (1..a.nt())
        .rev()
        .find(|&i| matches!(a.tile(i, 0), Tile::LowRank { .. }))
        .expect("panel 0 has a low-rank tile");
    assert!(
        (1..row).any(|n| !a.tile(n, 0).is_null() && !matches!(a.tile(row, n), Tile::Dense(_))),
        "no step-0 update of row {row} goes through recompression"
    );
    match a.tile_mut(row, 0) {
        Tile::LowRank { u, .. } => u[(0, 0)] = f64::NAN,
        _ => unreachable!(),
    }
    match Session::shared(FactorConfig::with_accuracy(accuracy)).run(&mut a) {
        Err(RunError::Numeric(_)) => {}
        Err(other) => panic!("expected a numeric error, got {other}"),
        Ok(_) => panic!("a NaN-poisoned matrix factorized"),
    }
}

/// Poison reaches the diagonal whatever truncates the recompression core:
/// a `NaN` or `±∞` in any stacked factor — the destination's `U` or `V`,
/// the update's `u` or `v`, an operand of the TLR GEMM — comes out of
/// recompression as a tile with a non-finite entry, never as `Null` and
/// never as a finite tile. The reference kernels, which truncate by the
/// SVD, keep the poison the same way. A factorization whose off-diagonal
/// tile holds `±∞` ends in the typed numeric error, like the `NaN` case
/// above.
#[test]
fn poison_in_a_stacked_factor_reaches_the_diagonal() {
    use hicma_parsec::cholesky::{RunError, Session};
    use hicma_parsec::tlr::compress_tile;
    use hicma_parsec::tlr::kernels::{
        gemm_kernel_ws, reference, subtract_lowrank_ws, KernelWorkspace,
    };
    use hicma_parsec::tlr::Tile;

    let cfg = CompressionConfig::with_accuracy(1e-6);
    let compressed = |b: usize, shift: f64| {
        let smooth = Matrix::from_fn(b, b, |i, j| {
            let d = (i as f64 - j as f64 + shift) / 12.0;
            (-d * d).exp()
        });
        match compress_tile(smooth, &cfg) {
            Tile::LowRank { u, v } => (u, v),
            other => panic!("fixture tile must compress, got {:?}", other.format()),
        }
    };
    // Rank-40 factors with decaying columns: stacked 40 (into null) or 80
    // columns wide, past the 32 reflectors up to which `Qr` reflects one
    // column at a time, so the poison goes through block reflectors.
    let wide = |b: usize, seed: usize| {
        let f = |s: usize| {
            Matrix::from_fn(b, 40, |i, c| {
                ((i * 7 + c * 13 + s) as f64 * 0.37).sin() * 0.9f64.powi(c as i32)
            })
        };
        (f(seed), f(seed + 1))
    };
    let fixtures = [
        (32, compressed(32, 40.0), compressed(32, 46.0)),
        (150, wide(150, 1), wide(150, 3)),
    ];
    let poisoned = |m: &Matrix, x: f64| {
        let mut m = m.clone();
        m[(3, 0)] = x;
        m
    };
    let assert_poisoned = |c: &Tile, what: &str| {
        assert!(!c.is_null(), "{what}: poison truncated to a null tile");
        assert!(
            c.to_dense().as_slice().iter().any(|e| !e.is_finite()),
            "{what}: poison truncated to a finite {:?} tile of rank {}",
            c.format(),
            c.rank()
        );
    };
    let mut ws = KernelWorkspace::new();
    for (b, (uc, vc), (up, vp)) in fixtures {
        let lr = |u: &Matrix, v: &Matrix| Tile::LowRank { u: u.clone(), v: v.clone() };
        let null = || Tile::Null { rows: b, cols: b };
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let updates = [
                ("destination u", lr(&poisoned(&uc, x), &vc), up.clone(), vp.clone()),
                ("destination v", lr(&uc, &poisoned(&vc, x)), up.clone(), vp.clone()),
                ("update u", lr(&uc, &vc), poisoned(&up, x), vp.clone()),
                ("update v", lr(&uc, &vc), up.clone(), poisoned(&vp, x)),
                ("update u into null", null(), poisoned(&up, x), vp.clone()),
            ];
            for (what, c0, u, v) in updates {
                let mut c = c0.clone();
                subtract_lowrank_ws(&mut ws, &mut c, &u, &v, &cfg);
                assert_poisoned(&c, &format!("b = {b}: subtract_lowrank {x}, {what}"));
                let mut c = c0;
                reference::subtract_lowrank_reference(&mut c, &u, &v, &cfg);
                assert_poisoned(&c, &format!("b = {b}: subtract_lowrank_reference {x}, {what}"));
            }
            let operand = lr(&poisoned(&up, x), &vp);
            let clean = lr(&uc, &vc);
            for (what, c0) in [("low-rank", lr(&uc, &vc)), ("null", null())] {
                for (side, a, b_op) in [("a", &operand, &clean), ("b", &clean, &operand)] {
                    let mut c = c0.clone();
                    gemm_kernel_ws(&mut ws, a, b_op, &mut c, &cfg);
                    assert_poisoned(&c, &format!("b = {b}: gemm_kernel {x}, poisoned {side} into {what}"));
                    let mut c = c0.clone();
                    reference::gemm_kernel_reference(a, b_op, &mut c, &cfg);
                    assert_poisoned(
                        &c,
                        &format!("b = {b}: gemm_kernel_reference {x}, poisoned {side} into {what}"),
                    );
                }
            }
        }
    }

    let (points, kernel) = fixture(2, 200, 21);
    let accuracy = 1e-7;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    for x in [f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = TlrMatrix::from_generator(points.len(), 50, kernel.generator(&points), &ccfg);
        let row = (1..a.nt())
            .rev()
            .find(|&i| matches!(a.tile(i, 0), Tile::LowRank { .. }))
            .expect("panel 0 has a low-rank tile");
        match a.tile_mut(row, 0) {
            Tile::LowRank { u, .. } => u[(0, 0)] = x,
            _ => unreachable!(),
        }
        match Session::shared(FactorConfig::with_accuracy(accuracy)).run(&mut a) {
            Err(RunError::Numeric(_)) => {}
            Err(other) => panic!("{x}: expected a numeric error, got {other}"),
            Ok(_) => panic!("a {x}-poisoned matrix factorized"),
        }
    }
}

/// A `NaN` — or two `+∞` in one column — among an off-diagonal tile's
/// entries makes a column norm `NaN` (∞/∞ in the scaled sum). Assembly's
/// null test used to read that as 0 and store the tile as `Null`, and the
/// factorization succeeded. The poison must reach the diagonal and fail
/// there as the typed numeric error.
#[test]
fn non_finite_entries_in_an_assembled_tile_are_a_numeric_error() {
    use hicma_parsec::cholesky::{RunError, Session};

    let (points, kernel) = fixture(2, 200, 21);
    let (n, accuracy) = (points.len(), 1e-7);
    assert_eq!(n, 400);
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    // Entries of tile (6, 0) at b = 50: rows 300..350, columns 0..50.
    let cases = [
        ("one NaN", vec![(310, 20, f64::NAN)]),
        ("two +inf in one column", vec![(305, 7, f64::INFINITY), (340, 7, f64::INFINITY)]),
    ];
    for (what, poison) in cases {
        let entry = |i: usize, j: usize| match poison.iter().find(|p| (p.0, p.1) == (i, j)) {
            Some(p) => p.2,
            None => kernel.matrix_entry(&points, i, j),
        };
        let mut a = TlrMatrix::from_generator(n, 50, entry, &ccfg);
        assert!(!a.tile(6, 0).is_null(), "{what}: the poisoned tile was stored as null");
        match Session::shared(FactorConfig::with_accuracy(accuracy)).run(&mut a) {
            Err(RunError::Numeric(_)) => {}
            Err(other) => panic!("{what}: expected a numeric error, got {other}"),
            Ok(_) => panic!("{what}: a poisoned matrix factorized"),
        }
    }
}

/// A distributed session over zero ranks is a typed engine error at
/// every entry point (`nprocs - 1` used to wrap inside the plan key and
/// index an empty rank table).
#[test]
fn distributed_session_over_zero_ranks_is_a_typed_error() {
    use hicma_parsec::cholesky::{RunError, Session};
    use hicma_parsec::distribution::TwoDBlockCyclic;
    use hicma_parsec::runtime::EngineError;

    let (points, kernel) = fixture(1, 100, 3);
    let ccfg = CompressionConfig::with_accuracy(1e-6);
    let mut a = TlrMatrix::from_generator(points.len(), 25, kernel.generator(&points), &ccfg);
    let dist = TwoDBlockCyclic::new(1);
    let session = Session::distributed(FactorConfig::with_accuracy(1e-6), 0, &dist);
    let empty = RunError::Engine(EngineError::EmptyMachine { nprocs: 0, cores_per_proc: 1 });
    assert_eq!(session.plan(&a).err(), Some(empty.clone()));
    assert_eq!(session.run(&mut a).err(), Some(empty.clone()));
    let plan = Session::distributed(FactorConfig::with_accuracy(1e-6), 1, &dist).plan(&a).unwrap();
    assert_eq!(session.run_with_plan(&plan, &mut a).err(), Some(empty));
}

/// A layout built for another rank count is a typed error naming both
/// counts: clamping its owners would pile three ranks' tiles onto one
/// (layout 4, session 2) or leave ranks without work (layout 2, session
/// 4).
#[test]
fn distributed_session_over_a_layout_for_other_ranks_is_a_typed_error() {
    use hicma_parsec::cholesky::{RunError, Session};
    use hicma_parsec::distribution::TwoDBlockCyclic;

    let (points, kernel) = fixture(1, 100, 3);
    let ccfg = CompressionConfig::with_accuracy(1e-6);
    let mut a = TlrMatrix::from_generator(points.len(), 25, kernel.generator(&points), &ccfg);
    for (layout, nprocs) in [(4, 2), (2, 4)] {
        let dist = TwoDBlockCyclic::new(layout);
        let session = Session::distributed(FactorConfig::with_accuracy(1e-6), nprocs, &dist);
        let mismatch = RunError::LayoutMismatch { layout, nprocs };
        assert_eq!(session.plan(&a).err(), Some(mismatch.clone()));
        assert_eq!(session.run(&mut a).err(), Some(mismatch));
    }
}
