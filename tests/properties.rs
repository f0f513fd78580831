//! Property-based tests (proptest) on the core invariants of the stack:
//! compression error bounds, kernel format-equivalence, Cholesky
//! reconstruction, Hilbert permutation validity, Algorithm-1 analysis
//! invariants, DES lower bounds, the SVD oracle's decomposition, and the
//! recompression accuracy contract.

use hicma_parsec::cholesky::simulate::{simulate_cholesky, DistributionPlan, SimConfig};
use hicma_parsec::cholesky::MatrixAnalysis;
use hicma_parsec::distribution::{
    BandDistribution, DiamondDistribution, LorapoHybrid, TileDistribution, TwoDBlockCyclic,
};
use hicma_parsec::linalg::{
    gemm, gemm_serial, jacobi_svd, potrf, syrk_serial, trsm, MatRef, Matrix, Qr, Side, Trans,
    Uplo,
};
use hicma_parsec::mesh::hilbert::hilbert_sort;
use hicma_parsec::mesh::Point3;
use hicma_parsec::runtime::MachineModel;
use hicma_parsec::tlr::kernels::{
    gemm_kernel, gemm_kernel_ws, reference, subtract_lowrank_ws, KernelWorkspace,
};
use hicma_parsec::tlr::{compress_tile, CompressionConfig, RankSnapshot, Tile};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix from a seed.
fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// Rank-`k` matrix with geometric singular decay.
fn seeded_low_rank(n: usize, k: usize, seed: u64) -> Matrix {
    let u = seeded_matrix(n, k, seed);
    let v = seeded_matrix(n, k, seed ^ 0xDEAD);
    let mut out = Matrix::zeros(n, n);
    for p in 0..k {
        let s = 2.0_f64.powi(-(p as i32));
        for j in 0..n {
            let w = s * v[(j, p)];
            for i in 0..n {
                out[(i, j)] += w * u[(i, p)];
            }
        }
    }
    out
}

/// `m` stored at `(i0, j0)` of a larger matrix (so a view of it has a
/// stride above its row count and both offsets non-zero); every other
/// entry is a fixed pattern, so two hosts are equal exactly when the
/// hosted blocks are and nothing around them was written.
fn hosted(m: &Matrix, i0: usize, j0: usize) -> Matrix {
    let mut host =
        Matrix::from_fn(m.rows() + i0 + 2, m.cols() + j0 + 1, |i, j| 1e3 + (31 * i + j) as f64);
    host.set_submatrix(i0, j0, m);
    host
}

/// The block of `host` where [`hosted`] put `of`.
fn view<'a>(host: &'a Matrix, of: &Matrix, i0: usize, j0: usize) -> MatRef<'a> {
    host.as_ref().block(i0, j0, of.rows(), of.cols())
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `A·Bᵀ = up·vpᵀ` as `reference::gemm_kernel_reference` forms it, for an
/// operand pair with at least one low-rank side. With `fold` a formed left
/// factor is `−(−1·X)` instead of `X`, as the GEMM kernel forms it when the
/// destination stacks (the update's −1 folded into the product): negation
/// is exact, so the two differ only in the sign of exact zeros.
fn product_factors(a: &Tile, b: &Tile, fold: bool) -> (Matrix, Matrix) {
    let product = |alpha: f64, x: &Matrix, tx: Trans, y: &Matrix, ty: Trans| {
        let rows = if tx == Trans::No { x.rows() } else { x.cols() };
        let cols = if ty == Trans::No { y.cols() } else { y.rows() };
        let mut p = Matrix::zeros(rows, cols);
        gemm_serial(tx, ty, alpha, x, y, 0.0, &mut p);
        p
    };
    let sign = if fold { -1.0 } else { 1.0 };
    let left = |x: &Matrix, y: &Matrix| {
        let mut p = product(sign, x, Trans::No, y, Trans::No);
        p.scale(sign);
        p
    };
    match (a, b) {
        (Tile::LowRank { u: ua, v: va }, Tile::LowRank { u: ub, v: vb }) => {
            let w = product(1.0, va, Trans::Yes, vb, Trans::No);
            if ua.cols() <= ub.cols() {
                (ua.clone(), product(1.0, ub, Trans::No, &w, Trans::Yes))
            } else {
                (left(ua, &w), ub.clone())
            }
        }
        (Tile::LowRank { u: ua, v: va }, Tile::Dense(bm)) => {
            (ua.clone(), product(1.0, bm, Trans::No, va, Trans::No))
        }
        (Tile::Dense(am), Tile::LowRank { u: ub, v: vb }) => (left(am, vb), ub.clone()),
        _ => unreachable!("one operand is low-rank"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A view is its copy: GEMM, SYRK and TRSM on strided interior blocks
    /// of larger matrices (operands and output alike) produce, bit for
    /// bit, what they produce on `submatrix` copies written back with
    /// `set_submatrix`, and write nothing outside the output block. The
    /// shapes straddle the packed-microkernel gate.
    #[test]
    fn kernels_on_views_equal_kernels_on_copies(
        seed in 0u64..1000, m in 1usize..40, n in 1usize..24, k in 1usize..40,
        i0 in 1usize..4, j0 in 1usize..4,
    ) {
        let shape = |t: Trans, r: usize, c: usize| if t == Trans::No { (r, c) } else { (c, r) };
        for ta in [Trans::No, Trans::Yes] {
            for tb in [Trans::No, Trans::Yes] {
                let ((ar, ac), (br, bc)) = (shape(ta, m, k), shape(tb, k, n));
                let a = seeded_matrix(ar, ac, seed);
                let b = seeded_matrix(br, bc, seed ^ 0xB);
                let mut c = seeded_matrix(m, n, seed ^ 0xC);
                let (ha, hb, mut hc) = (hosted(&a, i0, j0), hosted(&b, j0, i0), hosted(&c, i0, j0));
                gemm_serial(ta, tb, 1.3, &a, &b, 0.7, &mut c);
                let (va, vb) = (view(&ha, &a, i0, j0), view(&hb, &b, j0, i0));
                gemm_serial(ta, tb, 1.3, va, vb, 0.7, hc.as_mut().block(i0, j0, m, n));
                prop_assert!(bits(&hc) == bits(&hosted(&c, i0, j0)), "gemm {:?} {:?}", ta, tb);
                // The column-block instance (what the TLR recompression
                // does): the product written into columns [j0, j0 + n) of
                // a wider matrix, whose other columns stay as they were.
                let mut wide = seeded_matrix(m, n + j0 + 1, seed ^ 0xD);
                let mut expect = wide.clone();
                let mut cols = wide.submatrix(0, j0, m, n);
                gemm_serial(ta, tb, 1.3, &a, &b, 0.7, &mut cols);
                expect.set_submatrix(0, j0, &cols);
                gemm_serial(ta, tb, 1.3, &a, &b, 0.7, wide.as_mut().subcols(j0..j0 + n));
                prop_assert!(bits(&wide) == bits(&expect), "gemm cols {:?} {:?}", ta, tb);
            }
        }
        for trans in [Trans::No, Trans::Yes] {
            let (ar, ac) = shape(trans, m, k);
            let a = seeded_matrix(ar, ac, seed ^ 0x5);
            let mut c = seeded_matrix(m, m, seed ^ 0x6);
            let (ha, mut hc) = (hosted(&a, i0, j0), hosted(&c, j0, i0));
            syrk_serial(trans, -1.0, &a, 1.0, &mut c);
            syrk_serial(trans, -1.0, view(&ha, &a, i0, j0), 1.0, hc.as_mut().block(j0, i0, m, m));
            prop_assert!(bits(&hc) == bits(&hosted(&c, j0, i0)), "syrk {:?}", trans);
        }
        for side in [Side::Left, Side::Right] {
            for trans in [Trans::No, Trans::Yes] {
                let order = if side == Side::Left { m } else { n };
                let mut l = seeded_matrix(order, order, seed ^ 0x7);
                for d in 0..order {
                    l[(d, d)] = 2.0 + l[(d, d)].abs();
                }
                let mut b = seeded_matrix(m, n, seed ^ 0x8);
                let (hl, mut hb) = (hosted(&l, i0, j0), hosted(&b, j0, i0));
                trsm(side, Uplo::Lower, trans, 0.5, &l, &mut b);
                let vl = view(&hl, &l, i0, j0);
                trsm(side, Uplo::Lower, trans, 0.5, vl, hb.as_mut().block(j0, i0, m, n));
                prop_assert!(bits(&hb) == bits(&hosted(&b, j0, i0)), "trsm {:?} {:?}", side, trans);
            }
        }
    }

    /// Compression at tolerance ε leaves ‖A − UVᵀ‖_F ≤ O(ε).
    #[test]
    fn compression_error_bounded(seed in 0u64..1000, k in 1usize..10, tol_exp in 1i32..8) {
        let n = 24;
        let tol = 10f64.powi(-tol_exp);
        let a = seeded_low_rank(n, k, seed);
        let t = compress_tile(a.clone(), &CompressionConfig::with_accuracy(tol));
        let mut diff = t.to_dense();
        diff.axpy(-1.0, &a);
        let err = hicma_parsec::linalg::frobenius_norm(&diff);
        prop_assert!(err <= 10.0 * tol, "err {} tol {}", err, tol);
        // rank never exceeds the construction rank (spectrum truncates)
        prop_assert!(t.rank() <= k.min(n));
    }

    /// The TLR GEMM kernel agrees with dense arithmetic for every format
    /// combination of its inputs.
    #[test]
    fn gemm_kernel_equals_dense(seed in 0u64..500, ka in 1usize..6, kb in 1usize..6) {
        let n = 16;
        let cfg = CompressionConfig::with_accuracy(1e-9);
        let a_m = seeded_low_rank(n, ka, seed);
        let b_m = seeded_low_rank(n, kb, seed ^ 0xBEEF);
        let c_m = seeded_low_rank(n, 3, seed ^ 0xCAFE);
        let mut expect = c_m.clone();
        gemm(Trans::No, Trans::Yes, -1.0, &a_m, &b_m, 1.0, &mut expect);

        for a_t in [Tile::Dense(a_m.clone()), compress_tile(a_m.clone(), &cfg)] {
            for b_t in [Tile::Dense(b_m.clone()), compress_tile(b_m.clone(), &cfg)] {
                let mut c_t = compress_tile(c_m.clone(), &cfg);
                gemm_kernel(&a_t, &b_t, &mut c_t, &cfg);
                let mut diff = c_t.to_dense();
                diff.axpy(-1.0, &expect);
                let err = hicma_parsec::linalg::frobenius_norm(&diff);
                prop_assert!(err < 1e-6, "err {}", err);
            }
        }
    }

    /// The workspace engine (implicit-Q, arena-backed) and the kept
    /// pre-PR reference kernel (explicit-Q, allocating) agree to near
    /// machine precision over random sequences of updates that share a
    /// single arena — the arena's buffer-recycling history must never
    /// leak into the numerics.
    #[test]
    fn workspace_kernel_matches_reference(
        seed in 0u64..300, ka in 1usize..6, kb in 1usize..6, len in 1usize..4,
    ) {
        let n = 20;
        let cfg = CompressionConfig::with_accuracy(1e-8);
        let mut ws = KernelWorkspace::new();
        let mut c_ws = compress_tile(seeded_low_rank(n, 3, seed ^ 0xC0DE), &cfg);
        let mut c_ref = c_ws.clone();
        for step in 0..len {
            let s = seed ^ ((step as u64 + 1) << 8);
            let a_t = compress_tile(seeded_low_rank(n, ka, s), &cfg);
            let b_t = compress_tile(seeded_low_rank(n, kb, s ^ 0xBEEF), &cfg);
            gemm_kernel_ws(&mut ws, &a_t, &b_t, &mut c_ws, &cfg);
            reference::gemm_kernel_reference(&a_t, &b_t, &mut c_ref, &cfg);
            let d_ws = c_ws.to_dense();
            let mut diff = d_ws.clone();
            diff.axpy(-1.0, &c_ref.to_dense());
            let scale = hicma_parsec::linalg::frobenius_norm(&d_ws).max(1.0);
            let err = hicma_parsec::linalg::frobenius_norm(&diff) / scale;
            prop_assert!(err < 1e-12, "step {} err {}", step, err);
        }
    }

    /// Workspace-recompressed updates stay within the accuracy headroom
    /// of exact dense arithmetic, and the produced rank never exceeds
    /// `min(rows, cols, ktot)` — the stacked inner dimension that the
    /// recompression engine truncates.
    #[test]
    fn workspace_recompression_error_and_rank_bounded(
        seed in 0u64..300, ka in 1usize..6, kb in 1usize..6, kc in 1usize..6,
    ) {
        let n = 18;
        let cfg = CompressionConfig::with_accuracy(1e-8);
        let a_m = seeded_low_rank(n, ka, seed);
        let b_m = seeded_low_rank(n, kb, seed ^ 0xBEEF);
        let c_m = seeded_low_rank(n, kc, seed ^ 0xCAFE);
        let mut expect = c_m.clone();
        gemm(Trans::No, Trans::Yes, -1.0, &a_m, &b_m, 1.0, &mut expect);

        let a_t = compress_tile(a_m, &cfg);
        let b_t = compress_tile(b_m, &cfg);
        let mut c_t = compress_tile(c_m, &cfg);
        let (ra, rb, rc) = (a_t.rank(), b_t.rank(), c_t.rank());
        let mut ws = KernelWorkspace::new();
        gemm_kernel_ws(&mut ws, &a_t, &b_t, &mut c_t, &cfg);

        let mut diff = c_t.to_dense();
        diff.axpy(-1.0, &expect);
        let scale = hicma_parsec::linalg::frobenius_norm(&expect).max(1.0);
        let err = hicma_parsec::linalg::frobenius_norm(&diff) / scale;
        prop_assert!(err < 100.0 * cfg.accuracy, "err {}", err);

        // Stacked inner dimension: destination rank + product rank.
        let ktot = rc + ra.min(rb);
        prop_assert!(
            c_t.rank() <= n.min(ktot),
            "rank {} exceeds min(n = {}, ktot = {})", c_t.rank(), n, ktot
        );
    }

    /// The GEMM kernel is the update path applied to `A·Bᵀ`'s factor
    /// pair: for every operand pair with a low-rank side (`ka` below,
    /// equal to and above `kb`), with and without exact-zero rows, and
    /// every destination format, `gemm_kernel_ws` leaves, bit for bit,
    /// the tile `subtract_lowrank_ws` leaves on the factors that
    /// `reference::gemm_kernel_reference` forms — a formed left factor
    /// into a stacking destination folded as the kernel folds it (see
    /// [`product_factors`]; the zero rows are what tell the two apart).
    #[test]
    fn gemm_kernel_is_the_update_path_on_the_product_factors(
        seed in 0u64..300, n in 8usize..56, ka in 2usize..8, tie in 0usize..3,
        zero_rows in 0usize..2,
    ) {
        let cfg = CompressionConfig::with_accuracy(1e-8);
        let kb = ka + 1 - tie;
        let factor = |k: usize, s: u64| {
            let mut f = seeded_matrix(n, k, s);
            if zero_rows == 1 {
                for j in 0..k {
                    f.col_mut(j)[..n / 3].fill(0.0);
                }
            }
            f
        };
        let lr = |k: usize, s: u64| Tile::LowRank { u: factor(k, s), v: factor(k, s ^ 0x51) };
        let dense = |s: u64| Tile::Dense(factor(n, s));
        let pairs = [
            ("lowrank-lowrank", lr(ka, seed), lr(kb, seed ^ 0xBEEF)),
            ("lowrank-dense", lr(ka, seed), dense(seed ^ 0xBEEF)),
            ("dense-lowrank", dense(seed), lr(kb, seed ^ 0xBEEF)),
        ];
        let dests = [
            ("dense", dense(seed ^ 0xCAFE)),
            ("lowrank", lr(3, seed ^ 0xC0DE)),
            ("null", Tile::Null { rows: n, cols: n }),
        ];
        let mut ws = KernelWorkspace::new();
        for (pair, a, b) in &pairs {
            for (dest, c0) in &dests {
                let (up, vp) = product_factors(a, b, !matches!(c0, Tile::Dense(_)));
                let mut by_kernel = c0.clone();
                gemm_kernel_ws(&mut ws, a, b, &mut by_kernel, &cfg);
                let mut by_update = c0.clone();
                subtract_lowrank_ws(&mut ws, &mut by_update, &up, &vp, &cfg);
                prop_assert!(
                    tile_bits(&by_kernel) == tile_bits(&by_update),
                    "{} into {}: kernel {:?}, update {:?}",
                    pair, dest, by_kernel.rank(), by_update.rank()
                );
            }
        }
    }

    /// potrf reconstructs any SPD input.
    #[test]
    fn potrf_reconstructs(seed in 0u64..1000, n in 2usize..40) {
        let b = seeded_matrix(n, n, seed);
        let mut a = Matrix::identity(n);
        a.scale(n as f64);
        gemm(Trans::No, Trans::Yes, 1.0, &b, &b, 1.0, &mut a);
        let mut l = a.clone();
        potrf(&mut l).unwrap();
        l.zero_upper();
        let mut recon = Matrix::zeros(n, n);
        gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut recon);
        prop_assert!(hicma_parsec::linalg::relative_diff(&recon, &a) < 1e-11);
    }

    /// Hilbert sort always returns a permutation.
    #[test]
    fn hilbert_sort_is_permutation(seed in 0u64..1000, n in 1usize..200) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99991);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Point3> = (0..n)
            .map(|_| Point3 { x: next(), y: next(), z: next() })
            .collect();
        let mut order = hilbert_sort(&pts);
        order.sort_unstable();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Algorithm-1 invariants on random sparsity patterns:
    /// * surviving tasks never exceed the dense count,
    /// * final density ≥ initial density (fill only adds tiles),
    /// * fill count equals the growth in non-null tiles.
    #[test]
    fn analysis_invariants(seed in 0u64..2000, nt in 2usize..16, density_pct in 0usize..100) {
        let b = 64;
        let mut state = seed | 1;
        let mut ranks = vec![0usize; nt * nt];
        let mut initial_nonnull = 0usize;
        for i in 0..nt {
            ranks[i * nt + i] = b;
            for j in 0..i {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(12345);
                if ((state >> 33) as usize % 100) < density_pct {
                    ranks[i * nt + j] = 1 + ((state >> 20) as usize % 8);
                    initial_nonnull += 1;
                }
            }
        }
        let snap = RankSnapshot::new(nt, b, ranks);
        let analysis = MatrixAnalysis::analyze(&snap, b);
        prop_assert!(analysis.surviving_tasks() <= analysis.dense_tasks());
        prop_assert!(analysis.final_density() >= snap.density() - 1e-12);
        let final_nonnull = (0..nt)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .filter(|&(i, j)| analysis.final_ranks.rank(i, j) > 0)
            .count();
        prop_assert_eq!(final_nonnull, initial_nonnull + analysis.fill_count);
    }

    /// The work-stealing executor respects dependencies on arbitrary
    /// random DAGs: every task observes all its predecessors' effects.
    #[test]
    fn executor_respects_random_dags(seed in 0u64..300, n in 2usize..60, density_pct in 5usize..60) {
        use hicma_parsec::runtime::{Engine, EngineConfig};
        use hicma_parsec::runtime::graph::{GraphBuilder, TaskSpec, TaskClass};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        let mut g = GraphBuilder::new();
        for _ in 0..n {
            g.add_task(TaskSpec { class: TaskClass::Other, writes: None, bytes: 0 });
        }
        // random edges i → j only for i < j (guarantees acyclicity)
        let mut state = seed | 1;
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(97);
                if ((state >> 33) as usize % 100) < density_pct {
                    g.add_edge(i, j);
                    edges.push((i, j));
                }
            }
        }
        let g = g.finish();
        let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let violations = AtomicUsize::new(0);
        Engine::new(&g).run(&EngineConfig::new(4), |_wid, t| {
            // every predecessor must already be marked done
            for &(i, j) in &edges {
                if j == t && !done[i].load(Ordering::SeqCst) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
            }
            done[t].store(true, Ordering::SeqCst);
        }).unwrap();
        prop_assert_eq!(violations.load(Ordering::SeqCst), 0);
        prop_assert!(done.iter().all(|d| d.load(Ordering::SeqCst)));
    }

    /// Every distribution maps every lower-triangle tile to a valid dense
    /// process id: `owner(i, j) < nprocs()` over the whole triangle, for
    /// any process count and tile count.
    #[test]
    fn distribution_owners_in_range(nprocs in 1usize..64, nt in 1usize..40) {
        let layouts: [Box<dyn TileDistribution>; 4] = [
            Box::new(TwoDBlockCyclic::new(nprocs)),
            Box::new(LorapoHybrid::new(nprocs)),
            Box::new(BandDistribution::new(nprocs)),
            Box::new(DiamondDistribution::new(nprocs)),
        ];
        for dist in &layouts {
            prop_assert_eq!(dist.nprocs(), nprocs, "{}", dist.name());
            for i in 0..nt {
                for j in 0..=i {
                    let o = dist.owner(i, j);
                    prop_assert!(
                        o < nprocs,
                        "{}: owner({}, {}) = {} with nprocs = {}",
                        dist.name(), i, j, o, nprocs
                    );
                }
            }
        }
    }

    /// §VII-A critical-path locality: `BandDistribution` places the POTRF
    /// tile `(k, k)` and the first TRSM tile `(k+1, k)` on the same
    /// process for every panel `k`, at any process count.
    #[test]
    fn band_colocates_critical_path(nprocs in 1usize..64, nt in 2usize..40) {
        let d = BandDistribution::new(nprocs);
        for k in 0..nt - 1 {
            prop_assert_eq!(
                d.owner(k, k),
                d.owner(k + 1, k),
                "panel {} split across processes (nprocs = {})",
                k, nprocs
            );
        }
    }

    /// DES makespan is bounded below by the critical path and above by a
    /// full serialization, for any sparsity/plan.
    #[test]
    fn simulation_bounds(seed in 0u64..200, nt in 4usize..14) {
        let b = 256;
        let mut state = seed | 1;
        let mut ranks = vec![0usize; nt * nt];
        for i in 0..nt {
            ranks[i * nt + i] = b;
            for j in 0..i {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                if (state >> 33) % 2 == 0 {
                    ranks[i * nt + j] = 2 + ((state >> 40) as usize % 12);
                }
            }
        }
        let snap = RankSnapshot::new(nt, b, ranks);
        for plan in [DistributionPlan::Lorapo, DistributionPlan::Band, DistributionPlan::BandDiamond] {
            let cfg = SimConfig {
                machine: MachineModel::shaheen_ii(),
                nodes: 4,
                plan,
                trimmed: true,
                rank_cap: b,
                band_width: 2,
            };
            let r = simulate_cholesky(&snap, &cfg);
            prop_assert!(r.factorization_seconds >= r.critical_path_seconds - 1e-12,
                "{:?}: {} < CP {}", plan, r.factorization_seconds, r.critical_path_seconds);
        }
    }
}

/// `b × b` Gaussian-kernel block between two clusters of Halton points
/// whose bounding squares are `gap` apart: the smooth, fast-decaying
/// off-diagonal tile TLR compression is made for.
fn kernel_tile(b: usize, width: f64, gap: f64) -> Matrix {
    let halton = |mut i: usize, base: usize| {
        let (mut f, mut r) = (1.0, 0.0);
        i += 1;
        while i > 0 {
            f /= base as f64;
            r += f * (i % base) as f64;
            i /= base;
        }
        r
    };
    Matrix::from_fn(b, b, |i, j| {
        let dx = halton(i, 2) - (halton(j + 1000, 2) + 1.0 + gap);
        let dy = halton(i, 3) - halton(j + 1000, 3);
        (-(dx * dx + dy * dy) / (width * width)).exp()
    })
}

/// The `U·Vᵀ` factors of a kernel tile compressed at `eps`.
fn kernel_factors(b: usize, width: f64, gap: f64, eps: f64) -> (Matrix, Matrix) {
    match compress_tile(kernel_tile(b, width, gap), &CompressionConfig::with_accuracy(eps)) {
        Tile::LowRank { u, v } => (u, v),
        other => panic!("kernel tile must compress, got {:?}", other.format()),
    }
}

/// The core `R_u·R_vᵀ` the TLR GEMM hands to the SVD: two compressed
/// kernel tiles, factors stacked side by side, QR of each stack.
fn stacked_core(b: usize, width: f64, gap: f64) -> Matrix {
    let (u1, v1) = kernel_factors(b, width, gap, 1e-9);
    let (u2, v2) = kernel_factors(b, 1.2 * width, gap + 0.03, 1e-9);
    let stack = |x: &Matrix, y: &Matrix| {
        let mut s = Matrix::zeros(b, x.cols() + y.cols());
        s.set_submatrix(0, 0, x);
        s.set_submatrix(0, x.cols(), y);
        Qr::new(s).r()
    };
    let (ru, rv) = (stack(&u1, &u2), stack(&v1, &v2));
    let mut core = Matrix::zeros(ru.rows(), rv.rows());
    gemm(Trans::No, Trans::Yes, 1.0, &ru, &rv, 0.0, &mut core);
    core
}

/// `max |XᵀX − I|` over the leading `k` columns of `x`.
fn orthonormality_defect(x: &Matrix, k: usize) -> f64 {
    let mut worst = 0.0_f64;
    for p in 0..k {
        for q in 0..=p {
            let dot: f64 = x.col(p).iter().zip(x.col(q)).map(|(a, b)| a * b).sum();
            worst = worst.max((dot - if p == q { 1.0 } else { 0.0 }).abs());
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SVD oracle on the matrices recompression produces and on the
    /// degenerate shapes around them: singular values sorted descending,
    /// factors orthonormal on the positive σ, and a product that gives
    /// the input back within rounding.
    #[test]
    fn jacobi_svd_is_sorted_orthonormal_and_reconstructs(seed in 0u64..400, shape in 0usize..7) {
        let width = 2.0 + 0.3 * (seed % 7) as f64;
        let gap = 0.02 + 0.02 * (seed % 5) as f64;
        let core = stacked_core(64 + 8 * (seed % 4) as usize, width, gap);
        let kk = core.cols();
        let half = core.submatrix(0, 0, core.rows(), kk / 2);
        let a = match shape {
            // σ from ‖core‖ down to rounding noise
            0 => core,
            1 => half,
            2 => half.transpose(),
            // rank ≤ K/2: every column twice
            3 => Matrix::from_fn(core.rows(), 2 * (kk / 2), |i, j| half[(i, j % (kk / 2))]),
            4 => Matrix::zeros(kk, kk / 2 + 1),
            5 => Matrix::from_fn(1, 1, |_, _| (seed as f64 - 200.0) * 1e-3),
            // σ = 1, 1, 1, 1e-3, 1e-3, 1e-3, 1e-6, …
            _ => {
                let n = 12;
                let q1 = Qr::new(seeded_matrix(n, n, seed)).q_thin();
                let q2 = Qr::new(seeded_matrix(n, n, seed ^ 0xF00D)).q_thin();
                let scaled = Matrix::from_fn(n, n, |i, j| q1[(i, j)] * 1e-3f64.powi((j / 3) as i32));
                let mut m = Matrix::zeros(n, n);
                gemm(Trans::No, Trans::Yes, 1.0, &scaled, &q2, 0.0, &mut m);
                m
            }
        };
        let (m, n) = (a.rows(), a.cols());
        let k = m.min(n);

        let svd = jacobi_svd(&a);
        prop_assert_eq!((svd.u.rows(), svd.u.cols(), svd.v.rows(), svd.v.cols()), (m, k, n, k));
        prop_assert_eq!(svd.s.len(), k);
        prop_assert!(svd.s.windows(2).all(|w| w[0] >= w[1]), "not sorted: {:?}", svd.s);

        let positive = svd.s.iter().take_while(|&&s| s > 0.0).count();
        prop_assert!(orthonormality_defect(&svd.u, positive) < 1e-12);
        prop_assert!(orthonormality_defect(&svd.v, positive) < 1e-12);

        let sigma1 = svd.s.first().copied().unwrap_or(0.0);
        let rounding = 32.0 * m.max(n) as f64 * f64::EPSILON * sigma1;
        let mut diff = svd.reconstruct(k);
        diff.axpy(-1.0, &a);
        let err = hicma_parsec::linalg::frobenius_norm(&diff);
        prop_assert!(err <= rounding, "reconstruction off by {}", err);
    }

    /// The recompression contract over a sequence of updates: after each
    /// `C −= u·vᵀ` the stored tile is within `accuracy` (absolute,
    /// Frobenius) of the exact update of what was stored before — at
    /// accuracies down to 1e-12, under a rank cap, and for updates whose
    /// core is graded from `‖core‖` down to rounding noise or has every
    /// column twice (the inputs of `jacobi_svd_is_sorted_orthonormal_and_reconstructs`,
    /// handed over as `core·Pᵀ` for a cyclic column shift `P`).
    #[test]
    fn recompression_error_within_accuracy(
        seed in 0u64..300, eps_idx in 0usize..4, len in 1usize..5, input in 0usize..3,
        capped in 0usize..2,
    ) {
        let accuracy = [1e-4, 1e-6, 1e-8, 1e-12][eps_idx];
        let max_rank = [usize::MAX, 12][capped];
        let cfg = CompressionConfig { max_rank, ..CompressionConfig::with_accuracy(accuracy) };
        let b = 64;
        let core = || {
            let width = 2.0 + 0.3 * (seed % 7) as f64;
            let gap = 0.02 + 0.02 * (seed % 5) as f64;
            let core = stacked_core(b + 8 * (seed % 4) as usize, width, gap);
            if input == 1 {
                return core;
            }
            let half = core.cols() / 2;
            Matrix::from_fn(core.rows(), 2 * half, |i, j| core[(i, j % half)])
        };
        let (mut c, fixed) = match input {
            0 => (compress_tile(kernel_tile(b, 3.0, 0.05), &cfg), None),
            _ => {
                let m = core();
                (Tile::Null { rows: m.rows(), cols: m.cols() }, Some(m))
            }
        };
        let mut ws = KernelWorkspace::new();
        for step in 0..len {
            let s = seed + 31 * step as u64;
            let (up, vp) = match &fixed {
                None => {
                    let width = 2.0 + 0.4 * (s % 6) as f64;
                    let gap = 0.03 + 0.02 * (s % 4) as f64;
                    // At 1e-12 a kernel tile no longer pays off as `U·Vᵀ`.
                    kernel_factors(b, width, gap, accuracy.max(1e-9))
                }
                Some(m) => {
                    let n = m.cols();
                    let shift = Matrix::from_fn(n, n, |i, j| f64::from(u8::from(i == (j + step) % n)));
                    (m.clone(), shift)
                }
            };
            let mut exact = c.to_dense();
            gemm(Trans::No, Trans::Yes, -1.0, &up, &vp, 1.0, &mut exact);
            subtract_lowrank_ws(&mut ws, &mut c, &up, &vp, &cfg);
            let mut diff = c.to_dense();
            diff.axpy(-1.0, &exact);
            let err = hicma_parsec::linalg::frobenius_norm(&diff);
            let rounding = 1e-13 * hicma_parsec::linalg::frobenius_norm(&exact);
            prop_assert!(
                err <= accuracy + rounding,
                "step {}: error {} over accuracy {} (rank {})", step, err, accuracy, c.rank()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Geometry-certified assembly: a `KernelSource` proves tiles null from
// bounding boxes; the assembled matrix must be the one entrywise
// evaluation gives, tile for tile and bit for bit.
// ---------------------------------------------------------------------

use hicma_parsec::linalg::{frobenius_norm, TileSource};
use hicma_parsec::mesh::hilbert::apply_permutation;
use hicma_parsec::mesh::{
    kernel_source, GaussianRbf, MaternKernel, MaternNu, RadialKernel, WendlandRbf,
};
use hicma_parsec::tlr::{certifies_null, TlrMatrix};
use std::ops::Range;

/// Everything that distinguishes two tiles: format, dimensions, rank and
/// the bits of every stored factor entry.
fn tile_bits(t: &Tile) -> (usize, usize, usize, usize, Vec<u64>) {
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let (tag, payload) = match t {
        Tile::Dense(m) => (0, bits(m)),
        Tile::LowRank { u, v } => (1, [bits(u), bits(v)].concat()),
        Tile::Null { .. } => (2, Vec::new()),
    };
    (tag, t.rows(), t.cols(), t.rank(), payload)
}

fn same_tiles(what: &str, a: &TlrMatrix, b: &TlrMatrix) -> Result<(), String> {
    if (a.n(), a.tile_size(), a.nt()) != (b.n(), b.tile_size(), b.nt()) {
        return Err(format!("{what}: shapes differ"));
    }
    for i in 0..a.nt() {
        for j in 0..=i {
            if tile_bits(a.tile(i, j)) != tile_bits(b.tile(i, j)) {
                return Err(format!(
                    "{what}: tile ({i},{j}) differs: {:?} rank {} vs {:?} rank {}",
                    a.tile(i, j).format(),
                    a.tile(i, j).rank(),
                    b.tile(i, j).format(),
                    b.tile(i, j).rank()
                ));
            }
        }
    }
    Ok(())
}

/// `clusters` balls of `per` points and radius 0.02 on a diagonal of the
/// unit cube, 0.15 apart, cluster after cluster.
fn clustered_cloud(clusters: usize, per: usize, seed: u64) -> Vec<Point3> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut points = Vec::with_capacity(clusters * per);
    for c in 0..clusters {
        let center = 0.05 + 0.15 * c as f64;
        for _ in 0..per {
            let mut jitter = || 0.04 * (unit() - 0.5);
            points.push(Point3 { x: center + jitter(), y: center + jitter(), z: center + jitter() });
        }
    }
    points
}

/// The corpus of cloud shapes: (points, tile size, kernel length scale).
fn assembly_case(shape: usize, seed: u64) -> (Vec<Point3>, usize, f64) {
    match shape {
        // nt = 1
        0 => (clustered_cloud(2, 10, seed), 32, 0.01),
        // n not divisible by b: 150 = 4·32 + 22
        1 => (clustered_cloud(5, 30, seed), 32, 0.01),
        // one cluster per tile and a short kernel: all off-diagonals null
        2 => (clustered_cloud(5, 24, seed), 24, 0.004),
        // a kernel as wide as the domain: no tile is null
        3 => (clustered_cloud(4, 25, seed), 20, 3.0),
        // duplicated points, next to each other and tiles apart
        _ => {
            let mut p = clustered_cloud(5, 30, seed);
            let n = p.len();
            p[7] = p[6];
            p[40] = p[41];
            p[n - 1] = p[0];
            p[n / 2] = p[3];
            (p, 32, 0.01)
        }
    }
}

/// As generated (cluster after cluster), Hilbert-sorted, or shuffled.
fn reorder(points: Vec<Point3>, order: usize, seed: u64) -> Vec<Point3> {
    match order {
        0 => points,
        1 => apply_permutation(&points, &hilbert_sort(&points)),
        _ => {
            let mut perm: Vec<usize> = (0..points.len()).collect();
            let mut state = seed | 1;
            for i in (1..perm.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                perm.swap(i, (state >> 33) as usize % (i + 1));
            }
            apply_permutation(&points, &perm)
        }
    }
}

/// The contract of certified assembly for one kernel on one cloud.
/// Returns the number of tiles certified null.
fn check_certified_assembly<K: RadialKernel>(
    kernel: K,
    points: &[Point3],
    b: usize,
    accuracy: f64,
) -> Result<usize, String> {
    let n = points.len();
    let cfg = CompressionConfig::with_accuracy(accuracy);
    let source = kernel_source(kernel, points);
    // A plain closure: the same entries, no bounds.
    let entrywise = |i: usize, j: usize| source.entry(i, j);

    // The bound dominates the norm of every tile, diagonal ones included,
    // and the assembly certifies exactly the tiles the predicate names.
    let nt = n.div_ceil(b);
    let span = |t: usize| t * b..n.min((t + 1) * b);
    let (mut expected, mut all_entries) = (0, 0);
    for i in 0..nt {
        for j in 0..=i {
            let bound = source.norm_bound(span(i), span(j));
            let norm = frobenius_norm(&source.block(span(i), span(j)));
            if bound.is_nan() || bound < norm {
                return Err(format!("tile ({i},{j}): bound {bound:e} below norm {norm:e}"));
            }
            expected += usize::from(i != j && certifies_null(bound, accuracy));
            all_entries += span(i).len() * span(j).len();
        }
    }

    // Four assemblies, one matrix.
    let plain = TlrMatrix::from_generator(n, b, entrywise, &cfg);
    if (plain.certified_null_tiles(), plain.kernel_evaluations()) != (0, all_entries) {
        return Err("a closure must have every tile evaluated".into());
    }
    for threads in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let (certified, closure) = pool.install(|| {
            (
                TlrMatrix::from_generator(n, b, kernel_source(kernel, points), &cfg),
                TlrMatrix::from_generator(n, b, entrywise, &cfg),
            )
        });
        same_tiles(&format!("dense, {threads} threads"), &certified, &plain)?;
        same_tiles(&format!("dense closure, {threads} threads"), &closure, &plain)?;
        if certified.certified_null_tiles() != expected {
            return Err(format!(
                "{} tiles certified, the bounds name {expected}",
                certified.certified_null_tiles()
            ));
        }
    }
    Ok(expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `from_generator(kernel.generator(&pts))` is `from_generator(|i, j|
    /// kernel.matrix_entry(&pts, i, j))`, for every kernel, accuracy, cloud
    /// shape and ordering, at one pool thread and at three; and every
    /// tile's bound dominates its norm.
    #[test]
    fn certified_assembly_equals_entrywise_assembly(
        seed in 0u64..10_000, shape in 0usize..5, order in 0usize..3, eps_idx in 0usize..3,
    ) {
        let accuracy = [1e-4, 1e-6, 1e-8][eps_idx];
        let (points, b, h) = assembly_case(shape, seed);
        let points = reorder(points, order, seed);
        let results = [
            check_certified_assembly(GaussianRbf { delta: h, nugget: 1e-8 }, &points, b, accuracy),
            check_certified_assembly(WendlandRbf { radius: 3.0 * h, nugget: 1e-6 }, &points, b, accuracy),
            check_certified_assembly(MaternKernel::new(0.5 * h, MaternNu::Half), &points, b, accuracy),
            check_certified_assembly(MaternKernel::new(0.5 * h, MaternNu::ThreeHalves), &points, b, accuracy),
            check_certified_assembly(MaternKernel::new(0.5 * h, MaternNu::FiveHalves), &points, b, accuracy),
        ];
        let nt = points.len().div_ceil(b);
        for (k, result) in results.into_iter().enumerate() {
            prop_assert!(result.is_ok(), "kernel {}: {}", k, result.unwrap_err());
            let certified = result.unwrap();
            // The certificate does fire where the geometry allows it, and
            // only there.
            match (shape, order) {
                (2, 0) => prop_assert_eq!(certified, nt * (nt - 1) / 2, "kernel {}", k),
                (0, _) | (3, _) => prop_assert_eq!(certified, 0, "kernel {}", k),
                _ => {}
            }
        }
    }
}

/// A dense matrix with a norm bound of the test's choosing.
struct Bounded<'a> {
    a: &'a Matrix,
    bound: &'a (dyn Fn(f64) -> f64 + Sync),
}

impl TileSource for Bounded<'_> {
    fn entry(&self, i: usize, j: usize) -> f64 {
        self.a[(i, j)]
    }

    fn norm_bound(&self, rows: Range<usize>, cols: Range<usize>) -> f64 {
        (self.bound)(frobenius_norm(&self.block(rows, cols)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With the sharpest bound there is (the tile's own norm) and the
    /// accuracy within a few ulps of that norm, on either side, a tile is
    /// never certified — and whatever is certified, the QR's own test
    /// calls null too, so the matrix is the entrywise one.
    #[test]
    fn threshold_ties_are_left_to_the_qr(seed in 0u64..5000, ulps in 0i64..9, far_idx in 0usize..4) {
        let (n, b) = (48, 16);
        let a = seeded_matrix(n, n, seed);
        let tile = a.submatrix(b, 0, b, b);
        // The norm as compression sees it: root of the summed squared
        // column norms.
        let norm = (0..b)
            .map(|j| frobenius_norm(&tile.submatrix(0, j, b, 1)).powi(2))
            .sum::<f64>()
            .sqrt();
        let tie = f64::from_bits((norm.to_bits() as i64 + ulps - 4) as u64);
        for accuracy in [tie, norm * [1.0 - 1e-7, 1.0 + 1e-10, 1.0 + 1e-7, 2.0][far_idx]] {
            let cfg = CompressionConfig::with_accuracy(accuracy);
            let tight = Bounded { a: &a, bound: &|norm| norm };
            let certified = TlrMatrix::from_generator(n, b, tight, &cfg);
            let plain = TlrMatrix::from_generator(n, b, |i, j| a[(i, j)], &cfg);
            let same = same_tiles("tie", &certified, &plain);
            prop_assert!(same.is_ok(), "accuracy {:e}: {}", accuracy, same.unwrap_err());
            let bound = frobenius_norm(&tile);
            if certifies_null(bound, accuracy) {
                prop_assert!(compress_tile(tile.clone(), &cfg).is_null(), "accuracy {:e}", accuracy);
            }
            if accuracy == tie {
                prop_assert!(!certifies_null(bound, accuracy), "certified {} ulps off", ulps - 4);
            }
        }
        // Not vacuous: a bound comfortably below the accuracy certifies.
        prop_assert!(certifies_null(norm, norm * (1.0 + 1e-7)));
    }
}

/// Bounds that say nothing — NaN, ±∞, negative — and accuracies that
/// admit nothing never certify a tile, whatever the tile holds.
#[test]
fn meaningless_bounds_never_certify() {
    let (n, b) = (40, 8);
    let mut a = seeded_matrix(n, n, 7);
    a.scale(1e-12);
    for d in 0..n {
        a[(d, d)] = 1.0;
    }
    let cfg = CompressionConfig::with_accuracy(1e-6);
    let plain = TlrMatrix::from_generator(n, b, |i, j| a[(i, j)], &cfg);
    assert!(plain.density() == 0.0, "every off-diagonal tile is null at this accuracy");
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        assert!(!certifies_null(bad, 1e-6), "{bad}");
        let m = TlrMatrix::from_generator(n, b, Bounded { a: &a, bound: &move |_| bad }, &cfg);
        assert_eq!(m.certified_null_tiles(), 0, "bound {bad}");
        same_tiles("bad bound", &m, &plain).unwrap();
    }
    for accuracy in [f64::NAN, 0.0, -1.0] {
        assert!(!certifies_null(0.0, accuracy), "{accuracy}");
    }
    // A true bound does certify here, so the above is not vacuous.
    let m = TlrMatrix::from_generator(n, b, Bounded { a: &a, bound: &|norm| norm }, &cfg);
    assert_eq!(m.certified_null_tiles(), 10);
    same_tiles("true bound", &m, &plain).unwrap();

    // A kernel source bounds nothing when a coordinate is not finite or
    // its length scale is not positive.
    let mut points = clustered_cloud(3, 8, 5);
    let far = |k: GaussianRbf, p: &[Point3]| k.generator(p).norm_bound(16..24, 0..8);
    assert!(certifies_null(far(GaussianRbf::new(0.004), &points), 1e-6));
    for delta in [0.0, -0.004, f64::NAN] {
        let bound = far(GaussianRbf::new(delta), &points);
        assert!(!certifies_null(bound, 1e-6), "δ = {delta}: bound {bound}");
    }
    for bad in [f64::NAN, f64::INFINITY] {
        points[20].y = bad;
        let bound = far(GaussianRbf::new(0.004), &points);
        assert!(!certifies_null(bound, 1e-6), "coordinate {bad}: bound {bound}");
    }
}
