//! Shared-memory TLR Cholesky with real numerics.
//!
//! This is the validation path of the reproduction: the same task graph
//! the distributed simulator prices is executed for real by the
//! work-stealing executor, calling the HiCMA-style tile kernels on a
//! [`TlrMatrix`]. Running trimmed and untrimmed graphs must produce the
//! same factor (trimming only removes numeric no-ops), which the tests
//! check — that is the correctness argument for §VI.

use crate::session::{RunError, Session};
use runtime::engine::EngineError;
use runtime::trace::ClassBreakdown;
use tlr_compress::{CompressionConfig, RankSnapshot, TlrMatrix};
use tlr_linalg::CholeskyError;

/// How many times a POTRF whose pivot fails retries its panel on the
/// diagonal tile plus `εI`, `ε` escalating ×10 (a rounding-level
/// regularization for borderline matrices, applied to the failing panel
/// alone; see [`factorize`]). A strongly indefinite matrix fails
/// regardless because the shifts stay near the working accuracy.
pub const SHIFT_RETRIES: usize = 3;

/// Options of the shared-memory factorization.
#[derive(Debug, Clone, Copy)]
pub struct FactorConfig {
    /// Recompression accuracy used inside the GEMM kernels (normally the
    /// same threshold the matrix was compressed with).
    pub accuracy: f64,
    /// Rank cap (HiCMA `maxrank`).
    pub max_rank: usize,
    /// Run with the Algorithm-1-trimmed DAG.
    pub trimmed: bool,
    /// Worker threads for the executor.
    ///
    /// Oversubscription rule: the tile kernels run *serial* BLAS, so total
    /// concurrency is `nthreads` — never executor threads × pool threads.
    /// The rayon pool only serves the pre-factorization phases (assembly,
    /// compression, top-level dense BLAS), which is why the default tracks
    /// the same `RAYON_NUM_THREADS`/`available_parallelism` resolution as
    /// the pool: both layers see one consistent hardware budget.
    pub nthreads: usize,
    /// Collect a per-task execution trace into
    /// [`RunOutcome::trace`](crate::session::RunOutcome::trace)
    /// (wall-clock on shared-memory runs, virtual time on distributed
    /// ones). Tracing never changes the factor. Defaults to `false`: an
    /// untraced run allocates no span storage at all.
    pub collect_trace: bool,
    /// Tile-integrity policy: whether (and how eagerly) every tile is
    /// sealed with an exact content digest ([`tlr_compress::TileDigest`])
    /// and checked against silent data corruption. See
    /// [`IntegrityMode`] for the cost/coverage ladder. Defaults to
    /// [`IntegrityMode::Off`] (zero overhead); a distributed fault plan
    /// that injects corruption arms the layer automatically.
    pub integrity: IntegrityMode,
}

/// How much silent-data-corruption protection a factorization buys.
///
/// The ladder trades detection latency for hot-path cost:
///
/// * [`Off`](IntegrityMode::Off) — no checksums, zero overhead.
/// * [`Maintain`](IntegrityMode::Maintain) — the classical ABFT shape:
///   every tile is sealed at load, resealed at its *finalizing* write
///   (the POTRF or TRSM that produces its factor value — intermediate
///   GEMM/SYRK versions are never digest-checked by this mode, so
///   resealing them would buy zero detection), and the whole factor is
///   verified once before it is returned. One digest per factor tile,
///   ≤5 % on the factorize hot path — gated by the `integrity_overhead`
///   bench. Any at-rest bit flip between a tile's finalizing write and
///   the end of the run is caught; a corrupted factor can never be
///   returned silently.
/// * [`VerifyReads`](IntegrityMode::VerifyReads) — reseal after *every*
///   kernel write and verify each tile version at its first read
///   boundary, catching a flip before it propagates into downstream
///   kernels and localizing it to the producing task. Costs roughly two
///   digests per task.
///
/// On distributed runs any mode other than `Off` seals the message and
/// store payloads ([`tlr_compress::SealedTile`]), where the engine
/// verifies at every read boundary and heals from lineage — the
/// shared-memory ladder above only governs the work-stealing path,
/// which has no lineage store to heal from and instead surfaces a
/// typed integrity error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No integrity checking (zero overhead).
    #[default]
    Off,
    /// Seal on load, reseal at each tile's finalizing write, verify the
    /// factor once at the end.
    Maintain,
    /// `Maintain` plus verification of each tile version at its first
    /// read boundary.
    VerifyReads,
}

impl FactorConfig {
    /// Sensible defaults at the given accuracy.
    ///
    /// `nthreads` defaults to the machine's available parallelism (as seen
    /// by the rayon pool, so `RAYON_NUM_THREADS` caps it too) — it is *not*
    /// a hardcoded constant, which used to leave large machines mostly
    /// idle and oversubscribe small ones.
    pub fn with_accuracy(accuracy: f64) -> Self {
        Self {
            accuracy,
            max_rank: usize::MAX,
            trimmed: true,
            nthreads: rayon::current_num_threads(),
            collect_trace: false,
            integrity: IntegrityMode::Off,
        }
    }

    /// The [`CompressionConfig`] the update kernels recompress with:
    /// this config's accuracy and rank cap.
    pub fn compression(&self) -> CompressionConfig {
        CompressionConfig {
            accuracy: self.accuracy,
            max_rank: self.max_rank,
        }
    }
}

/// What happened during a factorization.
#[derive(Debug, Clone)]
pub struct FactorReport {
    /// Wall-clock seconds of the task execution phase.
    pub factorization_seconds: f64,
    /// Wall-clock seconds of the Algorithm-1 analysis + DAG build.
    pub analysis_seconds: f64,
    /// Tasks in the planned (Algorithm-1 trimmed) DAG. On a shared run
    /// the registry splits them into `tasks_executed` and `tasks_elided`.
    pub dag_tasks: usize,
    /// Tasks of the equivalent untrimmed (dense) DAG.
    pub dense_dag_tasks: usize,
    /// Rank snapshot after the factorization (the "final" panel of Fig. 1).
    pub final_snapshot: RankSnapshot,
    /// TLR storage before the factorization, in f64 words.
    pub memory_before_f64: usize,
    /// TLR storage after the factorization (fill-in growth), f64 words.
    pub memory_after_f64: usize,
    /// Busy seconds per kernel class (wall-clock, summed over workers):
    /// the run registry's per-class duration sums, i.e. the engine's own
    /// start/end reading of every task.
    pub breakdown: ClassBreakdown,
    /// The largest per-panel shift `ε_k` in
    /// [`panel_shifts`](FactorReport::panel_shifts) (`0.0` when the matrix
    /// factored without regularization).
    pub diagonal_shift: f64,
    /// Shifted retries summed over every panel (`0` = every POTRF
    /// succeeded on its first try).
    pub shift_attempts: usize,
    /// Every panel whose POTRF needed a shift, in panel order. The factor
    /// is that of `A + Σ_k ε_k·I_k`, `I_k` the identity on panel `k`'s
    /// rows: with tile size `b`, add `shift` to the diagonal entries
    /// `panel·b .. (panel + 1)·b` of the input to rebuild the operator
    /// that was factored.
    pub panel_shifts: Vec<PanelShift>,
}

/// One panel whose POTRF needed a diagonal shift to factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanelShift {
    /// The panel `k`: its diagonal tile `(k, k)` was shifted.
    pub panel: usize,
    /// The `ε_k` added to every diagonal entry of tile `(k, k)`.
    pub shift: f64,
    /// Shifted retries the panel's POTRF ran, the one that succeeded
    /// included.
    pub attempts: usize,
}

/// Factor `matrix = L·Lᵀ` in place (lower tiles become `L`).
///
/// On success the diagonal tiles hold lower-triangular Cholesky factors
/// and the off-diagonal tiles the corresponding solved panels, all still
/// in TLR format.
///
/// When a POTRF's pivot fails, that task restores its diagonal tile from
/// a copy it kept, adds `εI` and factors again, up to [`SHIFT_RETRIES`]
/// (3) times, `ε` escalating ×10 from `mean|diag(A)| ·
/// max(accuracy, 1e-12)` — a rounding-level regularization that rescues
/// borderline matrices (e.g. SPD operators pushed slightly indefinite by
/// compression error) while leaving truly indefinite ones to fail. The
/// shift stays on the failing panel: the result factors `A + Σ_k
/// ε_k·I_k`, each `ε_k` a function of panel `k`'s own tile, and
/// [`FactorReport::panel_shifts`] names every shifted panel. If every
/// retry of a panel fails, the error reports the *smallest* failing pivot
/// seen and the matrix holds the partial factor. No copy of the matrix is
/// made.
/// This is a one-call wrapper over [`Session::shared`] — the pipeline and
/// the one task body live in [`crate::session`], shared with the
/// distributed paths. Kernel panics are drained by the engine and
/// re-raised here once every worker has stopped.
pub fn factorize(
    matrix: &mut TlrMatrix,
    cfg: &FactorConfig,
) -> Result<FactorReport, CholeskyError> {
    match Session::shared(*cfg).run(matrix) {
        Ok(out) => Ok(out.report),
        Err(RunError::Numeric(e)) => Err(e),
        Err(RunError::Engine(EngineError::Panic(p))) => {
            // A kernel died (not a pivot failure — those cancel cleanly).
            // The pool has drained, locks are released; re-raise with
            // context, as this entry point always has.
            panic!("factorization kernel panicked: {p}")
        }
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_linalg::norms::relative_diff;
    use tlr_linalg::{gemm, Matrix, Trans};

    /// Gaussian-kernel SPD generator on a 1D grid (RBF-like structure).
    fn gaussian_gen(n: usize, corr: f64) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64) / (n as f64 / corr);
            let v = (-d * d).exp();
            if i == j {
                v + 1e-3
            } else {
                v
            }
        }
    }

    fn check_factorization(n: usize, b: usize, acc: f64, corr: f64, trimmed: bool) -> RankSnapshot {
        let gen = gaussian_gen(n, corr);
        let dense = Matrix::from_fn(n, n, &gen);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let mut m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut fcfg = FactorConfig::with_accuracy(acc);
        fcfg.trimmed = trimmed;
        let report = factorize(&mut m, &fcfg).expect("SPD matrix must factor");
        assert!(report.dag_tasks <= report.dense_dag_tasks);
        // ‖A − L·Lᵀ‖/‖A‖ small
        let l = m.to_dense_lower();
        let mut recon = Matrix::zeros(n, n);
        gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut recon);
        let err = relative_diff(&recon, &dense);
        let tol = acc * (m.nt() * m.nt()) as f64 / tlr_linalg::frobenius_norm(&dense);
        assert!(
            err <= tol.max(1e-11) * 20.0,
            "residual {err} too large (tol {tol}, trimmed={trimmed})"
        );
        report.final_snapshot
    }

    #[test]
    fn factorizes_trimmed_moderate_accuracy() {
        check_factorization(128, 32, 1e-6, 8.0, true);
    }

    #[test]
    fn factorizes_untrimmed_matches_trimmed() {
        let snap_t = check_factorization(96, 24, 1e-7, 6.0, true);
        let snap_u = check_factorization(96, 24, 1e-7, 6.0, false);
        // same final structure
        assert_eq!(snap_t.nt(), snap_u.nt());
        for i in 0..snap_t.nt() {
            for j in 0..i {
                assert_eq!(
                    snap_t.rank(i, j) == 0,
                    snap_u.rank(i, j) == 0,
                    "structure mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn sparse_case_trims_hard() {
        // short correlation ⇒ most tiles null ⇒ trimmed DAG much smaller
        let n = 160;
        let b = 16;
        let gen = gaussian_gen(n, 40.0);
        let ccfg = CompressionConfig::with_accuracy(1e-5);
        let mut m = TlrMatrix::from_generator(n, b, gen, &ccfg);
        assert!(
            m.density() < 0.6,
            "test premise: sparse, got {}",
            m.density()
        );
        let report = factorize(&mut m, &FactorConfig::with_accuracy(1e-5)).unwrap();
        assert!(
            (report.dag_tasks as f64) < 0.7 * report.dense_dag_tasks as f64,
            "{} vs {}",
            report.dag_tasks,
            report.dense_dag_tasks
        );
    }

    #[test]
    fn tighter_accuracy_higher_ranks() {
        let s_loose = check_factorization(96, 24, 1e-3, 6.0, true);
        let s_tight = check_factorization(96, 24, 1e-9, 6.0, true);
        assert!(s_tight.stats().avg_nonzero >= s_loose.stats().avg_nonzero);
    }

    #[test]
    fn non_spd_rejected() {
        let n = 64;
        // indefinite: strong negative diagonal block
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i == 40 {
                    -5.0
                } else {
                    2.0
                }
            } else {
                0.01 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let mut m = TlrMatrix::from_dense(&dense, 16, &ccfg);
        let err = factorize(&mut m, &FactorConfig::with_accuracy(1e-8)).unwrap_err();
        // pivot is reported in global coordinates
        assert!(err.pivot <= 40 + 16, "pivot {}", err.pivot);
    }

    /// `dense` plus every panel shift of `report`: the operator the
    /// factor is a Cholesky of.
    fn shifted_operator(dense: &Matrix, report: &FactorReport, b: usize) -> Matrix {
        let mut target = dense.clone();
        for p in &report.panel_shifts {
            for d in p.panel * b..((p.panel + 1) * b).min(dense.rows()) {
                target[(d, d)] += p.shift;
            }
        }
        target
    }

    /// A matrix that is SPD except for a perturbation near the working
    /// accuracy must be rescued by the per-panel diagonal-shift retry,
    /// and the rescue must be visible in the report: which panels were
    /// shifted, by how much, and the factor a Cholesky of exactly that
    /// shifted operator.
    #[test]
    fn borderline_indefinite_recovers_with_diagonal_shift() {
        let n = 96;
        let gen = gaussian_gen(n, 6.0);
        // `gen` adds 1e-3 to the diagonal of a PSD Gaussian kernel whose
        // smallest eigenvalue is ~0 at rounding scale; cancelling the bump
        // and 1e-7 more leaves λ_min ≈ −1e-7: barely indefinite.
        let dense = Matrix::from_fn(n, n, |i, j| {
            gen(i, j) - if i == j { 1e-3 + 1e-7 } else { 0.0 }
        });
        let ccfg = CompressionConfig::with_accuracy(1e-8);

        // Premise: the operator is indefinite, its dense Cholesky fails.
        tlr_linalg::potrf(&mut dense.clone()).expect_err("test premise: matrix is indefinite");

        // The shift retry rescues it, and every shift is reported.
        let mut m = TlrMatrix::from_dense(&dense, 24, &ccfg);
        let report = factorize(&mut m, &FactorConfig::with_accuracy(1e-8))
            .expect("shift retry must rescue the matrix");
        let shifts = &report.panel_shifts;
        assert!(!shifts.is_empty(), "recovery must have shifted a panel");
        assert!(shifts.windows(2).all(|w| w[0].panel < w[1].panel), "{shifts:?}");
        for p in shifts {
            assert!(p.panel < m.nt() && (1..=SHIFT_RETRIES).contains(&p.attempts), "{p:?}");
            assert!(
                p.shift > 0.0 && p.shift <= 1e-3,
                "shift {} should be a rounding-scale regularization",
                p.shift
            );
        }
        let largest = shifts.iter().map(|p| p.shift).fold(0.0, f64::max);
        assert_eq!(report.diagonal_shift, largest);
        assert_eq!(report.shift_attempts, shifts.iter().map(|p| p.attempts).sum::<usize>());
        // The factor is a Cholesky of `A + Σ ε_k·I_k`.
        let l = m.to_dense_lower();
        let mut recon = Matrix::zeros(n, n);
        gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut recon);
        let err = relative_diff(&recon, &shifted_operator(&dense, &report, 24));
        assert!(err < 1e-5, "shifted reconstruction error {err}");
    }

    /// A hopelessly indefinite matrix still fails after the bounded
    /// retries of its failing panel, with the typed error at the
    /// smallest failing pivot: the one an unshifted Cholesky reports.
    #[test]
    fn strongly_indefinite_fails_despite_retries() {
        let n = 64;
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i == 40 {
                    -5.0
                } else {
                    2.0
                }
            } else {
                0.01 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let bare = tlr_linalg::potrf(&mut dense.clone()).unwrap_err();
        // The leading 40 × 40 block is diagonally dominant: row 40 is the
        // first pivot to fail.
        assert_eq!(bare.pivot, 40);
        let cfg = FactorConfig::with_accuracy(1e-8);
        let err = factorize(&mut TlrMatrix::from_dense(&dense, 16, &ccfg), &cfg).unwrap_err();
        assert_eq!(err, bare, "the retries must not move the reported pivot");
    }

    #[test]
    fn multithreaded_matches_single_thread() {
        let n = 96;
        let b = 24;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let dense = Matrix::from_fn(n, n, &gen);
        let mut m1 = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut m8 = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut cfg = FactorConfig::with_accuracy(1e-8);
        cfg.nthreads = 1;
        factorize(&mut m1, &cfg).unwrap();
        cfg.nthreads = 8;
        factorize(&mut m8, &cfg).unwrap();
        // The DAG fixes the per-tile kernel order and every kernel is
        // deterministic, so the factors must agree *bitwise* — not just to
        // rounding. Any nondeterministic reduction order would show here.
        let l1 = m1.to_dense_lower();
        let l8 = m8.to_dense_lower();
        assert_eq!(
            l1.as_slice(),
            l8.as_slice(),
            "factor differs across thread counts"
        );
    }

    #[test]
    fn breakdown_is_populated() {
        let n = 96;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(1e-6);
        let mut m = TlrMatrix::from_generator(n, 24, gen, &ccfg);
        let report = factorize(&mut m, &FactorConfig::with_accuracy(1e-6)).unwrap();
        assert!(report.breakdown.potrf > 0.0);
        assert!(report.breakdown.total() > 0.0);
        assert!(report.factorization_seconds > 0.0);
    }
}
