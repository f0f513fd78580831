//! Distributed-memory TLR Cholesky with real numerics.
//!
//! Runs the factorization across emulated ranks (separate address
//! spaces, tiles shipped as messages), under any
//! of the paper's data distributions, with optional execution remapping
//! (§VII-B's dissociation of ownership from execution). This is the
//! strongest validation the reproduction has: a wrong owner function, a
//! missing dataflow edge, or a remap that forgets to ship a tile breaks
//! *here*, not just in a simulator.
//!
//! All of it runs on the single distributed engine
//! ([`runtime::engine::DistEngine`]), driven through
//! [`Session::distributed`](crate::session::Session::distributed): the
//! session owns the plan → kernel-env → run → gather pipeline, and a
//! fault layer ([`FaultPlan`](runtime::fault::FaultPlan) — message loss,
//! duplication, delay jitter, rank crashes, kernel failures) composes
//! onto it with
//! [`with_fault_layer`](crate::session::Session::with_fault_layer).
//! Recovery is retransmission, dedup and task re-execution; the factor
//! is bit-identical to the fault-free run for any survivable plan.
//!
//! The data layout follows PaRSEC's on-demand shipping, collapsed to
//! setup time: each tile's initial version starts at the rank that first
//! writes it, and the final version is gathered from the rank of its
//! last writer.

use crate::dag::{CholeskyDag, TaskKind};
#[cfg(test)]
use distribution::TileDistribution;
use parking_lot::Mutex;
use runtime::engine::RankCtx;
use runtime::graph::{DataRef, TaskId};
use std::collections::HashMap;
use tlr_compress::kernels::{gemm_kernel, potrf_kernel, syrk_kernel, trsm_kernel};
use tlr_compress::{SealedTile, Tile, TlrMatrix};
use tlr_linalg::CholeskyError;

use crate::factorize::FactorConfig;

/// The symbolic skeleton of a distributed run, as the tests pin it: the
/// trimmed DAG plus the task→rank mapping the static distribution
/// produces. Production code plans through
/// [`crate::plan::SymbolicPlan`]; this shorthand serves the tests that
/// compare against the baseline mapping.
#[cfg(test)]
pub(crate) struct DistPlan {
    pub(crate) dag: CholeskyDag,
    pub(crate) exec_rank: Vec<usize>,
}

/// Plan with no overrides (the static distribution alone) — test
/// shorthand over [`crate::plan::build_plan`].
#[cfg(test)]
pub(crate) fn plan_distribution(
    matrix: &TlrMatrix,
    cfg: &FactorConfig,
    nprocs: usize,
    exec: &dyn TileDistribution,
) -> DistPlan {
    let plan = crate::plan::build_plan(
        cfg,
        &matrix.rank_snapshot(),
        Some(crate::plan::DistPlanInputs {
            nprocs,
            exec,
            ft: false,
            verify: false,
            trace: false,
            replan_slack: None,
        }),
    )
    .expect("planning a valid snapshot cannot fail");
    let exec_rank = plan
        .dist
        .as_ref()
        .expect("distributed inputs produce a distributed plan")
        .mapping
        .read()
        .exec_rank
        .clone();
    DistPlan {
        dag: plan.dag,
        exec_rank,
    }
}

/// Move the matrix tiles into per-rank initial stores according to the
/// plan's placement map — the numeric half of what used to be
/// `plan_distribution` (the symbolic half lives in [`crate::plan`]).
pub(crate) fn scatter_tiles(
    matrix: &mut TlrMatrix,
    placement: &HashMap<(usize, usize), usize>,
    nprocs: usize,
) -> Vec<HashMap<DataRef, Tile>> {
    let nt = matrix.nt();
    let mut initial: Vec<HashMap<DataRef, Tile>> = vec![HashMap::new(); nprocs];
    for i in 0..nt {
        for j in 0..=i {
            initial[placement[&(i, j)]].insert(DataRef { i, j }, matrix.take_tile(i, j));
        }
    }
    initial
}

/// Payload abstraction for the distributed pipeline: the same kernel
/// dispatch and tile gathering run on plain [`Tile`]s (no integrity
/// layer, zero extra cost) or on digest-sealed tiles
/// ([`SealedTile`], armed by [`FactorConfig::verify_integrity`] or a
/// corrupting fault plan). `from_tile` is where checksum maintenance
/// happens: sealing a freshly written tile recomputes its digest.
pub(crate) trait TilePayload: Clone {
    /// Borrow the tile contents (for kernel reads).
    fn tile(&self) -> &Tile;
    /// Unwrap the tile (for in-place kernel writes and gathering).
    fn into_tile(self) -> Tile;
    /// Wrap a freshly written tile (reseals under the integrity layer).
    fn from_tile(t: Tile) -> Self;
}

impl TilePayload for Tile {
    fn tile(&self) -> &Tile {
        self
    }
    fn into_tile(self) -> Tile {
        self
    }
    fn from_tile(t: Tile) -> Self {
        t
    }
}

impl TilePayload for SealedTile {
    fn tile(&self) -> &Tile {
        SealedTile::tile(self)
    }
    fn into_tile(self) -> Tile {
        SealedTile::into_tile(self)
    }
    fn from_tile(t: Tile) -> Self {
        SealedTile::seal(t)
    }
}

/// Kernel dispatch for distributed runs. The error slot keeps the
/// *minimum* failing pivot so concurrent failures report
/// deterministically.
pub(crate) struct KernelEnv<'a> {
    dag: &'a CholeskyDag,
    preds: &'a [Vec<(TaskId, DataRef)>],
    tile_size: usize,
    compression: tlr_compress::CompressionConfig,
    pub(crate) error: Mutex<Option<CholeskyError>>,
}

impl KernelEnv<'_> {
    fn find_producer(&self, t: TaskId, d: DataRef) -> Option<TaskId> {
        self.preds[t]
            .iter()
            .find(|(_, dd)| *dd == d)
            .map(|(p, _)| *p)
    }

    /// Record a pivot failure, keeping the earliest (smallest) pivot —
    /// with multiple ranks failing concurrently, the report must not
    /// depend on which failure message lands last.
    fn record_error(&self, e: CholeskyError) {
        let mut slot = self.error.lock();
        match &*slot {
            Some(prev) if prev.pivot <= e.pivot => {}
            _ => *slot = Some(e),
        }
    }

    pub(crate) fn run<P: TilePayload>(&self, t: TaskId, ctx: &mut RankCtx<'_, P>) -> P {
        self.run_dispatch(t, ctx, &|p| p)
    }

    /// [`run`](Self::run) for a member of a batched task: `of` maps each
    /// original producer id to the batched task the engine actually ran,
    /// which is how shipped inputs are keyed in the rank's inbox.
    pub(crate) fn run_mapped<P: TilePayload>(
        &self,
        t: TaskId,
        ctx: &mut RankCtx<'_, P>,
        of: &[TaskId],
    ) -> P {
        self.run_dispatch(t, ctx, &|p| of[p])
    }

    fn run_dispatch<P: TilePayload>(
        &self,
        t: TaskId,
        ctx: &mut RankCtx<'_, P>,
        map: &dyn Fn(TaskId) -> TaskId,
    ) -> P {
        let w = self
            .dag
            .graph
            .spec(t)
            .writes
            .expect("every Cholesky task writes its tile");
        if self.error.lock().is_some() {
            // Poisoned: keep the dataflow moving with the untouched tile.
            let cur = ctx
                .take(w)
                .or_else(|| {
                    self.find_producer(t, w)
                        .and_then(|p| ctx.take_remote(map(p), w))
                })
                .unwrap_or_else(|| P::from_tile(Tile::Null { rows: 0, cols: 0 }));
            ctx.put(w, cur.clone());
            return cur;
        }
        // The written tile's current version: local, or shipped from a
        // remote previous writer (possible when two writers of the same
        // tile were remapped differently — not the case for tile
        // Cholesky, but `take_remote` keeps the engine general).
        let mut out = ctx
            .take(w)
            .or_else(|| {
                self.find_producer(t, w)
                    .and_then(|p| ctx.take_remote(map(p), w))
            })
            .expect("written tile must be present")
            .into_tile();
        match self.dag.kinds[t] {
            TaskKind::Potrf { k } => {
                if let Err(e) = potrf_kernel(&mut out) {
                    self.record_error(CholeskyError {
                        pivot: k * self.tile_size + e.pivot,
                    });
                }
            }
            TaskKind::Trsm { k, m } => {
                let _ = m;
                let ldata = DataRef { i: k, j: k };
                let l = ctx
                    .get(self.find_producer(t, ldata).map(map), ldata)
                    .tile()
                    .clone();
                trsm_kernel(&l, &mut out);
            }
            TaskKind::Syrk { k, m } => {
                let adata = DataRef { i: m, j: k };
                let a = ctx
                    .get(self.find_producer(t, adata).map(map), adata)
                    .tile()
                    .clone();
                syrk_kernel(&a, &mut out);
            }
            TaskKind::Gemm { k, m, n } => {
                let adata = DataRef { i: m, j: k };
                let bdata = DataRef { i: n, j: k };
                let a = ctx
                    .get(self.find_producer(t, adata).map(map), adata)
                    .tile()
                    .clone();
                let b = ctx
                    .get(self.find_producer(t, bdata).map(map), bdata)
                    .tile()
                    .clone();
                gemm_kernel(&a, &b, &mut out, &self.compression);
            }
        }
        let out = P::from_tile(out);
        ctx.put(w, out.clone());
        out
    }
}

/// Put the final tile versions back into the matrix from the per-rank
/// stores, using the (possibly migrated) final task→rank assignment.
pub(crate) fn gather_tiles<P: TilePayload>(
    matrix: &mut TlrMatrix,
    last_writer: &HashMap<(usize, usize), TaskId>,
    placement: &HashMap<(usize, usize), usize>,
    final_exec: &[usize],
    stores: &[HashMap<DataRef, P>],
) {
    let nt = matrix.nt();
    for i in 0..nt {
        for j in 0..=i {
            let rank = last_writer
                .get(&(i, j))
                .map(|&t| final_exec[t])
                .unwrap_or(placement[&(i, j)]);
            let tile = stores[rank]
                .get(&DataRef { i, j })
                .cloned()
                // A tile no task writes (e.g. a null tile the trimmed DAG
                // never touches) lives at its placement rank — unless that
                // rank crashed, in which case the runtime migrated its
                // checkpointed data to a survivor. The value never changed,
                // so any surviving copy is the right one.
                .or_else(|| {
                    stores
                        .iter()
                        .find_map(|s| s.get(&DataRef { i, j }).cloned())
                })
                .expect("final tile must exist in some surviving store");
            matrix.put_tile(i, j, tile.into_tile());
        }
    }
}

pub(crate) fn kernel_env<'a>(
    dag: &'a CholeskyDag,
    preds: &'a [Vec<(TaskId, DataRef)>],
    cfg: &FactorConfig,
    tile_size: usize,
) -> KernelEnv<'a> {
    KernelEnv {
        dag,
        preds,
        tile_size,
        // The configured compression policy, keep_dense_ratio included —
        // this used to pin the ratio to 1.0 regardless of the config.
        compression: cfg.compression(),
        error: Mutex::new(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::factorize;
    use crate::session::{RunError, Session};
    use distribution::{BandDistribution, DiamondDistribution, LorapoHybrid, TwoDBlockCyclic};
    use runtime::engine::EngineError;
    use runtime::fault::{FaultPlan, FtConfig, FtError};
    use tlr_compress::CompressionConfig;
    use tlr_linalg::norms::relative_diff;
    use tlr_linalg::Matrix;

    fn gaussian_dense(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64) / (n as f64 / 8.0);
            let v = (-d * d).exp();
            if i == j {
                v + 1e-3
            } else {
                v
            }
        })
    }

    fn check_against_shared(nprocs: usize, dist: &dyn TileDistribution) {
        let n = 120;
        let b = 24;
        let acc = 1e-8;
        let dense = gaussian_dense(n);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let mut shared = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut distr = TlrMatrix::from_dense(&dense, b, &ccfg);
        let fcfg = FactorConfig::with_accuracy(acc);
        factorize(&mut shared, &fcfg).unwrap();
        let out = Session::distributed(fcfg, nprocs, dist)
            .run(&mut distr)
            .unwrap();
        assert!(
            out.comm.is_some(),
            "distributed runs always count communication"
        );
        assert!(out.faults.is_none(), "no fault layer was configured");
        let ls = shared.to_dense_lower();
        let ld = distr.to_dense_lower();
        assert!(
            relative_diff(&ld, &ls) < 1e-12,
            "distributed result must equal shared-memory ({})",
            dist.name()
        );
    }

    #[test]
    fn matches_shared_memory_2dbc() {
        check_against_shared(4, &TwoDBlockCyclic::new(4));
    }

    #[test]
    fn matches_shared_memory_lorapo() {
        check_against_shared(3, &LorapoHybrid::new(3));
    }

    #[test]
    fn matches_shared_memory_band() {
        check_against_shared(6, &BandDistribution::new(6));
    }

    #[test]
    fn matches_shared_memory_diamond_remap() {
        // Execution fully remapped onto the diamond grid — data still
        // travels correctly.
        check_against_shared(6, &DiamondDistribution::new(6));
    }

    #[test]
    fn single_rank_degenerates_to_serial() {
        check_against_shared(1, &TwoDBlockCyclic::new(1));
    }

    /// The counted engine reports real communication: zero on one rank
    /// (everything is local), nonzero across ranks, and every message
    /// carries payload bytes.
    #[test]
    fn counted_comm_volume_tracks_distribution() {
        let n = 120;
        let b = 24;
        let acc = 1e-8;
        let dense = gaussian_dense(n);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let fcfg = FactorConfig::with_accuracy(acc);

        let mut local = TlrMatrix::from_dense(&dense, b, &ccfg);
        let one = TwoDBlockCyclic::new(1);
        let comm1 = Session::distributed(fcfg, 1, &one)
            .run(&mut local)
            .unwrap()
            .comm
            .unwrap();
        assert_eq!(comm1.messages, 0, "single rank must not communicate");
        assert_eq!(comm1.bytes, 0);

        let mut distr = TlrMatrix::from_dense(&dense, b, &ccfg);
        let four = TwoDBlockCyclic::new(4);
        let comm4 = Session::distributed(fcfg, 4, &four)
            .run(&mut distr)
            .unwrap()
            .comm
            .unwrap();
        assert!(comm4.messages > 0, "4 ranks must exchange tiles");
        assert!(
            comm4.bytes >= 8 * comm4.messages,
            "each message carries ≥ one f64"
        );
    }

    /// The configured `keep_dense_ratio` reaches the distributed update
    /// kernels (it used to be silently pinned to `1.0`): a ratio of `0.0`
    /// densifies every recompressed tile, growing the stored factor,
    /// while leaving the numbers correct.
    #[test]
    fn keep_dense_ratio_threads_through_distributed_kernels() {
        let n = 120;
        let b = 24;
        let acc = 1e-8;
        let dense = gaussian_dense(n);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let dist = TwoDBlockCyclic::new(4);

        let mut lr = TlrMatrix::from_dense(&dense, b, &ccfg);
        let fcfg = FactorConfig::with_accuracy(acc);
        let out_lr = Session::distributed(fcfg, 4, &dist).run(&mut lr).unwrap();

        let mut dense_m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut fcfg0 = FactorConfig::with_accuracy(acc);
        fcfg0.keep_dense_ratio = 0.0;
        let out_dense = Session::distributed(fcfg0, 4, &dist)
            .run(&mut dense_m)
            .unwrap();

        assert!(
            out_dense.report.memory_after_f64 > out_lr.report.memory_after_f64,
            "ratio 0.0 must densify recompressed tiles ({} vs {} words)",
            out_dense.report.memory_after_f64,
            out_lr.report.memory_after_f64
        );
        // Densified storage holds the same numbers (exact UVᵀ product),
        // so the factors agree far below the compression accuracy.
        let diff = relative_diff(&dense_m.to_dense_lower(), &lr.to_dense_lower());
        assert!(diff < 100.0 * acc, "factor drifted: {diff}");
    }

    #[test]
    fn spd_failure_propagates() {
        let n = 64;
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i == 40 {
                    -3.0
                } else {
                    2.0
                }
            } else {
                0.01 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let mut m = TlrMatrix::from_dense(&dense, 16, &ccfg);
        let dist = TwoDBlockCyclic::new(4);
        let err = Session::distributed(FactorConfig::with_accuracy(1e-8), 4, &dist)
            .run(&mut m)
            .unwrap_err();
        let RunError::Numeric(e) = err else {
            panic!("expected a numeric error, got {err}")
        };
        assert!(e.pivot <= 56, "pivot {}", e.pivot);
    }

    // ---------------- fault-tolerant engine ----------------

    fn check_ft_against_shared(nprocs: usize, dist: &dyn TileDistribution, ft: &FtConfig) {
        let n = 120;
        let b = 24;
        let acc = 1e-8;
        let dense = gaussian_dense(n);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let mut shared = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut distr = TlrMatrix::from_dense(&dense, b, &ccfg);
        let fcfg = FactorConfig::with_accuracy(acc);
        factorize(&mut shared, &fcfg).unwrap();
        let out = Session::distributed(fcfg, nprocs, dist)
            .with_fault_layer(ft)
            .run(&mut distr)
            .unwrap();
        assert!(out.faults.is_some(), "fault layer was configured");
        assert!(
            out.comm.is_some(),
            "comm counting composes with the fault layer"
        );
        let diff = relative_diff(&distr.to_dense_lower(), &shared.to_dense_lower());
        assert!(
            diff == 0.0,
            "fault-tolerant factor must be bit-identical to shared memory \
             ({}, diff {diff})",
            dist.name()
        );
    }

    #[test]
    fn ft_fault_free_matches_shared_memory() {
        check_ft_against_shared(4, &TwoDBlockCyclic::new(4), &FtConfig::fault_free());
    }

    #[test]
    fn ft_lossy_network_matches_shared_memory() {
        let plan = FaultPlan::new(21)
            .with_drops(0.2)
            .with_duplicates(0.2)
            .with_jitter(1.0);
        check_ft_against_shared(4, &TwoDBlockCyclic::new(4), &FtConfig::with_plan(plan));
    }

    #[test]
    fn ft_crash_matches_shared_memory_on_remap() {
        let plan = FaultPlan::new(3).with_drops(0.1).with_crash(1, 15.0);
        check_ft_against_shared(6, &DiamondDistribution::new(6), &FtConfig::with_plan(plan));
    }

    #[test]
    fn ft_spd_failure_propagates() {
        let n = 64;
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i == 40 {
                    -3.0
                } else {
                    2.0
                }
            } else {
                0.01 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let mut m = TlrMatrix::from_dense(&dense, 16, &ccfg);
        let dist = TwoDBlockCyclic::new(4);
        let ft = FtConfig::fault_free();
        let err = Session::distributed(FactorConfig::with_accuracy(1e-8), 4, &dist)
            .with_fault_layer(&ft)
            .run(&mut m)
            .unwrap_err();
        match err {
            RunError::Numeric(e) => assert!(e.pivot <= 56, "pivot {}", e.pivot),
            other => panic!("expected a numeric error, got {other}"),
        }
    }

    #[test]
    fn ft_unsurvivable_plan_reports_runtime_error() {
        let n = 96;
        let dense = gaussian_dense(n);
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let mut m = TlrMatrix::from_dense(&dense, 24, &ccfg);
        let plan = FaultPlan::new(0).with_crash(0, 1.0).with_crash(1, 2.0);
        let dist = TwoDBlockCyclic::new(2);
        let ft = FtConfig::with_plan(plan);
        let err = Session::distributed(FactorConfig::with_accuracy(1e-8), 2, &dist)
            .with_fault_layer(&ft)
            .run(&mut m)
            .unwrap_err();
        assert_eq!(
            err,
            RunError::Engine(EngineError::Fault(FtError::AllRanksCrashed))
        );
    }
}
