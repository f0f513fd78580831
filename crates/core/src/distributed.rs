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
//! session owns the plan → scatter → run → gather pipeline, and a
//! fault layer ([`FaultPlan`](runtime::fault::FaultPlan) — message loss,
//! duplication, delay jitter, rank crashes, kernel failures) composes
//! onto it with
//! [`with_fault_layer`](crate::session::Session::with_fault_layer).
//! Recovery is retransmission, dedup and task re-execution; the factor
//! is bit-identical to the fault-free run for any survivable plan.
//!
//! What a task computes is not decided here: every rank runs the
//! session's one task body, the same one the shared engine runs (kernel
//! dispatch, the diagonal shift, the pivot slot and the cancel flag).
//! This module only lends it a rank's tiles (`rank_task`) and moves
//! the tiles between the matrix and the rank stores.
//!
//! The data layout follows PaRSEC's on-demand shipping, collapsed to
//! setup time: each tile starts at its layout owner, where every task
//! that writes it runs, so its final version is still there at the end
//! (a crash hands the dead rank's whole store to one survivor, which
//! keeps each tile in exactly one store). A tile is *moved* at each of
//! those steps — matrix → rank store → matrix — and copied only onto the
//! wire, as its writer's output, once per consumer on another rank.

use crate::dag::{lower, TaskKind};
use crate::session::{with_reads, TaskBody};
use runtime::engine::RankCtx;
use runtime::graph::{DataRef, TaskId};
use std::collections::HashMap;
use tlr_compress::{SealedTile, Tile, TlrMatrix};

/// Move the matrix tiles into per-rank initial stores: each tile to its
/// owner in the plan's packed-lower owner map.
pub(crate) fn scatter_tiles<P: TilePayload>(
    matrix: &mut TlrMatrix,
    owner: &[usize],
    nprocs: usize,
) -> Vec<HashMap<DataRef, P>> {
    let mut initial: Vec<HashMap<DataRef, P>> = (0..nprocs).map(|_| HashMap::new()).collect();
    for i in 0..matrix.nt() {
        for j in 0..=i {
            let tile = P::from_tile(matrix.take_tile(i, j));
            initial[owner[lower(i, j)]].insert(DataRef { i, j }, tile);
        }
    }
    initial
}

/// Payload abstraction for the distributed pipeline: the same task body
/// runs on plain [`Tile`]s (no integrity layer, zero extra cost) or on
/// digest-sealed tiles ([`SealedTile`], armed by
/// [`FactorConfig::integrity`](crate::factorize::FactorConfig::integrity)
/// or a corrupting fault plan). `from_tile` is where checksum maintenance
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

/// Run task `t` of `body` on `ctx`'s rank: take the tile it writes out of
/// the rank's store, lend it and the task's reads (from the store or the
/// inbox) to the body, and put the new version back. A cancelled run puts
/// the tile back untouched, which keeps the dataflow moving.
pub(crate) fn rank_task<P: TilePayload>(body: &TaskBody<'_>, t: TaskId, ctx: &mut RankCtx<'_, P>) {
    let kind = body.space.kind(t);
    let ops = kind.operands();
    // Every read is a tile of the task's panel `k` in its final version,
    // and shipped inputs are keyed in the inbox by the task that produced
    // them: (k, k) by POTRF(k), (m, k) by TRSM(k, m).
    let producer = |d: DataRef| {
        let (k, m) = (d.j, d.i);
        let kind = if m == k { TaskKind::Potrf { k } } else { TaskKind::Trsm { k, m } };
        Some(body.space.id(kind))
    };
    // A task runs on the rank of the tile it writes, and a crash migrates
    // a dead rank's tasks as one block, so every writer of a tile runs on
    // one rank and finds its previous version local.
    let cur = ctx
        .take(ops.writes)
        .expect("every writer of a tile runs on one rank: its previous version is local");
    if body.cancelled() {
        ctx.put(ops.writes, cur);
        return;
    }
    let mut out = cur.into_tile();
    with_reads(
        ops.reads(),
        |d| ctx.get(producer(d), d).tile(),
        |reads| body.run(ctx.rank(), kind, &mut out, reads),
    );
    ctx.put(ops.writes, P::from_tile(out));
}

/// Move the final tile versions out of the per-rank stores back into the
/// matrix. Each tile sits in exactly one store (see the module docs), so
/// draining them all places every tile once.
pub(crate) fn gather_tiles<P: TilePayload>(
    matrix: &mut TlrMatrix,
    stores: &mut [HashMap<DataRef, P>],
) {
    let nt = matrix.nt();
    let mut placed = 0;
    for (d, tile) in stores.iter_mut().flat_map(HashMap::drain) {
        matrix.put_tile(d.i, d.j, tile.into_tile());
        placed += 1;
    }
    assert_eq!(placed, nt * (nt + 1) / 2, "every tile sits in exactly one store");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::{factorize, FactorConfig};
    use crate::session::{RunError, Session};
    use distribution::TileDistribution;
    use distribution::{BandDistribution, DiamondDistribution, LorapoHybrid, TwoDBlockCyclic};
    use runtime::engine::EngineError;
    use runtime::fault::{FaultPlan, FtError};
    use runtime::obs::registry::Counter;
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
        let reg = out.registry.expect("every run reports its registry");
        assert!(
            Counter::FAULTS.iter().all(|&c| reg.counter(c) == 0),
            "no fault layer was configured"
        );
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

    fn check_ft_against_shared(nprocs: usize, dist: &dyn TileDistribution, ft: &FaultPlan) {
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
        check_ft_against_shared(4, &TwoDBlockCyclic::new(4), &FaultPlan::none());
    }

    #[test]
    fn ft_lossy_network_matches_shared_memory() {
        let plan = FaultPlan::new(21)
            .with_drops(0.2)
            .with_duplicates(0.2)
            .with_jitter(1.0);
        check_ft_against_shared(4, &TwoDBlockCyclic::new(4), &plan);
    }

    #[test]
    fn ft_crash_matches_shared_memory_on_remap() {
        let plan = FaultPlan::new(3).with_drops(0.1).with_crash(1, 15.0);
        check_ft_against_shared(6, &DiamondDistribution::new(6), &plan);
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
        let ft = FaultPlan::none();
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
        let err = Session::distributed(FactorConfig::with_accuracy(1e-8), 2, &dist)
            .with_fault_layer(&plan)
            .run(&mut m)
            .unwrap_err();
        assert_eq!(
            err,
            RunError::Engine(EngineError::Fault(FtError::AllRanksCrashed))
        );
    }
}
