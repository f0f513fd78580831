//! Tile Cholesky task-graph construction, with and without DAG trimming.
//!
//! The builder unrolls the classic right-looking tile Cholesky PTG:
//!
//! ```text
//! for k in 0..NT:
//!     POTRF(k)                     on (k,k)
//!     for m in k+1..NT:  TRSM(k,m) on (m,k)   ← bcast of (k,k)
//!     for m in k+1..NT:  SYRK(k,m) on (m,m)   ← (m,k)
//!     for n in k+1..NT, m in n+1..NT:
//!                        GEMM(k,m,n) on (m,n) ← (m,k), (n,k)
//! ```
//!
//! With `trimmed = false` every task of the dense execution space is
//! materialized (tasks on null tiles become numeric no-ops but still cost
//! runtime overhead and dependency activations — the situation the paper's
//! §VI fixes). With `trimmed = true` the execution space of TRSM, SYRK
//! and GEMM is reduced according to [`MatrixAnalysis`] (Algorithm 1), so
//! tasks and dependencies touching never-non-null tiles are simply never
//! created.
//!
//! Every task carries its flop count (priced from the analysis' evolved
//! rank estimates) and every edge the payload bytes of the tile version
//! flowing along it, so the same graph drives both the shared-memory
//! executor and the distributed discrete-event simulator.

use crate::analysis::MatrixAnalysis;
use runtime::graph::{DataRef, Edge, EdgeCounts, TaskClass, TaskGraph, TaskId, TaskSpec};
use tlr_compress::kernels::flops;
use tlr_compress::{low_rank_pays_off, RankSnapshot};

/// Identity of a Cholesky task (the PTG parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Factor diagonal tile `(k, k)`.
    Potrf {
        /// Panel index.
        k: usize,
    },
    /// Solve tile `(m, k)` against the factored `(k, k)`.
    Trsm {
        /// Panel index.
        k: usize,
        /// Tile row.
        m: usize,
    },
    /// Update diagonal `(m, m)` with panel-`k` tile `(m, k)`.
    Syrk {
        /// Panel index.
        k: usize,
        /// Diagonal index.
        m: usize,
    },
    /// Update `(m, n)` with `(m, k)·(n, k)ᵀ`.
    Gemm {
        /// Panel index.
        k: usize,
        /// Tile row.
        m: usize,
        /// Tile column.
        n: usize,
    },
}

/// The tiles a task touches: the one it updates in place and the ones
/// it only reads.
pub(crate) struct Operands {
    /// The tile the task writes.
    pub(crate) writes: DataRef,
    reads: [DataRef; 2],
    nreads: usize,
}

impl Operands {
    /// The read-only operands, in packed-lower order — every one of them
    /// precedes [`writes`](Operands::writes) in that order, which is the
    /// order the shared engine takes its locks in and the order
    /// `run_kernel` indexes `reads` by.
    pub(crate) fn reads(&self) -> &[DataRef] {
        &self.reads[..self.nreads]
    }
}

impl TaskKind {
    /// Which tiles this task writes and reads — the PTG's dataflow, said
    /// once: the builder below draws every edge from it and both engines
    /// fetch their operands by it.
    pub(crate) fn operands(self) -> Operands {
        let at = |i, j| DataRef { i, j };
        let (writes, reads, nreads) = match self {
            TaskKind::Potrf { k } => (at(k, k), [at(k, k); 2], 0),
            TaskKind::Trsm { k, m } => (at(m, k), [at(k, k); 2], 1),
            TaskKind::Syrk { k, m } => (at(m, m), [at(m, k); 2], 1),
            // k < n < m, so (n, k) < (m, k) < (m, n) in packed order.
            TaskKind::Gemm { k, m, n } => (at(m, n), [at(n, k), at(m, k)], 2),
        };
        Operands { writes, reads, nreads }
    }

    /// The runtime's kernel class of this task.
    pub fn class(self) -> TaskClass {
        match self {
            TaskKind::Potrf { .. } => TaskClass::Potrf,
            TaskKind::Trsm { .. } => TaskClass::Trsm,
            TaskKind::Syrk { .. } => TaskClass::Syrk,
            TaskKind::Gemm { .. } => TaskClass::Gemm,
        }
    }

    /// The panel step `k` this task belongs to (its scheduling priority).
    pub fn panel(self) -> usize {
        match self {
            TaskKind::Potrf { k }
            | TaskKind::Trsm { k, .. }
            | TaskKind::Syrk { k, .. }
            | TaskKind::Gemm { k, .. } => k,
        }
    }
}

/// Builder options.
#[derive(Debug, Clone, Copy)]
pub struct DagConfig {
    /// Apply Algorithm-1 trimming (skip tasks on never-non-null tiles).
    pub trimmed: bool,
    /// Cap on fill-in rank estimates (HiCMA `maxrank`).
    pub rank_cap: usize,
}

impl Default for DagConfig {
    fn default() -> Self {
        Self { trimmed: true, rank_cap: usize::MAX }
    }
}

/// A fully built Cholesky DAG plus per-task metadata.
pub struct CholeskyDag {
    /// The dataflow graph (tasks + byte-annotated edges).
    pub graph: TaskGraph,
    /// `kinds[id]` identifies the Cholesky task behind graph vertex `id`.
    pub kinds: Vec<TaskKind>,
    /// The symbolic analysis the graph was built from.
    pub analysis: MatrixAnalysis,
    /// Per-task flop counts.
    pub flops: Vec<f64>,
    /// Per-task effective inner (rank) dimension, the argument of the
    /// machine model's efficiency curve (tile size for dense kernels).
    pub rank_param: Vec<usize>,
    /// Per-task "nested" flag: critical-path kernels execute
    /// node-parallel (the nested-parallelism optimization of the
    /// IPDPS'21 predecessor the paper builds on).
    pub nested: Vec<bool>,
}

/// Packed lower-triangular tile index.
#[inline]
pub(crate) fn lower(i: usize, j: usize) -> usize {
    i * (i + 1) / 2 + j
}

/// Is a rank-`r` tile of size `b` stored dense? Exactly when compression
/// would keep it so: low rank does not pay off.
#[inline]
fn dense_format(r: usize, b: usize) -> bool {
    !low_rank_pays_off(r, b, b)
}

/// Message size of tile `(i, j)` with rank estimate `r`, in bytes.
#[inline]
pub(crate) fn tile_bytes(i: usize, j: usize, r: usize, b: usize) -> u64 {
    if i == j || dense_format(r, b) {
        (b * b * 8) as u64
    } else if r == 0 {
        0
    } else {
        (8 * r * 2 * b) as u64
    }
}

/// Build the tile Cholesky task graph for an initial rank snapshot.
///
/// The emission loop runs twice and the edges are never staged: the
/// first run counts each task's outgoing edges, the second writes every
/// edge straight into its slot of the graph's layout.
pub fn build_cholesky_dag(initial: &RankSnapshot, cfg: &DagConfig) -> CholeskyDag {
    let b = initial.tile_size();
    let analysis = MatrixAnalysis::analyze(initial, cfg.rank_cap);
    let ranks = &analysis.final_ranks;

    // The analysis counts the tasks, so every table is sized once.
    let ntasks = if cfg.trimmed { analysis.surviving_tasks() } else { analysis.dense_tasks() };
    let mut counts = EdgeCounts::new(ntasks);
    emit(&analysis, cfg.trimmed, |_, _, inputs| {
        for &(src, _) in inputs {
            counts.count(src);
        }
    });

    let mut slots = counts.into_slots();
    let mut specs: Vec<TaskSpec> = Vec::with_capacity(ntasks);
    let mut kinds: Vec<TaskKind> = Vec::with_capacity(ntasks);
    let mut task_flops: Vec<f64> = Vec::with_capacity(ntasks);
    let mut rank_param: Vec<usize> = Vec::with_capacity(ntasks);
    let mut nested: Vec<bool> = Vec::with_capacity(ntasks);
    emit(&analysis, cfg.trimmed, |id, kind, inputs| {
        let (fl, kparam, is_nested) = price(kind, ranks, b);
        specs.push(TaskSpec {
            class: kind.class(),
            priority: kind.panel(),
            writes: Some(kind.operands().writes),
            flops: fl,
        });
        for &(src, d) in inputs {
            let bytes = tile_bytes(d.i, d.j, ranks.rank(d.i, d.j), b);
            slots.place(src, Edge { dst: id, data: d, bytes });
        }
        kinds.push(kind);
        task_flops.push(fl);
        rank_param.push(kparam);
        nested.push(is_nested);
    });

    let graph = slots.finish(specs);
    CholeskyDag { graph, kinds, analysis, flops: task_flops, rank_param, nested }
}

/// The builder's one emission loop: every task of the execution space in
/// id order, handed to `sink` with its id and its incoming edges as
/// `(producer, tile)` pairs. The dataflow comes from `operands()`: one
/// edge from the producer of the current version of every tile the task
/// reads, then of the tile it overwrites. The producers of one task's
/// operands are distinct, earlier tasks: every edge runs from a lower id
/// to a higher one (id order is the graph's topological order), and the
/// layout keeps every successor list in task-emission order.
fn emit(
    analysis: &MatrixAnalysis,
    trimmed: bool,
    mut sink: impl FnMut(TaskId, TaskKind, &[(TaskId, DataRef)]),
) {
    let nt = analysis.final_ranks.nt();
    // last_writer[tile] = task that produced the current version.
    let mut last_writer: Vec<Option<TaskId>> = vec![None; nt * (nt + 1) / 2];
    let mut next_id = 0;
    let mut task = |kind: TaskKind| {
        let ops = kind.operands();
        let mut inputs = [(0, ops.writes); 3];
        let mut ninputs = 0;
        for &d in ops.reads().iter().chain([&ops.writes]) {
            if let Some(w) = last_writer[lower(d.i, d.j)] {
                inputs[ninputs] = (w, d);
                ninputs += 1;
            }
        }
        last_writer[lower(ops.writes.i, ops.writes.j)] = Some(next_id);
        sink(next_id, kind, &inputs[..ninputs]);
        next_id += 1;
    };

    let all_rows: Vec<usize> = (0..nt).collect();
    for k in 0..nt {
        task(TaskKind::Potrf { k });
        // Which rows participate in this panel? (Ascending; a trimmed
        // panel keeps the rows whose tile `(m, k)` is non-null.)
        let rows: &[usize] = if trimmed { &analysis.trsm[k] } else { &all_rows[k + 1..] };
        for &m in rows {
            task(TaskKind::Trsm { k, m });
        }
        for &m in rows {
            task(TaskKind::Syrk { k, m });
        }
        // Pair (m, n) with m > n.
        for (i, &m) in rows.iter().enumerate() {
            for &n in &rows[..i] {
                task(TaskKind::Gemm { k, m, n });
            }
        }
    }
}

/// `(flops, rank_param, nested)` of one task under the final ranks.
fn price(kind: TaskKind, ranks: &RankSnapshot, b: usize) -> (f64, usize, bool) {
    // `(flops, rank_param)` of a kernel driven by one rank-`r` panel tile.
    let priced = |r: usize, dense: fn(usize) -> f64, lr: fn(usize, usize) -> f64| {
        if r == 0 {
            (0.0, 1) // untrimmed no-op on a null tile
        } else if dense_format(r, b) {
            (dense(b), b)
        } else {
            (lr(b, r), r)
        }
    };
    match kind {
        TaskKind::Potrf { .. } => (flops::potrf(b), b, true),
        TaskKind::Trsm { k, m } => {
            let (fl, kparam) = priced(ranks.rank(m, k), flops::trsm_dense, flops::trsm_lr);
            // panel-adjacent TRSM: critical path (nested)
            (fl, kparam, m <= k + 4)
        }
        TaskKind::Syrk { k, m } => {
            let (fl, kparam) = priced(ranks.rank(m, k), flops::syrk_dense, flops::syrk_lr);
            // SYRK accumulations serialize on the shared diagonal tile and
            // feed the next POTRF: always on the critical path, always
            // nested (multithreaded accumulation)
            (fl, kparam, true)
        }
        TaskKind::Gemm { k, m, n } => {
            let (ka, kb, kc) = (ranks.rank(m, k), ranks.rank(n, k), ranks.rank(m, n));
            let (fl, kparam) = if ka == 0 || kb == 0 {
                (0.0, 1) // untrimmed no-op
            } else if dense_format(ka, b) && dense_format(kb, b) {
                (flops::gemm_dense(b), b)
            } else {
                // recompression cost is governed by the stacked rank
                (flops::gemm_tlr(b, ka, kb, kc), (kc + ka.min(kb)).min(b))
            };
            // Two kinds of GEMMs sit on the critical path and run nested:
            // updates inside the panel-adjacent lookahead window, and
            // accumulations onto near-diagonal tiles (long serialized
            // chains of high-rank updates, like the SYRK accumulations).
            (fl, kparam, m - n <= 4 || (n <= k + 2 && m <= k + 4))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(nt: usize, b: usize, entries: &[(usize, usize, usize)]) -> RankSnapshot {
        let mut ranks = vec![0usize; nt * nt];
        for i in 0..nt {
            ranks[i * nt + i] = b;
        }
        for &(m, n, r) in entries {
            ranks[m * nt + n] = r;
        }
        RankSnapshot::new(nt, b, ranks)
    }

    fn dense_snap(nt: usize, b: usize, r: usize) -> RankSnapshot {
        let entries: Vec<_> =
            (0..nt).flat_map(|m| (0..m).map(move |n| (m, n, r))).collect();
        snap(nt, b, &entries)
    }

    #[test]
    fn dense_task_count_formula() {
        let nt = 6;
        let dag = build_cholesky_dag(&dense_snap(nt, 64, 8), &DagConfig::default());
        let expect = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(dag.graph.len(), expect);
        assert!(dag.graph.order().expect("acyclic").eq(0..dag.graph.len()), "ids are the order");
    }

    #[test]
    fn trimmed_smaller_than_untrimmed() {
        // tridiagonal tile structure
        let nt = 10;
        let entries: Vec<_> = (1..nt).map(|m| (m, m - 1, 4usize)).collect();
        let s = snap(nt, 64, &entries);
        let trimmed = build_cholesky_dag(&s, &DagConfig { trimmed: true, rank_cap: 64 });
        let full = build_cholesky_dag(&s, &DagConfig { trimmed: false, rank_cap: 64 });
        assert!(trimmed.graph.len() < full.graph.len());
        assert!(trimmed.graph.num_edges() < full.graph.num_edges());
        // identical non-zero flop totals: trimming removes only no-ops
        let nz = |d: &CholeskyDag| d.flops.iter().filter(|f| **f > 0.0).sum::<f64>();
        assert!((nz(&trimmed) - nz(&full)).abs() < 1e-6);
    }

    #[test]
    fn untrimmed_null_tasks_have_zero_flops() {
        let nt = 6;
        let entries = [(1usize, 0usize, 4usize)];
        let s = snap(nt, 64, &entries);
        let full = build_cholesky_dag(&s, &DagConfig { trimmed: false, rank_cap: 64 });
        let zero_flop = full.flops.iter().filter(|f| **f == 0.0).count();
        assert!(zero_flop > 0, "null tiles must appear as no-op tasks");
    }

    #[test]
    fn critical_path_has_potrf_chain() {
        // The critical path must contain every POTRF (they are serialized).
        let nt = 5;
        let dag = build_cholesky_dag(&dense_snap(nt, 64, 8), &DagConfig::default());
        let cp = runtime::critical_path::critical_path(&dag.graph, |t| {
            1.0 + dag.flops[t] / 1e9
        });
        let potrf_on_path = cp
            .tasks
            .iter()
            .filter(|&&t| matches!(dag.kinds[t], TaskKind::Potrf { .. }))
            .count();
        assert_eq!(potrf_on_path, nt, "all POTRFs serialize on the critical path");
    }

    #[test]
    fn trimmed_graph_contains_fill_tasks() {
        // (1,0),(2,0) non-null ⇒ fill (2,1) ⇒ TRSM(1,2) must exist.
        let s = snap(3, 64, &[(1, 0, 4), (2, 0, 4)]);
        let dag = build_cholesky_dag(&s, &DagConfig { trimmed: true, rank_cap: 64 });
        assert!(dag
            .kinds
            .iter()
            .any(|k| matches!(k, TaskKind::Trsm { k: 1, m: 2 })));
        assert!(dag
            .kinds
            .iter()
            .any(|k| matches!(k, TaskKind::Gemm { k: 0, m: 2, n: 1 })));
    }

    #[test]
    fn rank_params_follow_format() {
        let nt = 4;
        // rank 2 of 64 → LR; rank 40 of 64 → dense format; rank 32 of 64
        // stores as many words either way, and compression keeps it LR
        let s = snap(nt, 64, &[(1, 0, 2), (2, 0, 40), (2, 1, 2), (3, 2, 2), (3, 0, 32), (3, 1, 2)]);
        let dag = build_cholesky_dag(&s, &DagConfig::default());
        for (idx, kind) in dag.kinds.iter().enumerate() {
            match kind {
                TaskKind::Trsm { k: 0, m: 1 } => {
                    assert_eq!(dag.rank_param[idx], 2);
                    assert!(dag.nested[idx], "first panel TRSM is critical");
                }
                TaskKind::Trsm { k: 0, m: 2 } => {
                    assert_eq!(dag.rank_param[idx], 64, "dense-format tile");
                    assert!(dag.nested[idx], "panel-adjacent TRSM is critical");
                }
                TaskKind::Trsm { k: 0, m: 3 } => {
                    assert_eq!(dag.rank_param[idx], 32, "a tile at 2r = b is low rank");
                    assert!(dag.nested[idx], "window TRSM is critical");
                }
                TaskKind::Potrf { .. } => {
                    assert_eq!(dag.rank_param[idx], 64);
                    assert!(dag.nested[idx]);
                }
                TaskKind::Gemm { k: 0, m: 2, n: 1 } => {
                    assert!(dag.nested[idx], "near-panel GEMM is critical")
                }
                TaskKind::Gemm { k: 0, m: 3, n: 1 } => {
                    assert!(dag.nested[idx], "window GEMM is critical")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn edges_carry_bytes() {
        let dag = build_cholesky_dag(&dense_snap(4, 64, 4), &DagConfig::default());
        // every POTRF → TRSM edge ships the dense diagonal tile
        let dense_bytes = (64 * 64 * 8) as u64;
        let mut seen_dense = false;
        let mut seen_lr = false;
        for t in 0..dag.graph.len() {
            for e in dag.graph.successors(t) {
                if e.bytes == dense_bytes {
                    seen_dense = true;
                } else if e.bytes == (8 * 4 * 2 * 64) as u64 {
                    seen_lr = true;
                }
            }
        }
        assert!(seen_dense && seen_lr);
    }

    #[test]
    fn single_tile_matrix() {
        let dag = build_cholesky_dag(&snap(1, 32, &[]), &DagConfig::default());
        assert_eq!(dag.graph.len(), 1);
        assert!(matches!(dag.kinds[0], TaskKind::Potrf { k: 0 }));
    }
}
