//! The tile Cholesky task space, with and without DAG trimming.
//!
//! The space is the classic right-looking tile Cholesky PTG:
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
//! With `trimmed = false` every task of the dense execution space exists
//! (tasks on null tiles become numeric no-ops, and on the engines that run
//! every structural task — the distributed engine and the simulator —
//! they still cost runtime overhead and dependency activations: the
//! situation the paper's §VI fixes). With `trimmed = true` the execution
//! space of TRSM, SYRK and GEMM is reduced according to
//! [`MatrixAnalysis`] (Algorithm 1), so tasks and dependencies touching
//! never-non-null tiles simply do not exist.
//!
//! Algorithm 1 is structural: it keeps a fill tile whenever both of its
//! panel tiles are non-null, although the product of two tiles barely
//! above the threshold often recompresses to `Null`. The space keeps
//! those tasks, so the plan, its prices and every simulated number stay
//! the paper's. The shared engine, which holds the real tiles, skips them
//! at run time instead: a task whose operand is `Null` when its last
//! predecessor retires is retired without running (numeric trimming, in
//! the session's `run_shared`).
//!
//! [`CholeskySpace`] is this PTG in symbolic form, as PaRSEC evaluates
//! one (§IV-A): a handful of O(NT²) tables — the first task id of every
//! panel and Algorithm 1's row and update lists — from which it derives,
//! on demand, a task's identity from its id and back, its [`TaskSpec`],
//! its price and its successor list. No task or edge is stored. Every
//! engine walks the space directly (it is a [`Dataflow`]): the
//! work-stealing engine, the distributed engine, the discrete-event
//! simulator and the critical path, so the dataflow is defined once and
//! the DAG exists once.
//!
//! Every task carries its flop count (priced from the analysis' evolved
//! rank estimates) and its one output: the tile version it writes and
//! that tile's payload bytes, which every one of its successors reads.

use crate::analysis::MatrixAnalysis;
use runtime::graph::{DataRef, Dataflow, TaskClass, TaskId, TaskSpec};
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
    /// the task body (`TaskBody::run`) indexes `reads` by.
    pub(crate) fn reads(&self) -> &[DataRef] {
        &self.reads[..self.nreads]
    }
}

impl TaskKind {
    /// Which tiles this task writes and reads — the PTG's dataflow, said
    /// once: both engines fetch their operands by it, and the task space's
    /// successor lists follow it (each task feeds the readers of the tile
    /// version it writes, then that tile's next writer).
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

    /// The panel step `k` this task belongs to.
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

/// A Cholesky task space with every task's flop count beside it.
///
/// The benchmark's DAG-level probes (`pipeline_bench`) read a run's task
/// graph through this pair, `.graph` and `.flops`; that is why it exists.
/// Library code builds a [`CholeskySpace`] directly.
pub struct CholeskyDag {
    /// The task space (tasks, their outputs and edges, derived on demand).
    pub graph: CholeskySpace,
    /// Per-task flop counts, in id order.
    pub flops: Vec<f64>,
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

/// What one task costs on the machine model's terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPrice {
    /// Floating-point operations (0 for a no-op on a null tile).
    pub flops: f64,
    /// Effective inner (rank) dimension, the argument of the machine
    /// model's efficiency curve (tile size for dense kernels).
    pub rank_param: usize,
    /// Critical-path kernels execute node-parallel (the nested-parallelism
    /// optimization of the IPDPS'21 predecessor the paper builds on).
    pub nested: bool,
}

/// The tile Cholesky task space of one rank snapshot, held symbolically
/// (see the module docs). Ids are the PTG's order: per panel `k`, POTRF,
/// then the TRSMs, the SYRKs, and the GEMMs by `(m, n)` — `m` over the
/// panel's rows, `n` over the rows before it. Every edge runs from a
/// lower id to a higher one, so id order is a topological order.
pub struct CholeskySpace {
    analysis: MatrixAnalysis,
    trimmed: bool,
    /// `first[k]`: the id of POTRF(k); `first[nt]`: the task count.
    first: Vec<TaskId>,
    /// `0..nt`: the untrimmed space's row and update lists are its slices.
    all: Vec<usize>,
    /// Trimmed only: `slot[lower(m, k)]`, the position of row `m` in
    /// panel `k`'s rows (`u32::MAX` when the panel skips it).
    slot: Vec<u32>,
    /// Number of edges.
    edges: usize,
}

impl CholeskySpace {
    /// Run Algorithm 1 on `initial` and lay out the space's tables.
    pub fn new(initial: &RankSnapshot, cfg: &DagConfig) -> Self {
        let analysis = MatrixAnalysis::analyze(initial, cfg.rank_cap);
        let nt = analysis.nt();
        let mut space = CholeskySpace {
            analysis,
            trimmed: cfg.trimmed,
            first: Vec::with_capacity(nt + 1),
            all: (0..nt).collect(),
            slot: Vec::new(),
            edges: 0,
        };
        if cfg.trimmed {
            space.slot = vec![u32::MAX; nt * (nt + 1) / 2];
            for (k, rows) in space.analysis.trsm.iter().enumerate() {
                for (i, &m) in rows.iter().enumerate() {
                    space.slot[lower(m, k)] = i as u32;
                }
            }
        }
        let (mut tasks, mut edges) = (0, 0);
        for k in 0..nt {
            space.first.push(tasks);
            // POTRF, r TRSMs, r SYRKs, r(r-1)/2 GEMMs. POTRF feeds every
            // TRSM, a TRSM its SYRK and the r - 1 GEMMs that read its
            // tile, and a SYRK or GEMM the next writer of its tile.
            let r = space.rows(k).len();
            let gemms = r * r.saturating_sub(1) / 2;
            tasks += 1 + 2 * r + gemms;
            edges += r + r * r + r + gemms;
        }
        space.first.push(tasks);
        space.edges = edges;
        space
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.first[self.analysis.nt()]
    }

    /// `true` when the space has no tasks (an empty tile grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The symbolic analysis the space was built from.
    pub fn analysis(&self) -> &MatrixAnalysis {
        &self.analysis
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Approximate memory footprint in bytes: Algorithm 1's structure
    /// plus the space's own tables.
    pub fn memory_bytes(&self) -> usize {
        self.analysis.memory_bytes()
            + (self.first.len() + self.all.len()) * std::mem::size_of::<usize>()
            + self.slot.len() * std::mem::size_of::<u32>()
    }

    /// The rows `m > k` that take part in panel `k`, ascending.
    fn rows(&self, k: usize) -> &[usize] {
        if self.trimmed {
            &self.analysis.trsm[k]
        } else {
            &self.all[k + 1..]
        }
    }

    /// Position of row `m` among panel `k`'s rows.
    fn pos(&self, k: usize, m: usize) -> usize {
        if self.trimmed {
            let i = self.slot[lower(m, k)];
            assert!(i != u32::MAX, "row {m} is not in panel {k}");
            i as usize
        } else {
            m - k - 1
        }
    }

    /// The panels that update tile `(m, n)` before panel `n` factors it,
    /// ascending: SYRKs on the diagonal, GEMMs below it.
    fn updates(&self, m: usize, n: usize) -> &[usize] {
        match (self.trimmed, m == n) {
            (true, true) => &self.analysis.syrk[m],
            (true, false) => self.analysis.gemm_panels(m, n),
            (false, _) => &self.all[..n],
        }
    }

    /// The panel of task `t`.
    fn panel(&self, t: TaskId) -> usize {
        self.first.partition_point(|&f| f <= t) - 1
    }

    /// The Cholesky task behind id `t`.
    ///
    /// # Panics
    /// Panics if `t` is not a task of the space.
    pub fn kind(&self, t: TaskId) -> TaskKind {
        let k = self.panel(t);
        let rows = self.rows(k);
        let (r, o) = (rows.len(), t - self.first[k]);
        if o == 0 {
            TaskKind::Potrf { k }
        } else if o <= r {
            TaskKind::Trsm { k, m: rows[o - 1] }
        } else if o <= 2 * r {
            TaskKind::Syrk { k, m: rows[o - 1 - r] }
        } else {
            // GEMM g of the panel pairs rows i > j with g = i(i-1)/2 + j:
            // i is the largest with i(i-1)/2 <= g, (1 + isqrt(8g + 1)) / 2.
            // The float root is exact to a unit here; the loops settle it.
            let g = o - 1 - 2 * r;
            let mut i = (1.0 + ((8 * g + 1) as f64).sqrt()) as usize / 2;
            while i * (i - 1) / 2 > g {
                i -= 1;
            }
            while i * (i + 1) / 2 <= g {
                i += 1;
            }
            TaskKind::Gemm { k, m: rows[i], n: rows[g - i * (i - 1) / 2] }
        }
    }

    /// The id of `kind`, the inverse of [`kind`](CholeskySpace::kind).
    ///
    /// # Panics
    /// Panics if `kind` is not a task of the space.
    pub fn id(&self, kind: TaskKind) -> TaskId {
        let nt = self.analysis.nt();
        let in_grid = match kind {
            TaskKind::Potrf { k } => k < nt,
            TaskKind::Trsm { k, m } | TaskKind::Syrk { k, m } => k < m && m < nt,
            TaskKind::Gemm { k, m, n } => k < n && n < m && m < nt,
        };
        assert!(in_grid, "{kind:?} is not a task of the space");
        let k = kind.panel();
        let (base, r) = (self.first[k], self.rows(k).len());
        match kind {
            TaskKind::Potrf { .. } => base,
            TaskKind::Trsm { m, .. } => base + 1 + self.pos(k, m),
            TaskKind::Syrk { m, .. } => base + 1 + r + self.pos(k, m),
            TaskKind::Gemm { m, n, .. } => {
                let (i, j) = (self.pos(k, m), self.pos(k, n));
                base + 1 + 2 * r + i * (i - 1) / 2 + j
            }
        }
    }

    /// Every task of the space, in id order.
    pub fn kinds(&self) -> impl Iterator<Item = TaskKind> + '_ {
        (0..self.analysis.nt()).flat_map(move |k| {
            let rows = self.rows(k);
            let gemms = rows.iter().enumerate().flat_map(move |(i, &m)| {
                rows[..i].iter().map(move |&n| TaskKind::Gemm { k, m, n })
            });
            std::iter::once(TaskKind::Potrf { k })
                .chain(rows.iter().map(move |&m| TaskKind::Trsm { k, m }))
                .chain(rows.iter().map(move |&m| TaskKind::Syrk { k, m }))
                .chain(gemms)
        })
    }

    /// What `kind` costs under the analysis' final ranks.
    pub fn price(&self, kind: TaskKind) -> TaskPrice {
        price(kind, &self.analysis.final_ranks)
    }

    /// Number of edges into `kind`: one per operand whose current version
    /// some earlier task produced.
    fn indegree_of(&self, kind: TaskKind) -> usize {
        let updated_before = |m, n, k| self.updates(m, n).first().is_some_and(|&f| f < k);
        match kind {
            TaskKind::Potrf { k } => usize::from(!self.updates(k, k).is_empty()),
            TaskKind::Trsm { k, m } => 1 + usize::from(!self.updates(m, k).is_empty()),
            TaskKind::Syrk { k, m } => 1 + usize::from(updated_before(m, m, k)),
            TaskKind::Gemm { k, m, n } => 2 + usize::from(updated_before(m, n, k)),
        }
    }

    /// The runtime's view of `kind`: its class and its output, the tile
    /// it writes, priced in bytes under the final ranks.
    fn spec_of(&self, kind: TaskKind) -> TaskSpec {
        let w = kind.operands().writes;
        let ranks = &self.analysis.final_ranks;
        let bytes = tile_bytes(w.i, w.j, ranks.rank(w.i, w.j), ranks.tile_size());
        TaskSpec { class: kind.class(), writes: Some(w), bytes }
    }

    /// Overwrite `out` with the consumers of `kind`'s output: first the
    /// readers of the tile version it writes, then that tile's next
    /// writer, in id order.
    fn successors_of(&self, kind: TaskKind, out: &mut Vec<TaskId>) {
        out.clear();
        match kind {
            // (k, k) goes to every TRSM of the panel.
            TaskKind::Potrf { k } => {
                let base = self.first[k] + 1;
                out.extend(base..base + self.rows(k).len());
            }
            // (m, k) goes to SYRK(k, m), then to the GEMMs that pair it
            // with an earlier row (as `m`), then with a later one (as `n`).
            TaskKind::Trsm { k, m } => {
                let (base, r, i) = (self.first[k], self.rows(k).len(), self.pos(k, m));
                let gemm = |i: usize, j: usize| base + 1 + 2 * r + i * (i - 1) / 2 + j;
                out.push(base + 1 + r + i);
                out.extend((0..i).map(|j| gemm(i, j)));
                out.extend((i + 1..r).map(|later| gemm(later, i)));
            }
            // Nobody reads an accumulation in flight: it goes to the next
            // update of its tile, or to the task that factors the tile.
            TaskKind::Syrk { k, .. } | TaskKind::Gemm { k, .. } => {
                let DataRef { i: m, j: n } = kind.operands().writes;
                let updates = self.updates(m, n);
                let at = if self.trimmed {
                    updates.binary_search(&k).expect("an update of the tile")
                } else {
                    k // every panel before `n` updates the tile
                };
                let next = match (updates.get(at + 1), m == n) {
                    (Some(&k), true) => TaskKind::Syrk { k, m },
                    (Some(&k), false) => TaskKind::Gemm { k, m, n },
                    (None, true) => TaskKind::Potrf { k: m },
                    (None, false) => TaskKind::Trsm { k: n, m },
                };
                out.push(self.id(next));
            }
        }
    }
}

impl Dataflow for CholeskySpace {
    fn len(&self) -> usize {
        CholeskySpace::len(self)
    }

    fn spec(&self, t: TaskId) -> TaskSpec {
        self.spec_of(self.kind(t))
    }

    fn specs(&self) -> impl Iterator<Item = TaskSpec> + '_ {
        self.kinds().map(|kind| self.spec_of(kind))
    }

    fn indegrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.kinds().map(|kind| self.indegree_of(kind))
    }

    fn successors_into(&self, t: TaskId, out: &mut Vec<TaskId>) -> TaskSpec {
        let kind = self.kind(t);
        self.successors_of(kind, out);
        self.spec_of(kind)
    }
}

/// The task space of an initial rank snapshot and every task's flop
/// count, priced once.
pub fn build_cholesky_dag(initial: &RankSnapshot, cfg: &DagConfig) -> CholeskyDag {
    let space = CholeskySpace::new(initial, cfg);
    let mut flops = Vec::with_capacity(space.len());
    flops.extend(space.kinds().map(|kind| space.price(kind).flops));
    CholeskyDag { graph: space, flops }
}

/// The price of one task under the final ranks.
fn price(kind: TaskKind, ranks: &RankSnapshot) -> TaskPrice {
    let b = ranks.tile_size();
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
    let ((flops, rank_param), nested) = match kind {
        TaskKind::Potrf { .. } => ((flops::potrf(b), b), true),
        TaskKind::Trsm { k, m } => {
            // panel-adjacent TRSM: critical path (nested)
            (priced(ranks.rank(m, k), flops::trsm_dense, flops::trsm_lr), m <= k + 4)
        }
        TaskKind::Syrk { k, m } => {
            // SYRK accumulations serialize on the shared diagonal tile and
            // feed the next POTRF: always on the critical path, always
            // nested (multithreaded accumulation)
            (priced(ranks.rank(m, k), flops::syrk_dense, flops::syrk_lr), true)
        }
        TaskKind::Gemm { k, m, n } => {
            let (ka, kb, kc) = (ranks.rank(m, k), ranks.rank(n, k), ranks.rank(m, n));
            let priced = if ka == 0 || kb == 0 {
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
            (priced, m - n <= 4 || (n <= k + 2 && m <= k + 4))
        }
    };
    TaskPrice { flops, rank_param, nested }
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
            .filter(|&&t| matches!(dag.graph.kind(t), TaskKind::Potrf { .. }))
            .count();
        assert_eq!(potrf_on_path, nt, "all POTRFs serialize on the critical path");
    }

    #[test]
    fn trimmed_graph_contains_fill_tasks() {
        // (1,0),(2,0) non-null ⇒ fill (2,1) ⇒ TRSM(1,2) must exist.
        let s = snap(3, 64, &[(1, 0, 4), (2, 0, 4)]);
        let dag = build_cholesky_dag(&s, &DagConfig { trimmed: true, rank_cap: 64 });
        assert!(dag.graph.kinds().any(|k| matches!(k, TaskKind::Trsm { k: 1, m: 2 })));
        assert!(dag.graph.kinds().any(|k| matches!(k, TaskKind::Gemm { k: 0, m: 2, n: 1 })));
    }

    #[test]
    fn rank_params_follow_format() {
        let nt = 4;
        // rank 2 of 64 → LR; rank 40 of 64 → dense format; rank 32 of 64
        // stores as many words either way, and compression keeps it LR
        let s = snap(nt, 64, &[(1, 0, 2), (2, 0, 40), (2, 1, 2), (3, 2, 2), (3, 0, 32), (3, 1, 2)]);
        let dag = build_cholesky_dag(&s, &DagConfig::default());
        for kind in dag.graph.kinds() {
            let price = dag.graph.price(kind);
            match kind {
                TaskKind::Trsm { k: 0, m: 1 } => {
                    assert_eq!(price.rank_param, 2);
                    assert!(price.nested, "first panel TRSM is critical");
                }
                TaskKind::Trsm { k: 0, m: 2 } => {
                    assert_eq!(price.rank_param, 64, "dense-format tile");
                    assert!(price.nested, "panel-adjacent TRSM is critical");
                }
                TaskKind::Trsm { k: 0, m: 3 } => {
                    assert_eq!(price.rank_param, 32, "a tile at 2r = b is low rank");
                    assert!(price.nested, "window TRSM is critical");
                }
                TaskKind::Potrf { .. } => {
                    assert_eq!(price.rank_param, 64);
                    assert!(price.nested);
                }
                TaskKind::Gemm { k: 0, m: 2, n: 1 } => {
                    assert!(price.nested, "near-panel GEMM is critical")
                }
                TaskKind::Gemm { k: 0, m: 3, n: 1 } => {
                    assert!(price.nested, "window GEMM is critical")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn outputs_carry_bytes() {
        let dag = build_cholesky_dag(&dense_snap(4, 64, 4), &DagConfig::default());
        // a POTRF ships the dense diagonal tile, a TRSM a rank-4 pair
        let dense_bytes = (64 * 64 * 8) as u64;
        let mut seen_dense = false;
        let mut seen_lr = false;
        let mut successors = Vec::new();
        for t in 0..dag.graph.len() {
            let spec = dag.graph.successors_into(t, &mut successors);
            assert_eq!(spec.bytes, dag.graph.spec(t).bytes);
            if spec.bytes == dense_bytes {
                seen_dense = true;
            } else if spec.bytes == (8 * 4 * 2 * 64) as u64 {
                seen_lr = true;
            }
        }
        assert!(seen_dense && seen_lr);
    }

    /// `id` inverts `kind` on every task and panics on everything else,
    /// trimmed and untrimmed: a non-task such as `Trsm { k: 1, m: 1 }`,
    /// `Gemm { k: 0, m: 1, n: 2 }` or a Syrk of a row its panel skips
    /// must not alias a task's id.
    #[test]
    fn id_inverts_kind_and_rejects_every_non_task() {
        let nt = 6;
        // Tridiagonal plus (2, 0) and (5, 0): trimming skips rows.
        let entries = [(1, 0, 4), (2, 0, 4), (2, 1, 4), (3, 2, 4), (4, 3, 4), (5, 4, 4), (5, 0, 4)];
        let s = snap(nt, 64, &entries);
        for trimmed in [true, false] {
            let space = CholeskySpace::new(&s, &DagConfig { trimmed, rank_cap: 64 });
            let tasks: std::collections::HashSet<TaskKind> = space.kinds().collect();
            let (mut hits, mut misses) = (0, 0);
            for k in 0..=nt {
                for m in 0..=nt {
                    for n in 0..=nt {
                        let kinds = [
                            TaskKind::Potrf { k },
                            TaskKind::Trsm { k, m },
                            TaskKind::Syrk { k, m },
                            TaskKind::Gemm { k, m, n },
                        ];
                        for kind in kinds {
                            if tasks.contains(&kind) {
                                assert_eq!(space.kind(space.id(kind)), kind);
                                hits += 1;
                            } else {
                                let id = std::panic::catch_unwind(|| space.id(kind));
                                assert!(id.is_err(), "{kind:?} (trimmed {trimmed}) got {id:?}");
                                misses += 1;
                            }
                        }
                    }
                }
            }
            assert!(hits >= space.len() && misses > 0);
        }
    }

    #[test]
    fn single_tile_matrix() {
        let dag = build_cholesky_dag(&snap(1, 32, &[]), &DagConfig::default());
        assert_eq!(dag.graph.len(), 1);
        assert!(matches!(dag.graph.kind(0), TaskKind::Potrf { k: 0 }));
    }
}
