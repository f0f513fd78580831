//! Panel batching: fuse same-class trailing-panel updates into one task.
//!
//! H2OPUS-TLR gets much of its throughput from launching many small
//! same-shape TLR kernels as one batched operation; the runtime-side
//! equivalent here is a DAG pass that fuses every `GEMM(k, ·, n)` of one
//! panel step `k` updating trailing column `n` into a single engine task.
//! What a group saves is *scheduling*: deque traffic, dependency
//! countdowns and — on distributed runs — one message for the shared
//! `(n, k)` operand are paid once per group instead of once per GEMM.
//! The arithmetic is untouched: a fused task is a view over the same
//! task body, run once per member; nothing is packed once per group.
//! Packing the shared operand is ROADMAP item 2.
//!
//! Whether a plan runs fused tasks, and how its engine tasks map back to
//! DAG tasks, is known to this module alone: a plan holds a `Grouping`
//! (crate-private) and asks it for the graph to run, the members of an
//! engine task, the engine task of a member and the two rank
//! projections — `Fine` answers with the DAG itself, `Fused` with a
//! [`PanelBatch`].
//!
//! # Why fusing `GEMM(k, ·, n)` is always legal
//!
//! Two members `GEMM(k, m₁, n)` and `GEMM(k, m₂, n)` write distinct tiles
//! `(m₁, n)` and `(m₂, n)` and read only panel-`k` TRSM outputs, so no
//! dataflow path connects them: every successor of a panel-`k` GEMM is a
//! strictly later writer of its output tile (a `k' > k` task). Contracting
//! the group therefore cannot create a cycle, and because each tile's
//! update sequence is untouched — same kernels, same operand versions,
//! same order per tile — the fused factorization is **bit-identical** to
//! the unfused one (`tests/panel_batching.rs` holds both engines and
//! every [`SchedPolicy`](runtime::scheduler::SchedPolicy) to that).
//!
//! # Cost model and observability
//!
//! A fused task carries the *sum* of its members' flops, so DES pricing,
//! `CostModel` lookahead and the scheduler's per-class EMA feedback (all
//! linear in flops) see the aggregate-equivalent work. Per-kernel
//! attribution is preserved by the span-splitting observer of a shared
//! run: the engine reports *engine* task ids, the observer fans enqueue
//! out to the member ids, passes a singleton's span straight through,
//! and records one measured span per member of a fused group — so the
//! trace and the critical-path pricing still operate on the original
//! task granularity.

use crate::dag::{CholeskyDag, TaskKind};
use runtime::engine::{ExecObs, Observe, TaskEvent};
use runtime::graph::{TaskGraph, TaskId, TaskSpec};
use std::time::Instant;

/// Result of the panel-batching pass: a contracted graph plus the two
/// mappings the executor needs to translate between granularities.
pub struct PanelBatch {
    /// The contracted task graph the engine executes. Edges between the
    /// same pair of batched tasks carrying the same datum are deduplicated
    /// (a fused panel receives its shared `(n, k)` operand once, not once
    /// per member).
    pub graph: TaskGraph,
    /// `members[b]` lists the original task ids fused into batched task
    /// `b`, in original (per-tile program) order. Singletons for every
    /// non-fused task.
    pub members: Vec<Vec<TaskId>>,
    /// `of[t]` is the batched task executing original task `t`.
    pub of: Vec<TaskId>,
    /// Number of batched tasks with more than one member.
    pub fused_groups: usize,
}

/// Fuse all `GEMM(k, ·, n)` tasks of each `(k, n)` trailing-panel column
/// into single batched tasks; every other task — and a GEMM alone in its
/// column — stays a singleton.
///
/// On distributed runs, pass the per-task `exec_rank` so groups split at
/// rank boundaries — members of one fused task must execute on one rank.
///
/// The pass leans on two things [`build_cholesky_dag`] guarantees: tasks
/// are emitted panel after panel, and every out-edge of a task carries
/// the one tile that task writes.
///
/// [`build_cholesky_dag`]: crate::dag::build_cholesky_dag
pub fn batch_panel_gemms(dag: &CholeskyDag, exec_rank: Option<&[usize]>) -> PanelBatch {
    let g = &dag.graph;
    let nranks = exec_rank.map_or(1, |er| er.iter().max().map_or(1, |&r| r + 1));

    // Group in one pass, batched ids in order of first members — so the
    // contracted graph (and everything keyed on its ids: schedulers, comm
    // counting, traces) is deterministic. `open[(n, rank)]` is the panel
    // that last opened a group in column `n` on `rank`, and that group: a
    // GEMM of the same panel joins it, a later panel's opens the next.
    let mut open: Vec<(usize, TaskId)> = vec![(usize::MAX, 0); dag.analysis.nt() * nranks];
    let mut members: Vec<Vec<TaskId>> = Vec::new();
    let mut of: Vec<TaskId> = Vec::with_capacity(g.len());
    for (t, &kind) in dag.kinds.iter().enumerate() {
        let b = match kind {
            TaskKind::Gemm { k, n, .. } => {
                let slot = &mut open[n * nranks + exec_rank.map_or(0, |er| er[t])];
                if slot.0 != k {
                    *slot = (k, members.len());
                }
                slot.1
            }
            _ => members.len(),
        };
        if b == members.len() {
            members.push(Vec::new());
        }
        members[b].push(t);
        of.push(b);
    }

    let mut graph = TaskGraph::new();
    for group in &members {
        let spec0 = g.spec(group[0]);
        graph.add_task(TaskSpec {
            class: spec0.class,
            priority: spec0.priority,
            // A fused task writes one tile per member; `writes` names the
            // first, as the task's label. Every member puts its own tile
            // into the rank store, and the distributed engine ships each
            // outgoing edge's datum from there.
            writes: spec0.writes,
            flops: group.iter().map(|&m| g.spec(m).flops).sum(),
        });
    }

    // Project the edges through the contraction. Intra-group edges cannot
    // exist (members are mutually independent) but are skipped defensively;
    // parallel edges carrying the same datum collapse to one. All edges
    // out of one task carry the same datum and members of one group write
    // different tiles, so a parallel edge is a second edge from the *same*
    // task into the same group: `last_src[bd]` remembers that task.
    let mut last_src: Vec<TaskId> = vec![usize::MAX; members.len()];
    for s in 0..g.len() {
        for e in g.successors(s) {
            let (bs, bd) = (of[s], of[e.dst]);
            if bs != bd && last_src[bd] != s {
                last_src[bd] = s;
                graph.add_edge(bs, bd, e.data, e.bytes);
            }
        }
    }

    let fused_groups = members.iter().filter(|m| m.len() > 1).count();
    PanelBatch { graph, members, of, fused_groups }
}

/// How a plan's engine tasks relate to its DAG tasks: one to one, or
/// through a [`PanelBatch`]. Everything that runs or reports a plan asks
/// this type instead of branching on "batched or not".
#[derive(Default)]
pub(crate) enum Grouping {
    /// The engine runs the DAG itself.
    #[default]
    Fine,
    /// The engine runs the contracted graph.
    Fused(PanelBatch),
}

impl Grouping {
    /// The grouping a plan that decided `batched` runs `dag` with
    /// (`exec_rank` as for [`batch_panel_gemms`]).
    pub(crate) fn new(dag: &CholeskyDag, batched: bool, exec_rank: Option<&[usize]>) -> Self {
        if batched {
            Grouping::Fused(batch_panel_gemms(dag, exec_rank))
        } else {
            Grouping::Fine
        }
    }

    /// The graph the engine executes.
    pub(crate) fn graph<'a>(&'a self, dag: &'a CholeskyDag) -> &'a TaskGraph {
        match self {
            Grouping::Fine => &dag.graph,
            Grouping::Fused(pb) => &pb.graph,
        }
    }

    /// The DAG tasks engine task `b` stands for, in program order.
    pub(crate) fn members<'a>(&'a self, b: &'a TaskId) -> &'a [TaskId] {
        match self {
            Grouping::Fine => std::slice::from_ref(b),
            Grouping::Fused(pb) => &pb.members[*b],
        }
    }

    /// The engine task executing DAG task `t`.
    pub(crate) fn of(&self, t: TaskId) -> TaskId {
        match self {
            Grouping::Fine => t,
            Grouping::Fused(pb) => pb.of[t],
        }
    }

    /// Engine tasks with more than one member.
    pub(crate) fn fused_groups(&self) -> usize {
        match self {
            Grouping::Fine => 0,
            Grouping::Fused(pb) => pb.fused_groups,
        }
    }

    /// Per-DAG-task ranks → per-engine-task ranks (all members of a
    /// group share their rank by construction — the pass keys groups on
    /// it).
    pub(crate) fn project(&self, task_rank: Vec<usize>) -> Vec<usize> {
        match self {
            Grouping::Fine => task_rank,
            Grouping::Fused(pb) => pb.members.iter().map(|m| task_rank[m[0]]).collect(),
        }
    }

    /// Per-engine-task ranks → per-DAG-task ranks.
    pub(crate) fn unproject(&self, engine_rank: Vec<usize>) -> Vec<usize> {
        match self {
            Grouping::Fine => engine_rank,
            Grouping::Fused(pb) => pb.of.iter().map(|&b| engine_rank[b]).collect(),
        }
    }
}

/// Span-splitting [`Observe`] sink of a shared run.
///
/// The engine sees the grouping's graph, so it reports *engine* task ids
/// against an [`ExecObs`] sized for the DAG. This wrapper keeps the two
/// granularities consistent:
///
/// * `Enqueue` of `b` fans out to every member — each original task became
///   ready exactly when its group did;
/// * `Retire` of a singleton `b` is that task's span, as the engine
///   read it; a fused group's is dropped, because
///   [`run_members`](BatchObs::run_members) already recorded one span
///   per member.
pub(crate) struct BatchObs<'a> {
    inner: Option<&'a ExecObs>,
    grouping: &'a Grouping,
}

impl<'a> BatchObs<'a> {
    /// Wrap an (optional) DAG-granularity recorder for a run of `grouping`.
    pub(crate) fn new(inner: Option<&'a ExecObs>, grouping: &'a Grouping) -> Self {
        BatchObs { inner, grouping }
    }

    /// Run every member of engine task `b` through `run`, in order.
    /// Tracing a fused group reads the engine's clock once per member
    /// boundary, so consecutive member spans tile the group's span.
    pub(crate) fn run_members(&self, wid: usize, b: TaskId, mut run: impl FnMut(TaskId)) {
        let members = self.grouping.members(&b);
        match self.inner {
            Some(o) if members.len() > 1 => {
                let mut start = Instant::now();
                for &t in members {
                    run(t);
                    let end = Instant::now();
                    o.record_span(wid, t, start, end);
                    start = end;
                }
            }
            _ => members.iter().for_each(|&t| run(t)),
        }
    }
}

impl Observe for BatchObs<'_> {
    #[inline]
    fn observe(&self, event: TaskEvent<'_>) {
        let Some(o) = self.inner else { return };
        match event {
            TaskEvent::Enqueue { wid, task: b, at } => {
                for &task in self.grouping.members(&b) {
                    o.observe(TaskEvent::Enqueue { wid, task, at });
                }
            }
            TaskEvent::Retire { wid, task: b, start, end, .. } => {
                if let [t] = *self.grouping.members(&b) {
                    o.record_span(wid, t, start, end);
                }
            }
            TaskEvent::Steal { .. } | TaskEvent::Corrections(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{build_cholesky_dag, DagConfig};
    use runtime::graph::TaskClass;
    use std::collections::HashSet;
    use tlr_compress::RankSnapshot;

    fn dense_snap(nt: usize, b: usize, r: usize) -> RankSnapshot {
        let mut ranks = vec![0usize; nt * nt];
        for i in 0..nt {
            for j in 0..nt {
                ranks[i * nt + j] = if i == j { b } else { r };
            }
        }
        RankSnapshot::new(nt, b, ranks)
    }

    fn dag(nt: usize) -> CholeskyDag {
        build_cholesky_dag(&dense_snap(nt, 32, 4), &DagConfig::default())
    }

    #[test]
    fn members_partition_the_original_tasks() {
        let d = dag(6);
        let pb = batch_panel_gemms(&d, None);
        let mut seen = vec![false; d.graph.len()];
        for (b, group) in pb.members.iter().enumerate() {
            for &t in group {
                assert!(!seen[t], "task {t} appears in two groups");
                seen[t] = true;
                assert_eq!(pb.of[t], b);
            }
        }
        assert!(seen.iter().all(|&s| s), "every task must be covered");
        assert!(pb.graph.len() < d.graph.len(), "fusion must shrink the graph");
        assert!(pb.fused_groups > 0);
    }

    #[test]
    fn only_same_panel_same_column_gemms_fuse() {
        let d = dag(7);
        let pb = batch_panel_gemms(&d, None);
        for group in &pb.members {
            if group.len() == 1 {
                continue;
            }
            let TaskKind::Gemm { k, n, .. } = d.kinds[group[0]] else {
                panic!("only GEMMs may fuse");
            };
            for &t in group {
                match d.kinds[t] {
                    TaskKind::Gemm { k: gk, n: gn, .. } => {
                        assert_eq!((gk, gn), (k, n), "mixed panel/column in one group");
                    }
                    other => panic!("non-GEMM {other:?} fused"),
                }
            }
        }
    }

    #[test]
    fn batched_graph_is_acyclic_and_flop_preserving() {
        let d = dag(8);
        let pb = batch_panel_gemms(&d, None);
        assert!(pb.graph.topological_order().is_some(), "contraction made a cycle");
        // The DES / cost-model invariant: a batched task's modeled flops
        // equal the sum of its members', and the totals match exactly.
        for (b, group) in pb.members.iter().enumerate() {
            let sum: f64 = group.iter().map(|&t| d.graph.spec(t).flops).sum();
            assert_eq!(pb.graph.spec(b).flops, sum);
            assert_eq!(pb.graph.spec(b).class, d.graph.spec(group[0]).class);
            assert_eq!(pb.graph.spec(b).priority, d.graph.spec(group[0]).priority);
        }
        assert!((pb.graph.total_flops() - d.graph.total_flops()).abs() < 1e-6);
    }

    #[test]
    fn shared_operand_edges_are_deduplicated() {
        let d = dag(8);
        let pb = batch_panel_gemms(&d, None);
        // Fewer edges than the original graph: each fused panel receives
        // its shared (n, k) TRSM operand once.
        assert!(pb.graph.num_edges() < d.graph.num_edges());
        for s in 0..pb.graph.len() {
            let mut seen = HashSet::new();
            for e in pb.graph.successors(s) {
                assert!(seen.insert((e.dst, e.data)), "duplicate edge survived the pass");
            }
        }
    }

    #[test]
    fn rank_splits_gate_fusion() {
        let d = dag(8);
        // Alternate ranks per task: same-(k,n) GEMMs land on a mix of
        // ranks, so groups must split accordingly.
        let er: Vec<usize> = (0..d.graph.len()).map(|t| t % 2).collect();
        let grouping = Grouping::new(&d, true, Some(&er));
        let Grouping::Fused(pb) = &grouping else { panic!("a batched grouping is fused") };
        for group in &pb.members {
            let r0 = er[group[0]];
            assert!(group.iter().all(|&t| er[t] == r0), "group spans ranks");
        }
        // The two rank projections are inverse to each other.
        let ranks = grouping.project(er.clone());
        assert_eq!(ranks.len(), pb.graph.len());
        assert_eq!(grouping.unproject(ranks), er);
    }

    #[test]
    fn non_gemm_tasks_stay_singletons() {
        let d = dag(6);
        let pb = batch_panel_gemms(&d, None);
        for group in &pb.members {
            if d.graph.spec(group[0]).class != TaskClass::Gemm {
                assert_eq!(group.len(), 1);
            }
        }
    }
}
