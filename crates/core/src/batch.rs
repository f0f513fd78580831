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
//! task body, run once per member ([`BatchObs::run_members`], and the
//! member loop of the distributed body); nothing is packed once per
//! group. Packing the shared operand is ROADMAP item 2.
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
//! attribution is preserved by the [`BatchObs`] span-splitting sink: the
//! engine reports *batched* ids, the sink fans enqueue out to the member
//! ids, passes a singleton's span straight through, and for a fused
//! group [`BatchObs::run_members`] records one measured span per member
//! — so the trace and the critical-path pricing still operate on the
//! original task granularity.

use crate::dag::{CholeskyDag, TaskKind};
use runtime::engine::{ExecObs, Observe, TaskEvent};
use runtime::graph::{DataRef, TaskGraph, TaskId, TaskSpec};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Smallest member count worth fusing. A "group" of one is left as an
/// ordinary task — fusing it would only rename it.
pub const MIN_GROUP: usize = 2;

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

impl PanelBatch {
    /// Per-batched-task execution ranks, projected from the original
    /// assignment (all members of a group share their rank by
    /// construction — the pass keys groups on it).
    pub fn exec_ranks(&self, exec_rank: &[usize]) -> Vec<usize> {
        self.members.iter().map(|m| exec_rank[m[0]]).collect()
    }
}

/// Fuse all `GEMM(k, ·, n)` tasks of each `(k, n)` trailing-panel column
/// into single batched tasks; every other task stays a singleton.
///
/// On distributed runs, pass the per-task `exec_rank` so groups split at
/// rank boundaries — members of one fused task must execute on one rank.
pub fn batch_panel_gemms(dag: &CholeskyDag, exec_rank: Option<&[usize]>) -> PanelBatch {
    let g = &dag.graph;
    let ntasks = g.len();
    let key_of = |t: TaskId| match dag.kinds[t] {
        TaskKind::Gemm { k, n, .. } => Some((k, n, exec_rank.map_or(0, |er| er[t]))),
        _ => None,
    };

    let mut by_key: HashMap<(usize, usize, usize), Vec<TaskId>> = HashMap::new();
    for t in 0..ntasks {
        if let Some(key) = key_of(t) {
            by_key.entry(key).or_default().push(t);
        }
    }

    // Emit batched tasks in order of their first member, so the contracted
    // graph (and everything keyed on its ids: schedulers, comm counting,
    // traces) is deterministic.
    let mut graph = TaskGraph::new();
    let mut members: Vec<Vec<TaskId>> = Vec::new();
    let mut of: Vec<TaskId> = vec![usize::MAX; ntasks];
    let mut fused_groups = 0usize;
    for t in 0..ntasks {
        if of[t] != usize::MAX {
            continue; // already emitted as a later member of its group
        }
        let group: Vec<TaskId> = match key_of(t) {
            Some(key) if by_key[&key].len() >= MIN_GROUP => by_key[&key].clone(),
            _ => vec![t],
        };
        let spec0 = g.spec(group[0]);
        let id = graph.add_task(TaskSpec {
            class: spec0.class,
            priority: spec0.priority,
            // A fused task writes one tile per member; `writes` names the
            // first, as the task's label. Every member puts its own tile
            // into the rank store, and the distributed engine ships each
            // outgoing edge's datum from there.
            writes: spec0.writes,
            flops: group.iter().map(|&m| g.spec(m).flops).sum(),
        });
        if group.len() > 1 {
            fused_groups += 1;
        }
        for &m in &group {
            of[m] = id;
        }
        members.push(group);
    }

    // Project the edges through the contraction. Intra-group edges cannot
    // exist (members are mutually independent) but are skipped defensively;
    // parallel edges carrying the same datum collapse to one.
    let mut seen: HashSet<(TaskId, TaskId, DataRef)> = HashSet::new();
    for s in 0..ntasks {
        for e in g.successors(s) {
            let (bs, bd) = (of[s], of[e.dst]);
            if bs != bd && seen.insert((bs, bd, e.data)) {
                graph.add_edge(bs, bd, e.data, e.bytes);
            }
        }
    }

    PanelBatch { graph, members, of, fused_groups }
}

/// Span-splitting [`Observe`] sink for batched execution.
///
/// The engine sees the contracted graph, so it reports *batched* task
/// ids against an [`ExecObs`] sized for the *original* graph. This
/// wrapper keeps the two granularities consistent:
///
/// * `Enqueue` of `b` fans out to every member — each original task became
///   ready exactly when its group did;
/// * `Retire` of a singleton `b` is that task's span, as the engine
///   read it; a fused group's is dropped, because
///   [`run_members`](BatchObs::run_members) already recorded one span
///   per member.
pub struct BatchObs<'a> {
    inner: Option<&'a ExecObs>,
    members: &'a [Vec<TaskId>],
}

impl<'a> BatchObs<'a> {
    /// Wrap an (optional) original-granularity recorder for a batched run.
    pub fn new(inner: Option<&'a ExecObs>, members: &'a [Vec<TaskId>]) -> Self {
        BatchObs { inner, members }
    }

    /// Run every member of batched task `b` through `run`, in order.
    /// Tracing a fused group reads the engine's clock once per member
    /// boundary, so consecutive member spans tile the group's span.
    pub fn run_members(&self, wid: usize, b: TaskId, mut run: impl FnMut(TaskId)) {
        let members = &self.members[b];
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
                for &task in &self.members[b] {
                    o.observe(TaskEvent::Enqueue { wid, task, at });
                }
            }
            TaskEvent::Retire { wid, task: b, start, end, .. } => {
                if let [t] = self.members[b][..] {
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
        let pb = batch_panel_gemms(&d, Some(&er));
        for group in &pb.members {
            let r0 = er[group[0]];
            assert!(group.iter().all(|&t| er[t] == r0), "group spans ranks");
        }
        let ranks = pb.exec_ranks(&er);
        assert_eq!(ranks.len(), pb.graph.len());
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
