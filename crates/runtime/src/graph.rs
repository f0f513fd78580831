//! Dataflow task graphs.
//!
//! Every engine reads a graph through [`Dataflow`], one task and one
//! successor list at a time: the work-stealing engine, the distributed
//! engine, the discrete-event simulator and the critical path. The tile
//! Cholesky graph is never laid out: its implicit task space
//! (`hicma_core::dag::CholeskySpace`) derives every task and successor
//! list on demand from the symbolic structure, as PaRSEC evaluates a
//! Parameterized Task Graph.
//!
//! Every graph keeps one rule: each edge runs from a lower task id to a
//! higher one, so id order is a topological order and no order is stored
//! or computed. It is also the one scheduling order: every engine takes
//! its ready work lowest id first. The Cholesky task space numbers its
//! tasks panel by panel, so id order puts the critical path's panel
//! first, and keeps the rule by construction; [`GraphBuilder::add_edge`]
//! asserts it.
//!
//! A [`TaskGraph`] is the one graph that is stored: built by hand through
//! a [`GraphBuilder`], it is how tests hand every engine a graph of any
//! shape (chains, diamonds, wide fan-outs). Each vertex carries its
//! kernel class and the tile it writes, but no price (costing a task is
//! the caller's model); each edge carries the number of bytes that flow
//! along it (zero for pure control dependencies). The graph is flat and read-only: one task table and one
//! edge array holding every successor list back to back (CSR), laid out
//! once, by [`GraphBuilder::finish`].

use serde::{Deserialize, Serialize};

/// Index of a task inside its graph.
pub type TaskId = usize;

/// Kernel classes of tile Cholesky (plus a catch-all for tests/extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskClass {
    /// Cholesky of a diagonal tile.
    Potrf,
    /// Triangular solve of a sub-diagonal tile against a factored diagonal.
    Trsm,
    /// Symmetric rank-k update of a diagonal tile.
    Syrk,
    /// Off-diagonal Schur update (the TLR recompression kernel).
    Gemm,
    /// Anything else (used by unit tests and auxiliary phases).
    Other,
}

impl TaskClass {
    /// Stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TaskClass::Potrf => "POTRF",
            TaskClass::Trsm => "TRSM",
            TaskClass::Syrk => "SYRK",
            TaskClass::Gemm => "GEMM",
            TaskClass::Other => "OTHER",
        }
    }
}

/// A reference to a datum (tile) for communication grouping: edges from the
/// same producer carrying the same datum to several consumers form one
/// broadcast, exactly like PaRSEC's collective dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataRef {
    /// Tile row index.
    pub i: usize,
    /// Tile column index.
    pub j: usize,
}

/// Everything the runtime needs to know about one task.
#[derive(Debug, Clone, Copy)]
pub struct TaskSpec {
    /// Kernel class (drives the per-class time breakdown).
    pub class: TaskClass,
    /// The tile this task overwrites (None for read-only/bookkeeping).
    pub writes: Option<DataRef>,
}

/// One dataflow edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Consumer task.
    pub dst: TaskId,
    /// The datum flowing along the edge (groups broadcasts).
    pub data: DataRef,
    /// Payload size in bytes (0 = control-only dependency).
    pub bytes: u64,
}

/// A task graph under construction: tasks and edges staged in the order
/// they are added, then laid out by [`finish`](GraphBuilder::finish).
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    specs: Vec<TaskSpec>,
    /// `(source, edge)` pairs in insertion order.
    edges: Vec<(TaskId, Edge)>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a task; returns its id.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// Insert a dataflow edge `src → dst` carrying `bytes` of datum `data`.
    /// Each task's successor list keeps the order its edges were added in.
    ///
    /// # Panics
    /// Panics if either id is out of range or `src >= dst`: every edge runs
    /// from a lower id to a higher one (see the module docs).
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, data: DataRef, bytes: u64) {
        assert!(src < self.specs.len() && dst < self.specs.len(), "edge endpoints must exist");
        assert_ne!(src, dst, "self-dependency");
        assert!(src < dst, "edge {src} → {dst} must run from a lower id to a higher one");
        self.edges.push((src, Edge { dst, data, bytes }));
    }

    /// Lay the staged edges out by source.
    pub fn finish(self) -> TaskGraph {
        let GraphBuilder { specs, edges: mut staged } = self;
        // Stable: each successor list keeps the order its edges were added in.
        staged.sort_by_key(|&(src, _)| src);
        let mut offsets = Vec::with_capacity(specs.len() + 1);
        let mut indegree = vec![0; specs.len()];
        let mut at = 0;
        for t in 0..specs.len() {
            offsets.push(at);
            while at < staged.len() && staged[at].0 == t {
                indegree[staged[at].1.dst] += 1;
                at += 1;
            }
        }
        offsets.push(at);
        let edges = staged.into_iter().map(|(_, e)| e).collect();
        TaskGraph { specs, offsets, edges, indegree }
    }
}

/// A directed dataflow graph of tasks, laid out flat (see the module
/// docs). Built by a [`GraphBuilder`].
#[derive(Debug)]
pub struct TaskGraph {
    specs: Vec<TaskSpec>,
    /// `edges[offsets[t]..offsets[t + 1]]` are task `t`'s outgoing edges.
    offsets: Vec<usize>,
    edges: Vec<Edge>,
    /// Number of incoming edges per task.
    indegree: Vec<usize>,
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Task metadata.
    pub fn spec(&self, id: TaskId) -> &TaskSpec {
        &self.specs[id]
    }

    /// Outgoing edges of a task, in the order they were added.
    pub fn successors(&self, id: TaskId) -> &[Edge] {
        &self.edges[self.offsets[id]..self.offsets[id + 1]]
    }
}

/// A task graph as every engine reads it: one task and one successor
/// list at a time. A [`TaskGraph`] serves it from its tables; an implicit
/// task space derives each answer from a symbolic description instead,
/// so the graph is never laid out.
///
/// Every edge runs from a lower id to a higher one, so `0..len()` is a
/// topological order: an engine that walks ids in order visits every
/// task after all of its predecessors, and no graph has a cycle. Id
/// order is also the scheduling order: every ready queue pops its lowest
/// id first.
pub trait Dataflow {
    /// Number of tasks.
    fn len(&self) -> usize;

    /// `true` when the graph has no tasks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Task `t`'s metadata.
    fn spec(&self, t: TaskId) -> TaskSpec;

    /// Every task's metadata, in id order: what [`spec`](Dataflow::spec)
    /// answers task by task, which a derived space may walk in one pass.
    fn specs(&self) -> impl Iterator<Item = TaskSpec> + '_ {
        (0..self.len()).map(|t| self.spec(t))
    }

    /// Every task's number of incoming edges, in id order.
    fn indegrees(&self) -> impl Iterator<Item = usize> + '_;

    /// Replace the contents of `out` with task `t`'s outgoing edges, in
    /// list order; every `dst` is greater than `t`.
    fn successors_into(&self, t: TaskId, out: &mut Vec<Edge>);
}

impl Dataflow for TaskGraph {
    fn len(&self) -> usize {
        self.specs.len()
    }

    fn spec(&self, t: TaskId) -> TaskSpec {
        self.specs[t]
    }

    fn indegrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.indegree.iter().copied()
    }

    fn successors_into(&self, t: TaskId, out: &mut Vec<Edge>) {
        out.clear();
        out.extend_from_slice(self.successors(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `edges` over `n` tasks, added in the order given.
    fn graph(n: usize, edges: &[(TaskId, TaskId)]) -> GraphBuilder {
        let mut g = GraphBuilder::new();
        for _ in 0..n {
            g.add_task(TaskSpec { class: TaskClass::Other, writes: None });
        }
        for &(s, d) in edges {
            g.add_edge(s, d, DataRef { i: s, j: d }, 8);
        }
        g
    }

    #[test]
    fn build_and_query() {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).finish();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.indegrees().eq([0, 1, 1, 2]));
        assert_eq!(g.successors(0).len(), 2);
        assert!(g.successors(3).is_empty());
    }

    #[test]
    fn successor_lists_keep_insertion_order() {
        // Edges added consumer by consumer, sources interleaved.
        let g = graph(5, &[(0, 4), (2, 4), (0, 3), (1, 3), (0, 2), (1, 2)]).finish();
        let dsts = |t| g.successors(t).iter().map(|e| e.dst).collect::<Vec<_>>();
        assert_eq!(dsts(0), vec![4, 3, 2]);
        assert_eq!(dsts(1), vec![3, 2]);
        assert_eq!(dsts(2), vec![4]);
        assert!(dsts(3).is_empty() && dsts(4).is_empty());
        assert_eq!(g.successors(1)[0].data, DataRef { i: 1, j: 3 });
    }

    /// The trait reads the same graph the tables hold.
    #[test]
    fn dataflow_reads_the_tables() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).finish();
        let mut out = vec![Edge { dst: 9, data: DataRef { i: 9, j: 9 }, bytes: 9 }];
        for t in 0..4 {
            Dataflow::successors_into(&g, t, &mut out);
            let dsts: Vec<_> = out.iter().map(|e| e.dst).collect();
            assert_eq!(dsts, g.successors(t).iter().map(|e| e.dst).collect::<Vec<_>>());
        }
        assert!(Dataflow::indegrees(&g).eq([0, 1, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "self-dependency")]
    fn self_edge_panics() {
        graph(1, &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "must run from a lower id to a higher one")]
    fn backward_edge_panics() {
        graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
    }
}
