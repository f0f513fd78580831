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
//! Every graph keeps two rules. Each edge runs from a lower task id to a
//! higher one, so id order is a topological order and no order is stored
//! or computed. It is also the one scheduling order: every engine takes
//! its ready work lowest id first. The Cholesky task space numbers its
//! tasks panel by panel, so id order puts the critical path's panel
//! first, and keeps the rule by construction; [`GraphBuilder::add_edge`]
//! asserts it. And each task has one output, as each task class of the
//! paper's PTG has one output flow: the tile it writes
//! ([`TaskSpec::writes`]), [`TaskSpec::bytes`] long, which every one of
//! its successors reads. An edge is just producer → consumer; what it
//! carries is the producer's, so a task's remote consumers form one
//! broadcast.
//!
//! A [`TaskGraph`] is the one graph that is stored: built by hand through
//! a [`GraphBuilder`], it is how tests hand every engine a graph of any
//! shape (chains, diamonds, wide fan-outs). Each vertex carries its
//! kernel class and its output, but no price (costing a task is the
//! caller's model). The graph is flat and read-only: one task table and
//! one array holding every successor list back to back (CSR), laid out
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

/// A reference to a datum (tile): the output of the tasks that write it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataRef {
    /// Tile row index.
    pub i: usize,
    /// Tile column index.
    pub j: usize,
}

/// Everything the runtime needs to know about one task: its class and
/// its one output, which every successor reads.
#[derive(Debug, Clone, Copy)]
pub struct TaskSpec {
    /// Kernel class (drives the per-class time breakdown).
    pub class: TaskClass,
    /// The tile this task overwrites (None for read-only/bookkeeping).
    pub writes: Option<DataRef>,
    /// Payload size of that tile in bytes (0: the task's edges are
    /// control-only dependencies).
    pub bytes: u64,
}

/// A task graph under construction: tasks and edges staged in the order
/// they are added, then laid out by [`finish`](GraphBuilder::finish).
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    specs: Vec<TaskSpec>,
    /// `(source, consumer)` pairs in insertion order.
    edges: Vec<(TaskId, TaskId)>,
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

    /// Insert a dataflow edge `src → dst`: `dst` reads `src`'s output.
    /// Each task's successor list keeps the order its edges were added in.
    ///
    /// # Panics
    /// Panics if either id is out of range or `src >= dst`: every edge runs
    /// from a lower id to a higher one (see the module docs).
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId) {
        assert!(src < self.specs.len() && dst < self.specs.len(), "edge endpoints must exist");
        assert_ne!(src, dst, "self-dependency");
        assert!(src < dst, "edge {src} → {dst} must run from a lower id to a higher one");
        self.edges.push((src, dst));
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
                indegree[staged[at].1] += 1;
                at += 1;
            }
        }
        offsets.push(at);
        let successors = staged.into_iter().map(|(_, dst)| dst).collect();
        TaskGraph { specs, offsets, successors, indegree }
    }
}

/// A directed dataflow graph of tasks, laid out flat (see the module
/// docs). Built by a [`GraphBuilder`].
#[derive(Debug)]
pub struct TaskGraph {
    specs: Vec<TaskSpec>,
    /// `successors[offsets[t]..offsets[t + 1]]` are task `t`'s consumers.
    offsets: Vec<usize>,
    successors: Vec<TaskId>,
    /// Number of incoming edges per task.
    indegree: Vec<usize>,
}

impl TaskGraph {
    /// The consumers of a task's output, in the order their edges were
    /// added.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.successors[self.offsets[id]..self.offsets[id + 1]]
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
///
/// Every task has one output, its spec's `writes` and `bytes`: each
/// successor reads it, so an edge carries nothing of its own.
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

    /// Replace the contents of `out` with the consumers of task `t`'s
    /// output, in list order, and return `t`'s spec, whose output they
    /// all read; every consumer is greater than `t`.
    fn successors_into(&self, t: TaskId, out: &mut Vec<TaskId>) -> TaskSpec;
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

    fn successors_into(&self, t: TaskId, out: &mut Vec<TaskId>) -> TaskSpec {
        out.clear();
        out.extend_from_slice(self.successors(t));
        self.specs[t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `edges` over `n` tasks, added in the order given; task `t` writes
    /// tile `(t, 0)`, 8 bytes.
    fn graph(n: usize, edges: &[(TaskId, TaskId)]) -> GraphBuilder {
        let mut g = GraphBuilder::new();
        for t in 0..n {
            let writes = Some(DataRef { i: t, j: 0 });
            g.add_task(TaskSpec { class: TaskClass::Other, writes, bytes: 8 });
        }
        for &(s, d) in edges {
            g.add_edge(s, d);
        }
        g
    }

    #[test]
    fn build_and_query() {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).finish();
        assert_eq!(g.len(), 4);
        assert!(g.indegrees().eq([0, 1, 1, 2]));
        assert_eq!(g.successors(0), [1, 2]);
        assert!(g.successors(3).is_empty());
    }

    #[test]
    fn successor_lists_keep_insertion_order() {
        // Edges added consumer by consumer, sources interleaved.
        let g = graph(5, &[(0, 4), (2, 4), (0, 3), (1, 3), (0, 2), (1, 2)]).finish();
        assert_eq!(g.successors(0), [4, 3, 2]);
        assert_eq!(g.successors(1), [3, 2]);
        assert_eq!(g.successors(2), [4]);
        assert!(g.successors(3).is_empty() && g.successors(4).is_empty());
    }

    /// The trait reads the same graph the tables hold, and each list
    /// comes with its producer's output.
    #[test]
    fn dataflow_reads_the_tables() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).finish();
        let mut out = vec![9];
        for t in 0..4 {
            let spec = Dataflow::successors_into(&g, t, &mut out);
            assert_eq!(out, g.successors(t));
            assert_eq!((spec.writes, spec.bytes), (Some(DataRef { i: t, j: 0 }), 8));
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
