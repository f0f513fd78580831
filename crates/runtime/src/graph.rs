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
//! A [`TaskGraph`] is the one graph that is stored: built by hand through
//! a [`GraphBuilder`], it is how tests hand every engine a graph of any
//! shape (shuffled ids, cycles, wide fan-outs). Each vertex carries its
//! kernel class, the tile it writes and a scheduling priority, but no
//! price (costing a task is the caller's model); each edge carries the
//! number of bytes that flow along it (zero for pure control
//! dependencies). The graph is flat and read-only:
//! one task table, one edge array holding every successor list back to
//! back (CSR), and a topological order fixed once, by
//! [`GraphBuilder::finish`].

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
    /// Panel index `k` of tile Cholesky — used as scheduling priority
    /// (lower `k` = closer to the critical path = higher priority).
    pub priority: usize,
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
    /// Panics if either id is out of range or `src == dst`.
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, data: DataRef, bytes: u64) {
        assert!(src < self.specs.len() && dst < self.specs.len(), "edge endpoints must exist");
        assert_ne!(src, dst, "self-dependency");
        self.edges.push((src, Edge { dst, data, bytes }));
    }

    /// Lay the staged edges out by source and fix the topological order.
    ///
    /// When every edge runs from a lower id to a higher one, id order *is*
    /// the topological order and nothing is sorted. Otherwise Kahn's
    /// algorithm orders the tasks once, here; a graph with a cycle
    /// finishes without an order, and every consumer that needs one
    /// reports it.
    pub fn finish(self) -> TaskGraph {
        let GraphBuilder { specs, edges: mut staged } = self;
        // Stable: each successor list keeps the order its edges were added in.
        staged.sort_by_key(|&(src, _)| src);
        let mut offsets = Vec::with_capacity(specs.len() + 1);
        let mut indegree = vec![0; specs.len()];
        let mut ids_topological = true;
        let mut at = 0;
        for t in 0..specs.len() {
            offsets.push(at);
            while at < staged.len() && staged[at].0 == t {
                let dst = staged[at].1.dst;
                indegree[dst] += 1;
                ids_topological &= t < dst;
                at += 1;
            }
        }
        offsets.push(at);
        let edges = staged.into_iter().map(|(_, e)| e).collect();
        let mut graph = TaskGraph { specs, offsets, edges, indegree, order: Order::Ids };
        if !ids_topological {
            graph.order = graph.kahn().map_or(Order::Cyclic, Order::Kahn);
        }
        graph
    }
}

/// A graph's topological order, fixed by [`GraphBuilder::finish`].
#[derive(Debug)]
enum Order {
    /// Every edge runs from a lower id to a higher one.
    Ids,
    /// Ids are not topological; Kahn's order.
    Kahn(Vec<TaskId>),
    /// The graph has a cycle (a front-end bug).
    Cyclic,
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
    order: Order,
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

    /// The topological order fixed when the graph was built, read in
    /// place (walk it with `.rev()` for sinks first); `None` when the
    /// graph has a cycle. Id order whenever ids are already topological.
    pub fn order(&self) -> Option<impl DoubleEndedIterator<Item = TaskId> + '_> {
        // One of the two halves is empty: ids, or the stored Kahn order.
        let (ids, kahn): (_, &[TaskId]) = match &self.order {
            Order::Ids => (0..self.len(), &[]),
            Order::Kahn(order) => (0..0, order),
            Order::Cyclic => return None,
        };
        Some(ids.chain(kahn.iter().copied()))
    }

    /// Kahn's algorithm with a LIFO ready stack seeded in id order;
    /// `None` on a cycle.
    fn kahn(&self) -> Option<Vec<TaskId>> {
        let mut indeg = self.indegree.clone();
        let mut order = Vec::with_capacity(self.len());
        let mut stack: Vec<TaskId> = (0..self.len()).filter(|&t| indeg[t] == 0).collect();
        while let Some(t) = stack.pop() {
            order.push(t);
            for e in self.successors(t) {
                indeg[e.dst] -= 1;
                if indeg[e.dst] == 0 {
                    stack.push(e.dst);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }
}

/// A task graph as every engine reads it: one task and one successor
/// list at a time. A [`TaskGraph`] serves it from its tables; an implicit
/// task space derives each answer from a symbolic description instead,
/// so the graph is never laid out.
pub trait Dataflow {
    /// Number of tasks.
    fn len(&self) -> usize;

    /// `true` when the graph has no tasks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Task `t`'s metadata.
    fn spec(&self, t: TaskId) -> TaskSpec;

    /// Task `t`'s scheduling priority, `spec(t).priority`.
    fn priority(&self, t: TaskId) -> usize {
        self.spec(t).priority
    }

    /// Every task's metadata, in id order: what [`spec`](Dataflow::spec)
    /// answers task by task, which a derived space may walk in one pass.
    fn specs(&self) -> impl Iterator<Item = TaskSpec> + '_ {
        (0..self.len()).map(|t| self.spec(t))
    }

    /// Every task's number of incoming edges, in id order.
    fn indegrees(&self) -> Vec<usize>;

    /// Replace the contents of `out` with task `t`'s outgoing edges, in
    /// list order.
    fn successors_into(&self, t: TaskId, out: &mut Vec<Edge>);

    /// A topological order (walk it with `.rev()` for sinks first);
    /// `None` when the graph has a cycle.
    fn order(&self) -> Option<impl DoubleEndedIterator<Item = TaskId> + '_>;
}

impl Dataflow for TaskGraph {
    fn len(&self) -> usize {
        self.specs.len()
    }

    fn spec(&self, t: TaskId) -> TaskSpec {
        self.specs[t]
    }

    fn priority(&self, t: TaskId) -> usize {
        self.specs[t].priority
    }

    fn indegrees(&self) -> Vec<usize> {
        self.indegree.clone()
    }

    fn successors_into(&self, t: TaskId, out: &mut Vec<Edge>) {
        out.clear();
        out.extend_from_slice(self.successors(t));
    }

    fn order(&self) -> Option<impl DoubleEndedIterator<Item = TaskId> + '_> {
        TaskGraph::order(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(class: TaskClass, priority: usize) -> TaskSpec {
        TaskSpec { class, priority, writes: None }
    }

    /// `edges` over `n` tasks, added in the order given.
    fn graph(n: usize, edges: &[(TaskId, TaskId)]) -> GraphBuilder {
        let mut g = GraphBuilder::new();
        for _ in 0..n {
            g.add_task(spec(TaskClass::Other, 0));
        }
        for &(s, d) in edges {
            g.add_edge(s, d, DataRef { i: s, j: d }, 8);
        }
        g
    }

    fn order_of(g: &TaskGraph) -> Vec<TaskId> {
        g.order().expect("acyclic").collect()
    }

    #[test]
    fn build_and_query() {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).finish();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.indegrees(), vec![0, 1, 1, 2]);
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

    #[test]
    fn topological_ids_are_the_order() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).finish();
        assert_eq!(order_of(&g), vec![0, 1, 2, 3]);
        assert_eq!(g.order().unwrap().rev().collect::<Vec<_>>(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn shuffled_ids_get_a_kahn_order() {
        // 3 → 1 → 0, 3 → 2 → 0: no edge runs from a lower id to a higher.
        let g = graph(4, &[(3, 1), (3, 2), (1, 0), (2, 0)]).finish();
        let order = order_of(&g);
        let mut pos = [0; 4];
        for (idx, &t) in order.iter().enumerate() {
            pos[t] = idx;
        }
        assert!(pos[3] < pos[1] && pos[3] < pos[2]);
        assert!(pos[1] < pos[0] && pos[2] < pos[0]);
    }

    #[test]
    fn cycle_has_no_order() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]).finish();
        assert!(g.order().is_none());
        assert_eq!(g.num_edges(), 5, "a cyclic graph is still laid out");
    }

    #[test]
    fn empty_graph_has_an_empty_order() {
        let g = GraphBuilder::new().finish();
        assert!(g.is_empty());
        assert_eq!(g.order().expect("acyclic").count(), 0);
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
        assert_eq!(Dataflow::indegrees(&g), vec![0, 1, 1, 2]);
        assert_eq!(Dataflow::order(&g).unwrap().collect::<Vec<_>>(), order_of(&g));
    }

    #[test]
    #[should_panic]
    fn self_edge_panics() {
        let mut g = GraphBuilder::new();
        g.add_task(spec(TaskClass::Other, 0));
        g.add_edge(0, 0, DataRef { i: 0, j: 0 }, 0);
    }
}
