//! Dataflow task graphs.
//!
//! A [`TaskGraph`] is the fully unrolled equivalent of a PaRSEC
//! Parameterized Task Graph: each vertex carries its kernel class, the tile
//! it writes, the tiles it reads, a flop count and a scheduling priority;
//! each edge carries the number of bytes that flow along it (zero for pure
//! control dependencies). The graph is built by the algorithm front-end
//! (`hicma-core`) for the shared-memory executor, and by hand for tests
//! of every engine.
//!
//! The graph is flat and read-only: one task table, one edge array holding
//! every successor list back to back (CSR), and a topological order fixed
//! once, when the edges are laid out. Consumers read the order in place
//! instead of sorting the graph again.
//!
//! A [`GraphLayout`] appends the tasks in id order, each with its whole
//! successor list, straight into the final tables: an emitter that knows
//! every task's successors (`build_cholesky_dag`) lays its graph out in
//! one pass. One that does not (hand-built graphs) stages its edges in a
//! [`GraphBuilder`], whose [`finish`](GraphBuilder::finish) groups them by
//! source and lays them out the same way.
//!
//! The discrete-event simulator, the distributed engine and the critical
//! path read a graph through [`Dataflow`], task by task: a [`TaskGraph`]
//! serves it from its tables, and an implicit task space
//! (`hicma_core::dag::CholeskySpace`) derives every task and successor
//! list on demand, so the graph it describes is never materialized.

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
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Kernel class (drives the per-class time breakdown).
    pub class: TaskClass,
    /// Panel index `k` of tile Cholesky — used as scheduling priority
    /// (lower `k` = closer to the critical path = higher priority).
    pub priority: usize,
    /// The tile this task overwrites (None for read-only/bookkeeping).
    pub writes: Option<DataRef>,
    /// Floating-point operations this task performs.
    pub flops: f64,
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
    pub fn finish(self) -> TaskGraph {
        let GraphBuilder { specs, edges: mut staged } = self;
        // Stable: each successor list keeps the order its edges were added in.
        staged.sort_by_key(|&(src, _)| src);
        let mut layout = GraphLayout::new(specs.len(), staged.len());
        let mut rest = &staged[..];
        for (t, spec) in specs.into_iter().enumerate() {
            let (list, tail) = rest.split_at(rest.partition_point(|&(src, _)| src == t));
            layout.push(spec, list.iter().map(|&(_, e)| e));
            rest = tail;
        }
        layout.finish()
    }
}

/// A graph laid out task by task in id order, each task pushed with its
/// whole successor list, straight into the final tables.
///
/// [`finish`](GraphLayout::finish) fixes the topological order. When every
/// edge runs from a lower id to a higher one — as in an emitter whose
/// tasks only feed later tasks — id order *is* the topological order and
/// nothing is sorted. Otherwise Kahn's algorithm orders the tasks once,
/// there; a graph with a cycle finishes without an order, and every
/// consumer that needs one reports it.
#[derive(Debug)]
pub struct GraphLayout {
    specs: Vec<TaskSpec>,
    offsets: Vec<usize>,
    edges: Vec<Edge>,
    indegree: Vec<usize>,
    ids_topological: bool,
}

impl GraphLayout {
    /// An empty layout of `tasks` tasks with room for `edges` edges.
    pub fn new(tasks: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(tasks + 1);
        offsets.push(0);
        GraphLayout {
            specs: Vec::with_capacity(tasks),
            offsets,
            edges: Vec::with_capacity(edges),
            indegree: vec![0; tasks],
            ids_topological: true,
        }
    }

    /// Append the next task and its outgoing edges, in list order.
    ///
    /// # Panics
    /// Panics if an edge points past the declared tasks or back at its
    /// own source.
    pub fn push(&mut self, spec: TaskSpec, successors: impl IntoIterator<Item = Edge>) {
        let src = self.specs.len();
        self.specs.push(spec);
        for e in successors {
            assert_ne!(src, e.dst, "self-dependency");
            self.indegree[e.dst] += 1;
            self.ids_topological &= src < e.dst;
            self.edges.push(e);
        }
        self.offsets.push(self.edges.len());
    }

    /// The graph, with its topological order fixed.
    ///
    /// # Panics
    /// Panics if the tasks pushed are not the tasks declared.
    pub fn finish(self) -> TaskGraph {
        let GraphLayout { specs, offsets, edges, indegree, ids_topological } = self;
        assert_eq!(specs.len(), indegree.len(), "one task pushed per declared task");
        let mut graph = TaskGraph { specs, offsets, edges, indegree, order: Order::Ids };
        if !ids_topological {
            graph.order = graph.kahn().map_or(Order::Cyclic, Order::Kahn);
        }
        graph
    }
}

/// A graph's topological order, fixed by [`GraphLayout::finish`].
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
/// docs). Built by a [`GraphLayout`] or a [`GraphBuilder`].
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

    /// In-degree of a task.
    pub fn indegree(&self, id: TaskId) -> usize {
        self.indegree[id]
    }

    /// Clone of the in-degree array (consumed by schedulers as a counter set).
    pub fn indegrees(&self) -> Vec<usize> {
        self.indegree.clone()
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        (0..self.len()).filter(|&t| self.indegree[t] == 0).collect()
    }

    /// The topological order fixed when the graph was built, read in
    /// place (walk it with `.rev()` for sinks first); `None` when the
    /// graph has a cycle. Id order whenever ids are already topological,
    /// as `build_cholesky_dag`'s are.
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
        let mut stack: Vec<TaskId> = self.sources();
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

    /// Count tasks per class (the paper's Fig. 5 right axis).
    pub fn class_counts(&self) -> [(TaskClass, usize); 5] {
        let mut counts = [
            (TaskClass::Potrf, 0),
            (TaskClass::Trsm, 0),
            (TaskClass::Syrk, 0),
            (TaskClass::Gemm, 0),
            (TaskClass::Other, 0),
        ];
        for s in &self.specs {
            let idx = match s.class {
                TaskClass::Potrf => 0,
                TaskClass::Trsm => 1,
                TaskClass::Syrk => 2,
                TaskClass::Gemm => 3,
                TaskClass::Other => 4,
            };
            counts[idx].1 += 1;
        }
        counts
    }

    /// Total flops over all tasks.
    pub fn total_flops(&self) -> f64 {
        self.specs.iter().map(|s| s.flops).sum()
    }
}

/// A task graph as the discrete-event simulator, the distributed engine
/// and the critical path read it: one task and one successor list at a
/// time. A
/// [`TaskGraph`] serves it from its tables; an implicit task space derives
/// each answer from a symbolic description instead, so the graph is never
/// laid out.
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
        self.specs[t].clone()
    }

    fn priority(&self, t: TaskId) -> usize {
        self.specs[t].priority
    }

    fn indegrees(&self) -> Vec<usize> {
        TaskGraph::indegrees(self)
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
        TaskSpec { class, priority, writes: None, flops: 1.0 }
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
        assert_eq!(g.indegree(3), 2);
        assert_eq!(g.sources(), vec![0]);
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

    #[test]
    fn class_counts_and_flops() {
        let mut g = GraphBuilder::new();
        g.add_task(spec(TaskClass::Potrf, 0));
        g.add_task(spec(TaskClass::Gemm, 1));
        g.add_task(spec(TaskClass::Gemm, 2));
        let g = g.finish();
        let counts = g.class_counts();
        assert_eq!(counts[0].1, 1); // POTRF
        assert_eq!(counts[3].1, 2); // GEMM
        assert_eq!(g.total_flops(), 3.0);
    }

    /// Pushing each task with its whole list lays out the graph the
    /// staging builder lays out from the same edges added in any order.
    #[test]
    fn pushed_lists_equal_staged_edges() {
        let edges = [(0, 4), (2, 4), (0, 3), (1, 3), (0, 2), (1, 2), (3, 2)];
        let staged = graph(5, &edges).finish();
        let mut layout = GraphLayout::new(5, edges.len());
        for t in 0..5 {
            let list = edges.iter().filter(|&&(s, _)| s == t);
            let list = list.map(|&(s, d)| Edge { dst: d, data: DataRef { i: s, j: d }, bytes: 8 });
            layout.push(spec(TaskClass::Other, 0), list);
        }
        let pushed = layout.finish();
        for t in 0..5 {
            let list =
                |g: &TaskGraph| g.successors(t).iter().map(|e| (e.dst, e.data)).collect::<Vec<_>>();
            assert_eq!(list(&pushed), list(&staged), "successors of {t}");
            assert_eq!(pushed.indegree(t), staged.indegree(t));
        }
        // The edge 3 → 2 runs high → low: both orders are Kahn's.
        assert_eq!(order_of(&pushed), order_of(&staged));
        assert_ne!(order_of(&pushed), vec![0, 1, 2, 3, 4]);
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
        assert_eq!(Dataflow::indegrees(&g), g.indegrees());
        assert_eq!(Dataflow::order(&g).unwrap().collect::<Vec<_>>(), order_of(&g));
    }

    #[test]
    #[should_panic(expected = "one task pushed per declared task")]
    fn finishing_short_of_the_declared_tasks_panics() {
        let mut layout = GraphLayout::new(2, 0);
        layout.push(spec(TaskClass::Other, 0), []);
        layout.finish();
    }

    #[test]
    #[should_panic]
    fn self_edge_panics() {
        let mut g = GraphBuilder::new();
        g.add_task(spec(TaskClass::Other, 0));
        g.add_edge(0, 0, DataRef { i: 0, j: 0 }, 0);
    }
}
