//! Scheduling policies for the ready queues, and the one planner that
//! turns a policy into a schedule.
//!
//! PaRSEC ships several node-level schedulers (local LIFO queues,
//! priority-based, hierarchical). The policy decides which ready task a
//! core picks next; with tile Cholesky the choice matters because work
//! off the critical path can starve the panel chain:
//!
//! * [`SchedPolicy::PanelPriority`] — the paper's effective policy:
//!   lower panel index first (tasks carry `k` as their priority);
//! * [`SchedPolicy::Fifo`] / [`SchedPolicy::Lifo`] — insertion-order
//!   baselines (approximated statically by creation order);
//! * [`SchedPolicy::UpwardRank`] — HEFT-style: longest remaining path to
//!   a sink first (the strongest critical-path heuristic, at the cost of
//!   a full graph traversal);
//! * [`SchedPolicy::CommAwareUpwardRank`] — upward rank that also prices
//!   cross-process edges (latency + bytes/bandwidth), fixing the
//!   comm-blind misranking of chains that cross ranks;
//! * [`SchedPolicy::RankAwareLookahead`] — a *dynamic* critical-path
//!   policy: per-kernel cost estimates from a [`CostModel`] (rank-aware
//!   GEMM pricing via a [`RankProfile`] built from measured
//!   `RankEvolution` histograms), corrected online by an EMA over the
//!   measured/predicted ratio per task class.
//!
//! # One planner, three doors
//!
//! Scheduling is decided *before* the run and handed to an engine that
//! only executes it. [`SchedPlan::build`] is the only place a policy
//! becomes a schedule; what differs between engines is the [`Pricing`]
//! they can offer and how they consume the plan:
//!
//! | door | pricing | consumed as |
//! |---|---|---|
//! | shared-memory [`Engine`](crate::engine::Engine) | planned flops at 1 Gflop/s, no placement | [`SchedPlan::instantiate`] |
//! | DES ([`crate::des`]) | modeled durations, rank-aware [`CostModel`], task→process map + machine link | [`SchedPlan::instantiate`] |
//! | [`DistEngine`](crate::engine::DistEngine) | planned flops at 1 Gflop/s, task→rank map + [`CommCosts::NOMINAL`] | [`SchedPlan::topo_order`] |
//!
//! A door that cannot supply what a policy needs runs a weaker policy
//! instead. This table ([`SchedPolicy::effective`]) is the only place
//! that happens:
//!
//! | requested | shared | DES | distributed order |
//! |---|---|---|---|
//! | `CommAwareUpwardRank` | `UpwardRank` (no placement) | itself | itself |
//! | `RankAwareLookahead` | itself, priced from flops | itself, priced from the `CostModel` | `UpwardRank` (a fixed order cannot learn) |
//! | the other four | itself | itself | itself |
//!
//! An instantiated plan is a [`Scheduler`] (the dslab-dag callback
//! design): the engine calls [`Scheduler::on_task_ready`] when a task
//! becomes ready (the returned key orders the ready queues, **smaller =
//! sooner**) and [`Scheduler::on_task_finished`] when a task retires
//! with a measured duration, which is what lets the lookahead learn.

use crate::engine::EngineError;
use crate::graph::{TaskClass, TaskGraph, TaskId, TaskSpec};
use crate::machine::MachineModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ready-queue ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Lower `TaskSpec::priority` first (panel index — the default).
    #[default]
    PanelPriority,
    /// Creation order (oldest first).
    Fifo,
    /// Reverse creation order (youngest first).
    Lifo,
    /// Largest upward rank (longest remaining dependency chain) first.
    UpwardRank,
    /// Upward rank including a per-edge communication term on
    /// cross-process edges; needs a placement ([`Pricing::placement`]).
    CommAwareUpwardRank,
    /// Dynamic rank-aware critical-path lookahead: static upward ranks
    /// from a per-task cost, with an online per-class EMA correction
    /// from measured task durations.
    RankAwareLookahead,
}

impl SchedPolicy {
    /// All policies, for ablation sweeps.
    pub const ALL: [SchedPolicy; 6] = [
        SchedPolicy::PanelPriority,
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::UpwardRank,
        SchedPolicy::CommAwareUpwardRank,
        SchedPolicy::RankAwareLookahead,
    ];

    /// Stable human-readable name (used in bench tables/JSON).
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::PanelPriority => "panel-priority",
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Lifo => "lifo",
            SchedPolicy::UpwardRank => "upward-rank",
            SchedPolicy::CommAwareUpwardRank => "comm-upward-rank",
            SchedPolicy::RankAwareLookahead => "rank-lookahead",
        }
    }

    /// The policy a door actually runs when this one is requested — the
    /// degradation table of the module docs. `has_placement`: the
    /// pricing maps tasks to processes; `as_order`: the plan is consumed
    /// as a fixed [`SchedPlan::topo_order`] rather than instantiated.
    pub fn effective(self, has_placement: bool, as_order: bool) -> SchedPolicy {
        match self {
            SchedPolicy::CommAwareUpwardRank if !has_placement => SchedPolicy::UpwardRank,
            SchedPolicy::RankAwareLookahead if as_order => SchedPolicy::UpwardRank,
            p => p,
        }
    }
}

/// Scheduling callbacks (dslab-dag style), consulted by both execution
/// engines.
///
/// * [`on_task_ready`](Scheduler::on_task_ready) fires when a task's
///   last dependency is satisfied; the returned key decides its ready
///   queue position — **smaller key = scheduled first**. Keys must be
///   finite; the engines reject non-finite keys with
///   [`EngineError::NonFiniteKey`] instead of panicking inside a sort.
/// * [`on_task_finished`](Scheduler::on_task_finished) fires when a task
///   retires, with its measured (or simulated) duration in seconds —
///   the feedback channel a dynamic policy learns from. The default is
///   a no-op, which is what every static policy wants.
pub trait Scheduler: Send {
    /// Price a task that just became ready (smaller = sooner).
    fn on_task_ready(&mut self, task: TaskId, graph: &TaskGraph) -> f64;

    /// Observe a finished task and its measured duration in seconds.
    fn on_task_finished(&mut self, _task: TaskId, _graph: &TaskGraph, _measured_s: f64) {}

    /// The per-class measured/modeled correction factors this policy has
    /// learned (slot order Potrf/Trsm/Syrk/Gemm/Other), or `None` for
    /// policies that don't calibrate. The engine publishes these into
    /// the metrics registry at end of run so drift reports can inspect
    /// the EMA state.
    fn class_corrections(&self) -> Option<[f64; 5]> {
        None
    }
}

/// Validate a key table: every key must be finite or the engines would
/// panic inside their ordered queues.
fn validate_keys(keys: &[f64]) -> Result<(), EngineError> {
    for (t, &k) in keys.iter().enumerate() {
        if !k.is_finite() {
            return Err(EngineError::NonFiniteKey { task: t, key: k });
        }
    }
    Ok(())
}

/// A static policy instantiated: the plan's validated key table.
struct StaticScheduler<'a> {
    keys: &'a [f64],
}

impl Scheduler for StaticScheduler<'_> {
    fn on_task_ready(&mut self, task: TaskId, _graph: &TaskGraph) -> f64 {
        self.keys[task]
    }
}

/// Link parameters pricing a cross-process edge.
#[derive(Debug, Clone, Copy)]
pub struct CommCosts {
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Link bandwidth in bytes/second.
    pub bandwidth_bps: f64,
}

impl CommCosts {
    /// The link of an engine that has no machine model: 1 GB/s, no
    /// latency — the counterpart of [`Pricing::nominal`]'s 1 Gflop/s.
    pub const NOMINAL: CommCosts = CommCosts { latency_s: 0.0, bandwidth_bps: 1e9 };

    /// Extract the link parameters of a machine model.
    pub fn from_machine(m: &MachineModel) -> Self {
        Self { latency_s: m.latency_s, bandwidth_bps: m.bandwidth_bps }
    }

    /// Transfer seconds of one `bytes`-byte edge crossing processes.
    pub fn edge_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// What a door knows about cost when it asks for a plan.
pub struct Pricing<'a> {
    /// Per-task cost estimate in seconds (only relative magnitudes
    /// matter for ordering; the lookahead's online correction works best
    /// in seconds-like units).
    pub cost: Box<dyn Fn(TaskId) -> f64 + 'a>,
    /// Rank-aware kernel pricing for the lookahead policy's base costs;
    /// without one the lookahead prices from `cost`.
    pub model: Option<&'a CostModel>,
    /// Where each task runs and what a cross-process edge costs.
    pub placement: Option<(&'a [usize], CommCosts)>,
}

impl<'a> Pricing<'a> {
    /// The pricing of an engine that has no machine model: planned flops
    /// at a nominal 1 Gflop/s, no placement.
    pub fn nominal(graph: &'a TaskGraph) -> Self {
        Pricing { cost: Box::new(move |t| graph.spec(t).flops * 1e-9), model: None, placement: None }
    }

    /// Add a task→process map and the cost of crossing it.
    pub fn placed(mut self, proc_of: &'a [usize], comm: CommCosts) -> Self {
        self.placement = Some((proc_of, comm));
        self
    }
}

/// Static sort key per task: **smaller key = scheduled first**.
///
/// The upward-rank family is the classical HEFT formulation with a fixed
/// mapping:
///
/// `upward[t] = cost(t) + max over edges e of (comm(e) + upward[e.dst])`
///
/// with `comm(e) = latency + bytes/bandwidth` iff a placement is given
/// and puts the endpoints on different processes, else 0. Comm-blind
/// ranking lets a short chain whose edges cross processes (and pay the
/// transfer before the successor can start) lose to a longer purely-local
/// chain even when the crossing chain bounds the makespan.
fn queue_keys(
    graph: &TaskGraph,
    cost: &dyn Fn(TaskId) -> f64,
    policy: SchedPolicy,
    placement: Option<(&[usize], CommCosts)>,
) -> Result<Vec<f64>, EngineError> {
    let n = graph.len();
    Ok(match policy {
        SchedPolicy::PanelPriority => (0..n).map(|t| graph.spec(t).priority as f64).collect(),
        SchedPolicy::Fifo => (0..n).map(|t| t as f64).collect(),
        SchedPolicy::Lifo => (0..n).map(|t| (n - t) as f64).collect(),
        SchedPolicy::UpwardRank
        | SchedPolicy::CommAwareUpwardRank
        | SchedPolicy::RankAwareLookahead => {
            let order = graph.order().ok_or(EngineError::Cycle)?;
            let mut upward = vec![0.0_f64; n];
            for t in order.rev() {
                let mut best = 0.0_f64;
                for e in graph.successors(t) {
                    let c = match placement {
                        Some((proc_of, comm)) if proc_of[t] != proc_of[e.dst] => {
                            comm.edge_time(e.bytes)
                        }
                        _ => 0.0,
                    };
                    best = best.max(c + upward[e.dst]);
                }
                upward[t] = cost(t) + best;
            }
            // larger upward rank ⇒ smaller key
            upward.into_iter().map(|u| -u).collect()
        }
    })
}

/// Distribution of recompression output ranks, the signal behind
/// rank-aware cost estimates.
///
/// Built from a measured `RankEvolution` output-rank histogram
/// (`histogram()[k]` = recompressions kept at rank `k`) — the runtime
/// crate cannot depend on `tlr-compress`, so callers hand over the raw
/// bin counts. `fallback_rank` is used when the histogram is empty
/// (e.g. a run that never recompressed): typically the tile size, i.e.
/// the dense assumption the rank-blind policies silently make.
#[derive(Debug, Clone)]
pub struct RankProfile {
    hist: Vec<u64>,
    fallback_rank: usize,
}

impl RankProfile {
    /// Wrap an output-rank histogram (`hist[k]` = events at rank `k`).
    pub fn from_histogram(hist: &[u64], fallback_rank: usize) -> Self {
        Self { hist: hist.to_vec(), fallback_rank }
    }

    /// A degenerate profile pinned at one rank.
    pub fn uniform(rank: usize) -> Self {
        Self { hist: Vec::new(), fallback_rank: rank }
    }

    /// Mean observed output rank (the `fallback_rank` when no events).
    pub fn expected_rank(&self) -> f64 {
        let events: u64 = self.hist.iter().sum();
        if events == 0 {
            return self.fallback_rank as f64;
        }
        let weighted: f64 =
            self.hist.iter().enumerate().map(|(k, &c)| k as f64 * c as f64).sum();
        weighted / events as f64
    }
}

/// Per-kernel cost estimates for the lookahead policy: a machine model
/// plus the expected operating rank from a [`RankProfile`].
///
/// The point (H2OPUS-TLR's observation) is that TLR GEMMs run far below
/// the dense rate at low rank, so a cost model pricing every flop at
/// the dense rate misorders the critical path. GEMM/SYRK updates are
/// priced at `core_time(flops, expected_rank)`; the panel kernels
/// (POTRF/TRSM) operate on dense diagonal blocks and keep the dense
/// rate.
#[derive(Debug, Clone)]
pub struct CostModel {
    machine: MachineModel,
    expected_rank: usize,
}

impl CostModel {
    /// Combine a machine model with a measured rank profile.
    pub fn from_machine(machine: &MachineModel, profile: &RankProfile) -> Self {
        Self {
            machine: machine.clone(),
            expected_rank: profile.expected_rank().round().max(1.0) as usize,
        }
    }

    /// The rank the model prices low-rank updates at.
    pub fn expected_rank(&self) -> usize {
        self.expected_rank
    }

    /// Predicted seconds for a task, given its class and planned flops.
    pub fn task_cost(&self, spec: &TaskSpec) -> f64 {
        if spec.flops == 0.0 {
            return 0.0;
        }
        match spec.class {
            TaskClass::Gemm | TaskClass::Syrk => {
                self.machine.core_time(spec.flops, self.expected_rank)
            }
            _ => self.machine.dense_kernel_time(spec.flops),
        }
    }
}

fn class_index(class: TaskClass) -> usize {
    match class {
        TaskClass::Potrf => 0,
        TaskClass::Trsm => 1,
        TaskClass::Syrk => 2,
        TaskClass::Gemm => 3,
        TaskClass::Other => 4,
    }
}

/// EMA weight of each new measured/predicted observation in
/// [`LookaheadScheduler`].
const EMA_ALPHA: f64 = 0.2;

/// [`SchedPolicy::RankAwareLookahead`] instantiated.
///
/// The plan holds static upward ranks from a per-task cost estimate. At
/// run time every [`on_task_finished`](Scheduler::on_task_finished)
/// updates a per-class exponential moving average of the
/// measured/predicted ratio, and
/// [`on_task_ready`](Scheduler::on_task_ready) prices a task as
///
/// `key = -(corr[class] · cost[t] + downstream[t])`
///
/// so systematic misprediction of one kernel class (the exact failure
/// mode of a rank-blind model on TLR GEMMs) is corrected while the run
/// is still going. The downstream term stays static — a first-order
/// correction, which is all a priority needs. The corrections start at
/// the identity on every run: the tables stay with the plan, the online
/// state is per-run by design.
struct LookaheadScheduler<'a> {
    base_cost: &'a [f64],
    downstream: &'a [f64],
    class_corr: [f64; 5],
}

/// The lookahead's static tables: per-task base cost and the longest
/// downstream span below each task.
fn lookahead_tables(
    graph: &TaskGraph,
    cost: &dyn Fn(TaskId) -> f64,
) -> Result<(Vec<f64>, Vec<f64>), EngineError> {
    let n = graph.len();
    let base_cost: Vec<f64> = (0..n).map(cost).collect();
    validate_keys(&base_cost)?;
    let order = graph.order().ok_or(EngineError::Cycle)?;
    let mut downstream = vec![0.0_f64; n];
    for t in order.rev() {
        let mut best = 0.0_f64;
        for e in graph.successors(t) {
            best = best.max(base_cost[e.dst] + downstream[e.dst]);
        }
        downstream[t] = best;
    }
    validate_keys(&downstream)?;
    Ok((base_cost, downstream))
}

impl Scheduler for LookaheadScheduler<'_> {
    fn on_task_ready(&mut self, task: TaskId, graph: &TaskGraph) -> f64 {
        let corr = self.class_corr[class_index(graph.spec(task).class)];
        -(corr * self.base_cost[task] + self.downstream[task])
    }

    fn on_task_finished(&mut self, task: TaskId, graph: &TaskGraph, measured_s: f64) {
        let predicted = self.base_cost[task];
        if predicted <= 0.0 || measured_s <= 0.0 || !measured_s.is_finite() {
            return; // zero-cost tasks and clock glitches carry no signal
        }
        let idx = class_index(graph.spec(task).class);
        let ratio = measured_s / predicted;
        self.class_corr[idx] = (1.0 - EMA_ALPHA) * self.class_corr[idx] + EMA_ALPHA * ratio;
    }

    fn class_corrections(&self) -> Option<[f64; 5]> {
        Some(self.class_corr)
    }
}

/// `f64` wrapper ordered by `total_cmp`, for use inside `BinaryHeap`
/// (never panics, unlike `partial_cmp().unwrap()` on NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KeyOrd(pub(crate) f64);

impl Eq for KeyOrd {}

impl PartialOrd for KeyOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Priority-driven topological order: Kahn's algorithm with the ready
/// set kept in a priority queue keyed by `(keys[t], t)`, smaller first.
/// Always a valid topological order; `None` on a cyclic graph.
fn priority_topo_order(graph: &TaskGraph, keys: &[f64]) -> Option<Vec<TaskId>> {
    let n = graph.len();
    assert_eq!(keys.len(), n, "one key per task");
    let mut indegree = graph.indegrees();
    let mut heap: BinaryHeap<Reverse<(KeyOrd, TaskId)>> = (0..n)
        .filter(|&t| indegree[t] == 0)
        .map(|t| Reverse((KeyOrd(keys[t]), t)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, t))) = heap.pop() {
        order.push(t);
        for e in graph.successors(t) {
            indegree[e.dst] -= 1;
            if indegree[e.dst] == 0 {
                heap.push(Reverse((KeyOrd(keys[e.dst]), e.dst)));
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// A policy turned into a schedule for one task graph — the scheduler
/// slice of a symbolic plan.
///
/// Built once ([`SchedPlan::build`] prices every task and, for the
/// upward-rank family, walks the whole graph) and consumed any number of
/// times: [`instantiate`](SchedPlan::instantiate) is O(tasks) with no
/// graph traversal, which is what lets a cached plan skip the symbolic
/// phase entirely.
#[derive(Debug, Clone)]
pub struct SchedPlan {
    policy: SchedPolicy,
    tables: Tables,
}

#[derive(Debug, Clone)]
enum Tables {
    /// One validated key per task.
    Keys(Vec<f64>),
    /// The lookahead's (base cost, downstream span) per task.
    Lookahead(Vec<f64>, Vec<f64>),
}

impl SchedPlan {
    /// Plan `policy` over `graph` with what `pricing` knows — the only
    /// policy→schedule translation in the tree (see the module docs for
    /// the doors and the degradation table).
    ///
    /// # Errors
    ///
    /// [`EngineError::RankMapLength`] when the placement does not map
    /// every task, [`EngineError::NonFiniteKey`] when a cost or key is
    /// NaN or infinite, and [`EngineError::Cycle`] from the upward-rank
    /// family, which walks the graph. The three static policies never do:
    /// under them a cyclic graph is caught by the consumer
    /// ([`SchedPlan::topo_order`], or the engine's own check).
    pub fn build(
        graph: &TaskGraph,
        policy: SchedPolicy,
        pricing: &Pricing<'_>,
    ) -> Result<Self, EngineError> {
        if let Some((proc_of, _)) = pricing.placement {
            if proc_of.len() != graph.len() {
                return Err(EngineError::RankMapLength {
                    expected: graph.len(),
                    got: proc_of.len(),
                });
            }
        }
        let effective = policy.effective(pricing.placement.is_some(), false);
        let tables = if effective == SchedPolicy::RankAwareLookahead {
            let (base, downstream) = match pricing.model {
                Some(m) => lookahead_tables(graph, &|t| m.task_cost(graph.spec(t)))?,
                None => lookahead_tables(graph, &pricing.cost)?,
            };
            Tables::Lookahead(base, downstream)
        } else {
            // only the comm-aware rank reads the placement
            let placement =
                pricing.placement.filter(|_| effective == SchedPolicy::CommAwareUpwardRank);
            let keys = queue_keys(graph, &pricing.cost, effective, placement)?;
            validate_keys(&keys)?;
            Tables::Keys(keys)
        };
        Ok(SchedPlan { policy, tables })
    }

    /// The policy this plan was requested for.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Tasks the plan covers (for compatibility checks against a graph).
    pub fn len(&self) -> usize {
        match &self.tables {
            Tables::Keys(k) => k.len(),
            Tables::Lookahead(base, _) => base.len(),
        }
    }

    /// `true` when the plan covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reject a plan built for a graph of another size — the check every
    /// consumer makes before indexing the tables by task id.
    pub fn check_covers(&self, graph: &TaskGraph) -> Result<(), EngineError> {
        if self.len() == graph.len() {
            Ok(())
        } else {
            Err(EngineError::RankMapLength { expected: graph.len(), got: self.len() })
        }
    }

    /// A fresh per-run [`Scheduler`] reading the plan's tables in place;
    /// the lookahead's only run state is its EMA corrections, which start
    /// at the identity.
    pub fn instantiate(&self) -> Box<dyn Scheduler + '_> {
        match &self.tables {
            Tables::Keys(keys) => Box::new(StaticScheduler { keys }),
            Tables::Lookahead(base_cost, downstream) => {
                Box::new(LookaheadScheduler { base_cost, downstream, class_corr: [1.0; 5] })
            }
        }
    }

    /// The plan as one fixed, priority-driven topological order of
    /// `graph` — how a policy is applied to the `DistEngine`, whose
    /// per-rank queues execute front-only and therefore deadlock under
    /// any ordering that is *not* a global topological order. The
    /// lookahead's keys at identity corrections are the upward ranks.
    pub fn topo_order(&self, graph: &TaskGraph) -> Result<Vec<TaskId>, EngineError> {
        self.check_covers(graph)?;
        let order = match &self.tables {
            Tables::Keys(keys) => priority_topo_order(graph, keys),
            Tables::Lookahead(base, downstream) => {
                let keys: Vec<f64> = base.iter().zip(downstream).map(|(b, d)| -(b + d)).collect();
                priority_topo_order(graph, &keys)
            }
        };
        order.ok_or(EngineError::Cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{simulate_planned, DesConfig, DesTask};
    use crate::fault::FaultPlan;
    use crate::graph::{DataRef, GraphBuilder, TaskClass, TaskSpec};

    fn spec(priority: usize) -> TaskSpec {
        TaskSpec { class: TaskClass::Other, priority, writes: None, flops: 0.0 }
    }

    fn chain_plus_leaf_builder() -> GraphBuilder {
        // 0 → 1 → 2 (long chain), 3 (isolated leaf)
        let mut g = GraphBuilder::new();
        for i in 0..4 {
            g.add_task(spec(i));
        }
        let d = DataRef { i: 0, j: 0 };
        g.add_edge(0, 1, d, 0);
        g.add_edge(1, 2, d, 0);
        g
    }

    fn chain_plus_leaf() -> TaskGraph {
        chain_plus_leaf_builder().finish()
    }

    fn unit_cost() -> Pricing<'static> {
        Pricing { cost: Box::new(|_| 1.0), model: None, placement: None }
    }

    /// The keys a fresh scheduler instantiated from `plan` queues every
    /// task under.
    fn ready_keys(plan: &SchedPlan, g: &TaskGraph) -> Vec<f64> {
        let mut s = plan.instantiate();
        (0..g.len()).map(|t| s.on_task_ready(t, g)).collect()
    }

    #[test]
    fn static_policies_key_as_documented() {
        let g = chain_plus_leaf();
        let keys = |p| ready_keys(&SchedPlan::build(&g, p, &unit_cost()).unwrap(), &g);
        assert_eq!(keys(SchedPolicy::PanelPriority), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(keys(SchedPolicy::Fifo), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(keys(SchedPolicy::Lifo), vec![4.0, 3.0, 2.0, 1.0]);
        let up = keys(SchedPolicy::UpwardRank);
        // chain head (upward 3) must come before the isolated leaf (1),
        // and urgency decreases along the chain
        assert!(up[0] < up[3], "chain head must be preferred");
        assert!(up[0] < up[1] && up[1] < up[2]);
    }

    /// Six tasks on two processes with edges heavy enough that the
    /// comm-aware rank reorders them; the fixture of the key goldens.
    fn priced_graph() -> (TaskGraph, Vec<usize>) {
        let mut g = GraphBuilder::new();
        let specs = [
            (TaskClass::Potrf, 0, 3e8),
            (TaskClass::Trsm, 0, 7e8),
            (TaskClass::Gemm, 1, 1.1e9),
            (TaskClass::Syrk, 1, 5e8),
            (TaskClass::Gemm, 2, 9e8),
            (TaskClass::Other, 3, 0.0),
        ];
        for (i, (class, priority, flops)) in specs.into_iter().enumerate() {
            g.add_task(TaskSpec { class, priority, writes: Some(DataRef { i, j: 0 }), flops });
        }
        for (s, d, bytes) in [
            (0, 1, 400_000_000),
            (0, 2, 8000),
            (1, 3, 4000),
            (2, 3, 12000),
            (2, 4, 12000),
            (3, 5, 0),
            (4, 5, 600_000_000),
        ] {
            g.add_edge(s, d, DataRef { i: s, j: 0 }, bytes);
        }
        (g.finish(), vec![0, 1, 0, 1, 0, 1])
    }

    const DES_DURATIONS: [f64; 6] = [0.3, 0.7, 1.1, 0.5, 0.9, 0.0];

    fn des_pricing<'a>(proc_of: &'a [usize], model: &'a CostModel) -> Pricing<'a> {
        Pricing {
            cost: Box::new(|t| DES_DURATIONS[t]),
            model: Some(model),
            placement: Some((proc_of, CommCosts { latency_s: 1e-3, bandwidth_bps: 1e10 })),
        }
    }

    fn bits(keys: &[f64]) -> Vec<u64> {
        keys.iter().map(|k| k.to_bits()).collect()
    }

    /// Key-table bits at every door, recorded from the five separate
    /// policy→schedule translations this planner replaced (one in the
    /// shared engine, two in this module, one in `core/simulate.rs` and
    /// its copy in the `ablation_scheduler` bench).
    #[test]
    fn key_tables_match_the_pre_unification_bits() {
        let (g, proc_of) = priced_graph();
        let upward: [u64; 6] = [
            0xc002666666666666,
            0xbff3333333333334,
            0xc000000000000000,
            0xbfe0000000000000,
            0xbfeccccccccccccd,
            0x8000000000000000,
        ];
        let shared: [(SchedPolicy, [u64; 6]); 6] = [
            (SchedPolicy::PanelPriority, [0.0, 0.0, 1.0, 1.0, 2.0, 3.0].map(f64::to_bits)),
            (SchedPolicy::Fifo, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0].map(f64::to_bits)),
            (SchedPolicy::Lifo, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0].map(f64::to_bits)),
            (SchedPolicy::UpwardRank, upward),
            (SchedPolicy::CommAwareUpwardRank, upward),
            (SchedPolicy::RankAwareLookahead, upward),
        ];
        for (policy, want) in shared {
            let plan = SchedPlan::build(&g, policy, &Pricing::nominal(&g)).unwrap();
            assert_eq!(bits(&ready_keys(&plan, &g)), want, "shared door, {}", policy.name());
        }

        let dist: [(SchedPolicy, [TaskId; 6]); 6] = [
            (SchedPolicy::PanelPriority, [0, 1, 2, 3, 4, 5]),
            (SchedPolicy::Fifo, [0, 1, 2, 3, 4, 5]),
            (SchedPolicy::Lifo, [0, 2, 4, 1, 3, 5]),
            (SchedPolicy::UpwardRank, [0, 2, 1, 4, 3, 5]),
            (SchedPolicy::CommAwareUpwardRank, [0, 2, 4, 1, 3, 5]),
            (SchedPolicy::RankAwareLookahead, [0, 2, 1, 4, 3, 5]),
        ];
        for (policy, want) in dist {
            let pricing = Pricing::nominal(&g).placed(&proc_of, CommCosts::NOMINAL);
            let order = SchedPlan::build(&g, policy, &pricing).unwrap().topo_order(&g).unwrap();
            assert_eq!(order, want, "distributed door, {}", policy.name());
        }

        let model = CostModel::from_machine(&MachineModel::shaheen_ii(), &RankProfile::uniform(8));
        let des = |policy| SchedPlan::build(&g, policy, &des_pricing(&proc_of, &model)).unwrap();
        assert_eq!(
            bits(&ready_keys(&des(SchedPolicy::UpwardRank), &g)),
            [
                0xc002666666666666,
                0xbff3333333333333,
                0xc000000000000000,
                0xbfe0000000000000,
                0xbfeccccccccccccd,
                0x8000000000000000
            ],
        );
        assert_eq!(
            bits(&ready_keys(&des(SchedPolicy::CommAwareUpwardRank), &g)),
            [
                0xc002e353f7ced916,
                0xbff3333333333333,
                0xc0007ced916872b0,
                0xbfe0000000000000,
                0xbfeec083126e978e,
                0x8000000000000000
            ],
        );
        let lookahead = des(SchedPolicy::RankAwareLookahead);
        assert_eq!(
            bits(&ready_keys(&lookahead, &g)),
            [
                0xbfd20b21642c8590,
                0xbfb77a6f4de9bd38,
                0xbfd1642c8590b216,
                0xbfb1642c8590b216,
                0xbfbf4de9bd37a6f5,
                0x8000000000000000
            ],
        );
        // one measured GEMM moves the class correction and with it the
        // key of the other GEMM
        let mut s = lookahead.instantiate();
        s.on_task_finished(2, &g, 5.0);
        assert_eq!(s.on_task_ready(4, &g).to_bits(), 0xbfed4fefcf6e4ae1);
    }

    /// The degradation table (policy × door → effective policy): a plan
    /// requested for `policy` at a door holds exactly the schedule of
    /// the effective policy at that door.
    #[test]
    fn degradation_table() {
        use SchedPolicy::*;
        // requested → effective at [shared, DES, distributed order]
        let table = [
            (PanelPriority, [PanelPriority; 3]),
            (Fifo, [Fifo; 3]),
            (Lifo, [Lifo; 3]),
            (UpwardRank, [UpwardRank; 3]),
            (CommAwareUpwardRank, [UpwardRank, CommAwareUpwardRank, CommAwareUpwardRank]),
            (RankAwareLookahead, [RankAwareLookahead, RankAwareLookahead, UpwardRank]),
        ];
        let (g, proc_of) = priced_graph();
        let model = CostModel::from_machine(&MachineModel::shaheen_ii(), &RankProfile::uniform(8));
        for (policy, [shared, des, dist]) in table {
            assert_eq!(policy.effective(false, false), shared);
            assert_eq!(policy.effective(true, false), des);
            assert_eq!(policy.effective(true, true), dist);

            let plan = |p| SchedPlan::build(&g, p, &Pricing::nominal(&g)).unwrap();
            assert_eq!(ready_keys(&plan(policy), &g), ready_keys(&plan(shared), &g));
            let plan = |p| SchedPlan::build(&g, p, &des_pricing(&proc_of, &model)).unwrap();
            assert_eq!(ready_keys(&plan(policy), &g), ready_keys(&plan(des), &g));
            let order = |p| {
                let pricing = Pricing::nominal(&g).placed(&proc_of, CommCosts::NOMINAL);
                SchedPlan::build(&g, p, &pricing).unwrap().topo_order(&g).unwrap()
            };
            assert_eq!(order(policy), order(dist));
        }
    }

    /// The regression graph of the comm-blind upward-rank bug: on the
    /// single core of proc 0 a warm-up task (0) pins the core while two
    /// chain heads queue behind it. Chain A (1→2) is all-local and has
    /// the larger *compute* rank; chain B (3→4) crosses to proc 1 over
    /// a slow link, so its true remaining span is larger. Comm-blind
    /// ranking pops chain A first and pushes the transfer — which
    /// bounds the makespan — behind a local task.
    fn cross_proc_graph() -> (TaskGraph, Vec<DesTask>, DesConfig) {
        let mut g = GraphBuilder::new();
        for i in 0..5 {
            g.add_task(spec(i));
        }
        g.add_edge(1, 2, DataRef { i: 0, j: 0 }, 0); // local chain A
        g.add_edge(3, 4, DataRef { i: 1, j: 0 }, 1_000_000); // remote chain B
        let tasks = vec![
            DesTask { proc: 0, duration: 1.0 }, // warm-up: occupies the core
            DesTask { proc: 0, duration: 1.0 },
            DesTask { proc: 0, duration: 1.5 },
            DesTask { proc: 0, duration: 1.0 },
            DesTask { proc: 1, duration: 1.0 },
        ];
        let cfg = DesConfig {
            nprocs: 2,
            cores_per_proc: 1,
            latency_s: 5.0,
            bandwidth_bps: 1e6, // 1 MB at 1 MB/s + 5 s latency = 6 s per hop
            dep_overhead_s: 0.0,
            task_mgmt_s: 0.0,
        };
        (g.finish(), tasks, cfg)
    }

    /// The comm-blind upward rank provably picks the wrong task —
    /// simulating its order is strictly slower than the comm-aware order
    /// on the same graph and machine.
    #[test]
    fn comm_blind_upward_rank_picks_the_wrong_task() {
        let (g, tasks, cfg) = cross_proc_graph();
        let proc_of: Vec<usize> = tasks.iter().map(|t| t.proc).collect();
        let comm = CommCosts { latency_s: cfg.latency_s, bandwidth_bps: cfg.bandwidth_bps };
        let plan = |policy| {
            let pricing = Pricing {
                cost: Box::new(|t| tasks[t].duration),
                model: None,
                placement: Some((&proc_of, comm)),
            };
            SchedPlan::build(&g, policy, &pricing).unwrap()
        };
        let blind = plan(SchedPolicy::UpwardRank);
        let aware = plan(SchedPolicy::CommAwareUpwardRank);

        // Blind: chain A head (upward 2.5) outranks chain B head (2.0).
        let k = ready_keys(&blind, &g);
        assert!(k[1] < k[3], "compute-only rank must prefer the local chain");
        // Aware: chain B head (1 + 6 + 1 = 8) outranks chain A (2.5).
        let k = ready_keys(&aware, &g);
        assert!(k[3] < k[1], "comm-aware rank must prefer the cross-proc chain");

        // Blind: warm-up [0,1], A-head [1,2], B-head [2,3], transfer
        // lands at 9, remote tail [9,10]. Aware: B-head [1,2] goes
        // first, transfer lands at 8, makespan 9.
        let run = |p: &SchedPlan| simulate_planned(&g, &tasks, &cfg, p, &FaultPlan::none(), 0.0);
        let (r_blind, r_aware) = (run(&blind).unwrap(), run(&aware).unwrap());
        assert!(
            r_aware.makespan < r_blind.makespan - 0.5,
            "comm-aware order must win: {} vs {}",
            r_aware.makespan,
            r_blind.makespan
        );
    }

    #[test]
    fn non_finite_costs_are_rejected_at_build() {
        let g = chain_plus_leaf();
        for policy in [SchedPolicy::UpwardRank, SchedPolicy::RankAwareLookahead] {
            for bad in [f64::NAN, f64::INFINITY] {
                let pricing = Pricing {
                    cost: Box::new(move |t| if t == 2 { bad } else { 1.0 }),
                    model: None,
                    placement: None,
                };
                let err = SchedPlan::build(&g, policy, &pricing).unwrap_err();
                assert!(matches!(err, EngineError::NonFiniteKey { .. }), "{err:?}");
                // and the error is printable (a NaN key must not panic Display)
                assert!(format!("{err}").contains("non-finite"));
            }
        }
    }

    #[test]
    fn misfit_plans_are_typed_errors() {
        let g = chain_plus_leaf();
        // a placement that does not map every task
        let short = [0usize, 1];
        let err = SchedPlan::build(
            &g,
            SchedPolicy::CommAwareUpwardRank,
            &unit_cost().placed(&short, CommCosts::NOMINAL),
        )
        .unwrap_err();
        assert_eq!(err, EngineError::RankMapLength { expected: 4, got: 2 });
        // a plan ordered against a different graph
        let plan = SchedPlan::build(&g, SchedPolicy::Fifo, &unit_cost()).unwrap();
        let mut bigger = chain_plus_leaf_builder();
        bigger.add_task(spec(9));
        let err = plan.topo_order(&bigger.finish()).unwrap_err();
        assert_eq!(err, EngineError::RankMapLength { expected: 5, got: 4 });
        // a cyclic graph
        let mut cyclic = GraphBuilder::new();
        cyclic.add_task(spec(0));
        cyclic.add_task(spec(1));
        let d = DataRef { i: 0, j: 0 };
        cyclic.add_edge(0, 1, d, 0);
        cyclic.add_edge(1, 0, d, 0);
        let cyclic = cyclic.finish();
        for policy in SchedPolicy::ALL {
            let err = SchedPlan::build(&cyclic, policy, &Pricing::nominal(&cyclic))
                .and_then(|p| p.topo_order(&cyclic))
                .unwrap_err();
            assert_eq!(err, EngineError::Cycle, "{}", policy.name());
        }
    }

    #[test]
    fn static_plans_ignore_feedback() {
        let g = chain_plus_leaf();
        let plan = SchedPlan::build(&g, SchedPolicy::PanelPriority, &unit_cost()).unwrap();
        let mut s = plan.instantiate();
        s.on_task_finished(0, &g, 1.0);
        assert_eq!(s.on_task_ready(0, &g), 0.0);
        assert!(s.class_corrections().is_none());
    }

    #[test]
    fn rank_profile_expected_rank() {
        // 2 events at rank 4, 2 at rank 12 → mean 8
        let mut hist = vec![0u64; 13];
        hist[4] = 2;
        hist[12] = 2;
        let p = RankProfile::from_histogram(&hist, 64);
        assert_eq!(p.expected_rank(), 8.0);
        // empty histogram falls back to the dense assumption
        assert_eq!(RankProfile::from_histogram(&[], 64).expected_rank(), 64.0);
        assert_eq!(RankProfile::uniform(17).expected_rank(), 17.0);
    }

    #[test]
    fn cost_model_prices_gemm_below_dense_rate() {
        let m = MachineModel::shaheen_ii();
        let model = CostModel::from_machine(&m, &RankProfile::uniform(8));
        let gemm = TaskSpec {
            class: TaskClass::Gemm,
            priority: 0,
            writes: None,
            flops: 1e9,
        };
        let potrf = TaskSpec { class: TaskClass::Potrf, ..gemm };
        // same flops: the rank-8 GEMM takes longer than the dense panel
        assert!(model.task_cost(&gemm) > model.task_cost(&potrf));
        assert_eq!(model.task_cost(&potrf), m.dense_kernel_time(1e9));
        // zero-flop tasks are free
        let noop = TaskSpec { flops: 0.0, ..gemm };
        assert_eq!(model.task_cost(&noop), 0.0);
    }

    #[test]
    fn lookahead_learns_from_measured_durations() {
        let g = chain_plus_leaf();
        let plan = SchedPlan::build(&g, SchedPolicy::RankAwareLookahead, &unit_cost()).unwrap();
        let mut s = plan.instantiate();
        let before = s.on_task_ready(3, &g);
        // the leaf's class (Other) consistently runs 10× the estimate
        for _ in 0..50 {
            s.on_task_finished(3, &g, 10.0);
        }
        assert!(s.class_corrections().unwrap()[class_index(TaskClass::Other)] > 5.0);
        let after = s.on_task_ready(3, &g);
        assert!(after < before, "a slow class must gain urgency: {after} vs {before}");
        // chain ordering is still honored after the correction
        assert!(s.on_task_ready(0, &g) < s.on_task_ready(2, &g));
        // and the next run starts from the identity again
        assert_eq!(plan.instantiate().on_task_ready(3, &g), before);
    }

    #[test]
    fn priority_topo_order_respects_edges_and_keys() {
        let g = chain_plus_leaf();
        // leaf 3 gets the best key but must not displace edge order
        let keys = vec![1.0, 2.0, 3.0, 0.0];
        let order = priority_topo_order(&g, &keys).unwrap();
        assert_eq!(order, vec![3, 0, 1, 2]);
    }

    #[test]
    fn priority_topo_order_tolerates_nan_keys() {
        // total_cmp never panics; NaN sorts last among ready tasks and
        // the order is still topological (plans reject NaN before
        // getting here — this guards the sort itself).
        let g = chain_plus_leaf();
        let keys = vec![f64::NAN, 0.0, 0.0, 1.0];
        let order = priority_topo_order(&g, &keys).unwrap();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 3, "finite key beats NaN");
    }

    #[test]
    fn policy_names_are_stable() {
        let names: Vec<&str> = SchedPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 6);
        assert!(names.contains(&"panel-priority"));
        assert!(names.contains(&"rank-lookahead"));
    }
}
