//! The task graph's stored topological order. Every graph an engine walks
//! has an order that is topological: a builder whose ids are shuffled,
//! the Cholesky task space (the DAG's PTG form, dense and trimmed) and a
//! fan-out whose sink is numbered before its producers. Every consumer
//! that walks the order, the shared engine among them, agrees with a
//! brute-force reading of the graph, and with the same graph emitted in
//! id order. A cycle is a typed error at every door that needs the order.

mod common;

use common::random_snapshot;
use hicma_parsec::cholesky::dag::{CholeskySpace, DagConfig};
use hicma_parsec::runtime::critical_path::critical_path;
use hicma_parsec::runtime::des::DesTask;
use hicma_parsec::runtime::graph::{
    DataRef, Dataflow, GraphBuilder, TaskClass, TaskGraph, TaskId, TaskSpec,
};
use hicma_parsec::runtime::{
    simulate, DistConfig, DistEngine, Engine, EngineConfig, EngineError, FaultPlan, MachineModel,
    RankCtx, Registry, Trace,
};
use hicma_parsec::tlr::RankSnapshot;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A random DAG over `n` tasks in topological labels (every edge runs
/// from a lower label to a higher one) and the permutation `id[label]`
/// that shuffles the labels into task ids.
struct Shape {
    n: usize,
    edges: Vec<(usize, usize)>,
    id: Vec<TaskId>,
}

fn random_shape(seed: u64, n: usize, density_pct: u64) -> Shape {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut edges = Vec::new();
    for b in 0..n {
        for a in 0..b {
            if next() % 100 < density_pct {
                edges.push((a, b));
            }
        }
    }
    let mut id: Vec<TaskId> = (0..n).collect();
    for i in (1..n).rev() {
        id.swap(i, next() as usize % (i + 1));
    }
    Shape { n, edges, id }
}

/// One process of `cores` cores, a free network and no runtime overhead:
/// the simulator's serial/SMP baseline.
fn one_process(cores: usize) -> MachineModel {
    MachineModel {
        cores_per_node: cores,
        latency_s: 0.0,
        bandwidth_bps: f64::INFINITY,
        dep_overhead_s: 0.0,
        task_overhead_s: 0.0,
        ..MachineModel::shaheen_ii()
    }
}

/// Integer durations, so longest paths are exact in `f64`.
fn label_duration(label: usize) -> f64 {
    (1 + (label * 7) % 5) as f64
}

/// `shape` with label `l` emitted as task `id[l]`; everything a task
/// carries derives from its label, so every emission is the same graph.
fn emit(shape: &Shape, id: &[TaskId]) -> TaskGraph {
    let mut label = vec![0; shape.n];
    for (l, &t) in id.iter().enumerate() {
        label[t] = l;
    }
    let mut g = GraphBuilder::new();
    for &l in &label {
        g.add_task(TaskSpec {
            class: TaskClass::Other,
            priority: l,
            writes: Some(DataRef { i: l, j: 0 }),
        });
    }
    for &(a, b) in &shape.edges {
        g.add_edge(id[a], id[b], DataRef { i: a, j: b }, 8 * (a + b) as u64);
    }
    g.finish()
}

/// Every task's successor ids, in list order.
fn successors(g: &impl Dataflow) -> Vec<Vec<TaskId>> {
    let mut out = Vec::new();
    (0..g.len())
        .map(|t| {
            g.successors_into(t, &mut out);
            out.iter().map(|e| e.dst).collect()
        })
        .collect()
}

fn predecessors(g: &impl Dataflow) -> Vec<Vec<TaskId>> {
    let mut preds = vec![Vec::new(); g.len()];
    for (t, succ) in successors(g).into_iter().enumerate() {
        for dst in succ {
            preds[dst].push(t);
        }
    }
    preds
}

/// The stored order visits every task once, each after all of its
/// predecessors.
fn assert_topological(g: &impl Dataflow) {
    let order: Vec<TaskId> = g.order().expect("acyclic").collect();
    let mut pos = vec![usize::MAX; g.len()];
    for (i, &t) in order.iter().enumerate() {
        assert_eq!(pos[t], usize::MAX, "task {t} visited twice");
        pos[t] = i;
    }
    assert_eq!(order.len(), g.len());
    for (t, succ) in successors(g).into_iter().enumerate() {
        for dst in succ {
            assert!(pos[t] < pos[dst], "edge {t} → {dst} runs backwards");
        }
    }
}

/// `critical_path` against relaxing every task `n` times over its
/// predecessors (no order needed), and its chain against the graph.
fn assert_critical_path_is_the_longest(g: &impl Dataflow, dur: impl Fn(TaskId) -> f64) {
    let (preds, succs) = (predecessors(g), successors(g));
    let mut end = vec![0.0_f64; g.len()];
    for _ in 0..g.len() {
        for t in 0..g.len() {
            end[t] = dur(t) + preds[t].iter().map(|&p| end[p]).fold(0.0, f64::max);
        }
    }
    let longest = end.iter().copied().fold(0.0, f64::max);
    let cp = critical_path(g, &dur);
    assert_eq!(cp.length, longest);
    if let Some(&first) = cp.tasks.first() {
        assert!(preds[first].is_empty(), "the chain starts at a source");
    }
    for pair in cp.tasks.windows(2) {
        assert!(succs[pair[0]].contains(&pair[1]), "{pair:?} is no edge");
    }
    assert_eq!(cp.tasks.iter().map(|&t| dur(t)).sum::<f64>(), longest);
}

/// Run `g` on the shared engine; each task folds its predecessors' values
/// into its own, so a task that ran early would read a zero.
fn engine_values(
    g: &(impl Dataflow + Sync),
    seed_of: impl Fn(TaskId) -> u64 + Sync,
) -> Vec<u64> {
    let preds = predecessors(g);
    let values: Vec<AtomicU64> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
    Engine::new(g)
        .run(&EngineConfig::new(3), |_w, t| {
            let mut inputs: Vec<u64> =
                preds[t].iter().map(|&p| values[p].load(Ordering::SeqCst)).collect();
            assert!(inputs.iter().all(|&v| v != 0), "task {t} ran before a predecessor");
            inputs.sort_unstable();
            let v = inputs.iter().fold(seed_of(t), |h, &x| (h ^ x).wrapping_mul(0x100000001b3));
            values[t].store(v | 1, Ordering::SeqCst);
        })
        .unwrap();
    values.into_iter().map(AtomicU64::into_inner).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn shuffled_ids_get_a_topological_order(
        seed in 0u64..10_000, n in 1usize..40, density in 0u64..50
    ) {
        let shape = random_shape(seed, n, density);
        let g = emit(&shape, &shape.id);
        assert_topological(&g);
        let label_of = |t: TaskId| shape.id.iter().position(|&x| x == t).unwrap();
        assert_critical_path_is_the_longest(&g, |t| label_duration(label_of(t)));
    }

    /// Shuffling the ids changes no simulated time and no engine result:
    /// each equals the same graph's in id order.
    #[test]
    fn shuffled_ids_plan_simulate_and_run_like_id_order(
        seed in 0u64..10_000, n in 1usize..30, density in 0u64..50
    ) {
        let shape = random_shape(seed, n, density);
        let in_order: Vec<TaskId> = (0..n).collect();
        let (shuffled, ordered) = (emit(&shape, &shape.id), emit(&shape, &in_order));
        prop_assert!(ordered.order().unwrap().eq(0..n), "id order is the stored order");

        // A core per task: every task starts the moment its inputs are in.
        let des = |g: &TaskGraph| {
            let tasks: Vec<DesTask> = (0..n)
                .map(|t| DesTask { proc: 0, duration: label_duration(g.spec(t).priority) })
                .collect();
            let mut trace = Trace::default();
            let none = FaultPlan::none();
            let r = simulate(g, &tasks, &one_process(n), 1, &none, 0.0, Some(&mut trace)).unwrap();
            let mut span = vec![(0u64, 0u64); n];
            for rec in &trace.records {
                span[rec.task] = (rec.start.to_bits(), rec.end.to_bits());
            }
            (r.makespan.to_bits(), span)
        };
        let ((ms_a, span_a), (ms_b, span_b)) = (des(&shuffled), des(&ordered));
        prop_assert_eq!(ms_a, ms_b);
        for l in 0..n {
            prop_assert_eq!(span_a[shape.id[l]], span_b[l], "span of label {}", l);
        }

        let label_seed = |g: &TaskGraph| engine_values(g, |t| g.spec(t).priority as u64 + 1);
        let (va, vb) = (label_seed(&shuffled), label_seed(&ordered));
        for l in 0..n {
            prop_assert_eq!(va[shape.id[l]], vb[l], "engine value of label {}", l);
        }
    }

    /// Close a cycle in a random DAG: every door that needs the order
    /// reports it, none panics.
    #[test]
    fn a_cycle_is_a_typed_error_at_every_door(
        seed in 0u64..10_000, n in 2usize..30, density in 0u64..50
    ) {
        let shape = random_shape(seed, n, density);
        let mut edges = shape.edges.clone();
        if edges.is_empty() {
            edges.push((0, 1));
        }
        let mut g = GraphBuilder::new();
        for t in 0..n {
            g.add_task(TaskSpec { class: TaskClass::Other, priority: t, writes: None });
        }
        for &(x, y) in &edges {
            g.add_edge(shape.id[x], shape.id[y], DataRef { i: x, j: y }, 8);
        }
        let (a, b) = edges[0];
        g.add_edge(shape.id[b], shape.id[a], DataRef { i: b, j: a }, 8);
        let g = g.finish();
        prop_assert!(g.order().is_none());

        let tasks = vec![DesTask { proc: 0, duration: 1.0 }; n];
        let des = simulate(&g, &tasks, &one_process(2), 1, &FaultPlan::none(), 0.0, None);
        prop_assert_eq!(des.unwrap_err(), EngineError::Cycle);
        let run = Engine::new(&g).run(&EngineConfig::new(2), |_w, _t| {});
        prop_assert_eq!(run.unwrap_err(), EngineError::Cycle);
        let registry = Registry::new(1);
        let faults = FaultPlan::none();
        let cfg = DistConfig { faults: &faults, record_trace: false, metrics: &registry };
        let body = |_t: TaskId, _ctx: &mut RankCtx<'_, u8>| {};
        let dist = DistEngine::new(&g, 1, &vec![0; n]).run(vec![Default::default()], &cfg, None, body);
        prop_assert_eq!(dist.unwrap_err(), EngineError::Cycle);
    }
}

/// The Cholesky task space, panel by panel (POTRF, TRSMs, SYRKs,
/// GEMMs), dense and on trimmed random snapshots: its stored order is
/// topological, and the shared engine walks it in dependency order.
#[test]
fn dense_cholesky_ptg_gets_a_topological_order() {
    let check = |g: &CholeskySpace| {
        assert_topological(g);
        let dur = |t: TaskId| match g.spec(t).class {
            TaskClass::Potrf => 1.0,
            TaskClass::Trsm | TaskClass::Syrk => 3.0,
            _ => 5.0,
        };
        assert_critical_path_is_the_longest(g, dur);
        let values = engine_values(g, |t| t as u64 + 1);
        assert!(values.iter().all(|&v| v != 0));
    };
    for nt in 1..8 {
        let b = 16;
        let mut ranks = vec![0usize; nt * nt];
        for i in 0..nt {
            for j in 0..=i {
                ranks[i * nt + j] = b;
            }
        }
        let g = CholeskySpace::new(&RankSnapshot::new(nt, b, ranks), &DagConfig::default());
        assert_eq!(g.len(), nt * (nt + 1) * (nt + 2) / 6);
        check(&g);
    }
    for (nt, seed, null_pct) in [(5, 1, 30), (9, 2, 60), (12, 3, 80), (16, 4, 95), (16, 5, 50)] {
        let snap = random_snapshot(nt, seed, null_pct);
        for rank_cap in [snap.tile_size(), 4] {
            check(&CholeskySpace::new(&snap, &DagConfig { trimmed: true, rank_cap }));
        }
    }
}

/// Root and sink first, then the producers between them: every
/// producer → sink edge runs from a higher id to a lower one.
#[test]
fn fan_out_with_an_early_sink_gets_a_topological_order() {
    for width in [1, 2, 7, 64] {
        let mut g = GraphBuilder::new();
        let spec =
            |priority| TaskSpec { class: TaskClass::Other, priority, writes: None };
        let root = g.add_task(spec(0));
        let sink = g.add_task(spec(2));
        for _ in 0..width {
            let mid = g.add_task(spec(1));
            g.add_edge(root, mid, DataRef { i: 0, j: 0 }, 0);
            g.add_edge(mid, sink, DataRef { i: 0, j: 0 }, 0);
        }
        let g = g.finish();
        assert_topological(&g);
        assert_critical_path_is_the_longest(&g, |t| (1 + t % 3) as f64);
        let values = engine_values(&g, |t| t as u64 + 1);
        assert!(values.iter().all(|&v| v != 0));
    }
}
