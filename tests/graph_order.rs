//! Id order is the schedule order. Every edge of a graph runs from a
//! lower id to a higher one: on the Cholesky task space (the DAG's PTG
//! form, dense and trimmed) and on random DAGs built through the
//! `GraphBuilder`, which rejects any other edge. On both, the critical
//! path that walks ids in order is the longest chain a brute-force
//! relaxation finds, and the shared engine runs every task after its
//! predecessors.

mod common;

use common::random_snapshot;
use hicma_parsec::cholesky::dag::{CholeskySpace, DagConfig};
use hicma_parsec::runtime::critical_path::critical_path;
use hicma_parsec::runtime::graph::{
    DataRef, Dataflow, GraphBuilder, TaskClass, TaskGraph, TaskId, TaskSpec,
};
use hicma_parsec::runtime::{Engine, EngineConfig};
use hicma_parsec::tlr::RankSnapshot;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A random DAG over `n` tasks, task `t` writing tile `(t, 0)`: each
/// edge `a → b` with `a < b` is drawn with probability `density_pct` %.
fn random_dag(seed: u64, n: usize, density_pct: u64) -> TaskGraph {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut g = GraphBuilder::new();
    for t in 0..n {
        let writes = Some(DataRef { i: t, j: 0 });
        g.add_task(TaskSpec { class: TaskClass::Other, writes, bytes: 8 });
    }
    for b in 0..n {
        for a in 0..b {
            if next() % 100 < density_pct {
                g.add_edge(a, b);
            }
        }
    }
    g.finish()
}

/// Every task's successor ids, in list order.
fn successors(g: &impl Dataflow) -> Vec<Vec<TaskId>> {
    let mut out = Vec::new();
    (0..g.len())
        .map(|t| {
            g.successors_into(t, &mut out);
            out.clone()
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

/// Id order is topological: every edge runs to a higher id.
fn assert_ids_topological(g: &impl Dataflow) {
    for (t, succ) in successors(g).into_iter().enumerate() {
        for dst in succ {
            assert!(t < dst, "edge {t} → {dst} runs backwards");
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

    /// A random DAG: the critical path is the longest chain, and the
    /// shared engine runs every task after its predecessors.
    #[test]
    fn random_dags_get_the_longest_path_and_a_dependency_order(
        seed in 0u64..10_000, n in 1usize..40, density in 0u64..50
    ) {
        let g = random_dag(seed, n, density);
        assert_critical_path_is_the_longest(&g, |t| (1 + (t * 7) % 5) as f64);
        let values = engine_values(&g, |t| t as u64 + 1);
        prop_assert!(values.iter().all(|&v| v != 0));
    }
}

/// The Cholesky task space, panel by panel (POTRF, TRSMs, SYRKs,
/// GEMMs), dense and on trimmed random snapshots: id order is
/// topological, and the shared engine walks it in dependency order.
#[test]
fn dense_cholesky_ptg_gets_a_topological_order() {
    let check = |g: &CholeskySpace| {
        assert_ids_topological(g);
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
