//! The Cholesky task space against the dataflow walk it replaced.
//!
//! The oracle is the emission loop the DAG builder ran before the space
//! existed: it visits the tasks panel by panel in PTG order and draws one
//! edge into each task from the task that produced the current version
//! of every tile it reads, then of the tile it overwrites
//! (`last_writer`). Successor lists are then the edges in consumer order.
//! On random snapshots — NT 1 to 24, random null patterns, dense-format
//! tiles and tiles at `2r = b`, trimmed and untrimmed, `rank_cap` of `b`
//! and of 4 — the space must agree with it on the task count, on every
//! task, on every successor list in order and on every in-degree, and
//! `build_cholesky_dag` must price every task as the space does. Every
//! successor has a higher id than its task, and every edge the walk
//! draws carries its producer's output, the tile the task writes and
//! that tile's bytes: the two graph rules every engine relies on.
//!
//! Panels never interleave: a task's panel never decreases with its id,
//! and every successor list lies inside one panel.
//!
//! A second oracle is the order distributed plans once computed for
//! their ranks: Kahn's algorithm with the ready set ordered by
//! `(panel, id)`. On the same snapshots it must equal id order, which
//! is the order every engine runs its ready work in.

mod common;

use common::random_snapshot;
use hicma_parsec::cholesky::{
    build_cholesky_dag, CholeskySpace, DagConfig, MatrixAnalysis, TaskKind,
};
use hicma_parsec::runtime::graph::{DataRef, Dataflow, TaskClass, TaskId};
use hicma_parsec::tlr::{low_rank_pays_off, RankSnapshot};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The tile a task overwrites and the tiles it reads, in packed order.
fn operands(kind: TaskKind) -> (DataRef, Vec<DataRef>) {
    let at = |i, j| DataRef { i, j };
    match kind {
        TaskKind::Potrf { k } => (at(k, k), vec![]),
        TaskKind::Trsm { k, m } => (at(m, k), vec![at(k, k)]),
        TaskKind::Syrk { k, m } => (at(m, m), vec![at(m, k)]),
        TaskKind::Gemm { k, m, n } => (at(m, n), vec![at(n, k), at(m, k)]),
    }
}

/// Message size of tile `d` under the analysis' final ranks.
fn bytes(analysis: &MatrixAnalysis, d: DataRef) -> u64 {
    let ranks = &analysis.final_ranks;
    let (r, b) = (ranks.rank(d.i, d.j), ranks.tile_size());
    if d.i == d.j || !low_rank_pays_off(r, b, b) {
        (b * b * 8) as u64
    } else {
        (16 * r * b) as u64
    }
}

/// An edge as the walk draws it: consumer, the datum it reads, its bytes.
type Edge = (TaskId, DataRef, u64);

/// Every task in id order, each task's successor list and its in-degree,
/// by the `last_writer` walk.
struct Oracle {
    kinds: Vec<TaskKind>,
    successors: Vec<Vec<Edge>>,
    indegree: Vec<usize>,
}

fn oracle(analysis: &MatrixAnalysis, trimmed: bool) -> Oracle {
    let nt = analysis.nt();
    let mut o = Oracle { kinds: vec![], successors: vec![], indegree: vec![] };
    let mut last_writer: Vec<Option<TaskId>> = vec![None; nt * nt];
    let mut task = |kind: TaskKind| {
        let id = o.kinds.len();
        let (writes, reads) = operands(kind);
        o.kinds.push(kind);
        o.successors.push(vec![]);
        o.indegree.push(0);
        for d in reads.into_iter().chain([writes]) {
            if let Some(src) = last_writer[d.i * nt + d.j] {
                o.successors[src].push((id, d, bytes(analysis, d)));
                o.indegree[id] += 1;
            }
        }
        last_writer[writes.i * nt + writes.j] = Some(id);
    };
    for k in 0..nt {
        task(TaskKind::Potrf { k });
        let all: Vec<usize> = (k + 1..nt).collect();
        let rows = if trimmed { &analysis.trsm[k] } else { &all };
        for &m in rows {
            task(TaskKind::Trsm { k, m });
        }
        for &m in rows {
            task(TaskKind::Syrk { k, m });
        }
        for (i, &m) in rows.iter().enumerate() {
            for &n in &rows[..i] {
                task(TaskKind::Gemm { k, m, n });
            }
        }
    }
    o
}

/// Task `t`'s successor list, each consumer with the producer's output.
fn list(g: &impl Dataflow, t: TaskId) -> Vec<Edge> {
    let mut out = Vec::new();
    let spec = g.successors_into(t, &mut out);
    out.iter().map(|&dst| (dst, spec.writes.unwrap(), spec.bytes)).collect()
}

fn class_of(kind: TaskKind) -> TaskClass {
    match kind {
        TaskKind::Potrf { .. } => TaskClass::Potrf,
        TaskKind::Trsm { .. } => TaskClass::Trsm,
        TaskKind::Syrk { .. } => TaskClass::Syrk,
        TaskKind::Gemm { .. } => TaskClass::Gemm,
    }
}

/// The space and the oracle agree on `snap` under `cfg`.
fn agree(snap: &RankSnapshot, cfg: &DagConfig) -> Result<(), TestCaseError> {
    let dag = build_cholesky_dag(snap, cfg);
    let space = &dag.graph;
    let o = oracle(space.analysis(), cfg.trimmed);
    prop_assert_eq!(space.len(), o.kinds.len());
    let panel = |t: TaskId| space.kind(t).panel();
    let monotone = (1..space.len()).all(|t| panel(t - 1) <= panel(t));
    prop_assert!(monotone, "a panel decreases with the id");
    prop_assert_eq!(space.num_edges(), o.successors.iter().map(Vec::len).sum::<usize>());
    for (t, &kind) in o.kinds.iter().enumerate() {
        prop_assert_eq!(space.kind(t), kind, "task {}", t);
        prop_assert_eq!(space.id(kind), t);
        let price = space.price(kind);
        let want = (class_of(kind), Some(operands(kind).0));
        let spec = space.spec(t);
        let got = (spec.class, spec.writes);
        prop_assert_eq!(got, want, "spec of task {} ({:?})", t, kind);
        prop_assert_eq!(dag.flops[t].to_bits(), price.flops.to_bits());
        prop_assert!(price.rank_param >= 1 && price.rank_param <= snap.tile_size());
        prop_assert!(
            !matches!(kind, TaskKind::Potrf { .. } | TaskKind::Syrk { .. }) || price.nested
        );
        let want = &o.successors[t];
        let got = list(space, t);
        prop_assert_eq!(spec.bytes, bytes(space.analysis(), spec.writes.unwrap()), "task {}", t);
        prop_assert!(got.iter().all(|&(dst, ..)| dst > t), "task {} has a successor at or below its id", t);
        let mut panels = got.iter().map(|&(dst, ..)| panel(dst));
        let first = panels.next();
        prop_assert!(panels.all(|k| Some(k) == first), "successors of task {} span panels", t);
        prop_assert_eq!(&got, want, "successors of task {} ({:?})", t, kind);
    }
    prop_assert_eq!(space.indegrees().collect::<Vec<_>>(), o.indegree);
    Ok(())
}

/// Kahn's algorithm with the ready set ordered by `(panel, id)`,
/// lowest first; `None` on a cyclic graph.
fn priority_order(g: &CholeskySpace) -> Option<Vec<TaskId>> {
    let mut indegree: Vec<usize> = g.indegrees().collect();
    let key = |t: TaskId| Reverse((g.kind(t).panel(), t));
    let mut ready: BinaryHeap<_> = (0..g.len()).filter(|&t| indegree[t] == 0).map(key).collect();
    let (mut order, mut successors) = (Vec::with_capacity(g.len()), Vec::new());
    while let Some(Reverse((_, t))) = ready.pop() {
        order.push(t);
        g.successors_into(t, &mut successors);
        for &dst in &successors {
            indegree[dst] -= 1;
            if indegree[dst] == 0 {
                ready.push(key(dst));
            }
        }
    }
    (order.len() == g.len()).then_some(order)
}

/// The panel-driven order of `snap` under `cfg` is id order.
fn id_order_is_the_priority_order(
    snap: &RankSnapshot,
    cfg: &DagConfig,
) -> Result<(), TestCaseError> {
    let space = CholeskySpace::new(snap, cfg);
    let want = priority_order(&space).expect("the space is acyclic");
    prop_assert_eq!(want, (0..space.len()).collect::<Vec<_>>());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stored_order_matches_the_priority_order(
        nt in 1usize..25,
        seed in 0u64..u64::MAX,
        null_pct in 0u64..101,
    ) {
        let snap = random_snapshot(nt, seed, null_pct);
        for trimmed in [true, false] {
            for rank_cap in [snap.tile_size(), 4] {
                id_order_is_the_priority_order(&snap, &DagConfig { trimmed, rank_cap })?;
            }
        }
    }

    #[test]
    fn task_space_matches_the_last_writer_walk(
        nt in 1usize..25,
        seed in 0u64..u64::MAX,
        null_pct in 0u64..101,
    ) {
        let snap = random_snapshot(nt, seed, null_pct);
        for trimmed in [true, false] {
            for rank_cap in [snap.tile_size(), 4] {
                agree(&snap, &DagConfig { trimmed, rank_cap })?;
            }
        }
    }
}

/// The shapes the random draw reaches only by chance: a single tile, no
/// off-diagonal tile at all, and every tile dense-format.
#[test]
fn task_space_matches_the_last_writer_walk_at_the_edges() {
    for (nt, null_pct) in [(1, 0), (2, 100), (9, 100), (9, 0), (24, 0), (24, 97)] {
        let snap = random_snapshot(nt, 7, null_pct);
        for trimmed in [true, false] {
            for rank_cap in [snap.tile_size(), 4] {
                agree(&snap, &DagConfig { trimmed, rank_cap }).unwrap();
            }
        }
    }
}
