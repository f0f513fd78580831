//! Panel-batching contract tests: fusing each panel step's trailing-column
//! GEMMs into single engine tasks (`FactorConfig::batch_panels`) is purely
//! a scheduling-granularity change. The factor must stay bit-identical to
//! the unfused run on both engines under every scheduling policy, the
//! fused cost model must be the exact sum of its members, and per-task
//! observability must survive the span-splitting shim.

use hicma_parsec::cholesky::{
    batch_panel_gemms, build_cholesky_dag, factorize, CholeskyDag, DagConfig, FactorConfig,
    PanelBatch, Session, TaskKind,
};
use hicma_parsec::distribution::TwoDBlockCyclic;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::runtime::graph::{DataRef, TaskGraph, TaskId, TaskSpec};
use hicma_parsec::runtime::SchedPolicy;
use hicma_parsec::tlr::{CompressionConfig, RankSnapshot, TlrMatrix};
use std::collections::{HashMap, HashSet};

fn rbf_gen(n: usize, corr: f64, seed: u64) -> impl Fn(usize, usize) -> f64 + Sync {
    let phase = (seed % 97) as f64 / 97.0;
    move |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / corr);
        let v = (-d * d).exp() * (1.0 + 0.05 * ((i + j) as f64 * 0.01 + phase).sin());
        if i == j {
            v + 1e-3
        } else {
            v
        }
    }
}

fn compressed(dense: &Matrix, b: usize, acc: f64) -> TlrMatrix {
    TlrMatrix::from_dense(dense, b, &CompressionConfig::with_accuracy(acc))
}

/// Batching on vs off: bit-identical factors through the shared
/// work-stealing engine and the distributed engine, under every
/// scheduling policy.
#[test]
fn fused_factorization_bit_identical_across_engines_and_policies() {
    let n = 96;
    let b = 24;
    let acc = 1e-8;
    for seed in [3u64, 41] {
        let dense = Matrix::from_fn(n, n, rbf_gen(n, 6.0, seed));

        // Baseline: unfused shared-memory run, default policy.
        let mut cfg_off = FactorConfig::with_accuracy(acc);
        cfg_off.batch_panels = false;
        let mut base = compressed(&dense, b, acc);
        factorize(&mut base, &cfg_off).unwrap();
        let l_base = base.to_dense_lower();

        let dist = TwoDBlockCyclic::new(4);
        for policy in SchedPolicy::ALL {
            for batch in [false, true] {
                let mut cfg = cfg_off;
                cfg.sched = policy;
                cfg.batch_panels = batch;

                let mut shared = compressed(&dense, b, acc);
                factorize(&mut shared, &cfg).unwrap();
                assert_eq!(
                    shared.to_dense_lower().as_slice(),
                    l_base.as_slice(),
                    "shared factor differs (policy {}, batch {batch}, seed {seed})",
                    policy.name()
                );

                let mut distributed = compressed(&dense, b, acc);
                Session::distributed(cfg, 4, &dist)
                    .run(&mut distributed)
                    .unwrap();
                assert_eq!(
                    distributed.to_dense_lower().as_slice(),
                    l_base.as_slice(),
                    "distributed factor differs (policy {}, batch {batch}, seed {seed})",
                    policy.name()
                );
            }
        }
    }
}

/// The contraction as it was written before it stopped hashing — the
/// oracle of [`batch_panel_gemms`]: group the GEMMs by `(k, n, rank)` in a
/// hash map, emit batched tasks in order of first members, and drop an
/// edge when its `(source group, destination group, datum)` was seen.
fn reference_batch_panel_gemms(dag: &CholeskyDag, exec_rank: Option<&[usize]>) -> PanelBatch {
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
    let mut graph = TaskGraph::new();
    let mut members: Vec<Vec<TaskId>> = Vec::new();
    let mut of: Vec<TaskId> = vec![usize::MAX; ntasks];
    let mut fused_groups = 0usize;
    for t in 0..ntasks {
        if of[t] != usize::MAX {
            continue; // already emitted as a later member of its group
        }
        let group: Vec<TaskId> = match key_of(t) {
            Some(key) if by_key[&key].len() >= 2 => by_key[&key].clone(),
            _ => vec![t],
        };
        let spec0 = g.spec(group[0]);
        let id = graph.add_task(TaskSpec {
            class: spec0.class,
            priority: spec0.priority,
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

/// A graph, task for task and edge for edge, in comparable form.
fn graph_rows(g: &TaskGraph) -> Vec<String> {
    (0..g.len())
        .map(|t| {
            let s = g.spec(t);
            let flops = s.flops.to_bits();
            format!("{:?} {} {:?} {flops:#x} {:?}", s.class, s.priority, s.writes, g.successors(t))
        })
        .collect()
}

struct BatchingCase {
    what: String,
    dag: CholeskyDag,
    /// Per-task rank maps to contract `dag` under (`None`: shared memory).
    rank_maps: Vec<Option<Vec<usize>>>,
}

/// The inputs every batching property runs over: the RBF geometry the
/// properties started on, random rank snapshots (trimmed and untrimmed),
/// and the hostile shapes — one tile, all-null off-diagonals, a panel
/// with a single GEMM — each without a rank map and with random rank
/// maps, one of them over more ranks than the grid has tiles.
fn batching_cases() -> Vec<BatchingCase> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % bound
    };
    let b = 32;
    let mut snapshots: Vec<(String, RankSnapshot)> = Vec::new();
    let snapshot = |nt: usize, offdiag: &mut dyn FnMut() -> usize| {
        let mut ranks = vec![0usize; nt * nt];
        for i in 0..nt {
            for j in 0..i {
                ranks[i * nt + j] = offdiag();
                ranks[j * nt + i] = ranks[i * nt + j];
            }
            ranks[i * nt + i] = b;
        }
        RankSnapshot::new(nt, b, ranks)
    };
    let rbf = Matrix::from_fn(192, 192, rbf_gen(192, 6.0, 11));
    snapshots.push(("rbf".into(), compressed(&rbf, 24, 1e-8).rank_snapshot()));
    snapshots.push(("nt = 1".into(), snapshot(1, &mut || 0)));
    snapshots.push(("null off-diagonals".into(), snapshot(5, &mut || 0)));
    snapshots.push(("single-GEMM panel".into(), snapshot(3, &mut || 4)));
    for case in 0..12 {
        let nt = 2 + next(11);
        let density = 1 + next(10);
        let mut offdiag = || if next(10) < density { 1 + next(b) } else { 0 };
        snapshots.push((format!("random {case} (nt {nt})"), snapshot(nt, &mut offdiag)));
    }
    let mut cases = Vec::new();
    for (name, snap) in &snapshots {
        for trimmed in [true, false] {
            let dag = build_cholesky_dag(snap, &DagConfig { trimmed, ..DagConfig::default() });
            let tiles = snap.nt() * (snap.nt() + 1) / 2;
            let mut map = |nranks: usize| Some((0..dag.graph.len()).map(|_| next(nranks)).collect());
            let rank_maps = vec![None, map(2), map(4), map(tiles + 3)];
            cases.push(BatchingCase { what: format!("{name}, trimmed {trimmed}"), dag, rank_maps });
        }
    }
    cases
}

/// The pass actually fuses on the RBF geometry, and on every input the
/// DES / cost-model invariant holds: each batched task's modeled flops
/// are exactly the sum of its members', leaving the graph total
/// unchanged; groups never span ranks; and the hash-free contraction is
/// the hash-based one — same graph, `members`, `of` and `fused_groups`.
#[test]
fn batched_flops_are_member_sums() {
    let cases = batching_cases();
    let with_maps = cases.iter().flat_map(|c| c.rank_maps.iter().map(move |m| (&c.what, &c.dag, m)));
    for (what, dag, exec_rank) in with_maps {
        let pb = batch_panel_gemms(dag, exec_rank.as_deref());

        if what.starts_with("rbf") && exec_rank.is_none() {
            assert!(pb.fused_groups > 0, "test geometry must produce fused panels");
            assert!(pb.graph.len() < dag.graph.len());
        }
        for (bid, group) in pb.members.iter().enumerate() {
            let sum: f64 = group.iter().map(|&t| dag.graph.spec(t).flops).sum();
            assert_eq!(
                pb.graph.spec(bid).flops,
                sum,
                "{what}: batched flops must be the exact member sum"
            );
            if let Some(er) = exec_rank {
                assert!(group.iter().all(|&t| er[t] == er[group[0]]), "{what}: group spans ranks");
            }
        }
        assert_eq!(pb.graph.total_flops(), dag.graph.total_flops(), "{what}");
        assert!(
            pb.graph.topological_order().is_some(),
            "{what}: contracted graph must stay acyclic"
        );

        let oracle = reference_batch_panel_gemms(dag, exec_rank.as_deref());
        assert_eq!(pb.members, oracle.members, "{what}: members");
        assert_eq!(pb.of, oracle.of, "{what}: of");
        assert_eq!(pb.fused_groups, oracle.fused_groups, "{what}: fused_groups");
        assert_eq!(graph_rows(&pb.graph), graph_rows(&oracle.graph), "{what}: graph");
    }
}

/// Fusing dedups the shared `(n, k)` operand edges, so a fused
/// distributed run never ships more messages than the unfused one.
#[test]
fn fused_distributed_run_ships_no_more_messages() {
    let n = 120;
    let b = 24;
    let acc = 1e-8;
    let dense = Matrix::from_fn(n, n, rbf_gen(n, 8.0, 5));
    let dist = TwoDBlockCyclic::new(4);

    let mut cfg = FactorConfig::with_accuracy(acc);
    cfg.batch_panels = false;
    let mut unfused = compressed(&dense, b, acc);
    let comm_off = Session::distributed(cfg, 4, &dist)
        .run(&mut unfused)
        .unwrap()
        .comm
        .unwrap();

    cfg.batch_panels = true;
    let mut fused = compressed(&dense, b, acc);
    let comm_on = Session::distributed(cfg, 4, &dist)
        .run(&mut fused)
        .unwrap()
        .comm
        .unwrap();

    assert_eq!(
        fused.to_dense_lower().as_slice(),
        unfused.to_dense_lower().as_slice()
    );
    assert!(
        comm_on.messages <= comm_off.messages,
        "fusion cannot add messages ({} > {})",
        comm_on.messages,
        comm_off.messages
    );
    assert!(comm_on.bytes <= comm_off.bytes);
}

/// The `BatchObs` span-splitting sink keeps the trace at original-task
/// granularity: a fused shared-memory run still records one span per DAG
/// task, and the per-class wall-clock attribution stays populated.
#[test]
fn fused_run_keeps_per_task_attribution() {
    let n = 120;
    let b = 24;
    let acc = 1e-6;
    let dense = Matrix::from_fn(n, n, rbf_gen(n, 6.0, 23));
    let mut m = compressed(&dense, b, acc);
    let mut cfg = FactorConfig::with_accuracy(acc);
    cfg.nthreads = 2;
    cfg.batch_panels = true;
    cfg.collect_trace = true;
    let out = Session::shared(cfg).run(&mut m).unwrap();
    let trace = out.trace.expect("collect_trace must trace");
    assert_eq!(
        trace.records.len(),
        out.report.dag_tasks,
        "span splitting must record every original task"
    );
    assert!(out.report.breakdown.gemm > 0.0);
    assert!(out.critical_path_seconds.unwrap() > 0.0);
    assert!(trace.breakdown().gemm > 0.0);
}
