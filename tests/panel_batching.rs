//! Panel-batching contract tests: fusing each panel step's trailing-column
//! GEMMs into single engine tasks (`FactorConfig::batch_panels`) is purely
//! a scheduling-granularity change. The factor must stay bit-identical to
//! the unfused run on both engines under every scheduling policy, the
//! fused cost model must be the exact sum of its members, and per-task
//! observability must survive the span-splitting shim.

use hicma_parsec::cholesky::{
    batch_panel_gemms, build_cholesky_dag, factorize, DagConfig, FactorConfig, Session,
};
use hicma_parsec::distribution::TwoDBlockCyclic;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::runtime::SchedPolicy;
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};

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

/// The pass actually fuses on this geometry, and the DES / cost-model
/// invariant holds: each batched task's modeled flops are exactly the sum
/// of its members', leaving the graph total unchanged.
#[test]
fn batched_flops_are_member_sums() {
    let n = 192;
    let b = 24;
    let acc = 1e-8;
    let dense = Matrix::from_fn(n, n, rbf_gen(n, 6.0, 11));
    let m = compressed(&dense, b, acc);
    let dag = build_cholesky_dag(&m.rank_snapshot(), &DagConfig::default());
    let pb = batch_panel_gemms(&dag, None);

    assert!(pb.fused_groups > 0, "test geometry must produce fused panels");
    assert!(pb.graph.len() < dag.graph.len());
    for (bid, group) in pb.members.iter().enumerate() {
        let sum: f64 = group.iter().map(|&t| dag.graph.spec(t).flops).sum();
        assert_eq!(
            pb.graph.spec(bid).flops,
            sum,
            "batched flops must be the exact member sum"
        );
    }
    assert_eq!(pb.graph.total_flops(), dag.graph.total_flops());
    assert!(
        pb.graph.topological_order().is_some(),
        "contracted graph must stay acyclic"
    );
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
