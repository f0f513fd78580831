//! Capability-composition tests for the unified engines: every subset of
//! {cancellation, observation, comm counting, fault layer} must produce a
//! bit-identical factor on the same seeded RBF-structured problem, with
//! communication accounting that stays consistent between the engine's
//! `CommStats` and the fault counters of the run's registry. This is the contract
//! behind one `Session` over one engine per kind.

use hicma_parsec::cholesky::{
    factorize, FactorConfig, IntegrityMode, RunError, RunOutcome, Session,
};
use hicma_parsec::distribution::{DiamondDistribution, TwoDBlockCyclic};
use hicma_parsec::linalg::norms::relative_diff;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::runtime::{Counter, FaultPlan};
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};
use proptest::prelude::*;

/// Seeded RBF-structured SPD generator (Gaussian kernel on a 1D grid
/// with a seed-dependent phase, plus a diagonal bump).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every capability subset — shared vs distributed, traced vs not,
    /// fault layer absent / fault-free / lossy / lossy-with-crash —
    /// produces the identical factor, and the comm accounting composes
    /// consistently (fault-free comm equals the no-layer run; faults
    /// only ever add messages and bytes; the first sends — `CommStats`
    /// less the registry's retransmissions — are the fault-free traffic).
    #[test]
    fn all_capability_subsets_agree(
        seed in 0u64..10_000,
        corr in 4u32..10,
        drop_pct in 0u32..20,
        dup_pct in 0u32..15,
        crash_flag in 0u32..2,
    ) {
        let crash = crash_flag == 1;
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let dense = Matrix::from_fn(n, n, rbf_gen(n, corr as f64, seed));

        // {} — plain shared-memory run: the baseline factor.
        let mut base = compressed(&dense, b, acc);
        let fcfg = FactorConfig::with_accuracy(acc);
        factorize(&mut base, &fcfg).unwrap();
        let l_base = base.to_dense_lower();

        // {obs} — tracing layered onto the shared engine must not
        // perturb the numbers (span capture stays off the kernel path).
        let mut traced = compressed(&dense, b, acc);
        let mut tcfg = fcfg;
        tcfg.collect_trace = true;
        factorize(&mut traced, &tcfg).unwrap();
        prop_assert_eq!(
            relative_diff(&traced.to_dense_lower(), &l_base), 0.0,
            "observation changed the factor"
        );

        // {counted} — distributed run (comm counting is inherent).
        let dist = TwoDBlockCyclic::new(4);
        let mut counted = compressed(&dense, b, acc);
        let out = Session::distributed(fcfg, 4, &dist).run(&mut counted).unwrap();
        let comm_base = out.comm.unwrap();
        prop_assert_eq!(
            relative_diff(&counted.to_dense_lower(), &l_base), 0.0,
            "distributed factor deviates from shared memory"
        );
        prop_assert!(comm_base.messages > 0, "4 ranks must communicate");

        // {counted, ft(fault-free)} — an explicit fault-free fault layer
        // is the same event loop with the same config: identical factor
        // *and* identical comm volume.
        let ff = FaultPlan::none();
        let mut ftff = compressed(&dense, b, acc);
        let out_ff = Session::distributed(fcfg, 4, &dist)
            .with_fault_layer(&ff)
            .run(&mut ftff)
            .unwrap();
        prop_assert_eq!(relative_diff(&ftff.to_dense_lower(), &l_base), 0.0);
        let comm_ff = out_ff.comm.unwrap();
        prop_assert_eq!(comm_ff.messages, comm_base.messages);
        prop_assert_eq!(comm_ff.bytes, comm_base.bytes);
        let reg_ff = out_ff.registry.expect("every run reports its registry");
        prop_assert!(Counter::FAULTS.iter().all(|&c| reg_ff.counter(c) == 0));

        // {counted, ft(lossy[, crash]), obs} — everything at once. The
        // factor still matches bit for bit, comm only grows, and every
        // message beyond the fault-free traffic is a retransmission.
        let mut plan = FaultPlan::new(seed)
            .with_drops(drop_pct as f64 / 100.0)
            .with_duplicates(dup_pct as f64 / 100.0)
            .with_jitter(0.5);
        if crash {
            plan = plan.with_crash(1, 12.0);
        }
        let mut full = compressed(&dense, b, acc);
        let out_full = Session::distributed(tcfg, 4, &dist)
            .with_fault_layer(&plan)
            .run(&mut full)
            .unwrap();
        prop_assert_eq!(
            relative_diff(&full.to_dense_lower(), &l_base), 0.0,
            "faults leaked into the factor"
        );
        let comm_full = out_full.comm.unwrap();
        let reg = out_full.registry.as_ref().expect("every run reports its registry");
        if !crash {
            // Without a crash the placement is unchanged, so faults can
            // only ever *add* traffic (retransmissions). A crash migrates
            // tasks, which may legitimately localize former cross-rank
            // edges, so no inequality holds there.
            prop_assert!(comm_full.messages >= comm_base.messages, "faults cannot shrink traffic");
            prop_assert!(comm_full.bytes >= comm_base.bytes);
        }
        prop_assert_eq!(
            comm_full.messages - reg.counter(Counter::Retransmissions),
            comm_base.messages,
            "first sends are the fault-free traffic"
        );
        if crash {
            prop_assert_eq!(reg.counter(Counter::Crashes), 1, "the scheduled crash must fire");
        }
    }
}

/// Cancellation composes identically everywhere: the same indefinite
/// operator reports a pivot failure (not a hang, not a panic) through the
/// shared engine, the distributed engine, and the fault layer — and the
/// reported pivot is deterministic across all three.
#[test]
fn pivot_cancellation_is_uniform_across_engines() {
    let n = 96;
    let dense = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            if i == 50 {
                -4.0
            } else {
                2.0
            }
        } else {
            0.01 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    let cfg = FactorConfig::with_accuracy(1e-8);

    let shared_pivot = {
        let mut m = compressed(&dense, 24, 1e-8);
        factorize(&mut m, &cfg).unwrap_err().pivot
    };

    let dist = TwoDBlockCyclic::new(4);
    let dist_pivot = {
        let mut m = compressed(&dense, 24, 1e-8);
        match Session::distributed(cfg, 4, &dist).run(&mut m).unwrap_err() {
            RunError::Numeric(e) => e.pivot,
            other => panic!("expected a numeric error, got {other}"),
        }
    };

    let ft = FaultPlan::none();
    let ft_pivot = {
        let mut m = compressed(&dense, 24, 1e-8);
        match Session::distributed(cfg, 4, &dist).with_fault_layer(&ft).run(&mut m).unwrap_err() {
            RunError::Numeric(e) => e.pivot,
            other => panic!("expected a numeric error, got {other}"),
        }
    };

    assert_eq!(shared_pivot, dist_pivot, "shared and distributed must report the same pivot");
    assert_eq!(dist_pivot, ft_pivot, "the fault layer must not change the reported pivot");
}

/// The headline composition: one run that is fault-tolerant,
/// comm-counted, *and* traced. Crash events pair up, comm accounting is
/// consistent, and the virtual-time trace covers every task.
#[test]
fn ft_plus_trace_plus_comm_in_one_run() {
    let n = 120;
    let b = 24;
    let acc = 1e-8;
    let dense = Matrix::from_fn(n, n, rbf_gen(n, 8.0, 7));

    let mut shared = compressed(&dense, b, acc);
    let fcfg = FactorConfig::with_accuracy(acc);
    factorize(&mut shared, &fcfg).unwrap();

    let plan = FaultPlan::new(9).with_drops(0.1).with_jitter(0.5).with_crash(1, 10.0);
    let mut m = compressed(&dense, b, acc);
    let mut tcfg = fcfg;
    tcfg.collect_trace = true;
    let out = Session::distributed(tcfg, 6, &DiamondDistribution::new(6))
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect("one crash among six ranks is survivable");

    // Factor: bit-identical to shared memory despite the faults.
    assert_eq!(relative_diff(&m.to_dense_lower(), &shared.to_dense_lower()), 0.0);

    // Comm: counted, and every message beyond the fault-free traffic is
    // one the registry counted as a retransmission.
    let comm = out.comm.expect("distributed runs count communication");
    let mut clean = compressed(&dense, b, acc);
    let clean = Session::distributed(fcfg, 6, &DiamondDistribution::new(6)).run(&mut clean).unwrap();
    let reg = out.registry.as_ref().expect("every run reports its registry");
    let first_sends = comm.messages - reg.counter(Counter::Retransmissions);
    assert_eq!(first_sends, clean.comm.unwrap().messages);
    assert_eq!(reg.counter(Counter::Crashes), 1);
    assert_eq!(out.events.len(), 2, "one crash ⇒ one Crash + one Recovery event");

    // Trace: covers every task plus the crash re-executions, inside the
    // virtual makespan.
    let trace = out.trace.expect("collect_trace must record a trace");
    assert!(
        trace.records.len() >= out.report.dag_tasks,
        "every task (plus re-executions) must be traced: {} < {}",
        trace.records.len(),
        out.report.dag_tasks
    );
    assert!(trace.makespan() <= out.virtual_makespan.unwrap() + 1e-12);
}

/// Hostile shapes through the one task body on both engines: a single
/// tile, a ragged last tile row, more ranks than tiles, and a matrix
/// whose off-diagonal tiles are all null (the trimmed DAG is its POTRFs).
/// Every capability subset — plain, sealed, traced, fault-free fault
/// layer — factors bit-identically to the plain shared run; every
/// distributed subset counts the same traffic; and a
/// fault-free distributed run reports the shared run's recompressions.
#[test]
fn hostile_shapes_agree_across_engines_and_capabilities() {
    struct Shape {
        name: &'static str,
        n: usize,
        b: usize,
        nprocs: usize,
        /// Off-diagonal tiles are exactly zero (block-diagonal operator).
        block_diagonal: bool,
    }
    let shapes = [
        Shape {
            name: "nt = 1",
            n: 24,
            b: 24,
            nprocs: 4,
            block_diagonal: false,
        },
        Shape {
            name: "ragged last row",
            n: 148,
            b: 24,
            nprocs: 4,
            block_diagonal: false,
        },
        Shape {
            name: "more ranks than tiles",
            n: 48,
            b: 24,
            nprocs: 6,
            block_diagonal: false,
        },
        Shape {
            name: "null off-diagonals",
            n: 96,
            b: 24,
            nprocs: 4,
            block_diagonal: true,
        },
    ];
    let acc = 1e-8;
    let ff = FaultPlan::none();
    for shape in &shapes {
        let Shape {
            name,
            n,
            b,
            nprocs,
            block_diagonal,
        } = *shape;
        let rbf = rbf_gen(n, 6.0, 11);
        let dense = Matrix::from_fn(n, n, |i, j| {
            if block_diagonal && i / b != j / b {
                0.0
            } else {
                rbf(i, j)
            }
        });
        let nt = n.div_ceil(b);

        let plain = FactorConfig::with_accuracy(acc);
        let mut sealed = plain;
        sealed.integrity = IntegrityMode::Maintain;
        let mut traced = plain;
        traced.collect_trace = true;

        let shared = |cfg: FactorConfig| -> (Matrix, RunOutcome) {
            let mut m = compressed(&dense, b, acc);
            let out = Session::shared(cfg)
                .run(&mut m)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (m.to_dense_lower(), out)
        };
        let dist = TwoDBlockCyclic::new(nprocs);
        let distributed = |cfg: FactorConfig, ft: Option<&FaultPlan>| -> (Matrix, RunOutcome) {
            let mut m = compressed(&dense, b, acc);
            let mut s = Session::distributed(cfg, nprocs, &dist);
            if let Some(ft) = ft {
                s = s.with_fault_layer(ft);
            }
            let out = s.run(&mut m).unwrap_or_else(|e| panic!("{name}: {e}"));
            (m.to_dense_lower(), out)
        };

        let (l_base, out_base) = shared(plain);
        if block_diagonal {
            assert_eq!(
                out_base.report.dag_tasks, nt,
                "{name}: trimmed DAG must be POTRFs only"
            );
        }
        let recompressions = out_base.rank_evolution.histogram();
        for (what, cfg) in [("sealed", sealed), ("traced", traced)] {
            let (l, out) = shared(cfg);
            assert_eq!(
                l.as_slice(),
                l_base.as_slice(),
                "{name}: shared {what} factor"
            );
            assert_eq!(
                out.rank_evolution.histogram(),
                recompressions,
                "{name}: shared {what}"
            );
        }

        let run_plain = distributed(plain, None);
        let comm_plain = run_plain
            .1
            .comm
            .expect("distributed runs count communication");
        let runs = [
            ("plain", run_plain),
            ("sealed", distributed(sealed, None)),
            ("traced", distributed(traced, None)),
            ("fault-free layer", distributed(plain, Some(&ff))),
        ];
        for (what, (l, out)) in &runs {
            assert_eq!(
                l.as_slice(),
                l_base.as_slice(),
                "{name}: distributed {what} factor"
            );
            assert_eq!(
                out.rank_evolution.histogram(),
                recompressions,
                "{name}: distributed {what} must report the shared run's recompressions"
            );
            let comm = out.comm.expect("distributed runs count communication");
            assert_eq!(comm, comm_plain, "{name}: {what} ships the same tiles");
            assert_eq!(out.trace.is_some(), *what == "traced", "{name}: {what}");
            let reg = out.registry.as_ref().expect("every run reports its registry");
            assert!(
                Counter::FAULTS.iter().all(|&c| reg.counter(c) == 0),
                "{name}: {what} counts no fault event"
            );
        }
    }
}
