//! Fault-injection integration tests: the full RBF pipeline factorized on
//! the fault-tolerant distributed engine under seeded network faults and
//! rank crashes must reproduce the shared-memory factor *exactly*, and the
//! numeric recovery path (bounded per-panel diagonal-shift retries) must
//! rescue borderline-indefinite operators end to end, with the same bits
//! on every engine, at every thread count and under a crash replay.

use hicma_parsec::cholesky::{
    factorize, CholeskySpace, DagConfig, FactorConfig, FactorReport, IntegrityMode, Session,
    TaskKind,
};
use hicma_parsec::distribution::{DiamondDistribution, TileDistribution, TwoDBlockCyclic};
use hicma_parsec::linalg::norms::relative_diff;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::mesh::geometry::{virus_population, VirusConfig};
use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
use hicma_parsec::mesh::GaussianRbf;
use hicma_parsec::runtime::graph::Dataflow;
use hicma_parsec::runtime::{Counter, FaultPlan};
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Shared fixture: a Hilbert-ordered virus cloud and its kernel.
fn fixture(
    n_viruses: usize,
    per_virus: usize,
    seed: u64,
) -> (Vec<hicma_parsec::mesh::Point3>, GaussianRbf) {
    let cfg = VirusConfig {
        points_per_virus: per_virus,
        ..Default::default()
    };
    let raw = virus_population(n_viruses, &cfg, seed);
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    let kernel = GaussianRbf::from_min_distance(&points);
    (points, kernel)
}

/// Messages of the fault-free 4-rank run of the proptests' 96 × 96,
/// b = 24 Gaussian problem at ε = 1e-8 (its first sends), computed once.
fn clean_comm_messages() -> u64 {
    static MESSAGES: OnceLock<u64> = OnceLock::new();
    *MESSAGES.get_or_init(|| {
        let ccfg = CompressionConfig::with_accuracy(1e-8);
        let mut m = TlrMatrix::from_generator(96, 24, gaussian_gen(96, 6.0), &ccfg);
        let dist = DiamondDistribution::new(4);
        let out = Session::distributed(FactorConfig::with_accuracy(1e-8), 4, &dist).run(&mut m);
        out.expect("fault-free").comm.expect("distributed").messages
    })
}

/// A smooth synthetic SPD generator (Gaussian kernel + diagonal bump),
/// cheap enough for many property cases.
fn gaussian_gen(n: usize, corr: f64) -> impl Fn(usize, usize) -> f64 + Sync {
    move |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / corr);
        let v = (-d * d).exp();
        if i == j {
            v + 1e-3
        } else {
            v
        }
    }
}

#[test]
fn faulty_network_and_crash_reproduce_shared_memory_factor() {
    // Acceptance scenario: ≥10% cross-rank message drops plus one rank
    // crash in mid-factorization. The FT engine retransmits, dedups, and
    // migrates the dead rank's tasks onto survivors — and because every
    // consumer still reads exactly the payload versions the fault-free
    // schedule would have produced, the factor must match the
    // shared-memory run bit for bit.
    let (points, kernel) = fixture(2, 180, 71);
    let n = points.len();
    let accuracy = 1e-7;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut shared = TlrMatrix::from_generator(n, 72, kernel.generator(&points), &ccfg);
    let mut faulty = TlrMatrix::from_generator(n, 72, kernel.generator(&points), &ccfg);
    let fcfg = FactorConfig::with_accuracy(accuracy);
    factorize(&mut shared, &fcfg).unwrap();

    let plan = FaultPlan::new(2026)
        .with_drops(0.12)
        .with_duplicates(0.05)
        .with_jitter(0.8)
        .with_crash(1, 15.0);
    let reg = Session::distributed(fcfg, 6, &DiamondDistribution::new(6))
        .with_fault_layer(&plan)
        .run(&mut faulty)
        .expect("plan is survivable: one crash, five survivors")
        .registry
        .expect("every run reports its registry");

    assert_eq!(reg.counter(Counter::Crashes), 1, "the scheduled crash must fire");
    assert!(
        reg.counter(Counter::MessagesDropped) > 0,
        "drop injection must bite"
    );
    assert!(
        reg.counter(Counter::TasksMigrated) > 0,
        "recovery must migrate work"
    );
    assert!(
        reg.counter(Counter::Retransmissions) > 0,
        "drops must force retransmits"
    );
    let diff = relative_diff(&faulty.to_dense_lower(), &shared.to_dense_lower());
    assert!(
        diff == 0.0,
        "fault recovery must be numerically invisible, got diff {diff}"
    );
}

/// A crash on a rank that owns a tile no task writes: the tile's only
/// copy is the dead rank's checkpoint, which recovery hands to a
/// survivor, and the gather must still find it there. The factor is the
/// shared-memory one bit for bit.
#[test]
fn crash_of_the_owner_of_an_unwritten_tile_reproduces_shared_memory_factor() {
    let (points, kernel) = fixture(2, 180, 42);
    let n = points.len();
    let accuracy = 1e-6;
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut shared = TlrMatrix::from_generator(n, 72, kernel.generator(&points), &ccfg);
    let mut crashed = TlrMatrix::from_generator(n, 72, kernel.generator(&points), &ccfg);
    let fcfg = FactorConfig::with_accuracy(accuracy);
    let dist = DiamondDistribution::new(4);

    // Premise: the trimmed DAG leaves some tile owned by rank 1 unwritten.
    let dag = DagConfig { trimmed: fcfg.trimmed, rank_cap: fcfg.max_rank };
    let space = CholeskySpace::new(&crashed.rank_snapshot(), &dag);
    let written: HashSet<(usize, usize)> = space
        .kinds()
        .map(|kind| match kind {
            TaskKind::Potrf { k } => (k, k),
            TaskKind::Trsm { k, m } => (m, k),
            TaskKind::Syrk { m, .. } => (m, m),
            TaskKind::Gemm { m, n, .. } => (m, n),
        })
        .collect();
    let nt = crashed.nt();
    let unwritten_on_1 = (0..nt)
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .filter(|&(i, j)| !written.contains(&(i, j)) && dist.owner(i, j) == 1)
        .count();
    assert!(unwritten_on_1 > 0, "rank 1 owns no unwritten tile");

    factorize(&mut shared, &fcfg).unwrap();
    let ft = FaultPlan::new(9).with_crash(1, 10.0);
    let reg = Session::distributed(fcfg, 4, &dist)
        .with_fault_layer(&ft)
        .run(&mut crashed)
        .expect("one crash among four ranks is survivable")
        .registry
        .expect("every run reports its registry");
    assert_eq!(reg.counter(Counter::Crashes), 1, "the scheduled crash must fire");
    let diff = relative_diff(&crashed.to_dense_lower(), &shared.to_dense_lower());
    assert!(diff == 0.0, "the gathered factor moved, diff {diff}");
}

#[test]
fn borderline_indefinite_rbf_recovers_end_to_end() {
    // Numeric recovery at the pipeline level: cancel the SPD diagonal
    // bump of a Gaussian operator and overshoot by 1e-7, leaving
    // λ_min ≈ −1e-7. Its dense Cholesky fails; with the bounded
    // diagonal-shift retries the factorization succeeds and reports the
    // shift.
    let n = 192;
    let gen = gaussian_gen(n, 6.0);
    let shifted = move |i: usize, j: usize| gen(i, j) - if i == j { 1e-3 + 1e-7 } else { 0.0 };
    let ccfg = CompressionConfig::with_accuracy(1e-8);
    let a = Matrix::from_fn(n, n, &shifted);
    hicma_parsec::linalg::potrf(&mut a.clone()).expect_err("test premise: operator is indefinite");

    let mut rescued = TlrMatrix::from_generator(n, 48, &shifted, &ccfg);
    let report = factorize(&mut rescued, &FactorConfig::with_accuracy(1e-8))
        .expect("shift retries must rescue");
    assert!(!report.panel_shifts.is_empty(), "recovery must have shifted a panel");
    assert!(report.shift_attempts >= 1);
    assert!(report.diagonal_shift > 0.0 && report.diagonal_shift <= 1e-3);

    // The factor is a valid Cholesky of the operator with each shifted
    // panel's own shift on its rows, and of no other.
    let err = shifted_residual(&rescued.to_dense_lower(), &a, 48, &report);
    assert!(err < 1e-5, "shifted reconstruction error {err}");
}

/// `‖L·Lᵀ − (A + Σ_k ε_k·I_k)‖ / ‖A + Σ_k ε_k·I_k‖` for the dense
/// factor `l`, the input `a` at tile size `b` and the panel shifts of
/// `report`.
fn shifted_residual(l: &Matrix, a: &Matrix, b: usize, report: &FactorReport) -> f64 {
    let n = a.rows();
    let mut target = a.clone();
    for p in &report.panel_shifts {
        for d in p.panel * b..((p.panel + 1) * b).min(n) {
            target[(d, d)] += p.shift;
        }
    }
    let mut recon = Matrix::zeros(n, n);
    hicma_parsec::linalg::gemm(
        hicma_parsec::linalg::Trans::No,
        hicma_parsec::linalg::Trans::Yes,
        1.0,
        l,
        l,
        0.0,
        &mut recon,
    );
    relative_diff(&recon, &target)
}

/// Two bodies with no coupling, each barely indefinite (λ_min ≈ −1e-7):
/// on the trimmed space no path joins body A's POTRFs to body B's, so
/// the two run concurrently. Each failing panel's shift is a function of
/// its own tile, so the factor's bits are the same at 1, 2 and 8
/// threads, on a 4-rank distributed session, and when a crash makes
/// that session replay a shifted POTRF.
#[test]
fn separated_bodies_shift_their_own_panels_on_every_engine() {
    const B: usize = 24;
    // Body A: 48 rows (panels 0–1); body B: 72 rows (panels 2–4).
    let (na, nb) = (48, 72);
    let body = |n: usize, corr: f64| {
        let gen = gaussian_gen(n, corr);
        move |i: usize, j: usize| gen(i, j) - if i == j { 1e-3 + 1e-7 } else { 0.0 }
    };
    let (body_a, body_b) = (body(na, 6.0), body(nb, 8.0));
    let n = na + nb;
    let dense = Matrix::from_fn(n, n, |i, j| match (i < na, j < na) {
        (true, true) => body_a(i, j),
        (false, false) => body_b(i - na, j - na),
        _ => 0.0,
    });
    let ccfg = CompressionConfig::with_accuracy(1e-8);
    let fresh = || TlrMatrix::from_dense(&dense, B, &ccfg);
    let cfg = FactorConfig::with_accuracy(1e-8);

    // Premise: nothing reachable from POTRF(0) touches body B's panels.
    let space = CholeskySpace::new(
        &fresh().rank_snapshot(),
        &DagConfig { trimmed: true, rank_cap: cfg.max_rank },
    );
    let (mut seen, mut stack, mut succ) = (HashSet::new(), vec![0], Vec::new());
    while let Some(t) = stack.pop() {
        if seen.insert(t) {
            space.successors_into(t, &mut succ);
            stack.extend(succ.iter().copied());
        }
    }
    assert!(
        seen.iter().all(|&t| space.kind(t).panel() < na / B),
        "a path joins the two bodies"
    );
    let potrf_b = space.id(TaskKind::Potrf { k: na / B });
    assert_eq!(space.indegrees().nth(potrf_b), Some(0), "body B starts unblocked");

    let mut reference = None;
    for nthreads in [1, 2, 8] {
        let mut m = fresh();
        let report = factorize(&mut m, &FactorConfig { nthreads, ..cfg }).expect("rescued");
        let l = m.to_dense_lower();
        match &reference {
            None => reference = Some((l, report)),
            Some((l0, r0)) => {
                assert_eq!(l.as_slice(), l0.as_slice(), "factor moved at {nthreads} threads");
                assert_eq!(report.panel_shifts, r0.panel_shifts);
            }
        }
    }
    let (l_shared, report) = reference.expect("three runs");
    let panels: Vec<usize> = report.panel_shifts.iter().map(|p| p.panel).collect();
    assert!(
        panels.iter().any(|&k| k < na / B) && panels.iter().any(|&k| k >= na / B),
        "premise: both bodies shift a panel, got {panels:?}"
    );
    let err = shifted_residual(&l_shared, &dense, B, &report);
    assert!(err < 1e-5, "shifted reconstruction error {err}");

    // The 4-rank distributed session, fault-free and traced: the same
    // bits and shifts, and the rank and end time of a shifted POTRF
    // whose rank has work left after it, for the crash below.
    let dist = TwoDBlockCyclic::new(4);
    let traced = FactorConfig { collect_trace: true, ..cfg };
    let mut m = fresh();
    let out = Session::distributed(traced, 4, &dist).run(&mut m).expect("rescued");
    assert_eq!(m.to_dense_lower().as_slice(), l_shared.as_slice(), "distributed factor moved");
    assert_eq!(out.report.panel_shifts, report.panel_shifts);
    let trace = out.trace.expect("traced run");
    let (potrf, done) = report
        .panel_shifts
        .iter()
        .map(|p| space.id(TaskKind::Potrf { k: p.panel }))
        .find_map(|t| {
            let done = trace.records.iter().find(|r| r.task == t)?;
            let later = trace.records.iter().any(|r| r.proc == done.proc && r.start > done.end);
            later.then_some((t, done))
        })
        .expect("premise: a shifted POTRF's rank has work after it");

    // Crash the rank that ran that POTRF just after it finished: the
    // survivor replays it from the checkpoint and recomputes its shift.
    let ft = FaultPlan::new(5).with_crash(done.proc, done.end + 0.5);
    let mut m = fresh();
    let out = Session::distributed(traced, 4, &dist)
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect("one crash among four ranks is survivable");
    let runs = out.trace.expect("traced run").records.iter().filter(|r| r.task == potrf).count();
    let panel = space.kind(potrf).panel();
    assert!(runs >= 2, "premise: the crash must replay POTRF({panel}), ran {runs}×");
    assert_eq!(m.to_dense_lower().as_slice(), l_shared.as_slice(), "replayed factor moved");
    assert_eq!(out.report.panel_shifts, report.panel_shifts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any survivable lossy/reordering network — random drop and
    /// duplication rates, random delivery jitter (which reorders
    /// messages), random seed — yields the exact shared-memory factor.
    #[test]
    fn lossy_reordered_network_is_numerically_invisible(
        seed in 0u64..100_000,
        drop_pct in 0u32..30,
        dup_pct in 0u32..30,
        jitter_tenths in 0u32..25,
    ) {
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let mut shared = TlrMatrix::from_generator(n, b, &gen, &ccfg);
        let mut faulty = TlrMatrix::from_generator(n, b, &gen, &ccfg);
        let fcfg = FactorConfig::with_accuracy(acc);
        factorize(&mut shared, &fcfg).unwrap();

        let plan = FaultPlan::new(seed)
            .with_drops(drop_pct as f64 / 100.0)
            .with_duplicates(dup_pct as f64 / 100.0)
            .with_jitter(jitter_tenths as f64 / 10.0);
        let outcome = Session::distributed(fcfg, 4, &DiamondDistribution::new(4))
            .with_fault_layer(&plan)
            .run(&mut faulty);
        prop_assert!(outcome.is_ok(), "survivable plan failed: {:?}", outcome.err());
        let diff = relative_diff(&faulty.to_dense_lower(), &shared.to_dense_lower());
        prop_assert!(diff == 0.0, "network faults changed the factor: {diff}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any lossy *and* corrupted network preserves the communication-
    /// ledger invariants: every attempt is counted (`comm.messages ==
    /// clean-run messages + retransmissions`), every mutated payload is detected and
    /// NACKed exactly once, no send is abandoned, and the factor stays
    /// bit-identical to the shared-memory run.
    #[test]
    fn corrupted_lossy_network_preserves_comm_invariants(
        seed in 0u64..100_000,
        drop_pct in 0u32..20,
        corrupt_pct in 0u32..40,
    ) {
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let mut shared = TlrMatrix::from_generator(n, b, &gen, &ccfg);
        let mut faulty = TlrMatrix::from_generator(n, b, &gen, &ccfg);
        let fcfg = FactorConfig::with_accuracy(acc);
        factorize(&mut shared, &fcfg).unwrap();

        let plan = FaultPlan::new(seed)
            .with_drops(drop_pct as f64 / 100.0)
            .with_message_corruption(corrupt_pct as f64 / 100.0);
        let out = Session::distributed(fcfg, 4, &DiamondDistribution::new(4))
            .with_fault_layer(&plan)
            .run(&mut faulty);
        prop_assert!(out.is_ok(), "survivable plan failed: {:?}", out.err());
        let out = out.unwrap();
        let reg = out.registry.as_ref().unwrap();
        let comm = out.comm.as_ref().unwrap();
        let c = |k| reg.counter(k);
        prop_assert_eq!(
            comm.messages,
            clean_comm_messages() + c(Counter::Retransmissions),
            "comm ledger must count every attempt, NACK-driven ones included"
        );
        prop_assert_eq!(c(Counter::CorruptionsDetected), c(Counter::MessagesCorrupted),
            "exact digests admit no false negatives and no store strikes ran");
        prop_assert_eq!(c(Counter::NacksSent), c(Counter::CorruptionsDetected),
            "every detected payload must be NACKed exactly once");
        prop_assert_eq!(c(Counter::SendsAbandoned), 0, "NACK/retransmit must converge");
        prop_assert_eq!(c(Counter::StoreCorruptionsInjected), 0);
        let diff = relative_diff(&faulty.to_dense_lower(), &shared.to_dense_lower());
        prop_assert!(diff == 0.0, "corruption changed the factor: {diff}");
    }

    /// A fault-free run with the integrity layer armed explicitly never
    /// trips a digest check: zero false positives, zero heal activity,
    /// and the comm ledger matches a run with the layer off.
    #[test]
    fn armed_integrity_layer_is_invisible_on_clean_runs(seed in 0u64..100_000) {
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let gen = gaussian_gen(n, 6.0);
        let ccfg = CompressionConfig::with_accuracy(acc);
        let mut plain = TlrMatrix::from_generator(n, b, &gen, &ccfg);
        let mut sealed = TlrMatrix::from_generator(n, b, &gen, &ccfg);
        let fcfg = FactorConfig::with_accuracy(acc);
        let ft = FaultPlan::new(seed);

        let base = Session::distributed(fcfg, 4, &DiamondDistribution::new(4))
            .with_fault_layer(&ft)
            .run(&mut plain)
            .unwrap();
        let mut vcfg = fcfg;
        vcfg.integrity = IntegrityMode::VerifyReads;
        let out = Session::distributed(vcfg, 4, &DiamondDistribution::new(4))
            .with_fault_layer(&ft)
            .run(&mut sealed)
            .unwrap();
        let reg = out.registry.as_ref().unwrap();
        prop_assert_eq!(reg.counter(Counter::CorruptionsDetected), 0, "false positive on a clean run");
        prop_assert_eq!(reg.counter(Counter::CorruptionsHealed), 0);
        prop_assert_eq!(reg.counter(Counter::NacksSent), 0);
        prop_assert_eq!(
            out.comm.as_ref().unwrap().messages,
            base.comm.as_ref().unwrap().messages,
            "sealing must not change the communication schedule"
        );
        let diff = relative_diff(&sealed.to_dense_lower(), &plain.to_dense_lower());
        prop_assert!(diff == 0.0, "integrity layer changed the factor: {diff}");
    }
}
