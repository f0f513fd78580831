//! Tile-integrity integration tests: seeded silent-data-corruption
//! (bit-flips in store tiles and message payloads) through the full
//! `Session` pipeline must be detected with zero false negatives,
//! healed from lineage, and leave the factor bit-identical to the
//! fault-free run — composing with message loss, rank crashes, comm
//! accounting and tracing.

use hicma_parsec::cholesky::{factorize, FactorConfig, IntegrityMode, RunError, Session};
use hicma_parsec::distribution::{DiamondDistribution, TileDistribution};
use hicma_parsec::linalg::norms::relative_diff;
use hicma_parsec::runtime::fault::MAX_KERNEL_RETRIES;
use hicma_parsec::runtime::{Counter, EngineError, FaultPlan, FtError, RunEvent};
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};

const N: usize = 96;
const B: usize = 24;
const ACC: f64 = 1e-8;

/// A smooth synthetic SPD generator (Gaussian kernel + diagonal bump).
fn gen(i: usize, j: usize) -> f64 {
    let d = (i as f64 - j as f64) / (N as f64 / 6.0);
    let v = (-d * d).exp();
    if i == j {
        v + 1e-3
    } else {
        v
    }
}

fn matrix() -> TlrMatrix {
    TlrMatrix::from_generator(N, B, gen, &CompressionConfig::with_accuracy(ACC))
}

/// The shared-memory reference factor every corrupted run must match
/// bit for bit.
fn reference_factor() -> hicma_parsec::linalg::Matrix {
    let mut m = matrix();
    factorize(&mut m, &FactorConfig::with_accuracy(ACC)).unwrap();
    m.to_dense_lower()
}

#[test]
fn store_corruption_is_detected_healed_and_numerically_invisible() {
    // Flip one bit in tile (1,0) on its owner rank mid-run. The exact
    // digest must catch it at the next read boundary (or the final
    // sweep), lineage healing must recompute it, and the factor must be
    // bit-identical to the fault-free run — a corrupting plan arms the
    // integrity layer automatically, no config flag needed.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let victim_rank = dist.owner(1, 0);
    let plan = FaultPlan::new(11).with_store_corruption(victim_rank, 1, 0, 3.0);
    let mut m = matrix();
    let outcome = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect("a single store strike is healable");
    let reg = outcome.registry.as_ref().expect("every run reports its registry");

    assert_eq!(
        reg.counter(Counter::StoreCorruptionsInjected), 1,
        "the strike must land"
    );
    assert_eq!(
        reg.counter(Counter::CorruptionsDetected), 1,
        "zero false negatives"
    );
    assert_eq!(
        reg.counter(Counter::CorruptionsHealed), 1,
        "the strike must be healed"
    );
    let detected = outcome
        .events
        .iter()
        .any(|e| matches!(e, RunEvent::CorruptionDetected { i: 1, j: 0, .. }));
    let healed = outcome
        .events
        .iter()
        .any(|e| matches!(e, RunEvent::Healed { i: 1, j: 0, .. }));
    assert!(
        detected && healed,
        "detection and heal must be reported as events"
    );
    let diff = relative_diff(&m.to_dense_lower(), &reference);
    assert!(
        diff == 0.0,
        "healing must be numerically invisible, got diff {diff}"
    );
}

#[test]
fn message_corruption_is_nacked_retransmitted_and_invisible() {
    // Corrupt a large fraction of cross-rank payloads in flight. Every
    // mutated copy must be caught at delivery (detected == corrupted),
    // NACKed (nacks == detected), and re-sent until a clean copy lands;
    // the comm ledger stays consistent and the factor exact.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let plan = FaultPlan::new(21).with_message_corruption(0.4);
    let mut m = matrix();
    let out = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect("message corruption is always recoverable via NACK/retransmit");
    let reg = out.registry.as_ref().expect("every run reports its registry");
    let comm = out.comm.as_ref().unwrap();

    assert!(reg.counter(Counter::MessagesCorrupted) > 0, "p=0.4 must corrupt something");
    assert_eq!(
        reg.counter(Counter::CorruptionsDetected),
        reg.counter(Counter::MessagesCorrupted),
        "zero false negatives"
    );
    assert_eq!(
        reg.counter(Counter::NacksSent),
        reg.counter(Counter::CorruptionsDetected),
        "every detection NACKs"
    );
    assert_eq!(reg.counter(Counter::SendsAbandoned), 0, "NACK/retransmit must converge");
    let clean = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist).run(&mut matrix());
    assert_eq!(
        comm.messages,
        clean.unwrap().comm.unwrap().messages + reg.counter(Counter::Retransmissions),
        "comm ledger counts every attempt"
    );
    let diff = relative_diff(&m.to_dense_lower(), &reference);
    assert!(diff == 0.0, "message corruption changed the factor: {diff}");
}

#[test]
fn integrity_layer_has_zero_false_positives_on_lossy_network() {
    // verify_integrity armed explicitly, aggressive loss/duplication/
    // ack-loss but NO corruption: every digest check must pass, all
    // corruption counters stay zero, and the factor stays exact.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let plan = FaultPlan::new(5)
        .with_drops(0.25)
        .with_duplicates(0.2)
        .with_ack_drops(0.2);
    let mut cfg = FactorConfig::with_accuracy(ACC);
    cfg.integrity = IntegrityMode::VerifyReads;
    let mut m = matrix();
    let out = Session::distributed(cfg, 4, &dist)
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect("lossy but uncorrupted plan is survivable");
    let reg = out.registry.as_ref().expect("every run reports its registry");

    assert!(reg.counter(Counter::MessagesDropped) > 0, "loss injection must bite");
    assert_eq!(reg.counter(Counter::MessagesCorrupted), 0);
    assert_eq!(reg.counter(Counter::CorruptionsDetected), 0, "no false positives");
    assert_eq!(reg.counter(Counter::CorruptionsHealed), 0);
    assert_eq!(reg.counter(Counter::NacksSent), 0);
    let diff = relative_diff(&m.to_dense_lower(), &reference);
    assert!(diff == 0.0, "integrity layer perturbed a clean run: {diff}");
}

#[test]
fn heal_escalation_surfaces_as_typed_error_not_panic() {
    // One strike on the same tile per virtual second: every lineage
    // re-execution meets a fresh flip, so the heal budget runs out and
    // the run must escalate to the typed IntegrityError — never a panic,
    // never a silently wrong factor.
    let dist = DiamondDistribution::new(4);
    let victim_rank = dist.owner(1, 0);
    let plan = (0..400).fold(FaultPlan::new(11), |p, s| {
        p.with_store_corruption(victim_rank, 1, 0, 3.0 + s as f64)
    });
    let mut m = matrix();
    let err = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect_err("a tile struck faster than it heals must escalate");
    match err {
        RunError::Engine(EngineError::Fault(FtError::Integrity(e))) => {
            assert_eq!(e.data, (1, 0), "error must name the corrupted tile");
        }
        other => panic!("expected a typed integrity error, got {other:?}"),
    }
}

#[test]
fn kernel_retry_budget_holds_through_the_session() {
    // A task may fail in the kernel as often as the retry budget allows
    // and the factor stays bit-identical; one failure more ends the run
    // with the typed error naming the task.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let run = |failures| {
        let plan = FaultPlan::new(0).with_kernel_failure(3, failures);
        let mut m = matrix();
        Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
            .with_fault_layer(&plan)
            .run(&mut m)
            .map(|out| (out, m.to_dense_lower()))
    };
    let (out, factor) = run(MAX_KERNEL_RETRIES).expect("the budget's last retry succeeds");
    let reg = out.registry.expect("every run reports its registry");
    assert_eq!(reg.counter(Counter::KernelFailures), u64::from(MAX_KERNEL_RETRIES));
    assert!(relative_diff(&factor, &reference) == 0.0);
    let err = run(MAX_KERNEL_RETRIES + 1).expect_err("one failure past the budget");
    assert_eq!(
        err,
        RunError::Engine(EngineError::Fault(FtError::KernelRetriesExhausted { task: 3 }))
    );
}

#[test]
fn shared_session_integrity_modes_are_clean_and_exact() {
    // The shared-memory digest side-array in both armed modes:
    // `Maintain` reseals every write and sweeps the finished factor;
    // `VerifyReads` additionally checks each version at its first read.
    // With nothing corrupting tiles neither may fire, and the factor
    // must match the unverified run exactly.
    let reference = reference_factor();
    for mode in [IntegrityMode::Maintain, IntegrityMode::VerifyReads] {
        let mut cfg = FactorConfig::with_accuracy(ACC);
        cfg.integrity = mode;
        let mut m = matrix();
        factorize(&mut m, &cfg).expect("verification of a clean run must pass");
        let diff = relative_diff(&m.to_dense_lower(), &reference);
        assert!(
            diff == 0.0,
            "digest side-array perturbed the factor ({mode:?}): {diff}"
        );
    }
}

#[test]
fn corruption_composes_with_crash_loss_and_trace() {
    // The acceptance scenario: message corruption + a store strike + a
    // rank crash + message loss in ONE run, with tracing requested. All
    // three recovery mechanisms (retransmit, lineage heal, migration)
    // must compose and the factor must still be bit-identical.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let victim_rank = dist.owner(2, 1);
    let plan = FaultPlan::new(7)
        .with_drops(0.1)
        .with_message_corruption(0.2)
        .with_store_corruption(victim_rank, 2, 1, 5.0)
        .with_crash(3, 12.0);
    let mut cfg = FactorConfig::with_accuracy(ACC);
    cfg.collect_trace = true;
    let mut m = matrix();
    let out = Session::distributed(cfg, 4, &dist)
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect("composed plan is survivable: one crash, three survivors");
    let reg = out.registry.as_ref().expect("every run reports its registry");

    assert_eq!(reg.counter(Counter::Crashes), 1, "the scheduled crash must fire");
    assert_eq!(reg.counter(Counter::StoreCorruptionsInjected), 1);
    assert!(
        reg.counter(Counter::MessagesCorrupted) > 0,
        "corruption injection must bite"
    );
    assert!(
        reg.counter(Counter::CorruptionsDetected) >= reg.counter(Counter::MessagesCorrupted),
        "every corrupted payload must be caught"
    );
    assert!(
        out.comm.is_some(),
        "comm accounting composes with the integrity layer"
    );
    let trace = out.trace.as_ref().expect("collect_trace must record a trace");
    assert!(
        !trace.records.is_empty(),
        "requested trace must have records"
    );
    let diff = relative_diff(&m.to_dense_lower(), &reference);
    assert!(diff == 0.0, "composed faults changed the factor: {diff}");
}

#[test]
fn corruption_run_is_deterministic() {
    // Same seed, same plan → byte-for-byte identical fault accounting.
    // Detection and healing are part of the deterministic virtual-time
    // schedule, not a source of nondeterminism.
    let dist = DiamondDistribution::new(4);
    let run = || {
        let plan = FaultPlan::new(21)
            .with_message_corruption(0.3)
            .with_drops(0.1);
        let mut m = matrix();
        let out = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
            .with_fault_layer(&plan)
            .run(&mut m)
            .expect("survivable");
        let reg = out.registry.expect("every run reports its registry");
        (Counter::FAULTS.iter().map(|&c| reg.counter(c)).collect::<Vec<_>>(), out.comm.unwrap())
    };
    let (s1, c1) = run();
    let (s2, c2) = run();
    assert_eq!(s1, s2, "fault accounting must be deterministic");
    assert_eq!(
        c1.messages, c2.messages,
        "comm ledger must be deterministic"
    );
}

#[test]
fn seeded_fault_counts_are_pinned() {
    // One seeded run that meets every kind of fault: drops, duplicates,
    // lost acks, a kernel failure, a crash, in-flight corruption and a
    // store strike. Each event is counted once, in the run's registry,
    // and the wire totals are its `CommStats`; the literals are the
    // counts this run produced when a separate fault-statistics record
    // still kept them, so moving the tally changed none of them.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let victim_rank = dist.owner(2, 1);
    let plan = FaultPlan::new(35)
        .with_drops(0.15)
        .with_duplicates(0.2)
        .with_ack_drops(0.2)
        .with_message_corruption(0.15)
        .with_store_corruption(victim_rank, 2, 1, 5.0)
        .with_kernel_failure(3, 1)
        .with_crash(3, 12.0);
    let mut m = matrix();
    let out = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect("one crash among four ranks is survivable");
    let reg = out.registry.as_ref().expect("every run reports its registry");
    let comm = out.comm.expect("distributed runs count communication");
    let retransmissions = reg.counter(Counter::Retransmissions);
    assert_eq!(comm.messages - retransmissions, 17, "first sends");
    assert_eq!(comm.bytes, 84_096, "bytes on the wire, every attempt");
    use Counter::*;
    for (counter, want) in [
        (Retransmissions, 14), (MessagesDropped, 3), (MessagesDuplicated, 3),
        (DuplicatesIgnored, 4), (AcksDropped, 6), (Crashes, 1), (TasksMigrated, 6),
        (TasksReexecuted, 4), (KernelFailures, 1), (SendsAbandoned, 0),
        (MessagesCorrupted, 5), (StoreCorruptionsInjected, 1), (CorruptionsDetected, 6),
        (CorruptionsHealed, 1), (NacksSent, 5),
    ] {
        assert_eq!(reg.counter(counter), want, "{}", counter.name());
    }
    assert!(relative_diff(&m.to_dense_lower(), &reference) == 0.0);
}
