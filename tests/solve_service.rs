//! Multi-tenant [`SolveService`] contract: concurrent requests through
//! one service produce bit-identical factors and correct solves, per-
//! tenant admission (in-flight cap, arena-byte budget) is enforced with
//! typed rejections before any kernel runs, the measured workspace
//! high-water mark never exceeds the charged estimate, and accounting
//! returns to zero when the dust settles.

use hicma_parsec::cholesky::{
    factorize, solve_residual, FactorConfig, RunError, ServiceError, SolveService, TenantConfig,
};
use hicma_parsec::linalg::norms::relative_diff;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};

const N: usize = 96;
const B: usize = 24;
const ACC: f64 = 1e-8;

fn test_matrix() -> Matrix {
    Matrix::from_fn(N, N, |i, j| {
        let d = (i as f64 - j as f64) / (N as f64 / 6.0);
        let v = (-d * d).exp() * (1.0 + 0.05 * ((i + j) as f64 * 0.01).sin());
        if i == j {
            v + 1e-3
        } else {
            v
        }
    })
}

fn compressed(dense: &Matrix) -> TlrMatrix {
    TlrMatrix::from_dense(dense, B, &CompressionConfig::with_accuracy(ACC))
}

/// Eight threads hammer one service (one tenant, generous budget): every
/// factor is bit-identical to a fresh reference, every solve checks out
/// against the dense operator, the symbolic phase ran exactly once
/// (pre-warm miss, then hits), and all accounting drains back to zero.
#[test]
fn concurrent_requests_share_one_plan_and_stay_within_budget() {
    let dense = test_matrix();
    let cfg = FactorConfig::with_accuracy(ACC);

    let mut reference = compressed(&dense);
    factorize(&mut reference, &cfg).unwrap();
    let l_ref = reference.to_dense_lower();

    let service = SolveService::new(4);
    let charged = SolveService::arena_estimate_bytes(cfg.nthreads, B);
    let budget = charged * 16; // roomy: admission should never trip here
    service.register_tenant(
        "acme",
        TenantConfig {
            max_in_flight: 16,
            memory_budget_bytes: budget,
        },
    );

    // Pre-warm sequentially so the hit/miss split is deterministic (a
    // concurrent cold start may legitimately build the plan more than
    // once — get_or_build constructs outside the lock).
    let mut warmup = compressed(&dense);
    let out = service
        .factorize_and_solve("acme", &cfg, &mut warmup, None)
        .unwrap();
    assert!(
        out.measured_bytes <= out.charged_bytes,
        "measured arena high-water {} exceeds the charged estimate {}",
        out.measured_bytes,
        out.charged_bytes
    );
    assert_eq!(service.plan_cache().misses(), 1);

    let threads = 8;
    let rhs: Vec<f64> = (0..N).map(|i| 1.0 + (i as f64 * 0.1).cos()).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            handles.push(s.spawn(|| {
                let mut m = compressed(&dense);
                let out = service
                    .factorize_and_solve("acme", &cfg, &mut m, Some(&rhs))
                    .unwrap();
                (m.to_dense_lower(), out)
            }));
        }
        for h in handles {
            let (l, out) = h.join().unwrap();
            assert_eq!(
                relative_diff(&l, &l_ref),
                0.0,
                "concurrent factor deviated from the fresh reference"
            );
            let x = out.solution.as_ref().expect("rhs was supplied");
            assert!(
                solve_residual(&dense, x, &rhs) < 1e-6,
                "solution residual too large"
            );
            assert!(out.measured_bytes <= out.charged_bytes);
        }
    });

    // One symbolic build total; everything after the warm-up hit.
    assert_eq!(service.plan_cache().misses(), 1);
    assert_eq!(service.plan_cache().hits(), threads as u64);

    let usage = service.usage("acme").unwrap();
    assert_eq!(usage.in_flight, 0, "all requests released");
    assert_eq!(usage.in_use_bytes, 0, "all charges released");
    assert_eq!(usage.admitted, threads as u64 + 1);
    assert_eq!(usage.rejected, 0);
    assert!(
        usage.peak_arena_bytes <= budget,
        "tenant peak {} exceeded its budget {}",
        usage.peak_arena_bytes,
        budget
    );
}

/// Every rejection path returns its typed error, before any kernel runs,
/// and the tenant ledger counts it (an unknown tenant has no ledger).
#[test]
fn rejections_are_typed_and_counted() {
    let dense = test_matrix();
    let cfg = FactorConfig::with_accuracy(ACC);
    let service = SolveService::new(2);

    // Unknown tenant.
    let mut m = compressed(&dense);
    match service.factorize("nobody", &cfg, &mut m) {
        Err(ServiceError::UnknownTenant(t)) => assert_eq!(t, "nobody"),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    // Drained tenant: zero in-flight slots.
    service.register_tenant(
        "drained",
        TenantConfig {
            max_in_flight: 0,
            memory_budget_bytes: u64::MAX,
        },
    );
    match service.factorize("drained", &cfg, &mut m) {
        Err(ServiceError::InFlightLimit { tenant, limit }) => {
            assert_eq!(tenant, "drained");
            assert_eq!(limit, 0);
        }
        other => panic!("expected InFlightLimit, got {other:?}"),
    }

    // Broke tenant: zero-byte budget cannot fit any request.
    service.register_tenant(
        "broke",
        TenantConfig {
            max_in_flight: 4,
            memory_budget_bytes: 0,
        },
    );
    let charged = SolveService::arena_estimate_bytes(cfg.nthreads, B);
    match service.factorize("broke", &cfg, &mut m) {
        Err(ServiceError::MemoryBudget {
            tenant,
            requested,
            budget,
            in_use,
        }) => {
            assert_eq!(tenant, "broke");
            assert_eq!(requested, charged);
            assert_eq!(budget, 0);
            assert_eq!(in_use, 0);
        }
        other => panic!("expected MemoryBudget, got {other:?}"),
    }

    // Single-slot tenant, right-hand side one entry short: refused before
    // admission, so no charge can leak and the slot stays free.
    service.register_tenant("single", TenantConfig { max_in_flight: 1, memory_budget_bytes: u64::MAX });
    let short = vec![1.0; N - 1];
    match service.factorize_and_solve("single", &cfg, &mut m, Some(&short)) {
        Err(ServiceError::RhsLength { expected, got }) => assert_eq!((expected, got), (N, N - 1)),
        other => panic!("expected RhsLength, got {other:?}"),
    }

    // Nothing ran: the matrix is still unfactored (factoring mutates
    // tiles in place; a pristine compress round-trips the source).
    assert!(relative_diff(&m.to_dense(), &dense) < 1e-6);

    for t in ["drained", "broke", "single"] {
        let u = service.usage(t).unwrap();
        assert_eq!(u.admitted, 0);
        assert_eq!(u.rejected, 1);
        assert_eq!(u.in_flight, 0);
        assert_eq!(u.in_use_bytes, 0);
    }
    let mut fresh = compressed(&dense);
    let rhs = vec![1.0; N];
    let solved = service.factorize_and_solve("single", &cfg, &mut fresh, Some(&rhs));
    assert!(solved.expect("the slot is free").solution.is_some());

    // Reconfiguring lifts the limit without resetting the ledger.
    service.register_tenant(
        "broke",
        TenantConfig {
            max_in_flight: 4,
            memory_budget_bytes: charged,
        },
    );
    service.factorize("broke", &cfg, &mut m).unwrap();
    let u = service.usage("broke").unwrap();
    assert_eq!(u.admitted, 1);
    assert_eq!(u.rejected, 1);
}

/// An admitted request whose factorization fails releases its charge
/// exactly once: the tenant's one slot and its bytes come back, the
/// failure counts as admitted (not rejected), and the next request on
/// that tenant is admitted and factors.
#[test]
fn failed_admitted_request_releases_its_charge_once() {
    let service = SolveService::new(2);
    service.register_tenant("one", TenantConfig { max_in_flight: 1, memory_budget_bytes: u64::MAX });
    let cfg = FactorConfig::with_accuracy(ACC);
    // Indefinite: the SPD test matrix with its diagonal pushed negative.
    let mut indefinite = test_matrix();
    for i in 0..N {
        indefinite[(i, i)] -= 2.0;
    }
    let mut bad = compressed(&indefinite);
    match service.factorize("one", &cfg, &mut bad) {
        Err(ServiceError::Run(RunError::Numeric(_))) => {}
        other => panic!("expected a numeric failure, got {other:?}"),
    }
    let u = service.usage("one").unwrap();
    assert_eq!((u.in_flight, u.in_use_bytes), (0, 0), "the charge is released");
    assert_eq!((u.admitted, u.rejected), (1, 0));

    let mut good = compressed(&test_matrix());
    service.factorize("one", &cfg, &mut good).expect("the slot is free again");
    assert_eq!(service.usage("one").unwrap().admitted, 2);
}

/// A budget sized for exactly two in-flight requests: under a 6-thread
/// burst the tenant's charged bytes never exceed the budget (checked by
/// a concurrent watcher), overflow requests get `MemoryBudget`, and
/// admitted ones still factor bit-identically.
#[test]
fn budget_caps_concurrent_charges() {
    let dense = test_matrix();
    let cfg = FactorConfig::with_accuracy(ACC);

    let mut reference = compressed(&dense);
    factorize(&mut reference, &cfg).unwrap();
    let l_ref = reference.to_dense_lower();

    let service = SolveService::new(2);
    let charged = SolveService::arena_estimate_bytes(cfg.nthreads, B);
    let budget = charged * 2;
    service.register_tenant(
        "tight",
        TenantConfig {
            max_in_flight: 16,
            memory_budget_bytes: budget,
        },
    );

    let threads = 6;
    let done = std::sync::atomic::AtomicBool::new(false);
    let (mut ok, mut over_budget) = (0u64, 0u64);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            // The budget invariant must hold at every observable instant.
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let u = service.usage("tight").unwrap();
                assert!(
                    u.in_use_bytes <= budget,
                    "charged {} exceeds budget {}",
                    u.in_use_bytes,
                    budget
                );
                std::thread::yield_now();
            }
        });
        let mut handles = Vec::new();
        for _ in 0..threads {
            handles.push(s.spawn(|| {
                let mut m = compressed(&dense);
                service.factorize("tight", &cfg, &mut m).map(|r| (m, r))
            }));
        }
        for h in handles {
            match h.join().unwrap() {
                Ok((m, _)) => {
                    assert_eq!(relative_diff(&m.to_dense_lower(), &l_ref), 0.0);
                    ok += 1;
                }
                Err(ServiceError::MemoryBudget { budget: b, .. }) => {
                    assert_eq!(b, budget);
                    over_budget += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        watcher.join().unwrap();
    });

    assert_eq!(ok + over_budget, threads as u64);
    assert!(ok >= 1, "at least one request must fit the budget");
    let u = service.usage("tight").unwrap();
    assert_eq!(u.in_flight, 0);
    assert_eq!(u.in_use_bytes, 0);
    assert_eq!(u.admitted, ok);
    assert_eq!(u.rejected, over_budget);
}
