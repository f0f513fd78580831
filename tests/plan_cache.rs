//! Symbolic/numeric split contract: a factorization driven by a cached
//! (or explicitly prebuilt) `SymbolicPlan` is bit-identical to one that
//! re-plans from scratch — across every capability subset (observation,
//! fault layer, tile integrity). Planning decides *where and in what
//! order* kernels run, never what they compute; the cache only decides
//! whether planning happens.
//! Plus the cache mechanics themselves: key validation on the explicit
//! plan path, LRU eviction, and hit/miss counters surfacing in the run
//! registry.

use hicma_parsec::cholesky::{
    factorize, FactorConfig, IntegrityMode, PlanCache, PlanMode, RunError, Session,
};
use hicma_parsec::distribution::{
    BandDistribution, DiamondDistribution, TileDistribution, TwoDBlockCyclic,
};
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

/// A distributed session with the given optional capability layers.
fn dist_session<'a>(
    cfg: FactorConfig,
    dist: &'a dyn TileDistribution,
    faults: &'a Option<FaultPlan>,
    cache: Option<&'a PlanCache>,
) -> Session<'a> {
    let mut s = Session::distributed(cfg, 4, dist);
    if let Some(plan) = faults {
        s = s.with_fault_layer(plan);
    }
    if let Some(c) = cache {
        s = s.with_plan_cache(c);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shared-memory: for a random (obs, integrity) configuration, a fresh run, a cold-cache run, a warm-cache run
    /// and an explicit `plan`/`run_with_plan` pair all produce the
    /// identical factor, and the cache counts exactly one miss + hits.
    #[test]
    fn cached_shared_factor_is_bit_identical(
        seed in 0u64..10_000,
        corr in 4u32..10,
        obs_flag in 0u32..2,
        integrity_i in 0usize..3,
    ) {
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let dense = Matrix::from_fn(n, n, rbf_gen(n, corr as f64, seed));
        let mut cfg = FactorConfig::with_accuracy(acc);
        cfg.collect_trace = obs_flag == 1;
        cfg.integrity = [
            IntegrityMode::Off,
            IntegrityMode::Maintain,
            IntegrityMode::VerifyReads,
        ][integrity_i];

        // Fresh planning every run: the reference factor.
        let mut fresh = compressed(&dense, b, acc);
        factorize(&mut fresh, &cfg).unwrap();
        let l_ref = fresh.to_dense_lower();

        // Cold miss, then a warm hit, through one cache.
        let cache = PlanCache::new(2);
        let session = Session::shared(cfg).with_plan_cache(&cache);
        let mut cold = compressed(&dense, b, acc);
        let out_cold = session.run(&mut cold).unwrap();
        prop_assert_eq!(
            relative_diff(&cold.to_dense_lower(), &l_ref), 0.0,
            "cold-cache factor deviated"
        );
        let mut warm = compressed(&dense, b, acc);
        let out_warm = session.run(&mut warm).unwrap();
        prop_assert_eq!(
            relative_diff(&warm.to_dense_lower(), &l_ref), 0.0,
            "warm-cache factor deviated"
        );
        prop_assert_eq!(cache.misses(), 1);
        prop_assert_eq!(cache.hits(), 1);
        // Cache activity lands in the per-run registry.
        let hit = |o: &hicma_parsec::cholesky::RunOutcome, name: &str| {
            o.registry
                .as_ref()
                .and_then(|s| s.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .unwrap_or(0)
        };
        prop_assert_eq!(hit(&out_cold, "plan_cache_misses"), 1);
        prop_assert_eq!(hit(&out_cold, "plan_cache_hits"), 0);
        prop_assert_eq!(hit(&out_warm, "plan_cache_hits"), 1);
        prop_assert_eq!(hit(&out_warm, "plan_cache_misses"), 0);
        // The obs axis is live: a traced run reports spans off a cached
        // plan exactly as off a fresh one.
        prop_assert_eq!(out_cold.trace.is_some(), obs_flag == 1);
        prop_assert_eq!(out_warm.trace.is_some(), obs_flag == 1);

        // Explicit split: plan once, execute the plan.
        let planner = Session::shared(cfg);
        let mut planned = compressed(&dense, b, acc);
        let plan = planner.plan(&planned).unwrap();
        prop_assert!(plan.tasks() > 0);
        prop_assert!(!plan.is_distributed());
        planner.run_with_plan(&plan, &mut planned).unwrap();
        prop_assert_eq!(
            relative_diff(&planned.to_dense_lower(), &l_ref), 0.0,
            "run_with_plan factor deviated"
        );
    }

    /// Distributed: the same contract across {plain, obs, ft, integrity}
    /// capability subsets on 4 emulated ranks laid out 2DBC, band or
    /// diamond — every subset factors bit-identically to the
    /// shared-memory reference whether its plan came fresh or from the
    /// cache.
    #[test]
    fn cached_distributed_factor_is_bit_identical(
        seed in 0u64..10_000,
        corr in 4u32..10,
        subset in 0usize..4,
        layout in 0usize..3,
    ) {
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let dense = Matrix::from_fn(n, n, rbf_gen(n, corr as f64, seed));
        let mut cfg = FactorConfig::with_accuracy(acc);

        let mut reference = compressed(&dense, b, acc);
        factorize(&mut reference, &cfg).unwrap();
        let l_ref = reference.to_dense_lower();

        let (bc, band, diamond) = (
            TwoDBlockCyclic::new(4),
            BandDistribution::new(4),
            DiamondDistribution::new(4),
        );
        let dist: &dyn TileDistribution = [&bc as &dyn TileDistribution, &band, &diamond][layout];
        // The capability subset under test: plain, traced, faulty, or
        // integrity-armed.
        let faults = (subset == 2).then(|| {
            FaultPlan::new(seed)
                .with_drops(0.1)
                .with_duplicates(0.05)
                .with_jitter(0.5)
        });
        if subset == 1 {
            cfg.collect_trace = true;
        }
        if subset == 3 {
            cfg.integrity = IntegrityMode::VerifyReads;
        }
        let mut fresh = compressed(&dense, b, acc);
        let out_fresh = dist_session(cfg, dist, &faults, None).run(&mut fresh).unwrap();
        prop_assert_eq!(
            relative_diff(&fresh.to_dense_lower(), &l_ref), 0.0,
            "fresh distributed factor deviated"
        );

        let cache = PlanCache::new(2);
        let session = dist_session(cfg, dist, &faults, Some(&cache));
        for round in 0..2 {
            let mut m = compressed(&dense, b, acc);
            let out = session.run(&mut m).unwrap();
            prop_assert_eq!(
                relative_diff(&m.to_dense_lower(), &l_ref), 0.0,
                "cached distributed factor deviated on round {}", round
            );
            prop_assert_eq!(out.trace.is_some(), subset == 1);
            // Planning never changes measured traffic on fault-free
            // subsets (faulty runs retransmit nondeterministically by
            // subset design, so only compare when the wire is clean).
            if subset != 2 {
                prop_assert_eq!(out.comm.as_ref().unwrap(), out_fresh.comm.as_ref().unwrap());
            }
        }
        prop_assert_eq!(cache.misses(), 1);
        prop_assert_eq!(cache.hits(), 1);
    }
}

/// A plan built for one configuration must be rejected — not run — when
/// handed a session or matrix with a different fingerprint.
#[test]
fn mismatched_plan_is_rejected_with_both_keys() {
    let n = 96;
    let b = 24;
    let acc = 1e-8;
    let dense = Matrix::from_fn(n, n, rbf_gen(n, 6.0, 42));
    let m0 = compressed(&dense, b, acc);
    let cfg = FactorConfig::with_accuracy(acc);
    let plan = Session::shared(cfg).plan(&m0).unwrap();

    // Different accuracy → different key.
    let other_cfg = FactorConfig::with_accuracy(1e-4);
    let mut other = compressed(&dense, b, 1e-4);
    match Session::shared(other_cfg).run_with_plan(&plan, &mut other) {
        Err(RunError::PlanMismatch { plan: p, requested }) => {
            assert_eq!(*p, *plan.key());
            assert_ne!(*p, *requested);
        }
        other => panic!("expected PlanMismatch, got {other:?}"),
    }

    // Different matrix structure (same config) → different key.
    let dense2 = Matrix::from_fn(n, n, rbf_gen(n, 9.0, 777));
    let mut m2 = compressed(&dense2, b, acc);
    if m2.rank_snapshot().as_flat() != m0.rank_snapshot().as_flat() {
        assert!(matches!(
            Session::shared(cfg).run_with_plan(&plan, &mut m2),
            Err(RunError::PlanMismatch { .. })
        ));
    }

    // The matching pair still runs.
    let mut ok = compressed(&dense, b, acc);
    Session::shared(cfg).run_with_plan(&plan, &mut ok).unwrap();
}

/// LRU eviction: a capacity-1 cache alternating between two structures
/// evicts on every switch and the counters say so.
#[test]
fn lru_eviction_is_counted() {
    let n = 96;
    let b = 24;
    let acc = 1e-8;
    let dense_a = Matrix::from_fn(n, n, rbf_gen(n, 5.0, 1));
    let cfg_a = FactorConfig::with_accuracy(acc);
    let mut cfg_b = cfg_a;
    cfg_b.trimmed = false; // different key, same matrix

    let cache = PlanCache::new(1);
    let sa = Session::shared(cfg_a).with_plan_cache(&cache);
    let sb = Session::shared(cfg_b).with_plan_cache(&cache);
    for _ in 0..2 {
        let mut ma = compressed(&dense_a, b, acc);
        sa.run(&mut ma).unwrap();
        let mut mb = compressed(&dense_a, b, acc);
        sb.run(&mut mb).unwrap();
    }
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.misses(), 4, "every switch must rebuild");
    assert_eq!(cache.evictions(), 3, "capacity 1 evicts on every insert");
    assert_eq!(cache.hits(), 0);
}

/// The key holds the structure and the configuration only: distributed
/// sessions that differ only in fault layer, trace or integrity mode plan
/// identically, so they share one cached plan, and each of them factors
/// bit-identically through it. A plan still refuses a session whose
/// configuration differs.
#[test]
fn distributed_key_records_decisions_not_capabilities() {
    let n = 120;
    let b = 24;
    let acc = 1e-8;
    let dense = Matrix::from_fn(n, n, rbf_gen(n, 6.0, 42));
    let dist = TwoDBlockCyclic::new(4);
    let mut reference = compressed(&dense, b, acc);
    factorize(&mut reference, &FactorConfig::with_accuracy(acc)).unwrap();
    let l_ref = reference.to_dense_lower();

    let plain = FactorConfig::with_accuracy(acc);
    let mut traced = plain;
    traced.collect_trace = true;
    let mut sealed = plain;
    sealed.integrity = IntegrityMode::Maintain;
    let lossy = Some(FaultPlan::new(7).with_drops(0.1));
    // A corrupting fault plan seals payloads as an explicit integrity
    // mode does.
    let corrupting = Some(FaultPlan::new(7).with_message_corruption(0.3));
    let none = None;

    // Five sessions, one plan.
    let cache = PlanCache::new(4);
    let mut corrupted = 0;
    for (cfg, ft) in [
        (plain, &none),
        (traced, &none),
        (sealed, &none),
        (plain, &lossy),
        (plain, &corrupting),
    ] {
        let mut m = compressed(&dense, b, acc);
        let out = dist_session(cfg, &dist, ft, Some(&cache))
            .run(&mut m)
            .unwrap();
        assert_eq!(relative_diff(&m.to_dense_lower(), &l_ref), 0.0);
        let reg = out.registry.expect("every run reports its registry");
        let caught = reg.counter(Counter::MessagesCorrupted);
        assert_eq!(reg.counter(Counter::CorruptionsDetected), caught);
        corrupted += caught;
    }
    assert!(corrupted > 0, "the corrupting run verified payloads");
    assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 4, 1));

    // A configuration change (the DAG trimming) is a different key.
    let plan = dist_session(traced, &dist, &none, None)
        .plan(&compressed(&dense, b, acc))
        .unwrap();
    assert_eq!(plan.key().mode, PlanMode::Distributed { nprocs: 4 });
    let mut untrimmed = plain;
    untrimmed.trimmed = false;
    let mut m = compressed(&dense, b, acc);
    let err = dist_session(untrimmed, &dist, &none, None)
        .run_with_plan(&plan, &mut m)
        .unwrap_err();
    assert!(matches!(err, RunError::PlanMismatch { .. }), "{err}");
}
