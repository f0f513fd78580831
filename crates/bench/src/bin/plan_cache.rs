//! Amortized symbolic-planning cost across repeated solves — the RBF
//! mesh-deformation timestepping workload the plan cache exists for.
//!
//! The operator geometry is fixed across timesteps, so every step
//! re-factors the same tile structure (and solves a fresh right-hand
//! side). A cold [`PlanCache`] pays the full symbolic phase (Algorithm-1
//! analysis, trimmed-DAG build, scheduler key precomputation) exactly
//! once; every warm step reuses the cached [`SymbolicPlan`] and its
//! planning time collapses to a key fold + LRU lookup. The bench runs
//! the same loop twice — without a cache (the legacy per-call pipeline)
//! and with one — and reports per-step planning/factorization seconds,
//! the cold→warm planning speedup, and the cache counters.
//!
//! Emits `BENCH_plan_cache.json` in the working directory, under
//! `target/bench-smoke/` with `--smoke` (ingested and gated by
//! `bench_history`; the `_s` leaves are lower-is-better).
//!
//! `--smoke` shrinks the problem and turns the acceptance checks into a
//! CI gate: warm planning must be far below cold, the cache must count
//! exactly one miss and `T-1` hits, and every cached factor must be
//! bit-identical to fresh planning.
//!
//! [`PlanCache`]: hicma_core::PlanCache
//! [`SymbolicPlan`]: hicma_core::SymbolicPlan

use hicma_core::{factorize, solve_residual, solve_tlr, FactorConfig, PlanCache, Session};
use tlr_compress::{CompressionConfig, TlrMatrix};
use tlr_linalg::norms::relative_diff;
use tlr_linalg::Matrix;

struct Step {
    plan_s: f64,
    factor_s: f64,
    solve_s: f64,
}

/// One timestep: (re)factor the operator and solve a step-specific rhs.
fn timestep(session: &Session<'_>, proto: &TlrMatrix, dense: &Matrix, step: usize) -> (Step, Matrix) {
    let n = dense.rows();
    let mut m = proto.clone();
    let t0 = std::time::Instant::now();
    let out = session.run(&mut m).expect("SPD workload must factor");
    let total_s = t0.elapsed().as_secs_f64();
    let plan_s = out.report.analysis_seconds;

    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + ((i + step) as f64 * 0.05).sin()).collect();
    let mut x = rhs.clone();
    let t1 = std::time::Instant::now();
    solve_tlr(&m, &mut x);
    let solve_s = t1.elapsed().as_secs_f64();
    let resid = solve_residual(dense, &x, &rhs);
    // A correct solve's residual grows with n at a fixed tile accuracy
    // (≈ 3e-5 on the full grid's n = 1536); a wrong one reads O(1).
    assert!(resid < 1e-4, "timestep {step} solve residual {resid:.3e}");

    (
        Step {
            plan_s,
            factor_s: total_s - plan_s,
            solve_s,
        },
        m.to_dense_lower(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, b, steps) = if smoke { (384, 32, 4) } else { (1536, 64, 10) };
    let acc = 1e-7;

    let gen = move |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / 9.0);
        let v = (-d * d).exp() * (1.0 + 0.05 * ((i + j) as f64 * 0.01).sin());
        if i == j {
            v + 1e-3
        } else {
            v
        }
    };
    let dense = Matrix::from_fn(n, n, gen);
    let ccfg = CompressionConfig::with_accuracy(acc);
    let proto = TlrMatrix::from_generator(n, b, gen, &ccfg);
    let cfg = FactorConfig::with_accuracy(acc);

    // Bit-identity reference: one fresh factorization outside any session.
    let mut reference = proto.clone();
    factorize(&mut reference, &cfg).expect("SPD workload must factor");
    let l_ref = reference.to_dense_lower();

    // Legacy pipeline: a cache-less session re-plans every timestep.
    let uncached = Session::shared(cfg);
    let mut uncached_steps = Vec::new();
    for step in 0..steps {
        let (s, l) = timestep(&uncached, &proto, &dense, step);
        assert_eq!(relative_diff(&l, &l_ref), 0.0, "uncached factor deviated");
        uncached_steps.push(s);
    }

    // Cached pipeline: one miss, then warm hits.
    let cache = PlanCache::new(2);
    let cached = Session::shared(cfg).with_plan_cache(&cache);
    let mut cached_steps = Vec::new();
    for step in 0..steps {
        let (s, l) = timestep(&cached, &proto, &dense, step);
        assert_eq!(relative_diff(&l, &l_ref), 0.0, "cached factor deviated");
        cached_steps.push(s);
    }

    let cold_plan_s = cached_steps[0].plan_s;
    let warm: Vec<f64> = cached_steps[1..].iter().map(|s| s.plan_s).collect();
    let warm_plan_s_max = warm.iter().cloned().fold(0.0, f64::max);
    let warm_plan_s_mean = warm.iter().sum::<f64>() / warm.len() as f64;
    let uncached_plan_s: f64 = uncached_steps.iter().map(|s| s.plan_s).sum();
    let cached_plan_s: f64 = cached_steps.iter().map(|s| s.plan_s).sum();
    let plan_speedup = cold_plan_s / warm_plan_s_mean.max(1e-12);
    let amortized_speedup = uncached_plan_s / cached_plan_s.max(1e-12);
    let median_factor_s = {
        let mut f: Vec<f64> = cached_steps.iter().map(|s| s.factor_s).collect();
        f.sort_by(f64::total_cmp);
        f[f.len() / 2]
    };

    eprintln!(
        "plan_cache n={n} b={b} steps={steps}: cold plan {cold_plan_s:.6}s, warm plan \
         mean {warm_plan_s_mean:.6}s / max {warm_plan_s_max:.6}s ({plan_speedup:.1}x), \
         sweep planning {uncached_plan_s:.6}s uncached vs {cached_plan_s:.6}s cached \
         ({amortized_speedup:.1}x), median factor {median_factor_s:.4}s, \
         cache hits {} misses {}",
        cache.hits(),
        cache.misses()
    );

    let rows: Vec<String> = cached_steps
        .iter()
        .zip(&uncached_steps)
        .enumerate()
        .map(|(i, (c, u))| {
            format!(
                "    {{\"step\": {i}, \"plan_s\": {:.9}, \"uncached_plan_s\": {:.9}, \
                 \"factor_s\": {:.6}, \"solve_s\": {:.6}}}",
                c.plan_s, u.plan_s, c.factor_s, c.solve_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"plan_cache\",\n  \
         \"mode\": \"{}\",\n  \
         \"n\": {n},\n  \"tile\": {b},\n  \"timesteps\": {steps},\n  \
         \"cold_plan_s\": {cold_plan_s:.9},\n  \
         \"warm_plan_s_mean\": {warm_plan_s_mean:.9},\n  \
         \"warm_plan_s_max\": {warm_plan_s_max:.9},\n  \
         \"sweep_plan_uncached_s\": {uncached_plan_s:.9},\n  \
         \"sweep_plan_cached_s\": {cached_plan_s:.9},\n  \
         \"plan_speedup\": {plan_speedup:.3},\n  \
         \"amortized_plan_speedup\": {amortized_speedup:.3},\n  \
         \"median_factor_s\": {median_factor_s:.6},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"steps\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        cache.hits(),
        cache.misses(),
        rows.join(",\n")
    );
    print!("{json}");
    let path = tlr_bench::write_bench_json("plan_cache", smoke, &json);
    eprintln!(
        "wrote {} (cold {cold_plan_s:.6}s, warm max {warm_plan_s_max:.6}s, \
         {plan_speedup:.1}x)",
        path.display()
    );

    // Acceptance gates (bit-identity already asserted per step above).
    let mut failed = false;
    if cache.misses() != 1 || cache.hits() != (steps - 1) as u64 {
        eprintln!(
            "FAILED: expected 1 miss / {} hits, saw {} / {}",
            steps - 1,
            cache.misses(),
            cache.hits()
        );
        failed = true;
    }
    if warm_plan_s_max >= cold_plan_s * 0.5 {
        eprintln!(
            "FAILED: warm planning {warm_plan_s_max:.6}s is not well below cold \
             {cold_plan_s:.6}s"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
