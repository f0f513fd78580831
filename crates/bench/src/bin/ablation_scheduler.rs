//! Ablation: the comm-feedback re-planning loop.
//!
//! Repeated distributed solves on one geometry run through an embedded
//! comm-feedback re-planner (plan-cached, so overrides persist round to
//! round) and report the measured traffic per round. Ready queues have
//! one order, panel priority (DESIGN.md §4c).
//!
//! Emits `BENCH_scheduler_ablation.json` (and echoes the rounds to
//! stdout). `--smoke` shrinks the problem for CI and exits nonzero when
//! the re-planner measured *more* traffic on any round.

use std::fmt::Write as _;

use distribution::TwoDBlockCyclic;
use hicma_core::{FactorConfig, PlanCache, Session};
use tlr_compress::{CompressionConfig, TlrMatrix};
use tlr_linalg::Matrix;

/// Gaussian-kernel SPD generator (the RBF-like test operator).
fn gaussian_dense(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let d = (i as f64 - j as f64) / (n as f64 / 8.0);
        let v = (-d * d).exp();
        if i == j {
            v + 1e-3
        } else {
            v
        }
    })
}

/// Repeated real distributed solves on one geometry under the
/// re-planner; returns measured (bytes, messages) per round.
fn replan_rounds(n: usize, b: usize, nprocs: usize, rounds: usize) -> Vec<(u64, u64)> {
    let acc = 1e-8;
    let dense = gaussian_dense(n);
    let ccfg = CompressionConfig::with_accuracy(acc);
    let fcfg = FactorConfig::with_accuracy(acc);
    let dist = TwoDBlockCyclic::new(nprocs);
    // Embedded re-planner: the converged overrides
    // live in the cached symbolic plan, so each round after the first is
    // a plan-cache hit that inherits the previous round's placement.
    let cache = PlanCache::new(1);
    let session = Session::distributed(fcfg, nprocs, &dist)
        .with_replanning()
        .with_plan_cache(&cache);
    let mut traffic = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let comm = session
            .run(&mut m)
            .expect("SPD matrix must factor")
            .comm
            .expect("distributed runs count communication");
        println!(
            "   round {round}: {:>12} bytes {:>6} messages",
            comm.bytes, comm.messages
        );
        traffic.push((comm.bytes, comm.messages));
    }
    traffic
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let (rn, rb, rprocs, rrounds) = if smoke { (96, 24, 4, 3) } else { (192, 24, 4, 4) };
    println!("Re-planning loop: n={rn} b={rb} nprocs={rprocs}, 2d-block-cyclic baseline");
    let traffic = replan_rounds(rn, rb, rprocs, rrounds);
    let monotone = traffic.windows(2).all(|w| w[1].0 <= w[0].0);
    let reduction_pct = 100.0 * (1.0 - traffic.last().unwrap().0 as f64 / traffic[0].0 as f64);
    println!(
        "   traffic {} → {} bytes ({reduction_pct:+.1}% vs static mapping)",
        traffic[0].0,
        traffic.last().unwrap().0
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"scheduler_ablation\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str("  \"replan\": {\n");
    let _ = writeln!(
        json,
        "    \"n\": {rn}, \"tile_size\": {rb}, \"nprocs\": {rprocs}, \
         \"distribution\": \"2d-cyclic\","
    );
    json.push_str("    \"rounds\": [\n");
    for (i, (bytes, messages)) in traffic.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"round\": {i}, \"bytes\": {bytes}, \"messages\": {messages}}}"
        );
        json.push_str(if i + 1 < traffic.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"monotone_nonincreasing\": {monotone},");
    let _ = writeln!(json, "    \"reduction_pct\": {reduction_pct:.2}");
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write("BENCH_scheduler_ablation.json", &json)
        .expect("write BENCH_scheduler_ablation.json");
    println!("\nwrote BENCH_scheduler_ablation.json");

    if smoke {
        if !monotone {
            eprintln!("smoke FAILED: re-planner increased measured comm volume: {traffic:?}");
            std::process::exit(1);
        }
        println!("smoke OK: re-planner comm non-increasing");
    }
}
