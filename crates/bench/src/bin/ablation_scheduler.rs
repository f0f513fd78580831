//! Ablation: ready-queue scheduling policy × machine × distribution,
//! plus the comm-feedback re-planning loop.
//!
//! PaRSEC's node scheduler matters for TLR Cholesky because panel tasks
//! must not starve behind the GEMM flood. This ablation runs the same
//! trimmed Cholesky DAG under every [`SchedPolicy`] — the paper's panel
//! priority, FIFO, LIFO, the HEFT-style upward rank, its comm-aware
//! variant (cross-rank edges priced at the machine's latency +
//! bytes/bandwidth), and the rank-aware critical-path lookahead (kernel
//! costs from the snapshot's rank distribution, self-corrected from
//! simulated durations mid-run) — on both calibrated machine models and
//! two distributions. A second section drives repeated distributed
//! solves on one geometry through an embedded comm-feedback re-planner
//! (plan-cached, so overrides persist round to round) and reports the
//! measured traffic per round.
//!
//! Emits `BENCH_scheduler_ablation.json` (and echoes a table to
//! stdout). `--smoke` shrinks to one DES point + the re-planning loop
//! for CI and exits nonzero when a gate fails: the re-planner measured
//! *more* traffic on any round, or any policy's factor deviated from
//! the panel-priority factor bit for bit.

use std::fmt::Write as _;

use distribution::{BandDistribution, TileDistribution, TwoDBlockCyclic};
use hicma_core::dag::{build_cholesky_dag, DagConfig};
use hicma_core::simulate::{des_schedule, des_tasks};
use hicma_core::{factorize, FactorConfig, PlanCache, Session};
use runtime::des::{simulate_planned, DesConfig};
use runtime::scheduler::SchedPolicy;
use runtime::{FaultPlan, MachineModel};
use tlr_bench::{
    header, scale_factor, scaled_machine, scaled_snapshot, PAPER_ACCURACY, PAPER_SHAPE,
};
use tlr_compress::{CompressionConfig, RankSnapshot, TlrMatrix};
use tlr_linalg::norms::relative_diff;
use tlr_linalg::Matrix;

struct DesPoint {
    machine: &'static str,
    dist: &'static str,
    problem: &'static str,
    nodes: usize,
    policy: &'static str,
    makespan: f64,
    vs_priority: f64,
}

/// One machine × distribution × problem sweep over every policy.
#[allow(clippy::too_many_arguments)]
fn sweep_point(
    machine_name: &'static str,
    machine: &MachineModel,
    dist_name: &'static str,
    dist: &dyn TileDistribution,
    problem: &'static str,
    nodes: usize,
    snap: &RankSnapshot,
    out: &mut Vec<DesPoint>,
) {
    let dag = build_cholesky_dag(snap, &DagConfig::default());
    let tasks = des_tasks(&dag, machine, |w| dist.owner(w.i, w.j));
    let cfg = DesConfig::from_machine(machine, nodes);
    let mut baseline = None;
    for policy in SchedPolicy::ALL {
        let plan =
            des_schedule(&dag, snap, &tasks, machine, policy).expect("model costs are finite");
        let r = simulate_planned(&dag.graph, &tasks, &cfg, &plan, &FaultPlan::none(), 0.0)
            .expect("the sweep's machines and mappings are well-formed");
        let base = *baseline.get_or_insert(r.makespan);
        println!(
            "{:>10} {:>10} {:>8} {:>6} {:>17} {:>10.3} {:>11.3}x",
            machine_name,
            dist_name,
            problem,
            nodes,
            policy.name(),
            r.makespan,
            r.makespan / base,
        );
        out.push(DesPoint {
            machine: machine_name,
            dist: dist_name,
            problem,
            nodes,
            policy: policy.name(),
            makespan: r.makespan,
            vs_priority: r.makespan / base,
        });
    }
}

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

/// Every policy must produce the panel-priority factor bit for bit
/// (policies change order, never results). Returns the offending policy
/// name, if any.
fn factor_bit_identity(n: usize, b: usize) -> Option<&'static str> {
    let acc = 1e-8;
    let dense = gaussian_dense(n);
    let ccfg = CompressionConfig::with_accuracy(acc);
    let mut reference = TlrMatrix::from_dense(&dense, b, &ccfg);
    factorize(&mut reference, &FactorConfig::with_accuracy(acc)).expect("SPD");
    let l_ref = reference.to_dense_lower();
    for policy in SchedPolicy::ALL {
        let mut m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let mut fcfg = FactorConfig::with_accuracy(acc);
        fcfg.sched = policy;
        factorize(&mut m, &fcfg).expect("SPD");
        if relative_diff(&m.to_dense_lower(), &l_ref) != 0.0 {
            return Some(policy.name());
        }
    }
    None
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = scale_factor(32);

    println!("Ablation — ready-queue scheduling policy (scale 1/{s})");
    header(&[
        ("machine", 10),
        ("dist", 10),
        ("N", 8),
        ("nodes", 6),
        ("policy", 17),
        ("time (s)", 10),
        ("vs priority", 12),
    ]);

    // ------------------------------------------------------------------
    // DES sweep: policy × machine × distribution.
    // ------------------------------------------------------------------
    let problems: &[(&'static str, f64, usize, usize)] = if smoke {
        &[("4.49M", 4.49e6, 2990, 128)]
    } else {
        &[("4.49M", 4.49e6, 2990, 128), ("11.95M", 11.95e6, 4880, 512)]
    };
    let machines = [
        ("shaheen-ii", scaled_machine(MachineModel::shaheen_ii(), s)),
        ("fugaku", scaled_machine(MachineModel::fugaku(), s)),
    ];
    let mut points = Vec::new();
    for (mname, machine) in &machines {
        for &(label, n_paper, b_paper, nodes_paper) in problems {
            let (p, snap) =
                scaled_snapshot(n_paper, b_paper, nodes_paper, s, PAPER_SHAPE, PAPER_ACCURACY);
            let band = BandDistribution::new(p.nodes);
            let cyclic = TwoDBlockCyclic::new(p.nodes);
            sweep_point(mname, machine, "band", &band, label, p.nodes, &snap, &mut points);
            if !smoke {
                sweep_point(
                    mname, machine, "2d-cyclic", &cyclic, label, p.nodes, &snap, &mut points,
                );
            }
        }
        println!();
    }
    // Does some lookahead policy beat panel priority somewhere?
    let lookahead_wins = points.iter().any(|p| {
        (p.policy == "rank-lookahead"
            || p.policy == "upward-rank"
            || p.policy == "comm-upward-rank")
            && p.vs_priority < 1.0
    });

    // ------------------------------------------------------------------
    // Comm-feedback re-planning on repeated solves (real DistEngine).
    // ------------------------------------------------------------------
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

    // ------------------------------------------------------------------
    // Bit-identity of the factor across every policy.
    // ------------------------------------------------------------------
    let divergent = factor_bit_identity(if smoke { 96 } else { 120 }, 24);

    // ------------------------------------------------------------------
    // JSON report.
    // ------------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"scheduler_ablation\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"scale\": {s},");
    let _ = writeln!(json, "  \"lookahead_beats_priority\": {lookahead_wins},");
    let _ = writeln!(
        json,
        "  \"factors_bit_identical_across_policies\": {},",
        divergent.is_none()
    );
    json.push_str("  \"des_sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"machine\": \"{}\", \"distribution\": \"{}\", \"problem\": \"{}\", \
             \"nodes\": {}, \"policy\": \"{}\", \"makespan_s\": {:.6}, \"vs_priority\": {:.4}}}",
            p.machine, p.dist, p.problem, p.nodes, p.policy, p.makespan, p.vs_priority
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
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
        let mut failed = false;
        if !monotone {
            eprintln!("smoke FAILED: re-planner increased measured comm volume: {traffic:?}");
            failed = true;
        }
        if let Some(policy) = divergent {
            eprintln!("smoke FAILED: policy {policy} produced a different factor");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("smoke OK: re-planner comm non-increasing, factors bit-identical");
    }
}
