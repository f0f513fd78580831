//! Side-by-side observability report for the three distribution plans
//! of §VII — Lorapo's 2D block cyclic hybrid, the band distribution,
//! and band + diamond execution remapping — on the same synthetic
//! paper-shaped problem, all through the discrete-event simulator.
//!
//! For each plan the run's trace is summarized with the *same*
//! [`RunMetrics`] record the shared-memory executor uses (per-class
//! busy time, per-process idle fraction, load imbalance, efficiency
//! against the critical-path bound), its wire traffic is read off the
//! simulator's report (messages, and bytes including the diamond
//! write-backs), and the trace is exported as
//! a Chrome-trace file `TRACE_<plan>.json` loadable in Perfetto —
//! one exporter, both engines, which is the point of the facade.
//!
//! Writes `METRICS_trace_compare.json` with every metric for every plan.

use hicma_core::lorapo::hicma_parsec_config;
use hicma_core::simulate::{simulate_cholesky_faulty, DistributionPlan, SimConfig};
use runtime::obs::json::Json;
use runtime::obs::{chrome_trace_json, RunMetrics};
use runtime::{FaultPlan, MachineModel, Trace};
use tlr_compress::SyntheticRankModel;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nt, tile) = if smoke { (24, 256) } else { (54, 512) };
    let nodes = if smoke { 4 } else { 16 };
    let snap = SyntheticRankModel::from_application(nt, tile, 3.7e-4, 1e-4).snapshot();
    println!(
        "DES comparison: NT={nt}, b={tile}, {nodes} Shaheen-II nodes, paper shape 3.7e-4"
    );

    let plans = [DistributionPlan::Lorapo, DistributionPlan::Band, DistributionPlan::BandDiamond];
    let (mut runs, mut json) = (Vec::new(), Vec::new());
    for plan in plans {
        let cfg = SimConfig { plan, ..hicma_parsec_config(MachineModel::shaheen_ii(), nodes) };
        let mut trace = Trace::default();
        let r = simulate_cholesky_faulty(&snap, &cfg, &FaultPlan::none(), 0.0, Some(&mut trace))
            .expect("a fault-free simulation of a valid configuration cannot fail");
        let label = plan.name();
        let metrics = RunMetrics::from_trace(label, &trace, nodes)
            .with_critical_path(r.critical_path_seconds);

        let path = format!("TRACE_{}.json", label.replace('+', "_"));
        std::fs::write(&path, chrome_trace_json(&trace, label)).expect("write chrome trace");
        let (messages, bytes) = (r.comm.messages, r.comm.bytes + r.writeback_bytes);
        println!(
            "  {label:>13}: makespan {:.4}s, {messages} msgs / {bytes} B, {} tasks traced -> {path}",
            metrics.makespan,
            trace.records.len()
        );
        let mut o = metrics.to_json();
        o.insert("comm_messages", Json::Num(messages as f64));
        o.insert("comm_bytes", Json::Num(bytes as f64));
        json.push(o);
        runs.push(metrics);
    }

    println!();
    println!("{}", RunMetrics::comparison_table(&runs));

    std::fs::write("METRICS_trace_compare.json", Json::Arr(json).to_string())
        .expect("write METRICS_trace_compare.json");
    println!("wrote METRICS_trace_compare.json and one Chrome trace per plan");
    println!("open the traces at https://ui.perfetto.dev (or chrome://tracing)");
}
