//! Side-by-side observability report for the three distribution plans
//! of §VII — Lorapo's 2D block cyclic hybrid, the band distribution,
//! and band + diamond execution remapping — on the same synthetic
//! paper-shaped problem, all through the discrete-event simulator.
//!
//! For each plan the simulator's report gives the makespan, the
//! per-class busy time, the load imbalance and the efficiency against
//! the critical-path bound (its in-place ledger, bit-equal to the fold
//! of the trace), and its wire traffic (messages, and bytes including
//! the diamond write-backs); the trace gives the per-process busy time,
//! idle fraction and queue wait, and is exported as
//! a Chrome-trace file `TRACE_<plan>.json` loadable in Perfetto —
//! one exporter, both engines, which is the point of the facade.
//!
//! Writes `METRICS_trace_compare.json` with every metric for every plan.

use hicma_core::lorapo::hicma_parsec_config;
use hicma_core::simulate::{simulate_cholesky_faulty, DistributionPlan, SimConfig};
use runtime::obs::json::Json;
use runtime::obs::chrome_trace_json;
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
    let mut table =
        String::from("plan               makespan_s   imbalance  mean_idle     eff_cp\n");
    let mut json = Vec::new();
    for plan in plans {
        let cfg = SimConfig { plan, ..hicma_parsec_config(MachineModel::shaheen_ii(), nodes) };
        let mut trace = Trace::default();
        let r = simulate_cholesky_faulty(&snap, &cfg, &FaultPlan::none(), 0.0, Some(&mut trace))
            .expect("a fault-free simulation of a valid configuration cannot fail");
        let label = plan.name();
        let (makespan, efficiency) = (r.factorization_seconds, r.roofline_efficiency());
        let idle = trace.idle_fraction(nodes);
        let mean_idle = idle.iter().sum::<f64>() / idle.len().max(1) as f64;

        let path = format!("TRACE_{}.json", label.replace('+', "_"));
        std::fs::write(&path, chrome_trace_json(&trace, label)).expect("write chrome trace");
        let (messages, bytes) = (r.comm.messages, r.comm.bytes + r.writeback_bytes);
        println!(
            "  {label:>13}: makespan {makespan:.4}s, {messages} msgs / {bytes} B, {} tasks traced -> {path}",
            trace.records.len()
        );
        table.push_str(&format!(
            "{label:<18} {makespan:>10.6} {:>11.4} {mean_idle:>10.4} {efficiency:>10.3}\n",
            r.load_imbalance
        ));
        let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
        let mut o = Json::obj();
        o.insert("label", Json::Str(label.into()));
        o.insert("makespan_s", Json::Num(makespan));
        o.insert("breakdown_s", r.breakdown.to_json());
        o.insert("busy_s", nums(trace.busy_per_proc(nodes)));
        o.insert("idle_fraction", nums(idle));
        o.insert("load_imbalance", Json::Num(r.load_imbalance));
        o.insert("total_queue_wait_s", Json::Num(trace.total_queue_wait()));
        o.insert("critical_path_s", Json::Num(r.critical_path_seconds));
        o.insert("efficiency_vs_critical_path", Json::Num(efficiency));
        o.insert("comm_messages", Json::Num(messages as f64));
        o.insert("comm_bytes", Json::Num(bytes as f64));
        json.push(o);
    }

    println!();
    println!("{table}");

    std::fs::write("METRICS_trace_compare.json", Json::Arr(json).to_string())
        .expect("write METRICS_trace_compare.json");
    println!("wrote METRICS_trace_compare.json and one Chrome trace per plan");
    println!("open the traces at https://ui.perfetto.dev (or chrome://tracing)");
}
