//! Resilience overhead: recovery cost vs crash count, as JSON.
//!
//! Runs the simulated HiCMA-PaRSEC factorization (band + diamond,
//! trimmed) on the scaled Shaheen II model under fail-stop node crashes
//! and prices the recovery protocol of the fault-tolerant engine:
//! migration of the dead node's tasks plus re-execution of its lost,
//! still-needed outputs after a detection/failover window.
//!
//! Output is a single JSON document on stdout:
//!
//! ```json
//! {
//!   "experiment": "resilience_overhead",
//!   "baseline_seconds": ...,
//!   "runs": [ { "crashes": 1, "overhead_pct": ..., ... }, ... ]
//! }
//! ```
//!
//! Set `HICMA_SCALE` to change the downscale factor.

use hicma_core::lorapo::hicma_parsec_config;
use hicma_core::simulate::{simulate_cholesky, simulate_cholesky_faulty};
use runtime::{FaultPlan, MachineModel};
use tlr_bench::{scale_factor, scaled_machine, scaled_snapshot, PAPER_ACCURACY, PAPER_SHAPE};

fn main() {
    let s = scale_factor(32);
    let machine = scaled_machine(MachineModel::shaheen_ii(), s);
    let (p, snap) = scaled_snapshot(4.49e6, 2990, 128, s, PAPER_SHAPE, PAPER_ACCURACY);
    let cfg = hicma_parsec_config(machine, p.nodes);

    let base = simulate_cholesky(&snap, &cfg);
    let t = base.factorization_seconds;
    // MTBF-style detection + failover window: 2% of the fault-free run.
    let restart = 0.02 * t;

    let mut runs = String::new();
    let mut first = true;
    let mut emit = |label: &str, crash_fracs: &[f64], faults: &FaultPlan| {
        let r = simulate_cholesky_faulty(&snap, &cfg, faults, restart, None)
            .expect("bench plans target live in-range nodes");
        let overhead = 100.0 * (r.factorization_seconds - t) / t;
        if !first {
            runs.push_str(",\n");
        }
        first = false;
        let fracs: Vec<String> = crash_fracs.iter().map(|f| format!("{f:.2}")).collect();
        runs.push_str(&format!(
            "    {{\"label\": \"{label}\", \"crashes\": {}, \"crash_time_fracs\": [{}], \
             \"makespan_seconds\": {:.6}, \"overhead_pct\": {:.3}, \
             \"migrated_tasks\": {}, \"reexecuted_tasks\": {}}}",
            r.crashes,
            fracs.join(", "),
            r.factorization_seconds,
            overhead,
            r.migrated_tasks,
            r.reexecuted_tasks,
        ));
    };

    // Sweep 1: crash count (staggered, evenly spaced through the run).
    // At least one process must survive, so the sweep is bounded by the
    // (possibly downscaled) node count; distinct ranks 1..=ncrash die,
    // rank 0 always lives.
    let max_crashes = 3.min(p.nodes.saturating_sub(1));
    for ncrash in 0..=max_crashes {
        let fracs: Vec<f64> =
            (0..ncrash).map(|i| (i + 1) as f64 / (ncrash + 1) as f64).collect();
        let faults = fracs
            .iter()
            .enumerate()
            .fold(FaultPlan::new(0), |plan, (i, &f)| plan.with_crash(i + 1, f * t));
        emit(&format!("crashes-{ncrash}"), &fracs, &faults);
    }

    // Sweep 2: when a single crash lands (early / mid / late).
    if p.nodes > 1 {
        for frac in [0.1, 0.5, 0.9] {
            let faults = FaultPlan::new(0).with_crash(1, frac * t);
            emit(&format!("single-at-{frac:.1}"), &[frac], &faults);
        }
    }

    println!("{{");
    println!("  \"experiment\": \"resilience_overhead\",");
    println!("  \"machine\": \"shaheen-ii\",");
    println!("  \"scale\": {s},");
    println!("  \"nodes\": {},", p.nodes);
    println!("  \"nt\": {},", p.nt);
    println!("  \"restart_delay_seconds\": {restart:.6},");
    println!("  \"baseline_seconds\": {t:.6},");
    println!("  \"runs\": [");
    println!("{runs}");
    println!("  ]");
    println!("}}");
}
