//! Extreme-scale simulation (the Fig. 14 experiment).
//!
//! Runs the discrete-event simulator at paper scale: matrix sizes up to a
//! (scaled) 52.57M unknowns on up to 2048 Shaheen II nodes, using the
//! calibrated synthetic rank model in place of a compressed matrix we
//! could never materialize on this machine. The problem and the machine's
//! fixed time constants are scaled down by `SCALE` with the paper-scale
//! rule (`scaled_problem`, `scaled_machine`; documented in EXPERIMENTS.md)
//! to keep the simulated DAGs in memory; strong/weak-scaling *trends* are
//! preserved, and the rows equal `fig14_extreme`'s at the same scale.
//!
//! Run with: `cargo run --release --example extreme_scale`

use hicma_parsec::cholesky::lorapo::hicma_parsec_config;
use hicma_parsec::cholesky::simulate::{scaled_machine, scaled_problem, simulate_cholesky};
use hicma_parsec::runtime::MachineModel;
use hicma_parsec::tlr::SyntheticRankModel;

/// Downscale factor vs the paper's runs: N and nodes ÷ SCALE, tile ÷ √SCALE,
/// the machine's fixed time constants ÷ SCALE (keeps the work-per-node and
/// overhead-to-work balances; DAGs stay ≤ a few 1e6 tasks).
const SCALE: usize = 32;

fn main() {
    let shape = 3.7e-4; // the paper's chosen shape parameter (§VIII-B)
    let accuracy = 1e-4;
    let machine = scaled_machine(MachineModel::shaheen_ii(), SCALE);

    println!("Extreme-scale TLR Cholesky on the simulated Shaheen II");
    println!("(tile counts scaled down {SCALE}× — trends, not absolute times)");
    println!();
    println!(
        "{:>10} {:>6} {:>7} {:>10} {:>12} {:>10} {:>9}",
        "N (paper)", "nodes", "NT", "tasks", "time (s)", "CP (s)", "eff"
    );

    // The paper's matrix sizes (millions) and its tile-size tuning
    // b ≈ O(√N); node counts 512..2048 as in Fig. 14.
    for &(n_millions, tile) in
        &[(11.95_f64, 4880_usize), (23.90, 6880), (35.85, 8430), (52.57, 10190)]
    {
        for &nodes_paper in &[512usize, 1024, 2048] {
            let p = scaled_problem(n_millions * 1e6, tile, nodes_paper, SCALE);
            let model =
                SyntheticRankModel::from_application(p.nt, p.tile_size, shape, accuracy);
            let snapshot = model.snapshot();
            let cfg = hicma_parsec_config(machine.clone(), p.nodes);
            let r = simulate_cholesky(&snapshot, &cfg);
            println!(
                "{:>9.2}M {:>6} {:>7} {:>10} {:>12.2} {:>10.2} {:>8.1}%",
                n_millions,
                nodes_paper,
                p.nt,
                r.dag_tasks,
                r.factorization_seconds,
                r.critical_path_seconds,
                100.0 * r.roofline_efficiency(),
            );
        }
        println!();
    }

    println!("Each matrix size column-block is a strong-scaling experiment; each node");
    println!("count row is a weak-scaling one (paper: 52.57M factored in ~36 minutes).");
}
