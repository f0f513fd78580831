//! Fig. 5 — impact of the tile size: time-to-solution of TLR Cholesky and
//! of the critical path (left axis), and the number of tasks (right
//! axis), on 16 Shaheen II nodes (4.49M) and 64 Fugaku nodes (2.99M).
//! The time curve is bell-shaped: large tiles inflate the dense critical
//! path, small tiles explode the task count and runtime overheads.

use hicma_core::lorapo::hicma_parsec_config;
use hicma_core::simulate::simulate_cholesky;
use runtime::MachineModel;
use tlr_bench::{scaled_machine, header, scale_factor, PAPER_ACCURACY, PAPER_SHAPE};
use tlr_compress::SyntheticRankModel;

fn main() {
    let s = scale_factor(32);
    println!("Fig. 5 — tile-size bell curve (scale 1/{s})");

    for (machine, n_paper, nodes_paper) in [
        (scaled_machine(MachineModel::shaheen_ii(), s), 4.49e6, 16usize),
        (scaled_machine(MachineModel::fugaku(), s), 2.99e6, 64),
    ] {
        let n = n_paper / s as f64;
        let nodes = (nodes_paper / s).max(1);
        println!();
        println!(
            "--- {} ({} paper nodes, {:.2}M paper matrix, {} sim nodes) ---",
            machine.name,
            nodes_paper,
            n_paper / 1e6,
            nodes
        );
        header(&[
            ("tile", 7),
            ("NT", 6),
            ("tasks", 9),
            ("time (s)", 10),
            ("CP (s)", 10),
            ("eff", 6),
        ]);
        // Sweep around the √N-rule optimum (b* ≈ 1.41·√N at sim scale).
        let b_star = (1.41 * n.sqrt()).round() as usize;
        for mult in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0] {
            let b = ((b_star as f64 * mult) as usize).max(64);
            let nt = (n / b as f64).round().max(4.0) as usize;
            let snap =
                SyntheticRankModel::from_application(nt, b, PAPER_SHAPE, PAPER_ACCURACY)
                    .snapshot();
            let cfg = hicma_parsec_config(machine.clone(), nodes);
            let r = simulate_cholesky(&snap, &cfg);
            println!(
                "{:>7} {:>6} {:>9} {:>10.2} {:>10.2} {:>5.0}%",
                b,
                nt,
                r.dag_tasks,
                r.factorization_seconds,
                r.critical_path_seconds,
                100.0 * r.roofline_efficiency(),
            );
        }
    }
    println!();
    println!("Expected (paper): time follows a bell shape; the critical path");
    println!("dominates at large tiles, task count/overheads at small tiles.");
}
