//! Fig. 4 — impact of the shape parameter on matrix density and
//! time-to-solution: initial/final density, time with and without DAG
//! trimming, and the labeled max rank, on 16 Shaheen II nodes
//! (matrix 4.49M / tile 2390) and 64 Fugaku nodes (2.99M / 2440).

use hicma_core::lorapo::lorapo_config;
use hicma_core::simulate::simulate_cholesky;
use runtime::MachineModel;
use tlr_bench::{scaled_machine, header, scale_factor, scaled_snapshot, PAPER_ACCURACY};

fn main() {
    let s = scale_factor(64);
    println!("Fig. 4 — shape parameter vs density and time (scale 1/{s})");
    let shapes = [1e-4, 2e-4, 3.7e-4, 1e-3, 3e-3, 1e-2, 3e-2, 5e-2];

    for (machine, n_paper, b_paper, nodes_paper) in [
        (scaled_machine(MachineModel::shaheen_ii(), s), 4.49e6, 2390, 16),
        (scaled_machine(MachineModel::fugaku(), s), 2.99e6, 2440, 64),
    ] {
        println!();
        println!(
            "--- {} ({} paper nodes, {:.2}M paper matrix) ---",
            machine.name,
            nodes_paper,
            n_paper / 1e6
        );
        header(&[
            ("shape", 10),
            ("init dens", 10),
            ("final dens", 10),
            ("max rank", 9),
            ("t trim (s)", 11),
            ("t notrim (s)", 12),
            ("gain", 6),
        ]);
        for &shape in &shapes {
            let (p, snap) =
                scaled_snapshot(n_paper, b_paper, nodes_paper, s, shape, PAPER_ACCURACY);
            let stats = snap.stats();
            let mut cfg = lorapo_config(machine.clone(), p.nodes);
            cfg.trimmed = true;
            let trimmed = simulate_cholesky(&snap, &cfg);
            cfg.trimmed = false;
            let untrimmed = simulate_cholesky(&snap, &cfg);
            println!(
                "{:>10.1e} {:>10.3} {:>10.3} {:>9} {:>11.2} {:>12.2} {:>5.2}x",
                shape,
                stats.density,
                // final density comes from the symbolic analysis
                {
                    let a = hicma_core::MatrixAnalysis::analyze(&snap, p.tile_size);
                    a.final_density()
                },
                stats.max,
                trimmed.factorization_seconds,
                untrimmed.factorization_seconds,
                untrimmed.factorization_seconds / trimmed.factorization_seconds,
            );
        }
    }
    println!();
    println!("Expected (paper): density and time grow with the shape parameter;");
    println!("with/without-trimming curves converge once null tiles disappear.");
}
