//! Ablation: band-distribution width.
//!
//! §VII-A binds the sub-diagonal to the diagonal's process (width 2).
//! Wider bands localize more of the near-diagonal traffic but
//! concentrate the expensive band tiles on fewer processes; width 1
//! degenerates to Lorapo's hybrid. This sweep quantifies the trade-off
//! the paper's width-2 choice sits on.

use hicma_core::simulate::{simulate_cholesky, DistributionPlan, SimConfig};
use runtime::MachineModel;
use tlr_bench::{header, scale_factor, scaled_machine, scaled_snapshot, PAPER_ACCURACY, PAPER_SHAPE};

fn main() {
    let s = scale_factor(32);
    let machine = scaled_machine(MachineModel::shaheen_ii(), s);
    println!("Ablation — band width (Shaheen II, 512 paper nodes, scale 1/{s})");
    header(&[("N", 8), ("band width", 11), ("time (s)", 10), ("imbalance", 10)]);

    for (label, n_paper, b_paper) in [("5.97M", 5.97e6, 3450usize), ("11.95M", 11.95e6, 4880)] {
        let (p, snap) = scaled_snapshot(n_paper, b_paper, 512, s, PAPER_SHAPE, PAPER_ACCURACY);
        for width in [1usize, 2, 3, 4, 6] {
            let cfg = SimConfig {
                machine: machine.clone(),
                nodes: p.nodes,
                plan: DistributionPlan::Band,
                trimmed: true,
                rank_cap: usize::MAX,
                band_width: width,
            };
            let r = simulate_cholesky(&snap, &cfg);
            println!(
                "{:>8} {:>11} {:>10.3} {:>10.2}",
                label, width, r.factorization_seconds, r.load_imbalance
            );
        }
        println!();
    }
    println!("Expected: width 2 (the paper's choice) captures the POTRF→TRSM");
    println!("locality win; wider bands add little and skew the load.");
}
