//! Execution-trace Gantt charts of the simulated factorization — the
//! textual cousin of the PaRSEC trace visualizations (ref. 13 of the paper) behind the
//! paper's performance analysis: one row per process, one glyph per time
//! bin (P/T/S/G by dominant kernel class, `·` idle).
//!
//! Shows Lorapo's idle-riddled schedule next to the full HiCMA-PaRSEC
//! configuration on the same problem.

use hicma_core::lorapo::{hicma_parsec_config, lorapo_config};
use hicma_core::simulate::simulate_cholesky_faulty;
use runtime::{FaultPlan, MachineModel, Trace};
use tlr_bench::{scale_factor, scaled_machine, scaled_snapshot, PAPER_ACCURACY, PAPER_SHAPE};

fn main() {
    let s = scale_factor(64);
    let machine = scaled_machine(MachineModel::shaheen_ii(), s);
    let (p, snap) = scaled_snapshot(4.49e6, 2990, 128, s, PAPER_SHAPE, PAPER_ACCURACY);
    println!(
        "Gantt of the simulated factorization (NT={}, b={}, {} procs, scale 1/{s})",
        p.nt, p.tile_size, p.nodes
    );
    println!("glyphs: P=POTRF T=TRSM S=SYRK G=GEMM ·=idle; one row per process");

    for (name, cfg) in [
        ("lorapo (untrimmed, hybrid)", lorapo_config(machine.clone(), p.nodes)),
        ("hicma-parsec (trim+band+diamond)", hicma_parsec_config(machine.clone(), p.nodes)),
    ] {
        let mut trace = Trace::default();
        let r = simulate_cholesky_faulty(&snap, &cfg, &FaultPlan::none(), 0.0, Some(&mut trace))
            .expect("a fault-free simulation of a valid configuration cannot fail");
        println!();
        println!("--- {name}: {:.3}s ---", r.factorization_seconds);
        print!("{}", trace.gantt(p.nodes, 96));
    }
    println!();
    println!("Expected: the optimized schedule is denser (less idle) and shorter.");
}
