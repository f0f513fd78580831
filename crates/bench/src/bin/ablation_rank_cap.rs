//! Ablation: the rank cap (HiCMA's `maxrank`).
//!
//! The cap bounds the fill-in rank estimate and the stored rank of every
//! tile. A small cap cuts flops and memory but (in real execution) costs
//! accuracy; a huge cap is safe but lets recompression chase noise. The
//! simulation half sweeps the cap's effect on time; the real-execution
//! half measures the accuracy actually delivered at each cap.

use hicma_core::lorapo::hicma_parsec_config;
use hicma_core::simulate::{simulate_cholesky, SimConfig};
use hicma_core::{factorization_residual, factorize, FactorConfig};
use rbf_mesh::geometry::{virus_population, VirusConfig};
use rbf_mesh::hilbert::{apply_permutation, hilbert_sort};
use rbf_mesh::GaussianRbf;
use runtime::MachineModel;
use tlr_bench::{header, scale_factor, scaled_machine, scaled_snapshot, PAPER_ACCURACY, PAPER_SHAPE};
use tlr_compress::{CompressionConfig, TlrMatrix};
use tlr_linalg::Matrix;

fn main() {
    let s = scale_factor(32);
    let machine = scaled_machine(MachineModel::shaheen_ii(), s);
    println!("Ablation — rank cap / maxrank (simulated, 512 paper nodes, scale 1/{s})");
    header(&[("cap", 8), ("time (s)", 10), ("tasks", 9)]);
    let (p, snap) = scaled_snapshot(11.95e6, 4880, 512, s, PAPER_SHAPE, PAPER_ACCURACY);
    for cap in [8usize, 16, 32, 64, usize::MAX] {
        let cfg = SimConfig { rank_cap: cap, ..hicma_parsec_config(machine.clone(), p.nodes) };
        let r = simulate_cholesky(&snap, &cfg);
        let cap_label = if cap == usize::MAX { "none".to_string() } else { cap.to_string() };
        println!("{:>8} {:>10.3} {:>9}", cap_label, r.factorization_seconds, r.dag_tasks);
    }

    println!();
    println!("Real execution — accuracy actually delivered per cap:");
    header(&[("cap", 8), ("residual", 12), ("memory vs dense", 16)]);
    let vcfg = VirusConfig { points_per_virus: 350, ..Default::default() };
    let raw = virus_population(3, &vcfg, 61);
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    let n = points.len();
    let mut kernel = GaussianRbf::from_min_distance(&points);
    kernel.delta *= 4.0; // moderate coupling so ranks actually reach the cap
    kernel.nugget = 1e-4;
    let accuracy = 1e-8;
    let dense = Matrix::from_fn(n, n, |i, j| kernel.matrix_entry(&points, i, j));
    for cap in [4usize, 8, 16, 32, usize::MAX] {
        let ccfg = CompressionConfig { accuracy, max_rank: cap };
        let mut a = TlrMatrix::from_dense(&dense, 105, &ccfg);
        let mem = a.memory_f64() as f64 / (n * (n + 1) / 2) as f64;
        let fcfg = FactorConfig { max_rank: cap, ..FactorConfig::with_accuracy(accuracy) };
        let cap_label = if cap == usize::MAX { "none".to_string() } else { cap.to_string() };
        match factorize(&mut a, &fcfg) {
            Ok(_) => {
                let res = factorization_residual(&dense, &a);
                println!("{:>8} {:>12.2e} {:>15.1}%", cap_label, res, 100.0 * mem);
            }
            Err(e) => println!("{:>8} not SPD (pivot {})", cap_label, e.pivot),
        }
    }
    println!();
    println!("Expected: tiny caps force tiles to stay dense (exact but heavy in");
    println!("memory and flops); once the cap clears the true ranks, the low-rank");
    println!("form kicks in — leaner storage at exactly the threshold accuracy.");
}
