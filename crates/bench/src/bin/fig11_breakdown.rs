//! Fig. 11 — time breakdown on 512 Shaheen II nodes: matrix generation,
//! TLR compression, and the Cholesky factorization, for HiCMA-PaRSEC and
//! Lorapo. The paper's point: after our optimizations the *compression*
//! becomes the most expensive phase, motivating future work on
//! generating the matrix directly in compressed form.
//!
//! A second table shows the same breakdown measured for real (wall
//! clock, shared memory, laptop scale) to confirm the phase ordering is
//! not an artifact of the simulator. Its assembly column is generation +
//! compression of the tiles that were not certified null from the point
//! cloud (the certified share is printed beside it), split into the
//! CPU-seconds the assembly spent evaluating entries and compressing
//! tiles — summed over tiles, so with several threads they add up to more
//! than the assembly's wall clock.

use hicma_core::lorapo::{hicma_parsec_config, lorapo_config};
use hicma_core::simulate::simulate_cholesky;
use hicma_core::{factorize, FactorConfig};
use rbf_mesh::geometry::{virus_population, VirusConfig};
use rbf_mesh::hilbert::{apply_permutation, hilbert_sort};
use rbf_mesh::GaussianRbf;
use runtime::MachineModel;
use tlr_bench::{scaled_machine, header, paper_sizes, scale_factor, scaled_snapshot, PAPER_ACCURACY, PAPER_SHAPE};
use tlr_compress::{CompressionConfig, TlrMatrix};

fn main() {
    let s = scale_factor(64);
    println!("Fig. 11 — phase breakdown on 512 Shaheen II nodes (scale 1/{s})");
    header(&[
        ("N", 8),
        ("code", 13),
        ("generate (s)", 13),
        ("compress (s)", 13),
        ("factorize (s)", 14),
        ("facto share", 12),
    ]);
    for (label, n_paper, b_paper) in paper_sizes() {
        let (p, snap) = scaled_snapshot(n_paper, b_paper, 512, s, PAPER_SHAPE, PAPER_ACCURACY);
        for (code, cfg) in [
            ("lorapo", lorapo_config(scaled_machine(MachineModel::shaheen_ii(), s), p.nodes)),
            ("hicma-parsec", hicma_parsec_config(scaled_machine(MachineModel::shaheen_ii(), s), p.nodes)),
        ] {
            let r = simulate_cholesky(&snap, &cfg);
            let total = r.generation_seconds + r.compression_seconds + r.factorization_seconds;
            println!(
                "{:>8} {:>13} {:>13.2} {:>13.2} {:>14.2} {:>11.0}%",
                label,
                code,
                r.generation_seconds,
                r.compression_seconds,
                r.factorization_seconds,
                100.0 * r.factorization_seconds / total,
            );
        }
    }

    // ------------------------------------------------------------------
    // Real-execution sanity check at laptop scale.
    // ------------------------------------------------------------------
    println!();
    println!("Real shared-memory breakdown (wall clock, laptop scale):");
    let vcfg = VirusConfig { points_per_virus: 400, ..Default::default() };
    let raw = virus_population(4, &vcfg, 17);
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    let n = points.len();
    let kernel = GaussianRbf::from_min_distance(&points);
    let accuracy = 1e-6;

    let t0 = std::time::Instant::now();
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut a = TlrMatrix::from_generator(n, 128, kernel.generator(&points), &ccfg);
    let assemble_s = t0.elapsed().as_secs_f64();
    let off_diagonal = a.nt() * (a.nt() - 1) / 2;
    let certified = a.certified_null_tiles();

    let (evaluate_s, compress_s) = (a.evaluation_seconds(), a.compression_seconds());

    let rep = factorize(&mut a, &FactorConfig::with_accuracy(accuracy)).expect("SPD");
    header(&[
        ("N", 8),
        ("assembly (s)", 13),
        ("evaluate (cpu-s)", 17),
        ("compress (cpu-s)", 17),
        ("certified null", 15),
        ("factorize (s)", 14),
        ("facto share", 12),
    ]);
    println!(
        "{:>8} {:>13.3} {:>17.3} {:>17.3} {:>8} of {:<3} {:>14.3} {:>11.0}%",
        n,
        assemble_s,
        evaluate_s,
        compress_s,
        certified,
        off_diagonal,
        rep.factorization_seconds,
        100.0 * rep.factorization_seconds / (assemble_s + rep.factorization_seconds),
    );
    println!();
    println!("Expected (paper): HiCMA-PaRSEC shrinks the factorization so much that");
    println!("compression becomes the dominant phase; Lorapo stays factorization-bound.");
    println!("Assembly (generation + compression) here skips the off-diagonal tiles the");
    println!("point cloud's bounding boxes certify null, so its time is that of the");
    println!("tiles that hold something, not of the formally dense matrix.");
}
