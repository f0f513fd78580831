//! Extension (the paper's §IX future work): assemble the RBF operator
//! **directly in compressed format** with adaptive cross approximation,
//! skipping the dense-generation phase that Fig. 11 shows dominating
//! HiCMA-PaRSEC's end-to-end time.
//!
//! Compares kernel-evaluation counts and wall time of the two assembly
//! paths and verifies both factorize to the same accuracy. Both paths
//! skip the tiles the kernel source certifies null from the bounding
//! boxes of the point cloud, so the comparison is over the tiles that
//! hold something.
//!
//! Run with: `cargo run --release --example compressed_assembly`

use hicma_parsec::cholesky::{factorization_residual, factorize, FactorConfig};
use hicma_parsec::linalg::Matrix;
use hicma_parsec::mesh::geometry::{virus_population, VirusConfig};
use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
use hicma_parsec::mesh::GaussianRbf;
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};

fn main() {
    let vcfg = VirusConfig { points_per_virus: 400, ..Default::default() };
    let raw = virus_population(4, &vcfg, 33);
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    let n = points.len();
    let kernel = GaussianRbf::from_min_distance(&points);
    let accuracy = 1e-6;
    let tile = 128;
    let ccfg = CompressionConfig::with_accuracy(accuracy);

    println!("N = {n}, tile = {tile}, accuracy = {accuracy:.0e}");

    // ---------------- dense assembly + compression ----------------
    let t0 = std::time::Instant::now();
    let mut a_dense_path =
        TlrMatrix::from_generator(n, tile, kernel.generator(&points), &ccfg);
    let t_dense = t0.elapsed().as_secs_f64();
    let dense_evals = a_dense_path.kernel_evaluations();
    // What the dense path cost before tiles were certified null from the
    // point cloud: every lower tile generated in full.
    let every_tile = {
        let nt = a_dense_path.nt();
        nt * (nt + 1) / 2 * tile * tile
    };

    // ---------------- direct compressed assembly (ACA) ----------------
    let t1 = std::time::Instant::now();
    let (mut a_aca, aca_evals) =
        TlrMatrix::from_generator_aca(n, tile, kernel.generator(&points), &ccfg);
    let t_aca = t1.elapsed().as_secs_f64();

    println!();
    println!(
        "tiles certified null from the point cloud (never evaluated, either path): {} of {}",
        a_aca.certified_null_tiles(),
        a_aca.nt() * (a_aca.nt() - 1) / 2
    );
    println!("                         dense path        ACA path");
    println!("kernel evaluations   {dense_evals:>14} {aca_evals:>15}");
    println!(
        "saving vs all tiles  {:>13.1}x {:>14.1}x   (every lower tile in full: {every_tile})",
        every_tile as f64 / dense_evals as f64,
        every_tile as f64 / aca_evals as f64
    );
    println!("assembly wall time   {t_dense:>13.3}s {t_aca:>14.3}s");

    // Both operators must factorize to the same accuracy.
    let reference = Matrix::from_fn(n, n, |i, j| kernel.matrix_entry(&points, i, j));
    let fcfg = FactorConfig::with_accuracy(accuracy);
    factorize(&mut a_dense_path, &fcfg).expect("SPD");
    factorize(&mut a_aca, &fcfg).expect("SPD (ACA)");
    let res_dense = factorization_residual(&reference, &a_dense_path);
    let res_aca = factorization_residual(&reference, &a_aca);
    println!();
    println!("factorization residual, dense path : {res_dense:.3e}");
    println!("factorization residual, ACA path   : {res_aca:.3e}");
    assert!(res_aca < accuracy * 1e3, "ACA path must stay within accuracy");
    println!("compressed assembly OK");
}
