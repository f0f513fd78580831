//! Criterion micro-benchmarks of the dense and TLR tile kernels — the
//! building blocks whose relative costs drive every result in the paper:
//! compression (pivoted QR), POTRF, dense vs TLR TRSM/SYRK/GEMM, and the
//! GEMM recompression pipeline at several ranks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tlr_compress::kernels::{gemm_kernel, potrf_kernel, syrk_kernel, trsm_kernel};
use tlr_compress::{compress_tile, CompressionConfig, Tile};
use tlr_linalg::{gemm, potrf, Matrix, Trans};

/// Smooth kernel tile with tunable effective rank (larger `width` ⇒
/// faster spectral decay ⇒ smaller rank at a fixed threshold).
fn smooth_tile(b: usize, shift: f64, width: f64) -> Matrix {
    Matrix::from_fn(b, b, |i, j| {
        let d = (i as f64 - j as f64 + shift) / width;
        (-d * d).exp()
    })
}

fn spd_tile(b: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let m = Matrix::from_fn(b, b, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    });
    let mut a = Matrix::identity(b);
    a.scale(b as f64);
    gemm(Trans::No, Trans::Yes, 1.0, &m, &m, 1.0, &mut a);
    a
}

fn bench_compression(c: &mut Criterion) {
    let mut g = c.benchmark_group("compression");
    g.sample_size(10);
    let b = 256;
    for (label, width) in [("low-rank", 64.0), ("mid-rank", 16.0)] {
        let tile = smooth_tile(b, b as f64 * 0.5, width);
        let cfg = CompressionConfig::with_accuracy(1e-6);
        g.bench_with_input(BenchmarkId::new("qrcp_256", label), &tile, |bch, t| {
            bch.iter(|| black_box(compress_tile(t.clone(), &cfg)))
        });
    }
    g.finish();
}

fn bench_potrf(c: &mut Criterion) {
    let mut g = c.benchmark_group("potrf");
    g.sample_size(10);
    for b in [128usize, 256] {
        let a = spd_tile(b, 7);
        g.bench_with_input(BenchmarkId::from_parameter(b), &a, |bch, a| {
            bch.iter(|| {
                let mut l = a.clone();
                potrf(&mut l).unwrap();
                black_box(l)
            })
        });
    }
    g.finish();
}

fn bench_trsm_dense_vs_tlr(c: &mut Criterion) {
    let mut g = c.benchmark_group("trsm");
    g.sample_size(10);
    let b = 256;
    let l = {
        let mut l = spd_tile(b, 9);
        potrf(&mut l).unwrap();
        l.zero_upper();
        Tile::Dense(l)
    };
    let a_mat = smooth_tile(b, b as f64 * 0.5, 40.0);
    let cfg = CompressionConfig::with_accuracy(1e-6);
    let a_lr = compress_tile(a_mat.clone(), &cfg);
    assert!(matches!(a_lr, Tile::LowRank { .. }));

    g.bench_function("dense_256", |bch| {
        bch.iter(|| {
            let mut t = Tile::Dense(a_mat.clone());
            trsm_kernel(&l, &mut t);
            black_box(t)
        })
    });
    g.bench_function(format!("tlr_256_rank{}", a_lr.rank()), |bch| {
        bch.iter(|| {
            let mut t = a_lr.clone();
            trsm_kernel(&l, &mut t);
            black_box(t)
        })
    });
    g.finish();
}

fn bench_syrk_dense_vs_tlr(c: &mut Criterion) {
    let mut g = c.benchmark_group("syrk");
    g.sample_size(10);
    let b = 256;
    let c0 = spd_tile(b, 11);
    let a_mat = smooth_tile(b, b as f64 * 0.5, 40.0);
    let cfg = CompressionConfig::with_accuracy(1e-6);
    let a_lr = compress_tile(a_mat.clone(), &cfg);

    g.bench_function("dense_256", |bch| {
        bch.iter(|| {
            let mut ct = Tile::Dense(c0.clone());
            syrk_kernel(&Tile::Dense(a_mat.clone()), &mut ct);
            black_box(ct)
        })
    });
    g.bench_function(format!("tlr_256_rank{}", a_lr.rank()), |bch| {
        bch.iter(|| {
            let mut ct = Tile::Dense(c0.clone());
            syrk_kernel(&a_lr, &mut ct);
            black_box(ct)
        })
    });
    g.finish();
}

fn bench_gemm_recompression(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    g.sample_size(10);
    let b = 256;
    let cfg = CompressionConfig::with_accuracy(1e-6);
    // Vary operand rank through the spectral width.
    for (label, width) in [("rank_lo", 96.0), ("rank_hi", 20.0)] {
        let a_t = compress_tile(smooth_tile(b, b as f64 * 0.5, width), &cfg);
        let b_t = compress_tile(smooth_tile(b, b as f64 * 0.55, width), &cfg);
        let c_t = compress_tile(smooth_tile(b, b as f64 * 0.6, width), &cfg);
        g.bench_function(format!("tlr_256_{label}_k{}", a_t.rank()), |bch| {
            bch.iter(|| {
                let mut ct = c_t.clone();
                gemm_kernel(&a_t, &b_t, &mut ct, &cfg);
                black_box(ct)
            })
        });
    }
    // Dense reference.
    let a_m = smooth_tile(b, b as f64 * 0.5, 16.0);
    let b_m = smooth_tile(b, b as f64 * 0.55, 16.0);
    let c_m = smooth_tile(b, b as f64 * 0.6, 16.0);
    g.bench_function("dense_256", |bch| {
        bch.iter(|| {
            let mut ct = Tile::Dense(c_m.clone());
            gemm_kernel(&Tile::Dense(a_m.clone()), &Tile::Dense(b_m.clone()), &mut ct, &cfg);
            black_box(ct)
        })
    });
    g.finish();
}

fn bench_potrf_kernel_tile(c: &mut Criterion) {
    let mut g = c.benchmark_group("potrf_kernel");
    g.sample_size(10);
    let a = spd_tile(256, 13);
    g.bench_function("tile_256", |bch| {
        bch.iter(|| {
            let mut t = Tile::Dense(a.clone());
            potrf_kernel(&mut t).unwrap();
            black_box(t)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_compression,
    bench_potrf,
    bench_trsm_dense_vs_tlr,
    bench_syrk_dense_vs_tlr,
    bench_gemm_recompression,
    bench_potrf_kernel_tile
);
criterion_main!(benches);
