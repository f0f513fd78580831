//! Symmetric TLR matrix container (lower-triangular tile storage).
//!
//! The container matches HiCMA's layout decisions: only the lower triangle
//! of tiles is stored (the matrix is symmetric), diagonal tiles are always
//! dense, off-diagonal tiles are compressed at construction. The last tile
//! row/column may be smaller when the matrix size is not a multiple of the
//! tile size.

use crate::compress::{compress_tile, CompressionConfig};
use crate::rankstat::RankSnapshot;
use crate::tile::Tile;
use rayon::prelude::*;
use std::time::Instant;
use tlr_linalg::{Matrix, TileSource};

/// A symmetric positive-definite matrix stored as TLR tiles (lower
/// triangle only).
#[derive(Clone)]
pub struct TlrMatrix {
    n: usize,
    tile_size: usize,
    nt: usize,
    /// Lower-triangle tiles in row-major packed order:
    /// index of `(i, j)`, `i ≥ j`, is `i·(i+1)/2 + j`.
    tiles: Vec<Tile>,
    /// Off-diagonal tiles assembly proved null without evaluating them.
    certified_null: usize,
    /// Source entries assembly evaluated.
    evaluations: usize,
    /// CPU-seconds assembly spent evaluating entries, summed over tiles.
    evaluation_seconds: f64,
    /// CPU-seconds assembly spent compressing tiles, summed over tiles.
    compression_seconds: f64,
}

#[inline]
fn packed_index(i: usize, j: usize) -> usize {
    debug_assert!(i >= j, "only the lower triangle is stored");
    i * (i + 1) / 2 + j
}

/// Relative head-room between a source's norm bound and the accuracy
/// before a tile is taken as null unevaluated. The bound is rigorous for
/// the entries as computed ([`TileSource::norm_bound`]); what is left to
/// cover is the rounding of the norm `compress_tile` would take of them,
/// at most `(rows + cols + 10)·2⁻⁵³` relative, so `1e-9` holds for tiles
/// up to a million rows.
const CERTIFY_MARGIN: f64 = 1e-9;

/// Does a source's `bound` on `‖tile‖_F` prove that [`compress_tile`]
/// would return `Null` at `accuracy`? Never for a NaN, infinite or
/// negative bound, nor for a NaN or non-positive accuracy.
pub fn certifies_null(bound: f64, accuracy: f64) -> bool {
    bound >= 0.0 && bound * (1.0 + CERTIFY_MARGIN) < accuracy
}

impl TlrMatrix {
    /// Build a TLR matrix by sampling a symmetric [`TileSource`] (any
    /// `Fn(row, col) -> f64 + Sync` closure is one) tile by tile and
    /// compressing each off-diagonal tile at the configured accuracy.
    ///
    /// A serial pass over the lower triangle asks `source` for a norm
    /// bound per off-diagonal tile and writes `Tile::Null` where it
    /// [`certifies_null`], without evaluating an entry — exactly the
    /// tiles [`compress_tile`] would have found null, so the result does
    /// not depend on how sharp the bound is. A closure bounds nothing and
    /// has every tile evaluated. The remaining tiles are generated and
    /// compressed in parallel on rayon's work-stealing pool, sized by
    /// `available_parallelism` unless `RAYON_NUM_THREADS` overrides it
    /// (this is the paper's "matrix generation + compression" phase,
    /// Fig. 11). The parallel loop runs over the surviving work-list, so
    /// its chunks are balanced over tiles that cost something rather
    /// than over coordinates. Per-tile results are independent of the
    /// thread count, so the assembled matrix is bit-identical at any
    /// pool size. Each worker times its tiles' entry evaluation and
    /// compression apart; the sums are the assembly's ledger
    /// ([`evaluation_seconds`](Self::evaluation_seconds),
    /// [`compression_seconds`](Self::compression_seconds)).
    pub fn from_generator(
        n: usize,
        tile_size: usize,
        source: impl TileSource,
        config: &CompressionConfig,
    ) -> Self {
        assert!(n > 0 && tile_size > 0, "matrix and tile size must be positive");
        let nt = n.div_ceil(tile_size);
        let span = |t: usize| t * tile_size..n.min((t + 1) * tile_size);
        let mut tiles = Vec::with_capacity(nt * (nt + 1) / 2);
        let mut work = Vec::new();
        for i in 0..nt {
            for j in 0..=i {
                let (rows, cols) = (span(i), span(j));
                let (r, c) = (rows.len(), cols.len());
                if i == j || !certifies_null(source.norm_bound(rows, cols), config.accuracy) {
                    work.push((i, j));
                }
                // Uncertified tiles are overwritten below.
                tiles.push(Tile::Null { rows: r, cols: c });
            }
        }
        let certified_null = tiles.len() - work.len();
        let built: Vec<(Tile, f64, f64)> = work
            .par_iter()
            .map(|&(i, j)| {
                let start = Instant::now();
                let block = source.block(span(i), span(j));
                let evaluated = Instant::now();
                if i == j {
                    return (Tile::Dense(block), (evaluated - start).as_secs_f64(), 0.0);
                }
                let tile = compress_tile(block, config);
                let (eval, comp) = (evaluated - start, evaluated.elapsed());
                (tile, eval.as_secs_f64(), comp.as_secs_f64())
            })
            .collect();
        let (mut evaluations, mut evaluation_seconds, mut compression_seconds) = (0, 0.0, 0.0);
        for (&(i, j), (tile, eval_s, comp_s)) in work.iter().zip(built) {
            evaluations += tile.rows() * tile.cols();
            evaluation_seconds += eval_s;
            compression_seconds += comp_s;
            tiles[packed_index(i, j)] = tile;
        }
        Self {
            n,
            tile_size,
            nt,
            tiles,
            certified_null,
            evaluations,
            evaluation_seconds,
            compression_seconds,
        }
    }

    /// Build from an explicit dense matrix (testing/small problems).
    pub fn from_dense(a: &Matrix, tile_size: usize, config: &CompressionConfig) -> Self {
        assert_eq!(a.rows(), a.cols(), "TLR matrices are square/symmetric");
        Self::from_generator(a.rows(), tile_size, |i, j| a[(i, j)], config)
    }

    /// Off-diagonal tiles the assembly wrote as `Null` on the strength of
    /// the source's norm bound alone, without evaluating an entry.
    pub fn certified_null_tiles(&self) -> usize {
        self.certified_null
    }

    /// Source entries the assembly evaluated (`rows × cols` per
    /// evaluated tile, none for a certified one).
    pub fn kernel_evaluations(&self) -> usize {
        self.evaluations
    }

    /// CPU-seconds the assembly spent evaluating source entries, summed
    /// over the evaluated tiles (diagonal ones included).
    pub fn evaluation_seconds(&self) -> f64 {
        self.evaluation_seconds
    }

    /// CPU-seconds the assembly spent in `compress_tile`, summed over the
    /// evaluated off-diagonal tiles; 0 when every one was certified null.
    pub fn compression_seconds(&self) -> f64 {
        self.compression_seconds
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile size `b`.
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Number of tile rows/columns `NT`.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Row count of tile row `i` (the last row may be short).
    pub fn tile_rows(&self, i: usize) -> usize {
        self.tile_size.min(self.n - i * self.tile_size)
    }

    /// Borrow tile `(i, j)`, `i ≥ j`.
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[packed_index(i, j)]
    }

    /// Mutably borrow tile `(i, j)`, `i ≥ j`.
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        &mut self.tiles[packed_index(i, j)]
    }

    /// Mutably borrow three distinct tiles at once — the GEMM update
    /// signature `C[m][n] −= A[m][k] · A[n][k]ᵀ` needs `(m,k)`, `(n,k)`
    /// read-only and `(m,n)` mutable; this helper hands out the mutable
    /// one while the caller clones/borrows the read tiles first.
    pub fn take_tile(&mut self, i: usize, j: usize) -> Tile {
        std::mem::replace(&mut self.tiles[packed_index(i, j)], Tile::Null { rows: 0, cols: 0 })
    }

    /// Put a tile back after [`TlrMatrix::take_tile`].
    pub fn put_tile(&mut self, i: usize, j: usize, t: Tile) {
        self.tiles[packed_index(i, j)] = t;
    }

    /// Mean absolute value of the matrix diagonal — the natural scale for
    /// a regularizing shift `A + εI` (diagonal tiles are always dense).
    pub fn diagonal_mean_abs(&self) -> f64 {
        let mut sum = 0.0;
        for k in 0..self.nt {
            if let Tile::Dense(m) = self.tile(k, k) {
                for d in 0..m.rows().min(m.cols()) {
                    sum += m[(d, d)].abs();
                }
            }
        }
        sum / self.n.max(1) as f64
    }

    /// Density = non-null off-diagonal lower tiles / total off-diagonal
    /// lower tiles (the paper's metric; sparsity = 1 − density).
    pub fn density(&self) -> f64 {
        if self.nt <= 1 {
            return 1.0;
        }
        let mut nonzero = 0usize;
        let mut total = 0usize;
        for i in 0..self.nt {
            for j in 0..i {
                total += 1;
                if !self.tile(i, j).is_null() {
                    nonzero += 1;
                }
            }
        }
        nonzero as f64 / total as f64
    }

    /// Snapshot of the current rank of every lower tile (diagonal tiles
    /// report `min(rows, cols)`).
    pub fn rank_snapshot(&self) -> RankSnapshot {
        let mut ranks = vec![0usize; self.nt * self.nt];
        for i in 0..self.nt {
            for j in 0..=i {
                ranks[i * self.nt + j] = self.tile(i, j).rank();
            }
        }
        RankSnapshot::new(self.nt, self.tile_size, ranks)
    }

    /// Total storage in `f64` words (the paper's memory-footprint metric).
    pub fn memory_f64(&self) -> usize {
        self.tiles.iter().map(Tile::memory_f64).sum()
    }

    /// Materialize the full symmetric dense matrix (testing / small N).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        for i in 0..self.nt {
            for j in 0..=i {
                let block = self.tile(i, j).to_dense();
                out.set_submatrix(i * self.tile_size, j * self.tile_size, &block);
                if i != j {
                    let bt = block.transpose();
                    out.set_submatrix(j * self.tile_size, i * self.tile_size, &bt);
                }
            }
        }
        out
    }

    /// Materialize only the lower triangle (for factored matrices, where
    /// the upper triangle is not meaningful).
    pub fn to_dense_lower(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        for i in 0..self.nt {
            for j in 0..=i {
                let block = self.tile(i, j).to_dense();
                out.set_submatrix(i * self.tile_size, j * self.tile_size, &block);
            }
        }
        for j in 0..self.n {
            for i in 0..j {
                out[(i, j)] = 0.0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_linalg::norms::relative_diff;

    /// A smooth SPD generator: Gaussian kernel on a 1D grid + diagonal
    /// regularization. Mimics the structure of RBF matrices.
    fn gaussian_gen(n: usize) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64) / (n as f64 / 16.0);
            let v = (-d * d).exp();
            if i == j {
                v + 1e-2
            } else {
                v
            }
        }
    }

    #[test]
    fn construction_and_shapes() {
        let n = 100;
        let b = 32; // 100 = 32+32+32+4 → nt = 4, last tile 4
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(n, b, gaussian_gen(n), &cfg);
        assert_eq!(m.nt(), 4);
        assert_eq!(m.tile_rows(0), 32);
        assert_eq!(m.tile_rows(3), 4);
        assert_eq!(m.tile(3, 3).rows(), 4);
        assert_eq!(m.tile(3, 0).rows(), 4);
        assert_eq!(m.tile(3, 0).cols(), 32);
    }

    #[test]
    fn reconstruction_error_within_threshold() {
        let n = 96;
        let b = 24;
        let gen = gaussian_gen(n);
        let dense = Matrix::from_fn(n, n, &gen);
        for acc in [1e-3, 1e-6, 1e-9] {
            let cfg = CompressionConfig::with_accuracy(acc);
            let m = TlrMatrix::from_dense(&dense, b, &cfg);
            let err = relative_diff(&m.to_dense(), &dense);
            // NT² tiles each at most `acc` off in Frobenius norm.
            let bound = acc * (m.nt() * m.nt()) as f64;
            assert!(err * tlr_linalg::frobenius_norm(&dense) <= bound.max(1e-12) * 10.0,
                "acc={acc} err={err}");
        }
    }

    #[test]
    fn far_tiles_compress_harder() {
        let n = 128;
        let b = 16;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(n, b, gaussian_gen(n), &cfg);
        // rank decays with distance to the diagonal
        let near = m.tile(1, 0).rank();
        let far = m.tile(7, 0).rank();
        assert!(far <= near, "near={near} far={far}");
        assert!(m.tile(7, 0).is_null(), "far tile should vanish");
    }

    #[test]
    fn density_between_zero_and_one() {
        let n = 128;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(n, 16, gaussian_gen(n), &cfg);
        let d = m.density();
        assert!(d > 0.0 && d < 1.0, "density {d}");
    }

    #[test]
    fn snapshot_matches_tiles() {
        let n = 64;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(n, 16, gaussian_gen(n), &cfg);
        let snap = m.rank_snapshot();
        assert_eq!(snap.rank(2, 1), m.tile(2, 1).rank());
        assert_eq!(snap.rank(3, 3), 16);
    }

    #[test]
    fn take_put_roundtrip() {
        let n = 64;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let mut m = TlrMatrix::from_generator(n, 16, gaussian_gen(n), &cfg);
        let before = m.tile(2, 1).to_dense();
        let t = m.take_tile(2, 1);
        m.put_tile(2, 1, t);
        assert!(relative_diff(&m.tile(2, 1).to_dense(), &before) < 1e-15);
    }

    /// The assembly ledger: a source that certifies every off-diagonal
    /// tile null leaves nothing to compress, so only evaluation is timed;
    /// a closure has every tile evaluated and its off-diagonal ones
    /// compressed.
    #[test]
    fn assembly_times_evaluation_and_compression_apart() {
        use std::ops::Range;
        struct BlockDiagonal;
        impl TileSource for BlockDiagonal {
            fn entry(&self, i: usize, j: usize) -> f64 {
                if i / 16 == j / 16 { 1.0 + (i == j) as u8 as f64 } else { 0.0 }
            }
            fn norm_bound(&self, rows: Range<usize>, cols: Range<usize>) -> f64 {
                if rows.start / 16 == cols.start / 16 { f64::INFINITY } else { 0.0 }
            }
        }
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(64, 16, BlockDiagonal, &cfg);
        assert_eq!(m.certified_null_tiles(), 6);
        assert_eq!(m.kernel_evaluations(), 4 * 16 * 16);
        assert!(m.evaluation_seconds() > 0.0);
        assert_eq!(m.compression_seconds(), 0.0);

        let m = TlrMatrix::from_generator(64, 16, gaussian_gen(64), &cfg);
        assert_eq!(m.certified_null_tiles(), 0);
        assert!(m.evaluation_seconds() > 0.0 && m.compression_seconds() > 0.0);
    }

    #[test]
    fn memory_less_than_dense() {
        let n = 256;
        let cfg = CompressionConfig::with_accuracy(1e-5);
        let m = TlrMatrix::from_generator(n, 32, gaussian_gen(n), &cfg);
        // lower-triangle dense storage would be ~ n(n+1)/2
        assert!(m.memory_f64() < n * (n + 1) / 2);
    }
}
