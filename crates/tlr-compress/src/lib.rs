#![warn(missing_docs)]
//! HiCMA-equivalent tile low-rank (TLR) layer.
//!
//! A formally dense matrix is partitioned into `b × b` tiles. Diagonal
//! tiles stay dense; each off-diagonal tile is compressed to `U·Vᵀ` with
//! `U, V` of size `b × k`, where the rank `k` is the smallest value whose
//! truncation error satisfies the application accuracy threshold. Tiles
//! that are entirely below the threshold become **null** (rank 0) — this
//! is what produces the mixed dense/TLR/sparse structure the paper's §V is
//! about.
//!
//! The crate provides:
//!
//! * [`Tile`] — the three-format tile value (`Dense` / `LowRank` / `Null`),
//! * [`compress_tile`] / [`CompressionConfig`] — threshold compression via
//!   rank-revealing pivoted QR (the same rule truncates recompressions),
//! * [`kernels`] — the four TLR Cholesky kernels (`POTRF`, `TRSM`, `SYRK`,
//!   `GEMM`) operating directly on compressed tiles, with on-the-fly rank
//!   truncation in the GEMM recompression path,
//! * [`TlrMatrix`] — a symmetric lower-triangular tile container with
//!   density/rank statistics,
//! * [`rankstat`] — rank snapshots, heatmaps and the synthetic
//!   [`rankstat::SyntheticRankModel`] used for paper-scale simulations,
//! * [`integrity`] — exact tile digests, sealed tiles and deterministic
//!   bit-flip injection for the silent-data-corruption layer.

pub mod compress;
pub mod integrity;
pub mod kernels;
pub mod matrix;
pub mod rankstat;
pub mod tile;

pub use compress::{compress_tile, low_rank_pays_off, CompressionConfig};
pub use integrity::{corrupt_tile, SealedTile, TileDigest, WordFold};
pub use matrix::{certifies_null, TlrMatrix};
pub use rankstat::{RankEvolution, RankSnapshot, SyntheticRankModel};
pub use tile::Tile;
