#![warn(missing_docs)]
//! Dense linear-algebra substrate for the TLR Cholesky reproduction.
//!
//! This crate provides, from scratch (no external BLAS/LAPACK), every dense
//! kernel the paper's HiCMA layer relies on:
//!
//! * a column-major [`Matrix`] container and its borrowed strided block
//!   views [`MatRef`] / [`MatMut`] — every kernel below takes its operands
//!   as views (`&Matrix` / `&mut Matrix` convert), so a block is borrowed,
//!   never copied, inside a kernel,
//! * level-3 BLAS: [`gemm`], [`syrk`], [`trsm`] (blocked, cache-aware;
//!   `gemm`/`syrk` run column-parallel on the work-stealing `rayon` pool
//!   above a size threshold, with [`gemm_serial`]/[`syrk_serial`] variants
//!   for callers that already sit inside a parallel task graph),
//! * LAPACK-style factorizations: [`potrf`] (Cholesky), [`Qr`] (Householder
//!   QR), [`ColPivQr`] (rank-revealing QR with column pivoting and
//!   threshold-based early termination — the one truncation of TLR
//!   compression and recompression), and [`jacobi_svd`] (plain one-sided
//!   Jacobi SVD, the SVD-optimal oracle those truncations are tested
//!   against; no factorization calls it),
//! * norm/error utilities,
//! * [`TileSource`]: a matrix given entry by entry, with an optional cheap
//!   norm bound per block (what tile assembly consumes).
//!
//! All computation is `f64`; the paper's experiments are double precision.
//!
//! # Quick example
//!
//! ```
//! use tlr_linalg::{Matrix, potrf, gemm, Side, Uplo, Trans};
//!
//! // Build a small SPD matrix A = B Bᵀ + n·I and factorize it.
//! let n = 8;
//! let b = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i + 2 * j) as f64));
//! let mut a = Matrix::identity(n);
//! a.scale(n as f64);
//! gemm(Trans::No, Trans::Yes, 1.0, &b, &b, 1.0, &mut a);
//! let mut l = a.clone();
//! potrf(&mut l).unwrap();
//! ```

pub mod blas3;
pub mod chol;
pub mod matrix;
pub mod microkernel;
pub mod norms;
pub mod qr;
pub mod source;
pub mod svd;

pub use blas3::{gemm, gemm_serial, syrk, syrk_serial, trsm, Side, Trans, Uplo};
pub use microkernel::{active_path, gemm_with_path, simd_available, KernelPath};
pub use chol::{potrf, potrf_unblocked, CholeskyError};
pub use matrix::{MatMut, MatRef, Matrix};
pub use norms::{frobenius_norm, max_abs, relative_diff};
pub use qr::{ColPivQr, ColPivScratch, Qr};
pub use source::TileSource;
pub use svd::{jacobi_svd, Svd};
