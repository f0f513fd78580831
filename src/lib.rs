#![warn(missing_docs)]
//! # hicma-parsec
//!
//! A from-scratch Rust reproduction of *"A Framework to Exploit Data
//! Sparsity in Tile Low-Rank Cholesky Factorization"* (IPDPS 2022):
//! HiCMA-style tile low-rank (TLR) linear algebra coupled with a
//! PaRSEC-style dataflow task runtime, applied to 3D unstructured mesh
//! deformation with Gaussian radial basis functions.
//!
//! This facade crate re-exports the public API of every workspace crate so
//! downstream users depend on a single package:
//!
//! * [`linalg`] — dense kernels (GEMM/SYRK/TRSM/POTRF, QR, pivoted QR — the
//!   factorization's only truncation — and the Jacobi SVD its tests compare
//!   against)
//! * [`tlr`] — TLR tiles, threshold compression, TLR BLAS with recompression
//! * [`runtime`] — task graphs, shared-memory executor, distributed
//!   discrete-event simulator, machine models
//! * [`distribution`] — 2D block-cyclic / hybrid / band / diamond layouts
//! * [`mesh`] — synthetic 3D geometries, Hilbert ordering, RBF kernels
//! * [`cholesky`] — the paper's contribution: trimmed TLR Cholesky with
//!   rank-aware execution mapping, plus the Lorapo baseline
//!
//! See `examples/quickstart.rs` for the 60-second tour and DESIGN.md for
//! the paper → code map.

pub use distribution;
pub use hicma_core as cholesky;
pub use rbf_mesh as mesh;
pub use runtime;
pub use tlr_compress as tlr;
pub use tlr_linalg as linalg;
