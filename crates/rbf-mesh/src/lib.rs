#![warn(missing_docs)]
//! 3D unstructured mesh deformation substrate.
//!
//! The paper's application is mesh deformation for CFD around moving 3D
//! bodies: the displacement of boundary nodes (on the body surfaces) is
//! interpolated to the whole volume with Gaussian radial basis functions,
//! which requires solving a dense SPD system sized by the number of
//! boundary nodes. Their dataset is a population of SARS-CoV-2 virus
//! surface meshes (PDB 6VXX) packed in a 1.7 µm cube.
//!
//! We cannot ship the protein geometry, so [`geometry`] synthesizes the
//! equivalent: spiked spherical point clouds ("viruses") packed in a unit
//! cube. What matters for the matrix structure — points clustered on
//! closed surfaces, many separated clusters, Gaussian kernel with a shape
//! parameter, Hilbert-curve ordering — is preserved (see DESIGN.md §2).
//!
//! * [`geometry`] — synthetic virus point clouds and cube packing,
//! * [`hilbert`] — 3D Hilbert space-filling-curve ordering (§IV-C),
//! * [`kernel`] — the scaled Gaussian RBF `φ_δ(r) = exp(−(r/δ)²)` and its
//!   Wendland and Matérn siblings, and the [`KernelSource`] that hands
//!   their matrices to tile assembly together with per-tile norm bounds,
//! * [`deform`] — the end-to-end deformation pipeline (assemble → solve →
//!   interpolate).

pub mod deform;
mod exp;
pub mod geometry;
pub mod hilbert;
pub mod kernel;
pub mod quality;

pub use geometry::{virus_population, Point3, VirusConfig};
pub use hilbert::hilbert_sort;
pub use kernel::{
    kernel_source, GaussianRbf, KernelSource, MaternKernel, MaternNu, RadialKernel, WendlandRbf,
};
pub use quality::{assess, QualityReport};
