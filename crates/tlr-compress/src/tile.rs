//! The three-format tile value.
//!
//! During the lifespan of the application a tile may be **dense** (as
//! generated, or kept dense on the diagonal), **low-rank** (`U·Vᵀ` after
//! compression) or **null** (everything below the accuracy threshold).
//! The TLR Cholesky kernels pattern-match on this enum; the runtime layer
//! uses [`Tile::memory_f64`] and [`Tile::format`] for communication-volume
//! accounting.

use tlr_linalg::{gemm_serial, Matrix, Trans};

/// Storage-format discriminant, used by the communication model and the
/// statistics reporting (a `u8` tag keeps trace records small).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TileFormat {
    /// Full `rows × cols` storage.
    Dense,
    /// `U·Vᵀ` with tall-skinny `U` (`rows × k`) and `V` (`cols × k`).
    LowRank,
    /// Identically zero at the working accuracy; occupies no storage.
    Null,
}

/// One tile of a TLR matrix.
#[derive(Debug, Clone)]
pub enum Tile {
    /// Full dense storage.
    Dense(Matrix),
    /// Low-rank factorization `A ≈ u · vᵀ`; `u: rows × k`, `v: cols × k`.
    LowRank {
        /// Left factor, `rows × k`.
        u: Matrix,
        /// Right factor, `cols × k` (so the tile is `u · vᵀ`).
        v: Matrix,
    },
    /// A tile whose content vanished under the accuracy threshold.
    Null {
        /// Logical number of rows.
        rows: usize,
        /// Logical number of columns.
        cols: usize,
    },
}

impl Tile {
    /// Logical row count.
    pub fn rows(&self) -> usize {
        match self {
            Tile::Dense(m) => m.rows(),
            Tile::LowRank { u, .. } => u.rows(),
            Tile::Null { rows, .. } => *rows,
        }
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        match self {
            Tile::Dense(m) => m.cols(),
            Tile::LowRank { v, .. } => v.rows(),
            Tile::Null { cols, .. } => *cols,
        }
    }

    /// The storage format tag.
    pub fn format(&self) -> TileFormat {
        match self {
            Tile::Dense(_) => TileFormat::Dense,
            Tile::LowRank { .. } => TileFormat::LowRank,
            Tile::Null { .. } => TileFormat::Null,
        }
    }

    /// The tile's rank in the TLR bookkeeping sense: `0` for null tiles,
    /// `k` for low-rank tiles, `min(rows, cols)` for dense tiles.
    pub fn rank(&self) -> usize {
        match self {
            Tile::Dense(m) => m.rows().min(m.cols()),
            Tile::LowRank { u, .. } => u.cols(),
            Tile::Null { .. } => 0,
        }
    }

    /// `true` for [`Tile::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Tile::Null { .. })
    }

    /// Number of `f64` words this tile occupies (the paper's memory-
    /// footprint metric, also the message size when the tile is shipped).
    pub fn memory_f64(&self) -> usize {
        match self {
            Tile::Dense(m) => m.rows() * m.cols(),
            Tile::LowRank { u, v } => u.rows() * u.cols() + v.rows() * v.cols(),
            Tile::Null { .. } => 0,
        }
    }

    /// Materialize the tile densely into `out` (reshaped in place to the
    /// tile's logical shape; allocation-free once `out` has grown to
    /// size). This is the workspace-friendly variant of
    /// [`Tile::to_dense`] used by the kernel hot path.
    pub fn to_dense_into(&self, out: &mut Matrix) {
        out.reset(self.rows(), self.cols());
        match self {
            Tile::Dense(m) => out.as_mut_slice().copy_from_slice(m.as_slice()),
            Tile::LowRank { u, v } => {
                if u.cols() > 0 {
                    gemm_serial(Trans::No, Trans::Yes, 1.0, u, v, 0.0, out);
                }
            }
            Tile::Null { .. } => {}
        }
    }

    /// Materialize the tile as a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        match self {
            Tile::Dense(m) => m.clone(),
            Tile::LowRank { u, v } => {
                let mut out = Matrix::zeros(u.rows(), v.rows());
                if u.cols() > 0 {
                    gemm_serial(Trans::No, Trans::Yes, 1.0, u, v, 0.0, &mut out);
                }
                out
            }
            Tile::Null { rows, cols } => Matrix::zeros(*rows, *cols),
        }
    }

    /// The transpose of the tile (swaps `u`/`v` for low-rank tiles).
    pub fn transpose(&self) -> Tile {
        match self {
            Tile::Dense(m) => Tile::Dense(m.transpose()),
            Tile::LowRank { u, v } => Tile::LowRank { u: v.clone(), v: u.clone() },
            Tile::Null { rows, cols } => Tile::Null { rows: *cols, cols: *rows },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_linalg::norms::relative_diff;

    fn lr_tile() -> Tile {
        let u = Matrix::from_fn(4, 2, |i, j| (i + j + 1) as f64);
        let v = Matrix::from_fn(3, 2, |i, j| (2 * i + j) as f64);
        Tile::LowRank { u, v }
    }

    #[test]
    fn shapes_and_ranks() {
        let t = lr_tile();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.format(), TileFormat::LowRank);

        let d = Tile::Dense(Matrix::zeros(5, 5));
        assert_eq!(d.rank(), 5);
        assert_eq!(d.memory_f64(), 25);

        let n = Tile::Null { rows: 7, cols: 2 };
        assert_eq!(n.rank(), 0);
        assert_eq!(n.memory_f64(), 0);
        assert!(n.is_null());
    }

    #[test]
    fn to_dense_lowrank() {
        let t = lr_tile();
        let d = t.to_dense();
        // Check one entry by hand: A[1][2] = Σ_k u[1,k] v[2,k] = 2*4 + 3*5 = 23
        assert_eq!(d[(1, 2)], 23.0);
    }

    #[test]
    fn transpose_consistency() {
        let t = lr_tile();
        let tt = t.transpose();
        assert!(relative_diff(&tt.to_dense(), &t.to_dense().transpose()) < 1e-15);
        let n = Tile::Null { rows: 3, cols: 5 }.transpose();
        assert_eq!((n.rows(), n.cols()), (5, 3));
    }

    #[test]
    fn memory_footprint_lowrank() {
        let t = lr_tile();
        assert_eq!(t.memory_f64(), 4 * 2 + 3 * 2);
    }
}
