//! A block-level view of a matrix that is defined by its entries.
//!
//! Tile assembly used to know an operator only as an opaque
//! `Fn(row, col) -> f64`, so it had to evaluate a whole tile before it
//! could learn that the tile is negligible. [`TileSource`] adds the one
//! question that lets it skip that work: an upper bound on the Frobenius
//! norm of a block, answered without touching the block's entries.

use crate::matrix::Matrix;
use std::ops::Range;

/// A matrix given entry by entry, with an optional cheap bound per block.
///
/// Every `Fn(usize, usize) -> f64 + Sync` closure is a `TileSource` with
/// the default methods: its blocks are filled entry by entry and nothing
/// is known about them beforehand. A source that knows more (a kernel
/// over a point cloud, whose far blocks are small) overrides
/// [`TileSource::norm_bound`].
pub trait TileSource: Sync {
    /// The entry at global position `(i, j)`.
    fn entry(&self, i: usize, j: usize) -> f64;

    /// The dense block `rows × cols`, filled column by column from
    /// [`TileSource::entry`].
    fn block(&self, rows: Range<usize>, cols: Range<usize>) -> Matrix {
        Matrix::from_fn(rows.len(), cols.len(), |bi, bj| {
            self.entry(rows.start + bi, cols.start + bj)
        })
    }

    /// An upper bound on the Frobenius norm of [`TileSource::block`]`(rows,
    /// cols)` **as computed**: rigorous for the floating-point entries
    /// `entry` returns, not only for the function they approximate. `∞`
    /// (the default) and `NaN` both mean "unknown"; a consumer must then
    /// evaluate the block.
    fn norm_bound(&self, _rows: Range<usize>, _cols: Range<usize>) -> f64 {
        f64::INFINITY
    }
}

impl<F: Fn(usize, usize) -> f64 + Sync> TileSource for F {
    #[inline]
    fn entry(&self, i: usize, j: usize) -> f64 {
        self(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_take_the_defaults() {
        let gen = |i: usize, j: usize| (10 * i + j) as f64;
        assert_eq!(gen.entry(3, 4), 34.0);
        let b = gen.block(2..5, 1..3);
        assert_eq!((b.rows(), b.cols()), (3, 2));
        assert_eq!(b[(0, 0)], 21.0);
        assert_eq!(b[(2, 1)], 42.0);
        assert_eq!(gen.norm_bound(0..8, 0..8), f64::INFINITY);
    }
}
