//! Dense → TLR threshold compression.
//!
//! Compression mirrors HiCMA's HCORE: a rank-revealing pivoted QR factors
//! the tile and stops as soon as the trailing Frobenius norm drops below
//! the accuracy threshold. The resulting `Q·R` pair is then put into the
//! canonical `U·Vᵀ` form. Three outcomes are possible:
//!
//! * the whole tile is already below the threshold → [`Tile::Null`]
//!   (decided from the column norms, before any column is eliminated),
//! * the numerical rank is small enough that the factorized form is
//!   cheaper than dense storage → [`Tile::LowRank`],
//! * otherwise the tile is kept [`Tile::Dense`]: the rank the accuracy
//!   needs is above [`CompressionConfig::max_rank`], or compression would
//!   only waste memory and flops.

use crate::tile::Tile;
use std::cell::Cell;
use tlr_linalg::{ColPivQr, ColPivScratch, Matrix};

/// Parameters of the compression step.
#[derive(Debug, Clone, Copy)]
pub struct CompressionConfig {
    /// Absolute Frobenius-norm accuracy threshold (the paper's
    /// `10⁻⁴ … 10⁻⁹` knob). The truncation satisfies
    /// `‖A − U·Vᵀ‖_F ≤ accuracy`.
    pub accuracy: f64,
    /// Hard cap on the stored rank (HiCMA's `maxrank`). A tile whose rank
    /// at the accuracy is above the cap stays dense; a rank equal to the
    /// cap is kept. Assembly and recompression apply the same rule.
    /// `usize::MAX` disables the cap.
    pub max_rank: usize,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self { accuracy: 1e-4, max_rank: usize::MAX }
    }
}

impl CompressionConfig {
    /// Config with the given accuracy and defaults elsewhere.
    pub fn with_accuracy(accuracy: f64) -> Self {
        Self { accuracy, ..Self::default() }
    }
}

/// Is a rank-`k` `rows × cols` factorization worth storing over dense?
/// Yes unless `U·Vᵀ` would take strictly more words than the dense tile:
/// at `k · (rows + cols) = rows · cols` the two cost the same and the
/// tile stays low rank. Compression, recompression and the planner's
/// pricing (`CholeskySpace::price`) all decide with this one rule.
pub fn low_rank_pays_off(k: usize, rows: usize, cols: usize) -> bool {
    k * (rows + cols) <= rows * cols
}

thread_local! {
    /// The pivoted QR's working copy of a tile and its index buffers,
    /// reused tile after tile by [`compress_tile`] on each thread.
    static WORKSPACE: Cell<Option<(Matrix, ColPivScratch)>> = const { Cell::new(None) };
}

/// Compress a dense tile at the configured accuracy.
///
/// Returns `Null`, `LowRank`, or `Dense` per the rules documented at the
/// module level. The QR factors a copy held in a per-thread buffer, and a
/// `Dense` outcome hands the input back as it came, so past the first
/// tile on a thread nothing is allocated but a `LowRank` outcome's two
/// factors.
///
/// ```
/// use tlr_compress::{compress_tile, CompressionConfig};
/// use tlr_linalg::Matrix;
///
/// // A smooth kernel tile compresses to a small rank…
/// let tile = Matrix::from_fn(64, 64, |i, j| {
///     let d = (i as f64 - j as f64 + 80.0) / 30.0;
///     (-d * d).exp()
/// });
/// let t = compress_tile(tile, &CompressionConfig::with_accuracy(1e-6));
/// assert!(t.rank() > 0 && t.rank() < 32);
///
/// // …and a negligible tile vanishes entirely.
/// let tiny = Matrix::from_fn(64, 64, |_, _| 1e-12);
/// let z = compress_tile(tiny, &CompressionConfig::with_accuracy(1e-6));
/// assert!(z.is_null());
/// ```
pub fn compress_tile(a: Matrix, config: &CompressionConfig) -> Tile {
    let rows = a.rows();
    let cols = a.cols();
    if rows == 0 || cols == 0 {
        return Tile::Null { rows, cols };
    }
    let (mut copy, scratch) =
        WORKSPACE.take().unwrap_or_else(|| (Matrix::zeros(0, 0), ColPivScratch::default()));
    copy.clone_from(&a);
    let mut f = ColPivQr::unfactored_in(copy, scratch);
    // Decide `Null` from the column norms — the very test the
    // factorization makes before its first pivot.
    let tile = if f.trailing_below(config.accuracy) {
        Tile::Null { rows, cols }
    } else {
        f.advance(config.accuracy, config.max_rank);
        let k = f.rank();
        // The cap stopped the factorization before the trailing block met
        // the threshold: the tile is not compressible under the cap, keep
        // it dense.
        let capped = k == config.max_rank && !f.trailing_below(config.accuracy);
        if capped || !low_rank_pays_off(k, rows, cols) {
            Tile::Dense(a)
        } else {
            // rows × k orthonormal, cols × k
            Tile::LowRank { u: f.q_thin(), v: f.r_unpermuted_t() }
        }
    };
    WORKSPACE.set(Some(f.into_parts()));
    tile
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_linalg::norms::{frobenius_norm, relative_diff};

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(r, c, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn low_rank_mat(m: usize, n: usize, k: usize, seed: u64) -> Matrix {
        let u = rand_mat(m, k, seed);
        let v = rand_mat(n, k, seed + 1);
        let mut out = Matrix::zeros(m, n);
        tlr_linalg::gemm(tlr_linalg::Trans::No, tlr_linalg::Trans::Yes, 1.0, &u, &v, 0.0, &mut out);
        out
    }

    #[test]
    fn exact_low_rank_recovers_rank() {
        let a = low_rank_mat(32, 32, 4, 11);
        let t = compress_tile(a.clone(), &CompressionConfig::with_accuracy(1e-10));
        assert_eq!(t.rank(), 4);
        assert!(relative_diff(&t.to_dense(), &a) < 1e-9);
    }

    #[test]
    fn below_threshold_becomes_null() {
        let mut a = rand_mat(16, 16, 12);
        a.scale(1e-9);
        let t = compress_tile(a, &CompressionConfig::with_accuracy(1e-4));
        assert!(t.is_null());
        assert_eq!((t.rows(), t.cols()), (16, 16));
    }

    #[test]
    fn incompressible_stays_dense() {
        // A random full-rank matrix at tight accuracy cannot compress.
        let a = rand_mat(16, 16, 13);
        let t = compress_tile(a.clone(), &CompressionConfig::with_accuracy(1e-12));
        assert_eq!(t.format(), crate::tile::TileFormat::Dense);
        assert!(relative_diff(&t.to_dense(), &a) == 0.0);
    }

    #[test]
    fn truncation_error_bounded() {
        // Gaussian-bump kernel tile: smooth ⇒ rapidly decaying spectrum.
        let n = 48;
        let a = Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64 + 60.0) / 20.0;
            (-d * d).exp()
        });
        for acc in [1e-2, 1e-4, 1e-6, 1e-8] {
            let t = compress_tile(a.clone(), &CompressionConfig::with_accuracy(acc));
            let mut diff = t.to_dense();
            diff.axpy(-1.0, &a);
            let err = frobenius_norm(&diff);
            assert!(err <= 10.0 * acc, "acc={acc} err={err} rank={}", t.rank());
            assert!(t.rank() < n, "should compress at acc={acc}");
        }
    }

    #[test]
    fn rank_grows_with_accuracy() {
        let n = 48;
        let a = Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64 + 60.0) / 20.0;
            (-d * d).exp()
        });
        let r1 = compress_tile(a.clone(), &CompressionConfig::with_accuracy(1e-2)).rank();
        let r2 = compress_tile(a.clone(), &CompressionConfig::with_accuracy(1e-5)).rank();
        let r3 = compress_tile(a, &CompressionConfig::with_accuracy(1e-8)).rank();
        assert!(r1 <= r2 && r2 <= r3);
        assert!(r1 >= 1);
    }

    #[test]
    fn max_rank_cap_forces_dense() {
        let a = rand_mat(24, 24, 14);
        let cfg = CompressionConfig { accuracy: 1e-12, max_rank: 4 };
        let t = compress_tile(a, &cfg);
        assert_eq!(t.format(), crate::tile::TileFormat::Dense);
        // A rank the accuracy certifies at the cap is kept, as
        // recompression keeps it.
        let exact = low_rank_mat(24, 24, 4, 18);
        let cfg = CompressionConfig { accuracy: 1e-10, max_rank: 4 };
        let t = compress_tile(exact, &cfg);
        assert_eq!(t.format(), crate::tile::TileFormat::LowRank);
        assert_eq!(t.rank(), 4);
    }

    /// Recompression follows the same rule: an update whose rank at the
    /// accuracy is above the cap stays dense instead of being cut at the
    /// cap with its tail far above the accuracy.
    #[test]
    fn recompression_at_the_rank_cap_keeps_the_update_dense() {
        let n = 32;
        let cfg = CompressionConfig { accuracy: 1e-8, max_rank: 4 };
        let mut c = Tile::LowRank { u: rand_mat(n, 3, 16), v: rand_mat(n, 3, 17) };
        let (up, vp) = (rand_mat(n, 3, 18), rand_mat(n, 3, 19));
        let mut exact = c.to_dense();
        tlr_linalg::gemm(tlr_linalg::Trans::No, tlr_linalg::Trans::Yes, -1.0, &up, &vp, 1.0, &mut exact);
        crate::kernels::subtract_lowrank(&mut c, &up, &vp, &cfg);
        let mut diff = c.to_dense();
        diff.axpy(-1.0, &exact);
        let err = frobenius_norm(&diff);
        assert_eq!(c.format(), crate::tile::TileFormat::Dense, "rank {}, error {err}", c.rank());
        assert!(err <= cfg.accuracy, "error {err}");
    }

    /// A `NaN` entry — or two infinities in one column, whose scaled norm
    /// is ∞/∞ — makes a column norm `NaN`. That is no evidence the tile is
    /// below the threshold: the tile must leave non-finite, never `Null`
    /// and never finite. One infinity (an infinite norm) is the control.
    #[test]
    fn non_finite_entries_never_compress_to_null() {
        let smooth = Matrix::from_fn(64, 64, |i, j| {
            let d = (i as f64 - j as f64 + 80.0) / 30.0;
            (-d * d).exp()
        });
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let cases = [
            ("one NaN", vec![(10, 5, f64::NAN)]),
            ("two +inf in one column", vec![(3, 7, f64::INFINITY), (40, 7, f64::INFINITY)]),
            ("one +inf", vec![(3, 7, f64::INFINITY)]),
        ];
        for (what, entries) in cases {
            let mut a = smooth.clone();
            for (i, j, x) in entries {
                a[(i, j)] = x;
            }
            let t = compress_tile(a, &cfg);
            assert!(!t.is_null(), "{what}: compressed to a null tile");
            assert!(
                t.to_dense().as_slice().iter().any(|v| !v.is_finite()),
                "{what}: compressed to a finite {:?} tile of rank {}",
                t.format(),
                t.rank()
            );
        }
    }

    #[test]
    fn empty_tile_is_null() {
        let t = compress_tile(Matrix::zeros(0, 5), &CompressionConfig::default());
        assert!(t.is_null());
    }

    #[test]
    fn null_decision_is_the_pivoted_qr_rank_zero() {
        // Tiles scaled to sit just above, at and just below the
        // threshold: `Null` exactly when the factorization itself would
        // stop before its first pivot.
        let base = rand_mat(12, 12, 15);
        let norm = frobenius_norm(&base);
        for rel in [0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0] {
            let cfg = CompressionConfig::with_accuracy(norm * rel);
            let rank0 = ColPivQr::with_tolerance(base.clone(), cfg.accuracy, usize::MAX).rank() == 0;
            assert_eq!(compress_tile(base.clone(), &cfg).is_null(), rank0, "rel {rel}");
        }
        // A rank cap of zero certifies nothing above the threshold: the
        // tile stays dense, bit for bit as it came.
        let cfg = CompressionConfig { accuracy: 0.0, max_rank: 0 };
        match compress_tile(base.clone(), &cfg) {
            Tile::Dense(m) => {
                assert!(m.as_slice().iter().zip(base.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()))
            }
            other => panic!("cap 0 gave a {:?} tile", other.format()),
        }
    }
}
