//! 3D Hilbert space-filling-curve ordering.
//!
//! The paper reorders mesh points along a Hilbert curve "to preserve a
//! good spatial locality, while improving compression rate and reducing
//! arithmetic complexity" (§IV-C): after the reordering, points that are
//! close in index space are close in 3D space, so the kernel-matrix tiles
//! far from the diagonal couple distant clusters and compress to tiny
//! ranks (or vanish).
//!
//! The index computation is John Skilling's transpose algorithm
//! ("Programming the Hilbert curve", AIP 2004): coordinates are
//! interleaved after a Gray-code-like detwiddling pass.

use crate::geometry::Point3;

/// Bits of quantization per axis (3 × 21 = 63 bits fits one `u64` index).
const BITS: u32 = 21;

/// Map quantized coordinates (each `< 2^BITS`) to their Hilbert index
/// (Skilling's `AxestoTranspose` followed by bit interleaving).
fn hilbert_index(mut x: [u64; 3]) -> u64 {
    let n = 3;
    let m = 1u64 << (BITS - 1);
    // Inverse undo excess work.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u64;
    q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for item in x.iter_mut() {
        *item ^= t;
    }
    // Interleave the transposed bits into a single index (MSB first).
    let mut index: u64 = 0;
    for b in (0..BITS).rev() {
        for item in x.iter().take(n) {
            index = (index << 1) | ((item >> b) & 1);
        }
    }
    index
}

/// Quantize a unit-cube point to the Hilbert lattice.
fn quantize(p: &Point3) -> [u64; 3] {
    let scale = ((1u64 << BITS) - 1) as f64;
    let q = |v: f64| -> u64 { (v.clamp(0.0, 1.0) * scale) as u64 };
    [q(p.x), q(p.y), q(p.z)]
}

/// Hilbert index of a unit-cube point.
fn hilbert_key(p: &Point3) -> u64 {
    hilbert_index(quantize(p))
}

/// Return the permutation that sorts `points` along the 3D Hilbert curve:
/// `order[k]` is the index of the k-th point in curve order.
///
/// ```
/// use rbf_mesh::hilbert::{apply_permutation, hilbert_sort};
/// use rbf_mesh::Point3;
/// let pts = vec![
///     Point3 { x: 0.9, y: 0.9, z: 0.9 },
///     Point3 { x: 0.1, y: 0.1, z: 0.1 },
/// ];
/// let order = hilbert_sort(&pts);
/// let sorted = apply_permutation(&pts, &order);
/// // the curve starts at the origin corner
/// assert!(sorted[0].x < sorted[1].x);
/// ```
pub fn hilbert_sort(points: &[Point3]) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> =
        points.iter().enumerate().map(|(i, p)| (hilbert_key(p), i)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Apply a permutation produced by [`hilbert_sort`].
pub fn apply_permutation(points: &[Point3], order: &[usize]) -> Vec<Point3> {
    order.iter().map(|&i| points[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_is_a_permutation() {
        let pts: Vec<Point3> = (0..100)
            .map(|i| {
                let f = i as f64 / 100.0;
                Point3 { x: (f * 7.3).fract(), y: (f * 3.1).fract(), z: (f * 5.7).fract() }
            })
            .collect();
        let order = hilbert_sort(&pts);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn locality_neighbors_in_index_are_close_in_space() {
        // Hilbert curve property: consecutive curve points are adjacent
        // cells. Sample a grid and check mean index-neighbor distance is
        // far below the random-pair expectation (~0.66 in the unit cube).
        let n = 17;
        let mut pts = Vec::new();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    pts.push(Point3 {
                        x: a as f64 / (n - 1) as f64,
                        y: b as f64 / (n - 1) as f64,
                        z: c as f64 / (n - 1) as f64,
                    });
                }
            }
        }
        let order = hilbert_sort(&pts);
        let sorted = apply_permutation(&pts, &order);
        let mean_step: f64 = sorted
            .windows(2)
            .map(|w| w[0].dist(&w[1]))
            .sum::<f64>()
            / (sorted.len() - 1) as f64;
        let grid_step = 1.0 / (n - 1) as f64;
        assert!(
            mean_step < 2.0 * grid_step,
            "mean Hilbert step {mean_step} should be ~1 grid cell ({grid_step})"
        );
    }

    #[test]
    fn key_monotone_on_first_axis_segment() {
        // The curve starts at the origin corner: the origin must map to
        // index 0.
        let origin = Point3 { x: 0.0, y: 0.0, z: 0.0 };
        assert_eq!(hilbert_key(&origin), 0);
    }

    #[test]
    fn distinct_cells_distinct_keys() {
        let a = Point3 { x: 0.1, y: 0.2, z: 0.3 };
        let b = Point3 { x: 0.9, y: 0.1, z: 0.7 };
        assert_ne!(hilbert_key(&a), hilbert_key(&b));
    }

    #[test]
    fn clamps_out_of_cube() {
        let p = Point3 { x: -0.5, y: 1.5, z: 0.5 };
        let _ = hilbert_key(&p); // must not panic
    }
}
