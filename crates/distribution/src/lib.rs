#![warn(missing_docs)]
//! Tile data and execution distributions.
//!
//! Distributed tile algorithms assign every tile an *owner* process. The
//! paper studies four layouts (its Fig. 3):
//!
//! * [`TwoDBlockCyclic`] — the ScaLAPACK 2D block-cyclic baseline (3a);
//! * [`LorapoHybrid`] — Lorapo's 1D-cyclic diagonal + 2D-cyclic
//!   off-diagonal mix (3b);
//! * [`BandDistribution`] — §VII-A: the sub-diagonal tile is bound to the
//!   same process as its diagonal tile, making the POTRF → first-TRSM
//!   dependency on the critical path a *local* transfer (3c);
//! * [`DiamondDistribution`] — §VII-B: a diamond-skewed 2D block-cyclic
//!   grid for off-band tiles, aligning process assignment with the
//!   rank-vs-distance-to-diagonal structure of compressed RBF matrices
//!   (3d). Used as an **execution** mapping: data stays where the user
//!   put it; only kernel execution is remapped (PaRSEC dissociates
//!   ownership from execution, shipping tiles in and results back).
//!
//! All distributions implement [`TileDistribution`]; process ids are dense
//! `0..nprocs`.

use serde::{Deserialize, Serialize};

/// Maps lower-triangle tile coordinates to owning processes.
pub trait TileDistribution: Sync {
    /// Owner process of tile `(i, j)`.
    ///
    /// # Precondition
    /// `(i, j)` must lie in the lower triangle, `i ≥ j`. Only the lower
    /// triangle is stored (the matrix is symmetric); callers that hold an
    /// upper-triangle coordinate must mirror it first. Band/diamond
    /// layouts compute the diagonal distance `i - j` and `debug_assert`
    /// this — in release builds an upper-triangle query silently wraps
    /// and returns an arbitrary (but in-range) owner.
    fn owner(&self, i: usize, j: usize) -> usize;

    /// Total number of processes.
    fn nprocs(&self) -> usize;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Pick a process grid `P × Q = nprocs` "as square as possible" with
/// `P ≤ Q` (the paper's §VIII-A convention).
fn process_grid(nprocs: usize) -> (usize, usize) {
    assert!(nprocs > 0, "need at least one process");
    let mut p = (nprocs as f64).sqrt().floor() as usize;
    while p > 1 && !nprocs.is_multiple_of(p) {
        p -= 1;
    }
    (p.max(1), nprocs / p.max(1))
}

/// ScaLAPACK-style 2D block-cyclic distribution over a `p × q` grid:
/// `owner(i, j) = (i mod p)·q + (j mod q)`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TwoDBlockCyclic {
    /// Process-grid rows.
    pub p: usize,
    /// Process-grid columns.
    pub q: usize,
}

impl TwoDBlockCyclic {
    /// Grid from a process count: `p × q = nprocs`, as square as
    /// possible with `p ≤ q` (the paper's §VIII-A convention).
    pub fn new(nprocs: usize) -> Self {
        let (p, q) = process_grid(nprocs);
        Self { p, q }
    }
}

impl TileDistribution for TwoDBlockCyclic {
    fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.p) * self.q + (j % self.q)
    }
    fn nprocs(&self) -> usize {
        self.p * self.q
    }
    fn name(&self) -> &'static str {
        "2DBCDD"
    }
}

/// 1D block-cyclic along the diagonal: tile `(i, j)` goes to process
/// `j mod nprocs`. Used for the diagonal/band portion of the hybrid
/// layouts, spreading the critical-path tiles round-robin.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OneDBlockCyclic {
    /// Number of processes.
    pub nprocs: usize,
}

impl TileDistribution for OneDBlockCyclic {
    fn owner(&self, _i: usize, j: usize) -> usize {
        j % self.nprocs
    }
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn name(&self) -> &'static str {
        "1DBCDD"
    }
}

/// Lorapo's hybrid distribution (paper Fig. 3b): tiles within
/// `band_width` of the diagonal are 1D-cyclic (round-robin along the
/// diagonal); all other tiles are 2D block-cyclic.
///
/// `band_width = 1` reproduces Lorapo's published configuration
/// (diagonal tiles only).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LorapoHybrid {
    /// Tiles with `i − j < band_width` take the 1D layout.
    pub band_width: usize,
    /// 1D layout for the band.
    pub oned: OneDBlockCyclic,
    /// 2D layout elsewhere.
    pub twod: TwoDBlockCyclic,
}

impl LorapoHybrid {
    /// Standard Lorapo configuration over `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        Self {
            band_width: 1,
            oned: OneDBlockCyclic { nprocs },
            twod: TwoDBlockCyclic::new(nprocs),
        }
    }
}

impl TileDistribution for LorapoHybrid {
    fn owner(&self, i: usize, j: usize) -> usize {
        debug_assert!(i >= j, "LorapoHybrid::owner requires a lower-triangle tile, got ({i}, {j})");
        if i - j < self.band_width {
            self.oned.owner(i, j)
        } else {
            self.twod.owner(i, j)
        }
    }
    fn nprocs(&self) -> usize {
        self.oned.nprocs
    }
    fn name(&self) -> &'static str {
        "Lorapo hybrid 1D+2D"
    }
}

/// The paper's band distribution (§VII-A, Fig. 3c): the diagonal **and**
/// the sub-diagonal share the same 1D-cyclic pattern, so the
/// `POTRF(k) → TRSM(k+1, k)` dependency on the critical path never
/// crosses a process boundary. Off-band tiles stay 2D block-cyclic.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BandDistribution {
    /// Width of the 1D band (2 = diagonal + sub-diagonal, the paper's
    /// setting).
    pub band_width: usize,
    /// 1D layout for the band, keyed by the panel index.
    pub oned: OneDBlockCyclic,
    /// 2D layout elsewhere.
    pub twod: TwoDBlockCyclic,
}

impl BandDistribution {
    /// Paper configuration: band of two (diagonal + sub-diagonal).
    pub fn new(nprocs: usize) -> Self {
        Self {
            band_width: 2,
            oned: OneDBlockCyclic { nprocs },
            twod: TwoDBlockCyclic::new(nprocs),
        }
    }
}

impl TileDistribution for BandDistribution {
    fn owner(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i >= j,
            "BandDistribution::owner requires a lower-triangle tile, got ({i}, {j})"
        );
        if i - j < self.band_width {
            // Key the whole band column on the panel index j so that
            // (k, k) and (k+1, k) land on the same process.
            self.oned.owner(j, j)
        } else {
            self.twod.owner(i, j)
        }
    }
    fn nprocs(&self) -> usize {
        self.oned.nprocs
    }
    fn name(&self) -> &'static str {
        "band"
    }
}

/// The rank-aware diamond-shaped distribution (§VII-B, Fig. 3d).
///
/// Off-diagonal ranks in compressed RBF operators depend almost entirely
/// on the tile's distance to the diagonal `d = i − j`. A rectangular
/// `p × q` block-cyclic grid couples that distance to the process
/// assignment whenever `gcd(p, q) = g > 1`: process `(r, c)` only ever
/// owns tiles with `d ≡ r − c (mod g)`, so with rank (and hence cost)
/// decaying sharply in `d`, whole processes end up with only cheap —
/// or only expensive — tiles. Production grids (16 × 32 at 512 nodes)
/// have large `g`, which is exactly the load imbalance of §VII-B.
///
/// The diamond skew staircases the grid: the row index follows the
/// distance to the diagonal, shifted by one every `q` columns:
/// `owner(i, j) = (((i − j) + j/q) mod p)·q + (j mod q)`. The repeating
/// unit cell in `(i, j)` space is a rhombus — the "diamond" of Fig. 3d.
/// Properties (all stated in the paper):
///
/// * every distance band `{(j+d, j)}` cycles over **all** `p·q`
///   processes (`j mod q` cycles the columns, `j/q` walks the rows), so
///   any cost profile that depends on the distance to the diagonal is
///   spread evenly — this is the rank-awareness;
/// * the *column* process group (fixed `j`) still spans only `p`
///   processes, as optimal as 2DBCDD — the two expensive column
///   broadcasts are unaffected;
/// * the *row* process group (fixed `i`) may span up to `p·q` processes,
///   which is acceptable because the row broadcast carries only a tiny
///   rank-`k` tile.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DiamondDistribution {
    /// Diamond-grid rows (indexed by distance to the diagonal).
    pub p: usize,
    /// Diamond-grid columns (indexed by position along the diagonal).
    pub q: usize,
}

impl DiamondDistribution {
    /// Grid from a process count: `p × q = nprocs`, as square as
    /// possible with `p ≤ q` (the paper's §VIII-A convention).
    pub fn new(nprocs: usize) -> Self {
        let (p, q) = process_grid(nprocs);
        Self { p, q }
    }
}

impl TileDistribution for DiamondDistribution {
    fn owner(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i >= j,
            "DiamondDistribution::owner requires a lower-triangle tile, got ({i}, {j})"
        );
        let d = i - j; // distance to the diagonal (≥ 0 in the lower triangle)
        ((d + j / self.q) % self.p) * self.q + (j % self.q)
    }
    fn nprocs(&self) -> usize {
        self.p * self.q
    }
    fn name(&self) -> &'static str {
        "diamond"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owners_in_range(dist: &dyn TileDistribution, nt: usize) {
        for i in 0..nt {
            for j in 0..=i {
                let o = dist.owner(i, j);
                assert!(o < dist.nprocs(), "{} owner({i},{j})={o}", dist.name());
            }
        }
    }

    #[test]
    fn all_distributions_in_range() {
        let nt = 20;
        for np in [1usize, 2, 4, 6, 7, 12] {
            owners_in_range(&TwoDBlockCyclic::new(np), nt);
            owners_in_range(&OneDBlockCyclic { nprocs: np }, nt);
            owners_in_range(&LorapoHybrid::new(np), nt);
            owners_in_range(&BandDistribution::new(np), nt);
            owners_in_range(&DiamondDistribution::new(np), nt);
        }
    }

    #[test]
    fn process_grid_as_square_as_possible() {
        assert_eq!(process_grid(1), (1, 1));
        assert_eq!(process_grid(6), (2, 3)); // Fig. 3's example
        assert_eq!(process_grid(16), (4, 4));
        assert_eq!(process_grid(32), (4, 8));
        assert_eq!(process_grid(7), (1, 7)); // prime
        assert_eq!(process_grid(512), (16, 32)); // the paper's production grid
    }

    #[test]
    fn twod_matches_scalapack_pattern() {
        let d = TwoDBlockCyclic { p: 2, q: 3 };
        assert_eq!(d.owner(0, 0), 0);
        assert_eq!(d.owner(0, 1), 1);
        assert_eq!(d.owner(0, 2), 2);
        assert_eq!(d.owner(1, 0), 3);
        assert_eq!(d.owner(2, 0), 0); // wraps around rows
        assert_eq!(d.owner(0, 3), 0); // wraps around cols
    }

    #[test]
    fn band_colocates_potrf_and_first_trsm() {
        // §VII-A property: owner(k, k) == owner(k+1, k) for every panel.
        let d = BandDistribution::new(6);
        for k in 0..30 {
            assert_eq!(d.owner(k, k), d.owner(k + 1, k), "panel {k}");
        }
    }

    #[test]
    fn lorapo_does_not_colocate_subdiagonal() {
        // Lorapo's hybrid: the sub-diagonal is 2D-distributed, generally on
        // a different process than the diagonal tile (this is the remote
        // critical-path communication the band distribution removes).
        let d = LorapoHybrid::new(6);
        let misses = (0..30).filter(|&k| d.owner(k, k) != d.owner(k + 1, k)).count();
        assert!(misses > 15, "expected most panels to cross processes, got {misses}/30");
    }

    #[test]
    fn diamond_band_covers_all_processes() {
        // The load-balancing property: every distance band cycles over the
        // whole process grid (a rectangular grid with gcd(p, q) > 1 cannot
        // do this — bands stay pinned to distance classes).
        let d = DiamondDistribution { p: 4, q: 4 };
        let nt = 64;
        for dist in 1..6 {
            let mut owners: Vec<usize> =
                (0..nt - dist).map(|j| d.owner(j + dist, j)).collect();
            owners.sort_unstable();
            owners.dedup();
            assert_eq!(owners.len(), 16, "band {dist} must cover all 16 procs");
        }
        // Contrast: rectangular 4×4 pins each band to 4 processes.
        let r = TwoDBlockCyclic { p: 4, q: 4 };
        let mut owners: Vec<usize> = (0..nt - 1).map(|j| r.owner(j + 1, j)).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners.len(), 4, "rectangular grid pins the band");
    }

    /// Load-balance property the diamond distribution exists for: on a
    /// square-ish grid (`gcd(p, q) > 1`, the production case) a
    /// rectangular 2DBCDD couples distance-to-diagonal to the process id,
    /// so a cost profile that decays with that distance lands on a few
    /// processes; the diamond skew decouples them.
    #[test]
    fn diamond_balances_rank_weighted_load_better_than_2d() {
        let nt = 64;
        let np = 16; // grid 4×4: gcd = 4 → 2DBCDD couples d mod 4 to procs
        let twod = TwoDBlockCyclic::new(np);
        let diamond = DiamondDistribution::new(np);
        // Synthetic cost: rank (cost) decays sharply off the diagonal and
        // vanishes past a cutoff, like a compressed RBF operator.
        let cost = |i: usize, j: usize| -> f64 {
            let d = i - j;
            if d == 0 || d > 10 {
                0.0 // band tiles handled elsewhere; nulls past the cutoff
            } else {
                50.0 * (-(d as f64) / 2.0).exp()
            }
        };
        let imbalance = |dist: &dyn TileDistribution| -> f64 {
            let mut load = vec![0.0_f64; np];
            for i in 0..nt {
                for j in 0..i {
                    load[dist.owner(i, j)] += cost(i, j);
                }
            }
            let max = load.iter().cloned().fold(0.0_f64, f64::max);
            let mean = load.iter().sum::<f64>() / np as f64;
            max / mean
        };
        let li_2d = imbalance(&twod);
        let li_diamond = imbalance(&diamond);
        assert!(
            li_diamond < li_2d,
            "diamond {li_diamond:.3} should beat rectangular {li_2d:.3}"
        );
    }

    #[test]
    fn diamond_column_group_stays_small() {
        // §VII-B: the column process group must stay as small as 2DBCDD's
        // (p processes) — it carries the expensive dense broadcast.
        let nt = 40;
        let d = DiamondDistribution { p: 4, q: 8 };
        for j in 0..8 {
            let mut owners: Vec<usize> = (j + 1..nt).map(|i| d.owner(i, j)).collect();
            owners.sort_unstable();
            owners.dedup();
            assert!(owners.len() <= 4, "column {j} spans {} procs", owners.len());
        }
    }

    #[test]
    fn single_proc_everything_local() {
        for dist in [
            &TwoDBlockCyclic::new(1) as &dyn TileDistribution,
            &LorapoHybrid::new(1),
            &BandDistribution::new(1),
            &DiamondDistribution::new(1),
        ] {
            for i in 0..8 {
                for j in 0..=i {
                    assert_eq!(dist.owner(i, j), 0);
                }
            }
        }
    }
}
