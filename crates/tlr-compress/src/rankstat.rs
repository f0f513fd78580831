//! Rank snapshots, statistics, heatmaps, and the synthetic rank model.
//!
//! A [`RankSnapshot`] is the `NT × NT` array of tile ranks at one moment of
//! the application — "initial" (after compression) or "final" (after the
//! factorization), exactly the two states plotted in the paper's Fig. 1.
//!
//! [`SyntheticRankModel`] generates snapshots with the same qualitative
//! structure at *paper scale* (NT in the hundreds, matrix sizes in the tens
//! of millions) where actually generating and compressing the matrix is not
//! feasible on this machine. The model is calibrated against measured
//! small-scale RBF compressions (see `crates/bench/src/bin/fig01_rank_heatmap.rs`).

use serde::{Deserialize, Serialize};

/// Tile ranks of a lower-triangular TLR matrix at one point in time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankSnapshot {
    nt: usize,
    tile_size: usize,
    /// Row-major `nt × nt`; only entries with `i ≥ j` are meaningful.
    ranks: Vec<usize>,
}

/// Aggregate statistics of the off-diagonal ranks (the numbers the paper
/// prints above each heatmap in Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankStats {
    /// Largest off-diagonal tile rank.
    pub max: usize,
    /// Mean rank over **non-null** off-diagonal tiles (paper convention).
    pub avg_nonzero: f64,
    /// Smallest non-zero off-diagonal tile rank (0 when all tiles null).
    pub min_nonzero: usize,
    /// Fraction of non-null off-diagonal tiles.
    pub density: f64,
}

impl RankSnapshot {
    /// Wrap a row-major `nt × nt` rank array.
    pub fn new(nt: usize, tile_size: usize, ranks: Vec<usize>) -> Self {
        assert_eq!(ranks.len(), nt * nt, "rank array must be nt × nt");
        Self { nt, tile_size, ranks }
    }

    /// Number of tile rows/columns.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Tile size the ranks refer to.
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Rank of tile `(i, j)`, `i ≥ j`.
    pub fn rank(&self, i: usize, j: usize) -> usize {
        debug_assert!(i >= j);
        self.ranks[i * self.nt + j]
    }

    /// Set the rank of tile `(i, j)`.
    pub fn set_rank(&mut self, i: usize, j: usize, r: usize) {
        debug_assert!(i >= j);
        self.ranks[i * self.nt + j] = r;
    }

    /// The flat rank array in the `rank[k·NT + m]` layout of the paper's
    /// Algorithm 1 (row-major over `(i, j)`).
    pub fn as_flat(&self) -> &[usize] {
        &self.ranks
    }

    /// `true` when tile `(i, j)` is null.
    pub fn is_null(&self, i: usize, j: usize) -> bool {
        self.rank(i, j) == 0
    }

    /// Density over off-diagonal lower tiles.
    pub fn density(&self) -> f64 {
        if self.nt <= 1 {
            return 1.0;
        }
        let mut nonzero = 0usize;
        let mut total = 0usize;
        for i in 0..self.nt {
            for j in 0..i {
                total += 1;
                if self.rank(i, j) > 0 {
                    nonzero += 1;
                }
            }
        }
        nonzero as f64 / total as f64
    }

    /// Aggregate off-diagonal rank statistics.
    pub fn stats(&self) -> RankStats {
        let mut max = 0usize;
        let mut min_nonzero = usize::MAX;
        let mut sum = 0usize;
        let mut nonzero = 0usize;
        let mut total = 0usize;
        for i in 0..self.nt {
            for j in 0..i {
                let r = self.rank(i, j);
                total += 1;
                if r > 0 {
                    nonzero += 1;
                    sum += r;
                    max = max.max(r);
                    min_nonzero = min_nonzero.min(r);
                }
            }
        }
        RankStats {
            max,
            avg_nonzero: if nonzero > 0 { sum as f64 / nonzero as f64 } else { 0.0 },
            min_nonzero: if min_nonzero == usize::MAX { 0 } else { min_nonzero },
            density: if total > 0 { nonzero as f64 / total as f64 } else { 1.0 },
        }
    }

    /// Serialize to a simple line-oriented text format
    /// (`nt tile_size` header, then one row of ranks per tile row) —
    /// lets a measured compression at laptop scale be fed back into the
    /// simulator on another machine without a JSON dependency.
    pub fn to_text(&self) -> String {
        let mut out = format!("{} {}\n", self.nt, self.tile_size);
        for i in 0..self.nt {
            let row: Vec<String> =
                (0..self.nt).map(|j| self.ranks[i * self.nt + j].to_string()).collect();
            out.push_str(&row.join(" "));
            out.push('\n');
        }
        out
    }

    /// Parse the [`RankSnapshot::to_text`] format. The header sizes
    /// nothing up front: ranks are stored as rows arrive, and a header
    /// whose `nt²` overflows, whose tile size is 0 or whose rows are
    /// missing is an error naming it. A rank above the tile size, or a
    /// non-zero rank above the diagonal (the format stores the lower
    /// triangle), is an error naming its row and column.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty snapshot text")?;
        let mut hp = header.split_whitespace();
        let nt: usize = hp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("bad NT in header")?;
        let tile_size: usize = hp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("bad tile size in header")?;
        if tile_size == 0 {
            return Err(format!("header `{header}`: tile size 0"));
        }
        let cells = nt
            .checked_mul(nt)
            .ok_or_else(|| format!("header `{header}`: {nt} × {nt} tile ranks overflow"))?;
        let mut ranks = Vec::new();
        for (i, line) in lines.take(nt).enumerate() {
            let row: Result<Vec<usize>, _> =
                line.split_whitespace().map(str::parse::<usize>).collect();
            let row = row.map_err(|e| format!("row {i}: {e}"))?;
            if row.len() != nt {
                return Err(format!("row {i}: expected {nt} ranks, got {}", row.len()));
            }
            for (j, &r) in row.iter().enumerate() {
                if r > tile_size {
                    return Err(format!(
                        "row {i}, column {j}: rank {r} exceeds the tile size {tile_size}"
                    ));
                }
                if j > i && r != 0 {
                    return Err(format!(
                        "row {i}, column {j}: rank {r} above the diagonal \
                         (only the lower triangle is stored)"
                    ));
                }
            }
            ranks.extend(row);
        }
        if ranks.len() != cells {
            let rows = ranks.len() / nt.max(1);
            return Err(format!("header `{header}` promises {nt} rows, got {rows}"));
        }
        Ok(Self::new(nt, tile_size, ranks))
    }

    /// Render an ASCII heatmap of the lower triangle (`.` = null,
    /// `1..9a..z#` = increasing rank relative to the max), the textual
    /// equivalent of Fig. 1.
    pub fn heatmap(&self) -> String {
        let stats = self.stats();
        let maxr = stats.max.max(1) as f64;
        let glyphs: &[u8] = b"123456789abcdefghijklmnopqrstuvwxyz#";
        let mut out = String::with_capacity(self.nt * (self.nt + 1));
        for i in 0..self.nt {
            for j in 0..=i {
                if i == j {
                    out.push('D');
                } else {
                    let r = self.rank(i, j);
                    if r == 0 {
                        out.push('.');
                    } else {
                        let level =
                            ((r as f64 / maxr) * (glyphs.len() - 1) as f64).round() as usize;
                        out.push(glyphs[level.min(glyphs.len() - 1)] as char);
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A calibrated synthetic rank model for RBF-type matrices.
///
/// Structure reproduced (per the paper's Fig. 1 and §V):
/// * ranks fall off sharply with tile distance to the diagonal,
/// * a shape-parameter-controlled cutoff beyond which tiles are null
///   (small shape parameter → very sparse, large → dense),
/// * tighter accuracy thresholds raise all ranks.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SyntheticRankModel {
    /// Number of tile rows/columns.
    pub nt: usize,
    /// Tile size `b`.
    pub tile_size: usize,
    /// Rank of the tiles adjacent to the diagonal.
    pub near_rank: usize,
    /// Exponential decay length (in tile-index distance).
    pub decay: f64,
    /// Tiles farther than this distance from the diagonal are null.
    pub cutoff: usize,
}

impl SyntheticRankModel {
    /// Calibrate the model from application parameters.
    ///
    /// * `shape` — the Gaussian RBF shape parameter δ (paper range
    ///   `1e-4 … 5e-2`); controls the null-tile cutoff (density).
    /// * `accuracy` — compression threshold (paper range `1e-4 … 1e-9`);
    ///   controls the near-diagonal rank level.
    ///
    /// The constants were fitted against measured compressions of the
    /// synthetic virus RBF matrices at laptop scale (N ≤ 16k) and
    /// reproduce the documented qualitative behaviour at any NT.
    pub fn from_application(nt: usize, tile_size: usize, shape: f64, accuracy: f64) -> Self {
        // Density grows roughly logarithmically with the shape parameter
        // over the studied range; clamp to [0.03, 1].
        let lo = 8e-5_f64.ln();
        let hi = 3e-2_f64.ln();
        let density = ((shape.max(1e-6).ln() - lo) / (hi - lo)).clamp(0.03, 1.0);
        // Solve density = (cutoff·nt − cutoff²/2) / (nt²/2) for the cutoff.
        let ntf = nt as f64;
        let disc = (1.0 - density).max(0.0).sqrt();
        let cutoff = ((1.0 - disc) * ntf).ceil().max(1.0) as usize;
        // Near-diagonal rank scales with √b (smooth-kernel tiles) and with
        // the number of accuracy digits. The shape parameter modulates it:
        // ranks first grow as correlations reach further, then recede once
        // correlations smear across the whole domain (paper §VIII-B:
        // "labeled ranks get higher with the shape parameter increase, but
        // then eventually decrease").
        let digits = accuracy.max(1e-16).log10().abs();
        let shape_factor = (0.5 + 2.2 * density * (1.5 - density)).clamp(0.5, 1.9);
        let near_rank = ((tile_size as f64).sqrt() * digits / 2.0 * shape_factor)
            .round()
            .max(2.0) as usize;
        let near_rank = near_rank.min(tile_size / 2);
        // Decay length: ranks drop sharply within a few tiles of the
        // diagonal (the paper's "sharp decrease in the ranks of the tiles
        // with the distance to the diagonal"), then level off at a small
        // floor rank out to the cutoff. The sharpness — big expensive
        // tiles hugging the diagonal, cheap rank-1..3 tiles everywhere
        // else — is exactly what breaks the load balance of rectangular
        // block-cyclic grids (§VII-B).
        let decay = 3.0;
        Self { nt, tile_size, near_rank, decay, cutoff }
    }

    /// Rank of tile `(i, j)` (`i > j`); 0 beyond the cutoff.
    pub fn rank(&self, i: usize, j: usize) -> usize {
        debug_assert!(i > j);
        let d = i - j;
        if d > self.cutoff {
            return 0;
        }
        let floor = (self.near_rank / 16).max(1) as f64;
        let r = (self.near_rank as f64 * (-((d - 1) as f64) / self.decay).exp()).max(floor);
        (r.round() as usize).clamp(1, self.tile_size)
    }

    /// Generate the full initial snapshot (diagonal tiles report full rank).
    pub fn snapshot(&self) -> RankSnapshot {
        let mut ranks = vec![0usize; self.nt * self.nt];
        for i in 0..self.nt {
            ranks[i * self.nt + i] = self.tile_size;
            for j in 0..i {
                ranks[i * self.nt + j] = self.rank(i, j);
            }
        }
        RankSnapshot::new(self.nt, self.tile_size, ranks)
    }
}

/// Running statistics of recompression rank evolution: every GEMM-update
/// recompression feeds one `(stacked input rank, truncated output rank)`
/// pair, the histogram of which is the tuning signal H2OPUS-TLR
/// (arXiv:2108.11932) builds its adaptive-rank decisions on. A null
/// result (everything truncated away) is output rank 0, `histogram()[0]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankEvolution {
    /// Recompressions observed.
    events: u64,
    /// Sum of stacked input ranks (`k_c + k_prod` before truncation).
    sum_in: u64,
    /// Sum of kept output ranks.
    sum_out: u64,
    /// Largest kept output rank seen.
    max_out: usize,
    /// `hist[k]` = recompressions whose output rank was `k`.
    hist: Vec<u64>,
}

impl RankEvolution {
    /// Record one recompression: `k_in` stacked columns in, `k_out` kept.
    pub fn record(&mut self, k_in: usize, k_out: usize) {
        self.events += 1;
        self.sum_in += k_in as u64;
        self.sum_out += k_out as u64;
        self.max_out = self.max_out.max(k_out);
        if self.hist.len() <= k_out {
            self.hist.resize(k_out + 1, 0);
        }
        self.hist[k_out] += 1;
    }

    /// Fold another log into this one (merging per-worker logs).
    pub fn merge(&mut self, other: &RankEvolution) {
        self.events += other.events;
        self.sum_in += other.sum_in;
        self.sum_out += other.sum_out;
        self.max_out = self.max_out.max(other.max_out);
        if self.hist.len() < other.hist.len() {
            self.hist.resize(other.hist.len(), 0);
        }
        for (k, &c) in other.hist.iter().enumerate() {
            self.hist[k] += c;
        }
    }

    /// Recompressions observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Mean stacked input rank (0 when empty).
    pub fn mean_in(&self) -> f64 {
        if self.events == 0 { 0.0 } else { self.sum_in as f64 / self.events as f64 }
    }

    /// Mean kept output rank (0 when empty).
    pub fn mean_out(&self) -> f64 {
        if self.events == 0 { 0.0 } else { self.sum_out as f64 / self.events as f64 }
    }

    /// Largest kept output rank seen.
    pub fn max_out(&self) -> usize {
        self.max_out
    }

    /// Output-rank histogram: `histogram()[k]` = recompressions kept at
    /// rank `k`.
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_3x3() -> RankSnapshot {
        // ranks: diag full(4), (1,0)=3, (2,0)=0, (2,1)=2
        RankSnapshot::new(3, 4, vec![4, 0, 0, 3, 4, 0, 0, 2, 4])
    }

    #[test]
    fn stats_basic() {
        let s = snap_3x3().stats();
        assert_eq!(s.max, 3);
        assert_eq!(s.min_nonzero, 2);
        assert!((s.avg_nonzero - 2.5).abs() < 1e-12);
        assert!((s.density - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn heatmap_renders() {
        let h = snap_3x3().heatmap();
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "D");
        assert!(lines[2].starts_with('.'), "null tile renders as dot: {h}");
    }

    #[test]
    fn all_null_stats() {
        let s = RankSnapshot::new(3, 4, vec![4, 0, 0, 0, 4, 0, 0, 0, 4]).stats();
        assert_eq!(s.max, 0);
        assert_eq!(s.min_nonzero, 0);
        assert_eq!(s.avg_nonzero, 0.0);
        assert_eq!(s.density, 0.0);
    }

    #[test]
    fn synthetic_density_grows_with_shape() {
        let nt = 64;
        let d_sparse = SyntheticRankModel::from_application(nt, 512, 1e-4, 1e-4)
            .snapshot()
            .density();
        let d_mid = SyntheticRankModel::from_application(nt, 512, 2e-3, 1e-4)
            .snapshot()
            .density();
        let d_dense = SyntheticRankModel::from_application(nt, 512, 5e-2, 1e-4)
            .snapshot()
            .density();
        assert!(d_sparse < d_mid && d_mid < d_dense, "{d_sparse} {d_mid} {d_dense}");
        assert!(d_dense > 0.9);
        assert!(d_sparse < 0.2);
    }

    #[test]
    fn synthetic_rank_decays_with_distance() {
        let m = SyntheticRankModel::from_application(64, 512, 1e-2, 1e-6);
        let near = m.rank(1, 0);
        let mid = m.rank(10, 0);
        assert!(near >= mid, "near={near} mid={mid}");
        assert_eq!(m.rank(m.cutoff + 1, 0), 0);
    }

    #[test]
    fn synthetic_rank_rises_then_falls_with_shape() {
        // §VIII-B: ranks grow with the shape parameter, then eventually
        // decrease as correlations scatter across the domain.
        let r = |shape: f64| {
            SyntheticRankModel::from_application(64, 1024, shape, 1e-4).near_rank
        };
        let sparse = r(1e-4);
        let mid = r(3e-3);
        let dense = r(5e-2);
        assert!(mid > sparse, "rank should rise with shape: {sparse} -> {mid}");
        assert!(dense <= mid, "rank should recede at extreme shape: {mid} -> {dense}");
    }

    #[test]
    fn synthetic_rank_grows_with_accuracy() {
        let loose = SyntheticRankModel::from_application(32, 1024, 1e-2, 1e-4).near_rank;
        let tight = SyntheticRankModel::from_application(32, 1024, 1e-2, 1e-9).near_rank;
        assert!(tight > loose);
    }

    #[test]
    fn snapshot_diag_full_rank() {
        let m = SyntheticRankModel::from_application(8, 256, 1e-3, 1e-6);
        let s = m.snapshot();
        assert_eq!(s.rank(3, 3), 256);
        assert_eq!(s.nt(), 8);
    }

    #[test]
    fn text_roundtrip() {
        let s = snap_3x3();
        let text = s.to_text();
        let back = RankSnapshot::from_text(&text).expect("roundtrip must parse");
        assert_eq!(back.nt(), 3);
        assert_eq!(back.tile_size(), 4);
        for i in 0..3 {
            for j in 0..=i {
                assert_eq!(back.rank(i, j), s.rank(i, j));
            }
        }
    }

    /// The header is checked before it sizes anything: `4294967296 128`
    /// overflows `nt²` (a panic in debug builds, a snapshot of 2³² rows
    /// holding no ranks in release), and `100000 128` with no rows must
    /// not reserve 80 GB first. Both errors name the header.
    #[test]
    fn text_header_is_checked_before_it_sizes_anything() {
        for header in ["4294967296 128", "100000 128"] {
            let err = RankSnapshot::from_text(&format!("{header}\n")).unwrap_err();
            assert!(err.contains(header), "{err}");
        }
    }

    #[test]
    fn text_parse_errors_are_reported() {
        assert!(RankSnapshot::from_text("").is_err());
        assert!(RankSnapshot::from_text("2 4\n1 2\n3").is_err()); // short row
        assert!(RankSnapshot::from_text("x y\n").is_err()); // bad header
        // Out-of-range content names where it is.
        for (text, names) in [
            ("2 0\n0 0\n0 0\n", "tile size 0"),
            ("2 50\n50 0\n70 50\n", "row 1, column 0: rank 70"),
            ("2 50\n50 0\n0 60\n", "row 1, column 1: rank 60"),
            // transposed: the off-diagonal rank sits above the diagonal
            ("2 50\n50 7\n0 50\n", "row 0, column 1: rank 7 above the diagonal"),
        ] {
            let err = RankSnapshot::from_text(text).unwrap_err();
            assert!(err.contains(names), "{text:?}: {err}");
        }
    }

    #[test]
    fn flat_layout_matches_accessors() {
        let s = snap_3x3();
        let flat = s.as_flat();
        assert_eq!(flat[3], s.rank(1, 0)); // row 1, col 0
        assert_eq!(flat[2 * 3 + 1], s.rank(2, 1));
    }

    #[test]
    fn rank_evolution_records_and_merges() {
        let mut a = RankEvolution::default();
        a.record(24, 12);
        a.record(20, 12);
        a.record(6, 0);
        let mut b = RankEvolution::default();
        b.record(30, 28);
        a.merge(&b);
        assert_eq!(a.events(), 4);
        assert_eq!(a.max_out(), 28);
        assert_eq!(a.histogram()[12], 2);
        assert_eq!(a.histogram()[0], 1);
        assert!((a.mean_in() - 20.0).abs() < 1e-12);
        assert!((a.mean_out() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn rank_evolution_empty_means_are_zero() {
        let e = RankEvolution::default();
        assert_eq!(e.mean_in(), 0.0);
    }
}
