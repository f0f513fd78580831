//! Algorithm 1: matrix analysis for DAG trimming (§VI).
//!
//! The analysis walks the panels of the factorization symbolically, using
//! only the initial rank array produced by the compression step. For each
//! panel `k` it records which sub-diagonal tiles are non-null (the TRSMs
//! that must run, and the SYRKs they feed), then marks every off-diagonal
//! tile updated by a pair of surviving TRSMs as *fill-in* — after which
//! that tile participates in later panels even if it compressed to null.
//! The result is exactly the `analysis` structure of the paper's
//! Algorithm 1, which the DAG builder uses to trim the execution space of
//! the TRSM/SYRK/GEMM task classes.
//!
//! In addition to the paper's occupancy lists we evolve a *rank estimate*
//! per tile (`min(cap, max(r_mn, min(r_mk, r_nk)))` on each symbolic GEMM)
//! so the discrete-event simulator can price every kernel without running
//! the numerics.

use crate::dag::lower;
use tlr_compress::RankSnapshot;

/// Output of the symbolic analysis — the paper's
/// `hicma_parsec_analysis_t`.
#[derive(Debug, Clone)]
pub struct MatrixAnalysis {
    nt: usize,
    /// `trsm[k]` = tile rows `m > k` whose tile `(m, k)` is non-null when
    /// panel `k` executes (paper: `analysis.trsm[k][..nb_trsm[k]]`).
    pub trsm: Vec<Vec<usize>>,
    /// `syrk[m]` = panels `k < m` contributing a SYRK update to diagonal
    /// tile `(m, m)`.
    pub syrk: Vec<Vec<usize>>,
    /// `gemm[(m, n)]` = panels `k < n` contributing a GEMM update to tile
    /// `(m, n)`; indexed `m·(m+1)/2 + n` over the lower triangle.
    gemm: Vec<Vec<usize>>,
    /// Evolved rank estimates (initial ranks + fill-in), the "final rank"
    /// structure of Fig. 1 right columns.
    pub final_ranks: RankSnapshot,
    /// Panel at which tile `(m, n)` first becomes non-null; `None` for
    /// tiles that are non-null from compression or stay null forever.
    fill_panel: Vec<Option<usize>>,
    /// Number of tiles that filled in during the factorization.
    pub fill_count: usize,
}

impl MatrixAnalysis {
    /// Run Algorithm 1 on an initial rank snapshot.
    ///
    /// `rank_cap` bounds the fill-in rank estimate (HiCMA's `maxrank`);
    /// pass `tile_size` to disable the cap.
    ///
    /// ```
    /// use hicma_core::MatrixAnalysis;
    /// use tlr_compress::SyntheticRankModel;
    ///
    /// let snap = SyntheticRankModel::from_application(64, 512, 3.7e-4, 1e-4).snapshot();
    /// let analysis = MatrixAnalysis::analyze(&snap, 512);
    /// // Sparse operators keep only a fraction of the dense task space.
    /// assert!(analysis.surviving_tasks() < analysis.dense_tasks() / 2);
    /// // Fill-in can only add tiles, never remove them.
    /// assert!(analysis.final_density() >= snap.density());
    /// ```
    pub fn analyze(initial: &RankSnapshot, rank_cap: usize) -> Self {
        let nt = initial.nt();
        let b = initial.tile_size();
        let cap = rank_cap.min(b);
        // HiCMA's `maxrank` bounds the stored rank of every off-diagonal
        // tile, not just fill-in — clamp the initial snapshot accordingly.
        let mut ranks = initial.clone();
        for i in 0..nt {
            for j in 0..i {
                let r = ranks.rank(i, j);
                if r > cap {
                    ranks.set_rank(i, j, cap);
                }
            }
        }
        let mut trsm: Vec<Vec<usize>> = vec![Vec::new(); nt];
        let mut syrk: Vec<Vec<usize>> = vec![Vec::new(); nt];
        let mut gemm: Vec<Vec<usize>> = vec![Vec::new(); nt * (nt + 1) / 2];
        let mut fill_panel: Vec<Option<usize>> = vec![None; nt * (nt + 1) / 2];
        let mut fill_count = 0usize;

        // `trsm` is keyed by panel `k`, `syrk` by row `m` — an iterator
        // form would obscure the two distinct indexings.
        #[allow(clippy::needless_range_loop)]
        for k in 0..nt.saturating_sub(1) {
            // Panel survey: which TRSMs run, which SYRKs they feed.
            for m in k + 1..nt {
                if ranks.rank(m, k) > 0 {
                    trsm[k].push(m);
                    syrk[m].push(k);
                }
            }
            // Pairwise GEMM updates between surviving panel tiles;
            // `trsm[k]` is ascending, so `m > n` ⇔ later entry.
            for i in 1..trsm[k].len() {
                for j in 0..i {
                    let m = trsm[k][i];
                    let n = trsm[k][j];
                    let r_mk = ranks.rank(m, k);
                    let r_nk = ranks.rank(n, k);
                    let contribution = r_mk.min(r_nk).min(cap);
                    let existing = ranks.rank(m, n);
                    if existing == 0 {
                        // Fill-in (paper line 15: rank[n*NT+m] = 1).
                        fill_panel[lower(m, n)] = Some(k);
                        fill_count += 1;
                        ranks.set_rank(m, n, contribution.max(1));
                    } else {
                        ranks.set_rank(m, n, existing.max(contribution));
                    }
                    gemm[lower(m, n)].push(k);
                }
            }
        }

        Self { nt, trsm, syrk, gemm, final_ranks: ranks, fill_panel, fill_count }
    }

    /// Number of tile rows/columns.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Panels contributing GEMM updates to tile `(m, n)`.
    pub fn gemm_panels(&self, m: usize, n: usize) -> &[usize] {
        &self.gemm[lower(m, n)]
    }

    /// Is tile `(m, n)` non-null when panel `k` executes? (Initially
    /// non-null tiles always; fill-in tiles from their fill panel on.)
    pub fn nonnull_at(&self, m: usize, n: usize, k: usize) -> bool {
        if m == n {
            return true; // diagonal tiles are always dense
        }
        let idx = lower(m, n);
        match self.fill_panel[idx] {
            Some(fp) => k >= fp,
            None => self.final_ranks.rank(m, n) > 0,
        }
    }

    /// Total task count that survives trimming (POTRF + TRSM + SYRK + GEMM).
    pub fn surviving_tasks(&self) -> usize {
        let potrf = self.nt;
        let trsm: usize = self.trsm.iter().map(Vec::len).sum();
        let syrk: usize = self.syrk.iter().map(Vec::len).sum();
        let gemm: usize = self.gemm.iter().map(Vec::len).sum();
        potrf + trsm + syrk + gemm
    }

    /// Task count of the untrimmed (dense) DAG for the same NT.
    pub fn dense_tasks(&self) -> usize {
        let nt = self.nt;
        // POTRF: NT; TRSM & SYRK: NT(NT−1)/2 each; GEMM: NT(NT−1)(NT−2)/6.
        // Saturating: a one-tile matrix (NT = 1, possible for n below the
        // tuner's tile-size floor) is a single POTRF, not an underflow.
        nt + nt * (nt.saturating_sub(1))
            + nt * (nt.saturating_sub(1)) * (nt.saturating_sub(2)) / 6
    }

    /// Approximate memory footprint of the analysis structure in bytes —
    /// the overhead plotted in Fig. 6 (right).
    pub fn memory_bytes(&self) -> usize {
        let usize_sz = std::mem::size_of::<usize>();
        let vecs = self.trsm.iter().map(|v| v.capacity()).sum::<usize>()
            + self.syrk.iter().map(|v| v.capacity()).sum::<usize>()
            + self.gemm.iter().map(|v| v.capacity()).sum::<usize>();
        let headers = (self.trsm.len() + self.syrk.len() + self.gemm.len()) * 3 * usize_sz;
        let fills = self.fill_panel.len() * std::mem::size_of::<Option<usize>>();
        vecs * usize_sz + headers + fills + self.nt * self.nt * usize_sz
    }

    /// Final matrix density (after factorization) — the number plotted
    /// against initial density in Fig. 4.
    pub fn final_density(&self) -> f64 {
        self.final_ranks.density()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Snapshot helper: `spec[(m, n)] = rank`.
    fn snap(nt: usize, b: usize, entries: &[(usize, usize, usize)]) -> RankSnapshot {
        let mut ranks = vec![0usize; nt * nt];
        for i in 0..nt {
            ranks[i * nt + i] = b;
        }
        for &(m, n, r) in entries {
            ranks[m * nt + n] = r;
        }
        RankSnapshot::new(nt, b, ranks)
    }

    #[test]
    fn dense_matrix_keeps_every_task() {
        // all off-diagonal tiles rank 5 ⇒ nothing is trimmed
        let nt = 5;
        let entries: Vec<_> =
            (0..nt).flat_map(|m| (0..m).map(move |n| (m, n, 5usize))).collect();
        let s = snap(nt, 16, &entries);
        let a = MatrixAnalysis::analyze(&s, 16);
        assert_eq!(a.surviving_tasks(), a.dense_tasks());
        assert_eq!(a.fill_count, 0);
    }

    #[test]
    fn empty_offdiagonal_trims_everything() {
        let s = snap(4, 16, &[]);
        let a = MatrixAnalysis::analyze(&s, 16);
        // only the POTRFs remain
        assert_eq!(a.surviving_tasks(), 4);
        assert_eq!(a.fill_count, 0);
        assert_eq!(a.final_density(), 0.0);
    }

    #[test]
    fn fill_in_detected() {
        // (1,0) and (2,0) non-null, (2,1) null ⇒ GEMM(k=0) fills (2,1).
        let s = snap(3, 16, &[(1, 0, 4), (2, 0, 6)]);
        let a = MatrixAnalysis::analyze(&s, 16);
        assert_eq!(a.fill_count, 1);
        assert!(a.final_ranks.rank(2, 1) > 0);
        assert_eq!(a.gemm_panels(2, 1), &[0]);
        // fill-in rank estimate = min(4, 6) = 4
        assert_eq!(a.final_ranks.rank(2, 1), 4);
        // (2,1) is null for panel "before 0"… becomes non-null at k ≥ 0
        assert!(a.nonnull_at(2, 1, 0));
        // After fill, panel 1's TRSM list includes row 2.
        assert_eq!(a.trsm[1], vec![2]);
        assert_eq!(a.syrk[2], vec![0, 1]);
    }

    #[test]
    fn null_chain_stays_trimmed() {
        // Only (1,0) non-null: no pairs, no fill, panel 1 TRSM list empty.
        let s = snap(3, 16, &[(1, 0, 4)]);
        let a = MatrixAnalysis::analyze(&s, 16);
        assert_eq!(a.fill_count, 0);
        assert!(a.trsm[1].is_empty());
        assert_eq!(a.trsm[0], vec![1]);
        // SYRK on diagonal 1 from panel 0 only.
        assert_eq!(a.syrk[1], vec![0]);
        assert!(!a.nonnull_at(2, 1, 1));
    }

    #[test]
    fn rank_cap_bounds_fill_estimates() {
        let s = snap(3, 64, &[(1, 0, 40), (2, 0, 50)]);
        let a = MatrixAnalysis::analyze(&s, 8);
        assert_eq!(a.final_ranks.rank(2, 1), 8);
    }

    #[test]
    fn counts_on_known_pattern() {
        // Arrowhead: column 0 fully dense, everything else null.
        // Fill-in: all pairs (m, n) with m > n ≥ 1 fill at panel 0, and the
        // matrix finishes fully dense — the classic sparse-direct arrow.
        let nt = 6;
        let entries: Vec<_> = (1..nt).map(|m| (m, 0usize, 3usize)).collect();
        let s = snap(nt, 16, &entries);
        let a = MatrixAnalysis::analyze(&s, 16);
        let expected_fill = (nt - 1) * (nt - 2) / 2;
        assert_eq!(a.fill_count, expected_fill);
        assert!((a.final_density() - 1.0).abs() < 1e-12);
        // panel 0 has nt−1 TRSMs
        assert_eq!(a.trsm[0].len(), nt - 1);
    }

    #[test]
    fn surviving_monotone_in_density() {
        let nt = 8;
        let sparse_entries: Vec<_> = (1..nt).map(|m| (m, m - 1, 4usize)).collect();
        let dense_entries: Vec<_> =
            (0..nt).flat_map(|m| (0..m).map(move |n| (m, n, 4usize))).collect();
        let a_sparse = MatrixAnalysis::analyze(&snap(nt, 16, &sparse_entries), 16);
        let a_dense = MatrixAnalysis::analyze(&snap(nt, 16, &dense_entries), 16);
        assert!(a_sparse.surviving_tasks() < a_dense.surviving_tasks());
        assert_eq!(a_dense.surviving_tasks(), a_dense.dense_tasks());
    }

    #[test]
    fn memory_reported() {
        let s = snap(10, 16, &[(5, 2, 3)]);
        let a = MatrixAnalysis::analyze(&s, 16);
        assert!(a.memory_bytes() > 0);
    }
}
