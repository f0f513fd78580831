//! Fixtures shared by the integration tests.

use hicma_parsec::tlr::RankSnapshot;

/// A random `nt × nt` snapshot at b = 16: each off-diagonal tile is null
/// with probability `null_pct` %, else of a rank drawn from a set that
/// holds low ranks, `2r = b` (8) and dense-format ranks (above 8).
pub fn random_snapshot(nt: usize, seed: u64, null_pct: u64) -> RankSnapshot {
    const B: usize = 16;
    const RANKS: [usize; 8] = [1, 2, 3, 5, 8, 8, 11, 16];
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut ranks = vec![0usize; nt * nt];
    for i in 0..nt {
        ranks[i * nt + i] = B;
        for j in 0..i {
            if next() % 100 >= null_pct {
                ranks[i * nt + j] = RANKS[next() as usize % RANKS.len()];
            }
        }
    }
    RankSnapshot::new(nt, B, ranks)
}
