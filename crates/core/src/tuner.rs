//! Tile-size auto-tuning.
//!
//! §VIII-C: the tile size trades critical-path weight (large tiles)
//! against task count and runtime overhead (small tiles); the paper
//! tunes it "experimentally" around the `b = O(√N)` rule and calls
//! model-based auto-tuning future work. This module implements that
//! future work on top of the simulator: sweep candidate tile sizes
//! around the √N seed, simulate each (the DES costs milliseconds at
//! tuning scale), and return the minimizer.

use crate::simulate::{simulate_cholesky, SimConfig};
use tlr_compress::SyntheticRankModel;

/// One tuning sample.
#[derive(Debug, Clone, Copy)]
pub struct TuneSample {
    /// Tile size evaluated.
    pub tile_size: usize,
    /// Tile count implied by the matrix size.
    pub nt: usize,
    /// Simulated time-to-solution.
    pub seconds: f64,
    /// Tasks in the trimmed DAG.
    pub tasks: usize,
}

/// Tuning outcome: the winner plus the full sweep for reporting.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The minimizing tile size.
    pub best: TuneSample,
    /// All evaluated samples, in sweep order.
    pub sweep: Vec<TuneSample>,
}

/// Tune the tile size for a matrix of `n` unknowns with the given
/// application parameters, on the machine/plan in `cfg` (whose
/// `rank_cap`/`band_width`/plan/trimming are honored).
///
/// `multipliers` scales the `b = 1.41·√N` seed; pass `&[]` for the
/// default seven-point sweep.
///
/// # Panics
///
/// On a `cfg` with no nodes or no cores per node (through
/// [`simulate_cholesky`]): a caller error here, not a tuning outcome.
pub fn tune_tile_size(
    n: f64,
    shape: f64,
    accuracy: f64,
    cfg: &SimConfig,
    multipliers: &[f64],
) -> TuneResult {
    let defaults = [0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
    let mults: &[f64] = if multipliers.is_empty() { &defaults } else { multipliers };
    let seed = 1.41 * n.sqrt();
    let mut sweep = Vec::with_capacity(mults.len());
    let n_int = (n.round() as usize).max(1);
    for &m in mults {
        // Clamp the seed into [min(32, n), n] and derive the tile count
        // by ceiling division, so the pair stays consistent at any `n`:
        // `b ≤ n`, `b·nt ≥ n` and `b·(nt−1) < n`. The old independent
        // `.max(32)` / `.max(4)` clamps could silently tune a matrix up
        // to 25× larger than requested (`b·nt = 128` for `n = 5`).
        let b = ((seed * m).round() as usize).clamp(32.min(n_int), n_int);
        let nt = n_int.div_ceil(b);
        let snap = SyntheticRankModel::from_application(nt, b, shape, accuracy).snapshot();
        let r = simulate_cholesky(&snap, cfg);
        sweep.push(TuneSample {
            tile_size: b,
            nt,
            seconds: r.factorization_seconds,
            tasks: r.dag_tasks,
        });
    }
    let best = *sweep
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("non-empty sweep");
    TuneResult { best, sweep }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorapo::hicma_parsec_config;
    use runtime::MachineModel;

    fn cfg() -> SimConfig {
        hicma_parsec_config(MachineModel::shaheen_ii(), 4)
    }

    #[test]
    fn returns_a_swept_candidate() {
        let r = tune_tile_size(5e4, 3.7e-4, 1e-4, &cfg(), &[]);
        assert_eq!(r.sweep.len(), 7);
        assert!(r
            .sweep
            .iter()
            .any(|s| s.tile_size == r.best.tile_size && s.seconds == r.best.seconds));
        // the winner is the minimum
        for s in &r.sweep {
            assert!(r.best.seconds <= s.seconds + 1e-15);
        }
    }

    #[test]
    fn extremes_lose_to_the_middle() {
        // The bell shape (§VIII-C): the smallest and largest candidates
        // should not win on a work-rich problem.
        let r = tune_tile_size(2e4, 3.7e-4, 1e-4, &cfg(), &[0.25, 0.5, 1.0, 2.0, 4.0]);
        let first = r.sweep.first().unwrap();
        let last = r.sweep.last().unwrap();
        assert!(r.best.seconds < first.seconds, "tiny tiles should lose");
        assert!(r.best.seconds <= last.seconds, "huge tiles should not win");
    }

    #[test]
    fn custom_multipliers_respected() {
        let r = tune_tile_size(1e5, 1e-3, 1e-4, &cfg(), &[1.0]);
        assert_eq!(r.sweep.len(), 1);
        let expected_b = (1.41 * (1e5f64).sqrt()).round() as usize;
        assert_eq!(r.best.tile_size, expected_b);
    }

    /// Satellite bugfix regression: `b` and `nt` must describe the
    /// matrix actually requested. The old independent clamps produced
    /// `b = 32, nt = 4` (a 128-unknown matrix) for `n = 5`, and `b > n`
    /// whenever `n < 32`.
    #[test]
    fn tiny_problems_stay_consistent() {
        for &n in &[5.0_f64, 20.0, 100.0, 1000.0] {
            let r = tune_tile_size(n, 3.7e-4, 1e-4, &cfg(), &[0.35, 1.0, 3.0]);
            let n_int = n as usize;
            for s in &r.sweep {
                assert!(s.tile_size <= n_int, "b {} > n {n_int}", s.tile_size);
                assert!(
                    s.tile_size * s.nt >= n_int,
                    "b·nt {} < n {n_int}",
                    s.tile_size * s.nt
                );
                assert!(
                    s.tile_size * (s.nt - 1) < n_int,
                    "a whole tile row past n: b {} nt {}",
                    s.tile_size,
                    s.nt
                );
            }
        }
    }

    /// At `n` smaller than the 32-column floor the whole matrix is one
    /// tile: `b = n`, `nt = 1`.
    #[test]
    fn sub_floor_n_collapses_to_one_tile() {
        let r = tune_tile_size(20.0, 3.7e-4, 1e-4, &cfg(), &[1.0]);
        assert_eq!(r.best.tile_size, 20);
        assert_eq!(r.best.nt, 1);
    }
}
