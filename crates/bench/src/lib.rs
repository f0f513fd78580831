//! Shared support for the figure-regeneration harness.
//!
//! Every binary in `src/bin/figNN_*.rs` regenerates one table/figure of
//! the paper's evaluation (§VIII). The paper ran on 16–2048 nodes of
//! Shaheen II / Fugaku with matrices of 1.49M–52.57M unknowns; the
//! harness maps each experiment onto this machine with the scaling rule
//! of [`hicma_core::simulate::scaled_problem`] and
//! [`hicma_core::simulate::scaled_machine`] (divide N and nodes by `S`,
//! tile size by `√S`, the machine's fixed time constants by `S`), which
//! preserves the work-per-node balances and therefore the *shapes* of
//! the results. Absolute numbers are not comparable and are not claimed
//! to be — see EXPERIMENTS.md.
//!
//! Set `HICMA_SCALE` to override the default downscale factor.

use hicma_core::lorapo::{hicma_parsec_config, lorapo_config};
use hicma_core::simulate::{scaled_problem, simulate_cholesky, ScaledProblem};
use runtime::MachineModel;
use std::path::{Path, PathBuf};
use tlr_compress::{RankSnapshot, SyntheticRankModel};

/// The machine half of the scaling rule, re-exported from its home for
/// the figure binaries and the benchmark.
pub use hicma_core::simulate::scaled_machine;

/// The paper's Shaheen II matrix sizes with their `b = O(√N)`-tuned tile
/// sizes (§VIII-C; 4880 at 11.95M is quoted directly, the others follow
/// the same `b ≈ 1.41·√N` rule).
pub fn paper_sizes() -> Vec<(&'static str, f64, usize)> {
    vec![
        ("1.49M", 1.49e6, 1720),
        ("2.99M", 2.99e6, 2440),
        ("4.49M", 4.49e6, 2990),
        ("5.97M", 5.97e6, 3450),
        ("11.95M", 11.95e6, 4880),
    ]
}

/// The extreme-scale sizes of Fig. 14.
pub fn paper_sizes_extreme() -> Vec<(&'static str, f64, usize)> {
    vec![
        ("11.95M", 11.95e6, 4880),
        ("23.90M", 23.90e6, 6880),
        ("35.85M", 35.85e6, 8430),
        ("52.57M", 52.57e6, 10190),
    ]
}

/// The paper's default shape parameter (§VIII-B: δ = 3.7 × 10⁻⁴,
/// i.e. half the minimum mesh spacing).
pub const PAPER_SHAPE: f64 = 3.7e-4;

/// The paper's default accuracy threshold (§VIII-A).
pub const PAPER_ACCURACY: f64 = 1e-4;

/// Parse a `HICMA_SCALE` value: a positive integer.
fn parse_scale(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(s) if s >= 1 => Ok(s),
        _ => Err(format!(
            "HICMA_SCALE must be a positive integer, got {raw:?}"
        )),
    }
}

/// Downscale factor: default, overridable via `HICMA_SCALE`. A value
/// that is not a positive integer is rejected here — one line on stderr
/// and exit code 2 — instead of silently running at the default scale
/// or tripping an assertion deep inside the scaling rule.
pub fn scale_factor(default: usize) -> usize {
    match std::env::var_os("HICMA_SCALE") {
        None => default,
        Some(raw) => parse_scale(&raw.to_string_lossy()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        }),
    }
}

/// Scale one paper experiment and synthesize its rank snapshot.
pub fn scaled_snapshot(
    n_paper: f64,
    b_paper: usize,
    nodes_paper: usize,
    s: usize,
    shape: f64,
    accuracy: f64,
) -> (ScaledProblem, RankSnapshot) {
    let p = scaled_problem(n_paper, b_paper, nodes_paper, s);
    let snap = SyntheticRankModel::from_application(p.nt, p.tile_size, shape, accuracy).snapshot();
    (p, snap)
}

/// Write a micro-bench's artifact `BENCH_<name>.json` and return its
/// path: in the working directory for a full run, beside the committed
/// full-grid file, and under `target/bench-smoke/` for a `--smoke` run,
/// so a CI-sized run never overwrites it.
pub fn write_bench_json(name: &str, smoke: bool, json: &str) -> PathBuf {
    let dir = Path::new(if smoke { "target/bench-smoke" } else { "." });
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Render a header + underline for fixed-width tables.
pub fn header(cols: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, w) in cols {
        line.push_str(&format!("{name:>w$} ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Figs. 9 and 10: HiCMA-PaRSEC against Lorapo on `machine` (scaled by
/// `HICMA_SCALE`, default 64) at each paper size on 128, 256 and 512
/// nodes — time-to-solution of both, the speedup and our critical path.
/// `fig` names the figure in the title line; `expected` are the two
/// closing lines stating what the paper found.
pub fn lorapo_comparison(fig: &str, machine: MachineModel, expected: [&str; 2]) {
    let s = scale_factor(64);
    let machine = scaled_machine(machine, s);
    println!("{fig} — HiCMA-PaRSEC vs Lorapo on {} (scale 1/{s})", machine.name);
    header(&[
        ("N", 8),
        ("nodes", 6),
        ("lorapo (s)", 11),
        ("ours (s)", 10),
        ("speedup", 8),
        ("ours CP (s)", 12),
    ]);

    for (label, n_paper, b_paper) in paper_sizes() {
        for nodes_paper in [128usize, 256, 512] {
            let (p, snap) =
                scaled_snapshot(n_paper, b_paper, nodes_paper, s, PAPER_SHAPE, PAPER_ACCURACY);
            let lorapo = simulate_cholesky(&snap, &lorapo_config(machine.clone(), p.nodes));
            let ours = simulate_cholesky(&snap, &hicma_parsec_config(machine.clone(), p.nodes));
            println!(
                "{:>8} {:>6} {:>11.2} {:>10.2} {:>7.2}x {:>12.2}",
                label,
                nodes_paper,
                lorapo.factorization_seconds,
                ours.factorization_seconds,
                lorapo.factorization_seconds / ours.factorization_seconds,
                ours.critical_path_seconds,
            );
        }
        println!();
    }
    for line in expected {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tile_sizes_follow_sqrt_rule() {
        for (_, n, b) in paper_sizes().into_iter().chain(paper_sizes_extreme()) {
            let predicted = 1.41 * n.sqrt();
            let ratio = b as f64 / predicted;
            assert!((0.8..1.25).contains(&ratio), "b={b} vs √N rule {predicted}");
        }
    }

    #[test]
    fn scale_env_override() {
        assert_eq!(scale_factor(16), 16); // env unset in tests
    }

    #[test]
    fn scale_values_are_validated_at_the_parse() {
        assert_eq!(parse_scale("8"), Ok(8));
        assert_eq!(parse_scale(" 32\n"), Ok(32));
        for bad in ["abc", "0", "-4", "1.5", ""] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.contains("HICMA_SCALE"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn scaled_snapshot_dimensions() {
        let (p, snap) = scaled_snapshot(1.49e6, 1720, 16, 16, PAPER_SHAPE, PAPER_ACCURACY);
        assert_eq!(snap.nt(), p.nt);
        assert_eq!(snap.tile_size(), p.tile_size);
        assert_eq!(p.nodes, 1);
    }
}
