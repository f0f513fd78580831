//! `hicma-parsec` — command-line front-end to the TLR Cholesky stack.
//!
//! Subcommands:
//!
//! * `factorize` — build a synthetic-virus RBF operator, compress,
//!   factorize (real numerics) and verify;
//! * `simulate`  — price a paper-scale run on the simulated machine;
//! * `analyze`   — run Algorithm 1 on a synthetic rank profile and print
//!   trimming statistics;
//! * `snapshot`  — compress a synthetic-virus RBF operator and save its
//!   rank snapshot (`simulate snapshot=FILE` prices it);
//! * `tune`      — auto-tune the tile size for a given problem size.
//!
//! Arguments are `key=value` pairs; run with no arguments for usage.

use hicma_parsec::cholesky::lorapo::{hicma_parsec_config, lorapo_config};
use hicma_parsec::cholesky::simulate::{
    scaled_machine, scaled_problem, simulate_cholesky, ScaledProblem,
};
use hicma_parsec::cholesky::{tune_tile_size, FactorConfig, MatrixAnalysis, RunError, Session};
use hicma_parsec::linalg::Matrix;
use hicma_parsec::mesh::geometry::{virus_population, VirusConfig};
use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
use hicma_parsec::mesh::{GaussianRbf, Point3};
use hicma_parsec::runtime::MachineModel;
use hicma_parsec::tlr::{CompressionConfig, SyntheticRankModel, TlrMatrix};
use std::collections::HashMap;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: hicma-parsec <command> [key=value ...]

commands:
  factorize  viruses=4 points=400 tile=128 accuracy=1e-6 [untrimmed=1]
             build + compress + factorize a synthetic RBF operator (real numerics)
  simulate   n=11.95e6 tile=4880 nodes=512 shape=3.7e-4 accuracy=1e-4
             machine=shaheen|fugaku code=hicma|lorapo scale=32
             price a paper-scale factorization on the simulated cluster
  analyze    nt=256 tile=1024 shape=3.7e-4 accuracy=1e-4
             run Algorithm 1 and print trimming statistics
  snapshot   viruses=4 points=400 tile=128 accuracy=1e-4 out=snap.txt
             measure a real compression and save its rank snapshot
             (feed back into `simulate snapshot=snap.txt`)
  tune       n=1e6 shape=3.7e-4 accuracy=1e-4 nodes=16 machine=shaheen
             auto-tune the tile size with the simulator"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    for a in args {
        match a.split_once('=') {
            Some((k, v)) => {
                map.insert(k.to_string(), v.to_string());
            }
            None => {
                eprintln!("malformed argument `{a}` (expected key=value)");
                usage();
            }
        }
    }
    map
}

fn get_f64(m: &HashMap<String, String>, k: &str, default: f64) -> f64 {
    m.get(k).map_or(default, |v| v.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {k}: {v}");
        usage()
    }))
}

/// A count or size: anything but a positive integer is a usage error
/// naming the key (every such key sizes an allocation or a loop).
fn get_positive(m: &HashMap<String, String>, k: &str, default: usize) -> usize {
    let v = get_f64(m, k, default as f64);
    if v < 1.0 || v.fract() != 0.0 || v > usize::MAX as f64 {
        eprintln!("{k} must be a positive integer, got {v}");
        usage()
    }
    v as usize
}

/// A real that shapes the problem (`n`, `shape`, `accuracy`): finite and
/// positive, or an error naming the key.
fn parse_positive_real(k: &str, raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!("{k} must be a finite positive number, got {raw:?}")),
    }
}

/// [`parse_positive_real`] of key `k`; bad input prints one line naming
/// the key and exits 2.
fn get_positive_real(m: &HashMap<String, String>, k: &str, default: f64) -> f64 {
    m.get(k).map_or(default, |raw| {
        parse_positive_real(k, raw).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    })
}

/// The scaled tile grid `simulate` prices: `n` must be small enough
/// that the grid's `nt²` tile ranks can be indexed.
fn scaled_grid(n: f64, tile: usize, nodes: usize, scale: usize) -> Result<ScaledProblem, String> {
    let p = scaled_problem(n, tile, nodes, scale);
    match p.nt.checked_mul(p.nt) {
        Some(_) => Ok(p),
        None => Err(format!("n is too large: {n:e} scales to {} tile rows, whose square overflows", p.nt)),
    }
}

/// The Hilbert-ordered point cloud of `factorize` / `snapshot`;
/// `close(phase)` is told when generating and ordering it end.
fn point_cloud(m: &HashMap<String, String>, mut close: impl FnMut(&'static str)) -> Vec<Point3> {
    let viruses = get_positive(m, "viruses", 4);
    let points_per_virus = get_positive(m, "points", 400);
    if viruses * points_per_virus < 2 {
        eprintln!("points must be at least 2 for a single virus (an RBF operator needs 2 points)");
        usage()
    }
    let vcfg = VirusConfig { points_per_virus, ..Default::default() };
    let raw = virus_population(viruses, &vcfg, 2024);
    close("generate");
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    close("order");
    points
}

fn machine_of(m: &HashMap<String, String>) -> MachineModel {
    match m.get("machine").map(String::as_str) {
        None | Some("shaheen") => MachineModel::shaheen_ii(),
        Some("fugaku") => MachineModel::fugaku(),
        Some(other) => {
            eprintln!("unknown machine `{other}` (shaheen|fugaku)");
            usage()
        }
    }
}

fn cmd_factorize(m: HashMap<String, String>, process_start: Instant) {
    let tile = get_positive(&m, "tile", 128);
    let accuracy = get_positive_real(&m, "accuracy", 1e-6);
    let trimmed = !m.contains_key("untrimmed");

    // One line per phase, each charged the time since the previous one
    // closed: together they account for the process wall.
    let mut ledger = Vec::new();
    let mut last = process_start;
    let mut close = |phase: &'static str| {
        let now = Instant::now();
        ledger.push((phase, (now - last).as_secs_f64()));
        last = now;
    };
    let points = point_cloud(&m, &mut close);

    let n = points.len();
    let kernel = GaussianRbf::from_min_distance(&points);
    println!("N = {n}, δ = {:.3e}, tile = {tile}, accuracy = {accuracy:.0e}", kernel.delta);
    let ccfg = CompressionConfig::with_accuracy(accuracy);
    let mut a = TlrMatrix::from_generator(n, tile, kernel.generator(&points), &ccfg);
    close("assemble");
    // The assembly line of the ledger: what the bounding boxes of the
    // point cloud proved null, what had to be evaluated, what was kept.
    let off_diagonal = a.nt() * (a.nt() - 1) / 2;
    let kept = (a.density() * off_diagonal as f64).round() as usize;
    println!(
        "assembled: density {:.3}, memory {:.1}% of dense; {off_diagonal} off-diagonal tiles = \
         {} certified null + {} evaluated ({kept} kept); {} kernel evaluations vs n(n+1)/2 = {}",
        a.density(),
        100.0 * a.memory_f64() as f64 / (n * (n + 1) / 2) as f64,
        a.certified_null_tiles(),
        off_diagonal - a.certified_null_tiles(),
        a.kernel_evaluations(),
        n * (n + 1) / 2
    );
    let session =
        Session::shared(FactorConfig { trimmed, ..FactorConfig::with_accuracy(accuracy) });
    let plan = session.plan(&a);
    close("plan");
    let run = plan.and_then(|plan| session.run_with_plan(&plan, &mut a));
    close("factorize");
    match run {
        Ok(out) => print!("{out}"),
        Err(RunError::Numeric(e)) => {
            eprintln!("matrix is not positive definite at this accuracy (pivot {})", e.pivot);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if n <= 4000 {
        let dense = Matrix::from_fn(n, n, |i, j| kernel.matrix_entry(&points, i, j));
        let res = hicma_parsec::cholesky::factorization_residual(&dense, &a);
        println!("‖A − LLᵀ‖/‖A‖ = {res:.3e}");
    }
    close("verify");
    for (phase, seconds) in &ledger {
        println!("{phase:>10} {seconds:>9.3} s");
    }
    let accounted: f64 = ledger.iter().map(|p| p.1).sum();
    let wall = process_start.elapsed().as_secs_f64();
    println!("{:>10} {accounted:>9.3} s of {wall:.3} s process wall", "sum");
    match peak_rss_mb() {
        Some(mb) => println!("{:>10} {mb:>9.1} MiB process peak resident set (VmHWM)", "peak rss"),
        None => println!("{:>10} unavailable (no VmHWM in /proc/self/status)", "peak rss"),
    }
}

/// The process's peak resident set, `VmHWM` of `/proc/self/status`, in
/// MiB; `None` where the kernel does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
}

fn cmd_simulate(m: HashMap<String, String>) {
    let n = get_positive_real(&m, "n", 11.95e6);
    let tile = get_positive(&m, "tile", 4880);
    let nodes = get_positive(&m, "nodes", 512);
    let shape = get_positive_real(&m, "shape", 3.7e-4);
    let accuracy = get_positive_real(&m, "accuracy", 1e-4);
    let scale = get_positive(&m, "scale", 32);

    let p = scaled_grid(n, tile, nodes, scale).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let machine = scaled_machine(machine_of(&m), scale);
    let snap = match m.get("snapshot") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read snapshot {path}: {e}");
                std::process::exit(1);
            });
            hicma_parsec::tlr::RankSnapshot::from_text(&text).unwrap_or_else(|e| {
                eprintln!("bad snapshot {path}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            SyntheticRankModel::from_application(p.nt, p.tile_size, shape, accuracy).snapshot()
        }
    };
    let cfg = match m.get("code").map(String::as_str) {
        None | Some("hicma") => hicma_parsec_config(machine, p.nodes),
        Some("lorapo") => lorapo_config(machine, p.nodes),
        Some(other) => {
            eprintln!("unknown code `{other}` (hicma|lorapo)");
            usage()
        }
    };
    if m.contains_key("snapshot") {
        println!(
            "simulating measured snapshot (NT={} b={}) on {} procs",
            snap.nt(),
            snap.tile_size(),
            p.nodes
        );
    } else {
        println!(
            "simulating N={n:.3e} tile={tile} nodes={nodes} (scaled 1/{scale}: NT={} b={} procs={})",
            p.nt, p.tile_size, p.nodes
        );
    }
    let r = simulate_cholesky(&snap, &cfg);
    // Scientific notation: a laptop-scale snapshot simulates in
    // microseconds and a paper-scale one in minutes.
    println!(
        "time {:.3e} s | CP {:.3e} s (eff {:.0}%) | {} tasks | imbalance {:.2} | {:.3e} B moved",
        r.factorization_seconds,
        r.critical_path_seconds,
        100.0 * r.roofline_efficiency(),
        r.dag_tasks,
        r.load_imbalance,
        r.comm.bytes as f64
    );
}

fn cmd_analyze(m: HashMap<String, String>) {
    let nt = get_positive(&m, "nt", 256);
    let tile = get_positive(&m, "tile", 1024);
    let shape = get_positive_real(&m, "shape", 3.7e-4);
    let accuracy = get_positive_real(&m, "accuracy", 1e-4);
    let snap = SyntheticRankModel::from_application(nt, tile, shape, accuracy).snapshot();
    let t0 = std::time::Instant::now();
    let a = MatrixAnalysis::analyze(&snap, tile);
    println!(
        "NT = {nt}: initial density {:.3}, final density {:.3}, fill-in tiles {}",
        snap.density(),
        a.final_density(),
        a.fill_count
    );
    println!(
        "tasks: {} surviving of {} dense ({:.1}% trimmed away)",
        a.surviving_tasks(),
        a.dense_tasks(),
        100.0 * (1.0 - a.surviving_tasks() as f64 / a.dense_tasks() as f64)
    );
    println!(
        "analysis cost: {:.1} ms, {:.2} MB",
        t0.elapsed().as_secs_f64() * 1e3,
        a.memory_bytes() as f64 / 1e6
    );
}

fn cmd_tune(m: HashMap<String, String>) {
    let n = get_positive_real(&m, "n", 1e6);
    let shape = get_positive_real(&m, "shape", 3.7e-4);
    let accuracy = get_positive_real(&m, "accuracy", 1e-4);
    let nodes = get_positive(&m, "nodes", 16);
    let cfg = hicma_parsec_config(machine_of(&m), nodes);
    let r = tune_tile_size(n, shape, accuracy, &cfg, &[]);
    println!("{:>8} {:>7} {:>10} {:>10}", "tile", "NT", "tasks", "time (s)");
    for s in &r.sweep {
        let mark = if s.tile_size == r.best.tile_size { "  <- best" } else { "" };
        println!("{:>8} {:>7} {:>10} {:>10.3}{mark}", s.tile_size, s.nt, s.tasks, s.seconds);
    }
}

fn cmd_snapshot(m: HashMap<String, String>) {
    let tile = get_positive(&m, "tile", 128);
    let accuracy = get_positive_real(&m, "accuracy", 1e-4);
    let out = m.get("out").cloned().unwrap_or_else(|| "snapshot.txt".to_string());
    let points = point_cloud(&m, |_| ());
    let kernel = GaussianRbf::from_min_distance(&points);
    let a = TlrMatrix::from_generator(
        points.len(),
        tile,
        kernel.generator(&points),
        &CompressionConfig::with_accuracy(accuracy),
    );
    let snap = a.rank_snapshot();
    std::fs::write(&out, snap.to_text()).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    let stats = snap.stats();
    println!(
        "wrote {out}: NT={} b={tile} density {:.3} max rank {}",
        snap.nt(),
        stats.density,
        stats.max
    );
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = parse_args(&args[1..]);
    match cmd.as_str() {
        "factorize" => cmd_factorize(rest, process_start),
        "simulate" => cmd_simulate(rest),
        "analyze" => cmd_analyze(rest),
        "snapshot" => cmd_snapshot(rest),
        "tune" => cmd_tune(rest),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_reals_are_validated_at_the_parse() {
        assert_eq!(parse_positive_real("n", "11.95e6"), Ok(11.95e6));
        assert_eq!(parse_positive_real("accuracy", " 1e-4\n"), Ok(1e-4));
        for bad in ["inf", "-inf", "NaN", "0", "-3", "abc", ""] {
            let err = parse_positive_real("shape", bad).unwrap_err();
            assert!(err.contains("shape"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    /// `n=1e30` saturates the scaled tile count to `usize::MAX`, whose
    /// square the rank model would overflow: rejected, naming `n`.
    #[test]
    fn n_must_leave_the_scaled_grid_indexable() {
        assert_eq!(scaled_grid(11.95e6, 4880, 512, 32).map(|p| p.nt), Ok(433));
        for n in [1e30, f64::MAX] {
            let err = scaled_grid(n, 4880, 512, 32).map(|p| p.nt).unwrap_err();
            assert!(err.starts_with("n "), "{err}");
        }
    }
}
