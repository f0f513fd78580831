//! Bench-history ledger and regression gate.
//!
//! Every `BENCH_*.json` artifact the benches emit is a point-in-time
//! snapshot; nothing in the repo compares one commit's numbers against
//! the last. This bin closes the loop: it ingests every `BENCH_*.json`
//! in the working directory into a schema-versioned, append-only
//! `results/history.jsonl` — one row per numeric leaf, keyed by
//! experiment, mode (smoke or full), git commit, and the host's core
//! count — and `--gate` compares the current commit's rows against the
//! best same-host, same-mode baseline in the ledger, failing on
//! configured regressions.
//!
//! Rows are flat JSON objects (hand-rolled writer, parsed back with the
//! same [`Json`] parser the metrics dumps use):
//!
//! ```text
//! {"schema":2,"experiment":"trace_overhead","mode":"full",
//!  "git_sha":"b6439af","host_cores":8,"metric":"max_overhead_pct",
//!  "value":1.64}
//! ```
//!
//! Only metrics with a known "direction" are gated (timings, overhead
//! percentages, allocation counts — all lower-is-better); everything
//! else is recorded for plotting but never fails the build. Baselines
//! are restricted to rows with the *same* `host_cores`, so a ledger
//! grown on a laptop never gates a differently-shaped CI runner.
//!
//! `--smoke` (CI mode) ingests, gates, and then runs a negative
//! self-test: it injects an artificial +20 % regression onto a gated
//! metric and exits nonzero unless the gate catches it. It appends its
//! rows to `history.jsonl` under `--dir`, not to `--history`.
//!
//! Every row is keyed by its commit, so `--dir` must lie inside a git
//! checkout: elsewhere the run is refused (exit 2) before it gates or
//! appends anything.

use runtime::obs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Ledger schema version (bump on any row-shape change; readers skip
/// rows with a schema they don't know).
const SCHEMA: u64 = 2;

#[derive(Debug, Clone, PartialEq)]
struct Row {
    experiment: String,
    mode: String,
    git_sha: String,
    host_cores: u64,
    metric: String,
    value: f64,
}

impl Row {
    fn to_jsonl(&self) -> String {
        let mut o = Json::obj();
        o.insert("schema", Json::Num(SCHEMA as f64));
        o.insert("experiment", Json::Str(self.experiment.clone()));
        o.insert("mode", Json::Str(self.mode.clone()));
        o.insert("git_sha", Json::Str(self.git_sha.clone()));
        o.insert("host_cores", Json::Num(self.host_cores as f64));
        o.insert("metric", Json::Str(self.metric.clone()));
        o.insert("value", Json::Num(self.value));
        o.to_string()
    }

    fn from_json(v: &Json) -> Option<Row> {
        let mode = match v.get("schema")?.as_f64()? as u64 {
            1 => "full", // before the mode key the ledger held full-grid runs
            SCHEMA => v.get("mode")?.as_str()?,
            _ => return None,
        };
        Some(Row {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            mode: mode.to_string(),
            git_sha: v.get("git_sha")?.as_str()?.to_string(),
            host_cores: v.get("host_cores")?.as_f64()? as u64,
            metric: v.get("metric")?.as_str()?.to_string(),
            value: v.get("value")?.as_f64()?,
        })
    }
}

/// Flatten the numeric leaves of a bench JSON into dotted metric paths
/// (`points.0.traced_s`). Strings/bools/nulls are context, not metrics.
fn flatten(prefix: &str, v: &Json, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(x) if x.is_finite() => out.push((prefix.to_string(), *x)),
        Json::Arr(items) => {
            for (i, it) in items.iter().enumerate() {
                flatten(&format!("{prefix}.{i}"), it, out);
            }
        }
        Json::Obj(fields) => {
            for (k, it) in fields {
                let p = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(&p, it, out);
            }
        }
        _ => {}
    }
}

/// Gate direction + thresholds of one metric, when it is gated at all.
///
/// `rel` is the allowed relative worsening over the baseline, `abs` an
/// absolute slack floor that keeps near-zero baselines (0 allocs,
/// sub-millisecond timings) from tripping on noise.
#[derive(Debug, Clone, Copy)]
struct GateRule {
    rel: f64,
    abs: f64,
}

/// Lower-is-better rules by metric-name shape. Returns `None` for
/// metrics that are recorded but never gated (counts, ratios, modes).
fn gate_rule(metric: &str) -> Option<GateRule> {
    let leaf = metric.rsplit('.').next().unwrap_or(metric);
    if leaf.ends_with("_allocs") || leaf == "allocs" {
        // Steady-state allocation counts: a baseline of 0 must stay 0.
        return Some(GateRule { rel: 0.10, abs: 0.5 });
    }
    if leaf.ends_with("overhead_pct") {
        // Percentage points; noise floor of a few points.
        return Some(GateRule { rel: 0.10, abs: 3.0 });
    }
    if leaf.ends_with("_s") || leaf.ends_with("_seconds") || leaf == "makespan" {
        // Wall-clock: 10 % relative plus a 1 ms floor. Benches record
        // interleaved minima, and baselines only ever come from a host
        // with the same core count, so 10 % is jitter-safe while still
        // catching a 20 % regression.
        return Some(GateRule { rel: 0.10, abs: 1e-3 });
    }
    if leaf == "us_per_call_new" {
        // `gemm_recompress` kernel time per call, in µs, a mean over
        // repetitions rather than a minimum: a wider envelope than the
        // wall-clock rule, still far inside the gap between the pivoted-QR
        // core truncation the kernel runs and the reference's plain Jacobi
        // SVD at the high-rank point.
        return Some(GateRule { rel: 0.25, abs: 1.0 });
    }
    None
}

/// `true` when `current` regresses past the rule's envelope around
/// `baseline` (lower is better for every gated metric).
fn regressed(rule: GateRule, baseline: f64, current: f64) -> bool {
    current > baseline + baseline.abs() * rule.rel + rule.abs
}

/// The commit `dir` is checked out at. The gate skips baselines of the
/// current commit and the ledger drops rows it already holds for it, so
/// a run without a commit has no key: one placeholder shared by every
/// such run would make them all one commit, never gated against each
/// other and appending nothing after the first. The error says why the
/// run is refused.
fn git_sha(dir: &Path) -> Result<String, String> {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .ok_or_else(|| {
            format!(
                "no git commit for {} (not inside a git checkout, or no git): rows are \
                 keyed by commit, so they can be neither gated nor appended",
                dir.display()
            )
        })
}

/// Ingest every `BENCH_*.json` under `dir` as rows for `sha`.
fn ingest(dir: &Path, sha: &str, host_cores: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let parsed = match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_history: skipping {} (parse error: {e})", path.display());
                continue;
            }
        };
        let stem = path
            .file_stem()
            .and_then(|n| n.to_str())
            .unwrap_or("bench")
            .trim_start_matches("BENCH_")
            .to_string();
        let field = |key| parsed.get(key).and_then(|v| v.as_str());
        let experiment = field("experiment").unwrap_or(&stem).to_string();
        let mode = field("mode").unwrap_or("full").to_string();
        let mut leaves = Vec::new();
        flatten("", &parsed, &mut leaves);
        for (metric, value) in leaves {
            rows.push(Row {
                experiment: experiment.clone(),
                mode: mode.clone(),
                git_sha: sha.to_string(),
                host_cores,
                metric,
                value,
            });
        }
    }
    rows
}

fn load_history(path: &Path) -> Vec<Row> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| Row::from_json(&v))
        .collect()
}

/// What a row measured: the ledger's and the gate's key beside the sha.
fn key(r: &Row) -> (&str, &str, &str) {
    (r.experiment.as_str(), r.mode.as_str(), r.metric.as_str())
}

/// Append `rows` not already in the ledger at `path` (same key and sha);
/// returns how many were written.
fn append_history(path: &Path, rows: &[Row]) -> std::io::Result<usize> {
    use std::io::Write as _;
    let existing = load_history(path);
    let seen: std::collections::BTreeSet<_> =
        existing.iter().map(|r| (key(r), r.git_sha.as_str())).collect();
    let fresh: Vec<&Row> =
        rows.iter().filter(|r| !seen.contains(&(key(r), r.git_sha.as_str()))).collect();
    if fresh.is_empty() {
        return Ok(0);
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    for r in &fresh {
        writeln!(f, "{}", r.to_jsonl())?;
    }
    Ok(fresh.len())
}

/// One gate violation (kept as data so the self-test can assert on it).
#[derive(Debug)]
struct Violation {
    experiment: String,
    metric: String,
    baseline: f64,
    current: f64,
}

/// Gate `current` rows against `history`: for every gated metric, the
/// baseline is the *best* (minimum) value recorded in the same mode by a
/// different commit on a same-shaped host. No baseline → vacuous pass.
fn gate(history: &[Row], current: &[Row]) -> Vec<Violation> {
    let mut best: BTreeMap<(&str, &str, &str), f64> = BTreeMap::new();
    for r in history {
        let Some(cur) = current.iter().find(|c| key(c) == key(r)) else { continue };
        if r.git_sha == cur.git_sha || r.host_cores != cur.host_cores {
            continue;
        }
        let e = best.entry(key(r)).or_insert(r.value);
        *e = e.min(r.value);
    }
    let mut violations = Vec::new();
    for c in current {
        let Some(rule) = gate_rule(&c.metric) else { continue };
        let Some(&baseline) = best.get(&key(c)) else { continue };
        if regressed(rule, baseline, c.value) {
            violations.push(Violation {
                experiment: c.experiment.clone(),
                metric: c.metric.clone(),
                baseline,
                current: c.value,
            });
        }
    }
    violations
}

/// Negative self-test: a +20 % injected regression on a gated timing
/// metric must trip the gate. Returns `true` when the gate caught it.
fn negative_self_test(host_cores: u64) -> bool {
    let mk = |sha: &str, value: f64| Row {
        experiment: "self_test".to_string(),
        mode: "smoke".to_string(),
        git_sha: sha.to_string(),
        host_cores,
        metric: "factorize_seconds".to_string(),
        value,
    };
    let history = vec![mk("baseline", 1.0)];
    let regressed_run = vec![mk("current", 1.2)];
    let caught = !gate(&history, &regressed_run).is_empty();
    let clean_run = vec![mk("current", 1.02)];
    let clean = gate(&history, &clean_run).is_empty();
    caught && clean
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };
    let smoke = flag("--smoke");
    let run_gate = flag("--gate") || smoke;
    let dir = PathBuf::from(opt("--dir").unwrap_or_else(|| ".".to_string()));
    let history_path = PathBuf::from(
        opt("--history").unwrap_or_else(|| "results/history.jsonl".to_string()),
    );
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let sha = git_sha(&dir).unwrap_or_else(|e| {
        eprintln!("bench_history: {e}");
        std::process::exit(2);
    });

    let history = load_history(&history_path);
    let current = ingest(&dir, &sha, host_cores);
    if current.is_empty() {
        eprintln!("bench_history: no BENCH_*.json artifacts under {}", dir.display());
    }

    let mut failed = false;
    if run_gate {
        let violations = gate(&history, &current);
        for v in &violations {
            eprintln!(
                "bench_history GATE FAILED: {}/{} regressed {:.6} -> {:.6}",
                v.experiment, v.metric, v.baseline, v.current
            );
        }
        if violations.is_empty() {
            eprintln!(
                "bench_history: gate clean ({} current rows, {} history rows)",
                current.len(),
                history.len()
            );
        } else {
            failed = true;
        }
    }

    if smoke && !negative_self_test(host_cores) {
        eprintln!("bench_history SELF-TEST FAILED: injected 20% regression not caught");
        failed = true;
    } else if smoke {
        eprintln!("bench_history: negative self-test ok (injected +20% regression caught)");
    }

    let ledger = if smoke { dir.join("history.jsonl") } else { history_path };
    match append_history(&ledger, &current) {
        Ok(n) => eprintln!(
            "bench_history: {} new rows appended to {} (sha {sha}, {host_cores} cores)",
            n,
            ledger.display()
        ),
        Err(e) => {
            eprintln!("bench_history: cannot write {}: {e}", ledger.display());
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(exp: &str, sha: &str, cores: u64, metric: &str, value: f64) -> Row {
        Row {
            experiment: exp.to_string(),
            mode: "full".to_string(),
            git_sha: sha.to_string(),
            host_cores: cores,
            metric: metric.to_string(),
            value,
        }
    }

    #[test]
    fn rows_round_trip_through_jsonl() {
        let r = row("trace_overhead", "abc1234", 8, "points.0.traced_s", 0.00321);
        let parsed = Json::parse(&r.to_jsonl()).expect("row must be valid JSON");
        assert_eq!(Row::from_json(&parsed).expect("schema 2 row"), r);
    }

    #[test]
    fn unknown_schema_rows_are_skipped() {
        let mut o = Json::obj();
        o.insert("schema", Json::Num(99.0));
        o.insert("experiment", Json::Str("x".into()));
        assert!(Row::from_json(&o).is_none());
    }

    #[test]
    fn a_directory_outside_git_has_no_commit_to_key_rows_by() {
        let dir = std::env::temp_dir().join(format!("bench_history_no_git_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sha = git_sha(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        let err = sha.expect_err("a plain directory must not yield a commit");
        assert!(err.contains("neither gated nor appended"), "{err}");
    }

    #[test]
    fn flatten_walks_nested_objects_and_arrays() {
        let v = Json::parse(
            r#"{"experiment":"e","max_overhead_pct":2.5,
                "points":[{"n":512,"traced_s":0.01},{"n":768,"traced_s":0.02}]}"#,
        )
        .unwrap();
        let mut leaves = Vec::new();
        flatten("", &v, &mut leaves);
        assert!(leaves.contains(&("max_overhead_pct".to_string(), 2.5)));
        assert!(leaves.contains(&("points.1.traced_s".to_string(), 0.02)));
        assert!(leaves.iter().all(|(k, _)| k != "experiment"), "strings are not metrics");
    }

    #[test]
    fn gate_fails_on_injected_twenty_pct_regression() {
        let history = vec![row("e", "old", 4, "factorize_seconds", 1.0)];
        let bad = vec![row("e", "new", 4, "factorize_seconds", 1.2)];
        assert_eq!(gate(&history, &bad).len(), 1, "20% timing regression must trip");
        let ok = vec![row("e", "new", 4, "factorize_seconds", 1.05)];
        assert!(gate(&history, &ok).is_empty(), "5% jitter must pass");
    }

    #[test]
    fn gate_ignores_other_hosts_same_sha_and_ungated_metrics() {
        let history = vec![
            row("e", "old", 2, "factorize_seconds", 1.0),  // different host shape
            row("e", "new", 4, "factorize_seconds", 1.0),  // same sha as current
            row("e", "old", 4, "tasks", 100.0),            // no gate rule
        ];
        let current = vec![
            row("e", "new", 4, "factorize_seconds", 10.0),
            row("e", "new", 4, "tasks", 1000.0),
        ];
        assert!(gate(&history, &current).is_empty());
    }

    #[test]
    fn recompress_call_time_is_gated_and_its_reference_is_not() {
        let history = vec![
            row("gemm_recompress", "old", 2, "points.9.us_per_call_new", 3200.0),
            row("gemm_recompress", "old", 2, "points.9.us_per_call_ref", 160000.0),
        ];
        let slow = vec![
            row("gemm_recompress", "new", 2, "points.9.us_per_call_new", 9600.0),
            row("gemm_recompress", "new", 2, "points.9.us_per_call_ref", 480000.0),
        ];
        let v = gate(&history, &slow);
        assert_eq!(v.len(), 1, "losing the 3x must trip, the baseline column never");
        assert_eq!(v[0].metric, "points.9.us_per_call_new");
        let jitter = vec![row("gemm_recompress", "new", 2, "points.9.us_per_call_new", 3700.0)];
        assert!(gate(&history, &jitter).is_empty(), "15% run-to-run spread must pass");
    }

    #[test]
    fn alloc_counts_gate_exactly_and_zero_baseline_holds() {
        let history = vec![row("e", "old", 4, "gemm_steady_state_allocs", 0.0)];
        let bad = vec![row("e", "new", 4, "gemm_steady_state_allocs", 1.0)];
        assert_eq!(gate(&history, &bad).len(), 1, "0 -> 1 allocs must trip");
        let same = vec![row("e", "new", 4, "gemm_steady_state_allocs", 0.0)];
        assert!(gate(&history, &same).is_empty());
    }

    /// A smoke run's `points.1` is another grid point than a full run's:
    /// a full-mode baseline never gates it, a smoke one does.
    #[test]
    fn smoke_rows_gate_only_against_smoke_rows() {
        let metric = "points.1.us_per_call_new";
        let full = row("gemm_recompress", "old", 2, metric, 100.0);
        let smoke = |sha, value| Row { mode: "smoke".into(), ..row("gemm_recompress", sha, 2, metric, value) };
        let current = vec![smoke("new", 500.0)];
        assert!(gate(&[full], &current).is_empty(), "a full baseline gated a smoke row");
        assert_eq!(gate(&[smoke("old", 100.0)], &current).len(), 1);
    }

    /// Every row of the committed ledger still reads, as a full-mode row
    /// (schema 1 predates the mode key).
    #[test]
    fn committed_ledger_rows_stay_readable() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/history.jsonl");
        let text = std::fs::read_to_string(&path).expect("the committed ledger");
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        let rows = load_history(&path);
        assert_eq!(rows.len(), lines, "a ledger row no longer parses");
        assert!(rows.iter().all(|r| r.mode == "full"));
    }

    #[test]
    fn negative_self_test_catches_and_passes() {
        assert!(negative_self_test(4));
    }
}
