//! What the benchmark prints: the result line of one run, the table and
//! JSON of a whole set of runs, the environment block, and the
//! comparison of two sets.

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::run::{nthreads, Metric, RunResult};
use crate::stats::{summarize, Summary};
use crate::workloads::Spec;
use runtime::obs::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};

pub fn print_table(title: &str, rows: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<36} {:>10} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "min", "max", "n"
    );
    // Six significant digits whatever the magnitude: residuals of 1e-9
    // and byte counts of 1e9 share the column.
    let num = |v: f64| {
        if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
            format!("{v:.6}")
        } else {
            format!("{v:.5e}")
        }
    };
    // A metric without samples is one the workload does not measure.
    for m in rows.iter().filter(|m| m.summary.n > 0) {
        let s = m.summary;
        println!(
            "  {:<36} {:>10} {:>14} {:>14} {:>14} {:>4}",
            m.name,
            m.unit,
            num(s.median),
            num(s.min),
            num(s.max),
            s.n
        );
    }
}

/// The last line of a run's standard output.
pub fn result_line(r: &RunResult) -> String {
    let mut metrics = Json::obj();
    for m in &r.metrics {
        let mut v = Json::obj();
        v.insert("value", Json::Num(m.summary.median));
        v.insert("unit", Json::Str(m.unit.to_string()));
        metrics.insert(m.name, v);
    }
    let mut line = Json::obj();
    line.insert("correct", Json::Bool(r.failed == 0));
    line.insert("attempted", Json::Num(r.attempted as f64));
    line.insert("failed", Json::Num(r.failed as f64));
    line.insert("metrics", metrics);
    line.to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken, so that sets from different hosts are
/// never compared.
pub fn environment() -> Json {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let mut env = Json::obj();
    env.insert("nproc", Json::Num(nproc as f64));
    env.insert(
        "available_parallelism",
        Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
    );
    env.insert("nthreads", Json::Num(nthreads() as f64));
    env.insert("RAYON_NUM_THREADS", Json::Str(nthreads().to_string()));
    env.insert(
        "kernel_path",
        Json::Str(format!("{:?}", tlr_linalg::active_path())),
    );
    env.insert("simd_available", Json::Bool(tlr_linalg::simd_available()));
    env.insert("rustc", Json::Str(command_line("rustc", &["--version"])));
    env.insert(
        "git_commit",
        Json::Str(command_line("git", &["rev-parse", "HEAD"])),
    );
    env
}

pub struct SuiteArgs {
    pub specs: Vec<&'static Spec>,
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    pub check: bool,
    pub json: Option<std::path::PathBuf>,
}

/// Run one workload once in a child process and parse its result line.
/// A child that dies without one (a panic outside an operation, a kill)
/// is one operation attempted and failed, and the set goes on.
fn child(args: &SuiteArgs, spec: &Spec, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.check {
        cmd.arg("--check");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().next_back().unwrap_or("");
    if !out.status.success() {
        eprintln!("{}: run exited with {:?}", spec.name, out.status.code());
    }
    Ok(Json::parse(line).unwrap_or_else(|e| {
        eprintln!("{}: no result line ({e})", spec.name);
        let mut lost = Json::obj();
        lost.insert("attempted", Json::Num(1.0));
        lost.insert("failed", Json::Num(1.0));
        lost
    }))
}

fn summary_json(name: &str, unit: &str, s: Summary) -> Json {
    let mut o = Json::obj();
    o.insert("name", Json::Str(name.to_string()));
    o.insert("unit", Json::Str(unit.to_string()));
    o.insert("median", Json::Num(s.median));
    o.insert("min", Json::Num(s.min));
    o.insert("max", Json::Num(s.max));
    o.insert("n", Json::Num(s.n as f64));
    o
}

/// Every workload in its own child process, one at a time: `repeats`
/// untraced runs, then one traced run of the same inputs. Returns
/// whether every operation of every run was correct.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let env = environment();
    println!("environment {env}");
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in &args.specs {
        let mut runs = Vec::new();
        for _ in 0..args.repeats {
            runs.push(child(args, spec, false)?);
        }
        let traced = child(args, spec, true)?;
        // `None` for a run that failed before it had numbers.
        let value = |run: &Json, name: &str| run.get("metrics")?.get(name)?.get("value")?.as_f64();
        let count = |key: &str| -> f64 {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        all_correct &= failed == 0.0;

        let mut rows = Vec::new();
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let samples: Vec<f64> = runs.iter().filter_map(|r| value(r, m.name)).collect();
            if samples.is_empty() {
                continue;
            }
            let summary = summarize(&samples);
            end_to_end.push(summary_json(m.name, m.unit, summary));
            rows.push(Metric {
                name: m.name,
                unit: m.unit,
                summary,
            });
        }
        let mut per_layer = Vec::new();
        // Absent, not zero, where the workload does not run the layer.
        for m in PER_LAYER.iter().filter(|m| spec.kind.measures(m.on)) {
            let Some(v) = value(&traced, m.name) else {
                continue;
            };
            let summary = summarize(&[v]);
            let mut j = summary_json(m.name, m.unit, summary);
            j.insert("exact", Json::Bool(m.exact));
            per_layer.push(j);
            rows.push(Metric {
                name: m.name,
                unit: m.unit,
                summary,
            });
        }
        print_table(
            &format!(
                "{} (seed {}): {attempted} operations attempted, {failed} failed, ops_failed_share {}",
                spec.name,
                args.seed,
                failed / attempted
            ),
            &rows,
        );
        let mut w = Json::obj();
        w.insert("name", Json::Str(spec.name.to_string()));
        w.insert("attempted", Json::Num(attempted));
        w.insert("failed", Json::Num(failed));
        w.insert("end_to_end", Json::Arr(end_to_end));
        w.insert("per_layer", Json::Arr(per_layer));
        workloads.push(w);
    }
    if let Some(path) = &args.json {
        let mut doc = Json::obj();
        doc.insert("environment", env);
        doc.insert("seed", Json::Num(args.seed as f64));
        doc.insert("repeats", Json::Num(args.repeats as f64));
        doc.insert("seconds", Json::Num(args.seconds));
        doc.insert("check", Json::Bool(args.check));
        doc.insert("workloads", Json::Arr(workloads));
        std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    /// The medians agree but the runs scatter by more than the bound, or
    /// the medians differ but the two sets of runs overlap.
    Unresolved,
}

/// Judge set `b` against set `a` for one metric: by how much of `a`'s
/// median `b` is worse (negative when better), and what that means under
/// `bound`.
pub fn judge(a: Summary, b: Summary, better: Better, bound: f64) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let scatter = |s: Summary| (s.max - s.min) / s.median;
    let disjoint = a.max < b.min || b.max < a.min;
    let verdict = if worse_by.abs() <= bound {
        if scatter(a).max(scatter(b)) <= bound {
            Verdict::Within
        } else {
            Verdict::Unresolved
        }
    } else if !disjoint {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    (worse_by, verdict)
}

fn read_set(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn summary_of(m: &Json) -> Option<Summary> {
    let f = |k| m.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: f("median")?,
        min: f("min")?,
        max: f("max")?,
        n: f("n")? as usize,
    })
}

fn find<'a>(items: Option<&'a Json>, name: &str) -> Option<&'a Json> {
    items?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
}

/// Compare two `--json` sets. Returns whether `b` agrees with `a`: no
/// end-to-end median and no bounded workload-level figure worse by more
/// than its bound, every exact metric identical. A metric neither set
/// has (the workload does not measure it) is skipped.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (read_set(a)?, read_set(b)?);
    if a.get("environment") != b.get("environment") {
        println!("warning: the two sets were taken in different environments");
    }
    let mut agree = true;
    println!(
        "{:<18} {:<20} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    let empty = [];
    for wa in a.get("workloads").and_then(Json::as_arr).unwrap_or(&empty) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = find(b.get("workloads"), name) else {
            println!("{name:<18} missing from the second set");
            agree = false;
            continue;
        };
        let bounded = END_TO_END
            .iter()
            .map(|m| ("end_to_end", m.name, m.better, m.bound))
            .chain(
                PER_LAYER
                    .iter()
                    .filter_map(|m| Some(("per_layer", m.name, m.better, m.bound?))),
            );
        for (section, metric, better, bound) in bounded {
            let side = |w: &Json| find(w.get(section), metric).and_then(summary_of);
            let (sa, sb) = match (side(wa), side(wb)) {
                (Some(sa), Some(sb)) => (sa, sb),
                (None, None) => continue,
                _ => {
                    println!("{name:<18} {metric:<20} missing from one set");
                    agree = false;
                    continue;
                }
            };
            let (worse_by, verdict) = judge(sa, sb, better, bound);
            agree &= verdict != Verdict::Worse;
            println!(
                "{name:<18} {metric:<20} {:>12.5} {:>12.5} {:>+8.1}% {:>6.0}%  {verdict:?}",
                sa.median,
                sb.median,
                100.0 * worse_by,
                100.0 * bound
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let side = |w: &Json| find(w.get("per_layer"), m.name).and_then(summary_of);
            match (side(wa), side(wb)) {
                (None, None) => {}
                (Some(sa), Some(sb)) if sa.median == sb.median => {}
                (sa, sb) => {
                    agree = false;
                    println!(
                        "{name:<18} {:<36} exact metric differs: {:?} vs {:?}",
                        m.name,
                        sa.map(|s| s.median),
                        sb.map(|s| s.median)
                    );
                }
            }
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            min,
            max,
            n: 3,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_overlap() {
        let a = s(1.0, 0.98, 1.02);
        assert_eq!(
            judge(a, s(1.05, 1.03, 1.07), Better::Lower, 0.1).1,
            Verdict::Within
        );
        assert_eq!(
            judge(a, s(1.3, 1.25, 1.35), Better::Lower, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(a, s(0.7, 0.65, 0.75), Better::Lower, 0.1).1,
            Verdict::Better
        );
        // higher is better: the same drop is a loss
        assert_eq!(
            judge(a, s(0.7, 0.65, 0.75), Better::Higher, 0.1).1,
            Verdict::Worse
        );
        // medians differ by more than the bound but the runs overlap
        assert_eq!(
            judge(a, s(1.2, 1.0, 1.4), Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        // medians agree but one set scatters by more than the bound
        assert_eq!(
            judge(a, s(1.0, 0.8, 1.2), Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        let (worse_by, _) = judge(a, s(1.3, 1.25, 1.35), Better::Lower, 0.1);
        assert!((worse_by - 0.3).abs() < 1e-12);
    }

    #[test]
    fn result_line_round_trips_through_the_runtime_parser() {
        let r = RunResult {
            attempted: 7,
            failed: 0,
            failures: vec![],
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                summary: s(0.123456789, 0.1, 0.2),
            }],
        };
        let doc = Json::parse(&result_line(&r)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.123456789));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn summaries_survive_the_set_file_format() {
        let j = summary_json("factorize_s", "s", s(2.5, 2.0, 3.0));
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(summary_of(&back), Some(s(2.5, 2.0, 3.0)));
        let list = Json::Arr(vec![back]);
        assert!(find(Some(&list), "factorize_s").is_some());
        assert!(find(Some(&list), "setup_s").is_none());
    }
}
