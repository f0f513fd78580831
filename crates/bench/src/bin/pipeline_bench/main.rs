//! `pipeline_bench` — the repository's benchmark: point cloud → verified
//! solve on five named workloads, with a per-layer ledger under the
//! end-to-end numbers. `BENCHMARK.json` at the repository root is its
//! definition; `README.md` beside this file says why each workload and
//! metric exists and how they interact.
//!
//! ```text
//! pipeline_bench --workload W --seed N --seconds S --trace 0|1 [--check]
//!     one run in this process; the last line of stdout is the result
//! pipeline_bench [--workload W] [--seed N] [--seconds S] [--repeats R]
//!                [--check] [--json PATH]
//!     every workload in its own child process: R untraced runs, then
//!     one traced run; prints every metric, writes the set to PATH
//! pipeline_bench --compare A.json B.json
//!     compare two sets under the bounds of BENCHMARK.json
//! pipeline_bench --definition
//!     print BENCHMARK.json as the metric and workload tables define it
//! ```

mod metrics;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  pipeline_bench --workload W --seed N --seconds S --trace 0|1 [--check]
  pipeline_bench [--workload W] [--seed N] [--seconds S] [--repeats R] [--check] [--json PATH]
  pipeline_bench --compare A.json B.json
  pipeline_bench --definition
workloads: sparse-cloud fine-tiles high-rank timestep-service virtual-cluster";

struct Cli {
    workload: Option<&'static workloads::Spec>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeats: usize,
    check: bool,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    definition: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2024,
        seconds: None,
        trace: None,
        repeats: 3,
        check: false,
        json: None,
        compare: None,
        definition: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = workloads::SPECS.iter().find(|s| s.name == name);
                cli.workload = Some(spec.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0..=3600"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeats" => {
                cli.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if !(1..=100).contains(&cli.repeats) {
                    return Err(format!("--repeats {} outside 1..=100", cli.repeats));
                }
            }
            "--check" => cli.check = true,
            "--json" => cli.json = Some(value()?.into()),
            "--compare" => cli.compare = Some((value()?.into(), value()?.into())),
            "--definition" => cli.definition = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `--check` runs one operation per run (two when traced); otherwise
    // a run measures for as long as BENCHMARK.json's `run_seconds`.
    let run_seconds = f64::from(metrics::RUN_SECONDS);
    let seconds = cli
        .seconds
        .unwrap_or(if cli.check { 0.0 } else { run_seconds });

    let ok = if cli.definition {
        println!("{}", metrics::definition());
        Ok(true)
    } else if let Some((a, b)) = &cli.compare {
        report::compare(a, b)
    } else if let (Some(spec), Some(trace)) = (cli.workload, cli.trace) {
        let args = run::RunArgs {
            spec,
            seed: cli.seed,
            seconds,
            trace,
            check: cli.check,
        };
        run::run(&args, started).map(|result| {
            for f in &result.failures {
                eprintln!("{}: FAILED: {f}", spec.name);
            }
            report::print_table(
                &format!(
                    "{} seed {} trace {}: {} operations attempted, {} failed",
                    spec.name,
                    cli.seed,
                    u8::from(trace),
                    result.attempted,
                    result.failed
                ),
                &result.metrics,
            );
            println!("{}", report::result_line(&result));
            result.failed == 0
        })
    } else if cli.trace.is_some() {
        Err("--trace needs --workload".to_string())
    } else {
        report::suite(&report::SuiteArgs {
            specs: match cli.workload {
                Some(spec) => vec![spec],
                None => workloads::SPECS.iter().collect(),
            },
            seed: cli.seed,
            seconds,
            repeats: if cli.check { 1 } else { cli.repeats },
            check: cli.check,
            json: cli.json,
        })
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::from(3)
        }
    }
}
