//! One run of one workload in this process: set up, repeat the
//! operation for `--seconds`, verify, and report either the end-to-end
//! metrics (`--trace 0`) or the per-layer ledger (`--trace 1`).

use crate::metrics::{Layer, END_TO_END, PER_LAYER};
use crate::probes::{distribution_probe, numeric_extras};
use crate::spans::Tracer;
use crate::stats::{median, summarize, Summary};
use crate::workloads::{cluster_op, numeric_op, service_op, setup, Inputs, Outcome, Spec, STEPS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Every N ÷ 8, one set-up, no regime guards: a quick pass through
    /// all code paths and verifiers.
    pub check: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Empty when an operation panicked: the run then has counts only.
    pub metrics: Vec<Metric>,
}

/// Worker threads of every pool in the run: `min(nproc, 4)`.
pub fn nthreads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failures.extend(o.failures.iter().cloned());
    }
}

pub fn run(args: &RunArgs, started: Instant) -> Result<RunResult, String> {
    let RunArgs {
        spec, seed, trace, ..
    } = *args;
    let nthreads = nthreads();
    // Read lazily by the rayon pool on first use, which is below.
    std::env::set_var("RAYON_NUM_THREADS", nthreads.to_string());
    let (shrink, setups) = if args.check { (8, 1) } else { (1, 11) };
    let guards = (!args.check).then_some(&spec.guards);

    let mut tr = Tracer::new();
    tr.enabled = trace;
    let mut layer = Layer::default();
    let mut tally = Tally::default();

    // Set-up is repeated and its median reported (`setup_s`), as the
    // driver asks. Only the first pass pays for process start, page
    // faults and the creation of the pools, so it is reported on its own
    // (`setup_cold_s`): work moved into either shows.
    let mut setup_s = Vec::with_capacity(setups);
    let mut inputs = None;
    for rep in 0..setups {
        let t = if rep == 0 { started } else { Instant::now() };
        inputs = Some(setup(
            spec,
            seed,
            shrink,
            nthreads,
            &mut tr,
            trace.then_some(&mut layer),
        ));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    // Closed loop, one operation at a time. A traced run alternates
    // untraced and traced operations on the same inputs, so the cost of
    // tracing is measured inside one process.
    let mut time_to_solution = [Vec::new(), Vec::new()];
    let mut factorize = Vec::new();
    let loop_start = Instant::now();
    for op in 0u32.. {
        let traced = trace && op % 2 == 1;
        tr.enabled = traced;
        tr.run_id = op;
        let l = traced.then_some(&mut layer);
        // A panic inside the library is a failed operation, not a lost
        // run: the counts are reported, without numbers. The panic's
        // message is already on stderr.
        let o = catch_unwind(AssertUnwindSafe(|| match &inputs {
            Inputs::Numeric { problem, x_true } => {
                numeric_op(problem, x_true, None, guards, &mut tr, l)
            }
            Inputs::Service(inp) => service_op(inp, guards, &mut tr, l),
            Inputs::Cluster(inp) => cluster_op(inp, guards, &mut tr, l),
        }));
        let Ok(o) = o else {
            tally.failures.push("the operation panicked".into());
            return Ok(RunResult {
                attempted: tally.attempted + 1,
                failed: tally.failed + 1,
                failures: tally.failures,
                metrics: Vec::new(),
            });
        };
        tally.add(&o);
        time_to_solution[usize::from(traced)].push(o.time_to_solution);
        if traced == trace {
            factorize.push(o.factorize);
        }
        let enough = if trace { op >= 1 } else { true };
        if enough && loop_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut metrics = Vec::new();
    if !trace {
        let rss = peak_rss_mb()?;
        let samples = |name: &str| match name {
            "time_to_solution_s" => summarize(&time_to_solution[0]),
            "factorize_s" => summarize(&factorize),
            "peak_rss_mb" => summarize(&[rss]),
            "setup_s" => summarize(&setup_s),
            other => unreachable!("{other} is not an end-to-end metric"),
        };
        for m in END_TO_END {
            metrics.push(Metric {
                name: m.name,
                unit: m.unit,
                summary: samples(m.name),
            });
        }
        return Ok(RunResult {
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures,
            metrics,
        });
    }

    // The traced run's probes: the kernels and the engine behind the
    // workload's factorization, set against the wall time of one such
    // factorization (one step's on the service's second geometry).
    tr.enabled = true;
    tr.run_id += 1;
    let factorize = median(&factorize);
    match &inputs {
        Inputs::Numeric { problem, .. } => numeric_extras(problem, factorize, &mut tr, &mut layer),
        Inputs::Service(inp) => numeric_extras(
            &inp.geometry[1],
            factorize / STEPS as f64,
            &mut tr,
            &mut layer,
        ),
        Inputs::Cluster(inp) => {
            numeric_extras(&inp.dist, factorize, &mut tr, &mut layer);
            distribution_probe(inp, &mut tr, &mut layer);
        }
    }
    layer.push("setup_cold_s", setup_s[0]);
    layer.push(
        "trace_overhead_share",
        median(&time_to_solution[1]) / median(&time_to_solution[0]) - 1.0,
    );
    layer.push(
        "ops_failed_share",
        tally.failed as f64 / tally.attempted as f64,
    );

    let dump = format!("TRACE_pipeline_{}.json", spec.name);
    std::fs::write(&dump, tr.to_json().to_string()).map_err(|e| format!("{dump}: {e}"))?;

    for m in PER_LAYER {
        let summary = match layer.summary(m.name) {
            Some(summary) if spec.kind.measures(m.on) => summary,
            None if !spec.kind.measures(m.on) => Summary::ABSENT,
            Some(_) => return Err(format!("{} is not a metric of {}", m.name, spec.name)),
            None => return Err(format!("per-layer metric {} was not measured", m.name)),
        };
        metrics.push(Metric {
            name: m.name,
            unit: m.unit,
            summary,
        });
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
    })
}
