//! Run-report equivalence: the trace-derived facts of one fault-free,
//! traced, 4-rank `DiamondDistribution` run, as `RunOutcome` reports them.
//! The distributed engine runs on virtual time (fixed costs per task and
//! per message), so every value is deterministic. Pinned are the JSON
//! `trace_summary` section (every key but `label`, as f64 bits), the
//! `Display` view's `trace:` line and the plan's model flops. A change to
//! how the report derives these facts must leave every line as it is.
//!
//! On a mismatch the assertion prints each line that moved and then the
//! whole table.

use hicma_parsec::cholesky::{FactorConfig, Session};
use hicma_parsec::distribution::DiamondDistribution;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::runtime::obs::json::Json;
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};
use std::fmt::Write as _;

/// The RBF-structured SPD fixture of `tests/schedule_goldens.rs`:
/// n = 144, b = 24 (NT = 6), accuracy 1e-8.
fn rbf_fixture() -> TlrMatrix {
    let (n, corr, phase) = (144usize, 6.0, 7.0 / 97.0);
    let dense = Matrix::from_fn(n, n, |i, j| {
        let d = (i as f64 - j as f64) / (n as f64 / corr);
        let v = (-d * d).exp() * (1.0 + 0.05 * ((i + j) as f64 * 0.01 + phase).sin());
        if i == j {
            v + 1e-3
        } else {
            v
        }
    });
    TlrMatrix::from_dense(&dense, 24, &CompressionConfig::with_accuracy(1e-8))
}

/// One `path bits` line per number under `v`, in document order.
fn flatten(path: &str, v: &Json, out: &mut String) {
    match v {
        Json::Num(x) => writeln!(out, "{path} {:#018x}", x.to_bits()).unwrap(),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{path}[{i}]"), item, out);
            }
        }
        Json::Obj(fields) => {
            for (k, item) in fields {
                flatten(&format!("{path}.{k}"), item, out);
            }
        }
        other => writeln!(out, "{path} {other:?}").unwrap(),
    }
}

fn actual() -> String {
    let mut fcfg = FactorConfig::with_accuracy(1e-8);
    fcfg.collect_trace = true;
    let out = Session::distributed(fcfg, 4, &DiamondDistribution::new(4))
        .run(&mut rbf_fixture())
        .expect("the fixture is SPD");
    let doc = out.to_json();
    let summary = doc.get("trace_summary").expect("a traced run carries a trace summary");
    let Json::Obj(fields) = summary else { panic!("trace_summary is an object") };
    let mut table = String::new();
    for (k, v) in fields.iter().filter(|(k, _)| k != "label") {
        flatten(&format!("trace_summary.{k}"), v, &mut table);
    }
    let text = out.to_string();
    let line = text.lines().find(|l| l.trim_start().starts_with("trace:"));
    writeln!(table, "display {}", line.expect("a traced run prints a trace line").trim()).unwrap();
    writeln!(table, "flops_executed {:#018x}", out.flops_executed.to_bits()).unwrap();
    table
}

const GOLDEN: &str = "\
trace_summary.makespan_s 0x403d000000000000
trace_summary.breakdown_s.potrf 0x4018000000000000
trace_summary.breakdown_s.trsm 0x402e000000000000
trace_summary.breakdown_s.syrk 0x402e000000000000
trace_summary.breakdown_s.gemm 0x4034000000000000
trace_summary.breakdown_s.other 0x0000000000000000
trace_summary.busy_s[0] 0x402c000000000000
trace_summary.busy_s[1] 0x4030000000000000
trace_summary.busy_s[2] 0x402c000000000000
trace_summary.busy_s[3] 0x4028000000000000
trace_summary.idle_fraction[0] 0x3fe08d3dcb08d3dc
trace_summary.idle_fraction[1] 0x3fdcb08d3dcb08d4
trace_summary.idle_fraction[2] 0x3fe08d3dcb08d3dc
trace_summary.idle_fraction[3] 0x3fe2c234f72c2350
trace_summary.load_imbalance 0x3ff2492492492492
trace_summary.total_queue_wait_s 0x0000000000000000
trace_summary.critical_path_s 0x4030000000000000
trace_summary.efficiency_vs_critical_path 0x3fe1a7b9611a7b96
display trace: makespan 29.000000s, critical path 16.000000s (efficiency 0.552), imbalance 1.143, mean idle 0.517, queue wait 0.000000s
flops_executed 0x412a631000000000
";

#[test]
fn traced_distributed_report_matches_the_recorded_values() {
    let actual = actual();
    if actual != GOLDEN {
        let golden: Vec<&str> = GOLDEN.lines().collect();
        let moved: Vec<&str> = actual.lines().filter(|l| !golden.contains(l)).collect();
        panic!("report drift:\n{}\ntable now:\n{actual}", moved.join("\n"));
    }
}
