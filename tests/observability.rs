//! Observability-layer integration and property tests: trace invariants
//! under adversarial timestamps, Chrome-trace export round-trips, the
//! shared exporter over both execution engines, the engine's one
//! observation channel, the one run report (`RunOutcome`) and its
//! exporters, and crash/recovery event accounting on the fault-tolerant
//! distributed runtime.

use hicma_parsec::cholesky::lorapo::{hicma_parsec_config, lorapo_config};
use hicma_parsec::cholesky::simulate::{
    des_tasks, simulate_cholesky, simulate_cholesky_faulty, SimReport,
};
use hicma_parsec::cholesky::{
    build_cholesky_dag, CholeskySpace, DagConfig, FactorConfig, RunOutcome, Session,
    SolveService, TenantConfig,
};
use hicma_parsec::distribution::{DiamondDistribution, LorapoHybrid, TileDistribution};
use hicma_parsec::runtime::graph::{DataRef, TaskClass};
use hicma_parsec::runtime::obs::json::Json;
use hicma_parsec::runtime::obs::registry::{class_slot, NCLASSES};
use hicma_parsec::runtime::obs::{chrome_trace_json, chrome_trace_json_with_events, RunEvent};
use hicma_parsec::runtime::trace::{load_imbalance, ClassBreakdown, TaskRecord, Trace};
use hicma_parsec::runtime::{
    des, Counter, Engine, EngineConfig, FaultPlan, Gauge, MachineModel, Observe, Registry,
    TaskEvent,
};
use hicma_parsec::tlr::{CompressionConfig, RankSnapshot, SyntheticRankModel, TlrMatrix};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic pseudo-random trace, including (with probability ~1/8)
/// adversarially reversed spans (`end < start`) and queue times after
/// start — the shapes crash re-execution and clock skew produce.
fn seeded_trace(seed: u64, ntasks: usize, nprocs: usize) -> Trace {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(12345);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let classes =
        [TaskClass::Potrf, TaskClass::Trsm, TaskClass::Syrk, TaskClass::Gemm, TaskClass::Other];
    let mut trace = Trace::default();
    for t in 0..ntasks {
        let start = (next() % 10_000) as f64 * 1e-3;
        let span = (next() % 1_000) as f64 * 1e-3;
        let reversed = next() % 8 == 0;
        let end = if reversed { start - span } else { start + span };
        let queued = if next() % 8 == 0 { start + 0.5 } else { start - (next() % 100) as f64 * 1e-3 };
        trace.push_record(TaskRecord {
            task: t,
            class: classes[(next() % 5) as usize],
            proc: (next() as usize) % nprocs,
            data: Some(DataRef { i: t, j: t / 2 }),
            queued,
            start,
            end,
        });
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The per-class breakdown is exactly the sum of the clamped span
    /// durations — no time is invented or lost, even for reversed spans.
    #[test]
    fn breakdown_total_is_sum_of_clamped_durations(seed in 0u64..1000) {
        let trace = seeded_trace(seed, 1 + (seed as usize % 60), 4);
        let sum: f64 = trace.records.iter().map(|r| r.duration()).sum();
        let total = trace.breakdown().total();
        prop_assert!((total - sum).abs() <= 1e-12 * sum.max(1.0), "{total} vs {sum}");
        // And per-proc busy partitions the same total.
        let busy: f64 = trace.busy_per_proc(4).iter().sum();
        prop_assert!((busy - sum).abs() <= 1e-12 * sum.max(1.0));
    }

    /// Idle fractions stay in [0, 1] whatever the trace looks like, and
    /// the trace's derived metrics stay finite.
    #[test]
    fn idle_fractions_in_unit_interval(seed in 0u64..1000) {
        let nprocs = 1 + (seed as usize % 7);
        let trace = seeded_trace(seed, 1 + (seed as usize % 40), nprocs);
        for f in trace.idle_fraction(nprocs) {
            prop_assert!((0.0..=1.0).contains(&f), "idle fraction {f} out of range");
        }
        let (makespan, imbalance) = (trace.makespan(), trace.load_imbalance(nprocs));
        prop_assert!(makespan.is_finite() && makespan >= 0.0);
        prop_assert!(imbalance.is_finite() && imbalance >= 1.0);
        let wait = trace.total_queue_wait();
        prop_assert!(wait.is_finite() && wait >= 0.0);
    }

    /// The Chrome-trace export is valid JSON that round-trips through the
    /// parser with monotone non-decreasing timestamps and non-negative
    /// durations — what Perfetto requires to load a file.
    #[test]
    fn chrome_trace_round_trips(seed in 0u64..1000) {
        let n = 1 + (seed as usize % 50);
        let trace = seeded_trace(seed, n, 3);
        let text = chrome_trace_json(&trace, "prop");
        let doc = Json::parse(&text).expect("exporter must emit valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        prop_assert_eq!(spans.len(), n, "one X event per record");
        let mut last_ts = f64::NEG_INFINITY;
        for e in spans {
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
            prop_assert!(ts >= last_ts, "timestamps must be sorted: {ts} after {last_ts}");
            prop_assert!(ts >= 0.0 && dur >= 0.0, "ts {ts} dur {dur}");
            last_ts = ts;
        }
    }
}

/// Regression: a span whose `end` precedes its `start` (crash
/// re-execution under skewed clocks) counts as zero-length everywhere
/// instead of subtracting busy time or producing idle fractions > 1.
#[test]
fn reversed_span_is_clamped_not_subtracted() {
    let span = |task, start, end| TaskRecord {
        task,
        class: TaskClass::Gemm,
        proc: 0,
        data: None,
        queued: start,
        start,
        end,
    };
    let mut trace = Trace::default();
    trace.push_record(span(0, 5.0, 2.0)); // reversed
    trace.push_record(span(1, 2.0, 3.0)); // normal
    assert_eq!(trace.records[0].duration(), 0.0);
    assert_eq!(trace.breakdown().total(), 1.0);
    assert_eq!(trace.makespan(), 3.0, "makespan is the maximum end time");
    let idle = trace.idle_fraction(1);
    assert!((0.0..=1.0).contains(&idle[0]));
}

/// The empty trace is a fixed point: zero makespan, empty breakdown,
/// fully idle workers, and a parseable (if boring) Chrome trace.
#[test]
fn empty_trace_exports_cleanly() {
    let trace = Trace::default();
    assert_eq!(trace.makespan(), 0.0);
    assert_eq!(trace.breakdown().total(), 0.0);
    assert_eq!(trace.idle_fraction(3), vec![1.0; 3]);
    let doc = Json::parse(&chrome_trace_json(&trace, "empty")).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) != Some("X")));
}

/// One exporter, both engines: a DES run's virtual-clock trace feeds the
/// same Chrome-trace writer as the wall-clock path, and its fold reads
/// the simulator's own report.
#[test]
fn des_trace_uses_the_same_exporter() {
    let snap = SyntheticRankModel::from_application(16, 256, 3.7e-4, 1e-4).snapshot();
    let cfg = hicma_parsec_config(MachineModel::shaheen_ii(), 4);
    let mut trace = Trace::default();
    let r =
        simulate_cholesky_faulty(&snap, &cfg, &FaultPlan::none(), 0.0, Some(&mut trace)).unwrap();
    assert_eq!(trace.records.len(), r.dag_tasks, "DES must trace every task");

    let doc = Json::parse(&chrome_trace_json(&trace, "des")).expect("valid Chrome trace");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let nspans = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count();
    assert_eq!(nspans, trace.records.len());

    assert!(trace.makespan() > 0.0);
    assert!(r.comm.messages > 0, "4 ranks must communicate");
    let efficiency = r.roofline_efficiency();
    assert!(efficiency > 0.0 && efficiency <= 1.0);
    assert_eq!(trace.busy_per_proc(4).len(), 4);
    // The simulator keeps its busy ledger in place; the trace's fold must
    // read the same bits.
    assert_eq!(trace.makespan().to_bits(), r.factorization_seconds.to_bits());
    assert_eq!(trace.load_imbalance(4).to_bits(), r.load_imbalance.to_bits());
    assert_eq!(breakdown_bits(&trace.breakdown()), breakdown_bits(&r.breakdown));
}

fn breakdown_bits(b: &ClassBreakdown) -> [u64; 5] {
    [b.potrf, b.trsm, b.syrk, b.gemm, b.other].map(f64::to_bits)
}

/// The simulator's in-place ledger is the fold of the trace it would
/// record: on the schedule goldens' snapshot and machine (NT 32, 4 nodes
/// of 2 cores), fault-free, with one crash and with one store corruption
/// (whose re-executed tasks retire twice), the makespan, the busy seconds
/// per process and per class, and the load imbalance equal the recorded
/// trace's bit for bit, at the DES and through `SimReport`; and recording
/// moves no bit of either report.
#[test]
fn des_ledger_equals_the_fold_of_its_trace() {
    let snap = SyntheticRankModel::from_application(32, 512, 2e-3, 1e-4).snapshot();
    let machine = MachineModel { cores_per_node: 2, ..MachineModel::shaheen_ii() };
    let nodes = 4;
    // The goldens' priced faults, timed from the fault-free makespan `t`.
    let faults = |t: f64| {
        [
            ("none", FaultPlan::none()),
            ("crash", FaultPlan::new(11).with_crash(1, 0.5 * t)),
            ("corrupt", FaultPlan::new(11).with_store_corruption(2, 1, 0, 0.4 * t)),
        ]
    };
    // `SimReport` minus its one wall-clock field: equal text is equal bits.
    let sim_bits =
        |r: &SimReport| format!("{:?}", SimReport { analysis_seconds: 0.0, ..r.clone() });
    let hicma = hicma_parsec_config(machine.clone(), nodes);
    let lorapo = lorapo_config(machine.clone(), nodes);
    for cfg in [&hicma, &lorapo] {
        let t = simulate_cholesky(&snap, cfg).factorization_seconds;
        for (fault, plan) in faults(t) {
            let what = format!("{} {fault}", cfg.plan.name());
            let mut trace = Trace::default();
            let traced =
                simulate_cholesky_faulty(&snap, cfg, &plan, 0.75 * t, Some(&mut trace)).unwrap();
            let plain = simulate_cholesky_faulty(&snap, cfg, &plan, 0.75 * t, None).unwrap();
            assert_eq!(sim_bits(&traced), sim_bits(&plain), "{what}: recording moved a bit");
            assert_eq!(fault == "none", traced.reexecuted_tasks == 0, "{what}");
            assert_eq!(trace.records.len(), traced.dag_tasks + traced.reexecuted_tasks, "{what}");
            let makespan = trace.makespan().to_bits();
            assert_eq!(traced.factorization_seconds.to_bits(), makespan, "{what}");
            assert_eq!(traced.load_imbalance.to_bits(), trace.load_imbalance(nodes).to_bits());
            assert_eq!(breakdown_bits(&traced.breakdown), breakdown_bits(&trace.breakdown()));
        }
    }

    // The DES itself, on the Lorapo preset's mapping (owner-computes on the
    // hybrid distribution over the untrimmed space): its per-process busy
    // seconds, which `SimReport` reduces to the imbalance.
    let space =
        CholeskySpace::new(&snap, &DagConfig { trimmed: false, rank_cap: lorapo.rank_cap });
    let owner = LorapoHybrid::new(nodes);
    let tasks = des_tasks(&space, &machine, |d| owner.owner(d.i, d.j));
    let run = |plan: &FaultPlan, delay: f64, trace: Option<&mut Trace>| {
        des::simulate(&space, &tasks, &machine, nodes, plan, delay, trace).unwrap()
    };
    let t = run(&FaultPlan::none(), 0.0, None).makespan;
    for (fault, plan) in faults(t) {
        let mut trace = Trace::default();
        let traced = run(&plan, 0.75 * t, Some(&mut trace));
        let plain = run(&plan, 0.75 * t, None);
        assert_eq!(format!("{traced:?}"), format!("{plain:?}"), "{fault}");
        assert_eq!(fault == "none", traced.reexecuted == 0, "{fault}");
        assert_eq!(trace.records.len(), space.len() + traced.reexecuted);
        assert_eq!(traced.makespan.to_bits(), trace.makespan().to_bits());
        let busy = |b: &[f64]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(busy(&traced.busy_per_proc), busy(&trace.busy_per_proc(nodes)));
        assert_eq!(breakdown_bits(&traced.breakdown), breakdown_bits(&trace.breakdown()));
        let imbalance = load_imbalance(&traced.busy_per_proc).to_bits();
        assert_eq!(imbalance, trace.load_imbalance(nodes).to_bits());
    }
}

/// A traced fault-tolerant run with injected crashes records a matching
/// Crash/Recovery event pair, in order, with consistent payloads.
#[test]
fn ft_run_records_matching_crash_recovery_pairs() {
    let mut m = gaussian_matrix(120, 8.0);
    let fcfg = FactorConfig::with_accuracy(1e-8);
    let plan = FaultPlan::new(9).with_drops(0.1).with_crash(1, 10.0).with_crash(3, 30.0);
    let run = Session::distributed(fcfg, 6, &DiamondDistribution::new(6))
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect("two crashes among six ranks are survivable");
    let reg = run.registry.as_ref().expect("every run reports its registry");

    assert_eq!(reg.counter(Counter::Crashes) * 2, run.events.len() as u64);
    assert!(!run.events.is_empty(), "scheduled crashes must be recorded");
    let mut last_at = f64::NEG_INFINITY;
    for pair in run.events.chunks(2) {
        let RunEvent::Crash { rank, at: crash_at } = pair[0] else {
            panic!("even event must be a crash, got {:?}", pair[0]);
        };
        let RunEvent::Recovery { failed, survivor, at: rec_at } = pair[1] else {
            panic!("odd event must be a recovery, got {:?}", pair[1]);
        };
        assert_eq!(failed, rank, "recovery must reference the crashed rank");
        assert_ne!(survivor, rank, "a dead rank cannot recover itself");
        assert!(crash_at <= rec_at, "recovery cannot precede its crash");
        assert!(last_at <= crash_at, "events must be time-ordered");
        last_at = rec_at;
        // Events serialize for the metrics dump.
        let j = pair[0].to_json().to_string();
        assert!(j.contains("crash"), "{j}");
    }
    let comm = run.comm.expect("distributed runs count communication");
    let first_sends = comm.messages - reg.counter(Counter::Retransmissions);
    assert!(first_sends > 0, "first sends count too");
    assert!(comm.bytes >= 8 * first_sends, "every first send carries at least one f64");
}

/// A 1D Gaussian-kernel SPD operator (`width` = correlation length in
/// units of `n`), compressed at ε = 1e-8 into 24-row tiles.
fn gaussian_matrix(n: usize, width: f64) -> TlrMatrix {
    let gen = |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / width);
        (-d * d).exp() + if i == j { 1e-3 } else { 0.0 }
    };
    TlrMatrix::from_generator(n, 24, gen, &CompressionConfig::with_accuracy(1e-8))
}

/// The RBF operator of two Hilbert-ordered virus bodies at ε = 1e-6,
/// b = 72 — the acceptance tests' stand-in for the paper's workload.
fn rbf_matrix() -> TlrMatrix {
    use hicma_parsec::mesh::geometry::{virus_population, VirusConfig};
    use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
    use hicma_parsec::mesh::GaussianRbf;

    let vcfg = VirusConfig { points_per_virus: 180, ..Default::default() };
    let raw = virus_population(2, &vcfg, 42);
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    let kernel = GaussianRbf::from_min_distance(&points);
    let ccfg = CompressionConfig::with_accuracy(1e-6);
    TlrMatrix::from_generator(points.len(), 72, kernel.generator(&points), &ccfg)
}

/// End-to-end acceptance: a traced shared-memory factorization of an
/// RBF-structured problem exports a valid Chrome trace and a run report
/// with per-class, per-worker, and rank-evolution content.
#[test]
fn traced_rbf_factorization_exports_chrome_trace_and_metrics() {
    let mut a = rbf_matrix();
    let mut fcfg = FactorConfig::with_accuracy(1e-6);
    fcfg.nthreads = 2;
    fcfg.collect_trace = true;
    let out = Session::shared(fcfg).run(&mut a).expect("RBF operator is SPD");
    let report = &out.report;
    let trace = out.trace.as_ref().expect("collect_trace must trace");

    // Chrome trace: parseable, one span per executed task, named by class
    // and tile coordinates.
    assert_eq!(trace.records.len(), report.dag_tasks);
    let text = chrome_trace_json(trace, "rbf");
    let doc = Json::parse(&text).expect("valid Chrome trace JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let spans: Vec<&Json> =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
    assert_eq!(spans.len(), report.dag_tasks);
    assert!(spans
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str).is_some_and(|s| s.starts_with("POTRF"))));

    // Run report: class breakdown, worker occupancy, rank evolution.
    let doc = assert_report_round_trips(&out);
    assert_eq!(doc.get("engine").and_then(Json::as_str), Some("shared"));
    let summary = doc.get("trace_summary").expect("traced runs carry a trace summary");
    let num = |key: &str| summary.get(key).and_then(Json::as_f64).unwrap();
    let breakdown = summary.get("breakdown_s").unwrap();
    assert!(breakdown.get("potrf").and_then(Json::as_f64).unwrap() > 0.0);
    let idle = summary.get("idle_fraction").and_then(Json::as_arr).unwrap();
    assert_eq!(idle.len(), 2);
    assert!(idle.iter().all(|f| (0.0..=1.0).contains(&f.as_f64().unwrap())));
    assert!(num("load_imbalance") >= 1.0);
    let efficiency = num("efficiency_vs_critical_path");
    assert!(efficiency > 0.0 && efficiency <= 1.0);
    let cp = out.critical_path_seconds.expect("a trace prices the critical path");
    assert!(cp > 0.0 && cp <= trace.makespan() + 1e-12 && out.flops_executed > 0.0);
    assert!(out.rank_evolution.events() > 0, "GEMM recompressions must be logged");
    assert!(out.rank_evolution.mean_in() >= out.rank_evolution.mean_out());
    // One clock: the report's breakdown (the registry's per-class sums)
    // and the spans are the same readings.
    let (busy, spans) = (report.breakdown.total(), trace.breakdown().total());
    assert!((busy - spans).abs() <= 1e-9 * spans, "breakdown {busy} vs spans {spans}");
    assert!(doc.get("rank_evolution").is_some());
    let table = out.to_string();
    assert!(table.contains("recompressions") && table.contains("critical path"), "{table}");
}

/// `RunOutcome::to_json` carries the schema version and parses back to
/// the tree it was written from.
fn assert_report_round_trips(out: &RunOutcome) -> Json {
    let doc = out.to_json();
    let back = Json::parse(&doc.to_string()).expect("the report is valid JSON");
    assert_eq!(back, doc, "report JSON must round-trip");
    assert_eq!(
        back.get("schema").and_then(Json::as_f64),
        Some(f64::from(RunOutcome::SCHEMA_VERSION))
    );
    for key in ["report", "registry"] {
        assert!(back.get(key).is_some(), "every run reports `{key}`");
    }
    back
}

/// The same report, same schema, from the other two producers: a
/// distributed run under a fault layer and a `SolveService` request.
#[test]
fn run_report_round_trips_for_distributed_and_service_runs() {
    let dist = DiamondDistribution::new(4);
    let ft = FaultPlan::new(9).with_drops(0.1).with_crash(1, 10.0);
    let mut fcfg = FactorConfig::with_accuracy(1e-6);
    fcfg.collect_trace = true;
    let out = Session::distributed(fcfg, 4, &dist)
        .with_fault_layer(&ft)
        .with_drift(MachineModel::shaheen_ii())
        .run(&mut rbf_matrix())
        .expect("one crash among four ranks is survivable");
    let doc = assert_report_round_trips(&out);
    assert_eq!(doc.get("engine").and_then(Json::as_str), Some("distributed"));
    let counters = doc.get("registry").and_then(|r| r.get("counters"));
    let crashes = counters.and_then(|c| c.get("crashes")).and_then(Json::as_f64);
    assert_eq!(crashes, Some(1.0));
    assert!(doc.get("faults").is_none(), "fault events live in the registry alone");
    assert_eq!(doc.get("events").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    for key in ["comm", "virtual_makespan_s", "trace_summary", "drift"] {
        assert!(doc.get(key).is_some(), "distributed FT run reports `{key}`");
    }
    let prom = out.to_prometheus();
    assert!(prom.contains("\ntlr_registry_counters_crashes 1\n"), "{prom}");
    assert!(prom.contains("\ntlr_drift_classes_ratio{i=\"3\"} "), "{prom}");
    let comm = out.comm.expect("distributed runs count communication");
    assert!(prom.contains(&format!("\ntlr_comm_messages {}\n", comm.messages)), "{prom}");
    assert!(out.to_string().contains("faults: 1 crashes"), "{out}");

    let service = SolveService::new(2);
    service.register_tenant("t", TenantConfig { max_in_flight: 1, memory_budget_bytes: u64::MAX });
    let mut a = rbf_matrix();
    let rhs = vec![1.0; a.n()];
    let solved = service
        .factorize_and_solve("t", &FactorConfig::with_accuracy(1e-6), &mut a, Some(&rhs))
        .expect("admitted");
    let doc = assert_report_round_trips(&solved.run);
    let misses = doc
        .get("registry")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("plan_cache_misses"))
        .and_then(Json::as_f64);
    assert_eq!(misses, Some(1.0), "the service's cache activity lands in the report");
    assert!(doc.get("comm").is_none() && doc.get("faults").is_none());
}

/// The finite numeric and boolean leaves of a report, each keyed by the
/// series that names it in Prometheus text: the object keys joined with
/// `_` under `tlr`, and the position in each enclosing array as a label
/// (`i`, then `j`).
fn report_leaves(v: &Json, name: &str, labels: &[String], out: &mut Vec<(String, u64)>) {
    let series = || match labels {
        [] => name.to_string(),
        _ => format!("{name}{{{}}}", labels.join(",")),
    };
    match v {
        Json::Null | Json::Str(_) => {}
        Json::Bool(b) => out.push((series(), f64::from(u8::from(*b)).to_bits())),
        Json::Num(x) if x.is_finite() => out.push((series(), x.to_bits())),
        Json::Num(_) => {}
        Json::Arr(items) => {
            let axis = ["i", "j"][labels.len()];
            for (n, it) in items.iter().enumerate() {
                let inner = [labels, &[format!("{axis}=\"{n}\"")]].concat();
                report_leaves(it, name, &inner, out);
            }
        }
        Json::Obj(fields) => {
            for (k, it) in fields {
                assert!(k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'), "{k}");
                report_leaves(it, &format!("{name}_{k}"), labels, out);
            }
        }
    }
}

/// Prometheus is a view of the report's JSON: its samples are exactly
/// the finite numeric and boolean leaves of `to_json()` — same count,
/// same series, and each printed value parses back to its leaf's bits —
/// on a traced 4-rank distributed run that survives a crash and on a
/// traced shared run, both with a drift report.
#[test]
fn prometheus_samples_are_the_reports_numeric_leaves() {
    let mut fcfg = FactorConfig::with_accuracy(1e-6);
    fcfg.collect_trace = true;
    let dist = DiamondDistribution::new(4);
    let ft = FaultPlan::new(9).with_crash(1, 10.0);
    let distributed = Session::distributed(fcfg, 4, &dist)
        .with_fault_layer(&ft)
        .with_drift(MachineModel::shaheen_ii())
        .run(&mut rbf_matrix())
        .expect("one crash among four ranks is survivable");
    assert_eq!(distributed.registry.as_ref().map(|r| r.counter(Counter::Crashes)), Some(1));
    let shared = Session::shared(fcfg)
        .with_drift(MachineModel::shaheen_ii())
        .run(&mut rbf_matrix())
        .expect("RBF operator is SPD");
    for out in [distributed, shared] {
        let doc = out.to_json();
        for key in ["trace_summary", "rank_evolution", "registry", "drift"] {
            assert!(doc.get(key).is_some(), "the run reports `{key}`");
        }
        let mut want = Vec::new();
        report_leaves(&doc, "tlr", &[], &mut want);
        let prom = out.to_prometheus();
        let mut got: Vec<(String, u64)> = prom
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let (series, value) = l.rsplit_once(' ').expect("`series value`");
                (series.to_string(), value.parse::<f64>().expect("a number").to_bits())
            })
            .collect();
        assert_eq!(got.len(), want.len(), "one sample per leaf");
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }
}

/// Counts what the engine reports and checks every span is ordered on
/// the one clock the engine reads.
#[derive(Default)]
struct CountingSink {
    enqueued: AtomicU64,
    retired: AtomicU64,
    elided: AtomicU64,
    steals: AtomicU64,
    reversed: AtomicU64,
}

impl Observe for CountingSink {
    fn observe(&self, event: TaskEvent) {
        let bump = |c: &AtomicU64, by: bool| c.fetch_add(u64::from(by), Ordering::Relaxed);
        match event {
            TaskEvent::Enqueue { .. } => bump(&self.enqueued, true),
            TaskEvent::Retire { start, end, .. } => {
                bump(&self.reversed, end < start);
                bump(&self.retired, true)
            }
            TaskEvent::Elide { .. } => bump(&self.elided, true),
            TaskEvent::Steal { .. } => bump(&self.steals, true),
        };
    }
}

/// The engine reports each task exactly once — one `Enqueue`, one `Retire`
/// with `start ≤ end` — and every sink of the channel sees the same
/// events: the registry's counters equal the counting sink's, on the
/// plain Cholesky DAG.
#[test]
fn engine_reports_each_task_once_to_every_sink() {
    // A fully populated 10 × 10 tile structure.
    let (nt, b) = (10, 32);
    let ranks = (0..nt * nt).map(|k| if k / nt == k % nt { b } else { 4 }).collect();
    let graph = build_cholesky_dag(&RankSnapshot::new(nt, b, ranks), &DagConfig::default()).graph;
    let (sink, registry) = (CountingSink::default(), Registry::new(3));
    Engine::new(&graph)
        .run(&EngineConfig::new(3).with_obs((&registry, &sink)), |_, _| {
            std::hint::black_box(());
        })
        .unwrap();
    let n = graph.len() as u64;
    let seen = |c: &AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!((seen(&sink.enqueued), seen(&sink.retired)), (n, n));
    assert_eq!(seen(&sink.elided), 0, "without a hook every task runs");
    assert_eq!(seen(&sink.reversed), 0, "start <= end on one clock");
    let snap = registry.snapshot();
    assert_eq!(snap.counter(Counter::TasksEnqueued), n);
    assert_eq!(snap.counter(Counter::TasksExecuted), n);
    assert_eq!(snap.counter(Counter::Steals), seen(&sink.steals));
    let timed: u64 = snap.class_duration_ns.iter().map(|h| h.count).sum();
    assert_eq!(timed, n, "one duration sample per task");
}

/// A plain default-config run — no trace, nothing opted into — still
/// reports what the kernel workspaces saw: the rank log's exact
/// per-rank histogram (the report's `rank_evolution.histogram`, one
/// Prometheus sample per rank) and the registry's arena growth count.
/// The drift report prices every class the DAG has.
#[test]
fn default_rbf_run_reports_rank_histogram_growth_and_drift_profile() {
    let mut a = rbf_matrix();
    let out = Session::shared(FactorConfig::with_accuracy(1e-6))
        .with_drift(MachineModel::shaheen_ii())
        .run(&mut a)
        .expect("RBF operator is SPD");
    assert!(out.trace.is_none(), "tracing is opt-in");
    let log = &out.rank_evolution;
    assert!(log.events() > 0, "GEMM recompressions must be counted");
    assert_eq!(log.histogram().iter().sum::<u64>(), log.events());
    let snap = out.registry.as_ref().expect("the registry is a sink of every run");
    assert!(snap.counter(Counter::WorkspaceGrowth) > 0, "arenas grow during warm-up");
    let doc = out.to_json();
    let hist = doc.get("rank_evolution").and_then(|e| e.get("histogram")).and_then(Json::as_arr);
    let hist: Vec<u64> = hist
        .expect("the report keeps the rank histogram")
        .iter()
        .map(|n| n.as_f64().expect("counts are numbers") as u64)
        .collect();
    assert_eq!(hist, log.histogram(), "the exact count of each kept rank");
    let (top, n) = (log.max_out(), log.histogram()[log.max_out()]);
    let line = format!("\ntlr_rank_evolution_histogram{{i=\"{top}\"}} {n}\n");
    assert!(out.to_prometheus().contains(&line), "{line}");
    let drift = out.drift.expect("drift spec + default metrics => report");
    for c in drift.classes.iter().filter(|c| c.modeled_tasks > 0) {
        assert!(c.modeled_seconds > 0.0, "{}: every task has a price", c.class);
    }
}

/// Tracing is a per-run choice that never changes the factor: the same
/// matrix factors to identical bits with `collect_trace` on and off, on
/// the shared engine (wall-clock `RunOutcome::trace`) and on the
/// distributed one (virtual-time `RunOutcome::trace`).
#[test]
fn tracing_is_a_runtime_choice_with_identical_factor_bits() {
    let base = rbf_matrix();
    let off = FactorConfig::with_accuracy(1e-6);
    let mut on = off;
    on.collect_trace = true;

    let (mut s_off, mut s_on) = (base.clone(), base.clone());
    let r_off = Session::shared(off).run(&mut s_off).unwrap();
    let r_on = Session::shared(on).run(&mut s_on).unwrap();
    assert!(r_off.trace.is_none() && r_off.critical_path_seconds.is_none());
    let trace = r_on.trace.expect("collect_trace must trace");
    assert_eq!(trace.records.len(), r_on.report.dag_tasks);
    assert_eq!(s_on.to_dense_lower().as_slice(), s_off.to_dense_lower().as_slice());

    let dist = DiamondDistribution::new(4);
    let (mut d_off, mut d_on) = (base.clone(), base);
    let o_off = Session::distributed(off, 4, &dist).run(&mut d_off).unwrap();
    let o_on = Session::distributed(on, 4, &dist).run(&mut d_on).unwrap();
    assert!(o_off.trace.is_none());
    let trace = o_on.trace.expect("collect_trace must record a virtual-time trace");
    assert_eq!(trace.records.len(), o_on.report.dag_tasks);
    assert_eq!(d_on.to_dense_lower().as_slice(), d_off.to_dense_lower().as_slice());
    assert_eq!(d_on.to_dense_lower().as_slice(), s_off.to_dense_lower().as_slice());
}

/// Integrity incidents ride the same timeline as crashes: a run with an
/// injected store corruption exports `corruption_detected` and
/// `corruption_healed` instant events in its Chrome trace, even on an
/// untraced run (the event channel is always on).
#[test]
fn corruption_events_export_as_chrome_instants() {
    let mut m = gaussian_matrix(96, 6.0);
    let dist = DiamondDistribution::new(4);
    let victim = dist.owner(1, 0);
    let plan = FaultPlan::new(11).with_store_corruption(victim, 1, 0, 3.0);
    let outcome = Session::distributed(FactorConfig::with_accuracy(1e-8), 4, &dist)
        .with_fault_layer(&plan)
        .run(&mut m)
        .expect("a single store strike is healable");
    let reg = outcome.registry.as_ref().expect("every run reports its registry");
    assert_eq!(reg.counter(Counter::CorruptionsDetected), 1);
    assert_eq!(reg.counter(Counter::CorruptionsHealed), 1);

    // The exporter accepts the event stream with or without a task
    // trace.
    let text = chrome_trace_json_with_events(&Trace::default(), &outcome.events, "integrity");
    let doc = Json::parse(&text).expect("valid Chrome trace JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let instant_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(instant_names.contains(&"corruption_detected"), "{instant_names:?}");
    assert!(instant_names.contains(&"corruption_healed"), "{instant_names:?}");
}

/// The metrics registry is on by default and feeds `RunOutcome::registry`
/// on shared-memory runs: task counters, per-class busy time, and the
/// workspace high-water mark all land in the snapshot.
#[test]
fn default_shared_run_populates_the_registry() {
    let mut m = gaussian_matrix(96, 6.0);
    let mut fcfg = FactorConfig::with_accuracy(1e-8);
    fcfg.nthreads = 2;
    let out = Session::shared(fcfg).run(&mut m).expect("SPD");
    let snap = out.registry.as_ref().expect("the registry is a sink of every run");
    // One engine task per DAG task: each is enqueued and retired once.
    let executed = snap.counter(Counter::TasksExecuted);
    assert_eq!(executed as usize, out.report.dag_tasks, "one retirement per DAG task");
    assert_eq!(snap.counter(Counter::TasksEnqueued), executed);
    assert!(snap.class_busy_seconds().total() > 0.0, "kernels take time");
    assert!(snap.gauge(Gauge::ArenaHighWaterBytes) > 0.0, "workspaces allocate");
    // The snapshot exports to both wire formats without loss of the
    // headline counter.
    let j = snap.to_json().to_string();
    assert!(j.contains("tasks_executed"), "{j}");
    let prom = out.to_prometheus();
    assert!(prom.contains(&format!("\ntlr_registry_counters_tasks_executed {executed}\n")));
    assert!(prom.contains("\ntlr_report_factorization_s "), "{prom}");
}

/// Acceptance: a drift report on a distributed run prices the executed
/// plan's DAG with the simulator's per-task model and compares it to
/// measured per-class virtual time and measured comm. On a fault-free
/// run the comm model is exact — both ratios are 1.0 — and every class
/// ratio is finite (never NaN).
#[test]
fn drift_report_compares_model_to_measured_comm_exactly() {
    // Seven tile rows: on four ranks some panel's GEMMs share a
    // shipped operand, so a run that merged shipments would read < 1.0.
    let mut m = gaussian_matrix(168, 8.0);
    let fcfg = FactorConfig::with_accuracy(1e-8);
    let out = Session::distributed(fcfg, 4, &DiamondDistribution::new(4))
        .with_drift(MachineModel::shaheen_ii())
        .run(&mut m)
        .expect("SPD");
    let prom = out.to_prometheus();
    let drift = out.drift.expect("drift spec + default metrics => report");

    for c in &drift.classes {
        assert!(c.ratio.is_finite(), "{}: ratio {}", c.class, c.ratio);
        assert_eq!(c.measured_tasks, c.modeled_tasks, "{}: the DistEngine runs every task", c.class);
    }
    let gemm = drift.classes.iter().find(|c| c.class == "gemm").unwrap();
    assert!(gemm.measured_seconds > 0.0, "DES busy time lands in the registry");
    assert!(gemm.modeled_seconds > 0.0);

    let comm = drift.comm.expect("distributed runs always model comm");
    assert_eq!(comm.bytes_ratio, 1.0, "fault-free comm model is exact");
    assert_eq!(comm.messages_ratio, 1.0);
    assert!(!comm.anomalous);

    // The report serializes to JSON, and the run report's Prometheus
    // rendering carries its ratios.
    let j = drift.to_json().to_string();
    assert!(j.contains("bytes_ratio") && j.contains("modeled_seconds"), "{j}");
    assert!(prom.contains("\ntlr_drift_classes_ratio{i=\"3\"} "), "{prom}");
    assert!(prom.contains("\ntlr_drift_comm_bytes_ratio 1\n"), "{prom}");
    let table = drift.to_string();
    assert!(table.contains("gemm"), "{table}");
}

/// A crash migrates the dead rank's tasks, but the engine keeps deciding
/// which edges are messages from the planned placement (static locality).
/// So the drift report's comm model after a mid-run crash is the
/// fault-free run's traffic, and only the measured side carries the
/// recovery.
#[test]
fn drift_comm_model_after_a_crash_is_the_fault_free_traffic() {
    let m = gaussian_matrix(168, 8.0);
    let fcfg = FactorConfig::with_accuracy(1e-8);
    let dist = DiamondDistribution::new(4);
    let clean = Session::distributed(fcfg, 4, &dist)
        .run(&mut m.clone())
        .expect("SPD");
    let makespan = clean.virtual_makespan.expect("virtual time");
    let ft = FaultPlan::new(5).with_crash(1, 0.5 * makespan);
    let out = Session::distributed(fcfg, 4, &dist)
        .with_fault_layer(&ft)
        .with_drift(MachineModel::shaheen_ii())
        .run(&mut m.clone())
        .expect("one crash among four ranks is survivable");
    let crashes = out.registry.as_ref().map(|r| r.counter(Counter::Crashes));
    assert_eq!(crashes, Some(1), "the crash fired mid-run");
    let drift = out.drift.expect("drift spec => report");
    let comm = drift.comm.expect("distributed comm drift");
    assert_eq!(Some(comm.modeled), clean.comm, "the fault-free traffic");
    assert_eq!(Some(comm.measured), out.comm, "the crashed run's traffic");
}

/// The same drift machinery on the wall-clock engine: a shared-memory
/// run measures real seconds against the same modeled costs, so ratios
/// are finite (timing-dependent in value, never NaN).
#[test]
fn drift_report_works_on_wall_clock_runs() {
    let mut m = gaussian_matrix(96, 6.0);
    let mut fcfg = FactorConfig::with_accuracy(1e-8);
    fcfg.nthreads = 2;
    let out = Session::shared(fcfg)
        .with_drift(MachineModel::shaheen_ii())
        .run(&mut m)
        .expect("SPD");
    let drift = out.drift.expect("drift spec + default metrics => report");
    assert!(drift.comm.is_none(), "shared-memory runs have no wire");
    assert!(drift.classes.iter().map(|c| c.modeled_seconds).sum::<f64>() > 0.0);
    for c in &drift.classes {
        assert!(c.ratio.is_finite() && c.ratio >= 0.0, "{}: {}", c.class, c.ratio);
    }
    let total: f64 = drift.classes.iter().map(|c| c.measured_seconds).sum();
    assert!(total > 0.0, "wall-clock busy time must be measured");
    // `measured_tasks` counts what ran: per class at most what the model
    // prices, and short of it by exactly the tasks the engine elided.
    let reg = out.registry.as_ref().expect("the registry is a sink of every run");
    let ran: u64 = drift.classes.iter().map(|c| c.measured_tasks).sum();
    let skipped: u64 = drift.classes.iter().map(|c| c.modeled_tasks - c.measured_tasks).sum();
    assert_eq!(ran, reg.counter(Counter::TasksExecuted));
    assert_eq!(skipped, reg.counter(Counter::TasksElided));
    assert_eq!((ran + skipped) as usize, out.report.dag_tasks);
    let potrf = &drift.classes[0];
    assert_eq!(potrf.measured_tasks, potrf.modeled_tasks, "every POTRF runs");
    assert!(drift.to_json().to_string().contains("\"measured_tasks\""));
    assert!(drift.to_string().contains(" ran "), "{drift}");
}

/// The drift report prices a task exactly as the simulator does: on a
/// shared and on a distributed run, each class's modeled seconds are,
/// bit for bit, the sum in task-id order of the kernel seconds
/// `des_tasks` assigns the task space of the DAG rebuilt from the
/// matrix's snapshot.
#[test]
fn drift_prices_tasks_with_the_simulators_durations() {
    let machine = MachineModel::shaheen_ii();
    let m = gaussian_matrix(168, 8.0);
    let dag = build_cholesky_dag(&m.rank_snapshot(), &DagConfig::default());
    let mut expected = [0.0f64; NCLASSES];
    for (t, task) in des_tasks(&dag.graph, &machine, |_| 0).iter().enumerate() {
        expected[class_slot(dag.graph.kind(t).class())] += task.duration;
    }
    assert!(expected.iter().all(|&s| s >= 0.0) && expected[3] > 0.0);
    let fcfg = FactorConfig::with_accuracy(1e-8);
    let dist = DiamondDistribution::new(4);
    for session in [Session::shared(fcfg), Session::distributed(fcfg, 4, &dist)] {
        let out = session.with_drift(machine.clone()).run(&mut m.clone()).expect("SPD");
        let drift = out.drift.expect("drift spec => report");
        for (c, want) in drift.classes.iter().zip(expected) {
            assert_eq!(c.modeled_seconds.to_bits(), want.to_bits(), "{}", c.class);
        }
    }
}
