//! Schedule goldens: the panel-priority schedule at the DES and the
//! distributed engine must stay the schedule it was when these values
//! were recorded (the commit before the planner was unified; the lines
//! read `panel-priority` from the time other ready-queue policies
//! existed). A drift here means a refactor changed *what runs when*, not
//! merely how the code is arranged; factors stay bit-identical under any
//! schedule, so nothing else would notice.
//!
//! The `graph` lines pin what every schedule is computed from: the task
//! space every engine walks, task for task and edge for edge (recorded
//! when the DAG was still laid out as a graph, at the commit before the
//! builder drew its edges from `TaskKind::operands`). Its `specs` fold
//! covers every task's panel, which never decreases with the id, so id
//! order — the one order every ready queue keeps — is panel order too.
//!
//! On a mismatch the assertion prints each line that moved — door and
//! fixture are its first words — and then the whole table.

use hicma_parsec::cholesky::lorapo::{hicma_parsec_config, lorapo_config};
use hicma_parsec::cholesky::simulate::{
    simulate_cholesky, simulate_cholesky_faulty, SimConfig, SimReport,
};
use hicma_parsec::cholesky::{CholeskySpace, DagConfig, FactorConfig, Session};
use hicma_parsec::distribution::TwoDBlockCyclic;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::runtime::graph::Dataflow;
use hicma_parsec::runtime::{FaultPlan, MachineModel, Trace};
use hicma_parsec::tlr::{CompressionConfig, RankSnapshot, SyntheticRankModel, TlrMatrix};
use std::fmt::Write as _;

/// The RBF-structured SPD fixture of `tests/engine_composition.rs` at
/// one fixed seed: n = 144, b = 24 (NT = 6), accuracy 1e-8.
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

/// A fault-free simulation that records its schedule for the `order` fold.
fn traced(snap: &RankSnapshot, cfg: &SimConfig) -> (SimReport, Trace) {
    let mut trace = Trace::default();
    let r = simulate_cholesky_faulty(snap, cfg, &FaultPlan::none(), 0.0, Some(&mut trace)).unwrap();
    (r, trace)
}

fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf29ce484222325, |h, w| (h ^ w).wrapping_mul(0x100000001b3))
}

/// A task space as two folds: every task's `(class, panel, writes,
/// flops bits)` in id order, and every successor list in list order,
/// each consumer folded with its producer's output `(dst, writes,
/// bytes)` (each list opened by its source and length, so moving an edge
/// between lists moves the fold).
fn graph_folds(g: &CholeskySpace) -> String {
    let tasks = (0..g.len()).flat_map(|t| {
        let s = g.spec(t);
        let w = s.writes.map_or([u64::MAX; 2], |d| [d.i as u64, d.j as u64]);
        let flops = g.price(g.kind(t)).flops;
        [s.class as u64, g.kind(t).panel() as u64, w[0], w[1], flops.to_bits()]
    });
    let (mut succ, mut num_edges) = (Vec::new(), 0);
    let mut edges = Vec::new();
    for t in 0..g.len() {
        let out = g.successors_into(t, &mut succ);
        num_edges += succ.len();
        edges.extend([t as u64, succ.len() as u64]);
        let w = out.writes.unwrap();
        let fields = |&dst: &usize| [dst as u64, w.i as u64, w.j as u64, out.bytes];
        edges.extend(succ.iter().flat_map(fields));
    }
    format!(
        "tasks={} edges={} specs={:#018x} succs={:#018x}",
        g.len(),
        num_edges,
        fnv(tasks),
        fnv(edges.into_iter())
    )
}

fn actual() -> String {
    let mut out = String::new();

    // DES door: the paper's two presets on one synthetic snapshot, on a
    // machine small enough (4 nodes x 2 cores) that ready queues back up
    // and the id decides the order.
    let snap = SyntheticRankModel::from_application(32, 512, 2e-3, 1e-4).snapshot();
    let machine = MachineModel { cores_per_node: 2, ..MachineModel::shaheen_ii() };
    for (name, cfg) in [
        ("hicma", hicma_parsec_config(machine.clone(), 4)),
        ("lorapo", lorapo_config(machine.clone(), 4)),
    ] {
        let (r, trace) = traced(&snap, &cfg);
        writeln!(
            out,
            "des {name} panel-priority secs={:#018x} comm={}/{} tasks={} imbalance={:#018x} \
             order={:#018x}",
            r.factorization_seconds.to_bits(),
            r.comm.bytes,
            r.comm.messages,
            r.dag_tasks,
            r.load_imbalance.to_bits(),
            fnv(trace.records.iter().map(|rec| (rec.task * 4 + rec.proc) as u64)),
        )
        .unwrap();
    }

    // Distributed door: per-rank execution sequence of the virtual trace.
    let dist = TwoDBlockCyclic::new(4);
    let mut cfg = FactorConfig::with_accuracy(1e-8);
    cfg.collect_trace = true;
    let traced = Session::distributed(cfg, 4, &dist).run(&mut rbf_fixture()).unwrap();
    let comm = traced.comm.unwrap();
    write!(
        out,
        "dist panel-priority comm={}/{} makespan={:#018x}",
        comm.bytes,
        comm.messages,
        traced.virtual_makespan.unwrap().to_bits(),
    )
    .unwrap();
    let trace = traced.trace.unwrap();
    for rank in 0..4 {
        let seq: Vec<usize> =
            trace.records.iter().filter(|r| r.proc == rank).map(|r| r.task).collect();
        write!(out, " rank{rank}={seq:?}").unwrap();
    }
    out.push('\n');

    // Graph door: the task space, trimmed and untrimmed.
    for (name, snapshot) in [("rbf", rbf_fixture().rank_snapshot()), ("synthetic", snap)] {
        for (label, trimmed) in [("trimmed", true), ("untrimmed", false)] {
            let cfg = DagConfig { trimmed, ..DagConfig::default() };
            let space = CholeskySpace::new(&snapshot, &cfg);
            writeln!(out, "graph {name} {label} {}", graph_folds(&space)).unwrap();
        }
    }
    out
}

const GOLDEN: &str = "\
des hicma panel-priority secs=0x3fc59a9e771b06c5 comm=192618496/766 tasks=1924 imbalance=0x3ff06091917ede7c order=0x28c59227db837263
des lorapo panel-priority secs=0x3fc3a7c6e58b6254 comm=180649984/990 tasks=5984 imbalance=0x3ff4f898f8c5d3e4 order=0x212670082dccf185
dist panel-priority comm=124416/49 makespan=0x403e000000000000 rank0=[0, 2, 4, 7, 9, 15, 26, 28, 31, 36, 38, 41, 49, 52] rank1=[11, 14, 16, 22, 24, 32, 43, 47] rank2=[1, 3, 5, 13, 18, 20, 30, 33, 35, 37, 39, 45, 51, 53] rank3=[6, 8, 10, 12, 17, 19, 21, 23, 25, 27, 29, 34, 40, 42, 44, 46, 48, 50, 54, 55]
graph rbf trimmed tasks=56 edges=105 specs=0x93fa33d7fccdf5ea succs=0x42992e9a3d408096
graph rbf untrimmed tasks=56 edges=105 specs=0x93fa33d7fccdf5ea succs=0x42992e9a3d408096
graph synthetic trimmed tasks=1924 edges=4818 specs=0xe94f56524e4ad11d succs=0x18c46f1731144c5a
graph synthetic untrimmed tasks=5984 edges=16368 specs=0x304b1a9062b8e825 succs=0x3e8ec14ad6c382e5
";

#[test]
fn schedules_match_the_recorded_goldens() {
    let actual = actual();
    let moved: Vec<String> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(now, recorded)| now != recorded)
        .map(|(now, recorded)| format!("  recorded: {recorded}\n  now:      {now}"))
        .collect();
    assert!(
        actual == GOLDEN,
        "schedule drift on {} line(s):\n{}\n\nwhole table now:\n{actual}",
        moved.len(),
        moved.join("\n")
    );
}

/// The DES door under *priced faults*: the fixture of the `des` lines
/// above with one mid-run crash or one store corruption, timed as
/// fractions of the fault-free makespan, and a detection window long
/// enough that the re-execution lands on the critical path. A
/// re-execution skips the send path of a `Finish`, which the fault-free
/// lines never do; these pin it (recorded at the commit before the
/// simulator's state became one struct and its broadcast table went).
fn actual_faulty() -> String {
    let mut out = String::new();
    let snap = SyntheticRankModel::from_application(32, 512, 2e-3, 1e-4).snapshot();
    let machine = MachineModel { cores_per_node: 2, ..MachineModel::shaheen_ii() };
    for (name, cfg) in [
        ("hicma", hicma_parsec_config(machine.clone(), 4)),
        ("lorapo", lorapo_config(machine.clone(), 4)),
    ] {
        let t = simulate_cholesky(&snap, &cfg).factorization_seconds;
        for (fault, plan) in [
            ("crash", FaultPlan::new(11).with_crash(1, 0.5 * t)),
            ("corrupt", FaultPlan::new(11).with_store_corruption(2, 1, 0, 0.4 * t)),
        ] {
            let mut trace = Trace::default();
            let r =
                simulate_cholesky_faulty(&snap, &cfg, &plan, 0.75 * t, Some(&mut trace)).unwrap();
            writeln!(
                out,
                "des-{fault} {name} panel-priority secs={:#018x} comm={}/{} crashes={} \
                 migrated={} reexecuted={} corruptions={} imbalance={:#018x} order={:#018x}",
                r.factorization_seconds.to_bits(),
                r.comm.bytes,
                r.comm.messages,
                r.crashes,
                r.migrated_tasks,
                r.reexecuted_tasks,
                r.corruptions,
                r.load_imbalance.to_bits(),
                fnv(trace.records.iter().map(|rec| (rec.task * 4 + rec.proc) as u64)),
            )
            .unwrap();
        }
    }
    out
}

const GOLDEN_FAULTY: &str = "\
des-crash hicma panel-priority secs=0x3fcb2abfbea9cad4 comm=192618496/766 crashes=1 migrated=224 reexecuted=14 corruptions=0 imbalance=0x3ff2cc787fcb4de5 order=0x9b496d4f70a4b687
des-corrupt hicma panel-priority secs=0x3fc8dc10fa65a57b comm=192618496/766 crashes=0 migrated=0 reexecuted=1 corruptions=1 imbalance=0x3ff06218813e3f31 order=0xcb36baba007171d3
des-crash lorapo panel-priority secs=0x3fc8d47443473dcf comm=180649984/990 crashes=1 migrated=321 reexecuted=41 corruptions=0 imbalance=0x3ff838e0e9537a04 order=0x70ef3ec012de51b2
des-corrupt lorapo panel-priority secs=0x3fc69b32e73fc4fc comm=180649984/990 crashes=0 migrated=0 reexecuted=1 corruptions=1 imbalance=0x3ff4f898f8c5d3e4 order=0x210208e5d2d1e591
";

#[test]
fn priced_faults_match_the_recorded_goldens() {
    let actual = actual_faulty();
    assert!(actual == GOLDEN_FAULTY, "priced-fault drift; table now:\n{actual}");
}

/// The DES door on the shapes the `des` lines above leave out: no
/// per-task runtime overhead (`task_overhead_s = 0`, so a task is managed
/// at the very instant it becomes ready) at 4 and at 16 nodes, and the
/// default overhead at 16 nodes (sixteen serial runtime threads instead
/// of four). Same fixture, same fold — `order` spaces tasks 32 apart so
/// that 16 processes stay distinct in it; recorded at the commit before
/// the simulator's runtime-thread and same-instant events left the one
/// heap.
fn actual_event_streams() -> String {
    let mut out = String::new();
    let snap = SyntheticRankModel::from_application(32, 512, 2e-3, 1e-4).snapshot();
    let base = MachineModel { cores_per_node: 2, ..MachineModel::shaheen_ii() };
    let free = MachineModel { task_overhead_s: 0.0, ..base.clone() };
    for (shape, machine, nodes) in
        [("no-overhead", &free, 4), ("no-overhead", &free, 16), ("overhead", &base, 16)]
    {
        for (name, cfg) in [
            ("hicma", hicma_parsec_config(machine.clone(), nodes)),
            ("lorapo", lorapo_config(machine.clone(), nodes)),
        ] {
            let (r, trace) = traced(&snap, &cfg);
            writeln!(
                out,
                "des-{shape} {name} panel-priority nodes={nodes} secs={:#018x} comm={}/{} \
                 tasks={} imbalance={:#018x} order={:#018x}",
                r.factorization_seconds.to_bits(),
                r.comm.bytes,
                r.comm.messages,
                r.dag_tasks,
                r.load_imbalance.to_bits(),
                fnv(trace.records.iter().map(|rec| (rec.task * 32 + rec.proc) as u64)),
            )
            .unwrap();
        }
    }
    out
}

const GOLDEN_EVENT_STREAMS: &str = "\
des-no-overhead hicma panel-priority nodes=4 secs=0x3fc56c16a4534e38 comm=192618496/766 tasks=1924 imbalance=0x3ff06091917ede7c order=0x458bbeacd181401b
des-no-overhead lorapo panel-priority nodes=4 secs=0x3fc3762850a2a796 comm=180649984/990 tasks=5984 imbalance=0x3ff4f898f8c5d3e4 order=0xa8431418ade1b14b
des-no-overhead hicma panel-priority nodes=16 secs=0x3fbb86fa72bfe3b5 comm=487088128/1928 tasks=1924 imbalance=0x3ff1bbde90716a36 order=0x1ce7be0766df4005
des-no-overhead lorapo panel-priority nodes=16 secs=0x3fbbbbfae494b05c comm=476520448/2780 tasks=5984 imbalance=0x4000aa8a7b5c10aa order=0xc303823910a38f5f
des-overhead hicma panel-priority nodes=16 secs=0x3fbbe5d19be7bb94 comm=487088128/1928 tasks=1924 imbalance=0x3ff1bbde90716a36 order=0x6585e144124d57c9
des-overhead lorapo panel-priority nodes=16 secs=0x3fbc6b52364a04f3 comm=476520448/2780 tasks=5984 imbalance=0x4000aa8a7b5c10aa order=0x8bed3f0d5d83f4b3
";

#[test]
fn event_stream_shapes_match_the_recorded_goldens() {
    let actual = actual_event_streams();
    assert!(actual == GOLDEN_EVENT_STREAMS, "DES drift; table now:\n{actual}");
}

/// The `SimReport` fields no line above pins: the compute-only critical
/// path, the four per-class busy sums, the write-back bytes and both task
/// counts, on the `des` lines' snapshot under both presets and on an
/// untrimmed NT 64 Lorapo run at 2 nodes (the shape of the benchmark's
/// Lorapo simulation: the paper's shape and accuracy, b = 305, the machine
/// scaled down by 256). Recorded at the commit before the simulator
/// stopped building an explicit DAG.
fn actual_report_fields() -> String {
    let mut out = String::new();
    let synthetic = SyntheticRankModel::from_application(32, 512, 2e-3, 1e-4).snapshot();
    let small = MachineModel { cores_per_node: 2, ..MachineModel::shaheen_ii() };
    let bench = SyntheticRankModel::from_application(64, 305, 3.7e-4, 1e-4).snapshot();
    let scaled = {
        let m = MachineModel::shaheen_ii();
        let s = 256.0;
        MachineModel {
            task_overhead_s: m.task_overhead_s / s,
            dep_overhead_s: m.dep_overhead_s / s,
            latency_s: m.latency_s / s,
            ..m
        }
    };
    for (name, snap, cfg) in [
        ("synthetic hicma", &synthetic, hicma_parsec_config(small.clone(), 4)),
        ("synthetic lorapo", &synthetic, lorapo_config(small.clone(), 4)),
        ("bench lorapo", &bench, lorapo_config(scaled, 2)),
    ] {
        let r = simulate_cholesky(snap, &cfg);
        let b = &r.breakdown;
        writeln!(
            out,
            "report {name} cp={:#018x} potrf={:#018x} trsm={:#018x} syrk={:#018x} \
             gemm={:#018x} writeback={} tasks={}/{}",
            r.critical_path_seconds.to_bits(),
            b.potrf.to_bits(),
            b.trsm.to_bits(),
            b.syrk.to_bits(),
            b.gemm.to_bits(),
            r.writeback_bytes,
            r.dag_tasks,
            r.dense_dag_tasks,
        )
        .unwrap();
    }
    out
}

const GOLDEN_REPORT_FIELDS: &str = "\
report synthetic hicma cp=0x3fb641d079caaac3 potrf=0x3fa1c8d7da978278 trsm=0x3fb6353f078ccd92 syrk=0x3fbc3a1297e23d8c gemm=0x3fe185acad506d09 writeback=41205760 tasks=1924/5984
report synthetic lorapo cp=0x3fb641d079caaac3 potrf=0x3fa1c8d7da97827b trsm=0x3fb6353f078ccd8f syrk=0x3fbc3a1297e23d87 gemm=0x3fe185acad506d02 writeback=0 tasks=5984/5984
report bench lorapo cp=0x3f76743a6e27b99e potrf=0x3f4e137f0c4f27f2 trsm=0x3f9d12b98b94bc33 syrk=0x3f6741985bc54ffd gemm=0x3fa2e8c21b138172 writeback=0 tasks=45760/45760
";

#[test]
fn report_fields_match_the_recorded_goldens() {
    let actual = actual_report_fields();
    assert!(actual == GOLDEN_REPORT_FIELDS, "SimReport drift; table now:\n{actual}");
}
