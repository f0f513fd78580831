//! Cost-model drift reports: a measured run against the simulator's own
//! machine model.
//!
//! A [`DriftReport`] prices every task of the plan a run executed with
//! the discrete-event simulator's per-task model — the kernel seconds
//! [`des_tasks`](crate::simulate::des_tasks) assigns it on the given
//! machine: the nested node-parallel rate on the critical path, the
//! single-core rate at the task's own rank elsewhere — and sets the
//! per-class sums beside the busy time the run's registry measured, with
//! the drift ratio and an anomaly flag for ratios outside a fixed band
//! (8×). Distributed runs additionally compare the exact comm model
//! ([`modeled_comm`]: each task's one output, priced once per consumer on
//! another rank) against the traffic the engine measured — equal on a
//! fault-free run, drifting apart under retransmissions.
//!
//! The report is diagnostic, not normative: shared-memory runs measure
//! wall-clock seconds against a supercomputer-calibrated model, so the
//! interesting signal is the *relative* drift between classes (is GEMM
//! mispriced relative to POTRF?) and run-over-run movement tracked by
//! `bench_history`, not the absolute ratio. A distributed run measures
//! one second of virtual time per task, so there only its comm drift
//! says something about the model.

use crate::dag::CholeskySpace;
use crate::simulate::task_duration;
use runtime::des::CommStats;
use runtime::graph::{Dataflow, TaskClass};
use runtime::machine::MachineModel;
use runtime::obs::json::Json;
use runtime::obs::registry::{class_name, class_slot, RegistrySnapshot, NCLASSES};
use std::fmt;

/// Modeled communication of executing `graph` under the task→rank
/// mapping `exec_rank`: one message of the producer's output bytes per
/// consumer on another rank. This is exactly the fault-free accounting
/// of the distributed engine, so on a clean run it equals the measured
/// [`CommStats`] bit for bit.
pub fn modeled_comm(graph: &impl Dataflow, exec_rank: &[usize]) -> CommStats {
    let mut bytes = 0u64;
    let mut messages = 0u64;
    let mut consumers = Vec::new();
    for src in 0..graph.len() {
        let output = graph.successors_into(src, &mut consumers).bytes;
        let remote = consumers.iter().filter(|&&dst| exec_rank[src] != exec_rank[dst]).count() as u64;
        bytes += output * remote;
        messages += remote;
    }
    CommStats { bytes, messages }
}

/// Anomaly band: a ratio of measured to modeled outside `[1/BAND, BAND]`
/// is flagged. Wall-clock on a laptop against a supercomputer model
/// drifts by small constant factors, so only order-of-magnitude
/// surprises are flagged.
const BAND: f64 = 8.0;

/// Modeled vs measured accounting of one kernel class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDrift {
    /// Class name (`"potrf"`, `"trsm"`, `"syrk"`, `"gemm"`, `"other"`).
    pub class: &'static str,
    /// Tasks of this class in the planned DAG.
    pub modeled_tasks: u64,
    /// Tasks of this class that ran, read from the registry's duration
    /// count. Below `modeled_tasks` when the shared engine elided
    /// no-op tasks: the model prices those, the run measures only the
    /// tasks that did work. A distributed run runs every task, and
    /// counts a crash re-execution again.
    pub measured_tasks: u64,
    /// The simulator's kernel seconds summed over the class's tasks, in
    /// task-id order.
    pub modeled_seconds: f64,
    /// Busy seconds the registry measured for the class (wall-clock on
    /// shared-memory runs, virtual time on DES runs).
    pub measured_seconds: f64,
    /// `measured_seconds / modeled_seconds`; `0.0` when the class has no
    /// modeled work (never `NaN`/`Inf`).
    pub ratio: f64,
    /// Ratio fell outside `[1/8, 8]`.
    pub anomalous: bool,
}

/// Modeled vs measured cross-rank traffic of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommDrift {
    /// Exact fault-free model: one message of the producer's output
    /// bytes per cross-rank dataflow edge of the plan's task→rank mapping — the
    /// placement the engine decides its messages from, also after a
    /// crash migrated tasks (static locality).
    pub modeled: CommStats,
    /// What the engine counted, retransmissions included.
    pub measured: CommStats,
    /// `measured.bytes / modeled.bytes` (`0.0` when nothing modeled).
    pub bytes_ratio: f64,
    /// `measured.messages / modeled.messages` (`0.0` when none modeled).
    pub messages_ratio: f64,
    /// Either ratio fell outside `[1/8, 8]`.
    pub anomalous: bool,
}

/// Per-class (and, on distributed runs, per-wire) drift between the
/// simulator's model and a measured run of the same plan. Built by
/// [`Session::with_drift`](crate::session::Session::with_drift).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Name of the machine model the prediction used.
    pub machine: String,
    /// Anomaly band the flags were computed with (always 8).
    pub band: f64,
    /// One entry per kernel class, fixed order potrf/trsm/syrk/gemm/other.
    pub classes: Vec<ClassDrift>,
    /// Communication drift (distributed runs only).
    pub comm: Option<CommDrift>,
}

fn ratio(measured: f64, modeled: f64) -> f64 {
    if modeled > 0.0 && measured.is_finite() && measured >= 0.0 {
        measured / modeled
    } else {
        0.0
    }
}

fn out_of_band(r: f64) -> bool {
    r > 0.0 && !(1.0 / BAND..=BAND).contains(&r)
}

impl DriftReport {
    /// Build a report from the executed plan's task space priced on
    /// `machine`, the run's merged registry snapshot, and (on distributed
    /// runs) the plan's task→rank mapping plus measured traffic.
    pub fn compute(
        machine: &MachineModel,
        space: &CholeskySpace,
        snapshot: &RegistrySnapshot,
        comm: Option<(&[usize], CommStats)>,
    ) -> DriftReport {
        let mut modeled = [0.0f64; NCLASSES];
        let mut tasks = [0u64; NCLASSES];
        for kind in space.kinds() {
            let k = class_slot(kind.class());
            modeled[k] += task_duration(space, kind, machine);
            tasks[k] += 1;
        }
        let classes = (0..NCLASSES)
            .map(|k| {
                let class = [
                    TaskClass::Potrf,
                    TaskClass::Trsm,
                    TaskClass::Syrk,
                    TaskClass::Gemm,
                    TaskClass::Other,
                ][k];
                let measured = snapshot.class_seconds(class);
                let r = ratio(measured, modeled[k]);
                ClassDrift {
                    class: class_name(k),
                    modeled_tasks: tasks[k],
                    measured_tasks: snapshot.class_duration_ns.get(k).map_or(0, |h| h.count),
                    modeled_seconds: modeled[k],
                    measured_seconds: measured,
                    ratio: r,
                    anomalous: out_of_band(r),
                }
            })
            .collect();
        let comm = comm.map(|(exec_rank, measured)| {
            let modeled = modeled_comm(space, exec_rank);
            let br = ratio(measured.bytes as f64, modeled.bytes as f64);
            let mr = ratio(measured.messages as f64, modeled.messages as f64);
            CommDrift {
                modeled,
                measured,
                bytes_ratio: br,
                messages_ratio: mr,
                anomalous: out_of_band(br) || out_of_band(mr),
            }
        });
        DriftReport {
            machine: machine.name.clone(),
            band: BAND,
            classes,
            comm,
        }
    }

    /// The report as a [`Json`] tree (for `METRICS_*.json` dumps).
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.insert("machine", Json::Str(self.machine.clone()));
        root.insert("band", Json::Num(self.band));
        let classes = self
            .classes
            .iter()
            .map(|c| {
                let mut o = Json::obj();
                o.insert("class", Json::Str(c.class.to_string()));
                o.insert("modeled_tasks", Json::Num(c.modeled_tasks as f64));
                o.insert("measured_tasks", Json::Num(c.measured_tasks as f64));
                o.insert("modeled_seconds", Json::Num(c.modeled_seconds));
                o.insert("measured_seconds", Json::Num(c.measured_seconds));
                o.insert("ratio", Json::Num(c.ratio));
                o.insert("anomalous", Json::Bool(c.anomalous));
                o
            })
            .collect();
        root.insert("classes", Json::Arr(classes));
        if let Some(c) = &self.comm {
            let mut o = Json::obj();
            o.insert("modeled_bytes", Json::Num(c.modeled.bytes as f64));
            o.insert("modeled_messages", Json::Num(c.modeled.messages as f64));
            o.insert("measured_bytes", Json::Num(c.measured.bytes as f64));
            o.insert("measured_messages", Json::Num(c.measured.messages as f64));
            o.insert("bytes_ratio", Json::Num(c.bytes_ratio));
            o.insert("messages_ratio", Json::Num(c.messages_ratio));
            o.insert("anomalous", Json::Bool(c.anomalous));
            root.insert("comm", o);
        }
        root
    }
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cost-model drift vs {} (band {:.1}x)",
            self.machine, self.band
        )?;
        writeln!(
            f,
            "{:>6} {:>8} {:>8} {:>14} {:>14} {:>9}  flag",
            "class", "tasks", "ran", "modeled_s", "measured_s", "ratio"
        )?;
        for c in &self.classes {
            if c.modeled_tasks == 0 && c.measured_seconds == 0.0 {
                continue;
            }
            writeln!(
                f,
                "{:>6} {:>8} {:>8} {:>14.6e} {:>14.6e} {:>9.3}  {}",
                c.class,
                c.modeled_tasks,
                c.measured_tasks,
                c.modeled_seconds,
                c.measured_seconds,
                c.ratio,
                if c.anomalous { "ANOMALOUS" } else { "ok" }
            )?;
        }
        if let Some(c) = &self.comm {
            writeln!(
                f,
                "  comm: modeled {} B / {} msgs, measured {} B / {} msgs (x{:.3} / x{:.3}){}",
                c.modeled.bytes,
                c.modeled.messages,
                c.measured.bytes,
                c.measured.messages,
                c.bytes_ratio,
                c.messages_ratio,
                if c.anomalous { " ANOMALOUS" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagConfig;
    use tlr_compress::RankSnapshot;

    /// A 4 × 4 tile structure at b = 64 with dense-format, low-rank and
    /// null off-diagonal tiles.
    fn small_space() -> CholeskySpace {
        let (nt, b) = (4, 64);
        let mut ranks = vec![0usize; nt * nt];
        for (i, j, r) in [(1, 0, 4), (2, 0, 40), (2, 1, 8), (3, 1, 4), (3, 2, 16)] {
            ranks[i * nt + j] = r;
            ranks[j * nt + i] = r;
        }
        for i in 0..nt {
            ranks[i * nt + i] = b;
        }
        CholeskySpace::new(&RankSnapshot::new(nt, b, ranks), &DagConfig::default())
    }

    #[test]
    fn empty_snapshot_yields_zero_ratios_not_nan() {
        let space = small_space();
        let machine = MachineModel::shaheen_ii();
        let rep = DriftReport::compute(&machine, &space, &RegistrySnapshot::default(), None);
        assert_eq!(rep.classes.len(), 5);
        for c in &rep.classes {
            assert!(c.ratio.is_finite(), "{}: {}", c.class, c.ratio);
            assert!(!c.anomalous, "zero measurement must not flag");
        }
        assert!(rep.classes[0].modeled_seconds > 0.0);
        let tasks: u64 = rep.classes.iter().map(|c| c.modeled_tasks).sum();
        assert_eq!(tasks as usize, space.len());
        let js = rep.to_json().to_string();
        assert!(js.contains("\"modeled_seconds\""));
        assert!(!js.contains("NaN"));
    }

    #[test]
    fn band_flags_order_of_magnitude_drift() {
        assert!(out_of_band(10.0));
        assert!(out_of_band(0.05));
        assert!(!out_of_band(2.0));
        assert!(!out_of_band(0.0), "no-data ratio never flags");
    }

    #[test]
    fn comm_drift_is_exact_on_matching_model() {
        let space = small_space();
        let exec_rank: Vec<usize> = (0..space.len()).map(|t| t % 2).collect();
        let measured = modeled_comm(&space, &exec_rank);
        assert!(measured.messages > 0);
        let rep = DriftReport::compute(
            &MachineModel::fugaku(),
            &space,
            &RegistrySnapshot::default(),
            Some((&exec_rank, measured)),
        );
        let c = rep.comm.expect("comm drift requested");
        assert_eq!(c.modeled, c.measured);
        assert_eq!(c.bytes_ratio, 1.0);
        assert_eq!(c.messages_ratio, 1.0);
        assert!(!c.anomalous);
        let text = rep.to_string();
        assert!(text.contains("comm:"), "{text}");
        let prom = rep.to_json().to_prometheus();
        assert!(prom.contains("\ntlr_comm_bytes_ratio 1\n"), "{prom}");
    }

    /// The model is the engine: on a fault-free run the measured
    /// cross-rank traffic equals [`modeled_comm`] on the planned
    /// mapping, byte for byte and message for message.
    #[test]
    fn model_matches_measured_distengine_comm() {
        use crate::factorize::FactorConfig;
        use crate::session::Session;
        use distribution::TwoDBlockCyclic;
        use tlr_compress::{CompressionConfig, TlrMatrix};
        use tlr_linalg::Matrix;

        let (n, b, acc) = (120, 24, 1e-8);
        let dense = Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64) / (n as f64 / 8.0);
            (-d * d).exp() + if i == j { 1e-3 } else { 0.0 }
        });
        let ccfg = CompressionConfig::with_accuracy(acc);
        let dist = TwoDBlockCyclic::new(4);
        let session = Session::distributed(FactorConfig::with_accuracy(acc), 4, &dist);

        let plan = session.plan(&TlrMatrix::from_dense(&dense, b, &ccfg)).unwrap();
        let owners = plan.dist.as_ref().expect("a distributed session plans an owner map");
        let modeled = modeled_comm(&plan.space, &owners.exec_ranks(&plan.space));

        let mut m = TlrMatrix::from_dense(&dense, b, &ccfg);
        let measured = session.run(&mut m).unwrap().comm.unwrap();
        assert_eq!(measured.bytes, modeled.bytes);
        assert_eq!(measured.messages, modeled.messages);
    }
}
