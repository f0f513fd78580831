//! Execution traces and per-class time breakdowns.
//!
//! Both the shared-memory executor (wall-clock) and the discrete-event
//! simulator (virtual clock) emit a [`Trace`] when a caller asks for one;
//! Gantt charts and the Chrome-trace export render it. The [`crate::obs`]
//! module exports a `Trace` to Chrome-trace JSON and computes derived run
//! metrics. The simulator keeps its own busy ledger in place with the same
//! two rules the trace folds with ([`ClassBreakdown::add`] and
//! [`load_imbalance`]), so a run's ledger and its trace agree bit for bit.

use crate::graph::{DataRef, TaskClass, TaskId};
use crate::obs::registry::{class_slot, NCLASSES};
use serde::{Deserialize, Serialize};

/// One executed task.
///
/// `queued ≤ start ≤ end` in a well-formed record; consumers clamp rather
/// than trust it, because crash re-execution can retire a second copy of a
/// task with timestamps that overlap (or, with skewed per-worker clocks,
/// precede) the first.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task id in the graph this trace came from (0 when unknown).
    pub task: TaskId,
    /// Kernel class.
    pub class: TaskClass,
    /// Executing process / worker (0 for shared-memory runs).
    pub proc: usize,
    /// Tile the task writes, when known (`None` for bookkeeping tasks).
    pub data: Option<DataRef>,
    /// Time the task became ready (enqueue), seconds. Equal to `start`
    /// when the producer did not track readiness.
    pub queued: f64,
    /// Start time, seconds (virtual or wall).
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

impl TaskRecord {
    /// Execution duration, clamped to be non-negative (crash re-execution
    /// or clock skew can produce `end < start`; such records count as
    /// zero-length rather than subtracting busy time).
    pub fn duration(&self) -> f64 {
        debug_assert!(
            self.start.is_finite() && self.end.is_finite() && self.queued.is_finite(),
            "non-finite timestamps in task record"
        );
        (self.end - self.start).max(0.0)
    }

    /// Queue wait (ready → start), clamped to be non-negative.
    pub fn queue_wait(&self) -> f64 {
        (self.start - self.queued).max(0.0)
    }
}

/// A full execution trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Per-task records, in retirement order.
    pub records: Vec<TaskRecord>,
}

/// Aggregate busy time per kernel class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassBreakdown {
    /// Total POTRF seconds.
    pub potrf: f64,
    /// Total TRSM seconds.
    pub trsm: f64,
    /// Total SYRK seconds.
    pub syrk: f64,
    /// Total GEMM seconds.
    pub gemm: f64,
    /// Everything else.
    pub other: f64,
}

impl ClassBreakdown {
    /// Add `seconds` of busy time to `class`'s total.
    pub fn add(&mut self, class: TaskClass, seconds: f64) {
        match class {
            TaskClass::Potrf => self.potrf += seconds,
            TaskClass::Trsm => self.trsm += seconds,
            TaskClass::Syrk => self.syrk += seconds,
            TaskClass::Gemm => self.gemm += seconds,
            TaskClass::Other => self.other += seconds,
        }
    }

    /// Sum over all classes.
    pub fn total(&self) -> f64 {
        self.potrf + self.trsm + self.syrk + self.gemm + self.other
    }
}

impl Trace {
    /// Record one fully-described task execution.
    pub fn push_record(&mut self, rec: TaskRecord) {
        self.records.push(rec);
    }

    /// Makespan (max end time; 0 for an empty trace).
    pub fn makespan(&self) -> f64 {
        self.records.iter().fold(0.0, |m, r| m.max(r.end))
    }

    /// Total busy seconds per kernel class (durations clamped ≥ 0).
    pub fn breakdown(&self) -> ClassBreakdown {
        let mut b = ClassBreakdown::default();
        for r in &self.records {
            b.add(r.class, r.duration());
        }
        b
    }

    /// Busy seconds per process (index = proc id).
    pub fn busy_per_proc(&self, nprocs: usize) -> Vec<f64> {
        let mut busy = vec![0.0; nprocs];
        for r in &self.records {
            if r.proc < nprocs {
                busy[r.proc] += r.duration();
            }
        }
        busy
    }

    /// Idle fraction per process over the trace's makespan, each in
    /// `[0, 1]`. An empty trace reports every process fully idle.
    pub fn idle_fraction(&self, nprocs: usize) -> Vec<f64> {
        let span = self.makespan();
        if span <= 0.0 {
            return vec![1.0; nprocs];
        }
        self.busy_per_proc(nprocs)
            .into_iter()
            .map(|b| (1.0 - b / span).clamp(0.0, 1.0))
            .collect()
    }

    /// Total queue-wait seconds (ready → start) summed over all records.
    pub fn total_queue_wait(&self) -> f64 {
        self.records.iter().map(|r| r.queue_wait()).sum()
    }

    /// Render an ASCII Gantt chart: one row per process, time binned into
    /// `width` columns, each cell showing the kernel class that dominated
    /// the bin (`P`/`T`/`S`/`G`, `·` idle). The textual cousin of the
    /// PaRSEC trace visualizations the paper's analysis tooling (ref. 13 of the paper)
    /// produces.
    pub fn gantt(&self, nprocs: usize, width: usize) -> String {
        let makespan = self.makespan();
        if makespan <= 0.0 || width == 0 {
            return String::new();
        }
        // busy[proc][bin][class] = seconds
        let mut busy = vec![vec![[0.0_f64; NCLASSES]; width]; nprocs];
        let bin_w = makespan / width as f64;
        for r in &self.records {
            if r.proc >= nprocs || r.end <= r.start {
                continue;
            }
            let cls = class_slot(r.class);
            let b0 = ((r.start / bin_w) as usize).min(width - 1);
            let b1 = ((r.end / bin_w) as usize).min(width - 1);
            for (b, bin) in busy[r.proc].iter_mut().enumerate().take(b1 + 1).skip(b0) {
                let lo = (b as f64) * bin_w;
                let hi = lo + bin_w;
                let overlap = (r.end.min(hi) - r.start.max(lo)).max(0.0);
                bin[cls] += overlap;
            }
        }
        let glyphs = ['P', 'T', 'S', 'G', 'O'];
        let mut out = String::new();
        for (p, row) in busy.iter().enumerate() {
            out.push_str(&format!("p{p:<3}|"));
            for bins in row {
                let total: f64 = bins.iter().sum();
                if total < 0.05 * bin_w {
                    out.push('·');
                } else {
                    let (idx, _) = bins
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .expect("one bin per task class");
                    out.push(glyphs[idx]);
                }
            }
            out.push_str("|\n");
        }
        out
    }

    /// Load imbalance factor `max busy / mean busy` (1.0 = perfect).
    pub fn load_imbalance(&self, nprocs: usize) -> f64 {
        load_imbalance(&self.busy_per_proc(nprocs))
    }
}

/// Load imbalance factor `max busy / mean busy` of per-process busy
/// seconds (1.0 = perfect, and for no processes or no busy time).
pub fn load_imbalance(busy: &[f64]) -> f64 {
    let max = busy.iter().cloned().fold(0.0_f64, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record with class, process and times only: task 0, no tile, no
    /// queue wait.
    fn span(class: TaskClass, proc: usize, start: f64, end: f64) -> TaskRecord {
        TaskRecord { task: 0, class, proc, data: None, queued: start, start, end }
    }

    #[test]
    fn makespan_and_breakdown() {
        let mut t = Trace::default();
        t.push_record(span(TaskClass::Potrf, 0, 0.0, 1.0));
        t.push_record(span(TaskClass::Gemm, 1, 0.5, 3.0));
        t.push_record(span(TaskClass::Gemm, 0, 1.0, 2.0));
        assert_eq!(t.makespan(), 3.0);
        let b = t.breakdown();
        assert_eq!(b.potrf, 1.0);
        assert_eq!(b.gemm, 3.5);
        assert_eq!(b.total(), 4.5);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut t = Trace::default();
        t.push_record(span(TaskClass::Gemm, 0, 0.0, 10.0));
        t.push_record(span(TaskClass::Gemm, 1, 0.0, 2.0));
        let li = t.load_imbalance(2);
        assert!((li - 10.0 / 6.0).abs() < 1e-12);
        // Balanced case
        let mut t2 = Trace::default();
        t2.push_record(span(TaskClass::Gemm, 0, 0.0, 5.0));
        t2.push_record(span(TaskClass::Gemm, 1, 1.0, 6.0));
        assert!((t2.load_imbalance(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gantt_renders_classes_and_idle() {
        let mut t = Trace::default();
        t.push_record(span(TaskClass::Potrf, 0, 0.0, 5.0));
        t.push_record(span(TaskClass::Gemm, 1, 5.0, 10.0));
        let g = t.gantt(2, 10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        // proc 0 busy with POTRF in the first half, idle in the second
        assert!(lines[0].contains('P'));
        assert!(lines[0].contains('·'));
        // proc 1 idle first, GEMM second
        assert!(lines[1].contains('G'));
        assert!(lines[1].contains('·'));
        // row widths: prefix 'pN  |' + width + '|'
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn gantt_empty_trace_is_empty() {
        let t = Trace::default();
        assert!(t.gantt(4, 20).is_empty());
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.breakdown().total(), 0.0);
        assert_eq!(t.load_imbalance(4), 1.0);
        assert_eq!(t.idle_fraction(3), vec![1.0; 3]);
        assert_eq!(t.total_queue_wait(), 0.0);
    }

    #[test]
    fn reversed_span_clamps_to_zero() {
        // Crash re-execution can retire a record with end < start; it must
        // count as zero-length, not subtract busy time.
        let mut t = Trace::default();
        t.push_record(span(TaskClass::Gemm, 0, 2.0, 1.0));
        t.push_record(span(TaskClass::Gemm, 0, 0.0, 3.0));
        let b = t.breakdown();
        assert_eq!(b.gemm, 3.0);
        assert_eq!(t.busy_per_proc(1)[0], 3.0);
        assert_eq!(t.makespan(), 3.0);
        // Gantt ignores the degenerate record instead of binning garbage.
        assert!(!t.gantt(1, 8).is_empty());
    }

    #[test]
    fn idle_fraction_in_unit_interval() {
        let mut t = Trace::default();
        t.push_record(span(TaskClass::Potrf, 0, 0.0, 4.0));
        t.push_record(span(TaskClass::Gemm, 1, 0.0, 1.0));
        let idle = t.idle_fraction(3);
        assert_eq!(idle.len(), 3);
        assert!((idle[0] - 0.0).abs() < 1e-12);
        assert!((idle[1] - 0.75).abs() < 1e-12);
        assert!((idle[2] - 1.0).abs() < 1e-12);
        for f in idle {
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn queue_wait_tracks_ready_to_start() {
        let mut t = Trace::default();
        t.push_record(TaskRecord {
            task: 7,
            class: TaskClass::Trsm,
            proc: 0,
            data: Some(DataRef { i: 2, j: 1 }),
            queued: 1.0,
            start: 1.5,
            end: 2.5,
        });
        // queued == start: no wait.
        t.push_record(span(TaskClass::Gemm, 0, 3.0, 4.0));
        assert!((t.total_queue_wait() - 0.5).abs() < 1e-12);
    }
}
