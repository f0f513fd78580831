//! Capability hooks of the shared-memory engine: cancellation
//! ([`Cancel`]) and span capture ([`Observe`], [`ExecObs`]).

use crate::graph::{TaskGraph, TaskId};
use crate::trace::{TaskRecord, Trace};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cancellation capability of a shared-memory run.
///
/// The engine polls [`Cancel::is_cancelled`] before invoking each kernel
/// and calls [`Cancel::cancel`] when a kernel panics, so an external
/// token observes the panic-drain. [`NoCancel`] is the zero-cost no-op;
/// [`AtomicBool`] is the standard token.
pub trait Cancel: Sync {
    /// Should the remaining kernels be skipped?
    fn is_cancelled(&self) -> bool;
    /// Request cancellation (kernels stop, bookkeeping still drains).
    fn cancel(&self);
}

/// No cancellation token: `is_cancelled` is a constant `false` that the
/// optimizer removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCancel;

impl Cancel for NoCancel {
    #[inline]
    fn is_cancelled(&self) -> bool {
        false
    }
    #[inline]
    fn cancel(&self) {}
}

impl Cancel for AtomicBool {
    #[inline]
    fn is_cancelled(&self) -> bool {
        self.load(Ordering::Acquire)
    }
    #[inline]
    fn cancel(&self) {
        self.store(true, Ordering::Release);
    }
}

impl<C: Cancel + ?Sized> Cancel for &C {
    #[inline]
    fn is_cancelled(&self) -> bool {
        (**self).is_cancelled()
    }
    #[inline]
    fn cancel(&self) {
        (**self).cancel()
    }
}

/// Observation capability of a shared-memory run (span capture).
///
/// Every method defaults to an inline no-op, so [`NoObserve`] compiles
/// to nothing on the hot path; an absent [`ExecObs`] (the `Option<&O>`
/// impl) costs one predictable branch per hook.
pub trait Observe: Sync {
    /// Current time on the observation clock, integer nanoseconds.
    #[inline]
    fn now_ns(&self) -> u64 {
        0
    }
    /// Task `_t` just became ready (pushed to a deque / the injector).
    #[inline]
    fn on_enqueue(&self, _t: TaskId) {}
    /// Worker `_wid` finished task `_t` which started at `_start_ns`.
    #[inline]
    fn on_retire(&self, _wid: usize, _t: TaskId, _start_ns: u64) {}
    /// Worker `_wid` successfully stole from a peer's deque.
    #[inline]
    fn on_steal(&self, _wid: usize) {}
}

/// No span capture: every hook is an inline no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserve;

impl Observe for NoObserve {}

impl<O: Observe> Observe for &O {
    #[inline]
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }
    #[inline]
    fn on_enqueue(&self, t: TaskId) {
        (**self).on_enqueue(t)
    }
    #[inline]
    fn on_retire(&self, wid: usize, t: TaskId, start_ns: u64) {
        (**self).on_retire(wid, t, start_ns)
    }
    #[inline]
    fn on_steal(&self, wid: usize) {
        (**self).on_steal(wid)
    }
}

/// `None` observes nothing; `Some(o)` forwards — lets callers thread an
/// optional [`ExecObs`] (`obs.as_ref()`) straight into the engine.
impl<O: Observe> Observe for Option<&O> {
    #[inline]
    fn now_ns(&self) -> u64 {
        match self {
            Some(o) => o.now_ns(),
            None => 0,
        }
    }
    #[inline]
    fn on_enqueue(&self, t: TaskId) {
        if let Some(o) = self {
            o.on_enqueue(t);
        }
    }
    #[inline]
    fn on_retire(&self, wid: usize, t: TaskId, start_ns: u64) {
        if let Some(o) = self {
            o.on_retire(wid, t, start_ns);
        }
    }
    #[inline]
    fn on_steal(&self, wid: usize) {
        if let Some(o) = self {
            o.on_steal(wid);
        }
    }
}

/// Span and steal data harvested from one observed execution.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// One record per executed task (retirement order sorted by end time).
    pub trace: Trace,
    /// Successful steals per worker (tasks this worker took from a peer's
    /// deque; injector grabs are not steals).
    pub steals: Vec<u64>,
}

impl ExecReport {
    /// Total steal count over all workers.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }
}

/// Observation hooks for one engine run.
///
/// Captures, per task, the enqueue (ready) time, the execute start/end
/// times, and the executing worker, plus per-worker steal counters —
/// everything [`crate::obs::RunMetrics`] and the Chrome-trace exporter
/// need. A run that does not trace simply has no `ExecObs`: callers
/// hand the engine `obs.as_ref()`, and `None` observes nothing. All
/// span storage is preallocated in [`ExecObs::new`], so the hooks never
/// allocate (the `trace_overhead` bench gates this).
#[derive(Debug)]
pub struct ExecObs {
    t0: Instant,
    /// Nanoseconds since `t0` at which each task became ready.
    enqueue_ns: Vec<AtomicU64>,
    /// Per-worker span logs; each mutex is only ever taken by its own
    /// worker during the run (uncontended), then drained in `finish`.
    logs: Vec<Mutex<Vec<(TaskId, u64, u64)>>>,
    /// Successful deque steals per worker.
    steals: Vec<AtomicU64>,
}

impl ExecObs {
    /// Prepare storage for a graph of `ntasks` tasks on `nthreads`
    /// workers. All vectors are sized up front: the per-task hooks never
    /// allocate (each worker's log reserves room for every task, since in
    /// the worst case one worker runs the whole graph).
    pub fn new(ntasks: usize, nthreads: usize) -> Self {
        ExecObs {
            t0: Instant::now(),
            enqueue_ns: (0..ntasks).map(|_| AtomicU64::new(0)).collect(),
            logs: (0..nthreads.max(1))
                .map(|_| Mutex::new(Vec::with_capacity(ntasks)))
                .collect(),
            steals: (0..nthreads.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Harvest the captured spans into an [`ExecReport`], resolving task
    /// class and tile coordinates against `graph`.
    pub fn finish(&self, graph: &TaskGraph) -> ExecReport {
        let mut trace = Trace::default();
        for (wid, log) in self.logs.iter().enumerate() {
            let log = log.lock().unwrap_or_else(|e| e.into_inner());
            for &(t, start_ns, end_ns) in log.iter() {
                let spec = graph.spec(t);
                let queued_ns = self.enqueue_ns[t].load(Ordering::Relaxed).min(start_ns);
                trace.push_record(TaskRecord {
                    task: t,
                    class: spec.class,
                    proc: wid,
                    data: spec.writes,
                    queued: queued_ns as f64 * 1e-9,
                    start: start_ns as f64 * 1e-9,
                    end: end_ns as f64 * 1e-9,
                });
            }
        }
        trace.records.sort_by(|a, b| a.end.total_cmp(&b.end));
        ExecReport {
            trace,
            steals: self
                .steals
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Record an explicit span for `task` on worker `wid`, with both
    /// endpoints in [`Observe::now_ns`] time.
    ///
    /// This is the span-splitting entry used by the panel-batching layer:
    /// a fused engine task measures each member kernel itself and reports
    /// the members here (suppressing the fused task's own
    /// [`Observe::on_retire`]), so per-task attribution, `RunMetrics`,
    /// and trace exports keep seeing individual kernels.
    /// Allocation-free: the per-worker logs are preallocated.
    #[inline]
    pub fn record_span(&self, wid: usize, task: TaskId, start_ns: u64, end_ns: u64) {
        let mut log = self.logs[wid].lock().unwrap_or_else(|e| e.into_inner());
        log.push((task, start_ns, end_ns));
    }
}

impl Observe for ExecObs {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    fn on_enqueue(&self, t: TaskId) {
        self.enqueue_ns[t].store(self.now_ns(), Ordering::Relaxed);
    }

    #[inline]
    fn on_retire(&self, wid: usize, t: TaskId, start_ns: u64) {
        self.record_span(wid, t, start_ns, self.now_ns());
    }

    #[inline]
    fn on_steal(&self, wid: usize) {
        self.steals[wid].fetch_add(1, Ordering::Relaxed);
    }
}
