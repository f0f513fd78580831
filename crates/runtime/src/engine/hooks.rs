//! Capability hooks of the shared-memory engine: elision of tasks that
//! would do nothing ([`Elide`]) and the observation channel
//! ([`Observe`], [`TaskEvent`]) with its two sinks, the metrics
//! [`Registry`] and the span recorder [`ExecObs`].

use crate::graph::{Dataflow, TaskClass, TaskId};
use crate::obs::registry::{Counter, Registry};
use crate::trace::{TaskRecord, Trace};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Elision capability of a shared-memory run: which released tasks are
/// no-ops the engine may retire without running them.
///
/// The engine asks [`Elide::elides`] once per task, on the worker that
/// retires the task's last predecessor, so every task the elided one
/// depends on has finished and what they wrote is visible. A task the
/// hook claims retires on the spot: no deque push, no clock reading, no
/// kernel call and no [`TaskEvent::Retire`] — the sink sees one
/// [`TaskEvent::Elide`] instead — and its successors are released as if
/// it had run, cascading through further elided tasks. The hook must
/// claim only tasks whose kernel would change nothing; whatever
/// bookkeeping the skipped kernel would have done (a reseal, say) is the
/// hook's. The graph's sources are asked too, before the pool starts.
///
/// [`NoElide`] is the zero-cost default; any `Fn(TaskId) -> bool + Sync`
/// is a hook.
pub trait Elide: Sync {
    /// Retire `task` without running it?
    fn elides(&self, task: TaskId) -> bool;
}

/// No elision: `elides` is a constant `false` that the optimizer
/// removes, so every task runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoElide;

impl Elide for NoElide {
    #[inline]
    fn elides(&self, _task: TaskId) -> bool {
        false
    }
}

impl<F: Fn(TaskId) -> bool + Sync> Elide for F {
    #[inline]
    fn elides(&self, task: TaskId) -> bool {
        self(task)
    }
}

/// What the engine reports, as it happens, to its [`Observe`] sink.
///
/// The engine reads its clock once before and once after every kernel
/// and hands both readings to [`TaskEvent::Retire`]; a released
/// successor is enqueued at the retiring task's `end`, so no sink ever
/// needs a clock of its own.
#[derive(Debug, Clone, Copy)]
pub enum TaskEvent {
    /// Worker `wid` made `task` ready at `at` (pushed to a deque / the
    /// injector).
    Enqueue {
        /// The releasing worker (0 for the graph's sources).
        wid: usize,
        /// The task that became ready.
        task: TaskId,
        /// When: the run's start, or the releasing task's `end`.
        at: Instant,
    },
    /// Worker `wid` ran the kernel of `task` over `[start, end]`. Fires
    /// exactly once per executed task; a task drained after a
    /// cancellation never ran and reports nothing.
    Retire {
        /// The executing worker.
        wid: usize,
        /// The task that ran.
        task: TaskId,
        /// Its kernel class.
        class: TaskClass,
        /// Clock reading before the kernel.
        start: Instant,
        /// Clock reading after the kernel.
        end: Instant,
    },
    /// Worker `wid` retired `task` without running it: the run's
    /// [`Elide`] hook claimed it on release. Fires exactly once per
    /// elided task, which then reports nothing else.
    Elide {
        /// The releasing worker (0 for a source, elided before the pool
        /// starts).
        wid: usize,
        /// The task that was skipped.
        task: TaskId,
    },
    /// Worker `wid` successfully stole from a peer's deque.
    Steal {
        /// The thief.
        wid: usize,
    },
}

/// Observation capability of a shared-memory run: the one channel the
/// engine reports each task through.
///
/// The default is an inline no-op, so [`NoObserve`] compiles to nothing
/// on the hot path. Sinks compose as tuples — `(a, b)` forwards every
/// event to both — and an absent sink is `None::<&O>`.
pub trait Observe: Sync {
    /// One engine event.
    #[inline]
    fn observe(&self, _event: TaskEvent) {}
}

/// No sink: every event is dropped inline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserve;

impl Observe for NoObserve {}

impl<O: Observe> Observe for &O {
    #[inline]
    fn observe(&self, event: TaskEvent) {
        (**self).observe(event)
    }
}

/// `None` observes nothing; `Some(o)` forwards — lets callers thread an
/// optional [`ExecObs`] (`obs.as_ref()`) straight into the engine.
impl<O: Observe> Observe for Option<&O> {
    #[inline]
    fn observe(&self, event: TaskEvent) {
        if let Some(o) = self {
            o.observe(event);
        }
    }
}

/// Two sinks on the one channel: every event goes to both, in order.
impl<A: Observe, B: Observe> Observe for (A, B) {
    #[inline]
    fn observe(&self, event: TaskEvent) {
        self.0.observe(event);
        self.1.observe(event);
    }
}

/// The metrics registry as a sink: task, elision and steal counters plus
/// the per-class duration count and sum (of executed tasks only), on the
/// reporting worker's shard.
impl Observe for Registry {
    #[inline]
    fn observe(&self, event: TaskEvent) {
        match event {
            TaskEvent::Enqueue { wid, .. } => self.incr(wid, Counter::TasksEnqueued),
            TaskEvent::Retire { wid, class, start, end, .. } => {
                self.incr(wid, Counter::TasksExecuted);
                self.record_class_ns(wid, class, (end - start).as_nanos() as u64);
            }
            TaskEvent::Elide { wid, .. } => self.incr(wid, Counter::TasksElided),
            TaskEvent::Steal { wid } => self.incr(wid, Counter::Steals),
        }
    }
}

/// One task's row of the span table. `worker` stays at [`UNSET`] until
/// the task's span is recorded.
#[derive(Debug)]
struct SpanSlot {
    enqueue_ns: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    worker: AtomicUsize,
}

const UNSET: usize = usize::MAX;

/// The span recorder: the sink behind [`Trace`] capture.
///
/// Records, per task, the enqueue (ready) time, the execute start/end
/// times and the executing worker — everything [`Trace`]'s
/// derived metrics and the Chrome-trace exporter need. A run
/// that does not trace simply has no `ExecObs`: callers hand the engine
/// `obs.as_ref()`, and `None` observes nothing. Each task runs at most
/// once (an elided task has no span), so the spans live in one
/// task-indexed table sized in [`ExecObs::new`]: memory is proportional
/// to the task count whatever the worker count, and the hooks neither
/// lock nor allocate.
#[derive(Debug)]
pub struct ExecObs {
    t0: Instant,
    spans: Vec<SpanSlot>,
}

impl ExecObs {
    /// Prepare the span table for a graph of `ntasks` tasks. Times are
    /// recorded relative to this call.
    pub fn new(ntasks: usize) -> Self {
        ExecObs {
            t0: Instant::now(),
            spans: (0..ntasks)
                .map(|_| SpanSlot {
                    enqueue_ns: AtomicU64::new(0),
                    start_ns: AtomicU64::new(0),
                    end_ns: AtomicU64::new(0),
                    worker: AtomicUsize::new(UNSET),
                })
                .collect(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Harvest the recorded spans into a [`Trace`] (sorted by end time),
    /// resolving task class and tile coordinates against `graph`.
    pub fn finish(&self, graph: &impl Dataflow) -> Trace {
        let mut trace = Trace::default();
        for (t, slot) in self.spans.iter().enumerate() {
            let proc = slot.worker.load(Ordering::Relaxed);
            if proc == UNSET {
                continue;
            }
            let spec = graph.spec(t);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let queued_ns = slot.enqueue_ns.load(Ordering::Relaxed).min(start_ns);
            trace.push_record(TaskRecord {
                task: t,
                class: spec.class,
                proc,
                data: spec.writes,
                queued: queued_ns as f64 * 1e-9,
                start: start_ns as f64 * 1e-9,
                end: slot.end_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            });
        }
        trace.records.sort_by(|a, b| a.end.total_cmp(&b.end));
        trace
    }

    /// Record the span of `task` on worker `wid` ([`TaskEvent::Retire`]).
    #[inline]
    fn record_span(&self, wid: usize, task: TaskId, start: Instant, end: Instant) {
        let slot = &self.spans[task];
        slot.start_ns.store(self.ns(start), Ordering::Relaxed);
        slot.end_ns.store(self.ns(end), Ordering::Relaxed);
        slot.worker.store(wid, Ordering::Relaxed);
    }
}

impl Observe for ExecObs {
    #[inline]
    fn observe(&self, event: TaskEvent) {
        match event {
            TaskEvent::Enqueue { task, at, .. } => {
                self.spans[task].enqueue_ns.store(self.ns(at), Ordering::Relaxed)
            }
            TaskEvent::Retire { wid, task, start, end, .. } => {
                self.record_span(wid, task, start, end)
            }
            TaskEvent::Elide { .. } | TaskEvent::Steal { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per task, 32 bytes each, whatever the worker count: eight
    /// workers recording into the table need no more storage than one
    /// (it used to reserve `nthreads × ntasks` rows behind a mutex each).
    #[test]
    fn span_table_is_sized_by_tasks_not_workers() {
        let ntasks = 1000;
        let obs = ExecObs::new(ntasks);
        assert_eq!((obs.spans.len(), std::mem::size_of::<SpanSlot>()), (ntasks, 32));
        let mut g = crate::graph::GraphBuilder::new();
        for _ in 0..ntasks {
            g.add_task(crate::graph::TaskSpec { class: TaskClass::Other, writes: None, bytes: 0 });
        }
        let g = g.finish();
        let at = Instant::now();
        std::thread::scope(|s| {
            for wid in 0..8 {
                let obs = &obs;
                let mine = (wid..ntasks).step_by(8);
                s.spawn(move || mine.for_each(|t| obs.record_span(wid, t, at, at)));
            }
        });
        let trace = obs.finish(&g);
        assert_eq!(trace.records.len(), ntasks);
        assert!(trace.records.iter().all(|r| r.proc == r.task % 8));
    }
}
