//! The shared-memory work-stealing [`Engine`], over any [`Dataflow`]:
//! the Cholesky task space it derives task by task, or a hand-built
//! [`TaskGraph`](crate::graph::TaskGraph).
//!
//! A run may carry an [`Elide`] hook: a released task the hook claims is
//! a numeric no-op, retired where it was released without a deque push,
//! a clock reading or a kernel call. The TLR factorization uses it to
//! skip the tasks whose operands turned out null (see `hicma-core`'s
//! session), which are most of a fine-grained trimmed DAG.

use super::{Elide, EngineError, NoElide, NoObserve, Observe, TaskEvent, TaskPanic};
use crate::graph::{Dataflow, TaskId};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Capability configuration of a shared-memory [`Engine`] run.
///
/// Build one with [`EngineConfig::new`], then layer capabilities with
/// [`with_obs`](EngineConfig::with_obs) /
/// [`with_elide`](EngineConfig::with_elide). Each capability is a type
/// parameter, so a run without a capability monomorphizes to a loop
/// that never mentions it.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig<O = NoObserve, E = NoElide> {
    /// Worker threads of the pool (clamped to ≥ 1).
    pub nthreads: usize,
    /// Observation sink: the one channel every task, enqueue and steal
    /// is reported through (compose several sinks as a tuple).
    pub obs: O,
    /// Elision hook: which released tasks retire without running.
    pub elide: E,
}

impl EngineConfig {
    /// A plain run on `nthreads` workers: no sink, every task runs.
    pub fn new(nthreads: usize) -> Self {
        EngineConfig { nthreads, obs: NoObserve, elide: NoElide }
    }
}

impl<O, E> EngineConfig<O, E> {
    /// Layer a sink (e.g. `&Registry`, `obs.as_ref()` for an optional
    /// `ExecObs`, or a tuple of both) onto the run.
    pub fn with_obs<O2>(self, obs: O2) -> EngineConfig<O2, E> {
        let EngineConfig { nthreads, elide, .. } = self;
        EngineConfig { nthreads, obs, elide }
    }

    /// Layer an elision hook (any `Fn(TaskId) -> bool + Sync`) onto the
    /// run: see [`Elide`] for when it is asked and what it may claim.
    pub fn with_elide<E2>(self, elide: E2) -> EngineConfig<O, E2> {
        let EngineConfig { nthreads, obs, .. } = self;
        EngineConfig { nthreads, obs, elide }
    }
}

/// The shared-memory work-stealing engine.
///
/// Runs a [`Dataflow`] graph with real kernel closures on a pool of OS
/// threads, reading each task's successors as it retires. The
/// scheduling discipline mirrors PaRSEC's node-level scheduler:
/// per-worker LIFO deques (locality: a task's just-released
/// successor runs on the releasing worker while its inputs are
/// cache-hot) with random stealing, seeded from the graph sources in
/// ascending id. Dependency tracking is a per-task atomic in-degree
/// counter: the worker that retires the last predecessor
/// pushes the successor into its own deque — the "release" path of any
/// dataflow runtime — unless the run's [`Elide`] hook claims it, in
/// which case that worker retires it on the spot and releases its
/// successors in turn.
///
/// Kernel panics never hang the pool: the first panic flips an internal
/// drain flag, remaining tasks retire without running their kernels,
/// and the panic is reported as [`EngineError::Panic`] once every worker
/// has stopped.
pub struct Engine<'g, G> {
    graph: &'g G,
}

impl<'g, G: Dataflow + Sync> Engine<'g, G> {
    /// An engine over `graph`. Cheap: all state is per-run.
    pub fn new(graph: &'g G) -> Self {
        Engine { graph }
    }

    /// Execute every task exactly once, respecting all dependencies,
    /// calling `kernel(worker_index, task)` concurrently from the pool
    /// for every task the [`Elide`] hook does not claim.
    ///
    /// Ready work is ordered by task id: sources are seeded lowest first,
    /// and each retirement pushes its newly released successors onto the
    /// releasing worker's LIFO deque highest first, so the lowest is
    /// popped next while locality is preserved.
    ///
    /// The worker index is stable for the lifetime of the pool
    /// (`0..nthreads`), so callers can give every worker an exclusive
    /// slot of per-worker state (the TLR factorization hands each worker
    /// its own `KernelWorkspace` arena). Exclusive access to the data a
    /// task writes is guaranteed by the graph, not the engine.
    ///
    /// `kernel` is invoked under [`catch_unwind`]: shared state it
    /// mutates must tolerate a kernel dying mid-update (the TLR
    /// factorizations qualify — a poisoned run's output is discarded
    /// wholesale).
    pub fn run<O, E, F>(&self, cfg: &EngineConfig<O, E>, kernel: F) -> Result<(), EngineError>
    where
        O: Observe,
        E: Elide,
        F: Fn(usize, TaskId) + Sync,
    {
        let graph = self.graph;
        let n = graph.len();
        if n == 0 {
            return Ok(());
        }
        let nthreads = cfg.nthreads.max(1);

        let indegree: Vec<AtomicUsize> = graph.indegrees().map(AtomicUsize::new).collect();
        let mut sources: Vec<TaskId> =
            (0..n).filter(|&t| indegree[t].load(Ordering::Relaxed) == 0).collect();
        // Sources the hook claims retire here, before the pool starts, and
        // what they release is seeded in their place.
        let mut scratch = Scratch::default();
        let mut elided = 0;
        sources.retain(|&t| {
            if !cfg.elide.elides(t) {
                return true;
            }
            cfg.obs.observe(TaskEvent::Elide { wid: 0, task: t });
            elided += retire(graph, &indegree, cfg, 0, t, &mut scratch);
            false
        });
        sources.append(&mut scratch.released);
        sources.sort_unstable();
        let completed = AtomicUsize::new(elided);
        let first_panic: Mutex<Option<TaskPanic>> = Mutex::new(None);
        // Set by the first panic: the remaining kernels are skipped.
        let draining = AtomicBool::new(false);

        let injector = Injector::new();
        let run_start = Instant::now();
        for t in sources {
            cfg.obs.observe(TaskEvent::Enqueue { wid: 0, task: t, at: run_start });
            injector.push(t);
        }

        let workers: Vec<Worker<TaskId>> = (0..nthreads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<TaskId>> = workers.iter().map(Worker::stealer).collect();

        std::thread::scope(|scope| {
            for (wid, local) in workers.into_iter().enumerate() {
                let injector = &injector;
                let stealers = &stealers;
                let indegree = &indegree;
                let completed = &completed;
                let first_panic = &first_panic;
                let draining = &draining;
                let kernel = &kernel;
                scope.spawn(move || {
                    let mut rng: u64 = 0x9E3779B97F4A7C15 ^ (wid as u64);
                    let mut scratch = Scratch::default();
                    loop {
                        if completed.load(Ordering::Acquire) == n {
                            return;
                        }
                        let task = find_task(&local, injector, stealers, wid, &mut rng, &cfg.obs);
                        match task {
                            Some(t) => {
                                // The run's only clock reads: one before
                                // and one after the kernel, both for the
                                // sink.
                                let start = Instant::now();
                                let mut end = start;
                                if !draining.load(Ordering::Acquire) {
                                    if let Err(payload) =
                                        catch_unwind(AssertUnwindSafe(|| kernel(wid, t)))
                                    {
                                        draining.store(true, Ordering::Release);
                                        let message = payload
                                            .downcast_ref::<&str>()
                                            .map(|s| s.to_string())
                                            .or_else(|| payload.downcast_ref::<String>().cloned())
                                            .unwrap_or_else(|| "non-string panic payload".into());
                                        let mut slot =
                                            first_panic.lock().unwrap_or_else(|e| e.into_inner());
                                        if slot.is_none() {
                                            *slot = Some(TaskPanic { task: t, message });
                                        }
                                    }
                                    end = Instant::now();
                                    let class = graph.spec(t).class;
                                    let retired = TaskEvent::Retire { wid, task: t, class, start, end };
                                    cfg.obs.observe(retired);
                                }
                                // Release successors even when draining: the
                                // completion count must reach `n` to stop.
                                let retired = retire(graph, indegree, cfg, wid, t, &mut scratch);
                                // Highest id first onto the LIFO deque, so
                                // the lowest is what this worker pops next.
                                let released = &mut scratch.released;
                                released.sort_unstable_by(|a, b| b.cmp(a));
                                for dst in released.drain(..) {
                                    cfg.obs.observe(TaskEvent::Enqueue { wid, task: dst, at: end });
                                    local.push(dst);
                                }
                                completed.fetch_add(retired, Ordering::AcqRel);
                            }
                            None => std::hint::spin_loop(),
                        }
                    }
                });
            }
        });

        debug_assert_eq!(
            completed.load(Ordering::Acquire),
            n,
            "not all tasks executed"
        );
        match first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(p) => Err(EngineError::Panic(p)),
            None => Ok(()),
        }
    }
}

/// One worker's reused release buffers: they grow to their high-water
/// mark over the first retirements, after which releasing allocates
/// nothing.
#[derive(Default)]
struct Scratch {
    /// The successor list of the task being retired.
    successors: Vec<TaskId>,
    /// Released tasks the hook claimed, not yet retired.
    elided: Vec<TaskId>,
    /// Released tasks that will run, appended in release order.
    released: Vec<TaskId>,
}

/// Retire `t` (already run, drained or elided): decrement its
/// successors' in-degrees, and retire each successor that reaches zero
/// and that the hook claims the same way, reporting it as
/// [`TaskEvent::Elide`]. Successors that will run are appended to
/// `scratch.released`. Returns the number of tasks retired, `t`
/// included.
fn retire<G, O, E>(
    graph: &G,
    indegree: &[AtomicUsize],
    cfg: &EngineConfig<O, E>,
    wid: usize,
    t: TaskId,
    scratch: &mut Scratch,
) -> usize
where
    G: Dataflow,
    O: Observe,
    E: Elide,
{
    let Scratch { successors, elided, released } = scratch;
    let mut retired = 0;
    let mut next = Some(t);
    while let Some(r) = next {
        retired += 1;
        graph.successors_into(r, successors);
        for &dst in successors.iter() {
            debug_assert!(dst > r, "edge {r} → {dst} runs backwards");
            if indegree[dst].fetch_sub(1, Ordering::AcqRel) != 1 {
                continue;
            }
            if cfg.elide.elides(dst) {
                cfg.obs.observe(TaskEvent::Elide { wid, task: dst });
                elided.push(dst);
            } else {
                released.push(dst);
            }
        }
        next = elided.pop();
    }
    retired
}

/// Pop local → steal from injector → steal from a random victim.
fn find_task<O: Observe>(
    local: &Worker<TaskId>,
    injector: &Injector<TaskId>,
    stealers: &[Stealer<TaskId>],
    self_id: usize,
    rng: &mut u64,
    obs: &O,
) -> Option<TaskId> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        match injector.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    // Random-order steal attempt over all other workers.
    let k = stealers.len();
    if k > 1 {
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let start = (*rng >> 33) as usize % k;
        for off in 0..k {
            let victim = (start + off) % k;
            if victim == self_id {
                continue;
            }
            loop {
                match stealers[victim].steal_batch_and_pop(local) {
                    Steal::Success(t) => {
                        obs.observe(TaskEvent::Steal { wid: self_id });
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecObs;
    use crate::graph::{GraphBuilder, TaskClass, TaskGraph, TaskSpec};
    use std::sync::atomic::AtomicU64;

    const TASK: TaskSpec = TaskSpec { class: TaskClass::Other, writes: None, bytes: 0 };

    fn chain(n: usize) -> TaskGraph {
        let mut g = GraphBuilder::new();
        for _ in 0..n {
            g.add_task(TASK);
        }
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g.finish()
    }

    /// Chain 0 → 1 → … → n−1 must execute in exact order.
    #[test]
    fn chain_executes_in_order() {
        let g = chain(100);
        let order = Mutex::new(Vec::new());
        Engine::new(&g)
            .run(&EngineConfig::new(4), |_w, t| order.lock().unwrap().push(t))
            .unwrap();
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// The release order is id order: on one worker, a fan-out whose
    /// edges were added in a scrambled order runs its successors in
    /// ascending id, not in edge order.
    #[test]
    fn released_successors_run_in_id_order() {
        let width = 16;
        let mut g = GraphBuilder::new();
        let root = g.add_task(TASK);
        let mids: Vec<TaskId> = (0..width).map(|_| g.add_task(TASK)).collect();
        for i in 0..width {
            // 7 is coprime to 16: every successor once, in a scrambled order
            g.add_edge(root, mids[(7 * i) % width]);
        }
        let g = g.finish();
        let order = Mutex::new(Vec::new());
        Engine::new(&g)
            .run(&EngineConfig::new(1), |_w, t| order.lock().unwrap().push(t))
            .unwrap();
        assert_eq!(order.into_inner().unwrap(), (0..=width).collect::<Vec<_>>());
    }

    /// Every task runs exactly once, even with wide fan-out.
    #[test]
    fn fanout_runs_each_task_once() {
        let width = 500;
        let mut g = GraphBuilder::new();
        let root = g.add_task(TASK);
        let mids: Vec<TaskId> = (0..width).map(|_| g.add_task(TASK)).collect();
        let sink = g.add_task(TASK);
        for mid in mids {
            g.add_edge(root, mid);
            g.add_edge(mid, sink);
        }
        let g = g.finish();
        let counts: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        Engine::new(&g)
            .run(&EngineConfig::new(8), |_w, t| {
                counts[t].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        for (t, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "task {t} ran wrong number of times"
            );
        }
    }

    /// Dependencies are respected: a parent's effect is visible to children.
    #[test]
    fn dependency_happens_before() {
        // Layered graph: each layer sums the previous layer's value + 1.
        let layers = 50;
        let width = 8;
        let mut g = GraphBuilder::new();
        // Each task's layer: ids are handed out layer by layer.
        let task_layer: Vec<usize> = (0..layers * width).map(|t| t / width).collect();
        let mut prev: Vec<TaskId> = (0..width).map(|_| g.add_task(TASK)).collect();
        for _ in 1..layers {
            let cur: Vec<TaskId> = (0..width).map(|_| g.add_task(TASK)).collect();
            for &p in &prev {
                for &c in &cur {
                    g.add_edge(p, c);
                }
            }
            prev = cur;
        }
        let g = g.finish();
        let level = AtomicU64::new(0);
        let violations = AtomicUsize::new(0);
        // Record the maximum "wave" seen; a child running before any parent
        // would observe a lower wave than required.
        Engine::new(&g)
            .run(&EngineConfig::new(8), |_w, t| {
                let seen = level.load(Ordering::SeqCst);
                if (task_layer[t] as u64) < seen.saturating_sub(1) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                level.fetch_max(task_layer[t] as u64, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_graph_ok() {
        let g = GraphBuilder::new().finish();
        Engine::new(&g)
            .run(&EngineConfig::new(4), |_w, _t| panic!("no tasks"))
            .unwrap();
    }

    #[test]
    fn single_thread_ok() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(TASK);
        let b = g.add_task(TASK);
        g.add_edge(a, b);
        let g = g.finish();
        let order = Mutex::new(Vec::new());
        Engine::new(&g)
            .run(&EngineConfig::new(1), |_w, t| order.lock().unwrap().push(t))
            .unwrap();
        assert_eq!(order.into_inner().unwrap(), vec![a, b]);
    }

    /// A panicking kernel must not hang the pool: the run drains via the
    /// engine's internal flag, every task is retired, and the first panic
    /// is reported.
    #[test]
    fn panic_drains_without_external_token() {
        let g = chain(64);
        let ran = AtomicUsize::new(0);
        let err = Engine::new(&g)
            .run(&EngineConfig::new(4), |_w, t| {
                ran.fetch_add(1, Ordering::SeqCst);
                if t == 5 {
                    panic!("kernel exploded on task {t}");
                }
            })
            .unwrap_err();
        let EngineError::Panic(p) = err else {
            panic!("expected a panic error, got {err:?}")
        };
        assert_eq!(p.task, 5);
        assert!(p.message.contains("exploded"), "{}", p.message);
        // Tasks after the panic drained without running their kernels.
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    /// Observed execution: every task gets a span with sane timestamps
    /// and the run itself is unaffected.
    #[test]
    fn observed_execution_captures_spans() {
        let g = chain(32);
        let obs = ExecObs::new(g.len());
        let ran = AtomicUsize::new(0);
        Engine::new(&g)
            .run(&EngineConfig::new(2).with_obs(&obs), |_wid, _t| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 32);
        let trace = obs.finish(&g);
        assert_eq!(trace.records.len(), 32);
        for r in &trace.records {
            assert!(r.queued <= r.start + 1e-12);
            assert!(r.start <= r.end);
            assert!(r.proc < 2);
        }
        // Records come back sorted by end time.
        for w in trace.records.windows(2) {
            assert!(w[0].end <= w[1].end);
        }
    }

    /// An optional observer threads through as `Option<&ExecObs>`.
    #[test]
    fn optional_observer_composes() {
        let g = chain(16);
        let obs: Option<ExecObs> = None;
        Engine::new(&g)
            .run(&EngineConfig::new(2).with_obs(obs.as_ref()), |_w, _t| {})
            .unwrap();
    }

    /// An elided task never reaches the kernel, yet releases its
    /// successors: on a chain where the hook claims two tasks of every
    /// three (the source among them, so a cascade runs before the pool
    /// starts), the rest run in chain order, and the registry and the span
    /// recorder see one `Elide` per skipped task and no span for it.
    #[test]
    fn elided_tasks_release_their_successors_without_running() {
        use crate::obs::registry::{Counter, Registry};
        let g = chain(20);
        let (registry, obs) = (Registry::new(4), ExecObs::new(g.len()));
        let order = Mutex::new(Vec::new());
        Engine::new(&g)
            .run(
                &EngineConfig::new(4).with_obs((&registry, &obs)).with_elide(|t| t % 3 != 2),
                |_w, t| order.lock().unwrap().push(t),
            )
            .unwrap();
        assert_eq!(order.into_inner().unwrap(), vec![2, 5, 8, 11, 14, 17]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(Counter::TasksExecuted), 6);
        assert_eq!(snap.counter(Counter::TasksElided), 14);
        assert_eq!(snap.counter(Counter::TasksEnqueued), 6);
        assert_eq!(obs.finish(&g).records.len(), 6);
    }

    /// A hook that claims every task runs nothing and still terminates.
    #[test]
    fn a_run_that_elides_everything_terminates() {
        let g = chain(8);
        Engine::new(&g)
            .run(&EngineConfig::new(2).with_elide(|_| true), |_w, _t| panic!("nothing runs"))
            .unwrap();
    }
}
